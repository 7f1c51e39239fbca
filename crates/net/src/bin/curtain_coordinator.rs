//! CLI: run a curtain coordinator.
//!
//! ```text
//! curtain_coordinator <k> <d> [--wal <path>] [--strict] [--standby-of <addr>]
//!                             [--checkpoint <path>] [--stats-every <secs>]
//!                             [--trace <path>] [--metrics <addr>]
//! ```
//!
//! Prints the control address; peers and the source point at it. With
//! `--wal`, every matrix mutation is logged durably and a restart with
//! the same path *recovers* the previous matrix instead of starting
//! empty (an existing non-empty log is replayed; a missing or empty one
//! starts fresh); recovery is followed by a proactive resync sweep over
//! every known peer. `--strict` makes a WAL failure fence mutations
//! (`Response::Unavailable`) instead of serving them non-durably from
//! memory. `--standby-of <addr>` runs this process as a *warm standby*
//! of the primary at `addr`: it bootstraps over the control port, tails
//! the primary's WAL into its own `--wal` path, and promotes itself at
//! the primary's address when the primary stops answering. The optional
//! checkpoint file is rewritten after every stats interval so operators
//! can inspect the live matrix.
//!
//! `--trace` streams the protocol event log (JSONL) to a file — feed it,
//! together with peer/source traces, to `lab trace` for a stitched
//! cross-process report. `--metrics` serves Prometheus-style `/metrics`
//! and a JSON `/health` document on the given address (e.g.
//! `127.0.0.1:9100`).

use std::fs::File;
use std::io::BufWriter;
use std::time::Duration;

use curtain_net::{Coordinator, Standby, StandbyOptions, WalOptions};
use curtain_overlay::OverlayConfig;
use curtain_telemetry::{ExposeServer, JsonlSink, SharedRecorder};

fn usage() -> ! {
    eprintln!(
        "usage: curtain_coordinator <k> <d> [--wal <path>] [--strict] \
         [--standby-of <addr>] [--checkpoint <path>] [--stats-every <secs>] \
         [--trace <path>] [--metrics <addr>]"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.len() < 2 {
        usage();
    }
    let k: usize = args[0].parse().unwrap_or_else(|_| usage());
    let d: usize = args[1].parse().unwrap_or_else(|_| usage());
    let mut wal: Option<String> = None;
    let mut strict = false;
    let mut standby_of: Option<String> = None;
    let mut checkpoint: Option<String> = None;
    let mut stats_every = 5u64;
    let mut trace: Option<String> = None;
    let mut metrics_addr: Option<String> = None;
    let mut i = 2;
    while i < args.len() {
        match args[i].as_str() {
            "--wal" if i + 1 < args.len() => {
                wal = Some(args[i + 1].clone());
                i += 2;
            }
            "--strict" => {
                strict = true;
                i += 1;
            }
            "--standby-of" if i + 1 < args.len() => {
                standby_of = Some(args[i + 1].clone());
                i += 2;
            }
            "--checkpoint" if i + 1 < args.len() => {
                checkpoint = Some(args[i + 1].clone());
                i += 2;
            }
            "--stats-every" if i + 1 < args.len() => {
                stats_every = args[i + 1].parse().unwrap_or_else(|_| usage());
                i += 2;
            }
            "--trace" if i + 1 < args.len() => {
                trace = Some(args[i + 1].clone());
                i += 2;
            }
            "--metrics" if i + 1 < args.len() => {
                metrics_addr = Some(args[i + 1].clone());
                i += 2;
            }
            _ => usage(),
        }
    }

    // One sink backs both the JSONL event stream (when --trace is given)
    // and the /metrics registry (when --metrics is given); without
    // --trace the event lines go to a null writer and only the embedded
    // metrics registry is live.
    let observed = trace.is_some() || metrics_addr.is_some();
    let (recorder, sink) = if observed {
        let sink = match &trace {
            Some(path) => match File::create(path) {
                Ok(f) => JsonlSink::new(BufWriter::new(
                    Box::new(f) as Box<dyn std::io::Write + Send>
                )),
                Err(e) => {
                    eprintln!("cannot create trace file {path}: {e}");
                    std::process::exit(1);
                }
            },
            None => JsonlSink::new(BufWriter::new(
                Box::new(std::io::sink()) as Box<dyn std::io::Write + Send>
            )),
        };
        (SharedRecorder::wall_clock(sink.clone()), Some(sink))
    } else {
        (SharedRecorder::null(), None)
    };

    let config = OverlayConfig::new(k, d);
    let coordinator = if let Some(primary) = &standby_of {
        // Warm standby: tail the primary until it dies, then take over at
        // its address. The follower needs a WAL of its own for the
        // shipped history.
        let Some(path) = &wal else {
            eprintln!("--standby-of requires --wal <path> for the shipped log");
            std::process::exit(2);
        };
        let primary_addr = primary.parse().unwrap_or_else(|_| usage());
        let mut standby = Standby::start(
            StandbyOptions::new(
                primary_addr,
                WalOptions::new(path).with_strict(strict),
                config,
            ),
            recorder.clone(),
        );
        println!("standing by for coordinator at {primary_addr}");
        while !standby.wait_promoted(Duration::from_secs(3600)) {}
        match standby.take_promoted().expect("wait_promoted returned true") {
            Ok(c) => {
                println!("promoted: primary at {primary_addr} stopped answering");
                c
            }
            Err(e) => {
                eprintln!("promotion failed: {e}");
                std::process::exit(1);
            }
        }
    } else {
        let started = match &wal {
            Some(path) => {
                let options = WalOptions::new(path).with_strict(strict);
                let existing =
                    std::fs::metadata(path).map(|m| m.len() > 0).unwrap_or(false);
                if existing {
                    println!("recovering from WAL {path}");
                    Coordinator::recover_traced(options, config, 0xC0DE, recorder.clone())
                        .inspect(|c| {
                            // An amnesiac restart may be missing rows the
                            // old incarnation knew; chase peers instead of
                            // waiting for their complaints.
                            drop(c.spawn_resync_sweep());
                        })
                } else {
                    Coordinator::start_durable(config, 0xC0DE, recorder.clone(), &options)
                }
            }
            None => Coordinator::start_traced(config, 0xC0DE, recorder.clone()),
        };
        match started {
            Ok(c) => c,
            Err(e) => {
                eprintln!("failed to start: {e}");
                std::process::exit(1);
            }
        }
    };
    let _expose = metrics_addr.as_ref().map(|addr| {
        let metrics = sink.as_ref().expect("observed implies sink").metrics().clone();
        match ExposeServer::bind(addr.as_str(), metrics, coordinator.health_handle()) {
            Ok(server) => {
                println!("metrics/health on http://{}", server.addr());
                server
            }
            Err(e) => {
                eprintln!("cannot bind metrics listener {addr}: {e}");
                std::process::exit(1);
            }
        }
    });
    println!("curtain coordinator listening on {}", coordinator.addr());
    println!("k = {k} threads, d = {d} per node");
    loop {
        std::thread::sleep(Duration::from_secs(stats_every));
        println!(
            "members: {:>5}  completed: {:>5}  repairs: {:>4}",
            coordinator.members(),
            coordinator.completed(),
            coordinator.repairs()
        );
        let _ = recorder.flush();
        if let Some(path) = &checkpoint {
            match coordinator.checkpoint_json() {
                Ok(json) => {
                    if let Err(e) = std::fs::write(path, json) {
                        eprintln!("checkpoint write failed: {e}");
                    }
                }
                Err(e) => eprintln!("checkpoint serialization failed: {e}"),
            }
        }
    }
}
