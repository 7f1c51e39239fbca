//! CLI: join a curtain swarm, download, optionally keep seeding.
//!
//! ```text
//! curtain_peer <coordinator-addr> [--out <path>] [--seed-secs <n>] [--timeout-secs <n>]
//!                                 [--trace <path>] [--metrics <addr>]
//! ```
//!
//! `--trace` streams this peer's JSONL event log (hop events, repair
//! span trees) to a file *and* turns on causal-context propagation:
//! incoming frame contexts are forwarded as child spans on recoded
//! frames. `--metrics` serves Prometheus-style `/metrics` and a JSON
//! `/health` document (decode rank, buffer-pool stats, active repair
//! episodes) on the given address.

use std::fs::File;
use std::io::BufWriter;
use std::net::SocketAddr;
use std::time::Duration;

use curtain_net::{Peer, PeerConfig};
use curtain_telemetry::{ExposeServer, JsonlSink, SharedRecorder};

fn usage() -> ! {
    eprintln!(
        "usage: curtain_peer <coordinator-addr> [--out <path>] [--seed-secs <n>] \
         [--timeout-secs <n>] [--trace <path>] [--metrics <addr>]"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }
    let coordinator: SocketAddr = args[0].parse().unwrap_or_else(|_| usage());
    let mut out: Option<String> = None;
    let mut seed_secs = 0u64;
    let mut timeout_secs = 120u64;
    let mut trace: Option<String> = None;
    let mut metrics_addr: Option<String> = None;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--out" if i + 1 < args.len() => {
                out = Some(args[i + 1].clone());
                i += 2;
            }
            "--seed-secs" if i + 1 < args.len() => {
                seed_secs = args[i + 1].parse().unwrap_or_else(|_| usage());
                i += 2;
            }
            "--timeout-secs" if i + 1 < args.len() => {
                timeout_secs = args[i + 1].parse().unwrap_or_else(|_| usage());
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

    let config = PeerConfig {
        recorder: recorder.clone(),
        trace: trace.is_some(),
        ..PeerConfig::default()
    };
    let peer = match Peer::join_with(coordinator, config) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("join failed: {e}");
            std::process::exit(1);
        }
    };
    let _expose = metrics_addr.as_ref().map(|addr| {
        let metrics = sink.as_ref().expect("observed implies sink").metrics().clone();
        match ExposeServer::bind(addr.as_str(), metrics, peer.health_handle()) {
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
    println!("joined as {} (data port {})", peer.node_id(), peer.data_addr());
    if !peer.wait_complete(Duration::from_secs(timeout_secs)) {
        eprintln!("timed out at rank {}", peer.rank());
        peer.leave();
        std::process::exit(1);
    }
    let content = peer.decoded_content().expect("complete peer recovers");
    println!("decoded {} bytes", content.len());
    if let Some(path) = out {
        if let Err(e) = std::fs::write(&path, &content) {
            eprintln!("write failed: {e}");
        } else {
            println!("wrote {path}");
        }
    }
    if seed_secs > 0 {
        println!("seeding for {seed_secs}s …");
        std::thread::sleep(Duration::from_secs(seed_secs));
    }
    peer.leave();
    let _ = recorder.flush();
    println!("left gracefully");
}
