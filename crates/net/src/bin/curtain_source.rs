//! CLI: serve a file as a curtain source.
//!
//! ```text
//! curtain_source <coordinator-addr> <file> [--generation <g>] [--packet-len <s>] [--pace-us <micros>]
//!                                          [--window <n>] [--trace <path>] [--metrics <addr>]
//! ```
//!
//! With `--packet-len`, the file is cut into multiple generations of
//! `g × s` bytes (the scalable path); otherwise a single generation.
//!
//! `--window n` serves a sliding window of `n` generations: the source
//! cuts generations in order and stamps every frame with the window
//! base, and peers recode only within the active window (requires every
//! node to speak the window frame extension).
//!
//! `--trace` streams the JSONL event log to a file *and* stamps every
//! outgoing packet with a fresh causal trace context (the root of the
//! hop chain stitched reports follow). `--metrics` serves `/metrics`
//! and `/health` on the given address.

use std::fs::File;
use std::io::BufWriter;
use std::net::SocketAddr;
use std::time::Duration;

use curtain_net::{PendingSource, Source};
use curtain_telemetry::{ExposeServer, JsonlSink, SharedRecorder};

fn usage() -> ! {
    eprintln!(
        "usage: curtain_source <coordinator-addr> <file> [--generation <g>] [--packet-len <s>] \
         [--pace-us <micros>] [--window <n>] [--trace <path>] [--metrics <addr>]"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.len() < 2 {
        usage();
    }
    let coordinator: SocketAddr = args[0].parse().unwrap_or_else(|_| usage());
    let path = &args[1];
    let mut generation = 32usize;
    let mut packet_len: Option<usize> = None;
    let mut pace_us = 300u64;
    let mut window: Option<usize> = None;
    let mut trace: Option<String> = None;
    let mut metrics_addr: Option<String> = None;
    let mut i = 2;
    while i < args.len() {
        match args[i].as_str() {
            "--generation" if i + 1 < args.len() => {
                generation = args[i + 1].parse().unwrap_or_else(|_| usage());
                i += 2;
            }
            "--packet-len" if i + 1 < args.len() => {
                packet_len = Some(args[i + 1].parse().unwrap_or_else(|_| usage()));
                i += 2;
            }
            "--pace-us" if i + 1 < args.len() => {
                pace_us = args[i + 1].parse().unwrap_or_else(|_| usage());
                i += 2;
            }
            "--window" if i + 1 < args.len() => {
                window = Some(args[i + 1].parse().unwrap_or_else(|_| usage()));
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

    let content = match std::fs::read(path) {
        Ok(c) if !c.is_empty() => c,
        Ok(_) => {
            eprintln!("{path} is empty");
            std::process::exit(1);
        }
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            std::process::exit(1);
        }
    };
    let observed = trace.is_some() || metrics_addr.is_some();
    let (recorder, sink) = if observed {
        let sink = match &trace {
            Some(p) => match File::create(p) {
                Ok(f) => JsonlSink::new(BufWriter::new(
                    Box::new(f) as Box<dyn std::io::Write + Send>
                )),
                Err(e) => {
                    eprintln!("cannot create trace file {p}: {e}");
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

    let pace = Duration::from_micros(pace_us);
    let pending = match match packet_len {
        Some(s) => PendingSource::bind_with_shape(&content, generation, s, pace),
        None => PendingSource::bind(&content, generation, pace),
    } {
        Ok(p) => {
            let p = p.observed(recorder.clone(), trace.is_some());
            match window {
                Some(n) if n > 0 => p.windowed(n),
                Some(_) => usage(),
                None => p,
            }
        }
        Err(e) => {
            eprintln!("failed to bind source: {e}");
            std::process::exit(1);
        }
    };
    let source: Source = match pending.register(coordinator) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("failed to start source: {e}");
            std::process::exit(1);
        }
    };
    let _expose = metrics_addr.as_ref().map(|addr| {
        let metrics = sink.as_ref().expect("observed implies sink").metrics().clone();
        let generations = source.generations();
        let health = move || {
            format!(r#"{{"ok":true,"role":"source","generations":{generations}}}"#)
        };
        match ExposeServer::bind(addr.as_str(), metrics, health) {
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
    println!(
        "serving {} ({} bytes) as {} generation(s) of {} packets x {} bytes from {}",
        path,
        content.len(),
        source.generations(),
        source.generation_size(),
        source.packet_len(),
        source.data_addr()
    );
    println!("press ctrl-c to stop");
    loop {
        std::thread::sleep(Duration::from_secs(60));
        let _ = recorder.flush();
    }
}
