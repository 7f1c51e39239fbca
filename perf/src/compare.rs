//! `pass` runs every workload over a range of seeds (each run a fresh
//! process, as the acceptance driver does) and stores the result lines;
//! `compare` sets two such files side by side: one row per (workload,
//! end-to-end metric) with both medians, the ratio with its base, the bound
//! from `BENCHMARK.json` and a verdict.

use std::collections::BTreeMap;
use std::process::{Command, ExitCode};

use curtain_telemetry::json::{self, JsonValue};

use crate::report::Doc;
use crate::stats::{median, spread};
use crate::{Args, Workload};

fn read_json(path: &str) -> Result<JsonValue, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    json::parse_document(&text).map_err(|e| format!("{path}: {e}"))
}

/// One fresh-process run; returns the parsed result line.
fn one_run(
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    scale: Option<&str>,
) -> Result<JsonValue, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["run", "--workload", workload.name()])
        .args(["--seed", &seed.to_string(), "--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if let Some(scale) = scale {
        cmd.args(["--scale", scale]);
    }
    let out = cmd.output().map_err(|e| format!("spawn: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "{} seed {seed} exited with {}: {}",
            workload.name(),
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().ok_or("run printed nothing")?;
    json::parse_document(last).map_err(|e| format!("result line: {e}"))
}

pub fn pass(args: &Args) -> Result<ExitCode, String> {
    let seeds = args.get("seeds").ok_or("--seeds <a>..<b> is required")?;
    let (lo, hi) = seeds
        .split_once("..")
        .and_then(|(a, b)| Some((a.parse::<u64>().ok()?, b.parse::<u64>().ok()?)))
        .filter(|(a, b)| a < b)
        .ok_or_else(|| format!("--seeds: `{seeds}` is not a range like 1..11"))?;
    let out_path = args.get("out").ok_or("--out <file> is required")?;
    let seconds = args.number("seconds")?.unwrap_or(20);
    let scale = args.get("scale");

    let mut runs = Vec::new();
    for workload in Workload::ALL {
        for seed in lo..hi {
            let result = one_run(workload, seed, seconds, false, scale)?;
            eprintln!("{} seed {seed}: {}", workload.name(), result.render());
            runs.push(
                Doc::new()
                    .text("workload", workload.name())
                    .int("seed", seed)
                    .put("result", result)
                    .build(),
            );
        }
        // One traced run per workload, for the counts that must repeat exactly.
        let traced = one_run(workload, lo, seconds, true, scale)?;
        runs.push(
            Doc::new()
                .text("workload", workload.name())
                .int("seed", lo)
                .put("traced", JsonValue::Bool(true))
                .put("result", traced)
                .build(),
        );
    }
    let doc = Doc::new().int("seconds", seconds).put("runs", JsonValue::Array(runs)).build();
    std::fs::write(out_path, doc.render_pretty()).map_err(|e| format!("{out_path}: {e}"))?;
    Ok(ExitCode::SUCCESS)
}

/// `workload → metric → values over the seeds`, plus failures per workload.
#[derive(Default)]
struct Pass {
    values: BTreeMap<String, BTreeMap<String, Vec<f64>>>,
    traced: BTreeMap<String, BTreeMap<String, f64>>,
    attempted: u64,
    failed: u64,
}

fn load_pass(path: &str) -> Result<Pass, String> {
    let doc = read_json(path)?;
    let runs = doc
        .get("runs")
        .and_then(JsonValue::as_array)
        .ok_or_else(|| format!("{path}: no `runs`"))?;
    let mut pass = Pass::default();
    for run in runs {
        let workload =
            run.get("workload").and_then(JsonValue::as_str).ok_or("run without workload")?;
        let result = run.get("result").ok_or("run without result")?;
        let metrics =
            result.get("metrics").and_then(JsonValue::as_object).ok_or("result without metrics")?;
        pass.attempted += result.get("attempted").and_then(JsonValue::as_u64).unwrap_or(0);
        pass.failed += result.get("failed").and_then(JsonValue::as_u64).unwrap_or(0);
        let traced = run.get("traced").and_then(JsonValue::as_bool).unwrap_or(false);
        for (name, m) in metrics {
            let value = m
                .get("value")
                .and_then(JsonValue::as_f64)
                .ok_or_else(|| format!("{name}: no value"))?;
            if traced {
                pass.traced.entry(workload.to_string()).or_default().insert(name.clone(), value);
            } else {
                pass.values
                    .entry(workload.to_string())
                    .or_default()
                    .entry(name.clone())
                    .or_default()
                    .push(value);
            }
        }
    }
    Ok(pass)
}

struct Gate {
    name: String,
    higher_is_better: bool,
    bound: f64,
}

fn load_gates(path: &str) -> Result<Vec<Gate>, String> {
    let doc = read_json(path)?;
    let list = doc
        .get("end_to_end")
        .and_then(JsonValue::as_array)
        .ok_or_else(|| format!("{path}: no `end_to_end`"))?;
    list.iter()
        .map(|m| {
            Ok(Gate {
                name: m
                    .get("name")
                    .and_then(JsonValue::as_str)
                    .ok_or("metric without name")?
                    .to_string(),
                higher_is_better: m.get("better").and_then(JsonValue::as_str) == Some("higher"),
                bound: m.get("bound").and_then(JsonValue::as_f64).ok_or("metric without bound")?,
            })
        })
        .collect()
}

pub fn compare(args: &Args) -> Result<ExitCode, String> {
    let [a_path, b_path] = args.positional.as_slice() else {
        return Err("compare needs two pass files".to_string());
    };
    let gates = load_gates(args.get("manifest").unwrap_or("BENCHMARK.json"))?;
    let (a, b) = (load_pass(a_path)?, load_pass(b_path)?);

    let mut bad = false;
    println!(
        "{:<11} {:<14} {:>13} {:>13} {:>9} {:>7} {:>7}  verdict",
        "workload", "metric", "a (median)", "b (median)", "b/a", "spread", "bound"
    );
    for (workload, metrics) in &a.values {
        for gate in &gates {
            let (Some(va), Some(vb)) =
                (metrics.get(&gate.name), b.values.get(workload).and_then(|m| m.get(&gate.name)))
            else {
                println!("{workload:<11} {:<14} missing from one side", gate.name);
                bad = true;
                continue;
            };
            let (ma, mb) = (median(va), median(vb));
            // How much worse b is than a, as a share of a; negative is better.
            let worse_by = if gate.higher_is_better { (ma - mb) / ma } else { (mb - ma) / ma };
            let noise = spread(va).unwrap_or(0.0).max(spread(vb).unwrap_or(0.0));
            let verdict = if noise > gate.bound {
                "unresolved"
            } else if worse_by > gate.bound {
                "worse"
            } else if worse_by < -gate.bound {
                "better"
            } else {
                "same"
            };
            bad |= verdict == "worse";
            println!(
                "{workload:<11} {:<14} {ma:>13.4} {mb:>13.4} {:>9.4} {:>6.1}% {:>6.1}%  {verdict}",
                gate.name,
                mb / ma,
                noise * 100.0,
                gate.bound * 100.0
            );
        }
    }

    let ratio = |p: &Pass| p.failed as f64 / p.attempted.max(1) as f64;
    println!("failed/attempted: a {}/{}, b {}/{}", a.failed, a.attempted, b.failed, b.attempted);
    if ratio(&b) > ratio(&a) {
        println!("b fails a larger share of its operations than a");
        bad = true;
    }
    // Counts of the deterministic world must repeat exactly at a fixed seed.
    if let (Some(ta), Some(tb)) = (a.traced.get("vnet_churn"), b.traced.get("vnet_churn")) {
        for name in [
            "vnet.frames_delivered",
            "vnet.frames_lost",
            "vnet.repairs",
            "vnet.resyncs",
            "vnet.gave_up",
        ] {
            if ta.get(name) != tb.get(name) {
                println!("{name} differs: a {:?}, b {:?}", ta.get(name), tb.get(name));
                bad = true;
            }
        }
    }
    Ok(if bad { ExitCode::FAILURE } else { ExitCode::SUCCESS })
}
