//! Runs the benchmark binary at `--scale smoke` and holds it to
//! `BENCHMARK.json`, so the manifest and the binary cannot drift apart; and
//! shows that the seed reaches the input generators.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

use curtain_telemetry::json::{self, JsonValue};

const WORKLOADS: [&str; 4] = ["tcp_bulk", "tcp_tiny", "vnet_churn", "ctrl_churn"];

/// Full standard output of one smoke-scale run (`--seconds 0`: every driver
/// does its minimum — two sessions, two worlds, one block of calls a client).
fn run(workload: &str, seed: u64, trace: bool) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_curtain-perf"))
        .args(["run", "--scale", "smoke", "--seconds", "0", "--workload", workload])
        .args(["--seed", &seed.to_string(), "--trace", if trace { "1" } else { "0" }])
        // Each run keeps its scratch and span files under the directory it
        // was started in; the build's own temp directory is disposable.
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("the benchmark binary starts");
    assert!(out.status.success(), "{workload}: {}", String::from_utf8_lossy(&out.stderr));
    String::from_utf8(out.stdout).expect("output is UTF-8")
}

/// The contract's result object: the last line of standard output.
fn result(stdout: &str) -> JsonValue {
    json::parse_document(stdout.lines().last().expect("a result line")).expect("result is JSON")
}

/// The detail document: everything before the last line.
fn detail(stdout: &str) -> JsonValue {
    let body: Vec<&str> = stdout.lines().collect();
    let doc = json::parse_document(&body[..body.len() - 1].join("\n")).expect("detail is JSON");
    doc.get("detail").expect("a detail block").clone()
}

fn manifest() -> JsonValue {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    json::parse_document(&std::fs::read_to_string(path).expect("BENCHMARK.json is readable"))
        .expect("BENCHMARK.json is JSON")
}

/// `name → unit` of one of the manifest's metric lists.
fn declared(manifest: &JsonValue, list: &str) -> BTreeMap<String, String> {
    manifest
        .get(list)
        .and_then(JsonValue::as_array)
        .expect("the manifest lists its metrics")
        .iter()
        .map(|m| {
            let field =
                |k| m.get(k).and_then(JsonValue::as_str).expect("name and unit").to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn well_named(name: &str) -> bool {
    !name.is_empty() && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

/// Holds one result line to one of the manifest's metric lists: exactly the
/// declared names, each with its declared unit and a finite value, and no
/// failed operation.
fn check(workload: &str, result: &JsonValue, want: &BTreeMap<String, String>) {
    let keys: Vec<&str> =
        result.as_object().expect("result is an object").keys().map(String::as_str).collect();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"], "{workload}");
    assert_eq!(result.get("correct"), Some(&JsonValue::Bool(true)), "{workload}");
    assert_eq!(result.get("failed").and_then(JsonValue::as_u64), Some(0), "{workload}");
    assert!(result.get("attempted").and_then(JsonValue::as_u64) >= Some(1), "{workload}");
    let got = result.get("metrics").and_then(JsonValue::as_object).expect("metrics");
    let names = |m: &mut dyn Iterator<Item = &String>| m.cloned().collect::<Vec<_>>();
    assert_eq!(names(&mut got.keys()), names(&mut want.keys()), "{workload}: metric names");
    for (name, m) in got {
        assert!(well_named(name), "{workload}: bad metric name {name:?}");
        assert_eq!(m.get("unit").and_then(JsonValue::as_str), Some(want[name].as_str()), "{name}");
        let value = m.get("value").and_then(JsonValue::as_f64).expect("a numeric value");
        assert!(value.is_finite(), "{workload}: {name} is {value}");
    }
}

#[test]
fn every_declared_workload_and_metric_is_reported() {
    let manifest = manifest();
    let declared_workloads: Vec<&str> = manifest
        .get("workloads")
        .and_then(JsonValue::as_array)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(JsonValue::as_str).expect("workload name"))
        .collect();
    assert_eq!(declared_workloads, WORKLOADS);
    assert!(declared_workloads.iter().all(|w| well_named(w)));

    let end_to_end = declared(&manifest, "end_to_end");
    for workload in WORKLOADS {
        let r = result(&run(workload, 7, false));
        check(workload, &r, &end_to_end);
        for (name, m) in r.get("metrics").and_then(JsonValue::as_object).expect("metrics") {
            // End-to-end metrics are chosen never to be zero. CPU time comes
            // in 10 ms ticks, which a smoke-sized run may not fill.
            let floor = if name == "cpu_ms_per_op" { -1.0 } else { 0.0 };
            assert!(m.get("value").and_then(JsonValue::as_f64) > Some(floor), "{workload}: {name}");
        }
    }
    // One traced run drives the ladder and all three drivers, so it reports
    // every per-layer metric whichever workload it is asked for.
    check("tcp_tiny traced", &result(&run("tcp_tiny", 7, true)), &declared(&manifest, "per_layer"));
}

#[test]
fn the_seed_reaches_the_generators() {
    let text = |doc: &JsonValue, key: &str| {
        doc.get(key).and_then(JsonValue::as_str).expect("a digest").to_string()
    };
    let count =
        |doc: &JsonValue, key: &str| doc.get(key).and_then(JsonValue::as_u64).expect("a count");
    let vnet = |seed| detail(&run("vnet_churn", seed, false));
    let (a, again, other) = (vnet(11), vnet(11), vnet(13));
    assert_eq!(text(&a, "journal_digest"), text(&again, "journal_digest"));
    assert_ne!(text(&a, "journal_digest"), text(&other, "journal_digest"));
    for key in ["frames_delivered", "frames_lost", "repairs", "resyncs", "gave_up", "completed"] {
        assert_eq!(count(&a, key), count(&again, key), "vnet {key} must repeat exactly");
    }

    let ctrl = |seed| detail(&run("ctrl_churn", seed, false));
    let (a, again, other) = (ctrl(11), ctrl(11), ctrl(13));
    assert_eq!(text(&a, "op_digest"), text(&again, "op_digest"));
    assert_ne!(text(&a, "op_digest"), text(&other, "op_digest"));
}
