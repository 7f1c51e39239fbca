//! `curtain-perf`: the repository's benchmark.
//!
//! ```text
//! curtain-perf run --workload <name> --seed <n> --seconds <s> --trace <0|1> [--scale smoke]
//! curtain-perf pass --seeds <a>..<b> --out <file> [--seconds <s>] [--scale smoke]
//! curtain-perf compare <a.json> <b.json> [--manifest BENCHMARK.json]
//! ```
//!
//! `run` generates one workload's inputs from the seed, measures for the
//! given time, checks the program's outputs and prints a detail document
//! followed, on the last line of standard output, by the result object the
//! benchmark contract fixes. The harness is the only load generator: one
//! process, every socket on the host's loopback interface.

mod compare;
mod ctrl;
mod ladder;
mod report;
mod stats;
mod sys;
mod tcp;
mod trace;
mod vnet;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use curtain_telemetry::SharedRecorder;

use crate::ctrl::CtrlParams;
use crate::ladder::LadderShape;
use crate::report::{strings, Doc, Metric, Tally};
use crate::tcp::TcpParams;
use crate::vnet::VnetParams;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    /// Tiny objects and memberships, for the smoke test: seconds in total.
    Smoke,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    TcpBulk,
    TcpTiny,
    VnetChurn,
    CtrlChurn,
}

impl Workload {
    pub const ALL: [Workload; 4] =
        [Workload::TcpBulk, Workload::TcpTiny, Workload::VnetChurn, Workload::CtrlChurn];

    pub fn name(self) -> &'static str {
        match self {
            Workload::TcpBulk => "tcp_bulk",
            Workload::TcpTiny => "tcp_tiny",
            Workload::VnetChurn => "vnet_churn",
            Workload::CtrlChurn => "ctrl_churn",
        }
    }

    fn parse(name: &str) -> Option<Self> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The packet shape and overlay geometry the traced run's ladder uses:
    /// the workload's own. `ctrl_churn` moves no packets, so its ladder's
    /// data rungs borrow the vnet's shape.
    pub fn ladder_shape(self) -> LadderShape {
        let shape = |generation_size, packet_len, overlay| LadderShape {
            generation_size,
            packet_len,
            overlay,
        };
        match self {
            Workload::TcpBulk => shape(64, 1024, (4, 2)),
            Workload::TcpTiny => shape(16, 64, (4, 2)),
            Workload::VnetChurn => shape(32, 1024, (16, 3)),
            Workload::CtrlChurn => shape(32, 1024, (32, 3)),
        }
    }
}

struct RunArgs {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    scale: Scale,
}

fn usage() -> String {
    "usage: curtain-perf run --workload <tcp_bulk|tcp_tiny|vnet_churn|ctrl_churn> --seed <n> \
     --seconds <s> --trace <0|1> [--scale smoke]\n       \
     curtain-perf pass --seeds <a>..<b> --out <file> [--seconds <s>] [--scale smoke]\n       \
     curtain-perf compare <a.json> <b.json> [--manifest BENCHMARK.json]"
        .to_string()
}

/// `--key value` pairs after the subcommand; bare words are positional.
pub struct Args {
    flags: Vec<(String, String)>,
    pub positional: Vec<String>,
}

impl Args {
    fn parse(raw: &[String]) -> Result<Self, String> {
        let (mut flags, mut positional) = (Vec::new(), Vec::new());
        let mut it = raw.iter();
        while let Some(word) = it.next() {
            match word.strip_prefix("--") {
                Some(key) => {
                    let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
                    flags.push((key.to_string(), value.clone()));
                }
                None => positional.push(word.clone()),
            }
        }
        Ok(Args { flags, positional })
    }

    pub fn get(&self, key: &str) -> Option<&str> {
        self.flags.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }

    pub fn number(&self, key: &str) -> Result<Option<u64>, String> {
        self.get(key)
            .map(|v| v.parse().map_err(|_| format!("--{key}: `{v}` is not a whole number")))
            .transpose()
    }

    pub fn scale(&self) -> Result<Scale, String> {
        match self.get("scale") {
            None | Some("full") => Ok(Scale::Full),
            Some("smoke") => Ok(Scale::Smoke),
            Some(other) => Err(format!("--scale: `{other}` is neither `full` nor `smoke`")),
        }
    }
}

fn run_args(args: &Args) -> Result<RunArgs, String> {
    let workload = args.get("workload").ok_or("--workload is required")?;
    let workload =
        Workload::parse(workload).ok_or_else(|| format!("unknown workload `{workload}`"))?;
    let trace = match args.get("trace") {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace: `{other}` is neither 0 nor 1")),
    };
    Ok(RunArgs {
        workload,
        seed: args.number("seed")?.ok_or("--seed is required")?,
        seconds: args.number("seconds")?.ok_or("--seconds is required")?,
        trace,
        scale: args.scale()?,
    })
}

/// Where the numbers were taken: printed with every run.
fn environment(scratch: &sys::Scratch) -> Doc {
    let overrides = ["CURTAIN_GF_BACKEND", "CURTAIN_CODEC", "CURTAIN_TRANSPORT"]
        .into_iter()
        .filter_map(|k| std::env::var(k).ok().map(|v| format!("{k}={v}")))
        .collect::<Vec<_>>();
    Doc::new()
        .int("nproc", sys::nproc() as u64)
        .text("gf_backend", curtain_gf::kernels::active().name())
        .put("env_overrides", strings(&overrides))
        .text("scratch_fs", sys::fs_type(scratch.path()))
        .text("network", "loopback")
        .text("build", if cfg!(debug_assertions) { "debug" } else { "release" })
}

fn untraced(a: &RunArgs, budget: Duration, scratch: &sys::Scratch) -> (Vec<Metric>, Tally, Doc) {
    let null = SharedRecorder::null();
    match a.workload {
        Workload::TcpBulk | Workload::TcpTiny => {
            let params = if a.workload == Workload::TcpBulk {
                TcpParams::bulk(a.scale)
            } else {
                TcpParams::tiny(a.scale)
            };
            let min_sessions = if a.scale == Scale::Full { 3 } else { 2 };
            let run = tcp::run(&params, a.seed, budget, min_sessions, &null);
            (run.end_to_end().metrics(), run.tally.clone(), run.detail(&params))
        }
        Workload::VnetChurn => {
            let params = VnetParams::churn(a.scale);
            let run = vnet::run(&params, a.seed, budget, 2);
            (run.end_to_end().metrics(), run.tally.clone(), run.detail(&params))
        }
        Workload::CtrlChurn => {
            let params = CtrlParams::churn(a.scale);
            let run = ctrl::run(&params, a.seed, budget, Some(scratch.path()), &null);
            (run.end_to_end().metrics(), run.tally.clone(), run.detail(&params, a.seed))
        }
    }
}

fn run(args: &Args) -> Result<ExitCode, String> {
    let a = run_args(args)?;
    if cfg!(debug_assertions) && a.scale == Scale::Full {
        return Err("refusing a timed run from a debug build: use `cargo run --release`, \
                    or `--scale smoke` to check the plumbing"
            .to_string());
    }
    let scratch = sys::Scratch::create().map_err(|e| format!("scratch directory: {e}"))?;
    let budget = Duration::from_secs(a.seconds);
    let env = environment(&scratch);

    let (metrics, tally, detail) = if a.trace {
        let span_file = PathBuf::from(".bench_out").join(format!(
            "spans-{}-seed{}.json",
            a.workload.name(),
            a.seed
        ));
        let t = trace::run(a.workload, a.scale, a.seed, budget, scratch.path(), &span_file)?;
        (t.metrics, t.tally, t.detail)
    } else {
        untraced(&a, budget, &scratch)
    };

    let doc = Doc::new()
        .text("workload", a.workload.name())
        .int("seed", a.seed)
        .int("seconds", a.seconds)
        .put("traced", curtain_telemetry::json::JsonValue::Bool(a.trace))
        .put("environment", env.build())
        .put("detail", detail.build())
        .put("failures", strings(&tally.reasons));
    println!("{}", doc.build().render_pretty());
    println!("{}", report::result_line(&tally, &metrics));
    // A run whose outputs were wrong has still run: the result line says so.
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match raw.split_first() {
        Some((cmd, rest)) => Args::parse(rest).and_then(|args| match cmd.as_str() {
            "run" => run(&args),
            "pass" => compare::pass(&args),
            "compare" => compare::compare(&args),
            other => Err(format!("unknown command `{other}`\n{}", usage())),
        }),
        None => Err(usage()),
    };
    outcome.unwrap_or_else(|message| {
        eprintln!("curtain-perf: {message}");
        ExitCode::from(2)
    })
}
