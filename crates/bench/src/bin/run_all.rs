//! Runs every experiment binary in order — the one-command reproduction of
//! the paper's entire evaluation.
//!
//! ```text
//! cargo run --release -p curtain-bench --bin run_all
//! CURTAIN_SCALE=5 cargo run --release -p curtain-bench --bin run_all
//! cargo run --release -p curtain-bench --bin run_all -- --trace traces/
//! cargo run --release -p curtain-bench --bin run_all -- --only defect --only collapse
//! ```
//!
//! With `--trace <dir>`, each experiment that supports event tracing gets
//! `--trace <dir>/<experiment>.jsonl` appended to its invocation. With
//! `--only <substring>` (repeatable), only experiments whose name contains
//! one of the given substrings run. Invocation errors print usage and
//! exit with status 2.

use std::path::PathBuf;
use std::process::Command;
use std::time::Instant;

const EXPERIMENTS: &[&str] = &[
    "e01_theorem4",
    "e02_locality",
    "e03_drift",
    "e04_collapse",
    "e05_adversarial",
    "e06_dataplane",
    "e06_delay",
    "e07_strategies",
    "e08_variance",
    "e09_codec",
    "e10_server_load",
    "e11_heterogeneous",
    "e12_attacks",
    "e13_congestion",
    "e14_conjecture",
    "e15_gossip",
    "e16_selfsustain",
    "e18_streaming",
    "e19_fairness",
    "e20_generations",
    "e21_control_plane",
    "e22_vnet_scale",
];

/// Experiments accepting a `--trace <path>` flag.
const TRACEABLE: &[&str] = &["e01_theorem4", "e03_drift", "e04_collapse"];

const USAGE: &str = "usage: run_all [--trace <dir>] [--only <substring>]...\n\
                     \n\
                     --trace <dir>       per-experiment JSONL traces into <dir>\n\
                     --only <substring>  run only experiments whose name contains\n\
                     \x20                   the substring (repeatable)";

/// The parsed invocation: an optional trace directory plus name filters.
struct RunArgs {
    trace_dir: Option<PathBuf>,
    only: Vec<String>,
}

impl RunArgs {
    fn parse(args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let mut parsed = RunArgs { trace_dir: None, only: Vec::new() };
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--trace" => {
                    let dir = args.next().ok_or("--trace requires a directory")?;
                    parsed.trace_dir = Some(PathBuf::from(dir));
                }
                "--only" => {
                    parsed.only.push(args.next().ok_or("--only requires a substring")?);
                }
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        Ok(parsed)
    }

    /// True when `exp` passes the `--only` filters (no filters = all).
    fn selects(&self, exp: &str) -> bool {
        self.only.is_empty() || self.only.iter().any(|s| exp.contains(s.as_str()))
    }
}

/// Prints the invocation error and usage, then exits with status 2.
fn die_usage(message: &str) -> ! {
    eprintln!("error: {message}\n\n{USAGE}");
    std::process::exit(2);
}

fn main() {
    let args = RunArgs::parse(std::env::args().skip(1)).unwrap_or_else(|e| die_usage(&e));
    let selected: Vec<&str> =
        EXPERIMENTS.iter().copied().filter(|exp| args.selects(exp)).collect();
    if selected.is_empty() {
        die_usage(&format!(
            "--only {:?} matches no experiment; known: {}",
            args.only,
            EXPERIMENTS.join(", ")
        ));
    }
    let trace_dir = args.trace_dir.as_ref().map(|dir| {
        if let Err(e) = std::fs::create_dir_all(dir) {
            die_usage(&format!("cannot create trace directory {}: {e}", dir.display()));
        }
        dir.clone()
    });

    let self_path = std::env::current_exe().expect("own path");
    let bin_dir = self_path.parent().expect("bin dir");
    let total = Instant::now();
    let mut failed = Vec::new();
    for (i, exp) in selected.iter().enumerate() {
        println!("\n################ [{}/{}] {exp} ################", i + 1, selected.len());
        let start = Instant::now();
        let mut cmd = Command::new(bin_dir.join(exp));
        if let Some(dir) = trace_dir.as_ref().filter(|_| TRACEABLE.contains(exp)) {
            let path = dir.join(format!("{exp}.jsonl"));
            println!("(tracing to {})", path.display());
            cmd.arg("--trace").arg(path);
        }
        let status = cmd.status();
        match status {
            Ok(s) if s.success() => {
                println!("---------------- {exp} finished in {:.1?}", start.elapsed());
            }
            Ok(s) => {
                eprintln!("!!! {exp} exited with {s}");
                failed.push(*exp);
            }
            Err(e) => {
                eprintln!("!!! {exp} failed to launch: {e} (build with --release first)");
                failed.push(*exp);
            }
        }
    }
    println!(
        "\n================ {} experiment(s) done in {:.1?} ================",
        selected.len(),
        total.elapsed()
    );
    if failed.is_empty() {
        println!("every selected experiment ran to completion.");
    } else {
        eprintln!("failures: {failed:?}");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::EXPERIMENTS;

    /// `EXPERIMENTS` and `src/bin` name the same binaries (minus this
    /// one), so a deleted or added experiment cannot be missed.
    #[test]
    fn experiments_list_matches_the_bin_directory() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("src/bin");
        let mut on_disk: Vec<String> = std::fs::read_dir(&dir)
            .expect("src/bin is readable")
            .filter_map(|entry| {
                let name = entry.expect("dir entry").file_name().into_string().ok()?;
                name.strip_suffix(".rs").map(str::to_owned)
            })
            .filter(|name| name != "run_all")
            .collect();
        on_disk.sort();
        assert_eq!(EXPERIMENTS, on_disk, "run_all's list (left) vs {}", dir.display());
    }
}
