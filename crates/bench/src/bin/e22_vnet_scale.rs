//! E22 — vnet scale: 1000 real-protocol peers in one process.
//!
//! The measurement core lives in `curtain_bench::exp::e22` (shared with
//! `curtain-lab`'s claim-gated sweep). The soak joins `N` peers over
//! the in-process virtual network, waits for the completion wave, then
//! runs churn rounds that join and kill 5% of the swarm each — the
//! paper's Theorem 4 says the resulting defect probability must not
//! move as `N` grows.
//!
//! Unlike e06/e21 nothing here is wall-clock: the vnet runs on a
//! virtual clock, so every number in the table (and the journal digest)
//! is a pure function of `(params, seed)`.

use curtain_bench::args::ExpArgs;
use curtain_bench::exp::e22::{self, ChurnParams};
use curtain_bench::runtime;
use curtain_bench::stats;
use curtain_bench::table::Table;

fn main() {
    runtime::banner(
        "E22 / vnet scale",
        "single-process churn soak: defect probability independent of N",
    );
    let args = ExpArgs::parse();
    let trials = 2 * args.scale();
    let seed0 = args.seed_or(2200);

    println!("churn soak: 4 rounds, each joins and kills 5% of the swarm mid-transfer");
    println!();
    let t = Table::new(&["N", "defect p", "repairs", "give-ups", "lost frames", "virtual ms"]);
    t.header();
    for &peers in &[100usize, 300, 1000] {
        let params = ChurnParams {
            peers,
            fanout: 8,
            reserve: 2,
            churn_rounds: 4,
            churn_frac: 0.05,
            leave_frac: 0.0,
            loss: 0.01,
        };
        let mut defect = Vec::new();
        let mut repairs = 0u64;
        let mut give_ups = 0u64;
        let mut lost = 0u64;
        let mut virtual_ms = Vec::new();
        for trial in 0..trials {
            let out = e22::churn_soak(&params, seed0 + trial);
            assert!(out.all_complete, "swarm at N={peers} never drained");
            defect.push(out.defect_p);
            repairs += out.repairs;
            give_ups += out.gave_up;
            lost += out.frames_lost;
            virtual_ms.push(out.virtual_ms);
        }
        t.row(&[
            format!("{peers}"),
            format!("{:.4}", stats::mean(&defect)),
            format!("{repairs}"),
            format!("{give_ups}"),
            format!("{lost}"),
            format!("{:.0}", stats::mean(&virtual_ms)),
        ]);
    }

    println!();
    println!("determinism: the same (params, seed) cell replayed twice");
    println!();
    let t = Table::new(&["N", "seed", "journals match"]);
    t.header();
    let params = ChurnParams {
        peers: 100,
        fanout: 8,
        reserve: 2,
        churn_rounds: 2,
        churn_frac: 0.05,
        leave_frac: 0.0,
        loss: 0.01,
    };
    for trial in 0..trials {
        let identical = e22::replay_identical(&params, seed0 + trial);
        t.row(&[
            "100".into(),
            format!("{}", seed0 + trial),
            if identical { "yes".into() } else { "DIVERGED".to_owned() },
        ]);
        assert!(identical, "vnet journal diverged at seed {}", seed0 + trial);
    }

    println!();
    println!("(claim gate: `cargo run -p curtain-lab -- check --exp e22` writes BENCH_e22.json)");
}
