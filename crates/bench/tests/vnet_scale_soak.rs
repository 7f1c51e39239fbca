//! The vnet-scale soak CI runs: a four-round churn soak of real-protocol
//! peers in one process, on the virtual clock.
//!
//! Env knobs, mirroring the TCP soaks:
//!
//! * `CURTAIN_VNET_PEERS` — swarm size (default 200; CI runs 1000);
//! * `CURTAIN_VNET_SEED` — scenario seed (default `0x522`);
//! * `CURTAIN_VNET_JOURNAL` — when set, the world's event journal is
//!   written there. CI runs the soak twice into two files and requires
//!   `cmp` to find them byte-identical — the vnet's determinism
//!   contract, checked end-to-end on a full-size swarm.

use curtain_bench::exp::e22::{churn_soak_with_journal, ChurnParams};

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

#[test]
fn churn_soak_at_scale_heals_and_journals() {
    let peers = env_u64("CURTAIN_VNET_PEERS", 200) as usize;
    let seed = env_u64("CURTAIN_VNET_SEED", 0x522);
    let params = ChurnParams {
        peers,
        fanout: 8,
        reserve: 2,
        churn_rounds: 4,
        churn_frac: 0.05,
        leave_frac: 0.0,
        loss: 0.01,
    };
    let (out, journal) = churn_soak_with_journal(&params, seed);
    println!(
        "vnet soak: peers={peers} seed={seed:#x} defect_p={:.4} repairs={} \
         gave_up={} frames_lost={} virtual_ms={:.0} journal_lines={}",
        out.defect_p,
        out.repairs,
        out.gave_up,
        out.frames_lost,
        out.virtual_ms,
        journal.len()
    );
    assert!(out.all_complete, "swarm never drained: {out:?}");
    assert_eq!(out.gave_up, 0, "repair gave up: {out:?}");
    assert!(out.defect_p > 0.0, "churn left no defect trace: {out:?}");
    assert!(out.defect_p < 0.2, "defect probability out of band: {out:?}");
    assert!(out.repairs > 0, "no repair episode ran: {out:?}");

    if let Ok(path) = std::env::var("CURTAIN_VNET_JOURNAL") {
        let mut text = journal.join("\n");
        text.push('\n');
        std::fs::write(&path, text).expect("write journal");
        println!("journal written to {path}");
    }
}
