//! E21 — control-plane durability and availability over real sockets.
//!
//! The measurement core lives in `curtain_bench::exp::e21` (shared with
//! `curtain-lab`'s claim-gated sweep). Two tables:
//!
//! * admitted joins/second, WAL syncs and joins per sync under a WAL
//!   whose fsync costs 2 ms, as the client count grows — group commit
//!   amortizes one sync across a whole admitted batch, where one sync
//!   per join could not exceed 500 joins/s;
//! * the failover drill — kill a primary mid-transfer and check the
//!   warm standby promotes at the same address, survivors finish
//!   byte-identical, and nothing gives up repair.
//!
//! Both tables are wall-clock: `--seed` pins the workload, the rates
//! are the machine's. The lab claims gate only the exact joins-per-sync
//! count, the serial-sync ceiling and the drill's pass/fail flags.

use curtain_bench::args::ExpArgs;
use curtain_bench::exp::e21::{self, FailoverParams, JoinParams};
use curtain_bench::stats;
use curtain_bench::table::Table;
use curtain_bench::runtime;

fn main() {
    runtime::banner(
        "E21 / control plane",
        "group commit >= 3 joins per fsync; failover drill heals without loss",
    );
    let args = ExpArgs::parse();
    let trials = 3 * args.scale();
    let seed0 = args.seed_or(2100);

    println!("join storm: 2 ms per WAL sync, joins admitted only once durable");
    println!();
    let t = Table::new(&["clients", "joins", "joins/s", "syncs", "joins/sync"]);
    t.header();
    for &clients in &[2usize, 4, 8] {
        let params = JoinParams { clients, joins_per_client: 16, sync_delay_us: 2000 };
        let runs: Vec<_> =
            (0..trials).map(|trial| e21::join_throughput(&params, seed0 + trial)).collect();
        let rates: Vec<f64> = runs.iter().map(|o| o.joins_per_s).collect();
        let joins: u64 = runs.iter().map(|o| o.joins).sum();
        let syncs: u64 = runs.iter().map(|o| o.syncs).sum();
        t.row(&[
            format!("{clients}"),
            format!("{joins}"),
            format!("{:.0}", stats::mean(&rates)),
            format!("{syncs}"),
            format!("{:.2}", joins as f64 / syncs.max(1) as f64),
        ]);
    }

    println!();
    println!("failover drill: kill the primary mid-transfer, warm standby takes over");
    println!();
    let t = Table::new(&["peers", "payload", "promoted", "byte-identical", "give-ups"]);
    t.header();
    for &peers in &[2usize, 4] {
        let params = FailoverParams { peers, payload: 16 * 1024 };
        let mut promoted = 0u64;
        let mut byte_ok = 0u64;
        let mut give_ups = 0u64;
        for trial in 0..trials {
            let out = e21::failover_drill(&params, seed0 + trial);
            promoted += u64::from(out.promoted);
            byte_ok += u64::from(out.byte_ok);
            give_ups += out.give_ups;
        }
        t.row(&[
            format!("{peers}"),
            format!("{} KiB", params.payload / 1024),
            format!("{promoted}/{trials}"),
            format!("{byte_ok}/{trials}"),
            format!("{give_ups}"),
        ]);
    }

    println!();
    println!("(claim gate: `cargo run -p curtain-lab -- check --exp e21` writes BENCH_e21.json)");
}
