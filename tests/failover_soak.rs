//! Failover soak: a real-TCP swarm survives the primary coordinator
//! dying mid-churn because a *warm standby* takes over — no shared
//! filesystem, no operator.
//!
//! The standby bootstraps over the control port (`SnapshotFetch`), tails
//! streamed WAL records (`WalTail`) into its own log, and when the
//! primary stops answering it promotes itself **at the primary's
//! address**: surviving peers keep dialing the same coordinator and
//! never notice the handover beyond a transient complaint retry. The
//! promoted coordinator fences its id allocator past everything the
//! shipped history contains and runs a proactive resync sweep over every
//! known peer.
//!
//! Assertions: the standby promotes at the old address with the exact
//! shipped matrix, every survivor (plus a parent-crash orphan and a
//! fresh post-failover joiner) completes byte-identically, and no repair
//! ever gives up.
//!
//! Knobs:
//!
//! * `CURTAIN_FAILOVER_PEERS` — initial swarm size (default 6)
//! * `CURTAIN_FAILOVER_TRACE` — if set, dumps the telemetry trace as
//!   JSONL to `<value>.jsonl` (CI greps it for `standby_promoted` and
//!   the absence of `repair_gave_up`)

use std::io::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use curtain_net::{
    Coordinator, Peer, PeerConfig, RepairPolicy, Source, Standby, StandbyOptions, WalOptions,
};
use curtain_overlay::{NodeId, OverlayConfig};
use curtain_telemetry::{MemorySink, SharedRecorder};

const PACE: Duration = Duration::from_micros(500);
const K: usize = 4;
const D: usize = 2;
const COMPLETE_TIMEOUT: Duration = Duration::from_secs(60);

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

fn content(len: usize) -> Vec<u8> {
    (0..len).map(|i| (i * 179 % 251) as u8).collect()
}

/// Generous deadline: a complaint must survive the whole failover window
/// (primary dark → detector fires → standby promotes) without giving up.
fn failover_policy() -> RepairPolicy {
    RepairPolicy {
        initial_backoff: Duration::from_millis(5),
        max_backoff: Duration::from_millis(200),
        deadline: Duration::from_secs(30),
        window: Duration::from_secs(10),
        window_budget: 1000,
        stall_timeout: Duration::from_millis(1500),
        ..RepairPolicy::default()
    }
}

fn join(coordinator_addr: std::net::SocketAddr, sink: &MemorySink) -> Peer {
    Peer::join_with(
        coordinator_addr,
        PeerConfig {
            pace: PACE,
            recorder: SharedRecorder::wall_clock(sink.clone()),
            repair: failover_policy(),
            ..PeerConfig::default()
        },
    )
    .expect("join")
}

fn wal_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("curtain-failover-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("wal dir");
    dir.join(name)
}

fn dump_trace(sink: &MemorySink) {
    let Ok(prefix) = std::env::var("CURTAIN_FAILOVER_TRACE") else { return };
    if prefix.is_empty() {
        return;
    }
    let path = format!("{prefix}.jsonl");
    let mut out = String::new();
    for (at, event) in sink.events() {
        event.write_jsonl(at, &mut out);
        out.push('\n');
    }
    let mut file = std::fs::File::create(&path).expect("trace file");
    file.write_all(out.as_bytes()).expect("trace write");
    println!("failover-soak trace: {} events -> {path}", sink.events().len());
}

/// Picks a member that currently *parents* another peer — crashing it
/// during the control-plane outage forces complaints that must retry
/// straight through the failover.
fn pick_node_parent(peers: &[Peer]) -> NodeId {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if let Some(p) = peers.iter().find(|p| p.active_children() > 0) {
            return p.node_id();
        }
        assert!(Instant::now() < deadline, "no peer ever acquired a child subscription");
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn wait_progress(peers: &[Peer]) {
    let deadline = Instant::now() + Duration::from_secs(20);
    for p in peers {
        while p.rank() == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(p.rank() > 0, "peer {} made no progress", p.node_id());
    }
}

fn wait_all_complete(peers: &[Peer]) {
    let deadline = Instant::now() + COMPLETE_TIMEOUT;
    for p in peers {
        let left = deadline.saturating_duration_since(Instant::now());
        assert!(
            p.wait_complete(left),
            "peer {} stuck at rank {} after the failover",
            p.node_id(),
            p.rank()
        );
    }
}

/// The tentpole drill: primary dies mid-churn (taking a parent peer with
/// it for good measure), the warm standby auto-promotes at the same
/// address, and the swarm finishes as if nothing happened.
#[test]
fn standby_takes_over_mid_churn_without_data_loss() {
    let n = env_usize("CURTAIN_FAILOVER_PEERS", 6).max(4);
    let primary_path = wal_path("primary.wal");
    let standby_path = wal_path("standby.wal");
    let sink = MemorySink::new();
    let recorder = SharedRecorder::wall_clock(sink.clone());
    let config = OverlayConfig::new(K, D);

    let primary = Coordinator::start_durable(
        config,
        0xF411,
        recorder.clone(),
        &WalOptions::new(&primary_path),
    )
    .unwrap();
    let addr = primary.addr();
    let data = content(32 * 1024);
    let source = Source::start_with_shape(addr, &data, 32, 256, PACE).unwrap();

    let mut peers: Vec<Peer> = (0..n).map(|_| join(addr, &sink)).collect();

    // The standby starts *after* the swarm formed: its bootstrap must
    // ship the whole existing matrix, not just tail new mutations.
    let mut standby = Standby::start(
        StandbyOptions::new(addr, WalOptions::new(&standby_path), config)
            .with_poll_interval(Duration::from_millis(25))
            .with_fail_threshold(3),
        recorder.clone(),
    );
    wait_progress(&peers);

    // Register + n hellos must all be shipped before the plug is pulled.
    let wanted = 1 + n as u64;
    let catch_up = Instant::now() + Duration::from_secs(15);
    while standby.last_seq() < wanted && Instant::now() < catch_up {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(standby.last_seq() >= wanted, "standby never caught up with the primary");

    // ---- the failover ----
    let victim = pick_node_parent(&peers);
    let pre_rows = primary.matrix_rows();
    primary.kill();
    // While the control plane is dark, a *parent* peer dies too: its
    // children complain into a dead socket and must retry through the
    // promotion.
    let at = peers.iter().position(|p| p.node_id() == victim).expect("victim is ours");
    peers.swap_remove(at).crash();

    assert!(standby.wait_promoted(Duration::from_secs(20)), "standby never promoted");
    let promoted = standby.take_promoted().expect("promotion result").expect("promotion");
    assert_eq!(promoted.addr(), addr, "the standby must inherit the primary's address");
    // The shipped history carries the full pre-crash matrix. The
    // promoted coordinator's proactive sweep may already have probed the
    // victim's corpse and spliced its row — every other row must match
    // exactly, and nothing may appear that the primary never granted.
    let after = promoted.matrix_rows();
    assert!(
        after.iter().all(|row| pre_rows.contains(row)),
        "promoted matrix invented rows: {after:?} vs shipped {pre_rows:?}"
    );
    let missing: Vec<_> = pre_rows.iter().filter(|row| !after.contains(row)).collect();
    assert!(
        missing.iter().all(|(node, _)| *node == victim.0),
        "rows lost beyond the crashed victim {victim}: {missing:?}"
    );

    // The promoted control plane serves: a fresh joiner gets a fenced id
    // above everything the primary ever granted, and everyone completes.
    let joiner = join(addr, &sink);
    assert!(
        pre_rows.iter().all(|&(node, _)| joiner.node_id().0 > node),
        "fenced id allocator must outbid every shipped grant"
    );
    peers.push(joiner);
    wait_all_complete(&peers);
    for p in &peers {
        assert_eq!(p.decoded_content().unwrap(), data, "peer {} decoded garbage", p.node_id());
    }

    drop(peers);
    drop(source);
    promoted.shutdown();
    dump_trace(&sink);

    let kinds: Vec<String> = sink.events().iter().map(|(_, e)| e.kind().to_string()).collect();
    assert!(kinds.contains(&"standby_promoted".to_string()), "no promotion event");
    assert!(
        !kinds.contains(&"repair_gave_up".to_string()),
        "a repair gave up during the failover soak"
    );
    assert!(
        !kinds.contains(&"coordinator_degraded".to_string()),
        "the WAL degraded during the soak"
    );
    let counters = sink.metrics().snapshot().counters;
    assert_eq!(counters.get("standby_promotions").copied().unwrap_or(0), 1);
    assert!(counters.get("sweep_probes").copied().unwrap_or(0) >= 1, "no sweep ever probed");
    let _ = std::fs::remove_file(&primary_path);
    let _ = std::fs::remove_file(&standby_path);
}
