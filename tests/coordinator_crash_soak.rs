//! Kill-the-coordinator soak: a real-TCP swarm survives the control
//! plane crashing and restarting mid-churn — in both recovery modes.
//!
//! * **WAL replay** — the coordinator restarts from its write-ahead log
//!   and must resurrect the *exact* pre-crash matrix (zero resyncs).
//! * **Amnesiac (WAL lost)** — the log is deleted before the restart;
//!   the coordinator comes back empty and must rebuild `M` from the
//!   peers' `Resync` uploads triggered by "unknown child" complaints.
//!
//! In both modes every survivor completes, no repair ever gives up, and
//! the recovered matrix passes the row invariants (every row exactly `d`
//! distinct threads, holders consistent).
//!
//! Knobs:
//!
//! * `CURTAIN_CRASH_PEERS` — initial swarm size (default 6)
//! * `CURTAIN_CRASH_TRACE` — if set, each test dumps its telemetry trace
//!   as JSONL to `<value>-<mode>.jsonl` (CI greps these)

use std::io::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use curtain_net::{Coordinator, Peer, PeerConfig, RepairPolicy, Source, WalOptions};
use curtain_overlay::{NodeId, OverlayConfig, ThreadId};
use curtain_telemetry::{MemorySink, SharedRecorder};

const PACE: Duration = Duration::from_micros(500);
const K: usize = 4;
const D: usize = 2;
const COMPLETE_TIMEOUT: Duration = Duration::from_secs(60);

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

fn content(len: usize) -> Vec<u8> {
    (0..len).map(|i| (i * 173 % 251) as u8).collect()
}

/// Generous deadline: a complaint must survive the whole coordinator
/// outage (kill → recover → resync) without giving up.
fn crash_policy() -> RepairPolicy {
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
            repair: crash_policy(),
            ..PeerConfig::default()
        },
    )
    .expect("join")
}

fn wal_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("curtain-crash-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("wal dir");
    dir.join(name)
}

fn dump_trace(sink: &MemorySink, mode: &str) {
    let Ok(prefix) = std::env::var("CURTAIN_CRASH_TRACE") else { return };
    if prefix.is_empty() {
        return;
    }
    let path = format!("{prefix}-{mode}.jsonl");
    let mut out = String::new();
    for (at, event) in sink.events() {
        event.write_jsonl(at, &mut out);
        out.push('\n');
    }
    let mut file = std::fs::File::create(&path).expect("trace file");
    file.write_all(out.as_bytes()).expect("trace write");
    println!("crash-soak trace ({mode}): {} events -> {path}", sink.events().len());
}

/// Picks a member that currently *parents* another peer (has at least
/// one active child subscription) — crashing it forces real complaints.
/// With six members holding `6·d = 12` (row, thread) slots over `k = 4`
/// threads, some thread has ≥ 2 rows, so such a relation always exists
/// once the data plane is connected.
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

/// The recovered matrix must satisfy the paper's row invariants (every
/// row exactly `d` distinct threads — holder consistency is asserted
/// inside the coordinator on every mutation and replay), and every row
/// must belong to a live peer — except up to `max_dead` rows for peers
/// that died while the coordinator was down (their splice happens
/// lazily, at the next complaint).
fn assert_recovered_matrix(rows: &[(u64, Vec<ThreadId>)], survivors: &[NodeId], max_dead: usize) {
    let mut dead = 0usize;
    for (node, row_threads) in rows {
        let mut threads = row_threads.clone();
        threads.sort_unstable();
        threads.dedup();
        assert_eq!(
            threads.len(),
            D,
            "row {node} holds {row_threads:?}, not exactly d = {D} distinct threads"
        );
        assert!(
            threads.iter().all(|&t| (t as usize) < K),
            "row {node} holds an out-of-range thread: {row_threads:?}"
        );
        if !survivors.contains(&NodeId(*node)) {
            dead += 1;
        }
    }
    assert!(dead <= max_dead, "{dead} rows belong to dead peers (allowed {max_dead})");
}

fn wait_all_complete(peers: &[Peer]) {
    let deadline = Instant::now() + COMPLETE_TIMEOUT;
    for p in peers {
        let left = deadline.saturating_duration_since(Instant::now());
        assert!(
            p.wait_complete(left),
            "peer {} stuck at rank {} after the recovery",
            p.node_id(),
            p.rank()
        );
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

/// Mode 1: the WAL survives the crash. Recovery is pure replay — the
/// rebuilt matrix is *identical* to the pre-crash one, zero resyncs —
/// and the swarm (including a parent crash during the outage, and a
/// fresh joiner afterwards) finishes with zero give-ups.
#[test]
fn coordinator_crash_with_wal_recovers_by_pure_replay() {
    let n = env_usize("CURTAIN_CRASH_PEERS", 6).max(4);
    let path = wal_path("with-wal.wal");
    let sink = MemorySink::new();
    let recorder = SharedRecorder::wall_clock(sink.clone());
    let config = OverlayConfig::new(K, D);

    let coordinator =
        Coordinator::start_durable(config, 0xDEAD, recorder.clone(), &WalOptions::new(&path))
            .unwrap();
    let addr = coordinator.addr();
    let data = content(32 * 1024);
    let source = Source::start_with_shape(addr, &data, 32, 256, PACE).unwrap();

    let mut peers: Vec<Peer> = (0..n).map(|_| join(addr, &sink)).collect();
    wait_progress(&peers);

    // ---- the crash ----
    let victim = pick_node_parent(&peers);
    let pre_rows = coordinator.matrix_rows();
    coordinator.kill();
    // While the control plane is dark, a *parent* peer dies: its
    // children complain into a dead socket and must keep retrying
    // through the outage.
    let at = peers.iter().position(|p| p.node_id() == victim).expect("victim is ours");
    peers.swap_remove(at).crash();
    std::thread::sleep(Duration::from_millis(300));

    let recovered =
        Coordinator::recover_at(addr, WalOptions::new(&path), config, 0xBEEF, recorder).unwrap();
    assert_eq!(recovered.addr(), addr);

    // Pure replay: the resurrected matrix is row-for-row the pre-crash
    // one (the victim's row included — its splice comes later, from the
    // complaints now landing).
    assert_eq!(recovered.matrix_rows(), pre_rows, "WAL replay must reproduce M exactly");

    // The recovered control plane keeps serving: a fresh joiner and all
    // survivors complete.
    peers.push(join(addr, &sink));
    wait_all_complete(&peers);
    for p in &peers {
        assert_eq!(p.decoded_content().unwrap(), data, "peer {} decoded garbage", p.node_id());
    }

    let survivors: Vec<NodeId> = peers.iter().map(Peer::node_id).collect();
    assert_recovered_matrix(&recovered.matrix_rows(), &survivors, 1);

    drop(peers);
    drop(source);
    recovered.shutdown();
    dump_trace(&sink, "with-wal");

    let kinds: Vec<String> = sink.events().iter().map(|(_, e)| e.kind().to_string()).collect();
    assert!(kinds.contains(&"coordinator_down".to_string()));
    assert!(kinds.contains(&"coordinator_recovered".to_string()));
    assert!(
        !kinds.contains(&"repair_gave_up".to_string()),
        "a repair gave up during the crash soak"
    );
    let counters = sink.metrics().snapshot().counters;
    assert_eq!(
        counters.get("resynced_rows").copied().unwrap_or(0),
        0,
        "WAL replay must need zero resyncs"
    );
    assert!(counters.get("repairs").copied().unwrap_or(0) >= 1, "no repair ever ran");
    let _ = std::fs::remove_file(&path);
}

/// Mode 2: the WAL is *lost* with the crash. The coordinator restarts
/// empty and must rebuild `M` from the peers themselves: complaints hit
/// "unknown child", each orphan uploads its thread→parent view via
/// `Resync`, and the re-registered source anchors the redirects.
#[test]
fn coordinator_crash_without_wal_recovers_by_peer_resync() {
    let n = env_usize("CURTAIN_CRASH_PEERS", 6).max(4);
    let path = wal_path("amnesiac.wal");
    let sink = MemorySink::new();
    let recorder = SharedRecorder::wall_clock(sink.clone());
    let config = OverlayConfig::new(K, D);

    let coordinator =
        Coordinator::start_durable(config, 0xFEED, recorder.clone(), &WalOptions::new(&path))
            .unwrap();
    let addr = coordinator.addr();
    let data = content(32 * 1024);
    let source = Source::start_with_shape(addr, &data, 32, 256, PACE).unwrap();

    let mut peers: Vec<Peer> = (0..n).map(|_| join(addr, &sink)).collect();
    wait_progress(&peers);

    // ---- the crash, with total state loss ----
    let victim = pick_node_parent(&peers);
    coordinator.kill();
    std::fs::remove_file(&path).expect("delete WAL");
    let at = peers.iter().position(|p| p.node_id() == victim).expect("victim is ours");
    peers.swap_remove(at).crash();
    std::thread::sleep(Duration::from_millis(300));

    let recovered =
        Coordinator::recover_at(addr, WalOptions::new(&path), config, 0xFACE, recorder).unwrap();
    assert_eq!(recovered.members(), 0, "an amnesiac coordinator starts empty");
    // The source re-anchors itself first — redirects to `Holder::Server`
    // need a registered source address.
    source.reregister().expect("source re-registration");

    // The victim's children resync themselves back into M and finish.
    peers.push(join(addr, &sink));
    wait_all_complete(&peers);
    for p in &peers {
        assert_eq!(p.decoded_content().unwrap(), data, "peer {} decoded garbage", p.node_id());
    }

    let survivors: Vec<NodeId> = peers.iter().map(Peer::node_id).collect();
    // Resync only re-learns rows of peers that had to complain, so the
    // matrix is a *subset* of the survivors — and contains no dead rows:
    // the victim cannot resync from the grave.
    assert_recovered_matrix(&recovered.matrix_rows(), &survivors, 0);
    assert!(recovered.members() >= 1, "nobody resynced into the empty matrix");

    drop(peers);
    drop(source);
    recovered.shutdown();
    dump_trace(&sink, "resync");

    let kinds: Vec<String> = sink.events().iter().map(|(_, e)| e.kind().to_string()).collect();
    assert!(kinds.contains(&"coordinator_down".to_string()));
    assert!(kinds.contains(&"coordinator_recovered".to_string()));
    assert!(kinds.contains(&"peer_resync".to_string()), "no peer ever resynced");
    assert!(
        !kinds.contains(&"repair_gave_up".to_string()),
        "a repair gave up during the amnesiac crash soak"
    );
    let counters = sink.metrics().snapshot().counters;
    assert!(
        counters.get("resynced_rows").copied().unwrap_or(0) >= 1,
        "amnesiac recovery rebuilt nothing via resync"
    );
    let _ = std::fs::remove_file(&path);
}
