//! Regression tests for the repair path's permanent-defect bugs, driven
//! through the fault-injecting proxy.

use std::io::Read;
use std::net::TcpStream;
use std::time::Duration;

use curtain_net::faults::{Fault, FaultProxy};
use curtain_net::framing::{self, Subscribe};
use curtain_net::{Coordinator, Peer, PeerConfig, PendingSource, RepairPolicy, Source};
use curtain_overlay::{NodeId, OverlayConfig};
use curtain_rlnc::BufPool;
use curtain_telemetry::{MemorySink, SharedRecorder};

const PACE: Duration = Duration::from_micros(150);

fn content(len: usize) -> Vec<u8> {
    (0..len).map(|i| (i * 31 % 251) as u8).collect()
}

/// Bind the source, put a fault proxy in front of its data port, and
/// register the *proxy* address, so every Hello/Redirect hands out the
/// proxied path. (The coordinator rejects re-registration at a different
/// address, so the proxy must be the advertised address from the start.)
fn proxied_source(coordinator: &Coordinator, data: &[u8], generation_size: usize) -> (Source, FaultProxy) {
    let pending = PendingSource::bind(data, generation_size, PACE).unwrap();
    let proxy = FaultProxy::start(pending.data_addr()).unwrap();
    let source = pending.register_as(coordinator.addr(), proxy.addr()).unwrap();
    (source, proxy)
}

fn quick_policy() -> RepairPolicy {
    RepairPolicy {
        initial_backoff: Duration::from_millis(5),
        max_backoff: Duration::from_millis(100),
        deadline: Duration::from_secs(10),
        window: Duration::from_secs(10),
        window_budget: 1000,
        stall_timeout: Duration::from_millis(800),
        ..RepairPolicy::default()
    }
}

/// Satellite (b): a transient coordinator outage during a repair episode
/// must be retried, not treated as a permanent defect. Under the old
/// `complain()` the first failed call killed the upstream thread forever
/// and the peer never completed.
#[test]
fn complaint_retries_through_coordinator_outage() {
    let coordinator = Coordinator::start_seeded(OverlayConfig::new(4, 2), 21).unwrap();
    let coord_proxy = FaultProxy::start(coordinator.addr()).unwrap();
    let data = content(4096);
    let (_source, source_proxy) = proxied_source(&coordinator, &data, 16);

    let sink = MemorySink::new();
    let peer = Peer::join_with(
        coord_proxy.addr(),
        PeerConfig {
            pace: PACE,
            recorder: SharedRecorder::wall_clock(sink.clone()),
            repair: quick_policy(),
            ..PeerConfig::default()
        },
    )
    .unwrap();
    // Let data flow, then break both the upstream and the control plane.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while peer.rank() == 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(peer.rank() > 0, "no data before fault injection");

    coord_proxy.set_fault(Fault::Refuse);
    source_proxy.set_fault(Fault::Refuse);
    // An outage takes the established control connections with it: an
    // upstream thread that reported completion keeps one through the
    // proxy, and `Refuse` alone only turns new dials away.
    coord_proxy.cut();
    source_proxy.cut();
    // Several complaint attempts fail against the refused coordinator.
    std::thread::sleep(Duration::from_millis(300));
    coord_proxy.set_fault(Fault::None);
    source_proxy.set_fault(Fault::None);

    // The in-flight episode is mid-backoff when the outage heals; wait
    // for its complaint to land before tearing anything down.
    let repaired = std::time::Instant::now() + Duration::from_secs(10);
    while sink.metrics().snapshot().counters.get("repairs").copied().unwrap_or(0) == 0
        && std::time::Instant::now() < repaired
    {
        std::thread::sleep(Duration::from_millis(10));
    }

    assert!(
        peer.wait_complete(Duration::from_secs(15)),
        "peer never recovered from a transient coordinator outage"
    );
    assert_eq!(peer.decoded_content().unwrap(), data);
    drop(peer);

    let metrics = sink.metrics().snapshot();
    assert!(metrics.counters.get("repairs").copied().unwrap_or(0) >= 1);
    assert_eq!(metrics.counters.get("repair_gave_up").copied().unwrap_or(0), 0);
    // The outage forced at least one episode to retry: some successful
    // episode took more than one attempt.
    let attempts = &metrics.histograms["repair_attempts"];
    assert!(
        attempts.max >= 2.0,
        "expected a multi-attempt episode, got max {}",
        attempts.max
    );
    let kinds: Vec<&str> = sink.events().iter().map(|(_, e)| e.kind()).collect();
    assert!(kinds.contains(&"repair_attempt"));
    assert!(!kinds.contains(&"repair_gave_up"));
}

/// A connection that truncates mid-frame (a byte budget, then hard close)
/// must trigger repair and never corrupt the decode: every frame carries
/// its coefficients, so a partial frame is dropped at the framing layer.
#[test]
fn truncated_mid_frame_connection_repairs_cleanly() {
    let coordinator = Coordinator::start_seeded(OverlayConfig::new(4, 2), 22).unwrap();
    let data = content(4096);
    let (_source, proxy) = proxied_source(&coordinator, &data, 16);

    let sink = MemorySink::new();
    let peer = Peer::join_with(
        coordinator.addr(),
        PeerConfig {
            pace: PACE,
            recorder: SharedRecorder::wall_clock(sink.clone()),
            repair: quick_policy(),
            ..PeerConfig::default()
        },
    )
    .unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while peer.rank() == 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(peer.rank() > 0);

    // 777 is deliberately not frame-aligned: connections die mid-frame.
    proxy.set_fault(Fault::Truncate(777));
    proxy.cut();
    std::thread::sleep(Duration::from_millis(400));
    proxy.set_fault(Fault::None);
    proxy.cut(); // kill pumps still holding a truncation budget

    assert!(
        peer.wait_complete(Duration::from_secs(15)),
        "peer never recovered from mid-frame truncation"
    );
    assert_eq!(peer.decoded_content().unwrap(), data, "decode corrupted by partial frames");
    drop(peer);

    let metrics = sink.metrics().snapshot();
    assert!(metrics.counters.get("repairs").copied().unwrap_or(0) >= 1);
    assert_eq!(metrics.counters.get("repair_gave_up").copied().unwrap_or(0), 0);
}

/// Satellite (d): `crash()` must join the per-child serving threads. By
/// the time it returns, a subscribed child's socket sees EOF — no
/// detached thread keeps serving a peer the caller believes is gone.
#[test]
fn crash_joins_child_serving_threads() {
    let coordinator = Coordinator::start_seeded(OverlayConfig::new(4, 2), 23).unwrap();
    let data = content(4096);
    let _source = Source::start(coordinator.addr(), &data, 16, PACE).unwrap();
    let peer =
        Peer::join_with(coordinator.addr(), PeerConfig { pace: PACE, ..PeerConfig::default() })
            .unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while peer.rank() == 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(peer.rank() > 0);

    // Subscribe a hand-rolled child and read one frame to prove the
    // serving thread is live.
    let mut child = TcpStream::connect(peer.data_addr()).unwrap();
    framing::write_subscribe(&child, &Subscribe { node: NodeId(999), thread: 0 }).unwrap();
    child.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let first =
        framing::read_frame_tagged_pooled(&mut child, &BufPool::default(), &mut Vec::new())
            .unwrap();
    assert!(first.is_some(), "child subscription never served a frame");
    let child_deadline = std::time::Instant::now() + Duration::from_secs(5);
    while peer.active_children() == 0 && std::time::Instant::now() < child_deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(peer.active_children(), 1);

    peer.crash();
    // crash() has returned, so the serving thread is joined and its
    // socket dropped: the child drains buffered frames then hits EOF.
    child.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
    let mut buf = [0u8; 4096];
    let saw_eof = loop {
        match child.read(&mut buf) {
            Ok(0) => break true,
            Ok(_) => continue,
            Err(_) => break false,
        }
    };
    assert!(saw_eof, "child socket still open after crash() returned");
}

/// Stall detection: a parent that stays connected but sends nothing is a
/// defect. Blackhole the source link (no close, no data) and the peer
/// must complain and recover once redirected.
#[test]
fn stalled_but_connected_parent_triggers_repair() {
    let coordinator = Coordinator::start_seeded(OverlayConfig::new(4, 2), 24).unwrap();
    let data = content(4096);
    let (_source, proxy) = proxied_source(&coordinator, &data, 16);

    // Silence the link before the peer ever connects: sockets open fine
    // but no byte moves — a partition, not a close. The old loop treated
    // WouldBlock as pure idleness and waited forever.
    proxy.set_fault(Fault::Blackhole);

    let sink = MemorySink::new();
    let peer = Peer::join_with(
        coordinator.addr(),
        PeerConfig {
            pace: PACE,
            recorder: SharedRecorder::wall_clock(sink.clone()),
            repair: quick_policy(),
            ..PeerConfig::default()
        },
    )
    .unwrap();
    // Long enough for at least one stall episode (stall_timeout 800ms).
    std::thread::sleep(Duration::from_millis(1200));
    proxy.set_fault(Fault::None);

    assert!(
        peer.wait_complete(Duration::from_secs(15)),
        "peer never detected the stalled parent"
    );
    assert_eq!(peer.decoded_content().unwrap(), data);
    drop(peer);

    let metrics = sink.metrics().snapshot();
    assert!(metrics.counters.get("repairs").copied().unwrap_or(0) >= 1);
    assert_eq!(metrics.counters.get("repair_gave_up").copied().unwrap_or(0), 0);
}
