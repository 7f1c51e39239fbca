//! End-to-end broadcasts over real TCP sockets on localhost: join,
//! decode, graceful leave, crash + complaint-driven repair.

use std::time::Duration;

use curtain_net::{Coordinator, Peer, PeerConfig, Source};
use curtain_overlay::OverlayConfig;
use curtain_telemetry::{MemorySink, SharedRecorder};

const PACE: Duration = Duration::from_micros(150);
const DECODE_TIMEOUT: Duration = Duration::from_secs(20);

fn content(len: usize) -> Vec<u8> {
    (0..len).map(|i| (i * 131 + 7) as u8).collect()
}

#[test]
fn single_peer_decodes_from_source() {
    let coordinator = Coordinator::start(OverlayConfig::new(4, 2)).unwrap();
    let data = content(4096);
    let _source = Source::start(coordinator.addr(), &data, 16, PACE).unwrap();
    let peer = Peer::join(coordinator.addr()).unwrap();
    assert!(peer.wait_complete(DECODE_TIMEOUT), "peer never decoded");
    assert_eq!(peer.decoded_content().unwrap(), data);
    assert_eq!(coordinator.completed(), 1);
}

#[test]
fn swarm_of_peers_all_decode() {
    let coordinator = Coordinator::start(OverlayConfig::new(6, 2)).unwrap();
    let data = content(8192);
    let _source = Source::start(coordinator.addr(), &data, 16, PACE).unwrap();
    let peers: Vec<Peer> = (0..8)
        .map(|_| Peer::join(coordinator.addr()).unwrap())
        .collect();
    assert_eq!(coordinator.members(), 8);
    for (i, peer) in peers.iter().enumerate() {
        assert!(
            peer.wait_complete(DECODE_TIMEOUT),
            "peer {i} stuck at rank {}",
            peer.rank()
        );
        assert_eq!(peer.decoded_content().unwrap(), data, "peer {i} decoded garbage");
    }
    assert_eq!(coordinator.completed(), 8);
}

#[test]
fn graceful_leave_keeps_descendants_fed() {
    let coordinator = Coordinator::start(OverlayConfig::new(4, 2)).unwrap();
    let data = content(4096);
    let _source = Source::start(coordinator.addr(), &data, 16, PACE).unwrap();
    // First joiner sits on top; several descendants hang below it.
    let first = Peer::join(coordinator.addr()).unwrap();
    let rest: Vec<Peer> = (0..4)
        .map(|_| Peer::join(coordinator.addr()).unwrap())
        .collect();
    // Let streams establish, then the top peer leaves politely.
    std::thread::sleep(Duration::from_millis(300));
    first.leave();
    assert_eq!(coordinator.members(), 4);
    for (i, peer) in rest.iter().enumerate() {
        assert!(
            peer.wait_complete(DECODE_TIMEOUT),
            "descendant {i} stuck at rank {} after graceful leave",
            peer.rank()
        );
        assert_eq!(peer.decoded_content().unwrap(), data);
    }
}

#[test]
fn crash_triggers_complaints_and_repair() {
    let coordinator = Coordinator::start(OverlayConfig::new(4, 2)).unwrap();
    let data = content(6144);
    let _source = Source::start(coordinator.addr(), &data, 24, PACE).unwrap();
    let first = Peer::join(coordinator.addr()).unwrap();
    let first_id = first.node_id();
    let rest: Vec<Peer> = (0..4)
        .map(|_| Peer::join(coordinator.addr()).unwrap())
        .collect();
    std::thread::sleep(Duration::from_millis(200));
    // Crash without a good-bye: sockets just die.
    first.crash();
    for (i, peer) in rest.iter().enumerate() {
        assert!(
            peer.wait_complete(DECODE_TIMEOUT),
            "descendant {i} stuck at rank {} after crash",
            peer.rank()
        );
        assert_eq!(peer.decoded_content().unwrap(), data);
    }
    // The crashed member was spliced out by the complaint path (if any
    // child depended on it) or is still listed (if nobody did). Either
    // way the survivors completed; when a repair happened the membership
    // reflects it.
    let members = coordinator.members();
    assert!(members == 4 || members == 5, "unexpected member count {members}");
    if members == 4 {
        assert!(coordinator.repairs() >= 1);
        let checkpoint = coordinator.checkpoint_json().unwrap();
        assert!(!checkpoint.contains(&format!("\"node\":{}", first_id.0)));
    }
}

#[test]
fn late_joiner_catches_up() {
    let coordinator = Coordinator::start(OverlayConfig::new(4, 2)).unwrap();
    let data = content(4096);
    let _source = Source::start(coordinator.addr(), &data, 16, PACE).unwrap();
    let early: Vec<Peer> = (0..3)
        .map(|_| Peer::join(coordinator.addr()).unwrap())
        .collect();
    for p in &early {
        assert!(p.wait_complete(DECODE_TIMEOUT));
    }
    // Everyone already finished; a newcomer must still be able to decode
    // (peers keep serving their children).
    let late = Peer::join(coordinator.addr()).unwrap();
    assert!(late.wait_complete(DECODE_TIMEOUT), "late joiner stuck at rank {}", late.rank());
    assert_eq!(late.decoded_content().unwrap(), data);
}

#[test]
fn multi_generation_file_transfer() {
    // A "large" object: 24 KiB as 6 generations of 8 packets x 512 B —
    // the production path where decode cost stays bounded per generation.
    let coordinator = Coordinator::start(OverlayConfig::new(6, 2)).unwrap();
    let data = content(24 * 1024 - 100); // deliberately not a multiple: padding trimmed
    let source =
        Source::start_with_shape(coordinator.addr(), &data, 8, 512, PACE).unwrap();
    assert_eq!(source.generations(), 6);
    let peers: Vec<Peer> = (0..4)
        .map(|_| Peer::join(coordinator.addr()).unwrap())
        .collect();
    for (i, peer) in peers.iter().enumerate() {
        assert!(
            peer.wait_complete(DECODE_TIMEOUT),
            "peer {i} stuck at rank {} of {}",
            peer.rank(),
            6 * 8
        );
        assert_eq!(peer.decoded_content().unwrap(), data, "peer {i} content mismatch");
    }
}

/// Frames a peer has received so far, off its `/health` document.
fn frames_received(peer: &Peer) -> u64 {
    let health = curtain_telemetry::json::parse_document(&peer.health_json()).unwrap();
    let count = |key: &str| health.get(key).and_then(|v| v.as_u64()).unwrap();
    count("frames_innovative") + count("frames_redundant")
}

/// A thread carries no more of a generation than its sender holds, so a
/// swarm in which everyone is complete goes quiet even at `pace = 0`:
/// every link has been sent each generation whole and is owed nothing,
/// and all that still flows is the one un-booked trickle frame per 2 ms
/// idle interval per link. (A serve loop that mixes a fresh combination
/// every turn delivers tens of thousands of frames in the same window.)
#[test]
fn a_complete_swarm_goes_quiet_at_pace_zero() {
    const D: u64 = 2;
    let coordinator = Coordinator::start(OverlayConfig::new(4, D as usize)).unwrap();
    let data = content(64 * 1024);
    let _source =
        Source::start_with_shape(coordinator.addr(), &data, 16, 256, Duration::ZERO).unwrap();
    let config = PeerConfig { pace: Duration::ZERO, ..PeerConfig::default() };
    let peers: Vec<Peer> =
        (0..4).map(|_| Peer::join_with(coordinator.addr(), config.clone()).unwrap()).collect();
    for (i, peer) in peers.iter().enumerate() {
        assert!(peer.wait_complete(DECODE_TIMEOUT), "peer {i} stuck at rank {}", peer.rank());
        assert_eq!(peer.decoded_content().unwrap(), data, "peer {i} decoded garbage");
    }
    // Let frames already sitting in socket buffers drain, then watch.
    std::thread::sleep(Duration::from_millis(200));
    let window = Duration::from_millis(300);
    let before: Vec<u64> = peers.iter().map(frames_received).collect();
    std::thread::sleep(window);
    // One trickle frame per link per 2 ms, and as much again for slack
    // (the window is a sleep, not a stopwatch).
    let bound = 2 * D * (window.as_millis() as u64 / 2);
    for (i, (peer, before)) in peers.iter().zip(before).enumerate() {
        let received = frames_received(peer) - before;
        assert!(
            received <= bound,
            "complete peer {i} was still sent {received} frames in {window:?} (bound {bound})"
        );
        assert!(received > 0, "peer {i}'s links went silent: the trickle is the liveness rule");
    }
}

#[test]
fn rolling_churn_swarm_still_decodes() {
    // Continuous churn while the transfer runs: peers join, some crash,
    // some leave, new ones replace them — the §3 protocols over real
    // sockets keep the survivors fed.
    let coordinator = Coordinator::start(OverlayConfig::new(8, 2)).unwrap();
    let data = content(8192);
    let _source = Source::start(coordinator.addr(), &data, 16, PACE).unwrap();
    let mut stable: Vec<Peer> = (0..4)
        .map(|_| Peer::join(coordinator.addr()).unwrap())
        .collect();
    // Three churn waves.
    for wave in 0..3 {
        let extra: Vec<Peer> = (0..3)
            .map(|_| Peer::join(coordinator.addr()).unwrap())
            .collect();
        std::thread::sleep(Duration::from_millis(100));
        for (j, p) in extra.into_iter().enumerate() {
            if (wave + j) % 2 == 0 {
                p.crash();
            } else {
                p.leave();
            }
        }
    }
    for (i, peer) in stable.iter().enumerate() {
        assert!(
            peer.wait_complete(DECODE_TIMEOUT),
            "stable peer {i} stuck at rank {} after churn",
            peer.rank()
        );
        assert_eq!(peer.decoded_content().unwrap(), data);
    }
    // Cleanup.
    for p in stable.drain(..) {
        p.leave();
    }
    let checkpoint = coordinator.checkpoint_json().unwrap();
    let restored = curtain_overlay::CurtainServer::from_json(&checkpoint).unwrap();
    restored.matrix().assert_invariants();
}

#[test]
fn traced_crash_recovery_records_repair_latency() {
    // Wall-clock telemetry across the real-TCP stack: the coordinator's
    // recorder sees the protocol lifecycle, the surviving peer's recorder
    // sees packet innovation plus the complaint round-trip latency.
    let coord_sink = MemorySink::new();
    let coordinator = Coordinator::start_traced(
        OverlayConfig::new(4, 2),
        0xC0DE,
        SharedRecorder::wall_clock(coord_sink.clone()),
    )
    .unwrap();
    let data = content(4096);
    let _source = Source::start(coordinator.addr(), &data, 16, PACE).unwrap();
    let first = Peer::join(coordinator.addr()).unwrap();
    let peer_sink = MemorySink::new();
    let survivor = Peer::join_with(
        coordinator.addr(),
        PeerConfig {
            pace: PACE,
            recorder: SharedRecorder::wall_clock(peer_sink.clone()),
            ..PeerConfig::default()
        },
    )
    .unwrap();
    std::thread::sleep(Duration::from_millis(200));
    first.crash();
    assert!(survivor.wait_complete(DECODE_TIMEOUT), "survivor stuck at rank {}", survivor.rank());
    assert_eq!(survivor.decoded_content().unwrap(), data);
    let survivor_id = survivor.node_id();
    survivor.leave();

    // Peer-side: connect + disconnect frame the session; decoding 16
    // packets means at least 16 innovative pushes.
    let kinds: Vec<&'static str> =
        peer_sink.events().iter().map(|(_, e)| e.kind()).collect();
    assert_eq!(kinds.first(), Some(&"peer_connect"));
    assert_eq!(kinds.last(), Some(&"peer_disconnect"));
    assert!(kinds.iter().filter(|k| **k == "packet_innovative").count() >= 16);
    // If the survivor hung below the crashed peer it ran the complaint
    // protocol; the latency histogram then carries one entry per repair.
    let metrics = peer_sink.metrics().snapshot();
    if let Some(h) = metrics.histograms.get("repair_latency_ms") {
        assert_eq!(Some(h.count), metrics.counters.get("repairs").copied());
        // Default policy: 10ms initial backoff, ±25% jitter ⇒ ≥ 7.5ms.
        assert!(h.min >= 7.0, "repair can't beat the jittered backoff: {}", h.min);
        // Each successful episode also logs its attempt count.
        let attempts = &metrics.histograms["repair_attempts"];
        assert_eq!(attempts.count, h.count);
        assert!(attempts.min >= 1.0);
    }
    // Coordinator-side: the survivor's whole lifecycle was observed.
    let coord_kinds: Vec<(u64, &'static str, Option<u64>)> = coord_sink
        .events()
        .iter()
        .map(|(at, e)| (*at, e.kind(), e.node()))
        .collect();
    for want in ["hello", "peer_connect", "good_bye", "peer_disconnect"] {
        assert!(
            coord_kinds
                .iter()
                .any(|(_, k, n)| *k == want && *n == Some(survivor_id.0)),
            "coordinator trace missing {want} for survivor"
        );
    }
}

#[test]
fn coordinator_checkpoint_reflects_live_membership() {
    let coordinator = Coordinator::start(OverlayConfig::new(4, 2)).unwrap();
    let data = content(2048);
    let _source = Source::start(coordinator.addr(), &data, 8, PACE).unwrap();
    let _peers: Vec<Peer> = (0..3)
        .map(|_| Peer::join(coordinator.addr()).unwrap())
        .collect();
    let json = coordinator.checkpoint_json().unwrap();
    let restored = curtain_overlay::CurtainServer::from_json(&json).unwrap();
    assert_eq!(restored.matrix().len(), 3);
    restored.matrix().assert_invariants();
}
