//! Distributed causal tracing over real TCP: every process writes its
//! own JSONL trace, `stitch` merges them, and the report must show
//! complete source→peer hop chains, closed repair span trees, and live
//! `/metrics` + `/health` endpoints — the tentpole acceptance test.

use std::io::{BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use curtain_net::{Coordinator, Peer, PeerConfig, PendingSource, RepairPolicy, Source};
use curtain_overlay::OverlayConfig;
use curtain_telemetry::replay::read_trace;
use curtain_telemetry::stitch::{stitch, StitchReport};
use curtain_telemetry::{json, ExposeServer, JsonlSink, SharedRecorder, TracedEvent};

const PACE: Duration = Duration::from_micros(150);
const DECODE_TIMEOUT: Duration = Duration::from_secs(20);

fn content(len: usize) -> Vec<u8> {
    (0..len).map(|i| (i * 193 + 11) as u8).collect()
}

/// One process's observability kit: a byte-backed JSONL sink plus a
/// wall-clock recorder over it — exactly what `--trace` wires up in the
/// binaries, minus the file.
fn observer() -> (SharedRecorder, JsonlSink<Vec<u8>>) {
    let sink = JsonlSink::new(Vec::new());
    (SharedRecorder::wall_clock(sink.clone()), sink)
}

fn traced_peer_config(recorder: SharedRecorder) -> PeerConfig {
    PeerConfig {
        pace: PACE,
        recorder,
        trace: true,
        repair: RepairPolicy {
            initial_backoff: Duration::from_millis(5),
            max_backoff: Duration::from_millis(100),
            stall_timeout: Duration::from_millis(800),
            ..RepairPolicy::default()
        },
    }
}

/// Merges every process's JSONL bytes and stitches the result, as
/// `lab trace` would after collecting the files.
fn stitched(sinks: &[&JsonlSink<Vec<u8>>]) -> StitchReport {
    let mut events: Vec<TracedEvent> = Vec::new();
    for sink in sinks {
        let bytes = sink.bytes();
        events.extend(read_trace(BufReader::new(&bytes[..])).expect("well-formed JSONL"));
    }
    stitch(&events)
}

fn http_get(addr: SocketAddr, path: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect exposition endpoint");
    stream
        .write_all(format!("GET {path} HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n").as_bytes())
        .expect("send request");
    stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let (head, body) = response.split_once("\r\n\r\n").expect("header/body split");
    (head.to_string(), body.to_string())
}

/// Fully traced broadcast: source stamps root contexts, peers forward
/// child spans, and the stitched report proves every traced arrival
/// chains back to the source — while /metrics and /health answer live.
#[test]
fn traced_broadcast_stitches_complete_chains() {
    let (coord_recorder, coord_sink) = observer();
    let coordinator =
        Coordinator::start_traced(OverlayConfig::new(4, 2), 0xC0DE, coord_recorder.clone())
            .unwrap();
    let expose = ExposeServer::bind(
        "127.0.0.1:0",
        coord_sink.metrics().clone(),
        coordinator.health_handle(),
    )
    .unwrap();

    let data = content(4096);
    let (source_recorder, source_sink) = observer();
    let source: Source = PendingSource::bind(&data, 16, PACE)
        .unwrap()
        .observed(source_recorder.clone(), true)
        .register(coordinator.addr())
        .unwrap();
    assert_eq!(source.generations(), 1);

    let mut peer_sinks = Vec::new();
    let peers: Vec<Peer> = (0..3)
        .map(|_| {
            let (recorder, sink) = observer();
            peer_sinks.push(sink);
            Peer::join_with(coordinator.addr(), traced_peer_config(recorder)).unwrap()
        })
        .collect();
    for (i, peer) in peers.iter().enumerate() {
        assert!(peer.wait_complete(DECODE_TIMEOUT), "peer {i} stuck at rank {}", peer.rank());
        assert_eq!(peer.decoded_content().unwrap(), data);
    }

    // Exposition liveness while the swarm is still up.
    let (head, metrics_body) = http_get(expose.addr(), "/metrics");
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    assert!(metrics_body.contains("coordinator_members 3"), "{metrics_body}");
    let (head, health_body) = http_get(expose.addr(), "/health");
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    let health = json::parse_document(health_body.trim()).expect(&health_body);
    assert_eq!(health.get("role").and_then(|v| v.as_str()), Some("coordinator"));
    assert_eq!(health.get("matrix_rows").and_then(json::JsonValue::as_i64), Some(3));
    assert_eq!(health.get("ok").and_then(json::JsonValue::as_bool), Some(true));

    // A peer's own endpoint: decode rank and buffer-pool stats.
    let peer_expose = ExposeServer::bind(
        "127.0.0.1:0",
        peer_sinks[0].metrics().clone(),
        peers[0].health_handle(),
    )
    .unwrap();
    let (head, body) = http_get(peer_expose.addr(), "/health");
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    let health = json::parse_document(body.trim()).expect(&body);
    assert_eq!(health.get("role").and_then(|v| v.as_str()), Some("peer"));
    assert_eq!(health.get("complete").and_then(json::JsonValue::as_bool), Some(true));
    assert_eq!(health.get("rank").and_then(json::JsonValue::as_i64), Some(16));
    assert!(health.get("buf_pool").is_some(), "{body}");
    peer_expose.shutdown();

    for peer in peers {
        peer.leave();
    }
    coord_recorder.flush().unwrap();
    source_recorder.flush().unwrap();

    let sinks: Vec<&JsonlSink<Vec<u8>>> =
        std::iter::once(&coord_sink).chain(std::iter::once(&source_sink)).chain(&peer_sinks).collect();
    let report = stitched(&sinks);
    assert!(report.total_arrivals() > 0, "no traced arrivals recorded");
    assert!(
        report.all_chains_complete(),
        "{} of {} arrivals incomplete:\n{}",
        report.total_arrivals() - report.total_complete(),
        report.total_arrivals(),
        report.render_text()
    );
    assert_eq!(report.orphan_span_ends, 0, "{}", report.render_text());
    // The first hop of every chain leaves the source.
    assert!(
        report.edges.keys().any(|(from, _)| *from == curtain_telemetry::trace::SOURCE_NODE),
        "no source edge:\n{}",
        report.render_text()
    );
    expose.shutdown();
}

/// Crash a parent: the survivor's complaint rides its trace context to
/// the coordinator, whose splice lands in the same span tree, and the
/// stitched report shows the closed repair episode end to end. The
/// crashed peer itself is untraced — mixed swarms must interoperate.
#[test]
fn crashed_parent_yields_closed_repair_episode() {
    let (coord_recorder, coord_sink) = observer();
    let coordinator =
        Coordinator::start_traced(OverlayConfig::new(4, 2), 0xC0DE, coord_recorder.clone())
            .unwrap();
    let data = content(6144);
    let (source_recorder, source_sink) = observer();
    let _source: Source = PendingSource::bind(&data, 24, PACE)
        .unwrap()
        .observed(source_recorder.clone(), true)
        .register(coordinator.addr())
        .unwrap();

    // The victim joins first so later joiners hang below it. It runs
    // *untraced*: its frames carry no context, proving old-style peers
    // interoperate inside a traced swarm.
    let victim =
        Peer::join_with(coordinator.addr(), PeerConfig { pace: PACE, ..PeerConfig::default() })
            .unwrap();
    let mut peer_sinks = Vec::new();
    let survivors: Vec<Peer> = (0..4)
        .map(|_| {
            let (recorder, sink) = observer();
            peer_sinks.push(sink);
            Peer::join_with(coordinator.addr(), traced_peer_config(recorder)).unwrap()
        })
        .collect();
    std::thread::sleep(Duration::from_millis(300));
    victim.crash();

    for (i, peer) in survivors.iter().enumerate() {
        assert!(
            peer.wait_complete(DECODE_TIMEOUT),
            "survivor {i} stuck at rank {} after crash",
            peer.rank()
        );
        assert_eq!(peer.decoded_content().unwrap(), data);
    }
    // Give in-flight episodes a moment to close their span trees.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while survivors.iter().any(|p| p.active_repair_episodes() > 0)
        && std::time::Instant::now() < deadline
    {
        std::thread::sleep(Duration::from_millis(10));
    }
    for peer in &survivors {
        assert_eq!(peer.active_repair_episodes(), 0, "episode gauge never drained");
    }

    let repairs: u64 = peer_sinks
        .iter()
        .map(|s| s.metrics().snapshot().counters.get("repairs").copied().unwrap_or(0))
        .sum();
    for peer in survivors {
        peer.leave();
    }
    coord_recorder.flush().unwrap();
    source_recorder.flush().unwrap();

    let sinks: Vec<&JsonlSink<Vec<u8>>> =
        std::iter::once(&coord_sink).chain(std::iter::once(&source_sink)).chain(&peer_sinks).collect();
    let report = stitched(&sinks);
    assert!(report.all_chains_complete(), "{}", report.render_text());
    assert!(
        report.all_repair_episodes_closed(),
        "open repair span tree:\n{}",
        report.render_text()
    );
    if repairs > 0 {
        let episodes: Vec<_> = report.repair_episodes().collect();
        assert!(!episodes.is_empty(), "repairs ran but no episode stitched");
        assert!(
            episodes.iter().any(|e| e.ok == Some(true)),
            "no successful repair episode:\n{}",
            report.render_text()
        );
        assert!(
            episodes
                .iter()
                .any(|e| e.steps.iter().any(|s| s.name == "complain")),
            "repair episode missing complain step:\n{}",
            report.render_text()
        );
        // A splice at the coordinator means the complaint's context made
        // it across the process boundary into the same span tree.
        if coordinator.repairs() > 0 {
            assert!(
                episodes.iter().any(|e| e
                    .steps
                    .iter()
                    .any(|s| s.name == "splice"
                        && s.node == curtain_telemetry::trace::COORDINATOR_NODE)),
                "splice not stitched into a repair episode:\n{}",
                report.render_text()
            );
            assert!(
                episodes.iter().any(|e| e.steps.iter().any(|s| s.name == "repair_complete")),
                "repair_complete missing:\n{}",
                report.render_text()
            );
        }
    }
}

/// Backward compatibility both ways: an untraced peer decodes from a
/// traced source (flagged frames are readable), and a traced peer
/// decodes from an untraced source (no contexts → an empty but
/// vacuously complete stitched report).
#[test]
fn mixed_tracing_interoperates() {
    // Traced source, untraced peer.
    let coordinator = Coordinator::start_seeded(OverlayConfig::new(4, 2), 31).unwrap();
    let data = content(4096);
    let (source_recorder, _source_sink) = observer();
    let _source: Source = PendingSource::bind(&data, 16, PACE)
        .unwrap()
        .observed(source_recorder, true)
        .register(coordinator.addr())
        .unwrap();
    let plain =
        Peer::join_with(coordinator.addr(), PeerConfig { pace: PACE, ..PeerConfig::default() })
            .unwrap();
    assert!(plain.wait_complete(DECODE_TIMEOUT), "untraced peer choked on traced frames");
    assert_eq!(plain.decoded_content().unwrap(), data);
    plain.leave();

    // Untraced source, traced peer.
    let coordinator = Coordinator::start_seeded(OverlayConfig::new(4, 2), 32).unwrap();
    let _source = Source::start(coordinator.addr(), &data, 16, PACE).unwrap();
    let (recorder, sink) = observer();
    let traced = Peer::join_with(coordinator.addr(), traced_peer_config(recorder.clone())).unwrap();
    assert!(traced.wait_complete(DECODE_TIMEOUT), "traced peer stuck on untraced source");
    assert_eq!(traced.decoded_content().unwrap(), data);
    traced.leave();
    recorder.flush().unwrap();
    let report = stitched(&[&sink]);
    assert_eq!(report.total_arrivals(), 0, "phantom contexts:\n{}", report.render_text());
    assert!(report.all_chains_complete()); // vacuously
}
