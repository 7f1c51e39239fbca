//! Fault-injection soak: a real-TCP swarm survives sustained churn —
//! crashes, partitions, hard cuts, delay, and mid-frame truncation — with
//! every survivor completing and **zero** `RepairGaveUp` events.
//!
//! Knobs (all environment variables, read at test start):
//!
//! * `CURTAIN_SOAK_PEERS`  — initial swarm size (default 6)
//! * `CURTAIN_SOAK_CHURN`  — churn events to inject (default 10, min 10)
//! * `CURTAIN_SOAK_TRACE`  — if set, dump the full telemetry event trace
//!   as JSONL to this path (CI greps it for `repair_gave_up`)
//!
//! Run locally with e.g.:
//!
//! ```text
//! CURTAIN_SOAK_CHURN=20 cargo test --release --test churn_soak -- --nocapture
//! ```

use std::io::Write as _;
use std::time::{Duration, Instant};

use curtain_net::faults::{Fault, FaultProxy};
use curtain_net::{Coordinator, Peer, PeerConfig, PendingSource, RepairPolicy, Source};
use curtain_overlay::OverlayConfig;
use curtain_telemetry::{MemorySink, SharedRecorder};

const PACE: Duration = Duration::from_micros(200);

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

fn content(len: usize) -> Vec<u8> {
    (0..len).map(|i| (i * 131 % 251) as u8).collect()
}

fn soak_policy() -> RepairPolicy {
    RepairPolicy {
        initial_backoff: Duration::from_millis(5),
        max_backoff: Duration::from_millis(200),
        deadline: Duration::from_secs(20),
        window: Duration::from_secs(10),
        window_budget: 128,
        stall_timeout: Duration::from_millis(900),
        ..RepairPolicy::default()
    }
}

/// Bind the source, front its data port with a fault proxy, and register
/// the *proxy* address, so every Hello/Redirect hands out the proxied
/// path. (The coordinator rejects re-registration at a different
/// address, so the proxy must be advertised from the start.)
fn proxied_source(
    coordinator: &Coordinator,
    data: &[u8],
    generation_size: usize,
    packet_len: usize,
) -> (Source, FaultProxy) {
    let pending = PendingSource::bind_with_shape(data, generation_size, packet_len, PACE).unwrap();
    let proxy = FaultProxy::start(pending.data_addr()).unwrap();
    let source = pending.register_as(coordinator.addr(), proxy.addr()).unwrap();
    (source, proxy)
}

fn join(coordinator: &Coordinator, sink: &MemorySink) -> Peer {
    Peer::join_with(
        coordinator.addr(),
        PeerConfig {
            pace: PACE,
            recorder: SharedRecorder::wall_clock(sink.clone()),
            repair: soak_policy(),
            ..PeerConfig::default()
        },
    )
    .expect("join")
}

fn dump_trace(sink: &MemorySink) {
    let Ok(path) = std::env::var("CURTAIN_SOAK_TRACE") else { return };
    if path.is_empty() {
        return;
    }
    let mut out = String::new();
    for (at, event) in sink.events() {
        event.write_jsonl(at, &mut out);
        out.push('\n');
    }
    let mut file = std::fs::File::create(&path).expect("trace file");
    file.write_all(out.as_bytes()).expect("trace write");
    println!("soak trace: {} events -> {path}", sink.events().len());
}

/// The soak proper: ≥10 injected churn events, all survivors complete,
/// zero repair give-ups anywhere in the swarm.
#[test]
fn churn_soak_survivors_complete_with_zero_gave_ups() {
    let initial_peers = env_usize("CURTAIN_SOAK_PEERS", 6);
    let churn = env_usize("CURTAIN_SOAK_CHURN", 10).max(10);

    let sink = MemorySink::new();
    let coordinator = Coordinator::start_traced(
        OverlayConfig::new(4, 2),
        0x50AC,
        SharedRecorder::wall_clock(sink.clone()),
    )
    .unwrap();
    let data = content(32 * 1024);
    let (_source, proxy) = proxied_source(&coordinator, &data, 32, 256);

    let mut peers: Vec<Peer> = (0..initial_peers).map(|_| join(&coordinator, &sink)).collect();
    let mut crashed = 0usize;

    for i in 0..churn {
        // A fresh joiner before each event keeps part of the swarm
        // mid-download while the fault lands.
        peers.push(join(&coordinator, &sink));
        match i % 5 {
            0 => {
                // Crash a peer (non-ergodic departure: sockets just die).
                let victim = peers.swap_remove(i % peers.len());
                victim.crash();
                crashed += 1;
            }
            1 => {
                // Hard-close every connection through the source proxy.
                proxy.cut();
            }
            2 => {
                // Partition: links stay open, bytes stop flowing.
                proxy.set_fault(Fault::Blackhole);
                std::thread::sleep(Duration::from_millis(1100));
                proxy.set_fault(Fault::None);
            }
            3 => {
                // Slow network, then mid-frame truncation on reconnect.
                proxy.set_fault(Fault::Delay(Duration::from_millis(10)));
                std::thread::sleep(Duration::from_millis(200));
                proxy.set_fault(Fault::Truncate(1500));
                proxy.cut();
                std::thread::sleep(Duration::from_millis(300));
                proxy.set_fault(Fault::None);
                proxy.cut(); // retire pumps still holding truncate budgets
            }
            _ => {
                // Crash the *newest* joiner mid-download.
                let victim = peers.pop().unwrap();
                victim.crash();
                crashed += 1;
            }
        }
        std::thread::sleep(Duration::from_millis(250));
    }
    // Heal the world and let the survivors finish.
    proxy.set_fault(Fault::None);
    proxy.cut();

    let deadline = Instant::now() + Duration::from_secs(90);
    for (idx, peer) in peers.iter().enumerate() {
        let left = deadline.saturating_duration_since(Instant::now());
        assert!(
            peer.wait_complete(left),
            "survivor {idx} ({:?}) incomplete after churn: rank {}",
            peer.node_id(),
            peer.rank()
        );
        assert_eq!(peer.decoded_content().unwrap(), data, "survivor {idx} decoded garbage");
    }
    let survivors = peers.len();
    for p in peers.drain(..) {
        p.leave();
    }

    dump_trace(&sink);
    let metrics = sink.metrics().snapshot();
    let repairs = metrics.counters.get("repairs").copied().unwrap_or(0);
    let gave_up = metrics.counters.get("repair_gave_up").copied().unwrap_or(0);
    let gave_up_events =
        sink.events().iter().filter(|(_, e)| e.kind() == "repair_gave_up").count();
    println!(
        "soak: {churn} churn events ({crashed} crashes), {survivors} survivors, \
         {repairs} repairs, {gave_up} give-ups"
    );
    assert!(churn >= 10);
    assert_eq!(gave_up, 0, "repair gave up {gave_up} times during soak");
    assert_eq!(gave_up_events, 0, "RepairGaveUp events present in trace");
    assert!(repairs >= 1, "soak injected faults but no repair ever ran");
}

/// Regression for the old `MAX_REPAIRS = 32` lifetime cap: a peer must
/// survive **more than 32 successful repairs** over its lifetime. Under
/// the capped code the upstream threads die permanently at repair #33
/// (and under the old fatal-complaint code, at the first hiccup).
#[test]
fn peer_survives_more_than_32_lifetime_repairs() {
    let sink = MemorySink::new();
    let coordinator = Coordinator::start_seeded(OverlayConfig::new(4, 2), 0x33).unwrap();
    let data = content(8 * 1024);
    let packet_len = data.len().div_ceil(16);
    let (_source, proxy) = proxied_source(&coordinator, &data, 16, packet_len);

    let policy = RepairPolicy {
        initial_backoff: Duration::from_millis(2),
        max_backoff: Duration::from_millis(50),
        deadline: Duration::from_secs(10),
        window: Duration::from_secs(1),
        window_budget: 1000,
        stall_timeout: Duration::from_secs(30), // isolate the EOF path
        ..RepairPolicy::default()
    };
    let peer = Peer::join_with(
        coordinator.addr(),
        PeerConfig {
            pace: PACE,
            recorder: SharedRecorder::wall_clock(sink.clone()),
            repair: policy,
            ..PeerConfig::default()
        },
    )
    .unwrap();
    assert!(peer.wait_complete(Duration::from_secs(15)), "initial download failed");

    let repairs_now = |sink: &MemorySink| {
        sink.metrics().snapshot().counters.get("repairs").copied().unwrap_or(0)
    };
    // Cut the upstream link repeatedly; every cut forces each of the
    // peer's threads through a full complaint/repair/resubscribe cycle.
    let mut cuts = 0u32;
    while repairs_now(&sink) <= 40 {
        assert!(cuts < 100, "repairs stopped accumulating after {} cuts", cuts);
        let before = repairs_now(&sink);
        proxy.cut();
        cuts += 1;
        let deadline = Instant::now() + Duration::from_secs(5);
        while repairs_now(&sink) == before && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        // Small settle so the resubscribe lands before the next cut.
        std::thread::sleep(Duration::from_millis(30));
    }

    let total = repairs_now(&sink);
    let gave_up = sink.metrics().snapshot().counters.get("repair_gave_up").copied().unwrap_or(0);
    println!("lifetime repairs: {total} across {cuts} cuts, {gave_up} give-ups");
    assert!(total > 32, "needed > 32 lifetime repairs, got {total}");
    assert_eq!(gave_up, 0, "repair gave up under paced churn");
    // The peer is still a fully functional member afterwards.
    assert!(peer.is_complete());
    assert_eq!(peer.decoded_content().unwrap(), data);
    peer.leave();
}
