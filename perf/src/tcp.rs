//! The two real-socket workloads, `tcp_bulk` and `tcp_tiny`: one coordinator,
//! one source and four recoding peers in this process, over the host's
//! loopback interface, at `pace = 0` so TCP back-pressure is the only flow
//! control and the rate reported is the rate delivered.
//!
//! An *operation* is one peer receiving and decoding the whole object. A
//! *session* is a fresh coordinator + source + four peers, timed from the
//! first join to the last completion. `ops_per_s` and `cpu_ms_per_op` are
//! medians over the sessions of each session's own rate and cost, so a
//! burst of interference from the host spoils one session, not the run.
//! `lat_p50_ms` is the median per-peer time from `Peer::join_with` returning
//! to `is_complete()`; `lat_tail_ms` is the median session time, which the
//! slowest of the four peers sets. Every time is scaled by the host's speed
//! around its session ([`sys::Reference`]); the detail document keeps the raw
//! session times and the speeds.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use curtain_net::{Coordinator, Peer, PeerConfig, PendingSource, RepairPolicy, Source};
use curtain_overlay::OverlayConfig;
use curtain_telemetry::SharedRecorder;
use rand::rngs::StdRng;
use rand::{RngExt as _, SeedableRng};

use crate::report::{numbers, Doc, EndToEnd, Tally};
use crate::stats::{median, quantile};
use crate::sys;
use crate::Scale;

/// A peer that has not decoded by then counts as failed.
const PEER_DEADLINE: Duration = Duration::from_secs(60);
const PEERS: usize = 4;

#[derive(Debug, Clone, Copy)]
pub struct TcpParams {
    /// Packets per generation (`g`).
    pub generation_size: usize,
    /// Bytes per packet (`s`).
    pub packet_len: usize,
    pub object_len: usize,
    pub scale: Scale,
}

impl TcpParams {
    /// GF(256) math dominates: ~70 KB of axpy per recoded packet against a
    /// ~1 KB socket write.
    pub fn bulk(scale: Scale) -> Self {
        let object_len = match scale {
            Scale::Full => 8 << 20,
            Scale::Smoke => 256 << 10,
        };
        TcpParams { generation_size: 64, packet_len: 1024, object_len, scale }
    }

    /// The smallest packet: coding math is well under a microsecond, so
    /// frame codec, syscalls, the `ObjectState` lock and allocation dominate.
    pub fn tiny(scale: Scale) -> Self {
        let object_len = match scale {
            Scale::Full => 1 << 20,
            Scale::Smoke => 32 << 10,
        };
        TcpParams { generation_size: 16, packet_len: 64, object_len, scale }
    }

    /// A smoke-sized object (8 generations) at another workload's packet
    /// shape, for that workload's traced run.
    pub fn at_shape(generation_size: usize, packet_len: usize) -> Self {
        TcpParams {
            generation_size,
            packet_len,
            object_len: 8 * generation_size * packet_len,
            scale: Scale::Smoke,
        }
    }

    pub fn object_mib(&self) -> f64 {
        self.object_len as f64 / (1 << 20) as f64
    }
}

/// What one timed session measured.
#[derive(Debug, Clone)]
struct Session {
    setup_s: f64,
    wall_s: f64,
    cpu_s: f64,
    /// The host's speed around this session; times are multiplied by it.
    host_speed: f64,
    /// Join-to-complete per peer that completed, in seconds.
    ttc_s: Vec<f64>,
}

/// Everything the timed sessions of one run measured.
#[derive(Debug, Default)]
pub struct TcpRun {
    sessions: Vec<Session>,
    pub tally: Tally,
}

impl TcpRun {
    pub fn deliveries(&self) -> u64 {
        self.sessions.iter().map(|s| s.ttc_s.len() as u64).sum()
    }

    /// Wall-clock seconds spent inside timed sessions, as the clock read them.
    fn raw_wall_s(&self) -> f64 {
        self.sessions.iter().map(|s| s.wall_s).sum()
    }

    /// CPU seconds of the timed sessions, as the kernel counted them.
    pub fn raw_cpu_s(&self) -> f64 {
        self.sessions.iter().map(|s| s.cpu_s).sum()
    }

    /// Join-to-complete of every peer of every session, in ms.
    fn ttc_ms(&self) -> Vec<f64> {
        self.sessions.iter().flat_map(|s| s.ttc_s.iter().map(|t| t * s.host_speed * 1e3)).collect()
    }

    /// First join to last completion of every session, in ms.
    fn session_ms(&self) -> Vec<f64> {
        self.sessions.iter().map(|s| s.wall_s * s.host_speed * 1e3).collect()
    }

    /// Median over the sessions of deliveries per second.
    pub fn ops_per_s(&self) -> f64 {
        let rate = |s: &Session| s.ttc_s.len() as f64 / (s.wall_s * s.host_speed);
        median(&self.sessions.iter().map(rate).collect::<Vec<_>>())
    }

    /// Median over the sessions of CPU milliseconds per delivery.
    fn cpu_ms_per_op(&self) -> f64 {
        let per_op = |s: &Session| s.cpu_s * s.host_speed * 1e3 / s.ttc_s.len().max(1) as f64;
        median(&self.sessions.iter().map(per_op).collect::<Vec<_>>())
    }

    pub fn end_to_end(&self) -> EndToEnd {
        let setups: Vec<f64> = self.sessions.iter().map(|s| s.setup_s * s.host_speed).collect();
        EndToEnd {
            setup_s: median(&setups),
            ops_per_s: self.ops_per_s(),
            lat_p50_ms: median(&self.ttc_ms()),
            lat_tail_ms: median(&self.session_ms()),
            cpu_ms_per_op: self.cpu_ms_per_op(),
            peak_rss_mib: sys::peak_rss_mib(),
        }
    }

    /// The same numbers under the names a network engineer would use.
    pub fn detail(&self, params: &TcpParams) -> Doc {
        let ttc_ms = self.ttc_ms();
        let gib = params.object_mib() / 1024.0;
        Doc::new()
            .int("sessions", self.sessions.len() as u64)
            .int("ttc_samples", ttc_ms.len() as u64)
            .num("goodput_mib_s", self.ops_per_s() * params.object_mib())
            .num("cpu_s_per_gib", self.cpu_ms_per_op() / 1e3 / gib)
            .num("session_p50_ms", median(&self.session_ms()))
            .num("ttc_p50_ms", median(&ttc_ms))
            .num("ttc_p90_ms", quantile(&ttc_ms, 0.9))
            .put(
                "raw_session_ms",
                numbers(&self.sessions.iter().map(|s| s.wall_s * 1e3).collect::<Vec<_>>()),
            )
            .put(
                "host_speed",
                numbers(&self.sessions.iter().map(|s| s.host_speed).collect::<Vec<_>>()),
            )
            .int("generation_size", params.generation_size as u64)
            .int("packet_len", params.packet_len as u64)
            .int("object_bytes", params.object_len as u64)
            .int("peers", PEERS as u64)
            .text("network", "loopback")
    }
}

/// Seeded-random object bytes for session `index` of a run.
fn content(seed: u64, index: u64, len: usize) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let mut bytes = vec![0u8; len];
    rng.fill(&mut bytes[..]);
    bytes
}

fn start_source(
    coordinator: SocketAddr,
    data: &[u8],
    params: &TcpParams,
    recorder: &SharedRecorder,
) -> std::io::Result<Source> {
    PendingSource::bind_with_shape(data, params.generation_size, params.packet_len, Duration::ZERO)?
        .observed(recorder.clone(), false)
        .register(coordinator)
}

/// One fresh session. Returns `None` (after recording the failure) when the
/// session could not even start.
fn session(
    params: &TcpParams,
    seed: u64,
    index: u64,
    recorder: &SharedRecorder,
    tally: &mut Tally,
) -> Option<Session> {
    let t_setup = Instant::now();
    let data = content(seed, index, params.object_len);
    let started =
        Coordinator::start_traced(OverlayConfig::new(4, 2), seed ^ index, recorder.clone())
            .and_then(|c| start_source(c.addr(), &data, params, recorder).map(|s| (c, s)));
    let (coordinator, source) = match started {
        Ok(pair) => pair,
        Err(e) => {
            tally.fail(format!("session {index}: set-up failed: {e}"));
            return None;
        }
    };
    let setup_s = t_setup.elapsed().as_secs_f64();

    let config = PeerConfig {
        pace: Duration::ZERO,
        recorder: recorder.clone(),
        repair: RepairPolicy::default(),
        trace: false,
    };
    let cpu0 = sys::cpu_seconds();
    let t0 = Instant::now();
    let mut peers = Vec::with_capacity(PEERS);
    for i in 0..PEERS {
        match Peer::join_with(coordinator.addr(), config.clone()) {
            Ok(p) => peers.push((p, Instant::now(), None::<Instant>)),
            Err(e) => tally.fail(format!("session {index}: peer {i} failed to join: {e}")),
        }
    }
    // The 1 ms completion poller: the only thing the harness does while the
    // program's own threads move the object.
    let deadline = t0 + PEER_DEADLINE;
    loop {
        let now = Instant::now();
        let mut pending = false;
        for (peer, _, done) in &mut peers {
            if done.is_none() {
                if peer.is_complete() {
                    *done = Some(now);
                } else {
                    pending = true;
                }
            }
        }
        if !pending || now >= deadline {
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    let t_end = peers.iter().filter_map(|(_, _, d)| *d).max().unwrap_or_else(Instant::now);
    let cpu_s = sys::cpu_seconds() - cpu0;

    // Read before tear-down: crashing the peers makes their children
    // complain, which is repair traffic the fault-free run must not show.
    let repairs = coordinator.repairs();
    tally.check(repairs == 0, || format!("session {index}: {repairs} repairs on a fault-free run"));

    let mut ttc_s = Vec::new();
    for (i, (peer, joined, done)) in peers.iter().enumerate() {
        match done {
            None => tally.fail(format!(
                "session {index}: peer {i} missed the {}s deadline at rank {}",
                PEER_DEADLINE.as_secs(),
                peer.rank()
            )),
            Some(done) => {
                if peer.decoded_content().as_deref() == Some(&data[..]) {
                    tally.ok(1);
                    ttc_s.push(done.duration_since(*joined).as_secs_f64());
                } else {
                    tally.fail(format!("session {index}: peer {i} decoded different bytes"));
                }
            }
        }
    }

    // Stop everything at once, so no peer spends long repairing around
    // parents that are being stopped one after another.
    std::thread::scope(|scope| {
        for (peer, _, _) in peers {
            scope.spawn(move || peer.crash());
        }
        scope.spawn(move || source.shutdown());
    });
    coordinator.shutdown();

    // The caller fills in the host's speed once it has measured it again.
    let wall_s = t_end.duration_since(t0).as_secs_f64();
    Some(Session { setup_s, wall_s, cpu_s, host_speed: 1.0, ttc_s })
}

/// Runs one discarded warm-up session, then fresh sessions back to back
/// until `budget` has been spent in timed sessions (at least `min_sessions`).
pub fn run(
    params: &TcpParams,
    seed: u64,
    budget: Duration,
    min_sessions: usize,
    recorder: &SharedRecorder,
) -> TcpRun {
    let mut run = TcpRun::default();
    // The warm-up's timings are discarded, its correctness is not: a peer
    // that fails there is still a failure of the program under test.
    let _ = session(params, seed, 0, recorder, &mut run.tally);

    let mut reference = sys::Reference::new(params.scale);
    let mut before = reference.host_speed();
    let mut index = 1;
    while run.sessions.len() < min_sessions || run.raw_wall_s() < budget.as_secs_f64() {
        if let Some(mut s) = session(params, seed, index, recorder, &mut run.tally) {
            let after = reference.host_speed();
            s.host_speed = (before + after) / 2.0;
            before = after;
            run.sessions.push(s);
        } else if index as usize > min_sessions + 8 {
            break; // set-up keeps failing; the tally already says so
        }
        index += 1;
    }
    run
}
