//! The `ctrl_churn` workload: the control plane alone, closed loop. A
//! durable coordinator (`k = 32`, `d = 3`, group commit on, default
//! compaction threshold, WAL in the run's scratch directory) holds 512
//! members; two client threads then issue `proto::call`s back to back, each
//! waiting for its reply before sending the next, in seeded-shuffled blocks
//! of 4 `Hello`, 4 `Goodbye` (of the client's own oldest member) and 2
//! `Stats` — so membership stays at 512 and the cost per call is stationary.
//!
//! Writes sit beside reads on the same layer: `Hello`/`Goodbye` pay matrix
//! mutation, WAL append, the commit-coalescing window and fsync; `Stats`
//! pays none of that. An *operation* is one call. `lat_p50_ms` and
//! `lat_tail_ms` are the median and 95th percentile of the write round trip.

use std::collections::VecDeque;
use std::net::SocketAddr;
use std::path::Path;
use std::time::{Duration, Instant};

use curtain_net::proto::{self, Request, Response};
use curtain_net::{Coordinator, WalOptions};
use curtain_overlay::{NodeId, OverlayConfig};
use curtain_telemetry::SharedRecorder;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::report::{Doc, EndToEnd, Tally};
use crate::stats::{digest_lines, median, quantile};
use crate::sys;
use crate::Scale;

const CLIENTS: usize = 2;
const CALL_TIMEOUT: Duration = Duration::from_secs(5);
/// One block of the op mix: 40 % `Hello`, 40 % `Goodbye`, 20 % `Stats`.
const BLOCK: [Op; 10] = [
    Op::Hello,
    Op::Hello,
    Op::Hello,
    Op::Hello,
    Op::Goodbye,
    Op::Goodbye,
    Op::Goodbye,
    Op::Goodbye,
    Op::Stats,
    Op::Stats,
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Hello,
    Goodbye,
    Stats,
}

#[derive(Debug, Clone, Copy)]
pub struct CtrlParams {
    pub overlay: (usize, usize),
    pub members: usize,
    /// How many times set-up is performed (the median is reported and the
    /// last coordinator is the one measured).
    pub setups: usize,
}

impl CtrlParams {
    pub fn churn(scale: Scale) -> Self {
        match scale {
            Scale::Full => CtrlParams { overlay: (32, 3), members: 512, setups: 3 },
            Scale::Smoke => CtrlParams { overlay: (32, 3), members: 32, setups: 1 },
        }
    }

    fn config(&self) -> OverlayConfig {
        OverlayConfig::new(self.overlay.0, self.overlay.1)
    }
}

/// The seeded op stream of one client: shuffled blocks, without end.
struct OpStream {
    rng: StdRng,
    block: [Op; 10],
    next: usize,
}

impl OpStream {
    fn new(seed: u64, client: usize) -> Self {
        OpStream {
            rng: StdRng::seed_from_u64(seed ^ (client as u64 + 1).wrapping_mul(0x00C1_1E47)),
            block: BLOCK,
            next: BLOCK.len(),
        }
    }

    fn at_block_boundary(&self) -> bool {
        self.next == BLOCK.len()
    }
}

impl Iterator for OpStream {
    type Item = Op;
    fn next(&mut self) -> Option<Op> {
        if self.at_block_boundary() {
            self.block.shuffle(&mut self.rng);
            self.next = 0;
        }
        self.next += 1;
        Some(self.block[self.next - 1])
    }
}

/// Fingerprint of the first 1000 planned ops of every client — the proof
/// that the seed reaches the generator.
pub fn op_digest(seed: u64) -> u64 {
    let lines: Vec<String> = (0..CLIENTS)
        .map(|c| OpStream::new(seed, c).take(1000).map(|op| format!("{op:?}")).collect::<String>())
        .collect();
    digest_lines(&lines)
}

/// A member's fake data-plane address: never dialled by this workload.
pub fn member_addr(client: usize, serial: u64) -> SocketAddr {
    let port = 10_000 + (serial % 50_000) as u16;
    SocketAddr::from(([127, 0, 0, 1 + client as u8], port))
}

#[derive(Debug, Default)]
struct ClientLog {
    write_us: Vec<f64>,
    read_us: Vec<f64>,
    hellos: u64,
    goodbyes: u64,
    tally: Tally,
}

/// One closed-loop client: owns the members it joined, oldest first.
struct Client {
    index: usize,
    coordinator: SocketAddr,
    degree: usize,
    members: VecDeque<NodeId>,
    serial: u64,
    log: ClientLog,
}

impl Client {
    fn call(&mut self, op: Op) {
        let request = match op {
            Op::Hello => {
                self.serial += 1;
                Request::Hello { data_addr: member_addr(self.index, self.serial) }
            }
            Op::Goodbye => match self.members.pop_front() {
                Some(node) => Request::Goodbye { node },
                None => return self.log.tally.fail("goodbye with no member left to leave"),
            },
            Op::Stats => Request::Stats,
        };
        let t = Instant::now();
        let response = proto::call(self.coordinator, &request, CALL_TIMEOUT);
        let us = t.elapsed().as_secs_f64() * 1e6;
        match (op, response) {
            (Op::Hello, Ok(Response::Welcome { node, parents, .. }))
                if parents.len() == self.degree =>
            {
                self.members.push_back(node);
                self.log.hellos += 1;
                self.log.write_us.push(us);
                self.log.tally.ok(1);
            }
            (Op::Goodbye, Ok(Response::Ok)) => {
                self.log.goodbyes += 1;
                self.log.write_us.push(us);
                self.log.tally.ok(1);
            }
            (Op::Stats, Ok(Response::Stats { .. })) => {
                self.log.read_us.push(us);
                self.log.tally.ok(1);
            }
            (op, other) => self.log.tally.fail(format!("{op:?} got {other:?}")),
        }
    }
}

/// A started coordinator with its members joined, ready to be measured.
struct Stage {
    coordinator: Coordinator,
    clients: Vec<Client>,
}

fn set_up(
    params: &CtrlParams,
    seed: u64,
    wal: Option<&Path>,
    recorder: &SharedRecorder,
) -> Result<Stage, String> {
    let coordinator = match wal {
        Some(path) => Coordinator::start_durable(
            params.config(),
            seed,
            recorder.clone(),
            &WalOptions::new(path),
        ),
        None => Coordinator::start_traced(params.config(), seed, recorder.clone()),
    }
    .map_err(|e| format!("coordinator start: {e}"))?;
    let register = Request::RegisterSource {
        data_addr: SocketAddr::from(([127, 0, 0, 1], 9)),
        generations: 8,
        generation_size: 32,
        packet_len: 1024,
        content_len: 8 * 32 * 1024,
    };
    match proto::call(coordinator.addr(), &register, CALL_TIMEOUT) {
        Ok(Response::Ok) => {}
        other => return Err(format!("register source: {other:?}")),
    }
    let mut clients: Vec<Client> = (0..CLIENTS)
        .map(|index| Client {
            index,
            coordinator: coordinator.addr(),
            degree: params.overlay.1,
            members: VecDeque::new(),
            serial: 0,
            log: ClientLog::default(),
        })
        .collect();
    std::thread::scope(|scope| {
        for client in &mut clients {
            scope.spawn(|| {
                for _ in 0..params.members / CLIENTS {
                    client.call(Op::Hello);
                }
            });
        }
    });
    for client in &mut clients {
        if client.log.tally.failed > 0 {
            return Err(format!("pre-join: {:?}", client.log.tally.reasons));
        }
        client.log = ClientLog::default();
    }
    Ok(Stage { coordinator, clients })
}

/// What the timed part of one run measured.
#[derive(Debug, Default)]
pub struct CtrlRun {
    pub setup_s: Vec<f64>,
    pub wall_s: f64,
    pub cpu_s: f64,
    pub write_us: Vec<f64>,
    pub read_us: Vec<f64>,
    pub tally: Tally,
    pub wal_fs: String,
}

impl CtrlRun {
    pub fn calls(&self) -> u64 {
        (self.write_us.len() + self.read_us.len()) as u64
    }

    pub fn ops_per_s(&self) -> f64 {
        self.calls() as f64 / self.wall_s
    }

    pub fn end_to_end(&self) -> EndToEnd {
        EndToEnd {
            setup_s: median(&self.setup_s),
            ops_per_s: self.ops_per_s(),
            lat_p50_ms: median(&self.write_us) / 1e3,
            lat_tail_ms: quantile(&self.write_us, 0.95) / 1e3,
            cpu_ms_per_op: self.cpu_s * 1e3 / self.calls().max(1) as f64,
            peak_rss_mib: sys::peak_rss_mib(),
        }
    }

    pub fn detail(&self, params: &CtrlParams, seed: u64) -> Doc {
        Doc::new()
            .num("ctrl_ops_per_s", self.ops_per_s())
            .num("ctrl_write_p50_us", median(&self.write_us))
            .num("ctrl_write_p95_us", quantile(&self.write_us, 0.95))
            .num("ctrl_read_p50_us", median(&self.read_us))
            .int("write_samples", self.write_us.len() as u64)
            .int("read_samples", self.read_us.len() as u64)
            .int("clients", CLIENTS as u64)
            .int("members", params.members as u64)
            .text("op_digest", format!("{:016x}", op_digest(seed)))
            .text("wal_fs", self.wal_fs.clone())
            .text("network", "loopback")
    }
}

/// `M` rows must each carry exactly `d` distinct threads.
fn rows_well_formed(rows: &[(u64, Vec<u16>)], d: usize) -> bool {
    rows.iter().all(|(_, threads)| {
        let mut t = threads.clone();
        t.sort_unstable();
        t.dedup();
        threads.len() == d && t.len() == d
    })
}

/// Sets up (several times), then drives the closed loop for `budget`,
/// then checks the coordinator's state and, for a durable run, that the WAL
/// recovers the identical matrix. `wal_dir = None` measures a non-durable
/// coordinator (the connect + JSON floor of the same calls).
pub fn run(
    params: &CtrlParams,
    seed: u64,
    budget: Duration,
    wal_dir: Option<&Path>,
    recorder: &SharedRecorder,
) -> CtrlRun {
    let mut run = CtrlRun {
        wal_fs: wal_dir.map_or_else(|| "none (not durable)".to_string(), sys::fs_type),
        ..CtrlRun::default()
    };
    let wal_path = wal_dir.map(|d| d.join("coordinator.wal"));

    let mut stage = None;
    for _ in 0..params.setups.max(1) {
        if let Some(Stage { coordinator, .. }) = stage.take() {
            coordinator.kill();
        }
        let t = Instant::now();
        match set_up(params, seed, wal_path.as_deref(), recorder) {
            Ok(s) => stage = Some(s),
            Err(e) => {
                run.tally.fail(format!("set-up: {e}"));
                return run;
            }
        }
        run.setup_s.push(t.elapsed().as_secs_f64());
    }
    let Stage { coordinator, mut clients } = stage.expect("at least one set-up ran");

    let cpu0 = sys::cpu_seconds();
    let t0 = Instant::now();
    let deadline = t0 + budget;
    std::thread::scope(|scope| {
        for client in &mut clients {
            scope.spawn(move || {
                let mut ops = OpStream::new(seed, client.index);
                // Stop only between blocks, so every join has had its leave.
                loop {
                    let op = ops.next().expect("the op stream is endless");
                    client.call(op);
                    if ops.at_block_boundary() && Instant::now() >= deadline {
                        break;
                    }
                }
            });
        }
    });
    run.wall_s = t0.elapsed().as_secs_f64();
    run.cpu_s = sys::cpu_seconds() - cpu0;

    let (mut hellos, mut goodbyes) = (0, 0);
    for client in clients {
        hellos += client.log.hellos;
        goodbyes += client.log.goodbyes;
        run.write_us.extend(client.log.write_us);
        run.read_us.extend(client.log.read_us);
        run.tally.merge(client.log.tally);
    }

    let expected = params.members as u64 + hellos - goodbyes;
    let members = coordinator.members() as u64;
    run.tally.check(members == expected, || {
        format!("members() is {members}, joins − leaves is {expected}")
    });
    let rows = coordinator.matrix_rows();
    let d = params.overlay.1;
    run.tally
        .check(rows_well_formed(&rows, d), || format!("a row of M lacks {d} distinct threads"));
    coordinator.kill();
    if let Some(path) = &wal_path {
        match Coordinator::recover(path, params.config()) {
            Ok(recovered) => {
                let same = recovered.matrix_rows() == rows;
                run.tally
                    .check(same, || "WAL recovery did not reproduce matrix_rows()".to_string());
                recovered.kill();
            }
            Err(e) => run.tally.check(false, || format!("WAL recovery failed: {e}")),
        }
    }
    run
}
