//! The hop ladder: the harness itself drives one hop of the data path, and
//! the control path's layers one by one, in a single thread (plus one
//! loopback socket pair), recording an in-memory span around every call
//! into a layer. Nothing inside the program is instrumented; every number
//! here is the time of a call into a layer's public function.
//!
//! Spans carry a name, start, end, the span that caused them and the packet
//! (or operation) they belong to; they are written out as JSON when the run
//! ends. A layer's self time is its span minus the part its children cover.

use std::collections::{BTreeMap, VecDeque};
use std::io;
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::time::{Duration, Instant};

use curtain_gf::kernels;
use curtain_net::core::coordinator::{ControlCore, CoreOutcome};
use curtain_net::core::ctrl::{CtrlRequest, CtrlResponse};
use curtain_net::core::peer::ObjectState;
use curtain_net::core::wire;
use curtain_net::transport::tcp;
use curtain_net::{framing, Wal, WalRecord};
use curtain_overlay::{CurtainServer, NodeId, OverlayConfig};
use curtain_rlnc::{BufPool, Content, Encoder, Recoder};
use curtain_telemetry::json::JsonValue;
use curtain_telemetry::{Event, MemorySink, SharedRecorder};
use rand::rngs::StdRng;
use rand::{RngExt as _, SeedableRng};

use crate::ctrl::member_addr;
use crate::report::Doc;
use crate::stats::quantile;
use crate::Scale;

const CONTROL_ROWS: usize = 512;
const WAL_SYNC_EVERY: usize = 8;
const WAL_COMPACTIONS: usize = 8;

/// How many calls each rung makes.
#[derive(Debug, Clone, Copy)]
struct Reps {
    /// Packets pushed through the hop: enough generations to decode about
    /// this many packets, then as many again at full rank.
    hop_packets: usize,
    axpy_bytes: usize,
    loopback_frames: usize,
    control_ops: usize,
    wal_records: usize,
    telemetry_events: usize,
}

impl Reps {
    fn at(scale: Scale) -> Self {
        match scale {
            Scale::Full => Reps {
                hop_packets: 2048,
                axpy_bytes: 256 << 20,
                loopback_frames: 100_000,
                control_ops: 2_000,
                wal_records: 2_000,
                telemetry_events: 200_000,
            },
            Scale::Smoke => Reps {
                hop_packets: 128,
                axpy_bytes: 1 << 20,
                loopback_frames: 1_000,
                control_ops: 50,
                wal_records: 64,
                telemetry_events: 1_000,
            },
        }
    }
}

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// The packet or operation this span belongs to.
    pub id: u64,
}

/// In-memory span recorder for one thread.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer { origin: Instant::now(), spans: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn open(&mut self, name: &'static str, parent: Option<usize>, id: u64) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, id });
        self.spans.len() - 1
    }

    pub fn close(&mut self, span: usize) {
        self.spans[span].end_ns = self.now_ns();
    }

    /// Times `f` as a child of `parent`; returns its value and the span.
    pub fn timed<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        id: u64,
        f: impl FnOnce() -> T,
    ) -> (T, usize) {
        let span = self.open(name, parent, id);
        let out = f();
        self.close(span);
        (out, span)
    }

    /// Durations (ns) of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect()
    }

    /// Mean duration in ns of the spans called `name`, ignoring the slowest
    /// 1 % (a preempted call is the scheduler's time, not the layer's).
    pub fn mean_ns(&self, name: &str) -> f64 {
        let d = self.durations(name);
        let cap = quantile(&d, 0.99);
        let kept: Vec<f64> = d.into_iter().filter(|x| *x <= cap).collect();
        crate::stats::mean(&kept)
    }

    /// Mean self time (span minus children) per span name, in ns.
    pub fn self_time_ns(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut sums: BTreeMap<&'static str, (f64, f64)> = BTreeMap::new();
        for (s, covered) in self.spans.iter().zip(child_ns) {
            let e = sums.entry(s.name).or_default();
            e.0 += (s.end_ns - s.start_ns).saturating_sub(covered) as f64;
            e.1 += 1.0;
        }
        sums.into_iter().map(|(name, (sum, n))| (name, sum / n)).collect()
    }

    /// The span file: one array per field, so two million spans stay small.
    pub fn write_json(&self, path: &Path) -> io::Result<()> {
        let ints = |f: &dyn Fn(&Span) -> i64| {
            JsonValue::Array(self.spans.iter().map(|s| JsonValue::Int(f(s))).collect())
        };
        let doc = Doc::new()
            .text("clock", "ns since the tracer was created (monotonic)")
            .put(
                "name",
                JsonValue::Array(
                    self.spans.iter().map(|s| JsonValue::Str(s.name.to_string())).collect(),
                ),
            )
            .put("start_ns", ints(&|s| s.start_ns as i64))
            .put("end_ns", ints(&|s| s.end_ns as i64))
            .put("parent", ints(&|s| s.parent.map_or(-1, |p| p as i64)))
            .put("id", ints(&|s| s.id as i64))
            .build();
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, doc.render())
    }
}

/// The packet shape and overlay geometry the ladder is driven at.
#[derive(Debug, Clone, Copy)]
pub struct LadderShape {
    pub generation_size: usize,
    pub packet_len: usize,
    pub overlay: (usize, usize),
}

/// Per-call costs read off the spans, plus the ratios measured beside them.
#[derive(Debug, Clone, Default)]
pub struct Ladder {
    pub axpy_mib_s: f64,
    pub encode_ns: f64,
    pub push_innovative_ns: f64,
    pub push_redundant_ns: f64,
    pub recode_ns: f64,
    pub pool_hit_ratio: f64,
    pub wire_encode_ns: f64,
    pub wire_decode_ns: f64,
    pub payload_share: f64,
    pub framing_write_ns: f64,
    pub framing_read_ns: f64,
    pub loopback_mib_s: f64,
    pub state_push_ns: f64,
    pub snapshot_next_ns: f64,
    pub overlay_hello_ns: f64,
    pub overlay_goodbye_ns: f64,
    pub dispatch_hello_ns: f64,
    pub dispatch_goodbye_ns: f64,
    pub json_roundtrip_ns: f64,
    pub wal_append_ns: f64,
    pub wal_sync_us: f64,
    pub wal_compact_ms: f64,
    pub null_record_ns: f64,
    pub memsink_record_ns: f64,
}

fn socket_pair() -> io::Result<(TcpStream, TcpStream)> {
    let (listener, addr) = tcp::bind_data_listener()?;
    let tx = tcp::dial(addr, Duration::from_secs(2))?;
    loop {
        if let Some(rx) = tcp::poll_accept(&listener)? {
            rx.set_nonblocking(false)?;
            return Ok((tx, rx));
        }
    }
}

fn gf_axpy(t: &mut Tracer, reps: Reps, len: usize, rng: &mut StdRng) -> f64 {
    let mut dst = vec![0u8; len];
    let mut src = vec![0u8; len];
    rng.fill(&mut src[..]);
    let backend = kernels::active();
    let calls = reps.axpy_bytes / len;
    let ((), span) = t.timed("gf.axpy", None, calls as u64, || {
        for i in 0..calls {
            kernels::axpy_on(backend, &mut dst, (i % 255 + 1) as u8, std::hint::black_box(&src));
        }
        std::hint::black_box(&dst);
    });
    let secs = (t.spans[span].end_ns - t.spans[span].start_ns) as f64 / 1e9;
    (calls * len) as f64 / (1 << 20) as f64 / secs
}

/// One hop: a source encodes, frames and writes; a relay reads, decodes,
/// absorbs the packet and recodes the next one for its own child.
fn data_hop(
    t: &mut Tracer,
    reps: Reps,
    shape: &LadderShape,
    rng: &mut StdRng,
    out: &mut Ladder,
) -> io::Result<()> {
    let (g, s) = (shape.generation_size, shape.packet_len);
    let generations = reps.hop_packets.div_ceil(g);
    let mut data = vec![0u8; generations * g * s];
    rng.fill(&mut data[..]);
    let content = Content::split(&data, g, s);
    let encoders: Vec<Encoder> =
        content.generations().iter().cloned().map(Encoder::from_generation).collect();
    let pool = BufPool::default();
    // The rlnc layer alone, and the same packets through the net.peer layer
    // that wraps it: the difference is net.peer's own cost.
    let mut recoders: Vec<Recoder> =
        (0..generations).map(|i| Recoder::with_pool(i as u32, g, s, pool.clone())).collect();
    let mut state = ObjectState::with_pool(generations, g, s, pool.clone());
    let (mut tx, mut rx) = socket_pair()?;
    let (mut frame, mut wscratch, mut rscratch) = (Vec::new(), Vec::new(), Vec::new());

    for p in 0..(2 * generations * g) as u64 {
        let gen = p as usize % generations;
        let hop = t.open("hop", None, p);
        let (packet, _) = t.timed("rlnc.encode", Some(hop), p, || encoders[gen].encode(rng));
        t.timed("wire.encode", Some(hop), p, || {
            frame.clear();
            wire::encode_frame_tagged_into(&mut frame, &packet, None, None);
        });
        let (written, _) = t.timed("framing.write", Some(hop), p, || {
            framing::write_frame_tagged_into(&mut tx, &packet, None, None, &mut wscratch)
        });
        written?;
        let (read, _) = t.timed("framing.read", Some(hop), p, || {
            framing::read_frame_tagged_pooled(&mut rx, &pool, &mut rscratch)
        });
        let (received, _, _) = read?.ok_or_else(|| io::Error::other("loopback closed"))?;
        let (decoded, _) =
            t.timed("wire.decode", Some(hop), p, || wire::decode_frame_prefix(&frame, &pool));
        let ((decoded, _, _), _) = decoded.map_err(io::Error::other)?;

        let (innovative, span) = t.timed("rlnc.push_redundant", Some(hop), p, || {
            recoders[gen].push(decoded).unwrap_or(false)
        });
        if innovative {
            t.spans[span].name = "rlnc.push_innovative";
        }
        t.timed("peer.state_push", Some(hop), p, || state.push(received));
        t.timed("peer.snapshot_next", Some(hop), p, || state.snapshot_next());
        let full = recoders[gen].is_complete();
        let (_, span) = t.timed("rlnc.recode_partial", Some(hop), p, || {
            let snapshot = recoders[gen].snapshot();
            snapshot.recode(rng)
        });
        if full {
            t.spans[span].name = "rlnc.recode";
        }
        t.close(hop);
    }
    if !state.is_complete() {
        return Err(io::Error::other("ladder relay did not reach full rank"));
    }

    out.encode_ns = t.mean_ns("rlnc.encode");
    out.push_innovative_ns = t.mean_ns("rlnc.push_innovative");
    out.push_redundant_ns = t.mean_ns("rlnc.push_redundant");
    out.recode_ns = t.mean_ns("rlnc.recode");
    out.wire_encode_ns = t.mean_ns("wire.encode");
    out.wire_decode_ns = t.mean_ns("wire.decode");
    out.framing_write_ns = t.mean_ns("framing.write");
    out.framing_read_ns = t.mean_ns("framing.read");
    out.state_push_ns = t.mean_ns("peer.state_push");
    out.snapshot_next_ns = t.mean_ns("peer.snapshot_next");
    out.payload_share = s as f64 / frame.len() as f64;
    let stats = pool.stats();
    out.pool_hit_ratio = stats.hits as f64 / (stats.hits + stats.misses).max(1) as f64;

    // The ceiling of one link: one writer, one reader, frames of this size.
    let packet = encoders[0].encode(rng);
    let frames = reps.loopback_frames;
    let ((), span) = t.timed("framing.loopback", None, frames as u64, || {
        std::thread::scope(|scope| {
            scope.spawn(|| {
                for _ in 0..frames {
                    if framing::write_frame_tagged_into(&mut tx, &packet, None, None, &mut wscratch)
                        .is_err()
                    {
                        break;
                    }
                }
            });
            for _ in 0..frames {
                if !matches!(
                    framing::read_frame_tagged_pooled(&mut rx, &pool, &mut rscratch),
                    Ok(Some(_))
                ) {
                    // Unblock the writer rather than leave it on a full socket.
                    let _ = rx.shutdown(std::net::Shutdown::Both);
                    break;
                }
            }
        });
    });
    let secs = (t.spans[span].end_ns - t.spans[span].start_ns) as f64 / 1e9;
    out.loopback_mib_s = (frames * frame.len()) as f64 / (1 << 20) as f64 / secs;
    Ok(())
}

/// The control path, layer by layer, at `CONTROL_ROWS` rows: the overlay
/// matrix alone, then the control core around it, then the JSON codec.
fn control_path(
    t: &mut Tracer,
    reps: Reps,
    shape: &LadderShape,
    seed: u64,
    rng: &mut StdRng,
    out: &mut Ladder,
) -> Result<WalRecord, String> {
    let config = OverlayConfig::new(shape.overlay.0, shape.overlay.1);
    let mut server = CurtainServer::new(config).map_err(|e| e.to_string())?;
    let mut members: VecDeque<NodeId> = (0..CONTROL_ROWS).map(|_| server.hello(rng).node).collect();
    for op in 0..reps.control_ops as u64 {
        let (grant, _) = t.timed("overlay.hello", None, op, || server.hello(rng));
        members.push_back(grant.node);
        let oldest = members.pop_front().expect("the matrix is never empty");
        let (left, _) = t.timed("overlay.goodbye", None, op, || server.goodbye(oldest));
        left.map_err(|e| e.to_string())?;
    }
    out.overlay_hello_ns = t.mean_ns("overlay.hello");
    out.overlay_goodbye_ns = t.mean_ns("overlay.goodbye");

    let mut core: ControlCore<SocketAddr> = ControlCore::new(config, seed, SharedRecorder::null())?;
    let register = CtrlRequest::RegisterSource {
        data_addr: member_addr(0, 0),
        generations: 8,
        generation_size: shape.generation_size,
        packet_len: shape.packet_len,
        content_len: 8 * shape.generation_size * shape.packet_len,
    };
    core.dispatch(register);
    let hello = |core: &mut ControlCore<SocketAddr>, serial: u64| match core
        .dispatch(CtrlRequest::Hello { data_addr: member_addr(0, serial) })
    {
        CoreOutcome::Done { response: r @ CtrlResponse::Welcome { .. }, .. } => Ok(r),
        other => Err(format!("hello refused: {other:?}")),
    };
    let node_of = |r: &CtrlResponse<SocketAddr>| match r {
        CtrlResponse::Welcome { node, .. } => *node,
        _ => unreachable!("hello() returns only Welcome"),
    };
    let mut members = VecDeque::new();
    for serial in 1..=CONTROL_ROWS as u64 {
        members.push_back(node_of(&hello(&mut core, serial)?));
    }
    for op in 0..reps.control_ops as u64 {
        let serial = CONTROL_ROWS as u64 + 1 + op;
        let (welcome, _) = t.timed("ctrl.dispatch_hello", None, op, || hello(&mut core, serial));
        let welcome = welcome?;
        members.push_back(node_of(&welcome));
        let oldest = members.pop_front().expect("the matrix is never empty");
        t.timed("ctrl.dispatch_goodbye", None, op, || {
            core.dispatch(CtrlRequest::Goodbye { node: oldest })
        });
        // What one call costs in codec work: the request and its response,
        // each rendered and parsed once.
        let request = CtrlRequest::Hello { data_addr: member_addr(0, serial) };
        let (parsed, _) = t.timed("ctrl.json_roundtrip", None, op, || {
            let req = CtrlRequest::<SocketAddr>::parse_json_line(&request.to_json_line());
            let resp = CtrlResponse::<SocketAddr>::parse_json_line(&welcome.to_json_line());
            req.and(resp.map(|_| ()))
        });
        parsed?;
    }
    out.dispatch_hello_ns = t.mean_ns("ctrl.dispatch_hello");
    out.dispatch_goodbye_ns = t.mean_ns("ctrl.dispatch_goodbye");
    out.json_roundtrip_ns = t.mean_ns("ctrl.json_roundtrip");

    // The checkpoint of this 512-row core is what the WAL rung compacts to.
    let mut addrs: Vec<(u64, SocketAddr)> = core.addrs().iter().map(|(n, a)| (n.0, *a)).collect();
    addrs.sort_unstable_by_key(|(n, _)| *n);
    Ok(WalRecord::Checkpoint {
        server: core.server().to_json().map_err(|e| e.to_string())?,
        addrs,
        source: None,
        completed: Vec::new(),
        epoch: core.server().next_node_id(),
    })
}

fn wal_rung(
    t: &mut Tracer,
    reps: Reps,
    dir: &Path,
    checkpoint: &WalRecord,
    out: &mut Ladder,
) -> io::Result<()> {
    let mut wal = Wal::create(dir.join("ladder.wal"), Wal::DEFAULT_COMPACT_THRESHOLD)?;
    for i in 0..reps.wal_records as u64 {
        let record = WalRecord::Hello {
            node: i,
            position: i % CONTROL_ROWS as u64,
            threads: vec![1, 7, 19],
            data_addr: member_addr(0, i),
        };
        let (appended, _) = t.timed("wal.append", None, i, || wal.append(&record));
        appended?;
        if i as usize % WAL_SYNC_EVERY == WAL_SYNC_EVERY - 1 {
            let (synced, _) = t.timed("wal.sync", None, i, || wal.sync());
            synced?;
        }
    }
    for i in 0..WAL_COMPACTIONS as u64 {
        let (compacted, _) = t.timed("wal.compact", None, i, || wal.compact(checkpoint));
        compacted?;
    }
    out.wal_append_ns = t.mean_ns("wal.append");
    out.wal_sync_us = t.mean_ns("wal.sync") / 1e3;
    out.wal_compact_ms = t.mean_ns("wal.compact") / 1e6;
    Ok(())
}

/// The observer's own cost: one event into the null recorder and into a
/// bounded in-memory sink.
fn telemetry_rung(t: &mut Tracer, reps: Reps, out: &mut Ladder) {
    let event = Event::PacketRedundant { node: 7, generation: 3 };
    let events = reps.telemetry_events;
    let mut per_event = |name: &'static str, recorder: SharedRecorder| {
        let ((), span) = t.timed(name, None, events as u64, || {
            for _ in 0..events {
                recorder.record(std::hint::black_box(&event));
            }
        });
        (t.spans[span].end_ns - t.spans[span].start_ns) as f64 / events as f64
    };
    out.null_record_ns = per_event("telemetry.null_record", SharedRecorder::null());
    out.memsink_record_ns =
        per_event("telemetry.memsink_record", SharedRecorder::new(MemorySink::bounded(1024)));
}

/// Climbs every rung at `shape`; `scratch` holds the WAL rung's file.
pub fn climb(
    shape: &LadderShape,
    scale: Scale,
    seed: u64,
    scratch: &Path,
) -> Result<(Ladder, Tracer), String> {
    let reps = Reps::at(scale);
    let mut t = Tracer::new();
    let mut out = Ladder::default();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x001A_DDE2);
    out.axpy_mib_s = gf_axpy(&mut t, reps, shape.packet_len, &mut rng);
    data_hop(&mut t, reps, shape, &mut rng, &mut out).map_err(|e| format!("data hop: {e}"))?;
    let checkpoint = control_path(&mut t, reps, shape, seed, &mut rng, &mut out)?;
    wal_rung(&mut t, reps, scratch, &checkpoint, &mut out).map_err(|e| format!("wal rung: {e}"))?;
    telemetry_rung(&mut t, reps, &mut out);
    Ok((out, t))
}
