//! The traced run (`--trace 1`): the hop ladder at the workload's packet
//! shape, then all three drivers once more with the program's *existing*
//! recorder hooks switched on — the workload's own driver at full size for
//! the run's time budget (half untraced, half traced: the difference is the
//! tracing overhead), the other two at smoke size so that every per-layer
//! metric has a measured value on every workload. End-to-end numbers are
//! never taken from here.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use curtain_telemetry::{Event, MetricsRegistry, Recorder, SharedRecorder};

use crate::ctrl::{self, CtrlParams};
use crate::ladder::{self, Ladder, LadderShape};
use crate::report::{metric, Doc, Metric, Tally};
use crate::stats::{mean, median};
use crate::tcp::{self, TcpParams};
use crate::vnet::{self, VnetParams};
use crate::{Scale, Workload};

/// Counts packet events instead of storing them (a `pace = 0` session emits
/// millions) and keeps the program's histograms in a registry.
#[derive(Debug, Default)]
struct CountingSink {
    innovative: AtomicU64,
    redundant: AtomicU64,
    metrics: MetricsRegistry,
}

impl Recorder for CountingSink {
    fn record(&self, _at: u64, event: &Event) {
        match event {
            Event::PacketInnovative { .. } => self.innovative.fetch_add(1, Ordering::Relaxed),
            Event::PacketRedundant { .. } => self.redundant.fetch_add(1, Ordering::Relaxed),
            _ => 0,
        };
    }

    fn counter(&self, name: &str, delta: u64) {
        self.metrics.counter(name, delta);
    }

    fn gauge(&self, name: &str, value: f64) {
        self.metrics.gauge(name, value);
    }

    fn histogram(&self, name: &str, value: f64) {
        self.metrics.histogram(name, value);
    }
}

fn counting() -> (Arc<CountingSink>, SharedRecorder) {
    let sink = Arc::new(CountingSink::default());
    (Arc::clone(&sink), SharedRecorder::from_arc(sink))
}

/// Relative loss of `traced` against `untraced`, in percent.
fn overhead_pct(untraced: f64, traced: f64) -> f64 {
    (untraced - traced) / untraced * 100.0
}

/// What one driver contributed to the traced run: its layer metrics and,
/// when it ran both untraced and traced, the tracing overhead.
struct Layer {
    metrics: Vec<Metric>,
    overhead_pct: Option<f64>,
}

fn session_layer(
    own: Option<TcpParams>,
    shape: &LadderShape,
    l: &Ladder,
    seed: u64,
    budget: Duration,
    tally: &mut Tally,
) -> Layer {
    let (sink, recorder) = counting();
    let (params, budget, min_sessions) = match own {
        Some(p) => (p, budget / 2, 2),
        None => (TcpParams::at_shape(shape.generation_size, shape.packet_len), Duration::ZERO, 1),
    };
    let untraced = own.map(|p| tcp::run(&p, seed, budget, min_sessions, &SharedRecorder::null()));
    let traced = tcp::run(&params, seed, budget, min_sessions, &recorder);

    let innovative = sink.innovative.load(Ordering::Relaxed) as f64;
    let redundant = sink.redundant.load(Ordering::Relaxed) as f64;
    let received = innovative + redundant;
    let snapshot = sink.metrics.snapshot();
    let hist = |name: &str, q: f64| snapshot.histograms.get(name).map_or(0.0, |h| h.quantile(q));
    let recodes = snapshot.histograms.get("recode_ns").map_or(0.0, |h| h.count as f64);
    // A frame a peer received was produced either by a peer's recode or by
    // the source's encoder; the recorder only counts the former.
    let encodes = (received - recodes).max(0.0);
    let explained_ns = innovative * (l.framing_read_ns + l.push_innovative_ns)
        + redundant * (l.framing_read_ns + l.push_redundant_ns)
        + recodes * (l.snapshot_next_ns + l.recode_ns + l.framing_write_ns)
        + encodes * (l.encode_ns + l.framing_write_ns);
    // Ladder costs and CPU seconds are both raw (unscaled) here. The recorder
    // saw the warm-up session too, whose CPU is not in raw_cpu_s();
    // scale by the share of deliveries that were timed.
    let timed_share = traced.deliveries() as f64 / (traced.deliveries() as f64 + 4.0);
    let coverage = explained_ns * timed_share / (traced.raw_cpu_s() * 1e9);

    let overhead = untraced.as_ref().map(|u| overhead_pct(u.ops_per_s(), traced.ops_per_s()));
    if let Some(u) = untraced {
        tally.merge(u.tally);
    }
    tally.merge(traced.tally);
    Layer {
        metrics: vec![
            metric("session.frames_received", "count", received),
            metric("session.innovative_ratio", "ratio", innovative / received.max(1.0)),
            metric("session.recode_ns_p50", "ns", hist("recode_ns", 0.50)),
            metric("session.recode_ns_p99", "ns", hist("recode_ns", 0.99)),
            metric("session.decode_ns_p50", "ns", hist("decode_ns", 0.50)),
            metric("session.decode_ns_p99", "ns", hist("decode_ns", 0.99)),
            metric("session.budget_coverage", "ratio", coverage),
        ],
        overhead_pct: overhead,
    }
}

fn coord_layer(
    own: bool,
    shape: &LadderShape,
    seed: u64,
    budget: Duration,
    scratch: &Path,
    tally: &mut Tally,
) -> Layer {
    let (params, budget, floor_budget) = if own {
        (CtrlParams::churn(Scale::Full), budget / 2, Duration::from_secs(2))
    } else {
        let smoke = CtrlParams { overlay: shape.overlay, ..CtrlParams::churn(Scale::Smoke) };
        (smoke, Duration::from_millis(300), Duration::from_millis(300))
    };
    let null = SharedRecorder::null();
    // The same calls against a coordinator that persists nothing: the
    // connect + JSON + dispatch floor under every durable write.
    let floor = ctrl::run(&params, seed, floor_budget, None, &null);
    let untraced = own.then(|| ctrl::run(&params, seed, budget, Some(scratch), &null));
    let (sink, recorder) = counting();
    let traced = ctrl::run(&params, seed, budget, Some(scratch), &recorder);

    let batch =
        sink.metrics.snapshot().histograms.get("commit_batch_records").map_or(0.0, |h| h.mean());
    let metrics = vec![
        metric("coord.call_stats_us_p50", "us", median(&floor.read_us)),
        metric("coord.call_hello_nodur_us_p50", "us", median(&floor.write_us)),
        metric(
            "coord.commit_wait_us_p50",
            "us",
            median(&traced.write_us) - median(&floor.write_us),
        ),
        metric("coord.batch_records_mean", "count", batch),
    ];
    let overhead = untraced.as_ref().map(|u| overhead_pct(u.ops_per_s(), traced.ops_per_s()));
    for run in [Some(floor), untraced, Some(traced)].into_iter().flatten() {
        tally.merge(run.tally);
    }
    Layer { metrics, overhead_pct: overhead }
}

fn vnet_layer(
    own: bool,
    shape: &LadderShape,
    l: &Ladder,
    seed: u64,
    budget: Duration,
    tally: &mut Tally,
) -> Layer {
    let (params, budget) = if own {
        (VnetParams::churn(Scale::Full), budget / 2)
    } else {
        let smoke =
            VnetParams::churn(Scale::Smoke).with_shape(shape.generation_size, shape.packet_len);
        (smoke, Duration::ZERO)
    };
    // The virtual world has no recorder hook, so its "traced" half runs the
    // same code as its untraced half and the overhead reads as noise.
    let untraced = own.then(|| vnet::run(&params, seed, budget, 1));
    let traced = vnet::run(&params, seed, budget, 1);
    let w = &traced.worlds[0];
    let frames = w.stats.frames_delivered as f64;
    let wall_ns = w.wall_s * 1e9;
    let codec_ns = l.recode_ns + l.wire_encode_ns + l.wire_decode_ns + l.state_push_ns;
    let metrics = vec![
        metric("vnet.frames_delivered", "count", frames),
        metric("vnet.frames_lost", "count", w.stats.frames_lost as f64),
        metric("vnet.repairs", "count", w.stats.repairs as f64),
        metric("vnet.resyncs", "count", w.stats.resyncs as f64),
        metric("vnet.gave_up", "count", w.stats.gave_up as f64),
        metric("vnet.wall_ns_per_frame", "ns", wall_ns / frames.max(1.0)),
        metric("vnet.join_us_op", "us", mean(&w.join_us)),
        metric("vnet.kill_us_op", "us", mean(&w.kill_us)),
        metric("vnet.codec_share", "ratio", codec_ns * frames / wall_ns),
        metric("vnet.virtual_ttc_p50_ms", "ms", median(&w.virtual_ttc_ms)),
        metric("vnet.defect_p", "ratio", w.defect_p),
    ];
    let overhead = untraced.as_ref().map(|u| overhead_pct(u.ops_per_s(), traced.ops_per_s()));
    if let Some(u) = untraced {
        tally.merge(u.tally);
    }
    tally.merge(traced.tally);
    Layer { metrics, overhead_pct: overhead }
}

fn ladder_metrics(l: &Ladder) -> Vec<Metric> {
    vec![
        metric("gf.axpy_mib_s", "MiB/s", l.axpy_mib_s),
        metric("rlnc.encode_ns_pkt", "ns", l.encode_ns),
        metric("rlnc.push_innovative_ns_pkt", "ns", l.push_innovative_ns),
        metric("rlnc.push_redundant_ns_pkt", "ns", l.push_redundant_ns),
        metric("rlnc.recode_ns_pkt", "ns", l.recode_ns),
        metric("rlnc.pool_hit_ratio", "ratio", l.pool_hit_ratio),
        metric("wire.encode_ns_frame", "ns", l.wire_encode_ns),
        metric("wire.decode_ns_frame", "ns", l.wire_decode_ns),
        metric("wire.payload_share", "ratio", l.payload_share),
        metric("framing.write_ns_frame", "ns", l.framing_write_ns),
        metric("framing.read_ns_frame", "ns", l.framing_read_ns),
        metric("framing.loopback_mib_s", "MiB/s", l.loopback_mib_s),
        metric("peer.state_push_ns_pkt", "ns", l.state_push_ns),
        metric("peer.snapshot_next_ns", "ns", l.snapshot_next_ns),
        metric("overlay.hello_ns_op", "ns", l.overlay_hello_ns),
        metric("overlay.goodbye_ns_op", "ns", l.overlay_goodbye_ns),
        metric("ctrl.dispatch_hello_ns_op", "ns", l.dispatch_hello_ns),
        metric("ctrl.dispatch_goodbye_ns_op", "ns", l.dispatch_goodbye_ns),
        metric("ctrl.json_roundtrip_ns_op", "ns", l.json_roundtrip_ns),
        metric("wal.append_ns_rec", "ns", l.wal_append_ns),
        metric("wal.sync_us", "us", l.wal_sync_us),
        metric("wal.compact_ms", "ms", l.wal_compact_ms),
        metric("telemetry.null_record_ns", "ns", l.null_record_ns),
        metric("telemetry.memsink_record_ns", "ns", l.memsink_record_ns),
    ]
}

pub struct Traced {
    pub metrics: Vec<Metric>,
    pub tally: Tally,
    pub detail: Doc,
}

/// The whole traced run of `workload`. The span file lands at `span_file`.
pub fn run(
    workload: Workload,
    scale: Scale,
    seed: u64,
    budget: Duration,
    scratch: &Path,
    span_file: &Path,
) -> Result<Traced, String> {
    let shape = workload.ladder_shape();
    let (l, tracer) = ladder::climb(&shape, scale, seed, scratch)?;
    tracer.write_json(span_file).map_err(|e| format!("span file {}: {e}", span_file.display()))?;

    let mut tally = Tally::default();
    let own_tcp = match workload {
        Workload::TcpBulk => Some(TcpParams::bulk(scale)),
        Workload::TcpTiny => Some(TcpParams::tiny(scale)),
        _ => None,
    };
    let session = session_layer(own_tcp, &shape, &l, seed, budget, &mut tally);
    let coord = coord_layer(
        workload == Workload::CtrlChurn && scale == Scale::Full,
        &shape,
        seed,
        budget,
        scratch,
        &mut tally,
    );
    let world = vnet_layer(
        workload == Workload::VnetChurn && scale == Scale::Full,
        &shape,
        &l,
        seed,
        budget,
        &mut tally,
    );
    // At smoke scale no driver runs twice, so there is no pair to compare.
    let overhead =
        session.overhead_pct.or(coord.overhead_pct).or(world.overhead_pct).unwrap_or(0.0);

    let mut metrics = ladder_metrics(&l);
    metrics.extend(session.metrics);
    metrics.extend(coord.metrics);
    metrics.extend(world.metrics);
    metrics.push(metric("trace.overhead_pct", "%", overhead));

    let self_time =
        tracer.self_time_ns().into_iter().fold(Doc::new(), |doc, (name, ns)| doc.num(name, ns));
    let detail = Doc::new()
        .int("spans", tracer.spans.len() as u64)
        .text("span_file", span_file.display().to_string())
        .put("mean_self_time_ns", self_time.build());
    Ok(Traced { metrics, tally, detail })
}
