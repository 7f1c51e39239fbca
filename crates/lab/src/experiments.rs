//! The sweep registry: the paper's evaluation as `Sweep` implementations.
//!
//! Each sweep wraps one hoisted measurement core from
//! `curtain_bench::exp` (the same functions the `eNN_*` binaries call)
//! and attaches the paper's claims:
//!
//! * **e01** — Theorem 4: the steady-state defect fraction stays under
//!   the analytic fixed point `a₁` of the drift;
//! * **e03** — Lemmas 6 & 7: per-arrival drift under `f(b)`, one-step
//!   defect change under `(d²/k)·A`;
//! * **e04** — Theorem 5: collapse time of the scalar bound chain is
//!   monotone-increasing in `k`;
//! * **e05** — §5: with random-position insertion a coordinated flash
//!   crowd does no more damage than iid random failures;
//! * **e06** — data-plane throughput: the SIMD GF(256) axpy kernels are
//!   no slower than scalar, and the snapshot recode path is no slower
//!   than the pre-refactor deep-copy path (absolute rates are recorded
//!   in `BENCH_e06.json` for the machine at hand);
//! * **e20** — codec tradeoffs: overlapping classes beat disjoint
//!   generations on completion overhead whenever the channel loses
//!   packets, the sliding-window backend's p95 delivery latency stays
//!   flat as the stream grows 8×, and every backend decodes the same
//!   bytes;
//! * **e21** — control plane: under a slow WAL sync group commit
//!   admits at least 3 joins per fsync (an exact count) and beats the
//!   rate one fsync per join could reach, and the failover drill (kill
//!   the primary mid-transfer) always promotes the warm standby at the
//!   same address, finishes byte-identical, and never gives up a repair
//!   (wall-clock like e06; absolute rates land in `BENCH_e21.json`);
//! * **e22** — vnet scale: a single-process churn soak of the real
//!   sans-io protocol over the virtual network, at `N` up to 1000.
//!   The steady-state defect probability must stay in one narrow band
//!   across `N` (Theorem 4's N-independence), every defect must heal
//!   with zero repair give-ups — at every `N` and, at fixed `N`, at
//!   every churn level from none to ten times the base rate with half
//!   the departures saying good-bye — and the same `(params, seed)`
//!   cell must replay with a byte-identical event journal.
//!
//! Profile knobs: `--scale` multiplies sample counts (and is part of the
//! cache key, as it should be — more samples is a different measurement);
//! `--quick` swaps in the small smoke grids CI runs.

use curtain_analysis::drift::DriftParams;
use curtain_bench::exp::{e01, e03, e04, e05, e06, e20, e21, e22};
use curtain_bench::stats;
use curtain_telemetry::SharedRecorder;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::cell::Measurement;
use crate::claims::{Claim, MonotoneAlong, Predicate, UpperBound};
use crate::grid::{floats, labels, ParamGrid, Params};
use crate::report::PointSummary;
use crate::{Profile, Sweep};

/// Every sweep, in experiment order.
#[must_use]
pub fn registry() -> Vec<Box<dyn Sweep>> {
    vec![
        Box::new(E01Defect),
        Box::new(E03Drift),
        Box::new(E04Collapse),
        Box::new(E05Adversarial),
        Box::new(E06Dataplane),
        Box::new(E20Generations),
        Box::new(E21ControlPlane),
        Box::new(E22VnetScale),
    ]
}

/// The Theorem-4 ceiling for a point carrying `k`, `d`, `p` — `None`
/// when the drift has no root (no steady state to bound).
fn theorem4_ceiling(params: &Params) -> Option<f64> {
    let (k, d, p) = (params.usize("k"), params.usize("d"), params.float("p"));
    if k <= d * d {
        return None;
    }
    DriftParams::new(p, d, k).theorem4_bound()
}

/// e01 — steady-state defect fraction vs Theorem 4's bound.
struct E01Defect;

impl E01Defect {
    fn point(k: usize, d: usize, p: f64, n: usize, samples: u64, trials: u64) -> Params {
        Params::new()
            .with("k", k)
            .with("d", d)
            .with("p", p)
            .with("n", n)
            .with("samples", samples as usize)
            .with("trials", trials as usize)
    }
}

impl Sweep for E01Defect {
    fn id(&self) -> &'static str {
        "e01"
    }

    fn title(&self) -> &'static str {
        "Theorem 4: steady-state defect fraction stays under the drift fixed point a1"
    }

    fn code_salt(&self) -> &'static str {
        "e01-v1"
    }

    fn grid(&self, profile: Profile) -> ParamGrid {
        let mut points = Vec::new();
        if profile.quick {
            for &p in &[0.01, 0.02] {
                points.push(Self::point(32, 2, p, 200, 120 * profile.scale, 2));
            }
            return ParamGrid::from_points(points);
        }
        // The d × p table at k = 8d² (the binary's table 1)...
        for &d in &[2usize, 3, 4] {
            for &p in &[0.005, 0.01, 0.02, 0.04] {
                points.push(Self::point(8 * d * d, d, p, 600, 300 * profile.scale, 6));
            }
        }
        // ...plus the N sweep at fixed (k, d, p) (table 2).
        for &n in &[150usize, 300, 600, 1200, 2400] {
            points.push(Self::point(32, 2, 0.02, n, 300 * profile.scale, 6));
        }
        ParamGrid::from_points(points)
    }

    fn run(&self, params: &Params, seed: u64) -> Measurement {
        let eparams = e01::Params {
            k: params.usize("k"),
            d: params.usize("d"),
            p: params.float("p"),
            n: params.usize("n"),
            samples: params.usize("samples") as u64,
            trials: params.usize("trials") as u64,
        };
        let mut clock = 0u64;
        let fraction = e01::measure(&eparams, seed, &SharedRecorder::null(), &mut clock);
        Measurement::new()
            .with("defect_fraction", fraction)
            .with("pd", eparams.p * eparams.d as f64)
    }

    fn claims(&self) -> Vec<Box<dyn Claim>> {
        vec![Box::new(UpperBound {
            name: "T4-defect-bound",
            metric: "defect_fraction",
            // Finite networks at finite sample counts hover around the
            // asymptotic fixed point; half the bound again is the margin
            // the e01 binary's tables have historically stayed well under.
            slack: 0.5,
            bound: Box::new(theorem4_ceiling),
        })]
    }
}

/// e03 — one-step drift vs Lemma 6's cap and Lemma 7's `f(b)`.
struct E03Drift;

impl Sweep for E03Drift {
    fn id(&self) -> &'static str {
        "e03"
    }

    fn title(&self) -> &'static str {
        "Lemmas 6-7: per-arrival drift under f(b), one-step change under (d^2/k)*A"
    }

    fn code_salt(&self) -> &'static str {
        "e03-v1"
    }

    fn grid(&self, profile: Profile) -> ParamGrid {
        let arrivals = if profile.quick { 800 } else { 4000 } * profile.scale as usize;
        let ks: &[usize] = if profile.quick { &[12] } else { &[12, 20] };
        ParamGrid::from_points(
            ks.iter()
                .map(|&k| {
                    Params::new()
                        .with("k", k)
                        .with("d", 2usize)
                        .with("p", 0.25)
                        .with("arrivals", arrivals)
                        .with("bins", 10usize)
                })
                .collect(),
        )
    }

    fn run(&self, params: &Params, seed: u64) -> Measurement {
        let eparams = e03::Params {
            k: params.usize("k"),
            d: params.usize("d"),
            p: params.float("p"),
            arrivals: params.usize("arrivals"),
            bins: params.usize("bins"),
        };
        let run = e03::run(&eparams, seed, &SharedRecorder::null());
        let drift = DriftParams::new(eparams.p, eparams.d, eparams.k);

        // A bin "violates" when its measured mean drift exceeds f(b_mid)
        // beyond 3 standard errors — the binary's own acceptance rule.
        let mut violations = 0u64;
        let mut observed = 0u64;
        for (i, bin) in run.deltas.iter().enumerate() {
            if bin.is_empty() {
                continue;
            }
            observed += 1;
            let b_mid = (i as f64 + 0.5) / eparams.bins as f64;
            let sem = stats::std_dev(bin) / (bin.len() as f64).sqrt();
            if stats::mean(bin) > drift.f(b_mid) + 3.0 * sem + 1e-9 {
                violations += 1;
            }
        }
        Measurement::new()
            .with("max_step_fraction", run.max_step / run.tuples)
            .with("drift_violation_bins", violations as f64)
            .with("bins_observed", observed as f64)
    }

    fn claims(&self) -> Vec<Box<dyn Claim>> {
        vec![
            Box::new(UpperBound {
                name: "L6-step-cap",
                metric: "max_step_fraction",
                // The cap is combinatorial, not statistical: no slack.
                slack: 1e-9,
                bound: Box::new(|params: &Params| {
                    if params.usize("k") > params.usize("d") * params.usize("d") {
                        Some(DriftParams::new(
                            params.float("p"),
                            params.usize("d"),
                            params.usize("k"),
                        )
                        .lemma6_max_step())
                    } else {
                        None
                    }
                }),
            }),
            Box::new(Predicate {
                name: "L7-drift-under-f",
                check: Box::new(|points: &[PointSummary]| {
                    let worst = points
                        .iter()
                        .filter_map(|pt| pt.mean("drift_violation_bins").map(|v| (pt, v)))
                        .max_by(|a, b| a.1.total_cmp(&b.1));
                    match worst {
                        None => Ok("no drift points measured".to_owned()),
                        Some((_, v)) if v <= 0.5 => {
                            Ok(format!("worst mean violating-bin count {v:.2} <= 0.5"))
                        }
                        Some((pt, v)) => Err(format!(
                            "mean of {v:.2} bins exceed f(b)+3sem at [{}]",
                            pt.params
                        )),
                    }
                }),
            }),
        ]
    }
}

/// e04 — the scalar bound chain's collapse time, monotone in `k`.
struct E04Collapse;

impl E04Collapse {
    fn chain_params(params: &Params) -> e04::ChainParams {
        e04::ChainParams {
            k: params.usize("k"),
            d: params.usize("d"),
            p: params.float("p"),
            threshold: params.float("threshold"),
            max_steps: params.usize("max_steps") as u64,
        }
    }
}

impl Sweep for E04Collapse {
    fn id(&self) -> &'static str {
        "e04"
    }

    fn title(&self) -> &'static str {
        "Theorem 5: bound-chain collapse time is monotone-increasing in k"
    }

    fn code_salt(&self) -> &'static str {
        "e04-v1"
    }

    fn grid(&self, profile: Profile) -> ParamGrid {
        let ks: &[usize] = if profile.quick { &[6, 12, 24] } else { &[6, 12, 24, 48, 96] };
        let max_steps =
            if profile.quick { 1_000_000usize } else { 10_000_000 } * profile.scale as usize;
        ParamGrid::from_points(
            ks.iter()
                .map(|&k| {
                    Params::new()
                        .with("k", k)
                        .with("d", 2usize)
                        .with("p", 0.15)
                        .with("threshold", 0.7)
                        .with("max_steps", max_steps)
                })
                .collect(),
        )
    }

    fn run(&self, params: &Params, seed: u64) -> Measurement {
        let chain = Self::chain_params(params);
        let mut rng = StdRng::seed_from_u64(seed);
        let steps = e04::chain_collapse_time(&chain, &mut rng);
        Measurement::new()
            // A censored run contributes the cap as a lower bound, which
            // keeps the monotone claim conservative.
            .with("collapse_steps", steps.unwrap_or(chain.max_steps) as f64)
            .with("censored", if steps.is_none() { 1.0 } else { 0.0 })
    }

    fn claims(&self) -> Vec<Box<dyn Claim>> {
        vec![Box::new(MonotoneAlong {
            name: "T5-monotone-k",
            metric: "collapse_steps",
            axis: "k",
            // Collapse times are heavy-tailed; successive k steps grow the
            // mean by far more than this dip allowance.
            tolerance: 0.25,
        })]
    }
}

/// e05 — coordinated strikes vs the iid baseline, per insertion policy.
struct E05Adversarial;

impl E05Adversarial {
    /// The `mean_loss` curve point for `(scenario, rest-of-params)`.
    fn loss_of(points: &[PointSummary], base: &Params, scenario: &str) -> Option<f64> {
        points
            .iter()
            .find(|pt| {
                pt.params.get("scenario").and_then(|v| v.as_str()) == Some(scenario)
                    && pt.params.without("scenario") == *base
            })
            .and_then(|pt| pt.mean("mean_loss"))
    }

    /// Distinct non-scenario parameter groups, in grid order.
    fn groups(points: &[PointSummary]) -> Vec<Params> {
        let mut groups: Vec<Params> = Vec::new();
        for pt in points {
            let base = pt.params.without("scenario");
            if !groups.contains(&base) {
                groups.push(base);
            }
        }
        groups
    }
}

impl Sweep for E05Adversarial {
    fn id(&self) -> &'static str {
        "e05"
    }

    fn title(&self) -> &'static str {
        "Sec. 5: random-position insertion makes flash crowds no worse than iid failures"
    }

    fn code_salt(&self) -> &'static str {
        "e05-v1"
    }

    fn grid(&self, profile: Profile) -> ParamGrid {
        let fracs: &[f64] = if profile.quick { &[0.10] } else { &[0.05, 0.10, 0.20] };
        let n = if profile.quick { 200usize } else { 400 };
        let scenarios: Vec<&str> =
            e05::Scenario::ALL.iter().map(|s| s.label()).collect();
        let mut grid = ParamGrid::cartesian(&[
            ("frac", floats(fracs)),
            ("scenario", labels(&scenarios)),
        ]);
        let mut points = Vec::with_capacity(grid.len());
        for point in grid.points() {
            points.push(point.clone().with("k", 24usize).with("d", 3usize).with("n", n));
        }
        grid = ParamGrid::from_points(points);
        grid
    }

    fn run(&self, params: &Params, seed: u64) -> Measurement {
        let scenario = e05::Scenario::from_label(params.str("scenario"))
            .unwrap_or_else(|| panic!("unknown scenario {:?}", params.str("scenario")));
        let eparams = e05::Params {
            k: params.usize("k"),
            d: params.usize("d"),
            n: params.usize("n"),
            frac: params.float("frac"),
        };
        let report = e05::strike_outcome(scenario, &eparams, seed);
        Measurement::new()
            .with("mean_loss", report.mean_loss)
            .with("affected_fraction", report.affected_fraction)
            .with("disconnected_fraction", report.disconnected_fraction)
    }

    fn claims(&self) -> Vec<Box<dyn Claim>> {
        vec![
            Box::new(Predicate {
                name: "S5-rand-insert-matches-iid",
                check: Box::new(|points: &[PointSummary]| {
                    for base in E05Adversarial::groups(points) {
                        let (Some(rand), Some(iid)) = (
                            E05Adversarial::loss_of(points, &base, "flash_rand_insert"),
                            E05Adversarial::loss_of(points, &base, "iid_random"),
                        ) else {
                            continue;
                        };
                        if rand > iid * 1.5 + 0.1 {
                            return Err(format!(
                                "rand-insert loss {rand:.3} >> iid loss {iid:.3} at [{base}]"
                            ));
                        }
                    }
                    Ok("flash+rand-insert tracks the iid baseline everywhere".to_owned())
                }),
            }),
            Box::new(Predicate {
                name: "S5-append-is-worst",
                check: Box::new(|points: &[PointSummary]| {
                    for base in E05Adversarial::groups(points) {
                        let (Some(append), Some(rand)) = (
                            E05Adversarial::loss_of(points, &base, "flash_append"),
                            E05Adversarial::loss_of(points, &base, "flash_rand_insert"),
                        ) else {
                            continue;
                        };
                        if append < rand * 0.9 {
                            return Err(format!(
                                "append loss {append:.3} below rand-insert {rand:.3} at [{base}]"
                            ));
                        }
                    }
                    Ok("flash+append damage dominates rand-insert everywhere".to_owned())
                }),
            }),
        ]
    }
}

/// e06 — data-plane throughput: SIMD kernels and the snapshot recode path.
///
/// The odd one out in the registry: its metrics are wall-clock rates, so a
/// cell's *values* depend on the machine, not only on `(params, seed)`.
/// The cache still makes re-reports byte-stable on one machine, and the
/// claims gate only machine-independent ratios (`simd_speedup`,
/// `recode_speedup`), never absolute rates. On machines whose best
/// available backend *is* scalar, `simd_speedup` is exactly 1.0 by
/// definition (same kernel), so the gate cannot flake on non-SIMD runners.
struct E06Dataplane;

impl Sweep for E06Dataplane {
    fn id(&self) -> &'static str {
        "e06"
    }

    fn title(&self) -> &'static str {
        "Data plane: SIMD axpy >= scalar, snapshot recode >= deep-copy recode"
    }

    fn code_salt(&self) -> &'static str {
        "e06-v1"
    }

    fn grid(&self, profile: Profile) -> ParamGrid {
        if profile.quick {
            return ParamGrid::from_points(vec![Params::new()
                .with("g", 8usize)
                .with("s", 128usize)
                .with("packets", 64usize)]);
        }
        let packets = 256 * profile.scale as usize;
        let mut points = Vec::new();
        for &g in &[16usize, 64] {
            for &s in &[256usize, 2048] {
                points.push(Params::new().with("g", g).with("s", s).with("packets", packets));
            }
        }
        ParamGrid::from_points(points)
    }

    fn run(&self, params: &Params, seed: u64) -> Measurement {
        let s = params.usize("s");
        // Enough axpy passes for a stable rate, scaled so every symbol
        // length moves a similar number of bytes.
        let kernel = e06::KernelParams { len: s, passes: ((4 << 20) / s).max(64) };
        let scalar = e06::axpy_throughput(curtain_gf::GfBackend::Scalar, &kernel, seed);
        let best = e06::available_backends()[0];
        let (simd, simd_speedup) = if best == curtain_gf::GfBackend::Scalar {
            (scalar, 1.0)
        } else {
            let simd = e06::axpy_throughput(best, &kernel, seed);
            (simd, simd / scalar.max(1e-9))
        };

        let codec = e06::codec_throughput(
            &e06::CodecParams {
                g: params.usize("g"),
                symbol_len: s,
                packets: params.usize("packets"),
            },
            seed,
        );
        Measurement::new()
            .with("axpy_scalar_mib_s", scalar)
            .with("axpy_simd_mib_s", simd)
            .with("simd_speedup", simd_speedup)
            .with("encode_pps", codec.encode_pps)
            .with("decode_pps", codec.decode_pps)
            .with("recode_pps", codec.recode_pps)
            .with("recode_clone_pps", codec.recode_clone_pps)
            .with("recode_speedup", codec.recode_speedup())
    }

    fn claims(&self) -> Vec<Box<dyn Claim>> {
        vec![
            Box::new(Predicate {
                name: "E06-simd-axpy-geq-scalar",
                check: Box::new(|points: &[PointSummary]| {
                    for pt in points {
                        let Some(speedup) = pt.mean("simd_speedup") else { continue };
                        if speedup < 1.0 {
                            return Err(format!(
                                "SIMD axpy slower than scalar ({speedup:.2}x) at [{}]",
                                pt.params
                            ));
                        }
                    }
                    Ok(format!(
                        "best backend '{}' at least matches scalar at every point",
                        curtain_gf::kernels::active().name()
                    ))
                }),
            }),
            Box::new(Predicate {
                name: "E06-snapshot-recode-geq-clone",
                check: Box::new(|points: &[PointSummary]| {
                    for pt in points {
                        let Some(speedup) = pt.mean("recode_speedup") else { continue };
                        if speedup < 1.0 {
                            return Err(format!(
                                "snapshot recode slower than deep-copy path ({speedup:.2}x) at [{}]",
                                pt.params
                            ));
                        }
                    }
                    Ok("snapshot recode path beats the deep-copy path everywhere".to_owned())
                }),
            }),
        ]
    }
}

/// e20 — codec backends: generation size, class overlap, and window
/// tradeoffs (Li, Soljanin & Spasojević, arXiv:1011.3498).
///
/// Two cell shapes share the grid, told apart by the `mode` parameter:
///
/// * `transfer` — a feedback-free loss-channel transfer per backend;
///   gates that overlapping classes finish with less overhead than
///   disjoint generations whenever the channel actually loses packets,
///   and that every backend reproduces the object byte-identically;
/// * `stream` — the sliding-window backend under a paced live release;
///   gates that p95 in-order delivery latency stays flat (within CI95)
///   as the stream grows 8×.
struct E20Generations;

impl E20Generations {
    fn transfer_point(backend: e20::Backend, generations: usize, loss: f64) -> Params {
        // g = 16 with g/4 packets shared between consecutive classes:
        // the region where the coupon-collector win clearly beats the
        // coupling's padding cost. (At g = 8 or few generations the two
        // effects are within noise of each other.)
        let g = 16usize;
        let overlap = if backend == e20::Backend::Overlap { g / 4 } else { 0 };
        Params::new()
            .with("mode", "transfer")
            .with("backend", backend.label())
            .with("generations", generations)
            .with("g", g)
            .with("s", 32usize)
            .with("overlap", overlap)
            .with("loss", loss)
    }

    fn stream_point(packets: usize) -> Params {
        Params::new()
            .with("mode", "stream")
            .with("packets", packets)
            .with("g", 8usize)
            .with("s", 64usize)
            .with("window", 32usize)
            .with("rate", 2usize)
            .with("loss", 0.25)
    }

    /// The `metric` curve value for `(backend, rest-of-group)` among the
    /// transfer points.
    fn transfer_metric(
        points: &[PointSummary],
        base: &Params,
        backend: &str,
        metric: &str,
    ) -> Option<f64> {
        points
            .iter()
            .find(|pt| {
                pt.params.get("backend").and_then(|v| v.as_str()) == Some(backend)
                    && pt.params.without("backend").without("overlap") == *base
            })
            .and_then(|pt| pt.mean(metric))
    }

    /// Distinct transfer groups (backend and overlap aside), grid order.
    fn transfer_groups(points: &[PointSummary]) -> Vec<Params> {
        let mut groups: Vec<Params> = Vec::new();
        for pt in points {
            if pt.params.get("mode").and_then(|v| v.as_str()) != Some("transfer") {
                continue;
            }
            let base = pt.params.without("backend").without("overlap");
            if !groups.contains(&base) {
                groups.push(base);
            }
        }
        groups
    }
}

impl Sweep for E20Generations {
    fn id(&self) -> &'static str {
        "e20"
    }

    fn title(&self) -> &'static str {
        "Codec tradeoffs: overlap beats disjoint generations under loss; window p95 latency flat in stream length"
    }

    fn code_salt(&self) -> &'static str {
        "e20-v1"
    }

    fn grid(&self, profile: Profile) -> ParamGrid {
        let mut points = Vec::new();
        if profile.quick {
            for backend in e20::Backend::ALL {
                points.push(Self::transfer_point(backend, 32, 0.2));
            }
            points.push(Self::stream_point(64));
            points.push(Self::stream_point(512));
            return ParamGrid::from_points(points);
        }
        for &generations in &[16usize, 32] {
            for &loss in &[0.0, 0.1, 0.2] {
                for backend in e20::Backend::ALL {
                    points.push(Self::transfer_point(backend, generations, loss));
                }
            }
        }
        for &packets in &[64usize, 128, 256, 512] {
            points.push(Self::stream_point(packets));
        }
        ParamGrid::from_points(points)
    }

    fn seeds(&self, profile: Profile) -> Vec<u64> {
        // Cells are cheap (hundreds of g²·s eliminations), so buy CI
        // width with extra seeds instead of bigger objects.
        crate::default_seeds(if profile.quick { 4 } else { 10 })
    }

    fn run(&self, params: &Params, seed: u64) -> Measurement {
        match params.str("mode") {
            "transfer" => {
                let eparams = e20::TransferParams {
                    backend: e20::Backend::from_label(params.str("backend"))
                        .unwrap_or_else(|| panic!("unknown backend {:?}", params.str("backend"))),
                    generations: params.usize("generations"),
                    g: params.usize("g"),
                    s: params.usize("s"),
                    overlap: params.usize("overlap"),
                    loss: params.float("loss"),
                };
                let out = e20::transfer(&eparams, seed);
                Measurement::new()
                    .with("overhead", out.overhead)
                    .with("delivered_overhead", out.delivered_overhead)
                    .with("matches", if out.matches { 1.0 } else { 0.0 })
                    .with("digest", f64::from(out.digest))
            }
            "stream" => {
                let eparams = e20::StreamParams {
                    packets: params.usize("packets"),
                    g: params.usize("g"),
                    s: params.usize("s"),
                    window: params.usize("window"),
                    rate: params.usize("rate"),
                    loss: params.float("loss"),
                };
                let out = e20::live_stream(&eparams, seed);
                Measurement::new()
                    .with("p95_latency", out.p95_latency)
                    .with("mean_latency", out.mean_latency)
                    .with("delivered_fraction", out.delivered_fraction)
            }
            other => panic!("unknown e20 mode {other:?}"),
        }
    }

    fn claims(&self) -> Vec<Box<dyn Claim>> {
        vec![
            Box::new(Predicate {
                name: "E20-overlap-beats-disjoint-under-loss",
                check: Box::new(|points: &[PointSummary]| {
                    // At zero loss the coupling's padding cost can eat the
                    // coupon-collector win, so only lossy groups count
                    // (the broadcast regime). Individual groups carry real
                    // seed noise; the gate pools them and BENCH_e20.json
                    // keeps the per-group curves.
                    let mut gaps = Vec::new();
                    for base in E20Generations::transfer_groups(points) {
                        if base.float("loss") <= 0.0 {
                            continue;
                        }
                        let (Some(overlap), Some(rlnc)) = (
                            E20Generations::transfer_metric(points, &base, "overlap", "overhead"),
                            E20Generations::transfer_metric(points, &base, "rlnc", "overhead"),
                        ) else {
                            continue;
                        };
                        gaps.push((base, rlnc - overlap));
                    }
                    if gaps.is_empty() {
                        return Err("no lossy transfer groups to compare".to_owned());
                    }
                    let pooled = gaps.iter().map(|(_, d)| d).sum::<f64>() / gaps.len() as f64;
                    if pooled <= 0.0 {
                        return Err(format!(
                            "overlap overhead not below disjoint: pooled gap {pooled:+.3} over {} lossy groups",
                            gaps.len()
                        ));
                    }
                    let detail: Vec<String> =
                        gaps.iter().map(|(b, d)| format!("[{b}] {d:+.3}")).collect();
                    Ok(format!(
                        "overlap saves {pooled:.3} overhead pooled over {} lossy groups ({})",
                        gaps.len(),
                        detail.join(", ")
                    ))
                }),
            }),
            Box::new(Predicate {
                name: "E20-window-p95-flat-in-length",
                check: Box::new(|points: &[PointSummary]| {
                    let streams: Vec<&PointSummary> = points
                        .iter()
                        .filter(|pt| {
                            pt.params.get("mode").and_then(|v| v.as_str()) == Some("stream")
                        })
                        .collect();
                    let shortest = streams.iter().min_by_key(|pt| pt.params.usize("packets"));
                    let longest = streams.iter().max_by_key(|pt| pt.params.usize("packets"));
                    let (Some(short), Some(long)) = (shortest, longest) else {
                        return Err("no stream points measured".to_owned());
                    };
                    let (Some(s), Some(l)) = (
                        short.metrics.get("p95_latency"),
                        long.metrics.get("p95_latency"),
                    ) else {
                        return Err("stream points lack p95_latency".to_owned());
                    };
                    if !l.mean.is_finite() || !s.mean.is_finite() {
                        return Err("a stream stalled (infinite p95)".to_owned());
                    }
                    // Flat within the combined CI95 (plus a one-tick floor
                    // so a quantized metric cannot fail on a single step).
                    let allowance = s.ci95 + l.ci95 + 1.0;
                    if l.mean > s.mean + allowance {
                        return Err(format!(
                            "p95 grew from {:.2} to {:.2} ticks over {}x stream growth (allowance {:.2})",
                            s.mean,
                            l.mean,
                            long.params.usize("packets") / short.params.usize("packets").max(1),
                            allowance
                        ));
                    }
                    Ok(format!(
                        "p95 {:.2} -> {:.2} ticks across {}x growth, within {:.2}",
                        s.mean,
                        l.mean,
                        long.params.usize("packets") / short.params.usize("packets").max(1),
                        allowance
                    ))
                }),
            }),
            Box::new(Predicate {
                name: "E20-backends-byte-identical",
                check: Box::new(|points: &[PointSummary]| {
                    for base in E20Generations::transfer_groups(points) {
                        let mut digests: Vec<(String, f64)> = Vec::new();
                        for backend in e20::Backend::ALL {
                            let label = backend.label();
                            if let Some(m) =
                                E20Generations::transfer_metric(points, &base, label, "matches")
                            {
                                if m < 1.0 {
                                    return Err(format!(
                                        "{label} corrupted the object at [{base}]"
                                    ));
                                }
                            }
                            if let Some(d) =
                                E20Generations::transfer_metric(points, &base, label, "digest")
                            {
                                digests.push((label.to_owned(), d));
                            }
                        }
                        if digests.windows(2).any(|w| w[0].1 != w[1].1) {
                            return Err(format!("decoded digests diverge at [{base}]: {digests:?}"));
                        }
                    }
                    Ok("all backends decode byte-identical objects everywhere".to_owned())
                }),
            }),
        ]
    }
}

/// e21 — control plane: group-commit join throughput and the failover
/// drill, over real TCP sockets.
///
/// Wall-clock like [`E06Dataplane`]: a cell's values depend on the
/// machine, so the claims gate only the *joins per fsync* the slow WAL
/// counted (exact), the direction against the serial ceiling the
/// artificial 2 ms sync implies, and the drill's pass/fail flags. Run
/// it with `--jobs 1`: the cells time real sockets and real threads,
/// and co-scheduled cells steal each other's wall clock.
struct E21ControlPlane;

impl E21ControlPlane {
    fn join_point(clients: usize, joins_per_client: usize) -> Params {
        Params::new()
            .with("mode", "join")
            .with("clients", clients)
            .with("joins_per_client", joins_per_client)
            .with("sync_delay_us", 2000usize)
    }

    /// Checks every join point against the rate one sync per join could
    /// reach, and returns the pooled `(joins, syncs)` over all of them.
    fn pooled_joins_and_syncs(points: &[PointSummary]) -> Result<(f64, f64), String> {
        let (mut joins, mut syncs) = (0.0, 0.0);
        for pt in points {
            if pt.params.get("mode").and_then(|v| v.as_str()) != Some("join") {
                continue;
            }
            let metric =
                |m: &str| pt.mean(m).ok_or_else(|| format!("[{}] lacks {m}", pt.params));
            let ceiling = 1e6 / pt.params.usize("sync_delay_us") as f64;
            let rate = metric("joins_per_s")?;
            if rate <= ceiling {
                return Err(format!(
                    "{rate:.0} joins/s at [{}] is within reach of one sync per join ({ceiling:.0}/s)",
                    pt.params
                ));
            }
            joins += metric("joins")?;
            syncs += metric("syncs")?;
        }
        if syncs == 0.0 {
            return Err("no join points measured".to_owned());
        }
        Ok((joins, syncs))
    }
}

impl Sweep for E21ControlPlane {
    fn id(&self) -> &'static str {
        "e21"
    }

    fn title(&self) -> &'static str {
        "Control plane: group commit >= 3 joins per fsync; failover drill heals without loss"
    }

    fn code_salt(&self) -> &'static str {
        "e21-v2"
    }

    fn grid(&self, profile: Profile) -> ParamGrid {
        let mut points = Vec::new();
        if profile.quick {
            points.push(Self::join_point(8, 8));
            points.push(
                Params::new()
                    .with("mode", "failover")
                    .with("peers", 2usize)
                    .with("payload", 8 * 1024usize),
            );
            return ParamGrid::from_points(points);
        }
        // 8+ concurrent clients: below that the batches are too small
        // for the amortization to clear the gate of 3 with margin (the
        // e21 binary's table shows the full scaling curve from 2 up).
        for &clients in &[8usize, 16] {
            points.push(Self::join_point(clients, 16));
        }
        for &peers in &[2usize, 4] {
            points.push(
                Params::new()
                    .with("mode", "failover")
                    .with("peers", peers)
                    .with("payload", 16 * 1024usize),
            );
        }
        ParamGrid::from_points(points)
    }

    fn seeds(&self, profile: Profile) -> Vec<u64> {
        // Every cell spins real sockets (the drill runs whole transfers);
        // keep the matrix small and let the artificial sync delay carry
        // the statistical weight.
        crate::default_seeds(if profile.quick { 1 } else { 2 })
    }

    fn run(&self, params: &Params, seed: u64) -> Measurement {
        match params.str("mode") {
            "join" => {
                let out = e21::join_throughput(
                    &e21::JoinParams {
                        clients: params.usize("clients"),
                        joins_per_client: params.usize("joins_per_client"),
                        sync_delay_us: params.usize("sync_delay_us") as u64,
                    },
                    seed,
                );
                Measurement::new()
                    .with("joins_per_s", out.joins_per_s)
                    .with("joins", out.joins as f64)
                    .with("elapsed_s", out.elapsed_s)
                    .with("syncs", out.syncs as f64)
                    .with("joins_per_sync", out.joins_per_sync)
            }
            "failover" => {
                let out = e21::failover_drill(
                    &e21::FailoverParams {
                        peers: params.usize("peers"),
                        payload: params.usize("payload"),
                    },
                    seed,
                );
                Measurement::new()
                    .with("promoted", if out.promoted { 1.0 } else { 0.0 })
                    .with("byte_ok", if out.byte_ok { 1.0 } else { 0.0 })
                    .with("completed", out.completed as f64)
                    .with("give_ups", out.give_ups as f64)
            }
            other => panic!("unknown e21 mode {other:?}"),
        }
    }

    fn claims(&self) -> Vec<Box<dyn Claim>> {
        vec![
            Box::new(Predicate {
                name: "E21-group-commit-geq-3x",
                check: Box::new(|points: &[PointSummary]| {
                    let (joins, syncs) = E21ControlPlane::pooled_joins_and_syncs(points)?;
                    let per_sync = joins / syncs;
                    if per_sync < 3.0 {
                        return Err(format!(
                            "only {per_sync:.2} joins per fsync ({joins:.0} joins, {syncs:.0} syncs)"
                        ));
                    }
                    Ok(format!(
                        "{per_sync:.2} joins per fsync ({joins:.0} joins, {syncs:.0} syncs), every cell above the serial ceiling"
                    ))
                }),
            }),
            Box::new(Predicate {
                name: "E21-failover-heals-without-loss",
                check: Box::new(|points: &[PointSummary]| {
                    let mut drills = 0usize;
                    for pt in points {
                        if pt.params.get("mode").and_then(|v| v.as_str()) != Some("failover")
                        {
                            continue;
                        }
                        drills += 1;
                        for (metric, want) in
                            [("promoted", 1.0), ("byte_ok", 1.0), ("give_ups", 0.0)]
                        {
                            let Some(v) = pt.mean(metric) else {
                                return Err(format!("[{}] lacks {metric}", pt.params));
                            };
                            if (v - want).abs() > 1e-9 {
                                return Err(format!(
                                    "{metric} = {v} (want {want}) at [{}]",
                                    pt.params
                                ));
                            }
                        }
                    }
                    if drills == 0 {
                        return Err("no failover drill points measured".to_owned());
                    }
                    Ok(format!(
                        "every drill promoted at the old address, byte-identical, zero give-ups ({drills} points)"
                    ))
                }),
            }),
        ]
    }
}

/// e22 — vnet scale: the N-independence of the steady-state defect
/// probability, measured over the in-process virtual network.
///
/// Unlike e06/e21 this sweep is *fully* deterministic: the vnet runs on
/// a virtual clock, so a cell's metrics — including the journal digest —
/// depend only on `(params, seed)`. The `determinism` point makes that
/// a gated claim by replaying its own cell and comparing digests.
struct E22VnetScale;

impl E22VnetScale {
    fn churn_point(n: usize, rounds: usize, frac: f64) -> Params {
        Params::new()
            .with("mode", "churn")
            .with("n", n)
            .with("k", 8usize)
            .with("d", 2usize)
            .with("rounds", rounds)
            .with("frac", frac)
            .with("loss", 0.01)
    }

    /// The churn ladder at fixed `N`: ×0, ×1, ×4, ×10 of the base rate,
    /// half the departures polite. Its own mode: the rungs must heal
    /// like every soak, but sit outside the N-band and the 10 % ceiling,
    /// which are statements about the base rate.
    fn levels(n: usize, rounds: usize) -> impl Iterator<Item = Params> {
        let ladder =
            [("none", 0, 0.05), ("light", rounds, 0.05), ("heavy", rounds, 0.2), ("extreme", rounds, 0.5)];
        ladder.into_iter().map(move |(level, rounds, frac)| {
            Self::churn_point(n, rounds, frac)
                .with("mode", "level")
                .with("level", level)
                .with("leave", 0.5)
        })
    }

    fn cell_params(params: &Params) -> e22::ChurnParams {
        e22::ChurnParams {
            peers: params.usize("n"),
            fanout: params.usize("k"),
            reserve: params.usize("d"),
            churn_rounds: params.usize("rounds"),
            churn_frac: params.float("frac"),
            // Absent on the N-axis points (all kills), so their cache
            // keys are the ones they have always had.
            leave_frac: params.get("leave").and_then(|v| v.as_f64()).unwrap_or(0.0),
            loss: params.float("loss"),
        }
    }

    /// `(n, mean defect_p)` for every churn-mode point, in grid order.
    fn defect_curve(points: &[PointSummary]) -> Vec<(i64, f64)> {
        points
            .iter()
            .filter(|pt| pt.params.get("mode").and_then(|v| v.as_str()) == Some("churn"))
            .filter_map(|pt| {
                let n = pt.params.get("n").and_then(|v| v.as_i64())?;
                Some((n, pt.mean("defect_p")?))
            })
            .collect()
    }
}

impl Sweep for E22VnetScale {
    fn id(&self) -> &'static str {
        "e22"
    }

    fn title(&self) -> &'static str {
        "Vnet scale: defect probability independent of N; churn heals; replays byte-identical"
    }

    fn code_salt(&self) -> &'static str {
        "e22-v1"
    }

    fn grid(&self, profile: Profile) -> ParamGrid {
        if profile.quick {
            // Smaller swarms need heavier churn for a reliable defect
            // signal: at 5% of 60 peers a round kills 3, and two rounds
            // can miss every in-transfer parent.
            let mut points = vec![
                Self::churn_point(60, 2, 0.1),
                Self::churn_point(150, 2, 0.1),
                Self::churn_point(60, 1, 0.1).with("mode", "determinism"),
            ];
            points.extend(Self::levels(60, 2));
            return ParamGrid::from_points(points);
        }
        let mut points = vec![
            Self::churn_point(100, 4, 0.05),
            Self::churn_point(300, 4, 0.05),
            Self::churn_point(1000, 4, 0.05),
            Self::churn_point(100, 2, 0.05).with("mode", "determinism"),
        ];
        points.extend(Self::levels(100, 4));
        ParamGrid::from_points(points)
    }

    fn run(&self, params: &Params, seed: u64) -> Measurement {
        match params.str("mode") {
            "churn" | "level" => {
                let out = e22::churn_soak(&Self::cell_params(params), seed);
                Measurement::new()
                    .with("defect_p", out.defect_p)
                    .with("repairs", out.repairs as f64)
                    .with("resyncs", out.resyncs as f64)
                    .with("gave_up", out.gave_up as f64)
                    .with("frames_lost", out.frames_lost as f64)
                    .with("all_complete", if out.all_complete { 1.0 } else { 0.0 })
                    .with("completed", out.completed as f64)
                    .with("virtual_ms", out.virtual_ms)
                    .with("leaves", out.leaves as f64)
            }
            "determinism" => {
                let identical = e22::replay_identical(&Self::cell_params(params), seed);
                Measurement::new().with("replay_identical", if identical { 1.0 } else { 0.0 })
            }
            other => panic!("unknown e22 mode {other:?}"),
        }
    }

    fn claims(&self) -> Vec<Box<dyn Claim>> {
        vec![
            Box::new(Predicate {
                name: "E22-defect-independent-of-n",
                check: Box::new(|points: &[PointSummary]| {
                    let curve = E22VnetScale::defect_curve(points);
                    if curve.len() < 2 {
                        return Err(format!("need >=2 churn points, got {}", curve.len()));
                    }
                    let lo = curve.iter().map(|(_, p)| *p).fold(f64::INFINITY, f64::min);
                    let hi = curve.iter().map(|(_, p)| *p).fold(0.0, f64::max);
                    let shown: Vec<String> =
                        curve.iter().map(|(n, p)| format!("N={n}: {p:.4}")).collect();
                    // The band is absolute-or-relative: small means are
                    // noisy in ratio but trivially close in absolute
                    // terms; large means must track each other.
                    if hi - lo > 0.05 && hi > 4.0 * lo.max(1e-9) {
                        return Err(format!(
                            "defect probability varies with N: {}",
                            shown.join(", ")
                        ));
                    }
                    Ok(format!("defect band across N: {}", shown.join(", ")))
                }),
            }),
            Box::new(UpperBound {
                name: "E22-defect-under-10pct",
                metric: "defect_p",
                slack: 0.0,
                bound: Box::new(|params| {
                    (params.get("mode").and_then(|v| v.as_str()) == Some("churn"))
                        .then_some(0.1)
                }),
            }),
            Box::new(Predicate {
                name: "E22-churn-heals-completely",
                check: Box::new(|points: &[PointSummary]| {
                    let mut churn = 0usize;
                    let mut pooled_defect = 0.0;
                    let mut pooled_repairs = 0.0;
                    for pt in points {
                        // Soaks on either axis: N, or churn level.
                        let mode = pt.params.get("mode").and_then(|v| v.as_str());
                        if !matches!(mode, Some("churn" | "level")) {
                            continue;
                        }
                        churn += 1;
                        for (metric, want) in [("gave_up", 0.0), ("all_complete", 1.0)] {
                            let Some(v) = pt.mean(metric) else {
                                return Err(format!("[{}] lacks {metric}", pt.params));
                            };
                            if (v - want).abs() > 1e-9 {
                                return Err(format!(
                                    "{metric} = {v} (want {want}) at [{}]",
                                    pt.params
                                ));
                            }
                        }
                        pooled_defect += pt.mean("defect_p").unwrap_or(0.0);
                        pooled_repairs += pt.mean("repairs").unwrap_or(0.0);
                    }
                    if churn == 0 {
                        return Err("no churn points measured".to_owned());
                    }
                    if pooled_defect <= 0.0 || pooled_repairs <= 0.0 {
                        return Err(format!(
                            "churn left no trace: pooled defect {pooled_defect:.5}, repairs {pooled_repairs:.1}"
                        ));
                    }
                    // Points asked for good-byes; the N-axis (all kills) is not.
                    let leaves: Vec<f64> = points
                        .iter()
                        .filter(|pt| pt.params.get("leave").is_some())
                        .filter_map(|pt| pt.mean("leaves"))
                        .collect();
                    if !leaves.is_empty() && leaves.iter().sum::<f64>() <= 0.0 {
                        return Err("the churn levels never said good-bye".to_owned());
                    }
                    Ok(format!(
                        "{churn} churn points: every defect healed, zero give-ups, all swarms complete"
                    ))
                }),
            }),
            Box::new(Predicate {
                name: "E22-replay-byte-identical",
                check: Box::new(|points: &[PointSummary]| {
                    let mut cells = 0usize;
                    for pt in points {
                        if pt.params.get("mode").and_then(|v| v.as_str())
                            != Some("determinism")
                        {
                            continue;
                        }
                        cells += 1;
                        match pt.mean("replay_identical") {
                            Some(v) if (v - 1.0).abs() <= 1e-9 => {}
                            other => {
                                return Err(format!(
                                    "replay diverged at [{}]: {other:?}",
                                    pt.params
                                ))
                            }
                        }
                    }
                    if cells == 0 {
                        return Err("no determinism points measured".to_owned());
                    }
                    Ok(format!("{cells} determinism points replayed byte-identical"))
                }),
            }),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_ids_are_unique_and_salted() {
        let sweeps = registry();
        let ids: Vec<&str> = sweeps.iter().map(|s| s.id()).collect();
        assert_eq!(ids, vec!["e01", "e03", "e04", "e05", "e06", "e20", "e21", "e22"]);
        for sweep in &sweeps {
            assert!(
                sweep.code_salt().starts_with(sweep.id()),
                "{} salt should be namespaced",
                sweep.id()
            );
        }
    }

    #[test]
    fn grids_are_nonempty_and_quick_is_smaller() {
        for sweep in registry() {
            let full = sweep.grid(Profile::default());
            let quick = sweep.grid(Profile { scale: 1, quick: true });
            assert!(!full.is_empty(), "{}", sweep.id());
            assert!(!quick.is_empty(), "{}", sweep.id());
            assert!(quick.len() <= full.len(), "{}", sweep.id());
            assert!(!sweep.seeds(Profile::default()).is_empty());
        }
    }

    #[test]
    fn theorem4_ceiling_follows_the_drift_roots() {
        let p = Params::new().with("k", 32usize).with("d", 2usize).with("p", 0.02);
        let bound = theorem4_ceiling(&p).expect("root exists at mild p");
        assert!(bound > 0.0 && bound < 1.0, "{bound}");
        // Degenerate geometry (k <= d^2) has no bound to check.
        let degenerate = Params::new().with("k", 4usize).with("d", 2usize).with("p", 0.02);
        assert_eq!(theorem4_ceiling(&degenerate), None);
    }

    #[test]
    fn e05_grid_carries_all_scenarios_per_fraction() {
        let grid = E05Adversarial.grid(Profile::default());
        assert_eq!(grid.len(), 9);
        let scenarios: Vec<&str> =
            grid.points().iter().take(3).map(|pt| pt.str("scenario")).collect();
        assert_eq!(scenarios, vec!["flash_append", "flash_rand_insert", "iid_random"]);
    }
}
