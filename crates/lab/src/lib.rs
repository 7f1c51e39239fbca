//! Experiment orchestration and claim regression for the curtain
//! evaluation.
//!
//! The paper's evaluation *is* its theorem suite: Theorem 4's steady-state
//! defect bound, Theorem 5's collapse-time scaling, Lemmas 6/7's drift —
//! each reproduced by one `curtain-bench` experiment. This crate turns
//! those experiments from serial table-printers into **sweeps**: typed
//! parameter grids executed cell-by-cell on a thread pool, cached
//! on disk, summarized as machine-readable `BENCH_<exp>.json` reports,
//! and *gated* — `lab check` exits non-zero when a measured curve stops
//! satisfying the paper's bounds.
//!
//! The moving parts:
//!
//! * [`Sweep`] — an experiment: a [`grid::ParamGrid`] of typed parameter
//!   points, a deterministic `run(params, seed) → Measurement` cell
//!   function, and zero or more [`claims::Claim`] checks over the
//!   aggregated curves;
//! * [`pool`] — executes the (point × seed) cell matrix on scoped threads
//!   that claim cells from one shared cursor. Cells carry their own
//!   seeds and share nothing, so results are **byte-identical at any
//!   `--jobs` count**;
//! * [`cache`] — a content-addressed on-disk JSON store keyed by
//!   (experiment, params, seed, code-salt): interrupted or repeated
//!   sweeps resume as cache hits;
//! * [`report`] — per-point mean/CI95 summaries written as
//!   `BENCH_<exp>.json` (deterministic bytes) plus a `.timing.json`
//!   sidecar with the wall-clock histogram (via `curtain-telemetry`);
//! * [`claims`] — bound/monotonicity/predicate checks over the summary,
//!   the regression gate of `lab check`;
//! * [`cli`] — the `lab run` / `lab check` / `lab list` command line,
//!   plus [`trace_cmd`]: `lab trace`, the cross-process trace stitcher;
//! * [`experiments`] — the registry wiring e01/e03/e04/e05's hoisted
//!   measurement cores (`curtain_bench::exp`) into sweeps.
//!
//! # Determinism contract
//!
//! A cell's measurement must depend only on `(params, seed)`. Everything
//! downstream preserves that: results are collected by cell index (not
//! completion order), aggregation maps are `BTreeMap`s, and floats are
//! rendered by `curtain-telemetry`'s canonical writer — so the same grid
//! and seeds produce the same `BENCH_<exp>.json` bytes no matter how many
//! workers ran the sweep or how the cells interleaved. Wall-clock data is
//! quarantined in the `.timing.json` sidecar, which is the *only*
//! nondeterministic artifact.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod cell;
pub mod claims;
pub mod cli;
pub mod experiments;
pub mod grid;
pub mod pool;
pub mod report;
pub mod trace_cmd;

use cell::Measurement;
use claims::Claim;
use grid::{ParamGrid, Params};

/// How large a sweep to run: the CLI's `--scale` / `--quick` knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Profile {
    /// Sample-count multiplier (≥ 1), the lab-side `CURTAIN_SCALE`.
    pub scale: u64,
    /// True for the scaled-down smoke grid (CI's `lab-smoke` job).
    pub quick: bool,
}

impl Default for Profile {
    fn default() -> Self {
        Profile { scale: 1, quick: false }
    }
}

/// The default seed set: `count` consecutive seeds from a fixed base, so
/// a re-run (or a `--seeds` override with the same count) hits the cache.
#[must_use]
pub fn default_seeds(count: u64) -> Vec<u64> {
    (0..count).map(|i| 0x5EED_0000 + i).collect()
}

/// One experiment, seen as a sweep.
///
/// Implementations must keep `run` deterministic in `(params, seed)` —
/// no global state, no wall clock, no thread identity — and bump
/// [`Sweep::code_salt`] whenever the measurement's meaning changes, which
/// invalidates cached cells without wiping unrelated experiments.
pub trait Sweep: Send + Sync {
    /// Short stable identifier (`"e01"`), used in file names and the CLI.
    fn id(&self) -> &'static str;

    /// One-line description of the claim under test.
    fn title(&self) -> &'static str;

    /// Cache-invalidation token: part of every cell's cache key. Bump it
    /// when the measurement code changes meaning.
    fn code_salt(&self) -> &'static str;

    /// The parameter points of this sweep under `profile`.
    fn grid(&self, profile: Profile) -> ParamGrid;

    /// The seeds every point is measured at (cells = points × seeds).
    fn seeds(&self, profile: Profile) -> Vec<u64> {
        default_seeds(if profile.quick { 2 } else { 3 })
    }

    /// Measures one cell. Must be deterministic in `(params, seed)`.
    fn run(&self, params: &Params, seed: u64) -> Measurement;

    /// The regression gate: claims checked against the aggregated sweep.
    fn claims(&self) -> Vec<Box<dyn Claim>> {
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_seeds_are_stable_and_consecutive() {
        assert_eq!(default_seeds(3), vec![0x5EED_0000, 0x5EED_0001, 0x5EED_0002]);
        assert!(default_seeds(0).is_empty());
    }

    #[test]
    fn default_profile_is_full_scale_one() {
        assert_eq!(Profile::default(), Profile { scale: 1, quick: false });
    }
}
