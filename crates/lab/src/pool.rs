//! Parallel execution of the (point × seed) cell matrix.
//!
//! The matrix is a fixed list and cells never spawn cells, so the
//! scheduler is one shared cursor: each worker thread claims the next
//! unclaimed cell index until the list is exhausted. Every cell carries
//! its own seed and writes only its own result slot, so the measurement
//! vector is **identical at any job count** — parallelism changes
//! wall-time, never bytes.
//!
//! Wall-clock observations (per-cell run time, cache hit/miss counts) go
//! into the caller's [`MetricsRegistry`]; they feed the `.timing.json`
//! sidecar and never the deterministic report.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use curtain_telemetry::MetricsRegistry;

use crate::cache::Cache;
use crate::cell::{Cell, Measurement};
use crate::Sweep;

/// Cache traffic of one sweep execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RunStats {
    /// Cells answered from the on-disk cache.
    pub hits: u64,
    /// Cells actually executed.
    pub misses: u64,
}

impl RunStats {
    /// Hit fraction in percent (100.0 for a fully resumed sweep).
    #[must_use]
    pub fn hit_percent(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 { 100.0 } else { 100.0 * self.hits as f64 / total as f64 }
    }
}

/// Executes every cell, returning measurements **in cell order**.
///
/// `jobs` is clamped to `1..=cells.len()`. With `cache` present, cells
/// are answered from disk when possible and stored after execution;
/// `fresh` forces re-execution (results still overwrite the cache).
pub fn run_cells(
    sweep: &dyn Sweep,
    cells: &[Cell],
    jobs: usize,
    cache: Option<&Cache>,
    fresh: bool,
    metrics: &MetricsRegistry,
) -> (Vec<Measurement>, RunStats) {
    let salt = sweep.code_salt();
    let hits = AtomicU64::new(0);
    let misses = AtomicU64::new(0);
    let slots: Vec<Mutex<Option<Measurement>>> =
        cells.iter().map(|_| Mutex::new(None)).collect();

    let jobs = jobs.clamp(1, cells.len().max(1));
    // Relaxed: the cursor only hands out indices; each result is published
    // through its slot's mutex and the scope's join.
    let cursor = AtomicUsize::new(0);

    std::thread::scope(|scope| {
        for _ in 0..jobs {
            let (cursor, slots, hits, misses) = (&cursor, &slots[..], &hits, &misses);
            scope.spawn(move || loop {
                let index = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(cell) = cells.get(index) else { break };
                let measurement =
                    run_one(sweep, cell, salt, cache, fresh, metrics, hits, misses);
                *slots[index].lock().unwrap() = Some(measurement);
            });
        }
    });

    let results = slots
        .into_iter()
        .map(|slot| slot.into_inner().unwrap().expect("every cell ran"))
        .collect();
    let stats = RunStats {
        hits: hits.load(Ordering::Relaxed),
        misses: misses.load(Ordering::Relaxed),
    };
    metrics.counter("cache_hits", stats.hits);
    metrics.counter("cache_misses", stats.misses);
    (results, stats)
}

#[allow(clippy::too_many_arguments)]
fn run_one(
    sweep: &dyn Sweep,
    cell: &Cell,
    salt: &str,
    cache: Option<&Cache>,
    fresh: bool,
    metrics: &MetricsRegistry,
    hits: &AtomicU64,
    misses: &AtomicU64,
) -> Measurement {
    if !fresh {
        if let Some(found) = cache.and_then(|c| c.load(cell, salt)) {
            hits.fetch_add(1, Ordering::Relaxed);
            return found;
        }
    }
    misses.fetch_add(1, Ordering::Relaxed);

    let started = Instant::now();
    let measurement = sweep.run(&cell.params, cell.seed);
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;
    metrics.histogram("cell_wall_ms", wall_ms);

    if let Some(cache) = cache {
        if let Err(err) = cache.store(cell, salt, &measurement, wall_ms) {
            // A dead cache degrades resumption, not correctness.
            eprintln!("lab: cache write failed for {} seed {}: {err}", cell.params, cell.seed);
        }
    }
    measurement
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::{ints, ParamGrid, Params};
    use crate::Profile;

    /// A deterministic toy sweep: value = x * 1000 + seed.
    struct Toy;

    impl Sweep for Toy {
        fn id(&self) -> &'static str {
            "toy"
        }
        fn title(&self) -> &'static str {
            "toy sweep"
        }
        fn code_salt(&self) -> &'static str {
            "toy-v1"
        }
        fn grid(&self, _profile: Profile) -> ParamGrid {
            ParamGrid::cartesian(&[("x", ints(&[1, 2, 3]))])
        }
        fn run(&self, params: &Params, seed: u64) -> Measurement {
            Measurement::new().with("y", (params.int("x") * 1000) as f64 + seed as f64)
        }
    }

    fn matrix() -> Vec<Cell> {
        let mut cells = Vec::new();
        for point in Toy.grid(Profile::default()).points() {
            for seed in [5u64, 6] {
                cells.push(Cell { exp: "toy".into(), params: point.clone(), seed });
            }
        }
        cells
    }

    #[test]
    fn results_are_in_cell_order_at_any_job_count() {
        let cells = matrix();
        let metrics = MetricsRegistry::new();
        let (serial, _) = run_cells(&Toy, &cells, 1, None, false, &metrics);
        for jobs in [2, 4, 19] {
            let (parallel, stats) = run_cells(&Toy, &cells, jobs, None, false, &metrics);
            assert_eq!(parallel, serial, "jobs={jobs}");
            assert_eq!(stats, RunStats { hits: 0, misses: cells.len() as u64 });
        }
        assert_eq!(serial[0].get("y"), Some(1005.0));
        assert_eq!(serial[5].get("y"), Some(3006.0));
    }

    #[test]
    fn cache_turns_the_second_run_into_all_hits() {
        let root = std::env::temp_dir()
            .join(format!("curtain-lab-pool-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let cache = Cache::open(&root).unwrap();
        let cells = matrix();
        let metrics = MetricsRegistry::new();

        let (first, cold) = run_cells(&Toy, &cells, 3, Some(&cache), false, &metrics);
        assert_eq!(cold, RunStats { hits: 0, misses: 6 });
        let (second, warm) = run_cells(&Toy, &cells, 2, Some(&cache), false, &metrics);
        assert_eq!(warm, RunStats { hits: 6, misses: 0 });
        assert_eq!(warm.hit_percent(), 100.0);
        assert_eq!(second, first);

        let (_, forced) = run_cells(&Toy, &cells, 2, Some(&cache), true, &metrics);
        assert_eq!(forced, RunStats { hits: 0, misses: 6 }, "--fresh bypasses reads");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn empty_matrix_is_a_no_op() {
        let metrics = MetricsRegistry::new();
        let (results, stats) = run_cells(&Toy, &[], 4, None, false, &metrics);
        assert!(results.is_empty());
        assert_eq!(stats.hit_percent(), 100.0);
    }
}
