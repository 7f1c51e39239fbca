//! What the harness reads from the host: process CPU time and peak RSS from
//! `/proc`, the filesystem a path lives on, and a per-process scratch
//! directory that is removed on exit.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::time::{SystemTime, UNIX_EPOCH};

use crate::Scale;

/// Linux reports `utime`/`stime` in clock ticks of 1/100 s on every
/// mainstream configuration (`getconf CLK_TCK`); without libc the harness
/// cannot ask, so it states the assumption here.
const CLK_TCK: f64 = 100.0;

/// Process `utime + stime` in seconds, from `/proc/self/stat`.
pub fn cpu_seconds() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields of the whole line, i.e. indices 11 and 12 here.
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = after.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok()).unwrap_or(0.0);
    (ticks(11) + ticks(12)) / CLK_TCK
}

/// Peak resident set size (`VmHWM`) in MiB, from `/proc/self/status`.
pub fn peak_rss_mib() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Threads the harness may use to generate load.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Filesystem type of the mount holding `path` (longest mount-point prefix
/// in `/proc/self/mountinfo`), or `"unknown"`.
pub fn fs_type(path: &Path) -> String {
    let Ok(path) = path.canonicalize() else {
        return "unknown".to_string();
    };
    let info = fs::read_to_string("/proc/self/mountinfo").unwrap_or_default();
    let mut best: Option<(usize, String)> = None;
    for line in info.lines() {
        // "<id> <parent> <maj:min> <root> <mount point> <opts> ... - <fstype> <source> <opts>"
        let Some((left, right)) = line.split_once(" - ") else {
            continue;
        };
        let Some(mount) = left.split_whitespace().nth(4) else {
            continue;
        };
        let Some(fstype) = right.split_whitespace().next() else {
            continue;
        };
        if path.starts_with(mount) && best.as_ref().is_none_or(|(len, _)| mount.len() >= *len) {
            best = Some((mount.len(), fstype.to_string()));
        }
    }
    best.map_or_else(|| "unknown".to_string(), |(_, t)| t)
}

/// A directory under `<cwd>/.bench_scratch/` private to this process, so two
/// runs can overlap; removed when dropped. The harness writes nothing
/// outside the directory it was started in.
#[derive(Debug)]
pub struct Scratch {
    dir: PathBuf,
}

impl Scratch {
    pub fn create() -> io::Result<Self> {
        let nanos = SystemTime::now().duration_since(UNIX_EPOCH).map_or(0, |d| d.subsec_nanos());
        let dir = std::env::current_dir()?
            .join(".bench_scratch")
            .join(format!("run-{}-{nanos}", std::process::id()));
        fs::create_dir_all(&dir)?;
        Ok(Scratch { dir })
    }

    pub fn path(&self) -> &Path {
        &self.dir
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.dir);
        // Leave no empty parent behind when this was the last run.
        if let Some(parent) = self.dir.parent() {
            let _ = fs::remove_dir(parent);
        }
    }
}

/// What [`Reference::measure`] reads on the reference sandbox when its host
/// is quiet. Only the ratio to it is used, so on another machine it is a
/// constant scale factor, not an error.
const REFERENCE_NOMINAL_MS: f64 = 18.0;

/// The host's memory-streaming speed right now, as a yardstick. The sandbox
/// is a shared host whose speed wanders by up to 2x over minutes (neighbours
/// saturating the memory system), which the time of a CPU-bound session
/// follows closely: over twelve minutes of back-to-back `tcp_bulk` sessions
/// the median of thirty sessions drifted by 32 % while the same median
/// divided by this yardstick moved by 5 %. The kernel is harness-only work —
/// passes over a buffer per core that does not fit in the last-level cache,
/// no call into the program under test — so a faster program is never
/// mistaken for a faster host.
#[derive(Debug)]
pub struct Reference {
    lanes: Vec<Vec<u8>>,
}

impl Reference {
    const LANE_BYTES: usize = 16 << 20;
    const PASSES: u8 = 16;

    /// At smoke scale there is nothing to time (the tests run an unoptimised
    /// build, in which the kernel itself would take seconds): no lanes, and
    /// [`Reference::host_speed`] reads 1.0.
    pub fn new(scale: Scale) -> Self {
        let lane = || (0..Self::LANE_BYTES).map(|i| (i * 29 + 3) as u8).collect();
        let lanes = match scale {
            Scale::Full => nproc().min(2),
            Scale::Smoke => 0,
        };
        Reference { lanes: (0..lanes).map(|_| lane()).collect() }
    }

    fn stream(lane: &mut [u8]) -> f64 {
        // One untimed pass first: a core that sat idle through a
        // single-threaded stretch needs a moment to clock back up.
        lane.iter_mut().for_each(|b| *b = b.wrapping_add(1));
        let t = std::time::Instant::now();
        for pass in 0..Self::PASSES {
            for b in lane.iter_mut() {
                *b = b.wrapping_mul(5).wrapping_add(pass);
            }
            std::hint::black_box(&mut *lane);
        }
        t.elapsed().as_secs_f64() * 1e3
    }

    /// Runs the kernel on every lane at once and returns the host's speed
    /// relative to the quiet reference sandbox: 1.0 there, 0.5 on a host
    /// that is momentarily half as fast.
    pub fn host_speed(&mut self) -> f64 {
        if self.lanes.is_empty() {
            return 1.0;
        }
        let times: Vec<f64> = std::thread::scope(|scope| {
            let handles: Vec<_> =
                self.lanes.iter_mut().map(|lane| scope.spawn(|| Self::stream(lane))).collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("the reference kernel does not panic"))
                .collect()
        });
        // The faster lane: the other may have been scheduled behind something.
        REFERENCE_NOMINAL_MS / times.iter().copied().fold(f64::INFINITY, f64::min)
    }
}
