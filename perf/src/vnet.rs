//! The `vnet_churn` workload: the whole protocol (source emit → wire
//! encode/decode → `ObjectState` push/recode → complaint → `ControlCore`
//! splice → resubscribe) at swarm scale on the deterministic virtual
//! network — one thread, no sockets, zero scheduler noise, and frame and
//! repair counts that repeat exactly at a fixed seed.
//!
//! The scenario is staggered joins, a completion wave, then churn rounds
//! (join a cohort, run a quarter round, kill as many seeded-random live
//! peers, run on) and a final drain, under 2 % frame loss. The same world is
//! run again and again until the time budget is spent. An *operation* is one
//! peer decoding the whole object. `ops_per_s` and `cpu_ms_per_op` are wall
//! clock and CPU: medians over the repeats of each world's own rate and
//! cost, scaled by the host's speed around that repeat ([`sys::Reference`];
//! the detail document keeps the raw times and the speeds). The two latencies are *virtual* network time, which no host noise
//! touches: `lat_p50_ms` is the median simulated join-to-complete time of a
//! peer, `lat_tail_ms` the 95th percentile — the peers whose parent was
//! killed under them and who waited out a stall and a repair.

use std::time::{Duration, Instant};

use curtain_net::transport::vnet::{LinkProfile, VnetConfig, World, WorldStats};
use curtain_overlay::OverlayConfig;
use rand::rngs::StdRng;
use rand::{RngExt as _, SeedableRng};

use crate::report::{numbers, Doc, EndToEnd, Tally};
use crate::stats::{digest_lines, median, quantile};
use crate::sys;
use crate::Scale;

/// Virtual microseconds between staggered joins.
const JOIN_STAGGER_US: u64 = 200;
/// Virtual length of one churn round.
const ROUND_GAP_US: u64 = 50_000;
/// Drain budget for a completion wave, in virtual microseconds.
const DRAIN_DEADLINE_US: u64 = 240_000_000;
const LOSS: f64 = 0.02;
const SETUPS_PER_WORLD: usize = 8;

#[derive(Debug, Clone, Copy)]
pub struct VnetParams {
    pub overlay: (usize, usize),
    pub generations: usize,
    pub generation_size: usize,
    pub packet_len: usize,
    pub peers: usize,
    pub churn_rounds: usize,
    pub cohort: usize,
    pub scale: Scale,
}

impl VnetParams {
    pub fn churn(scale: Scale) -> Self {
        let base = VnetParams {
            overlay: (16, 3),
            generations: 8,
            generation_size: 32,
            packet_len: 1024,
            peers: 256,
            churn_rounds: 4,
            cohort: 32,
            scale,
        };
        match scale {
            Scale::Full => base,
            Scale::Smoke => {
                VnetParams { generations: 2, peers: 24, churn_rounds: 2, cohort: 4, ..base }
            }
        }
    }

    /// The same scenario at another packet shape (the traced run of another
    /// workload drives the vnet at that workload's `(g, s)`).
    pub fn with_shape(self, generation_size: usize, packet_len: usize) -> Self {
        VnetParams { generation_size, packet_len, ..self }
    }

    pub fn object_len(&self) -> usize {
        self.generations * self.generation_size * self.packet_len
    }
}

/// What one run of the world measured. Everything but the two wall-clock
/// fields is a pure function of `(params, seed)`.
#[derive(Debug, Clone)]
pub struct WorldRun {
    /// Every set-up performed for this repeat (the last one's world ran).
    pub setup_s: Vec<f64>,
    pub wall_s: f64,
    pub cpu_s: f64,
    /// The host's speed around this repeat ([`sys::Reference`]); wall-clock
    /// and CPU figures are multiplied by it.
    pub host_speed: f64,
    pub stats: WorldStats,
    pub journal_digest: u64,
    pub defect_p: f64,
    pub virtual_ms: f64,
    /// Virtual join-to-complete times, in milliseconds.
    pub virtual_ttc_ms: Vec<f64>,
    pub join_us: Vec<f64>,
    pub kill_us: Vec<f64>,
}

fn content(seed: u64, len: usize) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0B1E_C7A1);
    let mut bytes = vec![0u8; len];
    rng.fill(&mut bytes[..]);
    bytes
}

fn timed_join(world: &mut World, join_us: &mut Vec<f64>) {
    let t = Instant::now();
    world.join_peer();
    join_us.push(t.elapsed().as_secs_f64() * 1e6);
    world.run_for(JOIN_STAGGER_US);
}

/// Per-peer virtual time to complete, read back from the journal's
/// `t=<µs> join node=<n> ...` and `t=<µs> complete node=<n>` lines.
fn virtual_ttc_ms(journal: &[String]) -> Vec<f64> {
    use std::collections::BTreeMap;
    let mut joined: BTreeMap<&str, u64> = BTreeMap::new();
    let mut out = Vec::new();
    for line in journal {
        let mut words = line.split(' ');
        let (Some(t), Some(verb), Some(node)) = (words.next(), words.next(), words.next()) else {
            continue;
        };
        let Some(t) = t.strip_prefix("t=").and_then(|t| t.parse::<u64>().ok()) else {
            continue;
        };
        match verb {
            "join" => {
                joined.insert(node, t);
            }
            "complete" => {
                if let Some(t0) = joined.get(node) {
                    out.push((t - t0) as f64 / 1e3);
                }
            }
            _ => {}
        }
    }
    out
}

/// Builds the world from `(params, seed)`, runs the churn scenario, checks
/// the survivors and returns the measurements.
pub fn run_world(params: &VnetParams, seed: u64, tally: &mut Tally) -> WorldRun {
    // Set-up is a fraction of a millisecond here, so it is done several
    // times per repeat to give its median something to stand on.
    let mut setup_s = Vec::with_capacity(SETUPS_PER_WORLD);
    let mut built = None;
    for _ in 0..SETUPS_PER_WORLD {
        let t_setup = Instant::now();
        let data = content(seed, params.object_len());
        let cfg = VnetConfig {
            overlay: OverlayConfig::new(params.overlay.0, params.overlay.1),
            generations: params.generations,
            generation_size: params.generation_size,
            packet_len: params.packet_len,
            ..VnetConfig::default()
        };
        let mut world = World::new(seed, cfg, &data);
        world.set_default_link(LinkProfile { loss: LOSS, ..LinkProfile::default() });
        setup_s.push(t_setup.elapsed().as_secs_f64());
        built = Some((world, data));
    }
    let (mut world, data) = built.expect("at least one set-up ran");

    let cpu0 = sys::cpu_seconds();
    let t0 = Instant::now();
    let (mut join_us, mut kill_us) = (Vec::new(), Vec::new());
    for _ in 0..params.peers {
        timed_join(&mut world, &mut join_us);
    }
    let wave = world.run_until_all_complete(world.clock_us() + DRAIN_DEADLINE_US);
    tally.check(wave, || "vnet: the initial wave did not complete".to_string());

    // Scenario decisions draw from their own stream, so the world's own
    // randomness (loss samples, backoff jitter) cannot shift who is killed.
    let mut scenario = StdRng::seed_from_u64(seed ^ 0x00C4_0E22);
    let before = world.defect_report();
    for _ in 0..params.churn_rounds {
        for _ in 0..params.cohort {
            timed_join(&mut world, &mut join_us);
        }
        world.run_for(ROUND_GAP_US / 4);
        for _ in 0..params.cohort {
            let pool = world.alive_nodes();
            let (victim, _) = pool[scenario.random_range(0..pool.len())];
            let t = Instant::now();
            world.kill_peer(victim);
            kill_us.push(t.elapsed().as_secs_f64() * 1e6);
        }
        world.run_for(3 * ROUND_GAP_US / 4);
    }
    let defect_p = world.defect_report().since(&before).probability();
    let drained = world.run_until_all_complete(world.clock_us() + DRAIN_DEADLINE_US);
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = sys::cpu_seconds() - cpu0;

    let stats = world.stats();
    tally.check(drained, || "vnet: survivors did not all complete".to_string());
    tally.check(stats.gave_up == 0, || format!("vnet: {} repair episodes gave up", stats.gave_up));
    for (node, complete) in world.alive_nodes() {
        if complete && world.decoded_content(node).as_deref() == Some(&data[..]) {
            tally.ok(1);
        } else {
            tally.fail(format!("vnet: survivor {node} incomplete or decoded different bytes"));
        }
    }

    WorldRun {
        setup_s,
        wall_s,
        cpu_s,
        host_speed: 1.0, // the caller measures it again after the repeat
        stats,
        journal_digest: digest_lines(world.journal()),
        defect_p,
        virtual_ms: world.clock_us() as f64 / 1e3,
        virtual_ttc_ms: virtual_ttc_ms(world.journal()),
        join_us,
        kill_us,
    }
}

/// The repeats of one run: the same world, again and again.
#[derive(Debug, Default)]
pub struct VnetRun {
    pub worlds: Vec<WorldRun>,
    pub tally: Tally,
}

impl VnetRun {
    /// Wall-clock seconds spent inside worlds, as the clock read them.
    fn raw_wall_s(&self) -> f64 {
        self.worlds.iter().map(|w| w.wall_s).sum()
    }

    /// Wall time of every repeat at reference host speed, in ms.
    fn world_ms(&self) -> Vec<f64> {
        self.worlds.iter().map(|w| w.wall_s * w.host_speed * 1e3).collect()
    }

    /// Median over the repeats of deliveries per wall-clock second.
    pub fn ops_per_s(&self) -> f64 {
        let rate = |w: &WorldRun| w.stats.completed as f64 / (w.wall_s * w.host_speed);
        median(&self.worlds.iter().map(rate).collect::<Vec<_>>())
    }

    /// Median over the repeats of CPU milliseconds per delivery.
    fn cpu_ms_per_op(&self) -> f64 {
        let per_op = |w: &WorldRun| w.cpu_s * w.host_speed * 1e3 / w.stats.completed.max(1) as f64;
        median(&self.worlds.iter().map(per_op).collect::<Vec<_>>())
    }

    pub fn end_to_end(&self) -> EndToEnd {
        let setups: Vec<f64> =
            self.worlds.iter().flat_map(|w| w.setup_s.iter().map(|s| s * w.host_speed)).collect();
        // Every repeat reproduces the first one's virtual times exactly.
        let ttc = &self.worlds[0].virtual_ttc_ms;
        EndToEnd {
            setup_s: median(&setups),
            ops_per_s: self.ops_per_s(),
            lat_p50_ms: median(ttc),
            lat_tail_ms: quantile(ttc, 0.95),
            cpu_ms_per_op: self.cpu_ms_per_op(),
            peak_rss_mib: sys::peak_rss_mib(),
        }
    }

    pub fn detail(&self, params: &VnetParams) -> Doc {
        let object_mib = params.object_len() as f64 / (1 << 20) as f64;
        let first = &self.worlds[0];
        Doc::new()
            .int("world_repeats", self.worlds.len() as u64)
            .num("goodput_mib_s", self.ops_per_s() * object_mib)
            .num("cpu_s_per_gib", self.cpu_ms_per_op() / 1e3 / (object_mib / 1024.0))
            .int("virtual_ttc_samples", first.virtual_ttc_ms.len() as u64)
            .num("session_p50_ms", median(&self.world_ms()))
            .int("frames_delivered", first.stats.frames_delivered)
            .int("frames_lost", first.stats.frames_lost)
            .int("repairs", first.stats.repairs)
            .int("resyncs", first.stats.resyncs)
            .int("gave_up", first.stats.gave_up)
            .int("completed", first.stats.completed)
            .text("journal_digest", format!("{:016x}", first.journal_digest))
            .num("virtual_ms", first.virtual_ms)
            .int("peers", params.peers as u64)
            .int("object_bytes", params.object_len() as u64)
            .put(
                "raw_world_ms",
                numbers(&self.worlds.iter().map(|w| w.wall_s * 1e3).collect::<Vec<_>>()),
            )
            .put(
                "host_speed",
                numbers(&self.worlds.iter().map(|w| w.host_speed).collect::<Vec<_>>()),
            )
            .text("network", "virtual (no sockets)")
    }
}

/// Repeats the world until `budget` of wall time has been spent inside it
/// (at least `min_repeats` times). Every repeat must reproduce the first
/// one's counts and journal exactly.
pub fn run(params: &VnetParams, seed: u64, budget: Duration, min_repeats: usize) -> VnetRun {
    let mut run = VnetRun::default();
    let mut reference = sys::Reference::new(params.scale);
    let mut before = reference.host_speed();
    while run.worlds.len() < min_repeats || run.raw_wall_s() < budget.as_secs_f64() {
        let mut world = run_world(params, seed, &mut run.tally);
        let after = reference.host_speed();
        world.host_speed = (before + after) / 2.0;
        before = after;
        if let Some(first) = run.worlds.first() {
            let same = first.stats == world.stats && first.journal_digest == world.journal_digest;
            run.tally.check(same, || "vnet: a repeat at the same seed diverged".to_string());
        }
        run.worlds.push(world);
    }
    run
}
