//! E22 measurement core — vnet churn soak at scale: the paper's
//! N-independence claim, measured in one OS process.
//!
//! Theorem 4's punchline is that the steady-state defect probability —
//! the fraction of subscription-time a node spends cut off from the
//! source along one of its threads — depends on the churn *rate* and
//! the repair time, never on the swarm size `N`. No TCP harness can
//! check that at interesting `N`: a thousand socket-holding peers is a
//! thousand threads of scheduler noise. The vnet transport
//! ([`curtain_net::transport::vnet`]) runs the same sans-io peer and
//! coordinator state machines on a virtual clock instead, so one
//! process hosts the whole swarm and the measurement is deterministic
//! in `(params, seed)` — byte-identical journals on every rerun.
//!
//! One cell = [`churn_soak`]: join `peers` staggered, wait for the
//! initial completion wave, then run churn rounds. Each round admits a
//! cohort of fresh joiners, lets them get mid-transfer, and takes
//! `churn_frac · peers` random live peers out — `leave_frac` of them
//! with a good-bye (the coordinator splices their parents to their
//! children first), the rest by crash. The joiners are the
//! measured population, since completed peers owe nothing and accrue
//! neither subscription-time nor defect-time. The defect reading
//! brackets exactly the churn window; repairs (stall → complaint →
//! redirect) run through the coordinator like they would over sockets.
//!
//! [`replay_identical`] runs the same cell twice and compares journal
//! digests — the determinism gate CI's `vnet-scale` job rides on.

use curtain_net::transport::vnet::{LinkProfile, VnetConfig, World};
use curtain_net::RepairPolicy;
use curtain_overlay::OverlayConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

/// Virtual microseconds between staggered joins (initial wave and
/// churn cohorts alike): peers arrive over time, not in one burst.
const JOIN_STAGGER_US: u64 = 200;

/// Virtual length of one churn round: joiners run a quarter of it
/// before the kills land, then the rest is repair-and-finish time.
const ROUND_GAP_US: u64 = 50_000;

/// Drain budget for a completion wave, in virtual microseconds.
const DRAIN_DEADLINE_US: u64 = 240_000_000;

/// One churn-soak cell.
#[derive(Debug, Clone)]
pub struct ChurnParams {
    /// Swarm size `N` — the axis the defect probability must ignore.
    pub peers: usize,
    /// Overlay threads per object (`k`).
    pub fanout: usize,
    /// Parents per node (`d`).
    pub reserve: usize,
    /// Churn rounds after the initial completion wave.
    pub churn_rounds: usize,
    /// Fraction of `peers` joined *and* departing per round (size-coupled
    /// churn: the per-node failure exposure stays constant across `N`).
    pub churn_frac: f64,
    /// Share of each round's departures that say good-bye instead of
    /// crashing; the scenario stream decides which. At `0.0` every
    /// departure is a kill and the stream is not consulted.
    pub leave_frac: f64,
    /// Independent per-frame loss probability on every link.
    pub loss: f64,
}

/// What one soak measured.
#[derive(Debug, Clone, Copy)]
pub struct ChurnOutcome {
    /// Defect probability over the churn window: defect-time divided by
    /// subscription-time, in-transfer peers only.
    pub defect_p: f64,
    /// Successful repair episodes (complaint answered by a redirect).
    pub repairs: u64,
    /// Resync readmissions (complaints that hit an unknowing coordinator).
    pub resyncs: u64,
    /// Repair episodes that exhausted their deadline. The claim gate
    /// wants zero: give-ups are the collapse the paper's bound excludes.
    pub gave_up: u64,
    /// Frames dropped by link loss.
    pub frames_lost: u64,
    /// Departures that said good-bye. A round joins and takes out one
    /// cohort, so the rest of `churn_rounds · cohort` crashed.
    pub leaves: u64,
    /// True when every surviving peer decoded the object by the final
    /// drain deadline.
    pub all_complete: bool,
    /// Peers that reported completion over the soak's whole life.
    pub completed: u64,
    /// Virtual time the soak covered, in milliseconds.
    pub virtual_ms: f64,
    /// FNV-1a digest of the world's event journal — the determinism
    /// fingerprint.
    pub journal_digest: u64,
}

fn pattern(len: usize) -> Vec<u8> {
    (0..len).map(|i| (i.wrapping_mul(131).wrapping_add(7) % 256) as u8).collect()
}

fn vnet_config(params: &ChurnParams) -> VnetConfig {
    VnetConfig {
        overlay: OverlayConfig::new(params.fanout, params.reserve),
        // 64 innovations per peer: slow enough that a churn-round kill
        // lands mid-transfer and the stall detector participates, fast
        // enough that a round's cohort finishes within the round.
        generations: 4,
        generation_size: 16,
        policy: RepairPolicy {
            stall_timeout: Duration::from_millis(20),
            max_backoff: Duration::from_millis(100),
            ..VnetConfig::default().policy
        },
        ..VnetConfig::default()
    }
}

fn fnv1a(journal: &[String]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for line in journal {
        for &byte in line.as_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        hash ^= u64::from(b'\n');
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Runs one churn soak. Deterministic in `(params, seed)`.
#[must_use]
pub fn churn_soak(params: &ChurnParams, seed: u64) -> ChurnOutcome {
    churn_soak_with_journal(params, seed).0
}

/// [`churn_soak`], also returning the world's full event journal — what
/// CI's `vnet-scale` job writes to disk twice and byte-diffs.
#[must_use]
pub fn churn_soak_with_journal(params: &ChurnParams, seed: u64) -> (ChurnOutcome, Vec<String>) {
    let cfg = vnet_config(params);
    let content = pattern(cfg.generations * cfg.generation_size * cfg.packet_len);
    let mut world = World::new(seed, cfg, &content);
    world.set_default_link(LinkProfile { loss: params.loss, ..LinkProfile::default() });

    // Initial wave: everyone joins staggered, everyone completes.
    for _ in 0..params.peers {
        world.join_peer();
        world.run_for(JOIN_STAGGER_US);
    }
    world.run_until_all_complete(world.clock_us() + DRAIN_DEADLINE_US);

    // Scenario decisions draw from their own stream, so the world's
    // internal randomness (loss samples, backoff jitter) cannot shift
    // which peers the scenario kills.
    let mut scenario = StdRng::seed_from_u64(seed ^ 0xE22C);
    let cohort = ((params.peers as f64 * params.churn_frac).round() as usize).max(1);
    let mut leaves = 0;
    let start = world.defect_report();
    for _ in 0..params.churn_rounds {
        for _ in 0..cohort {
            world.join_peer();
            world.run_for(JOIN_STAGGER_US);
        }
        world.run_for(ROUND_GAP_US / 4);
        // Departures land while the cohort is mid-transfer. Victims are
        // uniform over the live swarm — mostly completed peers, some of
        // them parents of in-transfer joiners: those links go dark and
        // must heal through stall → complaint → redirect, whether the
        // coordinator heard a good-bye first or learns from the complaint.
        for _ in 0..cohort {
            let pool = world.alive_nodes();
            let (victim, _) = pool[scenario.random_range(0..pool.len())];
            if params.leave_frac > 0.0 && scenario.random::<f64>() < params.leave_frac {
                world.leave_peer(victim);
                leaves += 1;
            } else {
                world.kill_peer(victim);
            }
        }
        world.run_for(3 * ROUND_GAP_US / 4);
    }
    let window = world.defect_report().since(&start);

    let all_complete = world.run_until_all_complete(world.clock_us() + DRAIN_DEADLINE_US);
    let stats = world.stats();
    let outcome = ChurnOutcome {
        defect_p: window.probability(),
        repairs: stats.repairs,
        resyncs: stats.resyncs,
        gave_up: stats.gave_up,
        frames_lost: stats.frames_lost,
        leaves,
        all_complete,
        completed: stats.completed,
        virtual_ms: world.clock_us() as f64 / 1_000.0,
        journal_digest: fnv1a(world.journal()),
    };
    (outcome, world.journal().to_vec())
}

/// Runs the same cell twice and reports whether the two journals are
/// byte-identical — the vnet's determinism contract.
#[must_use]
pub fn replay_identical(params: &ChurnParams, seed: u64) -> bool {
    let first = churn_soak(params, seed);
    let second = churn_soak(params, seed);
    first.journal_digest == second.journal_digest
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(churn_rounds: usize) -> ChurnParams {
        ChurnParams {
            peers: 24,
            fanout: 8,
            reserve: 2,
            churn_rounds,
            churn_frac: 0.1,
            leave_frac: 0.0,
            loss: 0.01,
        }
    }

    /// Whether a kill lands on the parent of a peer still in transfer
    /// depends on the scenario and coefficient streams, so "churn leaves a
    /// defect trace" is stated over a seed range: every world must heal
    /// and lose frames, and over the range some defect time must show —
    /// with every departure a kill, and with half of them polite.
    #[test]
    fn churn_produces_defects_that_heal_without_give_ups() {
        for leave_frac in [0.0, 0.5] {
            let params = ChurnParams { leave_frac, ..small(2) };
            let (mut defect_p, mut leaves) = (0.0, 0);
            for seed in 0..8 {
                let out = churn_soak(&params, seed);
                assert!(out.all_complete, "seed {seed}: {out:?}");
                assert_eq!(out.gave_up, 0, "seed {seed}: {out:?}");
                assert!(out.defect_p < 1.0, "seed {seed}: {out:?}");
                assert!(out.frames_lost > 0, "seed {seed}: 1% loss dropped nothing: {out:?}");
                assert!(
                    out.completed as usize >= 24,
                    "seed {seed}: initial wave never completed: {out:?}"
                );
                defect_p += out.defect_p;
                leaves += out.leaves;
            }
            assert!(defect_p > 0.0, "leave_frac {leave_frac}: churn left no defect trace");
            assert_eq!(leaves > 0, leave_frac > 0.0, "leave_frac {leave_frac}: {leaves} leaves");
        }
    }

    /// `leave_frac: 0.0` takes the path a cell took before
    /// [`World::leave_peer`] existed: every departure is a kill and the
    /// journal holds no good-bye. Stated without a pinned digest, so it
    /// holds under any generator; that the `kill_peer` refactor moved no
    /// line is the benchmark's `vnet_churn --seed 1` digest to show.
    #[test]
    fn leave_frac_zero_says_no_goodbye() {
        let (out, journal) = churn_soak_with_journal(&small(2), 1);
        assert_eq!(out.leaves, 0);
        assert_eq!(journal.iter().filter(|line| line.contains(" kill node=")).count(), 4);
        assert!(!journal.iter().any(|line| line.contains(" leave node=")));
        assert!(replay_identical(&small(2), 1));
    }

    #[test]
    fn no_churn_means_no_defect() {
        let out = churn_soak(&small(0), 7);
        assert!(out.all_complete, "{out:?}");
        assert_eq!(out.gave_up, 0, "{out:?}");
        assert_eq!(out.defect_p, 0.0, "defect without churn: {out:?}");
    }

    #[test]
    fn same_seed_replays_identically_and_seeds_diverge() {
        assert!(replay_identical(&small(1), 11));
        let a = churn_soak(&small(1), 11);
        let b = churn_soak(&small(1), 13);
        assert_ne!(a.journal_digest, b.journal_digest);
    }
}
