//! The repair policy and the one repair episode both drivers run.
//!
//! The paper's robustness argument (Theorem 4) assumes every thread
//! defect is *transient*: a child complains, the coordinator splices, and
//! connectivity returns within one repair interval. Over real sockets
//! that only holds if the complaint loop itself survives transient
//! failures — a coordinator call timing out, a replacement parent dying
//! before the resubscribe lands, a flapping link. [`RepairPolicy`]
//! centralizes the knobs:
//!
//! * **Backoff** — complaint attempts within one episode are spaced by
//!   exponential backoff with jitter (one shared [`Backoff`] schedule),
//!   so a herd of orphaned children does not synchronize against the
//!   coordinator.
//! * **Deadline** — an episode retries until [`RepairPolicy::deadline`]
//!   elapses, then gives up *observably* (a `RepairGaveUp` event, never a
//!   silent thread death).
//! * **Sliding-window budget** — episodes are admitted against a budget
//!   of [`RepairPolicy::window_budget`] per [`RepairPolicy::window`],
//!   replacing the old lifetime cap (`MAX_REPAIRS = 32`) that permanently
//!   orphaned a thread after 32 churn events *even when every repair
//!   succeeded*. Old episodes expire out of the window, so a long-lived
//!   peer can repair indefinitely; only a runaway flap exhausts it.
//! * **Stall detection** — a parent that stays connected but sends
//!   nothing for [`RepairPolicy::stall_timeout`] is treated as dead, so
//!   partitions (not just closed sockets) trigger repair.
//!
//! [`Episode`] is the complaint loop itself and the only place in the
//! crate that decides these things: budget admission, the attempt count,
//! which backoff comes next, the deadline comparison, what a complaint's
//! [`Reply`] leads to, and the give-up verdict. Time is an explicit
//! microsecond counter (as in [`super::peer::LinkLiveness`]) and
//! randomness the caller's RNG — no sockets, no sleeping — so the
//! blocking TCP loop and the virtual-clock vnet scheduler feed the same
//! episode instead of each running a copy.

use std::collections::VecDeque;
use std::time::Duration;

use rand::Rng;

use super::backoff::Backoff;
use super::ctrl::{CtrlParent, Reply};

fn micros(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

/// Tuning for the complaint/repair loop of one peer.
///
/// The default is production-shaped: 10 ms initial backoff doubling to
/// 1 s, an 8 s per-episode deadline, 32 episodes per 10 s sliding window,
/// and a 3 s stall timeout. Tests compress or relax these freely.
#[derive(Debug, Clone)]
pub struct RepairPolicy {
    /// Backoff before the first complaint attempt of an episode.
    pub initial_backoff: Duration,
    /// Cap on the per-attempt backoff as it doubles.
    pub max_backoff: Duration,
    /// Jitter fraction: each backoff is scaled by a uniform factor in
    /// `[1 - jitter, 1 + jitter]`. Clamped to `[0, 1]`.
    pub jitter: f64,
    /// Total time an episode keeps retrying complaints before giving up.
    pub deadline: Duration,
    /// Width of the sliding window the episode budget counts against.
    pub window: Duration,
    /// Maximum repair episodes admitted per `window`; `0` disables
    /// repair entirely (every defect is immediately permanent).
    pub window_budget: usize,
    /// How long a connected parent may send nothing before the thread
    /// treats the link as dead and complains.
    pub stall_timeout: Duration,
}

impl Default for RepairPolicy {
    fn default() -> Self {
        RepairPolicy {
            initial_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_secs(1),
            jitter: 0.25,
            deadline: Duration::from_secs(8),
            window: Duration::from_secs(10),
            window_budget: 32,
            stall_timeout: Duration::from_secs(3),
        }
    }
}

impl RepairPolicy {
    /// This policy's complaint-spacing schedule as a [`Backoff`].
    #[must_use]
    pub fn backoff_schedule(&self) -> Backoff {
        Backoff::new(self.initial_backoff, self.max_backoff).with_jitter(self.jitter)
    }

    /// The jittered backoff before attempt `attempt` (0-based): the base
    /// doubles per attempt up to [`RepairPolicy::max_backoff`], then a
    /// uniform `[1 - jitter, 1 + jitter]` factor is applied.
    pub fn backoff<R: Rng + ?Sized>(&self, attempt: u32, rng: &mut R) -> Duration {
        self.backoff_schedule().delay(attempt, rng)
    }
}

/// Sliding-window admission for repair episodes.
///
/// Each admitted episode records its start; entries older than the window
/// expire. An episode is denied only when `window_budget` episodes
/// already started within the last `window` — the "thrashing" signal the
/// old lifetime cap was a blunt proxy for.
#[derive(Debug)]
pub struct RepairBudget {
    window_us: u64,
    budget: usize,
    episodes: VecDeque<u64>,
}

impl RepairBudget {
    /// An empty budget tracker for `policy`.
    #[must_use]
    pub fn new(policy: &RepairPolicy) -> Self {
        RepairBudget {
            window_us: micros(policy.window),
            budget: policy.window_budget,
            episodes: VecDeque::new(),
        }
    }

    /// Tries to admit an episode starting at `now_us`; returns whether it
    /// is within budget (and records it if so).
    pub fn admit(&mut self, now_us: u64) -> bool {
        self.expire(now_us);
        if self.episodes.len() >= self.budget {
            return false;
        }
        self.episodes.push_back(now_us);
        true
    }

    /// Episodes currently inside the window as of `now_us`.
    pub fn in_window(&mut self, now_us: u64) -> usize {
        self.expire(now_us);
        self.episodes.len()
    }

    fn expire(&mut self, now_us: u64) {
        while let Some(&front) = self.episodes.front() {
            if now_us.saturating_sub(front) >= self.window_us {
                self.episodes.pop_front();
            } else {
                break;
            }
        }
    }
}

/// What the driver does next for a running [`Episode`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step<A> {
    /// Upload this peer's row first when `resync` (the coordinator forgot
    /// the child), wait `after`, send complaint number `attempt`, and
    /// feed its outcome to [`Episode::on_reply`].
    Complain {
        /// Backoff before the complaint.
        after: Duration,
        /// 1-based number of the complaint to send.
        attempt: u32,
        /// Whether a resync precedes the wait.
        resync: bool,
    },
    /// Repaired: subscribe to `parent`. `attempts` complaints were sent.
    Resubscribe {
        /// The spliced-in parent.
        parent: CtrlParent<A>,
        /// Complaints sent this episode.
        attempts: u32,
    },
    /// The policy is exhausted — denied by the budget (`attempts == 0`)
    /// or past the deadline — and the thread is permanently dead.
    GiveUp {
        /// Complaints sent this episode.
        attempts: u32,
    },
}

/// One repair episode of one upstream thread. Dropping it cancels the
/// episode (the vnet does so when frames flow again on their own).
#[derive(Debug)]
pub struct Episode {
    backoff: Backoff,
    give_up_at_us: u64,
    attempts: u32,
}

impl Episode {
    /// Opens an episode at `now_us`: admitted against `budget` (a denial
    /// draws nothing from `rng`), then the first complaint is due after
    /// `backoff(0)`.
    pub fn open<A, R: Rng + ?Sized>(
        policy: &RepairPolicy,
        budget: &mut RepairBudget,
        now_us: u64,
        rng: &mut R,
    ) -> (Episode, Step<A>) {
        let episode = Episode {
            backoff: policy.backoff_schedule(),
            give_up_at_us: now_us.saturating_add(micros(policy.deadline)),
            attempts: 0,
        };
        let step = if budget.admit(now_us) {
            episode.complain(false, rng)
        } else {
            Step::GiveUp { attempts: 0 }
        };
        (episode, step)
    }

    /// Books the outcome of the complaint just sent. A redirect ends the
    /// episode; anything else — amnesia, a timeout, a transient error —
    /// is retried after `backoff(attempts)` until the deadline, because
    /// one lost control packet must not orphan the thread.
    pub fn on_reply<A, R: Rng + ?Sized>(
        &mut self,
        reply: Reply<A>,
        now_us: u64,
        rng: &mut R,
    ) -> Step<A> {
        self.attempts += 1;
        match reply {
            Reply::Redirect(parent) => Step::Resubscribe { parent, attempts: self.attempts },
            _ if now_us >= self.give_up_at_us => Step::GiveUp { attempts: self.attempts },
            other => self.complain(matches!(other, Reply::UnknownChild), rng),
        }
    }

    fn complain<A, R: Rng + ?Sized>(&self, resync: bool, rng: &mut R) -> Step<A> {
        Step::Complain {
            after: self.backoff.delay(self.attempts, rng),
            attempt: self.attempts + 1,
            resync,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const MS: u64 = 1_000;
    const SEC: u64 = 1_000_000;

    #[test]
    fn backoff_doubles_and_caps() {
        let policy = RepairPolicy {
            initial_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(160),
            jitter: 0.0,
            ..RepairPolicy::default()
        };
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(policy.backoff(0, &mut rng), Duration::from_millis(10));
        assert_eq!(policy.backoff(1, &mut rng), Duration::from_millis(20));
        assert_eq!(policy.backoff(3, &mut rng), Duration::from_millis(80));
        // Caps at max_backoff, including for absurd attempt counts.
        assert_eq!(policy.backoff(10, &mut rng), Duration::from_millis(160));
        assert_eq!(policy.backoff(1000, &mut rng), Duration::from_millis(160));
    }

    #[test]
    fn backoff_jitter_stays_in_band() {
        let policy = RepairPolicy {
            initial_backoff: Duration::from_millis(100),
            max_backoff: Duration::from_millis(100),
            jitter: 0.25,
            ..RepairPolicy::default()
        };
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..200 {
            let b = policy.backoff(0, &mut rng);
            assert!(
                b >= Duration::from_millis(75) && b <= Duration::from_millis(125),
                "jittered backoff out of band: {b:?}"
            );
        }
    }

    #[test]
    fn budget_denies_only_past_window_rate() {
        let policy = RepairPolicy {
            window: Duration::from_secs(10),
            window_budget: 3,
            ..RepairPolicy::default()
        };
        let mut budget = RepairBudget::new(&policy);
        let t0 = 5 * SEC;
        assert!(budget.admit(t0));
        assert!(budget.admit(t0 + SEC));
        assert!(budget.admit(t0 + 2 * SEC));
        // Fourth within the window: denied.
        assert!(!budget.admit(t0 + 3 * SEC));
        assert_eq!(budget.in_window(t0 + 3 * SEC), 3);
        // Once the first episode ages out, capacity returns — the
        // regression the old lifetime cap failed: repairs spread over
        // time never exhaust the budget.
        assert!(budget.admit(t0 + 10 * SEC));
        assert!(!budget.admit(t0 + 10 * SEC));
    }

    #[test]
    fn budget_survives_many_paced_episodes() {
        // > 32 (the old MAX_REPAIRS lifetime cap) successful episodes,
        // paced slower than the window rate: all admitted.
        let policy =
            RepairPolicy { window: Duration::from_secs(10), window_budget: 4, ..Default::default() };
        let mut budget = RepairBudget::new(&policy);
        let t0 = 5 * SEC;
        for i in 0..100u64 {
            assert!(budget.admit(t0 + 3 * i * SEC), "episode {i} denied");
        }
    }

    #[test]
    fn admission_exactly_at_the_window_edge() {
        // `expire` evicts entries aged *exactly* `window` (`>=`, not `>`):
        // an episode admitted at t0 must free its slot at precisely
        // t0 + window, while one instant earlier still counts against the
        // budget. Off-by-one here silently halves or doubles the
        // effective rate at the boundary.
        let policy = RepairPolicy {
            window: Duration::from_secs(10),
            window_budget: 1,
            ..RepairPolicy::default()
        };
        let mut budget = RepairBudget::new(&policy);
        let t0 = 5 * SEC;
        assert!(budget.admit(t0));
        // One microsecond before the edge: the t0 episode still occupies
        // the only slot.
        let just_inside = t0 + 10 * SEC - 1;
        assert!(!budget.admit(just_inside));
        assert_eq!(budget.in_window(just_inside), 1);
        // Exactly at the edge: the t0 episode has aged out.
        let edge = t0 + 10 * SEC;
        assert_eq!(budget.in_window(edge), 0);
        assert!(budget.admit(edge));
        // And the new admission occupies the window from the edge onward.
        assert!(!budget.admit(edge + SEC));
    }

    #[test]
    fn budget_fully_resets_after_a_quiet_window() {
        // Exhaust the budget, go quiet for one full window, and the
        // tracker must be back at full capacity — no residue from the
        // burst (the property that makes the budget a rate limiter, not a
        // decaying lifetime cap).
        let policy = RepairPolicy {
            window: Duration::from_secs(10),
            window_budget: 3,
            ..RepairPolicy::default()
        };
        let mut budget = RepairBudget::new(&policy);
        let t0 = 5 * SEC;
        for i in 0..3u64 {
            assert!(budget.admit(t0 + 100 * i * MS));
        }
        assert!(!budget.admit(t0 + SEC));
        // Quiet until every burst entry is a full window old.
        let after = t0 + 10 * SEC + 300 * MS;
        assert_eq!(budget.in_window(after), 0);
        for i in 0..3u64 {
            assert!(budget.admit(after + 100 * i * MS), "slot {i} not freed");
        }
        assert!(!budget.admit(after + SEC));
    }

    #[test]
    fn zero_budget_denies_everything() {
        let policy = RepairPolicy { window_budget: 0, ..RepairPolicy::default() };
        let mut budget = RepairBudget::new(&policy);
        assert!(!budget.admit(0));
    }

    fn short_deadline() -> RepairPolicy {
        RepairPolicy { deadline: Duration::from_secs(2), ..RepairPolicy::default() }
    }

    #[test]
    fn a_denied_open_gives_up_with_zero_attempts_and_draws_nothing() {
        let policy = RepairPolicy { window_budget: 0, ..short_deadline() };
        let (mut rng, mut twin) = (StdRng::seed_from_u64(3), StdRng::seed_from_u64(3));
        let mut budget = RepairBudget::new(&policy);
        let (_, step) = Episode::open::<u8, _>(&policy, &mut budget, SEC, &mut rng);
        assert_eq!(step, Step::GiveUp { attempts: 0 });
        assert_eq!(rng.random::<u64>(), twin.random::<u64>(), "admission drew from the RNG");
    }

    #[test]
    fn the_episode_table() {
        use Reply::{Redirect, Unanswered, UnknownChild};
        const T0: u64 = 7 * SEC;
        const DEADLINE: u64 = 2 * SEC;
        let policy = short_deadline();
        let parent = CtrlParent::Source(9u8);
        // Step `i` of an episode is `backoff(i)` before complaint `i + 1`.
        // The expectations draw from a twin of the RNG the episodes use,
        // in the same order, so one stray draw desynchronises every row.
        let (mut rng, mut twin) = (StdRng::seed_from_u64(11), StdRng::seed_from_u64(11));
        let mut complain = |i: u32, resync: bool| Step::Complain {
            after: policy.backoff(i, &mut twin),
            attempt: i + 1,
            resync,
        };
        // (case, replies as (reply, µs since open), every step from open on)
        let table = vec![
            (
                "unanswered complaints back off on the policy schedule",
                (1..=6).map(|i| (Unanswered, i * MS)).collect(),
                (0..7).map(|i| complain(i, false)).collect(),
            ),
            (
                "give-up fires at exactly started + deadline, not one µs earlier",
                vec![(Unanswered, DEADLINE - 1), (Unanswered, DEADLINE)],
                vec![complain(0, false), complain(1, false), Step::GiveUp { attempts: 2 }],
            ),
            (
                "unknown child asks for a resync and keeps the attempt count",
                vec![(UnknownChild, MS), (Unanswered, 2 * MS)],
                vec![complain(0, false), complain(1, true), complain(2, false)],
            ),
            (
                "amnesia past the deadline is still a give-up",
                vec![(UnknownChild, DEADLINE)],
                vec![complain(0, false), Step::GiveUp { attempts: 1 }],
            ),
            (
                "a redirect reports every complaint sent, even past the deadline",
                vec![(Unanswered, MS), (UnknownChild, 2 * MS), (Redirect(parent), DEADLINE + SEC)],
                vec![
                    complain(0, false),
                    complain(1, false),
                    complain(2, true),
                    Step::Resubscribe { parent, attempts: 3 },
                ],
            ),
        ];
        for (case, replies, expected) in table {
            let mut budget = RepairBudget::new(&policy);
            let (mut episode, first) = Episode::open(&policy, &mut budget, T0, &mut rng);
            let mut steps = vec![first];
            for (reply, at) in replies {
                steps.push(episode.on_reply(reply, T0 + at, &mut rng));
            }
            assert_eq!(steps, expected, "{case}");
        }
        assert_eq!(rng.random::<u64>(), twin.random::<u64>(), "stray RNG draw");
    }
}
