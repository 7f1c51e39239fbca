//! The in-process virtual network: thousands of real-protocol peers,
//! one OS process, zero sockets, zero wall clock.
//!
//! The vnet is a deterministic discrete-event simulator that drives the
//! *same* sans-io cores the TCP driver runs — [`ObjectState`] decodes,
//! [`LinkLiveness`] declares stalls, [`Episode`] runs each complaint
//! episode against the link's [`RepairBudget`], and a real
//! [`ControlCore`] (over the virtual address type [`VAddr`]) grants
//! hellos, splices failures, and readmits resyncs. The scheduler only
//! turns what they decide into timer events.
//! Every coded frame really crosses the wire format
//! ([`wire::encode_frame_tagged`] / [`wire::decode_frame_message`]), so
//! a framing bug shows up here before it shows up on a socket.
//!
//! What the simulator replaces is only the *world*: time is a virtual
//! microsecond counter, links have configurable latency / loss /
//! bandwidth ([`LinkProfile`]) plus hard cuts, and all scheduling runs
//! off one seeded RNG through a binary heap whose ties break on
//! insertion order. Two runs of the same scenario at the same seed
//! produce byte-identical journals — the property the `vnet-scale` CI
//! job and the `e22` lab sweep diff on.
//!
//! Departures and faults are first-class: [`World::leave_peer`] is the
//! good-bye (the coordinator splices parents to children before the
//! streams close), [`World::kill_peer`] is a crash (no goodbye —
//! children must detect the stall and repair through the
//! coordinator), [`World::cut_link`] severs one directed edge while
//! both ends stay up, and [`World::coordinator_amnesia`] swaps in a
//! fresh [`ControlCore`] that has never heard of anyone, exercising the
//! unknown-child → resync readmission path at scale.
//!
//! The headline metric is *defect time*: for every (peer, thread)
//! subscription the world integrates the time between a parent's
//! failure (or link cut) and the moment coded frames flow again. The
//! ratio `defect_us / alive_us` is the steady-state defect probability
//! the paper bounds independently of N — what `e22` gates across
//! N ∈ {100, 300, 1000}.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap};
use std::time::Duration;

use curtain_overlay::{NodeId, OverlayConfig, ThreadId};
use curtain_rlnc::pipeline::{ObjectEncoder, Schedule};
use curtain_rlnc::{BufPool, Content};
use curtain_telemetry::SharedRecorder;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::core::coordinator::{ControlCore, CoreOutcome};
use crate::core::ctrl::{CtrlParent, CtrlRequest, CtrlResponse, Reply, WireAddr};
use crate::core::peer::{LinkLiveness, ObjectState, SendLedger};
use crate::core::repair::{Episode, RepairBudget, RepairPolicy, Step};
use crate::core::source;
use crate::core::standby::{FollowDirective, FollowEvent, FollowStep, FollowerCore};
use crate::core::wire;

/// A virtual address: `0` is the source, peers count up from `1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VAddr(pub u32);

/// The source's well-known virtual address.
pub const SOURCE_ADDR: VAddr = VAddr(0);

impl WireAddr for VAddr {
    fn render(&self) -> String {
        format!("v{}", self.0)
    }

    fn parse(s: &str) -> Result<Self, String> {
        s.strip_prefix('v')
            .and_then(|n| n.parse().ok())
            .map(VAddr)
            .ok_or_else(|| format!("bad virtual address {s:?}"))
    }
}

impl std::fmt::Display for VAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// Shaping for one direction of one link (or the world default).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkProfile {
    /// One-way propagation delay in virtual microseconds.
    pub latency_us: u64,
    /// Independent per-frame loss probability in `[0, 1]`.
    pub loss: f64,
    /// Serialization rate in bytes per virtual second; `0` = infinite.
    pub bandwidth_bps: u64,
}

impl Default for LinkProfile {
    fn default() -> Self {
        LinkProfile { latency_us: 500, loss: 0.0, bandwidth_bps: 0 }
    }
}

impl LinkProfile {
    /// Total virtual delay for a frame of `bytes` on this link.
    fn delay_us(&self, bytes: usize) -> u64 {
        // `0` = infinite bandwidth: no serialization delay. Spelled
        // `checked_div` because stable clippy (1.95, `manual_checked_ops`,
        // warn by default) fails CI's `-D warnings` on `if x == 0 {..} else {a / x}`.
        let serialize = (bytes as u64)
            .saturating_mul(1_000_000)
            .checked_div(self.bandwidth_bps)
            .unwrap_or(0);
        self.latency_us.saturating_add(serialize)
    }
}

/// Scenario shape: the overlay geometry, the object, and the pacing.
#[derive(Debug, Clone)]
pub struct VnetConfig {
    /// Overlay geometry (`k` threads, `d` threads per node).
    pub overlay: OverlayConfig,
    /// Number of generations the object is split into.
    pub generations: usize,
    /// Packets per generation.
    pub generation_size: usize,
    /// Bytes per packet.
    pub packet_len: usize,
    /// Virtual microseconds between coded frames on one subscription.
    pub pace_us: u64,
    /// The repair policy every peer runs (stall timeout, complaint
    /// backoff, episode deadline).
    pub policy: RepairPolicy,
}

impl Default for VnetConfig {
    fn default() -> Self {
        VnetConfig {
            overlay: OverlayConfig::new(8, 2),
            generations: 2,
            generation_size: 8,
            packet_len: 64,
            pace_us: 2_000,
            policy: RepairPolicy {
                // Virtual time is free: keep the TCP schedule's shape but
                // let episodes resolve within a short soak.
                initial_backoff: Duration::from_millis(10),
                max_backoff: Duration::from_millis(500),
                jitter: 0.25,
                deadline: Duration::from_secs(8),
                window: Duration::from_secs(10),
                window_budget: 32,
                stall_timeout: Duration::from_millis(100),
            },
        }
    }
}

/// One (child, thread) upstream subscription — both ends of it: the
/// child's liveness and repair state, and the parent's [`SendLedger`] for
/// the link (a subscription is the only thing either is keyed by).
#[derive(Debug)]
struct UpLink {
    parent: CtrlParent<VAddr>,
    /// Bumped on every resubscribe; events carrying a stale epoch are
    /// timers from a previous parent and are dropped.
    epoch: u64,
    liveness: LinkLiveness,
    /// What the parent has sent on this subscription and where its
    /// rotation stands: each emission tick carries the next owed
    /// generation, else the plain rotation (the vnet's idle interval is
    /// the link pace). Fresh on every resubscribe — the new parent has
    /// sent nothing yet.
    ledger: SendLedger,
    /// The running repair episode; dropped (cancelled) when frames flow
    /// again on their own.
    repair: Option<Episode>,
    /// Episode admission for this thread, across resubscribes.
    budget: RepairBudget,
    /// When the current defect began (parent died, link cut, or stall
    /// detected) — cleared when frames flow again.
    defect_since: Option<u64>,
    /// A gave-up episode leaves the thread permanently dead.
    dead: bool,
}

/// One simulated peer: a real [`ObjectState`] plus its upstream links.
struct PeerActor {
    node: NodeId,
    state: ObjectState,
    links: BTreeMap<ThreadId, UpLink>,
    joined_at_us: u64,
    /// Set when the object fully decodes. A complete peer's upstream
    /// subscriptions quiesce (production bins leave their parents after
    /// `wait_complete`), but it keeps serving its own children — and it
    /// stops accruing alive/defect time: a peer owed nothing cannot be
    /// defective.
    completed_at_us: Option<u64>,
}

impl PeerActor {
    /// The end of this peer's service interval so far.
    fn served_until(&self, now: u64) -> u64 {
        self.completed_at_us.unwrap_or(now)
    }
}

/// A scheduled event. Orders by `(t_us, seq)`: virtual time first,
/// insertion order as the deterministic tiebreak.
#[derive(Debug, PartialEq, Eq)]
struct QEv {
    t_us: u64,
    seq: u64,
    ev: Ev,
}

impl Ord for QEv {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.t_us, self.seq).cmp(&(other.t_us, other.seq))
    }
}

impl PartialOrd for QEv {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

#[derive(Debug, PartialEq, Eq)]
enum Ev {
    /// A parent owes `child` the next coded frame on a subscription.
    Emit { child: VAddr, thread: ThreadId, epoch: u64 },
    /// An encoded frame arrives at `child` after the link delay.
    Deliver { child: VAddr, thread: ThreadId, epoch: u64, frame: Vec<u8> },
    /// Periodic stall check for one subscription.
    Liveness { child: VAddr, thread: ThreadId, epoch: u64 },
    /// The next complaint attempt of a running repair episode.
    RepairTick { child: VAddr, thread: ThreadId, epoch: u64 },
    /// The standby's next bootstrap/tail poll (see [`World::start_standby`]).
    FollowerPoll { gen: u64 },
}

/// Counters the world accumulates; see [`World::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorldStats {
    /// Coded frames delivered (decoded by a peer's `ObjectState`).
    pub frames_delivered: u64,
    /// Frames dropped by link loss or cuts.
    pub frames_lost: u64,
    /// Repair episodes that ended in a successful resubscribe.
    pub repairs: u64,
    /// Repair episodes that gave up: past their deadline, or denied by
    /// the budget.
    pub gave_up: u64,
    /// Resync readmissions (unknown-child recoveries).
    pub resyncs: u64,
    /// Peers that reported full decode.
    pub completed: u64,
}

/// A defect-time reading at one instant; subtract two to get the
/// defect probability over a window (see [`World::defect_report`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DefectReport {
    /// Integrated (peer, thread) defect time, in-flight defects included.
    pub defect_us: u64,
    /// Integrated (peer, thread) alive time.
    pub alive_us: u64,
}

impl DefectReport {
    /// `defect_us / alive_us` — the steady-state defect probability.
    #[must_use]
    pub fn probability(&self) -> f64 {
        if self.alive_us == 0 {
            0.0
        } else {
            self.defect_us as f64 / self.alive_us as f64
        }
    }

    /// The window between an earlier reading and this one.
    #[must_use]
    pub fn since(&self, earlier: &DefectReport) -> DefectReport {
        DefectReport {
            defect_us: self.defect_us.saturating_sub(earlier.defect_us),
            alive_us: self.alive_us.saturating_sub(earlier.alive_us),
        }
    }
}

/// The virtual world. See the module docs for the model.
pub struct World {
    cfg: VnetConfig,
    clock_us: u64,
    seq: u64,
    queue: BinaryHeap<Reverse<QEv>>,
    rng: StdRng,
    control: ControlCore<VAddr>,
    control_seed: u64,
    /// `false` after [`World::crash_coordinator`] until a standby
    /// promotes: control requests go unanswered.
    coordinator_up: bool,
    /// Commit sequence proxy: bumps per control mutation, feeds the
    /// follower's `Bootstrapped`/`Tailed` events.
    commit_seq: u64,
    follower: Option<FollowerCore>,
    /// Guards stale poll timers after a promote replaces the follower.
    follower_gen: u64,
    content: Vec<u8>,
    encoder: ObjectEncoder,
    peers: BTreeMap<VAddr, PeerActor>,
    /// Peers that died; kept so late events resolve deterministically.
    dead: BTreeSet<VAddr>,
    node_to_addr: BTreeMap<NodeId, VAddr>,
    next_addr: u32,
    default_link: LinkProfile,
    link_overrides: BTreeMap<(VAddr, VAddr), LinkProfile>,
    cuts: BTreeSet<(VAddr, VAddr)>,
    pool: BufPool,
    stats: WorldStats,
    /// Closed defect intervals (completed repairs, healed cuts).
    defect_us_closed: u64,
    /// Closed alive-thread time (links of peers that died).
    alive_us_closed: u64,
    journal: Vec<String>,
}

impl World {
    /// Builds a world, registers the source at [`SOURCE_ADDR`], and
    /// prepares `content` for serving.
    ///
    /// # Panics
    ///
    /// Panics if the control core rejects its own configuration or the
    /// source registration — a scenario bug, not a runtime outcome.
    #[must_use]
    pub fn new(seed: u64, cfg: VnetConfig, content: &[u8]) -> World {
        let split = Content::split(content, cfg.generation_size, cfg.packet_len);
        let generations = split.generations().len();
        assert_eq!(
            generations, cfg.generations,
            "content shape disagrees with VnetConfig.generations"
        );
        let control = ControlCore::new(cfg.overlay, seed ^ 0xC0DE, SharedRecorder::null())
            .expect("overlay config");
        let encoder = ObjectEncoder::new(split).with_schedule(Schedule::RoundRobin);
        let mut world = World {
            cfg,
            clock_us: 0,
            seq: 0,
            queue: BinaryHeap::new(),
            rng: StdRng::seed_from_u64(seed),
            control,
            control_seed: seed ^ 0xC0DE,
            coordinator_up: true,
            commit_seq: 0,
            follower: None,
            follower_gen: 0,
            content: content.to_vec(),
            encoder,
            peers: BTreeMap::new(),
            dead: BTreeSet::new(),
            node_to_addr: BTreeMap::new(),
            next_addr: 1,
            default_link: LinkProfile::default(),
            link_overrides: BTreeMap::new(),
            cuts: BTreeSet::new(),
            pool: BufPool::default(),
            stats: WorldStats::default(),
            defect_us_closed: 0,
            alive_us_closed: 0,
            journal: Vec::new(),
        };
        let outcome = world.control.dispatch(CtrlRequest::RegisterSource {
            data_addr: SOURCE_ADDR,
            generations: world.cfg.generations,
            generation_size: world.cfg.generation_size,
            packet_len: world.cfg.packet_len,
            content_len: content.len(),
        });
        assert!(
            matches!(outcome, CoreOutcome::Done { response: CtrlResponse::Ok, .. }),
            "source registration refused"
        );
        world
    }

    /// Current virtual time in microseconds.
    #[must_use]
    pub fn clock_us(&self) -> u64 {
        self.clock_us
    }

    /// Accumulated counters.
    #[must_use]
    pub fn stats(&self) -> WorldStats {
        self.stats
    }

    /// The deterministic event journal (one line per protocol event,
    /// virtual timestamps only — byte-identical across reruns at the
    /// same seed).
    #[must_use]
    pub fn journal(&self) -> &[String] {
        &self.journal
    }

    /// Sets the default link shaping for every edge without an override.
    pub fn set_default_link(&mut self, profile: LinkProfile) {
        self.default_link = profile;
    }

    /// Overrides shaping for the directed edge `from → to`.
    pub fn shape_link(&mut self, from: VAddr, to: VAddr, profile: LinkProfile) {
        self.link_overrides.insert((from, to), profile);
    }

    /// Severs the directed edge `from → to`: frames sent on it vanish
    /// while both ends stay up. Starts defect accounting for any
    /// subscription riding the edge.
    pub fn cut_link(&mut self, from: VAddr, to: VAddr) {
        if !self.cuts.insert((from, to)) {
            return;
        }
        let now = self.clock_us;
        if let Some(peer) = self.peers.get_mut(&to) {
            if peer.completed_at_us.is_none() {
                for link in peer.links.values_mut() {
                    if link.parent.addr() == from && !link.dead {
                        link.defect_since.get_or_insert(now);
                    }
                }
            }
        }
        self.journal.push(format!("t={now} cut {from}->{to}"));
    }

    /// Restores a previously cut edge. Defect accounting closes when
    /// frames actually flow again, not here.
    pub fn heal_link(&mut self, from: VAddr, to: VAddr) {
        if self.cuts.remove(&(from, to)) {
            self.journal.push(format!("t={} heal {from}->{to}", self.clock_us));
        }
    }

    /// Number of live peers.
    #[must_use]
    pub fn alive(&self) -> usize {
        self.peers.len()
    }

    /// Live peers whose object has fully decoded.
    #[must_use]
    pub fn complete(&self) -> usize {
        self.peers.values().filter(|p| p.state.is_complete()).count()
    }

    /// The decoded object of a live peer, exact to `content_len`.
    #[must_use]
    pub fn decoded_content(&self, node: NodeId) -> Option<Vec<u8>> {
        let addr = self.node_to_addr.get(&node)?;
        let peer = self.peers.get(addr)?;
        let mut bytes: Vec<u8> =
            peer.state.recover_all()?.into_iter().flatten().flatten().collect();
        bytes.truncate(self.content.len());
        Some(bytes)
    }

    /// Live peer nodes in ascending address order, the deterministic
    /// victim pool for scenario churn. `true` in the pair marks a peer
    /// whose object has fully decoded.
    #[must_use]
    pub fn alive_nodes(&self) -> Vec<(NodeId, bool)> {
        self.peers.values().map(|p| (p.node, p.state.is_complete())).collect()
    }

    /// The first live peer (ascending address order) that currently
    /// serves another live peer — the deterministic choice of a victim
    /// whose death forces a repair episode.
    #[must_use]
    pub fn a_serving_peer(&self) -> Option<NodeId> {
        self.peers
            .values()
            .flat_map(|p| p.links.values())
            .filter_map(|l| l.parent.node())
            .filter(|n| self.node_to_addr.contains_key(n))
            .min_by_key(|n| self.node_to_addr[n])
    }

    /// The defect-time reading at the current instant. In-flight
    /// defects and live subscriptions contribute up to `now`, so two
    /// readings bracket a window exactly.
    #[must_use]
    pub fn defect_report(&self) -> DefectReport {
        let now = self.clock_us;
        let mut defect = self.defect_us_closed;
        let mut alive = self.alive_us_closed;
        for peer in self.peers.values() {
            let until = peer.served_until(now);
            for link in peer.links.values() {
                alive += until - peer.joined_at_us;
                if let Some(since) = link.defect_since {
                    defect += until.max(since) - since;
                }
            }
        }
        DefectReport { defect_us: defect, alive_us: alive }
    }

    /// Joins one fresh peer through the hello protocol and schedules
    /// its subscriptions.
    ///
    /// # Panics
    ///
    /// Panics if the hello is refused (no source — a scenario bug).
    pub fn join_peer(&mut self) -> NodeId {
        assert!(self.coordinator_up, "cannot join while the coordinator is down");
        let addr = VAddr(self.next_addr);
        self.next_addr += 1;
        let outcome = self.control.dispatch(CtrlRequest::Hello { data_addr: addr });
        let CoreOutcome::Done {
            response:
                CtrlResponse::Welcome {
                    node, generations, generation_size, packet_len, parents, ..
                },
            ..
        } = outcome
        else {
            panic!("hello refused");
        };
        let now = self.clock_us;
        let mut actor = PeerActor {
            node,
            state: ObjectState::with_pool(
                generations,
                generation_size,
                packet_len,
                self.pool.clone(),
            ),
            links: BTreeMap::new(),
            joined_at_us: now,
            completed_at_us: None,
        };
        let parent_list: Vec<String> =
            parents.iter().map(|(t, p)| format!("{t}:{}", p.addr())).collect();
        for (thread, parent) in parents {
            actor.links.insert(
                thread,
                UpLink {
                    parent,
                    epoch: 0,
                    liveness: LinkLiveness::new(self.cfg.policy.stall_timeout, now),
                    ledger: SendLedger::new(generations),
                    repair: None,
                    budget: RepairBudget::new(&self.cfg.policy),
                    defect_since: None,
                    dead: false,
                },
            );
            self.push_ev(
                now + self.cfg.pace_us,
                Ev::Emit { child: addr, thread, epoch: 0 },
            );
            self.push_ev(
                now + self.stall_us(),
                Ev::Liveness { child: addr, thread, epoch: 0 },
            );
        }
        self.node_to_addr.insert(node, addr);
        self.journal.push(format!(
            "t={now} join node={node} addr={addr} parents=[{}]",
            parent_list.join(",")
        ));
        self.peers.insert(addr, actor);
        node
    }

    /// Crashes a peer: no goodbye, its subscriptions just go silent.
    /// Children detect the stall and repair through the coordinator;
    /// the coordinator learns of the death from their complaints.
    pub fn kill_peer(&mut self, node: NodeId) {
        self.depart(node, "kill");
    }

    /// A peer leaves politely: its good-bye splices its parents to its
    /// children in `M` (a crashed coordinator hears nothing, as over
    /// TCP), then its streams close like a crash's do. Children still
    /// notice by stall; their complaint names a node `M` no longer
    /// holds, so the reply is the parent the good-bye already wired.
    pub fn leave_peer(&mut self, node: NodeId) {
        if self.node_to_addr.contains_key(&node) {
            let _ = self.control_dispatch(CtrlRequest::Goodbye { node });
            self.depart(node, "leave");
        }
    }

    /// Takes a peer out of the world, however it went (`how` is the
    /// journal verb): closes its books and starts its children's defect
    /// clocks.
    fn depart(&mut self, node: NodeId, how: &str) {
        let Some(addr) = self.node_to_addr.remove(&node) else { return };
        let Some(actor) = self.peers.remove(&addr) else { return };
        let now = self.clock_us;
        // Close the actor's own books: alive time for every link up to
        // completion (or departure), plus any defect still open.
        let until = actor.served_until(now);
        for link in actor.links.values() {
            self.alive_us_closed += until - actor.joined_at_us;
            if let Some(since) = link.defect_since {
                self.defect_us_closed += until.max(since) - since;
            }
        }
        self.dead.insert(addr);
        // Incomplete children subscribed to the departed start their
        // defect clock at the moment it went, even though they only
        // notice at the next stall check.
        for peer in self.peers.values_mut() {
            if peer.completed_at_us.is_some() {
                continue;
            }
            for link in peer.links.values_mut() {
                if link.parent.addr() == addr && !link.dead {
                    link.defect_since.get_or_insert(now);
                }
            }
        }
        self.journal.push(format!("t={now} {how} node={node} addr={addr}"));
    }

    /// Dispatches one control request; `None` while the coordinator is
    /// down (a crashed control plane answers nothing). Successful
    /// mutations advance the commit sequence the standby tails.
    fn control_dispatch(&mut self, request: CtrlRequest<VAddr>) -> Option<CtrlResponse<VAddr>> {
        if !self.coordinator_up {
            return None;
        }
        let CoreOutcome::Done { response, effects } = self.control.dispatch(request) else {
            return None; // durability verbs are the TCP driver's; no peer sends them
        };
        self.commit_seq += effects.len() as u64;
        Some(response)
    }

    /// Attaches a warm standby: a [`FollowerCore`] polled on the
    /// virtual clock. When [`World::crash_coordinator`] silences the
    /// control plane, `fail_threshold` consecutive failed polls promote
    /// the standby — installing a successor core that kept the durable
    /// prefix (the source registration) but lost the un-shipped tail,
    /// so every surviving peer re-enters through the resync path. That
    /// readmission load is exactly what promotion can create at scale.
    pub fn start_standby(&mut self, poll_interval: Duration, fail_threshold: u32) {
        self.follower = Some(FollowerCore::new(poll_interval, fail_threshold));
        self.follower_gen += 1;
        let gen = self.follower_gen;
        self.push_ev(self.clock_us, Ev::FollowerPoll { gen });
        self.journal.push(format!("t={} standby", self.clock_us));
    }

    /// Crashes the coordinator: control requests go unanswered until a
    /// standby (see [`World::start_standby`]) promotes. Repair episodes
    /// keep retrying on their backoff schedule, exactly as the TCP
    /// driver does against a dead control port.
    pub fn crash_coordinator(&mut self) {
        self.coordinator_up = false;
        self.journal.push(format!("t={} coordinator_crash", self.clock_us));
    }

    /// Whether the control plane currently answers.
    #[must_use]
    pub fn coordinator_up(&self) -> bool {
        self.coordinator_up
    }

    fn on_follower_poll(&mut self, gen: u64) {
        if gen != self.follower_gen {
            return;
        }
        let Some(core) = self.follower.as_mut() else { return };
        let event = if self.coordinator_up {
            match core.next_step() {
                FollowStep::Bootstrap => FollowEvent::Bootstrapped { seq: self.commit_seq },
                FollowStep::Tail { .. } => FollowEvent::Tailed { last: self.commit_seq },
            }
        } else {
            FollowEvent::Failed
        };
        match core.on(event) {
            FollowDirective::Continue { sleep } => {
                let t = self.clock_us
                    + u64::try_from(sleep.as_micros()).unwrap_or(u64::MAX).max(1);
                self.push_ev(t, Ev::FollowerPoll { gen });
            }
            FollowDirective::Promote => self.promote_standby(),
        }
    }

    /// Replaces the coordinator with a successor [`ControlCore`] under
    /// the next seed that knows the source registration and none of the
    /// peer rows. `who` names the successor in the panic message.
    fn install_successor_core(&mut self, who: &str) {
        self.control_seed = self.control_seed.wrapping_add(1);
        self.control =
            ControlCore::new(self.cfg.overlay, self.control_seed, SharedRecorder::null())
                .expect("overlay config");
        let outcome = self.control.dispatch(CtrlRequest::RegisterSource {
            data_addr: SOURCE_ADDR,
            generations: self.cfg.generations,
            generation_size: self.cfg.generation_size,
            packet_len: self.cfg.packet_len,
            content_len: self.content.len(),
        });
        assert!(
            matches!(outcome, CoreOutcome::Done { response: CtrlResponse::Ok, .. }),
            "{who} core refused the source registration"
        );
    }

    /// The standby takes over with the durable prefix (source
    /// registration) but none of the peer rows — the worst-case
    /// un-shipped tail. Survivors readmit themselves via resync on their
    /// next complaint.
    fn promote_standby(&mut self) {
        self.follower = None;
        self.follower_gen += 1;
        self.install_successor_core("promoted");
        self.coordinator_up = true;
        self.journal.push(format!("t={} promote", self.clock_us));
    }

    /// Replaces the coordinator with a fresh core that has never heard
    /// of anyone, then re-registers the source (its restart behavior).
    /// Peers discover the amnesia on their next complaint ("unknown
    /// child") and readmit themselves through the resync path.
    ///
    /// # Panics
    ///
    /// Panics if the fresh core refuses the configuration or the
    /// re-registration — a scenario bug.
    pub fn coordinator_amnesia(&mut self) {
        self.install_successor_core("amnesiac");
        self.journal.push(format!("t={} amnesia", self.clock_us));
    }

    /// Runs the event loop for `dur_us` of virtual time.
    pub fn run_for(&mut self, dur_us: u64) {
        self.run_until(self.clock_us + dur_us);
    }

    /// Runs the event loop until the virtual clock reaches `t_us`.
    pub fn run_until(&mut self, t_us: u64) {
        while let Some(Reverse(head)) = self.queue.peek() {
            if head.t_us > t_us {
                break;
            }
            let Some(Reverse(ev)) = self.queue.pop() else { break };
            self.clock_us = ev.t_us;
            self.handle(ev.ev);
        }
        self.clock_us = t_us;
    }

    /// Runs until every live peer decoded the object or the virtual
    /// clock hits `deadline_us`; returns whether all completed.
    pub fn run_until_all_complete(&mut self, deadline_us: u64) -> bool {
        while self.clock_us < deadline_us {
            if self.peers.values().all(|p| p.state.is_complete()) {
                return true;
            }
            let step = (deadline_us - self.clock_us).min(10 * self.cfg.pace_us);
            self.run_for(step);
        }
        self.peers.values().all(|p| p.state.is_complete())
    }

    fn stall_us(&self) -> u64 {
        u64::try_from(self.cfg.policy.stall_timeout.as_micros()).unwrap_or(u64::MAX)
    }

    fn push_ev(&mut self, t_us: u64, ev: Ev) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Reverse(QEv { t_us, seq, ev }));
    }

    fn profile(&self, from: VAddr, to: VAddr) -> LinkProfile {
        self.link_overrides.get(&(from, to)).copied().unwrap_or(self.default_link)
    }

    /// The generation `parent` sends next on the (child, thread) link —
    /// booked on the link's ledger if it was owed — or `None` when the
    /// parent has nothing to serve yet (rank 0).
    fn pick_generation(
        &mut self,
        child: VAddr,
        thread: ThreadId,
        parent: &CtrlParent<VAddr>,
    ) -> Option<usize> {
        // The ledger sits in the child's actor and the ranks in the
        // parent's: lift the ledger out while both are in hand.
        let mut ledger = std::mem::replace(self.ledger_mut(child, thread), SendLedger::new(0));
        let pick = match parent {
            CtrlParent::Source(_) => source::pick(&mut ledger, self.cfg.generation_size, true),
            CtrlParent::Node(_, addr) => {
                self.peers.get(addr).and_then(|p| p.state.pick(&mut ledger, true))
            }
        };
        *self.ledger_mut(child, thread) = ledger;
        pick.map(|p| p.generation())
    }

    fn ledger_mut(&mut self, child: VAddr, thread: ThreadId) -> &mut SendLedger {
        let link = self.peers.get_mut(&child).and_then(|p| p.links.get_mut(&thread));
        &mut link.expect("link_current checked").ledger
    }

    /// One coded frame of `generation` from `parent`.
    fn produce_frame(&mut self, parent: &CtrlParent<VAddr>, generation: usize) -> Option<Vec<u8>> {
        let packet = match parent {
            CtrlParent::Source(_) => self.encoder.packet_for(generation as u32, &mut self.rng),
            CtrlParent::Node(_, addr) => {
                let (snapshot, _) = self.peers.get_mut(addr)?.state.snapshot_of(generation);
                snapshot.recode(&mut self.rng)?
            }
        };
        Some(wire::encode_frame_tagged(&packet, None, None))
    }

    fn handle(&mut self, ev: Ev) {
        match ev {
            Ev::Emit { child, thread, epoch } => self.on_emit(child, thread, epoch),
            Ev::Deliver { child, thread, epoch, frame } => {
                self.on_deliver(child, thread, epoch, &frame);
            }
            Ev::Liveness { child, thread, epoch } => {
                self.on_liveness(child, thread, epoch);
            }
            Ev::RepairTick { child, thread, epoch } => {
                self.on_repair_tick(child, thread, epoch);
            }
            Ev::FollowerPoll { gen } => self.on_follower_poll(gen),
        }
    }

    /// Is this event's (child, thread, epoch) still the live
    /// subscription it was scheduled for? Completion retires every
    /// upstream subscription, so pending timers die here.
    fn link_current(&self, child: VAddr, thread: ThreadId, epoch: u64) -> bool {
        self.peers.get(&child).is_some_and(|p| {
            p.completed_at_us.is_none()
                && p.links.get(&thread).is_some_and(|l| l.epoch == epoch && !l.dead)
        })
    }

    fn on_emit(&mut self, child: VAddr, thread: ThreadId, epoch: u64) {
        if !self.link_current(child, thread, epoch) {
            return;
        }
        let parent = self.peers[&child].links[&thread].parent;
        let parent_addr = parent.addr();
        // A dead parent stops serving: the emission timer dies with it.
        // (The child's liveness check takes over from here.)
        if self.dead.contains(&parent_addr) {
            return;
        }
        let next = self.clock_us + self.cfg.pace_us;
        // The parent's end first: it picks (and books) before the wire
        // decides the frame's fate — a frame written into a cut or lost
        // in flight was still sent, and the parent cannot know.
        let Some(generation) = self.pick_generation(child, thread, &parent) else {
            // Rank-0 parents emit nothing but stay subscribed; the next
            // tick may find them innovative.
            self.push_ev(next, Ev::Emit { child, thread, epoch });
            return;
        };
        let profile = self.profile(parent_addr, child);
        if self.cuts.contains(&(parent_addr, child))
            || (profile.loss > 0.0 && self.rng.random::<f64>() < profile.loss)
        {
            self.stats.frames_lost += 1;
        } else if let Some(frame) = self.produce_frame(&parent, generation) {
            let delay = profile.delay_us(frame.len());
            self.push_ev(
                self.clock_us + delay,
                Ev::Deliver { child, thread, epoch, frame },
            );
        }
        self.push_ev(next, Ev::Emit { child, thread, epoch });
    }

    fn on_deliver(&mut self, child: VAddr, thread: ThreadId, epoch: u64, frame: &[u8]) {
        if !self.link_current(child, thread, epoch) {
            return;
        }
        let Ok((packet, _ctx, _base)) = wire::decode_frame_message(frame, &self.pool) else {
            return;
        };
        let now = self.clock_us;
        let mut completed_node = None;
        {
            let peer = self.peers.get_mut(&child).expect("link_current checked");
            let was_complete = peer.state.is_complete();
            peer.state.push(packet);
            self.stats.frames_delivered += 1;
            let link = peer.links.get_mut(&thread).expect("link_current checked");
            link.liveness.on_data(now);
            // Frames flowing again closes any open defect (a healed cut
            // or a stall that resolved without repair) and cancels a
            // pending episode.
            if let Some(since) = link.defect_since.take() {
                self.defect_us_closed += now - since;
                if link.repair.take().is_some() {
                    self.journal
                        .push(format!("t={now} recovered node={} thread={thread}", peer.node));
                }
            }
            if !was_complete && peer.state.is_complete() {
                completed_node = Some(peer.node);
                // Completion retires the upstream subscriptions: close
                // any open defect (owed nothing from here on) and let
                // pending timers die against `link_current`.
                peer.completed_at_us = Some(now);
                for l in peer.links.values_mut() {
                    l.repair = None;
                    if let Some(since) = l.defect_since.take() {
                        self.defect_us_closed += now - since;
                    }
                }
            }
        }
        if let Some(node) = completed_node {
            self.stats.completed += 1;
            self.journal.push(format!("t={now} complete node={node}"));
            // Report completion; an amnesiac coordinator answers Ok
            // regardless and a dead one answers nothing — either way
            // the response needs no handling.
            let _ = self.control_dispatch(CtrlRequest::Completed { node });
        }
    }

    fn on_liveness(&mut self, child: VAddr, thread: ThreadId, epoch: u64) {
        if !self.link_current(child, thread, epoch) {
            return;
        }
        let now = self.clock_us;
        let next = now + self.stall_us();
        let peer = self.peers.get_mut(&child).expect("link_current checked");
        let complete = peer.state.is_complete();
        let link = peer.links.get_mut(&thread).expect("link_current checked");
        if link.liveness.is_stalled(now, complete) && link.repair.is_none() {
            link.defect_since.get_or_insert(now);
            self.journal.push(format!(
                "t={now} defect node={} thread={thread} parent={}",
                peer.node,
                link.parent.addr()
            ));
            let (episode, step) =
                Episode::open(&self.cfg.policy, &mut link.budget, now, &mut self.rng);
            link.repair = Some(episode);
            self.on_step(child, thread, epoch, step);
        }
        self.push_ev(next, Ev::Liveness { child, thread, epoch });
    }

    /// Sends the episode's next complaint and feeds the machine its outcome.
    fn on_repair_tick(&mut self, child: VAddr, thread: ThreadId, epoch: u64) {
        if !self.link_current(child, thread, epoch) {
            return;
        }
        let peer = &self.peers[&child];
        let (node, link) = (peer.node, &peer.links[&thread]);
        if link.repair.is_none() {
            return;
        }
        // A dead coordinator answers nothing: the episode keeps its
        // backoff schedule running, like a TCP dial timeout would.
        let reply = self
            .control_dispatch(CtrlRequest::Complaint {
                child: node,
                failed_parent: link.parent.node(),
                thread,
                ctx: None,
            })
            .map_or(Reply::Unanswered, |response| Reply::of(&response));
        let link = self.peers.get_mut(&child).and_then(|p| p.links.get_mut(&thread));
        let episode = link.and_then(|l| l.repair.as_mut()).expect("checked above");
        let step = episode.on_reply(reply, self.clock_us, &mut self.rng);
        self.on_step(child, thread, epoch, step);
    }

    /// Carries out what the episode machine decided for one link.
    fn on_step(&mut self, child: VAddr, thread: ThreadId, epoch: u64, step: Step<VAddr>) {
        let now = self.clock_us;
        let node = self.peers[&child].node;
        match step {
            Step::Complain { after, resync, .. } => {
                if resync {
                    // Amnesiac coordinator: readmit ourselves before the
                    // next complaint.
                    self.resync(child, node);
                }
                let t = now + u64::try_from(after.as_micros()).unwrap_or(u64::MAX);
                self.push_ev(t, Ev::RepairTick { child, thread, epoch });
            }
            Step::Resubscribe { parent, attempts } => {
                self.resubscribe(child, thread, node, parent, attempts);
            }
            Step::GiveUp { .. } => {
                let peer = self.peers.get_mut(&child).expect("caller checked");
                let link = peer.links.get_mut(&thread).expect("caller checked");
                link.repair = None;
                link.dead = true;
                self.stats.gave_up += 1;
                self.journal.push(format!("t={now} give_up node={node} thread={thread}"));
            }
        }
    }

    /// Re-introduces a peer's row to an amnesiac coordinator.
    fn resync(&mut self, child: VAddr, node: NodeId) {
        let parents: Vec<(ThreadId, Option<NodeId>)> = self.peers[&child]
            .links
            .iter()
            .map(|(t, l)| (*t, l.parent.node()))
            .collect();
        let response = self.control_dispatch(CtrlRequest::Resync {
            node,
            data_addr: child,
            parents,
            ctx: None,
        });
        if response == Some(CtrlResponse::Ok) {
            self.stats.resyncs += 1;
            self.journal.push(format!("t={} resync node={node}", self.clock_us));
        }
    }

    /// Moves a subscription to `new_parent`: bumps the epoch (stale
    /// timers die), resets liveness, restarts the emission and stall
    /// clocks, and closes the defect interval.
    fn resubscribe(
        &mut self,
        child: VAddr,
        thread: ThreadId,
        node: NodeId,
        new_parent: CtrlParent<VAddr>,
        attempts: u32,
    ) {
        let now = self.clock_us;
        let new_epoch = {
            let peer = self.peers.get_mut(&child).expect("caller checked");
            let link = peer.links.get_mut(&thread).expect("caller checked");
            link.parent = new_parent;
            link.epoch += 1;
            link.liveness = LinkLiveness::new(self.cfg.policy.stall_timeout, now);
            link.ledger = SendLedger::new(self.cfg.generations);
            link.repair = None;
            // The redirect target may itself be dead (the coordinator
            // has not heard yet) — then the stall re-fires and a fresh
            // episode runs, exactly like the TCP driver. The defect
            // clock keeps running until frames actually arrive.
            link.epoch
        };
        self.stats.repairs += 1;
        self.journal.push(format!(
            "t={now} repair node={node} thread={thread} parent={} attempts={}",
            new_parent.addr(),
            attempts
        ));
        self.push_ev(now + self.cfg.pace_us, Ev::Emit { child, thread, epoch: new_epoch });
        self.push_ev(
            now + self.stall_us(),
            Ev::Liveness { child, thread, epoch: new_epoch },
        );
    }
}

impl std::fmt::Debug for World {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("World")
            .field("clock_us", &self.clock_us)
            .field("alive", &self.peers.len())
            .field("queued", &self.queue.len())
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pattern(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i.wrapping_mul(131).wrapping_add(7) % 256) as u8).collect()
    }

    fn small_world(seed: u64) -> (World, Vec<u8>) {
        let cfg = VnetConfig {
            overlay: OverlayConfig::new(4, 2),
            ..VnetConfig::default()
        };
        let content = pattern(cfg.generations * cfg.generation_size * cfg.packet_len);
        (World::new(seed, cfg, &content), content)
    }

    /// A world whose transfer is slow enough that faults injected a few
    /// virtual milliseconds in land mid-transfer (complete peers owe
    /// nothing and never complain, so repair tests need stragglers).
    fn slow_world(seed: u64) -> (World, Vec<u8>) {
        let cfg = VnetConfig {
            overlay: OverlayConfig::new(4, 2),
            generations: 4,
            generation_size: 16,
            ..VnetConfig::default()
        };
        let content = pattern(cfg.generations * cfg.generation_size * cfg.packet_len);
        (World::new(seed, cfg, &content), content)
    }

    /// A transfer long enough (8 generations: ~240 ms on one surviving
    /// thread against a 100 ms stall timeout) that an orphan's stall
    /// timer beats its own completion.
    fn long_world(seed: u64) -> (World, Vec<u8>) {
        let cfg = VnetConfig {
            overlay: OverlayConfig::new(4, 2),
            generations: 8,
            generation_size: 16,
            ..VnetConfig::default()
        };
        let content = pattern(cfg.generations * cfg.generation_size * cfg.packet_len);
        (World::new(seed, cfg, &content), content)
    }

    /// Every survivor decoded `content` byte for byte.
    fn assert_survivors_decoded(world: &World, content: &[u8], context: &str) {
        for (node, _) in world.alive_nodes() {
            assert_eq!(world.decoded_content(node).as_deref(), Some(content), "{context}");
        }
    }

    /// The north star's "`M` mirrors live subscriptions": every quiesced
    /// upstream link of a peer still in transfer names the parent the
    /// coordinator's matrix names. Returns how many links were checked.
    fn assert_links_mirror_the_matrix(world: &mut World, context: &str) -> usize {
        let live: Vec<(NodeId, ThreadId, CtrlParent<VAddr>)> = world
            .peers
            .values()
            .filter(|p| p.completed_at_us.is_none())
            .flat_map(|p| p.links.iter().map(move |(t, l)| (p.node, *t, l)))
            .filter(|(_, _, l)| !l.dead && l.defect_since.is_none())
            .map(|(node, thread, l)| (node, thread, l.parent))
            .collect();
        for (node, thread, parent) in &live {
            assert_eq!(
                world.control.current_parent(*node, *thread),
                Ok(*parent),
                "{context}: node {node} thread {thread}"
            );
        }
        live.len()
    }

    #[test]
    fn a_small_swarm_completes_and_decodes_exactly() {
        let (mut world, content) = small_world(11);
        let nodes: Vec<NodeId> = (0..8).map(|_| world.join_peer()).collect();
        assert!(world.run_until_all_complete(60_000_000), "{world:?}");
        for node in nodes {
            assert_eq!(world.decoded_content(node).as_deref(), Some(&content[..]));
        }
        assert_eq!(world.stats().completed, 8);
    }

    /// Whether one orphan's stall timer beats its own completion depends
    /// on the coefficient stream, so "a repair ran" is stated over a seed
    /// range, on a [`long_world`] so that it is the scenario's property
    /// and not one stream's luck: every world must heal — complete,
    /// nothing gave up, bytes identical — and over the range repairs must
    /// have run and their defect time been measured.
    #[test]
    fn killing_a_parent_heals_through_repair() {
        let (mut repairs, mut defect_us) = (0, 0);
        for seed in 0..8 {
            let (mut world, content) = long_world(seed);
            let all: Vec<NodeId> = (0..8).map(|_| world.join_peer()).collect();
            world.run_for(10_000);
            // Kill a peer that is really someone's parent, mid-transfer.
            let victim = world.a_serving_peer().expect("8 peers at k=4 share threads");
            world.kill_peer(victim);
            assert!(world.run_until_all_complete(120_000_000), "seed {seed}: {world:?}");
            let stats = world.stats();
            assert_eq!(stats.gave_up, 0, "seed {seed}: {stats:?}");
            for node in all.into_iter().filter(|n| *n != victim) {
                assert_eq!(
                    world.decoded_content(node).as_deref(),
                    Some(&content[..]),
                    "seed {seed}"
                );
            }
            let report = world.defect_report();
            assert!(report.probability() < 1.0, "seed {seed}: {report:?}");
            repairs += stats.repairs;
            defect_us += report.defect_us;
        }
        assert!(repairs > 0, "no repair episode ran in any world");
        assert!(defect_us > 0, "the orphans' defect time was never measured");
    }

    #[test]
    fn a_latecomer_joins_after_the_first_wave_and_decodes_exactly() {
        let (mut world, content) = small_world(13);
        for _ in 0..8 {
            world.join_peer();
        }
        assert!(world.run_until_all_complete(60_000_000), "{world:?}");
        assert_eq!(world.complete(), world.alive());
        // Everyone it can subscribe to finished long ago: the object is
        // served from complete peers' buffers, not from a live wave.
        let late = world.join_peer();
        assert_eq!(world.complete() + 1, world.alive());
        assert!(world.run_until_all_complete(120_000_000), "{world:?}");
        assert_eq!(world.decoded_content(late).as_deref(), Some(&content[..]));
        assert_eq!(world.stats().completed, 9);
    }

    /// The good-bye on the shipped protocol (PAPER.md L1's splice): the
    /// coordinator wires the leaver's parents to its children at once,
    /// the children find out by stall, and their complaint — naming a
    /// node `M` no longer holds — is answered with that parent. Stated
    /// over a seed range like the kill test, for the same reason.
    #[test]
    fn a_graceful_leave_mid_transfer_strands_no_child() {
        let (mut rewired, mut mirrored) = (0, 0);
        for seed in 0..8 {
            let (mut world, content) = long_world(seed);
            for _ in 0..8 {
                world.join_peer();
            }
            world.run_for(10_000);
            let leaver = world.a_serving_peer().expect("8 peers at k=4 share threads");
            let gone = world.node_to_addr[&leaver];
            let points_at_gone = |world: &World| {
                world
                    .peers
                    .values()
                    .filter(|p| p.completed_at_us.is_none())
                    .flat_map(|p| p.links.values())
                    .filter(|l| l.parent.addr() == gone)
                    .count()
            };
            let orphans = points_at_gone(&world);
            assert!(orphans > 0, "seed {seed}: the leaver served nobody in transfer");
            let commits = world.commit_seq;
            world.leave_peer(leaver);
            assert_eq!(world.commit_seq, commits + 1, "seed {seed}: the good-bye committed");
            assert!(world.control.server().matrix().position_of(leaver).is_none());
            assert!(!world.control.addrs().contains_key(&leaver));
            // Let the repairs quiesce: no peer still in transfer points
            // at the leaver any more.
            let deadline = world.clock_us() + 10_000_000;
            while points_at_gone(&world) > 0 && world.clock_us() < deadline {
                world.run_for(10_000);
            }
            assert_eq!(points_at_gone(&world), 0, "seed {seed}: a child is stranded");
            mirrored += assert_links_mirror_the_matrix(&mut world, &format!("seed {seed}"));
            rewired += world.stats().repairs;
            assert!(world.run_until_all_complete(120_000_000), "seed {seed}: {world:?}");
            assert_eq!(world.stats().gave_up, 0, "seed {seed}: {:?}", world.stats());
            assert_eq!(world.alive(), 7);
            assert_survivors_decoded(&world, &content, &format!("seed {seed}"));
        }
        assert!(rewired > 0, "no orphan re-subscribed in any world");
        assert!(mirrored > 0, "no live link was ever compared against the matrix");
    }

    #[test]
    fn a_leave_next_to_a_kill_heals_both() {
        let mut repairs = 0;
        for seed in 0..8 {
            let (mut world, content) = long_world(seed);
            world.set_default_link(LinkProfile { loss: 0.02, ..LinkProfile::default() });
            for _ in 0..10 {
                world.join_peer();
            }
            world.run_for(10_000);
            // Same instant, two serving peers: one says good-bye, one
            // goes silent (a departed peer serves nobody, so the second
            // pick is a different one).
            let polite = world.a_serving_peer().expect("10 peers at k=4 share threads");
            world.leave_peer(polite);
            let silent = world.a_serving_peer().expect("someone else serves too");
            world.kill_peer(silent);
            assert!(world.run_until_all_complete(240_000_000), "seed {seed}: {world:?}");
            let stats = world.stats();
            assert_eq!(stats.gave_up, 0, "seed {seed}: {stats:?}");
            assert!(stats.frames_lost > 0, "seed {seed}: 2% loss dropped nothing");
            assert_eq!(world.alive(), 8);
            assert_survivors_decoded(&world, &content, &format!("seed {seed}"));
            repairs += stats.repairs;
        }
        assert!(repairs > 0, "no repair episode ran in any world");
    }

    #[test]
    fn a_cut_link_stalls_then_repairs_and_a_heal_recovers_silently() {
        let (mut world, content) = slow_world(31);
        let a = world.join_peer();
        let b = world.join_peer();
        world.run_for(10_000);
        // Sever every edge into b mid-transfer: both current parents
        // and the source, so no redirect can route around the cuts. The
        // stall detector must notice and episodes must keep running.
        let b_addr = world.node_to_addr[&b];
        let a_addr = world.node_to_addr[&a];
        for from in [SOURCE_ADDR, a_addr] {
            world.cut_link(from, b_addr);
        }
        world.run_for(3_000_000);
        let mid = world.defect_report();
        assert!(mid.defect_us > 0, "cut never registered as defect: {mid:?}");
        assert!(
            world.stats().frames_lost > 0,
            "cut edges dropped nothing: {:?}",
            world.stats()
        );
        // Heal: frames flow again and the swarm finishes with no repair
        // ever giving up — the episodes either resolved via redirect or
        // dissolved when data resumed.
        for from in [SOURCE_ADDR, a_addr] {
            world.heal_link(from, b_addr);
        }
        assert!(world.run_until_all_complete(240_000_000), "{world:?}");
        assert_eq!(world.stats().gave_up, 0, "{:?}", world.stats());
        assert_eq!(world.decoded_content(b).as_deref(), Some(&content[..]));
        let end = world.defect_report();
        assert!(end.probability() > 0.0 && end.probability() < 1.0, "{end:?}");
    }

    #[test]
    fn coordinator_amnesia_readmits_through_resync() {
        let (mut world, content) = slow_world(47);
        let all: Vec<NodeId> = (0..8).map(|_| world.join_peer()).collect();
        world.run_for(10_000);
        world.coordinator_amnesia();
        // Kill a serving peer after the amnesia: its children's
        // complaints are answered unknown-child, forcing resync readmission
        // before the redirect can be answered.
        let victim = world.a_serving_peer().expect("8 peers at k=4 share threads");
        world.kill_peer(victim);
        assert!(world.run_until_all_complete(120_000_000), "{world:?}");
        assert!(world.stats().resyncs > 0, "resync path never ran: {:?}", world.stats());
        for node in all.into_iter().filter(|n| *n != victim) {
            assert_eq!(world.decoded_content(node).as_deref(), Some(&content[..]));
        }
    }

    #[test]
    fn standby_promotes_on_the_virtual_clock_and_survivors_resync() {
        // A long transfer with a twitchy stall detector: the fault below
        // must land mid-transfer and be *noticed* before survivors can
        // coast to completion on their remaining links.
        let cfg = VnetConfig {
            overlay: OverlayConfig::new(4, 2),
            generations: 8,
            generation_size: 16,
            policy: RepairPolicy {
                stall_timeout: Duration::from_millis(20),
                max_backoff: Duration::from_millis(100),
                ..VnetConfig::default().policy
            },
            ..VnetConfig::default()
        };
        let content = pattern(cfg.generations * cfg.generation_size * cfg.packet_len);
        let mut world = World::new(53, cfg, &content);
        let all: Vec<NodeId> = (0..8).map(|_| world.join_peer()).collect();
        world.start_standby(Duration::from_millis(10), 3);
        world.run_for(10_000);
        // Coordinator dies mid-transfer, and so does a serving peer:
        // complaints go unanswered until the FollowerCore counts three
        // failed polls and promotes.
        let victim = world.a_serving_peer().expect("8 peers at k=4 share threads");
        world.crash_coordinator();
        world.kill_peer(victim);
        assert!(!world.coordinator_up());
        world.run_for(200_000);
        assert!(world.coordinator_up(), "standby never promoted");
        let promote_line =
            world.journal().iter().find(|l| l.contains("promote")).cloned();
        assert!(promote_line.is_some(), "no promote in journal");
        assert!(world.run_until_all_complete(240_000_000), "{world:?}");
        let stats = world.stats();
        // The promoted core lost the peer rows: survivors readmitted
        // themselves through the resync path.
        assert!(stats.resyncs > 0, "no resync after promotion: {stats:?}");
        assert_eq!(stats.gave_up, 0, "{stats:?}");
        for node in all.into_iter().filter(|n| *n != victim) {
            assert_eq!(world.decoded_content(node).as_deref(), Some(&content[..]));
        }
    }

    #[test]
    fn a_goodbye_to_a_crashed_coordinator_is_lost_and_the_children_still_heal() {
        let mut resyncs = 0;
        for seed in 0..8 {
            let (mut world, content) = long_world(seed);
            for _ in 0..8 {
                world.join_peer();
            }
            world.start_standby(Duration::from_millis(10), 3);
            world.run_for(10_000);
            let leaver = world.a_serving_peer().expect("8 peers at k=4 share threads");
            world.crash_coordinator();
            let commits = world.commit_seq;
            world.leave_peer(leaver);
            // Nobody heard the good-bye: nothing committed, the dead
            // core's matrix still holds the row — but the peer is gone.
            assert_eq!(world.commit_seq, commits);
            assert!(world.control.server().matrix().position_of(leaver).is_some());
            assert_eq!(world.alive(), 7);
            assert!(world.journal().iter().any(|l| l.contains(" leave node=")));
            assert!(world.run_until_all_complete(240_000_000), "seed {seed}: {world:?}");
            assert!(world.coordinator_up(), "seed {seed}: standby never promoted");
            let stats = world.stats();
            assert_eq!(stats.gave_up, 0, "seed {seed}: {stats:?}");
            assert_survivors_decoded(&world, &content, &format!("seed {seed}"));
            resyncs += stats.resyncs;
        }
        // The promoted core never knew the orphans: they came back
        // through the resync path before their complaint was answered.
        assert!(resyncs > 0, "no orphan resynced after promotion in any world");
    }

    #[test]
    fn a_zero_budget_gives_up_where_the_default_policy_repairs() {
        // Same long transfer and twitchy stall detector as the standby
        // test, so the orphans notice the death mid-transfer.
        let run = |window_budget: usize| {
            let cfg = VnetConfig {
                overlay: OverlayConfig::new(4, 2),
                generations: 8,
                generation_size: 16,
                policy: RepairPolicy {
                    stall_timeout: Duration::from_millis(20),
                    window_budget,
                    ..VnetConfig::default().policy
                },
                ..VnetConfig::default()
            };
            let content = pattern(cfg.generations * cfg.generation_size * cfg.packet_len);
            let mut world = World::new(61, cfg, &content);
            for _ in 0..8 {
                world.join_peer();
            }
            world.run_for(10_000);
            let victim = world.a_serving_peer().expect("8 peers at k=4 share threads");
            world.kill_peer(victim);
            world.run_for(1_000_000);
            world.stats()
        };
        // `window_budget: 0` disables repair: every admission is denied,
        // journalled and counted as a give-up with no complaint sent.
        let denied = run(0);
        assert!(denied.gave_up > 0 && denied.repairs == 0, "{denied:?}");
        let repaired = run(VnetConfig::default().policy.window_budget);
        assert!(repaired.repairs > 0 && repaired.gave_up == 0, "{repaired:?}");
    }

    #[test]
    fn same_seed_same_journal_different_seed_diverges() {
        let run = |seed: u64| {
            let (mut world, _) = small_world(seed);
            let nodes: Vec<NodeId> = (0..6).map(|_| world.join_peer()).collect();
            world.run_for(30_000);
            world.kill_peer(nodes[0]);
            world.leave_peer(nodes[1]);
            world.run_for(10_000_000);
            world.journal().join("\n")
        };
        let a = run(99);
        let b = run(99);
        assert_eq!(a, b, "same seed must replay byte-identically");
        assert!(a.contains(" kill node=") && a.contains(" leave node="), "{a}");
        let c = run(100);
        assert_ne!(a, c, "different seeds should explore different worlds");
    }

    #[test]
    fn lossy_links_slow_but_do_not_stop_the_swarm() {
        let (mut world, content) = small_world(59);
        world.set_default_link(LinkProfile {
            latency_us: 2_000,
            loss: 0.2,
            bandwidth_bps: 50_000_000,
        });
        let nodes: Vec<NodeId> = (0..5).map(|_| world.join_peer()).collect();
        assert!(world.run_until_all_complete(240_000_000), "{world:?}");
        assert!(world.stats().frames_lost > 0, "loss never sampled");
        for node in nodes {
            assert_eq!(world.decoded_content(node).as_deref(), Some(&content[..]));
        }
    }

    /// The liveness half of the send ledger. One of a child's two threads
    /// is cut for good and the stall detector is off, so no repair can
    /// route around it; the surviving parent loses 5 % of its frames. That
    /// parent's ledger books each generation whole exactly once, so the
    /// child comes up short and is owed nothing — only the un-booked
    /// trickle (the plain rotation at link pace) can finish it.
    #[test]
    fn one_live_lossy_parent_still_completes_the_child() {
        let cfg = VnetConfig {
            overlay: OverlayConfig::new(4, 2),
            generations: 8,
            generation_size: 16,
            policy: RepairPolicy {
                stall_timeout: Duration::from_secs(3600),
                ..VnetConfig::default().policy
            },
            ..VnetConfig::default()
        };
        let content = pattern(cfg.generations * cfg.generation_size * cfg.packet_len);
        let mut world = World::new(71, cfg, &content);
        let nodes: Vec<NodeId> = (0..6).map(|_| world.join_peer()).collect();
        // The first child whose two threads hang off two different parents.
        let (child, dead, live) = world
            .peers
            .iter()
            .find_map(|(addr, peer)| {
                let parents: Vec<VAddr> = peer.links.values().map(|l| l.parent.addr()).collect();
                (parents[0] != parents[1]).then_some((*addr, parents[0], parents[1]))
            })
            .expect("six peers at k=4, d=2: someone has two distinct parents");
        world.cut_link(dead, child);
        world.shape_link(live, child, LinkProfile { loss: 0.05, ..LinkProfile::default() });
        assert!(world.run_until_all_complete(60_000_000), "{world:?}");
        let stats = world.stats();
        assert_eq!((stats.gave_up, stats.repairs), (0, 0), "{stats:?}");
        assert!(stats.frames_lost > 0, "the lossy link lost nothing");
        for node in nodes {
            assert_eq!(world.decoded_content(node).as_deref(), Some(&content[..]));
        }
    }

    #[test]
    fn vaddr_renders_and_parses() {
        assert_eq!(VAddr(7).render(), "v7");
        assert_eq!(VAddr::parse("v7"), Ok(VAddr(7)));
        assert!(VAddr::parse("127.0.0.1:80").is_err());
    }
}
