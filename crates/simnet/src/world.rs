//! The simulation driver: hosts, links, and the tick loop.

use curtain_telemetry::{DropReason, Event, SharedRecorder};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::event::EventQueue;
use crate::link::{Link, LinkConfig, LinkId, SendOutcome};
use crate::time::SimTime;

/// Identifies a host within a [`World`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct HostId(pub u32);

/// Traffic counters for a single link.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Sending host index.
    pub from: u32,
    /// Receiving host index.
    pub to: u32,
    /// Packets offered on this link.
    pub offered: u64,
    /// Packets delivered over this link.
    pub delivered: u64,
    /// Packets lost in flight on this link.
    pub lost: u64,
    /// Packets tail-dropped at this link's capacity limit.
    pub capacity_drops: u64,
    /// Bytes offered on this link (0 unless a message sizer is installed
    /// via [`World::set_message_sizer`]).
    pub bytes_offered: u64,
    /// Bytes actually delivered over this link.
    pub bytes_delivered: u64,
}

impl LinkStats {
    /// Packets dropped on this link for any reason (loss + capacity).
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.lost + self.capacity_drops
    }
}

/// Aggregate traffic counters, plus a per-link breakdown.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Packets offered to links.
    pub offered: u64,
    /// Packets delivered to their destination actor.
    pub delivered: u64,
    /// Packets lost in flight (ergodic loss).
    pub lost: u64,
    /// Packets rejected because the link was at capacity this tick.
    pub capacity_drops: u64,
    /// Bytes offered to links (0 unless a message sizer is installed via
    /// [`World::set_message_sizer`]).
    pub bytes_offered: u64,
    /// Bytes delivered to destination actors.
    pub bytes_delivered: u64,
    /// Per-link counters, indexed by [`LinkId`] in creation order.
    pub per_link: Vec<LinkStats>,
}

impl NetStats {
    /// Packets dropped for any reason (in-flight loss + capacity tail-drop).
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.lost + self.capacity_drops
    }
}

/// Per-host behaviour. The world calls [`Actor::on_tick`] once per tick and
/// [`Actor::on_message`] for each delivered packet.
pub trait Actor<M> {
    /// A packet arrived.
    fn on_message(&mut self, ctx: &mut Context<'_, M>, from: HostId, msg: M);
    /// One tick of local time elapsed (send window: a unit-bandwidth stream
    /// sends one packet per tick here).
    fn on_tick(&mut self, ctx: &mut Context<'_, M>);
}

/// What an actor may do while being driven: inspect time and send packets.
pub struct Context<'a, M> {
    now: SimTime,
    self_id: HostId,
    links: &'a mut [Link],
    queue: &'a mut EventQueue<Delivery<M>>,
    rng: &'a mut StdRng,
    stats: &'a mut NetStats,
    recorder: &'a SharedRecorder,
    sizer: Option<fn(&M) -> usize>,
}

impl<M> Context<'_, M> {
    /// Current simulated time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The id of the actor being driven.
    #[must_use]
    pub fn self_id(&self) -> HostId {
        self.self_id
    }

    /// Offers `msg` on `link`. Returns `true` iff the packet was accepted
    /// (it may still be lost in flight).
    ///
    /// # Panics
    ///
    /// Panics if the link does not originate at the calling actor — actors
    /// can only transmit on their own uplinks.
    pub fn send(&mut self, link: LinkId, msg: M) -> bool {
        let l = &mut self.links[link.0 as usize];
        assert_eq!(
            l.from(),
            self.self_id.0,
            "actor {} cannot send on link {:?} owned by host {}",
            self.self_id.0,
            link,
            l.from()
        );
        let size = self.sizer.map_or(0, |f| f(&msg) as u64);
        self.stats.offered += 1;
        self.stats.bytes_offered += size;
        let per_link = &mut self.stats.per_link[link.0 as usize];
        per_link.offered += 1;
        per_link.bytes_offered += size;
        match l.offer(self.now, self.rng) {
            SendOutcome::Scheduled(at) => {
                let delivery =
                    Delivery { to: HostId(l.to()), from: self.self_id, link: Some(link), size, msg };
                self.queue.push(at, delivery);
                true
            }
            SendOutcome::Lost => {
                self.stats.lost += 1;
                per_link.lost += 1;
                self.recorder.record(&Event::LinkDrop {
                    link: link.0,
                    from: l.from(),
                    to: l.to(),
                    reason: DropReason::Loss,
                });
                true
            }
            SendOutcome::CapacityExceeded => {
                self.stats.capacity_drops += 1;
                per_link.capacity_drops += 1;
                self.recorder.record(&Event::LinkDrop {
                    link: link.0,
                    from: l.from(),
                    to: l.to(),
                    reason: DropReason::Capacity,
                });
                false
            }
        }
    }

    /// The telemetry handle (null unless installed on the world); actors
    /// can record their own protocol events through it.
    #[must_use]
    pub fn recorder(&self) -> &SharedRecorder {
        self.recorder
    }

    /// The world's RNG (for randomized actor decisions; deterministic under
    /// a fixed world seed).
    pub fn rng(&mut self) -> &mut StdRng {
        self.rng
    }
}

struct Delivery<M> {
    to: HostId,
    from: HostId,
    /// Link the packet travelled on (`None` for [`World::inject`]).
    link: Option<LinkId>,
    /// Byte size under the world's sizer at send time.
    size: u64,
    msg: M,
}

/// A network of actors connected by links, driven tick by tick.
///
/// Within one tick the order is: (1) deliver every packet due at this time,
/// in schedule order; (2) give each actor its `on_tick`, in host order.
/// Both orders are deterministic.
pub struct World<A, M> {
    time: SimTime,
    actors: Vec<Option<A>>,
    links: Vec<Link>,
    queue: EventQueue<Delivery<M>>,
    rng: StdRng,
    stats: NetStats,
    recorder: SharedRecorder,
    sizer: Option<fn(&M) -> usize>,
}

impl<A: Actor<M>, M> World<A, M> {
    /// Creates an empty world with a deterministic RNG seed.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        World {
            time: SimTime::ZERO,
            actors: Vec::new(),
            links: Vec::new(),
            queue: EventQueue::new(),
            rng: StdRng::seed_from_u64(seed),
            stats: NetStats::default(),
            recorder: SharedRecorder::null(),
            sizer: None,
        }
    }

    /// Installs a telemetry recorder. [`World::tick`] drives the recorder's
    /// manual clock with the simulated time, so every event recorded through
    /// it — by the world (link drops) or by actors via
    /// [`Context::recorder`] — is stamped in sim-ticks.
    pub fn set_recorder(&mut self, recorder: SharedRecorder) {
        recorder.set_time(self.time.ticks());
        self.recorder = recorder;
    }

    /// The world's telemetry handle (null unless installed).
    #[must_use]
    pub fn recorder(&self) -> &SharedRecorder {
        &self.recorder
    }

    /// Installs a message sizer used to maintain the byte counters in
    /// [`NetStats`]. Without one, byte counters stay 0 (the message type
    /// `M` is opaque to the world).
    pub fn set_message_sizer(&mut self, sizer: fn(&M) -> usize) {
        self.sizer = Some(sizer);
    }

    /// Current simulated time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.time
    }

    /// Traffic counters so far (aggregate + per-link breakdown).
    #[must_use]
    pub fn stats(&self) -> NetStats {
        self.stats.clone()
    }

    /// Number of hosts.
    #[must_use]
    pub fn host_count(&self) -> usize {
        self.actors.len()
    }

    /// Adds a host.
    pub fn add_actor(&mut self, actor: A) -> HostId {
        self.actors.push(Some(actor));
        HostId(self.actors.len() as u32 - 1)
    }

    /// Adds a unidirectional link.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint does not exist.
    pub fn add_link(&mut self, from: HostId, to: HostId, config: LinkConfig) -> LinkId {
        assert!((from.0 as usize) < self.actors.len(), "unknown sender");
        assert!((to.0 as usize) < self.actors.len(), "unknown receiver");
        self.links.push(Link::new(from.0, to.0, config));
        self.stats.per_link.push(LinkStats { from: from.0, to: to.0, ..LinkStats::default() });
        LinkId(self.links.len() as u32 - 1)
    }

    /// Read access to an actor.
    ///
    /// # Panics
    ///
    /// Panics if the host does not exist (or is mid-dispatch).
    #[must_use]
    pub fn actor(&self, id: HostId) -> &A {
        self.actors[id.0 as usize].as_ref().expect("actor present")
    }

    /// Mutable access to an actor (for test setup and instrumentation).
    ///
    /// # Panics
    ///
    /// Panics if the host does not exist (or is mid-dispatch).
    pub fn actor_mut(&mut self, id: HostId) -> &mut A {
        self.actors[id.0 as usize].as_mut().expect("actor present")
    }

    /// Injects a message directly into a host's mailbox at the current time
    /// (bypassing links) — bootstrap and fault-injection hook.
    pub fn inject(&mut self, to: HostId, from: HostId, msg: M) {
        self.queue.push(self.time, Delivery { to, from, link: None, size: 0, msg });
    }

    /// Runs one tick: deliveries due now, then `on_tick` for every host.
    pub fn tick(&mut self) {
        // Keep trace timestamps in lockstep with the simulation.
        self.recorder.set_time(self.time.ticks());
        // Phase 1: deliver everything due at or before now.
        while let Some((_, d)) = self.queue.pop_due(self.time) {
            let idx = d.to.0 as usize;
            let Some(mut actor) = self.actors[idx].take() else {
                continue; // host removed mid-flight; drop silently
            };
            self.stats.delivered += 1;
            self.stats.bytes_delivered += d.size;
            if let Some(link) = d.link {
                let per_link = &mut self.stats.per_link[link.0 as usize];
                per_link.delivered += 1;
                per_link.bytes_delivered += d.size;
            }
            let mut ctx = Context {
                now: self.time,
                self_id: d.to,
                links: &mut self.links,
                queue: &mut self.queue,
                rng: &mut self.rng,
                stats: &mut self.stats,
                recorder: &self.recorder,
                sizer: self.sizer,
            };
            actor.on_message(&mut ctx, d.from, d.msg);
            self.actors[idx] = Some(actor);
        }
        // Phase 2: tick every host in deterministic order.
        for idx in 0..self.actors.len() {
            let Some(mut actor) = self.actors[idx].take() else {
                continue;
            };
            let mut ctx = Context {
                now: self.time,
                self_id: HostId(idx as u32),
                links: &mut self.links,
                queue: &mut self.queue,
                rng: &mut self.rng,
                stats: &mut self.stats,
                recorder: &self.recorder,
                sizer: self.sizer,
            };
            actor.on_tick(&mut ctx);
            self.actors[idx] = Some(actor);
        }
        self.time += 1;
    }

    /// Runs `n` ticks.
    pub fn run_ticks(&mut self, n: u64) {
        for _ in 0..n {
            self.tick();
        }
    }

    /// Runs until `pred` holds (checked after each tick) or `max_ticks`
    /// elapse. Returns `true` iff the predicate was met.
    pub fn run_until<F: FnMut(&World<A, M>) -> bool>(
        &mut self,
        max_ticks: u64,
        mut pred: F,
    ) -> bool {
        for _ in 0..max_ticks {
            self.tick();
            if pred(self) {
                return true;
            }
        }
        false
    }
}

impl<A, M> std::fmt::Debug for World<A, M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("World")
            .field("time", &self.time)
            .field("hosts", &self.actors.len())
            .field("links", &self.links.len())
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Echoes every received number incremented, on all out links.
    struct Echo {
        out: Vec<LinkId>,
        received: Vec<(u64, u64)>, // (time, value)
        tick_count: u64,
    }

    impl Echo {
        fn new() -> Self {
            Echo { out: Vec::new(), received: Vec::new(), tick_count: 0 }
        }
    }

    impl Actor<u64> for Echo {
        fn on_message(&mut self, ctx: &mut Context<'_, u64>, _from: HostId, msg: u64) {
            self.received.push((ctx.now().ticks(), msg));
            for &l in &self.out.clone() {
                ctx.send(l, msg + 1);
            }
        }
        fn on_tick(&mut self, _ctx: &mut Context<'_, u64>) {
            self.tick_count += 1;
        }
    }

    #[test]
    fn delivery_respects_latency() {
        let mut w: World<Echo, u64> = World::new(1);
        let a = w.add_actor(Echo::new());
        let b = w.add_actor(Echo::new());
        let ab = w.add_link(a, b, LinkConfig::reliable(3));
        w.actor_mut(a).out.push(ab);
        w.inject(a, a, 100);
        w.run_ticks(10);
        // a receives at t0 and forwards; b receives at t0+3.
        assert_eq!(w.actor(a).received, vec![(0, 100)]);
        assert_eq!(w.actor(b).received, vec![(3, 101)]);
    }

    #[test]
    fn chain_propagation_accumulates_latency() {
        let mut w: World<Echo, u64> = World::new(2);
        let hosts: Vec<HostId> = (0..5).map(|_| w.add_actor(Echo::new())).collect();
        for i in 0..4 {
            let l = w.add_link(hosts[i], hosts[i + 1], LinkConfig::reliable(2));
            w.actor_mut(hosts[i]).out.push(l);
        }
        w.inject(hosts[0], hosts[0], 0);
        w.run_ticks(20);
        assert_eq!(w.actor(hosts[4]).received, vec![(8, 4)]);
    }

    #[test]
    fn capacity_drops_are_counted() {
        struct Spammer {
            link: Option<LinkId>,
        }
        impl Actor<u64> for Spammer {
            fn on_message(&mut self, _: &mut Context<'_, u64>, _: HostId, _: u64) {}
            fn on_tick(&mut self, ctx: &mut Context<'_, u64>) {
                if let Some(l) = self.link {
                    // Three sends on a capacity-1 link: two drops per tick.
                    let ok1 = ctx.send(l, 1);
                    let ok2 = ctx.send(l, 2);
                    let ok3 = ctx.send(l, 3);
                    assert!(ok1);
                    assert!(!ok2);
                    assert!(!ok3);
                }
            }
        }
        let mut w: World<Spammer, u64> = World::new(3);
        let a = w.add_actor(Spammer { link: None });
        let b = w.add_actor(Spammer { link: None });
        let l = w.add_link(a, b, LinkConfig::reliable(1));
        w.actor_mut(a).link = Some(l);
        w.run_ticks(4);
        assert_eq!(w.stats().capacity_drops, 8);
        assert_eq!(w.stats().delivered, 3); // t1..t3 arrivals (t4 pending)
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        fn run(seed: u64) -> (Vec<(u64, u64)>, NetStats) {
            let mut w: World<Echo, u64> = World::new(seed);
            let a = w.add_actor(Echo::new());
            let b = w.add_actor(Echo::new());
            let ab = w.add_link(a, b, LinkConfig::reliable(1).with_loss(0.5).with_capacity(64));
            w.actor_mut(a).out.push(ab);
            for i in 0..50 {
                w.inject(a, a, i);
            }
            w.run_ticks(20);
            (w.actor(b).received.clone(), w.stats())
        }
        let (r1, s1) = run(7);
        let (r2, s2) = run(7);
        assert_eq!(r1, r2);
        assert_eq!(s1, s2);
        let (r3, _) = run(8);
        assert_ne!(r1, r3, "different seeds should differ");
    }

    #[test]
    fn on_tick_runs_every_tick_for_every_actor() {
        let mut w: World<Echo, u64> = World::new(4);
        let a = w.add_actor(Echo::new());
        let b = w.add_actor(Echo::new());
        w.run_ticks(13);
        assert_eq!(w.actor(a).tick_count, 13);
        assert_eq!(w.actor(b).tick_count, 13);
    }

    #[test]
    fn run_until_stops_early() {
        let mut w: World<Echo, u64> = World::new(5);
        let a = w.add_actor(Echo::new());
        let _ = a;
        let met = w.run_until(100, |w| w.now().ticks() >= 5);
        assert!(met);
        assert_eq!(w.now().ticks(), 5);
    }

    #[test]
    fn per_link_and_byte_counters_track_traffic() {
        let mut w: World<Echo, u64> = World::new(11);
        let a = w.add_actor(Echo::new());
        let b = w.add_actor(Echo::new());
        let c = w.add_actor(Echo::new());
        let ab = w.add_link(a, b, LinkConfig::reliable(1));
        let ac = w.add_link(a, c, LinkConfig::reliable(2));
        w.set_message_sizer(|_| 8);
        w.actor_mut(a).out.push(ab);
        w.actor_mut(a).out.push(ac);
        w.inject(a, a, 0);
        w.run_ticks(5);
        let stats = w.stats();
        assert_eq!(stats.offered, 2);
        assert_eq!(stats.delivered, 3); // inject + two forwards
        assert_eq!(stats.bytes_offered, 16);
        assert_eq!(stats.bytes_delivered, 16); // inject carries no bytes
        assert_eq!(stats.per_link.len(), 2);
        assert_eq!(stats.per_link[ab.0 as usize].delivered, 1);
        assert_eq!(stats.per_link[ab.0 as usize].bytes_delivered, 8);
        assert_eq!(stats.per_link[ac.0 as usize].from, a.0);
        assert_eq!(stats.per_link[ac.0 as usize].to, c.0);
        assert_eq!(stats.dropped(), 0);
    }

    #[test]
    fn recorder_sees_link_drops_with_sim_timestamps() {
        use curtain_telemetry::{DropReason, Event, MemorySink, SharedRecorder};

        struct Spammer {
            link: Option<LinkId>,
        }
        impl Actor<u64> for Spammer {
            fn on_message(&mut self, _: &mut Context<'_, u64>, _: HostId, _: u64) {}
            fn on_tick(&mut self, ctx: &mut Context<'_, u64>) {
                if let Some(l) = self.link {
                    ctx.send(l, 1);
                    ctx.send(l, 2); // over capacity 1 → drop
                }
            }
        }
        let mut w: World<Spammer, u64> = World::new(12);
        let a = w.add_actor(Spammer { link: None });
        let b = w.add_actor(Spammer { link: None });
        let l = w.add_link(a, b, LinkConfig::reliable(1));
        w.actor_mut(a).link = Some(l);
        let sink = MemorySink::new();
        w.set_recorder(SharedRecorder::new(sink.clone()));
        w.run_ticks(3);
        let events = sink.events();
        assert_eq!(events.len(), 3, "one capacity drop per tick");
        for (tick, (at, event)) in events.into_iter().enumerate() {
            assert_eq!(at, tick as u64);
            assert_eq!(event, Event::LinkDrop {
                link: l.0,
                from: a.0,
                to: b.0,
                reason: DropReason::Capacity,
            });
        }
        assert_eq!(w.stats().per_link[l.0 as usize].capacity_drops, 3);
    }

    #[test]
    #[should_panic(expected = "cannot send on link")]
    fn sending_on_foreign_link_panics() {
        struct Thief {
            foreign: Option<LinkId>,
        }
        impl Actor<u64> for Thief {
            fn on_message(&mut self, _: &mut Context<'_, u64>, _: HostId, _: u64) {}
            fn on_tick(&mut self, ctx: &mut Context<'_, u64>) {
                if let Some(l) = self.foreign {
                    ctx.send(l, 0);
                }
            }
        }
        let mut w: World<Thief, u64> = World::new(6);
        let a = w.add_actor(Thief { foreign: None });
        let b = w.add_actor(Thief { foreign: None });
        let ab = w.add_link(a, b, LinkConfig::reliable(1));
        w.actor_mut(b).foreign = Some(ab); // b tries to use a's uplink
        w.run_ticks(1);
    }
}
