//! Session driver: topology × strategy × simulated network → report.

use curtain_gf::ReedSolomon;
use curtain_rlnc::{BufPool, Encoder, PacketBuf, Recoder};
use curtain_simnet::{HostId, LinkConfig, World};
use curtain_telemetry::SharedRecorder;
use rand::rngs::StdRng;
use rand::{RngExt as _, SeedableRng};

use crate::attacks::AttackMode;
use crate::metrics::SessionReport;
use crate::peer::{ClientRole, Msg, OutLink, Peer, Role, ServerRole};
use crate::topology::{Endpoint, TopologySpec};

/// Content distribution strategy (see crate docs for the comparison).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Random linear network coding with recoding at every peer.
    Rlnc,
    /// Uncoded random chunk gossip (no recoding, no source coding).
    Routing,
    /// Reed–Solomon at the source, column-pure forwarding at peers.
    SourceErasure,
}

/// Parameters of a broadcast session.
#[derive(Debug, Clone)]
pub struct SessionConfig {
    /// The strategy under test.
    pub strategy: Strategy,
    /// Total content packets. For [`Strategy::SourceErasure`] this must be
    /// divisible by the stripe size (the common in-degree `d`).
    pub total_chunks: usize,
    /// Bytes per packet.
    pub packet_len: usize,
    /// Link latency in ticks.
    pub latency: u64,
    /// Ergodic per-packet loss probability on every link.
    pub loss: f64,
    /// Simulation budget.
    pub max_ticks: u64,
    /// Per-client attack modes (client index, mode).
    pub attacks: Vec<(usize, AttackMode)>,
    /// Stripe size for erasure (defaults to the topology's common
    /// in-degree).
    pub erasure_stripe: Option<usize>,
    /// Maximum per-packet jitter (uniform extra delay in ticks).
    pub jitter: u64,
    /// If set, the server stops transmitting at this tick — the §6/§7
    /// "self-sustaining" scenario where the source disconnects after
    /// seeding and the swarm must finish from its collective buffers.
    pub server_departs_at: Option<u64>,
}

impl SessionConfig {
    /// Creates a config with reliable unit-latency links and a generous
    /// tick budget.
    ///
    /// # Panics
    ///
    /// Panics if `total_chunks == 0` or `packet_len == 0`.
    #[must_use]
    pub fn new(strategy: Strategy, total_chunks: usize, packet_len: usize) -> Self {
        assert!(total_chunks > 0, "need at least one chunk");
        assert!(packet_len > 0, "packets need at least one byte");
        SessionConfig {
            strategy,
            total_chunks,
            packet_len,
            latency: 1,
            loss: 0.0,
            max_ticks: 10_000,
            attacks: Vec::new(),
            erasure_stripe: None,
            jitter: 0,
            server_departs_at: None,
        }
    }

    /// Sets the maximum per-packet jitter.
    #[must_use]
    pub fn with_jitter(mut self, jitter: u64) -> Self {
        self.jitter = jitter;
        self
    }

    /// Makes the server leave (stop transmitting) at the given tick.
    #[must_use]
    pub fn with_server_departure(mut self, tick: u64) -> Self {
        self.server_departs_at = Some(tick);
        self
    }

    /// Sets link latency (ticks).
    ///
    /// # Panics
    ///
    /// Panics if `latency == 0`.
    #[must_use]
    pub fn with_latency(mut self, latency: u64) -> Self {
        assert!(latency > 0, "latency must be positive");
        self.latency = latency;
        self
    }

    /// Sets iid per-packet loss.
    #[must_use]
    pub fn with_loss(mut self, loss: f64) -> Self {
        self.loss = loss;
        self
    }

    /// Sets the simulation budget.
    #[must_use]
    pub fn with_max_ticks(mut self, max_ticks: u64) -> Self {
        self.max_ticks = max_ticks;
        self
    }

    /// Assigns an attack mode to a client.
    #[must_use]
    pub fn with_attack(mut self, client: usize, mode: AttackMode) -> Self {
        self.attacks.push((client, mode));
        self
    }

    /// Assigns an attack mode to many clients.
    #[must_use]
    pub fn with_attacks(mut self, clients: &[usize], mode: AttackMode) -> Self {
        self.attacks.extend(clients.iter().map(|&c| (c, mode)));
        self
    }

    /// Overrides the erasure stripe size.
    #[must_use]
    pub fn with_erasure_stripe(mut self, stripe: usize) -> Self {
        self.erasure_stripe = Some(stripe);
        self
    }
}

/// A runnable broadcast session.
#[derive(Debug)]
pub struct Session;

impl Session {
    /// Runs the session and returns the report.
    ///
    /// Deterministic: identical `(topo, cfg, seed)` triples produce
    /// identical reports.
    ///
    /// # Panics
    ///
    /// Panics on inconsistent configuration (e.g. erasure on a topology
    /// without thread labels, or stripe size not dividing `total_chunks`).
    #[must_use]
    pub fn run(topo: &TopologySpec, cfg: &SessionConfig, seed: u64) -> SessionReport {
        Self::run_traced(topo, cfg, seed, SharedRecorder::null())
    }

    /// Like [`Session::run`], with a telemetry recorder: the world stamps
    /// it with sim-ticks and emits link drops; RLNC clients emit
    /// per-packet innovative/redundant events labelled by host index
    /// (server = 0, client `i` = `i + 1`).
    ///
    /// Tracing does not perturb the run: identical `(topo, cfg, seed)`
    /// produce identical reports with or without a live recorder.
    ///
    /// # Panics
    ///
    /// Same conditions as [`Session::run`].
    #[must_use]
    pub fn run_traced(
        topo: &TopologySpec,
        cfg: &SessionConfig,
        seed: u64,
        recorder: SharedRecorder,
    ) -> SessionReport {
        topo.assert_invariants();
        // Deterministic content, distinct from the world RNG stream.
        let mut content_rng = StdRng::seed_from_u64(seed ^ 0x5eed_c0de_u64);
        let content: Vec<Vec<u8>> = (0..cfg.total_chunks)
            .map(|_| {
                let mut c = vec![0u8; cfg.packet_len];
                content_rng.fill(&mut c[..]);
                c
            })
            .collect();

        // Erasure precomputation.
        let (stripe_size, rs, stripes_shares) = if cfg.strategy == Strategy::SourceErasure {
            let stripe = cfg.erasure_stripe.unwrap_or_else(|| common_in_degree(topo));
            assert!(stripe > 0, "erasure stripe must be positive");
            assert_eq!(
                cfg.total_chunks % stripe,
                0,
                "total_chunks must be divisible by the stripe size"
            );
            let rs = ReedSolomon::new(stripe, topo.k);
            let n_stripes = cfg.total_chunks / stripe;
            let shares: Vec<Vec<PacketBuf>> = (0..n_stripes)
                .map(|m| {
                    rs.encode(&content[m * stripe..(m + 1) * stripe])
                        .into_iter()
                        .map(PacketBuf::from)
                        .collect()
                })
                .collect();
            (stripe, Some(rs), shares)
        } else {
            (0, None, Vec::new())
        };

        let mut attack_of = vec![AttackMode::Honest; topo.nodes];
        for &(client, mode) in &cfg.attacks {
            assert!(client < topo.nodes, "attack target out of range");
            attack_of[client] = mode;
        }

        // Build the world: host 0 = server, host i+1 = client i.
        let mut world: World<Peer, Msg> = World::new(seed);
        world.set_recorder(recorder.clone());
        world.set_message_sizer(Msg::wire_size);
        let server_role = match cfg.strategy {
            Strategy::Rlnc => Role::Server(ServerRole::Rlnc {
                encoder: Encoder::new(0, content.clone()).expect("non-empty content"),
            }),
            Strategy::Routing => Role::Server(ServerRole::Routing {
                chunks: content.iter().cloned().map(PacketBuf::from).collect(),
            }),
            Strategy::SourceErasure => {
                Role::Server(ServerRole::Erasure { shares: stripes_shares.clone() })
            }
        };
        world.add_actor(Peer {
            alive: true,
            attack: AttackMode::Honest,
            outs: Vec::new(),
            role: server_role,
            completed_at: Some(0),
            cursors: Vec::new(),
            gen_size: cfg.total_chunks,
            packet_len: cfg.packet_len,
            received_packets: 0,
            sent_packets: 0,
        });
        let in_degrees = topo.in_degrees();
        for i in 0..topo.nodes {
            let role = match cfg.strategy {
                Strategy::Rlnc => {
                    // Per-client pool: recoder row traffic recycles
                    // instead of allocating per packet.
                    let mut recoder = Recoder::with_pool(
                        0,
                        cfg.total_chunks,
                        cfg.packet_len,
                        BufPool::default(),
                    );
                    if recorder.is_enabled() {
                        recoder.set_telemetry(recorder.clone(), i as u64 + 1);
                    }
                    Role::Client(ClientRole::Rlnc { recoder, pinned: None })
                }
                Strategy::Routing => Role::Client(ClientRole::Routing {
                    chunks: vec![None; cfg.total_chunks],
                    have: 0,
                }),
                Strategy::SourceErasure => {
                    // A node can only ever see as many shares per stripe as
                    // it has in-streams; the stripe size must not exceed it.
                    assert!(
                        attack_of[i] != AttackMode::Honest
                            || topo.dead[i]
                            || in_degrees[i] >= stripe_size,
                        "client {i} has in-degree {} < stripe size {stripe_size}",
                        in_degrees[i]
                    );
                    Role::Client(ClientRole::Erasure {
                        shares: vec![vec![None; topo.k]; cfg.total_chunks / stripe_size],
                        needed: stripe_size,
                        stripes_done: 0,
                    })
                }
            };
            world.add_actor(Peer {
                alive: !topo.dead[i] && attack_of[i] != AttackMode::Fail,
                attack: attack_of[i],
                outs: Vec::new(),
                role,
                completed_at: None,
                cursors: Vec::new(),
                gen_size: cfg.total_chunks,
                packet_len: cfg.packet_len,
                received_packets: 0,
                sent_packets: 0,
            });
        }
        // Links.
        let link_cfg = LinkConfig::reliable(cfg.latency)
            .with_loss(cfg.loss)
            .with_jitter(cfg.jitter);
        for e in &topo.edges {
            let from = match e.from {
                Endpoint::Server => HostId(0),
                Endpoint::Node(u) => HostId(u as u32 + 1),
            };
            let to = HostId(e.to as u32 + 1);
            let link = world.add_link(from, to, link_cfg);
            let sender = world.actor_mut(from);
            sender.outs.push(OutLink { link, thread: e.thread });
            sender.cursors.push(0);
        }

        // Run until every live honest client is done or the budget runs out.
        let victims: Vec<HostId> = (0..topo.nodes)
            .filter(|&i| !topo.dead[i] && attack_of[i] == AttackMode::Honest)
            .map(|i| HostId(i as u32 + 1))
            .collect();
        let mut departed = false;
        for _ in 0..cfg.max_ticks {
            if let Some(at) = cfg.server_departs_at {
                if !departed && world.now().ticks() >= at {
                    world.actor_mut(HostId(0)).alive = false;
                    departed = true;
                }
            }
            world.tick();
            if victims.iter().all(|&h| world.actor(h).completed_at.is_some()) {
                break;
            }
        }

        // Harvest.
        let mut completed_at = Vec::with_capacity(topo.nodes);
        let mut progress = Vec::with_capacity(topo.nodes);
        let mut corrupted = vec![false; topo.nodes];
        let mut excluded = Vec::with_capacity(topo.nodes);
        let mut received_packets = Vec::with_capacity(topo.nodes);
        let mut sent_packets = Vec::with_capacity(topo.nodes);
        for i in 0..topo.nodes {
            let peer = world.actor(HostId(i as u32 + 1));
            completed_at.push(peer.completed_at);
            progress.push(peer.progress());
            excluded.push(topo.dead[i] || attack_of[i].is_adversarial());
            received_packets.push(peer.received_packets);
            sent_packets.push(peer.sent_packets);
            if peer.completed_at.is_some() {
                corrupted[i] = !content_matches(peer, &content, rs.as_ref(), stripe_size);
            }
        }
        SessionReport {
            completed_at,
            progress,
            corrupted,
            excluded,
            net: world.stats(),
            ticks_run: world.now().ticks(),
            received_packets,
            sent_packets,
        }
    }
}

/// The (asserted-common) in-degree of live honest nodes.
fn common_in_degree(topo: &TopologySpec) -> usize {
    let degrees = topo.in_degrees();
    let live: Vec<usize> = (0..topo.nodes)
        .filter(|&i| !topo.dead[i])
        .map(|i| degrees[i])
        .collect();
    let d = live.first().copied().unwrap_or(0);
    assert!(
        live.iter().all(|&x| x == d),
        "erasure requires a uniform in-degree; found {live:?}"
    );
    d
}

/// Verifies a completed peer actually recovered the original content.
fn content_matches(
    peer: &Peer,
    content: &[Vec<u8>],
    rs: Option<&ReedSolomon>,
    stripe_size: usize,
) -> bool {
    match &peer.role {
        Role::Server(_) => true,
        Role::Client(ClientRole::Rlnc { recoder, .. }) => match recoder.recover() {
            Some(got) => got == content,
            None => false,
        },
        Role::Client(ClientRole::Routing { chunks, .. }) => chunks
            .iter()
            .zip(content)
            .all(|(got, want)| got.as_deref() == Some(want.as_slice())),
        Role::Client(ClientRole::Erasure { shares, needed, .. }) => {
            let rs = rs.expect("erasure session has an RS code");
            for (m, stripe_shares) in shares.iter().enumerate() {
                let got: Vec<(usize, Vec<u8>)> = stripe_shares
                    .iter()
                    .enumerate()
                    .filter_map(|(c, s)| s.as_ref().map(|b| (c, b.to_vec())))
                    .take(*needed)
                    .collect();
                if got.len() < *needed {
                    return false;
                }
                match rs.decode(&got) {
                    Ok(decoded) => {
                        if decoded != content[m * stripe_size..(m + 1) * stripe_size] {
                            return false;
                        }
                    }
                    Err(_) => return false,
                }
            }
            true
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use curtain_overlay::{CurtainNetwork, OverlayConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn curtain(k: usize, d: usize, n: usize, seed: u64) -> TopologySpec {
        let mut net = CurtainNetwork::new(OverlayConfig::new(k, d)).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..n {
            net.join(&mut rng);
        }
        TopologySpec::from_curtain(&net)
    }

    #[test]
    fn rlnc_completes_everyone() {
        let topo = curtain(8, 2, 25, 1);
        let cfg = SessionConfig::new(Strategy::Rlnc, 16, 32).with_max_ticks(2000);
        let report = Session::run(&topo, &cfg, 42);
        assert_eq!(report.completion_fraction(), 1.0);
        assert_eq!(report.corruption_fraction(), 0.0);
        assert!(report.mean_completion_tick().unwrap() >= 16.0 / 2.0);
    }

    #[test]
    fn routing_completes_but_slower_than_rlnc() {
        let topo = curtain(8, 2, 25, 2);
        let rlnc = Session::run(
            &topo,
            &SessionConfig::new(Strategy::Rlnc, 16, 32).with_max_ticks(4000),
            3,
        );
        let routing = Session::run(
            &topo,
            &SessionConfig::new(Strategy::Routing, 16, 32).with_max_ticks(4000),
            3,
        );
        assert_eq!(rlnc.completion_fraction(), 1.0);
        // Coupon-collector: routing needs strictly more time on average.
        let t_rlnc = rlnc.mean_completion_tick().unwrap();
        // `None` (routing never finished) also counts as "slower".
        if let Some(t_routing) = routing.mean_completion_tick() {
            assert!(
                t_routing > t_rlnc,
                "routing {t_routing} should be slower than rlnc {t_rlnc}"
            );
        }
    }

    #[test]
    fn erasure_completes_on_healthy_network() {
        let topo = curtain(8, 2, 20, 4);
        let cfg = SessionConfig::new(Strategy::SourceErasure, 16, 32).with_max_ticks(4000);
        let report = Session::run(&topo, &cfg, 5);
        assert_eq!(report.completion_fraction(), 1.0);
        assert_eq!(report.corruption_fraction(), 0.0);
    }

    #[test]
    fn erasure_cannot_reroute_around_failures_but_rlnc_can() {
        // Kill a very early node: its whole column subtree loses that share.
        let mut topo = curtain(6, 2, 40, 6);
        topo.kill(&[0, 1]);
        let erasure = Session::run(
            &topo,
            &SessionConfig::new(Strategy::SourceErasure, 16, 32).with_max_ticks(4000),
            7,
        );
        let rlnc = Session::run(
            &topo,
            &SessionConfig::new(Strategy::Rlnc, 16, 32).with_max_ticks(4000),
            7,
        );
        // RLNC: every node with min-cut >= 1 eventually completes (packets
        // keep flowing and remain innovative across any cut).
        assert!(rlnc.completion_fraction() > erasure.completion_fraction(),
            "rlnc {} vs erasure {}", rlnc.completion_fraction(), erasure.completion_fraction());
    }

    #[test]
    fn loss_delays_but_does_not_prevent_rlnc() {
        let topo = curtain(8, 3, 15, 8);
        let clean = Session::run(
            &topo,
            &SessionConfig::new(Strategy::Rlnc, 12, 16).with_max_ticks(6000),
            9,
        );
        let lossy = Session::run(
            &topo,
            &SessionConfig::new(Strategy::Rlnc, 12, 16)
                .with_loss(0.2)
                .with_max_ticks(6000),
            9,
        );
        assert_eq!(clean.completion_fraction(), 1.0);
        assert_eq!(lossy.completion_fraction(), 1.0);
        assert!(
            lossy.mean_completion_tick().unwrap() > clean.mean_completion_tick().unwrap()
        );
    }

    #[test]
    fn determinism() {
        let topo = curtain(8, 2, 15, 10);
        let cfg = SessionConfig::new(Strategy::Rlnc, 8, 16).with_loss(0.1);
        let a = Session::run(&topo, &cfg, 11);
        let b = Session::run(&topo, &cfg, 11);
        assert_eq!(a.completed_at, b.completed_at);
        assert_eq!(a.net, b.net);
    }

    #[test]
    fn tracing_captures_events_without_perturbing_the_run() {
        use curtain_telemetry::{Event, MemorySink, SharedRecorder};

        let topo = curtain(8, 2, 15, 10);
        let cfg = SessionConfig::new(Strategy::Rlnc, 8, 16).with_loss(0.1);
        let untraced = Session::run(&topo, &cfg, 11);
        let sink = MemorySink::new();
        let traced = Session::run_traced(&topo, &cfg, 11, SharedRecorder::new(sink.clone()));
        assert_eq!(untraced.completed_at, traced.completed_at);
        assert_eq!(untraced.net, traced.net);

        let events = sink.events();
        let innovative = events
            .iter()
            .filter(|(_, e)| matches!(e, Event::PacketInnovative { .. }))
            .count() as u64;
        let drops = events
            .iter()
            .filter(|(_, e)| matches!(e, Event::LinkDrop { .. }))
            .count() as u64;
        // Innovative receptions = total rank accumulated across clients;
        // with a full run that is g per client. Every drop is traced.
        if traced.completion_fraction() == 1.0 {
            assert_eq!(innovative, 8 * 15);
        } else {
            assert!(innovative > 0);
        }
        assert_eq!(drops, traced.net.lost + traced.net.capacity_drops);
        assert!(drops > 0, "a 10% loss run should trace some drops");
        // Timestamps are sim-ticks, monotone over the event stream.
        assert!(events.windows(2).all(|w| w[0].0 <= w[1].0));
        assert!(events.last().unwrap().0 <= traced.ticks_run);
    }

    #[test]
    fn byte_counters_reflect_wire_sizes() {
        let topo = curtain(8, 2, 10, 24);
        let cfg = SessionConfig::new(Strategy::Rlnc, 4, 16).with_max_ticks(1000);
        let report = Session::run(&topo, &cfg, 25);
        // Every RLNC message is 4 + g + packet_len = 24 bytes on the wire.
        assert_eq!(report.net.bytes_offered, report.net.offered * 24);
        assert_eq!(report.net.bytes_delivered, report.net.delivered * 24);
        assert_eq!(report.net.per_link.len(), topo.edges.len());
        let per_link_offered: u64 = report.net.per_link.iter().map(|l| l.offered).sum();
        assert_eq!(per_link_offered, report.net.offered);
    }

    #[test]
    fn failed_nodes_are_excluded_and_stall_descendants_only() {
        let mut topo = curtain(8, 2, 30, 12);
        topo.kill(&[5]);
        let report = Session::run(
            &topo,
            &SessionConfig::new(Strategy::Rlnc, 8, 16).with_max_ticks(3000),
            13,
        );
        assert!(report.excluded[5]);
        assert!(report.completed_at[5].is_none());
        // Min-cut of every live node is >= 1 here, so everyone completes.
        assert_eq!(report.completion_fraction(), 1.0);
    }

    #[test]
    fn jamming_corrupts_downstream() {
        let topo = curtain(6, 2, 30, 14);
        // Make several early nodes jammers to poison the body of the curtain.
        let cfg = SessionConfig::new(Strategy::Rlnc, 8, 16)
            .with_attacks(&[0, 1, 2], AttackMode::Jamming)
            .with_max_ticks(3000);
        let report = Session::run(&topo, &cfg, 15);
        assert!(
            report.corruption_fraction() > 0.3,
            "jamming should poison many nodes, got {}",
            report.corruption_fraction()
        );
    }

    #[test]
    fn entropy_destruction_stalls_but_does_not_corrupt() {
        let topo = curtain(4, 2, 30, 16);
        let cfg = SessionConfig::new(Strategy::Rlnc, 16, 16)
            .with_attacks(&[0, 1, 2, 3], AttackMode::EntropyDestruction)
            .with_max_ticks(800);
        let report = Session::run(&topo, &cfg, 17);
        assert_eq!(report.corruption_fraction(), 0.0, "destroyers never corrupt");
        assert!(
            report.completion_fraction() < 1.0,
            "destroyers at the top of a k=4 curtain should stall someone"
        );
    }

    #[test]
    fn server_departure_strands_late_ranks_without_buffered_peers() {
        // With a single deep curtain and an early departure, nodes keep
        // exchanging — the collective span caps what anyone can reach.
        let topo = curtain(8, 2, 30, 20);
        let total = 16;
        // Server leaves absurdly early: nobody can have the full span yet,
        // so nobody completes even with infinite time.
        let early = Session::run(
            &topo,
            &SessionConfig::new(Strategy::Rlnc, total, 32)
                .with_server_departure(3)
                .with_max_ticks(2000),
            21,
        );
        assert!(
            early.completion_fraction() < 1.0,
            "leaving at tick 3 cannot have seeded rank {total}"
        );
        // Server leaves after the swarm collectively holds everything:
        // the swarm self-sustains to 100%.
        let late = Session::run(
            &topo,
            &SessionConfig::new(Strategy::Rlnc, total, 32)
                .with_server_departure(200)
                .with_max_ticks(4000),
            21,
        );
        assert_eq!(late.completion_fraction(), 1.0, "swarm should self-sustain");
    }

    #[test]
    fn jitter_spreads_completion_without_breaking_it() {
        let topo = curtain(8, 2, 20, 22);
        let base = SessionConfig::new(Strategy::Rlnc, 12, 32).with_max_ticks(3000);
        let smooth = Session::run(&topo, &base, 23);
        let jittery = Session::run(&topo, &base.clone().with_jitter(5), 23);
        assert_eq!(smooth.completion_fraction(), 1.0);
        assert_eq!(jittery.completion_fraction(), 1.0);
        assert!(
            jittery.mean_completion_tick().unwrap() >= smooth.mean_completion_tick().unwrap()
        );
    }

    #[test]
    fn forest_topology_runs_rlnc_and_erasure() {
        // The §6 SplitStream-style forest: d trees = d threads; erasure
        // stripes one share per tree ([10, 4]); RLNC recodes across them.
        use curtain_overlay::forest::ForestOverlay;
        let mut f = ForestOverlay::new(3, 6);
        for _ in 0..40 {
            f.join();
        }
        let topo = TopologySpec::from_forest(&f);
        for strategy in [Strategy::Rlnc, Strategy::SourceErasure] {
            let report = Session::run(
                &topo,
                &SessionConfig::new(strategy, 18, 32).with_max_ticks(3000),
                30,
            );
            assert_eq!(report.completion_fraction(), 1.0, "{strategy:?} on forest");
            assert_eq!(report.corruption_fraction(), 0.0);
        }
        // Kill one interior node: erasure loses that stripe's subtree,
        // RLNC reroutes through the other trees.
        let mut topo = TopologySpec::from_forest(&f);
        topo.kill(&[0]);
        let erasure = Session::run(
            &topo,
            &SessionConfig::new(Strategy::SourceErasure, 18, 32).with_max_ticks(3000),
            31,
        );
        let rlnc = Session::run(
            &topo,
            &SessionConfig::new(Strategy::Rlnc, 18, 32).with_max_ticks(3000),
            31,
        );
        assert!(
            rlnc.completion_fraction() >= erasure.completion_fraction(),
            "rlnc {} vs erasure {}",
            rlnc.completion_fraction(),
            erasure.completion_fraction()
        );
    }

    #[test]
    #[should_panic(expected = "divisible by the stripe size")]
    fn erasure_stripe_must_divide() {
        let topo = curtain(8, 3, 5, 18);
        let cfg = SessionConfig::new(Strategy::SourceErasure, 16, 8);
        let _ = Session::run(&topo, &cfg, 19);
    }
}
