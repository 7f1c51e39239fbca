//! Synchronous (live) streaming: sequential generations with play-out
//! deadlines.
//!
//! §1 distinguishes *synchronous* communication — "broadcasting a live or
//! pre-recorded television event to a set of receivers at nearly the same
//! time" — from file download. A stream is a sequence of generations; the
//! server serves each for a fixed window and then moves on, whether or not
//! everyone finished. A viewer *stalls* on a generation it could not
//! decode by its play-out deadline.
//!
//! Forwarding policy at peers: recode from the **newest** generation with
//! positive rank, falling back one generation when the newest has nothing
//! yet — the natural live-edge policy (stale segments are not worth
//! bandwidth once play-out passed them).

use std::collections::HashMap;

use curtain_codec::{BroadcastCodec, CodecConfig, CodecKind};
use curtain_rlnc::{BufPool, CodedPacket, Encoder, GenerationId, Recoder};
use curtain_simnet::{Actor, Context, HostId, LinkConfig, World};
use rand::rngs::StdRng;
use rand::{RngExt as _, SeedableRng};

use crate::topology::{Endpoint, TopologySpec};

/// Parameters of a streaming session.
#[derive(Debug, Clone)]
pub struct StreamConfig {
    /// Number of generations (segments) in the stream.
    pub generations: usize,
    /// Packets per generation.
    pub generation_size: usize,
    /// Bytes per packet.
    pub packet_len: usize,
    /// Server transmission window per generation, in ticks.
    pub ticks_per_generation: u64,
    /// Extra slack a viewer gets past the server window before a segment
    /// counts as stalled (client-side buffering).
    pub playout_slack: u64,
    /// Link latency.
    pub latency: u64,
    /// Per-packet loss.
    pub loss: f64,
    /// Codec backend serving the stream. [`CodecKind::Rlnc`] keeps the
    /// original per-generation pipeline; `Overlap`/`Window` route the
    /// session through `curtain-codec`.
    pub codec: CodecKind,
}

impl StreamConfig {
    /// A stream of `generations × generation_size` packets with sensible
    /// defaults: the server window is sized for rate `d` delivery plus
    /// margin.
    ///
    /// # Panics
    ///
    /// Panics on zero sizes.
    #[must_use]
    pub fn new(generations: usize, generation_size: usize, packet_len: usize, d: usize) -> Self {
        assert!(generations > 0 && generation_size > 0 && packet_len > 0 && d > 0);
        let ticks = (generation_size as u64).div_ceil(d as u64) + 4;
        StreamConfig {
            generations,
            generation_size,
            packet_len,
            ticks_per_generation: ticks,
            playout_slack: 3 * ticks,
            latency: 1,
            loss: 0.0,
            codec: CodecKind::Rlnc,
        }
    }

    /// Selects the codec backend for the session.
    #[must_use]
    pub fn with_codec(mut self, codec: CodecKind) -> Self {
        self.codec = codec;
        self
    }

    /// Sets the loss probability.
    #[must_use]
    pub fn with_loss(mut self, loss: f64) -> Self {
        self.loss = loss;
        self
    }

    /// Sets the play-out slack.
    #[must_use]
    pub fn with_playout_slack(mut self, slack: u64) -> Self {
        self.playout_slack = slack;
        self
    }

    /// Total ticks the session runs (all windows plus drain time).
    #[must_use]
    pub fn total_ticks(&self) -> u64 {
        self.generations as u64 * self.ticks_per_generation + self.playout_slack + 20
    }
}

/// Per-viewer outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ViewerReport {
    /// Tick the first generation completed (join-to-picture latency);
    /// `None` = never.
    pub startup_tick: Option<u64>,
    /// Segments decoded by their deadline.
    pub on_time: usize,
    /// Segments decoded late or never — play-out stalls.
    pub stalls: usize,
    /// Segments fully decoded by the end (late ones included).
    pub decoded: usize,
}

/// Whole-session outcome.
#[derive(Debug, Clone)]
pub struct StreamReport {
    /// Per-viewer reports, indexed like the topology's clients.
    pub viewers: Vec<ViewerReport>,
    /// Generations in the stream.
    pub generations: usize,
    /// Dead clients (excluded from aggregates).
    pub excluded: Vec<bool>,
}

impl StreamReport {
    /// Mean fraction of segments played on time, over live viewers.
    #[must_use]
    pub fn continuity(&self) -> f64 {
        let mut acc = 0.0;
        let mut n = 0;
        for (v, &dead) in self.viewers.iter().zip(&self.excluded) {
            if dead {
                continue;
            }
            acc += v.on_time as f64 / self.generations as f64;
            n += 1;
        }
        acc / f64::from(n.max(1) as u32)
    }

    /// Fraction of live viewers with zero stalls.
    #[must_use]
    pub fn flawless_fraction(&self) -> f64 {
        let mut flawless = 0;
        let mut n = 0;
        for (v, &dead) in self.viewers.iter().zip(&self.excluded) {
            if dead {
                continue;
            }
            if v.stalls == 0 {
                flawless += 1;
            }
            n += 1;
        }
        flawless as f64 / f64::from(n.max(1) as u32)
    }

    /// Mean startup latency over live viewers that ever started.
    #[must_use]
    pub fn mean_startup(&self) -> Option<f64> {
        let starts: Vec<f64> = self
            .viewers
            .iter()
            .zip(&self.excluded)
            .filter(|(_, &dead)| !dead)
            .filter_map(|(v, _)| v.startup_tick.map(|t| t as f64))
            .collect();
        if starts.is_empty() {
            None
        } else {
            Some(starts.iter().sum::<f64>() / starts.len() as f64)
        }
    }
}

/// Actor state for the streaming session.
enum StreamRole {
    Server { encoders: Vec<Encoder> },
    Viewer { recoders: HashMap<GenerationId, Recoder> },
}

struct StreamPeer {
    alive: bool,
    role: StreamRole,
    outs: Vec<curtain_simnet::LinkId>,
    /// Tick each generation completed, by generation index.
    completed: Vec<Option<u64>>,
    cfg: StreamShape,
    /// Shared packet-buffer pool: every generation's recoder rows recycle
    /// through here, so the sliding window allocates only while warming up.
    pool: BufPool,
}

#[derive(Clone, Copy)]
struct StreamShape {
    generations: usize,
    generation_size: usize,
    packet_len: usize,
    ticks_per_generation: u64,
}

impl StreamPeer {
    fn current_window(&self, now: u64) -> usize {
        ((now / self.cfg.ticks_per_generation) as usize).min(self.cfg.generations - 1)
    }
}

impl Actor<CodedPacket> for StreamPeer {
    fn on_message(&mut self, ctx: &mut Context<'_, CodedPacket>, _from: HostId, msg: CodedPacket) {
        if !self.alive {
            return;
        }
        let StreamRole::Viewer { recoders } = &mut self.role else {
            return; // server ignores inbound
        };
        let generation = msg.generation();
        if generation as usize >= self.cfg.generations {
            return;
        }
        let recoder = recoders.entry(generation).or_insert_with(|| {
            Recoder::with_pool(
                generation,
                self.cfg.generation_size,
                self.cfg.packet_len,
                self.pool.clone(),
            )
        });
        if recoder.push(msg).unwrap_or(false)
            && recoder.is_complete()
            && self.completed[generation as usize].is_none()
        {
            self.completed[generation as usize] = Some(ctx.now().ticks());
        }
    }

    fn on_tick(&mut self, ctx: &mut Context<'_, CodedPacket>) {
        if !self.alive {
            return;
        }
        let now = ctx.now().ticks();
        let window = self.current_window(now);
        match &mut self.role {
            StreamRole::Server { encoders } => {
                for i in 0..self.outs.len() {
                    let p = encoders[window].encode(ctx.rng());
                    ctx.send(self.outs[i], p);
                }
            }
            StreamRole::Viewer { recoders } => {
                // Live-edge policy: newest generation with rank, else the
                // previous one (covers the window hand-off).
                for i in 0..self.outs.len() {
                    let pick = (0..=window)
                        .rev()
                        .take(2)
                        .find(|g| {
                            recoders
                                .get(&(*g as GenerationId))
                                .is_some_and(|r| r.rank() > 0)
                        })
                        .or_else(|| {
                            (0..=window).rev().find(|g| {
                                recoders
                                    .get(&(*g as GenerationId))
                                    .is_some_and(|r| r.rank() > 0)
                            })
                        });
                    let Some(g) = pick else { continue };
                    let recoder = &recoders[&(g as GenerationId)];
                    if let Some(p) = recoder.recode(ctx.rng()) {
                        ctx.send(self.outs[i], p);
                    }
                }
            }
        }
    }
}

/// Actor state when a `curtain-codec` backend drives the stream: one
/// [`BroadcastCodec`] per peer replaces the per-generation encoder/recoder
/// maps, and segment completion is read off the codec's in-order delivery
/// progress (segment `i` is done once `(i+1)·g` packets are deliverable).
struct CodecStreamPeer {
    alive: bool,
    is_server: bool,
    codec: Box<dyn BroadcastCodec>,
    outs: Vec<curtain_simnet::LinkId>,
    completed: Vec<Option<u64>>,
    cfg: StreamShape,
}

impl Actor<CodedPacket> for CodecStreamPeer {
    fn on_message(&mut self, ctx: &mut Context<'_, CodedPacket>, _from: HostId, msg: CodedPacket) {
        if !self.alive || self.is_server {
            return;
        }
        // Malformed or stale packets are dropped, matching the legacy path.
        let _ = self.codec.ingest(msg);
        let now = ctx.now().ticks();
        // Segments complete independently: a stalled segment must not mask
        // later ones (viewers skip it and play on, as the legacy
        // per-generation pipeline does).
        let g = self.cfg.generation_size as u64;
        for seg in 0..self.cfg.generations {
            if self.completed[seg].is_none()
                && self.codec.is_range_decoded(seg as u64 * g, (seg as u64 + 1) * g)
            {
                self.completed[seg] = Some(now);
            }
        }
    }

    fn on_tick(&mut self, ctx: &mut Context<'_, CodedPacket>) {
        if !self.alive {
            return;
        }
        let now = ctx.now().ticks();
        if self.is_server {
            // Release source packets at the play-out rate: during window w
            // the first (w+1)·g packets are cut.
            let window = ((now / self.cfg.ticks_per_generation) as usize)
                .min(self.cfg.generations - 1);
            self.codec.advance_to(((window + 1) * self.cfg.generation_size) as u64);
            for i in 0..self.outs.len() {
                if let Some(p) = self.codec.encode(ctx.rng()) {
                    ctx.send(self.outs[i], p);
                }
            }
        } else {
            for i in 0..self.outs.len() {
                if let Some(p) = self.codec.recode(ctx.rng()) {
                    ctx.send(self.outs[i], p);
                }
            }
        }
    }
}

/// A live-streaming session over a static topology snapshot.
#[derive(Debug)]
pub struct StreamSession;

impl StreamSession {
    /// Runs the stream and reports per-viewer continuity.
    ///
    /// # Panics
    ///
    /// Panics on inconsistent configuration.
    #[must_use]
    pub fn run(topo: &TopologySpec, cfg: &StreamConfig, seed: u64) -> StreamReport {
        topo.assert_invariants();
        if cfg.codec != CodecKind::Rlnc {
            return Self::run_codec(topo, cfg, seed);
        }
        let shape = StreamShape {
            generations: cfg.generations,
            generation_size: cfg.generation_size,
            packet_len: cfg.packet_len,
            ticks_per_generation: cfg.ticks_per_generation,
        };
        // Deterministic content.
        let mut content_rng = StdRng::seed_from_u64(seed ^ 0x57e4);
        let encoders: Vec<Encoder> = (0..cfg.generations)
            .map(|g| {
                let packets: Vec<Vec<u8>> = (0..cfg.generation_size)
                    .map(|_| {
                        let mut p = vec![0u8; cfg.packet_len];
                        content_rng.fill(&mut p[..]);
                        p
                    })
                    .collect();
                Encoder::new(g as GenerationId, packets).expect("non-empty generation")
            })
            .collect();

        let mut world: World<StreamPeer, CodedPacket> = World::new(seed);
        world.add_actor(StreamPeer {
            alive: true,
            role: StreamRole::Server { encoders },
            outs: Vec::new(),
            completed: vec![None; cfg.generations],
            cfg: shape,
            pool: BufPool::default(),
        });
        for i in 0..topo.nodes {
            world.add_actor(StreamPeer {
                alive: !topo.dead[i],
                role: StreamRole::Viewer { recoders: HashMap::new() },
                outs: Vec::new(),
                completed: vec![None; cfg.generations],
                cfg: shape,
                pool: BufPool::default(),
            });
        }
        let link_cfg = LinkConfig::reliable(cfg.latency).with_loss(cfg.loss);
        for e in &topo.edges {
            let from = match e.from {
                Endpoint::Server => HostId(0),
                Endpoint::Node(u) => HostId(u as u32 + 1),
            };
            let to = HostId(e.to as u32 + 1);
            let link = world.add_link(from, to, link_cfg);
            world.actor_mut(from).outs.push(link);
        }
        world.run_ticks(cfg.total_ticks());

        // Harvest: deadlines are per-generation.
        let deadline =
            |g: usize| (g as u64 + 1) * cfg.ticks_per_generation + cfg.playout_slack;
        let mut viewers = Vec::with_capacity(topo.nodes);
        for i in 0..topo.nodes {
            let peer = world.actor(HostId(i as u32 + 1));
            let mut on_time = 0;
            let mut decoded = 0;
            for (g, done) in peer.completed.iter().enumerate() {
                match done {
                    Some(t) if *t <= deadline(g) => {
                        on_time += 1;
                        decoded += 1;
                    }
                    Some(_) => decoded += 1,
                    None => {}
                }
            }
            viewers.push(ViewerReport {
                startup_tick: peer.completed[0],
                on_time,
                stalls: cfg.generations - on_time,
                decoded,
            });
        }
        StreamReport {
            viewers,
            generations: cfg.generations,
            excluded: topo.dead.clone(),
        }
    }

    /// Codec-backed variant of [`StreamSession::run`]: the same topology,
    /// link model, deadlines, and harvest, but every peer speaks a
    /// [`BroadcastCodec`] in live mode instead of the fixed per-generation
    /// pipeline.
    fn run_codec(topo: &TopologySpec, cfg: &StreamConfig, seed: u64) -> StreamReport {
        let shape = StreamShape {
            generations: cfg.generations,
            generation_size: cfg.generation_size,
            packet_len: cfg.packet_len,
            ticks_per_generation: cfg.ticks_per_generation,
        };
        // Same deterministic content stream as the legacy path.
        let mut content_rng = StdRng::seed_from_u64(seed ^ 0x57e4);
        let mut data = vec![0u8; cfg.generations * cfg.generation_size * cfg.packet_len];
        content_rng.fill(&mut data[..]);
        let codec_cfg =
            CodecConfig::new(cfg.codec, cfg.generation_size, cfg.packet_len).with_live(true);

        let mut world: World<CodecStreamPeer, CodedPacket> = World::new(seed);
        world.add_actor(CodecStreamPeer {
            alive: true,
            is_server: true,
            codec: codec_cfg.source(&data),
            outs: Vec::new(),
            completed: vec![None; cfg.generations],
            cfg: shape,
        });
        for i in 0..topo.nodes {
            world.add_actor(CodecStreamPeer {
                alive: !topo.dead[i],
                is_server: false,
                codec: codec_cfg.sink(data.len()),
                outs: Vec::new(),
                completed: vec![None; cfg.generations],
                cfg: shape,
            });
        }
        let link_cfg = LinkConfig::reliable(cfg.latency).with_loss(cfg.loss);
        for e in &topo.edges {
            let from = match e.from {
                Endpoint::Server => HostId(0),
                Endpoint::Node(u) => HostId(u as u32 + 1),
            };
            let to = HostId(e.to as u32 + 1);
            let link = world.add_link(from, to, link_cfg);
            world.actor_mut(from).outs.push(link);
        }
        world.run_ticks(cfg.total_ticks());

        let deadline =
            |g: usize| (g as u64 + 1) * cfg.ticks_per_generation + cfg.playout_slack;
        let mut viewers = Vec::with_capacity(topo.nodes);
        for i in 0..topo.nodes {
            let peer = world.actor(HostId(i as u32 + 1));
            let mut on_time = 0;
            let mut decoded = 0;
            for (g, done) in peer.completed.iter().enumerate() {
                match done {
                    Some(t) if *t <= deadline(g) => {
                        on_time += 1;
                        decoded += 1;
                    }
                    Some(_) => decoded += 1,
                    None => {}
                }
            }
            viewers.push(ViewerReport {
                startup_tick: peer.completed[0],
                on_time,
                stalls: cfg.generations - on_time,
                decoded,
            });
        }
        StreamReport {
            viewers,
            generations: cfg.generations,
            excluded: topo.dead.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use curtain_overlay::{CurtainNetwork, OverlayConfig};

    fn curtain(k: usize, d: usize, n: usize, seed: u64) -> TopologySpec {
        let mut net = CurtainNetwork::new(OverlayConfig::new(k, d)).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..n {
            net.join(&mut rng);
        }
        TopologySpec::from_curtain(&net)
    }

    #[test]
    fn healthy_stream_plays_without_stalls() {
        let topo = curtain(12, 3, 30, 1);
        let cfg = StreamConfig::new(6, 12, 64, 3);
        let report = StreamSession::run(&topo, &cfg, 2);
        assert_eq!(report.flawless_fraction(), 1.0, "continuity {}", report.continuity());
        assert_eq!(report.continuity(), 1.0);
        assert!(report.mean_startup().unwrap() < cfg.ticks_per_generation as f64 * 3.0);
    }

    #[test]
    fn startup_latency_grows_with_depth() {
        // A deep curtain: later rows start later.
        let topo = curtain(4, 2, 60, 3);
        let cfg = StreamConfig::new(4, 8, 32, 2).with_playout_slack(500);
        let report = StreamSession::run(&topo, &cfg, 4);
        let first = report.viewers[1].startup_tick.unwrap();
        let last = report.viewers[55].startup_tick.unwrap();
        assert!(
            last > first,
            "deep viewer ({last}) should start after shallow ({first})"
        );
    }

    #[test]
    fn loss_causes_stalls_at_tight_deadlines() {
        let topo = curtain(8, 2, 40, 5);
        let tight = StreamConfig::new(8, 12, 64, 2).with_loss(0.15).with_playout_slack(2);
        let lossy = StreamSession::run(&topo, &tight, 6);
        let clean_cfg = StreamConfig::new(8, 12, 64, 2).with_playout_slack(2);
        let clean = StreamSession::run(&topo, &clean_cfg, 6);
        assert!(
            lossy.continuity() < clean.continuity(),
            "loss should hurt continuity: {} vs {}",
            lossy.continuity(),
            clean.continuity()
        );
    }

    #[test]
    fn dead_nodes_are_excluded() {
        let mut topo = curtain(8, 2, 20, 7);
        topo.kill(&[3, 4]);
        let cfg = StreamConfig::new(3, 8, 32, 2);
        let report = StreamSession::run(&topo, &cfg, 8);
        assert!(report.excluded[3] && report.excluded[4]);
        // Aggregates ignore them.
        assert!(report.continuity() > 0.0);
    }

    /// The overlap backend's live relay schedule is a heuristic: a class
    /// whose service window the moving edge cut short may never complete
    /// at a deep viewer, so whether one world plays *every* segment depends
    /// on the coefficient stream. The scenario's property is stated over a
    /// seed range instead: in every world every viewer gets its picture
    /// (segment 0 completes), and pooled over the range a viewer loses
    /// less than one of its `G` segments — continuity above `(G − 1) / G`.
    #[test]
    fn overlap_codec_streams_without_stalls() {
        let cfg = StreamConfig::new(6, 12, 64, 3).with_codec(CodecKind::Overlap);
        let (mut on_time, mut viewers) = (0, 0);
        for seed in 0..8 {
            let report = StreamSession::run(&curtain(12, 3, 30, seed), &cfg, seed);
            for (i, v) in report.viewers.iter().enumerate() {
                assert!(v.startup_tick.is_some(), "seed {seed}: viewer {i} never started");
            }
            on_time += report.viewers.iter().map(|v| v.on_time).sum::<usize>();
            viewers += report.viewers.len();
        }
        assert!(
            on_time > viewers * (cfg.generations - 1),
            "{on_time} on-time segments over {viewers} viewers of {} segments each",
            cfg.generations
        );
    }

    #[test]
    fn window_codec_streams_without_stalls() {
        let topo = curtain(12, 3, 30, 1);
        let cfg = StreamConfig::new(6, 12, 64, 3).with_codec(CodecKind::Window);
        let report = StreamSession::run(&topo, &cfg, 2);
        assert_eq!(report.continuity(), 1.0, "flawless {}", report.flawless_fraction());
    }

    #[test]
    fn codec_streams_tolerate_loss_with_slack() {
        let topo = curtain(10, 3, 24, 11);
        for kind in [CodecKind::Overlap, CodecKind::Window] {
            let cfg = StreamConfig::new(5, 8, 32, 3)
                .with_loss(0.1)
                .with_playout_slack(200)
                .with_codec(kind);
            let report = StreamSession::run(&topo, &cfg, 12);
            assert!(
                report.continuity() > 0.9,
                "{kind} continuity {} too low under mild loss",
                report.continuity()
            );
        }
    }

    #[test]
    fn larger_slack_never_reduces_continuity() {
        let topo = curtain(8, 2, 30, 9);
        let tight = StreamConfig::new(6, 10, 32, 2).with_loss(0.1).with_playout_slack(3);
        let loose = StreamConfig::new(6, 10, 32, 2).with_loss(0.1).with_playout_slack(60);
        let a = StreamSession::run(&topo, &tight, 10);
        let b = StreamSession::run(&topo, &loose, 10);
        assert!(b.continuity() >= a.continuity());
    }
}
