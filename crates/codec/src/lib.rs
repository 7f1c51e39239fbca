//! Pluggable broadcast codec backends for the curtain overlay.
//!
//! The PODC 2005 curtain codes a whole object as RLNC generations; this
//! crate abstracts that choice behind the [`BroadcastCodec`] trait so a
//! session can pick the coding discipline that fits its workload:
//!
//! | backend | selector | layout | best for |
//! |---|---|---|---|
//! | [`WholeObjectCodec`] | `rlnc` | disjoint [CWJ03] generations | file transfer |
//! | [`OverlapCodec`] | `overlap` | overlapping classes (Silva–Zeng–Kschischang, arXiv:0905.2796) | large objects, lower completion overhead |
//! | [`SlidingWindowCodec`] | `window` | bounded window over a packet stream (Li–Soljanin–Spasojević tradeoffs, arXiv:1011.3498) | live streams, bounded latency |
//!
//! All three speak [`CodedPacket`] on the wire, recode at intermediate
//! nodes, and report uniform [`CodecProgress`], so `crates/broadcast` can
//! swap them per stream (`StreamConfig::with_codec`).
//!
//! # Example
//!
//! ```
//! use curtain_codec::{BroadcastCodec, CodecConfig, CodecKind};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let data = vec![7u8; 300];
//! let cfg = CodecConfig::new(CodecKind::Overlap, 4, 16);
//! let mut src = cfg.source(&data);
//! let mut dst = cfg.sink(data.len());
//! let mut rng = StdRng::seed_from_u64(1);
//! while !dst.is_complete() {
//!     let p = src.encode(&mut rng).expect("source always has data");
//!     dst.ingest(p).unwrap();
//! }
//! assert_eq!(dst.decoded().unwrap(), data);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use curtain_rlnc::{CodedPacket, RlncError};
use curtain_telemetry::SharedRecorder;
use rand::RngCore;

mod overlap;
mod whole;
mod window;

pub use overlap::OverlapCodec;
pub use whole::WholeObjectCodec;
pub use window::SlidingWindowCodec;

/// Which codec backend a session runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CodecKind {
    /// Whole-object RLNC over disjoint generations (the paper's data plane).
    #[default]
    Rlnc,
    /// Overlapping classes with cross-class repair packets.
    Overlap,
    /// Sliding coding window for unbounded live streams.
    Window,
}

impl CodecKind {
    /// The canonical selector string (`rlnc`/`overlap`/`window`).
    #[must_use]
    pub fn as_str(&self) -> &'static str {
        match self {
            CodecKind::Rlnc => "rlnc",
            CodecKind::Overlap => "overlap",
            CodecKind::Window => "window",
        }
    }
}

impl std::fmt::Display for CodecKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Uniform decode-progress report across backends.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CodecProgress {
    /// Source packets delivered in order (contiguous decoded prefix).
    pub delivered_packets: u64,
    /// Bytes of original content covered by the delivered prefix.
    pub delivered_bytes: u64,
    /// Generations (or classes, or nominal window segments) fully decoded.
    pub complete_generations: u64,
    /// Total generations / classes the object spans.
    pub total_generations: u64,
    /// Global rank: independent packets of information held. Overlapping
    /// backends must never double-count shared packets here.
    pub rank: u64,
    /// Total source packets (after padding) needed for full decode.
    pub total_packets: u64,
}

/// A coding discipline for broadcast: how the source cuts and mixes
/// content, how relays recode, and how sinks decode.
///
/// One instance is one endpoint's state for one object/stream. Sources are
/// built with [`CodecConfig::source`]; sinks and relays with
/// [`CodecConfig::sink`] (a relay is a sink that never calls
/// [`BroadcastCodec::decoded`]). All backends exchange [`CodedPacket`]s;
/// the `generation` wire field carries the class id (generation-style
/// backends) or the window base (sliding window).
pub trait BroadcastCodec: Send {
    /// Which backend this is.
    fn kind(&self) -> CodecKind;

    /// Attaches a telemetry recorder; `node` labels this endpoint in events.
    fn set_telemetry(&mut self, recorder: SharedRecorder, node: u64);

    /// Source role: emits a fresh coded packet, or `None` if no source data
    /// is available yet (e.g. the live edge has not advanced).
    fn encode(&mut self, rng: &mut dyn RngCore) -> Option<CodedPacket>;

    /// Sink/relay role: absorbs a received packet. Returns `Ok(true)` iff
    /// the packet was innovative.
    ///
    /// # Errors
    ///
    /// Returns an [`RlncError`] when the packet's shape disagrees with the
    /// codec configuration (wrong coefficient or payload length, class id
    /// out of range).
    fn ingest(&mut self, packet: CodedPacket) -> Result<bool, RlncError>;

    /// Emits a fresh mix of everything this node holds, or `None` when it
    /// holds nothing to forward.
    fn recode(&mut self, rng: &mut dyn RngCore) -> Option<CodedPacket>;

    /// Source role: declares that source packets `< source_packet` exist
    /// (the live edge). Backends that cut generations lazily start serving
    /// them; the sliding window advances its base to stay within bounds.
    fn advance_to(&mut self, source_packet: u64);

    /// Source role: a delivery acknowledgement from downstream (packets
    /// `< delivered_packets` decoded somewhere). Lets the sliding window
    /// retire columns; generation backends ignore it.
    fn on_feedback(&mut self, delivered_packets: u64);

    /// Current decode progress.
    fn progress(&self) -> CodecProgress;

    /// True when every source packet in `[start, end)` has been decoded,
    /// regardless of holes elsewhere. The default derives it from the
    /// in-order delivery prefix; backends with random-access decode state
    /// override it so one undecodable stretch does not mask later
    /// segments (live streams skip stalled segments and play on).
    fn is_range_decoded(&self, start: u64, end: u64) -> bool {
        start >= end || end <= self.progress().delivered_packets
    }

    /// True when the whole object (or the whole announced stream prefix)
    /// has been decoded.
    fn is_complete(&self) -> bool;

    /// The decoded content, once [`BroadcastCodec::is_complete`]. Sources
    /// return their original data.
    fn decoded(&self) -> Option<Vec<u8>>;

    /// The active coding window `[base, end)` in source-packet indices,
    /// for backends that have one (`None` for generation-style backends).
    fn window(&self) -> Option<(u64, u64)>;
}

/// Configuration from which sessions build codec endpoints.
///
/// `generation_size` and `packet_len` mean `g` and `s` as everywhere else
/// in the workspace; `overlap` and `window` only affect the backends that
/// use them and get sane defaults (`g/4` shared packets, `2g` window).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CodecConfig {
    /// Selected backend.
    pub kind: CodecKind,
    /// Packets per generation / class, and the nominal segment size for the
    /// sliding window's progress accounting.
    pub generation_size: usize,
    /// Payload bytes per packet.
    pub packet_len: usize,
    /// Packets shared between consecutive classes (`Overlap` backend).
    pub overlap: usize,
    /// Coding window span in packets (`Window` backend).
    pub window: usize,
    /// `Overlap` backend: emit one cross-class repair packet every
    /// `repair_interval` coded packets (0 disables repair).
    pub repair_interval: usize,
    /// Live-stream semantics: sources start with nothing released (the live
    /// edge advances via [`BroadcastCodec::advance_to`]), and the sliding
    /// window expires old columns instead of waiting for acknowledgements.
    pub live: bool,
}

impl CodecConfig {
    /// A config with default overlap (`g/4`, min 1 when `g > 1`), window
    /// (`2g`) and repair cadence (every `2g` packets).
    ///
    /// # Panics
    ///
    /// Panics if `generation_size == 0` or `packet_len == 0`.
    #[must_use]
    pub fn new(kind: CodecKind, generation_size: usize, packet_len: usize) -> Self {
        assert!(generation_size > 0, "generation_size must be positive");
        assert!(packet_len > 0, "packet_len must be positive");
        let overlap = if generation_size > 1 { (generation_size / 4).max(1) } else { 0 };
        CodecConfig {
            kind,
            generation_size,
            packet_len,
            overlap,
            window: 2 * generation_size,
            repair_interval: 2 * generation_size,
            live: false,
        }
    }

    /// Overrides the class overlap (must stay below `generation_size`).
    #[must_use]
    pub fn with_overlap(mut self, overlap: usize) -> Self {
        assert!(overlap < self.generation_size, "overlap must be smaller than g");
        self.overlap = overlap;
        self
    }

    /// Overrides the sliding-window span (must cover one generation).
    #[must_use]
    pub fn with_window(mut self, window: usize) -> Self {
        assert!(window >= self.generation_size, "window must cover one generation");
        assert!(window <= u16::MAX as usize, "window exceeds wire coefficient count");
        self.window = window;
        self
    }

    /// Overrides the repair-packet cadence (0 disables repair packets).
    #[must_use]
    pub fn with_repair_interval(mut self, every: usize) -> Self {
        self.repair_interval = every;
        self
    }

    /// Switches to live-stream semantics (see [`CodecConfig::live`]).
    #[must_use]
    pub fn with_live(mut self, live: bool) -> Self {
        self.live = live;
        self
    }

    /// Builds the source endpoint holding `data`.
    #[must_use]
    pub fn source(&self, data: &[u8]) -> Box<dyn BroadcastCodec> {
        match self.kind {
            CodecKind::Rlnc => Box::new(WholeObjectCodec::source(self, data)),
            CodecKind::Overlap => Box::new(OverlapCodec::source(self, data)),
            CodecKind::Window => Box::new(SlidingWindowCodec::source(self, data)),
        }
    }

    /// Builds a sink/relay endpoint for an object of `content_len` bytes.
    #[must_use]
    pub fn sink(&self, content_len: usize) -> Box<dyn BroadcastCodec> {
        match self.kind {
            CodecKind::Rlnc => Box::new(WholeObjectCodec::sink(self, content_len)),
            CodecKind::Overlap => Box::new(OverlapCodec::sink(self, content_len)),
            CodecKind::Window => Box::new(SlidingWindowCodec::sink(self, content_len)),
        }
    }

    /// Source packets an object of `content_len` bytes cuts into (before
    /// class padding): `ceil(content_len / packet_len)`, minimum 1.
    #[must_use]
    pub fn packet_count(&self, content_len: usize) -> usize {
        content_len.div_ceil(self.packet_len).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sample_data(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 31 % 251) as u8).collect()
    }

    #[test]
    fn kind_selector_strings() {
        assert_eq!(CodecKind::Rlnc.as_str(), "rlnc");
        assert_eq!(CodecKind::Overlap.to_string(), "overlap");
        assert_eq!(CodecKind::Window.as_str(), "window");
    }

    /// The acceptance fixture: all three backends must produce byte-identical
    /// decoded output from the same content.
    #[test]
    fn all_backends_decode_identical_bytes() {
        let data = sample_data(700); // not a multiple of g·s
        for kind in [CodecKind::Rlnc, CodecKind::Overlap, CodecKind::Window] {
            let cfg = CodecConfig::new(kind, 8, 32);
            let mut src = cfg.source(&data);
            let mut dst = cfg.sink(data.len());
            let mut rng = StdRng::seed_from_u64(0xC0DEC);
            let mut sent = 0usize;
            while !dst.is_complete() {
                let p = src.encode(&mut rng).expect("source has data");
                let _ = dst.ingest(p).unwrap();
                src.on_feedback(dst.progress().delivered_packets);
                sent += 1;
                assert!(sent < 10_000, "{kind} did not converge");
            }
            assert_eq!(dst.decoded().unwrap(), data, "{kind} corrupted bytes");
            assert_eq!(src.decoded().unwrap(), data, "{kind} source decoded()");
            let prog = dst.progress();
            assert_eq!(prog.delivered_packets, prog.total_packets, "{kind}");
            assert_eq!(prog.delivered_bytes, data.len() as u64, "{kind}");
        }
    }

    /// Source → relay → sink through recode() for every backend.
    #[test]
    fn all_backends_survive_recoding_relay() {
        let data = sample_data(480);
        for kind in [CodecKind::Rlnc, CodecKind::Overlap, CodecKind::Window] {
            let cfg = CodecConfig::new(kind, 4, 16);
            let mut src = cfg.source(&data);
            let mut relay = cfg.sink(data.len());
            let mut dst = cfg.sink(data.len());
            let mut rng = StdRng::seed_from_u64(7);
            let mut steps = 0usize;
            while !dst.is_complete() {
                let p = src.encode(&mut rng).expect("source has data");
                let _ = relay.ingest(p).unwrap();
                if let Some(fwd) = relay.recode(&mut rng) {
                    let _ = dst.ingest(fwd).unwrap();
                }
                relay.on_feedback(dst.progress().delivered_packets);
                src.on_feedback(relay.progress().delivered_packets);
                steps += 1;
                assert!(steps < 20_000, "{kind} relay chain did not converge");
            }
            assert_eq!(dst.decoded().unwrap(), data, "{kind} via relay");
        }
    }

    #[test]
    fn progress_is_monotone_and_rank_bounded() {
        let data = sample_data(600);
        for kind in [CodecKind::Rlnc, CodecKind::Overlap, CodecKind::Window] {
            let cfg = CodecConfig::new(kind, 8, 16);
            let mut src = cfg.source(&data);
            let mut dst = cfg.sink(data.len());
            let mut rng = StdRng::seed_from_u64(99);
            let mut last = CodecProgress::default();
            while !dst.is_complete() {
                let p = src.encode(&mut rng).unwrap();
                let _ = dst.ingest(p).unwrap();
                src.on_feedback(dst.progress().delivered_packets);
                let now = dst.progress();
                assert!(now.rank >= last.rank, "{kind} rank regressed");
                assert!(now.delivered_packets >= last.delivered_packets, "{kind}");
                assert!(now.rank <= now.total_packets, "{kind} rank overcounts");
                last = now;
            }
        }
    }
}
