//! The receiver: progressive Gaussian elimination and recovery.

use curtain_telemetry::{Event, SharedRecorder};

use crate::buffer::BufPool;
use crate::error::RlncError;
use crate::generation::GenerationId;
use crate::packet::CodedPacket;
use crate::rowspace::RowSpace;
use crate::stats::CodingStats;

/// Decoder for one generation.
///
/// Packets are reduced on arrival (*progressive* decoding), so the cost of
/// the final recovery is amortized across the transfer and the current
/// [`Decoder::rank`] always equals the dimension of the received span —
/// which, by the main theorem of network coding, converges to the node's
/// min-cut from the server.
///
/// # Example
///
/// ```
/// use curtain_rlnc::{Decoder, Encoder};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(2);
/// let data = vec![vec![0xAA; 4], vec![0xBB; 4]];
/// let enc = Encoder::new(0, data.clone()).unwrap();
/// let mut dec = Decoder::new(0, 2, 4);
/// while !dec.is_complete() {
///     dec.push(enc.encode(&mut rng)).unwrap();
/// }
/// assert_eq!(dec.recover().unwrap(), data);
/// ```
#[derive(Debug, Clone)]
pub struct Decoder {
    id: GenerationId,
    space: RowSpace,
    stats: CodingStats,
    /// Optional `(recorder, node label)` emitting per-packet
    /// innovative/redundant events; `None` costs one branch in `push`.
    telemetry: Option<(SharedRecorder, u64)>,
}

impl Decoder {
    /// Creates a decoder for generation `id` with `g` packets of
    /// `symbol_len` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `g == 0`.
    #[must_use]
    pub fn new(id: GenerationId, g: usize, symbol_len: usize) -> Self {
        Decoder {
            id,
            space: RowSpace::new(g, symbol_len),
            stats: CodingStats::default(),
            telemetry: None,
        }
    }

    /// Like [`Decoder::new`], drawing row storage from a shared [`BufPool`]
    /// (one pool per peer keeps all generations allocation-free at steady
    /// state).
    ///
    /// # Panics
    ///
    /// Panics if `g == 0`.
    #[must_use]
    pub fn with_pool(id: GenerationId, g: usize, symbol_len: usize, pool: BufPool) -> Self {
        Decoder {
            id,
            space: RowSpace::with_pool(g, symbol_len, pool),
            stats: CodingStats::default(),
            telemetry: None,
        }
    }

    /// Attaches a telemetry recorder; [`Decoder::push`] then emits a
    /// `PacketInnovative` / `PacketRedundant` event per packet, labelled
    /// with `node` (the receiving host's id).
    pub fn set_telemetry(&mut self, recorder: SharedRecorder, node: u64) {
        self.telemetry = Some((recorder, node));
    }

    /// Generation id this decoder accepts.
    #[must_use]
    pub fn generation(&self) -> GenerationId {
        self.id
    }

    /// Generation size `g`.
    #[must_use]
    pub fn generation_size(&self) -> usize {
        self.space.generation_size()
    }

    /// Current rank (number of linearly independent packets received).
    #[must_use]
    pub fn rank(&self) -> usize {
        self.space.rank()
    }

    /// True iff the generation is fully decodable.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.space.is_complete()
    }

    /// Counters of innovative / redundant packets seen so far.
    #[must_use]
    pub fn stats(&self) -> &CodingStats {
        &self.stats
    }

    /// Offers a packet. Returns `true` iff it was innovative (rank grew).
    ///
    /// # Errors
    ///
    /// * [`RlncError::GenerationMismatch`] for a foreign generation.
    /// * [`RlncError::CoefficientLengthMismatch`] / [`RlncError::PayloadLengthMismatch`]
    ///   on malformed packets.
    pub fn push(&mut self, packet: CodedPacket) -> Result<bool, RlncError> {
        self.validate(&packet)?;
        // Zero-copy ingest: take the packet's buffers; a uniquely-owned
        // packet (the wire path) is eliminated in place.
        let timer = self.telemetry.as_ref().map(|_| std::time::Instant::now());
        let (_, coeffs, payload) = packet.into_parts();
        let innovative = self.space.insert(coeffs, payload);
        self.stats.record(innovative);
        if let Some((recorder, node)) = &self.telemetry {
            if let Some(t) = timer {
                recorder.histogram("decode_ns", t.elapsed().as_nanos() as f64);
            }
            recorder.record(&if innovative {
                Event::PacketInnovative {
                    node: *node,
                    generation: self.id,
                    rank: self.space.rank() as u32,
                }
            } else {
                Event::PacketRedundant { node: *node, generation: self.id }
            });
            if innovative && self.space.is_complete() {
                recorder.record(&Event::GenerationComplete {
                    node: *node,
                    generation: self.id,
                    innovative: self.stats.innovative(),
                    redundant: self.stats.redundant(),
                });
                recorder.counter("generations_decoded", 1);
            }
        }
        Ok(innovative)
    }

    /// Returns `true` iff pushing `packet` would be innovative, without
    /// consuming it (used by forwarding policies to avoid wasted sends).
    ///
    /// Rank growth depends only on the coefficient vector, so this probes
    /// by eliminating a `g`-byte scratch row against the basis — it no
    /// longer clones the whole row space.
    ///
    /// # Errors
    ///
    /// Same validation as [`Decoder::push`].
    pub fn would_be_innovative(&self, packet: &CodedPacket) -> Result<bool, RlncError> {
        self.validate(packet)?;
        Ok(self.space.would_accept(packet.coefficients()))
    }

    /// Recovers the source packets once complete; `None` before that.
    #[must_use]
    pub fn recover(&self) -> Option<Vec<Vec<u8>>> {
        self.space.recover()
    }

    fn validate(&self, packet: &CodedPacket) -> Result<(), RlncError> {
        if packet.generation() != self.id {
            return Err(RlncError::GenerationMismatch { expected: self.id, got: packet.generation() });
        }
        if packet.coefficients().len() != self.space.generation_size() {
            return Err(RlncError::CoefficientLengthMismatch {
                expected: self.space.generation_size(),
                got: packet.coefficients().len(),
            });
        }
        if packet.payload().len() != self.space.symbol_len() {
            return Err(RlncError::PayloadLengthMismatch {
                expected: self.space.symbol_len(),
                got: packet.payload().len(),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoder::Encoder;
    use rand::rngs::StdRng;
    use rand::{RngExt as _, SeedableRng};

    fn data(g: usize, s: usize) -> Vec<Vec<u8>> {
        (0..g).map(|i| (0..s).map(|j| (i * 31 + j) as u8).collect()).collect()
    }

    #[test]
    fn decodes_after_exactly_g_innovative_packets() {
        let src = data(5, 12);
        let enc = Encoder::new(0, src.clone()).unwrap();
        let mut dec = Decoder::new(0, 5, 12);
        let mut rng = StdRng::seed_from_u64(4);
        let mut innovative = 0;
        while !dec.is_complete() {
            if dec.push(enc.encode(&mut rng)).unwrap() {
                innovative += 1;
            }
        }
        assert_eq!(innovative, 5);
        assert_eq!(dec.recover().unwrap(), src);
    }

    #[test]
    fn rejects_foreign_generation() {
        let mut dec = Decoder::new(1, 2, 4);
        let p = CodedPacket::new(2, vec![1, 0], vec![0u8; 4]);
        assert_eq!(
            dec.push(p).unwrap_err(),
            RlncError::GenerationMismatch { expected: 1, got: 2 }
        );
    }

    #[test]
    fn rejects_bad_coefficient_length() {
        let mut dec = Decoder::new(0, 3, 4);
        let p = CodedPacket::new(0, vec![1, 0], vec![0u8; 4]);
        assert_eq!(
            dec.push(p).unwrap_err(),
            RlncError::CoefficientLengthMismatch { expected: 3, got: 2 }
        );
    }

    #[test]
    fn rejects_bad_payload_length() {
        let mut dec = Decoder::new(0, 2, 4);
        let p = CodedPacket::new(0, vec![1, 0], vec![0u8; 3]);
        assert_eq!(
            dec.push(p).unwrap_err(),
            RlncError::PayloadLengthMismatch { expected: 4, got: 3 }
        );
    }

    #[test]
    fn vacuous_packet_not_innovative() {
        let mut dec = Decoder::new(0, 2, 2);
        let p = CodedPacket::new(0, vec![0, 0], vec![0u8; 2]);
        assert!(!dec.push(p).unwrap());
        assert_eq!(dec.stats().redundant(), 1);
    }

    #[test]
    fn would_be_innovative_does_not_mutate() {
        let src = data(3, 4);
        let enc = Encoder::new(0, src).unwrap();
        let dec0 = Decoder::new(0, 3, 4);
        let mut rng = StdRng::seed_from_u64(8);
        let p = enc.encode(&mut rng);
        assert!(dec0.would_be_innovative(&p).unwrap());
        assert_eq!(dec0.rank(), 0, "probe must not change state");
    }

    #[test]
    fn telemetry_labels_innovative_and_redundant_packets() {
        use curtain_telemetry::{Event, MemorySink, SharedRecorder};

        let src = data(2, 4);
        let enc = Encoder::new(0, src).unwrap();
        let mut dec = Decoder::new(0, 2, 4);
        let sink = MemorySink::new();
        dec.set_telemetry(SharedRecorder::new(sink.clone()), 42);
        let mut rng = StdRng::seed_from_u64(13);
        while !dec.is_complete() {
            dec.push(enc.encode(&mut rng)).unwrap();
        }
        // A full decode plus one guaranteed-redundant extra.
        dec.push(enc.encode(&mut rng)).unwrap();
        let events = sink.events();
        let innovative = events
            .iter()
            .filter(|(_, e)| matches!(e, Event::PacketInnovative { node: 42, .. }))
            .count();
        let redundant = events
            .iter()
            .filter(|(_, e)| matches!(e, Event::PacketRedundant { node: 42, .. }))
            .count();
        assert_eq!(innovative, 2);
        assert_eq!(innovative as u64, dec.stats().innovative());
        assert_eq!(redundant as u64, dec.stats().redundant());
        assert!(redundant >= 1);
        // The final innovative event carries the full rank.
        let last_rank = events.iter().rev().find_map(|(_, e)| match e {
            Event::PacketInnovative { rank, .. } => Some(*rank),
            _ => None,
        });
        assert_eq!(last_rank, Some(2));
        // Exactly one completion event, carrying the packet economics.
        let completions: Vec<_> = events
            .iter()
            .filter_map(|(_, e)| match e {
                Event::GenerationComplete { node, generation, innovative, redundant } => {
                    Some((*node, *generation, *innovative, *redundant))
                }
                _ => None,
            })
            .collect();
        assert_eq!(completions.len(), 1);
        let (node, generation, innov, _red) = completions[0];
        assert_eq!((node, generation, innov), (42, 0, 2));
        // ...and the counter reaches the Prometheus exposition path.
        let snapshot = sink.metrics().snapshot();
        assert_eq!(snapshot.counters.get("generations_decoded"), Some(&1));
        let page = curtain_telemetry::expose::render_prometheus(&snapshot);
        assert!(page.contains("generations_decoded 1"), "{page}");
    }

    #[test]
    fn systematic_then_coded_mix_decodes() {
        let src = data(4, 6);
        let enc = Encoder::new(0, src.clone()).unwrap();
        let mut dec = Decoder::new(0, 4, 6);
        let mut rng = StdRng::seed_from_u64(3);
        // Two systematic, then coded.
        dec.push(enc.systematic(0)).unwrap();
        dec.push(enc.systematic(2)).unwrap();
        while !dec.is_complete() {
            dec.push(enc.encode(&mut rng)).unwrap();
        }
        assert_eq!(dec.recover().unwrap(), src);
    }

    #[test]
    fn random_transfer_always_recovers() {
        let mut cases = StdRng::seed_from_u64(16);
        for _ in 0..16 {
            let (g, s) = (cases.random_range(1usize..10), cases.random_range(1usize..32));
            let src = data(g, s);
            let enc = Encoder::new(7, src.clone()).unwrap();
            let mut dec = Decoder::new(7, g, s);
            let mut rng = StdRng::seed_from_u64(cases.random());
            let mut sent = 0;
            while !dec.is_complete() {
                dec.push(enc.encode(&mut rng)).unwrap();
                sent += 1;
                assert!(sent < 100 * g, "transfer did not converge");
            }
            assert_eq!(dec.recover().unwrap(), src);
        }
    }
}
