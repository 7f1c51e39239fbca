//! Content segmentation into generations of fixed-size packets.

use crate::error::RlncError;

/// Identifies one generation of a transfer. Generations are numbered from 0.
pub type GenerationId = u32;

/// One generation: `g` source packets of `s` bytes each (last one padded).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Generation {
    id: GenerationId,
    packets: Vec<Vec<u8>>,
    symbol_len: usize,
}

impl Generation {
    /// Creates a generation from pre-cut source packets.
    ///
    /// # Errors
    ///
    /// * [`RlncError::EmptyGeneration`] if `packets` is empty.
    /// * [`RlncError::InconsistentSourceLengths`] if packet lengths differ.
    pub fn new(id: GenerationId, packets: Vec<Vec<u8>>) -> Result<Self, RlncError> {
        if packets.is_empty() {
            return Err(RlncError::EmptyGeneration);
        }
        let symbol_len = packets[0].len();
        if packets.iter().any(|p| p.len() != symbol_len) {
            return Err(RlncError::InconsistentSourceLengths);
        }
        Ok(Generation { id, packets, symbol_len })
    }

    /// Generation id.
    #[must_use]
    pub fn id(&self) -> GenerationId {
        self.id
    }

    /// Number of source packets `g` in this generation.
    #[must_use]
    pub fn size(&self) -> usize {
        self.packets.len()
    }

    /// Packet payload length `s` in bytes.
    #[must_use]
    pub fn symbol_len(&self) -> usize {
        self.symbol_len
    }

    /// The source packets.
    #[must_use]
    pub fn packets(&self) -> &[Vec<u8>] {
        &self.packets
    }

    /// Consumes the generation, returning its packets.
    #[must_use]
    pub fn into_packets(self) -> Vec<Vec<u8>> {
        self.packets
    }
}

/// A whole object (file, stream segment…) cut into generations.
///
/// The split is the standard [CWJ03] layout: consecutive runs of
/// `generation_size` packets of `packet_len` bytes; the tail is zero-padded
/// and the original length retained for exact reassembly.
///
/// # Example
///
/// ```
/// use curtain_rlnc::Content;
///
/// let content = Content::split(b"hello world, this is a broadcast", 4, 8);
/// assert!(content.generations().len() >= 1);
/// let rejoined = content.clone().reassemble(
///     content.generations().iter().map(|g| g.packets().to_vec()).collect(),
/// );
/// assert_eq!(rejoined, b"hello world, this is a broadcast");
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Content {
    generations: Vec<Generation>,
    original_len: usize,
    generation_size: usize,
    packet_len: usize,
}

impl Content {
    /// Splits `data` into generations of `generation_size` packets of
    /// `packet_len` bytes, zero-padding the tail.
    ///
    /// # Panics
    ///
    /// Panics if `generation_size == 0`, `generation_size > 65535` (the wire
    /// format carries `g` as `u16`), or `packet_len == 0`.
    #[must_use]
    pub fn split(data: &[u8], generation_size: usize, packet_len: usize) -> Self {
        assert!(generation_size > 0, "generation_size must be positive");
        assert!(generation_size <= u16::MAX as usize, "generation_size exceeds wire format");
        assert!(packet_len > 0, "packet_len must be positive");
        let gen_bytes = generation_size * packet_len;
        let n_gens = data.len().div_ceil(gen_bytes).max(1);
        let mut generations = Vec::with_capacity(n_gens);
        for gi in 0..n_gens {
            let mut packets = Vec::with_capacity(generation_size);
            for pi in 0..generation_size {
                let start = gi * gen_bytes + pi * packet_len;
                let mut pkt = vec![0u8; packet_len];
                if start < data.len() {
                    let end = (start + packet_len).min(data.len());
                    pkt[..end - start].copy_from_slice(&data[start..end]);
                }
                packets.push(pkt);
            }
            generations.push(
                Generation::new(gi as GenerationId, packets)
                    .expect("split produces non-empty, equal-length packets"),
            );
        }
        Content {
            generations,
            original_len: data.len(),
            generation_size,
            packet_len,
        }
    }

    /// The generations of this object, in order.
    #[must_use]
    pub fn generations(&self) -> &[Generation] {
        &self.generations
    }

    /// Original (unpadded) object length in bytes.
    #[must_use]
    pub fn original_len(&self) -> usize {
        self.original_len
    }

    /// Packets per generation.
    #[must_use]
    pub fn generation_size(&self) -> usize {
        self.generation_size
    }

    /// Total source packets across all generations (including tail padding).
    #[must_use]
    pub fn packet_count(&self) -> usize {
        self.generations.len() * self.generation_size
    }

    /// Bytes per packet.
    #[must_use]
    pub fn packet_len(&self) -> usize {
        self.packet_len
    }

    /// Reassembles the original bytes from per-generation decoded packets
    /// (as returned by [`crate::Decoder::recover`]), trimming the padding.
    ///
    /// # Panics
    ///
    /// Panics if the number of generations or their shapes disagree with the
    /// split parameters.
    #[must_use]
    pub fn reassemble(self, decoded: Vec<Vec<Vec<u8>>>) -> Vec<u8> {
        assert_eq!(decoded.len(), self.generations.len(), "generation count mismatch");
        let mut out = Vec::with_capacity(self.original_len);
        for gen_packets in &decoded {
            assert_eq!(gen_packets.len(), self.generation_size, "generation size mismatch");
            for p in gen_packets {
                assert_eq!(p.len(), self.packet_len, "packet length mismatch");
                out.extend_from_slice(p);
            }
        }
        out.truncate(self.original_len);
        out
    }
}

/// Overlapping-class layout over a run of source packets.
///
/// Partitions `total` source packets into classes of `class_size` packets
/// where consecutive classes share `overlap` packets, per Silva, Zeng &
/// Kschischang (arXiv:0905.2796). Classes start every `stride = class_size -
/// overlap` packets, so a coded packet for class `c` mixes source packets
/// `span(c)`, and a decoded class hands `overlap` known packets to its
/// neighbours for cheap cross-class repair. `overlap == 0` degenerates to the
/// disjoint [CWJ03] generations of [`Content::split`].
///
/// The plan is pure arithmetic — it owns no packet data — so encoders,
/// recoders, and decoders can all derive the same layout from `(total,
/// class_size, overlap)` carried in session metadata.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClassPlan {
    total: usize,
    class_size: usize,
    overlap: usize,
}

impl ClassPlan {
    /// Lays out `total` source packets into classes of `class_size` with
    /// `overlap` shared packets between consecutive classes.
    ///
    /// # Panics
    ///
    /// Panics if `class_size == 0`, `overlap >= class_size`, or `total == 0`.
    #[must_use]
    pub fn new(total: usize, class_size: usize, overlap: usize) -> Self {
        assert!(class_size > 0, "class_size must be positive");
        assert!(overlap < class_size, "overlap must be smaller than class_size");
        assert!(total > 0, "total packet count must be positive");
        ClassPlan { total, class_size, overlap }
    }

    /// Source packet count this plan covers (before padding).
    #[must_use]
    pub fn total(&self) -> usize {
        self.total
    }

    /// Packets per class (`g`).
    #[must_use]
    pub fn class_size(&self) -> usize {
        self.class_size
    }

    /// Packets shared between consecutive classes.
    #[must_use]
    pub fn overlap(&self) -> usize {
        self.overlap
    }

    /// Distance between consecutive class starts.
    #[must_use]
    pub fn stride(&self) -> usize {
        self.class_size - self.overlap
    }

    /// Number of classes needed to cover every source packet.
    #[must_use]
    pub fn class_count(&self) -> usize {
        if self.total <= self.class_size {
            1
        } else {
            1 + (self.total - self.class_size).div_ceil(self.stride())
        }
    }

    /// Packet count after padding the tail so the last class is full.
    #[must_use]
    pub fn padded_packets(&self) -> usize {
        (self.class_count() - 1) * self.stride() + self.class_size
    }

    /// The half-open range of source packet indices class `class` mixes.
    ///
    /// # Panics
    ///
    /// Panics if `class >= class_count()`.
    #[must_use]
    pub fn span(&self, class: usize) -> core::ops::Range<usize> {
        assert!(class < self.class_count(), "class index out of range");
        let start = class * self.stride();
        start..start + self.class_size
    }

    /// Packet indices shared by classes `boundary` and `boundary + 1` —
    /// the natural support for cross-class repair packets.
    ///
    /// Returns an empty range when `overlap == 0`.
    ///
    /// # Panics
    ///
    /// Panics if `boundary + 1 >= class_count()`.
    #[must_use]
    pub fn shared_span(&self, boundary: usize) -> core::ops::Range<usize> {
        assert!(boundary + 1 < self.class_count(), "boundary out of range");
        let start = (boundary + 1) * self.stride();
        start..start + self.overlap
    }

    /// The classes whose span contains source packet `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= padded_packets()`.
    #[must_use]
    pub fn classes_covering(&self, index: usize) -> core::ops::Range<usize> {
        assert!(index < self.padded_packets(), "packet index out of range");
        let stride = self.stride();
        let lo = if index + 1 > self.class_size {
            (index + 1 - self.class_size).div_ceil(stride)
        } else {
            0
        };
        let hi = (index / stride).min(self.class_count() - 1);
        lo..hi + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt as _, SeedableRng};

    #[test]
    fn empty_generation_rejected() {
        assert_eq!(Generation::new(0, vec![]).unwrap_err(), RlncError::EmptyGeneration);
    }

    #[test]
    fn ragged_generation_rejected() {
        assert_eq!(
            Generation::new(0, vec![vec![1, 2], vec![3]]).unwrap_err(),
            RlncError::InconsistentSourceLengths
        );
    }

    #[test]
    fn split_shapes() {
        let c = Content::split(&[7u8; 100], 4, 16); // 64 bytes per generation
        assert_eq!(c.generations().len(), 2);
        for g in c.generations() {
            assert_eq!(g.size(), 4);
            assert_eq!(g.symbol_len(), 16);
        }
        assert_eq!(c.original_len(), 100);
    }

    #[test]
    fn split_empty_data_still_one_generation() {
        let c = Content::split(&[], 2, 4);
        assert_eq!(c.generations().len(), 1);
        assert_eq!(c.clone().reassemble(vec![c.generations()[0].packets().to_vec()]), b"");
    }

    #[test]
    fn reassemble_strips_tail_padding_for_non_multiple_sizes() {
        // g·s = 32 here; none of these lengths is a multiple of it.
        for &len in &[1usize, 5, 31, 33, 100, 257] {
            assert!(len % 32 != 0);
            let data: Vec<u8> = (0..len).map(|i| (i % 251) as u8 + 1).collect();
            let c = Content::split(&data, 4, 8);
            let padded: usize = c.packet_count() * c.packet_len();
            assert!(padded > len, "tail must be padded");
            let decoded: Vec<Vec<Vec<u8>>> =
                c.generations().iter().map(|g| g.packets().to_vec()).collect();
            assert_eq!(c.reassemble(decoded), data, "len {len} round trip");
        }
    }

    #[test]
    fn class_plan_disjoint_matches_generations() {
        let plan = ClassPlan::new(12, 4, 0);
        assert_eq!(plan.stride(), 4);
        assert_eq!(plan.class_count(), 3);
        assert_eq!(plan.padded_packets(), 12);
        assert_eq!(plan.span(1), 4..8);
        assert_eq!(plan.classes_covering(5), 1..2);
    }

    #[test]
    fn class_plan_overlap_layout() {
        // 10 packets, classes of 4 sharing 2: starts at 0,2,4,6 → 4 classes.
        let plan = ClassPlan::new(10, 4, 2);
        assert_eq!(plan.stride(), 2);
        assert_eq!(plan.class_count(), 4);
        assert_eq!(plan.padded_packets(), 10);
        assert_eq!(plan.span(0), 0..4);
        assert_eq!(plan.span(3), 6..10);
        assert_eq!(plan.shared_span(0), 2..4);
        assert_eq!(plan.classes_covering(3), 0..2);
        assert_eq!(plan.classes_covering(0), 0..1);
        assert_eq!(plan.classes_covering(9), 3..4);
    }

    #[test]
    fn class_plan_single_class_when_small() {
        let plan = ClassPlan::new(3, 8, 4);
        assert_eq!(plan.class_count(), 1);
        assert_eq!(plan.padded_packets(), 8);
        assert_eq!(plan.classes_covering(7), 0..1);
    }

    #[test]
    fn class_plan_covering_agrees_with_span() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..256 {
            let total = rng.random_range(1usize..200);
            let g = rng.random_range(1usize..12);
            let overlap = rng.random_range(0usize..12) % g;
            let plan = ClassPlan::new(total, g, overlap);
            assert!(plan.padded_packets() >= total);
            for idx in 0..plan.padded_packets() {
                let covering = plan.classes_covering(idx);
                assert!(!covering.is_empty(), "packet {idx} uncovered");
                for c in 0..plan.class_count() {
                    assert_eq!(
                        covering.contains(&c),
                        plan.span(c).contains(&idx),
                        "plan {plan:?} packet {idx} class {c}"
                    );
                }
            }
        }
    }

    #[test]
    fn split_reassemble_round_trip() {
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..256 {
            let data: Vec<u8> = (0..rng.random_range(0..500)).map(|_| rng.random()).collect();
            let c = Content::split(&data, rng.random_range(1usize..6), rng.random_range(1usize..20));
            let decoded: Vec<Vec<Vec<u8>>> =
                c.generations().iter().map(|gen| gen.packets().to_vec()).collect();
            assert_eq!(c.reassemble(decoded), data);
        }
    }

    #[test]
    fn padding_is_zero() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..256 {
            let data: Vec<u8> =
                (0..rng.random_range(1..64)).map(|_| rng.random_range(1u8..=255)).collect();
            let c = Content::split(&data, 4, 8);
            let total: usize = 4 * 8 * c.generations().len();
            let flat: Vec<u8> = c
                .generations()
                .iter()
                .flat_map(|g| g.packets().iter().flatten().copied())
                .collect();
            assert_eq!(flat.len(), total);
            for (i, &b) in flat.iter().enumerate() {
                if i >= data.len() {
                    assert_eq!(b, 0, "padding byte {i} non-zero");
                }
            }
        }
    }
}
