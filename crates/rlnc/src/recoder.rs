//! The intermediate node: buffer received packets, forward fresh mixtures.

use std::sync::Arc;

use curtain_telemetry::{Event, SharedRecorder};
use rand::Rng;

use crate::buffer::{BufPool, PacketBuf};
use crate::error::RlncError;
use crate::generation::GenerationId;
use crate::packet::CodedPacket;
use crate::rowspace::{random_combination_of, RowSpace};
use crate::stats::CodingStats;

/// Recoder state for one generation at an intermediate overlay node.
///
/// This is the "clip" of the curtain metaphor: packets from the node's `d`
/// parent streams are pushed in; each outgoing stream pulls fresh random
/// combinations out. Only innovative packets are buffered (the basis of the
/// received span), so memory is bounded by `g · symbol_len` regardless of
/// how much traffic passes through.
///
/// # Example
///
/// ```
/// use curtain_rlnc::{Encoder, Recoder};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(3);
/// let enc = Encoder::new(0, vec![vec![1u8; 4], vec![2u8; 4]]).unwrap();
/// let mut rec = Recoder::new(0, 2, 4);
/// rec.push(enc.encode(&mut rng)).unwrap();
/// let out = rec.recode(&mut rng).unwrap();
/// assert!(!out.is_vacuous());
/// ```
#[derive(Debug, Clone)]
pub struct Recoder {
    id: GenerationId,
    space: RowSpace,
    stats: CodingStats,
    /// Optional `(recorder, node label)` emitting per-packet
    /// innovative/redundant events; `None` costs one branch in `push`.
    telemetry: Option<(SharedRecorder, u64)>,
    /// Cached [`RecodeSnapshot`], invalidated on innovation. Serving
    /// threads clone the `Arc` under the lock (O(1)) and mix outside it.
    snapshot_cache: Option<Arc<RecodeSnapshot>>,
}

impl Recoder {
    /// Creates a recoder for generation `id` with `g` packets of
    /// `symbol_len` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `g == 0`.
    #[must_use]
    pub fn new(id: GenerationId, g: usize, symbol_len: usize) -> Self {
        Recoder {
            id,
            space: RowSpace::new(g, symbol_len),
            stats: CodingStats::default(),
            telemetry: None,
            snapshot_cache: None,
        }
    }

    /// Like [`Recoder::new`], drawing row storage from a shared [`BufPool`].
    ///
    /// # Panics
    ///
    /// Panics if `g == 0`.
    #[must_use]
    pub fn with_pool(id: GenerationId, g: usize, symbol_len: usize, pool: BufPool) -> Self {
        Recoder {
            id,
            space: RowSpace::with_pool(g, symbol_len, pool),
            stats: CodingStats::default(),
            telemetry: None,
            snapshot_cache: None,
        }
    }

    /// Attaches a telemetry recorder; [`Recoder::push`] then emits a
    /// `PacketInnovative` / `PacketRedundant` event per packet, labelled
    /// with `node` (the forwarding host's id).
    pub fn set_telemetry(&mut self, recorder: SharedRecorder, node: u64) {
        self.telemetry = Some((recorder, node));
    }

    /// Generation id this recoder handles.
    #[must_use]
    pub fn generation(&self) -> GenerationId {
        self.id
    }

    /// Rank of the buffered span — the most this node can pass on.
    #[must_use]
    pub fn rank(&self) -> usize {
        self.space.rank()
    }

    /// True iff the node has the full generation (can act as a secondary
    /// source).
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.space.is_complete()
    }

    /// Counters of innovative / redundant packets seen so far.
    #[must_use]
    pub fn stats(&self) -> &CodingStats {
        &self.stats
    }

    /// Offers a received packet. Returns `true` iff it was innovative.
    ///
    /// # Errors
    ///
    /// Same validation as [`crate::Decoder::push`].
    pub fn push(&mut self, packet: CodedPacket) -> Result<bool, RlncError> {
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
        // Zero-copy ingest: take the packet's buffers; a uniquely-owned
        // packet (the wire path) is eliminated in place. Coefficients
        // first — a dependent packet is dropped without reading its payload.
        let timer = self.telemetry.as_ref().map(|_| std::time::Instant::now());
        let (_, coeffs, payload) = packet.into_parts();
        let innovative = match self.space.reduce(coeffs) {
            Some(reduced) => {
                // The basis is about to change, so the cached snapshot is
                // stale either way. Releasing it *before* any row is
                // written means rows nobody is mixing from right now are
                // eliminated in place; only a snapshot a serving thread
                // still holds gets its copy-on-write.
                self.snapshot_cache = None;
                self.space.admit(reduced, payload);
                true
            }
            None => false,
        };
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

    /// Emits a fresh random combination of everything received so far, or
    /// `None` if nothing has been received yet.
    #[must_use]
    pub fn recode<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<CodedPacket> {
        let timer = self.telemetry.as_ref().map(|_| std::time::Instant::now());
        let (coeffs, payload) = self.space.random_combination(rng)?;
        if let (Some((recorder, _)), Some(t)) = (&self.telemetry, timer) {
            recorder.histogram("recode_ns", t.elapsed().as_nanos() as f64);
        }
        Some(CodedPacket::new(self.id, coeffs, payload))
    }

    /// Epoch of the buffered basis: advances exactly when an innovative
    /// packet lands. A [`RecodeSnapshot`] whose
    /// [`epoch`](RecodeSnapshot::epoch) matches is current.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.space.epoch()
    }

    /// Shares the current basis as an immutable [`RecodeSnapshot`].
    ///
    /// The snapshot is cached and re-shared until the next innovative
    /// packet, so the per-emit cost under a lock is one `Arc` clone —
    /// O(1), no row copying, no `Recoder` clone. Mixing then happens
    /// against the snapshot with no lock held; later inserts copy-on-write
    /// around the shared rows.
    #[must_use]
    pub fn snapshot(&mut self) -> Arc<RecodeSnapshot> {
        if let Some(s) = &self.snapshot_cache {
            return Arc::clone(s);
        }
        let snap = Arc::new(RecodeSnapshot {
            generation: self.id,
            g: self.space.generation_size(),
            symbol_len: self.space.symbol_len(),
            epoch: self.space.epoch(),
            rows: self.space.snapshot_rows(),
            pool: self.space.pool().clone(),
        });
        self.snapshot_cache = Some(Arc::clone(&snap));
        snap
    }

    /// Once complete, recovers the source packets (a complete recoder is
    /// also a decoder).
    #[must_use]
    pub fn recover(&self) -> Option<Vec<Vec<u8>>> {
        self.space.recover()
    }
}

/// An immutable view of a [`Recoder`]'s basis at one epoch, for lock-free
/// recoding.
///
/// The rows are refcounted [`PacketBuf`]s shared with the live row space:
/// taking a snapshot copies no bytes, and the space's later mutations
/// copy-on-write around it. A serving thread clones the `Arc` under its
/// state lock, releases the lock, and mixes packets from the snapshot for
/// as long as [`RecodeSnapshot::epoch`] matches the recoder's —
/// the seqlock-style emit path of the peer pipeline.
#[derive(Debug, Clone)]
pub struct RecodeSnapshot {
    generation: GenerationId,
    g: usize,
    symbol_len: usize,
    epoch: u64,
    rows: Vec<(PacketBuf, PacketBuf)>,
    pool: BufPool,
}

impl RecodeSnapshot {
    /// Generation the snapshot mixes.
    #[must_use]
    pub fn generation(&self) -> GenerationId {
        self.generation
    }

    /// Rank of the snapshot (number of basis rows).
    #[must_use]
    pub fn rank(&self) -> usize {
        self.rows.len()
    }

    /// True iff there is nothing to mix.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The row-space epoch this snapshot was taken at.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Iterates the basis rows as `(coefficients, payload)` slices, in
    /// insertion order. For inspection and benchmarking; mixing should go
    /// through [`RecodeSnapshot::recode`].
    pub fn rows(&self) -> impl Iterator<Item = (&[u8], &[u8])> {
        self.rows.iter().map(|(c, p)| (&c[..], &p[..]))
    }

    /// Emits a fresh random combination of the snapshot's rows, or `None`
    /// if the snapshot is empty. Holds no locks and copies no rows; output
    /// buffers come from the recoder's pool.
    #[must_use]
    pub fn recode<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<CodedPacket> {
        let (coeffs, payload) = random_combination_of(
            self.rows.iter().map(|(c, p)| (&c[..], &p[..])),
            self.g,
            self.symbol_len,
            &self.pool,
            rng,
        )?;
        Some(CodedPacket::new(self.generation, coeffs, payload))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decoder::Decoder;
    use crate::encoder::Encoder;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn data(g: usize, s: usize) -> Vec<Vec<u8>> {
        (0..g).map(|i| (0..s).map(|j| (i * 7 + j * 3) as u8).collect()).collect()
    }

    #[test]
    fn recode_before_any_input_is_none() {
        let rec = Recoder::new(0, 3, 4);
        let mut rng = StdRng::seed_from_u64(0);
        assert!(rec.recode(&mut rng).is_none());
    }

    #[test]
    fn chain_of_recoders_preserves_decodability() {
        // source -> r1 -> r2 -> r3 -> sink, one packet at a time.
        let src = data(4, 10);
        let enc = Encoder::new(0, src.clone()).unwrap();
        let mut chain = [Recoder::new(0, 4, 10), Recoder::new(0, 4, 10), Recoder::new(0, 4, 10)];
        let mut sink = Decoder::new(0, 4, 10);
        let mut rng = StdRng::seed_from_u64(5);
        let mut rounds = 0;
        while !sink.is_complete() {
            chain[0].push(enc.encode(&mut rng)).unwrap();
            for i in 1..chain.len() {
                if let Some(p) = chain[i - 1].recode(&mut rng) {
                    chain[i].push(p).unwrap();
                }
            }
            if let Some(p) = chain.last().unwrap().recode(&mut rng) {
                sink.push(p).unwrap();
            }
            rounds += 1;
            assert!(rounds < 500, "chain transfer did not converge");
        }
        assert_eq!(sink.recover().unwrap(), src);
    }

    #[test]
    fn recoder_rank_never_exceeds_input_rank() {
        let src = data(6, 4);
        let enc = Encoder::new(0, src).unwrap();
        let mut rec = Recoder::new(0, 6, 4);
        let mut rng = StdRng::seed_from_u64(6);
        // Feed only 3 innovative packets.
        let mut fed = 0;
        while fed < 3 {
            if rec.push(enc.encode(&mut rng)).unwrap() {
                fed += 1;
            }
        }
        assert_eq!(rec.rank(), 3);
        // A downstream decoder can never learn more than rank 3 from us.
        let mut dec = Decoder::new(0, 6, 4);
        for _ in 0..200 {
            dec.push(rec.recode(&mut rng).unwrap()).unwrap();
        }
        assert_eq!(dec.rank(), 3);
        assert!(!dec.is_complete());
    }

    #[test]
    fn complete_recoder_can_recover() {
        let src = data(3, 4);
        let enc = Encoder::new(0, src.clone()).unwrap();
        let mut rec = Recoder::new(0, 3, 4);
        let mut rng = StdRng::seed_from_u64(7);
        while !rec.is_complete() {
            rec.push(enc.encode(&mut rng)).unwrap();
        }
        assert_eq!(rec.recover().unwrap(), src);
    }

    #[test]
    fn validation_mirrors_decoder() {
        let mut rec = Recoder::new(1, 2, 4);
        let p = CodedPacket::new(9, vec![1, 0], vec![0u8; 4]);
        assert!(matches!(rec.push(p), Err(RlncError::GenerationMismatch { .. })));
    }

    #[test]
    fn snapshot_is_cached_until_innovation() {
        let src = data(3, 8);
        let enc = Encoder::new(0, src).unwrap();
        let mut rec = Recoder::new(0, 3, 8);
        let mut rng = StdRng::seed_from_u64(11);
        rec.push(enc.encode(&mut rng)).unwrap();
        let s1 = rec.snapshot();
        let s2 = rec.snapshot();
        assert!(Arc::ptr_eq(&s1, &s2), "unchanged basis re-shares the same snapshot");
        assert_eq!(s1.rank(), 1);
        assert_eq!(s1.epoch(), rec.epoch());
        // Feed until the rank grows, then the cache must be invalidated.
        while !rec.push(enc.encode(&mut rng)).unwrap() {}
        let s3 = rec.snapshot();
        assert!(!Arc::ptr_eq(&s1, &s3), "innovation invalidates the cached snapshot");
        assert!(s3.epoch() > s1.epoch());
        assert_eq!(s3.rank(), 2);
        // The old snapshot still works and still mixes only its own rows.
        let old = s1.recode(&mut rng).unwrap();
        assert_eq!(old.coefficients().len(), 3);
    }

    /// A dependent packet is rejected on its coefficient vector alone. The
    /// payload here is *shared*, so reading it into a private buffer would
    /// have to copy it through the pool — and the pool saw nothing.
    #[test]
    fn dependent_packet_is_rejected_without_touching_its_payload() {
        let pool = BufPool::default();
        let enc = Encoder::new(0, data(4, 32)).unwrap();
        let mut rec = Recoder::with_pool(0, 4, 32, pool.clone());
        let mut rng = StdRng::seed_from_u64(31);
        while !rec.is_complete() {
            rec.push(enc.encode(&mut rng)).unwrap();
        }
        let payload = pool.alloc_copy(&[0xA5; 32]).freeze();
        let packet = CodedPacket::new(0, vec![9u8, 8, 7, 6], payload.clone());
        assert_eq!(payload.ref_count(), 2);
        let before = pool.stats();
        assert!(!rec.push(packet).unwrap(), "a full-rank recoder accepts nothing");
        assert_eq!(pool.stats(), before, "the payload was copied or recycled");
        assert_eq!(payload.ref_count(), 1, "the packet's reference was simply dropped");
    }

    /// The recoder's own cached snapshot must not force copy-on-write: with
    /// the caller's `Arc` dropped, an innovative push eliminates the
    /// existing rows in place; with the `Arc` held, the rows are copied out
    /// and the held snapshot keeps its bytes.
    #[test]
    fn innovative_push_is_in_place_unless_a_snapshot_is_held() {
        let (g, s) = (6, 48);
        let enc = Encoder::new(0, data(g, s)).unwrap();
        let mut rng = StdRng::seed_from_u64(41);
        let allocations = |pool: &BufPool| pool.stats().hits + pool.stats().misses;
        for hold in [false, true] {
            let pool = BufPool::default();
            let mut rec = Recoder::with_pool(0, g, s, pool.clone());
            while rec.rank() < 4 {
                rec.push(enc.encode(&mut rng)).unwrap();
            }
            let snap = rec.snapshot();
            let frozen: Vec<(Vec<u8>, Vec<u8>)> =
                snap.rows().map(|(c, p)| (c.to_vec(), p.to_vec())).collect();
            let held = hold.then_some(snap);
            let before = allocations(&pool);
            // Dense random coefficients: the new pivot column is non-zero
            // in (almost surely) every existing row, so all of them are
            // written by the back-elimination.
            while !rec.push(enc.encode(&mut rng)).unwrap() {}
            let grew = allocations(&pool) - before;
            match held {
                None => assert!(grew <= 2, "in-place elimination allocated {grew} buffers"),
                Some(snap) => {
                    assert!(grew > 2, "a held snapshot must be copied around, saw {grew}");
                    for ((c, p), (fc, fp)) in snap.rows().zip(&frozen) {
                        assert_eq!((c, p), (&fc[..], &fp[..]), "held snapshot changed");
                    }
                }
            }
        }
    }

    #[test]
    fn snapshot_recode_is_decodable() {
        let src = data(4, 16);
        let enc = Encoder::new(0, src.clone()).unwrap();
        let mut rec = Recoder::new(0, 4, 16);
        let mut rng = StdRng::seed_from_u64(21);
        while !rec.is_complete() {
            rec.push(enc.encode(&mut rng)).unwrap();
        }
        let snap = rec.snapshot();
        assert_eq!(snap.generation(), 0);
        assert!(!snap.is_empty());
        let mut dec = Decoder::new(0, 4, 16);
        let mut guard = 0;
        while !dec.is_complete() {
            dec.push(snap.recode(&mut rng).unwrap()).unwrap();
            guard += 1;
            assert!(guard < 400, "snapshot transfer did not converge");
        }
        assert_eq!(dec.recover().unwrap(), src);
    }

    #[test]
    fn empty_snapshot_recodes_none() {
        let mut rec = Recoder::new(0, 2, 4);
        let snap = rec.snapshot();
        assert!(snap.is_empty());
        let mut rng = StdRng::seed_from_u64(1);
        assert!(snap.recode(&mut rng).is_none());
    }
}
