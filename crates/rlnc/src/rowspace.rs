//! Progressive Gaussian elimination over GF(2⁸) byte rows.
//!
//! `RowSpace` is the shared engine behind [`crate::Decoder`] (which needs
//! full recovery) and [`crate::Recoder`] (which only needs a basis of the
//! received span to mix from). Rows are kept in *reduced row-echelon form*
//! at all times: each accepted row has a pivot column, a unit pivot entry,
//! and zeros in every other row's pivot column, so completion means the
//! payload rows literally are the source packets.
//!
//! Since the data-plane refactor, rows live in pool-recycled
//! [`PacketBuf`]s: ingest steals the packet's buffers instead of copying,
//! elimination mutates rows in place (copy-on-write only when an outstanding
//! [`snapshot`](RowSpace::snapshot_rows) still references the old bytes),
//! and every accepted row bumps an **epoch** counter that lets lock-free
//! emit paths detect staleness without holding any lock.
//!
//! Ingest runs coefficients first: [`RowSpace::reduce`] eliminates the
//! `g`-byte coefficient vector and gives the verdict; only an innovative
//! packet goes on to [`RowSpace::admit`], which replays the same
//! multipliers on the payload, normalizes, and back-eliminates. A
//! dependent packet — about half of what a peer receives — costs
//! `rank × g` bytes of axpy and its payload is never read.

use curtain_gf::vec_ops;
use curtain_gf::{Field, Gf256};

use crate::buffer::{BufPool, PacketBuf, PacketBufMut};

/// One reduced row: coefficient vector + the identically-transformed payload.
#[derive(Debug, Clone)]
pub(crate) struct Row {
    pub coeffs: PacketBuf,
    pub payload: PacketBuf,
    pub pivot: usize,
}

/// An incrementally maintained row space (rref basis) of coded packets.
#[derive(Debug, Clone)]
pub(crate) struct RowSpace {
    g: usize,
    symbol_len: usize,
    /// Rows sorted by pivot column, in rref.
    rows: Vec<Row>,
    /// Backing allocator for rows and scratch buffers.
    pool: BufPool,
    /// Incremented on every rank growth; snapshots are valid while their
    /// epoch matches.
    epoch: u64,
    /// Scratch for the per-row multipliers of the packet being ingested
    /// (travels inside [`Reduced`] between `reduce` and `admit`).
    multipliers: Vec<u8>,
}

/// A packet known to be innovative whose payload has not been touched yet:
/// the reduced coefficient vector, its pivot, and the multipliers that
/// reduced it. Produced by [`RowSpace::reduce`], consumed by
/// [`RowSpace::admit`].
#[derive(Debug)]
pub(crate) struct Reduced {
    coeffs: PacketBufMut,
    pivot: usize,
    multipliers: Vec<u8>,
}

impl RowSpace {
    pub(crate) fn new(g: usize, symbol_len: usize) -> Self {
        Self::with_pool(g, symbol_len, BufPool::default())
    }

    pub(crate) fn with_pool(g: usize, symbol_len: usize, pool: BufPool) -> Self {
        assert!(g > 0, "generation size must be positive");
        RowSpace {
            g,
            symbol_len,
            rows: Vec::with_capacity(g),
            pool,
            epoch: 0,
            multipliers: Vec::with_capacity(g),
        }
    }

    pub(crate) fn generation_size(&self) -> usize {
        self.g
    }

    pub(crate) fn symbol_len(&self) -> usize {
        self.symbol_len
    }

    pub(crate) fn rank(&self) -> usize {
        self.rows.len()
    }

    pub(crate) fn is_complete(&self) -> bool {
        self.rows.len() == self.g
    }

    /// Current epoch: changes exactly when the row set changes.
    pub(crate) fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The buffer pool rows are drawn from (shared, cheap to clone).
    pub(crate) fn pool(&self) -> &BufPool {
        &self.pool
    }

    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn rows(&self) -> &[Row] {
        &self.rows
    }

    /// Reduces `(coeffs, payload)` against the basis and inserts it if
    /// innovative. Returns `true` iff the rank grew.
    ///
    /// Accepts anything convertible to [`PacketBuf`]; a uniquely-owned
    /// buffer (the common ingest case) is mutated in place with no copy.
    /// This is [`RowSpace::reduce`] followed by [`RowSpace::admit`]: a
    /// dependent packet is rejected on its `g`-byte coefficient vector
    /// alone and its payload is never read.
    ///
    /// # Panics
    ///
    /// Panics if the lengths disagree with the space's configuration
    /// (callers validate first and return typed errors).
    pub(crate) fn insert(
        &mut self,
        coeffs: impl Into<PacketBuf>,
        payload: impl Into<PacketBuf>,
    ) -> bool {
        let payload = payload.into();
        assert_eq!(payload.len(), self.symbol_len, "payload length");
        match self.reduce(coeffs) {
            Some(reduced) => {
                self.admit(reduced, payload);
                true
            }
            None => false,
        }
    }

    /// The verdict half of ingest: forward-eliminates the coefficient
    /// vector against the pivots and returns the remainder if it is
    /// non-zero (the packet is innovative), `None` if it is dependent.
    ///
    /// Rank growth depends on the coefficients alone, and because the
    /// basis is kept in rref the multiplier for each row is simply the
    /// packet's own entry at that row's pivot column; they are remembered
    /// so [`RowSpace::admit`] can replay them on the payload.
    ///
    /// # Panics
    ///
    /// Panics if the coefficient length disagrees with the space's.
    pub(crate) fn reduce(&mut self, coeffs: impl Into<PacketBuf>) -> Option<Reduced> {
        let mut coeffs = coeffs.into().into_mut(&self.pool);
        assert_eq!(coeffs.len(), self.g, "coefficient length");
        let mut multipliers = std::mem::take(&mut self.multipliers);
        multipliers.clear();
        for row in &self.rows {
            let c = coeffs[row.pivot];
            multipliers.push(c);
            if c != 0 {
                vec_ops::axpy(&mut coeffs, c, &row.coeffs);
            }
        }
        match coeffs.iter().position(|&c| c != 0) {
            Some(pivot) => Some(Reduced { coeffs, pivot, multipliers }),
            None => {
                self.multipliers = multipliers;
                None // linearly dependent
            }
        }
    }

    /// The payload half of ingest: replays the multipliers
    /// [`RowSpace::reduce`] remembered on `payload`, normalizes the new
    /// row, back-eliminates its pivot column from the existing rows and
    /// inserts it. The rank grows by one.
    ///
    /// Existing rows are first written here, so a caller that holds its
    /// own shared view of them (the recoder's cached snapshot) releases
    /// it between `reduce` and `admit` and the rows are eliminated in
    /// place; rows an outstanding snapshot still references are copied
    /// out by `make_mut`, so that snapshot keeps reading a consistent
    /// basis.
    ///
    /// # Panics
    ///
    /// Panics if the payload length disagrees with the space's, or if the
    /// basis changed since `reduced` was produced.
    pub(crate) fn admit(&mut self, reduced: Reduced, payload: impl Into<PacketBuf>) {
        let Reduced { mut coeffs, pivot, multipliers } = reduced;
        let mut payload = payload.into().into_mut(&self.pool);
        assert_eq!(payload.len(), self.symbol_len, "payload length");
        assert_eq!(multipliers.len(), self.rows.len(), "basis changed since reduce");
        for (row, &c) in self.rows.iter().zip(&multipliers) {
            if c != 0 {
                vec_ops::axpy(&mut payload, c, &row.payload);
            }
        }
        self.multipliers = multipliers;
        // Normalize to a unit pivot.
        let inv = Gf256::new(coeffs[pivot]).inv().value();
        vec_ops::scale_assign(&mut coeffs, inv);
        vec_ops::scale_assign(&mut payload, inv);
        // Back-eliminate the new pivot column from existing rows.
        for row in &mut self.rows {
            let c = row.coeffs[pivot];
            if c != 0 {
                vec_ops::axpy(row.coeffs.make_mut(&self.pool), c, &coeffs);
                vec_ops::axpy(row.payload.make_mut(&self.pool), c, &payload);
            }
        }
        // Insert keeping rows sorted by pivot.
        let at = self.rows.partition_point(|r| r.pivot < pivot);
        self.rows.insert(at, Row { coeffs: coeffs.freeze(), payload: payload.freeze(), pivot });
        self.epoch += 1;
    }

    /// Returns `true` iff inserting a row with these coefficients would
    /// grow the rank — *without* touching the payload or cloning the space.
    ///
    /// Rank growth depends only on the coefficient vector: the probe
    /// forward-eliminates a `g`-byte scratch copy against the pivots and
    /// checks for a surviving non-zero entry. Cost is O(rank · g) bytes of
    /// axpy versus the old full-space clone's O(rank · (g + s)) copy plus
    /// the same elimination.
    pub(crate) fn would_accept(&self, coeffs: &[u8]) -> bool {
        assert_eq!(coeffs.len(), self.g, "coefficient length");
        let mut scratch = self.pool.alloc_copy(coeffs);
        for row in &self.rows {
            let c = scratch[row.pivot];
            if c != 0 {
                vec_ops::axpy(&mut scratch, c, &row.coeffs);
            }
        }
        scratch.iter().any(|&c| c != 0)
    }

    /// If complete, returns the decoded source packets in order.
    pub(crate) fn recover(&self) -> Option<Vec<Vec<u8>>> {
        if !self.is_complete() {
            return None;
        }
        // In rref with full rank, row i has pivot i and unit coefficient
        // vector e_i, so its payload is source packet i.
        debug_assert!(self.rows.iter().enumerate().all(|(i, r)| r.pivot == i));
        Some(self.rows.iter().map(|r| r.payload.to_vec()).collect())
    }

    /// Shares the current basis as refcounted buffers: O(rank) refcount
    /// bumps, no byte copying. Paired with [`RowSpace::epoch`] this is the
    /// building block of the lock-free recode path — a reader combines rows
    /// from the snapshot with no lock held, and refreshes when the epoch
    /// moves on.
    pub(crate) fn snapshot_rows(&self) -> Vec<(PacketBuf, PacketBuf)> {
        self.rows.iter().map(|r| (r.coeffs.clone(), r.payload.clone())).collect()
    }

    /// Emits a random linear combination of the basis rows:
    /// the recoding operation. Returns `None` if the space is empty.
    pub(crate) fn random_combination<R: rand::Rng + ?Sized>(
        &self,
        rng: &mut R,
    ) -> Option<(PacketBuf, PacketBuf)> {
        random_combination_of(
            self.rows.iter().map(|r| (&r.coeffs[..], &r.payload[..])),
            self.g,
            self.symbol_len,
            &self.pool,
            rng,
        )
    }
}

/// Mixes a random GF(2⁸) combination of `(coeffs, payload)` rows into
/// pool-allocated output buffers. Shared by [`RowSpace::random_combination`]
/// and the lock-free [`crate::RecodeSnapshot`] emit path so both draw
/// coefficients identically.
pub(crate) fn random_combination_of<'a, R: rand::Rng + ?Sized>(
    rows: impl Iterator<Item = (&'a [u8], &'a [u8])> + Clone,
    g: usize,
    symbol_len: usize,
    pool: &BufPool,
    rng: &mut R,
) -> Option<(PacketBuf, PacketBuf)> {
    let first = rows.clone().next()?;
    let mut coeffs = pool.alloc_zeroed(g);
    let mut payload = pool.alloc_zeroed(symbol_len);
    let mut any = false;
    for (rc, rp) in rows {
        let c = Gf256::random(rng).value();
        if c != 0 {
            any = true;
            vec_ops::axpy(&mut coeffs, c, rc);
            vec_ops::axpy(&mut payload, c, rp);
        }
    }
    if !any {
        // All-zero draw (probability 256^-rank); force a copy of an
        // arbitrary basis row rather than emit a vacuous packet.
        coeffs.as_mut_slice().copy_from_slice(first.0);
        payload.as_mut_slice().copy_from_slice(first.1);
    }
    Some((coeffs.freeze(), payload.freeze()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt as _, SeedableRng};

    fn unit(g: usize, i: usize) -> Vec<u8> {
        let mut v = vec![0u8; g];
        v[i] = 1;
        v
    }

    #[test]
    fn inserts_unit_vectors_and_recovers() {
        let mut rs = RowSpace::new(3, 4);
        let payloads = [vec![1u8; 4], vec![2u8; 4], vec![3u8; 4]];
        for i in [2usize, 0, 1] {
            assert!(rs.insert(unit(3, i), payloads[i].clone()));
        }
        assert_eq!(rs.recover().unwrap(), payloads.to_vec());
    }

    #[test]
    fn duplicate_row_is_not_innovative() {
        let mut rs = RowSpace::new(2, 2);
        assert!(rs.insert(vec![1, 1], vec![5, 5]));
        assert!(!rs.insert(vec![1, 1], vec![5, 5]));
        assert_eq!(rs.rank(), 1);
    }

    #[test]
    fn scaled_row_is_not_innovative() {
        let mut rs = RowSpace::new(2, 2);
        assert!(rs.insert(vec![3, 7], vec![5, 5]));
        // 2 * (3,7) in GF(2^8) is (6,14); payload scaled the same way.
        let two = Gf256::new(2);
        let coeffs = vec![
            two.mul(Gf256::new(3)).value(),
            two.mul(Gf256::new(7)).value(),
        ];
        let payload = vec![two.mul(Gf256::new(5)).value(); 2];
        assert!(!rs.insert(coeffs, payload));
    }

    #[test]
    fn zero_vector_rejected() {
        let mut rs = RowSpace::new(3, 1);
        assert!(!rs.insert(vec![0, 0, 0], vec![9]));
        assert_eq!(rs.rank(), 0);
    }

    #[test]
    fn epoch_tracks_rank_growth_only() {
        let mut rs = RowSpace::new(2, 2);
        assert_eq!(rs.epoch(), 0);
        rs.insert(vec![1, 0], vec![1, 1]);
        assert_eq!(rs.epoch(), 1);
        rs.insert(vec![1, 0], vec![1, 1]); // redundant
        assert_eq!(rs.epoch(), 1, "redundant packets must not move the epoch");
        rs.insert(vec![0, 1], vec![2, 2]);
        assert_eq!(rs.epoch(), 2);
    }

    #[test]
    fn would_accept_agrees_with_insert() {
        let mut rng = StdRng::seed_from_u64(77);
        let g = 5;
        let mut rs = RowSpace::new(g, 3);
        for _ in 0..200 {
            let coeffs: Vec<u8> = (0..g).map(|_| rng.random()).collect();
            let payload: Vec<u8> = (0..3).map(|_| rng.random()).collect();
            let predicted = rs.would_accept(&coeffs);
            let actual = rs.insert(coeffs, payload);
            assert_eq!(predicted, actual, "probe must agree with insertion");
            if rs.is_complete() {
                break;
            }
        }
        assert!(rs.is_complete());
        // Against a full space, nothing is innovative.
        assert!(!rs.would_accept(&unit(g, 0)));
    }

    #[test]
    fn snapshot_is_immutable_under_later_inserts() {
        let mut rs = RowSpace::new(3, 2);
        rs.insert(vec![1, 2, 3], vec![7, 7]);
        let snap = rs.snapshot_rows();
        let frozen: Vec<(Vec<u8>, Vec<u8>)> =
            snap.iter().map(|(c, p)| (c.to_vec(), p.to_vec())).collect();
        let epoch = rs.epoch();
        // These inserts back-eliminate into the existing row.
        rs.insert(vec![0, 1, 0], vec![1, 1]);
        rs.insert(vec![0, 0, 1], vec![2, 2]);
        assert_ne!(rs.epoch(), epoch, "epoch must advance");
        for ((c, p), (fc, fp)) in snap.iter().zip(&frozen) {
            assert_eq!(&c.to_vec(), fc, "snapshot coefficients changed under CoW");
            assert_eq!(&p.to_vec(), fp, "snapshot payload changed under CoW");
        }
    }

    /// The ingest loop as it stood before coefficients-first — payload
    /// eliminated beside the coefficients row by row, verdict last — over
    /// plain `Vec`s. The oracle `reduce` + `admit` must match bit for bit.
    struct ReferenceSpace {
        rows: Vec<(Vec<u8>, Vec<u8>, usize)>,
    }

    impl ReferenceSpace {
        fn insert(&mut self, mut coeffs: Vec<u8>, mut payload: Vec<u8>) -> bool {
            for (rc, rp, pivot) in &self.rows {
                let c = coeffs[*pivot];
                if c != 0 {
                    vec_ops::axpy(&mut coeffs, c, rc);
                    vec_ops::axpy(&mut payload, c, rp);
                }
            }
            let Some(pivot) = coeffs.iter().position(|&c| c != 0) else {
                return false;
            };
            let inv = Gf256::new(coeffs[pivot]).inv().value();
            vec_ops::scale_assign(&mut coeffs, inv);
            vec_ops::scale_assign(&mut payload, inv);
            for (rc, rp, _) in &mut self.rows {
                let c = rc[pivot];
                if c != 0 {
                    vec_ops::axpy(rc, c, &coeffs);
                    vec_ops::axpy(rp, c, &payload);
                }
            }
            let at = self.rows.partition_point(|r| r.2 < pivot);
            self.rows.insert(at, (coeffs, payload, pivot));
            true
        }
    }

    /// Coefficients-first ingest is an optimisation, not a new decoder:
    /// over dense, sparse, duplicate and zero rows, with snapshots taken,
    /// held and dropped in between, every verdict, every row (in order,
    /// coefficients and payload) and the recovered packets equal the
    /// reference loop's.
    #[test]
    fn coefficients_first_ingest_is_bit_identical_to_the_reference_loop() {
        for (g, s) in [(1, 1), (1, 7), (4, 1), (5, 3), (8, 16), (16, 64), (32, 33)] {
            for seed in 0..6u64 {
                let mut rng = StdRng::seed_from_u64(seed << 8 | g as u64);
                let pool = BufPool::default();
                let mut fast = RowSpace::with_pool(g, s, pool.clone());
                let mut slow = ReferenceSpace { rows: Vec::new() };
                let mut offered: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
                let mut held = Vec::new();
                for step in 0..20 * g + 20 {
                    let (coeffs, payload) = match rng.random_range(0..8u32) {
                        // An exact duplicate of something offered before.
                        0 if !offered.is_empty() => {
                            offered[rng.random_range(0..offered.len())].clone()
                        }
                        1 => (vec![0u8; g], (0..s).map(|_| rng.random()).collect()),
                        kind => {
                            // Sparse rows early (pivots land out of order),
                            // dense ones to finish.
                            let density = if kind < 5 && step < 10 * g { 0.3 } else { 1.0 };
                            let coeffs = (0..g)
                                .map(|_| if rng.random_bool(density) { rng.random() } else { 0 })
                                .collect();
                            (coeffs, (0..s).map(|_| rng.random()).collect())
                        }
                    };
                    offered.push((coeffs.clone(), payload.clone()));
                    match rng.random_range(0..4u32) {
                        0 => held.push(fast.snapshot_rows()),
                        1 => held.clear(),
                        _ => {}
                    }
                    // Alternate pooled and plain buffers: both ingest paths.
                    let verdict = if step % 2 == 0 {
                        fast.insert(coeffs.clone(), payload.clone())
                    } else {
                        fast.insert(
                            pool.alloc_copy(&coeffs).freeze(),
                            pool.alloc_copy(&payload).freeze(),
                        )
                    };
                    assert_eq!(
                        verdict,
                        slow.insert(coeffs, payload),
                        "verdict diverged at g={g} s={s} seed={seed} step={step}"
                    );
                    assert_eq!(fast.rows().len(), slow.rows.len());
                    for (row, (rc, rp, pivot)) in fast.rows().iter().zip(&slow.rows) {
                        assert_eq!(row.pivot, *pivot);
                        assert_eq!(&row.coeffs[..], &rc[..], "coefficients diverged");
                        assert_eq!(&row.payload[..], &rp[..], "payload diverged");
                    }
                }
                assert!(fast.is_complete(), "g={g} s={s} seed={seed} never completed");
                let recovered: Vec<Vec<u8>> =
                    slow.rows.iter().map(|(_, rp, _)| rp.clone()).collect();
                assert_eq!(fast.recover().unwrap(), recovered);
            }
        }
    }

    #[test]
    fn pool_recycles_row_traffic() {
        let pool = BufPool::default();
        let mut rs = RowSpace::with_pool(2, 8, pool.clone());
        // Pool-backed redundant inserts retire their buffers into the pool.
        for _ in 0..3 {
            rs.insert(
                pool.alloc_copy(&[1, 1]).freeze(),
                pool.alloc_copy(&[5u8; 8]).freeze(),
            );
        }
        assert!(pool.stats().recycled > 0, "dependent rows must recycle");
        // Probe scratch buffers recycle too.
        let before = pool.stats().recycled;
        assert!(rs.would_accept(&[0, 1]));
        assert!(pool.stats().recycled > before, "probe scratch must recycle");
    }

    #[test]
    fn random_combination_spans_inserted_space() {
        let mut rng = StdRng::seed_from_u64(5);
        let g = 4;
        let src: Vec<Vec<u8>> = (0..g).map(|i| vec![i as u8 + 1; 8]).collect();
        let mut rs = RowSpace::new(g, 8);
        for (i, p) in src.iter().enumerate() {
            rs.insert(unit(g, i), p.clone());
        }
        // Any recoded packet must decode consistently: feed a fresh space.
        let mut sink = RowSpace::new(g, 8);
        let mut guard = 0;
        while !sink.is_complete() {
            let (c, p) = rs.random_combination(&mut rng).unwrap();
            sink.insert(c, p);
            guard += 1;
            assert!(guard < 100, "failed to complete from recoded packets");
        }
        assert_eq!(sink.recover().unwrap(), src);
    }

    #[test]
    fn random_combination_of_empty_space_is_none() {
        let rs = RowSpace::new(2, 2);
        let mut rng = StdRng::seed_from_u64(1);
        assert!(rs.random_combination(&mut rng).is_none());
    }

    #[test]
    fn partial_rank_recover_is_none() {
        let mut rs = RowSpace::new(3, 2);
        rs.insert(unit(3, 0), vec![1, 1]);
        assert!(rs.recover().is_none());
    }

    #[test]
    fn handles_random_dense_rows() {
        let mut rng = StdRng::seed_from_u64(11);
        for trial in 0..20 {
            let g = 6;
            let mut rs = RowSpace::new(g, 4);
            let mut inserted = 0;
            let mut rounds = 0;
            while !rs.is_complete() && rounds < 200 {
                let coeffs: Vec<u8> = (0..g).map(|_| rng.random()).collect();
                let payload: Vec<u8> = (0..4).map(|_| rng.random()).collect();
                if rs.insert(coeffs, payload) {
                    inserted += 1;
                }
                rounds += 1;
            }
            assert!(rs.is_complete(), "trial {trial} never completed");
            assert_eq!(inserted, g);
            // rref invariant: pivots are exactly 0..g and unit columns.
            for (i, row) in rs.rows().iter().enumerate() {
                assert_eq!(row.pivot, i);
                assert_eq!(row.coeffs[i], 1);
                for other in rs.rows() {
                    if other.pivot != i {
                        assert_eq!(other.coeffs[i], 0, "column {i} not eliminated");
                    }
                }
            }
        }
    }
}
