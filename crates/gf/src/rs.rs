//! Systematic Reed–Solomon (MDS) erasure coding.
//!
//! Used by the *source-only erasure coding* baseline of the paper's §1: the
//! server stripes content into `k` shares such that **any `d` distinct shares
//! reconstruct it** — but intermediate peers merely forward, never recode.
//! Contrast with RLNC, where every peer recodes (crate `curtain-rlnc`).
//!
//! Construction: start from a Vandermonde matrix `V` (n×k over GF(2⁸)),
//! multiply by the inverse of its top k×k block to obtain a systematic
//! generator matrix whose first `k` rows are the identity. Every k×k minor of
//! a Vandermonde matrix with distinct evaluation points is invertible, so any
//! `k` shares decode.

use std::fmt;

use crate::gf256::Gf256;
use crate::matrix::Matrix;

/// Errors produced by [`ReedSolomon`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RsError {
    /// Fewer than `data_shares` distinct shares were supplied.
    NotEnoughShares {
        /// Shares required to decode.
        needed: usize,
        /// Shares supplied.
        got: usize,
    },
    /// A share index was out of range or duplicated.
    InvalidShareIndex(usize),
    /// Share payloads had inconsistent lengths.
    LengthMismatch,
}

impl fmt::Display for RsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RsError::NotEnoughShares { needed, got } => {
                write!(f, "need {needed} shares to decode, got {got}")
            }
            RsError::InvalidShareIndex(i) => write!(f, "invalid or duplicate share index {i}"),
            RsError::LengthMismatch => write!(f, "share payloads have inconsistent lengths"),
        }
    }
}

impl std::error::Error for RsError {}

/// A systematic Reed–Solomon code over GF(2⁸) with `data_shares` source
/// symbols expanded to `total_shares` coded symbols.
///
/// # Example
///
/// ```
/// use curtain_gf::ReedSolomon;
///
/// # fn main() -> Result<(), curtain_gf::RsError> {
/// let rs = ReedSolomon::new(3, 6);
/// let shares = rs.encode(&[b"abc".to_vec(), b"def".to_vec(), b"ghi".to_vec()]);
/// // Any 3 of the 6 shares reconstruct the data:
/// let got = rs.decode(&[(5, shares[5].clone()), (0, shares[0].clone()), (4, shares[4].clone())])?;
/// assert_eq!(got[1], b"def");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ReedSolomon {
    data_shares: usize,
    total_shares: usize,
    /// Systematic generator matrix, `total_shares × data_shares`.
    generator: Matrix<Gf256>,
}

impl ReedSolomon {
    /// Creates a code with `data_shares` source shares and `total_shares`
    /// output shares.
    ///
    /// # Panics
    ///
    /// Panics if `data_shares == 0`, `total_shares < data_shares`, or
    /// `total_shares > 255` (the number of distinct non-zero evaluation
    /// points in GF(2⁸)).
    #[must_use]
    pub fn new(data_shares: usize, total_shares: usize) -> Self {
        assert!(data_shares > 0, "data_shares must be positive");
        assert!(
            total_shares >= data_shares,
            "total_shares ({total_shares}) must be >= data_shares ({data_shares})"
        );
        assert!(total_shares <= 255, "GF(2^8) supports at most 255 shares");
        let points: Vec<Gf256> = (1..=total_shares as u8).map(Gf256::new).collect();
        let v = Matrix::vandermonde(&points, data_shares);
        // Invert the top k×k block to make the code systematic.
        let mut top = Matrix::zero(data_shares, data_shares);
        for i in 0..data_shares {
            for j in 0..data_shares {
                top.set(i, j, v.get(i, j));
            }
        }
        let top_inv = top
            .inverse()
            .expect("Vandermonde top block with distinct points is invertible");
        let generator = v.mul_mat(&top_inv);
        ReedSolomon { data_shares, total_shares, generator }
    }

    /// Shares required to decode.
    #[must_use]
    pub fn data_shares(&self) -> usize {
        self.data_shares
    }

    /// Total shares produced by [`ReedSolomon::encode`].
    #[must_use]
    pub fn total_shares(&self) -> usize {
        self.total_shares
    }

    /// Encodes `data_shares` equal-length payloads into `total_shares`
    /// payloads. The first `data_shares` outputs equal the inputs
    /// (systematic property).
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != data_shares` or payload lengths differ.
    #[must_use]
    pub fn encode(&self, data: &[Vec<u8>]) -> Vec<Vec<u8>> {
        assert_eq!(data.len(), self.data_shares, "wrong number of data shares");
        let len = data.first().map_or(0, Vec::len);
        assert!(data.iter().all(|d| d.len() == len), "payload length mismatch");
        (0..self.total_shares)
            .map(|r| {
                let mut out = vec![0u8; len];
                for (j, d) in data.iter().enumerate() {
                    crate::vec_ops::axpy(&mut out, self.generator.get(r, j).value(), d);
                }
                out
            })
            .collect()
    }

    /// Decodes the original `data_shares` payloads from any `data_shares`
    /// distinct `(share_index, payload)` pairs.
    ///
    /// # Errors
    ///
    /// * [`RsError::NotEnoughShares`] if fewer than `data_shares` pairs given.
    /// * [`RsError::InvalidShareIndex`] on out-of-range or duplicate indices.
    /// * [`RsError::LengthMismatch`] if payload lengths differ.
    pub fn decode(&self, shares: &[(usize, Vec<u8>)]) -> Result<Vec<Vec<u8>>, RsError> {
        if shares.len() < self.data_shares {
            return Err(RsError::NotEnoughShares { needed: self.data_shares, got: shares.len() });
        }
        let use_shares = &shares[..self.data_shares];
        let len = use_shares[0].1.len();
        let mut seen = vec![false; self.total_shares];
        for (idx, payload) in use_shares {
            if *idx >= self.total_shares || seen[*idx] {
                return Err(RsError::InvalidShareIndex(*idx));
            }
            seen[*idx] = true;
            if payload.len() != len {
                return Err(RsError::LengthMismatch);
            }
        }
        // Solve G_sub · data = shares for each byte position, by inverting
        // the k×k submatrix of generator rows once.
        let mut sub = Matrix::zero(self.data_shares, self.data_shares);
        for (r, (idx, _)) in use_shares.iter().enumerate() {
            for j in 0..self.data_shares {
                sub.set(r, j, self.generator.get(*idx, j));
            }
        }
        let inv = sub
            .inverse()
            .expect("any k rows of an MDS generator are linearly independent");
        let mut out = vec![vec![0u8; len]; self.data_shares];
        for (i, row_out) in out.iter_mut().enumerate() {
            for (r, (_, payload)) in use_shares.iter().enumerate() {
                crate::vec_ops::axpy(row_out, inv.get(i, r).value(), payload);
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{RngExt as _, SeedableRng};

    fn random_data(k: usize, len: usize, seed: u64) -> Vec<Vec<u8>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..k)
            .map(|_| (0..len).map(|_| rng.random()).collect())
            .collect()
    }

    #[test]
    fn systematic_prefix() {
        let rs = ReedSolomon::new(4, 10);
        let data = random_data(4, 32, 1);
        let shares = rs.encode(&data);
        assert_eq!(shares.len(), 10);
        for i in 0..4 {
            assert_eq!(shares[i], data[i], "systematic share {i}");
        }
    }

    #[test]
    fn any_k_of_n_decode() {
        let rs = ReedSolomon::new(3, 8);
        let data = random_data(3, 16, 2);
        let shares = rs.encode(&data);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..50 {
            let mut idx: Vec<usize> = (0..8).collect();
            idx.shuffle(&mut rng);
            let picked: Vec<(usize, Vec<u8>)> =
                idx[..3].iter().map(|&i| (i, shares[i].clone())).collect();
            assert_eq!(rs.decode(&picked).unwrap(), data);
        }
    }

    #[test]
    fn not_enough_shares_error() {
        let rs = ReedSolomon::new(4, 8);
        let data = random_data(4, 8, 4);
        let shares = rs.encode(&data);
        let err = rs.decode(&[(0, shares[0].clone())]).unwrap_err();
        assert_eq!(err, RsError::NotEnoughShares { needed: 4, got: 1 });
    }

    #[test]
    fn duplicate_share_error() {
        let rs = ReedSolomon::new(2, 4);
        let data = random_data(2, 8, 5);
        let shares = rs.encode(&data);
        let err = rs
            .decode(&[(1, shares[1].clone()), (1, shares[1].clone())])
            .unwrap_err();
        assert_eq!(err, RsError::InvalidShareIndex(1));
    }

    #[test]
    fn out_of_range_share_error() {
        let rs = ReedSolomon::new(2, 4);
        let err = rs.decode(&[(0, vec![0u8; 4]), (9, vec![0u8; 4])]).unwrap_err();
        assert_eq!(err, RsError::InvalidShareIndex(9));
    }

    #[test]
    fn length_mismatch_error() {
        let rs = ReedSolomon::new(2, 4);
        let err = rs.decode(&[(0, vec![0u8; 4]), (1, vec![0u8; 5])]).unwrap_err();
        assert_eq!(err, RsError::LengthMismatch);
    }

    #[test]
    #[should_panic(expected = "at most 255 shares")]
    fn too_many_shares_panics() {
        let _ = ReedSolomon::new(2, 256);
    }

    #[test]
    fn k_equals_n_is_identity_code() {
        let rs = ReedSolomon::new(3, 3);
        let data = random_data(3, 8, 6);
        let shares = rs.encode(&data);
        assert_eq!(shares, data);
    }

    #[test]
    fn round_trip_random_subsets() {
        let mut rng = StdRng::seed_from_u64(16);
        for _ in 0..16 {
            let k = rng.random_range(1usize..6);
            let n = k + rng.random_range(0usize..6);
            let rs = ReedSolomon::new(k, n);
            let data = random_data(k, 24, rng.random());
            let shares = rs.encode(&data);
            let mut idx: Vec<usize> = (0..n).collect();
            idx.shuffle(&mut rng);
            let picked: Vec<(usize, Vec<u8>)> =
                idx[..k].iter().map(|&i| (i, shares[i].clone())).collect();
            assert_eq!(rs.decode(&picked).unwrap(), data);
        }
    }
}
