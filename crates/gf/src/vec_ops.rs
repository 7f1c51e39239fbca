//! Bulk symbol-vector kernels over GF(2⁸) byte buffers.
//!
//! The RLNC hot path is `dst += c · src` over packet payloads (hundreds to
//! thousands of bytes). These functions are the crate's stable bulk-op API;
//! since the data-plane refactor they are thin wrappers over the
//! runtime-dispatched [`crate::kernels`] (SIMD split-nibble shuffle where the
//! CPU has it, the 64 KiB-table scalar walk everywhere else), so existing
//! callers get the fast path with no signature churn.

use crate::tables::GF256_MUL;

/// `dst[i] ^= src[i]` — addition of two symbol vectors in GF(2⁸).
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[inline]
pub fn add_assign(dst: &mut [u8], src: &[u8]) {
    assert_eq!(dst.len(), src.len(), "vector length mismatch");
    crate::kernels::add_assign(dst, src);
}

/// `dst[i] = c * dst[i]` — in-place scaling of a symbol vector.
#[inline]
pub fn scale_assign(dst: &mut [u8], c: u8) {
    crate::kernels::scale_assign(dst, c);
}

/// `dst[i] ^= c * src[i]` — the axpy kernel at the heart of mixing and
/// Gaussian elimination.
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[inline]
pub fn axpy(dst: &mut [u8], c: u8, src: &[u8]) {
    assert_eq!(dst.len(), src.len(), "vector length mismatch");
    crate::kernels::axpy(dst, c, src);
}

/// Dot product of two symbol vectors in GF(2⁸).
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[must_use]
pub fn dot(a: &[u8], b: &[u8]) -> u8 {
    assert_eq!(a.len(), b.len(), "vector length mismatch");
    a.iter().zip(b).fold(0u8, |acc, (&x, &y)| acc ^ GF256_MUL[x as usize][y as usize])
}

/// Returns true iff every byte is zero.
#[must_use]
pub fn is_zero(v: &[u8]) -> bool {
    v.iter().all(|&b| b == 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Field, Gf256};
    use rand::rngs::StdRng;
    use rand::{RngExt as _, SeedableRng};

    #[test]
    fn axpy_matches_scalar_loop() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..256 {
            let c: u8 = rng.random();
            let len = rng.random_range(0..64);
            let src: Vec<u8> = (0..len).map(|_| rng.random()).collect();
            let mut dst: Vec<u8> = (0..len).map(|_| rng.random()).collect();
            let expect: Vec<u8> = dst
                .iter()
                .zip(&src)
                .map(|(&d, &s)| Gf256::new(d).add(Gf256::new(c).mul(Gf256::new(s))).value())
                .collect();
            axpy(&mut dst, c, &src);
            assert_eq!(dst, expect);
        }
    }

    #[test]
    fn scale_then_unscale_is_identity() {
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..256 {
            let c = rng.random_range(1u8..=255);
            let v: Vec<u8> = (0..rng.random_range(0..64)).map(|_| rng.random()).collect();
            let mut w = v.clone();
            scale_assign(&mut w, c);
            scale_assign(&mut w, Gf256::new(c).inv().value());
            assert_eq!(w, v);
        }
    }

    #[test]
    fn add_assign_twice_cancels() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..256 {
            let a: Vec<u8> = (0..rng.random_range(0..64)).map(|_| rng.random()).collect();
            let mut d = vec![0u8; a.len()];
            add_assign(&mut d, &a);
            add_assign(&mut d, &a);
            assert!(is_zero(&d));
        }
    }

    #[test]
    fn dot_is_bilinear() {
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..256 {
            let c: u8 = rng.random();
            let a: Vec<u8> = (0..rng.random_range(1..32)).map(|_| rng.random()).collect();
            // dot(c*a, a) == c * dot(a, a)
            let mut ca = a.clone();
            scale_assign(&mut ca, c);
            let lhs = dot(&ca, &a);
            let rhs = Gf256::new(c).mul(Gf256::new(dot(&a, &a))).value();
            assert_eq!(lhs, rhs);
        }
    }

    #[test]
    fn scale_by_zero_clears() {
        let mut v = vec![1u8, 2, 3];
        scale_assign(&mut v, 0);
        assert!(is_zero(&v));
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn axpy_length_mismatch_panics() {
        let mut d = [0u8; 3];
        axpy(&mut d, 1, &[0u8; 4]);
    }
}
