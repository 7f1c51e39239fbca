//! GF(2⁸): the default symbol field for practical network coding.

use std::fmt;

use crate::field::Field;
use crate::tables::{GF256, GF256_MUL};

/// An element of GF(2⁸) = GF(2)[x] / (x⁸ + x⁴ + x³ + x² + 1).
///
/// One byte per symbol: coefficient vectors and payloads are plain `[u8]`
/// buffers reinterpreted symbol-wise, which is why practical network coding
/// systems (Chou–Wu–Jain 2003) standardize on this field.
///
/// # Example
///
/// ```
/// use curtain_gf::{Field, Gf256};
///
/// let a = Gf256::new(7);
/// assert_eq!(a.mul(a.inv()), Gf256::ONE);
/// ```
#[derive(Copy, Clone, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
#[repr(transparent)]
pub struct Gf256(pub u8);

impl Gf256 {
    /// Wraps a raw byte as a field element.
    #[must_use]
    pub const fn new(v: u8) -> Self {
        Gf256(v)
    }

    /// Returns the raw byte value.
    #[must_use]
    pub const fn value(self) -> u8 {
        self.0
    }

    /// Multiplies two raw bytes in GF(2⁸) without wrapping them first.
    ///
    /// This is the kernel the bulk vector ops build on.
    #[inline]
    #[must_use]
    pub fn mul_bytes(a: u8, b: u8) -> u8 {
        GF256_MUL[a as usize][b as usize]
    }
}

impl Field for Gf256 {
    const ZERO: Self = Gf256(0);
    const ONE: Self = Gf256(1);
    const ORDER: usize = 256;

    #[inline]
    fn add(self, rhs: Self) -> Self {
        Gf256(self.0 ^ rhs.0)
    }

    #[inline]
    fn mul(self, rhs: Self) -> Self {
        Gf256(GF256_MUL[self.0 as usize][rhs.0 as usize])
    }

    #[inline]
    fn inv(self) -> Self {
        assert!(self.0 != 0, "inverse of zero in GF(2^8)");
        Gf256(GF256.exp[255 - GF256.log[self.0 as usize] as usize])
    }

    #[inline]
    fn from_index(v: usize) -> Self {
        assert!(v < 256, "index {v} out of range for GF(2^8)");
        Gf256(v as u8)
    }

    #[inline]
    fn to_index(self) -> usize {
        self.0 as usize
    }

    fn axpy_slice(dst: &mut [Self], c: Self, src: &[Self]) {
        assert_eq!(dst.len(), src.len(), "vector length mismatch");
        crate::kernels::axpy(
            crate::kernels::gf256_as_bytes_mut(dst),
            c.0,
            crate::kernels::gf256_as_bytes(src),
        );
    }

    fn scale_slice(dst: &mut [Self], c: Self) {
        crate::kernels::scale_assign(crate::kernels::gf256_as_bytes_mut(dst), c.0);
    }

    fn add_slice(dst: &mut [Self], src: &[Self]) {
        assert_eq!(dst.len(), src.len(), "vector length mismatch");
        crate::kernels::add_assign(crate::kernels::gf256_as_bytes_mut(dst), crate::kernels::gf256_as_bytes(src));
    }
}

impl fmt::Debug for Gf256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Gf256({:#04x})", self.0)
    }
}

impl fmt::Display for Gf256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:02x}", self.0)
    }
}

impl From<u8> for Gf256 {
    fn from(v: u8) -> Self {
        Gf256(v)
    }
}

impl From<Gf256> for u8 {
    fn from(v: Gf256) -> Self {
        v.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt as _, SeedableRng};

    // The field has 256 elements, so its laws are checked on every triple
    // rather than on a sample.
    fn all() -> impl Iterator<Item = Gf256> {
        (0..=255u8).map(Gf256)
    }

    #[test]
    fn add_is_commutative_and_associative() {
        for a in all() {
            for b in all() {
                assert_eq!(a.add(b), b.add(a));
                for c in all() {
                    assert_eq!(a.add(b).add(c), a.add(b.add(c)));
                }
            }
        }
    }

    #[test]
    fn mul_is_commutative_and_associative() {
        for a in all() {
            for b in all() {
                assert_eq!(a.mul(b), b.mul(a));
                for c in all() {
                    assert_eq!(a.mul(b).mul(c), a.mul(b.mul(c)));
                }
            }
        }
    }

    #[test]
    fn mul_distributes_over_add() {
        for a in all() {
            for b in all() {
                for c in all() {
                    assert_eq!(a.mul(b.add(c)), a.mul(b).add(a.mul(c)));
                }
            }
        }
    }

    #[test]
    fn additive_inverse_is_self() {
        for a in all() {
            assert_eq!(a.add(a), Gf256::ZERO);
        }
    }

    #[test]
    fn nonzero_elements_have_inverses() {
        for a in all().skip(1) {
            assert_eq!(a.mul(a.inv()), Gf256::ONE);
            assert_eq!(a.div(a), Gf256::ONE);
        }
    }

    #[test]
    fn identities() {
        for a in all() {
            assert_eq!(a.add(Gf256::ZERO), a);
            assert_eq!(a.mul(Gf256::ONE), a);
            assert_eq!(a.mul(Gf256::ZERO), Gf256::ZERO);
        }
    }

    /// The kernel-backed slice overrides must agree with the trait's
    /// element-wise defaults (exercised here by hand).
    #[test]
    fn slice_ops_match_elementwise() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..256 {
            let c = Gf256(rng.random());
            let len = rng.random_range(0..70);
            let src: Vec<Gf256> = (0..len).map(|_| Gf256(rng.random())).collect();
            let orig: Vec<Gf256> = (0..len).map(|_| Gf256(rng.random())).collect();

            let mut got = orig.clone();
            Gf256::axpy_slice(&mut got, c, &src);
            let want: Vec<Gf256> =
                orig.iter().zip(&src).map(|(&d, &s)| d.add(c.mul(s))).collect();
            assert_eq!(got, want);

            let mut got = orig.clone();
            Gf256::scale_slice(&mut got, c);
            let want: Vec<Gf256> = orig.iter().map(|&d| c.mul(d)).collect();
            assert_eq!(got, want);

            let mut got = orig.clone();
            Gf256::add_slice(&mut got, &src);
            let want: Vec<Gf256> = orig.iter().zip(&src).map(|(&d, &s)| d.add(s)).collect();
            assert_eq!(got, want);
        }
    }

    #[test]
    #[should_panic(expected = "inverse of zero")]
    fn inv_of_zero_panics() {
        let _ = Gf256::ZERO.inv();
    }

    #[test]
    fn fermat_little_theorem() {
        // a^255 = 1 for all non-zero a.
        for a in 1..=255u8 {
            assert_eq!(Gf256(a).pow(255), Gf256::ONE, "a = {a}");
        }
    }

    #[test]
    fn display_and_debug_nonempty() {
        assert_eq!(format!("{}", Gf256(0xab)), "ab");
        assert_eq!(format!("{:?}", Gf256(0x05)), "Gf256(0x05)");
    }
}
