//! GF(2¹⁶): a larger symbol field for long generations.
//!
//! With 16-bit symbols the probability that a random linear combination is
//! non-innovative drops from ~1/256 per opportunity to ~1/65536, at the cost
//! of heavier tables. The RLNC codec is generic over [`Field`], so switching
//! is a type parameter away; experiment E09 quantifies the trade-off.

use std::fmt;

use crate::field::Field;
use crate::tables::GF2P16;

/// An element of GF(2¹⁶) = GF(2)[x] / (x¹⁶ + x¹² + x³ + x + 1).
///
/// # Example
///
/// ```
/// use curtain_gf::{Field, Gf2p16};
///
/// let a = Gf2p16::new(0xBEEF);
/// assert_eq!(a.mul(a.inv()), Gf2p16::ONE);
/// ```
#[derive(Copy, Clone, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct Gf2p16(pub u16);

impl Gf2p16 {
    /// Wraps a raw 16-bit word as a field element.
    #[must_use]
    pub const fn new(v: u16) -> Self {
        Gf2p16(v)
    }

    /// Returns the raw 16-bit value.
    #[must_use]
    pub const fn value(self) -> u16 {
        self.0
    }
}

impl Field for Gf2p16 {
    const ZERO: Self = Gf2p16(0);
    const ONE: Self = Gf2p16(1);
    const ORDER: usize = 65536;

    #[inline]
    fn add(self, rhs: Self) -> Self {
        Gf2p16(self.0 ^ rhs.0)
    }

    #[inline]
    fn mul(self, rhs: Self) -> Self {
        if self.0 == 0 || rhs.0 == 0 {
            return Gf2p16(0);
        }
        let la = GF2P16.log[self.0 as usize] as usize;
        let lb = GF2P16.log[rhs.0 as usize] as usize;
        Gf2p16(GF2P16.exp[la + lb])
    }

    #[inline]
    fn inv(self) -> Self {
        assert!(self.0 != 0, "inverse of zero in GF(2^16)");
        Gf2p16(GF2P16.exp[65535 - GF2P16.log[self.0 as usize] as usize])
    }

    #[inline]
    fn from_index(v: usize) -> Self {
        assert!(v < 65536, "index {v} out of range for GF(2^16)");
        Gf2p16(v as u16)
    }

    #[inline]
    fn to_index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for Gf2p16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Gf2p16({:#06x})", self.0)
    }
}

impl fmt::Display for Gf2p16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:04x}", self.0)
    }
}

impl From<u16> for Gf2p16 {
    fn from(v: u16) -> Self {
        Gf2p16(v)
    }
}

impl From<Gf2p16> for u16 {
    fn from(v: Gf2p16) -> Self {
        v.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt as _, SeedableRng};

    /// Carry-less schoolbook multiply for cross-validation.
    fn slow_mul(mut a: u32, mut b: u32) -> u16 {
        let mut acc: u32 = 0;
        while b != 0 {
            if b & 1 != 0 {
                acc ^= a;
            }
            b >>= 1;
            a <<= 1;
            if a & 0x1_0000 != 0 {
                a ^= crate::tables::GF2P16_POLY;
            }
        }
        acc as u16
    }

    #[test]
    fn mul_matches_slow_reference() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..256 {
            let (a, b): (u16, u16) = (rng.random(), rng.random());
            assert_eq!(Gf2p16(a).mul(Gf2p16(b)).0, slow_mul(a as u32, b as u32));
        }
    }

    #[test]
    fn field_axioms() {
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..256 {
            let (a, b, c) = (Gf2p16(rng.random()), Gf2p16(rng.random()), Gf2p16(rng.random()));
            assert_eq!(a.mul(b), b.mul(a));
            assert_eq!(a.mul(b.add(c)), a.mul(b).add(a.mul(c)));
            assert_eq!(a.add(a), Gf2p16::ZERO);
        }
    }

    #[test]
    fn nonzero_inverse() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..256 {
            let a = Gf2p16(rng.random_range(1u16..=u16::MAX));
            assert_eq!(a.mul(a.inv()), Gf2p16::ONE);
        }
    }

    #[test]
    #[should_panic(expected = "inverse of zero")]
    fn inv_of_zero_panics() {
        let _ = Gf2p16::ZERO.inv();
    }

    #[test]
    fn mul_by_zero() {
        assert_eq!(Gf2p16(0x1234).mul(Gf2p16::ZERO), Gf2p16::ZERO);
        assert_eq!(Gf2p16::ZERO.mul(Gf2p16(0x1234)), Gf2p16::ZERO);
    }
}
