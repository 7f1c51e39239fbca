//! The coded packet: coefficient vector + payload, with a wire format.

use crate::buffer::{BufPool, PacketBuf};
use crate::error::RlncError;
use crate::generation::GenerationId;

/// A network-coded packet.
///
/// Carries the generation it belongs to, the GF(2⁸) coefficient vector that
/// expresses its payload as a linear combination of the generation's source
/// packets, and the (equally combined) payload itself. Because the
/// coefficients travel inside the packet, any node can decode or recode
/// without knowledge of the network topology — the property the overlay
/// paper relies on to tolerate churn (its §1, citing [CWJ03]).
///
/// Both parts are [`PacketBuf`]s: cloning a packet bumps refcounts instead
/// of copying, and ingest paths can take the buffers without `to_vec()`.
///
/// # Example
///
/// ```
/// use curtain_rlnc::CodedPacket;
///
/// let p = CodedPacket::new(7, vec![1, 0, 0], vec![0xde, 0xad]);
/// let wire = p.to_wire();
/// assert_eq!(CodedPacket::from_wire(&wire).unwrap(), p);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodedPacket {
    generation: GenerationId,
    coefficients: PacketBuf,
    payload: PacketBuf,
}

impl CodedPacket {
    /// Assembles a packet from parts. Accepts anything convertible to a
    /// [`PacketBuf`] (`Vec<u8>`, slices, arrays, pooled buffers), so
    /// existing call sites keep working while hot paths hand over buffers
    /// without copying.
    #[must_use]
    pub fn new(
        generation: GenerationId,
        coefficients: impl Into<PacketBuf>,
        payload: impl Into<PacketBuf>,
    ) -> Self {
        CodedPacket {
            generation,
            coefficients: coefficients.into(),
            payload: payload.into(),
        }
    }

    /// The generation this packet belongs to.
    #[must_use]
    pub fn generation(&self) -> GenerationId {
        self.generation
    }

    /// The GF(2⁸) coefficient vector (length = generation size `g`).
    #[must_use]
    pub fn coefficients(&self) -> &[u8] {
        &self.coefficients
    }

    /// The coded payload.
    #[must_use]
    pub fn payload(&self) -> &[u8] {
        &self.payload
    }

    /// Decomposes into `(generation, coefficients, payload)` without
    /// copying — the ingest path of [`crate::Decoder`] / [`crate::Recoder`].
    #[must_use]
    pub fn into_parts(self) -> (GenerationId, PacketBuf, PacketBuf) {
        (self.generation, self.coefficients, self.payload)
    }

    /// True iff the coefficient vector is all-zero (a vacuous packet that
    /// carries no information; entropy-destruction attackers love these).
    #[must_use]
    pub fn is_vacuous(&self) -> bool {
        self.coefficients.iter().all(|&c| c == 0)
    }

    /// Number of non-zero coefficients (mixing degree).
    #[must_use]
    pub fn degree(&self) -> usize {
        self.coefficients.iter().filter(|&&c| c != 0).count()
    }

    /// Total size on the wire in bytes, including the header overhead that
    /// the coefficient vector costs — the quantity traded off against
    /// generation size in experiment E09.
    #[must_use]
    pub fn wire_len(&self) -> usize {
        4 + 2 + 4 + self.coefficients.len() + self.payload.len()
    }

    /// Serializes to the wire format:
    /// `[generation: u32 LE][g: u16 LE][payload_len: u32 LE][coeffs][payload]`.
    #[must_use]
    pub fn to_wire(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.wire_len());
        self.to_wire_into(&mut out);
        out
    }

    /// Appends the wire format to `out` without any intermediate
    /// allocation; senders reuse one `Vec` across packets.
    pub fn to_wire_into(&self, out: &mut Vec<u8>) {
        out.reserve(self.wire_len());
        out.extend_from_slice(&self.generation.to_le_bytes());
        out.extend_from_slice(&(self.coefficients.len() as u16).to_le_bytes());
        out.extend_from_slice(&(self.payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&self.coefficients);
        out.extend_from_slice(&self.payload);
    }

    /// Parses a packet from its wire format.
    ///
    /// # Errors
    ///
    /// Returns [`RlncError::MalformedWirePacket`] if the buffer is truncated
    /// or the lengths are inconsistent.
    pub fn from_wire(buf: &[u8]) -> Result<Self, RlncError> {
        let (generation, g) = Self::parse_header(buf)?;
        Ok(CodedPacket {
            generation,
            coefficients: PacketBuf::copy_from_slice(&buf[10..10 + g]),
            payload: PacketBuf::copy_from_slice(&buf[10 + g..]),
        })
    }

    /// Parses a packet from its wire format into pool-recycled buffers —
    /// the receive path allocates nothing at steady state.
    ///
    /// # Errors
    ///
    /// Same validation as [`CodedPacket::from_wire`].
    pub fn from_wire_pooled(buf: &[u8], pool: &BufPool) -> Result<Self, RlncError> {
        let (generation, g) = Self::parse_header(buf)?;
        Ok(CodedPacket {
            generation,
            coefficients: pool.alloc_copy(&buf[10..10 + g]).freeze(),
            payload: pool.alloc_copy(&buf[10 + g..]).freeze(),
        })
    }

    /// Validates the header and body length; returns `(generation, g)`.
    fn parse_header(buf: &[u8]) -> Result<(GenerationId, usize), RlncError> {
        let [g0, g1, g2, g3, n0, n1, p0, p1, p2, p3, body @ ..] = buf else {
            return Err(RlncError::MalformedWirePacket("header truncated"));
        };
        let generation = u32::from_le_bytes([*g0, *g1, *g2, *g3]);
        let g = u16::from_le_bytes([*n0, *n1]) as usize;
        let payload_len = u32::from_le_bytes([*p0, *p1, *p2, *p3]) as usize;
        if body.len() != g + payload_len {
            return Err(RlncError::MalformedWirePacket("body length mismatch"));
        }
        Ok((generation, g))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt as _, SeedableRng};

    #[test]
    fn vacuous_and_degree() {
        let p = CodedPacket::new(0, vec![0, 0, 0], *b"xyz");
        assert!(p.is_vacuous());
        assert_eq!(p.degree(), 0);
        let q = CodedPacket::new(0, vec![0, 5, 9], *b"xyz");
        assert!(!q.is_vacuous());
        assert_eq!(q.degree(), 2);
    }

    #[test]
    fn wire_round_trip() {
        let p = CodedPacket::new(42, vec![1, 2, 3, 4], vec![9u8; 100]);
        let wire = p.to_wire();
        assert_eq!(wire.len(), p.wire_len());
        assert_eq!(CodedPacket::from_wire(&wire).unwrap(), p);
    }

    #[test]
    fn to_wire_into_matches_to_wire_and_appends() {
        let p = CodedPacket::new(3, vec![7, 0, 1], vec![4u8; 17]);
        let mut out = vec![0xEE];
        p.to_wire_into(&mut out);
        assert_eq!(out[0], 0xEE, "must append, not overwrite");
        assert_eq!(&out[1..], &p.to_wire()[..]);
        // Reuse the same Vec for a second packet.
        out.clear();
        let q = CodedPacket::new(4, vec![1], vec![2u8; 3]);
        q.to_wire_into(&mut out);
        assert_eq!(CodedPacket::from_wire(&out).unwrap(), q);
    }

    #[test]
    fn from_wire_pooled_round_trips_and_recycles() {
        let pool = BufPool::default();
        let p = CodedPacket::new(9, vec![5, 6], vec![1u8; 64]);
        let wire = p.to_wire();
        let parsed = CodedPacket::from_wire_pooled(&wire, &pool).unwrap();
        assert_eq!(parsed, p);
        drop(parsed);
        assert_eq!(pool.idle(), 2, "coeff + payload buffers return to the pool");
        let again = CodedPacket::from_wire_pooled(&wire, &pool).unwrap();
        assert_eq!(again, p);
        assert!(pool.stats().hits >= 1, "second parse reuses pooled storage");
    }

    #[test]
    fn truncated_header_rejected() {
        assert_eq!(
            CodedPacket::from_wire(&[0u8; 5]).unwrap_err(),
            RlncError::MalformedWirePacket("header truncated")
        );
    }

    #[test]
    fn inconsistent_body_rejected() {
        let p = CodedPacket::new(1, vec![1, 2], *b"abc");
        let mut wire = p.to_wire();
        wire.pop();
        assert_eq!(
            CodedPacket::from_wire(&wire).unwrap_err(),
            RlncError::MalformedWirePacket("body length mismatch")
        );
    }

    #[test]
    fn wire_round_trip_random() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..256 {
            let coeffs: Vec<u8> = (0..rng.random_range(0..32)).map(|_| rng.random()).collect();
            let payload: Vec<u8> = (0..rng.random_range(0..256)).map(|_| rng.random()).collect();
            let p = CodedPacket::new(rng.random(), coeffs, payload);
            assert_eq!(CodedPacket::from_wire(&p.to_wire()).unwrap(), p);
        }
    }

    /// Round-trip through both parse paths plus truncation fuzzing: any
    /// strict prefix of a valid frame must be rejected, never panic.
    #[test]
    fn wire_truncation_never_panics() {
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..256 {
            let coeffs: Vec<u8> = (0..rng.random_range(0..16)).map(|_| rng.random()).collect();
            let payload: Vec<u8> = (0..rng.random_range(0..64)).map(|_| rng.random()).collect();
            let pool = BufPool::default();
            let p = CodedPacket::new(rng.random(), coeffs, payload);
            let wire = p.to_wire();
            assert_eq!(&CodedPacket::from_wire_pooled(&wire, &pool).unwrap(), &p);
            let cut = rng.random_range(0usize..80).min(wire.len().saturating_sub(1));
            let truncated = &wire[..cut];
            assert!(CodedPacket::from_wire(truncated).is_err());
            assert!(CodedPacket::from_wire_pooled(truncated, &pool).is_err());
        }
    }
}
