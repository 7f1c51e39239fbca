//! Seed-compressed coefficient vectors: an optional wire optimization.
//!
//! A *source-coded* packet's coefficient vector is uniformly random, so it
//! can be shipped as the 8-byte PRNG seed that generated it instead of `g`
//! explicit bytes — a `g − 8` byte saving per source packet (at `g = 128`
//! that is ~94% of the header). The trick only works for packets whose
//! coefficients the sender *chose* (a recoder's output coefficients are
//! determined by arithmetic, not a seed), which is exactly why the wire
//! format carries both representations.
//!
//! This mirrors the coding-vector compression used by production RLNC
//! stacks; experiment E09 reports the measured saving.

use rand::rngs::StdRng;
use rand::{RngExt as _, SeedableRng};

use crate::buffer::PacketBuf;
use crate::error::RlncError;
use crate::generation::GenerationId;
use crate::packet::CodedPacket;

/// Expands a seed into the `g`-byte coefficient vector it denotes.
///
/// The all-zero expansion (probability `256^-g`) is patched to `e_0` so a
/// seeded packet is never vacuous.
#[must_use]
pub fn expand_seed(seed: u64, g: usize) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut coeffs = vec![0u8; g];
    rng.fill(&mut coeffs[..]);
    if coeffs.iter().all(|&c| c == 0) {
        coeffs[0] = 1;
    }
    coeffs
}

/// A packet as it travels: either explicit coefficients or a seed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WirePacket {
    /// Full coefficient vector (recoded packets).
    Explicit(CodedPacket),
    /// Seed-compressed coefficients (source packets).
    Seeded {
        /// Generation id.
        generation: GenerationId,
        /// Generation size `g` (needed to expand the seed).
        generation_size: u16,
        /// The coefficient seed.
        seed: u64,
        /// The coded payload.
        payload: PacketBuf,
    },
}

const TAG_EXPLICIT: u8 = 1;
const TAG_SEEDED: u8 = 2;

impl WirePacket {
    /// Wraps an explicit packet.
    #[must_use]
    pub fn explicit(packet: CodedPacket) -> Self {
        WirePacket::Explicit(packet)
    }

    /// Builds a seeded wire packet from its parts.
    #[must_use]
    pub fn seeded(
        generation: GenerationId,
        generation_size: u16,
        seed: u64,
        payload: PacketBuf,
    ) -> Self {
        WirePacket::Seeded { generation, generation_size, seed, payload }
    }

    /// Bytes this representation needs on the wire.
    #[must_use]
    pub fn wire_len(&self) -> usize {
        match self {
            WirePacket::Explicit(p) => 1 + p.wire_len(),
            WirePacket::Seeded { payload, .. } => 1 + 4 + 2 + 8 + 4 + payload.len(),
        }
    }

    /// Serializes with a one-byte representation tag.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(self.wire_len());
        match self {
            WirePacket::Explicit(p) => {
                buf.push(TAG_EXPLICIT);
                p.to_wire_into(&mut buf);
            }
            WirePacket::Seeded { generation, generation_size, seed, payload } => {
                buf.push(TAG_SEEDED);
                buf.extend_from_slice(&generation.to_le_bytes());
                buf.extend_from_slice(&generation_size.to_le_bytes());
                buf.extend_from_slice(&seed.to_le_bytes());
                buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
                buf.extend_from_slice(payload);
            }
        }
        buf
    }

    /// Parses either representation.
    ///
    /// # Errors
    ///
    /// Returns [`RlncError::MalformedWirePacket`] on truncation, bad tags,
    /// or inconsistent lengths.
    pub fn decode(buf: &[u8]) -> Result<Self, RlncError> {
        const TRUNCATED: RlncError = RlncError::MalformedWirePacket("seeded header truncated");
        let (&tag, rest) = buf
            .split_first()
            .ok_or(RlncError::MalformedWirePacket("empty buffer"))?;
        match tag {
            TAG_EXPLICIT => CodedPacket::from_wire(rest).map(WirePacket::Explicit),
            TAG_SEEDED => {
                let (generation, rest) = rest.split_first_chunk().ok_or(TRUNCATED)?;
                let (generation_size, rest) = rest.split_first_chunk().ok_or(TRUNCATED)?;
                let (seed, rest) = rest.split_first_chunk().ok_or(TRUNCATED)?;
                let (payload_len, rest) = rest.split_first_chunk().ok_or(TRUNCATED)?;
                if rest.len() != u32::from_le_bytes(*payload_len) as usize {
                    return Err(RlncError::MalformedWirePacket("seeded body length mismatch"));
                }
                Ok(WirePacket::Seeded {
                    generation: u32::from_le_bytes(*generation),
                    generation_size: u16::from_le_bytes(*generation_size),
                    seed: u64::from_le_bytes(*seed),
                    payload: PacketBuf::copy_from_slice(rest),
                })
            }
            _ => Err(RlncError::MalformedWirePacket("unknown representation tag")),
        }
    }

    /// Materializes the full packet (expanding the seed if needed).
    #[must_use]
    pub fn into_packet(self) -> CodedPacket {
        match self {
            WirePacket::Explicit(p) => p,
            WirePacket::Seeded { generation, generation_size, seed, payload } => {
                let coeffs = expand_seed(seed, generation_size as usize);
                CodedPacket::new(generation, coeffs, payload)
            }
        }
    }
}

impl crate::encoder::Encoder {
    /// Emits a seed-compressed source packet: the coefficients are the
    /// expansion of a random seed, so the wire form costs 8 bytes of
    /// header instead of `g`.
    pub fn encode_seeded<R: rand::Rng + ?Sized>(&self, rng: &mut R) -> WirePacket {
        let seed: u64 = rng.random();
        let coeffs = expand_seed(seed, self.generation_size());
        let mut payload = vec![0u8; self.symbol_len()];
        for (c, src) in coeffs.iter().zip(self.source_packets()) {
            curtain_gf::vec_ops::axpy(&mut payload, *c, src);
        }
        WirePacket::seeded(
            self.generation(),
            self.generation_size() as u16,
            seed,
            payload.into(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Decoder, Encoder};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn encoder(g: usize, s: usize) -> Encoder {
        let data: Vec<Vec<u8>> = (0..g).map(|i| vec![i as u8 + 1; s]).collect();
        Encoder::new(0, data).unwrap()
    }

    #[test]
    fn expansion_is_deterministic_and_never_vacuous() {
        assert_eq!(expand_seed(42, 16), expand_seed(42, 16));
        assert_ne!(expand_seed(42, 16), expand_seed(43, 16));
        for seed in 0..200 {
            assert!(expand_seed(seed, 8).iter().any(|&c| c != 0));
        }
    }

    #[test]
    fn seeded_and_explicit_agree_after_expansion() {
        let enc = encoder(8, 32);
        let mut rng = StdRng::seed_from_u64(1);
        let wire = enc.encode_seeded(&mut rng);
        let WirePacket::Seeded { seed, generation_size, .. } = &wire else {
            panic!("expected seeded");
        };
        let expanded = expand_seed(*seed, *generation_size as usize);
        let packet = wire.clone().into_packet();
        assert_eq!(packet.coefficients(), &expanded[..]);
        // The payload is the declared combination.
        let mut expect = vec![0u8; 32];
        for (c, src) in expanded.iter().zip((0..8).map(|i| vec![i as u8 + 1; 32])) {
            curtain_gf::vec_ops::axpy(&mut expect, *c, &src);
        }
        assert_eq!(packet.payload(), &expect[..]);
    }

    #[test]
    fn wire_round_trips_both_forms() {
        let enc = encoder(8, 32);
        let mut rng = StdRng::seed_from_u64(2);
        let seeded = enc.encode_seeded(&mut rng);
        assert_eq!(WirePacket::decode(&seeded.encode()).unwrap(), seeded);
        let explicit = WirePacket::explicit(enc.encode(&mut rng));
        assert_eq!(WirePacket::decode(&explicit.encode()).unwrap(), explicit);
    }

    #[test]
    fn seeded_packets_decode_the_generation() {
        let g = 12;
        let s = 24;
        let enc = encoder(g, s);
        let mut dec = Decoder::new(0, g, s);
        let mut rng = StdRng::seed_from_u64(3);
        let mut sent = 0;
        while !dec.is_complete() {
            let p = enc.encode_seeded(&mut rng).into_packet();
            dec.push(p).unwrap();
            sent += 1;
            assert!(sent < 100 * g);
        }
        let recovered = dec.recover().unwrap();
        assert_eq!(recovered[3], vec![4u8; s]);
    }

    #[test]
    fn header_saving_matches_formula() {
        let g = 128;
        let s = 1024;
        let enc = encoder(g, s);
        let mut rng = StdRng::seed_from_u64(4);
        let seeded = enc.encode_seeded(&mut rng);
        let explicit = WirePacket::explicit(seeded.clone().into_packet());
        assert_eq!(explicit.wire_len() - seeded.wire_len(), g - 8);
    }

    #[test]
    fn bad_tags_and_truncations_rejected() {
        assert!(WirePacket::decode(&[]).is_err());
        assert!(WirePacket::decode(&[9, 0, 0]).is_err());
        assert!(WirePacket::decode(&[TAG_SEEDED, 1, 2]).is_err());
        let enc = encoder(4, 8);
        let mut rng = StdRng::seed_from_u64(5);
        let mut buf = enc.encode_seeded(&mut rng).encode();
        buf.pop();
        assert!(WirePacket::decode(&buf).is_err());
    }

    /// Arbitrary bytes never panic the decoder (fuzz).
    #[test]
    fn decode_never_panics() {
        let mut rng = StdRng::seed_from_u64(6);
        for _ in 0..256 {
            let data: Vec<u8> = (0..rng.random_range(0..256)).map(|_| rng.random()).collect();
            let _ = WirePacket::decode(&data);
            let _ = CodedPacket::from_wire(&data);
        }
    }

    /// Round trip for random seeded packets.
    #[test]
    fn seeded_round_trip() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..256 {
            let payload: Vec<u8> = (0..rng.random_range(0..128)).map(|_| rng.random()).collect();
            let w = WirePacket::seeded(
                rng.random(),
                rng.random_range(1u16..64),
                rng.random(),
                payload.into(),
            );
            assert_eq!(WirePacket::decode(&w.encode()).unwrap(), w);
        }
    }
}
