//! Whole-object transfer across multiple generations.
//!
//! A download or stream is a [`Content`] cut into generations; the
//! [`ObjectEncoder`] serves coded packets across generations (round-robin or
//! sequential) and the [`ObjectDecoder`] tracks per-generation progress and
//! reassembles the original bytes when everything is decodable.

use rand::Rng;

use crate::decoder::Decoder;
use crate::encoder::Encoder;
use crate::error::RlncError;
use crate::generation::{Content, GenerationId};
use crate::packet::CodedPacket;

/// How the encoder cycles through generations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Schedule {
    /// Serve generation 0 until told to advance, then 1, … — the streaming
    /// (synchronous) pattern, where the play-out point advances.
    #[default]
    Sequential,
    /// Rotate across all generations — the download (asynchronous) pattern.
    RoundRobin,
}

/// Source-side state for a whole object.
///
/// # Example
///
/// ```
/// use curtain_rlnc::{Content, ObjectDecoder, ObjectEncoder};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(11);
/// let content = Content::split(&vec![0x5Au8; 300], 8, 16);
/// let mut enc = ObjectEncoder::new(content.clone());
/// let mut dec = ObjectDecoder::new(&content);
/// while !dec.is_complete() {
///     dec.push(enc.next_packet(&mut rng)).unwrap();
/// }
/// assert_eq!(dec.reassemble().unwrap(), vec![0x5Au8; 300]);
/// ```
#[derive(Debug, Clone)]
pub struct ObjectEncoder {
    encoders: Vec<Encoder>,
    schedule: Schedule,
    cursor: usize,
}

impl ObjectEncoder {
    /// Creates an encoder serving all generations of `content` round-robin.
    #[must_use]
    pub fn new(content: Content) -> Self {
        let encoders = content
            .generations()
            .iter()
            .cloned()
            .map(Encoder::from_generation)
            .collect();
        ObjectEncoder { encoders, schedule: Schedule::RoundRobin, cursor: 0 }
    }

    /// Selects the generation schedule.
    #[must_use]
    pub fn with_schedule(mut self, schedule: Schedule) -> Self {
        self.schedule = schedule;
        self
    }

    /// Number of generations.
    #[must_use]
    pub fn generation_count(&self) -> usize {
        self.encoders.len()
    }

    /// Emits the next coded packet according to the schedule.
    pub fn next_packet<R: Rng + ?Sized>(&mut self, rng: &mut R) -> CodedPacket {
        let idx = self.cursor;
        if self.schedule == Schedule::RoundRobin {
            self.cursor = (self.cursor + 1) % self.encoders.len();
        }
        self.encoders[idx].encode(rng)
    }

    /// Emits a coded packet for a specific generation.
    ///
    /// # Panics
    ///
    /// Panics if `generation` is out of range.
    pub fn packet_for<R: Rng + ?Sized>(
        &self,
        generation: GenerationId,
        rng: &mut R,
    ) -> CodedPacket {
        self.encoders[generation as usize].encode(rng)
    }

    /// Advances the sequential cursor (streaming play-out moved on).
    pub fn advance(&mut self) {
        if self.cursor + 1 < self.encoders.len() {
            self.cursor += 1;
        }
    }
}

/// Receiver-side state for a whole object.
#[derive(Debug, Clone)]
pub struct ObjectDecoder {
    decoders: Vec<Decoder>,
    content_shape: Content,
}

impl ObjectDecoder {
    /// Creates a decoder matching the shape of `content` (sizes only — the
    /// data itself is what's being transferred).
    #[must_use]
    pub fn new(content: &Content) -> Self {
        let decoders = content
            .generations()
            .iter()
            .map(|g| Decoder::new(g.id(), g.size(), g.symbol_len()))
            .collect();
        ObjectDecoder { decoders, content_shape: content.clone() }
    }

    /// Offers a packet to the matching generation decoder. Returns whether
    /// it was innovative.
    ///
    /// # Errors
    ///
    /// Propagates decoder validation errors; an unknown generation id maps
    /// to [`RlncError::GenerationMismatch`].
    pub fn push(&mut self, packet: CodedPacket) -> Result<bool, RlncError> {
        let idx = packet.generation() as usize;
        let Some(dec) = self.decoders.get_mut(idx) else {
            return Err(RlncError::GenerationMismatch {
                expected: self.decoders.len().saturating_sub(1) as GenerationId,
                got: packet.generation(),
            });
        };
        dec.push(packet)
    }

    /// Total rank across generations, as a fraction of full completion.
    #[must_use]
    pub fn progress(&self) -> f64 {
        let have: usize = self.decoders.iter().map(Decoder::rank).sum();
        let want: usize = self.decoders.iter().map(Decoder::generation_size).sum();
        have as f64 / want as f64
    }

    /// Number of fully decodable generations so far.
    #[must_use]
    pub fn complete_generations(&self) -> usize {
        self.decoders.iter().filter(|d| d.is_complete()).count()
    }

    /// Index of the first not-yet-complete generation (streaming play-out
    /// position); `None` when everything is complete.
    #[must_use]
    pub fn playout_position(&self) -> Option<GenerationId> {
        self.decoders
            .iter()
            .position(|d| !d.is_complete())
            .map(|i| i as GenerationId)
    }

    /// True iff every generation is decodable.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.decoders.iter().all(Decoder::is_complete)
    }

    /// Per-generation decoders (read-only view, for metrics).
    #[must_use]
    pub fn decoders(&self) -> &[Decoder] {
        &self.decoders
    }

    /// Reassembles the original object bytes; `None` until complete.
    #[must_use]
    pub fn reassemble(&self) -> Option<Vec<u8>> {
        if !self.is_complete() {
            return None;
        }
        let decoded: Vec<Vec<Vec<u8>>> = self
            .decoders
            .iter()
            .map(|d| d.recover().expect("complete decoder recovers"))
            .collect();
        Some(self.content_shape.clone().reassemble(decoded))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt as _, SeedableRng};

    fn content(len: usize, g: usize, s: usize, seed: u64) -> (Vec<u8>, Content) {
        let mut rng = StdRng::seed_from_u64(seed);
        let data: Vec<u8> = (0..len).map(|_| rng.random()).collect();
        let c = Content::split(&data, g, s);
        (data, c)
    }

    #[test]
    fn round_robin_transfer_completes() {
        let (data, c) = content(1000, 8, 16, 1);
        let mut enc = ObjectEncoder::new(c.clone());
        let mut dec = ObjectDecoder::new(&c);
        let mut rng = StdRng::seed_from_u64(2);
        let mut sent = 0;
        while !dec.is_complete() {
            dec.push(enc.next_packet(&mut rng)).unwrap();
            sent += 1;
            assert!(sent < 10_000, "did not converge");
        }
        assert_eq!(dec.reassemble().unwrap(), data);
    }

    #[test]
    fn sequential_schedule_fills_generations_in_order() {
        let (_, c) = content(1000, 4, 16, 3);
        let mut enc = ObjectEncoder::new(c.clone()).with_schedule(Schedule::Sequential);
        let mut dec = ObjectDecoder::new(&c);
        let mut rng = StdRng::seed_from_u64(4);
        while dec.playout_position() == Some(0) {
            dec.push(enc.next_packet(&mut rng)).unwrap();
        }
        // Generation 0 done, later generations untouched.
        assert!(dec.decoders()[0].is_complete());
        for d in &dec.decoders()[1..] {
            assert_eq!(d.rank(), 0);
        }
        enc.advance();
        while !dec.decoders()[1].is_complete() {
            dec.push(enc.next_packet(&mut rng)).unwrap();
        }
        assert_eq!(dec.complete_generations(), 2);
    }

    #[test]
    fn unknown_generation_rejected() {
        let (_, c) = content(100, 4, 16, 5);
        let mut dec = ObjectDecoder::new(&c);
        let p = CodedPacket::new(99, vec![1, 0, 0, 0], vec![0u8; 16]);
        assert!(matches!(dec.push(p), Err(RlncError::GenerationMismatch { .. })));
    }

    #[test]
    fn progress_is_monotone() {
        let (_, c) = content(600, 6, 10, 6);
        let mut enc = ObjectEncoder::new(c.clone());
        let mut dec = ObjectDecoder::new(&c);
        let mut rng = StdRng::seed_from_u64(7);
        let mut last = 0.0;
        while !dec.is_complete() {
            dec.push(enc.next_packet(&mut rng)).unwrap();
            let p = dec.progress();
            assert!(p >= last);
            last = p;
        }
        assert_eq!(last, 1.0);
    }

    #[test]
    fn reassemble_before_complete_is_none() {
        let (_, c) = content(500, 8, 16, 8);
        let dec = ObjectDecoder::new(&c);
        assert!(dec.reassemble().is_none());
    }
}
