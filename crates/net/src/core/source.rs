//! The source's sans-io core: which generation a subscriber stream mixes
//! next.
//!
//! A source stream is an unbounded sequence of coded packets; the only
//! protocol decision per emission is *which generation to mix next* and
//! *what window base to stamp on the frame*.
//!
//! * A plain (non-windowed) stream runs the peer's [`SendLedger`] with
//!   `rank ≡ generation_size` ([`pick`]): the source holds every
//!   generation whole, so each stream is owed `generation_size` frames of
//!   each generation — the plain round-robin for its first
//!   `generation_size × generations` emissions — and after that only the
//!   un-booked trickle frame per idle interval. One rule for the source's
//!   threads and a peer's, on TCP and on the vnet.
//! * A windowed stream is [`Window`]: base and pick are a pure function
//!   of the emission counter.

use crate::core::peer::{Pick, SendLedger};

/// The next generation for a plain subscriber stream: [`SendLedger::pick`]
/// with every generation at full rank and no window.
pub fn pick(link: &mut SendLedger, generation_size: usize, idled: bool) -> Option<Pick> {
    link.pick(0, |_| generation_size, idled)
}

/// Sliding-window serving parameters (copied into each subscriber
/// stream).
#[derive(Debug, Clone, Copy)]
pub struct Window {
    /// Generations mixed at a time.
    pub span: usize,
    /// Packets per generation (sizes the per-generation service quota).
    pub generation_size: usize,
}

impl Window {
    /// Packets emitted per generation before the window slides: enough
    /// redundancy to decode through mild loss without parking forever.
    #[must_use]
    pub fn quota(&self) -> u64 {
        (2 * self.generation_size) as u64
    }

    /// The window base after `emitted` packets, parked over the tail.
    ///
    /// The base holds at 0 for the first `span` quota periods (the
    /// ramp-up) and then advances one generation per quota. Without the
    /// ramp, generation 0 would be live for a single quota period shared
    /// across `span` generations and retire with only `quota / span`
    /// packets served — starving the head of the stream.
    #[must_use]
    pub fn base(&self, emitted: u64, generations: usize) -> usize {
        ((emitted / self.quota()) as usize)
            .saturating_sub(self.span - 1)
            .min(generations.saturating_sub(self.span))
    }

    /// The generation to serve for emission number `emitted`:
    /// round-robin across the window's live span.
    #[must_use]
    pub fn pick(&self, emitted: u64, generations: usize) -> usize {
        let base = self.base(emitted, generations);
        let live = (generations - base).min(self.span);
        base + (emitted % live as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A constant-rank ledger is the plain round-robin until every
    /// generation has been sent whole, then owes nothing and trickles.
    #[test]
    fn a_plain_stream_is_round_robin_for_its_first_g_times_generations_picks() {
        let (generations, generation_size) = (5, 3);
        let mut link = SendLedger::new(generations);
        for emitted in 0..generations * generation_size {
            // Whether or not the driver idled, an owed frame is an owed frame.
            let idled = emitted % 2 == 1;
            assert_eq!(
                pick(&mut link, generation_size, idled),
                Some(Pick::Owed(emitted % generations)),
                "emission {emitted}"
            );
        }
        assert_eq!(pick(&mut link, generation_size, false), None, "every generation sent whole");
        for emitted in 0..2 * generations {
            assert_eq!(
                pick(&mut link, generation_size, true),
                Some(Pick::Trickle(emitted % generations)),
                "the trickle keeps rotating"
            );
            assert_eq!(pick(&mut link, generation_size, false), None);
        }
    }

    /// Every generation must be served at least a full quota of frames
    /// before the window slides past it, the base must never regress,
    /// and the window must park over the tail — otherwise subscribers
    /// who joined at stream start can never finish the head or the tail
    /// of the object.
    #[test]
    fn window_schedule_serves_every_generation_a_full_quota() {
        for (span, generation_size, generations) in
            [(3, 8, 12), (2, 8, 12), (4, 16, 5), (3, 8, 3), (2, 4, 64)]
        {
            let w = Window { span, generation_size };
            let mut served = vec![0u64; generations];
            let mut last_base = 0usize;
            // Enough emissions to slide the base onto the tail and park.
            let total = w.quota() * (generations + span) as u64;
            for emitted in 0..total {
                let base = w.base(emitted, generations);
                assert!(base >= last_base, "base regressed at emission {emitted}");
                assert!(base <= generations - span, "base overran the tail");
                let pick = w.pick(emitted, generations);
                assert!(
                    (base..base + span).contains(&pick),
                    "picked generation {pick} outside window [{base}, {})",
                    base + span
                );
                served[pick] += 1;
                last_base = base;
            }
            assert_eq!(last_base, generations - span, "window never parked on the tail");
            for (generation, &count) in served.iter().enumerate() {
                assert!(
                    count >= w.quota(),
                    "generation {generation} retired after only {count} of {} frames \
                     (span {span}, g {generation_size}, {generations} generations)",
                    w.quota()
                );
            }
        }
    }
}
