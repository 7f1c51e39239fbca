//! The peer's sans-io core: generation buffers and link liveness.
//!
//! Two pieces of the peer are pure protocol, independent of where the
//! bytes come from:
//!
//! * [`ObjectState`] — the per-generation recode buffers, the serving
//!   rotation, the upstream window base, and completion accounting. The
//!   TCP driver feeds it from socket reads; the vnet feeds it from
//!   simulated deliveries; both serve children by snapshotting a
//!   generation here and recoding outside any lock.
//! * [`LinkLiveness`] — the stall detector for one upstream thread: a
//!   parent that stays connected but sends nothing is still a defect
//!   once the stall timeout passes (a partition, not a close). Time is
//!   an explicit microsecond counter so the same arithmetic runs on the
//!   wall clock and on the vnet's virtual clock.
//!
//! The repair episode (budget admission, backoff, deadline, what each
//! complaint reply means) lives next door in [`crate::core::repair`];
//! the drivers keep only the I/O: sockets and sleeps, or the event heap.

use std::sync::Arc;
use std::time::Duration;

use curtain_rlnc::{BufPool, CodedPacket, RecodeSnapshot, Recoder};
use curtain_telemetry::TraceContext;

/// Per-generation buffers plus the rotation cursor for serving children.
pub struct ObjectState {
    /// One recoder per generation (the decode/recode buffer).
    pub recoders: Vec<Recoder>,
    /// Generations decoded to full rank so far.
    pub complete_count: usize,
    serve_cursor: usize,
    /// Oldest generation still in the upstream's active window (0 when
    /// no parent windows). Serving skips generations behind it, and the
    /// base is re-stamped on outgoing frames so the window propagates
    /// down the overlay.
    pub window_base: usize,
    /// Per generation: the causal context of the last *innovative* packet
    /// received. A recoded outgoing packet is a linear mix of everything
    /// in the generation's basis, so its causal parent is "the most recent
    /// packet that actually changed that basis" — the best single
    /// antecedent a linear code admits.
    last_ctx: Vec<Option<TraceContext>>,
}

impl ObjectState {
    /// [`ObjectState::with_pool`] over a private pool.
    #[must_use]
    pub fn new(generations: usize, generation_size: usize, packet_len: usize) -> Self {
        Self::with_pool(generations, generation_size, packet_len, BufPool::default())
    }

    /// All generations draw row storage from one shared pool, so ingest
    /// and recode traffic is allocation-free at steady state.
    #[must_use]
    pub fn with_pool(
        generations: usize,
        generation_size: usize,
        packet_len: usize,
        pool: BufPool,
    ) -> Self {
        ObjectState {
            recoders: (0..generations)
                .map(|g| Recoder::with_pool(g as u32, generation_size, packet_len, pool.clone()))
                .collect(),
            complete_count: 0,
            serve_cursor: 0,
            window_base: 0,
            last_ctx: vec![None; generations],
        }
    }

    /// Notes an upstream window base; the base only moves forward (a
    /// straggling parent cannot reopen retired generations).
    pub fn advance_window(&mut self, base: usize) {
        self.window_base = self.window_base.max(base.min(self.recoders.len()));
    }

    /// Returns true iff the push was innovative.
    pub fn push(&mut self, packet: CodedPacket) -> bool {
        self.push_ctx(packet, None)
    }

    /// [`ObjectState::push`] carrying the packet's causal context; an
    /// innovative push makes it the generation's current context (see
    /// [`ObjectState::last_ctx`]).
    pub fn push_ctx(&mut self, packet: CodedPacket, ctx: Option<TraceContext>) -> bool {
        let g = packet.generation() as usize;
        let Some(recoder) = self.recoders.get_mut(g) else {
            return false;
        };
        let was_complete = recoder.is_complete();
        let innovative = recoder.push(packet).unwrap_or(false);
        if !was_complete && recoder.is_complete() {
            self.complete_count += 1;
        }
        if innovative && ctx.is_some() {
            self.last_ctx[g] = ctx;
        }
        innovative
    }

    /// True once every generation is decodable.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.complete_count == self.recoders.len()
    }

    /// Current total decoding rank across generations.
    #[must_use]
    pub fn rank(&self) -> usize {
        self.recoders.iter().map(Recoder::rank).sum()
    }

    /// A snapshot of the next generation with data, rotating so children
    /// receive all generations. The caller recodes from the snapshot
    /// *outside* the state lock. Unlike a full `Recoder` clone, the
    /// snapshot is an `Arc` over the generation's current basis rows
    /// (cached inside the recoder until the next innovative packet), so
    /// the critical section is an O(1) refcount bump: no row memcpy, no
    /// GF math, and the upstream `push` path cannot stall behind a slow
    /// child. Later inserts copy-on-write around outstanding snapshots.
    pub fn snapshot_next(&mut self) -> Option<Arc<RecodeSnapshot>> {
        self.snapshot_next_ctx().map(|(snap, _)| snap)
    }

    /// [`ObjectState::snapshot_next`] plus the generation's current causal
    /// context (the last innovative packet's), so the serving path can
    /// derive a child span for the recoded frame.
    pub fn snapshot_next_ctx(&mut self) -> Option<(Arc<RecodeSnapshot>, Option<TraceContext>)> {
        let g = self.next_servable(self.serve_cursor)?;
        self.serve_cursor = (g + 1) % self.recoders.len();
        Some((self.recoders[g].snapshot(), self.last_ctx[g]))
    }

    /// The one rotation rule: the first generation at or after `cursor`
    /// (wrapping) that the upstream window has not retired and that has
    /// rank to serve. [`ObjectState::snapshot_next_ctx`] probes from the
    /// shared serving cursor; the vnet probes from a per-link one.
    #[must_use]
    pub fn next_servable(&self, cursor: usize) -> Option<usize> {
        let n = self.recoders.len();
        (0..n)
            .map(|probe| (cursor + probe) % n)
            .find(|&g| g >= self.window_base && self.recoders[g].rank() > 0)
    }

    /// Every generation's decoded packets, or `None` before completion.
    #[must_use]
    pub fn recover_all(&self) -> Option<Vec<Vec<Vec<u8>>>> {
        self.recoders.iter().map(Recoder::recover).collect()
    }
}

/// The stall detector for one upstream link, on an explicit clock.
///
/// The protocol decision: an idle link is healthy while the peer is
/// complete (nothing more is owed) or while the quiet period is shorter
/// than the policy's stall timeout; past that, the silence is a defect
/// and the thread must run a repair episode exactly as if the socket had
/// died.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkLiveness {
    last_data_us: u64,
    stall_us: u64,
}

impl LinkLiveness {
    /// A fresh link, considered live as of `now_us`.
    #[must_use]
    pub fn new(stall_timeout: Duration, now_us: u64) -> Self {
        let stall_us = u64::try_from(stall_timeout.as_micros()).unwrap_or(u64::MAX);
        LinkLiveness { last_data_us: now_us, stall_us }
    }

    /// Books a frame arrival: the quiet period restarts.
    pub fn on_data(&mut self, now_us: u64) {
        self.last_data_us = self.last_data_us.max(now_us);
    }

    /// Whether the link has been quiet past the stall timeout. A complete
    /// peer never stalls: it is owed nothing.
    #[must_use]
    pub fn is_stalled(&self, now_us: u64, complete: bool) -> bool {
        !complete && now_us.saturating_sub(self.last_data_us) >= self.stall_us
    }

    /// Microseconds of quiet so far.
    #[must_use]
    pub fn idle_us(&self, now_us: u64) -> u64 {
        now_us.saturating_sub(self.last_data_us)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use curtain_rlnc::pipeline::{ObjectEncoder, Schedule};
    use curtain_rlnc::Content;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn filled_state(
        generations: usize,
        generation_size: usize,
        packet_len: usize,
        packets: usize,
    ) -> (ObjectState, ObjectEncoder, StdRng) {
        let content: Vec<u8> = (0..generations * generation_size * packet_len)
            .map(|i| (i % 251) as u8)
            .collect();
        let split = Content::split(&content, generation_size, packet_len);
        let mut encoder = ObjectEncoder::new(split).with_schedule(Schedule::RoundRobin);
        let mut rng = StdRng::seed_from_u64(0xC0DE);
        let mut state = ObjectState::new(generations, generation_size, packet_len);
        for _ in 0..packets {
            state.push(encoder.next_packet(&mut rng));
        }
        (state, encoder, rng)
    }

    #[test]
    fn snapshot_next_rotates_generations() {
        let (mut state, _, mut rng) = filled_state(3, 4, 64, 12);
        let mut seen = Vec::new();
        for _ in 0..6 {
            let snap = state.snapshot_next().expect("rank > 0");
            let packet = snap.recode(&mut rng).expect("recodable");
            seen.push(packet.generation());
        }
        // Rotation visits every generation with data, twice around.
        assert_eq!(seen, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn window_base_retires_generations_from_serving() {
        let (mut state, _, mut rng) = filled_state(4, 4, 32, 16);
        state.advance_window(2);
        let mut seen = Vec::new();
        for _ in 0..6 {
            let snap = state.snapshot_next().expect("window still has data");
            seen.push(snap.recode(&mut rng).expect("recodable").generation());
        }
        assert_eq!(seen, vec![2, 3, 2, 3, 2, 3], "generations 0 and 1 are retired");
        // The base never moves backwards, and is clamped to the object.
        state.advance_window(1);
        assert_eq!(state.window_base, 2);
        state.advance_window(99);
        assert_eq!(state.window_base, 4);
        assert!(state.snapshot_next().is_none(), "everything retired");
    }

    #[test]
    fn snapshot_on_empty_state_is_none() {
        let mut state = ObjectState::new(2, 4, 32);
        assert!(state.snapshot_next().is_none());
    }

    /// The lock-held cost of `snapshot_next` is an `Arc` clone, not a
    /// `Recoder` clone: with a stable basis, consecutive snapshots of the
    /// same generation are pointer-identical, and only an innovative push
    /// produces a fresh one.
    #[test]
    fn snapshot_next_shares_until_innovation() {
        let (mut state, mut encoder, mut rng) = filled_state(1, 8, 64, 4);
        let a = state.snapshot_next().expect("rank > 0");
        let b = state.snapshot_next().expect("rank > 0");
        assert!(Arc::ptr_eq(&a, &b), "stable basis must re-share the cached snapshot");
        // Push until the rank grows; the next snapshot must be new.
        let before = a.epoch();
        while !state.push(encoder.next_packet(&mut rng)) {}
        let c = state.snapshot_next().expect("rank > 0");
        assert!(!Arc::ptr_eq(&a, &c), "innovation must invalidate the cached snapshot");
        assert!(c.epoch() > before);
    }

    #[test]
    fn liveness_stalls_only_past_the_timeout_and_never_when_complete() {
        let mut link = LinkLiveness::new(Duration::from_millis(5), 1_000);
        assert!(!link.is_stalled(1_000, false));
        assert!(!link.is_stalled(5_999, false), "one µs short of the timeout");
        assert!(link.is_stalled(6_000, false));
        assert!(!link.is_stalled(60_000, true), "complete peers are owed nothing");
        // Data resets the quiet period; a stale timestamp cannot rewind it.
        link.on_data(10_000);
        assert_eq!(link.idle_us(12_000), 2_000);
        link.on_data(9_000);
        assert_eq!(link.idle_us(12_000), 2_000, "clock must not move backwards");
        assert!(!link.is_stalled(14_999, false));
        assert!(link.is_stalled(15_000, false));
    }
}
