//! The peer's sans-io core: generation buffers, per-link send ledgers and
//! link liveness.
//!
//! Three pieces of the peer are pure protocol, independent of where the
//! bytes come from:
//!
//! * [`ObjectState`] — the per-generation recode buffers, the upstream
//!   window base, and completion accounting. The TCP driver feeds it from
//!   socket reads; the vnet feeds it from simulated deliveries; both serve
//!   children by snapshotting a generation here and recoding outside any
//!   lock.
//! * [`SendLedger`] — what one downstream subscription has already been
//!   sent, and so which generation its next frame should mix. A thread
//!   relays what its holder has *received*: a generation is **owed** on a
//!   link while the holder's rank in it exceeds the frames booked on that
//!   link (and the upstream window has not retired it). When nothing is
//!   owed the driver idles one interval and then sends a single un-booked
//!   **trickle** frame from the plain rotation, so a child that lost a
//!   frame, drew a dependent combination, or has no other live thread
//!   still converges. Nothing here is feedback: the ledger counts only
//!   what this end sent, never what the far end reports.
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

use curtain_rlnc::{BufPool, CodedPacket, CodingStats, RecodeSnapshot, Recoder};
use curtain_telemetry::TraceContext;

/// Per-generation buffers; what each child link is owed from them is the
/// link's own [`SendLedger`].
pub struct ObjectState {
    /// One recoder per generation (the decode/recode buffer).
    pub recoders: Vec<Recoder>,
    /// Generations decoded to full rank so far.
    pub complete_count: usize,
    /// Rotation cursor of [`ObjectState::snapshot_next`] only — links
    /// rotate on their own ledger's cursor.
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

    /// Innovative and redundant packets seen so far, over all generations.
    #[must_use]
    pub fn coding_stats(&self) -> CodingStats {
        let mut total = CodingStats::new();
        for recoder in &self.recoders {
            total.merge(recoder.stats());
        }
        total
    }

    /// The generation `link` should carry next: the next one it is owed,
    /// else — only when the driver has just sat out an idle interval —
    /// the next one in its plain rotation. `None` means send nothing now.
    /// See [`SendLedger::pick`] for the rule.
    pub fn pick(&self, link: &mut SendLedger, idled: bool) -> Option<Pick> {
        link.pick(self.window_base, |g| self.recoders[g].rank(), idled)
    }

    /// A snapshot of generation `g` plus its current causal context (the
    /// last innovative packet's), so the serving path can derive a child
    /// span for the recoded frame. The caller recodes from the snapshot
    /// *outside* the state lock. Unlike a full `Recoder` clone, the
    /// snapshot is an `Arc` over the generation's current basis rows
    /// (cached inside the recoder until the next innovative packet), so
    /// the critical section is an O(1) refcount bump: no row memcpy, no
    /// GF math, and the upstream `push` path cannot stall behind a slow
    /// child. Later inserts copy-on-write around snapshots still held.
    ///
    /// # Panics
    ///
    /// Panics if `g` is not a generation of this object.
    pub fn snapshot_of(&mut self, g: usize) -> (Arc<RecodeSnapshot>, Option<TraceContext>) {
        (self.recoders[g].snapshot(), self.last_ctx[g])
    }

    /// A snapshot of the next generation with data, in plain rotation on
    /// the state's own cursor. Not a scheduler — links pick through their
    /// [`SendLedger`]; this is for callers that have no link and want "some
    /// servable generation" (and for measuring the lock-held cost of a
    /// snapshot).
    pub fn snapshot_next(&mut self) -> Option<Arc<RecodeSnapshot>> {
        let g = self.next_servable(self.serve_cursor)?;
        self.serve_cursor = (g + 1) % self.recoders.len();
        Some(self.snapshot_of(g).0)
    }

    /// The plain rotation: the first generation at or after `cursor`
    /// (wrapping) that the upstream window has not retired and that has
    /// rank to serve.
    #[must_use]
    pub fn next_servable(&self, cursor: usize) -> Option<usize> {
        rotation(self.recoders.len(), cursor)
            .find(|&g| g >= self.window_base && self.recoders[g].rank() > 0)
    }

    /// Every generation's decoded packets, or `None` before completion.
    #[must_use]
    pub fn recover_all(&self) -> Option<Vec<Vec<Vec<u8>>>> {
        self.recoders.iter().map(Recoder::recover).collect()
    }
}

/// Generations in rotation order starting at `cursor`, once around.
fn rotation(generations: usize, cursor: usize) -> impl Iterator<Item = usize> {
    (0..generations).map(move |probe| (cursor + probe) % generations)
}

/// What a [`SendLedger`] chose for a link's next frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pick {
    /// The link was owed this generation; the frame is booked.
    Owed(usize),
    /// Nothing was owed; this is the un-booked liveness frame.
    Trickle(usize),
}

impl Pick {
    /// The generation to mix.
    #[must_use]
    pub fn generation(self) -> usize {
        match self {
            Pick::Owed(g) | Pick::Trickle(g) => g,
        }
    }

    /// The recorder counter a serve loop bumps for a frame of this kind.
    #[must_use]
    pub fn counter(self) -> &'static str {
        match self {
            Pick::Owed(_) => "serve_frames_owed",
            Pick::Trickle(_) => "serve_frames_trickle",
        }
    }
}

/// The send ledger of one downstream subscription: frames booked per
/// generation plus the link's own rotation cursor.
///
/// One rule. Generation `g` is *owed* while `rank(g) > sent[g]` and `g`
/// is not behind the upstream window base — the holder can still tell
/// this link something the link's earlier frames did not span. Owed
/// generations are served in rotation from the link's cursor, so every
/// owed generation is served once before any is served twice. (The
/// cursor is per link on purpose: a cursor shared between links
/// parity-locks under a deterministic scheduler — with two generations
/// and two children each child would see one generation forever.)
///
/// When nothing is owed, [`SendLedger::pick`] answers `None` until the
/// driver reports it has idled one interval (2 ms on TCP, the link pace
/// on the vnet); then it hands out one [`Pick::Trickle`] from the plain
/// rotation and books nothing, so "nothing owed" never means "silent
/// forever". A fresh subscription — first join, resubscribe after a
/// repair, reconnect — starts with a fresh ledger.
///
/// The holder's ranks are passed in, which lets the source run the same
/// ledger with `rank ≡ generation_size` ([`crate::core::source::pick`]).
#[derive(Debug, Clone)]
pub struct SendLedger {
    sent: Vec<u32>,
    cursor: usize,
}

impl SendLedger {
    /// A fresh link over an object of `generations` generations: nothing
    /// sent, rotation at generation 0.
    #[must_use]
    pub fn new(generations: usize) -> Self {
        SendLedger { sent: vec![0; generations], cursor: 0 }
    }

    /// Chooses (and, if owed, books) the link's next generation given the
    /// holder's `window_base` and per-generation `rank`. `idled` says the
    /// driver has just waited out an idle interval with nothing sent.
    pub fn pick(
        &mut self,
        window_base: usize,
        rank: impl Fn(usize) -> usize,
        idled: bool,
    ) -> Option<Pick> {
        let n = self.sent.len();
        let live = |g: &usize| *g >= window_base;
        let owed = rotation(n, self.cursor).filter(live).find(|&g| rank(g) > self.sent[g] as usize);
        let pick = match owed {
            Some(g) => {
                self.sent[g] += 1;
                Pick::Owed(g)
            }
            None if idled => {
                Pick::Trickle(rotation(n, self.cursor).filter(live).find(|&g| rank(g) > 0)?)
            }
            None => return None,
        };
        self.cursor = (pick.generation() + 1) % n;
        Some(pick)
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

    /// Every frame `link` is owed right now, in the order it would be sent.
    fn drain_owed(state: &ObjectState, link: &mut SendLedger) -> Vec<usize> {
        std::iter::from_fn(|| state.pick(link, false)).map(Pick::generation).collect()
    }

    /// Pushes fresh source packets of generation `g` until its rank is `rank`.
    fn raise_rank(
        state: &mut ObjectState,
        encoder: &ObjectEncoder,
        rng: &mut StdRng,
        g: usize,
        rank: usize,
    ) {
        while state.recoders[g].rank() < rank {
            state.push(encoder.packet_for(g as u32, rng));
        }
    }

    #[test]
    fn a_link_is_never_booked_more_than_the_holder_ranks() {
        // ranks per generation -> the frames a fresh link is owed, in order:
        // rotation from the link's own cursor, every owed generation once
        // before any twice.
        for (ranks, owed) in [
            (vec![0, 0, 0], vec![]),
            (vec![1, 0, 0], vec![0]),
            (vec![2, 1, 3], vec![0, 1, 2, 0, 2, 2]),
            (vec![0, 4, 0], vec![1, 1, 1, 1]),
            (vec![4, 4, 4], vec![0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2]),
        ] {
            let (mut state, encoder, mut rng) = filled_state(3, 4, 16, 0);
            for (g, &rank) in ranks.iter().enumerate() {
                raise_rank(&mut state, &encoder, &mut rng, g, rank);
            }
            let mut link = SendLedger::new(3);
            assert_eq!(drain_owed(&state, &mut link), owed, "ranks {ranks:?}");
            // A second link has its own books.
            let mut sibling = SendLedger::new(3);
            assert_eq!(drain_owed(&state, &mut sibling).len(), state.rank());
        }
    }

    #[test]
    fn a_link_owes_again_exactly_when_rank_grows() {
        let (mut state, encoder, mut rng) = filled_state(2, 4, 16, 0);
        let mut link = SendLedger::new(2);
        assert_eq!(state.pick(&mut link, false), None, "rank 0: nothing to send");
        for rank in 1..=4 {
            raise_rank(&mut state, &encoder, &mut rng, 1, rank);
            assert_eq!(state.pick(&mut link, false), Some(Pick::Owed(1)), "rank {rank}");
            assert_eq!(state.pick(&mut link, false), None, "one frame per rank step");
        }
        // Full rank: further (necessarily redundant) packets owe nothing.
        assert!(!state.push(encoder.packet_for(1, &mut rng)));
        assert_eq!(state.pick(&mut link, false), None);
    }

    #[test]
    fn the_ledger_honours_the_window_base() {
        let (mut state, encoder, mut rng) = filled_state(4, 4, 16, 0);
        for g in 0..4 {
            raise_rank(&mut state, &encoder, &mut rng, g, 4);
        }
        state.advance_window(2);
        let mut link = SendLedger::new(4);
        let owed = drain_owed(&state, &mut link);
        assert_eq!(owed, vec![2, 3, 2, 3, 2, 3, 2, 3], "generations 0 and 1 are retired");
        assert_eq!(state.pick(&mut link, true), Some(Pick::Trickle(2)));
        state.advance_window(4);
        assert_eq!(state.pick(&mut link, true), None, "everything retired");
    }

    /// Two children of one holder with two generations: each link rotates
    /// on its own cursor, so both see both generations however their picks
    /// interleave (a cursor shared between them would hand child A only
    /// the even picks and child B only the odd ones).
    #[test]
    fn links_rotate_independently_so_no_child_is_parity_locked() {
        let (mut state, encoder, mut rng) = filled_state(2, 4, 16, 0);
        for g in 0..2 {
            raise_rank(&mut state, &encoder, &mut rng, g, 4);
        }
        let (mut a, mut b) = (SendLedger::new(2), SendLedger::new(2));
        let mut seen = [Vec::new(), Vec::new()];
        for _ in 0..4 {
            seen[0].push(state.pick(&mut a, false).expect("owed").generation());
            seen[1].push(state.pick(&mut b, false).expect("owed").generation());
        }
        assert_eq!(seen[0], vec![0, 1, 0, 1]);
        assert_eq!(seen[1], vec![0, 1, 0, 1]);
    }

    #[test]
    fn the_trickle_is_the_plain_rotation_and_books_nothing() {
        let (mut state, encoder, mut rng) = filled_state(3, 4, 16, 0);
        raise_rank(&mut state, &encoder, &mut rng, 0, 2);
        raise_rank(&mut state, &encoder, &mut rng, 2, 1);
        let mut link = SendLedger::new(3);
        assert_eq!(drain_owed(&state, &mut link), vec![0, 2, 0]);
        for _ in 0..5 {
            // Not before the driver has idled; then one frame, from the
            // link's own cursor, skipping the rank-0 generation.
            assert_eq!(state.pick(&mut link, false), None);
            let expected = state.next_servable(link.cursor).expect("rank > 0");
            let booked = link.sent.clone();
            assert_eq!(state.pick(&mut link, true), Some(Pick::Trickle(expected)));
            assert_eq!(link.sent, booked, "a trickle frame is not booked");
        }
        // Trickled frames did not use up what the link is owed later.
        raise_rank(&mut state, &encoder, &mut rng, 1, 1);
        assert_eq!(state.pick(&mut link, true), Some(Pick::Owed(1)));
    }

    #[test]
    fn coding_stats_sum_over_generations() {
        let (mut state, encoder, mut rng) = filled_state(2, 2, 8, 0);
        for g in [0, 0, 0, 1] {
            state.push(encoder.packet_for(g, &mut rng));
        }
        let stats = state.coding_stats();
        assert_eq!((stats.innovative(), stats.redundant()), (3, 1));
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
