//! The sans-io net plane: every protocol decision in `crates/net`,
//! expressed as pure state machines over bytes, instants, and explicit
//! RNGs.
//!
//! Nothing in this module tree may construct a socket, spawn a thread,
//! or sleep — CI greps `src/core/` for the socket and thread-spawn
//! constructors and fails on any hit. Drivers own
//! the I/O: the blocking TCP layer ([`crate::peer`],
//! [`crate::coordinator`], [`crate::source`], [`crate::standby`]) feeds
//! these cores from real sockets and real clocks, and the vnet scheduler
//! ([`crate::transport::vnet`]) feeds them from a virtual clock — which
//! is what lets one test drive a thousand real-protocol peers
//! deterministically in a single process.
//!
//! Layout:
//!
//! * [`wire`] — frame/handshake byte formats, pure codecs.
//! * [`ctrl`] — the control-plane request/response protocol, generic
//!   over the address type so cores never name `std::net`, and what a
//!   complaint's response means to a repair episode.
//! * [`backoff`] — the one exponential-backoff-with-jitter schedule.
//! * [`repair`] — repair policy, budget, and the episode state machine
//!   both drivers feed, on an explicit microsecond clock.
//! * [`peer`] — per-object decoding state, the per-link send ledger
//!   (what a child link is still owed), and upstream-thread liveness.
//! * [`source`] — emission scheduling (the same ledger at full rank, and
//!   windowed).
//! * [`record`] — the one record of a change to `M` and its JSON form:
//!   what the coordinator core emits, the WAL frames and replay folds.
//! * [`coordinator`] — the control-plane state machine (overlay
//!   bookkeeping, splice repair, and what each record does to `M`:
//!   emission as pure effects, checkpoint, replay).
//! * [`standby`] — the warm-standby follower's decision logic.

pub mod backoff;
pub mod coordinator;
pub mod ctrl;
pub mod peer;
pub mod record;
pub mod repair;
pub mod source;
pub mod standby;
pub mod wire;
