//! The curtain protocol over real TCP sockets.
//!
//! Everything else in this workspace runs inside a deterministic simulator;
//! this crate is the deployable counterpart: a [`Coordinator`] (the paper's
//! server-side matrix `M` behind a JSON control port), a [`Source`] that
//! streams RLNC-coded packets, and [`Peer`]s that join, subscribe to their
//! `d` parents, recode, serve their own children, and — when a parent's
//! socket dies — execute the §3 repair protocol: *complain to the
//! coordinator, get redirected to the spliced-in parent, resubscribe*.
//!
//! Design notes:
//!
//! * **Control plane** — one JSON line per request and per response, over a
//!   TCP connection each calling thread keeps ([`proto::call`]). It fronts
//!   the same [`curtain_overlay::CurtainServer`] the simulations use.
//! * **Data plane** — length-prefixed [`curtain_rlnc::CodedPacket`] wire
//!   frames ([`framing`]). A subscriber opens a socket to its parent,
//!   writes one subscribe line, then reads frames forever. Every packet
//!   carries its coefficient vector, so reconnection needs no state
//!   recovery whatsoever — the property the paper builds on.
//! * **Failures** — crash = sockets drop. Children notice EOF (or a
//!   stalled-but-connected link), complain, and are redirected; the
//!   coordinator marks the node failed and splices it out (graceful leaves
//!   reuse the same path — the leaver just closes everything and says
//!   good-bye first).
//! * **Repair robustness** — complaints run under a [`RepairPolicy`]:
//!   jittered exponential backoff between attempts, retries until a
//!   per-episode deadline (a transient coordinator timeout is NOT fatal),
//!   and a sliding-window episode budget instead of a lifetime cap, so a
//!   long-lived peer repairs indefinitely unless it is genuinely
//!   thrashing. Give-ups are loud: a `RepairGaveUp` telemetry event and a
//!   `repair_gave_up` counter, never a silent thread death.
//! * **Fault injection** — [`FaultProxy`] is a TCP proxy for tests and
//!   soaks: it can refuse, blackhole, delay, truncate mid-frame, or hard-
//!   close connections on command (see `tests/churn_soak.rs` at the
//!   workspace root).
//! * **Observability** — with tracing on ([`PeerConfig::trace`],
//!   [`PendingSource::observed`]) every packet born at the source carries
//!   a 16-byte causal [`curtain_telemetry::TraceContext`] as an optional
//!   frame extension ([`framing::TRACE_FLAG`]); peers record
//!   `HopRecv`/`HopSend` events and forward child spans on recoded
//!   frames, and repair episodes emit complain → splice →
//!   repair-complete span trees that `curtain-telemetry`'s stitcher
//!   reassembles across process boundaries. Untraced senders emit frames
//!   byte-identical to the pre-tracing format. [`Coordinator::health_json`]
//!   and [`Peer::health_json`] feed the telemetry crate's `/health`
//!   endpoint.
//! * **Durability** — a coordinator started with [`WalOptions`] appends
//!   every matrix mutation to a checksummed write-ahead log ([`wal`]) and
//!   can be resurrected with [`Coordinator::recover`] after a crash.
//!   Mutations are *group-committed*: they park on a commit queue, the
//!   committer fsyncs one batch at a time, and responses are released
//!   only once their batch is durable. A WAL failure enters
//!   loud degraded mode (`CoordinatorDegraded`, `"durable": false` in
//!   `/health`); with [`WalOptions::with_strict`] the coordinator
//!   refuses further mutations instead of serving them from memory.
//!   When the log itself is lost, peers rebuild `M` through the resync
//!   protocol: an "unknown child" complaint answer makes the peer upload
//!   its thread→parent view and the coordinator re-inserts the row (see
//!   `tests/coordinator_crash_soak.rs` at the workspace root) — and a
//!   recovered or promoted coordinator additionally runs a *proactive
//!   resync sweep* ([`Coordinator::resync_sweep`]) instead of waiting
//!   for complaints.
//! * **High availability** — a [`Standby`] bootstraps from the primary
//!   over the control port (`SnapshotFetch`), tails streamed WAL
//!   records (`WalTail`), and promotes itself at the primary's address
//!   when it stops answering, with an epoch-fenced id allocator so
//!   stale grants can never collide (see `tests/failover_soak.rs`).
//!
//! # Example
//!
//! ```no_run
//! use curtain_net::{Coordinator, Peer, Source};
//! use curtain_overlay::OverlayConfig;
//! use std::time::Duration;
//!
//! # fn main() -> std::io::Result<()> {
//! let coordinator = Coordinator::start(OverlayConfig::new(8, 2))?;
//! let content = vec![7u8; 4096];
//! let _source = Source::start(coordinator.addr(), &content, 16, Duration::from_micros(200))?;
//! let peer = Peer::join(coordinator.addr())?;
//! assert!(peer.wait_complete(Duration::from_secs(10)));
//! assert_eq!(peer.decoded_content().unwrap(), content);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod coordinator;
pub mod core;
pub mod faults;
pub mod framing;
mod peer;
pub mod proto;
mod source;
pub mod standby;
pub mod transport;
pub mod wal;

pub use coordinator::{Coordinator, SweepReport};
pub use core::backoff::Backoff;
pub use faults::{Fault, FaultProxy};
pub use peer::{Peer, PeerConfig};
pub use core::repair::RepairPolicy;
pub use source::{PendingSource, Source};
pub use standby::{Standby, StandbyOptions};
pub use wal::{Wal, WalOptions, WalRecord, WalStore};

/// Locks `mutex`, recovering the guard if a holder panicked. This crate's
/// locks have never poisoned and must not start: one panicking connection
/// handler would turn every later control call, health probe and shutdown
/// into a panic. What they guard is a flag, a plain collection, or a
/// sans-io core that answers any request from whatever state it holds.
fn lock<T: ?Sized>(mutex: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}
