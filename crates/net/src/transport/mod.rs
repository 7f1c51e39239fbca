//! Transport backends for the net plane.
//!
//! The sans-io cores under [`crate::core`] define *what* the protocol
//! does; the modules here define *where* the bytes go:
//!
//! * [`tcp`] — the blocking, thread-per-connection TCP driver. This is
//!   what the `curtain_peer`/`curtain_coordinator`/`curtain_source` bins
//!   and every socket soak run on.
//! * [`vnet`] — an in-process virtual network with a virtual clock,
//!   per-link latency/loss/cut shaping, and deterministic seeded
//!   scheduling. One OS process, thousands of real-protocol peers, the
//!   same state machines that run over real sockets — this is what the
//!   `e22` lab sweep drives. It is constructed in-process, never dialed.

pub mod tcp;
pub mod vnet;
