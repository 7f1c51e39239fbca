//! Static-topology broadcast sessions over the curtain overlay — the
//! *model* layer the strategy, attack, heterogeneity and streaming
//! experiments (e06_delay, e07, e11, e12, e16, e18, e19) run on.
//!
//! This crate wires the three lower layers together: a *snapshot* of an
//! overlay topology (`curtain-overlay`), the tick-stepped network
//! simulator (`curtain-simnet`), and the RLNC codec (`curtain-rlnc`) —
//! and adds the *baseline* distribution strategies the paper's
//! introduction compares against. Nothing here joins, leaves, fails or
//! repairs mid-run: a curtain that churns is the shipped protocol on
//! `curtain_net::transport::vnet`.
//!
//! | [`Strategy`] | Who codes? | Failure behaviour |
//! |--------------|-----------|-------------------|
//! | [`Strategy::Rlnc`] | every node recodes | rate = min-cut (network-coding theorem) |
//! | [`Strategy::SourceErasure`] | server only (Reed–Solomon across threads) | a dead column kills its share: no rerouting |
//! | [`Strategy::Routing`] | nobody (uncoded chunk gossip) | coupon-collector tail, duplicate deliveries |
//!
//! A [`Session`] takes a [`TopologySpec`] (snapshot of a
//! [`curtain_overlay::CurtainNetwork`] or of the §6 random-graph variant),
//! runs the chosen strategy for a bounded number of ticks, and reports
//! per-node completion times, progress, and traffic counters.
//!
//! The §5/§7 attack models (entropy destruction and jamming) are selected
//! per node via [`attacks::AttackMode`]; §5 heterogeneity (mixed node
//! degrees, priority-encoded layers) lives in [`heterogeneous`].
//!
//! Deadline streaming ([`StreamSession`]) has a pluggable data plane:
//! [`StreamConfig::with_codec`] swaps in any `curtain-codec` backend
//! ([`CodecKind::Rlnc`], [`CodecKind::Overlap`], [`CodecKind::Window`])
//! behind the same stream report.
//!
//! # Example
//!
//! ```
//! use curtain_broadcast::{Session, SessionConfig, Strategy, TopologySpec};
//! use curtain_overlay::{CurtainNetwork, OverlayConfig};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(3);
//! let mut net = CurtainNetwork::new(OverlayConfig::new(8, 2)).expect("valid config");
//! for _ in 0..20 {
//!     net.join(&mut rng);
//! }
//! let topo = TopologySpec::from_curtain(&net);
//! let cfg = SessionConfig::new(Strategy::Rlnc, 16, 64).with_max_ticks(2000);
//! let report = Session::run(&topo, &cfg, 7);
//! assert_eq!(report.completion_fraction(), 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attacks;
pub mod heterogeneous;
mod metrics;
mod peer;
mod session;
pub mod stream;
mod topology;

pub use curtain_codec::{BroadcastCodec, CodecConfig, CodecKind, CodecProgress};
pub use metrics::SessionReport;
pub use session::{Session, SessionConfig, Strategy};
pub use stream::{StreamConfig, StreamReport, StreamSession, ViewerReport};
pub use topology::{Endpoint, OverlayEdge, TopologySpec};
