//! A deterministic discrete-event network simulator.
//!
//! The paper analyzes a hypothetical wide-area deployment of residential
//! end-hosts; this crate is the substitute substrate: a simulation precise
//! about exactly the properties the paper's model cares about —
//!
//! * **unit-bandwidth links**: each overlay thread carries a bounded number
//!   of packets per tick ([`LinkConfig::capacity_per_tick`]);
//! * **latency**: per-link fixed delivery delay;
//! * **ergodic failures**: iid packet loss ([`LinkConfig::loss`]) —
//!   "temporary, unannounced outage such as packet loss [or] network
//!   congestion" (§2);
//! * **determinism**: one seeded RNG drives everything; identical seeds
//!   produce identical runs, event ties broken by sequence number.
//!
//! The simulation core is a generic actor model: implement [`Actor`] for
//! your per-host state, add hosts and unidirectional [`Link`]s to a
//! [`World`], and call [`World::run_ticks`]. The broadcast layer
//! (`curtain-broadcast`) builds its peers on exactly this API.
//!
//! # Example
//!
//! ```
//! use curtain_simnet::{Actor, Context, HostId, LinkConfig, SimTime, World};
//!
//! // A relay that counts and forwards numbers downstream.
//! struct Relay {
//!     received: u64,
//!     out: Vec<curtain_simnet::LinkId>,
//! }
//!
//! impl Actor<u64> for Relay {
//!     fn on_message(&mut self, ctx: &mut Context<'_, u64>, _from: HostId, msg: u64) {
//!         self.received += 1;
//!         for &l in &self.out {
//!             ctx.send(l, msg + 1);
//!         }
//!     }
//!     fn on_tick(&mut self, _ctx: &mut Context<'_, u64>) {}
//! }
//!
//! let mut world: World<Relay, u64> = World::new(7);
//! let a = world.add_actor(Relay { received: 0, out: vec![] });
//! let b = world.add_actor(Relay { received: 0, out: vec![] });
//! let ab = world.add_link(a, b, LinkConfig::reliable(1));
//! world.actor_mut(a).out.push(ab);
//! world.inject(a, a, 0); // kick host a with a message from itself
//! world.run_ticks(5);
//! assert_eq!(world.actor(b).received, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod event;
mod link;
mod time;
mod world;

pub use event::EventQueue;
pub use link::{Link, LinkConfig, LinkId};
pub use time::SimTime;
pub use world::{Actor, Context, HostId, LinkStats, NetStats, World};
