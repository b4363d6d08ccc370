//! # simcore — deterministic discrete-event simulation engine
//!
//! This crate is the substrate for the InfiniBand-WAN reproduction: a small,
//! deterministic discrete-event engine with virtual time in nanoseconds, an
//! actor model for network entities (HCAs, switches, WAN routers, protocol
//! endpoints), per-actor timers, and statistics helpers. Runs are serial by
//! default; topologies whose actor graph splits cleanly at high-latency
//! boundaries can execute partitioned across threads via [`domain`], one
//! conservative lookahead window at a time, with bit-identical results.
//!
//! Determinism is a hard requirement: two runs with the same configuration and
//! seed must produce bit-identical virtual-time results, so that experiment
//! tables in `EXPERIMENTS.md` are reproducible. The event queue breaks ties in
//! `(time, sequence-number)` order and all randomness flows from one seeded
//! generator owned by the engine.
//!
//! ```
//! use simcore::{Engine, Actor, Ctx, Time, Dur};
//! use std::any::Any;
//!
//! struct Ping { peer: Option<simcore::ActorId>, hops: u32 }
//!
//! impl Actor for Ping {
//!     fn on_message(&mut self, ctx: &mut Ctx<'_>, from: simcore::ActorId, _msg: Box<dyn Any>) {
//!         self.hops += 1;
//!         if self.hops < 3 {
//!             ctx.send(from, Box::new(()), Dur::from_us(5));
//!         }
//!     }
//! }
//!
//! let mut engine = Engine::new(42);
//! let a = engine.add_actor(Box::new(Ping { peer: None, hops: 0 }));
//! let b = engine.add_actor(Box::new(Ping { peer: None, hops: 0 }));
//! engine.schedule_message(Time::ZERO, a, b, Box::new(()));
//! let end = engine.run();
//! assert_eq!(end, Time::from_us(20));
//! ```

mod calqueue;
pub mod domain;
pub mod engine;
pub mod rate;
pub mod stats;
pub mod time;
pub mod trace;

pub use domain::{run_partitioned, DomainReport, DomainSpec};
pub use engine::{Actor, ActorId, Ctx, Engine, EngineCounters, Msg, TimerId};
pub use ibwire::Packet;
pub use rate::{Rate, SerialResource};
pub use stats::{Histogram, OnlineStats, Throughput, TimeSeries};
pub use time::{Dur, Time};
pub use trace::{Trace, TraceEvent, TraceRecord};
