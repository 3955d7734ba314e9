//! The layered simulation engine.
//!
//! [`CmpSimulator`](crate::CmpSimulator) is a thin composition of three
//! explicit layers, each independently testable:
//!
//! * [`TileCaches`] — the per-core private caches and the core→cache
//!   routing the hierarchy implies;
//! * a [`ShardedDirectory`](ccd_directory::ShardedDirectory) — one
//!   directory slice per tile behind the home-slice interleaving between
//!   global and slice-local lines ([`ccd_common::Interleave`]);
//! * `StatsPipeline` — the protocol-level counters, assembled on demand
//!   into a mergeable [`SimStats`] snapshot.
//!
//! On top of the layers, [`SimJob`] describes one complete simulation as a
//! pure value and [`ParallelRunner`] fans independent jobs (the cells of a
//! sweep) across `std::thread::scope` workers with deterministic,
//! order-independent result collection: outputs depend only on the job
//! list, never on worker scheduling.

pub mod runner;
pub mod stats;
pub mod tiles;

pub use runner::{ParallelRunner, SimJob};
pub use stats::SimStats;
pub(crate) use stats::StatsPipeline;
pub use tiles::TileCaches;
