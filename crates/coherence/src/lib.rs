//! Trace-driven tiled-CMP coherence simulator.
//!
//! The paper evaluates directory organizations with FLEXUS full-system
//! simulation of a 16-core tiled CMP (Section 5).  This crate provides the
//! substrate that replaces it: a functional simulator that drives private
//! caches and address-interleaved directory slices with a memory-reference
//! trace and collects the directory statistics the figures report
//! (occupancy, insertion attempts, forced-invalidation rates, event mix).
//!
//! Two system configurations are modelled, matching Section 5:
//!
//! * **Shared-L2** — each core has split 64 KB 2-way I/D L1 caches; the
//!   directory tracks the L1s (32 caches for 16 cores).
//! * **Private-L2** — each core has a private 1 MB 16-way L2; the directory
//!   tracks the L2s (16 caches for 16 cores).  This also represents a
//!   3-level hierarchy with two private levels and a shared LLC.
//!
//! The directory is distributed into one slice per tile and interleaved by
//! address ([`ccd_common::Interleave`]): a block's home slice is selected by
//! the low-order block-number bits and tracks it under the *slice-local*
//! line.
//!
//! # Engine architecture
//!
//! The simulator is a thin composition of three explicit layers (the
//! [`engine`] module):
//!
//! * [`engine::TileCaches`] — the per-core private caches plus the
//!   core→cache routing of the hierarchy;
//! * a [`ccd_directory::ShardedDirectory`] — the directory slices behind
//!   the global↔slice-local line interleaving;
//! * `engine::StatsPipeline` — the protocol counters, rendered with the
//!   cache and directory counts as a [`SimReport`].
//!
//! Independent simulations — the cells of a sweep — are described as pure
//! [`engine::SimJob`] values and fanned across threads by
//! [`engine::ParallelRunner`], whose results are collected by input index,
//! so a parallel sweep is byte-identical to a serial one.
//!
//! # Example
//!
//! ```
//! use ccd_coherence::{CmpSimulator, DirectorySpec, SystemConfig};
//! use ccd_workloads::{TraceGenerator, WorkloadProfile};
//!
//! let system = SystemConfig::shared_l2(4);
//! let spec = DirectorySpec::cuckoo(4, 1.0);
//! let mut sim = CmpSimulator::new(system, &spec)?;
//! let mut trace = TraceGenerator::new(WorkloadProfile::apache(), 4, 1);
//! sim.run(&mut trace, 20_000); // warm up
//! sim.reset_stats();
//! sim.run(&mut trace, 20_000); // measure
//! let report = sim.report();
//! assert!(report.refs_processed == 20_000);
//! # Ok::<(), ccd_common::ConfigError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod config;
pub mod engine;
pub mod report;
pub mod simulator;
pub mod spec;

pub use config::{Hierarchy, SystemConfig};
pub use engine::{ParallelRunner, SimJob};
pub use report::SimReport;
pub use simulator::CmpSimulator;
pub use spec::DirectorySpec;
