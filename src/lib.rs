//! # cuckoo-directory
//!
//! A from-scratch Rust reproduction of *Cuckoo Directory: A Scalable
//! Directory for Many-Core Systems* (Ferdman, Lotfi-Kamran, Balet, Falsafi —
//! HPCA 2011): the Cuckoo coherence directory itself, every baseline
//! directory organization it is evaluated against, the cache/coherence
//! simulation substrate that drives them, synthetic stand-ins for the
//! paper's commercial and scientific workloads, and the analytical
//! energy/area model behind the paper's scaling projections.
//!
//! This crate is a facade: it re-exports the workspace crates under short
//! module names and provides a [`prelude`] with the types most programs
//! need.  Each subsystem lives in its own crate and can be used
//! independently:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`common`] | `ccd-common` | addresses, identifiers, RNG, statistics |
//! | [`hash`] | `ccd-hash` | skewing and strong index hash families |
//! | [`sharers`] | `ccd-sharers` | full, coarse, hierarchical, limited-pointer sharer sets |
//! | [`directory`] | `ccd-directory` | the op/outcome `Directory` protocol, the baselines, the builder registry, sharded composition |
//! | [`cuckoo`] | `ccd-cuckoo` | the d-ary Cuckoo table and the Cuckoo directory (the paper's contribution) |
//! | [`cache`] | `ccd-cache` | set-associative private-cache models |
//! | [`coherence`] | `ccd-coherence` | the trace-driven tiled-CMP simulator |
//! | [`workloads`] | `ccd-workloads` | workload profiles, sharing-pattern scenario families, trace record/replay |
//! | [`service`] | `ccd-service` | the concurrent shard-per-worker directory service and its load-generator frontend |
//! | [`energy`] | `ccd-energy` | the analytical energy/area scaling model |
//!
//! # The directory protocol
//!
//! Every directory organization — Cuckoo and the five baselines — speaks
//! one explicit operation/outcome protocol: a
//! [`DirectoryOp`](directory::DirectoryOp) is dispatched through
//! [`Directory::apply`](directory::Directory::apply) into a caller-owned,
//! reusable [`Outcome`](directory::Outcome) buffer, so the steady-state hot
//! path (lookup hits, sharer updates on existing entries) performs **zero
//! heap allocations**.  Organizations are built at runtime from spec
//! strings like `"cuckoo-4x512-skew"` or `"sharded8:sparse-8x256"` through
//! [`standard_registry`](cuckoo::standard_registry):
//!
//! ```
//! use cuckoo_directory::directory::{DirectoryOp, Outcome};
//! use cuckoo_directory::prelude::*;
//!
//! let registry = cuckoo_directory::cuckoo::standard_registry();
//! let mut dir = registry.build_str("cuckoo-4x512-skew")?;
//!
//! let mut out = Outcome::new();
//! let line = LineAddr::from_block_number(0xabc);
//! dir.apply(DirectoryOp::AddSharer { line, cache: CacheId::new(3) }, &mut out);
//! assert!(out.allocated_new_entry());
//! dir.apply(DirectoryOp::Probe { line }, &mut out);
//! assert_eq!(out.sharers(), &[CacheId::new(3)]);
//! # Ok::<(), ccd_common::ConfigError>(())
//! ```
//!
//! # Quick start (simulator)
//!
//! ```
//! use cuckoo_directory::prelude::*;
//!
//! // Build the paper's 16-core Shared-L2 system with a 1x-provisioned
//! // 4-way Cuckoo directory and run a short OLTP-like trace through it.
//! let system = SystemConfig::table1(Hierarchy::SharedL2);
//! let spec = DirectorySpec::cuckoo(4, 1.0);
//! let mut trace = TraceGenerator::new(WorkloadProfile::db2(), system.num_cores, 42);
//! let report = CmpSimulator::run_workload(system, &spec, &mut trace, 50_000, 50_000)?;
//!
//! // The Cuckoo directory absorbs the working set without forced
//! // invalidations.
//! assert!(report.forced_invalidation_rate() < 0.01);
//!
//! // The same simulator is fully string-configurable:
//! let spec: DirectorySpec = "sharded4:cuckoo-4x512-skew".parse()?;
//! assert_eq!(spec.label(), "sharded4:cuckoo-4x512-skew");
//! # Ok::<(), ccd_common::ConfigError>(())
//! ```
//!
//! See the `examples/` directory for larger, runnable scenarios and the
//! `ccd-bench` crate for the binaries that regenerate every table and figure
//! of the paper's evaluation.

#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub use ccd_cache as cache;
pub use ccd_coherence as coherence;
pub use ccd_common as common;
pub use ccd_cuckoo as cuckoo;
pub use ccd_directory as directory;
pub use ccd_energy as energy;
pub use ccd_hash as hash;
pub use ccd_service as service;
pub use ccd_sharers as sharers;
pub use ccd_workloads as workloads;

/// The types most users of the library need, re-exported flat.
///
/// `DirectorySpec` here is the simulator-level spec of `ccd-coherence`
/// (provisioning factors and paper labels); the string-level geometry spec
/// lives at [`directory::DirectorySpec`] and backs
/// [`DirectorySpec::Custom`](ccd_coherence::DirectorySpec::Custom).
pub mod prelude {
    pub use ccd_cache::{Cache, CacheConfig};
    pub use ccd_coherence::{
        CmpSimulator, DirectorySpec, Hierarchy, ParallelRunner, SimJob, SimReport, SimStats,
        SystemConfig,
    };
    pub use ccd_common::{Address, BlockGeometry, CacheId, CoreId, LineAddr, MemRef};
    pub use ccd_cuckoo::{standard_registry, CuckooConfig, CuckooDirectory, CuckooTable};
    pub use ccd_directory::{
        BuilderRegistry, Directory, DirectoryOp, DirectoryStats, Outcome, ShardedDirectory,
        SlotDirectory,
    };
    pub use ccd_energy::{DirOrg, EnergyModel};
    pub use ccd_hash::{HashFamily, HashKind, IndexHashFamily};
    pub use ccd_service::{DirectoryService, LoadSpec, ServiceConfig, ServiceReport};
    pub use ccd_sharers::{CoarseVector, FullBitVector, SharerFormat, SharerSet};
    pub use ccd_workloads::{
        ScenarioSpec, TraceGenerator, TraceReader, TraceWriter, WorkloadProfile, WorkloadSpec,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn prelude_exposes_a_working_stack() {
        let config = CuckooConfig::new(4, 64, 8);
        let dir = CuckooDirectory::<FullBitVector>::new(config).expect("valid config");
        assert_eq!(dir.capacity(), 256);
        let model = EnergyModel::shared_l2();
        let point = model.evaluate(&DirOrg::cuckoo_coarse_shared(), 16);
        assert!(point.area_relative > 0.0);
    }

    #[test]
    fn prelude_exposes_the_op_outcome_protocol() {
        let mut dir = standard_registry()
            .build_str("sparse-4x64-c8")
            .expect("spec");
        let mut out = Outcome::new();
        let line = LineAddr::from_block_number(9);
        dir.apply(
            DirectoryOp::AddSharer {
                line,
                cache: CacheId::new(2),
            },
            &mut out,
        );
        assert!(out.allocated_new_entry());
        assert!(dir.may_hold(line, CacheId::new(2)));
    }
}
