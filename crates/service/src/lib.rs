//! `ccd-service` — a concurrent, shard-per-worker directory service.
//!
//! The Cuckoo Directory paper argues its organization scales to many-core
//! systems because lookups and insertions stay cheap under heavy concurrent
//! reference streams.  The rest of this workspace exercises the directories
//! through offline, serial simulations; this crate puts them **online**: a
//! multi-threaded [`DirectoryService`] that
//!
//! * owns address-interleaved directory shards, each owned by exactly one
//!   worker thread — **no locks on the hot path**;
//! * ingests coherence requests through bounded lanes
//!   ([`ccd_common::channel`], the standard library's `sync_channel`) whose
//!   blocking send is the backpressure, so any generator becomes a closed
//!   loop;
//! * drains requests in batches, through the directory's batched fast path
//!   ([`Directory::apply_batch`]) where a worker owns one shard;
//! * exposes a snapshot-consistent, mergeable [`ServiceStats`] built from
//!   the same `Counter::merge` / `DirectoryStats::merge` machinery as the
//!   simulation engine;
//! * keeps a sequence-numbered [`OutcomeRecord`] log, so **any worker
//!   count over a fixed shard count is verifiably bit-identical** to the
//!   inline serial reference ([`DirectoryService::run_serial`]).
//!
//! Traffic comes from the [`LoadSpec`] frontend: any workload the
//! `ccd-workloads` catalog can name — paper profile, sharing-pattern
//! scenario, or recorded trace replay — deterministically becomes directory
//! traffic per `(workload, cores, seed)`.
//!
//! Workers run **supervised** ([`supervisor`]): a seeded [`FaultPlan`] can
//! deterministically crash, stall, or shed against the service, and the
//! supervisor recovers crashed workers by replaying the sequenced request
//! journal — the post-recovery report is still bit-identical to the
//! fault-free serial reference ([`ServiceReport::recovery_semantics`]).
//! Unrecoverable crashes surface as [`ServiceError::WorkerCrashed`] instead
//! of aborting the process.
//!
//! Shards can also **grow online**: an armed [`ResizePolicy`] checks each
//! shard's occupancy at shard-local epoch boundaries (every N requests the
//! shard applies) and live-resizes the shard's directory in place through
//! [`Directory::live_resize`](ccd_directory::Directory::live_resize).
//! Because the epochs are a pure function of each shard's request
//! subsequence, resizes fire at identical points at every worker count and
//! during journal replay — the full determinism contract holds with a
//! policy armed, and [`ServiceReport::resize_semantics`] additionally
//! relates a grown run to a statically provisioned one.
//!
//! ```
//! use ccd_service::{DirectoryService, LoadSpec, ServiceConfig};
//!
//! let load = LoadSpec::parse("migratory-zipf0.9", 8, 7, 20_000)?;
//! let config = ServiceConfig::new("cuckoo-4x512-c8", 4, 2);
//!
//! // Two workers, four shards...
//! let report = DirectoryService::build_standard(config.clone())?.run_load(&load)?;
//! // ...are bit-identical to inline serial application.
//! let serial = DirectoryService::build_standard(config)?.run_load_serial(&load)?;
//! assert_eq!(report.semantics(), serial.semantics());
//! assert_eq!(report.requests, 20_000);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! [`Directory::apply_batch`]: ccd_directory::Directory::apply_batch

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod config;
pub mod error;
pub mod fault;
pub mod load;
pub mod request;
pub mod resize;
pub mod service;
pub mod supervisor;

pub use ccd_obs::ObsConfig;
pub use config::{ServiceConfig, DEFAULT_BATCH, DEFAULT_QUEUE_DEPTH};
pub use error::ServiceError;
pub use fault::{CrashPoint, FaultPlan, StallPoint};
pub use load::{op_for, LoadSpec, OpStream};
pub use request::{digest_outcome_semantics, digest_outcomes, OutcomeRecord, Request};
pub use resize::{ResizeMode, ResizePolicy};
pub use service::{DirectoryService, ObsReport, ServiceReport, ServiceStats};
