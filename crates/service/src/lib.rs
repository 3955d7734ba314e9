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
//! * exposes a snapshot-consistent [`ServiceStats`]: request counts plus
//!   the shards' directory statistics, merged in global shard order;
//! * keeps a sequence-numbered [`OutcomeLog`] — one [`OutcomeRecord`] a
//!   request, stored in 2 bytes when quiet and 3 with one invalidation of a
//!   cache below 256 — so
//!   **any worker count over a fixed shard count is verifiably
//!   bit-identical** to the inline serial reference
//!   ([`DirectoryService::run_serial`]).
//!
//! Traffic comes from the [`LoadSpec`] frontend: any workload the
//! `ccd-workloads` catalog can name — paper profile, sharing-pattern
//! scenario, or recorded trace replay — deterministically becomes directory
//! traffic per `(workload, cores, seed)`.
//!
//! Workers run **supervised** ([`supervisor`]): a worker panic — an op
//! naming a cache past the directory's count trips one at the op entry —
//! surfaces as [`ServiceError::WorkerCrashed`] while the other workers
//! drain, instead of hanging the run or aborting the process.
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
pub mod load;
mod obs;
pub mod request;
pub mod service;
pub mod supervisor;

pub use config::{ServiceConfig, DEFAULT_BATCH, DEFAULT_QUEUE_DEPTH};
pub use error::ServiceError;
pub use load::LoadSpec;
pub use load::OpStream;
pub use obs::EventKind;
pub use obs::FlightRecording;
pub use obs::ObsConfig;
pub use obs::RawEvent;
pub use request::{digest_outcomes, OutcomeLog, OutcomeRecord, Request};
pub use service::ObsReport;
pub use service::ServiceStats;
pub use service::{DirectoryService, ServiceReport};
