//! Synthetic workload (trace) generators.
//!
//! The paper evaluates the directory organizations with full-system traces
//! of commercial and scientific applications (Table 2): TPC-C on DB2 and
//! Oracle, three TPC-H queries, SPECweb99 on Apache and Zeus, and the em3d
//! and ocean scientific kernels.  Those binaries, datasets and the
//! Simics/FLEXUS infrastructure are not available here, so this crate
//! provides *synthetic stand-ins*: memory-reference generators whose
//! directory-visible behaviour is calibrated to each workload's published
//! characteristics — the relative sizes of the shared-instruction,
//! shared-data and per-core private footprints, the read/write mix and the
//! access locality.  Those are exactly the properties that determine
//! directory occupancy (Figure 8), insertion pressure (Figures 9–11) and
//! forced-invalidation behaviour (Figure 12); see ARCHITECTURE.md for the
//! substitution rationale.
//!
//! Beyond the paper's suite, the crate is a *library of scenarios*: named,
//! parameterized sharing-pattern families (read-mostly, producer–consumer,
//! migratory, false sharing, streaming scans) selectable from compact spec
//! strings, plus a binary trace format so any synthetic run can be recorded
//! once and replayed bit-identically.
//!
//! # Structure
//!
//! * [`WorkloadProfile`] — the per-workload parameters plus presets for all
//!   nine paper workloads,
//! * [`TraceGenerator`] — an infinite iterator of [`MemRef`]s implementing
//!   the two-region (shared/private) access model,
//! * [`derive_seed`] — the `(base, index)` seed split that gives parallel
//!   sweeps independent per-cell streams,
//! * [`scenario`] — the five classic sharing-pattern families
//!   ([`ScenarioFamily`]) and [`ScenarioSpec`] spec-string parsing,
//! * [`WorkloadSpec`] — one runtime-selectable handle over *any* workload:
//!   paper profile, scenario, or recorded trace, streamed inline or
//!   [`AHEAD_BATCH`] references ahead on a helper thread,
//! * [`trace_io`] — the compact `CCDT` record/replay format
//!   ([`TraceWriter`] / [`TraceReader`]),
//! * `zipf::ZipfSampler` — the locality model,
//! * [`random_stream::RandomKeyStream`] — unique uniformly random keys for
//!   the pure cuckoo-hash characterization of Figure 7.
//!
//! # Example
//!
//! ```
//! use ccd_workloads::{TraceGenerator, WorkloadProfile};
//!
//! let profile = WorkloadProfile::oracle();
//! let mut generator = TraceGenerator::new(profile, 16, 42);
//! let refs: Vec<_> = generator.by_ref().take(1000).collect();
//! assert_eq!(refs.len(), 1000);
//! assert!(refs.iter().any(|r| r.kind.is_write()));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![warn(clippy::unwrap_used, clippy::expect_used)]

mod ahead;
pub mod generator;
pub mod profiles;
pub mod random_stream;
#[cfg(test)]
mod reference;
pub mod scenario;
pub mod spec;
pub mod trace_io;
pub mod zipf;

pub use ahead::AHEAD_BATCH;
pub use generator::{derive_seed, TraceGenerator};
pub use profiles::WorkloadCategory;
pub use profiles::WorkloadProfile;
pub use random_stream::RandomKeyStream;
pub use scenario::ScenarioFamily;
pub use scenario::ScenarioParams;
pub use scenario::{ScenarioSpec, TraceStream};
pub use spec::WorkloadSpec;
pub use trace_io::{record_trace, TraceReader, TraceWriter};
pub(crate) use zipf::ZipfSampler;

pub use ccd_common::MemRef;
