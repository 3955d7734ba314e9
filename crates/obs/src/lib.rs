//! Deterministic observability for the `cuckoo-directory` workspace.
//!
//! This crate is the service stack's flight-data layer: it says *where
//! displacement work and tail latency go* without ever perturbing what the
//! system computes.  Three pieces compose (contract #11 in
//! ARCHITECTURE.md — observation does not perturb semantics):
//!
//! * [`ObsConfig`] — the `obs-ring4096-spans` spec grammar that arms the
//!   layer, in the workspace's `prefix-clause-clause…` spec style.  Only an
//!   API call arms it: `ServiceConfig::with_obs_spec` for a service,
//!   `Directory::arm_depth_metrics` for a bare directory.
//! * [`FlightRecorder`] / [`FlightRecording`] — a fixed-capacity,
//!   zero-alloc ring of compact binary events stamped with *virtual time*
//!   (request sequence numbers — never wall-clock), so recordings of deterministic runs are bit-reproducible.
//! * [`expo`] — the byte-deterministic JSON rendering of a
//!   [`MetricSnapshot`], the serialized form the service's merged-metrics
//!   determinism contract is asserted against.
//!
//! The histograms themselves ([`LogHistogram`]) live in
//! `ccd_common::stats` next to `Counter`/`Histogram`; this crate holds
//! everything that *consumes* them.
//!
//! [`MetricSnapshot`]: ccd_common::MetricSnapshot
//! [`LogHistogram`]: ccd_common::LogHistogram

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod config;
pub mod expo;
pub mod recorder;

pub use config::{ObsConfig, DEFAULT_SIG_BITS, MAX_RING};
pub use recorder::{EventKind, FlightRecorder, FlightRecording, RawEvent, VTIME_BITS};
