//! The concurrent shard-per-worker directory service.
//!
//! # Topology
//!
//! ```text
//!             ┌────────────── DirectoryService::run ──────────────┐
//!             │                                                   │
//! ops ──► router (caller thread)                                  │
//!             │  seq-stamp, route by ccd_common::Interleave,      │
//!             │  batch per owning worker                          │
//!             ├─── bounded channel ──► worker 0 ── shards 0,W,2W… │
//!             ├─── bounded channel ──► worker 1 ── shards 1,W+1,… │
//!             └─── bounded channel ──► worker W-1 ─ shards …      │
//! ```
//!
//! Every shard is owned by exactly one worker, so the hot path takes no
//! lock: a worker's only synchronization is the bounded ingestion channel
//! it drains batches from (and the allocation-recycling return channel it
//! offers drained batch buffers back on).  A worker that owns a single shard
//! applies each batch through the directory's own batched fast path,
//! [`Directory::apply_batch`]; one that owns several applies request by
//! request, each on its own shard.
//!
//! # Determinism contract
//!
//! The shard count fixes the service's *semantics*; the worker count is
//! *pure parallelism*:
//!
//! 1. the router stamps requests with their global sequence number and
//!    routes in input order,
//! 2. each worker's channel is FIFO, so each shard observes exactly the
//!    per-address (in fact per-shard) subsequence of the input stream, in
//!    input order, regardless of how many workers exist,
//! 3. statistics merge in global shard order, and the per-worker outcome
//!    logs — each ascending in sequence number, order-checked record by
//!    record as it grows — are reassembled into one by moving a lone log or
//!    k-way merging several, the merge checking each record it emits the
//!    same way; the digest is hashed from the one log's bytes.
//!
//! Consequently, for a fixed shard count, **every worker count produces
//! bit-identical outcome logs, statistics and shard contents** — equal to
//! [`DirectoryService::run_serial`], the inline reference that applies the
//! same per-shard streams on the calling thread with no channels at all.
//! `crates/service/tests/contracts.rs` enforces this across scenario
//! families, trace replays, random specs and (workers × shards) grids.
//!
//! Workers run supervised (see [`crate::supervisor`]): a worker panic
//! surfaces as [`crate::ServiceError::WorkerCrashed`] while the other
//! workers drain, instead of hanging the run or aborting the process.

use crate::config::ServiceConfig;
use crate::error::ServiceError;
use crate::load::{LoadSpec, OpStream};
use crate::obs::{EventKind, FlightRecorder, FlightRecording, ObsConfig};
use crate::request::{reassemble, OutcomeLog, Request, WorkerLog};
use crate::supervisor;
use ccd_common::stats::{Counter, MetricSnapshot};
use ccd_common::{ConfigError, Interleave};
use ccd_directory::{DepthMetrics, Directory, DirectoryOp, DirectorySpec, DirectoryStats, Outcome};
use std::fmt;

/// Snapshot-consistent service statistics, built from the same mergeable
/// machinery the simulation engine uses ([`Counter::merge`],
/// [`DirectoryStats::merge`]).
///
/// A snapshot is taken after the ingestion stream is fully drained and all
/// workers have quiesced, so it is consistent by construction: every
/// counter reflects exactly the same prefix of the request stream (all of
/// it).  Every field is an integer count, so the merge is order-free and
/// the snapshot is equal across worker counts.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Requests applied (equals the requests ingested once drained).
    pub requests: Counter,
    /// Semantic invalidation targets across all requests.
    pub invalidations: Counter,
    /// Cached-block invalidations forced by directory-capacity conflicts.
    pub forced_invalidations: Counter,
    /// Directory statistics merged across all shards, in shard order.
    pub directory: DirectoryStats,
}

impl ServiceStats {
    /// An empty snapshot.
    #[must_use]
    pub fn new() -> Self {
        ServiceStats::default()
    }

    /// Merges another snapshot into this one, in any order.
    pub fn merge(&mut self, other: &ServiceStats) {
        self.requests.merge(&other.requests);
        self.invalidations.merge(&other.invalidations);
        self.forced_invalidations.merge(&other.forced_invalidations);
        self.directory.merge(&other.directory);
    }
}

/// What the observability layer recorded over one run: the merged metric
/// snapshot plus the flight recordings, assembled by the same `finish`
/// path that builds the rest of the report.
///
/// The **metric snapshot is worker-count invariant**: counters come from
/// the merged [`ServiceStats`] (the scheduling-dependent batch count is
/// deliberately excluded) and the depth distributions merge in global shard
/// order, so a serial run and any worker count report equal snapshots.
/// The **flight recordings are not**: they narrate how work was scheduled
/// (per-worker batch spans, router events), which legitimately depends on
/// the worker count.  For a fixed topology a recording is equal from run
/// to run: its events carry request sequence numbers, not the threads'
/// interleaving.
///
/// The whole struct is excluded from [`ServiceReport::semantics`]:
/// observation output is not semantics (contract #11).
#[derive(Clone, Debug, PartialEq)]
pub struct ObsReport {
    /// The canonical label of the armed [`ObsConfig`].
    pub label: String,
    /// The merged, worker-count-invariant metric snapshot.
    pub metrics: MetricSnapshot,
    /// The router-side flight recording (`None` for serial runs or a
    /// ring-less config).
    pub router: Option<FlightRecording>,
    /// Per-worker flight recordings, in worker-index order (empty for a
    /// ring-less config).
    pub workers: Vec<FlightRecording>,
}

/// The result of running a service to completion over one request stream.
#[derive(Clone, Debug, PartialEq)]
pub struct ServiceReport {
    /// Label of the shard organization, e.g. `service8x[Cuckoo 1x (4-way)]`.
    /// Deliberately independent of the worker count.
    pub organization: String,
    /// Number of address-interleaved shards.
    pub shards: usize,
    /// Worker threads used (`1` for [`DirectoryService::run_serial`]).
    pub workers: usize,
    /// Requests applied.
    pub requests: u64,
    /// Ingestion batches drained.  A scheduling detail, not semantics: the
    /// batch count depends on how requests split across workers, so it is
    /// excluded from [`ServiceReport::semantics`].
    pub batches: u64,
    /// Directory entries resident across all shards after the drain.
    pub entries: usize,
    /// The merged statistics snapshot.
    pub stats: ServiceStats,
    /// The sequence-ordered outcome log, one [`crate::OutcomeRecord`] a
    /// request in the compact stored layout, decoded when iterated (empty
    /// when [`ServiceConfig::record_outcomes`] is off).
    pub outcomes: OutcomeLog,
    /// [`crate::digest_outcomes`] of the outcome log, hashed from the
    /// bytes the workers stored, each chunk as it filled (`0` when
    /// [`ServiceConfig::record_outcomes`] is off).
    pub outcome_digest: u64,
    /// What the observability layer recorded, when one was armed.
    /// Excluded from [`ServiceReport::semantics`] — its explicit field list
    /// is what enforces contract #11 at the report level.
    pub obs: Option<ObsReport>,
}

impl ServiceReport {
    /// The worker-count-independent part of the report — everything the
    /// determinism contract says must be bit-identical for a fixed shard
    /// count.  Two reports with equal `semantics()` applied the same
    /// per-shard streams to the same effect.
    #[must_use]
    pub fn semantics(&self) -> (&str, usize, u64, usize, &ServiceStats, &OutcomeLog, u64) {
        (
            &self.organization,
            self.shards,
            self.requests,
            self.entries,
            &self.stats,
            &self.outcomes,
            self.outcome_digest,
        )
    }
}

/// A built directory service: `shards` independent directory slices plus
/// the topology that will drive them.  Consume it with
/// [`DirectoryService::run`] (concurrent) or
/// [`DirectoryService::run_serial`] (the inline reference).
pub struct DirectoryService {
    pub(crate) config: ServiceConfig,
    pub(crate) slices: Vec<Box<dyn Directory>>,
    /// Which shard owns a line, and the shard-local line it tracks it under.
    pub(crate) interleave: Interleave,
    pub(crate) organization: String,
}

impl fmt::Debug for DirectoryService {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DirectoryService")
            .field("organization", &self.organization)
            .field("shards", &self.config.shards)
            .field("workers", &self.config.workers)
            .finish_non_exhaustive()
    }
}

impl DirectoryService {
    /// Builds the service's shards from `config` through the standard
    /// six-organization registry (`ccd_cuckoo::standard_registry`).
    ///
    /// The spec's set count is divided across the shards, so the total
    /// capacity is the same for every shard count (exactly like the
    /// `shardedN:` spec prefix).
    ///
    /// # Errors
    ///
    /// See [`ServiceConfig::validate`], [`Interleave::new`] (the shard count
    /// is a power of two) and [`ccd_directory::BuilderRegistry::build`].
    pub fn build_standard(config: ServiceConfig) -> Result<Self, ConfigError> {
        let spec = config.validate()?;
        let interleave = Interleave::new(config.shards)?;
        let slice_spec = DirectorySpec {
            sets: spec.sets / config.shards,
            ..spec
        };
        let registry = ccd_cuckoo::standard_registry();
        let mut slices = (0..config.shards)
            .map(|_| registry.build(&slice_spec))
            .collect::<Result<Vec<_>, _>>()?;
        // Armed depth distributions are observational only: nothing
        // result-bearing changes (contract #11).
        if config.obs.is_some() {
            for slice in &mut slices {
                slice.arm_depth_metrics();
            }
        }
        let organization = format!("service{}x[{}]", config.shards, slices[0].organization());
        Ok(DirectoryService {
            config,
            slices,
            interleave,
            organization,
        })
    }

    /// The service's organization label (independent of the worker count).
    #[must_use]
    pub fn organization(&self) -> &str {
        &self.organization
    }

    /// Number of tracked caches per shard.
    #[must_use]
    pub fn num_caches(&self) -> usize {
        self.slices[0].num_caches()
    }

    /// Total entry capacity across all shards.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.slices.iter().map(|s| s.capacity()).sum()
    }

    /// The ops of `load`, once its cores map onto tracked caches.
    ///
    /// # Errors
    ///
    /// [`ConfigError::Inconsistent`] on a core/cache mismatch, or the
    /// load's own validation error ([`LoadSpec::ops`]).
    fn load_ops(&self, load: &LoadSpec) -> Result<OpStream, ConfigError> {
        if load.cores > self.num_caches() {
            return Err(ConfigError::Inconsistent {
                what: "load generates references for more cores than the \
                       directory spec tracks caches (add a `-cN` modifier)",
            });
        }
        load.ops()
    }

    /// Streams `load` through the concurrent service.
    ///
    /// # Errors
    ///
    /// [`ConfigError::Inconsistent`] when the load has more cores than the
    /// directory tracks caches, the load's own validation error
    /// ([`LoadSpec::ops`]), or see [`DirectoryService::run`].
    pub fn run_load(self, load: &LoadSpec) -> Result<ServiceReport, ServiceError> {
        let ops = self.load_ops(load)?;
        self.run(ops)
    }

    /// Streams `load` through the inline serial reference.
    ///
    /// # Errors
    ///
    /// As [`DirectoryService::run_load`], less the workers' failures.
    pub fn run_load_serial(self, load: &LoadSpec) -> Result<ServiceReport, ServiceError> {
        let ops = self.load_ops(load)?;
        Ok(self.run_serial(ops))
    }

    /// Runs the service over `ops`: spawns one supervised worker thread per
    /// configured worker, ingests the stream in batches with backpressure
    /// from the calling thread, drains everything, joins the workers and
    /// assembles the snapshot.  See the module docs for the determinism
    /// contract and [`crate::supervisor`] for the failure
    /// handling.
    ///
    /// # Errors
    ///
    /// [`ServiceError::WorkerCrashed`] when a worker panics — for one, at
    /// the op-entry assert of an op naming a cache past the directory's
    /// count.
    pub fn run(
        self,
        ops: impl Iterator<Item = DirectoryOp>,
    ) -> Result<ServiceReport, ServiceError> {
        supervisor::run_concurrent(self, ops)
    }

    /// The serial reference: applies the same per-shard streams inline on
    /// the calling thread — no workers, no channels, no batching.  Any
    /// concurrent run over the same shard count must match this
    /// bit-identically (see [`ServiceReport::semantics`]).
    #[must_use]
    pub fn run_serial(mut self, ops: impl Iterator<Item = DirectoryOp>) -> ServiceReport {
        let shards = self.config.shards;
        let record = self.config.record_outcomes;
        let obs = self.config.obs.clone();
        let mut output = WorkerOutput::new(0, std::mem::take(&mut self.slices));
        output.arm_obs(obs.as_ref());
        let mut out = Outcome::new();
        let mut requests = 0;
        for op in ops {
            let (shard, local) = self.interleave.home_of(op.line());
            output.slices[shard].apply(op.with_line(local), &mut out);
            absorb_into(
                &mut output.outcomes,
                &mut output.invalidations,
                &mut output.forced_invalidations,
                requests,
                shard as u32,
                &out,
                record,
            );
            requests += 1;
        }
        // One "worker" owning every shard in global order.
        finish(
            self.organization,
            shards,
            1,
            requests,
            vec![output],
            record,
            obs.as_ref(),
            None,
        )
    }
}

/// What one worker hands back when its queue closes.
pub(crate) struct WorkerOutput {
    /// The worker's index (`global shard = index + local · workers`).
    pub(crate) index: usize,
    /// The owned slices, in local order.
    pub(crate) slices: Vec<Box<dyn Directory>>,
    pub(crate) outcomes: WorkerLog,
    pub(crate) batches: u64,
    pub(crate) invalidations: u64,
    pub(crate) forced_invalidations: u64,
    /// The worker's flight recorder, when an observability config with a
    /// ring is armed.  `None` costs one branch per record site.
    pub(crate) recorder: Option<FlightRecorder>,
}

impl WorkerOutput {
    pub(crate) fn new(index: usize, slices: Vec<Box<dyn Directory>>) -> Self {
        WorkerOutput {
            index,
            slices,
            outcomes: WorkerLog::new(index),
            batches: 0,
            invalidations: 0,
            forced_invalidations: 0,
            recorder: None,
        }
    }

    /// Arms the worker's flight recorder from the effective observability
    /// config (a ring-less config keeps the recorder off).
    pub(crate) fn arm_obs(&mut self, obs: Option<&ObsConfig>) {
        self.recorder = obs.and_then(ObsConfig::recorder);
    }

    /// Opens the batch-application span (no-op unless spans are armed).
    /// Virtual time is the batch's first request sequence number.
    pub(crate) fn batch_span_begin(&mut self, requests: &[Request]) {
        if let (Some(recorder), Some(first)) = (self.recorder.as_mut(), requests.first()) {
            recorder.span_begin(self.index as u16, first.seq, requests.len() as u64);
        }
    }

    /// Records the applied batch and closes its span.  Virtual times are
    /// the batch's first and last request sequence numbers.
    pub(crate) fn batch_applied(&mut self, requests: &[Request]) {
        let Some(recorder) = self.recorder.as_mut() else {
            return;
        };
        let (Some(first), Some(last)) = (requests.first(), requests.last()) else {
            return;
        };
        let lane = self.index as u16;
        recorder.record(
            EventKind::BatchApplied,
            lane,
            first.seq,
            requests.len() as u64,
        );
        recorder.span_end(lane, last.seq, requests.len() as u64);
    }
}

/// The outcome-accounting kernel shared by both worker paths and the
/// serial reference (free function so closures can borrow the output
/// fields disjointly from the slices).
pub(crate) fn absorb_into(
    outcomes: &mut WorkerLog,
    invalidations: &mut u64,
    forced_invalidations: &mut u64,
    seq: u64,
    global_shard: u32,
    out: &Outcome,
    record: bool,
) {
    *invalidations += out.invalidate().len() as u64;
    *forced_invalidations += out.forced_invalidation_count() as u64;
    if record {
        outcomes.push(seq, global_shard, out);
    }
}

/// Reassembles worker outputs into the final report: shards back into
/// global order, per-shard statistics merged in that (fixed) order, and the
/// outcome logs reassembled by [`reassemble`] — a lone log, checked and
/// hashed as it grew, is moved; several are k-way merged by sequence number
/// in a pass that checks the order, and the merged log is hashed.
/// `requests` is what the router (or the serial loop) fed in, and the
/// router's flight recording is `None` for serial runs.
///
/// # Panics
///
/// When the worker logs are not strictly ascending and disjoint in `seq`,
/// naming the worker: the service broke its own routing contract, and a
/// report built from such logs would be wrong silently.
#[expect(
    clippy::too_many_arguments,
    reason = "the report's parts, each from a different stage of the run"
)]
pub(crate) fn finish(
    organization: String,
    shards: usize,
    workers: usize,
    requests: u64,
    mut outputs: Vec<WorkerOutput>,
    record: bool,
    obs: Option<&ObsConfig>,
    router: Option<FlightRecording>,
) -> ServiceReport {
    outputs.sort_by_key(|output| output.index);
    debug_assert!(outputs
        .iter()
        .enumerate()
        .all(|(index, output)| output.index == index));

    let mut stats = ServiceStats::new();
    let mut batches = 0u64;
    for output in &outputs {
        batches += output.batches;
        stats.invalidations.add(output.invalidations);
        stats.forced_invalidations.add(output.forced_invalidations);
    }
    stats.requests.add(requests);
    // Per-shard statistics merge in global shard order.  The
    // worker that owns global shard `g` is `g mod workers`; its local index
    // for that shard is `g div workers` (serial runs are one worker owning
    // every shard in global order).
    let stride = outputs.len();
    let mut entries = 0usize;
    for shard in 0..shards {
        let slice = &outputs[shard % stride].slices[shard / stride];
        entries += slice.len();
        stats.directory.merge(&slice.stats());
    }
    // The observability report rides the same reassembly.  Counters come
    // from the merged stats (the scheduling-dependent batch count
    // deliberately excluded) and the depth distributions merge
    // in global shard order, so the snapshot is worker-count invariant;
    // its order is fixed here and nowhere else.
    let obs = obs.map(|cfg| {
        let mut metrics = MetricSnapshot::default();
        for (name, value) in [
            ("requests", requests),
            ("invalidations", stats.invalidations.get()),
            ("forced_invalidations", stats.forced_invalidations.get()),
            ("entries", entries as u64),
        ] {
            metrics.push_counter(name, value);
        }
        let mut depth = DepthMetrics::new();
        for shard in 0..shards {
            if let Some(recorded) = outputs[shard % stride].slices[shard / stride].depth_metrics() {
                depth.merge(recorded);
            }
        }
        depth.register_into(&mut metrics);
        ObsReport {
            label: cfg.label().to_string(),
            metrics,
            router,
            workers: outputs
                .iter()
                .filter_map(|output| output.recorder.as_ref().map(FlightRecorder::finish))
                .collect(),
        }
    });
    let logs = outputs.into_iter().map(|output| output.outcomes).collect();
    #[expect(
        clippy::expect_used,
        reason = "reassemble checks strict seq order; a violation means the router delivered one request to two workers or a worker reordered its FIFO queue, and a report built from such logs would be silently wrong (documented under # Panics)"
    )]
    let (outcomes, digest) = reassemble(logs)
        .expect("each worker logs its own requests, in the order its FIFO queue delivered them");
    let outcome_digest = if record { digest } else { 0 };

    ServiceReport {
        organization,
        shards,
        workers,
        requests,
        batches,
        entries,
        stats,
        outcomes,
        outcome_digest,
        obs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccd_common::{CacheId, LineAddr};

    fn ops(n: u64) -> Vec<DirectoryOp> {
        // A deterministic little op mix touching a handful of lines from a
        // handful of caches, including removals.
        (0..n)
            .map(|i| {
                let line = LineAddr::from_block_number(i * 7 % 64);
                let cache = CacheId::new((i % 8) as u32);
                match i % 5 {
                    0 | 1 => DirectoryOp::AddSharer { line, cache },
                    2 => DirectoryOp::SetExclusive { line, cache },
                    3 => DirectoryOp::RemoveSharer { line, cache },
                    _ => DirectoryOp::Probe { line },
                }
            })
            .collect()
    }

    fn build(shards: usize, workers: usize) -> DirectoryService {
        DirectoryService::build_standard(ServiceConfig {
            batch: 16,
            ..ServiceConfig::new("sparse-4x64-c8", shards, workers)
        })
        .unwrap()
    }

    #[test]
    fn build_reports_geometry_and_labels() {
        let service = build(4, 2);
        assert_eq!(service.capacity(), 4 * 64);
        assert_eq!(service.num_caches(), 8);
        assert!(service.organization().starts_with("service4x["));
        // The label ignores the worker count.
        assert_eq!(build(4, 1).organization(), service.organization());
    }

    #[test]
    fn concurrent_run_matches_the_serial_reference() {
        let stream = ops(5_000);
        let serial = build(4, 1).run_serial(stream.iter().copied());
        for workers in [1, 2, 4] {
            let report = build(4, workers).run(stream.iter().copied()).unwrap();
            assert_eq!(report.workers, workers);
            assert_eq!(
                report.semantics(),
                serial.semantics(),
                "{workers} workers must be bit-identical to serial"
            );
        }
        assert_eq!(serial.requests, 5_000);
        assert_eq!(serial.outcomes.len(), 5_000);
        assert!(serial.stats.directory.insertions.get() > 0);
        // The log is sequence-ordered and dense.
        for (i, record) in serial.outcomes.iter().enumerate() {
            assert_eq!(record.seq, i as u64);
        }
    }

    #[test]
    fn different_shard_counts_are_different_semantics() {
        let stream = ops(2_000);
        let two = build(2, 1).run_serial(stream.iter().copied());
        let four = build(4, 1).run_serial(stream.iter().copied());
        assert_eq!(two.requests, four.requests);
        assert_ne!(two.organization, four.organization);
    }

    #[test]
    fn outcome_recording_can_be_disabled() {
        let stream = ops(1_000);
        let build = |workers| {
            let config = ServiceConfig::new("sparse-4x64-c8", 2, workers).with_outcomes(false);
            DirectoryService::build_standard(config).unwrap()
        };
        // The moved log (serial, one worker) and the merged one alike.
        let mut reports = vec![build(1).run_serial(stream.iter().copied())];
        for workers in [1, 2] {
            reports.push(build(workers).run(stream.iter().copied()).unwrap());
        }
        for report in reports {
            assert!(report.outcomes.is_empty());
            assert_eq!(report.outcome_digest, 0);
            assert_eq!(report.requests, 1_000);
        }
    }

    #[test]
    #[should_panic(expected = "LogOrderError { worker: 1, seq: 2, after: 2 }")]
    fn finish_refuses_to_emit_a_log_two_workers_both_claim() {
        let record = |seq| crate::OutcomeRecord::capture(seq, 0, &Outcome::new());
        let mut outputs = vec![
            WorkerOutput::new(0, Vec::new()),
            WorkerOutput::new(1, Vec::new()),
        ];
        outputs[0].outcomes = WorkerLog::of(0, [record(0), record(2)]);
        outputs[1].outcomes = WorkerLog::of(1, [record(1), record(2)]);
        let _ = finish(String::new(), 0, 2, 4, outputs, true, None, None);
    }

    #[test]
    fn load_checks_reject_core_overflow() {
        let service = build(2, 1);
        let load = LoadSpec::parse("oracle", 16, 1, 100).unwrap();
        assert!(service.load_ops(&load).is_err(), "8 caches, 16 cores");
        let load = LoadSpec::parse("oracle", 8, 1, 100).unwrap();
        assert!(build(2, 1).run_load(&load).is_ok());
    }

    #[test]
    fn service_stats_merge_uses_the_mergeable_machinery() {
        let stream = ops(1_000);
        let half_a = build(2, 1).run_serial(stream[..500].iter().copied());
        let half_b = build(2, 1).run_serial(stream[500..].iter().copied());
        let whole_requests = half_a.stats.requests.get() + half_b.stats.requests.get();
        let mut merged = half_a.stats.clone();
        merged.merge(&half_b.stats);
        assert_eq!(merged.requests.get(), whole_requests);
        assert_eq!(
            merged.directory.lookups.get(),
            half_a.stats.directory.lookups.get() + half_b.stats.directory.lookups.get()
        );
        let mut reversed = half_b.stats.clone();
        reversed.merge(&half_a.stats);
        assert_eq!(merged, reversed, "a ⊕ b == b ⊕ a");
    }
}
