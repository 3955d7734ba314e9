//! Worker supervision: crash detection, deterministic journal replay, and
//! resilient batch delivery for [`DirectoryService::run`].
//!
//! # Supervision state machine
//!
//! ```text
//!            spawn                    batch delivered
//!   ┌──────────────────► RUNNING ◄───────────────────┐
//!   │                       │                        │
//!   │              panic (caught by the              │
//!   │               worker's catch_unwind;           │
//!   │               its Receiver drops, so           │
//!   │               the router's next send           │
//!   │               fails Disconnected)              │
//!   │                       ▼                        │
//!   │                    CRASHED                     │
//!   │                       │ injected + recoverable │
//!   │                       │ + journaled?           │
//!   │            yes        ▼         no             │
//!   │        ┌─────────► classify ──────────┐        │
//!   │        ▼                              ▼        │
//!   │   REBUILD shards              FAILED: drop every
//!   │   REPLAY journal              sender, join,
//!   │     │    (armed: later        surface
//!   │     │     crash points        ServiceError::
//!   │     │     may re-fire —       WorkerCrashed
//!   │     │     rebuild again)
//!   │     ▼
//!   └─ RESPAWN with the replayed state, re-offer the
//!      undelivered batch, resume ─────────────────────┘
//! ```
//!
//! # Why recovery preserves the digest
//!
//! The router journals every batch it *successfully delivers* to a worker
//! with scheduled crash points (copied before the send; rolled back if the
//! send fails).  A worker's unwind destroys its shards and all its
//! accounting, so recovery starts from nothing: fresh shards built from
//! the same per-shard spec, then the journal — the worker's
//! exact request subsequence, in FIFO order — replayed through the *same*
//! batch-application code the live worker runs.  Replay is therefore not
//! approximately equivalent to the lost work; it is the same fold over the
//! same sequence, so the recovered worker's outcome records, statistics
//! and shard contents are bit-identical to a run in which the crash never
//! happened.  The undelivered batch that surfaced the disconnect was
//! rolled back out of the journal and is re-offered to the replacement, so
//! nothing is lost or applied twice.
//!
//! Replay runs with the remaining crash points still armed: a second crash
//! point whose trigger lies inside the journaled range fires *during
//! replay* (the supervisor just rebuilds and replays again), which is what
//! makes the total number of recoveries — and with it
//! [`ServiceStats::recoveries`](crate::ServiceStats::recoveries) —
//! independent of detection timing.  Scheduled stalls are skipped during
//! replay; they are pure latency and replay owes nobody latency.
//!
//! # Delivery resilience
//!
//! A delivery is one blocking [`Sender::send`]: a full lane parks the
//! router until the worker drains (backpressure), and a crashed worker's
//! [`Receiver`] drops during its unwind, which fails the send — blocked or
//! not — and hands the batch back for recovery.  When a fault plan sheds,
//! the seeded admission gate may reject (and count) an offer before it is
//! sent — shedding perturbs scheduling and the
//! [`ServiceStats::shed`](crate::ServiceStats::shed) counter, never
//! results.  When a run fails, the supervisor drops every sender: healthy
//! workers drain at most `queue_depth` queued batches and exit.
//!
//! [`DirectoryService::run`]: crate::DirectoryService::run

use crate::error::ServiceError;
use crate::fault::{silence_injected_panics, FaultPlan, InjectedCrash, ShedGate, WorkerFaults};
use crate::request::Request;
use crate::resize::ResizePolicy;
use crate::service::{
    absorb_into, build_slices, finish, maybe_resize, DirectoryService, ServiceReport, WorkerOutput,
};
use ccd_common::channel::{bounded, Receiver, Sender};
use ccd_directory::{Directory, DirectoryOp, DirectorySpec, Outcome};
use ccd_obs::{EventKind, FlightRecorder, ObsConfig};
use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::SendError;
use std::thread::{Scope, ScopedJoinHandle};

/// What the supervisor hands back once the fleet drains: the worker
/// outputs, the shed and recovery counts, and the router-side flight
/// recording (when one was armed).
type JoinedFleet = (
    Vec<WorkerOutput>,
    u64,
    u64,
    Option<ccd_obs::FlightRecording>,
);

/// Everything about a run that never changes while it executes.
struct RunEnv {
    slice_spec: DirectorySpec,
    plan: Option<FaultPlan>,
    /// Per worker: does the plan schedule crash points for it?  Only those
    /// workers pay for journaling; for everyone else the fault layer costs
    /// one `Option` check per batch.
    journaled: Vec<bool>,
    workers: usize,
    shards: usize,
    batch: usize,
    queue_depth: usize,
    record: bool,
    /// An armed live-resize schedule.  Applied identically by live workers
    /// and journal replay, so recovery re-fires the same resizes at the
    /// same epoch boundaries.
    resize: Option<ResizePolicy>,
    /// The armed observability config.  Rebuilt slices and replay
    /// outputs re-arm from it, so a recovered worker observes exactly what
    /// the dead one did.
    obs: Option<ObsConfig>,
}

impl RunEnv {
    /// Number of shards worker `w` owns (`w, w + W, w + 2W, …`).
    fn owned_shards(&self, worker: usize) -> usize {
        (self.shards - worker).div_ceil(self.workers)
    }

    /// Builds fresh, empty slices for worker `w`'s shards, re-armed for
    /// observation like the originals.
    fn rebuild_slices(&self, worker: usize) -> Result<Vec<Box<dyn Directory>>, ServiceError> {
        let owned = self.owned_shards(worker);
        Ok(build_slices(&self.slice_spec, owned, self.obs.as_ref())?)
    }
}

/// What a dead worker left behind: who, why, and whether the panic was a
/// scheduled injection.
struct CrashNote {
    worker: usize,
    cause: String,
    injected: Option<InjectedCrash>,
}

impl CrashNote {
    fn new(worker: usize, payload: Box<dyn Any + Send>) -> Self {
        let injected = payload.downcast_ref::<InjectedCrash>().copied();
        let cause = match injected {
            Some(crash) => crash.to_string(),
            None => payload
                .downcast_ref::<&'static str>()
                .map(|s| (*s).to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "opaque panic payload".to_string()),
        };
        CrashNote {
            worker,
            cause,
            injected,
        }
    }

    fn into_error(self) -> ServiceError {
        ServiceError::WorkerCrashed {
            worker: self.worker,
            cause: self.cause,
        }
    }
}

/// The supervisor's mutable view of the worker fleet.
struct Supervisor<'scope> {
    txs: Vec<Sender<Vec<Request>>>,
    recycles: Vec<Receiver<Vec<Request>>>,
    handles: Vec<Option<ScopedJoinHandle<'scope, Result<WorkerOutput, CrashNote>>>>,
    /// Per worker: every request successfully delivered so far, in FIFO
    /// order (empty for non-journaled workers).
    journals: Vec<Vec<Request>>,
    /// Per worker: how many of its crash points have fired.
    fired: Vec<usize>,
    gate: Option<ShedGate>,
    shed: u64,
    recoveries: u64,
    /// The router-side flight recorder: delivery, shedding, crash and
    /// recovery events, stamped with request sequence numbers.
    recorder: Option<FlightRecorder>,
}

impl<'scope> Supervisor<'scope> {
    /// Spawns the initial fleet.
    fn launch<'env>(
        scope: &'scope Scope<'scope, 'env>,
        env: &'env RunEnv,
        owned: Vec<Vec<Box<dyn Directory>>>,
    ) -> Self {
        let mut sup = Supervisor {
            txs: Vec::with_capacity(env.workers),
            recycles: Vec::with_capacity(env.workers),
            handles: Vec::with_capacity(env.workers),
            journals: (0..env.workers).map(|_| Vec::new()).collect(),
            fired: vec![0; env.workers],
            gate: env.plan.as_ref().and_then(FaultPlan::shed_gate),
            shed: 0,
            recoveries: 0,
            recorder: env
                .obs
                .as_ref()
                .filter(|cfg| cfg.records_events())
                .map(|cfg| FlightRecorder::new(cfg.ring(), cfg.spans())),
        };
        for (index, slices) in owned.into_iter().enumerate() {
            let hooks = env.plan.as_ref().and_then(|p| p.arm(index, 0));
            let mut output = WorkerOutput::new(index, slices);
            output.arm_obs(env.obs.as_ref());
            let (tx, recycle_rx, handle) = spawn_worker(scope, env, output, hooks);
            sup.txs.push(tx);
            sup.recycles.push(recycle_rx);
            sup.handles.push(Some(handle));
        }
        sup
    }

    /// Delivers one admitted batch to `owner`, riding out stalls (a
    /// blocking send), shedding (counted, re-offered) and crashes (recover,
    /// then re-offer).  On success the batch — journaled if the owner is — is
    /// in the owner's queue.
    fn deliver<'env>(
        &mut self,
        scope: &'scope Scope<'scope, 'env>,
        env: &'env RunEnv,
        owner: usize,
        mut batch: Vec<Request>,
    ) -> Result<(), ServiceError> {
        // Virtual time of every router-side event for this batch: its
        // first request's sequence number.
        let vtime = batch.first().map_or(0, |request| request.seq);
        let len = batch.len() as u64;
        // Admission control: draw the gate once per shed rejection plus
        // the final admission.  The decision stream is consumed only here,
        // on the single router thread, in offer order — deterministic.
        if let Some(gate) = self.gate.as_mut() {
            while gate.should_shed() {
                self.shed += 1;
                if let Some(recorder) = self.recorder.as_mut() {
                    recorder.record(EventKind::Shed, owner as u16, vtime, len);
                }
            }
        }
        if env.journaled[owner] {
            self.journals[owner].extend_from_slice(&batch);
        }
        while let Err(SendError(undelivered)) = self.txs[owner].send(batch) {
            // The worker crashed and this batch was never delivered: roll
            // it back out of the journal so recovery does not replay it…
            batch = undelivered;
            if env.journaled[owner] {
                let keep = self.journals[owner].len().saturating_sub(batch.len());
                self.journals[owner].truncate(keep);
            }
            self.recover(scope, env, owner)?;
            // …then re-journal and re-offer it to the replacement.  No new
            // gate draw: the batch was already admitted.
            if env.journaled[owner] {
                self.journals[owner].extend_from_slice(&batch);
            }
        }
        self.record_event(EventKind::BatchRouted, owner, vtime, len);
        Ok(())
    }

    /// Records one router-side event (no-op when no recorder is armed).
    fn record_event(&mut self, kind: EventKind, lane: usize, vtime: u64, arg: u64) {
        if let Some(recorder) = self.recorder.as_mut() {
            recorder.record(kind, lane as u16, vtime, arg);
        }
    }

    /// Handles a detected crash of `owner`: joins the corpse, rebuilds the
    /// worker's state ([`Supervisor::recovered_output`]) and respawns it.
    fn recover<'env>(
        &mut self,
        scope: &'scope Scope<'scope, 'env>,
        env: &'env RunEnv,
        owner: usize,
    ) -> Result<(), ServiceError> {
        let note = self.join_corpse(owner);
        let output = self.recovered_output(env, note)?;
        let hooks = env
            .plan
            .as_ref()
            .and_then(|p| p.arm(owner, self.fired[owner]));
        let (tx, recycle_rx, handle) = spawn_worker(scope, env, output, hooks);
        self.txs[owner] = tx;
        self.recycles[owner] = recycle_rx;
        self.handles[owner] = Some(handle);
        Ok(())
    }

    /// Classifies a dead worker's panic and — when it was a scheduled
    /// recoverable injection on a journaled worker — rebuilds the state it
    /// lost by replay.  Anything else is fatal for the run.
    fn recovered_output(
        &mut self,
        env: &RunEnv,
        note: CrashNote,
    ) -> Result<WorkerOutput, ServiceError> {
        let owner = note.worker;
        let crash = match note.injected {
            Some(crash) if crash.recoverable && env.journaled[owner] => crash,
            _ => return Err(note.into_error()),
        };
        self.count_crash(owner, crash);
        let output = self.replay(env, owner)?;
        self.record_event(
            EventKind::Recovery,
            owner,
            crash.seq,
            self.fired[owner] as u64,
        );
        Ok(output)
    }

    /// Counts one fired crash point of `owner`, live or mid-replay.
    fn count_crash(&mut self, owner: usize, crash: InjectedCrash) {
        self.fired[owner] += 1;
        self.recoveries += 1;
        self.record_event(EventKind::Crash, owner, crash.seq, self.fired[owner] as u64);
    }

    /// Rebuilds `owner`'s state by replaying its journal onto fresh
    /// shards, looping while armed crash points keep firing mid-replay.
    /// Terminates: every iteration either completes, fails, or advances
    /// `fired` (bounded by the plan's crash-point count).
    fn replay(&mut self, env: &RunEnv, owner: usize) -> Result<WorkerOutput, ServiceError> {
        let replayed = self.journals[owner].len() as u64;
        let vtime = self.journals[owner].last().map_or(0, |request| request.seq);
        loop {
            let slices = env.rebuild_slices(owner)?;
            let hooks = env
                .plan
                .as_ref()
                .and_then(|p| p.arm(owner, self.fired[owner]));
            match replay_journal(owner, slices, &self.journals[owner], env, hooks) {
                Ok(output) => {
                    self.record_event(EventKind::JournalReplay, owner, vtime, replayed);
                    return Ok(output);
                }
                Err(note) => match note.injected {
                    Some(crash) if crash.recoverable => self.count_crash(owner, crash),
                    _ => return Err(note.into_error()),
                },
            }
        }
    }

    /// Joins a worker whose channel disconnected and distills its crash
    /// note.
    fn join_corpse(&mut self, owner: usize) -> CrashNote {
        let Some(handle) = self.handles[owner].take() else {
            return CrashNote {
                worker: owner,
                cause: "supervisor lost the worker's join handle".to_string(),
                injected: None,
            };
        };
        match handle.join() {
            Ok(Err(note)) => note,
            Ok(Ok(_)) => CrashNote {
                // A clean exit with the ingestion side still open cannot
                // happen unless the worker's receiver was torn down some
                // other way; treat it as an unrecoverable crash.
                worker: owner,
                cause: "worker exited while its queue was still open".to_string(),
                injected: None,
            },
            // A panic that escaped the worker's own catch_unwind.
            Err(payload) => CrashNote::new(owner, payload),
        }
    }

    /// Ends ingestion (drops every sender) and joins the fleet,
    /// recovering workers that crashed after their last delivery: with the
    /// stream over, their full journals *are* their final state, so replay
    /// alone finishes the job — no respawn.
    fn join_all(mut self, env: &RunEnv) -> Result<JoinedFleet, ServiceError> {
        self.txs.clear();
        let mut outputs = Vec::with_capacity(env.workers);
        for owner in 0..env.workers {
            let Some(handle) = self.handles[owner].take() else {
                continue;
            };
            let note = match handle.join() {
                Ok(Ok(output)) => {
                    outputs.push(output);
                    continue;
                }
                Ok(Err(note)) => note,
                Err(payload) => CrashNote::new(owner, payload),
            };
            outputs.push(self.recovered_output(env, note)?);
        }
        let recording = self.recorder.as_ref().map(FlightRecorder::finish);
        Ok((outputs, self.shed, self.recoveries, recording))
    }
}

/// Runs the concurrent service under supervision.  See the module docs.
pub(crate) fn run_concurrent(
    mut service: DirectoryService,
    ops: impl Iterator<Item = DirectoryOp>,
) -> Result<ServiceReport, ServiceError> {
    let workers = service.config.workers;
    let shards = service.config.shards;
    let interleave = service.interleave;
    let batch = service.config.batch;
    let record = service.config.record_outcomes;
    let plan = service.config.fault_plan.clone().filter(|p| !p.is_noop());
    if plan.as_ref().is_some_and(|p| !p.crashes().is_empty()) {
        silence_injected_panics();
    }
    let journaled = (0..workers)
        .map(|w| {
            plan.as_ref()
                .is_some_and(|p| p.crashes().iter().any(|c| c.worker == w))
        })
        .collect();
    let env = RunEnv {
        slice_spec: service.slice_spec.clone(),
        plan,
        journaled,
        workers,
        shards,
        batch,
        queue_depth: service.config.queue_depth,
        record,
        resize: service.config.resize_policy.clone(),
        obs: service.config.obs.clone(),
    };
    let organization = std::mem::take(&mut service.organization);

    // Distribute shard ownership: worker `w` owns global shards
    // `w, w + W, w + 2W, …` — local index `i` is global `w + i·W`.
    let mut owned: Vec<Vec<Box<dyn Directory>>> = (0..workers).map(|_| Vec::new()).collect();
    for (global, slice) in service.slices.drain(..).enumerate() {
        owned[global % workers].push(slice);
    }

    #[expect(
        clippy::disallowed_methods,
        reason = "the supervisor is one of the two sanctioned thread owners; outputs merge in fixed shard order"
    )]
    let (outputs, shed, recoveries, router_recording) = std::thread::scope(|scope| {
        let mut sup = Supervisor::launch(scope, &env, owned);

        // The router: stamp, route, batch, deliver (with backpressure
        // towards the generator and supervision towards the workers).
        let mut staging: Vec<Vec<Request>> =
            (0..workers).map(|_| Vec::with_capacity(batch)).collect();
        let routed = (|| -> Result<(), ServiceError> {
            for (seq, op) in ops.enumerate() {
                let (shard, local) = interleave.home_of(op.line());
                let owner = shard % workers;
                staging[owner].push(Request {
                    seq: seq as u64,
                    shard: (shard / workers) as u32,
                    op: op.with_line(local),
                });
                if staging[owner].len() == batch {
                    let fresh = sup.recycles[owner]
                        .try_recv()
                        .unwrap_or_else(|_| Vec::with_capacity(batch));
                    let full = std::mem::replace(&mut staging[owner], fresh);
                    sup.deliver(scope, &env, owner, full)?;
                }
            }
            for (owner, slot) in staging.drain(..).enumerate() {
                if !slot.is_empty() {
                    sup.deliver(scope, &env, owner, slot)?;
                }
            }
            Ok(())
        })();
        // A failed run aborts by returning: dropping `sup` drops every
        // sender, so healthy workers drain at most `queue_depth` batches
        // and exit, and the scope joins them.
        routed?;
        sup.join_all(&env)
    })?;

    Ok(finish(
        organization,
        shards,
        workers,
        outputs,
        record,
        shed,
        recoveries,
        env.obs.as_ref(),
        router_recording,
    ))
}

/// Spawns one supervised worker.  The worker's entire body — including its
/// [`Receiver`] — lives inside a `catch_unwind`, so an unwinding panic
/// drops the receiver (failing the router's next send: that is the crash
/// *detection* path) and surfaces as an orderly `Err(CrashNote)` through
/// `join` (the crash *classification* path), never as a process abort.
type WorkerLanes<'scope> = (
    Sender<Vec<Request>>,
    Receiver<Vec<Request>>,
    ScopedJoinHandle<'scope, Result<WorkerOutput, CrashNote>>,
);

fn spawn_worker<'scope, 'env>(
    scope: &'scope Scope<'scope, 'env>,
    env: &'env RunEnv,
    output: WorkerOutput,
    hooks: Option<WorkerFaults>,
) -> WorkerLanes<'scope> {
    let (tx, rx) = bounded::<Vec<Request>>(env.queue_depth);
    // One spare slot beyond the queue depth so a worker's non-blocking
    // buffer return almost never drops a buffer.
    let (recycle_tx, recycle_rx) = bounded::<Vec<Request>>(env.queue_depth + 1);
    let handle = scope.spawn(move || drive_worker(output, env, rx, recycle_tx, hooks));
    (tx, recycle_rx, handle)
}

/// One worker's supervised drain loop: receive a batch, sleep any
/// scheduled stall, run the batch, return the buffer, repeat until the
/// ingestion side hangs up.
fn drive_worker(
    output: WorkerOutput,
    env: &RunEnv,
    rx: Receiver<Vec<Request>>,
    recycle_tx: Sender<Vec<Request>>,
    hooks: Option<WorkerFaults>,
) -> Result<WorkerOutput, CrashNote> {
    let worker = output.index;
    catch_unwind(AssertUnwindSafe(move || {
        let mut output = output;
        let mut out = Outcome::new();
        let mut ops_buf: Vec<DirectoryOp> = Vec::new();
        // The loop ends when the router drops this lane's sender: at the
        // end of the stream or on a supervisor abort alike.
        while let Ok(mut requests) = rx.recv() {
            if let Some(hooks) = hooks.as_ref() {
                hooks.stall();
            }
            run_batch(
                &mut output,
                &requests,
                env,
                hooks.as_ref(),
                &mut out,
                &mut ops_buf,
            );
            requests.clear();
            // Non-blocking buffer return; on a full recycle ring the
            // buffer is simply dropped and the router allocates fresh.
            let _ = recycle_tx.try_send(requests);
        }
        output
    }))
    .map_err(|payload| CrashNote::new(worker, payload))
}

/// Replays a journal onto fresh slices, producing the `WorkerOutput` the
/// dead worker would have accumulated had it applied exactly these
/// requests.  Remaining crash points stay armed (see the module docs);
/// stalls do not.
fn replay_journal(
    worker: usize,
    slices: Vec<Box<dyn Directory>>,
    journal: &[Request],
    env: &RunEnv,
    hooks: Option<WorkerFaults>,
) -> Result<WorkerOutput, CrashNote> {
    catch_unwind(AssertUnwindSafe(move || {
        let mut output = WorkerOutput::new(worker, slices);
        output.arm_obs(env.obs.as_ref());
        let mut out = Outcome::new();
        let mut ops_buf: Vec<DirectoryOp> = Vec::new();
        for chunk in journal.chunks(env.batch.max(1)) {
            run_batch(
                &mut output,
                chunk,
                env,
                hooks.as_ref(),
                &mut out,
                &mut ops_buf,
            );
        }
        output
    }))
    .map_err(|payload| CrashNote::new(worker, payload))
}

/// One batch through a worker: count it, open its span, die at a scheduled
/// crash point if one falls inside it, apply it, close the span.  Exactly
/// this code runs in live workers and in recovery replay, which is half of
/// the digest-identity argument (the other half is the journal being the
/// worker's exact delivered subsequence).
fn run_batch(
    output: &mut WorkerOutput,
    requests: &[Request],
    env: &RunEnv,
    hooks: Option<&WorkerFaults>,
    out: &mut Outcome,
    ops_buf: &mut Vec<DirectoryOp>,
) {
    output.batches += 1;
    output.batch_span_begin(requests);
    if let Some((cut, point)) = hooks.and_then(|h| h.crash_cut(requests.iter().map(|r| r.seq))) {
        // Apply the prefix normally, then die exactly where the plan says —
        // before the first request with `seq >= the trigger`.
        apply_requests(output, &requests[..cut], env, out, ops_buf);
        InjectedCrash {
            worker: output.index,
            seq: requests[cut].seq,
            recoverable: point.recoverable,
        }
        .fire();
    }
    apply_requests(output, requests, env, out, ops_buf);
    output.batch_applied(requests);
}

/// Applies `requests` to the worker's shards and absorbs each outcome.
fn apply_requests(
    output: &mut WorkerOutput,
    requests: &[Request],
    env: &RunEnv,
    out: &mut Outcome,
    ops_buf: &mut Vec<DirectoryOp>,
) {
    let (workers, record, resize) = (env.workers, env.record, env.resize.as_ref());
    output.applied += requests.len() as u64;
    if resize.is_none() && output.slices.len() == 1 {
        // Single owned shard of fixed geometry: the whole batch targets
        // it, so the organization's own (possibly overridden) batched fast
        // path applies directly.
        ops_buf.clear();
        ops_buf.extend(requests.iter().map(|r| r.op));
        let global_shard = output.index as u32;
        let mut at = 0usize;
        let (slices, outcomes) = (&mut output.slices, &mut output.outcomes);
        let (invalidations, forced) = (&mut output.invalidations, &mut output.forced_invalidations);
        let mut absorb = |_op: &DirectoryOp, out: &Outcome| {
            let seq = requests[at].seq;
            at += 1;
            // The closure borrows the accounting fields disjointly from
            // the mutably borrowed slice.
            absorb_into(
                outcomes,
                invalidations,
                forced,
                seq,
                global_shard,
                out,
                record,
            );
        };
        slices[0].apply_batch(ops_buf, out, &mut absorb);
        return;
    }
    // Several shards, or a resize policy armed (a shard may then change
    // geometry between any two requests): one request at a time on its own
    // shard — semantically identical to `apply_batch` by the directories'
    // own batching contract — with the epoch check after each absorb, the
    // same apply → absorb → count order as the serial reference.
    let index = output.index as u32;
    for request in requests {
        let shard = request.shard as usize;
        output.slices[shard].apply(request.op, out);
        let global_shard = request.shard * workers as u32 + index;
        absorb_into(
            &mut output.outcomes,
            &mut output.invalidations,
            &mut output.forced_invalidations,
            request.seq,
            global_shard,
            out,
            record,
        );
        if let Some(policy) = resize {
            maybe_resize(output, shard, global_shard, policy);
        }
    }
}
