//! Worker supervision for [`DirectoryService::run`]: spawn, deliver with
//! backpressure, join, and surface any worker panic as
//! [`ServiceError::WorkerCrashed`].
//!
//! # Supervision state machine
//!
//! ```text
//!   spawn ──► RUNNING ◄──┐
//!                │  └────┘ batch delivered
//!                │
//!      panic, caught by the worker's catch_unwind: its Receiver
//!      drops, so the router's next send fails Disconnected (or
//!      join reports it after the last delivery)
//!                ▼
//!             CRASHED
//!                │
//!                ▼
//!   FAILED: drop every sender, join, return ServiceError::WorkerCrashed
//! ```
//!
//! A delivery is one blocking [`Sender::send`]: a full lane parks the
//! router until the worker drains (backpressure), and a crashed worker's
//! [`Receiver`] drops during its unwind, which fails the send — blocked or
//! not.  A panic is never retried: the supervisor drops every sender, so
//! the healthy workers drain at most `queue_depth` queued batches and
//! exit, and the run returns the crash as a value.  A worker that dies
//! after its last delivery is found the same way when the fleet is joined.
//! `tests/contracts.rs` (`crashes_its_owner`) drives both paths with an op
//! naming a cache past the directory's count, which its owner's op-entry
//! assert rejects.
//!
//! [`DirectoryService::run`]: crate::DirectoryService::run

use crate::error::ServiceError;
use crate::obs::{EventKind, FlightRecorder, FlightRecording, ObsConfig};
use crate::request::Request;
use crate::service::{absorb_into, finish, DirectoryService, ServiceReport, WorkerOutput};
use ccd_common::channel::{bounded, Receiver, Sender};
use ccd_directory::{Directory, DirectoryOp, Outcome};
use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::thread::{Scope, ScopedJoinHandle};

/// What the supervisor hands back once the fleet drains: the worker
/// outputs and the router-side flight recording (when one was armed).
type JoinedFleet = (Vec<WorkerOutput>, Option<FlightRecording>);

/// Everything about a run that never changes while it executes.
struct RunEnv {
    workers: usize,
    queue_depth: usize,
    record: bool,
    /// The armed observability config: workers arm their recorders from it.
    obs: Option<ObsConfig>,
}

/// What a dead worker left behind: who, and why.
struct CrashNote {
    worker: usize,
    cause: String,
}

impl CrashNote {
    fn new(worker: usize, payload: Box<dyn Any + Send>) -> Self {
        let cause = payload
            .downcast_ref::<&'static str>()
            .map(|s| (*s).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "opaque panic payload".to_string());
        CrashNote { worker, cause }
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
    /// The router-side flight recorder: delivery events, stamped with
    /// request sequence numbers.
    recorder: Option<FlightRecorder>,
}

impl<'scope> Supervisor<'scope> {
    /// Spawns the fleet.
    fn launch<'env>(
        scope: &'scope Scope<'scope, 'env>,
        env: &'env RunEnv,
        owned: Vec<Vec<Box<dyn Directory>>>,
    ) -> Self {
        let mut sup = Supervisor {
            txs: Vec::with_capacity(env.workers),
            recycles: Vec::with_capacity(env.workers),
            handles: Vec::with_capacity(env.workers),
            recorder: env.obs.as_ref().and_then(ObsConfig::recorder),
        };
        for (index, slices) in owned.into_iter().enumerate() {
            let mut output = WorkerOutput::new(index, slices);
            output.arm_obs(env.obs.as_ref());
            let (tx, recycle_rx, handle) = spawn_worker(scope, env, output);
            sup.txs.push(tx);
            sup.recycles.push(recycle_rx);
            sup.handles.push(Some(handle));
        }
        sup
    }

    /// Delivers one batch to `owner`, waiting out a full lane (a blocking
    /// send).
    /// A failed send means the owner crashed: its crash note is the error.
    fn deliver(&mut self, owner: usize, batch: Vec<Request>) -> Result<(), ServiceError> {
        // Virtual time of the router-side event for this batch: its first
        // request's sequence number.
        let vtime = batch.first().map_or(0, |request| request.seq);
        let len = batch.len() as u64;
        if self.txs[owner].send(batch).is_err() {
            return Err(self.join_corpse(owner).into_error());
        }
        if let Some(recorder) = self.recorder.as_mut() {
            recorder.record(EventKind::BatchRouted, owner as u16, vtime, len);
        }
        Ok(())
    }

    /// Joins a worker whose channel disconnected and distills its crash
    /// note.
    fn join_corpse(&mut self, owner: usize) -> CrashNote {
        let Some(handle) = self.handles[owner].take() else {
            return CrashNote {
                worker: owner,
                cause: "supervisor lost the worker's join handle".to_string(),
            };
        };
        match handle.join() {
            Ok(Err(note)) => note,
            // A clean exit with the ingestion side still open cannot
            // happen unless the worker's receiver was torn down some other
            // way.
            Ok(Ok(_)) => CrashNote {
                worker: owner,
                cause: "worker exited while its queue was still open".to_string(),
            },
            // A panic that escaped the worker's own catch_unwind.
            Err(payload) => CrashNote::new(owner, payload),
        }
    }

    /// Ends ingestion (drops every sender) and joins the fleet.  A worker
    /// that crashed after its last delivery fails the run here, once every
    /// other worker has drained.
    fn join_all(mut self, env: &RunEnv) -> Result<JoinedFleet, ServiceError> {
        self.txs.clear();
        let mut outputs = Vec::with_capacity(env.workers);
        let mut crash = None;
        for (owner, handle) in self.handles.iter_mut().enumerate() {
            let Some(handle) = handle.take() else {
                continue;
            };
            match handle.join() {
                Ok(Ok(output)) => outputs.push(output),
                Ok(Err(note)) => crash = crash.or(Some(note)),
                Err(payload) => crash = crash.or(Some(CrashNote::new(owner, payload))),
            }
        }
        if let Some(note) = crash {
            return Err(note.into_error());
        }
        let recording = self.recorder.as_ref().map(FlightRecorder::finish);
        Ok((outputs, recording))
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
    let env = RunEnv {
        workers,
        queue_depth: service.config.queue_depth,
        record: service.config.record_outcomes,
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
    let (requests, (outputs, router_recording)) = std::thread::scope(|scope| {
        let mut sup = Supervisor::launch(scope, &env, owned);

        // The router: stamp, route, batch, deliver (with backpressure
        // towards the generator and supervision towards the workers).
        let mut staging: Vec<Vec<Request>> =
            (0..workers).map(|_| Vec::with_capacity(batch)).collect();
        let routed = (|| -> Result<u64, ServiceError> {
            let mut requests = 0;
            for op in ops {
                let (shard, local) = interleave.home_of(op.line());
                let owner = shard % workers;
                staging[owner].push(Request {
                    seq: requests,
                    shard: (shard / workers) as u32,
                    op: op.with_line(local),
                });
                requests += 1;
                if staging[owner].len() == batch {
                    let fresh = sup.recycles[owner]
                        .try_recv()
                        .unwrap_or_else(|_| Vec::with_capacity(batch));
                    let full = std::mem::replace(&mut staging[owner], fresh);
                    sup.deliver(owner, full)?;
                }
            }
            for (owner, slot) in staging.drain(..).enumerate() {
                if !slot.is_empty() {
                    sup.deliver(owner, slot)?;
                }
            }
            Ok(requests)
        })();
        // A failed run aborts by returning: dropping `sup` drops every
        // sender, so healthy workers drain at most `queue_depth` batches
        // and exit, and the scope joins them.
        Ok::<_, ServiceError>((routed?, sup.join_all(&env)?))
    })?;

    Ok(finish(
        organization,
        shards,
        workers,
        requests,
        outputs,
        env.record,
        env.obs.as_ref(),
        router_recording,
    ))
}

/// Spawns one supervised worker.  The worker's entire body — including its
/// [`Receiver`] — lives inside a `catch_unwind`, so an unwinding panic
/// drops the receiver (failing the router's next send: that is the crash
/// *detection* path) and surfaces as an orderly `Err(CrashNote)` through
/// `join`, never as a process abort.
type WorkerLanes<'scope> = (
    Sender<Vec<Request>>,
    Receiver<Vec<Request>>,
    ScopedJoinHandle<'scope, Result<WorkerOutput, CrashNote>>,
);

fn spawn_worker<'scope, 'env>(
    scope: &'scope Scope<'scope, 'env>,
    env: &'env RunEnv,
    output: WorkerOutput,
) -> WorkerLanes<'scope> {
    let (tx, rx) = bounded::<Vec<Request>>(env.queue_depth);
    // One spare slot beyond the queue depth so a worker's non-blocking
    // buffer return almost never drops a buffer.
    let (recycle_tx, recycle_rx) = bounded::<Vec<Request>>(env.queue_depth + 1);
    let handle = scope.spawn(move || drive_worker(output, env, rx, recycle_tx));
    (tx, recycle_rx, handle)
}

/// One worker's supervised drain loop: receive a batch, count it, open its
/// span, apply it, close the span, return the buffer, repeat until the
/// ingestion side hangs up.
fn drive_worker(
    output: WorkerOutput,
    env: &RunEnv,
    rx: Receiver<Vec<Request>>,
    recycle_tx: Sender<Vec<Request>>,
) -> Result<WorkerOutput, CrashNote> {
    let worker = output.index;
    catch_unwind(AssertUnwindSafe(move || {
        let mut output = output;
        let mut out = Outcome::new();
        let mut ops_buf: Vec<DirectoryOp> = Vec::new();
        // The loop ends when the router drops this lane's sender: at the
        // end of the stream or on a supervisor abort alike.
        while let Ok(mut requests) = rx.recv() {
            output.batches += 1;
            output.batch_span_begin(&requests);
            apply_requests(&mut output, &requests, env, &mut out, &mut ops_buf);
            output.batch_applied(&requests);
            requests.clear();
            // Non-blocking buffer return; on a full recycle ring the
            // buffer is simply dropped and the router allocates fresh.
            let _ = recycle_tx.try_send(requests);
        }
        output
    }))
    .map_err(|payload| CrashNote::new(worker, payload))
}

/// Applies `requests` to the worker's shards and absorbs each outcome.
fn apply_requests(
    output: &mut WorkerOutput,
    requests: &[Request],
    env: &RunEnv,
    out: &mut Outcome,
    ops_buf: &mut Vec<DirectoryOp>,
) {
    let (workers, record) = (env.workers, env.record);
    if output.slices.len() == 1 {
        // Single owned shard: the whole batch targets it, so the
        // organization's own (possibly overridden) batched fast path
        // applies directly.
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
    // Several shards: one request at a time on its own shard —
    // semantically identical to `apply_batch` by the directories' own
    // batching contract — in the same apply → absorb order as the serial
    // reference.
    let index = output.index as u32;
    for request in requests {
        output.slices[request.shard as usize].apply(request.op, out);
        absorb_into(
            &mut output.outcomes,
            &mut output.invalidations,
            &mut output.forced_invalidations,
            request.seq,
            request.shard * workers as u32 + index,
            out,
            record,
        );
    }
}
