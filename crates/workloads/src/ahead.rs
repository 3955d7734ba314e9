//! A reference stream generated one batch ahead on a helper thread.
//!
//! [`WorkloadSpec::stream`](crate::WorkloadSpec::stream) builds the inline
//! stream on the calling thread, so construction errors and panics stay
//! there, then moves it into an [`AheadStream`]: a helper thread pulls
//! [`AHEAD_BATCH`] references at a time into a buffer and sends it, in
//! order, over one [`bounded`] lane, while the consumer works through the
//! batch before it.  The consumer yields exactly what the inline stream
//! would have yielded, in the same order; only the thread that runs the
//! generator differs.
//!
//! The buffers are allocated once, by the constructing thread, and
//! circulate: a spent batch goes back to the helper over a second lane, so
//! neither thread allocates once the stream runs.

use crate::scenario::TraceStream;
use ccd_common::channel::{bounded, Receiver, Sender};
use ccd_common::MemRef;
use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::thread::JoinHandle;

/// References per batch: 1,024 [`MemRef`]s, 16 KiB.  Large enough that a
/// lane hop (a few microseconds at most) is noise beside the 60–85 µs the
/// paper profiles take to fill it (60–85 ns a reference on a 2-vCPU Xeon
/// VM); small enough that all of a stream's buffers stay a small share of
/// a core's L2.
pub const AHEAD_BATCH: usize = 1024;

/// Full batches the lane holds.  One lets the helper finish batch *k + 1*
/// while the consumer works on batch *k*; the second absorbs a helper
/// descheduled for up to a batch, without a stall on the consumer.
const LANE_DEPTH: usize = 2;

/// Buffers of one stream: the consumer's, the lane's, and the one the
/// helper fills.  With that many the helper, when ahead, waits on the full
/// lane, never on a spent buffer.
const BUFFERS: usize = LANE_DEPTH + 2;

/// An infinite or finite reference stream whose generator runs on a
/// helper thread, one batch ahead of the consumer.
///
/// A panic of the generator is re-raised on the consumer, with its
/// payload, at the reference that raised it.  Dropping the stream stops and
/// joins the helper.
pub(crate) struct AheadStream {
    /// The batch being consumed, from `next` on.
    batch: Vec<MemRef>,
    next: usize,
    /// `None` once the helper has been stopped.
    helper: Option<Helper>,
}

/// The helper thread and both ends of its lanes on the consumer's side.
struct Helper {
    /// Full batches, in generation order.
    full: Receiver<Vec<MemRef>>,
    /// Spent batches, back to the helper.
    spent: Sender<Vec<MemRef>>,
    thread: JoinHandle<()>,
}

impl Helper {
    /// Disconnects both lanes, then joins the thread: a helper blocked on
    /// either (a full lane, or no spent buffer) wakes with an error and
    /// returns.
    fn stop(self) -> std::thread::Result<()> {
        drop(self.full);
        drop(self.spent);
        self.thread.join()
    }
}

impl AheadStream {
    /// Moves `inline` onto a new helper thread, which starts generating at
    /// once.
    pub(crate) fn new(mut inline: Box<dyn TraceStream>) -> Self {
        let (full_tx, full) = bounded(LANE_DEPTH);
        let (spent, spent_rx) = bounded::<Vec<MemRef>>(BUFFERS);
        for _ in 1..BUFFERS {
            // Cannot fail: the receiver is alive and the lane holds every
            // buffer.
            let _ = spent.send(Vec::with_capacity(AHEAD_BATCH));
        }
        #[expect(
            clippy::disallowed_methods,
            reason = "the generator helper is a sanctioned thread owner: it runs one \
                      deterministic stream, hands its batches over in order and is \
                      joined on drop"
        )]
        let thread = std::thread::spawn(move || {
            while let Ok(mut batch) = spent_rx.recv() {
                batch.clear();
                let filled = panic::catch_unwind(AssertUnwindSafe(|| {
                    batch.extend(inline.by_ref().take(AHEAD_BATCH));
                }));
                let last = batch.len() < AHEAD_BATCH;
                // What was generated before a panic is delivered first, so
                // the consumer meets the panic where the inline stream
                // would have raised it.
                if !batch.is_empty() && full_tx.send(batch).is_err() {
                    return; // the consumer is gone
                }
                if let Err(payload) = filled {
                    panic::resume_unwind(payload);
                }
                if last {
                    return;
                }
            }
        });
        AheadStream {
            batch: Vec::with_capacity(AHEAD_BATCH),
            next: 0,
            helper: Some(Helper {
                full,
                spent,
                thread,
            }),
        }
    }

    /// Swaps in the next full batch; `false` once the helper has finished.
    #[cold]
    fn refill(&mut self) -> bool {
        let Some(helper) = &self.helper else {
            return false;
        };
        if let Ok(batch) = helper.full.recv() {
            let spent = std::mem::replace(&mut self.batch, batch);
            // Fails only once the helper has finished, needing no buffers.
            let _ = helper.spent.send(spent);
            self.next = 0;
            return true;
        }
        // The helper dropped its lane: the stream ended or it panicked.
        if let Some(Err(payload)) = self.helper.take().map(Helper::stop) {
            panic::resume_unwind(payload);
        }
        false
    }
}

impl Iterator for AheadStream {
    type Item = MemRef;

    #[inline]
    fn next(&mut self) -> Option<MemRef> {
        if self.next == self.batch.len() && !self.refill() {
            return None;
        }
        let r = self.batch[self.next];
        self.next += 1;
        Some(r)
    }
}

impl Drop for AheadStream {
    fn drop(&mut self) {
        if let Some(helper) = self.helper.take() {
            // A panic the consumer never reached stays unraised, as the
            // inline stream would never have raised it.
            let _ = helper.stop();
        }
    }
}

impl fmt::Debug for AheadStream {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AheadStream")
            .field("buffered", &(self.batch.len() - self.next))
            .field("helper_running", &self.helper.is_some())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "a drop that hangs must fail its test, so it runs on a thread of its own under a deadline"
)]
mod tests {
    use super::*;
    use crate::{ScenarioFamily, TraceGenerator, WorkloadProfile, WorkloadSpec};
    use std::time::Duration;

    const CORES: usize = 16;

    /// `k·BATCH − 1`, `k·BATCH` and `k·BATCH + 1` for `k = 2`.
    const LENGTHS: [usize; 3] = [2 * AHEAD_BATCH - 1, 2 * AHEAD_BATCH, 2 * AHEAD_BATCH + 1];

    fn first(stream: Box<dyn TraceStream>, n: usize) -> Vec<MemRef> {
        stream.take(n).collect()
    }

    #[test]
    fn yields_what_the_inline_stream_yields_for_every_profile_and_family() {
        let specs = WorkloadProfile::all_paper_workloads()
            .into_iter()
            .map(WorkloadSpec::from)
            .chain(
                ScenarioFamily::ALL.map(|family| family.name().parse::<WorkloadSpec>().unwrap()),
            );
        for spec in specs {
            for n in LENGTHS {
                assert_eq!(
                    first(spec.stream(CORES, 11).unwrap(), n),
                    first(spec.stream_inline(CORES, 11).unwrap(), n),
                    "{spec}, {n} references"
                );
            }
        }
    }

    #[test]
    fn a_replay_ends_with_none_exactly_at_its_record_count() {
        let dir = std::env::temp_dir().join("ccd-ahead-test");
        std::fs::create_dir_all(&dir).unwrap();
        for records in LENGTHS {
            let path = dir.join(format!("replay-{records}.ccdt"));
            let trace = TraceGenerator::new(WorkloadProfile::oracle(), CORES, 5);
            crate::record_trace(&path, CORES as u32, trace, records as u64).unwrap();
            let spec = WorkloadSpec::replay(path.to_str().unwrap());

            let mut ahead = spec.stream(CORES, 0).unwrap();
            let refs: Vec<MemRef> = ahead.by_ref().take(records).collect();
            assert_eq!(refs, first(spec.stream_inline(CORES, 0).unwrap(), records));
            assert_eq!(refs.len(), records);
            assert_eq!(ahead.next(), None, "{records} records");
            assert_eq!(ahead.next(), None, "the end stays the end");
            std::fs::remove_file(&path).ok();
        }
    }

    /// Drops `stream` on a thread of its own and fails unless the drop
    /// returns within a deadline.
    fn drops_promptly(stream: Box<dyn TraceStream>) {
        let (done_tx, done) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            drop(stream);
            done_tx.send(()).unwrap();
        });
        assert!(
            done.recv_timeout(Duration::from_secs(20)).is_ok(),
            "dropping the stream hung"
        );
    }

    #[test]
    fn dropping_never_hangs() {
        let spec = WorkloadSpec::from(WorkloadProfile::apache());

        // Before the first `next`.
        drops_promptly(spec.stream(CORES, 1).unwrap());

        // In the middle of a batch.
        let mut stream = spec.stream(CORES, 1).unwrap();
        assert_eq!(
            stream.by_ref().take(AHEAD_BATCH / 2).count(),
            AHEAD_BATCH / 2
        );
        drops_promptly(stream);

        // With the helper blocked on a full lane: nothing was pulled, so
        // the lane holds two batches when the helper finishes its third,
        // whose send then blocks.
        let (filled_tx, filled) = std::sync::mpsc::channel();
        let inner = Signalling {
            inner: TraceGenerator::new(WorkloadProfile::apache(), CORES, 1),
            yielded: 0,
            filled: filled_tx,
        };
        let stream = AheadStream::new(Box::new(inner));
        filled.recv().unwrap();
        drops_promptly(Box::new(stream));
    }

    /// A generator that reports once it has yielded three batches.
    #[derive(Debug)]
    struct Signalling {
        inner: TraceGenerator,
        yielded: usize,
        filled: std::sync::mpsc::Sender<()>,
    }

    impl Iterator for Signalling {
        type Item = MemRef;

        fn next(&mut self) -> Option<MemRef> {
            self.yielded += 1;
            if self.yielded == (LANE_DEPTH + 1) * AHEAD_BATCH {
                self.filled.send(()).unwrap();
            }
            self.inner.next()
        }
    }
}
