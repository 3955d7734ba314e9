//! Bounded multi-producer/single-consumer channels with blocking
//! backpressure, deterministic timeouts and observable shutdown.
//!
//! The directory service (`ccd-service`) moves batches of coherence
//! requests from an ingestion frontend to shard-owning worker threads over
//! these channels.  The send/recv semantics are deliberately close to
//! `std::sync::mpsc::sync_channel` — which would also work — but the
//! service's determinism contract *depends* on the exact channel behavior,
//! so the primitive lives in-tree where its load-bearing properties are
//! pinned by this module's own tests rather than inherited implicitly:
//!
//! * **bounded backpressure** — [`Sender::send`] *blocks* when the ring is
//!   full, which is what turns an open-loop generator into a closed-loop
//!   one: the producer runs exactly as fast as the consumer drains;
//! * **FIFO per channel** — the order a worker observes is exactly the
//!   order the router sent (the service's bit-identity argument);
//! * **observable disconnects** — dropping the [`Receiver`] clears the
//!   backlog and fails every subsequent (and blocked) `send`, returning
//!   the rejected value; dropping the last [`Sender`] drains the queue and
//!   then ends [`Receiver::recv`] with [`RecvError::Disconnected`] — no
//!   sentinel messages.  [`Sender::shutdown`] is the third, *explicit*
//!   close: it discards the backlog immediately and surfaces as
//!   [`RecvError::Shutdown`], so a consumer can tell a natural
//!   end-of-stream from a supervisor-ordered abort;
//! * **virtual-tick timeouts** — [`Sender::send_timeout`] bounds its
//!   blocking in *ticks* (bounded condvar wait rounds of [`TICK`]), never
//!   by reading the wall clock, so the resilient retry path built on it
//!   ([`Backoff`]) stays compatible with the `no-wallclock` lint rule and
//!   with deterministic replay: a timeout can change *when* work happens,
//!   never *what* the result is;
//! * **introspection** — queue depth and capacity are observable from both
//!   ends ([`Receiver::len`], [`Sender::len`], [`Sender::capacity`]), which
//!   the tests, the service's admission-control accounting and diagnostics
//!   use to assert occupancy directly.  Depth reads are lock-free (an
//!   atomic mirror of the queue length), so monitoring never contends with
//!   the transfer path.
//!
//! The implementation is a fixed-capacity ring (`VecDeque` that never grows
//! past its capacity) behind one mutex and two condition variables; `send`
//! and `recv` are each one lock acquisition in the un-contended fast path.
//! The sender count, receiver liveness flag and shutdown flag deliberately
//! stay *inside* the mutex rather than becoming atomics: the blocked-side
//! checks (`recv` testing `senders == 0`, `send` testing `receiver_alive`)
//! must happen while holding the lock the condvar re-acquires, or a
//! disconnect between the check and the wait would be a classic lost
//! wakeup.  The depth mirror is the one piece of state outside the mutex;
//! every queue mutation refreshes it through the internal `sync_depth`
//! helper *while
//! still holding the lock*, so no code path can leave it stale (the
//! shutdown and timeout paths included).
//!
//! ```
//! use ccd_common::channel::bounded;
//!
//! let (tx, rx) = bounded::<u32>(4);
//! let producer = std::thread::spawn(move || {
//!     for i in 0..100 {
//!         tx.send(i).expect("receiver alive");
//!     }
//! });
//! let sum: u32 = std::iter::from_fn(|| rx.recv().ok()).sum();
//! producer.join().unwrap();
//! assert_eq!(sum, (0..100).sum());
//! ```

use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// One *virtual tick*: the bounded condvar wait quantum behind
/// [`Sender::send_timeout`].
///
/// Timeouts are counted in wait rounds, not in elapsed wall-clock time:
/// a budget of `n` ticks bounds the call to at most `n` re-checks of the
/// channel state, each waiting at most this long.  Nothing reads a clock,
/// and no result ever depends on how long a tick really took.
pub const TICK: Duration = Duration::from_micros(100);

/// Creates a bounded channel able to hold up to `capacity` in-flight items.
///
/// # Panics
///
/// Panics when `capacity` is zero — a zero-slot ring could never transfer
/// an item (rendezvous semantics are deliberately unsupported; the service
/// always wants at least one batch of pipelining between producer and
/// consumer).
#[must_use]
pub fn bounded<T>(capacity: usize) -> (Sender<T>, Receiver<T>) {
    assert!(capacity > 0, "channel capacity must be non-zero");
    let shared = Arc::new(Shared {
        state: Mutex::new(State {
            queue: VecDeque::with_capacity(capacity),
            senders: 1,
            receiver_alive: true,
            shutdown: false,
        }),
        not_empty: Condvar::new(),
        not_full: Condvar::new(),
        depth: AtomicUsize::new(0),
        capacity,
    });
    (
        Sender {
            shared: Arc::clone(&shared),
        },
        Receiver { shared },
    )
}

struct State<T> {
    queue: VecDeque<T>,
    senders: usize,
    receiver_alive: bool,
    /// Set once by [`Sender::shutdown`]; never cleared.  Distinct from
    /// `receiver_alive == false` so the consumer can tell "the producer
    /// side ordered an abort" from "the producer side went away".
    shutdown: bool,
}

struct Shared<T> {
    state: Mutex<State<T>>,
    not_empty: Condvar,
    not_full: Condvar,
    /// Lock-free mirror of `state.queue.len()`, maintained *only* through
    /// [`Shared::sync_depth`] while holding the mutex and read without it
    /// ([`Receiver::len`], [`Sender::len`]).  Advisory: nothing
    /// synchronizes through it.
    depth: AtomicUsize,
    capacity: usize,
}

impl<T> Shared<T> {
    /// Refreshes the depth mirror from the queue length.
    ///
    /// Must be called by **every** path that mutates the queue, while the
    /// state mutex is still held — centralizing the store is what makes it
    /// impossible for a mutation path (the timeout and shutdown paths
    /// included) to leave the mirror transiently stale behind a released
    /// lock.
    fn sync_depth(&self, state: &State<T>) {
        // ordering: Release pairs with the Acquire loads in `len()` so a
        // reader that observes this store also observes every mirror store
        // that preceded it; the queue itself is only ever published by the
        // mutex, never by this counter.
        self.depth.store(state.queue.len(), Ordering::Release);
    }
}

/// The error returned by [`Sender::send`] when the [`Receiver`] is gone or
/// the channel was [shut down](Sender::shutdown); carries the rejected
/// value so the caller can recover it.
#[derive(PartialEq, Eq)]
pub struct SendError<T>(pub T);

impl<T> fmt::Debug for SendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("SendError(..)")
    }
}

impl<T> fmt::Display for SendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("sending on a closed channel (receiver gone or shut down)")
    }
}

impl<T> std::error::Error for SendError<T> {}

/// The error returned by [`Sender::send_timeout`]; every variant carries
/// the rejected value so retry loops can re-offer it without a clone.
#[derive(PartialEq, Eq)]
pub enum SendTimeoutError<T> {
    /// The tick budget ran out while the ring stayed full.  Retryable:
    /// the receiver is still alive.
    TimedOut(T),
    /// The receiver is gone or the channel was shut down.  Not retryable.
    Disconnected(T),
}

impl<T> fmt::Debug for SendTimeoutError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SendTimeoutError::TimedOut(_) => f.write_str("SendTimeoutError::TimedOut(..)"),
            SendTimeoutError::Disconnected(_) => f.write_str("SendTimeoutError::Disconnected(..)"),
        }
    }
}

impl<T> fmt::Display for SendTimeoutError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SendTimeoutError::TimedOut(_) => f.write_str("send timed out on a full channel"),
            SendTimeoutError::Disconnected(_) => {
                f.write_str("sending on a closed channel (receiver gone or shut down)")
            }
        }
    }
}

impl<T> std::error::Error for SendTimeoutError<T> {}

/// Why [`Receiver::recv`] returned no value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecvError {
    /// Every [`Sender`] was dropped and the queue is fully drained — the
    /// stream's natural end.  Sticky: all later calls return it too.
    Disconnected,
    /// [`Sender::shutdown`] closed the channel: the backlog was discarded
    /// and the consumer should abandon its stream.  Sticky.
    Shutdown,
}

impl fmt::Display for RecvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecvError::Disconnected => f.write_str("receiving on a channel with no senders left"),
            RecvError::Shutdown => f.write_str("receiving on a channel closed by shutdown"),
        }
    }
}

impl std::error::Error for RecvError {}

/// The producer half of a [`bounded`] channel.  Cloneable: any number of
/// threads may feed the same receiver.
pub struct Sender<T> {
    shared: Arc<Shared<T>>,
}

impl<T> fmt::Debug for Sender<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Sender")
            .field("capacity", &self.shared.capacity)
            .finish_non_exhaustive()
    }
}

impl<T> Sender<T> {
    /// Enqueues `value`, blocking while the channel is full (backpressure).
    ///
    /// # Errors
    ///
    /// Returns the value when the receiver has been dropped or the channel
    /// was [shut down](Sender::shutdown).
    pub fn send(&self, value: T) -> Result<(), SendError<T>> {
        let mut state = self.shared.state.lock().unwrap();
        loop {
            if state.shutdown || !state.receiver_alive {
                return Err(SendError(value));
            }
            if state.queue.len() < self.shared.capacity {
                state.queue.push_back(value);
                self.shared.sync_depth(&state);
                drop(state);
                self.shared.not_empty.notify_one();
                return Ok(());
            }
            state = self.shared.not_full.wait(state).unwrap();
        }
    }

    /// Enqueues `value`, waiting at most `ticks` bounded wait rounds (each
    /// of at most [`TICK`]) for a slot.  `ticks == 0` is a pure try.
    ///
    /// Every wait round counts against the budget whether it expired or
    /// was woken early, so the call is bounded in *rounds*, deterministically,
    /// rather than in wall-clock time.
    ///
    /// # Errors
    ///
    /// [`SendTimeoutError::TimedOut`] (retryable — see [`Backoff`]) when
    /// the budget ran out, [`SendTimeoutError::Disconnected`] when the
    /// receiver is gone or the channel was shut down.  Both return the
    /// value.
    pub fn send_timeout(&self, value: T, ticks: u32) -> Result<(), SendTimeoutError<T>> {
        let mut state = self.shared.state.lock().unwrap();
        let mut remaining = ticks;
        loop {
            if state.shutdown || !state.receiver_alive {
                return Err(SendTimeoutError::Disconnected(value));
            }
            if state.queue.len() < self.shared.capacity {
                state.queue.push_back(value);
                self.shared.sync_depth(&state);
                drop(state);
                self.shared.not_empty.notify_one();
                return Ok(());
            }
            if remaining == 0 {
                return Err(SendTimeoutError::TimedOut(value));
            }
            remaining -= 1;
            state = self.shared.not_full.wait_timeout(state, TICK).unwrap().0;
        }
    }

    /// Enqueues `value` only if a slot is free right now.
    ///
    /// # Errors
    ///
    /// Returns the value when the channel is full, the receiver is gone,
    /// or the channel was shut down (`full` distinguishes a full ring from
    /// the two closed cases).
    pub fn try_send(&self, value: T) -> Result<(), TrySendError<T>> {
        let mut state = self.shared.state.lock().unwrap();
        if state.shutdown || !state.receiver_alive {
            return Err(TrySendError { value, full: false });
        }
        if state.queue.len() == self.shared.capacity {
            return Err(TrySendError { value, full: true });
        }
        state.queue.push_back(value);
        self.shared.sync_depth(&state);
        drop(state);
        self.shared.not_empty.notify_one();
        Ok(())
    }

    /// Closes the channel by explicit shutdown: the backlog is discarded,
    /// a (possibly blocked) [`Receiver::recv`] returns
    /// [`RecvError::Shutdown`], and every subsequent send fails.
    ///
    /// Idempotent, and any sender clone may call it — the service's
    /// supervisor uses this to abort healthy workers promptly when a
    /// sibling crash is unrecoverable, instead of letting them drain a
    /// backlog whose results will be thrown away.
    pub fn shutdown(&self) {
        let mut state = self.shared.state.lock().unwrap();
        if state.shutdown {
            return;
        }
        state.shutdown = true;
        state.queue.clear();
        self.shared.sync_depth(&state);
        drop(state);
        // Both sides may be blocked: the receiver on an empty queue, other
        // senders on a full one.  Wake everyone to observe the shutdown.
        self.shared.not_empty.notify_all();
        self.shared.not_full.notify_all();
    }

    /// Number of items currently queued, from the producer side.
    ///
    /// Lock-free (see [`Receiver::len`]); the service's admission-control
    /// path reads this to observe standing queue pressure without touching
    /// the transfer lock.
    #[must_use]
    pub fn len(&self) -> usize {
        // ordering: Acquire pairs with the Release stores in `sync_depth`;
        // a monitoring read — no queue memory is accessed on the strength
        // of the returned value.
        self.shared.depth.load(Ordering::Acquire)
    }

    /// `true` when no items are queued.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The channel's fixed capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.shared.capacity
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.shared.state.lock().unwrap().senders += 1;
        Sender {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut state = self.shared.state.lock().unwrap();
        state.senders -= 1;
        if state.senders == 0 {
            drop(state);
            // Wake a receiver blocked on an empty queue so it can observe
            // the disconnect and return `RecvError::Disconnected`.
            self.shared.not_empty.notify_all();
        }
    }
}

/// The error returned by [`Sender::try_send`]; carries the rejected value.
#[derive(PartialEq, Eq)]
pub struct TrySendError<T> {
    /// The value that could not be enqueued.
    pub value: T,
    /// `true` when the channel was full, `false` when it is closed (the
    /// receiver is gone or [`Sender::shutdown`] was called).
    pub full: bool,
}

impl<T> fmt::Debug for TrySendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TrySendError")
            .field("full", &self.full)
            .finish_non_exhaustive()
    }
}

/// The consumer half of a [`bounded`] channel.  Not cloneable — exactly one
/// thread drains the ring, which is what lets the service keep its shards
/// lock-free.
pub struct Receiver<T> {
    shared: Arc<Shared<T>>,
}

impl<T> fmt::Debug for Receiver<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Receiver")
            .field("capacity", &self.shared.capacity)
            .finish_non_exhaustive()
    }
}

impl<T> Receiver<T> {
    /// Dequeues the next item, blocking while the channel is empty.
    ///
    /// # Errors
    ///
    /// [`RecvError::Disconnected`] once every sender has been dropped and
    /// the queue is drained (the stream's natural end), or
    /// [`RecvError::Shutdown`] when the channel was closed by
    /// [`Sender::shutdown`] (the backlog is gone; abandon the stream).
    /// Both are sticky.
    pub fn recv(&self) -> Result<T, RecvError> {
        let mut state = self.shared.state.lock().unwrap();
        loop {
            if state.shutdown {
                return Err(RecvError::Shutdown);
            }
            if let Some(value) = state.queue.pop_front() {
                self.shared.sync_depth(&state);
                drop(state);
                self.shared.not_full.notify_one();
                return Ok(value);
            }
            if state.senders == 0 {
                return Err(RecvError::Disconnected);
            }
            state = self.shared.not_empty.wait(state).unwrap();
        }
    }

    /// Dequeues the next item only if one is ready right now; never blocks
    /// and never distinguishes end-of-stream (use [`Receiver::recv`] for
    /// that).
    pub fn try_recv(&self) -> Option<T> {
        let mut state = self.shared.state.lock().unwrap();
        let value = state.queue.pop_front();
        if value.is_some() {
            self.shared.sync_depth(&state);
        }
        drop(state);
        if value.is_some() {
            self.shared.not_full.notify_one();
        }
        value
    }

    /// Number of items currently queued.
    ///
    /// Lock-free: reads an atomic mirror of the queue length, so
    /// monitoring never contends with `send`/`recv`.  Exact whenever the
    /// channel is quiescent; during concurrent transfers the value is a
    /// consistent recent snapshot (every mutation path refreshes the
    /// mirror before releasing the state lock via the internal `sync_depth`
    /// helper).
    #[must_use]
    pub fn len(&self) -> usize {
        // ordering: Acquire pairs with the Release stores in `sync_depth`;
        // a monitoring read — no queue memory is accessed on the strength
        // of the returned value.
        self.shared.depth.load(Ordering::Acquire)
    }

    /// `true` when no items are queued.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The channel's fixed capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.shared.capacity
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        let mut state = self.shared.state.lock().unwrap();
        state.receiver_alive = false;
        // Unsent items are dropped with the queue; senders blocked on a
        // full ring must wake up to observe the disconnect.
        state.queue.clear();
        self.shared.sync_depth(&state);
        drop(state);
        self.shared.not_full.notify_all();
    }
}

/// A deterministic bounded exponential backoff schedule, in virtual ticks.
///
/// Produces the tick budgets `start, 2·start, 4·start, …` capped at `max`
/// — the retry discipline the service's router uses around
/// [`Sender::send_timeout`]: each failed offer waits a (deterministically)
/// longer bounded interval before the next, so a stalled worker is probed
/// with geometrically decreasing frequency instead of being hammered, and
/// a crashed worker is still detected promptly (every expiry re-checks the
/// disconnect state).
///
/// ```
/// use ccd_common::channel::Backoff;
/// let mut backoff = Backoff::new(1, 8);
/// let budgets: Vec<u32> = (0..6).map(|_| backoff.next_ticks()).collect();
/// assert_eq!(budgets, [1, 2, 4, 8, 8, 8]);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Backoff {
    next: u32,
    max: u32,
}

impl Backoff {
    /// A schedule starting at `start` ticks and doubling up to `max`.
    ///
    /// # Panics
    ///
    /// Panics when `start` is zero or `max < start` — a zero-tick schedule
    /// would spin without ever waiting.
    #[must_use]
    pub const fn new(start: u32, max: u32) -> Self {
        assert!(start > 0, "backoff must start at a non-zero tick budget");
        assert!(max >= start, "backoff cap must be at least the start");
        Backoff { next: start, max }
    }

    /// Returns the next tick budget and advances the schedule.
    pub fn next_ticks(&mut self) -> u32 {
        let ticks = self.next;
        self.next = self.next.saturating_mul(2).min(self.max);
        ticks
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfers_in_fifo_order() {
        let (tx, rx) = bounded(2);
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        assert_eq!(rx.len(), 2);
        assert_eq!(tx.len(), 2);
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.recv(), Ok(2));
        assert!(rx.is_empty());
        assert!(tx.is_empty());
        assert_eq!(rx.capacity(), 2);
        assert_eq!(tx.capacity(), 2);
    }

    #[test]
    fn try_send_reports_a_full_ring() {
        let (tx, rx) = bounded(1);
        tx.try_send(7).unwrap();
        let err = tx.try_send(8).unwrap_err();
        assert!(err.full);
        assert_eq!(err.value, 8);
        assert_eq!(rx.try_recv(), Some(7));
        assert_eq!(rx.try_recv(), None);
        tx.try_send(9).unwrap();
        assert_eq!(rx.recv(), Ok(9));
    }

    #[test]
    fn try_send_succeeds_again_after_a_full_ring_drains() {
        // Full → rejected → drained → accepted, and the depth mirror
        // tracks every transition exactly.
        let (tx, rx) = bounded(2);
        tx.try_send(1).unwrap();
        tx.try_send(2).unwrap();
        assert_eq!(tx.len(), tx.capacity());
        assert!(tx.try_send(3).unwrap_err().full);
        assert_eq!(rx.try_recv(), Some(1));
        assert_eq!(tx.len(), 1);
        tx.try_send(3).unwrap();
        assert_eq!(tx.len(), tx.capacity());
        assert_eq!(rx.recv(), Ok(2));
        assert_eq!(rx.recv(), Ok(3));
        assert_eq!(rx.len(), 0);
    }

    #[test]
    fn dropping_all_senders_ends_the_stream_after_draining() {
        let (tx, rx) = bounded(4);
        let tx2 = tx.clone();
        tx.send(1).unwrap();
        tx2.send(2).unwrap();
        drop(tx);
        drop(tx2);
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.recv(), Ok(2));
        assert_eq!(rx.recv(), Err(RecvError::Disconnected));
        assert_eq!(
            rx.recv(),
            Err(RecvError::Disconnected),
            "end-of-stream is sticky"
        );
    }

    #[test]
    fn dropping_the_receiver_fails_senders() {
        let (tx, rx) = bounded(1);
        tx.send(1).unwrap();
        drop(rx);
        let err = tx.send(2).unwrap_err();
        assert_eq!(err.0, 2);
        let err = tx.try_send(3).unwrap_err();
        assert!(!err.full);
        assert_eq!(
            tx.send_timeout(4, 10).unwrap_err(),
            SendTimeoutError::Disconnected(4)
        );
    }

    #[test]
    fn backpressure_blocks_until_the_consumer_drains() {
        let (tx, rx) = bounded(1);
        tx.send(0u64).unwrap();
        let producer = std::thread::spawn(move || {
            // Each of these blocks until the consumer frees a slot.
            for i in 1..=100u64 {
                tx.send(i).unwrap();
            }
        });
        let mut received = Vec::new();
        while let Ok(v) = rx.recv() {
            received.push(v);
        }
        producer.join().unwrap();
        assert_eq!(received, (0..=100).collect::<Vec<u64>>());
    }

    #[test]
    fn a_sender_blocked_on_a_full_ring_unblocks_on_receiver_drop() {
        let (tx, rx) = bounded(1);
        tx.send(1).unwrap();
        let blocked = std::thread::spawn(move || tx.send(2));
        std::thread::sleep(std::time::Duration::from_millis(20));
        drop(rx);
        assert!(blocked.join().unwrap().is_err());
    }

    #[test]
    fn send_timeout_expires_on_a_full_ring_and_returns_the_value() {
        let (tx, rx) = bounded(1);
        tx.send(1).unwrap();
        // Zero ticks: a pure try.
        assert_eq!(
            tx.send_timeout(2, 0).unwrap_err(),
            SendTimeoutError::TimedOut(2)
        );
        // A small budget still expires while nothing drains.
        assert_eq!(
            tx.send_timeout(2, 3).unwrap_err(),
            SendTimeoutError::TimedOut(2)
        );
        // After a drain the same send goes through within the budget.
        assert_eq!(rx.recv(), Ok(1));
        tx.send_timeout(2, 3).unwrap();
        assert_eq!(rx.recv(), Ok(2));
    }

    #[test]
    fn shutdown_discards_the_backlog_and_is_sticky_on_both_sides() {
        let (tx, rx) = bounded(4);
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        tx.shutdown();
        tx.shutdown(); // idempotent
        assert_eq!(rx.len(), 0, "the backlog is discarded, mirror included");
        assert_eq!(rx.recv(), Err(RecvError::Shutdown));
        assert_eq!(rx.recv(), Err(RecvError::Shutdown), "shutdown is sticky");
        assert!(rx.try_recv().is_none());
        let err = tx.send(3).unwrap_err();
        assert_eq!(err.0, 3);
        assert!(!tx.try_send(4).unwrap_err().full);
        assert_eq!(
            tx.send_timeout(5, 2).unwrap_err(),
            SendTimeoutError::Disconnected(5)
        );
    }

    #[test]
    fn shutdown_wakes_a_blocked_receiver_and_a_blocked_sender() {
        let (tx, rx) = bounded::<u32>(1);
        let receiver = std::thread::spawn(move || rx.recv());
        std::thread::sleep(std::time::Duration::from_millis(10));
        tx.shutdown();
        assert_eq!(receiver.join().unwrap(), Err(RecvError::Shutdown));

        let (tx, rx) = bounded::<u32>(1);
        let tx2 = tx.clone();
        tx.send(1).unwrap();
        let blocked = std::thread::spawn(move || tx.send(2));
        std::thread::sleep(std::time::Duration::from_millis(10));
        tx2.shutdown(); // any sender clone may order the shutdown
        let err = blocked.join().unwrap().unwrap_err();
        assert_eq!(err.0, 2);
        drop(rx);
    }

    #[test]
    fn recv_after_last_sender_drop_distinguishes_disconnect_from_shutdown() {
        let (tx, rx) = bounded::<u32>(2);
        drop(tx);
        assert_eq!(rx.recv(), Err(RecvError::Disconnected));

        let (tx, rx) = bounded::<u32>(2);
        tx.shutdown();
        drop(tx);
        // Shutdown wins even after the senders are gone: the consumer must
        // know the backlog was discarded rather than drained.
        assert_eq!(rx.recv(), Err(RecvError::Shutdown));
    }

    #[test]
    fn timeout_interleaving_smoke_delivers_every_item_exactly_once() {
        // A loom-style stress: three producers using only the bounded
        // timeout+retry path, one blocking consumer, over a deliberately
        // tiny ring.  Every value must arrive exactly once.
        // (CI also runs this under ThreadSanitizer; the count shrinks under
        // Miri's interpreter like the statistical tests elsewhere.)
        const PRODUCERS: u64 = 3;
        #[cfg(not(miri))]
        const PER_PRODUCER: u64 = 200;
        #[cfg(miri)]
        const PER_PRODUCER: u64 = 20;
        let (tx, rx) = bounded::<u64>(2);
        let mut producers = Vec::new();
        for p in 0..PRODUCERS {
            let tx = tx.clone();
            producers.push(std::thread::spawn(move || {
                for i in 0..PER_PRODUCER {
                    let mut value = p * PER_PRODUCER + i;
                    let mut backoff = Backoff::new(1, 8);
                    loop {
                        match tx.send_timeout(value, backoff.next_ticks()) {
                            Ok(()) => break,
                            Err(SendTimeoutError::TimedOut(v)) => value = v,
                            Err(SendTimeoutError::Disconnected(_)) => {
                                panic!("receiver vanished mid-stream")
                            }
                        }
                    }
                }
            }));
        }
        drop(tx);
        let mut seen = vec![false; (PRODUCERS * PER_PRODUCER) as usize];
        loop {
            match rx.recv() {
                Ok(v) => {
                    assert!(!seen[v as usize], "value {v} delivered twice");
                    seen[v as usize] = true;
                }
                Err(RecvError::Disconnected) => break,
                Err(RecvError::Shutdown) => panic!("nothing shut this channel down"),
            }
        }
        for handle in producers {
            handle.join().unwrap();
        }
        assert!(seen.iter().all(|&s| s), "every value arrives exactly once");
    }

    #[test]
    fn backoff_doubles_and_saturates_at_the_cap() {
        let mut backoff = Backoff::new(2, 16);
        let budgets: Vec<u32> = (0..6).map(|_| backoff.next_ticks()).collect();
        assert_eq!(budgets, [2, 4, 8, 16, 16, 16]);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_capacity_is_rejected() {
        let _ = bounded::<u32>(0);
    }

    #[test]
    #[should_panic(expected = "non-zero tick budget")]
    fn zero_start_backoff_is_rejected() {
        let _ = Backoff::new(0, 4);
    }
}
