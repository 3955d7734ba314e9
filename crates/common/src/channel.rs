//! Bounded channels for the directory service's lanes: the standard
//! library's [`sync_channel`](std::sync::mpsc::sync_channel) under the
//! names the service uses.
//!
//! The service (`ccd-service`) relies on four of its properties, each
//! pinned by a test below:
//!
//! * **FIFO per lane** — a worker observes exactly the order the router
//!   sent (the service's bit-identity argument);
//! * **backpressure** — [`Sender::send`] blocks while the lane is full, so
//!   the producer runs exactly as fast as the consumer drains;
//! * **crash detection** — dropping the [`Receiver`] (a worker unwinding)
//!   fails every later *and every blocked* `send`, handing the value back;
//! * **end of stream** — dropping the last [`Sender`] ends
//!   [`Receiver::recv`] once the queue has drained, with no sentinel.
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
//! let sum: u32 = rx.iter().sum();
//! producer.join().unwrap();
//! assert_eq!(sum, (0..100).sum());
//! ```

pub use std::sync::mpsc::{Receiver, SyncSender as Sender};

/// Creates a lane able to hold up to `capacity` in-flight items.
///
/// # Panics
///
/// Panics when `capacity` is zero: the service always wants at least one
/// batch of pipelining, never a rendezvous.
#[must_use]
pub fn bounded<T>(capacity: usize) -> (Sender<T>, Receiver<T>) {
    assert!(capacity > 0, "channel capacity must be non-zero");
    std::sync::mpsc::sync_channel(capacity)
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "blocking and disconnect need a second thread on the other end of the lane"
)]
mod tests {
    use super::*;
    use std::sync::mpsc::TrySendError;

    #[test]
    fn transfers_in_fifo_order() {
        let (tx, rx) = bounded(3);
        for i in 0..3 {
            tx.send(i).unwrap();
        }
        assert_eq!(rx.try_iter().collect::<Vec<_>>(), [0, 1, 2]);
    }

    #[test]
    fn backpressure_blocks_until_the_consumer_drains() {
        let (tx, rx) = bounded(1);
        tx.send(0u64).unwrap();
        assert!(matches!(tx.try_send(1), Err(TrySendError::Full(1))));
        let producer = std::thread::spawn(move || {
            // Each of these blocks until the consumer frees a slot.
            for i in 1..=100u64 {
                tx.send(i).unwrap();
            }
        });
        let received: Vec<u64> = rx.iter().collect();
        producer.join().unwrap();
        assert_eq!(received, (0..=100).collect::<Vec<u64>>());
    }

    #[test]
    fn dropping_the_receiver_fails_a_blocked_send_and_returns_the_value() {
        let (tx, rx) = bounded(1);
        tx.send(1).unwrap();
        let blocked = std::thread::spawn(move || tx.send(2));
        std::thread::sleep(std::time::Duration::from_millis(20));
        drop(rx);
        assert_eq!(blocked.join().unwrap().unwrap_err().0, 2);
    }

    #[test]
    fn the_last_sender_drop_ends_recv_after_the_queue_drains() {
        let (tx, rx) = bounded(4);
        let tx2 = tx.clone();
        tx.send(1).unwrap();
        tx2.send(2).unwrap();
        drop(tx);
        assert_eq!(rx.recv(), Ok(1));
        drop(tx2);
        assert_eq!(rx.recv(), Ok(2));
        assert!(rx.recv().is_err());
    }
}
