//! The virtual-time flight recorder.
//!
//! A [`FlightRecorder`] is a fixed-capacity ring of compact binary events.
//! Every event is stamped with *virtual time* — a request sequence number
//! supplied by the instrumented code —
//! never wall-clock time, so a recording of a deterministic run is itself
//! bit-reproducible: same config, same recording bytes, on every machine.
//!
//! The steady state allocates nothing: the ring is sized once at
//! construction and recording one event is two word writes plus a counter
//! bump.  When the ring wraps, the oldest events are overwritten — a flight
//! recorder keeps the *last* `capacity` events, which is what post-mortems
//! want.
//!
//! Events pack into two `u64` words:
//!
//! ```text
//! word 0: | kind (8 bits) | lane (16 bits) | virtual time (40 bits) |
//! word 1: | argument (64 bits)                                     |
//! ```
//!
//! `lane` identifies the emitting entity within a worker (usually a global
//! shard index, or the worker index for router-side events); `argument`
//! carries the event-specific payload (a batch length, a span's argument).

use ccd_common::{ConfigError, Fnv64};

/// Bits of virtual time an event can carry (wider stamps are truncated).
pub const VTIME_BITS: u32 = 40;

const VTIME_MASK: u64 = (1 << VTIME_BITS) - 1;
const MAGIC: u64 = u64::from_le_bytes(*b"CCDOBS01");
/// Serialized sizes: the header is four words (magic, capacity, recorded,
/// event count), an event two.
const HEADER_BYTES: usize = 32;
const EVENT_BYTES: usize = 16;

/// The kinds of events the service stack records.
///
/// Discriminants are part of the recording byte format; append new kinds,
/// never renumber or reuse (3 through 7 are retired kinds).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum EventKind {
    /// The router handed a batch to a worker (`lane` = worker, arg = len).
    BatchRouted = 1,
    /// A worker applied a batch (`lane` = worker, arg = len).
    BatchApplied = 2,
    /// A span opened (`lane`/arg defined by the span site).
    SpanBegin = 8,
    /// A span closed, paired with the [`EventKind::SpanBegin`] sharing its
    /// lane and argument.
    SpanEnd = 9,
}

impl EventKind {
    fn from_u8(raw: u8) -> Option<EventKind> {
        Some(match raw {
            1 => EventKind::BatchRouted,
            2 => EventKind::BatchApplied,
            8 => EventKind::SpanBegin,
            9 => EventKind::SpanEnd,
            _ => return None,
        })
    }

    /// The event name used by [`FlightRecording::render_text`].
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            EventKind::BatchRouted => "batch-routed",
            EventKind::BatchApplied => "batch-applied",
            EventKind::SpanBegin => "span-begin",
            EventKind::SpanEnd => "span-end",
        }
    }
}

/// One packed event: see the module docs for the layout.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct RawEvent([u64; 2]);

impl RawEvent {
    /// Packs an event.  `vtime` keeps its low [`VTIME_BITS`] bits.
    #[must_use]
    pub fn pack(kind: EventKind, lane: u16, vtime: u64, arg: u64) -> RawEvent {
        let word0 = ((kind as u64) << 56) | (u64::from(lane) << VTIME_BITS) | (vtime & VTIME_MASK);
        RawEvent([word0, arg])
    }

    /// The event kind, or `None` for a corrupt word.
    #[must_use]
    pub fn kind(self) -> Option<EventKind> {
        EventKind::from_u8((self.0[0] >> 56) as u8)
    }

    /// The emitting lane (global shard or worker index).
    #[must_use]
    pub fn lane(self) -> u16 {
        (self.0[0] >> VTIME_BITS) as u16
    }

    /// The virtual-time stamp (low [`VTIME_BITS`] bits of the original).
    #[must_use]
    pub fn vtime(self) -> u64 {
        self.0[0] & VTIME_MASK
    }

    /// The event argument.
    #[must_use]
    pub fn arg(self) -> u64 {
        self.0[1]
    }

    const fn words(self) -> [u64; 2] {
        self.0
    }
}

/// A fixed-capacity, overwrite-oldest ring of [`RawEvent`]s.
#[derive(Clone, Debug)]
pub struct FlightRecorder {
    ring: Vec<RawEvent>,
    next: u64,
    spans: bool,
}

impl FlightRecorder {
    /// Creates a recorder holding the most recent `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics unless `capacity` is a non-zero power of two (the spec
    /// grammar guarantees this for parsed configs).
    #[must_use]
    pub fn new(capacity: usize, spans: bool) -> FlightRecorder {
        assert!(
            capacity.is_power_of_two(),
            "flight-recorder capacity must be a power of two, got {capacity}"
        );
        FlightRecorder {
            ring: vec![RawEvent::default(); capacity],
            next: 0,
            spans,
        }
    }

    /// The ring capacity in events.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.ring.len()
    }

    /// Total events ever recorded (may exceed capacity once wrapped).
    #[must_use]
    pub fn recorded(&self) -> u64 {
        self.next
    }

    /// Whether span events are armed.
    #[must_use]
    pub fn spans(&self) -> bool {
        self.spans
    }

    /// Records one instant event.  Never allocates.
    pub fn record(&mut self, kind: EventKind, lane: u16, vtime: u64, arg: u64) {
        let slot = (self.next & (self.ring.len() as u64 - 1)) as usize;
        self.ring[slot] = RawEvent::pack(kind, lane, vtime, arg);
        self.next += 1;
    }

    /// Records a span opening, if spans are armed.
    pub fn span_begin(&mut self, lane: u16, vtime: u64, arg: u64) {
        if self.spans {
            self.record(EventKind::SpanBegin, lane, vtime, arg);
        }
    }

    /// Records a span close, if spans are armed.
    pub fn span_end(&mut self, lane: u16, vtime: u64, arg: u64) {
        if self.spans {
            self.record(EventKind::SpanEnd, lane, vtime, arg);
        }
    }

    /// Snapshots the ring into a chronological (oldest-first) recording.
    #[must_use]
    pub fn finish(&self) -> FlightRecording {
        let capacity = self.ring.len() as u64;
        let retained = self.next.min(capacity);
        let start = self.next - retained;
        let events = (start..self.next)
            .map(|i| self.ring[(i & (capacity - 1)) as usize])
            .collect();
        FlightRecording {
            capacity,
            recorded: self.next,
            events,
        }
    }
}

/// A chronological snapshot of a [`FlightRecorder`] ring, with a stable
/// binary serialization for post-mortem tooling (`trace_dump`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FlightRecording {
    /// The ring capacity the recorder ran with.
    pub capacity: u64,
    /// Total events recorded over the run (retained = `events.len()`).
    pub recorded: u64,
    /// The retained events, oldest first.
    pub events: Vec<RawEvent>,
}

impl FlightRecording {
    /// Serializes the recording: a magic word, the header, then the packed
    /// events, all little-endian `u64`s.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER_BYTES + EVENT_BYTES * self.events.len());
        for word in [
            MAGIC,
            self.capacity,
            self.recorded,
            self.events.len() as u64,
        ] {
            out.extend_from_slice(&word.to_le_bytes());
        }
        for event in &self.events {
            for word in event.words() {
                out.extend_from_slice(&word.to_le_bytes());
            }
        }
        out
    }

    /// Parses bytes produced by [`FlightRecording::to_bytes`].
    ///
    /// # Errors
    ///
    /// [`ConfigError::Parse`] on a short header, a bad magic word, an event
    /// count the bytes after the header do not hold exactly, or an event
    /// with an unknown kind.
    pub fn from_bytes(bytes: &[u8]) -> Result<FlightRecording, ConfigError> {
        let read_words = |bytes: &[u8]| -> Vec<u64> {
            let word = |c: &[u8]| u64::from_le_bytes(std::array::from_fn(|i| c[i]));
            bytes.chunks_exact(8).map(word).collect()
        };
        let [magic, capacity, recorded, count] =
            read_words(&bytes[..bytes.len().min(HEADER_BYTES)])[..]
        else {
            return Err(ConfigError::parse(format!(
                "flight recording of {} bytes lacks its {HEADER_BYTES}-byte header",
                bytes.len()
            )));
        };
        if magic != MAGIC {
            return Err(ConfigError::parse(
                "not a flight recording (bad magic)".to_string(),
            ));
        }
        // The header is trusted for nothing: the count must account for
        // every byte after it before anything is allocated.
        let body = &bytes[HEADER_BYTES..];
        if count.checked_mul(EVENT_BYTES as u64) != Some(body.len() as u64) {
            return Err(ConfigError::parse(format!(
                "flight recording declares {count} events, but {} bytes follow its \
                 header ({EVENT_BYTES} an event)",
                body.len()
            )));
        }
        let events = read_words(body)
            .chunks_exact(2)
            .enumerate()
            .map(|(i, pair)| {
                let event = RawEvent([pair[0], pair[1]]);
                event.kind().map(|_| event).ok_or_else(|| {
                    ConfigError::parse(format!(
                        "flight recording event {i} has unknown kind {}",
                        pair[0] >> 56
                    ))
                })
            })
            .collect::<Result<_, _>>()?;
        Ok(FlightRecording {
            capacity,
            recorded,
            events,
        })
    }

    /// An order-sensitive FNV digest of the full recording, for
    /// bit-reproducibility assertions.
    #[must_use]
    pub fn digest(&self) -> u64 {
        let mut digest = Fnv64::new();
        digest.fold(self.capacity).fold(self.recorded);
        for event in &self.events {
            for word in event.words() {
                digest.fold(word);
            }
        }
        digest.finish()
    }

    /// Pretty-prints the recording, one event per line, for `trace_dump`.
    #[must_use]
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = format!(
            "flight recording: {} events retained of {} recorded (ring {})\n",
            self.events.len(),
            self.recorded,
            self.capacity
        );
        for event in &self.events {
            let kind = event.kind().map_or("corrupt", EventKind::name);
            let _ = writeln!(
                out,
                "  vt={:>12} {:<14} lane={:<5} arg={}",
                event.vtime(),
                kind,
                event.lane(),
                event.arg()
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_pack_and_unpack_across_extremes() {
        for (kind, lane, vtime, arg) in [
            (EventKind::BatchRouted, 0u16, 0u64, 0u64),
            (EventKind::SpanEnd, u16::MAX, VTIME_MASK, u64::MAX),
            (EventKind::SpanBegin, 513, 1 << 39, 4096),
            // Virtual time wider than 40 bits truncates, nothing bleeds
            // into the lane or kind fields.
            (EventKind::BatchApplied, 7, u64::MAX, 3),
        ] {
            let event = RawEvent::pack(kind, lane, vtime, arg);
            assert_eq!(event.kind(), Some(kind));
            assert_eq!(event.lane(), lane);
            assert_eq!(event.vtime(), vtime & VTIME_MASK);
            assert_eq!(event.arg(), arg);
        }
        // Retired codes read as corrupt words, never as a live kind.
        for retired in 3..=7u64 {
            assert_eq!(RawEvent([retired << 56, 0]).kind(), None, "{retired}");
        }
    }

    #[test]
    fn ring_keeps_the_most_recent_events_once_wrapped() {
        let mut rec = FlightRecorder::new(4, false);
        for i in 0..10u64 {
            rec.record(EventKind::BatchApplied, 1, i, i * 100);
        }
        let recording = rec.finish();
        assert_eq!(recording.recorded, 10);
        assert_eq!(recording.capacity, 4);
        let vtimes: Vec<u64> = recording.events.iter().map(|e| e.vtime()).collect();
        assert_eq!(vtimes, vec![6, 7, 8, 9], "oldest-first, newest retained");
    }

    #[test]
    fn span_events_are_noops_unless_armed() {
        let mut disarmed = FlightRecorder::new(8, false);
        disarmed.span_begin(1, 10, 0);
        disarmed.span_end(1, 20, 0);
        assert_eq!(disarmed.recorded(), 0);

        let mut armed = FlightRecorder::new(8, true);
        armed.span_begin(1, 10, 42);
        armed.span_end(1, 20, 42);
        let events = armed.finish().events;
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].kind(), Some(EventKind::SpanBegin));
        assert_eq!(events[1].kind(), Some(EventKind::SpanEnd));
        assert_eq!(events[0].arg(), events[1].arg());
    }

    #[test]
    fn recordings_serialize_round_trip_and_digest_is_stable() {
        let mut rec = FlightRecorder::new(16, true);
        rec.record(EventKind::BatchRouted, 2, 100, 8);
        rec.record(EventKind::BatchApplied, 2, 100, 8);
        rec.span_begin(2, 150, 37);
        rec.span_end(2, 190, 37);
        let recording = rec.finish();
        let bytes = recording.to_bytes();
        let parsed = FlightRecording::from_bytes(&bytes).unwrap();
        assert_eq!(parsed, recording);
        assert_eq!(parsed.digest(), recording.digest());
        // Any flipped word changes the digest.
        let mut tampered = recording.clone();
        tampered.events[0] = RawEvent::pack(EventKind::BatchRouted, 2, 101, 8);
        assert_ne!(tampered.digest(), recording.digest());
    }

    #[test]
    fn from_bytes_rejects_corrupt_input() {
        let mut rec = FlightRecorder::new(4, false);
        rec.record(EventKind::BatchRouted, 0, 5, 8);
        let good = rec.finish().to_bytes();
        assert!(FlightRecording::from_bytes(&good[..good.len() - 3]).is_err());
        assert!(FlightRecording::from_bytes(&good[..16]).is_err());
        let mut bad_magic = good.clone();
        bad_magic[0] ^= 0xFF;
        assert!(FlightRecording::from_bytes(&bad_magic).is_err());
        let mut bad_kind = good.clone();
        bad_kind[39] = 0xEE; // the kind byte of event 0's word 0
        assert!(FlightRecording::from_bytes(&bad_kind).is_err());
        assert!(FlightRecording::from_bytes(&[]).is_err());
    }

    /// A recording of `events` batch-routed events.
    fn recording_of(events: u64) -> Vec<u8> {
        let mut rec = FlightRecorder::new(8, false);
        for i in 0..events {
            rec.record(EventKind::BatchRouted, 1, i, 64);
        }
        rec.finish().to_bytes()
    }

    #[test]
    fn an_event_count_the_bytes_cannot_hold_is_rejected_naming_both_numbers() {
        for count in [u64::MAX, u64::MAX / 16 + 1, 1 << 40, 4] {
            let mut lying = recording_of(3);
            lying[24..32].copy_from_slice(&count.to_le_bytes());
            let err = FlightRecording::from_bytes(&lying).unwrap_err().to_string();
            assert!(
                err.contains(&format!("declares {count} events, but 48 bytes")),
                "{err}"
            );
        }
    }

    #[test]
    fn words_after_the_declared_events_are_rejected() {
        for extra in [8, 16] {
            let mut padded = recording_of(2);
            padded.resize(padded.len() + extra, 0);
            let err = FlightRecording::from_bytes(&padded)
                .unwrap_err()
                .to_string();
            let body = 32 + extra;
            assert!(
                err.contains(&format!("declares 2 events, but {body} bytes")),
                "{err}"
            );
        }
    }
}
