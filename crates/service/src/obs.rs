//! The observability layer: the `obs-…` spec that arms it ([`ObsConfig`])
//! and the virtual-time flight recorder it fills.
//!
//! Observation must never perturb semantics (contract #11), so the config
//! deliberately has no clause that could: there is no sampling, no
//! truncation of metric values, and no time source.  The flight recorder
//! is a fixed-capacity ring of compact events stamped with *virtual time* —
//! a request sequence number supplied by the instrumented code — so a
//! recording of a deterministic run is itself reproducible: same config,
//! same recording, on every machine.  Recording one event is two word
//! writes and a counter bump; when the ring wraps, the oldest events are
//! overwritten, so a recording keeps the *last* `capacity` events.

use ccd_common::clause::Clauses;
use ccd_common::ConfigError;

/// The largest flight-recorder capacity a spec may request.  A cap keeps a
/// typo from allocating gigabytes of ring per worker.
const MAX_RING: usize = 1 << 24;

/// Bits of virtual time an event carries (wider stamps are truncated).
const VTIME_BITS: u32 = 40;
const VTIME_MASK: u64 = (1 << VTIME_BITS) - 1;

/// A parsed, validated observability spec.
///
/// A service is armed through `ServiceConfig::obs`, which
/// `ServiceConfig::with_obs_spec` fills; armed, it also gathers each
/// slice's depth distributions (`Directory::arm_depth_metrics`).
///
/// ```text
/// obs-ring4096-spans
/// └┬┘ └───┬───┘ └┬──┘
///  │      │      └ also record span begin/end events
///  │      └ per-worker flight-recorder ring of 4096 events
///  └ required prefix
/// ```
///
/// | clause     | meaning                                                   |
/// |------------|-----------------------------------------------------------|
/// | `ring<N>`  | flight-recorder capacity in events (power of two); absent or 0 disables event recording |
/// | `spans`    | record span begin/end pairs in addition to instant events (needs a `ring`) |
///
/// Each clause may appear once; the rules every spec grammar shares are
/// [`ccd_common::clause`]'s.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ObsConfig {
    label: String,
    ring: usize,
    spans: bool,
}

impl ObsConfig {
    /// Parses an `obs-…` spec string.
    ///
    /// # Errors
    ///
    /// [`ConfigError::Parse`] naming the offending clause; rejected inputs
    /// include a `ring` that is not a power of two, rings over 2^24
    /// events, `spans` without a ring, and any clause given twice.
    pub fn parse(spec: &str) -> Result<Self, ConfigError> {
        let mut clauses = Clauses::with_prefix("obs spec", "obs", spec)?;
        let (mut ring, mut spans) = (0usize, false);
        while let Some(clause) = clauses.next_clause() {
            if let Some(events) = clauses.value("ring", 0..=MAX_RING)? {
                if events != 0 && !events.is_power_of_two() {
                    return Err(clauses.invalid("is not a power of two"));
                }
                ring = events;
            } else if clause == "spans" {
                clauses.claim("spans")?;
                spans = true;
            } else {
                return Err(clauses.unknown());
            }
        }
        if spans && ring == 0 {
            return Err(clauses.error("`spans` requires a non-zero `ring`"));
        }
        let mut label = "obs".to_string();
        if ring > 0 {
            label.push_str(&format!("-ring{ring}"));
        }
        if spans {
            label.push_str("-spans");
        }
        Ok(ObsConfig { label, ring, spans })
    }

    /// The canonical spec string (clauses in a fixed order), parseable back
    /// into an equal config.
    #[must_use]
    pub fn label(&self) -> &str {
        &self.label
    }

    /// A fresh flight recorder, or `None` when the config has no ring.
    pub(crate) fn recorder(&self) -> Option<FlightRecorder> {
        (self.ring > 0).then(|| FlightRecorder::new(self.ring, self.spans))
    }
}

/// The kinds of events the service records.
///
/// Discriminants are packed into each event's first word; 3 through 7 are
/// retired kinds and read as no kind.
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
}

/// One event, packed into two `u64` words:
///
/// ```text
/// word 0: | kind (8 bits) | lane (16 bits) | virtual time (40 bits) |
/// word 1: | argument (64 bits)                                     |
/// ```
///
/// `lane` identifies the emitting entity (the worker index); `argument`
/// carries the event-specific payload (a batch length).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct RawEvent([u64; 2]);

impl RawEvent {
    /// Packs an event.  `vtime` keeps its low 40 bits.
    pub(crate) fn pack(kind: EventKind, lane: u16, vtime: u64, arg: u64) -> RawEvent {
        let word0 = ((kind as u64) << 56) | (u64::from(lane) << VTIME_BITS) | (vtime & VTIME_MASK);
        RawEvent([word0, arg])
    }

    /// The event kind, or `None` for a word no kind packs to.
    #[must_use]
    pub fn kind(self) -> Option<EventKind> {
        EventKind::from_u8((self.0[0] >> 56) as u8)
    }

    /// The emitting lane (the worker index).
    #[must_use]
    pub fn lane(self) -> u16 {
        (self.0[0] >> VTIME_BITS) as u16
    }

    /// The event argument.
    #[must_use]
    pub fn arg(self) -> u64 {
        self.0[1]
    }
}

/// A fixed-capacity, overwrite-oldest ring of [`RawEvent`]s.
#[derive(Clone, Debug)]
pub(crate) struct FlightRecorder {
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
    pub(crate) fn new(capacity: usize, spans: bool) -> FlightRecorder {
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

    /// Records one instant event.  Never allocates.
    pub(crate) fn record(&mut self, kind: EventKind, lane: u16, vtime: u64, arg: u64) {
        let slot = (self.next & (self.ring.len() as u64 - 1)) as usize;
        self.ring[slot] = RawEvent::pack(kind, lane, vtime, arg);
        self.next += 1;
    }

    /// Records a span opening, if spans are armed.
    pub(crate) fn span_begin(&mut self, lane: u16, vtime: u64, arg: u64) {
        if self.spans {
            self.record(EventKind::SpanBegin, lane, vtime, arg);
        }
    }

    /// Records a span close, if spans are armed.
    pub(crate) fn span_end(&mut self, lane: u16, vtime: u64, arg: u64) {
        if self.spans {
            self.record(EventKind::SpanEnd, lane, vtime, arg);
        }
    }

    /// Snapshots the ring into a chronological (oldest-first) recording.
    pub(crate) fn finish(&self) -> FlightRecording {
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

/// A chronological snapshot of one flight-recorder ring.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FlightRecording {
    /// The ring capacity the recorder ran with.
    pub capacity: u64,
    /// Total events recorded over the run (retained = `events.len()`).
    pub recorded: u64,
    /// The retained events, oldest first.
    pub events: Vec<RawEvent>,
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
            assert_eq!(event.0[0] & VTIME_MASK, vtime & VTIME_MASK);
            assert_eq!(event.arg(), arg);
        }
        // Retired codes read as no kind, never as a live one.
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
        let args: Vec<u64> = recording.events.iter().map(|e| e.arg()).collect();
        assert_eq!(
            args,
            vec![600, 700, 800, 900],
            "oldest-first, newest retained"
        );
    }

    #[test]
    fn span_events_are_noops_unless_armed() {
        let mut disarmed = FlightRecorder::new(8, false);
        disarmed.span_begin(1, 10, 0);
        disarmed.span_end(1, 20, 0);
        assert_eq!(disarmed.finish().recorded, 0);

        let mut armed = FlightRecorder::new(8, true);
        armed.span_begin(1, 10, 42);
        armed.span_end(1, 20, 42);
        let events = armed.finish().events;
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].kind(), Some(EventKind::SpanBegin));
        assert_eq!(events[1].kind(), Some(EventKind::SpanEnd));
        assert_eq!(events[0].arg(), events[1].arg());
    }
}
