//! Outside-in tracing: a span around every call the benchmark makes into a
//! layer, kept in memory and written out when the run ends, plus the trial
//! loop every timed stage shares.

use crate::metrics::Values;
use crate::summary;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Operations between two timestamps of a [`Stamped`] iterator or a
/// chunked `apply_batch` loop.
pub const CHUNK_OPS: usize = 4096;

/// Spans a traced run records at most; the vector is sized once so
/// recording never reallocates inside a timed region.
const SPAN_CAPACITY: usize = 4096;

/// Timed rounds a traced stage makes at most.  The micro stages would
/// otherwise make thousands inside their share of the run.
const MAX_TRACED_ROUNDS: usize = 48;

/// The wall-clock interval of one timed call.
#[derive(Clone, Copy, Debug)]
pub struct Interval {
    pub start: Instant,
    pub end: Instant,
}

impl Interval {
    /// Times `work`, passing its result through `black_box` so the call
    /// cannot be optimized away.
    pub fn time<R>(work: impl FnOnce() -> R) -> (Interval, R) {
        let start = Instant::now();
        let result = std::hint::black_box(work());
        let end = Instant::now();
        (Interval { start, end }, result)
    }

    pub fn seconds(&self) -> f64 {
        self.end.duration_since(self.start).as_secs_f64()
    }
}

/// One timed call of a workload's primary call, cut into consecutive
/// segments by the timestamps the benchmark took while it ran: the stretch
/// before the first timestamp, every [`CHUNK_OPS`] operations, and the
/// stretch after the last.  The segments add up to the interval.
#[derive(Clone, Debug)]
pub struct Segmented {
    pub interval: Interval,
    /// Seconds per segment, in call order.
    pub segments: Vec<f64>,
}

impl Segmented {
    /// Cuts `interval` at `stamps` (taken inside it, in order).
    pub fn cut(interval: Interval, stamps: &[Instant]) -> Self {
        let mut segments = Vec::with_capacity(stamps.len() + 1);
        let mut last = interval.start;
        for &stamp in stamps.iter().chain([&interval.end]) {
            segments.push(stamp.duration_since(last).as_secs_f64());
            last = stamp;
        }
        Segmented { interval, segments }
    }

    /// Nanoseconds per operation of every full [`CHUNK_OPS`] chunk: the
    /// segments between the first (start-up) and the last (wind-down).
    pub fn chunk_ns_per_op(&self) -> impl Iterator<Item = f64> + '_ {
        let inner = self.segments.len().saturating_sub(1).max(1);
        self.segments[1..inner]
            .iter()
            .map(|seconds| seconds * 1e9 / CHUNK_OPS as f64)
    }

    /// Appends a later call's segments, for primary calls made of several
    /// calls back to back.
    pub fn then(mut self, next: Segmented) -> Self {
        self.interval.end = next.interval.end;
        self.segments.extend(next.segments);
        self
    }
}

/// One recorded span.  Spans of one stage share `parent`, the stage's own
/// span; `trial` 0 is the discarded warm-up.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    pub trial: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    pub ops: u64,
}

/// The timed trials of one stage, as nanoseconds per operation.
#[derive(Clone, Debug)]
pub struct Stage {
    pub ns_per_op: Vec<f64>,
}

impl Stage {
    /// The fastest timed trial.  Host interference only ever slows a trial
    /// down, so the minimum is the steadiest estimate of what the code
    /// itself costs (README.md, "Noise").
    pub fn best(&self) -> f64 {
        self.ns_per_op.iter().copied().fold(f64::INFINITY, f64::min)
    }
}

/// Records the spans of one traced run and runs its stages' trial loops.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(SPAN_CAPACITY),
        }
    }

    fn offset_ns(&self, at: Instant) -> u64 {
        at.duration_since(self.origin).as_nanos() as u64
    }

    /// Records one finished span and returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<u32>,
        trial: u32,
        interval: Interval,
        ops: u64,
    ) -> u32 {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            parent,
            name,
            trial,
            start_ns: self.offset_ns(interval.start),
            end_ns: self.offset_ns(interval.end),
            ops,
        });
        id
    }

    /// Runs `N` variants of a call as one stage each, interleaved round by
    /// round so that drift of the host hits every variant alike: a
    /// discarded round when `warmup` is set, then timed rounds until
    /// `budget` is spent and at least `min_rounds` were made.  `trial(i)`
    /// does variant `i`'s untimed preparation and returns the interval of
    /// the call it measures, which covers `ops` operations.
    pub fn rounds<const N: usize>(
        &mut self,
        names: [&'static str; N],
        ops: u64,
        budget: Duration,
        min_rounds: usize,
        warmup: bool,
        mut trial: impl FnMut(usize) -> Interval,
    ) -> [Stage; N] {
        let start = Instant::now();
        // The stage spans are recorded first so their trials can name
        // them; their ends are patched once the last round is in.
        let opened = Interval { start, end: start };
        let ids = names.map(|name| self.record(name, None, 0, opened, 0));
        if warmup {
            for (variant, name) in names.iter().enumerate() {
                let interval = trial(variant);
                self.record(name, Some(ids[variant]), 0, interval, ops);
            }
        }
        let mut samples: [Vec<f64>; N] = std::array::from_fn(|_| Vec::new());
        let mut rounds = 0;
        // A stage also stops at MAX_TRACED_ROUNDS, which is what keeps the
        // span vector within its capacity.
        while rounds < min_rounds || (start.elapsed() < budget && rounds < MAX_TRACED_ROUNDS) {
            rounds += 1;
            for (variant, name) in names.iter().enumerate() {
                let interval = trial(variant);
                self.record(name, Some(ids[variant]), rounds as u32, interval, ops);
                samples[variant].push(interval.seconds() * 1e9 / ops as f64);
            }
        }
        let end_ns = self.offset_ns(Instant::now());
        for id in ids {
            let span = &mut self.spans[id as usize];
            span.end_ns = end_ns;
            span.ops = ops * rounds as u64;
        }
        samples.map(|ns_per_op| Stage { ns_per_op })
    }

    /// [`Tracer::rounds`] for a single call.
    pub fn stage(
        &mut self,
        name: &'static str,
        ops: u64,
        budget: Duration,
        min_trials: usize,
        warmup: bool,
        mut trial: impl FnMut() -> Interval,
    ) -> Stage {
        let [stage] = self.rounds([name], ops, budget, min_trials, warmup, |_| trial());
        stage
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The span file: every span plus the traced run's per-layer values.
    pub fn to_json(&self, workload: &str, seed: u64, counts: &[(&str, f64)]) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{{\n  \"workload\": \"{workload}\",\n  \"seed\": {seed},\n  \"spans\": ["
        );
        for (index, span) in self.spans.iter().enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let comma = if index + 1 == self.spans.len() {
                ""
            } else {
                ","
            };
            let _ = writeln!(
                out,
                "    {{\"id\": {}, \"parent\": {parent}, \"name\": \"{}\", \"workload\": \
                 \"{workload}\", \"trial\": {}, \"start_ns\": {}, \"end_ns\": {}, \"ops\": {}}}{comma}",
                span.id, span.name, span.trial, span.start_ns, span.end_ns, span.ops
            );
        }
        let _ = writeln!(out, "  ],\n  \"counts\": {{");
        for (index, (name, value)) in counts.iter().enumerate() {
            let comma = if index + 1 == counts.len() { "" } else { "," };
            let _ = writeln!(out, "    \"{name}\": {value}{comma}");
        }
        out.push_str("  }\n}\n");
        out
    }
}

/// An iterator adapter that notes the time every [`CHUNK_OPS`] items the
/// consumer pulls — how the benchmark sees inside a call that takes a
/// whole request stream.
pub struct Stamped<I> {
    inner: I,
    pulled: usize,
    stamps: Vec<Instant>,
}

impl<I: Iterator> Stamped<I> {
    /// Wraps `inner`, which will yield about `expected` items.
    pub fn new(inner: I, expected: usize) -> Self {
        Stamped {
            inner,
            pulled: 0,
            stamps: Vec::with_capacity(expected / CHUNK_OPS + 2),
        }
    }

    /// The timestamps taken so far: one before item 0, 4096, 8192, …
    pub fn into_stamps(self) -> Vec<Instant> {
        self.stamps
    }
}

impl<I: Iterator> Iterator for Stamped<I> {
    type Item = I::Item;

    #[inline]
    fn next(&mut self) -> Option<I::Item> {
        if self.pulled.is_multiple_of(CHUNK_OPS) {
            self.stamps.push(Instant::now());
        }
        self.pulled += 1;
        self.inner.next()
    }
}

/// Sets the `chunk.*` metrics from a traced stage's chunk samples: what
/// they say about the tail behind the median.  The p99 stays 0 when fewer
/// than ten samples lie beyond it.
pub fn report_chunks(samples: &[f64], values: &mut Values) {
    values.set("chunk.samples", samples.len() as f64);
    if samples.is_empty() {
        return;
    }
    values.set("chunk.p50_ns_per_op", summary::percentile(samples, 50.0));
    if summary::highest_supported_percentile(samples.len()).is_some_and(|p| p >= 99.0) {
        values.set("chunk.p99_ns_per_op", summary::percentile(samples, 99.0));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_discards_the_warmup_and_honours_min_trials() {
        let mut tracer = Tracer::new();
        let mut calls = 0;
        let stage = tracer.stage("unit", 10, Duration::ZERO, 3, true, || {
            calls += 1;
            Interval::time(|| std::thread::sleep(Duration::from_micros(50))).0
        });
        assert_eq!(calls, 4, "one warm-up and three timed trials");
        assert_eq!(stage.ns_per_op.len(), 3);
        assert!(stage.best() >= 5_000.0, "50 µs over 10 ops");
        // One stage span, then warm-up + trials as its children.
        let spans = tracer.spans();
        assert_eq!(spans.len(), 5);
        assert_eq!((spans[0].parent, spans[0].ops), (None, 30));
        assert!(spans[1..].iter().all(|s| s.parent == Some(0)));
        assert_eq!(spans[1].trial, 0);
        assert!(spans[0].end_ns >= spans[4].end_ns);
        let json = tracer.to_json("unit_wl", 7, &[("a.b", 1.5)]);
        assert!(json.contains("\"seed\": 7") && json.contains("\"a.b\": 1.5"));
        assert_eq!(json.matches("\"id\"").count(), 5);
    }

    #[test]
    fn rounds_interleave_their_variants_and_cap_traced_stages() {
        let mut tracer = Tracer::new();
        let mut order = Vec::new();
        let [a, b] = tracer.rounds(["a", "b"], 1, Duration::from_secs(3600), 2, false, |v| {
            order.push(v);
            Interval::time(|| ()).0
        });
        assert_eq!(
            a.ns_per_op.len(),
            MAX_TRACED_ROUNDS,
            "the cap ends an endless budget"
        );
        assert_eq!(b.ns_per_op.len(), MAX_TRACED_ROUNDS);
        assert_eq!(order[..4], [0, 1, 0, 1]);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2 + 2 * MAX_TRACED_ROUNDS);
        assert!(
            spans.len() * 30 < SPAN_CAPACITY,
            "thirty stages fit the span vector"
        );
        assert_eq!((spans[2].name, spans[2].parent), ("a", Some(0)));
        assert_eq!((spans[3].name, spans[3].parent), ("b", Some(1)));
    }

    #[test]
    fn segments_add_up_to_the_interval() {
        let start = Instant::now();
        let at = |ms: u64| start + Duration::from_millis(ms);
        let interval = Interval { start, end: at(10) };
        let cut = Segmented::cut(interval, &[at(1), at(4)]);
        assert_eq!(cut.segments, vec![0.001, 0.003, 0.006]);
        let per_op: Vec<f64> = cut.chunk_ns_per_op().collect();
        assert_eq!(per_op, vec![0.003 * 1e9 / CHUNK_OPS as f64]);
        let both = cut.then(Segmented::cut(
            Interval {
                start: at(12),
                end: at(15),
            },
            &[],
        ));
        assert_eq!(both.segments, vec![0.001, 0.003, 0.006, 0.003]);
        assert_eq!(both.interval.seconds(), 0.015);
    }

    #[test]
    fn stamped_iterators_mark_every_chunk() {
        let mut stamped = Stamped::new(0..(3 * CHUNK_OPS + 5), 3 * CHUNK_OPS + 5);
        assert_eq!(stamped.by_ref().count(), 3 * CHUNK_OPS + 5);
        let stamps = stamped.into_stamps();
        assert_eq!(stamps.len(), 4, "stamps at 0, 4096, 8192 and 12288");
    }

    #[test]
    fn chunk_tail_needs_a_thousand_samples() {
        let summarize = |samples: &[f64]| {
            let mut values = Values::new(&crate::metrics::PER_LAYER);
            report_chunks(samples, &mut values);
            [
                "chunk.p50_ns_per_op",
                "chunk.p99_ns_per_op",
                "chunk.samples",
            ]
            .map(|name| values.get(name))
        };
        let few: Vec<f64> = (0..500).map(f64::from).collect();
        assert_eq!(summarize(&few), [Some(249.0), None, Some(500.0)]);
        let many: Vec<f64> = (0..2000).map(f64::from).collect();
        assert_eq!(summarize(&many), [Some(999.0), Some(1979.0), Some(2000.0)]);
        assert_eq!(summarize(&[]), [None, None, Some(0.0)]);
    }
}
