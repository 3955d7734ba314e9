//! Deterministic fault injection for the directory service.
//!
//! A [`FaultPlan`] is a spec-string-driven schedule of failures — worker
//! panics and artificial batch-processing stalls.  Faults are *scheduled
//! against the request sequence numbering*, never against time, so a plan
//! reproduces the same failure at the same point in the stream on every
//! run, at every worker count, on every machine:
//!
//! ```text
//! faults-abort@w2:5000-stall@w0:2ms
//! └─┬──┘ └────┬─────┘ └────┬─────┘
//!   │         │            └ worker 0 sleeps 2ms per batch
//!   │         └ worker 2 panics before applying seq 5000
//!   └ required prefix
//! ```
//!
//! Clause reference:
//!
//! | clause          | meaning                                                |
//! |-----------------|--------------------------------------------------------|
//! | `abort@w<W>:<S>`| worker `W` panics before applying the first request with `seq >= S`; the run fails with `ServiceError::WorkerCrashed` |
//! | `stall@w<W>:<N>ms` | worker `W` sleeps `N` ms before each batch (latency only — results are unaffected) |
//!
//! `abort@` repeats for distinct `(worker, seq)` points (a worker dies at
//! its earliest), `stall@` once per worker.  The rules every spec grammar
//! shares are [`ccd_common::clause`]'s.
//!
//! Injection sites are compiled into the worker loop as an
//! `Option<WorkerFaults>` hook — `None` (the unarmed case) costs one branch
//! per batch and nothing else.  Injected panics carry an [`InjectedCrash`]
//! payload, so the error names the scheduled abort, and
//! [`silence_injected_panics`] keeps the default panic hook's backtrace
//! spew out of expected-failure test output.

use ccd_common::clause::Clauses;
use ccd_common::ConfigError;
use std::time::Duration;

/// The longest stall a plan may schedule, per batch.  A cap keeps a typo
/// from turning a test suite into an overnight run.
pub const MAX_STALL_MS: u64 = 1_000;

/// One scheduled worker panic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CrashPoint {
    /// The worker that will panic.
    pub worker: usize,
    /// The panic fires immediately before this worker applies its first
    /// request with `seq >= seq`.
    pub seq: u64,
}

/// One scheduled per-batch stall.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StallPoint {
    /// The worker that will stall.
    pub worker: usize,
    /// Sleep applied before each batch the worker drains.
    pub millis: u64,
}

/// A parsed, validated fault schedule.  See the module docs for the
/// grammar.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultPlan {
    label: String,
    crashes: Vec<CrashPoint>,
    stalls: Vec<StallPoint>,
}

impl FaultPlan {
    /// Parses a `faults-…` spec string.
    ///
    /// # Errors
    ///
    /// [`ConfigError::Parse`] naming the offending clause; rejected inputs
    /// include duplicate `(worker, seq)` abort points, more than one stall
    /// per worker and stalls over [`MAX_STALL_MS`].
    pub fn parse(spec: &str) -> Result<Self, ConfigError> {
        let mut clauses = Clauses::with_prefix("fault plan", "faults", spec)?;
        let mut crashes: Vec<CrashPoint> = Vec::new();
        let mut stalls: Vec<StallPoint> = Vec::new();
        while clauses.next_clause().is_some() {
            if let Some(rest) = clauses.strip("abort@") {
                let (worker, seq) = worker_colon_value(rest)
                    .ok_or_else(|| clauses.expected("abort@w<worker>:<seq>"))?;
                if crashes.iter().any(|c| (c.worker, c.seq) == (worker, seq)) {
                    return Err(clauses.invalid("repeats an abort point"));
                }
                crashes.push(CrashPoint { worker, seq });
            } else if let Some(rest) = clauses.strip("stall@") {
                let form = format!("stall@w<worker>:<0..={MAX_STALL_MS}>ms");
                let (worker, millis) = rest
                    .strip_suffix("ms")
                    .and_then(worker_colon_value)
                    .filter(|&(_, millis)| millis <= MAX_STALL_MS)
                    .ok_or_else(|| clauses.expected(&form))?;
                if stalls.iter().any(|s| s.worker == worker) {
                    return Err(clauses.invalid("repeats a worker's stall"));
                }
                stalls.push(StallPoint { worker, millis });
            } else {
                return Err(clauses.unknown());
            }
        }
        // Canonical order: aborts by (worker, seq) and stalls by worker.
        crashes.sort_by_key(|c| (c.worker, c.seq));
        stalls.sort_by_key(|s| s.worker);
        let label = render_label(&crashes, &stalls);
        Ok(FaultPlan {
            label,
            crashes,
            stalls,
        })
    }

    /// The canonical spec string (clauses in a fixed order), parseable back
    /// into an equal plan.
    #[must_use]
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Scheduled aborts, sorted by `(worker, seq)`.
    #[must_use]
    pub fn crashes(&self) -> &[CrashPoint] {
        &self.crashes
    }

    /// Scheduled stalls, sorted by worker.
    #[must_use]
    pub fn stalls(&self) -> &[StallPoint] {
        &self.stalls
    }

    /// `true` when the plan schedules nothing at all.
    #[must_use]
    pub fn is_noop(&self) -> bool {
        self.crashes.is_empty() && self.stalls.is_empty()
    }

    /// Checks that every referenced worker exists under a `workers`-wide
    /// topology.
    ///
    /// # Errors
    ///
    /// [`ConfigError::Inconsistent`] when a clause names worker `>= workers`.
    pub fn validate_for(&self, workers: usize) -> Result<(), ConfigError> {
        let referenced = self
            .crashes
            .iter()
            .map(|c| c.worker)
            .chain(self.stalls.iter().map(|s| s.worker))
            .max();
        match referenced {
            Some(w) if w >= workers => Err(ConfigError::Inconsistent {
                what: "fault plan names a worker index >= the service worker count",
            }),
            _ => Ok(()),
        }
    }

    /// Compiles the injection hooks worker `worker`'s loop consults: its
    /// earliest abort point and its stall, or `None` when the plan
    /// schedules neither for it.
    #[must_use]
    pub fn arm(&self, worker: usize) -> Option<WorkerFaults> {
        let abort = self.crashes.iter().find(|c| c.worker == worker).copied();
        let stall = self
            .stalls
            .iter()
            .find(|s| s.worker == worker)
            .map(|s| Duration::from_millis(s.millis));
        if abort.is_none() && stall.is_none() {
            return None;
        }
        Some(WorkerFaults { abort, stall })
    }
}

impl std::str::FromStr for FaultPlan {
    type Err = ConfigError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        FaultPlan::parse(s)
    }
}

/// Parses `w<digits>:<digits>` into `(worker, value)`.
fn worker_colon_value(text: &str) -> Option<(usize, u64)> {
    let rest = text.strip_prefix('w')?;
    let (worker, value) = rest.split_once(':')?;
    Some((worker.parse().ok()?, value.parse().ok()?))
}

fn render_label(crashes: &[CrashPoint], stalls: &[StallPoint]) -> String {
    use std::fmt::Write as _;
    let mut label = "faults".to_string();
    for c in crashes {
        let _ = write!(label, "-abort@w{}:{}", c.worker, c.seq);
    }
    for s in stalls {
        let _ = write!(label, "-stall@w{}:{}ms", s.worker, s.millis);
    }
    label
}

/// One worker's compiled injection hooks ([`FaultPlan::arm`]).
#[derive(Clone, Debug)]
pub struct WorkerFaults {
    /// This worker's earliest abort point.
    abort: Option<CrashPoint>,
    /// Per-batch sleep, when scheduled.
    stall: Option<Duration>,
}

impl WorkerFaults {
    /// Where this batch must be cut short by the scheduled abort: the
    /// index of the first request with `seq >=` the abort point (requests
    /// before it apply normally, then the worker panics).  `None` when the
    /// abort does not fire inside this batch.
    ///
    /// Worker queues are FIFO and seqs within one worker's stream ascend,
    /// so scanning the batch in order finds the unique cut.
    #[must_use]
    pub fn crash_cut(&self, mut seqs: impl Iterator<Item = u64>) -> Option<usize> {
        let abort = self.abort?;
        seqs.position(|seq| seq >= abort.seq)
    }

    /// Sleeps this worker's scheduled per-batch stall, if any.  Pure
    /// latency: no clock is read and no result depends on the sleep.
    pub fn stall(&self) {
        if let Some(pause) = self.stall {
            std::thread::sleep(pause);
        }
    }
}

/// The payload of an injected worker panic.
///
/// Carrying a concrete type (via `std::panic::panic_any`) lets the
/// supervisor distinguish a scheduled failure from a genuine bug when it
/// downcasts the payload, and lets the quiet panic hook suppress exactly
/// the expected panics.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InjectedCrash {
    /// The worker that panicked.
    pub worker: usize,
    /// The sequence number the crash fired at (the first request *not*
    /// applied).
    pub seq: u64,
}

impl InjectedCrash {
    /// Fires this crash: panics with `self` as the payload.
    pub fn fire(self) -> ! {
        std::panic::panic_any(self)
    }
}

impl std::fmt::Display for InjectedCrash {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "injected abort on worker {} at seq {}",
            self.worker, self.seq
        )
    }
}

/// Installs (once, process-wide) a panic hook that stays silent for
/// [`InjectedCrash`] payloads and delegates everything else to the
/// previously installed hook.
///
/// Injected panics are *expected*: the supervisor catches them and fails
/// the run, so the default hook's "thread panicked" + backtrace output would
/// be pure noise — and alarming noise — in every fault-injection test and
/// benchmark.  The wrapper is installed under a [`std::sync::Once`] and
/// never uninstalled, which keeps it safe under concurrently running
/// tests.
pub fn silence_injected_panics() {
    static INSTALL: std::sync::Once = std::sync::Once::new();
    INSTALL.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<InjectedCrash>().is_none() {
                previous(info);
            }
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_full_grammar_and_renders_a_canonical_label() {
        let plan = FaultPlan::parse("faults-abort@w2:5000-stall@w0:2ms").unwrap();
        assert_eq!(
            plan.crashes(),
            &[CrashPoint {
                worker: 2,
                seq: 5000
            }]
        );
        assert_eq!(
            plan.stalls(),
            &[StallPoint {
                worker: 0,
                millis: 2
            }]
        );
        assert!(!plan.is_noop());
        assert_eq!(plan.label(), "faults-abort@w2:5000-stall@w0:2ms");
        // The label round-trips to an equal plan, clause order regardless.
        let shuffled = FaultPlan::parse("faults-stall@w0:2ms-abort@w2:5000").unwrap();
        assert_eq!(shuffled, plan);
        assert_eq!(FaultPlan::parse(plan.label()).unwrap(), plan);
    }

    #[test]
    fn rejects_malformed_and_inconsistent_specs() {
        // Each error quotes the spec and the token at fault.
        for (spec, token) in [
            ("fault-abort@w0:1", "faults"),                       // wrong prefix
            ("faults-abort@0:1", "abort@0:1"),                    // missing `w`
            ("faults-abort@w0", "abort@w0"),                      // missing seq
            ("faults-stall@w0:2", "stall@w0:2"),                  // missing `ms`
            ("faults-stall@w0:2000ms", "stall@w0:2000ms"),        // over the cap
            ("faults-explode@w0:1", "explode@w0:1"),              // unknown clause
            ("faults-crash@w0:1", "crash@w0:1"),                  // no recovery to crash into
            ("faults-seed7", "seed7"),                            // no RNG to seed
            ("faults-shed0.01", "shed0.01"),                      // no admission gate
            ("faults-abort@w0:1-abort@w0:1", "abort@w0:1"),       // duplicate abort point
            ("faults-stall@w0:1ms-stall@w0:2ms", "stall@w0:2ms"), // two stalls, one worker
        ] {
            let err = FaultPlan::parse(spec).unwrap_err().to_string();
            assert!(
                err.contains(&format!("fault plan `{spec}`"))
                    && err.contains(&format!("`{token}`")),
                "`{spec}` should fail naming `{token}`, got: {err}"
            );
        }
    }

    #[test]
    fn validate_for_checks_worker_bounds() {
        let plan = FaultPlan::parse("faults-abort@w2:100").unwrap();
        assert!(plan.validate_for(3).is_ok());
        assert!(plan.validate_for(2).is_err());
        assert!(FaultPlan::parse("faults").unwrap().validate_for(1).is_ok());
    }

    #[test]
    fn arm_compiles_per_worker_hooks_with_the_earliest_abort() {
        let plan = FaultPlan::parse("faults-abort@w1:30-abort@w1:10-stall@w0:1ms").unwrap();
        assert!(plan.arm(2).is_none(), "worker 2 has no scheduled faults");
        let w0 = plan.arm(0).unwrap();
        assert_eq!(w0.abort, None);
        assert_eq!(w0.stall, Some(Duration::from_millis(1)));
        let w1 = plan.arm(1).unwrap();
        assert_eq!(w1.abort, Some(CrashPoint { worker: 1, seq: 10 }));
        assert_eq!(w1.stall, None);
    }

    #[test]
    fn crash_cut_finds_the_first_request_at_or_past_the_trigger() {
        let plan = FaultPlan::parse("faults-abort@w0:100").unwrap();
        let hooks = plan.arm(0).unwrap();
        // The trigger seq itself need not appear in the stream.
        assert_eq!(hooks.crash_cut([40, 90, 150, 200].into_iter()), Some(2));
        assert_eq!(hooks.crash_cut([1, 2, 3].into_iter()), None);
        assert_eq!(
            hooks.crash_cut([100].into_iter()),
            Some(0),
            "an abort can cut a batch at its first request"
        );
    }

    #[test]
    fn injected_crash_displays_and_fires_as_a_typed_panic() {
        let crash = InjectedCrash { worker: 3, seq: 42 };
        assert_eq!(crash.to_string(), "injected abort on worker 3 at seq 42");
        silence_injected_panics();
        let caught = std::panic::catch_unwind(|| crash.fire()).unwrap_err();
        let payload = caught.downcast_ref::<InjectedCrash>().unwrap();
        assert_eq!(*payload, crash);
    }
}
