//! Runtime selection of the workload driving a simulation.
//!
//! [`WorkloadSpec`] is to workloads what
//! `ccd_coherence::DirectorySpec` is to directory organizations: one
//! cloneable value, parseable from a string, that names *any* reference
//! stream the crate can produce — a calibrated paper profile, a
//! parameterized sharing-pattern scenario, or a recorded trace file — and
//! knows how to build it deterministically for a `(num_cores, seed)` pair.
//!
//! ```
//! use ccd_workloads::WorkloadSpec;
//!
//! // The nine paper profiles parse by their figure names…
//! let oracle: WorkloadSpec = "oracle".parse().unwrap();
//! assert_eq!(oracle.label(), "Oracle");
//!
//! // …scenario families by their spec strings…
//! let migratory: WorkloadSpec = "migratory-zipf0.9".parse().unwrap();
//! assert_eq!(migratory.label(), "migratory-zipf0.9");
//!
//! // …and recorded traces by path.
//! let replay: WorkloadSpec = "replay:results/oracle.ccdt".parse().unwrap();
//! assert_eq!(replay.label(), "replay:results/oracle.ccdt");
//!
//! // Unknown workloads name the offending input:
//! let err = "martian-b64".parse::<WorkloadSpec>().unwrap_err();
//! assert!(err.to_string().contains("martian"));
//!
//! let refs: Vec<_> = migratory.stream(16, 7).unwrap().take(64).collect();
//! assert_eq!(refs.len(), 64);
//! ```

use crate::ahead::AheadStream;
use crate::scenario::{ScenarioFamily, ScenarioSpec, TraceStream};
use crate::trace_io::TraceReader;
use crate::{TraceGenerator, WorkloadProfile};
use ccd_common::ConfigError;
use std::fmt;
use std::str::FromStr;

/// Prefix selecting trace replay in a workload spec string.
pub(crate) const REPLAY_PREFIX: &str = "replay:";

/// A workload selected at runtime: profile, scenario, or recorded trace.
#[derive(Clone, Debug, PartialEq)]
pub enum WorkloadSpec {
    /// One of the nine calibrated paper profiles (Table 2 stand-ins).
    Paper(WorkloadProfile),
    /// A parameterized sharing-pattern scenario (see [`crate::scenario`]).
    Scenario(ScenarioSpec),
    /// Bit-identical replay of a recorded trace file (see
    /// [`crate::trace_io`]).  The seed is ignored — a recording *is* its
    /// own determinism — and the recorded core count must match the
    /// simulated system's.
    Replay {
        /// Path of the `CCDT` trace file.
        path: String,
    },
}

impl WorkloadSpec {
    /// A spec replaying the trace file at `path`.
    #[must_use]
    pub fn replay(path: impl Into<String>) -> Self {
        WorkloadSpec::Replay { path: path.into() }
    }

    /// The label used on sweep axes and in result files: the profile's
    /// figure name, the scenario's canonical spec string, or
    /// `replay:<path>`.
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            WorkloadSpec::Paper(profile) => profile.name.to_string(),
            WorkloadSpec::Scenario(spec) => spec.to_string(),
            WorkloadSpec::Replay { path } => format!("{REPLAY_PREFIX}{path}"),
        }
    }

    /// Cheaply validates that [`WorkloadSpec::stream`] can supply
    /// `required_refs` references for `num_cores` cores, without
    /// generating anything: profile sanity, scenario knobs and core
    /// pinning, or the replay file's header (magic, version, recorded core
    /// and record counts) — record payloads are *not* read here.
    ///
    /// Profile and scenario streams are infinite, so `required_refs` only
    /// constrains replays: a recording shorter than the references a job
    /// will consume is rejected here rather than silently truncating the
    /// simulation.
    ///
    /// # Errors
    ///
    /// The error [`WorkloadSpec::stream`] would surface (except mid-file
    /// replay corruption, which only full reading can detect), plus the
    /// too-short-recording case described above.
    pub fn validate(&self, num_cores: usize, required_refs: u64) -> Result<(), ConfigError> {
        if num_cores == 0 {
            return Err(ConfigError::Zero { what: "core count" });
        }
        match self {
            WorkloadSpec::Paper(profile) => {
                if profile.is_valid() {
                    Ok(())
                } else {
                    Err(ConfigError::Inconsistent {
                        what: "workload profile fails its own validation",
                    })
                }
            }
            WorkloadSpec::Scenario(spec) => spec.validate(num_cores),
            WorkloadSpec::Replay { path } => {
                let reader = TraceReader::open(path).map_err(|e| ConfigError::Parse {
                    what: format!("trace file `{path}`: {e}"),
                })?;
                if reader.num_cores() as usize != num_cores {
                    return Err(ConfigError::Inconsistent {
                        what: "replayed trace was recorded for a different core count",
                    });
                }
                if reader.record_count() < required_refs {
                    return Err(ConfigError::TooSmall {
                        what: "replayed trace record count",
                        value: reader.record_count(),
                        min: required_refs,
                    });
                }
                Ok(())
            }
        }
    }

    /// Builds the deterministic reference stream for `(num_cores, seed)`,
    /// generated one batch ahead on a helper thread.
    ///
    /// The stream is [`WorkloadSpec::stream_inline`]'s, built on the
    /// calling thread and then moved onto a helper that fills batches of
    /// [`AHEAD_BATCH`](crate::AHEAD_BATCH) references while the caller
    /// consumes the batch before.  It yields exactly the references the
    /// inline stream yields, and a generator panic (say, a replayed file
    /// that changed on disk) is re-raised on the caller at the reference
    /// that raised it, with its payload.  Dropping the stream stops and
    /// joins the helper.  A caller that already keeps every CPU busy, like
    /// `ParallelRunner`'s workers or the service's router and workers,
    /// wants [`WorkloadSpec::stream_inline`].
    ///
    /// # Errors
    ///
    /// Those of [`WorkloadSpec::stream_inline`], raised before the helper
    /// starts.
    pub fn stream(&self, num_cores: usize, seed: u64) -> Result<Box<dyn TraceStream>, ConfigError> {
        let inline = self.stream_inline(num_cores, seed)?;
        Ok(Box::new(AheadStream::new(inline)))
    }

    /// Builds the deterministic reference stream for `(num_cores, seed)`,
    /// generated on the thread that pulls it.
    ///
    /// Profile and scenario streams are infinite; a replayed stream ends
    /// when the recording does.
    ///
    /// # Errors
    ///
    /// * invalid scenario knobs or a pinned core count differing from
    ///   `num_cores` ([`crate::ScenarioSpec::stream`]),
    /// * an unreadable, corrupt, or core-count-mismatched trace file for
    ///   [`WorkloadSpec::Replay`] (the whole file is validated up front).
    pub fn stream_inline(
        &self,
        num_cores: usize,
        seed: u64,
    ) -> Result<Box<dyn TraceStream>, ConfigError> {
        if num_cores == 0 {
            return Err(ConfigError::Zero { what: "core count" });
        }
        match self {
            WorkloadSpec::Paper(profile) => Ok(Box::new(TraceGenerator::new(
                profile.clone(),
                num_cores,
                seed,
            ))),
            WorkloadSpec::Scenario(spec) => spec.stream(num_cores, seed),
            WorkloadSpec::Replay { path } => {
                let open = |path: &str| {
                    TraceReader::open(path).map_err(|e| ConfigError::Parse {
                        what: format!("trace file `{path}`: {e}"),
                    })
                };
                // Full validation pass first — streaming, O(1) memory —
                // so corruption fails the build instead of the simulation.
                let mut probe = open(path)?;
                if probe.num_cores() as usize != num_cores {
                    return Err(ConfigError::Inconsistent {
                        what: "replayed trace was recorded for a different core count",
                    });
                }
                for record in &mut probe {
                    record.map_err(|e| ConfigError::Parse {
                        what: format!("trace file `{path}`: {e}"),
                    })?;
                }
                // Then stream the validated file record by record; the
                // trace is never materialized in memory.  The reopened
                // header must be the validated one: its count is the
                // stream's exact size hint.
                let reader = open(path)?;
                if reader.record_count() != probe.record_count() {
                    return Err(ConfigError::Parse {
                        what: format!("trace file `{path}` changed after validation"),
                    });
                }
                Ok(Box::new(ReplayStream {
                    reader,
                    path: path.clone(),
                }))
            }
        }
    }
}

/// A validated trace file streamed record by record.
#[derive(Debug)]
struct ReplayStream {
    reader: TraceReader<std::io::BufReader<std::fs::File>>,
    path: String,
}

impl Iterator for ReplayStream {
    type Item = ccd_common::MemRef;

    fn next(&mut self) -> Option<Self::Item> {
        match self.reader.next()? {
            Ok(r) => Some(r),
            // The file passed a full validation pass when the stream was
            // built; an error here means it changed on disk mid-replay,
            // which no simulation result should survive.
            Err(e) => panic!("trace file `{}` changed during replay: {e}", self.path),
        }
    }

    /// Exact: the header's count is the one the validation pass read.
    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = usize::try_from(self.reader.records_left()).unwrap_or(usize::MAX);
        (left, Some(left))
    }
}

impl From<WorkloadProfile> for WorkloadSpec {
    fn from(profile: WorkloadProfile) -> Self {
        WorkloadSpec::Paper(profile)
    }
}

impl From<ScenarioSpec> for WorkloadSpec {
    fn from(spec: ScenarioSpec) -> Self {
        WorkloadSpec::Scenario(spec)
    }
}

impl FromStr for WorkloadSpec {
    type Err = ConfigError;

    /// Resolution order: `replay:` prefix, then (case-insensitive) paper
    /// profile names, then scenario spec strings.  The error for an
    /// unknown input reports both namespaces.
    fn from_str(input: &str) -> Result<Self, ConfigError> {
        let input = input.trim();
        if let Some(path) = input.strip_prefix(REPLAY_PREFIX) {
            if path.is_empty() {
                return Err(ConfigError::Parse {
                    what: format!("workload spec `{input}`: empty replay path"),
                });
            }
            return Ok(WorkloadSpec::replay(path));
        }
        if let Some(profile) = WorkloadProfile::by_name(input) {
            return Ok(WorkloadSpec::Paper(profile));
        }
        match input.parse::<ScenarioSpec>() {
            Ok(spec) => Ok(WorkloadSpec::Scenario(spec)),
            Err(scenario_err) => {
                let family = input.split('-').next().unwrap_or_default();
                if ScenarioFamily::from_name(family).is_some() {
                    // The family exists, so the knobs are at fault — the
                    // scenario parser's token-level error is the right one.
                    Err(scenario_err)
                } else {
                    let families = ScenarioFamily::ALL.map(ScenarioFamily::name).join(", ");
                    Err(ConfigError::Parse {
                        what: format!(
                            "unknown workload `{input}`: neither a paper profile \
                             (db2, oracle, qry2, qry16, qry17, apache, zeus, em3d, ocean), \
                             a scenario family ({families}), nor a `{REPLAY_PREFIX}<path>` trace"
                        ),
                    })
                }
            }
        }
    }
}

impl fmt::Display for WorkloadSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_all_three_namespaces() {
        assert_eq!(
            "Ocean".parse::<WorkloadSpec>().unwrap(),
            WorkloadSpec::Paper(WorkloadProfile::ocean())
        );
        let scenario: WorkloadSpec = "stream-b1024".parse().unwrap();
        assert!(matches!(scenario, WorkloadSpec::Scenario(_)));
        assert_eq!(scenario.label(), "stream-b1024");
        let replay: WorkloadSpec = "replay:/tmp/x.ccdt".parse().unwrap();
        assert_eq!(replay, WorkloadSpec::replay("/tmp/x.ccdt"));
        assert_eq!(format!("{replay}"), "replay:/tmp/x.ccdt");
    }

    #[test]
    fn errors_name_the_namespace_or_token() {
        let err = "martian".parse::<WorkloadSpec>().unwrap_err().to_string();
        assert!(err.contains("martian"), "{err}");
        assert!(err.contains("paper profile"), "{err}");
        assert!(err.contains("scenario family"), "{err}");

        // A known family with a bad knob keeps the token-level error.
        let err = "migratory-q9"
            .parse::<WorkloadSpec>()
            .unwrap_err()
            .to_string();
        assert!(err.contains("`q9`"), "{err}");

        assert!("replay:".parse::<WorkloadSpec>().is_err());
    }

    #[test]
    fn replay_streams_validate_the_file_and_core_count() {
        let missing = WorkloadSpec::replay("/definitely/not/here.ccdt");
        assert!(missing.stream(4, 0).is_err());

        let dir = std::env::temp_dir().join("ccd-workload-spec-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("small.ccdt");
        let trace = TraceGenerator::new(WorkloadProfile::apache(), 4, 9);
        crate::trace_io::record_trace(&path, 4, trace, 500).unwrap();

        let spec = WorkloadSpec::replay(path.to_str().unwrap());
        let refs: Vec<_> = spec.stream(4, 123).unwrap().collect();
        assert_eq!(refs.len(), 500, "replay ends with the recording");
        let expected: Vec<_> = TraceGenerator::new(WorkloadProfile::apache(), 4, 9)
            .take(500)
            .collect();
        assert_eq!(refs, expected, "seed is ignored; the recording wins");

        assert!(spec.stream(8, 0).is_err(), "core-count mismatch is fatal");

        // A recording shorter than the references a job will consume is
        // rejected by validation instead of silently truncating the run.
        assert!(spec.validate(4, 500).is_ok());
        let err = spec.validate(4, 501).unwrap_err();
        assert!(err.to_string().contains("500"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_replayed_record_outside_the_header_core_count_fails_the_build() {
        let dir = std::env::temp_dir().join("ccd-workload-spec-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad-core.ccdt");
        let trace = TraceGenerator::new(WorkloadProfile::apache(), 4, 9);
        crate::trace_io::record_trace(&path, 4, trace, 500).unwrap();
        // The first record's core varint: past the 18-byte header and the
        // kind byte.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[19] = 9;
        std::fs::write(&path, bytes).unwrap();

        let spec = WorkloadSpec::replay(path.to_str().unwrap());
        let err = spec.stream(4, 0).expect_err("no tile for core 9");
        assert!(matches!(err, ConfigError::Parse { .. }), "{err}");
        let what = err.to_string();
        assert!(
            what.contains("core 9") && what.contains("4 cores"),
            "{what}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_replay_truncated_after_validation_panics_on_the_consumer_naming_the_file() {
        let dir = std::env::temp_dir().join("ccd-workload-spec-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("truncated.ccdt");
        let records = 20 * crate::AHEAD_BATCH as u64;
        let trace = TraceGenerator::new(WorkloadProfile::apache(), 4, 9);
        crate::trace_io::record_trace(&path, 4, trace, records).unwrap();
        let spec = WorkloadSpec::replay(path.to_str().unwrap());

        // Both streams pass validation, then the file loses its second
        // half: far beyond what the helper reads ahead before its lane
        // fills.
        let inline = spec.stream_inline(4, 0).unwrap();
        let ahead = spec.stream(4, 0).unwrap();
        let bytes = std::fs::metadata(&path).unwrap().len();
        std::fs::OpenOptions::new()
            .write(true)
            .open(&path)
            .unwrap()
            .set_len(bytes / 2)
            .unwrap();

        let drain = |mut stream: Box<dyn TraceStream>| {
            let mut yielded = 0u64;
            let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                for _ in stream.by_ref() {
                    yielded += 1;
                }
            }))
            .expect_err("a truncated replay panics");
            let message = payload
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_default();
            (yielded, message)
        };
        let (inline_yielded, inline_message) = drain(inline);
        let (ahead_yielded, ahead_message) = drain(ahead);
        assert!(
            ahead_message.contains(path.to_str().unwrap())
                && ahead_message.contains("changed during replay"),
            "{ahead_message}"
        );
        assert_eq!(ahead_message, inline_message);
        assert_eq!(
            ahead_yielded, inline_yielded,
            "the panic comes at the same reference"
        );
        assert!(0 < ahead_yielded && ahead_yielded < records);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn every_scenario_family_parses_streams_and_is_listed_as_known() {
        let unknown = "martian".parse::<WorkloadSpec>().unwrap_err().to_string();
        for family in ScenarioFamily::ALL {
            let spec: WorkloadSpec = family.name().parse().unwrap();
            assert!(
                matches!(&spec, WorkloadSpec::Scenario(s) if s.family == family),
                "{family:?}"
            );
            assert_eq!(spec.stream(4, 1).unwrap().take(100).count(), 100);
            assert!(unknown.contains(family.name()), "{unknown}");
        }
    }

    #[test]
    fn paper_and_scenario_streams_follow_the_seed() {
        for spec in ["oracle", "readmostly"] {
            let spec: WorkloadSpec = spec.parse().unwrap();
            let a: Vec<_> = spec.stream(4, 1).unwrap().take(200).collect();
            let b: Vec<_> = spec.stream(4, 2).unwrap().take(200).collect();
            assert_ne!(a, b);
        }
    }
}
