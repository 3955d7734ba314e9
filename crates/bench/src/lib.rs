//! Shared harness utilities for the results program.
//!
//! Every table and figure of the paper's evaluation is one row of the
//! `figs` binary's experiment table (`src/bin/figs/`; the README's
//! reproducing-the-figures walkthrough is the index).  The experiments share
//! the plumbing here:
//!
//! * [`RunScale`] — how many references to warm up and measure per
//!   simulation, scaled to the tracked-cache capacity and selected with
//!   the `CCD_SCALE` environment variable (`quick`, `default`, `full`;
//!   anything else is an error, not a fallback),
//! * [`SweepSpec`] — declarative parameter sweeps (organizations × systems
//!   × workloads × seeds) fanned across threads by the engine's
//!   [`ParallelRunner`] with deterministic results,
//! * [`text`] — the stdout table of a result tree: rows are built as
//!   `ccd_common::json::Json` objects with `ccd_common::obj!`, so a column
//!   is named once, and the same tree renders as the file
//!   (`Json::to_pretty`) and as the table ([`text::to_text`]),
//! * [`write_result`] — the one door results leave by: a file under the
//!   results directory, pinned byte for byte by `scripts/golden_check.sh`;
//!   a file that cannot be written is an error, not a warning.
//!
//! Nothing here reads a clock.  Wall time belongs to the repository
//! benchmark (`src/bin/benchmark/`), which measures it with trials and
//! spreads.  Clippy's `disallowed_methods` keeps the clock out of every
//! other crate; the `figs` output is golden-pinned byte for byte.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod sweep;
pub mod text;

use ccd_coherence::SystemConfig;
use ccd_common::ConfigError;
use std::io;
use std::path::{Path, PathBuf};

pub use ccd_coherence::{ParallelRunner, SimJob};
pub use sweep::SweepCell;
pub use sweep::{SweepResults, SweepSpec};

/// How much work each simulation performs, expressed as multiples of the
/// aggregate tracked-cache capacity (so Private-L2 runs, whose caches are
/// 16× larger, automatically warm longer).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RunScale {
    /// Warm-up references per tracked cache frame.
    pub warmup_per_frame: f64,
    /// Measured references per tracked cache frame.
    pub measure_per_frame: f64,
}

impl RunScale {
    /// Quick smoke-test scale (used by CI and the integration tests).
    #[must_use]
    pub const fn quick() -> Self {
        RunScale {
            warmup_per_frame: 4.0,
            measure_per_frame: 2.0,
        }
    }

    /// The default scale of the `figs` experiments.
    #[must_use]
    pub const fn default_scale() -> Self {
        RunScale {
            warmup_per_frame: 16.0,
            measure_per_frame: 8.0,
        }
    }

    /// A long, publication-quality run.
    #[must_use]
    pub const fn full() -> Self {
        RunScale {
            warmup_per_frame: 48.0,
            measure_per_frame: 24.0,
        }
    }

    /// The single parse site of a `CCD_SCALE` value (`None`: the variable
    /// is unset, which selects the default scale), returning the scale and
    /// its canonical name for result files that record how they were run.
    ///
    /// # Errors
    ///
    /// [`ConfigError::Parse`] quoting the token when it is not exactly
    /// `quick`, `default` or `full`: a typo must not silently run minutes
    /// of default-scale work under the wrong label.
    pub(crate) fn parse_named(raw: Option<&str>) -> Result<(Self, &'static str), ConfigError> {
        match raw {
            Some("quick") => Ok((Self::quick(), "quick")),
            None | Some("default") => Ok((Self::default_scale(), "default")),
            Some("full") => Ok((Self::full(), "full")),
            Some(other) => Err(ConfigError::parse(format!(
                "CCD_SCALE `{other}`: expected `quick`, `default` or `full`"
            ))),
        }
    }

    /// The `CCD_SCALE`-selected scale and its canonical name, for binaries:
    /// exits 2 with a readable message naming the offending token when the
    /// variable is invalid.
    #[must_use]
    pub fn from_env_named() -> (Self, &'static str) {
        let raw = std::env::var_os("CCD_SCALE");
        let raw = raw.as_deref().map(std::ffi::OsStr::to_string_lossy);
        match Self::parse_named(raw.as_deref()) {
            Ok(named) => named,
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(2);
            }
        }
    }

    /// Warm-up reference count for `system`.
    #[must_use]
    pub fn warmup_refs(&self, system: &SystemConfig) -> u64 {
        (system.total_tracked_frames() as f64 * self.warmup_per_frame) as u64
    }

    /// Measured reference count for `system`.
    #[must_use]
    pub fn measure_refs(&self, system: &SystemConfig) -> u64 {
        (system.total_tracked_frames() as f64 * self.measure_per_frame) as u64
    }
}

impl Default for RunScale {
    fn default() -> Self {
        Self::default_scale()
    }
}

/// Directory where results are persisted: `CCD_RESULTS_DIR`, default
/// `results`.
#[must_use]
pub fn results_dir() -> PathBuf {
    std::env::var("CCD_RESULTS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|_| PathBuf::from("results"))
}

/// Writes one result file under `dir`, creating the directory, and returns
/// where it landed.
///
/// # Errors
///
/// The I/O error of the failing step, with the path it failed on in its
/// message: a run whose result cannot be written has failed.
pub fn write_result(dir: &Path, file: &str, bytes: &[u8]) -> io::Result<PathBuf> {
    let named =
        |path: &Path, e: io::Error| io::Error::new(e.kind(), format!("{}: {e}", path.display()));
    std::fs::create_dir_all(dir).map_err(|e| named(dir, e))?;
    let path = dir.join(file);
    std::fs::write(&path, bytes).map_err(|e| named(&path, e))?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccd_coherence::Hierarchy;

    #[test]
    fn run_scale_scales_with_the_tracked_cache() {
        let shared = SystemConfig::table1(Hierarchy::SharedL2);
        let private = SystemConfig::table1(Hierarchy::PrivateL2);
        let scale = RunScale::quick();
        assert_eq!(scale.warmup_refs(&shared), 4 * 32 * 1024);
        assert!(scale.warmup_refs(&private) > scale.warmup_refs(&shared));
        assert!(scale.measure_refs(&shared) < scale.warmup_refs(&shared));
        assert_eq!(RunScale::default(), RunScale::default_scale());
    }

    #[test]
    fn scale_names_parse_exactly_and_typos_are_named_errors() {
        for (raw, scale, name) in [
            (None, RunScale::default_scale(), "default"),
            (Some("quick"), RunScale::quick(), "quick"),
            (Some("default"), RunScale::default_scale(), "default"),
            (Some("full"), RunScale::full(), "full"),
        ] {
            assert_eq!(RunScale::parse_named(raw), Ok((scale, name)));
        }
        for typo in ["", "Quick", "qiuck"] {
            let message = RunScale::parse_named(Some(typo)).unwrap_err().to_string();
            assert!(message.contains(&format!("`{typo}`")), "{message}");
        }
    }
}
