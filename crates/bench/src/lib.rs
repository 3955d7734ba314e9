//! Shared harness utilities for the experiment binaries.
//!
//! Every table and figure of the paper's evaluation has a corresponding
//! binary in this crate (see the READMEs reproducing-the-figures walkthrough for the index).  All binaries
//! share the plumbing here:
//!
//! * [`RunScale`] — how many references to warm up and measure per
//!   simulation, scaled to the tracked-cache capacity and selected with
//!   the `CCD_SCALE` environment variable (`quick`, `default`, `full`;
//!   anything else is an error, not a fallback),
//! * [`SweepSpec`] — declarative parameter sweeps (organizations × systems
//!   × workloads × seeds) fanned across threads by the engine's
//!   [`ParallelRunner`] with deterministic results,
//! * [`simulate_workload`] — build + warm + measure one (system, directory,
//!   workload) combination,
//! * [`TextTable`] — fixed-width table printing for the figure data,
//! * [`write_json`] — the one door results leave by: deterministic JSON
//!   under `results/`, pinned byte for byte by `scripts/golden_check.sh`.
//!
//! Nothing here reads a clock.  Wall time belongs to the repository
//! benchmark (`src/bin/benchmark/`), which measures it with trials and
//! spreads; `ccd-lint`'s `no-wallclock` rule keeps it there.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod json;
pub mod sweep;

use ccd_coherence::{CmpSimulator, DirectorySpec, SimReport, SystemConfig};
use ccd_common::ConfigError;
use ccd_workloads::{TraceGenerator, WorkloadProfile};
use json::ToJson;
use std::fmt::Write as _;
use std::path::PathBuf;

pub use ccd_coherence::{ParallelRunner, SimJob};
pub use sweep::{fig9_sweep, SweepCell, SweepResults, SweepSpec};

impl_to_json!(WorkloadProfile {
    name,
    shared_code_blocks,
    shared_data_blocks,
    private_data_blocks,
    ifetch_fraction,
    write_fraction,
    shared_data_fraction,
    shared_skew,
    private_skew,
});

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

    /// The default scale used by the figure binaries.
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
    pub fn parse_named(raw: Option<&str>) -> Result<(Self, &'static str), ConfigError> {
        match raw {
            Some("quick") => Ok((Self::quick(), "quick")),
            None | Some("default") => Ok((Self::default_scale(), "default")),
            Some("full") => Ok((Self::full(), "full")),
            Some(other) => Err(ConfigError::parse(format!(
                "CCD_SCALE `{other}`: expected `quick`, `default` or `full`"
            ))),
        }
    }

    /// The `CCD_SCALE`-selected scale, for binaries: like
    /// [`runner_from_env`], exits with a readable message naming the
    /// offending token when the variable is invalid.
    #[must_use]
    pub fn from_env() -> Self {
        Self::from_env_named().0
    }

    /// Like [`RunScale::from_env`], but also returns the canonical name of
    /// the selected scale.
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

/// Runs one (system, directory, workload) simulation: warm up, reset
/// statistics, measure, report.
///
/// # Errors
///
/// Propagates configuration errors from the simulator construction.
pub fn simulate_workload(
    system: &SystemConfig,
    spec: &DirectorySpec,
    profile: &WorkloadProfile,
    scale: RunScale,
    seed: u64,
) -> Result<SimReport, ConfigError> {
    let mut trace = TraceGenerator::new(profile.clone(), system.num_cores, seed);
    CmpSimulator::run_workload(
        system.clone(),
        spec,
        &mut trace,
        scale.warmup_refs(system),
        scale.measure_refs(system),
    )
}

/// A fixed-width text table, printed the way the figure data is reported in
/// EXPERIMENTS.md.
#[derive(Clone, Debug, Default)]
pub struct TextTable {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    #[must_use]
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Self {
        TextTable {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row (padded or truncated to the header width).
    pub fn add_row<S: Into<String>>(&mut self, row: Vec<S>) {
        let mut row: Vec<String> = row.into_iter().map(Into::into).collect();
        row.resize(self.headers.len(), String::new());
        self.rows.push(row);
    }

    /// Renders the table.
    #[must_use]
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let render_row = |cells: &[String], widths: &[usize], out: &mut String| {
            for (cell, width) in cells.iter().zip(widths) {
                let _ = write!(out, "{cell:width$}  ");
            }
            out.push('\n');
        };
        render_row(&self.headers, &widths, &mut out);
        let total: usize = widths.iter().map(|w| w + 2).sum();
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            render_row(row, &widths, &mut out);
        }
        out
    }

    /// Renders and prints the table to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// The environment-selected [`ParallelRunner`], for binaries: exits with a
/// readable message (naming the offending `CCD_WORKERS` token) instead of
/// a panic backtrace when the variable is invalid.
#[must_use]
pub fn runner_from_env() -> ParallelRunner {
    match ParallelRunner::from_env() {
        Ok(runner) => runner,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    }
}

/// Directory where the figure binaries persist their JSON results.
#[must_use]
pub fn results_dir() -> PathBuf {
    std::env::var("CCD_RESULTS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|_| PathBuf::from("results"))
}

/// Serializes `value` as pretty JSON under [`results_dir`]`/name.json`,
/// creating the directory.  Failures are reported to stderr but do not
/// abort the experiment.
pub fn write_json<T: ToJson>(name: &str, value: &T) {
    let dir = results_dir();
    if !dir.as_os_str().is_empty() {
        if let Err(e) = std::fs::create_dir_all(&dir) {
            eprintln!("warning: could not create {}: {e}", dir.display());
            return;
        }
    }
    let path = dir.join(format!("{name}.json"));
    if let Err(e) = std::fs::write(&path, value.to_json().to_pretty()) {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
}

/// Prints the Table 1 system parameters the experiment runs under, so every
/// binary's output is self-describing.
pub fn print_system_banner(title: &str, system: &SystemConfig) {
    println!("== {title} ==");
    println!(
        "   system: {} cores, {} hierarchy, {} tracked caches of {} KB ({}-way), 64B blocks",
        system.num_cores,
        system.hierarchy,
        system.num_private_caches(),
        system.tracked_cache().capacity_bytes() / 1024,
        system.tracked_cache().ways,
    );
    println!(
        "   per-slice worst case: {} tracked blocks across {} slices",
        system.tracked_frames_per_slice(),
        system.num_slices()
    );
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
    fn text_table_renders_aligned_columns() {
        let mut t = TextTable::new(vec!["workload", "rate"]);
        t.add_row(vec!["DB2", "0.01"]);
        t.add_row(vec!["ocean"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("workload"));
        assert!(lines[1].starts_with("---"));
        assert!(lines[2].contains("DB2"));
        assert!(lines[3].contains("ocean"));
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

    #[test]
    fn quick_simulation_round_trips() {
        let system = SystemConfig {
            num_cores: 4,
            ..SystemConfig::shared_l2(4)
        };
        let report = simulate_workload(
            &system,
            &DirectorySpec::cuckoo(4, 1.0),
            &WorkloadProfile::apache(),
            RunScale::quick(),
            1,
        )
        .unwrap();
        assert!(report.refs_processed > 0);
        assert!(report.avg_directory_occupancy > 0.0);
    }
}
