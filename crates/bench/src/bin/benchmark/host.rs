//! What the benchmark records about the machine it ran on, and the
//! `/proc` counters it samples around the calls it times.

use std::fs;
use std::process::Command;

/// Environment overrides that change which kernels or how much work the
/// crates run; the benchmark refuses to start with any of them set, so a
/// number is always a number for the default build.
const FORBIDDEN_ENV: [&str; 5] = [
    "CCD_PROBE",
    "CCD_OBS",
    "CCD_WORKERS",
    "CCD_FAULTS",
    "CCD_SCALE",
];

/// Kernel clock ticks per second for `/proc/self/stat` CPU times.  Linux
/// fixes the user-visible value (`USER_HZ`) at 100 on every architecture.
const USER_HZ: f64 = 100.0;

/// The machine and build the numbers belong to.
#[derive(Clone, Debug)]
pub struct HostEnv {
    pub nproc: usize,
    pub vector_engine: &'static str,
    pub page_size: u64,
    pub thp: String,
    pub rustc: String,
    pub git_rev: String,
}

impl HostEnv {
    /// Probes the host once.  Facts that cannot be read (no `rustc` on the
    /// path, a checkout without `.git`) are recorded as `unknown`, never
    /// guessed.
    pub fn probe() -> Self {
        HostEnv {
            nproc: std::thread::available_parallelism().map_or(1, std::num::NonZero::get),
            vector_engine: ccd_cuckoo::VectorEngine::detect().name(),
            page_size: page_size().unwrap_or(0),
            thp: thp_mode().unwrap_or_else(|| "unknown".to_string()),
            rustc: rustc_version().unwrap_or_else(|| "unknown".to_string()),
            git_rev: git_rev().unwrap_or_else(|| "unknown".to_string()),
        }
    }

    /// One `key=value` line for the benchmark's output.
    pub fn line(&self) -> String {
        format!(
            "nproc={} vector_engine={} page_size={} thp={} rustc=\"{}\" git_rev={}",
            self.nproc, self.vector_engine, self.page_size, self.thp, self.rustc, self.git_rev
        )
    }
}

/// The first forbidden override that is set, if any.
pub fn forbidden_override() -> Option<&'static str> {
    FORBIDDEN_ENV
        .into_iter()
        .find(|name| std::env::var_os(name).is_some())
}

/// `AT_PAGESZ` from the process's auxiliary vector.
fn page_size() -> Option<u64> {
    const AT_PAGESZ: u64 = 6;
    let auxv = fs::read("/proc/self/auxv").ok()?;
    let word = std::mem::size_of::<usize>();
    let read = |bytes: &[u8]| {
        let mut buf = [0u8; 8];
        buf[..word].copy_from_slice(bytes);
        u64::from_le_bytes(buf)
    };
    auxv.chunks_exact(2 * word)
        .find(|pair| read(&pair[..word]) == AT_PAGESZ)
        .map(|pair| read(&pair[word..]))
}

/// The bracketed word of `/sys/kernel/mm/transparent_hugepage/enabled`.
fn thp_mode() -> Option<String> {
    let text = fs::read_to_string("/sys/kernel/mm/transparent_hugepage/enabled").ok()?;
    let start = text.find('[')? + 1;
    let end = text[start..].find(']')? + start;
    Some(text[start..end].to_string())
}

fn rustc_version() -> Option<String> {
    let out = Command::new("rustc").arg("--version").output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// The commit `.git/HEAD` resolves to, when the working directory is a git
/// checkout with loose refs (the driver's checkouts are not).
fn git_rev() -> Option<String> {
    let head = fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let rev = match head.strip_prefix("ref: ") {
        Some(reference) => fs::read_to_string(format!(".git/{reference}")).ok()?,
        None => head.to_string(),
    };
    Some(rev.trim().chars().take(12).collect())
}

/// A `kB` field of `/proc/self/status`, in MiB.
fn status_mib(field: &str) -> f64 {
    let text = fs::read_to_string("/proc/self/status").unwrap_or_default();
    text.lines()
        .find_map(|line| line.strip_prefix(field))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Peak resident set size of this process so far, in MiB.
pub fn peak_rss_mib() -> f64 {
    status_mib("VmHWM:")
}

/// Current resident set size of this process, in MiB.
pub fn rss_mib() -> f64 {
    status_mib("VmRSS:")
}

/// Minor page faults and CPU time of the whole process (every thread,
/// including joined ones) since it started.
#[derive(Clone, Copy, Debug, Default)]
pub struct ProcCounters {
    pub minor_faults: u64,
    pub cpu_seconds: f64,
}

impl ProcCounters {
    /// Reads `/proc/self/stat`; zeros when it is unreadable.
    pub fn read() -> Self {
        let text = fs::read_to_string("/proc/self/stat").unwrap_or_default();
        // The command name (field 2) may contain spaces; fields are
        // counted from the closing parenthesis, which ends field 2.
        let Some(after) = text.rfind(')').map(|at| &text[at + 1..]) else {
            return ProcCounters::default();
        };
        let fields: Vec<&str> = after.split_whitespace().collect();
        let num = |field: usize| {
            fields
                .get(field - 3)
                .and_then(|s| s.parse::<u64>().ok())
                .unwrap_or(0)
        };
        ProcCounters {
            minor_faults: num(10),
            cpu_seconds: (num(14) + num(15)) as f64 / USER_HZ,
        }
    }

    /// Counters accumulated since `earlier`.
    pub fn since(&self, earlier: &ProcCounters) -> ProcCounters {
        ProcCounters {
            minor_faults: self.minor_faults.saturating_sub(earlier.minor_faults),
            cpu_seconds: (self.cpu_seconds - earlier.cpu_seconds).max(0.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_see_this_process() {
        assert!(peak_rss_mib() > 0.0);
        assert!(rss_mib() > 0.0 && rss_mib() <= peak_rss_mib());
        let before = ProcCounters::read();
        let touched = vec![1u8; 1 << 22];
        assert_eq!(touched.iter().map(|&b| u64::from(b)).sum::<u64>(), 1 << 22);
        let delta = ProcCounters::read().since(&before);
        assert!(delta.minor_faults > 0, "4 MiB of fresh pages must fault");
    }

    #[test]
    fn env_probe_reads_a_page_size() {
        let env = HostEnv::probe();
        assert!(env.nproc >= 1);
        assert!(env.page_size.is_power_of_two(), "{}", env.page_size);
        assert!(env.line().contains("vector_engine="));
    }
}
