//! The closed-loop load-generator frontend.
//!
//! Any workload the `ccd-workloads` catalog can name — a calibrated paper
//! profile, a parameterized sharing-pattern scenario, or a recorded trace
//! replay — becomes service traffic here: the workload's deterministic
//! [`MemRef`] stream is mapped reference-by-reference onto the directory
//! protocol (loads and instruction fetches add a sharer, stores request
//! exclusivity), and the service's bounded ingestion queues turn the
//! generator into a closed loop: it produces exactly as fast as the shard
//! workers drain.

use ccd_common::{BlockGeometry, CacheId, ConfigError, MemRef, DEFAULT_BLOCK_BYTES};
use ccd_directory::DirectoryOp;
use ccd_workloads::WorkloadSpec;

/// A fully-described service load: which workload, for how many cores,
/// which seed, and how many requests.  A pure value — streaming it twice
/// yields the same operations in the same order.
#[derive(Clone, Debug, PartialEq)]
pub struct LoadSpec {
    /// The workload producing the reference stream.
    pub workload: WorkloadSpec,
    /// Number of cores issuing references; core `n` is mapped to tracked
    /// cache `n`, so the directory spec must track at least this many
    /// caches.
    pub cores: usize,
    /// Trace-stream seed (ignored by trace replays).
    pub seed: u64,
    /// Number of requests to generate.
    pub requests: u64,
}

impl LoadSpec {
    /// A load spec from a workload spec string.
    ///
    /// # Errors
    ///
    /// Propagates [`WorkloadSpec`] parse errors (which quote the offending
    /// token).
    pub fn parse(
        workload: &str,
        cores: usize,
        seed: u64,
        requests: u64,
    ) -> Result<Self, ConfigError> {
        Ok(LoadSpec {
            workload: workload.parse()?,
            cores,
            seed,
            requests,
        })
    }

    /// Cheaply validates that [`LoadSpec::ops`] can supply the configured
    /// number of requests (scenario knobs, core pinning, replay headers).
    ///
    /// # Errors
    ///
    /// See [`WorkloadSpec::validate`].
    pub fn validate(&self) -> Result<(), ConfigError> {
        self.workload.validate(self.cores, self.requests)
    }

    /// Builds the deterministic operation stream, generated on the thread
    /// that pulls it ([`WorkloadSpec::stream_inline`]): the concurrent
    /// service's router and workers already keep the CPUs busy, and the
    /// serial reference stays one thread.
    ///
    /// # Errors
    ///
    /// See [`WorkloadSpec::stream_inline`].
    pub fn ops(&self) -> Result<OpStream, ConfigError> {
        self.validate()?;
        Ok(OpStream {
            refs: self.workload.stream_inline(self.cores, self.seed)?,
            geometry: BlockGeometry::new(DEFAULT_BLOCK_BYTES),
            remaining: self.requests,
        })
    }
}

/// Maps one memory reference onto the directory protocol: stores become
/// exclusive requests (invalidating other sharers), loads and instruction
/// fetches add a sharer.  `geometry` converts byte addresses to lines.
#[must_use]
pub(crate) fn op_for(reference: &MemRef, geometry: &BlockGeometry) -> DirectoryOp {
    let line = geometry.line_of(reference.addr);
    let cache = CacheId::new(reference.core.raw());
    if reference.kind.is_write() {
        DirectoryOp::SetExclusive { line, cache }
    } else {
        DirectoryOp::AddSharer { line, cache }
    }
}

/// The operation stream of one [`LoadSpec`]: a workload reference stream
/// mapped through `op_for`, truncated to the configured request count.
#[derive(Debug)]
pub struct OpStream {
    refs: Box<dyn ccd_workloads::TraceStream>,
    geometry: BlockGeometry,
    remaining: u64,
}

impl Iterator for OpStream {
    type Item = DirectoryOp;

    fn next(&mut self) -> Option<DirectoryOp> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let reference = self.refs.next()?;
        Some(op_for(&reference, &self.geometry))
    }

    /// Exact when the workload's is: every profile and scenario stream is
    /// infinite and a replay reports its records left, so a collected
    /// load is allocated once.
    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = usize::try_from(self.remaining).unwrap_or(usize::MAX);
        let (lower, upper) = self.refs.size_hint();
        (
            lower.min(remaining),
            Some(upper.map_or(remaining, |upper| upper.min(remaining))),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccd_common::{Address, CoreId};

    #[test]
    fn maps_reads_and_writes_onto_the_protocol() {
        let geometry = BlockGeometry::new(64);
        let read = MemRef::read(CoreId::new(3), Address::new(0x1040));
        let write = MemRef::write(CoreId::new(5), Address::new(0x1040));
        let ifetch = MemRef::ifetch(CoreId::new(1), Address::new(0x2000));
        let line = geometry.line_of(Address::new(0x1040));
        assert_eq!(
            op_for(&read, &geometry),
            DirectoryOp::AddSharer {
                line,
                cache: CacheId::new(3)
            }
        );
        assert_eq!(
            op_for(&write, &geometry),
            DirectoryOp::SetExclusive {
                line,
                cache: CacheId::new(5)
            }
        );
        assert!(matches!(
            op_for(&ifetch, &geometry),
            DirectoryOp::AddSharer { .. }
        ));
    }

    #[test]
    fn streams_are_deterministic_and_bounded() {
        let load = LoadSpec::parse("readmostly", 8, 42, 500).unwrap();
        let a: Vec<_> = load.ops().unwrap().collect();
        let b: Vec<_> = load.ops().unwrap().collect();
        assert_eq!(a.len(), 500);
        assert_eq!(a, b, "same spec, same ops");

        let reseeded = LoadSpec { seed: 43, ..load };
        let c: Vec<_> = reseeded.ops().unwrap().collect();
        assert_ne!(a, c, "the seed matters");
    }

    #[test]
    fn bad_workloads_fail_validation() {
        let load = LoadSpec::parse("migratory-16c", 4, 0, 100).unwrap();
        assert!(load.validate().is_err(), "core pinning mismatch");
        assert!(load.ops().is_err());
        assert!(LoadSpec::parse("martian", 4, 0, 100).is_err());
    }
}
