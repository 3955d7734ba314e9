//! The Cuckoo directory — the primary contribution of *Cuckoo Directory: A
//! Scalable Directory for Many-Core Systems* (HPCA 2011).
//!
//! A Cuckoo directory slice is a *d-ary cuckoo hash table* (Fotakis et al.)
//! used as a coherence-directory tag store: `d` direct-mapped ways, each
//! indexed through a different hash function.  Lookups probe all ways in
//! parallel, exactly like a skewed-associative structure, so lookup energy
//! and latency match a conventional 3/4-way set-associative directory.  The
//! difference is the *insertion* procedure (Section 4 of the paper): instead
//! of evicting a victim from the small set of conflicting entries, the
//! Cuckoo directory *displaces* the victim into one of its alternate ways,
//! iterating until some displaced entry lands in a vacant slot.  Below
//! ~50 % occupancy this practically never fails, so the directory avoids the
//! forced invalidations that plague Sparse directories without
//! over-provisioning capacity.
//!
//! The crate provides two layers:
//!
//! * [`CuckooTable`] — the raw d-ary cuckoo hash table (keys plus an
//!   arbitrary payload), exposing insertion-attempt counts and failure
//!   statistics.  This is the structure characterized in Figure 7.
//! * [`CuckooDirectory`] — a full coherence-directory slice built on the
//!   table, implementing the common [`ccd_directory::Directory`] trait so it
//!   can be dropped into the coherence simulator next to the Sparse, Skewed,
//!   Duplicate-Tag, In-Cache and Tagless baselines.
//!
//! # Quick start
//!
//! ```
//! use ccd_common::{CacheId, LineAddr};
//! use ccd_cuckoo::{CuckooConfig, CuckooDirectory};
//! use ccd_directory::{Directory, DirectoryOp, Outcome};
//! use ccd_sharers::FullBitVector;
//!
//! // The paper's Shared-L2 configuration: a 4-way x 512-set slice (1x
//! // provisioning for a 16-core CMP with 32 L1 caches).
//! let config = CuckooConfig::new(4, 512, 32);
//! let mut dir = CuckooDirectory::<FullBitVector>::new(config)?;
//!
//! let line = LineAddr::from_block_number(0x40_1234);
//! let mut out = Outcome::new();
//! dir.apply(DirectoryOp::AddSharer { line, cache: CacheId::new(7) }, &mut out);
//! assert!(out.allocated_new_entry());
//! assert_eq!(out.insertion_attempts(), 1);
//! dir.apply(DirectoryOp::Probe { line }, &mut out);
//! assert_eq!(out.sharers(), &[CacheId::new(7)]);
//! # Ok::<(), ccd_common::ConfigError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod config;
pub mod directory;
#[doc(hidden)]
pub mod seed_reference;
pub mod simd;
#[allow(unsafe_code, reason = "unchecked slots, uninit payloads")]
pub mod table;

pub use config::CuckooConfig;
pub use directory::CuckooDirectory;
pub use simd::VectorEngine;
pub use table::{CuckooTable, FindOrInsert, InsertOutcome, PIPELINE_DEPTH};

use ccd_common::ConfigError;
use ccd_directory::{match_sharer_format, BuilderRegistry, Directory, DirectorySpec};
use ccd_hash::HashKind;

/// The registry builder for `cuckoo-WxS[-hash][-policy]` specs.
fn build_cuckoo(spec: &DirectorySpec) -> Result<Box<dyn Directory>, ConfigError> {
    let config = CuckooConfig::new(spec.ways, spec.sets, spec.caches)
        .with_hash_kind(spec.hash.unwrap_or(HashKind::Skewing))
        .with_insert_policy(spec.policy);
    Ok(match_sharer_format!(spec.sharers, spec.caches, S => {
        Box::new(CuckooDirectory::<S>::new(config)?)
    }))
}

/// A [`BuilderRegistry`] covering all six directory organizations of the
/// paper's evaluation: the five baselines plus the Cuckoo directory.
///
/// ```
/// let registry = ccd_cuckoo::standard_registry();
/// let dir = registry.build_str("cuckoo-4x512-skew").unwrap();
/// assert_eq!(dir.capacity(), 2048);
/// ```
#[must_use]
pub const fn standard_registry() -> BuilderRegistry {
    BuilderRegistry::with_cuckoo(build_cuckoo)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccd_directory::{Directory, Org};
    use ccd_sharers::FullBitVector;

    #[test]
    fn crate_level_wiring_smoke_test() {
        let dir =
            CuckooDirectory::<FullBitVector>::new(CuckooConfig::new(4, 64, 8)).expect("valid");
        assert_eq!(dir.capacity(), 256);
        assert!(dir.is_empty());
    }

    #[test]
    fn standard_registry_builds_all_six_organizations() {
        for org in Org::ALL {
            let spec = DirectorySpec::new(org, 4, 64);
            let dir = standard_registry()
                .build(&spec)
                .unwrap_or_else(|e| panic!("{spec}: {e}"));
            assert!(dir.capacity() > 0, "{spec}");
            assert_eq!(spec.to_string().parse::<DirectorySpec>(), Ok(spec));
        }
    }

    #[test]
    fn sharded_cuckoo_aggregates_insertion_failures() {
        use ccd_common::rng::{Rng64, SplitMix64};
        use ccd_common::{CacheId, LineAddr};
        use ccd_directory::{DirectoryOp, Outcome, ShardedDirectory};

        let registry = standard_registry();
        let slices: Vec<Box<dyn Directory>> = (0..4)
            .map(|_| registry.build_str("cuckoo-2x8-strong-c4").unwrap())
            .collect();
        let mut dir = ShardedDirectory::new(slices).unwrap();
        // Drive far past the 64-entry total capacity so attempt budgets run
        // out and shards discard entries.
        let mut rng = SplitMix64::new(99);
        let mut out = Outcome::new();
        for _ in 0..600 {
            let line = LineAddr::from_block_number(rng.next_below(100_000));
            let cache = CacheId::new(rng.next_below(4) as u32);
            dir.apply(DirectoryOp::AddSharer { line, cache }, &mut out);
        }
        let aggregated = dir.stats().insertion_failures.get();
        let per_shard: u64 = dir
            .shards()
            .iter()
            .map(|s| s.stats().insertion_failures.get())
            .sum();
        assert!(per_shard > 0, "test must actually exhaust attempt budgets");
        assert_eq!(
            aggregated, per_shard,
            "wrapper must report the same failures its shards record"
        );
    }

    #[test]
    fn registry_cuckoo_honours_hash_and_sharer_modifiers() {
        use ccd_common::{CacheId, LineAddr};
        use ccd_directory::{DirectoryOp, Outcome};

        let registry = standard_registry();
        let dir = registry
            .build_str("cuckoo-3x8192-strong-c16@coarse")
            .unwrap();
        assert_eq!(dir.organization(), "cuckoo-3x8192-strong");
        assert_eq!(dir.num_caches(), 16);
        // Three caches share a line — one more than `@coarse` has exact
        // pointers, so it answers with whole regions where `@full` is exact.
        let probed_sharers = |mut dir: Box<dyn Directory>| {
            let line = LineAddr::from_block_number(7);
            let mut out = Outcome::new();
            for cache in [0, 5, 10].map(CacheId::new) {
                dir.apply(DirectoryOp::AddSharer { line, cache }, &mut out);
            }
            dir.apply(DirectoryOp::Probe { line }, &mut out);
            out.sharers().len()
        };
        let full = registry.build_str("cuckoo-3x8192-strong-c16@full").unwrap();
        assert_eq!(probed_sharers(full), 3);
        assert!(probed_sharers(dir) > 3);
        let dir = registry.build_str("cuckoo-4x512-skew").unwrap();
        assert_eq!(dir.organization(), "cuckoo-4x512-skewing");
    }

    #[test]
    fn registry_cuckoo_honours_policy_modifiers() {
        let registry = standard_registry();
        // A non-default insertion policy round-trips through the label.
        let dir = registry.build_str("cuckoo-4x64-strong-bfs").unwrap();
        assert_eq!(dir.organization(), "cuckoo-4x64-strong-bfs");
        // It composes with a hash family (policy after hash, per grammar).
        let dir = registry.build_str("cuckoo-4x64-ms-bfs-c16").unwrap();
        assert_eq!(dir.organization(), "cuckoo-4x64-multiply-shift-bfs");
        // The default greedy policy leaves the label unchanged.
        let dir = registry.build_str("cuckoo-4x64-strong-greedy").unwrap();
        assert_eq!(dir.organization(), "cuckoo-4x64-strong");
    }
}
