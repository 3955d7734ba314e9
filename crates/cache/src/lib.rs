//! Set-associative private-cache models.
//!
//! The coherence directories track blocks held in *private* caches, so the
//! trace-driven simulator needs a functional model of those caches: which
//! blocks are resident, which block a fill displaces, and whether the victim
//! was dirty.  This crate provides that model:
//!
//! * [`CacheConfig`] — geometry (capacity/ways/block size) with presets for
//!   the paper's Table 1 parameters (split 64 KB 2-way L1s, 1 MB 16-way
//!   private L2s),
//! * [`Cache`] — a set-associative, write-back/write-allocate cache with LRU
//!   replacement, per-line MESI-lite coherence state, and eviction
//!   reporting,
//! * [`CacheStats`] — hit/miss/eviction counters.
//!
//! Timing is deliberately not modelled: the paper's directory results depend
//! only on the *sequence* of fills, upgrades and evictions each cache
//! generates, which a functional model reproduces.
//!
//! # Example
//!
//! ```
//! use ccd_cache::{AccessOutcome, Cache, CacheConfig};
//! use ccd_common::LineAddr;
//!
//! let mut l1 = Cache::new(CacheConfig::l1_64k())?;
//! let line = LineAddr::from_block_number(42);
//! let outcome = l1.access_read(line);
//! assert!(matches!(outcome, AccessOutcome::Miss { .. }));
//! assert!(l1.contains(line));
//! # Ok::<(), ccd_common::ConfigError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod cache;
pub mod config;

pub use cache::CacheStats;
pub use cache::Eviction;
pub use cache::{AccessOutcome, Cache, CoherenceState};
pub use config::CacheConfig;
