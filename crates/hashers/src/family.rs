//! A single concrete type covering all hash families.
//!
//! Most of the workspace wants to be parameterized over the hash family by
//! *configuration* rather than by a generic type parameter (e.g. the
//! hash-function-selection study of Section 5.5 swaps families at runtime),
//! so [`HashFamily`] wraps the two concrete families behind one enum that
//! still implements [`IndexHashFamily`].

use crate::{IndexHashFamily, SkewingFamily, StrongFamily};
use ccd_common::{ConfigError, LineAddr};
use std::fmt;

/// Which hash-function family a directory should index its ways with.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum HashKind {
    /// Seznec–Bodin skewing functions — the paper's hardware choice
    /// (Section 5.5): a few levels of XOR logic.
    #[default]
    Skewing,
    /// Strong SplitMix-style mixers — stand-in for the paper's
    /// "cryptographic" functions.
    Strong,
}

impl fmt::Display for HashKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            HashKind::Skewing => "skewing",
            HashKind::Strong => "strong",
        };
        f.write_str(name)
    }
}

impl HashKind {
    /// Every kind, in ascending hardware-cost order: what the
    /// hash-function studies (Section 5.5 / Figure 7) sweep.
    #[must_use]
    pub const fn all() -> [HashKind; 2] {
        [HashKind::Skewing, HashKind::Strong]
    }
}

impl std::str::FromStr for HashKind {
    type Err = ConfigError;

    /// Parses the names used in directory-spec strings: `skew`/`skewing`,
    /// `strong`.
    fn from_str(s: &str) -> Result<Self, ConfigError> {
        match s {
            "skew" | "skewing" => Ok(HashKind::Skewing),
            "strong" => Ok(HashKind::Strong),
            other => Err(ConfigError::Parse {
                what: format!("unknown hash kind `{other}`"),
            }),
        }
    }
}

/// A runtime-selected hash-function family.
///
/// ```
/// use ccd_hash::{HashFamily, HashKind, IndexHashFamily};
/// use ccd_common::LineAddr;
///
/// let family = HashFamily::new(HashKind::Strong, 3, 8192)?;
/// assert_eq!(family.ways(), 3);
/// assert_eq!(family.sets(), 8192);
/// let idx = family.index(2, LineAddr::from_block_number(99));
/// assert!(idx < 8192);
/// # Ok::<(), ccd_common::ConfigError>(())
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum HashFamily {
    /// Seznec–Bodin skewing functions.
    Skewing(SkewingFamily),
    /// Strong mixers.
    Strong(StrongFamily),
}

impl HashFamily {
    /// Creates a family of the requested `kind` with `ways` functions over
    /// `sets` sets.
    ///
    /// # Errors
    ///
    /// Propagates the constructor errors of the underlying family (zero or
    /// excessive way counts, non-power-of-two set counts).
    pub fn new(kind: HashKind, ways: usize, sets: usize) -> Result<Self, ConfigError> {
        Ok(match kind {
            HashKind::Skewing => HashFamily::Skewing(SkewingFamily::new(ways, sets)?),
            HashKind::Strong => HashFamily::Strong(StrongFamily::new(ways, sets)?),
        })
    }

    /// Creates a family with an explicit seed where the family supports it
    /// (skewing functions are seedless and ignore the seed).
    ///
    /// # Errors
    ///
    /// Propagates the constructor errors of the underlying family.
    pub fn with_seed(
        kind: HashKind,
        ways: usize,
        sets: usize,
        seed: u64,
    ) -> Result<Self, ConfigError> {
        Ok(match kind {
            HashKind::Skewing => HashFamily::Skewing(SkewingFamily::new(ways, sets)?),
            HashKind::Strong => HashFamily::Strong(StrongFamily::with_seed(ways, sets, seed)?),
        })
    }

    /// The line whose bits above the index field are `high` and whose
    /// way-`way` index is `index`, where the family can invert its index:
    /// skewing ([`SkewingFamily::line_from_high`]).  `None` for strong,
    /// whose index mixes every address bit.
    #[inline]
    #[must_use]
    pub fn line_from_high(&self, way: usize, index: usize, high: u64) -> Option<LineAddr> {
        match self {
            HashFamily::Skewing(f) => Some(f.line_from_high(way, index, high)),
            HashFamily::Strong(_) => None,
        }
    }

    /// Returns which kind of family this is.
    #[must_use]
    pub fn kind(&self) -> HashKind {
        match self {
            HashFamily::Skewing(_) => HashKind::Skewing,
            HashFamily::Strong(_) => HashKind::Strong,
        }
    }
}

impl IndexHashFamily for HashFamily {
    fn ways(&self) -> usize {
        match self {
            HashFamily::Skewing(f) => f.ways(),
            HashFamily::Strong(f) => f.ways(),
        }
    }

    fn sets(&self) -> usize {
        match self {
            HashFamily::Skewing(f) => f.sets(),
            HashFamily::Strong(f) => f.sets(),
        }
    }

    #[inline]
    fn index(&self, way: usize, line: LineAddr) -> usize {
        match self {
            HashFamily::Skewing(f) => f.index(way, line),
            HashFamily::Strong(f) => f.index(way, line),
        }
    }

    // One enum dispatch for the whole probe instead of one per way.
    #[inline(always)]
    fn index_all_into(&self, line: LineAddr, out: &mut [usize]) {
        match self {
            HashFamily::Skewing(f) => f.index_all_into(line, out),
            HashFamily::Strong(f) => f.index_all_into(line, out),
        }
    }

    fn logic_levels(&self) -> u32 {
        match self {
            HashFamily::Skewing(f) => f.logic_levels(),
            HashFamily::Strong(f) => f.logic_levels(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enum_dispatch_matches_concrete_families() {
        let line = LineAddr::from_block_number(0x1234_5678);
        let concrete = SkewingFamily::new(4, 512).unwrap();
        let wrapped = HashFamily::new(HashKind::Skewing, 4, 512).unwrap();
        for way in 0..4 {
            assert_eq!(concrete.index(way, line), wrapped.index(way, line));
        }
        assert_eq!(wrapped.kind(), HashKind::Skewing);
        assert_eq!(wrapped.ways(), 4);
        assert_eq!(wrapped.sets(), 512);
    }

    #[test]
    fn errors_propagate_from_every_kind() {
        for kind in HashKind::all() {
            assert!(HashFamily::new(kind, 0, 64).is_err(), "{kind}");
            assert!(HashFamily::new(kind, 4, 100).is_err(), "{kind}");
        }
    }

    #[test]
    fn display_names() {
        assert_eq!(HashKind::Skewing.to_string(), "skewing");
        assert_eq!(HashKind::Strong.to_string(), "strong");
    }

    #[test]
    fn the_paper_evaluates_two_families() {
        assert_eq!(HashKind::all(), [HashKind::Skewing, HashKind::Strong]);
        for name in ["multiply-shift", "mshift", "ms"] {
            let err = name.parse::<HashKind>().expect_err(name);
            assert!(err.to_string().contains(&format!("`{name}`")), "{err}");
        }
    }

    #[test]
    fn seeded_construction_works_for_all_kinds() {
        for kind in HashKind::all() {
            let f = HashFamily::with_seed(kind, 3, 256, 7).unwrap();
            assert_eq!(f.ways(), 3);
            let idx = f.index(1, LineAddr::from_block_number(123));
            assert!(idx < 256);
        }
    }

    #[test]
    fn logic_level_ordering_matches_hardware_cost() {
        let skew = HashFamily::new(HashKind::Skewing, 4, 512).unwrap();
        let strong = HashFamily::new(HashKind::Strong, 4, 512).unwrap();
        assert!(skew.logic_levels() < strong.logic_levels());
    }
}
