//! Runtime directory construction: spec strings and the builder registry.
//!
//! The simulator, the service and the results program all want to
//! pick a directory organization from *configuration* — a string like
//! `cuckoo-4x1024-skew` or `sparse-8x2048` — rather than from compile-time
//! generics.  This module provides:
//!
//! * [`DirectorySpec`] — the parsed form of a spec string: organization
//!   ([`Org`]), `ways × sets` geometry, and optional modifiers (hash family,
//!   sharer format, tracked-cache count, shard count);
//! * [`BuilderRegistry`] — one `match` on [`Org`] to the organization's
//!   constructor.  The five baselines are built here; the Cuckoo directory
//!   lives upstack, so `ccd-cuckoo`'s `standard_registry()` injects its
//!   builder.
//!
//! # Spec-string grammar
//!
//! ```text
//! [shardedN:]ORG-WxS[-HASH][-cCACHES][@SHARERS]
//! ```
//!
//! * `ORG` — `cuckoo`, `sparse`, `skewed`, `duplicate-tag` (alias
//!   `duptag`), `in-cache` (alias `incache`), `tagless`;
//! * `WxS` — ways × sets.  For `duplicate-tag`/`tagless`, `W` is the
//!   mirrored cache associativity and `S` the mirrored sets; for
//!   `in-cache`, the embedding L2 bank geometry;
//! * `HASH` — `skew` or `strong` (organizations with hashed indexing
//!   only);
//! * `cCACHES` — number of tracked private caches (default 32);
//! * `@SHARERS` — `full`, `limited`, `coarse`, or `hier` (default `full`);
//! * `shardedN:` — interleave the capacity across `N` identical slices
//!   behind a [`ShardedDirectory`]; `S` must be divisible by `N`.
//!
//! The modifiers are read by [`Clauses`], the reader of every other spec
//! grammar: each appears at most once (a second hash or cache-count
//! token is an error naming it, not an override of the first), and an
//! unknown one is an error naming it.
//!
//! ```
//! use ccd_directory::{DirectorySpec, Org};
//! use ccd_sharers::SharerFormat;
//!
//! let spec: DirectorySpec = "sparse-8x2048-c16@coarse".parse().unwrap();
//! assert_eq!((spec.org, spec.ways, spec.sets), (Org::Sparse, 8, 2048));
//! assert_eq!((spec.caches, spec.sharers), (16, SharerFormat::Coarse));
//!
//! let spec: DirectorySpec = "sharded4:skewed-4x1024".parse().unwrap();
//! assert_eq!(spec.shards, 4);
//! assert_eq!(spec.to_string(), "sharded4:skewed-4x1024");
//! ```

use crate::{Directory, DuplicateTagDirectory, ShardedDirectory, SlotDirectory, TaglessDirectory};
use ccd_common::clause::Clauses;
use ccd_common::ConfigError;
use ccd_hash::HashKind;
use ccd_sharers::SharerFormat;
use std::fmt;
use std::str::FromStr;

/// Default tracked-cache count when a spec string names none (the paper's
/// 16-core Shared-L2 system tracks 32 L1 caches).
pub(crate) const DEFAULT_CACHES: usize = 32;

/// The six directory organizations of the paper's evaluation.  `Display`
/// prints the canonical spec-string name.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Org {
    /// The Cuckoo directory (built upstack, by `ccd-cuckoo`).
    Cuckoo,
    /// Set-associative Sparse directory.
    Sparse,
    /// Skewed-associative directory.
    Skewed,
    /// Duplicate-Tag directory mirroring the tracked caches.
    DuplicateTag,
    /// In-cache directory embedded in the L2 banks.
    InCache,
    /// Tagless (Bloom-filter grid) directory.
    Tagless,
}

impl Org {
    /// Every organization.
    pub const ALL: [Org; 6] = [
        Org::Cuckoo,
        Org::Sparse,
        Org::Skewed,
        Org::DuplicateTag,
        Org::InCache,
        Org::Tagless,
    ];

    /// Every spec-string spelling, with `duptag` and `incache` as aliases.
    const ALIASES: [(&'static str, Org); 8] = [
        ("duplicate-tag", Org::DuplicateTag),
        ("duptag", Org::DuplicateTag),
        ("in-cache", Org::InCache),
        ("incache", Org::InCache),
        ("cuckoo", Org::Cuckoo),
        ("sparse", Org::Sparse),
        ("skewed", Org::Skewed),
        ("tagless", Org::Tagless),
    ];
}

impl fmt::Display for Org {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Org::Cuckoo => "cuckoo",
            Org::Sparse => "sparse",
            Org::Skewed => "skewed",
            Org::DuplicateTag => "duplicate-tag",
            Org::InCache => "in-cache",
            Org::Tagless => "tagless",
        })
    }
}

/// A parsed directory specification (see the module docs for the grammar).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DirectorySpec {
    /// The organization.
    pub org: Org,
    /// Ways (or mirrored associativity; see the grammar).
    pub ways: usize,
    /// Sets per way (or mirrored sets; see the grammar).
    pub sets: usize,
    /// Index hash family, for organizations that hash their ways.
    pub hash: Option<HashKind>,
    /// Per-entry sharer representation.
    pub sharers: SharerFormat,
    /// Number of tracked private caches.
    pub caches: usize,
    /// Number of address-interleaved slices (1 = monolithic).
    pub shards: usize,
}

impl DirectorySpec {
    /// A spec with the given organization and geometry and all modifiers at
    /// their defaults.
    #[must_use]
    pub fn new(org: Org, ways: usize, sets: usize) -> Self {
        DirectorySpec {
            org,
            ways,
            sets,
            hash: None,
            sharers: SharerFormat::FullVector,
            caches: DEFAULT_CACHES,
            shards: 1,
        }
    }

    /// Returns the spec with a different tracked-cache count.
    #[must_use]
    pub fn with_caches(mut self, caches: usize) -> Self {
        self.caches = caches;
        self
    }

    /// Returns the spec with an explicit hash family.
    #[must_use]
    pub fn with_hash(mut self, hash: HashKind) -> Self {
        self.hash = Some(hash);
        self
    }

    /// Returns the spec with a different sharer format.
    #[must_use]
    pub(crate) fn with_sharers(mut self, sharers: SharerFormat) -> Self {
        self.sharers = sharers;
        self
    }

    /// Returns the spec interleaved over `shards` slices.
    #[must_use]
    pub(crate) fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    fn parse_error(input: &str, why: impl fmt::Display) -> ConfigError {
        ConfigError::Parse {
            what: format!("directory spec `{input}`: {why}"),
        }
    }
}

impl FromStr for DirectorySpec {
    type Err = ConfigError;

    fn from_str(input: &str) -> Result<Self, ConfigError> {
        let mut body = input.trim();

        // `shardedN:` prefix.
        let mut shards = 1usize;
        if let Some(rest) = body.strip_prefix("sharded") {
            let (count, rest) = rest.split_once(':').ok_or_else(|| {
                Self::parse_error(input, "expected `shardedN:<spec>` (missing `:`)")
            })?;
            shards = count
                .parse()
                .ok()
                .filter(|&shards| shards > 0)
                .ok_or_else(|| {
                    Self::parse_error(input, format!("invalid shard count `{count}`"))
                })?;
            body = rest;
        }

        // `@SHARERS` suffix.
        let mut sharers = SharerFormat::FullVector;
        if let Some((rest, fmt)) = body.rsplit_once('@') {
            sharers = fmt.parse().map_err(|_| {
                Self::parse_error(
                    input,
                    format!("unknown sharer format `{fmt}` (known: full, limited, coarse, hier)"),
                )
            })?;
            body = rest;
        }

        // Organization: the alias followed by `-`, so names containing `-`
        // (duplicate-tag, in-cache) parse unambiguously.
        let (alias, org) = Org::ALIASES
            .into_iter()
            .find(|(alias, _)| {
                body.strip_prefix(alias)
                    .is_some_and(|rest| rest.starts_with('-'))
            })
            .ok_or_else(|| {
                // A known organization with no geometry gets the more
                // precise error.
                if Org::ALIASES.iter().any(|(alias, _)| body == *alias) {
                    Self::parse_error(
                        input,
                        format!("organization `{body}` is missing its `-WxS` geometry"),
                    )
                } else {
                    let known: Vec<&str> = Org::ALIASES.iter().map(|(alias, _)| *alias).collect();
                    Self::parse_error(
                        input,
                        format!(
                            "unknown organization `{}` (known: {})",
                            body.split('-').next().unwrap_or(body),
                            known.join(", ")
                        ),
                    )
                }
            })?;
        let rest = &body[alias.len() + 1..];

        // Geometry, then optional `-` separated modifiers.
        let (mut modifiers, geometry) = Clauses::within("directory spec", input, rest, "modifier");
        let (ways, sets) = geometry
            .split_once('x')
            .and_then(|(w, s)| Some((w.parse().ok()?, s.parse().ok()?)))
            .ok_or_else(|| {
                modifiers.error(format_args!("expected `WxS` geometry, got `{geometry}`"))
            })?;
        if ways == 0 || sets == 0 {
            return Err(modifiers.error(format_args!("geometry `{geometry}` has no entries")));
        }

        let mut spec = DirectorySpec::new(org, ways, sets)
            .with_sharers(sharers)
            .with_shards(shards);
        while let Some(token) = modifiers.next_clause() {
            if let Some(caches) = modifiers.value("c", 1..)? {
                spec.caches = caches;
            } else if let Ok(hash) = token.parse() {
                modifiers.claim("hash")?;
                spec.hash = Some(hash);
            } else {
                return Err(modifiers.unknown());
            }
        }
        check_caches(spec.caches)?;
        Ok(spec)
    }
}

impl fmt::Display for DirectorySpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.shards > 1 {
            write!(f, "sharded{}:", self.shards)?;
        }
        write!(f, "{}-{}x{}", self.org, self.ways, self.sets)?;
        if let Some(hash) = self.hash {
            let name = match hash {
                HashKind::Skewing => "skew",
                HashKind::Strong => "strong",
            };
            write!(f, "-{name}")?;
        }
        if self.caches != DEFAULT_CACHES {
            write!(f, "-c{}", self.caches)?;
        }
        if self.sharers != SharerFormat::FullVector {
            let name = match self.sharers {
                SharerFormat::FullVector => unreachable!(),
                SharerFormat::LimitedPointer => "limited",
                SharerFormat::Coarse => "coarse",
                SharerFormat::Hierarchical => "hier",
            };
            write!(f, "@{name}")?;
        }
        Ok(())
    }
}

/// Most entries one slice may have.  No organization's slot — tag, sharer
/// set, replacement state; a slot organization's limited-pointer entry
/// makes the widest, 56 bytes — is larger than 128 bytes, so up to here every slot
/// array is a representable [`Layout`](std::alloc::Layout) (at most
/// `isize::MAX` bytes) and past it none need be.
pub(crate) const MAX_CAPACITY: usize = isize::MAX as usize / 128;

/// The error for a `ways × sets` geometry of more entries than can exist:
/// past `MAX_CAPACITY`, or refused by the allocator at any size.  An
/// allocator does not say what it would have granted, so for a refusal
/// below `MAX_CAPACITY` the reported maximum is one less than was asked.
#[must_use]
pub fn capacity_too_large(ways: usize, sets: usize) -> ConfigError {
    let value = (ways as u64).saturating_mul(sets as u64);
    ConfigError::TooLarge {
        what: "directory capacity",
        value,
        max: (MAX_CAPACITY as u64).min(value.saturating_sub(1)),
    }
}

/// `ways × sets`, checked: the one place a geometry's entry count is
/// computed before anything is sized, indexed or allocated from it.
///
/// # Errors
///
/// [`capacity_too_large`] when the product overflows or exceeds
/// `MAX_CAPACITY`.
pub fn checked_capacity(ways: usize, sets: usize) -> Result<usize, ConfigError> {
    ways.checked_mul(sets)
        .filter(|&capacity| capacity <= MAX_CAPACITY)
        .ok_or_else(|| capacity_too_large(ways, sets))
}

/// Sets per way of a `ways`-way slice provisioned at `provisioning` × the
/// `tracked_frames` blocks it must be able to track ("Sparse 2×", "Cuckoo
/// 1.5×"): the capacity target rounded up to a power-of-two set count, at
/// least 2.  The simulator sizes its slices and the analytical model prices
/// them through this one rule.
#[must_use]
pub fn provisioned_sets(ways: usize, tracked_frames: usize, provisioning: f64) -> usize {
    let capacity = (tracked_frames as f64 * provisioning).ceil() as usize;
    capacity.div_ceil(ways.max(1)).next_power_of_two().max(2)
}

/// Cache ids are 32-bit ([`ccd_common::CacheId`]), so no sharer
/// representation tracks more than `u32::MAX` caches: checked where a spec
/// is parsed and where one is built, before any sharer set is sized from it.
fn check_caches(caches: usize) -> Result<(), ConfigError> {
    match u32::try_from(caches) {
        Ok(_) => Ok(()),
        Err(_) => Err(ConfigError::TooLarge {
            what: "cache count",
            value: caches as u64,
            max: u64::from(u32::MAX),
        }),
    }
}

/// `len` cells of `fill`, or `None` when the allocator refuses them: a
/// geometry no machine can hold is an error of its constructor, not an
/// abort of the process.
pub(crate) fn try_filled<T: Clone>(len: usize, fill: T) -> Option<Vec<T>> {
    let mut cells = Vec::new();
    cells.try_reserve_exact(len).ok()?;
    cells.resize(len, fill);
    Some(cells)
}

/// A builder function constructing one (unsharded) directory slice.
pub(crate) type DirectoryBuilder = fn(&DirectorySpec) -> Result<Box<dyn Directory>, ConfigError>;

/// Dispatches over the spec's sharer format, binding the chosen
/// representation type to `$S` inside `$body`.  The full and hierarchical
/// formats name the same exact sets, so both get a full vector, chosen here
/// once per directory from its cache count `$caches`: the presence word
/// alone up to 64 caches, in the narrowest of `u16` (up to 16 caches),
/// `u32` (up to 32) and `u64` (up to 64) that holds the count
/// ([`ccd_sharers::PresenceWord`]), and heap words above
/// ([`ccd_sharers::WideBitVector`]).  A cuckoo entry with full 64-bit keys
/// is then 11 bytes at 16 caches, 13 at 32 and 17 at 64, and 4 bytes less
/// where the cuckoo builder picks narrow keys as well.
#[macro_export]
macro_rules! match_sharer_format {
    ($format:expr, $caches:expr, $S:ident => $body:expr) => {
        match $format {
            ccd_sharers::SharerFormat::FullVector | ccd_sharers::SharerFormat::Hierarchical
                if $caches <= ccd_sharers::PresenceWord::<u16>::CACHES =>
            {
                type $S = ccd_sharers::PresenceWord<u16>;
                $body
            }
            ccd_sharers::SharerFormat::FullVector | ccd_sharers::SharerFormat::Hierarchical
                if $caches <= ccd_sharers::PresenceWord::<u32>::CACHES =>
            {
                type $S = ccd_sharers::PresenceWord<u32>;
                $body
            }
            ccd_sharers::SharerFormat::FullVector | ccd_sharers::SharerFormat::Hierarchical
                if $caches <= ccd_sharers::FullBitVector::CACHES =>
            {
                type $S = ccd_sharers::FullBitVector;
                $body
            }
            ccd_sharers::SharerFormat::FullVector | ccd_sharers::SharerFormat::Hierarchical => {
                type $S = ccd_sharers::WideBitVector;
                $body
            }
            ccd_sharers::SharerFormat::LimitedPointer => {
                type $S = ccd_sharers::LimitedPointer;
                $body
            }
            ccd_sharers::SharerFormat::Coarse => {
                type $S = ccd_sharers::CoarseVector;
                $body
            }
        }
    };
}

/// Builds any [`Org`]: the five baselines from this crate, the Cuckoo
/// directory from the builder `ccd-cuckoo` injects.
#[derive(Clone, Copy, Debug)]
pub struct BuilderRegistry {
    cuckoo: DirectoryBuilder,
}

/// Rejects a `-HASH` modifier on organizations that do not hash their ways,
/// so e.g. `sparse-8x512-skew` fails loudly instead of silently building a
/// modulo-indexed directory.
fn reject_hash(spec: &DirectorySpec) -> Result<(), ConfigError> {
    if spec.hash.is_some() {
        return Err(ConfigError::Parse {
            what: format!("organization `{}` does not take a hash modifier", spec.org),
        });
    }
    Ok(())
}

/// Rejects an `@SHARERS` modifier on organizations that store no per-entry
/// sharer set (sharer identity is implicit in their structure).
fn reject_sharers(spec: &DirectorySpec) -> Result<(), ConfigError> {
    if spec.sharers != SharerFormat::FullVector {
        return Err(ConfigError::Parse {
            what: format!(
                "organization `{}` has no per-entry sharer set; the `@{}` modifier does not apply",
                spec.org, spec.sharers
            ),
        });
    }
    Ok(())
}

fn build_sparse(spec: &DirectorySpec) -> Result<Box<dyn Directory>, ConfigError> {
    reject_hash(spec)?;
    Ok(match_sharer_format!(spec.sharers, spec.caches, S => {
        Box::new(SlotDirectory::<S>::sparse(spec.ways, spec.sets, spec.caches)?)
    }))
}

fn build_skewed(spec: &DirectorySpec) -> Result<Box<dyn Directory>, ConfigError> {
    let hash = spec.hash.unwrap_or(HashKind::Skewing);
    Ok(match_sharer_format!(spec.sharers, spec.caches, S => {
        Box::new(SlotDirectory::<S>::skewed(spec.ways, spec.sets, spec.caches, hash)?)
    }))
}

fn build_duplicate_tag(spec: &DirectorySpec) -> Result<Box<dyn Directory>, ConfigError> {
    // `ways` mirrors the tracked caches' associativity; sharer identity is
    // implicit in which mirror a tag sits in.
    reject_hash(spec)?;
    reject_sharers(spec)?;
    Ok(Box::new(DuplicateTagDirectory::new(
        spec.sets,
        spec.ways,
        spec.caches,
    )?))
}

fn build_in_cache(spec: &DirectorySpec) -> Result<Box<dyn Directory>, ConfigError> {
    reject_hash(spec)?;
    Ok(match_sharer_format!(spec.sharers, spec.caches, S => {
        Box::new(SlotDirectory::<S>::in_cache(spec.ways, spec.sets, spec.caches)?)
    }))
}

fn build_tagless(spec: &DirectorySpec) -> Result<Box<dyn Directory>, ConfigError> {
    reject_hash(spec)?;
    reject_sharers(spec)?;
    Ok(Box::new(TaglessDirectory::new(
        spec.sets,
        spec.ways,
        spec.caches,
    )?))
}

impl BuilderRegistry {
    /// All six organizations, `cuckoo` built by `cuckoo`.
    #[must_use]
    pub const fn with_cuckoo(cuckoo: DirectoryBuilder) -> Self {
        BuilderRegistry { cuckoo }
    }

    /// Builds the directory described by `spec`; sharded specs produce a
    /// [`ShardedDirectory`] of `spec.shards` identical slices whose total
    /// capacity equals the unsharded spec's.
    ///
    /// # Errors
    ///
    /// * [`ConfigError::Inconsistent`] when the set count is not divisible
    ///   by the shard count,
    /// * [`ConfigError::TooLarge`] when `ways × sets` is not a capacity
    ///   that can exist ([`checked_capacity`]) or the cache count does not
    ///   fit the 32-bit cache ids,
    /// * any error from the organization's own constructor.
    pub fn build(&self, spec: &DirectorySpec) -> Result<Box<dyn Directory>, ConfigError> {
        let builder: DirectoryBuilder = match spec.org {
            Org::Cuckoo => self.cuckoo,
            Org::Sparse => build_sparse,
            Org::Skewed => build_skewed,
            Org::DuplicateTag => build_duplicate_tag,
            Org::InCache => build_in_cache,
            Org::Tagless => build_tagless,
        };
        // Every organization multiplies `ways × sets` unchecked from here
        // on, and a sharded directory sums its slices' capacities.
        checked_capacity(spec.ways, spec.sets)?;
        check_caches(spec.caches)?;
        if spec.shards == 1 {
            return builder(spec);
        }
        if !spec.sets.is_multiple_of(spec.shards) {
            return Err(ConfigError::Inconsistent {
                what: "sharded spec requires the set count to be divisible by the shard count",
            });
        }
        let slice_spec = DirectorySpec {
            sets: spec.sets / spec.shards,
            shards: 1,
            ..spec.clone()
        };
        let slices = (0..spec.shards)
            .map(|_| builder(&slice_spec))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Box::new(ShardedDirectory::new(slices)?))
    }

    /// Parses `input` and builds the resulting spec.
    ///
    /// # Errors
    ///
    /// See [`DirectorySpec::from_str`] and [`BuilderRegistry::build`].
    pub fn build_str(&self, input: &str) -> Result<Box<dyn Directory>, ConfigError> {
        self.build(&input.parse()?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The five baselines.  The cuckoo builder lives upstack; no test here
    /// builds a `cuckoo` spec, so a baseline's builder stands in for it.
    fn baselines() -> BuilderRegistry {
        BuilderRegistry::with_cuckoo(build_sparse)
    }

    #[test]
    fn parses_the_issue_examples() {
        let spec: DirectorySpec = "cuckoo-4x1024-skew".parse().unwrap();
        assert_eq!(spec.org, Org::Cuckoo);
        assert_eq!((spec.ways, spec.sets), (4, 1024));
        assert_eq!(spec.hash, Some(HashKind::Skewing));
        assert_eq!(spec.sharers, SharerFormat::FullVector);
        assert_eq!(spec.caches, DEFAULT_CACHES);
        assert_eq!(spec.shards, 1);

        let spec: DirectorySpec = "sparse-8x2048".parse().unwrap();
        assert_eq!(spec.org, Org::Sparse);
        assert_eq!((spec.ways, spec.sets), (8, 2048));
        assert_eq!(spec.hash, None);
    }

    #[test]
    fn parses_modifiers_and_aliases() {
        let spec: DirectorySpec = "sharded4:duptag-16x512-c16@coarse".parse().unwrap();
        assert_eq!(spec.org, Org::DuplicateTag);
        assert_eq!(spec.shards, 4);
        assert_eq!(spec.caches, 16);
        assert_eq!(spec.sharers, SharerFormat::Coarse);

        let spec: DirectorySpec = "in-cache-16x64@hier".parse().unwrap();
        assert_eq!(spec.org, Org::InCache);
        assert_eq!(spec.sharers, SharerFormat::Hierarchical);

        let spec: DirectorySpec = "skewed-4x256-strong".parse().unwrap();
        assert_eq!(spec.hash, Some(HashKind::Strong));

        let spec: DirectorySpec = "cuckoo-4x1024-strong-c16".parse().unwrap();
        assert_eq!(spec.hash, Some(HashKind::Strong));
        assert_eq!(spec.caches, 16);
    }

    #[test]
    fn rejects_malformed_specs() {
        assert!("".parse::<DirectorySpec>().is_err());
        assert!("mystery-4x64".parse::<DirectorySpec>().is_err());
        assert!("sparse".parse::<DirectorySpec>().is_err());
        assert!("sparse-4".parse::<DirectorySpec>().is_err());
        assert!("sparse-4xq".parse::<DirectorySpec>().is_err());
        assert!("sparse-0x64".parse::<DirectorySpec>().is_err());
        assert!("sparse-4x64-bogus".parse::<DirectorySpec>().is_err());
        assert!("sharded0:sparse-4x64".parse::<DirectorySpec>().is_err());
        assert!("shardedq:sparse-4x64".parse::<DirectorySpec>().is_err());
        assert!("sparse-4x64@martian".parse::<DirectorySpec>().is_err());
    }

    /// Every parse failure must name the offending token, not just reject
    /// the whole string — the difference between a usable CLI error and an
    /// afternoon of squinting.
    #[test]
    fn parse_errors_name_the_offending_token() {
        let message = |input: &str| input.parse::<DirectorySpec>().unwrap_err().to_string();

        let err = message("mystery-4x64");
        assert!(err.contains("`mystery`"), "{err}");
        assert!(err.contains("cuckoo"), "should list known orgs: {err}");

        let err = message("sparse");
        assert!(err.contains("`sparse`"), "{err}");
        assert!(err.contains("geometry"), "{err}");

        let err = message("sparse-4xq");
        assert!(err.contains("`4xq`"), "{err}");

        let err = message("sparse-4x64-bogus");
        assert!(err.contains("`bogus`"), "{err}");

        let err = message("shardedq:sparse-4x64");
        assert!(err.contains("`q`"), "{err}");

        let err = message("sparse-4x64@martian");
        assert!(err.contains("`martian`"), "{err}");

        // Empty and zero tokens are named too, not reported as a bare
        // "must be non-zero".
        for (input, token) in [
            ("sparse-4x64@", "`sparse-4x64@`"),
            ("sparse-0x64", "`0x64`"),
            ("sparse-4x0", "`4x0`"),
            ("sparse-4x64-c0", "`c0`"),
            ("sharded0:sparse-4x64", "`0`"),
        ] {
            assert!(
                message(input).contains(token),
                "{input}: {}",
                message(input)
            );
        }

        // A retired hash family or insertion-policy token is an unknown
        // modifier like any other, on every organization.
        for (input, token) in [
            ("cuckoo-4x64-tagalt", "tagalt"),
            ("cuckoo-4x1024-ms", "ms"),
            ("cuckoo-4x1024-mshift", "mshift"),
            ("skewed-4x256-multiply-shift", "multiply"),
            ("cuckoo-4x64-bfs", "bfs"),
            ("cuckoo-4x64-greedy", "greedy"),
            ("sparse-8x512-bfs", "bfs"),
            ("skewed-4x256-bfs", "bfs"),
            ("duplicate-tag-2x32-bfs", "bfs"),
            ("in-cache-16x64-bfs", "bfs"),
            ("tagless-2x32-bfs", "bfs"),
        ] {
            let err = message(input);
            assert!(
                err.contains(&format!("unknown modifier `{token}`")),
                "{err}"
            );
        }

        // A second hash or cache count is refused, not an override.
        for (input, second) in [
            ("cuckoo-4x64-skew-strong", "second `hash` modifier `strong`"),
            ("cuckoo-4x64-c16-c8", "second `c` modifier `c8`"),
        ] {
            let err = message(input);
            assert!(err.contains(second), "{err}");
        }

        // The full input is always quoted for context.
        for input in ["mystery-4x64", "sparse-4xq", "sparse-4x64-bogus"] {
            assert!(message(input).contains(input), "{input}");
        }
    }

    #[test]
    fn display_round_trips() {
        for input in [
            "sparse-8x2048",
            "skewed-4x1024-strong",
            "duplicate-tag-16x512-c16",
            "sharded4:sparse-4x256@coarse",
            "cuckoo-4x1024-skew",
            "cuckoo-4x1024-strong-c16",
        ] {
            let spec: DirectorySpec = input.parse().unwrap();
            assert_eq!(spec.to_string(), input);
            let reparsed: DirectorySpec = spec.to_string().parse().unwrap();
            assert_eq!(reparsed, spec);
        }
    }

    #[test]
    fn baseline_registry_builds_every_organization() {
        let registry = baselines();
        for spec in [
            "sparse-8x256",
            "skewed-4x256",
            "duplicate-tag-2x64",
            "in-cache-16x64",
            "tagless-2x64",
        ] {
            let dir = registry.build_str(spec).unwrap();
            assert!(dir.capacity() > 0, "{spec}");
            assert_eq!(dir.num_caches(), DEFAULT_CACHES, "{spec}");
        }
    }

    #[test]
    fn inapplicable_modifiers_are_rejected_at_build_time() {
        let registry = baselines();
        // Hash modifiers only apply to hashed-index organizations.
        assert!(registry.build_str("sparse-8x512-skew").is_err());
        assert!(registry.build_str("in-cache-16x64-strong").is_err());
        assert!(registry.build_str("duplicate-tag-2x32-skew").is_err());
        assert!(registry.build_str("tagless-2x32-skew").is_err());
        // Sharer formats only apply to organizations with per-entry sets.
        assert!(registry.build_str("duplicate-tag-2x32@coarse").is_err());
        assert!(registry.build_str("tagless-2x32@hier").is_err());
        // The skewed directory takes both modifiers.
        assert!(registry.build_str("skewed-4x256-strong@coarse").is_ok());
    }

    #[test]
    fn sharer_formats_select_distinct_storage() {
        use crate::testing::{add, line, probe};
        // Three caches share a line — one more than `@coarse` has exact
        // pointers, so it answers with whole regions where `@full` is exact.
        let registry = baselines();
        let probed_sharers = |spec: &str| {
            let mut dir = registry.build_str(spec).unwrap();
            let mut out = crate::Outcome::new();
            for cache in [0, 20, 40] {
                dir.apply(add(line(7), ccd_common::CacheId::new(cache)), &mut out);
            }
            probe(dir.as_mut(), line(7)).unwrap().len()
        };
        assert_eq!(probed_sharers("sparse-8x256-c64@full"), 3);
        assert!(probed_sharers("sparse-8x256-c64@coarse") > 3);
    }

    #[test]
    fn full_and_hierarchical_entries_are_the_narrowest_word_that_holds_the_count() {
        for format in [SharerFormat::FullVector, SharerFormat::Hierarchical] {
            let chosen = |caches: usize| {
                match_sharer_format!(format, caches, S => {
                    (std::mem::size_of::<S>(), std::any::type_name::<S>())
                })
            };
            for (caches, bytes) in [(1, 2), (16, 2), (17, 4), (32, 4), (33, 8), (64, 8)] {
                let (size, name) = chosen(caches);
                assert_eq!(size, bytes, "{format} at {caches} caches is {name}");
                assert!(
                    name.contains("PresenceWord"),
                    "{format} at {caches}: {name}"
                );
            }
            let (_, name) = chosen(65);
            assert!(
                name.ends_with("WideBitVector"),
                "{format} at 65 caches: {name}"
            );
        }
    }

    #[test]
    fn sharded_build_preserves_total_capacity() {
        let registry = baselines();
        let single = registry.build_str("sparse-4x1024").unwrap();
        let sharded = registry.build_str("sharded4:sparse-4x1024").unwrap();
        assert_eq!(single.capacity(), sharded.capacity());
        assert!(sharded.organization().starts_with("sharded4x["));
        // Indivisible set counts are rejected.
        assert!(registry.build_str("sharded3:sparse-4x1024").is_err());
    }

    #[test]
    fn capacity_is_checked_at_the_bound_and_at_the_wrap() {
        assert_eq!(checked_capacity(4, 1 << 20), Ok(4 << 20));
        assert_eq!(checked_capacity(1, MAX_CAPACITY), Ok(MAX_CAPACITY));
        let too_large = |ways, sets, value, max| {
            let want = ConfigError::TooLarge {
                what: "directory capacity",
                value,
                max,
            };
            assert_eq!(checked_capacity(ways, sets), Err(want), "{ways}x{sets}");
        };
        let bound = MAX_CAPACITY as u64;
        too_large(1, MAX_CAPACITY + 1, bound + 1, bound);
        too_large(2, 1 << 56, 1 << 57, bound);
        // 4 x 2^62 wraps to 0 and 4 x 2^63 to 0 again: reported saturated.
        too_large(4, 1 << 62, u64::MAX, bound);
        too_large(4, 1 << 63, u64::MAX, bound);
        // A refusal below the bound: all that is known is "less than asked".
        assert_eq!(
            capacity_too_large(4, 1 << 40),
            ConfigError::TooLarge {
                what: "directory capacity",
                value: 1 << 42,
                max: (1 << 42) - 1,
            }
        );

        // The cache count has a bound of its own: ids are 32-bit.  Checked
        // by the parser, and again by `build` for a spec assembled by hand.
        let registry = baselines();
        let ids = u64::from(u32::MAX);
        assert!(registry.build_str("sparse-4x64-c4294967295").is_ok());
        for caches in [ids + 1, u64::MAX] {
            let want = ConfigError::TooLarge {
                what: "cache count",
                value: caches,
                max: ids,
            };
            let input = format!("sharded2:sparse-4x64-c{caches}@coarse");
            assert_eq!(input.parse::<DirectorySpec>(), Err(want.clone()), "{input}");
            let by_hand = DirectorySpec::new(Org::Sparse, 4, 64).with_caches(caches as usize);
            assert_eq!(registry.build(&by_hand).err(), Some(want), "{caches}");
        }
    }
}
