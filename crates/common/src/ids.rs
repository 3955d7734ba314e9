//! Strongly-typed identifiers for cores, caches and directory slices.
//!
//! The paper's system interleaves the directory across the tiles of the CMP
//! (Figure 2): each tile owns one L2 bank and one *directory slice*, and each
//! core owns one or two private caches (split I/D L1s in the Shared-L2
//! configuration, a unified private L2 in the Private-L2 configuration).
//!
//! Keeping the three identifier spaces as distinct types prevents the classic
//! "indexed the sharer vector with a tile id" class of bug.

use std::fmt;

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident, $display:literal) => {
        $(#[$doc])*
        #[derive(
            Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default,
        )]
        pub struct $name(u32);

        impl $name {
            /// Creates a new identifier from a raw index.
            #[must_use]
            pub const fn new(index: u32) -> Self {
                Self(index)
            }

            /// Returns the raw index.
            #[must_use]
            pub const fn index(self) -> usize {
                self.0 as usize
            }

            /// Returns the raw index as `u32`.
            #[must_use]
            pub const fn raw(self) -> u32 {
                self.0
            }
        }

        impl From<u32> for $name {
            fn from(index: u32) -> Self {
                Self(index)
            }
        }

        impl From<usize> for $name {
            fn from(index: usize) -> Self {
                Self(index as u32)
            }
        }

        impl From<$name> for usize {
            fn from(id: $name) -> usize {
                id.index()
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($display, "{}"), self.0)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($display, "{}"), self.0)
            }
        }
    };
}

id_type!(
    /// Identifier of a processing core (tile) in the CMP.
    CoreId,
    "core"
);

id_type!(
    /// Identifier of one private cache tracked by the directory.
    ///
    /// In the Shared-L2 configuration each core contributes two caches
    /// (split I and D L1s); in the Private-L2 configuration each core
    /// contributes one (its private L2).  Sharer vectors are indexed by
    /// `CacheId`.
    CacheId,
    "cache"
);

id_type!(
    /// Identifier of an address-interleaved directory slice / L2 bank (tile).
    SliceId,
    "slice"
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_round_trip_and_display() {
        let c = CoreId::new(7);
        assert_eq!(c.index(), 7);
        assert_eq!(c.raw(), 7);
        assert_eq!(format!("{c}"), "core7");
        assert_eq!(format!("{c:?}"), "core7");

        let k = CacheId::from(3usize);
        assert_eq!(usize::from(k), 3);
        assert_eq!(format!("{k}"), "cache3");

        let s = SliceId::from(11u32);
        assert_eq!(format!("{s}"), "slice11");
    }

    #[test]
    fn ordering_follows_index() {
        assert!(CoreId::new(1) < CoreId::new(2));
        assert!(CacheId::new(0) < CacheId::new(31));
    }
}
