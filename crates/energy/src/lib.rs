//! Analytical energy and area model for coherence-directory organizations.
//!
//! Figures 4 and 13 of the paper are *analytical projections*: for each
//! directory organization they plot, per core, the directory's energy per
//! operation (relative to a 1 MB 16-way L2 tag lookup) and its storage area
//! (relative to a 1 MB L2 data array) as the core count grows from 16 to
//! 1024.  The curves' shapes are entirely determined by how each
//! organization's *bits accessed per operation* and *bits stored per slice*
//! scale with the number of caches — Duplicate-Tag and Tagless read a number
//! of bits proportional to the cache count (quadratic aggregate energy),
//! full-vector and in-cache organizations store vectors proportional to the
//! cache count (quadratic aggregate area), while compressed-vector Sparse
//! and Cuckoo organizations keep both nearly constant per core.
//!
//! This crate reproduces those projections:
//!
//! * [`sram`] — the normalization references and the bits→energy/area
//!   proportionality,
//! * [`orgs`] — the organizations of the figures and the geometry each has
//!   at a given core count, priced by `ccd_directory::StorageProfile`'s
//!   four closed forms and sized by the rule the simulator sizes its own
//!   slices with,
//! * [`model`] — the per-core energy/area evaluation, core-count sweeps and
//!   the headline-ratio helpers (e.g. "7× more area-efficient than Sparse at
//!   1024 cores").
//!
//! # Example
//!
//! ```
//! use ccd_energy::{DirOrg, EnergyModel};
//!
//! let model = EnergyModel::shared_l2();
//! let cuckoo = model.evaluate(&DirOrg::cuckoo_coarse_shared(), 1024);
//! let dup = model.evaluate(&DirOrg::DuplicateTag, 1024);
//! assert!(cuckoo.energy_relative < dup.energy_relative);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod model;
pub mod orgs;
pub mod sram;

pub use model::{EnergyModel, ScalingPoint};
pub use orgs::DirOrg;
