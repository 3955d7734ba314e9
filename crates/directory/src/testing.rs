//! Helpers shared by the organizations' unit tests.

use crate::{Directory, DirectoryOp, Outcome};
use ccd_common::{CacheId, LineAddr};

pub(crate) fn line(n: u64) -> LineAddr {
    LineAddr::from_block_number(n)
}

pub(crate) fn add(line: LineAddr, cache: CacheId) -> DirectoryOp {
    DirectoryOp::AddSharer { line, cache }
}

pub(crate) fn remove(line: LineAddr, cache: CacheId) -> DirectoryOp {
    DirectoryOp::RemoveSharer { line, cache }
}

/// `Probe`'s answer: `None` on a miss, the reported sharers on a hit.
pub(crate) fn probe(dir: &mut dyn Directory, line: LineAddr) -> Option<Vec<CacheId>> {
    let mut out = Outcome::new();
    dir.apply(DirectoryOp::Probe { line }, &mut out);
    out.hit().then(|| out.sharers().to_vec())
}
