//! The correctness reference for directory and service workloads: an
//! ordered map from line to sharer mask, replayed beside the real
//! directory with a `Probe` after every operation (a pre-fill, where a
//! workload has one, is applied to both first; the probes that follow find
//! its lines or they do not).
//!
//! The model is exact for exact sharer formats as long as the directory
//! never displaces an entry out of the table — which the benchmark's
//! workloads are sized to guarantee, and which the check itself enforces.

use ccd_directory::{Directory, DirectoryOp, Outcome};
use std::collections::BTreeMap;

/// What the replay established, for cross-checks against other runs of the
/// same prefix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShadowSummary {
    /// Operations replayed.
    pub ops: usize,
    /// Lines tracked when the replay ended.
    pub entries: usize,
}

/// Sharer masks by block number.
#[derive(Default)]
struct Model(BTreeMap<u64, u64>);

impl Model {
    /// Applies `op`; returns the mask the line holds afterwards (0 when
    /// untracked).
    fn apply(&mut self, op: &DirectoryOp) -> u64 {
        let block = op.line().block_number();
        match *op {
            DirectoryOp::AddSharer { cache, .. } => {
                *self.0.entry(block).or_insert(0) |= 1 << cache.index();
            }
            DirectoryOp::SetExclusive { cache, .. } => {
                self.0.insert(block, 1 << cache.index());
            }
            DirectoryOp::RemoveSharer { cache, .. } => {
                if let Some(mask) = self.0.get_mut(&block) {
                    *mask &= !(1 << cache.index());
                    if *mask == 0 {
                        self.0.remove(&block);
                    }
                }
            }
            DirectoryOp::RemoveEntry { .. } => {
                self.0.remove(&block);
            }
            DirectoryOp::Probe { .. } => {}
        }
        self.0.get(&block).copied().unwrap_or(0)
    }
}

fn mask_of(out: &Outcome) -> u64 {
    out.sharers()
        .iter()
        .fold(0, |mask, cache| mask | 1 << cache.index())
}

/// Applies `prefill` to `dir` and the model alike, then replays `ops`
/// against both, probing the touched line after every operation.
///
/// # Errors
///
/// A description of the first operation after which directory and model
/// disagree, or which failed an insertion or forced an eviction.
pub fn check(
    dir: &mut dyn Directory,
    prefill: &[DirectoryOp],
    ops: &[DirectoryOp],
) -> Result<ShadowSummary, String> {
    assert!(dir.num_caches() <= 64, "the shadow mask holds 64 caches");
    let mut model = Model::default();
    let mut out = Outcome::new();
    let out_of_room = |out: &Outcome| out.insertion_failed() || out.forced_eviction_count() > 0;
    for (index, op) in prefill.iter().enumerate() {
        dir.apply(*op, &mut out);
        if out_of_room(&out) {
            return Err(format!(
                "pre-fill op {index} ({op:?}): the directory ran out of room"
            ));
        }
        model.apply(op);
    }
    for (index, op) in ops.iter().enumerate() {
        let tracked_before = model.0.contains_key(&op.line().block_number());
        dir.apply(*op, &mut out);
        let describe = |what: &str| format!("op {index} ({op:?}): {what}");
        if out_of_room(&out) {
            return Err(describe("the directory ran out of room"));
        }
        if matches!(op, DirectoryOp::Probe { .. }) && out.hit() != tracked_before {
            return Err(describe(&format!(
                "probe hit={} but the model tracked={tracked_before}",
                out.hit()
            )));
        }
        let expected = model.apply(op);
        dir.apply(DirectoryOp::Probe { line: op.line() }, &mut out);
        let seen = if out.hit() { mask_of(&out) } else { 0 };
        if seen != expected || out.hit() != (expected != 0) {
            return Err(describe(&format!(
                "sharers {seen:#x} after the op, the model holds {expected:#x}"
            )));
        }
    }
    if dir.len() != model.0.len() {
        return Err(format!(
            "directory tracks {} lines after the replay, the model {}",
            dir.len(),
            model.0.len()
        ));
    }
    Ok(ShadowSummary {
        ops: prefill.len() + ops.len(),
        entries: model.0.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::{churn_ops, spill_inputs};

    #[test]
    fn churn_and_spill_prefixes_agree_with_the_model() {
        let registry = ccd_cuckoo::standard_registry();
        let mut dir = registry.build_str("sharded4:cuckoo-4x16384-c16").unwrap();
        let summary = check(dir.as_mut(), &[], &churn_ops(9, 60_000)).unwrap();
        assert_eq!(summary.ops, 60_000);
        assert_eq!(summary.entries, dir.len());

        let spill = spill_inputs(9, 8192, 30_000);
        let mut dir = registry.build_str("cuckoo-4x4096-c16").unwrap();
        let summary = check(dir.as_mut(), &spill.prefill, &spill.ops).unwrap();
        assert_eq!(summary.entries, spill.expected_len);
    }

    #[test]
    fn an_overfull_directory_is_reported_with_the_first_bad_op() {
        let registry = ccd_cuckoo::standard_registry();
        let mut dir = registry.build_str("cuckoo-2x8-c16").unwrap();
        let spill = spill_inputs(1, 64, 10);
        let err = check(dir.as_mut(), &spill.prefill, &spill.ops).unwrap_err();
        assert!(
            err.starts_with("pre-fill op ") && err.contains("ran out of room"),
            "{err}"
        );
    }
}
