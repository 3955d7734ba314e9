//! Seeded input generators the benchmark owns: the churn request stream of
//! `svc_churn` and the sliding-window stream of `dir_spill`.  (`svc_hit`
//! and `sim_mix` take their inputs from the `ccd-workloads` catalog.)

use ccd_common::rng::Rng64;
use ccd_common::{CacheId, LineAddr, Xoshiro256};
use ccd_directory::DirectoryOp;
use std::collections::VecDeque;

/// Cores issuing references in the churn stream (= tracked caches).
pub const CHURN_CORES: usize = 16;
/// Lines one core keeps resident before its FIFO evicts.
pub const CHURN_RESIDENT: usize = 2048;
/// Lines every core draws its shared references from.
pub const CHURN_SHARED_POOL: u64 = 8192;
/// Lines in each core's private pool.
pub const CHURN_PRIVATE_POOL: u64 = 65_536;
/// References out of 100 that go to the shared pool.
const CHURN_SHARED_PERCENT: u64 = 30;
/// References out of 100 that are writes.
const CHURN_WRITE_PERCENT: u64 = 20;

/// Sequence numbers at or above this are never inserted by the spill
/// stream, so probing them always misses.
const SPILL_MISS_BASE: u64 = 1 << 39;

/// A seed-dependent bijection from small line ids onto 40-bit block
/// numbers that look random: generated lines are distinct exactly when
/// their ids are, and neither the shard interleaving nor the index hashes
/// see the arithmetic progressions the ids form.  (With a weaker map —
/// one multiplication — throughput depended on the seed by ± 6 %, through
/// which strides the ids happened to land on.)
#[derive(Clone, Copy, Debug)]
pub struct LineMap {
    salt: u64,
}

impl LineMap {
    const MASK: u64 = (1 << 40) - 1;

    pub fn new(seed: u64) -> Self {
        LineMap {
            salt: ccd_common::SplitMix64::mix(seed) & Self::MASK,
        }
    }

    /// The line for id `n` (`n < 2^40`).  Every step — xor with the salt,
    /// xor-shift, multiplication by an odd constant modulo 2^40 — is
    /// invertible on 40 bits, so the composition is a bijection.
    pub fn line(&self, n: u64) -> LineAddr {
        debug_assert!(n <= Self::MASK);
        let mut x = n ^ self.salt;
        x ^= x >> 21;
        x = x.wrapping_mul(0x9E37_79B9_7F4A_7C15) & Self::MASK;
        x ^= x >> 17;
        x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9) & Self::MASK;
        x ^= x >> 23;
        LineAddr::from_block_number(x)
    }
}

/// One core of the churn model: which pool lines it holds and in which
/// order it fetched them.
struct ChurnCore {
    /// Residency bitmap over the shared pool followed by this core's
    /// private pool.
    resident: Vec<u64>,
    /// Fetch order.  An entry whose bit has since been cleared (the line
    /// was invalidated by another core's write) is stale and is skipped.
    fifo: VecDeque<u32>,
    count: usize,
}

impl ChurnCore {
    fn new() -> Self {
        let bits = (CHURN_SHARED_POOL + CHURN_PRIVATE_POOL) as usize;
        ChurnCore {
            resident: vec![0; bits.div_ceil(64)],
            fifo: VecDeque::with_capacity(2 * CHURN_RESIDENT),
            count: 0,
        }
    }

    fn holds(&self, slot: u32) -> bool {
        self.resident[slot as usize / 64] >> (slot % 64) & 1 == 1
    }

    fn set(&mut self, slot: u32) {
        debug_assert!(!self.holds(slot));
        self.resident[slot as usize / 64] |= 1 << (slot % 64);
        self.fifo.push_back(slot);
        self.count += 1;
    }

    fn clear(&mut self, slot: u32) {
        assert!(self.holds(slot), "churn model dropped a non-resident line");
        self.resident[slot as usize / 64] &= !(1 << (slot % 64));
        self.count -= 1;
    }

    /// Pops the oldest line that is still resident.
    fn pop_victim(&mut self) -> u32 {
        loop {
            let slot = self
                .fifo
                .pop_front()
                .expect("a full core has a resident FIFO entry");
            if self.holds(slot) {
                self.clear(slot);
                return slot;
            }
        }
    }
}

/// The `svc_churn` request stream: 16 cores with a FIFO residency of 2048
/// lines each, 30 % of references to a shared pool of 8192 lines and 70 %
/// to a private pool of 65 536, 20 % writes.  A reference to a
/// non-resident line emits `RemoveSharer` for the FIFO victim (once the
/// core is full) and then `AddSharer` or `SetExclusive`; a write to a
/// resident shared line emits the `SetExclusive` upgrade; every other
/// resident reference is a cache hit the directory never sees.
pub struct ChurnStream {
    rng: Xoshiro256,
    lines: LineMap,
    cores: Vec<ChurnCore>,
    pending: Option<DirectoryOp>,
    /// Largest per-core residency seen (operating-point guard).
    pub max_resident: usize,
}

impl ChurnStream {
    pub fn new(seed: u64) -> Self {
        ChurnStream {
            rng: Xoshiro256::new(seed),
            lines: LineMap::new(seed),
            cores: (0..CHURN_CORES).map(|_| ChurnCore::new()).collect(),
            pending: None,
            max_resident: 0,
        }
    }

    /// The global line id of `slot` as seen by `core`.
    fn line_of(&self, core: usize, slot: u32) -> LineAddr {
        let slot = u64::from(slot);
        let id = if slot < CHURN_SHARED_POOL {
            slot
        } else {
            slot + core as u64 * CHURN_PRIVATE_POOL
        };
        self.lines.line(id)
    }

    /// A write leaves the writer the only holder: every other core loses
    /// its copy of a shared-pool line.
    fn invalidate_others(&mut self, writer: usize, slot: u32) {
        if u64::from(slot) >= CHURN_SHARED_POOL {
            return;
        }
        for (index, core) in self.cores.iter_mut().enumerate() {
            if index != writer && core.holds(slot) {
                core.clear(slot);
            }
        }
    }

    /// Draws references until one reaches the directory.
    fn next_ops(&mut self) -> DirectoryOp {
        loop {
            let core = self.rng.next_below(CHURN_CORES as u64) as usize;
            let shared = self.rng.next_below(100) < CHURN_SHARED_PERCENT;
            let slot = if shared {
                self.rng.next_below(CHURN_SHARED_POOL)
            } else {
                CHURN_SHARED_POOL + self.rng.next_below(CHURN_PRIVATE_POOL)
            } as u32;
            let write = self.rng.next_below(100) < CHURN_WRITE_PERCENT;
            let cache = CacheId::new(core as u32);
            let line = self.line_of(core, slot);
            let request = if write {
                DirectoryOp::SetExclusive { line, cache }
            } else {
                DirectoryOp::AddSharer { line, cache }
            };

            if self.cores[core].holds(slot) {
                if write && shared {
                    self.invalidate_others(core, slot);
                    return request;
                }
                continue;
            }
            let evict = (self.cores[core].count == CHURN_RESIDENT).then(|| {
                let victim = self.cores[core].pop_victim();
                DirectoryOp::RemoveSharer {
                    line: self.line_of(core, victim),
                    cache,
                }
            });
            if write {
                self.invalidate_others(core, slot);
            }
            self.cores[core].set(slot);
            self.max_resident = self.max_resident.max(self.cores[core].count);
            assert!(
                self.cores[core].count <= CHURN_RESIDENT,
                "churn model exceeded its per-core residency"
            );
            return match evict {
                Some(removal) => {
                    self.pending = Some(request);
                    removal
                }
                None => request,
            };
        }
    }
}

impl Iterator for ChurnStream {
    type Item = DirectoryOp;

    fn next(&mut self) -> Option<DirectoryOp> {
        Some(match self.pending.take() {
            Some(op) => op,
            None => self.next_ops(),
        })
    }
}

/// The first `count` operations of the churn stream for `seed`.
pub fn churn_ops(seed: u64, count: usize) -> Vec<DirectoryOp> {
    let mut stream = ChurnStream::new(seed);
    let ops: Vec<DirectoryOp> = stream.by_ref().take(count).collect();
    assert!(stream.max_resident <= CHURN_RESIDENT);
    ops
}

/// Inputs of `dir_spill`: a pre-fill that brings the table to its
/// operating occupancy and one trial's operations over a window that adds
/// at the front as fast as it removes at the back.
pub struct SpillInputs {
    pub prefill: Vec<DirectoryOp>,
    pub ops: Vec<DirectoryOp>,
    /// Entries the directory must hold after pre-fill + one trial.
    pub expected_len: usize,
    /// `AddSharer`s of new lines in `ops`.
    pub adds: u64,
    /// `RemoveSharer`s of the oldest line in `ops`.
    pub removes: u64,
}

/// Generates the spill stream: `prefill` sequence numbers inserted up
/// front, then `count` operations — 40 % `Probe` of a resident line, 40 %
/// `Probe` of a line never inserted, 10 % `AddSharer` of the next new
/// line, 10 % `RemoveSharer` of the oldest.
pub fn spill_inputs(seed: u64, prefill: usize, count: usize) -> SpillInputs {
    let lines = LineMap::new(seed);
    let mut rng = Xoshiro256::new(seed);
    let holder = |n: u64| CacheId::new((n % CHURN_CORES as u64) as u32);
    let add = |n: u64| DirectoryOp::AddSharer {
        line: lines.line(n),
        cache: holder(n),
    };
    let (mut oldest, mut newest) = (0u64, prefill as u64);
    let mut ops = Vec::with_capacity(count);
    let (mut adds, mut removes) = (0, 0);
    for _ in 0..count {
        ops.push(match rng.next_below(10) {
            0..=3 => DirectoryOp::Probe {
                line: lines.line(oldest + rng.next_below(newest - oldest)),
            },
            4..=7 => DirectoryOp::Probe {
                line: lines.line(SPILL_MISS_BASE + rng.next_below(1 << 30)),
            },
            8 => {
                newest += 1;
                adds += 1;
                add(newest - 1)
            }
            // Never drain the window: keep at least one resident line.
            _ if newest - oldest > 1 => {
                oldest += 1;
                removes += 1;
                DirectoryOp::RemoveSharer {
                    line: lines.line(oldest - 1),
                    cache: holder(oldest - 1),
                }
            }
            _ => DirectoryOp::Probe {
                line: lines.line(oldest),
            },
        });
    }
    SpillInputs {
        prefill: (0..prefill as u64).map(add).collect(),
        ops,
        expected_len: (newest - oldest) as usize,
        adds,
        removes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn line_map_is_injective_and_seeded() {
        let map = LineMap::new(7);
        let lines: BTreeSet<u64> = (0..50_000).map(|n| map.line(n).block_number()).collect();
        assert_eq!(lines.len(), 50_000);
        assert_ne!(map.line(1), LineMap::new(8).line(1));
        assert_ne!(map.line(5), map.line(SPILL_MISS_BASE + 5));
    }

    #[test]
    fn churn_stream_is_deterministic_per_seed() {
        let a = churn_ops(11, 20_000);
        assert_eq!(a, churn_ops(11, 20_000));
        assert_ne!(a, churn_ops(12, 20_000));
    }

    #[test]
    fn churn_stream_respects_its_residency_model() {
        // Replay the stream against an independent model of who holds
        // what: removals must name a holder, and no core may exceed its
        // residency once invalidations are applied.
        let mut held: Vec<BTreeSet<u64>> = vec![BTreeSet::new(); CHURN_CORES];
        let (mut removes, mut writes) = (0, 0);
        for op in churn_ops(3, 300_000) {
            let line = op.line().block_number();
            match op {
                DirectoryOp::AddSharer { cache, .. } => {
                    assert!(held[cache.index()].insert(line), "re-fetched a held line");
                }
                DirectoryOp::SetExclusive { cache, .. } => {
                    writes += 1;
                    for (core, set) in held.iter_mut().enumerate() {
                        if core != cache.index() {
                            set.remove(&line);
                        }
                    }
                    held[cache.index()].insert(line);
                }
                DirectoryOp::RemoveSharer { cache, .. } => {
                    removes += 1;
                    assert!(
                        held[cache.index()].remove(&line),
                        "removed a non-resident line"
                    );
                }
                other => panic!("churn never emits {other:?}"),
            }
            assert!(held.iter().all(|set| set.len() <= CHURN_RESIDENT));
        }
        assert!(removes > 100_000 && writes > 30_000, "{removes} {writes}");
        // Invalidations leave cores a little below their residency.
        assert!(held.iter().all(|set| set.len() > CHURN_RESIDENT * 9 / 10));
    }

    #[test]
    fn spill_window_stays_level_and_consistent() {
        let inputs = spill_inputs(5, 4096, 50_000);
        assert_eq!(inputs.prefill.len(), 4096);
        assert_eq!(inputs.ops.len(), 50_000);
        assert_eq!(
            inputs.expected_len as u64,
            4096 + inputs.adds - inputs.removes
        );
        let drift = inputs.adds.abs_diff(inputs.removes);
        assert!(drift < 500, "adds and removes must balance, drift {drift}");
        let probes = inputs
            .ops
            .iter()
            .filter(|op| matches!(op, DirectoryOp::Probe { .. }))
            .count();
        assert!((39_000..41_000).contains(&probes), "{probes}");
        assert_eq!(spill_inputs(5, 4096, 50_000).ops, inputs.ops);
        assert_ne!(spill_inputs(6, 4096, 50_000).ops, inputs.ops);
    }
}
