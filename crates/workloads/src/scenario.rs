//! Named, parameterized sharing-pattern scenario families.
//!
//! The paper's nine calibrated [`WorkloadProfile`](crate::WorkloadProfile)
//! presets all drive the directories through the *same* two-region access
//! model; they vary footprints and mixes but not the *shape* of sharing.
//! This module grows the workload layer into a library of classic sharing
//! patterns from the coherence literature, each a [`ScenarioFamily`] with
//! its own knobs:
//!
//! | family       | pattern                                                 |
//! |--------------|---------------------------------------------------------|
//! | `readmostly` | Zipf-skewed shared reads with a small write fraction    |
//! | `prodcons`   | producer writes a buffer, consumers read it, rotate     |
//! | `migratory`  | read–modify–write lines whose owner migrates per epoch  |
//! | `falseshare` | cores write disjoint bytes of the same small hot set    |
//! | `stream`     | per-core sequential streaming scans with low reuse      |
//!
//! Families are selected from a compact spec string mirroring the
//! directory-spec grammar (see [`ScenarioSpec`]):
//!
//! ```
//! use ccd_workloads::{ScenarioFamily, ScenarioSpec};
//!
//! let spec: ScenarioSpec = "migratory-16c-zipf0.9".parse().unwrap();
//! assert_eq!(spec.family, ScenarioFamily::Migratory);
//! assert_eq!(spec.params.cores, Some(16));
//! assert_eq!(spec.params.zipf, 0.9);
//! let refs: Vec<_> = spec.stream(16, 42).unwrap().take(100).collect();
//! assert_eq!(refs.len(), 100);
//! ```
//!
//! Every stream is deterministic per `(spec, num_cores, seed)`; parallel
//! sweeps derive each cell's seed through
//! [`derive_seed`](crate::derive_seed).

use crate::generator::{PRIVATE_REGION_BASE, PRIVATE_REGION_SPAN};
use crate::ZipfSampler;
use ccd_common::clause::Clauses;
use ccd_common::rng::{Rng64, SplitMix64, Xoshiro256};
use ccd_common::{AccessType, Address, ConfigError, CoreId, MemRef, DEFAULT_BLOCK_BYTES};
use std::fmt;
use std::str::FromStr;

/// Base byte address of the shared region the scenario families access.
///
/// Sits between the profile generators' shared-data region
/// (`0x0200_…`) and the per-core private regions (`0x0400_…`), so scenario
/// and profile traces can never alias each other.
pub(crate) const SCENARIO_REGION_BASE: u64 = 0x0300_0000_0000;

/// A boxed, sendable memory-reference stream.
///
/// Implemented by every iterator of [`MemRef`]s that is `Send` and `Debug`;
/// the scenario families and the trace replayer all hand their streams out
/// behind this trait so the simulator can drive any of them uniformly.
pub trait TraceStream: Iterator<Item = MemRef> + Send + fmt::Debug {}
impl<T: Iterator<Item = MemRef> + Send + fmt::Debug> TraceStream for T {}

/// The tunable knobs shared by all scenario families.
///
/// Each family interprets only the knobs that make sense for it (see the
/// family docs) and supplies its own defaults via
/// [`ScenarioFamily::defaults`]; the spec-string parser overrides
/// individual knobs on top of those defaults.
#[derive(Clone, Debug, PartialEq)]
pub struct ScenarioParams {
    /// Pinned core count (`-Nc`).  `None` means "use the core count the
    /// simulator's system configuration supplies"; a pinned value must
    /// *match* that count or [`ScenarioSpec::stream`] fails loudly.
    pub cores: Option<usize>,
    /// Footprint in cache lines (`-bN`); per-core for `stream`, shared for
    /// the other families.
    pub blocks: usize,
    /// Zipf skew of line selection (`-zipfF`); `0` is uniform.
    pub zipf: f64,
    /// Fraction of references that are writes (`-wF`), for families with a
    /// probabilistic read/write mix.
    pub write_fraction: f64,
    /// Epoch length (`-eN`): buffer lines per producer→consumer handoff,
    /// or line→owner migration interval in read–modify–write pairs.
    pub epoch: usize,
}

impl ScenarioParams {
    fn validate(&self, family: &str) -> Result<(), ConfigError> {
        if self.blocks == 0 {
            return Err(ConfigError::Zero {
                what: "scenario block count",
            });
        }
        if self.epoch == 0 {
            return Err(ConfigError::Zero {
                what: "scenario epoch length",
            });
        }
        if self.cores == Some(0) {
            return Err(ConfigError::Zero {
                what: "scenario core count",
            });
        }
        if !(0.0..=1.0).contains(&self.write_fraction) {
            return Err(ConfigError::Parse {
                what: format!(
                    "workload spec `{family}`: write fraction {} is outside [0, 1]",
                    self.write_fraction
                ),
            });
        }
        if !(self.zipf.is_finite() && self.zipf >= 0.0) {
            return Err(ConfigError::Parse {
                what: format!(
                    "workload spec `{family}`: zipf skew {} must be finite and >= 0",
                    self.zipf
                ),
            });
        }
        Ok(())
    }

    /// Resolves the effective core count against the system-supplied one.
    fn effective_cores(&self, num_cores: usize) -> Result<usize, ConfigError> {
        match self.cores {
            Some(pinned) if pinned != num_cores => Err(ConfigError::Inconsistent {
                what: "scenario spec pins a core count that differs from the system's",
            }),
            Some(pinned) => Ok(pinned),
            None => Ok(num_cores),
        }
    }
}

/// The optional knobs a scenario spec string can set (besides the
/// universal `cores` pin and `blocks` footprint, which every family
/// consumes).
///
/// Families declare which of these they actually read via
/// [`ScenarioFamily::consumed_knobs`]; setting any other knob to a
/// non-default value is rejected at parse/validate time rather than
/// silently ignored, so a sweep cell's label never advertises a parameter
/// that had no effect.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum ScenarioKnob {
    /// Zipf skew of line selection (`-zipfF`).
    Zipf,
    /// Write fraction (`-wF`).
    WriteFraction,
    /// Epoch length (`-eN`).
    Epoch,
}

/// A named, parameterized sharing-pattern generator family.
///
/// A family is a *recipe*: given knobs, a core count and a seed it builds a
/// deterministic, infinite [`TraceStream`] — a pure function of
/// `(params, num_cores, seed)`, the same on any thread.  [`ScenarioSpec`]
/// selects one by name from a parsed spec string.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ScenarioFamily {
    /// `readmostly` — Zipf-skewed read-mostly sharing: all cores read a
    /// common hot set, with a small fraction of writes to the same lines.
    ///
    /// The classic "mostly-read shared data" pattern (lock-free indexes,
    /// config tables): directory entries accumulate many sharers and
    /// invalidations are rare but hit wide sharer sets when they come.
    /// Knobs: `blocks`, `zipf`, `write_fraction`.
    ReadMostly,
    /// `prodcons` — producer–consumer handoffs: one core writes a buffer of
    /// `epoch` lines, every other core then reads it, and the producer role
    /// rotates.
    ///
    /// Models message queues and pipeline stages: each line is written by
    /// exactly one core per handoff and then read by all the others, so the
    /// directory sees an insert + full-set sharer build-up + invalidate
    /// cycle per buffer.  Knobs: `blocks` (ring capacity), `epoch` (buffer
    /// lines per handoff).
    ProducerConsumer,
    /// `migratory` — lines are accessed read-then-write by one core at a
    /// time, and the owning core migrates every `epoch` pairs.
    ///
    /// The textbook migratory pattern (objects bounced between threads
    /// through locks): at any time each line has at most one active sharer,
    /// so the directory sees a steady churn of exclusive handoffs and its
    /// occupancy stays near the unique-block worst case.  Knobs: `blocks`,
    /// `zipf` (line popularity), `epoch` (pairs between ownership
    /// migrations).
    Migratory,
    /// `falseshare` — cores write *disjoint bytes* of the same small set of
    /// hot lines, so the block-granular directory sees furious write
    /// sharing that the program never asked for.
    ///
    /// The degenerate pattern that stresses invalidation machinery: a tiny
    /// footprint (`blocks` lines) absorbs the whole reference stream and
    /// every write invalidates whoever touched the line last.  Slot widths
    /// scale with the core count (8 B up to 8 cores, 4 B up to 16, … 1 B up
    /// to 64) so every core keeps disjoint bytes; past 64 cores a 64-byte
    /// line cannot hold disjoint slots and cores 64 apart alias.  Knobs:
    /// `blocks`, `zipf`, `write_fraction`.
    FalseSharing,
    /// `stream` — each core sweeps sequentially through its own large
    /// private region with essentially no reuse until it wraps.
    ///
    /// Models `memcpy`-like kernels and column scans: the directory sees a
    /// steady stream of insert + evict with singleton sharer sets — maximum
    /// insertion pressure, minimum sharing.  Knobs: `blocks` (lines *per
    /// core*), `write_fraction`.
    StreamingScan,
}

impl ScenarioFamily {
    /// The five families, in catalog order.
    pub const ALL: [ScenarioFamily; 5] = [
        ScenarioFamily::ReadMostly,
        ScenarioFamily::ProducerConsumer,
        ScenarioFamily::Migratory,
        ScenarioFamily::FalseSharing,
        ScenarioFamily::StreamingScan,
    ];

    /// Family name as it appears in spec strings (e.g. `"migratory"`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ScenarioFamily::ReadMostly => "readmostly",
            ScenarioFamily::ProducerConsumer => "prodcons",
            ScenarioFamily::Migratory => "migratory",
            ScenarioFamily::FalseSharing => "falseshare",
            ScenarioFamily::StreamingScan => "stream",
        }
    }

    /// The family named `name` in spec strings.
    pub(crate) fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|family| family.name() == name)
    }

    /// The family's default knob values.
    #[must_use]
    pub fn defaults(self) -> ScenarioParams {
        let (blocks, zipf, write_fraction, epoch) = match self {
            ScenarioFamily::ReadMostly => (8_192, 0.9, 0.05, 1),
            // The ring must stay resident in the paper's 64 KB L1s (1024
            // lines) between handoffs, or the producer's rewrites find no
            // sharers left to invalidate and the pattern degenerates into a
            // streaming scan.
            ScenarioFamily::ProducerConsumer => (512, 0.0, 0.0, 64),
            ScenarioFamily::Migratory => (4_096, 0.6, 1.0, 512),
            ScenarioFamily::FalseSharing => (64, 0.5, 0.5, 1),
            ScenarioFamily::StreamingScan => (32_768, 0.0, 0.1, 1),
        };
        ScenarioParams {
            cores: None,
            blocks,
            zipf,
            write_fraction,
            epoch,
        }
    }

    /// The optional knobs this family's generator actually reads.
    #[must_use]
    pub(crate) fn consumed_knobs(self) -> &'static [ScenarioKnob] {
        use ScenarioKnob::{Epoch, WriteFraction, Zipf};
        match self {
            ScenarioFamily::ReadMostly | ScenarioFamily::FalseSharing => &[Zipf, WriteFraction],
            ScenarioFamily::ProducerConsumer => &[Epoch],
            ScenarioFamily::Migratory => &[Zipf, Epoch],
            ScenarioFamily::StreamingScan => &[WriteFraction],
        }
    }

    /// Checks `params` for this family: the generic knob ranges, then that
    /// no knob the family never reads is set off its default — a label
    /// like `prodcons-zipf0.9` must not run (identically to plain
    /// `prodcons`) while advertising a skew — then the family's own
    /// constraints, which are rejected rather than clamped: a clamped knob
    /// would leave sweep cells labelled with values that never ran.
    fn validate(self, params: &ScenarioParams) -> Result<(), ConfigError> {
        params.validate(self.name())?;
        let defaults = self.defaults();
        let offending = [
            (ScenarioKnob::Zipf, "zipf", params.zipf != defaults.zipf),
            (
                ScenarioKnob::WriteFraction,
                "w",
                params.write_fraction != defaults.write_fraction,
            ),
            (ScenarioKnob::Epoch, "e", params.epoch != defaults.epoch),
        ]
        .into_iter()
        .find(|(kind, _, differs)| *differs && !self.consumed_knobs().contains(kind));
        if let Some((_, knob, _)) = offending {
            return Err(ConfigError::Parse {
                what: format!(
                    "workload family `{}` does not use the `{knob}` knob",
                    self.name()
                ),
            });
        }
        // Each core's scan must stay inside its own private region, or the
        // "no sharing" premise of `stream` silently breaks.
        let max_scan = (PRIVATE_REGION_SPAN / DEFAULT_BLOCK_BYTES) as usize;
        match self {
            ScenarioFamily::ProducerConsumer if params.epoch > params.blocks => {
                Err(ConfigError::Inconsistent {
                    what: "prodcons buffer (epoch) cannot exceed the ring capacity (blocks)",
                })
            }
            ScenarioFamily::StreamingScan if params.blocks > max_scan => {
                Err(ConfigError::TooLarge {
                    what: "stream per-core block count (would overflow the private region)",
                    value: params.blocks as u64,
                    max: max_scan as u64,
                })
            }
            _ => Ok(()),
        }
    }

    /// Builds the deterministic reference stream of validated `params`.
    fn stream(self, params: &ScenarioParams, cores: usize, seed: u64) -> Box<dyn TraceStream> {
        let zipf = |slot_bytes| SharedZipfStream {
            rng: Xoshiro256::new(seed),
            sampler: ZipfSampler::new(params.blocks, params.zipf),
            write_fraction: params.write_fraction,
            cores,
            next_core: 0,
            slot_bytes,
        };
        match self {
            // Every core's slot is the whole line.
            ScenarioFamily::ReadMostly => Box::new(zipf(DEFAULT_BLOCK_BYTES)),
            // The widest slot that still gives every core its own bytes: 8 B
            // up to 8 cores, 4 B up to 16, … 1 B up to 64.  Beyond 64 cores
            // a 64-byte line cannot hold disjoint slots, so cores 64 apart
            // legitimately alias (the sharing is then real, not false).
            ScenarioFamily::FalseSharing => Box::new(zipf(
                (DEFAULT_BLOCK_BYTES / cores.next_power_of_two() as u64).clamp(1, 8),
            )),
            ScenarioFamily::ProducerConsumer => Box::new(ProducerConsumerStream {
                cores,
                blocks: params.blocks,
                epoch: params.epoch,
                // The seed shifts the starting producer and ring offset, so
                // replicas exercise different alignments of the same pattern.
                handoff: SplitMix64::mix(seed) >> 16,
                position: 0,
            }),
            ScenarioFamily::Migratory => Box::new(MigratoryStream {
                rng: Xoshiro256::new(seed),
                sampler: ZipfSampler::new(params.blocks, params.zipf),
                cores: cores as u64,
                core_mask: cores.is_power_of_two().then(|| cores as u64 - 1),
                epoch: params.epoch,
                seed,
                epoch_index: 0,
                epoch_pairs: 0,
                pending_write: None,
            }),
            // Seed-derived starting offsets decorrelate replicas without
            // breaking the sequential-scan property.
            ScenarioFamily::StreamingScan => Box::new(StreamingScanStream {
                rng: Xoshiro256::new(seed),
                write_fraction: params.write_fraction,
                blocks: params.blocks,
                cursors: (0..cores)
                    .map(|core| {
                        (SplitMix64::mix(seed ^ core as u64) % params.blocks as u64) as usize
                    })
                    .collect(),
                next_core: 0,
            }),
        }
    }
}

/// Maps a scenario line index to its byte address in the shared region.
fn shared_line(line: usize) -> Address {
    Address::new(SCENARIO_REGION_BASE + line as u64 * DEFAULT_BLOCK_BYTES)
}

/// `readmostly` and `falseshare`: cores take turns reading or writing a
/// Zipf-chosen line of the shared hot set, each at its own byte slot.
#[derive(Debug)]
struct SharedZipfStream {
    rng: Xoshiro256,
    sampler: ZipfSampler,
    write_fraction: f64,
    cores: usize,
    next_core: usize,
    /// Width of each core's byte slot within a line: the whole line for
    /// `readmostly`, disjoint slots for `falseshare`.
    slot_bytes: u64,
}

impl Iterator for SharedZipfStream {
    type Item = MemRef;

    fn next(&mut self) -> Option<MemRef> {
        let core = self.next_core;
        self.next_core = (self.next_core + 1) % self.cores;
        let line = self.sampler.sample(&mut self.rng);
        // Each core owns a distinct slot within the line; the directory
        // cannot see the distinction — that is the point of `falseshare`.
        let slots = DEFAULT_BLOCK_BYTES / self.slot_bytes;
        let slot = (core as u64 % slots) * self.slot_bytes;
        let addr = Address::new(shared_line(line).raw() + slot);
        let kind = if self.rng.bernoulli(self.write_fraction) {
            AccessType::Write
        } else {
            AccessType::Read
        };
        Some(MemRef::new(CoreId::new(core as u32), addr, kind))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (usize::MAX, None)
    }
}

#[derive(Debug)]
struct ProducerConsumerStream {
    cores: usize,
    blocks: usize,
    epoch: usize,
    /// Index of the current handoff; producer and ring offset derive from it.
    handoff: u64,
    /// Position within the handoff: `0..epoch` writes, then
    /// `epoch..epoch * cores` reads (consumers interleaved per line).
    position: usize,
}

impl Iterator for ProducerConsumerStream {
    type Item = MemRef;

    fn next(&mut self) -> Option<MemRef> {
        let producer = (self.handoff % self.cores as u64) as usize;
        let ring_start = (self.handoff as usize).wrapping_mul(self.epoch) % self.blocks;
        let reads_per_handoff = self.epoch * (self.cores - 1).max(1);

        let r = if self.position < self.epoch {
            // Produce phase: sequential writes.
            let line = (ring_start + self.position) % self.blocks;
            MemRef::write(CoreId::new(producer as u32), shared_line(line))
        } else {
            // Consume phase: for each buffer line, every non-producer core
            // reads it in turn.
            let offset = self.position - self.epoch;
            let line = (ring_start + offset / (self.cores - 1).max(1)) % self.blocks;
            let nth = offset % (self.cores - 1).max(1);
            // The nth consumer, skipping the producer.
            let consumer = (producer + 1 + nth) % self.cores;
            MemRef::read(CoreId::new(consumer as u32), shared_line(line))
        };

        self.position += 1;
        if self.position >= self.epoch + reads_per_handoff {
            self.position = 0;
            self.handoff += 1;
        }
        Some(r)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (usize::MAX, None)
    }
}

#[derive(Debug)]
struct MigratoryStream {
    rng: Xoshiro256,
    sampler: ZipfSampler,
    cores: u64,
    /// `cores - 1` when `cores` is a power of two: the owner is then a
    /// mask of its hash instead of a remainder.
    core_mask: Option<u64>,
    epoch: usize,
    seed: u64,
    /// The current ownership epoch: completed read–modify–write pairs
    /// divided by `epoch`, and their remainder.
    epoch_index: u64,
    epoch_pairs: usize,
    /// The write half of the pair still to be emitted.
    pending_write: Option<MemRef>,
}

impl MigratoryStream {
    /// The owner of `line` during `epoch` — a pure hash of
    /// `(seed, line, epoch)`, so ownership is stable within an epoch and
    /// migrates (pseudo-randomly) across epochs.
    fn owner(&self, line: usize, epoch: u64) -> CoreId {
        let mixed = SplitMix64::mix(
            self.seed
                ^ (line as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ epoch.wrapping_mul(0xA076_1D64_78BD_642F),
        );
        let core = match self.core_mask {
            Some(mask) => mixed & mask,
            None => mixed % self.cores,
        };
        CoreId::new(core as u32)
    }
}

impl Iterator for MigratoryStream {
    type Item = MemRef;

    fn next(&mut self) -> Option<MemRef> {
        if let Some(write) = self.pending_write.take() {
            self.epoch_pairs += 1;
            if self.epoch_pairs == self.epoch {
                self.epoch_pairs = 0;
                self.epoch_index += 1;
            }
            return Some(write);
        }
        let line = self.sampler.sample(&mut self.rng);
        let owner = self.owner(line, self.epoch_index);
        let addr = shared_line(line);
        self.pending_write = Some(MemRef::write(owner, addr));
        Some(MemRef::read(owner, addr))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (usize::MAX, None)
    }
}

#[derive(Debug)]
struct StreamingScanStream {
    rng: Xoshiro256,
    write_fraction: f64,
    blocks: usize,
    cursors: Vec<usize>,
    next_core: usize,
}

impl Iterator for StreamingScanStream {
    type Item = MemRef;

    fn next(&mut self) -> Option<MemRef> {
        let core = self.next_core;
        self.next_core = (self.next_core + 1) % self.cursors.len();
        let cursor = self.cursors[core];
        self.cursors[core] = (cursor + 1) % self.blocks;
        let base = PRIVATE_REGION_BASE + core as u64 * PRIVATE_REGION_SPAN;
        let addr = Address::new(base + cursor as u64 * DEFAULT_BLOCK_BYTES);
        let kind = if self.rng.bernoulli(self.write_fraction) {
            AccessType::Write
        } else {
            AccessType::Read
        };
        Some(MemRef::new(CoreId::new(core as u32), addr, kind))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (usize::MAX, None)
    }
}

/// A parsed scenario specification: a family plus its knob values.
///
/// # Spec-string grammar
///
/// ```text
/// FAMILY[-Nc][-bBLOCKS][-zipfSKEW][-wWRITES][-eEPOCH]
/// ```
///
/// * `FAMILY` — `readmostly`, `prodcons`, `migratory`, `falseshare`,
///   `stream`;
/// * `Nc` — pin the core count (must match the simulated system's);
/// * `bBLOCKS` — footprint in cache lines;
/// * `zipfSKEW` — Zipf skew of line selection (`zipf0` = uniform);
/// * `wWRITES` — write fraction in `[0, 1]`;
/// * `eEPOCH` — epoch length (see [`ScenarioParams::epoch`]).
///
/// Knobs not named in the string keep the family's defaults, and each
/// knob may be named once (the rules every spec grammar shares are
/// [`ccd_common::clause`]'s).  [`Display`] prints the canonical form
/// (family plus the non-default knobs), which re-parses to an equal spec.
///
/// ```
/// use ccd_workloads::ScenarioSpec;
///
/// let spec: ScenarioSpec = "falseshare-b128-w0.8".parse().unwrap();
/// assert_eq!(spec.params.blocks, 128);
/// assert_eq!(spec.to_string(), "falseshare-b128-w0.8");
/// assert_eq!(spec.to_string().parse::<ScenarioSpec>().unwrap(), spec);
///
/// // Errors name the offending token:
/// let err = "migratory-q7".parse::<ScenarioSpec>().unwrap_err();
/// assert!(err.to_string().contains("`q7`"));
/// ```
///
/// [`Display`]: std::fmt::Display
#[derive(Clone, Debug, PartialEq)]
pub struct ScenarioSpec {
    /// The family.
    pub family: ScenarioFamily,
    /// Knob values (family defaults overridden by the spec string).
    pub params: ScenarioParams,
}

impl ScenarioSpec {
    /// A spec for `family` with all knobs at the family's defaults.
    #[must_use]
    pub fn new(family: ScenarioFamily) -> Self {
        ScenarioSpec {
            family,
            params: family.defaults(),
        }
    }

    /// Validates the spec for a system with `num_cores` cores without
    /// building anything: knob ranges and applicability, core pinning.
    ///
    /// # Errors
    ///
    /// The error [`ScenarioSpec::stream`] would surface.
    pub fn validate(&self, num_cores: usize) -> Result<(), ConfigError> {
        if num_cores == 0 {
            return Err(ConfigError::Zero { what: "core count" });
        }
        self.family.validate(&self.params)?;
        self.params.effective_cores(num_cores).map(drop)
    }

    /// Builds the deterministic reference stream for this spec.
    ///
    /// # Errors
    ///
    /// Rejects invalid knob values and a pinned core count that differs
    /// from `num_cores`.
    pub fn stream(&self, num_cores: usize, seed: u64) -> Result<Box<dyn TraceStream>, ConfigError> {
        self.validate(num_cores)?;
        let cores = self.params.effective_cores(num_cores)?;
        Ok(self.family.stream(&self.params, cores, seed))
    }
}

impl FromStr for ScenarioSpec {
    type Err = ConfigError;

    fn from_str(input: &str) -> Result<Self, ConfigError> {
        let input = input.trim();
        let (mut clauses, name) = Clauses::new("workload spec", input);
        let family = ScenarioFamily::from_name(name).ok_or_else(|| {
            clauses.error(format_args!(
                "unknown workload family `{name}` (known: {})",
                ScenarioFamily::ALL.map(ScenarioFamily::name).join(", ")
            ))
        })?;
        let mut spec = ScenarioSpec::new(family);
        while let Some(clause) = clauses.next_clause() {
            let params = &mut spec.params;
            if let Some(cores) = clause.strip_suffix('c').and_then(|n| n.parse().ok()) {
                clauses.claim("Nc")?;
                if cores == 0 {
                    return Err(clauses.expected("<1..>c"));
                }
                params.cores = Some(cores);
            } else if let Some(zipf) = clauses.value("zipf", 0.0..)? {
                params.zipf = zipf;
            } else if let Some(blocks) = clauses.value("b", 1..)? {
                params.blocks = blocks;
            } else if let Some(writes) = clauses.value("w", 0.0..=1.0)? {
                params.write_fraction = writes;
            } else if let Some(epoch) = clauses.value("e", 1..)? {
                params.epoch = epoch;
            } else {
                return Err(clauses.unknown());
            }
        }
        // What is left is a knob the family does not take or knobs that
        // disagree with each other: name the whole spec.
        family.validate(&spec.params).map_err(|err| match err {
            ConfigError::Parse { .. } => err,
            other => clauses.error(other),
        })?;
        Ok(spec)
    }
}

impl fmt::Display for ScenarioSpec {
    /// Prints the canonical spec string: family name plus every knob that
    /// differs from the family default, in grammar order.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let defaults = self.family.defaults();
        write!(f, "{}", self.family.name())?;
        if let Some(cores) = self.params.cores {
            write!(f, "-{cores}c")?;
        }
        if self.params.blocks != defaults.blocks {
            write!(f, "-b{}", self.params.blocks)?;
        }
        if self.params.zipf != defaults.zipf {
            write!(f, "-zipf{}", self.params.zipf)?;
        }
        if self.params.write_fraction != defaults.write_fraction {
            write!(f, "-w{}", self.params.write_fraction)?;
        }
        if self.params.epoch != defaults.epoch {
            write!(f, "-e{}", self.params.epoch)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{BTreeMap, BTreeSet};

    fn take(spec: &str, cores: usize, seed: u64, n: usize) -> Vec<MemRef> {
        spec.parse::<ScenarioSpec>()
            .unwrap()
            .stream(cores, seed)
            .unwrap()
            .take(n)
            .collect()
    }

    #[test]
    fn every_family_is_deterministic_and_seed_sensitive() {
        for family in ScenarioFamily::ALL {
            let spec = ScenarioSpec::new(family);
            let a: Vec<_> = spec.stream(8, 1).unwrap().take(2_000).collect();
            let b: Vec<_> = spec.stream(8, 1).unwrap().take(2_000).collect();
            assert_eq!(a, b, "{} must be deterministic", family.name());
            let c: Vec<_> = spec.stream(8, 2).unwrap().take(2_000).collect();
            assert_ne!(a, c, "{} must vary with the seed", family.name());
        }
    }

    #[test]
    fn spec_strings_round_trip_and_reject_garbage() {
        for input in [
            "readmostly",
            "migratory-16c-zipf0.9",
            "falseshare-b128-w0.8",
            "prodcons-b4096-e32",
            "stream-b1024-w0.25",
        ] {
            let spec: ScenarioSpec = input.parse().unwrap();
            assert_eq!(spec.to_string(), input, "canonical form");
            let reparsed: ScenarioSpec = spec.to_string().parse().unwrap();
            assert_eq!(reparsed, spec);
        }

        // Errors name the offending token or family.
        let err = "martian-b64".parse::<ScenarioSpec>().unwrap_err();
        assert!(err.to_string().contains("`martian`"), "{err}");
        let err = "migratory-q7".parse::<ScenarioSpec>().unwrap_err();
        assert!(err.to_string().contains("`q7`"), "{err}");
        let err = "migratory-zipfx".parse::<ScenarioSpec>().unwrap_err();
        assert!(err.to_string().contains("`zipfx`"), "{err}");
        // A repeated knob is an error naming it, not a silent override.
        for (input, token) in [
            ("migratory-zipf0.5-zipf0.9", "`zipf0.9`"),
            ("migratory-b64-b128", "`b128`"),
            ("migratory-16c-32c", "`32c`"),
            ("migratory-w0.5-w0.6", "`w0.6`"),
            ("migratory-e8-e16", "`e16`"),
        ] {
            let err = input.parse::<ScenarioSpec>().unwrap_err();
            assert!(err.to_string().contains(token), "{err}");
        }
        // Out-of-range knobs name their clause.
        for (input, token) in [
            ("readmostly-b0", "`b0`"),
            ("readmostly-w1.5", "`w1.5`"),
            ("prodcons-e0", "`e0`"),
            ("migratory-0c", "`0c`"),
        ] {
            let err = input.parse::<ScenarioSpec>().unwrap_err();
            assert!(err.to_string().contains(token), "{err}");
        }
        assert!("readmostly-zipf-1".parse::<ScenarioSpec>().is_err());

        // Family-specific constraints are rejected, not silently clamped:
        // a prodcons buffer larger than its ring, or a streaming scan that
        // would overflow its per-core private region.
        let err = "prodcons-b16-e64".parse::<ScenarioSpec>().unwrap_err();
        assert!(err.to_string().contains("`prodcons-b16-e64`"), "{err}");
        assert!("stream-b8388608".parse::<ScenarioSpec>().is_err());
        assert!("stream-b4194304".parse::<ScenarioSpec>().is_ok());

        // Knobs a family never reads are rejected, not silently ignored —
        // a cell label must never advertise a parameter that had no
        // effect.
        let err = "prodcons-zipf0.9".parse::<ScenarioSpec>().unwrap_err();
        assert!(err.to_string().contains("`zipf`"), "{err}");
        assert!("migratory-w0.5".parse::<ScenarioSpec>().is_err());
        assert!("stream-e128".parse::<ScenarioSpec>().is_err());
        assert!("readmostly-e8".parse::<ScenarioSpec>().is_err());
        assert!("falseshare-e8".parse::<ScenarioSpec>().is_err());
    }

    #[test]
    fn pinned_core_counts_must_match_the_system() {
        let spec: ScenarioSpec = "migratory-16c".parse().unwrap();
        assert!(spec.stream(16, 1).is_ok());
        assert!(spec.stream(8, 1).is_err());
        let unpinned: ScenarioSpec = "migratory".parse().unwrap();
        assert!(unpinned.stream(8, 1).is_ok());
        assert!(unpinned.stream(32, 1).is_ok());
    }

    #[test]
    fn readmostly_matches_its_write_fraction_and_footprint() {
        let refs = take("readmostly-b512-w0.2", 8, 3, 50_000);
        let writes = refs.iter().filter(|r| r.kind.is_write()).count();
        let rate = writes as f64 / refs.len() as f64;
        assert!((rate - 0.2).abs() < 0.02, "{rate}");
        let lines: BTreeSet<u64> = refs.iter().map(|r| r.addr.raw() / 64).collect();
        assert!(lines.len() <= 512);
        assert!(lines.len() > 256, "zipf tail should still be touched");
        for r in &refs {
            assert!(r.addr.raw() >= SCENARIO_REGION_BASE);
            assert!(r.addr.raw() < PRIVATE_REGION_BASE);
        }
    }

    #[test]
    fn prodcons_lines_are_written_once_then_read_by_all_others() {
        let cores = 4;
        let epoch = 8;
        // One full handoff = epoch writes + epoch * (cores-1) reads.
        let handoff_len = epoch * cores;
        let refs = take("prodcons-b64-e8", cores, 9, 5 * handoff_len);
        for handoff in refs.chunks(handoff_len) {
            let (writes, reads) = handoff.split_at(epoch);
            let producer = writes[0].core;
            assert!(writes
                .iter()
                .all(|r| r.kind.is_write() && r.core == producer));
            let written: BTreeSet<u64> = writes.iter().map(|r| r.addr.raw()).collect();
            assert_eq!(written.len(), epoch, "distinct buffer lines");
            for r in reads {
                assert!(!r.kind.is_write());
                assert_ne!(r.core, producer, "producer never reads its own handoff");
                assert!(written.contains(&r.addr.raw()), "consumers read the buffer");
            }
            // Every consumer reads every line exactly once.
            let mut per_core: BTreeMap<u32, usize> = BTreeMap::new();
            for r in reads {
                *per_core.entry(r.core.raw()).or_default() += 1;
            }
            assert_eq!(per_core.len(), cores - 1);
            assert!(per_core.values().all(|&n| n == epoch));
        }
    }

    #[test]
    fn migratory_lines_have_at_most_one_active_core_per_epoch() {
        let epoch = 32;
        let refs = take("migratory-b256-e32-zipf0.4", 8, 5, 40_000);
        // Refs come in read+write pairs by the same core; group by
        // (epoch, line) and check a single core touches each.
        let mut owner_of: BTreeMap<(u64, u64), u32> = BTreeMap::new();
        for (pair_index, pair) in refs.chunks(2).enumerate() {
            assert_eq!(pair.len(), 2);
            assert!(!pair[0].kind.is_write() && pair[1].kind.is_write());
            assert_eq!(pair[0].core, pair[1].core, "pair is one core's RMW");
            assert_eq!(pair[0].addr, pair[1].addr);
            let e = pair_index as u64 / epoch as u64;
            let line = pair[0].addr.raw() / 64;
            let owner = owner_of.entry((e, line)).or_insert(pair[0].core.raw());
            assert_eq!(
                *owner,
                pair[0].core.raw(),
                "line {line} must have one owner within epoch {e}"
            );
        }
        // Ownership actually migrates across epochs for at least one line.
        let migrated = owner_of
            .iter()
            .any(|(&(e, line), &core)| owner_of.get(&(e + 1, line)).is_some_and(|&c| c != core));
        assert!(migrated, "owners must migrate across epochs");
    }

    #[test]
    fn falseshare_cores_hit_the_same_lines_at_disjoint_bytes() {
        let refs = take("falseshare-b16", 8, 11, 20_000);
        let lines: BTreeSet<u64> = refs.iter().map(|r| r.addr.raw() / 64).collect();
        assert!(lines.len() <= 16, "footprint stays inside the hot set");
        // Several cores write the same line (that is the false sharing)...
        let mut writers_of: BTreeMap<u64, BTreeSet<u32>> = BTreeMap::new();
        for r in refs.iter().filter(|r| r.kind.is_write()) {
            writers_of
                .entry(r.addr.raw() / 64)
                .or_default()
                .insert(r.core.raw());
        }
        assert!(writers_of.values().any(|w| w.len() >= 4));
        // ...but every core touches its own byte slot.
        for r in &refs {
            assert_eq!(r.addr.raw() % 8, 0);
            assert_eq!((r.addr.raw() % 64) / 8, u64::from(r.core.raw()) % 8);
        }

        // Slots shrink with the core count so they stay disjoint: with 16
        // cores each gets its own 4-byte slot.
        let refs16 = take("falseshare-b16", 16, 11, 20_000);
        let mut slot_of: BTreeMap<u32, u64> = BTreeMap::new();
        for r in &refs16 {
            let slot = (r.addr.raw() % 64) / 4;
            assert_eq!(*slot_of.entry(r.core.raw()).or_insert(slot), slot);
        }
        let distinct: BTreeSet<u64> = slot_of.values().copied().collect();
        assert_eq!(distinct.len(), 16, "16 cores, 16 disjoint 4-byte slots");
    }

    #[test]
    fn stream_scans_are_sequential_per_core_with_low_reuse() {
        let blocks = 1_024;
        let refs = take("stream-b1024", 4, 13, 4 * blocks);
        let mut last: BTreeMap<u32, u64> = BTreeMap::new();
        let mut per_core_lines: BTreeMap<u32, BTreeSet<u64>> = BTreeMap::new();
        for r in &refs {
            let line = r.addr.raw() / 64;
            if let Some(&prev) = last.get(&r.core.raw()) {
                let base = prev - (prev % blocks as u64);
                let next = base + (prev + 1) % blocks as u64;
                assert_eq!(line, next, "core {} scans sequentially", r.core);
            }
            last.insert(r.core.raw(), line);
            per_core_lines.entry(r.core.raw()).or_default().insert(line);
        }
        // Each core touched every line of its region exactly once (no reuse
        // within one wrap), and regions are disjoint across cores.
        for lines in per_core_lines.values() {
            assert_eq!(lines.len(), blocks);
        }
        let all: BTreeSet<u64> = per_core_lines.values().flatten().copied().collect();
        assert_eq!(all.len(), 4 * blocks, "per-core regions are disjoint");
    }
}
