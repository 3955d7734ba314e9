//! Online live-resize policies for the directory service.
//!
//! A [`ResizePolicy`] is a spec-string-driven schedule for growing (or
//! re-waying) a shard's directory **while the service is running**.
//! Firing is scheduled against each shard's *applied-request count*, never
//! against time or worker topology, so an armed policy fires at the same
//! points in each shard's stream on every run, at every worker count, and
//! during journal replay after a crash:
//!
//! ```text
//! resize-grow2@75-every256-max4
//! └─┬──┘ └──┬───┘ └──┬───┘ └┬──┘
//!   │       │        │      └ at most 4 resizes per shard
//!   │       │        └ occupancy checked every 256 requests the
//!   │       │          shard applies (a shard-local epoch)
//!   │       └ grow the set count 2x when occupancy reaches 75 %
//!   └ required prefix
//! ```
//!
//! Clause reference:
//!
//! | clause        | meaning                                                 |
//! |---------------|---------------------------------------------------------|
//! | `grow<F>@<P>` | multiply the per-way set count by `F` (a power of two, at most `2^31`) when occupancy reaches `P` % |
//! | `reway<W>@<P>`| change the way count to `W` (sets unchanged) when occupancy reaches `P` % |
//! | `every<N>`    | epoch length: check occupancy every `N` applied requests per shard (default 256) |
//! | `max<M>`      | fire at most `M` times per shard (default 1)            |
//!
//! Exactly one mode clause (`grow@` or `reway@`) is required, and each
//! clause may appear once; the rules every spec grammar shares are
//! [`ccd_common::clause`]'s.  `ServiceConfig::validate` rejects a policy
//! whose `max` firings would grow a shard past the largest directory
//! capacity.
//!
//! The policy is consulted at shard-local epoch boundaries only — after a
//! shard applies its `every`-th, `2·every`-th, … request — which is what
//! makes the firing points a pure function of the per-shard request
//! subsequence.  Organizations that cannot resize in place
//! ([`Directory::geometry`](ccd_directory::Directory::geometry) returns
//! `None`, or [`Directory::live_resize`](ccd_directory::Directory::live_resize)
//! returns `Ok(false)`) make an armed policy a silent no-op.

use ccd_common::clause::Clauses;
use ccd_common::ConfigError;
use ccd_directory::spec::checked_capacity;

/// Default epoch length: occupancy is checked every this many applied
/// requests per shard.
pub const DEFAULT_RESIZE_EVERY: u64 = 256;

/// Default cap on resize firings per shard.
pub const DEFAULT_RESIZE_MAX: u32 = 1;

/// How a firing policy changes a shard's geometry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ResizeMode {
    /// Multiply the per-way set count by this (power-of-two) factor.
    Grow(u32),
    /// Change the way count to this value, keeping the set count.
    Reway(usize),
}

/// A parsed, validated live-resize schedule.  See the module docs for the
/// grammar.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ResizePolicy {
    label: String,
    mode: ResizeMode,
    pct: u32,
    every: u64,
    max: u32,
}

impl ResizePolicy {
    /// Parses a `resize-…` spec string.
    ///
    /// # Errors
    ///
    /// [`ConfigError::Parse`] naming the offending clause; rejected inputs
    /// include a missing mode clause, any clause given twice, a grow factor
    /// that is not a power of two in `2..=2^31` (the per-way set count
    /// must stay one), a way count outside `2..=16`, an occupancy threshold
    /// outside `1..=100`, and zero `every` or `max` values.
    pub fn parse(spec: &str) -> Result<Self, ConfigError> {
        let mut clauses = Clauses::with_prefix("resize policy", "resize", spec)?;
        let mut mode_pct: Option<(ResizeMode, u32)> = None;
        let mut every = DEFAULT_RESIZE_EVERY;
        let mut max = DEFAULT_RESIZE_MAX;
        while clauses.next_clause().is_some() {
            let mode = [
                ("grow", "grow<2, 4, …, 2^31>@<1..=100>"),
                ("reway", "reway<2..=16>@<1..=100>"),
            ]
            .into_iter()
            .find_map(|(key, form)| Some((key, form, clauses.strip(key)?)));
            if let Some((key, form, rest)) = mode {
                clauses.claim("mode")?;
                let (value, pct): (u32, u32) = rest
                    .split_once('@')
                    .and_then(|(value, pct)| Some((value.parse().ok()?, pct.parse().ok()?)))
                    .ok_or_else(|| clauses.expected(form))?;
                // A grown per-way set count must stay a power of two, and
                // the factor a `u32`: `2^32` must not wrap to zero.
                let mode = match key {
                    _ if !(1..=100).contains(&pct) => None,
                    "grow" => {
                        (value >= 2 && value.is_power_of_two()).then_some(ResizeMode::Grow(value))
                    }
                    _ => (2..=16)
                        .contains(&value)
                        .then_some(ResizeMode::Reway(value as usize)),
                };
                mode_pct = Some((mode.ok_or_else(|| clauses.expected(form))?, pct));
            } else if let Some(n) = clauses.value("every", 1..)? {
                every = n;
            } else if let Some(n) = clauses.value("max", 1..)? {
                max = n;
            } else {
                return Err(clauses.unknown());
            }
        }
        let Some((mode, pct)) = mode_pct else {
            return Err(clauses.error("needs a mode clause (`grow<f>@<pct>` or `reway<w>@<pct>`)"));
        };
        let label = render_label(mode, pct, every, max);
        Ok(ResizePolicy {
            label,
            mode,
            pct,
            every,
            max,
        })
    }

    /// The canonical spec string (clauses in a fixed order), parseable back
    /// into an equal policy.
    #[must_use]
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The geometry change a firing applies.
    #[must_use]
    pub fn mode(&self) -> ResizeMode {
        self.mode
    }

    /// The occupancy threshold, in percent.
    #[must_use]
    pub fn pct(&self) -> u32 {
        self.pct
    }

    /// The shard-local epoch length, in applied requests.
    #[must_use]
    pub fn every(&self) -> u64 {
        self.every
    }

    /// The per-shard firing cap.
    #[must_use]
    pub fn max(&self) -> u32 {
        self.max
    }

    /// Whether the policy fires at this epoch boundary: the shard has
    /// fired fewer than `max` times and its occupancy `len / capacity` has
    /// reached the threshold.  Pure integer arithmetic — no float crosses
    /// the determinism contract.
    #[must_use]
    pub fn should_fire(&self, len: usize, capacity: usize, fired: u32) -> bool {
        fired < self.max && (len as u64) * 100 >= (capacity as u64) * u64::from(self.pct)
    }

    /// The geometry a firing moves a `ways × sets` shard to.
    #[must_use]
    pub fn next_geometry(&self, ways: usize, sets: usize) -> (usize, usize) {
        match self.mode {
            ResizeMode::Grow(factor) => (ways, sets * factor as usize),
            ResizeMode::Reway(new_ways) => (new_ways, sets),
        }
    }

    /// Checks that `max` firings keep a `ways × sets` shard a geometry
    /// that can exist ([`checked_capacity`]).
    ///
    /// # Errors
    ///
    /// [`ConfigError::Inconsistent`] when the grown set count overflows or
    /// the final capacity exceeds the largest a directory may have.
    pub(crate) fn validate_for(&self, ways: usize, sets: usize) -> Result<(), ConfigError> {
        let last = match self.mode {
            ResizeMode::Grow(factor) => (factor as usize)
                .checked_pow(self.max)
                .and_then(|growth| sets.checked_mul(growth))
                .map(|sets| (ways, sets)),
            ResizeMode::Reway(ways) => Some((ways, sets)),
        };
        match last.map(|(ways, sets)| checked_capacity(ways, sets)) {
            Some(Ok(_)) => Ok(()),
            _ => Err(ConfigError::Inconsistent {
                what: "resize policy grows a shard past the largest directory capacity",
            }),
        }
    }
}

impl std::str::FromStr for ResizePolicy {
    type Err = ConfigError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        ResizePolicy::parse(s)
    }
}

fn render_label(mode: ResizeMode, pct: u32, every: u64, max: u32) -> String {
    let mode = match mode {
        ResizeMode::Grow(factor) => format!("grow{factor}@{pct}"),
        ResizeMode::Reway(ways) => format!("reway{ways}@{pct}"),
    };
    format!("resize-{mode}-every{every}-max{max}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_full_grammar_and_renders_a_canonical_label() {
        let policy = ResizePolicy::parse("resize-grow2@75-every256-max4").unwrap();
        assert_eq!(policy.mode(), ResizeMode::Grow(2));
        assert_eq!(policy.pct(), 75);
        assert_eq!(policy.every(), 256);
        assert_eq!(policy.max(), 4);
        assert_eq!(policy.label(), "resize-grow2@75-every256-max4");
        // The label round-trips to an equal policy, clause order regardless.
        let shuffled = ResizePolicy::parse("resize-max4-every256-grow2@75").unwrap();
        assert_eq!(shuffled, policy);
        assert_eq!(ResizePolicy::parse(policy.label()).unwrap(), policy);
    }

    #[test]
    fn optional_clauses_default_and_reway_parses() {
        let policy = ResizePolicy::parse("resize-grow4@50").unwrap();
        assert_eq!(policy.every(), DEFAULT_RESIZE_EVERY);
        assert_eq!(policy.max(), DEFAULT_RESIZE_MAX);
        assert_eq!(policy.label(), "resize-grow4@50-every256-max1");

        let policy = ResizePolicy::parse("resize-reway8@60-every128").unwrap();
        assert_eq!(policy.mode(), ResizeMode::Reway(8));
        assert_eq!(policy.label(), "resize-reway8@60-every128-max1");
    }

    #[test]
    fn rejects_malformed_and_inconsistent_specs() {
        // Each error quotes the spec and the token at fault.
        for (spec, token) in [
            ("resiz-grow2@75", "resize"),                      // wrong prefix
            ("resize", "resize"),                              // no mode clause
            ("resize-every256", "resize-every256"),            // no mode clause
            ("resize-grow2", "grow2"),                         // missing threshold
            ("resize-grow@75", "grow@75"),                     // missing factor
            ("resize-grow3@75", "grow3@75"),                   // factor not a power of two
            ("resize-grow1@75", "grow1@75"),                   // factor < 2
            ("resize-grow0@75", "grow0@75"),                   // factor < 2
            ("resize-grow4294967296@50", "grow4294967296@50"), // factor past u32
            ("resize-reway1@75", "reway1@75"),                 // ways < 2
            ("resize-reway17@75", "reway17@75"),               // ways > 16
            ("resize-grow2@0", "grow2@0"),                     // threshold out of range
            ("resize-grow2@101", "grow2@101"),                 // threshold out of range
            ("resize-grow2@75-every0", "every0"),              // zero epoch
            ("resize-grow2@75-max0", "max0"),                  // zero cap
            ("resize-grow2@75-reway4@50", "reway4@50"),        // two mode clauses
            ("resize-grow2@75-grow2@50", "grow2@50"),          // two mode clauses
            ("resize-shrink2@75", "shrink2@75"),               // unknown clause
            ("resize-everyx", "everyx"),                       // unparsable value
            ("resize-grow2@75-every64-every128", "every128"),  // repeated epoch
            ("resize-grow2@75-max1-max3", "max3"),             // repeated cap
        ] {
            let err = ResizePolicy::parse(spec).unwrap_err().to_string();
            assert!(
                err.contains(&format!("resize policy `{spec}`"))
                    && err.contains(&format!("`{token}`")),
                "`{spec}` should fail naming `{token}`, got: {err}"
            );
        }
    }

    #[test]
    fn validate_for_bounds_the_grown_capacity() {
        let policy = |spec| ResizePolicy::parse(spec).unwrap();
        assert!(policy("resize-grow2@75-max4").validate_for(4, 256).is_ok());
        assert!(policy("resize-reway16@75-max9")
            .validate_for(4, 256)
            .is_ok());
        // 2^30 twice over 256 sets: 2^68 sets do not exist.
        for spec in [
            "resize-grow1073741824@1-max2",
            "resize-grow2@50-max4000000000",
        ] {
            let err = policy(spec).validate_for(4, 256).unwrap_err();
            assert!(err.to_string().contains("resize policy"), "{err}");
        }
    }

    #[test]
    fn should_fire_applies_the_threshold_and_the_cap() {
        let policy = ResizePolicy::parse("resize-grow2@75-max2").unwrap();
        // 75% of 400 is 300: the threshold is inclusive.
        assert!(!policy.should_fire(299, 400, 0));
        assert!(policy.should_fire(300, 400, 0));
        assert!(policy.should_fire(400, 400, 1));
        assert!(!policy.should_fire(400, 400, 2), "cap reached");
        // A 100% threshold needs a completely full shard.
        let full = ResizePolicy::parse("resize-grow2@100").unwrap();
        assert!(!full.should_fire(399, 400, 0));
        assert!(full.should_fire(400, 400, 0));
    }

    #[test]
    fn next_geometry_grows_sets_or_swaps_ways() {
        let grow = ResizePolicy::parse("resize-grow2@75").unwrap();
        assert_eq!(grow.next_geometry(4, 512), (4, 1024));
        let reway = ResizePolicy::parse("resize-reway8@75").unwrap();
        assert_eq!(reway.next_geometry(4, 512), (8, 512));
    }
}
