//! The `obs-…` spec grammar arming the observability layer.
//!
//! An [`ObsConfig`] arms the layer from one spec string:
//!
//! ```text
//! obs-sig3-ring4096-spans
//! └┬┘ └┬──┘ └───┬───┘ └┬──┘
//!  │   │        │      └ also record span begin/end events
//!  │   │        └ per-worker flight-recorder ring of 4096 events
//!  │   └ histogram resolution: 3 significant bits (<= 12.5% error)
//!  └ required prefix
//! ```
//!
//! Clause reference:
//!
//! | clause     | meaning                                                   |
//! |------------|-----------------------------------------------------------|
//! | `sig<B>`   | [`LogHistogram`] resolution in significant bits, `1..=8` (default 2) |
//! | `ring<N>`  | flight-recorder capacity in events (power of two); absent or 0 disables event recording |
//! | `spans`    | record span begin/end pairs in addition to instant events (needs a `ring`) |
//!
//! Each clause may appear once; the rules every spec grammar shares are
//! [`ccd_common::clause`]'s.
//!
//! Observation must never perturb semantics (contract #11), so the config
//! deliberately has no clause that could: there is no sampling, no
//! truncation of metric values, and no time source — events are stamped
//! with virtual time (request sequence numbers) supplied by the
//! instrumented code.
//!
//! [`LogHistogram`]: ccd_common::LogHistogram

use ccd_common::clause::Clauses;
use ccd_common::ConfigError;

/// The default histogram resolution when no `sig` clause is given.
pub const DEFAULT_SIG_BITS: u32 = 2;

/// The largest flight-recorder capacity a spec may request.  A cap keeps a
/// typo from allocating gigabytes of ring per worker.
pub const MAX_RING: usize = 1 << 24;

/// A parsed, validated observability spec.  See the module docs for the
/// grammar.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ObsConfig {
    label: String,
    sig_bits: u32,
    ring: usize,
    spans: bool,
}

impl ObsConfig {
    /// Parses an `obs-…` spec string.
    ///
    /// # Errors
    ///
    /// [`ConfigError::Parse`] naming the offending clause; rejected inputs
    /// include `sig` outside `1..=8`, a `ring` that is not a power of two,
    /// rings over [`MAX_RING`], `spans` without a ring, and any clause
    /// given twice.
    pub fn parse(spec: &str) -> Result<Self, ConfigError> {
        let mut clauses = Clauses::with_prefix("obs spec", "obs", spec)?;
        let (mut sig_bits, mut ring, mut spans) = (DEFAULT_SIG_BITS, 0usize, false);
        while let Some(clause) = clauses.next_clause() {
            if let Some(bits) = clauses.value("sig", 1..=8)? {
                sig_bits = bits;
            } else if let Some(events) = clauses.value("ring", 0..=MAX_RING)? {
                if events != 0 && !events.is_power_of_two() {
                    return Err(clauses.invalid("is not a power of two"));
                }
                ring = events;
            } else if clause == "spans" {
                clauses.claim("spans")?;
                spans = true;
            } else {
                return Err(clauses.unknown());
            }
        }
        if spans && ring == 0 {
            return Err(clauses.error("`spans` requires a non-zero `ring`"));
        }
        let label = render_label(sig_bits, ring, spans);
        Ok(ObsConfig {
            label,
            sig_bits,
            ring,
            spans,
        })
    }

    /// The canonical spec string (clauses in a fixed order), parseable back
    /// into an equal config.
    #[must_use]
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Histogram resolution in significant bits (`1..=8`).
    #[must_use]
    pub fn sig_bits(&self) -> u32 {
        self.sig_bits
    }

    /// Flight-recorder capacity in events; 0 disables event recording.
    #[must_use]
    pub fn ring(&self) -> usize {
        self.ring
    }

    /// Whether span begin/end events are recorded.
    #[must_use]
    pub fn spans(&self) -> bool {
        self.spans
    }

    /// `true` when the config arms a flight recorder.
    #[must_use]
    pub fn records_events(&self) -> bool {
        self.ring > 0
    }
}

fn render_label(sig_bits: u32, ring: usize, spans: bool) -> String {
    let mut label = format!("obs-sig{sig_bits}");
    if ring > 0 {
        label.push_str(&format!("-ring{ring}"));
    }
    if spans {
        label.push_str("-spans");
    }
    label
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_full_grammar_and_defaults() {
        let full = ObsConfig::parse("obs-sig3-ring4096-spans").unwrap();
        assert_eq!(full.sig_bits(), 3);
        assert_eq!(full.ring(), 4096);
        assert!(full.spans());
        assert!(full.records_events());
        assert_eq!(full.label(), "obs-sig3-ring4096-spans");

        let bare = ObsConfig::parse("obs").unwrap();
        assert_eq!(bare.sig_bits(), DEFAULT_SIG_BITS);
        assert_eq!(bare.ring(), 0);
        assert!(!bare.spans());
        assert!(!bare.records_events());
        assert_eq!(bare.label(), "obs-sig2");
        // Clause order is canonicalized; the parser fuzz holds every label
        // to re-parsing equal.
        assert_eq!(
            ObsConfig::parse("obs-spans-ring16").unwrap().label(),
            "obs-sig2-ring16-spans"
        );
    }

    #[test]
    fn rejects_malformed_specs() {
        // Each error quotes the spec and the token at fault.
        for (spec, token) in [
            ("observability", "obs"),
            ("obs-sig0", "sig0"),
            ("obs-sig9", "sig9"),
            ("obs-sigx", "sigx"),
            ("obs-ring3", "ring3"),
            ("obs-ring", "ring"),
            ("obs-ring99999999999", "ring99999999999"),
            ("obs-spans", "spans"),
            ("obs-sig2-sig3", "sig3"),
            ("obs-ring8-ring8", "ring8"),
            ("obs-ring8-spans-spans", "spans"),
            ("obs-what", "what"),
        ] {
            let err = ObsConfig::parse(spec).unwrap_err().to_string();
            assert!(
                err.contains(&format!("obs spec `{spec}`")) && err.contains(&format!("`{token}`")),
                "`{spec}` should fail naming `{token}`, got: {err}"
            );
        }
        assert!(ObsConfig::parse(&format!("obs-ring{}", MAX_RING * 2)).is_err());
    }
}
