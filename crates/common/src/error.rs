//! Shared configuration error type.

use std::error::Error;
use std::fmt;

/// Errors produced while validating structural configuration (cache shapes,
/// directory geometries, workload profiles).
///
/// All constructors in the workspace that accept user-provided sizes go
/// through `try_*` functions returning this error, with panicking `new`
/// convenience wrappers layered on top.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum ConfigError {
    /// A size parameter that must be a power of two was not.
    NotPowerOfTwo {
        /// Human-readable name of the offending parameter.
        what: &'static str,
        /// The rejected value.
        value: u64,
    },
    /// A parameter that must be non-zero was zero.
    Zero {
        /// Human-readable name of the offending parameter.
        what: &'static str,
    },
    /// A parameter exceeded a supported maximum.
    TooLarge {
        /// Human-readable name of the offending parameter.
        what: &'static str,
        /// The rejected value.
        value: u64,
        /// The largest supported value.
        max: u64,
    },
    /// A parameter fell below a required minimum.
    TooSmall {
        /// Human-readable name of the offending parameter.
        what: &'static str,
        /// The rejected value.
        value: u64,
        /// The smallest supported value.
        min: u64,
    },
    /// Two parameters that must agree did not.
    Inconsistent {
        /// Description of the violated relationship.
        what: &'static str,
    },
    /// A textual specification (e.g. a `DirectorySpec` string) could not be
    /// parsed.
    Parse {
        /// Description of what failed to parse, including the rejected
        /// input.
        what: String,
    },
}

impl ConfigError {
    /// Builds a [`ConfigError::Parse`] from any message — the one-liner the
    /// spec-string parsers (`DirectorySpec`, `WorkloadSpec`, `ObsConfig`)
    /// use at every rejection site.
    #[must_use]
    pub fn parse(what: impl Into<String>) -> Self {
        ConfigError::Parse { what: what.into() }
    }
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::NotPowerOfTwo { what, value } => {
                write!(f, "{what} must be a power of two, got {value}")
            }
            ConfigError::Zero { what } => write!(f, "{what} must be non-zero"),
            ConfigError::TooLarge { what, value, max } => {
                write!(f, "{what} is {value}, which exceeds the maximum of {max}")
            }
            ConfigError::TooSmall { what, value, min } => {
                write!(f, "{what} is {value}, below the minimum of {min}")
            }
            ConfigError::Inconsistent { what } => write!(f, "inconsistent configuration: {what}"),
            ConfigError::Parse { what } => write!(f, "parse error: {what}"),
        }
    }
}

impl Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = ConfigError::NotPowerOfTwo {
            what: "set count",
            value: 48,
        };
        assert_eq!(e.to_string(), "set count must be a power of two, got 48");

        let e = ConfigError::Zero { what: "ways" };
        assert_eq!(e.to_string(), "ways must be non-zero");

        let e = ConfigError::TooLarge {
            what: "cores",
            value: 2048,
            max: 1024,
        };
        assert!(e.to_string().contains("2048"));
        assert!(e.to_string().contains("1024"));

        let e = ConfigError::TooSmall {
            what: "ways",
            value: 1,
            min: 2,
        };
        assert!(e.to_string().contains("below the minimum"));

        let e = ConfigError::Inconsistent {
            what: "sharer width differs from cache count",
        };
        assert!(e.to_string().contains("inconsistent"));
    }

    #[test]
    fn parse_helper_builds_the_parse_variant() {
        let e = ConfigError::parse(format!("obs spec `{}`: unknown clause", "x@y"));
        assert_eq!(
            e,
            ConfigError::Parse {
                what: "obs spec `x@y`: unknown clause".to_string()
            }
        );
        assert!(e.to_string().starts_with("parse error:"));
    }

    #[test]
    fn error_trait_is_implemented() {
        fn takes_error<E: Error>(_: E) {}
        takes_error(ConfigError::Zero { what: "x" });
    }
}
