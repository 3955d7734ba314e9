//! The one reader of the workspace's `prefix-clause-clause…` spec strings.
//!
//! Observability specs (`obs-…`), scenario workloads (`migratory-…`) and
//! the modifiers of a directory spec (`cuckoo-4x512-skew-c16`, after its
//! organization) share one shape, and [`Clauses`] enforces its rules once
//! for all three:
//!
//! * the string splits at `-`; the first token is the required prefix (a
//!   fixed word, or a scenario's family name) and every later token is one
//!   clause, in any order;
//! * a single-valued clause given twice is an error ([`Clauses::claim`]):
//!   no clause silently overrides an earlier one;
//! * a clause no branch of the grammar takes is an unknown-clause error;
//! * every error names the spec and the clause.
//!
//! Each grammar tabulates its own clauses in its module docs and keeps a
//! canonical label that re-parses to an equal value.
//!
//! ```
//! use ccd_common::clause::Clauses;
//!
//! let mut clauses = Clauses::with_prefix("demo spec", "demo", "demo-n3-x-n4")?;
//! clauses.next_clause();
//! assert_eq!(clauses.value("n", 1..=8)?, Some(3));
//! clauses.next_clause();
//! assert_eq!(clauses.value("n", 1..=8)?, None);
//! assert!(clauses.unknown().to_string().contains("unknown clause `x`"));
//! clauses.next_clause();
//! let err = clauses.value("n", 1..=8).unwrap_err().to_string();
//! assert!(err.contains("demo spec `demo-n3-x-n4`: second `n` clause `n4`"), "{err}");
//! # Ok::<(), ccd_common::ConfigError>(())
//! ```

use crate::ConfigError;
use std::fmt::{self, Debug};
use std::ops::RangeBounds;
use std::str::FromStr;

/// A cursor over the clauses of one spec string.
#[derive(Debug)]
pub struct Clauses<'a> {
    what: &'static str,
    spec: &'a str,
    noun: &'static str,
    rest: std::str::Split<'a, char>,
    clause: &'a str,
    claimed: Vec<&'static str>,
}

impl<'a> Clauses<'a> {
    /// Splits `spec` (a `what`, as errors call it) and returns the reader
    /// over its clauses together with the first token.
    #[must_use]
    pub fn new(what: &'static str, spec: &'a str) -> (Self, &'a str) {
        Self::within(what, spec, spec, "clause")
    }

    /// [`Clauses::new`] over `body`, the part of `spec` that holds the
    /// clauses, for a grammar whose errors call a clause a `noun`.  Errors
    /// still quote all of `spec`.
    #[must_use]
    pub fn within(
        what: &'static str,
        spec: &'a str,
        body: &'a str,
        noun: &'static str,
    ) -> (Self, &'a str) {
        let mut rest = body.split('-');
        let clause = rest.next().unwrap_or_default();
        let claimed = Vec::new();
        let clauses = Clauses {
            what,
            spec,
            noun,
            rest,
            clause,
            claimed,
        };
        (clauses, clause)
    }

    /// [`Clauses::new`] for a grammar whose first token must be `prefix`.
    ///
    /// # Errors
    ///
    /// [`ConfigError::Parse`] when the first token is anything else.
    pub fn with_prefix(
        what: &'static str,
        prefix: &str,
        spec: &'a str,
    ) -> Result<Self, ConfigError> {
        match Self::new(what, spec) {
            (clauses, head) if head == prefix => Ok(clauses),
            (clauses, _) => Err(clauses.error(format_args!("must start with `{prefix}`"))),
        }
    }

    /// Moves to the next clause and returns it; `None` after the last.
    pub fn next_clause(&mut self) -> Option<&'a str> {
        self.clause = self.rest.next()?;
        Some(self.clause)
    }

    /// The rest of the current clause after `key`, when it starts with it.
    #[must_use]
    pub(crate) fn strip(&self, key: &str) -> Option<&'a str> {
        self.clause.strip_prefix(key)
    }

    /// Records the current clause as the grammar's one `name` clause.
    ///
    /// # Errors
    ///
    /// [`ConfigError::Parse`] naming the clause when a `name` clause was
    /// already read.
    pub fn claim(&mut self, name: &'static str) -> Result<(), ConfigError> {
        if self.claimed.contains(&name) {
            let (noun, clause) = (self.noun, self.clause);
            return Err(self.error(format_args!("second `{name}` {noun} `{clause}`")));
        }
        self.claimed.push(name);
        Ok(())
    }

    /// The value of the single-valued clause `key<value>`, when the
    /// current clause starts with `key`.
    ///
    /// # Errors
    ///
    /// The [`Clauses::claim`] error for a second `key` clause, and
    /// [`Clauses::expected`] when the value does not parse or lies
    /// outside `range`.
    pub fn value<T: FromStr + PartialOrd>(
        &mut self,
        key: &'static str,
        range: impl RangeBounds<T> + Debug,
    ) -> Result<Option<T>, ConfigError> {
        let Some(rest) = self.strip(key) else {
            return Ok(None);
        };
        self.claim(key)?;
        match rest.parse() {
            Ok(value) if range.contains(&value) => Ok(Some(value)),
            _ => Err(self.expected(&format!("{key}<{range:?}>"))),
        }
    }

    /// The error for a current clause that does not match `form`.
    #[must_use]
    pub fn expected(&self, form: &str) -> ConfigError {
        self.invalid(format_args!("does not match `{form}`"))
    }

    /// The error for a current clause whose value is refused `why`.
    #[must_use]
    pub fn invalid(&self, why: impl fmt::Display) -> ConfigError {
        self.error(format_args!("{} `{}` {why}", self.noun, self.clause))
    }

    /// The error for a current clause the grammar does not have.
    #[must_use]
    pub fn unknown(&self) -> ConfigError {
        self.error(format_args!("unknown {} `{}`", self.noun, self.clause))
    }

    /// An error naming the spec.
    #[must_use]
    pub fn error(&self, why: impl fmt::Display) -> ConfigError {
        ConfigError::parse(format!("{} `{}`: {why}", self.what, self.spec))
    }
}
