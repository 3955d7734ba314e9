//! The service's error surface.

use ccd_common::ConfigError;
use std::fmt;

/// Everything a [`DirectoryService`](crate::DirectoryService) run can fail
/// with.
///
/// A worker panic is a value callers can match on, never a process abort:
/// [`ServiceError::WorkerCrashed`] names the worker and carries the
/// stringified panic payload — for an op naming a cache past the
/// directory's count, the op-entry assert's `out of range` message.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum ServiceError {
    /// The topology, spec string or load was rejected.
    Config(ConfigError),
    /// A worker thread panicked; the other workers drained and exited.
    WorkerCrashed {
        /// Index of the worker that died.
        worker: usize,
        /// The panic payload, stringified.
        cause: String,
    },
}

impl From<ConfigError> for ServiceError {
    fn from(err: ConfigError) -> Self {
        ServiceError::Config(err)
    }
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::Config(err) => write!(f, "{err}"),
            ServiceError::WorkerCrashed { worker, cause } => {
                write!(f, "service worker {worker} crashed: {cause}")
            }
        }
    }
}

impl std::error::Error for ServiceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServiceError::Config(err) => Some(err),
            ServiceError::WorkerCrashed { .. } => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_and_converts() {
        let err: ServiceError = ConfigError::Zero { what: "shards" }.into();
        assert_eq!(err.to_string(), "shards must be non-zero");
        assert!(std::error::Error::source(&err).is_some());

        let err = ServiceError::WorkerCrashed {
            worker: 3,
            cause: "cache8 out of range for a 8-cache directory".into(),
        };
        assert!(err.to_string().contains("worker 3 crashed"));
        assert!(std::error::Error::source(&err).is_none());
    }
}
