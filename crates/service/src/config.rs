//! Service topology configuration.

use crate::obs::ObsConfig;
use ccd_common::ConfigError;
use ccd_directory::DirectorySpec;

/// Default number of request batches a worker queue can hold before the
/// ingestion frontend blocks.
pub const DEFAULT_QUEUE_DEPTH: usize = 8;

/// Default number of requests per ingestion batch.
pub const DEFAULT_BATCH: usize = 256;

/// The shape of a [`DirectoryService`](crate::DirectoryService).
///
/// * `spec` names the organization of every shard (a `ccd-directory` spec
///   string such as `"cuckoo-4x4096-c16"`); the spec's set count is divided
///   across the shards so the **total capacity is independent of the shard
///   count**, exactly like `shardedN:` specs.
/// * `shards` fixes the address interleaving (`block mod shards`) and with
///   it the service's *semantics*: outcome streams and statistics depend on
///   the shard count only.
/// * `workers` fixes the *parallelism*: shard `s` is owned by worker
///   `s mod workers`, every shard is owned by exactly one worker, and no
///   lock ever guards a shard — which is why any worker count produces
///   bit-identical results.
#[derive(Clone, Debug, PartialEq)]
pub struct ServiceConfig {
    /// Directory spec string built for every shard (set count divided by
    /// the shard count).
    pub spec: String,
    /// Number of address-interleaved shards (the unit of ownership).
    pub shards: usize,
    /// Number of worker threads (at most one per shard).
    pub workers: usize,
    /// Batches each worker queue holds before ingestion blocks.
    pub queue_depth: usize,
    /// Requests per ingestion batch.
    pub batch: usize,
    /// Record one [`OutcomeRecord`](crate::OutcomeRecord) per request into
    /// the report's [`OutcomeLog`](crate::OutcomeLog) (2 bytes a quiet
    /// record, 3 with one invalidation of a cache below 256).  Verification
    /// and the golden digests need the log; a pure throughput measurement
    /// can turn it off.
    pub record_outcomes: bool,
    /// An armed observability layer, or `None` (the default) to run dark;
    /// nothing but this field arms a service.  Arming is observational
    /// only — contract #11 says armed and unarmed runs are
    /// digest-identical.  See [`ObsConfig`].
    pub obs: Option<ObsConfig>,
}

impl ServiceConfig {
    /// A config with the given topology and default queue/batch sizes,
    /// outcome recording on.
    #[must_use]
    pub fn new(spec: impl Into<String>, shards: usize, workers: usize) -> Self {
        ServiceConfig {
            spec: spec.into(),
            shards,
            workers,
            queue_depth: DEFAULT_QUEUE_DEPTH,
            batch: DEFAULT_BATCH,
            record_outcomes: true,
            obs: None,
        }
    }

    /// Returns the config with outcome recording switched on or off.
    #[must_use]
    pub fn with_outcomes(mut self, record_outcomes: bool) -> Self {
        self.record_outcomes = record_outcomes;
        self
    }

    /// Returns the config with an observability layer parsed from an
    /// `obs-…` spec string (see [`ObsConfig::parse`]) armed.
    ///
    /// # Errors
    ///
    /// The spec's parse error.
    pub fn with_obs_spec(mut self, spec: &str) -> Result<Self, ConfigError> {
        self.obs = Some(ObsConfig::parse(spec)?);
        Ok(self)
    }

    /// Validates the topology and parses the shard spec.
    ///
    /// # Errors
    ///
    /// * [`ConfigError::Zero`] — zero shards, workers, queue depth or batch;
    /// * [`ConfigError::Inconsistent`] — more workers than shards, a
    ///   `shardedN:` spec prefix (the service does its own interleaving),
    ///   or a set count not divisible by the shard count;
    /// * any parse error from [`DirectorySpec`].
    pub fn validate(&self) -> Result<DirectorySpec, ConfigError> {
        if self.shards == 0 {
            return Err(ConfigError::Zero {
                what: "service shard count",
            });
        }
        if self.workers == 0 {
            return Err(ConfigError::Zero {
                what: "service worker count",
            });
        }
        if self.queue_depth == 0 {
            return Err(ConfigError::Zero {
                what: "service queue depth",
            });
        }
        if self.batch == 0 {
            return Err(ConfigError::Zero {
                what: "service batch size",
            });
        }
        if self.workers > self.shards {
            return Err(ConfigError::Inconsistent {
                what: "service worker count must not exceed the shard count \
                       (each worker owns at least one shard)",
            });
        }
        let spec: DirectorySpec = self.spec.parse()?;
        if spec.shards != 1 {
            return Err(ConfigError::Inconsistent {
                what: "service shard interleaving is configured by ServiceConfig::shards; \
                       the spec string must not carry a `shardedN:` prefix",
            });
        }
        if !spec.sets.is_multiple_of(self.shards) {
            return Err(ConfigError::Inconsistent {
                what: "service shard count must divide the spec's set count \
                       so total capacity is preserved",
            });
        }
        Ok(spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_a_sound_topology() {
        let config = ServiceConfig {
            queue_depth: 2,
            batch: 32,
            ..ServiceConfig::new("sparse-4x256-c8", 4, 2)
        }
        .with_outcomes(false);
        let spec = config.validate().unwrap();
        assert_eq!(spec.org, ccd_directory::Org::Sparse);
        assert_eq!(config.queue_depth, 2);
        assert_eq!(config.batch, 32);
        assert!(!config.record_outcomes);
    }

    #[test]
    fn rejects_degenerate_topologies() {
        let base = |shards, workers| ServiceConfig::new("sparse-4x256-c8", shards, workers);
        assert!(base(0, 1).validate().is_err());
        assert!(base(4, 0).validate().is_err());
        assert!(base(2, 4).validate().is_err(), "more workers than shards");
        let zero_depth = ServiceConfig {
            queue_depth: 0,
            ..base(4, 4)
        };
        assert!(zero_depth.validate().is_err());
        let zero_batch = ServiceConfig {
            batch: 0,
            ..base(4, 4)
        };
        assert!(zero_batch.validate().is_err());
        // 3 shards do not divide 256 sets.
        assert!(base(3, 1).validate().is_err());
    }

    #[test]
    fn rejects_pre_sharded_specs_and_bad_spec_strings() {
        let err = ServiceConfig::new("sharded2:sparse-4x256", 4, 2)
            .validate()
            .unwrap_err();
        assert!(err.to_string().contains("shardedN:"), "{err}");
        // Spec parse errors pass through with their token-level message.
        let err = ServiceConfig::new("sparse-4xq", 4, 2)
            .validate()
            .unwrap_err();
        assert!(err.to_string().contains("`4xq`"), "{err}");
    }

    /// An observability spec, read through its one arming path.
    fn obs(spec: &str) -> Result<ObsConfig, ConfigError> {
        let config = ServiceConfig::new("sparse-4x256-c8", 4, 2).with_obs_spec(spec)?;
        Ok(config.obs.unwrap())
    }

    #[test]
    fn parses_the_full_grammar_and_defaults() {
        let full = obs("obs-ring4096-spans").unwrap();
        assert_eq!(full.recorder().unwrap().finish().capacity, 4096);
        assert_eq!(full.label(), "obs-ring4096-spans");

        let bare = obs("obs").unwrap();
        assert!(bare.recorder().is_none(), "no ring, no recorder");
        assert_eq!(bare.label(), "obs");
        // Clause order is canonicalized; the parser fuzz holds every label
        // to re-parsing equal.
        assert_eq!(obs("obs-spans-ring16").unwrap().label(), "obs-ring16-spans");
    }

    #[test]
    fn rejects_malformed_specs() {
        // Each error quotes the spec and the token at fault.
        for (spec, token) in [
            ("observability", "obs"),
            ("obs-ring3", "ring3"),
            ("obs-ring", "ring"),
            ("obs-ringx", "ringx"),
            ("obs-ring99999999999", "ring99999999999"),
            ("obs-spans", "spans"),
            ("obs-ring8-ring8", "ring8"),
            ("obs-ring8-spans-spans", "spans"),
            ("obs-ring8-sig2", "sig2"),
            ("obs-what", "what"),
        ] {
            let err = obs(spec).unwrap_err().to_string();
            assert!(
                err.contains(&format!("obs spec `{spec}`")) && err.contains(&format!("`{token}`")),
                "`{spec}` should fail naming `{token}`, got: {err}"
            );
        }
        // Past the 2^24-event cap.
        assert!(obs(&format!("obs-ring{}", 1 << 25)).is_err());
    }
}
