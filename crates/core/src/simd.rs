//! The host's vector instruction set, as a descriptor.
//!
//! No kernel dispatches on [`VectorEngine`]: the cuckoo table matches its
//! tags with portable SWAR arithmetic.  It survives only because the
//! repository benchmark prints it on its `env:` line
//! (`crates/bench/src/bin/benchmark/host.rs`); ROADMAP item 1(e) deletes it
//! together with that line.
//!
//! Detection is the workspace's one CPU-feature query: clippy's
//! `disallowed_macros` rejects `is_x86_feature_detected!` anywhere else.

/// Which vector instruction set the host offers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VectorEngine {
    /// No vector unit detected, and always under Miri.
    Portable,
    /// x86_64 baseline.
    Sse2,
    /// Runtime-detected on x86_64.
    Avx2,
    /// aarch64 baseline.
    Neon,
}

impl VectorEngine {
    /// The widest engine the host CPU offers.
    #[must_use]
    pub fn detect() -> VectorEngine {
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        #[expect(clippy::disallowed_macros, reason = "the sanctioned CPU-feature query")]
        {
            if is_x86_feature_detected!("avx2") {
                return VectorEngine::Avx2;
            }
            return VectorEngine::Sse2;
        }
        #[cfg(all(target_arch = "aarch64", not(miri)))]
        {
            return VectorEngine::Neon;
        }
        #[allow(
            unreachable_code,
            reason = "reached only under Miri or on other architectures"
        )]
        VectorEngine::Portable
    }

    /// The engine's name, as the benchmark's `env:` line prints it.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            VectorEngine::Portable => "portable",
            VectorEngine::Sse2 => "sse2",
            VectorEngine::Avx2 => "avx2",
            VectorEngine::Neon => "neon",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miri_forces_the_portable_engine() {
        if cfg!(miri) {
            assert_eq!(VectorEngine::detect(), VectorEngine::Portable);
        }
    }

    #[test]
    fn detection_is_stable() {
        assert_eq!(VectorEngine::detect(), VectorEngine::detect());
        assert!(!VectorEngine::detect().name().is_empty());
    }
}
