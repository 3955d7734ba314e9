//! Fixture: CPU-feature tokens are flagged outside the CPU-feature modules.

#[allow(unused_imports)]
use std::arch::x86_64::__m256i;

pub fn wide_probe_available() -> bool {
    is_x86_feature_detected!("avx2")
}

#[cfg(target_feature = "sse2")]
pub fn compiled_with_sse2() {}
