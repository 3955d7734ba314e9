//! Runtime-dispatched vector kernels for tag probing.
//!
//! The line-local tag probe of [`crate::table::CuckooTable`] reduces to one
//! primitive: *which bytes of this ≤64-byte tag span equal a needle byte?*
//! This module answers it with the best instruction set the host offers —
//! sse2 (the x86_64 baseline), avx2 (runtime-detected), or neon (the
//! aarch64 baseline) — behind one-time feature detection, with an exact
//! portable byte loop as the fallback and as the Miri path (`cfg(miri)`
//! compiles the intrinsics out entirely, the same pattern as
//! `ccd_common::prefetch`).
//!
//! This is the **only** module in the workspace allowed to use `std::arch`,
//! `is_x86_feature_detected!`, or `#[target_feature]` (plus the prefetch
//! hint in `ccd-common`); ccd-lint's `arch-confinement` rule enforces the
//! boundary.  Every kernel returns the same bit-exact mask as
//! [`eq_mask_portable`], so engine selection can never change behaviour —
//! only how fast the mask is produced.

/// Which vector instruction set the probe kernels run on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VectorEngine {
    /// Exact scalar byte loop — always available, and forced under Miri.
    Portable,
    /// 16-byte `_mm_cmpeq_epi8`/`_mm_movemask_epi8` (x86_64 baseline).
    Sse2,
    /// 32-byte `_mm256_cmpeq_epi8` (runtime-detected).
    Avx2,
    /// 16-byte `vceqq_u8` with a bit-position horizontal add (aarch64
    /// baseline).
    Neon,
}

impl VectorEngine {
    /// Selects the best engine for the host CPU.
    ///
    /// The x86_64 check consults `is_x86_feature_detected!` (itself cached
    /// by std) once per call site; tables cache the result in a field, so
    /// detection runs once per table, not per probe.  Under Miri every
    /// intrinsic path is compiled out and the portable loop is selected —
    /// the dispatch decision itself is what the Miri suite exercises.
    #[must_use]
    pub fn detect() -> VectorEngine {
        #[cfg(all(target_arch = "x86_64", not(miri)))]
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
        #[allow(unreachable_code)]
        VectorEngine::Portable
    }

    /// The engine's spec-string-style name (bench row labels).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            VectorEngine::Portable => "portable",
            VectorEngine::Sse2 => "sse2",
            VectorEngine::Avx2 => "avx2",
            VectorEngine::Neon => "neon",
        }
    }

    /// Returns a bitmask with bit `i` set iff `bytes[i] == needle`.
    ///
    /// `bytes` must be at most 64 bytes long (one cache line of tags) so
    /// the mask fits a `u64`; bits at and above `bytes.len()` are zero.
    ///
    /// # Panics
    ///
    /// Panics when `bytes` is longer than 64.
    #[inline]
    #[must_use]
    pub fn eq_mask(self, bytes: &[u8], needle: u8) -> u64 {
        assert!(bytes.len() <= 64, "tag span of {} bytes", bytes.len());
        match self {
            VectorEngine::Portable => eq_mask_portable(bytes, needle),
            VectorEngine::Sse2 => {
                #[cfg(all(target_arch = "x86_64", not(miri)))]
                {
                    return eq_mask_sse2(bytes, needle);
                }
                #[allow(unreachable_code)]
                eq_mask_portable(bytes, needle)
            }
            VectorEngine::Avx2 => {
                #[cfg(all(target_arch = "x86_64", not(miri)))]
                {
                    // SAFETY: the Avx2 engine is only ever constructed by
                    // `detect()` after `is_x86_feature_detected!("avx2")`
                    // confirmed the host supports the avx2 target feature.
                    return unsafe { eq_mask_avx2(bytes, needle) };
                }
                #[allow(unreachable_code)]
                eq_mask_portable(bytes, needle)
            }
            VectorEngine::Neon => {
                #[cfg(all(target_arch = "aarch64", not(miri)))]
                {
                    return eq_mask_neon(bytes, needle);
                }
                #[allow(unreachable_code)]
                eq_mask_portable(bytes, needle)
            }
        }
    }
}

/// The reference kernel: exact byte-by-byte equality mask.
#[inline]
#[must_use]
pub fn eq_mask_portable(bytes: &[u8], needle: u8) -> u64 {
    let mut mask = 0u64;
    for (i, &b) in bytes.iter().enumerate() {
        mask |= u64::from(b == needle) << i;
    }
    mask
}

/// sse2 kernel: 16-byte compare + movemask per chunk.  Partial tail chunks
/// go through a zero-padded stack buffer with the pad lanes masked off, so
/// a `needle` of zero cannot over-report.
#[cfg(all(target_arch = "x86_64", not(miri)))]
#[inline]
fn eq_mask_sse2(bytes: &[u8], needle: u8) -> u64 {
    use std::arch::x86_64::{_mm_cmpeq_epi8, _mm_loadu_si128, _mm_movemask_epi8, _mm_set1_epi8};
    let mut mask = 0u64;
    for (chunk_idx, chunk) in bytes.chunks(16).enumerate() {
        let bits = if chunk.len() == 16 {
            // SAFETY: sse2 is part of the x86_64 baseline feature set, and
            // `chunk` is a 16-byte in-bounds slice; `_mm_loadu_si128` has
            // no alignment requirement.
            unsafe {
                let v = _mm_loadu_si128(chunk.as_ptr().cast());
                let eq = _mm_cmpeq_epi8(v, _mm_set1_epi8(needle as i8));
                _mm_movemask_epi8(eq) as u32
            }
        } else {
            let mut buf = [0u8; 16];
            buf[..chunk.len()].copy_from_slice(chunk);
            // SAFETY: as above — baseline sse2 on a 16-byte stack buffer.
            let all = unsafe {
                let v = _mm_loadu_si128(buf.as_ptr().cast());
                let eq = _mm_cmpeq_epi8(v, _mm_set1_epi8(needle as i8));
                _mm_movemask_epi8(eq) as u32
            };
            all & ((1u32 << chunk.len()) - 1)
        };
        mask |= u64::from(bits) << (chunk_idx * 16);
    }
    mask
}

/// avx2 kernel: 32-byte compare + movemask per chunk.  Partial tail chunks
/// go through a zero-padded stack buffer with the pad lanes masked off.
///
/// # Safety
///
/// The caller must have verified that the host supports avx2 (the
/// [`VectorEngine::Avx2`] dispatch path does, via runtime detection).
// SAFETY: the whole body is straight-line intrinsic work over in-bounds
// slices and stack buffers (unaligned loads, no pointer arithmetic); the
// only obligation is the avx2 target feature, which the one construction
// site of `VectorEngine::Avx2` established with runtime detection.
#[cfg(all(target_arch = "x86_64", not(miri)))]
#[target_feature(enable = "avx2")]
unsafe fn eq_mask_avx2(bytes: &[u8], needle: u8) -> u64 {
    use std::arch::x86_64::{
        _mm256_cmpeq_epi8, _mm256_loadu_si256, _mm256_movemask_epi8, _mm256_set1_epi8,
    };
    let splat = _mm256_set1_epi8(needle as i8);
    let mut mask = 0u64;
    for (chunk_idx, chunk) in bytes.chunks(32).enumerate() {
        let bits = if chunk.len() == 32 {
            let eq = _mm256_cmpeq_epi8(_mm256_loadu_si256(chunk.as_ptr().cast()), splat);
            _mm256_movemask_epi8(eq) as u32
        } else {
            let mut buf = [0u8; 32];
            buf[..chunk.len()].copy_from_slice(chunk);
            let eq = _mm256_cmpeq_epi8(_mm256_loadu_si256(buf.as_ptr().cast()), splat);
            (_mm256_movemask_epi8(eq) as u32) & ((1u32 << chunk.len()) - 1)
        };
        mask |= u64::from(bits) << (chunk_idx * 32);
    }
    mask
}

/// neon kernel: 16-byte `vceqq_u8`, then a bit-position AND + horizontal
/// add to emulate movemask (the per-lane bit values are distinct, so the
/// adds cannot carry and the sum *is* the OR).
#[cfg(all(target_arch = "aarch64", not(miri)))]
#[inline]
fn eq_mask_neon(bytes: &[u8], needle: u8) -> u64 {
    use std::arch::aarch64::{
        vaddv_u8, vandq_u8, vceqq_u8, vdupq_n_u8, vget_high_u8, vget_low_u8, vld1q_u8,
    };
    const BIT_POS: [u8; 16] = [1, 2, 4, 8, 16, 32, 64, 128, 1, 2, 4, 8, 16, 32, 64, 128];
    let mut mask = 0u64;
    for (chunk_idx, chunk) in bytes.chunks(16).enumerate() {
        let mut buf = [0u8; 16];
        buf[..chunk.len()].copy_from_slice(chunk);
        // SAFETY: neon is part of the aarch64 baseline feature set, and
        // both loads read 16 in-bounds bytes from stack arrays.
        let bits = unsafe {
            let v = vld1q_u8(buf.as_ptr());
            let eq = vceqq_u8(v, vdupq_n_u8(needle));
            let sel = vandq_u8(eq, vld1q_u8(BIT_POS.as_ptr()));
            u32::from(vaddv_u8(vget_low_u8(sel))) | (u32::from(vaddv_u8(vget_high_u8(sel))) << 8)
        };
        let bits = if chunk.len() == 16 {
            bits
        } else {
            bits & ((1u32 << chunk.len()) - 1)
        };
        mask |= u64::from(bits) << (chunk_idx * 16);
    }
    mask
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccd_common::rng::{Rng64, SplitMix64};

    /// Every constructible engine on this host, always including Portable.
    fn engines() -> Vec<VectorEngine> {
        let detected = VectorEngine::detect();
        let mut all = vec![VectorEngine::Portable];
        if detected != VectorEngine::Portable {
            all.push(detected);
            // On x86_64 the sse2 kernel is baseline — exercise it even
            // when detection prefers avx2.
            if detected == VectorEngine::Avx2 {
                all.push(VectorEngine::Sse2);
            }
        }
        all
    }

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

    #[test]
    fn every_engine_matches_the_portable_reference() {
        let mut rng = SplitMix64::new(0x51D);
        let trials = if cfg!(miri) { 50 } else { 2000 };
        for _ in 0..trials {
            let len = (rng.next_u64() % 65) as usize;
            let bytes: Vec<u8> = (0..len)
                .map(|_| (rng.next_u64() % 4) as u8 * 0x40)
                .collect();
            for needle in [0u8, 0x40, 0x80, 0xC0, 0xFF] {
                let want = eq_mask_portable(&bytes, needle);
                for engine in engines() {
                    assert_eq!(
                        engine.eq_mask(&bytes, needle),
                        want,
                        "{} diverged on len {len} needle {needle:#x}",
                        engine.name()
                    );
                }
            }
        }
    }

    #[test]
    fn masks_are_exact_at_the_boundaries() {
        for engine in engines() {
            assert_eq!(engine.eq_mask(&[], 0), 0, "{}", engine.name());
            assert_eq!(engine.eq_mask(&[7], 7), 1, "{}", engine.name());
            let all = vec![0xAAu8; 64];
            assert_eq!(engine.eq_mask(&all, 0xAA), u64::MAX, "{}", engine.name());
            assert_eq!(engine.eq_mask(&all, 0xAB), 0, "{}", engine.name());
            // A zero needle must not match zero padding beyond the span.
            let tail = vec![0u8; 17];
            assert_eq!(engine.eq_mask(&tail, 0), (1 << 17) - 1, "{}", engine.name());
        }
    }

    #[test]
    #[should_panic(expected = "tag span")]
    fn oversized_spans_are_rejected() {
        let _ = VectorEngine::Portable.eq_mask(&[0u8; 65], 0);
    }
}
