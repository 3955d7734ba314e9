//! A large `PageBuf` sits on huge pages where the host grants them.
#![cfg(all(target_os = "linux", not(miri)))]

mod smaps;

use ccd_common::pages::PageBuf;

/// Fails the day something touches a large buffer before advising it
/// (an `alloc_zeroed`, say): pages faulted in small stay small, but for
/// the 4096 of them (16 MiB) `khugepaged` collapses on its first pass
/// over a newly advised mapping — hence "at least half", not "any".
#[test]
fn a_large_touched_buffer_sits_on_huge_pages_where_the_host_grants_them() {
    let mode =
        std::fs::read_to_string("/sys/kernel/mm/transparent_hugepage/enabled").unwrap_or_default();
    if !(mode.contains("[always]") || mode.contains("[madvise]")) {
        eprintln!(
            "skipped: transparent huge pages are `{}` on this host",
            mode.trim()
        );
        return;
    }
    let len = (64 << 20) / 8;
    let buf = PageBuf::filled(len, 0u64).unwrap();
    assert_eq!(buf[len - 1], 0);
    let middle = buf.as_ptr().addr() + (32 << 20);
    let smaps = std::fs::read_to_string("/proc/self/smaps").unwrap_or_default();
    let Some(huge_kib) = smaps::anon_huge_kib_at(&smaps, middle) else {
        eprintln!("skipped: /proc/self/smaps does not list the buffer's mapping");
        return;
    };
    assert!(
        huge_kib >= (32 << 10),
        "{huge_kib} KiB of a 64 MiB buffer are on huge pages ({}): it was touched before \
         it was advised, or the host has no contiguous memory left to grant",
        mode.trim()
    );
}
