//! A dropped huge `PageBuf` leaves the process.
//!
//! Ten rounds build, touch and drop buffers of the sizes of a 4 Mi-slot
//! table's arrays at 16 caches — 4 MiB of tags, 32 MiB of keys, 8 MiB of
//! presence words — and keep a small allocation made after each build
//! alive, as a rebuilt table's neighbours would be.  After every drop no
//! mapping may cover a freed buffer, and after the last the resident set
//! must be back where it started.  Through `malloc`, whose mmap threshold
//! rises to the size of the last mapped chunk it frees, later rounds'
//! arrays would come from the `brk` heap and stay there.
//!
//! This file holds a single test, so no other test's allocations share the
//! process.
#![cfg(all(target_os = "linux", not(miri)))]

mod smaps;

use ccd_common::pages::PageBuf;
use std::fs::File;
use std::io::Read;

/// `VmRSS` of this process in KiB.
fn vm_rss_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmRSS:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("a VmRSS line")
}

/// Reads `/proc/self/smaps` into `text`, whose capacity was reserved up
/// front so that the read maps nothing where a freed buffer was.
fn read_smaps(text: &mut String) {
    text.clear();
    File::open("/proc/self/smaps")
        .and_then(|mut smaps| smaps.read_to_string(text))
        .expect("/proc/self/smaps");
}

#[test]
fn dropped_huge_buffers_return_their_memory() {
    const ROUNDS: u64 = 10;
    let mut text = String::with_capacity(1 << 20);
    read_smaps(&mut text);
    let mut kept = Vec::with_capacity(ROUNDS as usize);
    let start_kib = vm_rss_kib();
    for round in 0..ROUNDS {
        let tags = PageBuf::filled(4 << 20, 0x81u8).unwrap();
        let keys = PageBuf::filled(4 << 20, round).unwrap();
        let words = PageBuf::filled(4 << 20, u16::MAX).unwrap();
        kept.push(Box::new([round; 4]));
        assert_eq!(
            (tags[(4 << 20) - 1], keys[12345], words[1]),
            (0x81, round, u16::MAX)
        );
        let freed = [
            ("4 MiB tag", tags.as_ptr().addr()),
            ("32 MiB key", keys.as_ptr().addr()),
            ("8 MiB word", words.as_ptr().addr()),
        ];
        drop((tags, keys, words));
        read_smaps(&mut text);
        for (buffer, addr) in freed {
            assert_eq!(
                smaps::anon_huge_kib_at(&text, addr),
                None,
                "round {round}: a mapping still covers the dropped {buffer} buffer at {addr:#x}"
            );
        }
    }
    let end_kib = vm_rss_kib();
    assert!(
        end_kib.abs_diff(start_kib) <= 2 << 10,
        "VmRSS went {start_kib} -> {end_kib} KiB over {ROUNDS} rounds of 44 MiB built and dropped"
    );
    assert_eq!(kept.len(), ROUNDS as usize);
}
