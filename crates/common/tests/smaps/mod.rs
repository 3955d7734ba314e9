//! Reading `/proc/self/smaps`, for the tests that check where a
//! `PageBuf`'s memory lives.

/// `AnonHugePages` in KiB of the mapping that holds `addr`, from the text
/// of `/proc/self/smaps`; `None` when no mapping holds it.
pub fn anon_huge_kib_at(smaps: &str, addr: usize) -> Option<u64> {
    let mut inside = false;
    for line in smaps.lines() {
        let mut fields = line.split_whitespace();
        let first = fields.next()?;
        if let Some((low, high)) = first.split_once('-') {
            if let (Ok(low), Ok(high)) = (
                usize::from_str_radix(low, 16),
                usize::from_str_radix(high, 16),
            ) {
                inside = (low..high).contains(&addr);
                continue;
            }
        }
        if inside && first == "AnonHugePages:" {
            return fields.next()?.parse().ok();
        }
    }
    None
}
