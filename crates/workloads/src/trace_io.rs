//! Compact binary trace recording and replay.
//!
//! Any synthetic reference stream can be captured to a file and later
//! replayed **bit-identically** — same references, same order — so a
//! simulation result can be reproduced without re-running the generator, a
//! trace can be shipped to another machine, and external traces can be fed
//! to the simulator through the same door.
//!
//! # Format (`CCDT`, version 1)
//!
//! ```text
//! magic   4 bytes  "CCDT"
//! version u16 LE   1
//! cores   u32 LE   number of cores the trace was generated for
//! count   u64 LE   number of records (patched by TraceWriter::finish)
//! records count ×:
//!   kind  u8       0 = ifetch, 1 = read, 2 = write
//!   core  varint   LEB128
//!   addr  varint   LEB128 of the zig-zag–encoded delta from the previous
//!                  record's address (first record: delta from 0)
//! ```
//!
//! Delta-plus-varint encoding keeps records small (typically 3–6 bytes
//! against the 13 bytes of a naive fixed layout) because consecutive
//! references cluster in the address space.  The reader streams from any
//! [`Read`] — no memory-mapping, no seeking — and validates the header,
//! every varint, every core id against the header's core count, every
//! address against the paper's 48-bit physical address space, and the
//! record count.
//!
//! ```
//! use ccd_workloads::{TraceReader, TraceWriter, TraceGenerator, WorkloadProfile};
//! use std::io::Cursor;
//!
//! let refs: Vec<_> = TraceGenerator::new(WorkloadProfile::apache(), 4, 7)
//!     .take(1000)
//!     .collect();
//! let mut writer = TraceWriter::new(Cursor::new(Vec::new()), 4).unwrap();
//! for r in &refs {
//!     writer.record(*r).unwrap();
//! }
//! let (cursor, count) = writer.finish().unwrap();
//! assert_eq!(count, 1000);
//!
//! let reader = TraceReader::new(Cursor::new(cursor.into_inner())).unwrap();
//! assert_eq!(reader.num_cores(), 4);
//! let replayed: Vec<_> = reader.map(Result::unwrap).collect();
//! assert_eq!(replayed, refs, "replay is bit-identical");
//! ```

use ccd_common::{AccessType, Address, CoreId, MemRef, PHYSICAL_ADDRESS_BITS};
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::Path;

/// File magic of the trace format.
pub(crate) const TRACE_MAGIC: [u8; 4] = *b"CCDT";
/// Current format version.
pub(crate) const TRACE_VERSION: u16 = 1;
/// Byte offset of the record-count field within the header.
const COUNT_OFFSET: u64 = 4 + 2 + 4;

fn invalid(why: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, why.into())
}

fn write_varint<W: Write>(sink: &mut W, mut value: u64) -> io::Result<()> {
    loop {
        let byte = (value & 0x7F) as u8;
        value >>= 7;
        if value == 0 {
            return sink.write_all(&[byte]);
        }
        sink.write_all(&[byte | 0x80])?;
    }
}

fn read_varint<R: Read>(src: &mut R) -> io::Result<u64> {
    let mut value = 0u64;
    let mut shift = 0u32;
    loop {
        let mut byte = [0u8; 1];
        src.read_exact(&mut byte)?;
        let payload = u64::from(byte[0] & 0x7F);
        if shift >= 64 || (shift == 63 && payload > 1) {
            return Err(invalid("varint overflows 64 bits"));
        }
        value |= payload << shift;
        if byte[0] & 0x80 == 0 {
            return Ok(value);
        }
        shift += 7;
    }
}

/// Zig-zag encodes a signed delta into an unsigned varint payload.
const fn zigzag(delta: i64) -> u64 {
    ((delta << 1) ^ (delta >> 63)) as u64
}

/// Inverse of [`zigzag`].
const fn unzigzag(encoded: u64) -> i64 {
    ((encoded >> 1) as i64) ^ -((encoded & 1) as i64)
}

const fn kind_code(kind: AccessType) -> u8 {
    match kind {
        AccessType::InstructionFetch => 0,
        AccessType::Read => 1,
        AccessType::Write => 2,
    }
}

/// What writer and reader both say about record `record`'s core id when the
/// header's count excludes it.
fn excluded_core(record: u64, core: u64, num_cores: u32) -> String {
    format!("record {record} names core {core}, but the header declares {num_cores} cores")
}

/// The first byte address past the paper's 48-bit physical address space.
const ADDRESS_LIMIT: u64 = 1 << PHYSICAL_ADDRESS_BITS;

fn address_past_limit(record: u64, addr: u64) -> String {
    format!(
        "record {record} names address {addr:#x}, past the {PHYSICAL_ADDRESS_BITS}-bit \
         physical address space"
    )
}

fn kind_of(code: u8) -> io::Result<AccessType> {
    match code {
        0 => Ok(AccessType::InstructionFetch),
        1 => Ok(AccessType::Read),
        2 => Ok(AccessType::Write),
        other => Err(invalid(format!("unknown access-type code {other}"))),
    }
}

/// Streams [`MemRef`] records into the compact binary trace format.
///
/// The sink must support seeking: the record count in the header is patched
/// when [`TraceWriter::finish`] runs (records are streamed, never
/// buffered).  Dropping the writer without calling `finish` leaves the
/// count field zero, which the reader rejects for non-empty files.
#[derive(Debug)]
pub struct TraceWriter<W: Write + Seek> {
    sink: W,
    num_cores: u32,
    count: u64,
    prev_addr: u64,
}

impl<W: Write + Seek> TraceWriter<W> {
    /// Writes the header and prepares to stream records.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the sink.
    pub fn new(mut sink: W, num_cores: u32) -> io::Result<Self> {
        sink.write_all(&TRACE_MAGIC)?;
        sink.write_all(&TRACE_VERSION.to_le_bytes())?;
        sink.write_all(&num_cores.to_le_bytes())?;
        sink.write_all(&0u64.to_le_bytes())?; // count, patched by finish()
        Ok(TraceWriter {
            sink,
            num_cores,
            count: 0,
            prev_addr: 0,
        })
    }

    /// Appends one record.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::InvalidInput`], before any byte of the record is
    /// written, when `r.core` is not below the header's core count or
    /// `r.addr` lies past the 48-bit physical address space — the reader
    /// would reject the whole file over either.  Propagates I/O errors
    /// from the sink.
    pub fn record(&mut self, r: MemRef) -> io::Result<()> {
        if r.core.raw() >= self.num_cores {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                excluded_core(self.count, u64::from(r.core.raw()), self.num_cores),
            ));
        }
        if r.addr.raw() >= ADDRESS_LIMIT {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                address_past_limit(self.count, r.addr.raw()),
            ));
        }
        self.sink.write_all(&[kind_code(r.kind)])?;
        write_varint(&mut self.sink, u64::from(r.core.raw()))?;
        let delta = r.addr.raw().wrapping_sub(self.prev_addr) as i64;
        write_varint(&mut self.sink, zigzag(delta))?;
        self.prev_addr = r.addr.raw();
        self.count += 1;
        Ok(())
    }

    /// Records written so far.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Patches the record count into the header, flushes, and returns the
    /// sink together with the final record count.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the sink.
    pub fn finish(mut self) -> io::Result<(W, u64)> {
        self.sink.seek(SeekFrom::Start(COUNT_OFFSET))?;
        self.sink.write_all(&self.count.to_le_bytes())?;
        self.sink.seek(SeekFrom::End(0))?;
        self.sink.flush()?;
        Ok((self.sink, self.count))
    }
}

impl TraceWriter<BufWriter<File>> {
    /// Creates (truncating) a trace file at `path`.
    ///
    /// # Errors
    ///
    /// Propagates file-creation and I/O errors.
    pub(crate) fn create(path: impl AsRef<Path>, num_cores: u32) -> io::Result<Self> {
        // BufWriter<File> is Write + Seek; seeking flushes the buffer first.
        TraceWriter::new(BufWriter::new(File::create(path)?), num_cores)
    }
}

/// Records `count` references from `trace` into a file at `path`.
///
/// Convenience wrapper over [`TraceWriter`]; returns the number of records
/// actually written (fewer than `count` when the stream ends early).
///
/// # Errors
///
/// Propagates file I/O errors.
pub fn record_trace(
    path: impl AsRef<Path>,
    num_cores: u32,
    trace: impl Iterator<Item = MemRef>,
    count: u64,
) -> io::Result<u64> {
    let mut writer = TraceWriter::create(path, num_cores)?;
    for r in trace.take(usize::try_from(count).unwrap_or(usize::MAX)) {
        writer.record(r)?;
    }
    let (_, written) = writer.finish()?;
    Ok(written)
}

/// Streams [`MemRef`] records out of the compact binary trace format.
///
/// Iterates `Result<MemRef, io::Error>`: corruption anywhere in the stream
/// (bad magic, truncated varints, unknown access kinds, missing records)
/// surfaces as an error item instead of silently truncating the replay.
/// The source must end exactly at the last record — trailing bytes mean
/// the header count is wrong (typically a [`TraceWriter`] dropped without
/// `finish()`) and are reported as an error after the counted records.
#[derive(Debug)]
pub struct TraceReader<R: Read> {
    src: R,
    num_cores: u32,
    count: u64,
    remaining: u64,
    prev_addr: u64,
    poisoned: bool,
    checked_trailing: bool,
}

impl<R: Read> TraceReader<R> {
    /// Reads and validates the header.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::InvalidData`] for a bad magic or unsupported
    /// version; otherwise propagates I/O errors.
    pub fn new(mut src: R) -> io::Result<Self> {
        let mut magic = [0u8; 4];
        src.read_exact(&mut magic)?;
        if magic != TRACE_MAGIC {
            return Err(invalid("not a CCDT trace file (bad magic)"));
        }
        let mut version = [0u8; 2];
        src.read_exact(&mut version)?;
        let version = u16::from_le_bytes(version);
        if version != TRACE_VERSION {
            return Err(invalid(format!(
                "unsupported trace version {version} (supported: {TRACE_VERSION})"
            )));
        }
        let mut cores = [0u8; 4];
        src.read_exact(&mut cores)?;
        let mut count = [0u8; 8];
        src.read_exact(&mut count)?;
        Ok(TraceReader {
            src,
            num_cores: u32::from_le_bytes(cores),
            count: u64::from_le_bytes(count),
            remaining: u64::from_le_bytes(count),
            prev_addr: 0,
            poisoned: false,
            checked_trailing: false,
        })
    }

    /// Core count recorded in the header.
    #[must_use]
    pub fn num_cores(&self) -> u32 {
        self.num_cores
    }

    /// Total record count recorded in the header.
    ///
    /// Named `record_count` (not `count`) so it cannot be shadowed by the
    /// by-value [`Iterator::count`] during method resolution.
    #[must_use]
    pub fn record_count(&self) -> u64 {
        self.count
    }

    /// Records the header promises past those already read.
    pub(crate) fn records_left(&self) -> u64 {
        self.remaining
    }

    fn next_record(&mut self) -> io::Result<MemRef> {
        self.read_record_fields().map_err(|e| {
            if e.kind() == io::ErrorKind::UnexpectedEof {
                invalid(format!(
                    "trace truncated: header promised {} records, {} missing or partial",
                    self.count, self.remaining
                ))
            } else {
                e
            }
        })
    }

    fn read_record_fields(&mut self) -> io::Result<MemRef> {
        let mut kind = [0u8; 1];
        self.src.read_exact(&mut kind)?;
        let kind = kind_of(kind[0])?;
        let core = read_varint(&mut self.src)?;
        // The header's core count is what consumers size their per-core
        // state by, so a record outside it is corruption, not a reference.
        let core = u32::try_from(core)
            .ok()
            .filter(|&core| core < self.num_cores)
            .ok_or_else(|| {
                invalid(excluded_core(
                    self.count - self.remaining,
                    core,
                    self.num_cores,
                ))
            })?;
        let delta = unzigzag(read_varint(&mut self.src)?);
        let addr = self.prev_addr.wrapping_add(delta as u64);
        // Directories key lines of a 48-bit physical address; one past it
        // is corruption, as an excluded core is.
        if addr >= ADDRESS_LIMIT {
            return Err(invalid(address_past_limit(
                self.count - self.remaining,
                addr,
            )));
        }
        self.prev_addr = addr;
        Ok(MemRef::new(CoreId::new(core), Address::new(addr), kind))
    }

    /// Reads the remaining records into a vector, validating every one.
    ///
    /// # Errors
    ///
    /// The first corruption or I/O error encountered.
    pub fn read_all(mut self) -> io::Result<Vec<MemRef>> {
        // The header count is untrusted input: clamp the pre-allocation so
        // a corrupt count yields the per-record truncation error instead
        // of a capacity-overflow panic or a multi-TB allocation.
        const MAX_PREALLOC: u64 = 1 << 20;
        let capacity = usize::try_from(self.remaining.min(MAX_PREALLOC)).unwrap_or(0);
        let mut refs = Vec::with_capacity(capacity);
        for record in &mut self {
            refs.push(record?);
        }
        Ok(refs)
    }
}

impl TraceReader<BufReader<File>> {
    /// Opens a trace file at `path`.
    ///
    /// # Errors
    ///
    /// Propagates file-open errors and header validation failures.
    pub fn open(path: impl AsRef<Path>) -> io::Result<Self> {
        TraceReader::new(BufReader::new(File::open(path)?))
    }
}

impl<R: Read> Iterator for TraceReader<R> {
    type Item = io::Result<MemRef>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.poisoned {
            return None;
        }
        if self.remaining == 0 {
            // The source must end exactly where the header's count says it
            // does.  Trailing bytes mean the count is wrong — most often a
            // TraceWriter that was dropped without `finish()`, leaving the
            // count field zero — and replaying such a file silently
            // truncated would be worse than failing loudly.
            if self.checked_trailing {
                return None;
            }
            self.checked_trailing = true;
            let mut probe = [0u8; 1];
            return match self.src.read(&mut probe) {
                Ok(0) => None,
                Ok(_) => {
                    self.poisoned = true;
                    Some(Err(invalid(format!(
                        "trace has data beyond its {} recorded records \
                         (header count is wrong — unfinished TraceWriter?)",
                        self.count
                    ))))
                }
                Err(e) => {
                    self.poisoned = true;
                    Some(Err(e))
                }
            };
        }
        match self.next_record() {
            Ok(r) => {
                self.remaining -= 1;
                Some(Ok(r))
            }
            Err(e) => {
                // One error ends the stream; never yield garbage after it.
                self.poisoned = true;
                Some(Err(e))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ScenarioSpec, TraceGenerator, WorkloadProfile};
    use std::io::Cursor;

    fn round_trip(refs: &[MemRef], cores: u32) -> Vec<u8> {
        let mut writer = TraceWriter::new(Cursor::new(Vec::new()), cores).unwrap();
        for r in refs {
            writer.record(*r).unwrap();
        }
        let (cursor, count) = writer.finish().unwrap();
        assert_eq!(count, refs.len() as u64);
        cursor.into_inner()
    }

    #[test]
    fn profile_and_scenario_traces_round_trip_bit_identically() {
        let profile_refs: Vec<_> = TraceGenerator::new(WorkloadProfile::oracle(), 8, 3)
            .take(5_000)
            .collect();
        let scenario_refs: Vec<_> = "falseshare-b32"
            .parse::<ScenarioSpec>()
            .unwrap()
            .stream(8, 3)
            .unwrap()
            .take(5_000)
            .collect();
        for refs in [profile_refs, scenario_refs] {
            let bytes = round_trip(&refs, 8);
            let reader = TraceReader::new(Cursor::new(&bytes)).unwrap();
            assert_eq!(reader.num_cores(), 8);
            assert_eq!(reader.record_count(), 5_000);
            let replayed: Vec<_> = reader.map(Result::unwrap).collect();
            assert_eq!(replayed, refs);
        }
    }

    #[test]
    fn encoding_is_compact() {
        let refs: Vec<_> = TraceGenerator::new(WorkloadProfile::apache(), 16, 1)
            .take(10_000)
            .collect();
        let bytes = round_trip(&refs, 16);
        let per_record = (bytes.len() - 18) as f64 / refs.len() as f64;
        assert!(
            per_record < 9.0,
            "expected < 9 bytes/record, got {per_record:.2}"
        );
    }

    #[test]
    fn extreme_addresses_and_cores_survive() {
        let refs = vec![
            MemRef::read(CoreId::new(0), Address::new(ADDRESS_LIMIT - 1)),
            MemRef::write(CoreId::new(u32::MAX - 1), Address::new(0)),
            MemRef::ifetch(CoreId::new(1023), Address::new(0x0400_0000_0000)),
        ];
        let bytes = round_trip(&refs, u32::MAX);
        let replayed: Vec<_> = TraceReader::new(Cursor::new(&bytes))
            .unwrap()
            .map(Result::unwrap)
            .collect();
        assert_eq!(replayed, refs);
    }

    #[test]
    fn corruption_is_detected_not_truncated() {
        // Bad magic.
        assert!(TraceReader::new(Cursor::new(b"NOPE".to_vec())).is_err());

        // Unsupported version.
        let mut bytes = round_trip(&[MemRef::read(CoreId::new(0), Address::new(64))], 1);
        bytes[4] = 99;
        assert!(TraceReader::new(Cursor::new(&bytes)).is_err());

        // Truncated records: header promises more than the file holds.
        let refs: Vec<_> = TraceGenerator::new(WorkloadProfile::db2(), 4, 2)
            .take(100)
            .collect();
        let mut bytes = round_trip(&refs, 4);
        bytes.truncate(bytes.len() - 3);
        let result: Result<Vec<_>, _> = TraceReader::new(Cursor::new(&bytes)).unwrap().collect();
        let err = result.unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("truncated"), "{err}");

        // Unknown access-type code poisons the stream at the right record.
        let mut bytes = round_trip(&refs, 4);
        bytes[18] = 7; // first record's kind byte
        let mut reader = TraceReader::new(Cursor::new(&bytes)).unwrap();
        assert!(reader.next().unwrap().is_err());
        assert!(reader.next().is_none(), "errors end the stream");
    }

    #[test]
    fn a_core_the_header_excludes_is_corruption() {
        let refs: Vec<_> = TraceGenerator::new(WorkloadProfile::db2(), 4, 2)
            .take(100)
            .collect();
        let mut bytes = round_trip(&refs, 4);
        // The first record's core varint follows the 18-byte header and the
        // kind byte; core 3 is the last the header admits.
        bytes[19] = 3;
        let replayed: Result<Vec<_>, _> = TraceReader::new(Cursor::new(&bytes)).unwrap().collect();
        assert_eq!(replayed.unwrap()[0].core, CoreId::new(3));
        // One past it, a stray id, and 2^32 (LEB128; reported as read, not
        // truncated to `u32`).
        for (core, text) in [
            (&[4u8][..], "names core 4,"),
            (&[9], "names core 9,"),
            (&[0x80, 0x80, 0x80, 0x80, 0x10], "names core 4294967296,"),
        ] {
            let patched = [&bytes[..19], core, &bytes[20..]].concat();
            let mut reader = TraceReader::new(Cursor::new(&patched)).unwrap();
            let err = reader.next().unwrap().unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            let message = err.to_string();
            assert!(
                message.contains("record 0") && message.contains(text),
                "{message}"
            );
            assert!(message.contains("declares 4 cores"), "{message}");
            assert!(reader.next().is_none(), "errors end the stream");
        }
    }

    #[test]
    fn an_address_past_the_physical_address_space_is_corruption() {
        let refs = [
            MemRef::read(CoreId::new(0), Address::new(64)),
            MemRef::write(CoreId::new(1), Address::new(ADDRESS_LIMIT - 64)),
        ];
        let bytes = round_trip(&refs, 2);
        // Record 1's delta varint follows record 0 and record 1's kind and
        // core bytes.  Re-encode it to land on 2^48, then on 2^64 - 64 (a
        // negative delta from 64).
        let tail = round_trip(&refs[..1], 2).len() + 2;
        for (delta, addr) in [
            (ADDRESS_LIMIT as i64 - 64, "0x1000000000000"),
            (-128, "0xffffffffffffffc0"),
        ] {
            let mut patched = bytes[..tail].to_vec();
            write_varint(&mut patched, zigzag(delta)).unwrap();
            let mut reader = TraceReader::new(Cursor::new(&patched)).unwrap();
            assert_eq!(reader.next().unwrap().unwrap(), refs[0]);
            let err = reader.next().unwrap().unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            let message = err.to_string();
            assert!(
                message.contains(&format!("record 1 names address {addr},"))
                    && message.contains("48-bit physical address space"),
                "{message}"
            );
            assert!(reader.next().is_none(), "errors end the stream");
        }

        // The writer refuses such an address before writing any of it.
        let mut writer = TraceWriter::new(Cursor::new(Vec::new()), 2).unwrap();
        writer.record(refs[0]).unwrap();
        for addr in [ADDRESS_LIMIT, u64::MAX] {
            let err = writer
                .record(MemRef::read(CoreId::new(0), Address::new(addr)))
                .unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
            assert!(err.to_string().contains("record 1 names address"), "{err}");
        }
        writer.record(refs[1]).unwrap();
        assert_eq!(writer.finish().unwrap().0.into_inner(), bytes);
    }

    #[test]
    fn the_writer_refuses_a_core_its_own_header_excludes() {
        let refs: Vec<_> = TraceGenerator::new(WorkloadProfile::db2(), 4, 2)
            .take(10)
            .collect();
        let mut writer = TraceWriter::new(Cursor::new(Vec::new()), 4).unwrap();
        for r in &refs[..5] {
            writer.record(*r).unwrap();
        }
        for core in [4, 9, u32::MAX] {
            let err = writer
                .record(MemRef::read(CoreId::new(core), Address::new(64)))
                .unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
            let message = err.to_string();
            assert!(
                message.contains(&format!("record 5 names core {core},"))
                    && message.contains("declares 4 cores"),
                "{message}"
            );
        }
        // Nothing of the refused records reached the sink: the writer goes
        // on, and the file is exactly the ten accepted records.
        for r in &refs[5..] {
            writer.record(*r).unwrap();
        }
        let (cursor, count) = writer.finish().unwrap();
        assert_eq!(count, 10);
        assert_eq!(cursor.get_ref(), &round_trip(&refs, 4));
        let replayed: Vec<_> = TraceReader::new(Cursor::new(cursor.get_ref()))
            .unwrap()
            .map(Result::unwrap)
            .collect();
        assert_eq!(replayed, refs);
    }

    #[test]
    fn unfinished_writers_are_rejected_not_replayed_empty() {
        // A dropped (never finished) writer leaves count = 0 in the header
        // while records follow; the reader must flag the mismatch instead
        // of yielding a clean empty stream.
        let refs: Vec<_> = TraceGenerator::new(WorkloadProfile::db2(), 4, 2)
            .take(50)
            .collect();
        let mut writer = TraceWriter::new(Cursor::new(Vec::new()), 4).unwrap();
        for r in &refs {
            writer.record(*r).unwrap();
        }
        // Extract the sink without finish(): the header still says 0.
        let bytes = writer.sink.into_inner();
        let reader = TraceReader::new(Cursor::new(&bytes)).unwrap();
        assert_eq!(reader.record_count(), 0);
        let result: Result<Vec<_>, _> = reader.collect();
        let err = result.unwrap_err();
        assert!(err.to_string().contains("beyond"), "{err}");

        // A count that understates the records present is caught too.
        let mut bytes = round_trip(&refs, 4);
        bytes[COUNT_OFFSET as usize..][..8].copy_from_slice(&10u64.to_le_bytes());
        let result: Result<Vec<_>, _> = TraceReader::new(Cursor::new(&bytes)).unwrap().collect();
        assert!(result.is_err(), "understated count must not truncate");
    }

    #[test]
    fn file_helpers_round_trip() {
        let dir = std::env::temp_dir().join("ccd-trace-io-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.ccdt");

        let trace = TraceGenerator::new(WorkloadProfile::zeus(), 8, 5);
        let written = record_trace(&path, 8, trace, 2_000).unwrap();
        assert_eq!(written, 2_000);

        let reader = TraceReader::open(&path).unwrap();
        assert_eq!(reader.num_cores(), 8);
        let refs = reader.read_all().unwrap();
        let expected: Vec<_> = TraceGenerator::new(WorkloadProfile::zeus(), 8, 5)
            .take(2_000)
            .collect();
        assert_eq!(refs, expected);
        std::fs::remove_file(&path).ok();
    }
}
