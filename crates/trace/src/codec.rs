//! The compact chunked binary trace format (see `DESIGN.md` §11).
//!
//! A trace file is a fixed 8-byte header followed by a sequence of
//! self-checking chunks and a footer:
//!
//! ```text
//! header:  "CMPT" | version: u8 | n_cpus: u8 | line_bytes: u16 LE
//! chunk:   payload_len: u32 LE | n_records: u32 LE | fnv1a64(payload): u64 LE | payload
//! footer:  0xFFFF_FFFF: u32 LE | total_records: u64 LE
//! ```
//!
//! A chunk payload opens with a 12-byte *restart preamble* — the absolute
//! delta baseline (`restart_cycle: u64 LE | restart_addr: u32 LE`) the
//! chunk's first record is encoded against — followed by the records. Each
//! record is a tag byte (access kind in the low 2 bits, CPU id in the high
//! 6) followed by two LEB128 varints: the zigzag-encoded cycle delta and
//! address delta against the previous record. Cycle deltas are signed
//! because the run loop's per-CPU interleave can step time backwards
//! between consecutive records even though each CPU's own stream is
//! monotone.
//!
//! The preamble makes every chunk decode on its own: [`salvage`] relies on
//! it to skip a corrupt chunk and keep every chunk after it, and any chunk
//! subset decodes in any order ([`scan_chunks`] / [`decode_chunk`]). It
//! sits inside the checksummed payload, so a corrupted restart state is
//! detected exactly like a corrupted record.
//!
//! Every reader is a loop over the same two steps — a frame walker that
//! reads one chunk header or the footer, and a chunk decoder that verifies
//! the checksum, reads the preamble, checks every record's CPU against
//! the header and appends the chunk's records — and the readers differ
//! only in what they do with an error. The footer doubles as the
//! truncation sentinel: a reader that reaches end of file without having
//! consumed a footer reports [`TraceError::Truncated`], and a footer
//! whose record count disagrees with the records actually decoded reports
//! [`TraceError::CountMismatch`].

use std::fmt;
use std::io::{self, Write};
use std::ops::Range;

/// File magic: the first four bytes of every cmpsim trace.
pub const MAGIC: [u8; 4] = *b"CMPT";

/// Format version (the fifth byte of the file). Readers reject every
/// other version with [`TraceError::BadVersion`].
pub const VERSION: u8 = 2;

/// Bytes of the restart preamble at the front of every chunk payload:
/// `restart_cycle: u64 LE | restart_addr: u32 LE`.
pub const RESTART_BYTES: usize = 12;

/// Records per chunk the writer targets (the last chunk may be shorter).
pub const CHUNK_RECORDS: usize = 4096;

/// Footer sentinel occupying the `payload_len` slot of a chunk header.
pub const FOOTER_SENTINEL: u32 = 0xFFFF_FFFF;

/// Highest CPU id the 6-bit tag field can carry.
pub const MAX_CPU: u8 = 63;

/// Fewest bytes one record can take: a tag and two one-byte varints.
const MIN_RECORD_BYTES: usize = 3;

/// What one trace record describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraceKind {
    /// Instruction fetch presented to the memory system.
    IFetch,
    /// Data read (includes `LL`).
    Load,
    /// Data write (includes a successful `SC` and write-buffer drains —
    /// the capture point sees stores when they are issued to the memory
    /// system, which is where the write buffer hands them over).
    Store,
    /// Region-of-interest marker: the run reset its statistics here.
    /// Replay must perform the same reset to reproduce post-ROI numbers.
    StatsReset,
}

impl TraceKind {
    fn to_bits(self) -> u8 {
        match self {
            TraceKind::IFetch => 0,
            TraceKind::Load => 1,
            TraceKind::Store => 2,
            TraceKind::StatsReset => 3,
        }
    }

    fn from_bits(bits: u8) -> TraceKind {
        match bits & 0x3 {
            0 => TraceKind::IFetch,
            1 => TraceKind::Load,
            2 => TraceKind::Store,
            _ => TraceKind::StatsReset,
        }
    }

    /// The memory-system access kind, `None` for the stats-reset marker.
    pub fn access_kind(self) -> Option<cmpsim_mem::AccessKind> {
        match self {
            TraceKind::IFetch => Some(cmpsim_mem::AccessKind::IFetch),
            TraceKind::Load => Some(cmpsim_mem::AccessKind::Load),
            TraceKind::Store => Some(cmpsim_mem::AccessKind::Store),
            TraceKind::StatsReset => None,
        }
    }
}

impl From<cmpsim_mem::AccessKind> for TraceKind {
    fn from(kind: cmpsim_mem::AccessKind) -> TraceKind {
        match kind {
            cmpsim_mem::AccessKind::IFetch => TraceKind::IFetch,
            cmpsim_mem::AccessKind::Load => TraceKind::Load,
            cmpsim_mem::AccessKind::Store => TraceKind::Store,
        }
    }
}

/// One captured event: `(cycle, cpu, kind, addr)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// Cycle at which the request was issued to the memory system.
    pub cycle: u64,
    /// Issuing CPU (0 for [`TraceKind::StatsReset`]).
    pub cpu: u8,
    /// Access kind or marker.
    pub kind: TraceKind,
    /// Physical byte address (0 for [`TraceKind::StatsReset`]).
    pub addr: u32,
}

/// Trace-file metadata from the 8-byte header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceHeader {
    /// Format version.
    pub version: u8,
    /// CPU count of the capturing machine.
    pub n_cpus: u8,
    /// Cache line size of the capturing memory system (bytes).
    pub line_bytes: u16,
}

/// Everything that can go wrong reading or writing a trace.
#[derive(Debug)]
pub enum TraceError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The file does not start with [`MAGIC`].
    BadMagic([u8; 4]),
    /// Unsupported format version.
    BadVersion(u8),
    /// The header names a geometry no writer produces: a CPU count
    /// outside `1..=64` or a line size that is not a power of two.
    BadHeader {
        /// CPU count the header claims.
        n_cpus: u8,
        /// Line size the header claims, in bytes.
        line_bytes: u16,
    },
    /// A chunk's payload hashes to something other than its header claims.
    ChecksumMismatch {
        /// Zero-based chunk index.
        chunk: u64,
        /// Checksum stored in the chunk header.
        expected: u64,
        /// Checksum of the bytes actually read.
        found: u64,
    },
    /// A chunk payload is too short to carry its restart preamble.
    BadRestart {
        /// Zero-based chunk index.
        chunk: u64,
    },
    /// The file ended before a complete footer was read.
    Truncated,
    /// A chunk payload did not decode to exactly its declared records,
    /// or declares more records than it has bytes for.
    ChunkOverrun {
        /// Zero-based chunk index.
        chunk: u64,
    },
    /// The footer's total disagrees with the records decoded.
    CountMismatch {
        /// Total the footer claims.
        expected: u64,
        /// Records actually decoded.
        found: u64,
    },
    /// Bytes follow the footer.
    TrailingData,
    /// A chunk holds a record whose CPU is not below the header's CPU
    /// count. Capture never writes one, and replaying it would index past
    /// the replay system's CPUs.
    CpuOutOfRange {
        /// Zero-based chunk index.
        chunk: u64,
        /// Highest CPU a record of the chunk names.
        cpu: u8,
        /// CPU count the header declares.
        n_cpus: u8,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "trace i/o error: {e}"),
            TraceError::BadMagic(m) => write!(f, "not a cmpsim trace (magic {m:02x?})"),
            TraceError::BadVersion(v) => {
                write!(
                    f,
                    "unsupported trace version {v} (this build reads {VERSION})"
                )
            }
            TraceError::BadHeader { n_cpus, line_bytes } => write!(
                f,
                "bad trace header: {n_cpus} CPUs and {line_bytes}-byte lines \
                 (a trace carries 1..={} CPUs and a power-of-two line size)",
                usize::from(MAX_CPU) + 1
            ),
            TraceError::ChecksumMismatch {
                chunk,
                expected,
                found,
            } => write!(
                f,
                "chunk {chunk} corrupt: checksum {found:#018x}, header says {expected:#018x}"
            ),
            TraceError::BadRestart { chunk } => {
                write!(f, "chunk {chunk} is too short to carry its restart state")
            }
            TraceError::Truncated => write!(f, "trace truncated: footer missing"),
            TraceError::ChunkOverrun { chunk } => {
                write!(f, "chunk {chunk} payload does not match its record count")
            }
            TraceError::CountMismatch { expected, found } => write!(
                f,
                "footer claims {expected} records but {found} were decoded"
            ),
            TraceError::TrailingData => write!(f, "bytes follow the trace footer"),
            TraceError::CpuOutOfRange { chunk, cpu, n_cpus } => write!(
                f,
                "chunk {chunk} names CPU {cpu}, but the header declares {n_cpus} CPUs"
            ),
        }
    }
}

impl std::error::Error for TraceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for TraceError {
    fn from(e: io::Error) -> TraceError {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            TraceError::Truncated
        } else {
            TraceError::Io(e)
        }
    }
}

/// Word-folded FNV-1a 64-bit: the chunk checksum. Folds eight payload
/// bytes per multiply instead of one — every step stays injective in both
/// operands (xor, and multiplication by the odd FNV prime), so any
/// single-bit corruption is still guaranteed to change the sum, at an
/// eighth of the serial multiply chain the byte-wise variant pays.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut chunks = bytes.chunks_exact(8);
    for w in &mut chunks {
        h ^= u64::from_le_bytes(w.try_into().expect("8-byte chunk"));
        h = h.wrapping_mul(PRIME);
    }
    for &b in chunks.remainder() {
        h ^= u64::from(b);
        h = h.wrapping_mul(PRIME);
    }
    h
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

#[inline]
fn get_varint(buf: &[u8], pos: &mut usize) -> Option<u64> {
    // Single-byte fast path: most deltas in a real trace are small.
    let &b0 = buf.get(*pos)?;
    if b0 & 0x80 == 0 {
        *pos += 1;
        return Some(u64::from(b0));
    }
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        let &byte = buf.get(*pos)?;
        *pos += 1;
        // A 64-bit value needs at most ten LEB128 bytes.
        if shift >= 64 {
            return None;
        }
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Some(v);
        }
        shift += 7;
    }
}

/// Delta state a record stream is encoded against, reset from each
/// chunk's restart preamble.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct DeltaState {
    prev_cycle: u64,
    prev_addr: u32,
}

impl DeltaState {
    /// Writes the 12-byte restart preamble naming this state.
    fn write_restart(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.prev_cycle.to_le_bytes());
        out.extend_from_slice(&self.prev_addr.to_le_bytes());
    }

    /// Reads a 12-byte restart preamble. `None` if fewer bytes remain.
    fn read_restart(buf: &[u8], pos: &mut usize) -> Option<DeltaState> {
        let cycle = take::<8>(buf, pos)?;
        let addr = take::<4>(buf, pos)?;
        Some(DeltaState {
            prev_cycle: u64::from_le_bytes(cycle),
            prev_addr: u32::from_le_bytes(addr),
        })
    }

    fn encode(&mut self, rec: &TraceRecord, out: &mut Vec<u8>) {
        debug_assert!(rec.cpu <= MAX_CPU, "cpu {} exceeds the tag field", rec.cpu);
        out.push(rec.kind.to_bits() | (rec.cpu << 2));
        put_varint(out, zigzag(rec.cycle.wrapping_sub(self.prev_cycle) as i64));
        put_varint(out, zigzag(i64::from(rec.addr) - i64::from(self.prev_addr)));
        self.prev_cycle = rec.cycle;
        self.prev_addr = rec.addr;
    }

    fn decode(&mut self, buf: &[u8], pos: &mut usize) -> Option<TraceRecord> {
        // Fast path: in a real trace almost every record is a 1-byte tag
        // plus two 1–2 byte varints, so when 8 buffered bytes remain the
        // whole record fits one little-endian register window — one load
        // and some shifts instead of a serial chain of bounds-checked
        // byte reads. Longer varints (and the chunk tail) take the
        // general path below, which re-reads from the untouched `pos`.
        if let Some(win) = buf.get(*pos..*pos + 8) {
            let w = u64::from_le_bytes(win.try_into().expect("8-byte window"));
            let tag = w as u8;
            let b = (w >> 8) as u8;
            let (dc_raw, len_c) = if b & 0x80 == 0 {
                (u64::from(b), 1usize)
            } else {
                let b2 = (w >> 16) as u8;
                if b2 & 0x80 != 0 {
                    return self.decode_general(buf, pos);
                }
                (u64::from(b & 0x7f) | u64::from(b2) << 7, 2)
            };
            let rest = w >> (8 * (1 + len_c));
            let b = rest as u8;
            let (da_raw, len_a) = if b & 0x80 == 0 {
                (u64::from(b), 1usize)
            } else {
                let b2 = (rest >> 8) as u8;
                if b2 & 0x80 != 0 {
                    return self.decode_general(buf, pos);
                }
                (u64::from(b & 0x7f) | u64::from(b2) << 7, 2)
            };
            *pos += 1 + len_c + len_a;
            return Some(self.reconstruct(tag, dc_raw, da_raw));
        }
        self.decode_general(buf, pos)
    }

    /// The general decode path: handles varints of any length and the
    /// end of the chunk, where fewer than 8 bytes remain.
    fn decode_general(&mut self, buf: &[u8], pos: &mut usize) -> Option<TraceRecord> {
        let &tag = buf.get(*pos)?;
        *pos += 1;
        let dc_raw = get_varint(buf, pos)?;
        let da_raw = get_varint(buf, pos)?;
        Some(self.reconstruct(tag, dc_raw, da_raw))
    }

    /// Applies the decoded (tag, cycle-delta, address-delta) triple to
    /// the running state and materializes the record.
    #[inline]
    fn reconstruct(&mut self, tag: u8, dc_raw: u64, da_raw: u64) -> TraceRecord {
        let dc = unzigzag(dc_raw);
        let da = unzigzag(da_raw);
        let cycle = self.prev_cycle.wrapping_add(dc as u64);
        let addr = (i64::from(self.prev_addr) + da) as u32;
        self.prev_cycle = cycle;
        self.prev_addr = addr;
        TraceRecord {
            cycle,
            cpu: tag >> 2,
            kind: TraceKind::from_bits(tag),
            addr,
        }
    }
}

/// Streaming chunked writer.
///
/// Buffers records, flushes a checksummed chunk every [`CHUNK_RECORDS`],
/// and writes the footer on [`TraceWriter::finish`]. Dropping an
/// unfinished writer finishes it best-effort (errors are swallowed —
/// call `finish` explicitly when they matter).
pub struct TraceWriter<W: Write> {
    out: Option<W>,
    pending: Vec<TraceRecord>,
    state: DeltaState,
    records: u64,
}

impl<W: Write> fmt::Debug for TraceWriter<W> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TraceWriter")
            .field("records", &self.records)
            .field("finished", &self.out.is_none())
            .finish()
    }
}

impl<W: Write> TraceWriter<W> {
    /// Starts a trace: writes the header immediately.
    ///
    /// # Panics
    ///
    /// Panics on a header the readers reject: a CPU count the tag field
    /// cannot carry, or a line size that is not a power of two.
    pub fn new(mut out: W, n_cpus: usize, line_bytes: u32) -> io::Result<TraceWriter<W>> {
        assert!(
            header_geometry_ok(n_cpus, line_bytes),
            "trace header carries 1..={} CPUs and a power-of-two line size below 64 KiB \
             (got {n_cpus} CPUs, {line_bytes}-byte lines)",
            usize::from(MAX_CPU) + 1
        );
        let mut header = [0u8; 8];
        header[..4].copy_from_slice(&MAGIC);
        header[4] = VERSION;
        header[5] = n_cpus as u8;
        header[6..8].copy_from_slice(&(line_bytes as u16).to_le_bytes());
        out.write_all(&header)?;
        Ok(TraceWriter {
            out: Some(out),
            pending: Vec::with_capacity(CHUNK_RECORDS),
            state: DeltaState::default(),
            records: 0,
        })
    }

    /// Appends one record, flushing a chunk when the buffer fills.
    pub fn push(&mut self, rec: TraceRecord) -> io::Result<()> {
        self.pending.push(rec);
        self.records += 1;
        if self.pending.len() >= CHUNK_RECORDS {
            self.flush_chunk()?;
        }
        Ok(())
    }

    fn flush_chunk(&mut self) -> io::Result<()> {
        if self.pending.is_empty() {
            return Ok(());
        }
        let mut payload = Vec::with_capacity(RESTART_BYTES + self.pending.len() * 4);
        // The restart preamble is the delta baseline of the chunk's first
        // record: exactly the writer's state before encoding it.
        self.state.write_restart(&mut payload);
        for rec in &self.pending {
            self.state.encode(rec, &mut payload);
        }
        let out = self.out.as_mut().expect("writer already finished");
        out.write_all(&(payload.len() as u32).to_le_bytes())?;
        out.write_all(&(self.pending.len() as u32).to_le_bytes())?;
        out.write_all(&fnv1a(&payload).to_le_bytes())?;
        out.write_all(&payload)?;
        self.pending.clear();
        Ok(())
    }

    /// Flushes the final partial chunk and the footer. Idempotent.
    pub fn finish(&mut self) -> io::Result<()> {
        self.finish_into_inner().map(drop)
    }

    /// [`TraceWriter::finish`] that hands the sealed sink back to the
    /// caller — the hook crash-safe capture needs: the caller can commit
    /// an atomic temp-file rename only *after* the footer landed. Returns
    /// `None` on every call after the first (finish is idempotent).
    pub fn finish_into_inner(&mut self) -> io::Result<Option<W>> {
        if self.out.is_none() {
            return Ok(None);
        }
        self.flush_chunk()?;
        let mut out = self.out.take().expect("checked above");
        out.write_all(&FOOTER_SENTINEL.to_le_bytes())?;
        out.write_all(&self.records.to_le_bytes())?;
        out.flush()?;
        Ok(Some(out))
    }

    /// Records written so far (including still-buffered ones).
    pub fn records(&self) -> u64 {
        self.records
    }
}

impl<W: Write> Drop for TraceWriter<W> {
    fn drop(&mut self) {
        let _ = self.finish();
    }
}

/// Reads `N` little-endian bytes at `*pos`, advancing it. `None` at EOF.
#[inline]
fn take<const N: usize>(bytes: &[u8], pos: &mut usize) -> Option<[u8; N]> {
    let s = bytes.get(*pos..*pos + N)?;
    *pos += N;
    Some(s.try_into().expect("slice of length N"))
}

/// Whether a header geometry is one the writer emits and analysis can
/// size its views from: 1 to 64 CPUs (the tag field) and a power-of-two
/// line size that fits the header's 16-bit field.
fn header_geometry_ok(n_cpus: usize, line_bytes: u32) -> bool {
    (1..=usize::from(MAX_CPU) + 1).contains(&n_cpus)
        && line_bytes.is_power_of_two()
        && line_bytes <= u32::from(u16::MAX)
}

/// Parses and validates the 8-byte file header of an in-memory trace.
fn parse_header(bytes: &[u8], pos: &mut usize) -> Result<TraceHeader, TraceError> {
    let header: [u8; 8] = take(bytes, pos).ok_or(TraceError::Truncated)?;
    if header[..4] != MAGIC {
        let mut m = [0u8; 4];
        m.copy_from_slice(&header[..4]);
        return Err(TraceError::BadMagic(m));
    }
    if header[4] != VERSION {
        return Err(TraceError::BadVersion(header[4]));
    }
    let n_cpus = header[5];
    let line_bytes = u16::from_le_bytes([header[6], header[7]]);
    if !header_geometry_ok(usize::from(n_cpus), u32::from(line_bytes)) {
        return Err(TraceError::BadHeader { n_cpus, line_bytes });
    }
    Ok(TraceHeader {
        version: header[4],
        n_cpus,
        line_bytes,
    })
}

/// One step of the frame walk.
enum Frame {
    /// A chunk header, with the byte range its payload claims.
    Chunk {
        n_records: u32,
        checksum: u64,
        payload: Range<usize>,
    },
    /// The footer, with the record total it claims.
    Footer { total: u64 },
}

/// The frame walker: reads the chunk header or footer at `*pos` and moves
/// `*pos` past it (and past a chunk's payload). A header or footer cut
/// off by the end of `bytes` is `Truncated`. The payload range is not
/// checked against `bytes`, because callers order that check differently:
/// [`scan_chunks`] reports a payload too short for its restart preamble
/// before one the file cuts off.
fn next_frame(bytes: &[u8], pos: &mut usize) -> Result<Frame, TraceError> {
    let payload_len = u32::from_le_bytes(take(bytes, pos).ok_or(TraceError::Truncated)?);
    if payload_len == FOOTER_SENTINEL {
        let total = u64::from_le_bytes(take(bytes, pos).ok_or(TraceError::Truncated)?);
        return Ok(Frame::Footer { total });
    }
    let n_records = u32::from_le_bytes(take(bytes, pos).ok_or(TraceError::Truncated)?);
    let checksum = u64::from_le_bytes(take(bytes, pos).ok_or(TraceError::Truncated)?);
    let start = *pos;
    *pos = start.saturating_add(payload_len as usize);
    Ok(Frame::Chunk {
        n_records,
        checksum,
        payload: start..*pos,
    })
}

/// Checks a footer's record total against the records counted before it,
/// and that no bytes follow it.
fn check_footer(total: u64, counted: u64, at_end: bool) -> Result<(), TraceError> {
    if total != counted {
        return Err(TraceError::CountMismatch {
            expected: total,
            found: counted,
        });
    }
    if !at_end {
        return Err(TraceError::TrailingData);
    }
    Ok(())
}

/// The chunk decoder: verifies `payload` against `checksum`, reads its
/// restart preamble and appends exactly `n_records` records, each naming
/// a CPU below `n_cpus`, to `out`. On error `out` is left as it was;
/// `chunk` only labels the error.
fn decode_chunk_into(
    payload: &[u8],
    checksum: u64,
    n_records: u32,
    n_cpus: u8,
    chunk: u64,
    out: &mut Vec<TraceRecord>,
) -> Result<(), TraceError> {
    let found = fnv1a(payload);
    if found != checksum {
        return Err(TraceError::ChecksumMismatch {
            chunk,
            expected: checksum,
            found,
        });
    }
    let mut pos = 0usize;
    let mut state =
        DeltaState::read_restart(payload, &mut pos).ok_or(TraceError::BadRestart { chunk })?;
    // The count comes from the file: bound it by what the payload can
    // hold before reserving room for it.
    if n_records as usize > (payload.len() - pos) / MIN_RECORD_BYTES {
        return Err(TraceError::ChunkOverrun { chunk });
    }
    let start = out.len();
    out.reserve(n_records as usize);
    let mut max_cpu = 0u8;
    for _ in 0..n_records {
        match state.decode(payload, &mut pos) {
            Some(rec) => {
                max_cpu = max_cpu.max(rec.cpu);
                out.push(rec);
            }
            None => break,
        }
    }
    if out.len() - start != n_records as usize || pos != payload.len() {
        out.truncate(start);
        return Err(TraceError::ChunkOverrun { chunk });
    }
    if max_cpu >= n_cpus {
        out.truncate(start);
        return Err(TraceError::CpuOutOfRange {
            chunk,
            cpu: max_cpu,
            n_cpus,
        });
    }
    Ok(())
}

/// One chunk's framing, located by [`scan_chunks`] without decoding any
/// record: where its checksummed payload lives in the byte slice, how
/// many records it declares, and where those records sit in the whole
/// file's stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkFrame {
    /// Zero-based chunk index.
    pub index: u64,
    /// Stream position of the chunk's first record: the sum of the
    /// declared counts of every chunk before it.
    pub first_record: u64,
    /// Records this chunk declares.
    pub n_records: u32,
    /// Checksum the chunk header claims for the payload.
    pub checksum: u64,
    /// Byte range of the payload (including the restart preamble) within
    /// the slice [`scan_chunks`] walked.
    pub payload: Range<usize>,
}

/// Walks the chunk framing of an in-memory trace without decoding a
/// single record: validates the header, every chunk header's bounds, the
/// footer's presence, its record total against the declared per-chunk
/// counts, and the absence of trailing bytes. Payload checksums are NOT
/// verified here — [`decode_chunk`] checks each chunk's sum when it is
/// actually decoded, which is what keeps the scan O(chunks), not
/// O(bytes).
///
/// # Errors
///
/// Framing errors only (`Truncated`, `BadMagic`, `BadVersion`,
/// `BadHeader`, `BadRestart`, `CountMismatch`, `TrailingData`).
pub fn scan_chunks(bytes: &[u8]) -> Result<(TraceHeader, Vec<ChunkFrame>), TraceError> {
    let mut pos = 0usize;
    let header = parse_header(bytes, &mut pos)?;
    let mut frames = Vec::new();
    let mut first_record = 0u64;
    loop {
        match next_frame(bytes, &mut pos)? {
            Frame::Footer { total } => {
                check_footer(total, first_record, pos == bytes.len())?;
                return Ok((header, frames));
            }
            Frame::Chunk {
                n_records,
                checksum,
                payload,
            } => {
                let index = frames.len() as u64;
                if payload.len() < RESTART_BYTES {
                    return Err(TraceError::BadRestart { chunk: index });
                }
                if payload.end > bytes.len() {
                    return Err(TraceError::Truncated);
                }
                frames.push(ChunkFrame {
                    index,
                    first_record,
                    n_records,
                    checksum,
                    payload,
                });
                first_record += u64::from(n_records);
            }
        }
    }
}

/// Decodes one chunk independently of every other: verifies its checksum,
/// initializes the delta state from its restart preamble, and decodes
/// exactly its declared records. `bytes` and `header` must come from the
/// same [`scan_chunks`] call as `frame`.
///
/// # Errors
///
/// `ChecksumMismatch`, `BadRestart`, `ChunkOverrun`, or `CpuOutOfRange`.
pub fn decode_chunk(
    bytes: &[u8],
    header: &TraceHeader,
    frame: &ChunkFrame,
) -> Result<Vec<TraceRecord>, TraceError> {
    let mut out = Vec::new();
    decode_chunk_into(
        &bytes[frame.payload.clone()],
        frame.checksum,
        frame.n_records,
        header.n_cpus,
        frame.index,
        &mut out,
    )?;
    Ok(out)
}

/// What a lenient [`salvage`] pass recovered from a torn or corrupted
/// trace file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Salvage {
    /// The validated file header.
    pub header: TraceHeader,
    /// Every record recovered, in stream order. Records from skipped
    /// chunks are absent — the stream has gaps where chunks were bad.
    pub records: Vec<TraceRecord>,
    /// Chunks whose payload verified and decoded.
    pub chunks_recovered: u64,
    /// Chunks whose framing was intact but whose payload failed its
    /// checksum, restart preamble, or decode, or named a CPU the header
    /// does not declare.
    pub chunks_skipped: u64,
    /// Bytes abandoned at the tail: a torn chunk header, a partial
    /// payload, a missing footer, or trailing garbage after it.
    pub bytes_dropped: usize,
    /// Whether the file ends with an intact footer whose record total
    /// matches the sum of every chunk's declared count and nothing
    /// follows it. `true` means the file was finalized, not torn —
    /// skipped chunks can still make `records` incomplete.
    pub clean_eof: bool,
}

/// Recovers every intact chunk from a torn or corrupted in-memory trace.
///
/// Where [`decode`] rejects the whole file on the first framing or
/// payload error, this walks leniently: torn framing at the tail (the
/// usual result of a `kill -9` or disk-full mid-capture) drops only the
/// unfinished bytes; a chunk with a bad checksum or payload is skipped
/// and the walk continues, because every chunk carries a restart preamble
/// and decodes independently.
///
/// # Errors
///
/// Only an unusable header (`Truncated`, `BadMagic`, `BadVersion`,
/// `BadHeader`) — without 8 intact, valid leading bytes there is nothing
/// to salvage.
pub fn salvage(bytes: &[u8]) -> Result<Salvage, TraceError> {
    let mut pos = 0usize;
    let header = parse_header(bytes, &mut pos)?;
    let mut out = Salvage {
        header,
        records: Vec::new(),
        chunks_recovered: 0,
        chunks_skipped: 0,
        bytes_dropped: 0,
        clean_eof: false,
    };
    let mut declared = 0u64;
    loop {
        let frame_start = pos;
        match next_frame(bytes, &mut pos) {
            Ok(Frame::Footer { total }) => {
                out.clean_eof = total == declared && pos == bytes.len();
                out.bytes_dropped = bytes.len() - pos;
                return Ok(out);
            }
            Ok(Frame::Chunk {
                n_records,
                checksum,
                payload,
            }) if payload.end <= bytes.len() => {
                declared += u64::from(n_records);
                // From here the framing is intact; payload faults are
                // per-chunk.
                let chunk = out.chunks_recovered + out.chunks_skipped;
                match decode_chunk_into(
                    &bytes[payload],
                    checksum,
                    n_records,
                    header.n_cpus,
                    chunk,
                    &mut out.records,
                ) {
                    Ok(()) => out.chunks_recovered += 1,
                    Err(_) => out.chunks_skipped += 1,
                }
            }
            // Torn framing: the bytes end inside a chunk header, a
            // payload or the footer.
            _ => {
                out.bytes_dropped = bytes.len() - frame_start;
                return Ok(out);
            }
        }
    }
}

/// Decodes an in-memory trace, validating every chunk and the footer.
pub fn decode(bytes: &[u8]) -> Result<Vec<TraceRecord>, TraceError> {
    decode_with_header(bytes).map(|(_, records)| records)
}

/// [`decode`], also returning the validated file header.
pub fn decode_with_header(bytes: &[u8]) -> Result<(TraceHeader, Vec<TraceRecord>), TraceError> {
    let mut pos = 0usize;
    let header = parse_header(bytes, &mut pos)?;
    let mut out = Vec::with_capacity(bytes.len() / 4);
    let mut chunk = 0u64;
    loop {
        match next_frame(bytes, &mut pos)? {
            Frame::Footer { total } => {
                check_footer(total, out.len() as u64, pos == bytes.len())?;
                return Ok((header, out));
            }
            Frame::Chunk {
                n_records,
                checksum,
                payload,
            } => {
                let payload = bytes.get(payload).ok_or(TraceError::Truncated)?;
                decode_chunk_into(payload, checksum, n_records, header.n_cpus, chunk, &mut out)?;
                chunk += 1;
            }
        }
    }
}

/// Encodes records into a complete in-memory trace (header through
/// footer).
pub fn encode(
    records: &[TraceRecord],
    n_cpus: usize,
    line_bytes: u32,
) -> Result<Vec<u8>, TraceError> {
    let mut out = Vec::new();
    let mut w = TraceWriter::new(&mut out, n_cpus, line_bytes)?;
    for &rec in records {
        w.push(rec)?;
    }
    w.finish()?;
    drop(w);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<TraceRecord> {
        vec![
            TraceRecord {
                cycle: 0,
                cpu: 0,
                kind: TraceKind::IFetch,
                addr: 0x1000,
            },
            TraceRecord {
                cycle: 3,
                cpu: 1,
                kind: TraceKind::Load,
                addr: 0x8000_0000,
            },
            TraceRecord {
                cycle: 2, // backwards in time: the interleave allows it
                cpu: 0,
                kind: TraceKind::Store,
                addr: 0x0fff,
            },
            TraceRecord {
                cycle: 50,
                cpu: 0,
                kind: TraceKind::StatsReset,
                addr: 0,
            },
        ]
    }

    fn multi_chunk() -> Vec<TraceRecord> {
        (0..(CHUNK_RECORDS as u64 * 3 + 17))
            .map(|i| TraceRecord {
                cycle: i * 3,
                cpu: (i % 4) as u8,
                kind: if i % 5 == 0 {
                    TraceKind::Store
                } else {
                    TraceKind::Load
                },
                addr: (i as u32).wrapping_mul(2_654_435_761),
            })
            .collect()
    }

    /// Hand-builds a 1-CPU file of one chunk holding `payload` (with a
    /// valid checksum) and declaring `n_records`, then a footer claiming
    /// `total`.
    fn one_chunk_file(payload: &[u8], n_records: u32, total: u64) -> Vec<u8> {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.push(VERSION);
        bytes.push(1); // n_cpus
        bytes.extend_from_slice(&32u16.to_le_bytes());
        bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&n_records.to_le_bytes());
        bytes.extend_from_slice(&fnv1a(payload).to_le_bytes());
        bytes.extend_from_slice(payload);
        bytes.extend_from_slice(&FOOTER_SENTINEL.to_le_bytes());
        bytes.extend_from_slice(&total.to_le_bytes());
        bytes
    }

    #[test]
    fn round_trips_a_small_stream() {
        let bytes = encode(&sample(), 4, 32).expect("encodes");
        let (header, records) = decode_with_header(&bytes).expect("decodes");
        assert_eq!(
            header,
            TraceHeader {
                version: VERSION,
                n_cpus: 4,
                line_bytes: 32
            }
        );
        assert_eq!(records, sample());
    }

    #[test]
    fn round_trips_across_chunk_boundaries() {
        let records = multi_chunk();
        let bytes = encode(&records, 4, 32).expect("encodes");
        assert_eq!(decode(&bytes).expect("decodes"), records);
    }

    #[test]
    fn scan_locates_every_chunk_and_each_decodes_independently() {
        let records = multi_chunk();
        let bytes = encode(&records, 4, 32).expect("encodes");
        let (header, frames) = scan_chunks(&bytes).expect("scans");
        assert_eq!(header.version, VERSION);
        assert_eq!(frames.len(), 4, "3 full chunks + 1 partial");
        assert_eq!(
            frames.iter().map(|f| u64::from(f.n_records)).sum::<u64>(),
            records.len() as u64
        );
        // Decode in reverse order: restartable chunks do not care.
        for frame in frames.iter().rev() {
            let got = decode_chunk(&bytes, &header, frame).expect("decodes");
            let lo = frame.first_record as usize;
            assert_eq!(got, records[lo..lo + frame.n_records as usize]);
        }
    }

    #[test]
    fn corrupted_restart_preamble_fails_the_checksum() {
        let bytes = encode(&multi_chunk(), 4, 32).expect("encodes");
        let (_, frames) = scan_chunks(&bytes).expect("scans");
        // Flip one bit inside chunk 1's restart preamble.
        let mut bad = bytes.clone();
        bad[frames[1].payload.start + 3] ^= 0x10;
        assert!(matches!(
            decode(&bad).expect_err("corrupt restart"),
            TraceError::ChecksumMismatch { chunk: 1, .. }
        ));
        let (header, bad_frames) = scan_chunks(&bad).expect("framing is intact");
        assert!(matches!(
            decode_chunk(&bad, &header, &bad_frames[1]).expect_err("corrupt restart"),
            TraceError::ChecksumMismatch { chunk: 1, .. }
        ));
    }

    #[test]
    fn truncated_restart_preamble_is_detected() {
        // The only chunk's payload is shorter than the 12-byte restart
        // preamble.
        let bytes = one_chunk_file(&[0u8; 4], 0, 0);
        assert!(matches!(
            decode(&bytes).expect_err("short restart"),
            TraceError::BadRestart { chunk: 0 }
        ));
        assert!(matches!(
            scan_chunks(&bytes).expect_err("short restart"),
            TraceError::BadRestart { chunk: 0 }
        ));
    }

    #[test]
    fn truncation_is_detected() {
        let bytes = encode(&sample(), 4, 32).expect("encodes");
        for cut in 0..bytes.len() {
            let err = decode(&bytes[..cut]).expect_err("every strict prefix fails");
            assert!(
                matches!(
                    err,
                    TraceError::Truncated | TraceError::CountMismatch { .. }
                ),
                "cut at {cut}: {err}"
            );
        }
    }

    #[test]
    fn corruption_is_detected_by_checksum() {
        let bytes = encode(&sample(), 4, 32).expect("encodes");
        // Flip one payload byte (file header 8 + chunk header 16 = 24).
        let mut bad = bytes.clone();
        bad[25] ^= 0x40;
        let err = decode(&bad).expect_err("corrupt payload");
        assert!(
            matches!(err, TraceError::ChecksumMismatch { chunk: 0, .. }),
            "{err}"
        );
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = encode(&sample(), 4, 32).expect("encodes");
        bytes.push(0);
        assert!(matches!(
            decode(&bytes).expect_err("trailing byte"),
            TraceError::TrailingData
        ));
        assert!(matches!(
            scan_chunks(&bytes).expect_err("trailing byte"),
            TraceError::TrailingData
        ));
    }

    #[test]
    fn wrong_magic_and_version_are_rejected() {
        let bytes = encode(&sample(), 4, 32).expect("encodes");
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(matches!(
            decode(&bad).expect_err("bad magic"),
            TraceError::BadMagic(_)
        ));
        for version in [1u8, 99] {
            let mut bad = bytes.clone();
            bad[4] = version;
            let err = decode(&bad).expect_err("bad version");
            assert!(
                matches!(err, TraceError::BadVersion(v) if v == version),
                "{err}"
            );
        }
        // A CPU count past the tag field, and a line size that is not a
        // power of two.
        let mut bad = bytes.clone();
        bad[5] = 100;
        let err = decode(&bad).expect_err("bad n_cpus");
        assert!(
            matches!(
                err,
                TraceError::BadHeader {
                    n_cpus: 100,
                    line_bytes: 32
                }
            ),
            "{err}"
        );
        let mut bad = bytes.clone();
        bad[6..8].copy_from_slice(&48u16.to_le_bytes());
        let err = decode(&bad).expect_err("bad line_bytes");
        assert!(
            matches!(
                err,
                TraceError::BadHeader {
                    n_cpus: 4,
                    line_bytes: 48
                }
            ),
            "{err}"
        );
    }

    /// A 48-byte file: one chunk whose valid checksum covers only the
    /// restart preamble, declaring `u32::MAX` records. Decoding must fail
    /// without first reserving room for 4 G records.
    #[test]
    fn a_record_count_the_payload_cannot_hold_is_rejected_before_reserving() {
        let bytes = one_chunk_file(&[0u8; RESTART_BYTES], u32::MAX, u64::from(u32::MAX));
        assert_eq!(bytes.len(), 48);
        assert!(matches!(
            decode(&bytes).expect_err("overrun"),
            TraceError::ChunkOverrun { chunk: 0 }
        ));
        let (header, frames) = scan_chunks(&bytes).expect("framing is intact");
        assert!(matches!(
            decode_chunk(&bytes, &header, &frames[0]).expect_err("overrun"),
            TraceError::ChunkOverrun { chunk: 0 }
        ));
        let s = salvage(&bytes).expect("header is intact");
        assert_eq!((s.chunks_recovered, s.chunks_skipped), (0, 1));
        assert!(s.records.is_empty());
        assert!(s.clean_eof);
    }

    #[test]
    fn zigzag_round_trips_extremes() {
        for v in [0i64, 1, -1, i64::MAX, i64::MIN, 123_456_789, -987_654_321] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn varint_rejects_overlong_encodings() {
        let buf = [0xff; 11];
        let mut pos = 0;
        assert_eq!(get_varint(&buf, &mut pos), None, "11-byte varint overruns");
    }

    #[test]
    fn compression_beats_fixed_width() {
        // A locality-heavy stream (sequential fetches) must encode well
        // below the 13-byte fixed-width record, restart preambles
        // included.
        let records: Vec<TraceRecord> = (0..10_000u64)
            .map(|i| TraceRecord {
                cycle: i,
                cpu: 0,
                kind: TraceKind::IFetch,
                addr: 0x1000 + (i as u32) * 4,
            })
            .collect();
        let bytes = encode(&records, 1, 32).expect("encodes");
        let per_ref = bytes.len() as f64 / records.len() as f64;
        assert!(per_ref < 4.0, "{per_ref} bytes/ref");
    }
}
