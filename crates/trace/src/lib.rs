//! cmpsim-trace: the reference-trace subsystem.
//!
//! Four pieces, mirroring how trace-driven studies are actually run:
//!
//! - **Capture** ([`capture`]): [`TracingSystem`] decorates any
//!   [`MemorySystem`](cmpsim_mem::MemorySystem) at the CPU → memory
//!   boundary and streams every issued request into a [`TraceSink`].
//!   Nothing installed ⇒ exactly zero overhead. File capture is
//!   crash-safe: a [`SinkOut::Atomic`] destination writes through an
//!   [`AtomicFile`] that renames onto the destination only after the
//!   footer lands, and [`salvage`] recovers every intact chunk from a
//!   torn `.tmp`.
//! - **Codec** ([`codec`]): a chunked binary format — delta-encoded
//!   cycles/addresses as zigzag LEB128 varints, FNV-1a checksummed
//!   chunks, a footer that doubles as a truncation detector. Every chunk
//!   opens with its own restart state, so any chunk decodes on its own:
//!   [`salvage`] skips a corrupt chunk and keeps the rest, and
//!   [`decode_chunk`] decodes any chunk [`scan_chunks`] located.
//! - **Replay** ([`replay`]): re-issue a captured stream into a memory
//!   system built from configuration alone, skipping the CPU models.
//!   Replay into the captured configuration reproduces bit-identical
//!   statistics; replay into a different one is the classic fixed-stream
//!   approximation for fast hierarchy sweeps. [`replay_matrix`] batches
//!   that: decode once, replay N configurations from the shared record
//!   arena across the caller's job count, each point bit-identical to
//!   its single-config replay.
//! - **Analysis** ([`analyze()`]): footprint, per-line sharing degree,
//!   producer→consumer communication matrix and reuse-distance profile
//!   computed from the trace alone.

pub mod analyze;
pub mod capture;
pub mod codec;
pub mod replay;

pub use analyze::{analyze, analyze_bytes, comm_matrix, TraceAnalysis};
pub use capture::{sink_to, AtomicFile, SharedBuf, SinkHandle, SinkOut, TraceSink, TracingSystem};
pub use codec::{
    decode, decode_chunk, decode_with_header, encode, salvage, scan_chunks, ChunkFrame, Salvage,
    TraceError, TraceHeader, TraceKind, TraceRecord, TraceWriter, VERSION,
};
pub use replay::{
    replay_bytes, replay_matrix, replay_records, ConfigReplay, ReplayStats, ReplayTarget,
};
