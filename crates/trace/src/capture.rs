//! Reference-trace capture at the CPU → memory-system boundary.
//!
//! [`TracingSystem`] wraps any [`MemorySystem`] and appends one
//! [`TraceRecord`] per issued request to a shared [`TraceSink`] before
//! forwarding the request unchanged. Because every CPU-model memory
//! operation — instruction fetches, loads (including `LL`), stores
//! (including successful `SC` and write-buffer drains) — funnels through
//! `MemorySystem::access`, wrapping that one call captures the complete
//! reference stream in exact issue order without touching either CPU
//! model. With no wrapper installed the simulator runs the raw system, so
//! disabled capture costs exactly zero.

use crate::codec::{TraceKind, TraceRecord, TraceWriter};
use cmpsim_engine::Cycle;
use cmpsim_mem::{
    sentinel, Addr, CpuId, MemRequest, MemResult, MemStats, MemorySystem, PortUtil, LINE_BYTES,
};
use std::cell::RefCell;
use std::fs::File;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::rc::Rc;

/// A file that materializes atomically: every byte goes to `<dest>.tmp`,
/// and only [`AtomicFile::commit`] renames it onto the destination. A
/// crash at any earlier point leaves the destination untouched (absent,
/// or its previous complete contents) and the torn `.tmp` behind for
/// [`crate::salvage`] — dropping without committing deliberately does NOT
/// delete it.
#[derive(Debug)]
pub struct AtomicFile {
    file: File,
    tmp: PathBuf,
    dest: PathBuf,
}

impl AtomicFile {
    /// Opens `<dest>.tmp` for writing, truncating any stale temp file.
    ///
    /// # Errors
    ///
    /// Propagates the temp-file creation failure.
    pub fn create(dest: impl Into<PathBuf>) -> io::Result<AtomicFile> {
        let dest = dest.into();
        let mut tmp = dest.clone().into_os_string();
        tmp.push(".tmp");
        let tmp = PathBuf::from(tmp);
        let file = File::create(&tmp)?;
        Ok(AtomicFile { file, tmp, dest })
    }

    /// Where bytes are accumulating until commit.
    pub fn tmp_path(&self) -> &Path {
        &self.tmp
    }

    /// Durably publishes the file: flush, sync, rename onto `dest`.
    ///
    /// # Errors
    ///
    /// Propagates flush/sync/rename failures; on error the temp file is
    /// left in place.
    pub fn commit(mut self) -> io::Result<()> {
        self.file.flush()?;
        self.file.sync_all()?;
        std::fs::rename(&self.tmp, &self.dest)
    }
}

impl Write for AtomicFile {
    fn write(&mut self, data: &[u8]) -> io::Result<usize> {
        self.file.write(data)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.file.flush()
    }
}

/// The capture target a [`TraceSink`] writes through: either a plain
/// caller-supplied writer (in-memory buffers, pipes, tests) or an
/// [`AtomicFile`] that only surfaces at its destination path once the
/// footer has landed.
pub enum SinkOut {
    /// A caller-supplied writer; [`SinkOut::finalize`] is a no-op.
    Plain(Box<dyn Write>),
    /// A temp-file-then-rename destination committed on finalize.
    Atomic(AtomicFile),
}

impl SinkOut {
    /// Publishes an atomic destination; no-op for a plain writer.
    ///
    /// # Errors
    ///
    /// Propagates [`AtomicFile::commit`] failures.
    pub fn finalize(self) -> io::Result<()> {
        match self {
            SinkOut::Plain(_) => Ok(()),
            SinkOut::Atomic(f) => f.commit(),
        }
    }
}

impl Write for SinkOut {
    fn write(&mut self, data: &[u8]) -> io::Result<usize> {
        match self {
            SinkOut::Plain(w) => w.write(data),
            SinkOut::Atomic(f) => f.write(data),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            SinkOut::Plain(w) => w.flush(),
            SinkOut::Atomic(f) => f.flush(),
        }
    }
}

/// A chunk-buffered trace writer shared between the machine (which emits
/// region-of-interest markers and finishes the file) and the
/// [`TracingSystem`] wrapper (which emits access records).
#[derive(Debug)]
pub struct TraceSink {
    writer: TraceWriter<SinkOut>,
}

impl TraceSink {
    /// Starts a sink writing the trace header for an `n_cpus`-CPU machine
    /// (with the memory systems' [`LINE_BYTES`]-byte lines) into `out`.
    ///
    /// # Errors
    ///
    /// Propagates header-write failures.
    pub fn new(out: SinkOut, n_cpus: usize) -> io::Result<TraceSink> {
        Ok(TraceSink {
            writer: TraceWriter::new(out, n_cpus, LINE_BYTES)?,
        })
    }

    /// Records one memory access.
    ///
    /// # Panics
    ///
    /// Panics if the underlying writer fails — capture runs deep inside
    /// the simulation loop, where an I/O `Result` has no path back to the
    /// caller, and a silently incomplete reference trace would be worse
    /// than a loud stop.
    pub fn record_access(&mut self, now: Cycle, req: &MemRequest) {
        self.push(TraceRecord {
            cycle: now.0,
            cpu: req.cpu as u8,
            kind: req.kind.into(),
            addr: req.addr,
        });
    }

    /// Records a region-of-interest statistics reset at `cycle`.
    pub fn record_reset(&mut self, cycle: u64) {
        self.push(TraceRecord {
            cycle,
            cpu: 0,
            kind: TraceKind::StatsReset,
            addr: 0,
        });
    }

    fn push(&mut self, rec: TraceRecord) {
        self.writer
            .push(rec)
            .unwrap_or_else(|e| panic!("trace capture failed: {e}"));
    }

    /// Flushes pending records, writes the footer, and — for an atomic
    /// sink — renames the temp file onto its destination. Idempotent.
    /// Drop writes the footer best-effort but never commits the rename,
    /// so an unfinished atomic capture stays at `<path>.tmp`.
    pub fn finish(&mut self) -> io::Result<()> {
        match self.writer.finish_into_inner()? {
            Some(out) => out.finalize(),
            None => Ok(()),
        }
    }

    /// Records captured so far.
    pub fn records(&self) -> u64 {
        self.writer.records()
    }
}

/// Shared handle to a [`TraceSink`]: the machine keeps one end, the
/// [`TracingSystem`] the other. Capture is single-threaded (one machine,
/// one sink), so plain `Rc<RefCell<_>>` suffices.
pub type SinkHandle = Rc<RefCell<TraceSink>>;

/// A [`MemorySystem`] decorator that records every issued request.
///
/// Forwards every trait method to the wrapped system unchanged, so a
/// traced run is bit-identical to an untraced one — the capture hook can
/// never perturb the experiment it observes.
pub struct TracingSystem {
    inner: Box<dyn MemorySystem>,
    sink: SinkHandle,
}

impl std::fmt::Debug for TracingSystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TracingSystem")
            .field("inner", &self.inner.name())
            .finish_non_exhaustive()
    }
}

impl TracingSystem {
    /// Wraps `inner`, recording into `sink`.
    pub fn new(inner: Box<dyn MemorySystem>, sink: SinkHandle) -> TracingSystem {
        TracingSystem { inner, sink }
    }
}

impl MemorySystem for TracingSystem {
    fn access(&mut self, now: Cycle, req: MemRequest) -> MemResult {
        self.sink.borrow_mut().record_access(now, &req);
        self.inner.access(now, req)
    }

    fn load_would_hit_l1(&self, cpu: CpuId, addr: Addr) -> bool {
        self.inner.load_would_hit_l1(cpu, addr)
    }

    fn n_cpus(&self) -> usize {
        self.inner.n_cpus()
    }

    fn stats(&self) -> &MemStats {
        self.inner.stats()
    }

    fn stats_mut(&mut self) -> &mut MemStats {
        self.inner.stats_mut()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn port_utilization(&self) -> Vec<PortUtil> {
        self.inner.port_utilization()
    }

    fn violations(&self) -> &[sentinel::SentinelViolation] {
        self.inner.violations()
    }
}

/// A clonable in-memory byte buffer implementing [`Write`] — the capture
/// target for in-process capture-then-replay flows (tests, benches, the
/// examples), where the trace never needs to touch the filesystem.
#[derive(Debug, Clone, Default)]
pub struct SharedBuf {
    buf: Rc<RefCell<Vec<u8>>>,
}

impl SharedBuf {
    /// An empty shared buffer.
    pub fn new() -> SharedBuf {
        SharedBuf::default()
    }

    /// Takes the accumulated bytes, leaving the buffer empty.
    pub fn take(&self) -> Vec<u8> {
        std::mem::take(&mut self.buf.borrow_mut())
    }

    /// Bytes accumulated so far.
    pub fn len(&self) -> usize {
        self.buf.borrow().len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.borrow().is_empty()
    }
}

impl Write for SharedBuf {
    fn write(&mut self, data: &[u8]) -> io::Result<usize> {
        self.buf.borrow_mut().extend_from_slice(data);
        Ok(data.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Builds a sink/handle pair writing into `out`.
///
/// # Errors
///
/// Propagates header-write failures.
pub fn sink_to(out: SinkOut, n_cpus: usize) -> io::Result<SinkHandle> {
    Ok(Rc::new(RefCell::new(TraceSink::new(out, n_cpus)?)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::decode;
    use cmpsim_mem::{SharedMemSystem, SystemConfig};

    #[test]
    fn wrapper_is_transparent_and_records_in_issue_order() {
        let cfg = SystemConfig::paper_shared_mem(4);
        let buf = SharedBuf::new();
        let sink = sink_to(SinkOut::Plain(Box::new(buf.clone())), 4).expect("header writes");
        let mut traced = TracingSystem::new(Box::new(SharedMemSystem::new(&cfg)), Rc::clone(&sink));
        let mut plain = SharedMemSystem::new(&cfg);

        let reqs = [
            MemRequest::ifetch(0, 0x1000),
            MemRequest::load(1, 0x2000),
            MemRequest::store(1, 0x2004),
            MemRequest::load(2, 0x2000),
        ];
        for (i, req) in reqs.iter().enumerate() {
            let at = Cycle(i as u64 * 100);
            assert_eq!(traced.access(at, *req), plain.access(at, *req));
        }
        assert_eq!(traced.n_cpus(), 4);
        assert_eq!(traced.name(), plain.name());
        assert_eq!(
            format!("{:?}", traced.stats()),
            format!("{:?}", plain.stats())
        );

        sink.borrow_mut().finish().expect("finishes");
        let records = decode(&buf.take()).expect("decodes");
        assert_eq!(records.len(), 4);
        for (rec, req) in records.iter().zip(&reqs) {
            assert_eq!(rec.cpu as usize, req.cpu);
            assert_eq!(rec.addr, req.addr);
            assert_eq!(rec.kind.access_kind(), Some(req.kind));
        }
        assert_eq!(records[3].cycle, 300);
    }

    #[test]
    fn sink_finish_is_idempotent_and_counts_bytes() {
        let buf = SharedBuf::new();
        let mut sink = TraceSink::new(SinkOut::Plain(Box::new(buf.clone())), 2).expect("header");
        sink.record_access(Cycle(5), &MemRequest::load(1, 0x40));
        sink.record_reset(6);
        sink.finish().expect("first finish");
        let finished = buf.len();
        sink.finish().expect("second finish is a no-op");
        assert_eq!(sink.records(), 2);
        assert_eq!(buf.len(), finished, "a second finish writes nothing");
        let records = decode(&buf.take()).expect("decodes");
        assert_eq!(records[1].kind, TraceKind::StatsReset);
        assert_eq!(records[1].cycle, 6);
    }
}
