//! Analysis passes over reference traces: footprint, sharing degree,
//! inter-CPU communication and reuse distance.
//!
//! These are the stream-characterization numbers sharing studies report
//! (working-set size, per-line sharing degree, producer→consumer
//! communication, reuse-distance profile) computed directly from a
//! captured trace — no simulation required, so they run at decode speed
//! and apply equally to externally supplied traces.

use crate::codec::{decode_with_header, TraceError, TraceKind, TraceRecord};
use cmpsim_engine::Histogram;
use std::collections::HashMap;
use std::fmt;

/// Reuse-distance histogram bucket bounds (distinct lines between
/// successive touches of the same line). Chosen so paper-scale caches are
/// legible: a 16 KB / 32 B L1 holds 512 lines, a 256 KB L2 8192.
const REUSE_BOUNDS: [u64; 7] = [8, 32, 128, 512, 2048, 8192, 32768];

/// Per-line bookkeeping for the single streaming pass.
#[derive(Debug, Clone, Copy, Default)]
struct LineInfo {
    /// CPUs that touched the line (bitmask).
    readers: u64,
    /// CPUs that wrote the line (bitmask).
    writers: u64,
    /// Last CPU to write the line, if any.
    last_writer: Option<u8>,
}

/// Binary indexed tree over data-access positions; `sum(i)` counts marked
/// positions in `1..=i`. Marked positions are exactly the *latest* touch
/// of every line seen so far, which makes "distinct lines between two
/// touches" a pair of prefix sums.
#[derive(Debug)]
struct Fenwick {
    tree: Vec<i64>,
}

impl Fenwick {
    fn new(n: usize) -> Fenwick {
        Fenwick {
            tree: vec![0; n + 1],
        }
    }

    fn add(&mut self, mut i: usize, delta: i64) {
        while i < self.tree.len() {
            self.tree[i] += delta;
            i += i & i.wrapping_neg();
        }
    }

    fn sum(&self, mut i: usize) -> i64 {
        let mut s = 0;
        while i > 0 {
            s += self.tree[i];
            i -= i & i.wrapping_neg();
        }
        s
    }
}

/// The result of one analysis pass over a trace.
#[derive(Debug, Clone)]
pub struct TraceAnalysis {
    /// CPU count the sharing/communication views are sized for.
    pub n_cpus: usize,
    /// Cache line size used to fold addresses into lines.
    pub line_bytes: u32,
    /// Instruction fetches seen.
    pub ifetches: u64,
    /// Data loads seen.
    pub loads: u64,
    /// Data stores seen.
    pub stores: u64,
    /// Distinct instruction lines touched.
    pub instr_lines: u64,
    /// Distinct data lines touched.
    pub data_lines: u64,
    /// `sharing_hist[k-1]` = data lines touched by exactly `k` CPUs.
    pub sharing_hist: Vec<u64>,
    /// Data lines written by at least one CPU and touched by another —
    /// the lines coherence traffic is made of.
    pub write_shared_lines: u64,
    /// `comm[p][c]` = loads by CPU `c` of a line whose last writer was
    /// CPU `p != c` (producer → consumer transfers).
    pub comm: Vec<Vec<u64>>,
    /// Reuse distances of data accesses: distinct data lines touched
    /// between successive accesses to the same line.
    pub reuse: Histogram,
    /// First-touch (cold) data accesses, excluded from `reuse`.
    pub cold: u64,
}

impl TraceAnalysis {
    /// Total references analyzed.
    pub fn refs(&self) -> u64 {
        self.ifetches + self.loads + self.stores
    }

    /// Data footprint in bytes (distinct data lines × line size).
    pub fn data_footprint_bytes(&self) -> u64 {
        self.data_lines * u64::from(self.line_bytes)
    }

    /// Instruction footprint in bytes.
    pub fn instr_footprint_bytes(&self) -> u64 {
        self.instr_lines * u64::from(self.line_bytes)
    }

    /// Data lines touched by more than one CPU.
    pub fn shared_lines(&self) -> u64 {
        self.sharing_hist.iter().skip(1).sum()
    }

    /// Mean CPUs per data line (the sharing degree).
    pub fn mean_sharing_degree(&self) -> f64 {
        if self.data_lines == 0 {
            return 0.0;
        }
        let weighted: u64 = self
            .sharing_hist
            .iter()
            .enumerate()
            .map(|(i, &n)| (i as u64 + 1) * n)
            .sum();
        weighted as f64 / self.data_lines as f64
    }

    /// Total producer→consumer transfers in the communication matrix.
    pub fn comm_total(&self) -> u64 {
        self.comm.iter().flatten().sum()
    }
}

impl fmt::Display for TraceAnalysis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "refs {} (ifetch {} / load {} / store {})",
            self.refs(),
            self.ifetches,
            self.loads,
            self.stores
        )?;
        writeln!(
            f,
            "footprint: data {:.1} KB ({} lines), instr {:.1} KB ({} lines)",
            self.data_footprint_bytes() as f64 / 1024.0,
            self.data_lines,
            self.instr_footprint_bytes() as f64 / 1024.0,
            self.instr_lines
        )?;
        write!(f, "sharing degree:")?;
        for (i, &n) in self.sharing_hist.iter().enumerate() {
            write!(f, " {}cpu={n}", i + 1)?;
        }
        writeln!(
            f,
            "  (mean {:.2}, write-shared {} lines)",
            self.mean_sharing_degree(),
            self.write_shared_lines
        )?;
        writeln!(
            f,
            "communication: {} producer->consumer transfers",
            self.comm_total()
        )?;
        writeln!(
            f,
            "reuse distance: mean {:.1} lines, {} cold touches",
            self.reuse.mean(),
            self.cold
        )?;
        write!(f, "{}", comm_matrix(&self.comm))
    }
}

/// Renders a producer×consumer communication matrix as an aligned table.
pub fn comm_matrix(comm: &[Vec<u64>]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = write!(out, "{:>10}", "prod\\cons");
    for c in 0..comm.len() {
        let _ = write!(out, " {c:>8}");
    }
    let _ = writeln!(out);
    for (p, row) in comm.iter().enumerate() {
        let _ = write!(out, "{:>10}", format!("cpu {p}"));
        for &n in row {
            let _ = write!(out, " {n:>8}");
        }
        let _ = writeln!(out);
    }
    out
}

/// Analyzes a record stream. `n_cpus` sizes the sharing and communication
/// views; `line_bytes` folds byte addresses into lines (32 in every paper
/// configuration).
pub fn analyze<'a, I>(records: I, n_cpus: usize, line_bytes: u32) -> TraceAnalysis
where
    I: IntoIterator<Item = &'a TraceRecord>,
{
    assert!((1..=64).contains(&n_cpus), "sharing mask holds 64 CPUs");
    assert!(
        line_bytes.is_power_of_two(),
        "line size must be a power of two"
    );
    let shift = line_bytes.trailing_zeros();
    let mut a = TraceAnalysis {
        n_cpus,
        line_bytes,
        ifetches: 0,
        loads: 0,
        stores: 0,
        instr_lines: 0,
        data_lines: 0,
        sharing_hist: vec![0; n_cpus],
        write_shared_lines: 0,
        comm: vec![vec![0; n_cpus]; n_cpus],
        reuse: Histogram::new("reuse-distance", &REUSE_BOUNDS),
        cold: 0,
    };

    let mut instr: HashMap<u32, ()> = HashMap::new();
    let mut data: HashMap<u32, LineInfo> = HashMap::new();
    // Reuse distance needs positions; gather data accesses first to size
    // the Fenwick tree, then stream. Two passes over an in-memory slice
    // would double-iterate the caller's stream, so collect line ids here.
    let mut data_seq: Vec<u32> = Vec::new();

    for rec in records {
        let line = rec.addr >> shift;
        match rec.kind {
            TraceKind::StatsReset => {}
            TraceKind::IFetch => {
                a.ifetches += 1;
                instr.insert(line, ());
            }
            TraceKind::Load | TraceKind::Store => {
                let cpu = usize::from(rec.cpu).min(n_cpus - 1);
                let bit = 1u64 << cpu;
                let info = data.entry(line).or_default();
                info.readers |= bit;
                if rec.kind == TraceKind::Store {
                    a.stores += 1;
                    info.writers |= bit;
                    info.last_writer = Some(cpu as u8);
                } else {
                    a.loads += 1;
                    if let Some(p) = info.last_writer {
                        if usize::from(p) != cpu {
                            a.comm[usize::from(p)][cpu] += 1;
                        }
                    }
                }
                data_seq.push(line);
            }
        }
    }

    a.instr_lines = instr.len() as u64;
    a.data_lines = data.len() as u64;
    for info in data.values() {
        let degree = info.readers.count_ones() as usize;
        a.sharing_hist[degree.clamp(1, n_cpus) - 1] += 1;
        if info.writers != 0 && info.readers.count_ones() > 1 {
            a.write_shared_lines += 1;
        }
    }

    // Reuse distances: walk the data-access sequence with a Fenwick tree
    // marking each line's latest position; the distance of a re-touch is
    // the number of marked (= distinct) positions strictly between the
    // previous touch and now.
    let mut fen = Fenwick::new(data_seq.len());
    let mut last_pos: HashMap<u32, u64> = HashMap::with_capacity(data.len());
    for (idx, &line) in data_seq.iter().enumerate() {
        let pos = idx as u64 + 1;
        match last_pos.insert(line, pos) {
            Some(prev) => {
                let between = fen.sum(pos as usize - 1) - fen.sum(prev as usize);
                a.reuse.record(between as u64);
                fen.add(prev as usize, -1);
            }
            None => a.cold += 1,
        }
        fen.add(pos as usize, 1);
    }
    a
}

/// Analyzes an encoded trace, sizing the views from its header (which
/// the decoder has already checked: 1 to 64 CPUs, a power-of-two line).
///
/// # Errors
///
/// Propagates decode errors, including [`TraceError::BadHeader`].
pub fn analyze_bytes(bytes: &[u8]) -> Result<TraceAnalysis, TraceError> {
    let (header, records) = decode_with_header(bytes)?;
    Ok(analyze(
        &records,
        usize::from(header.n_cpus),
        u32::from(header.line_bytes),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(cycle: u64, cpu: u8, kind: TraceKind, addr: u32) -> TraceRecord {
        TraceRecord {
            cycle,
            cpu,
            kind,
            addr,
        }
    }

    #[test]
    fn counts_footprint_and_kinds() {
        let recs = vec![
            rec(0, 0, TraceKind::IFetch, 0x1000),
            rec(1, 0, TraceKind::IFetch, 0x1004), // same instr line
            rec(2, 0, TraceKind::Load, 0x8000),
            rec(3, 1, TraceKind::Store, 0x8020), // next data line
            rec(4, 0, TraceKind::StatsReset, 0),
        ];
        let a = analyze(&recs, 4, 32);
        assert_eq!((a.ifetches, a.loads, a.stores), (2, 1, 1));
        assert_eq!(a.instr_lines, 1);
        assert_eq!(a.data_lines, 2);
        assert_eq!(a.data_footprint_bytes(), 64);
        assert_eq!(a.refs(), 4);
    }

    #[test]
    fn sharing_degree_splits_private_from_shared() {
        let recs = vec![
            rec(0, 0, TraceKind::Load, 0x100), // private to cpu 0
            rec(1, 0, TraceKind::Load, 0x200), // shared by 0,1,2
            rec(2, 1, TraceKind::Load, 0x200),
            rec(3, 2, TraceKind::Load, 0x204),
            rec(4, 3, TraceKind::Store, 0x300), // written, then read by 0
            rec(5, 0, TraceKind::Load, 0x300),
        ];
        let a = analyze(&recs, 4, 32);
        assert_eq!(a.sharing_hist, vec![1, 1, 1, 0]);
        assert_eq!(a.shared_lines(), 2);
        assert_eq!(a.write_shared_lines, 1, "only the written shared line");
        assert!((a.mean_sharing_degree() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn communication_matrix_tracks_producer_consumer() {
        let recs = vec![
            rec(0, 0, TraceKind::Store, 0x100),
            rec(1, 1, TraceKind::Load, 0x100), // 0 -> 1
            rec(2, 2, TraceKind::Load, 0x104), // 0 -> 2 (same line)
            rec(3, 0, TraceKind::Load, 0x100), // self: not communication
            rec(4, 2, TraceKind::Store, 0x100),
            rec(5, 0, TraceKind::Load, 0x100), // 2 -> 0
        ];
        let a = analyze(&recs, 4, 32);
        assert_eq!(a.comm[0][1], 1);
        assert_eq!(a.comm[0][2], 1);
        assert_eq!(a.comm[2][0], 1);
        assert_eq!(a.comm[0][0], 0);
        assert_eq!(a.comm_total(), 3);
        let table = comm_matrix(&a.comm);
        assert!(table.contains("cpu 0"), "{table}");
    }

    #[test]
    fn reuse_distance_counts_distinct_lines_between_touches() {
        // A B C A: the second A has 2 distinct lines (B, C) in between.
        // B's re-touch would have distance 2 as well; only A re-touches.
        let recs = vec![
            rec(0, 0, TraceKind::Load, 0x000),
            rec(1, 0, TraceKind::Load, 0x020),
            rec(2, 0, TraceKind::Load, 0x040),
            rec(3, 0, TraceKind::Load, 0x000),
            rec(4, 0, TraceKind::Load, 0x000), // immediate re-touch: 0
        ];
        let a = analyze(&recs, 1, 32);
        assert_eq!(a.cold, 3);
        assert_eq!(a.reuse.total(), 2);
        assert_eq!(a.reuse.max(), 2);
        assert!((a.reuse.mean() - 1.0).abs() < 1e-12, "distances 2 and 0");
    }

    #[test]
    fn repeated_lines_do_not_inflate_reuse_distance() {
        // A B B B A: distance of the final A is 1 (only B between), not 3.
        let recs = vec![
            rec(0, 0, TraceKind::Load, 0x000),
            rec(1, 0, TraceKind::Load, 0x020),
            rec(2, 0, TraceKind::Load, 0x020),
            rec(3, 0, TraceKind::Load, 0x020),
            rec(4, 0, TraceKind::Load, 0x000),
        ];
        let a = analyze(&recs, 1, 32);
        assert_eq!(a.reuse.max(), 1);
    }
}
