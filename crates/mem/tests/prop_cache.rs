//! Property tests for the memory substrate: the set-associative cache
//! against a naive reference model, MESI single-writer invariants on the
//! bus architecture, and physical-memory byte equivalence.
//! Runs on `cmpsim_engine::prop`.

use cmpsim_engine::{prop, Cycle};
use cmpsim_mem::{
    AccessOutcome, CacheArray, CacheSpec, LineState, MemRequest, MemorySystem, MissKind, PhysMem,
    SharedMemSystem, SystemConfig, LINE_BYTES,
};
use std::collections::HashMap;

/// A naive fully-explicit reference cache: per-set vectors of resident
/// lines ordered by recency, plus the lines a coherence invalidation
/// removed. Must agree with `CacheArray` on every hit/miss, every miss
/// classification and every eviction victim.
struct RefCache {
    sets: Vec<Vec<u32>>, // line addresses, most recent last
    assoc: usize,
    line: u32,
    invalidated: Vec<u32>,
}

impl RefCache {
    fn new(spec: CacheSpec) -> RefCache {
        RefCache {
            sets: vec![Vec::new(); spec.n_sets()],
            assoc: spec.assoc,
            line: LINE_BYTES,
            invalidated: Vec::new(),
        }
    }
    fn set_of(&self, addr: u32) -> usize {
        ((addr / self.line) as usize) % self.sets.len()
    }
    fn lookup(&mut self, addr: u32) -> AccessOutcome {
        let la = addr & !(self.line - 1);
        let set = self.set_of(addr);
        let s = &mut self.sets[set];
        if let Some(pos) = s.iter().position(|&x| x == la) {
            let v = s.remove(pos);
            s.push(v); // most-recent last
            AccessOutcome::Hit(LineState::Shared)
        } else if self.invalidated.contains(&la) {
            AccessOutcome::Miss(MissKind::Invalidation)
        } else {
            AccessOutcome::Miss(MissKind::Replacement)
        }
    }
    fn fill(&mut self, addr: u32) -> Option<u32> {
        let la = addr & !(self.line - 1);
        self.invalidated.retain(|&x| x != la);
        let set = self.set_of(addr);
        let victim = if self.sets[set].len() >= self.assoc {
            Some(self.sets[set].remove(0)) // least-recent first
        } else {
            None
        };
        self.sets[set].push(la);
        victim
    }
    /// Removes the line; a coherence invalidation also remembers it.
    fn remove(&mut self, addr: u32, coherence: bool) -> bool {
        let la = addr & !(self.line - 1);
        let set = self.set_of(addr);
        let Some(pos) = self.sets[set].iter().position(|&x| x == la) else {
            return false;
        };
        self.sets[set].remove(pos);
        if coherence {
            self.invalidated.push(la);
        }
        true
    }
}

/// CacheArray and the reference model agree on every access outcome, miss
/// classification and eviction victim, at 1, 2, 3, 4 and 8 ways (3 ways
/// leaves 5 sets, so the set index is a modulo), with coherence
/// invalidations and plain evictions interleaved among the accesses so
/// that sets refill around the holes they leave.
#[test]
fn cache_matches_reference_model() {
    prop::check("cache_matches_reference_model", |src| {
        let assoc = [1, 2, 3, 4, 8][src.index(5)];
        // Tiny cache to force plenty of evictions: 16 lines of 32 B.
        let spec = CacheSpec::new(512, assoc);
        let ops = src.vec(1..500, |s| (s.u32(0..4096), s.u8(0..8)));
        let mut dut = CacheArray::new("dut", spec);
        let mut rf = RefCache::new(spec);
        for &(addr, op) in &ops {
            match op {
                0 => {
                    let was = rf.remove(addr, true);
                    assert_eq!(
                        dut.invalidate(addr).is_valid(),
                        was,
                        "invalidate @{addr:#x}"
                    );
                }
                1 => {
                    let was = rf.remove(addr, false);
                    assert_eq!(dut.evict(addr).is_valid(), was, "evict @{addr:#x}");
                }
                _ => {
                    let outcome = dut.lookup(addr);
                    assert_eq!(outcome, rf.lookup(addr), "{assoc} ways @{addr:#x}");
                    if let AccessOutcome::Miss(_) = outcome {
                        let v_ref = rf.fill(addr);
                        let v_dut = dut.fill(addr, LineState::Shared).map(|v| v.addr);
                        assert_eq!(v_dut, v_ref, "{assoc} ways: victims differ @{addr:#x}");
                    }
                }
            }
        }
        let resident: usize = rf.sets.iter().map(Vec::len).sum();
        assert_eq!(dut.resident(), resident);
    });
}

/// MESI invariant on the snooping-bus architecture: for every line, at
/// most one cache holds it Modified or Exclusive, and never alongside
/// other valid copies.
#[test]
fn mesi_single_writer_invariant() {
    prop::check("mesi_single_writer_invariant", |src| {
        let ops = src.vec(1..300, |s| (s.usize(0..4), s.u32(0..64), s.bool()));
        let mut sys = SharedMemSystem::new(&SystemConfig::paper_shared_mem(4));
        let mut t = Cycle(0);
        let mut touched: Vec<u32> = Vec::new();
        for &(cpu, line_idx, is_store) in &ops {
            let addr = line_idx * 32;
            touched.push(addr);
            let req = if is_store {
                MemRequest::store(cpu, addr)
            } else {
                MemRequest::load(cpu, addr)
            };
            sys.access(t, req);
            t += 100;

            // Check the invariant over every line touched so far.
            for &a in &touched {
                let states: Vec<LineState> = (0..4).map(|c| sys.l1d(c).probe(a)).collect();
                let owners = states
                    .iter()
                    .filter(|s| matches!(s, LineState::Modified | LineState::Exclusive))
                    .count();
                let sharers = states
                    .iter()
                    .filter(|s| matches!(s, LineState::Shared))
                    .count();
                assert!(owners <= 1, "two owners of {a:#x}: {states:?}");
                assert!(
                    owners == 0 || sharers == 0,
                    "owner coexists with sharers at {a:#x}: {states:?}"
                );
            }
        }
    });
}

/// PhysMem behaves exactly like a sparse byte map under arbitrary
/// interleavings of all access widths.
#[test]
fn physmem_matches_byte_map() {
    prop::check("physmem_matches_byte_map", |src| {
        let ops = src.vec(1..300, |s| {
            (s.u32(0..10_000), s.u8(0..4), s.u64_any(), s.bool())
        });
        let mut dut = PhysMem::new(1);
        let mut model: HashMap<u32, u8> = HashMap::new();
        let rd = |m: &HashMap<u32, u8>, a: u32| *m.get(&a).unwrap_or(&0);
        for &(addr, width, value, is_store) in &ops {
            match (width, is_store) {
                (0, true) => {
                    dut.write_u8(addr, value as u8);
                    model.insert(addr, value as u8);
                }
                (0, false) => assert_eq!(dut.read_u8(addr), rd(&model, addr)),
                (1, true) => {
                    dut.write_u32(addr, value as u32);
                    for (i, b) in (value as u32).to_le_bytes().iter().enumerate() {
                        model.insert(addr.wrapping_add(i as u32), *b);
                    }
                }
                (1, false) => {
                    let want = u32::from_le_bytes(std::array::from_fn(|i| {
                        rd(&model, addr.wrapping_add(i as u32))
                    }));
                    assert_eq!(dut.read_u32(addr), want);
                }
                (2, true) => {
                    dut.write_u64(addr, value);
                    for (i, b) in value.to_le_bytes().iter().enumerate() {
                        model.insert(addr.wrapping_add(i as u32), *b);
                    }
                }
                (2, false) => {
                    let want = u64::from_le_bytes(std::array::from_fn(|i| {
                        rd(&model, addr.wrapping_add(i as u32))
                    }));
                    assert_eq!(dut.read_u64(addr), want);
                }
                (_, true) => {
                    dut.write_f64(addr, f64::from_bits(value));
                    for (i, b) in value.to_le_bytes().iter().enumerate() {
                        model.insert(addr.wrapping_add(i as u32), *b);
                    }
                }
                (_, false) => {
                    let want = u64::from_le_bytes(std::array::from_fn(|i| {
                        rd(&model, addr.wrapping_add(i as u32))
                    }));
                    assert_eq!(dut.read_f64(addr).to_bits(), want);
                }
            }
        }
    });
}

/// Completion times never precede issue plus the minimum hit latency,
/// and the same access replayed later (warm) is never slower.
#[test]
fn warm_accesses_never_slower() {
    prop::check("warm_accesses_never_slower", |src| {
        let lines = src.vec(1..50, |s| s.u32(0..256));
        let mut sys = SharedMemSystem::new(&SystemConfig::paper_shared_mem(4));
        for &l in &lines {
            let addr = l * 32;
            let cold = sys.access(Cycle(10_000), MemRequest::load(0, addr));
            assert!(cold.finish.0 > 10_000);
            let warm = sys.access(Cycle(20_000), MemRequest::load(0, addr));
            assert!(warm.finish.0 - 20_000 <= cold.finish.0 - 10_000);
        }
    });
}

/// The shared-L2 directory and the L1 contents never diverge under any
/// interleaving of loads, stores and fetches, at 4, 64, 65 and 130 CPUs:
/// presence bits in one, one full, two and three words per side.
#[test]
fn shared_l2_directory_invariant() {
    prop::check("shared_l2_directory_invariant", |src| {
        use cmpsim_mem::SharedL2System;
        let n = [4, 64, 65, 130][src.index(4)];
        // Half the accesses come from four CPUs spread over every word
        // (first, second, middle, last), so sharers straddle words.
        let spread = [0, 1, n / 2, n - 1];
        let ops = src.vec(1..250, |s| {
            let cpu = if s.bool() {
                spread[s.index(4)]
            } else {
                s.usize(0..n)
            };
            (cpu, s.u32(0..512), s.u8(0..3))
        });
        let mut s = SharedL2System::new(&SystemConfig::paper_shared_l2(n));
        for (i, &(cpu, line, kind)) in ops.iter().enumerate() {
            // A few lines alias in the direct-mapped 2 MB L2 (every 64K
            // lines); sprinkle large strides so back-invalidation paths run.
            let addr = (line % 64) * 32 + (line / 64) * 0x20_0000;
            let req = match kind {
                0 => MemRequest::load(cpu, addr),
                1 => MemRequest::store(cpu, addr),
                _ => MemRequest::ifetch(cpu, addr),
            };
            s.access(Cycle(i as u64 * 200), req);
        }
        assert!(s.directory_consistent());
    });
}
