//! MESI snooping steps for bus-based private-hierarchy topologies.
//!
//! Free functions over slices of per-CPU cache arrays so a topology can
//! borrow its caches field-by-field. All of them mirror what the paper's
//! shared-memory architecture does on the snooping bus: probe every remote
//! hierarchy, invalidate on read-exclusive/upgrade, downgrade on a remote
//! read of a dirty line.

use crate::cache::{CacheArray, LineState};
use crate::sentinel::{Sentinel, ViolationKind};
use crate::stats::MemStats;
use crate::{Addr, CpuId};
use cmpsim_engine::Cycle;

/// The snoop result for a requested line across all remote CPUs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnoopResult {
    /// No remote copy.
    None,
    /// Remote clean copies exist (Shared/Exclusive).
    Shared,
    /// A remote CPU holds the line Modified.
    Dirty(CpuId),
}

/// Snoops every remote CPU's caches for `addr`.
pub fn snoop(
    l1d: &[CacheArray],
    l1i: &[CacheArray],
    l2: &[CacheArray],
    me: CpuId,
    addr: Addr,
) -> SnoopResult {
    let mut shared = false;
    for cpu in 0..l1d.len() {
        if cpu == me {
            continue;
        }
        let s1 = l1d[cpu].probe(addr);
        let s2 = l2[cpu].probe(addr);
        let si = l1i[cpu].probe(addr);
        if s1 == LineState::Modified || s2 == LineState::Modified {
            return SnoopResult::Dirty(cpu);
        }
        if s1.is_valid() || s2.is_valid() || si.is_valid() {
            shared = true;
        }
    }
    if shared {
        SnoopResult::Shared
    } else {
        SnoopResult::None
    }
}

/// Invalidates the line in every remote CPU (read-exclusive / upgrade).
pub fn invalidate_remote(
    stats: &mut MemStats,
    l1d: &mut [CacheArray],
    l1i: &mut [CacheArray],
    l2: &mut [CacheArray],
    me: CpuId,
    addr: Addr,
) {
    for cpu in 0..l1d.len() {
        if cpu == me {
            continue;
        }
        for cache in [&mut l1d[cpu], &mut l1i[cpu], &mut l2[cpu]] {
            if cache.invalidate(addr).is_valid() {
                stats.invalidations_sent += 1;
            }
        }
    }
}

/// Downgrades remote copies to Shared (remote read of a dirty line).
pub fn downgrade_remote(l1d: &mut [CacheArray], l2: &mut [CacheArray], me: CpuId, addr: Addr) {
    for cpu in 0..l1d.len() {
        if cpu == me {
            continue;
        }
        l1d[cpu].downgrade(addr);
        l2[cpu].downgrade(addr);
    }
}

/// Sentinel check of MESI legality across the private hierarchies, scoped
/// to one line. Ownership (M/E) is judged from the D-side caches only —
/// [`downgrade_remote`] deliberately leaves I-caches alone, so a clean
/// Exclusive I-line coexisting with remote Shared copies is legal here.
pub fn check_mesi_line(
    sentinel: &mut Sentinel,
    l1d: &[CacheArray],
    l1i: &[CacheArray],
    l2: &[CacheArray],
    now: Cycle,
    cpu: CpuId,
    line: Addr,
) {
    let rank = |s: LineState| match s {
        LineState::Modified => 3,
        LineState::Exclusive => 2,
        LineState::Shared => 1,
        LineState::Invalid => 0,
    };
    let mut found: Vec<(ViolationKind, String)> = Vec::new();
    let mut owners: Vec<usize> = Vec::new();
    let mut holders: Vec<usize> = Vec::new();
    for c in 0..l1d.len() {
        let r = rank(l1d[c].probe(line)).max(rank(l2[c].probe(line)));
        if r >= 2 {
            owners.push(c);
        }
        if r >= 1 || l1i[c].probe(line).is_valid() {
            holders.push(c);
        }
        if l1i[c].probe(line) == LineState::Modified {
            found.push((
                ViolationKind::WriteThroughDirty,
                format!("cpu {c} instruction cache holds the line dirty"),
            ));
        }
    }
    if owners.len() > 1 {
        found.push((
            ViolationKind::MultipleOwners,
            format!("cpus {owners:?} each hold the line in an ownership (M/E) state"),
        ));
    }
    if let [o] = owners[..] {
        let sharers: Vec<usize> = holders.iter().copied().filter(|&c| c != o).collect();
        if !sharers.is_empty() {
            found.push((
                ViolationKind::SharedAlongsideOwner,
                format!("cpu {o} owns the line while cpus {sharers:?} still hold copies"),
            ));
        }
    }
    for (kind, detail) in found {
        sentinel.report(now.0, cpu, line, kind, detail);
    }
}
