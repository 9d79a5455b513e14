//! The directory/invalidation engine and the one directory access walk.
//!
//! [`Directory`] keeps per-line presence bitmaps over the *nodes* of a
//! topology — per-CPU L1s in the shared-L2 architecture, per-cluster L1s in
//! the clustered extension, per-tile L1s in the mesh extension.
//! [`DirectoryTopo`] is the complete write-through-L1-over-shared-L2 access
//! walk all three share; its [`NodeScheme`] maps CPUs onto nodes,
//! arbitrates the node's L1, carries misses and stores across the
//! interconnect, and names the architecture and the noun used in sentinel
//! violation details.

use super::backside::SharedL2Back;
use super::{util_of_banks, util_of_port, HierarchyCore, HierarchySystem, Topology};
use crate::cache::{AccessOutcome, CacheArray, LineState, MissKind};
use crate::config::{CacheSpec, SystemConfig};
use crate::cpuset::CpuSet;
use crate::sentinel::{FaultKind, Sentinel, ViolationKind};
use crate::stats::MemStats;
use crate::{AccessKind, Addr, CpuId, MemRequest, MemResult, PortUtil, ServiceLevel};
use cmpsim_engine::Cycle;

/// Per-line presence bitmaps over the nodes of a directory topology, with
/// the invalidation plumbing and fault-injection hooks that maintain them.
///
/// Presence lives in a table parallel to the shared L2's way slots — the
/// hardware arrangement, where directory state sits next to the L2 tags.
/// Inclusion means an L1 copy implies an L2-resident line, so a slot per
/// L2 way covers every line the directory can ever need, and the store
/// path's presence lookup rides the L2 set walk it was about to do anyway
/// instead of hashing into a side map.
#[derive(Debug)]
pub struct Directory {
    /// Per-L2-way (d-side presence set, i-side presence set), one
    /// [`CpuSet`] member per node. Empty pairs for ways holding no
    /// tracked line; invariant: both sets are empty whenever the way is
    /// invalid.
    slots: Vec<(CpuSet, CpuSet)>,
    n_nodes: usize,
}

impl Directory {
    /// An empty directory over `n_nodes` nodes, tracking an L2 with
    /// `n_slots` way slots.
    pub fn new(n_nodes: usize, n_slots: usize) -> Directory {
        Directory {
            slots: vec![(CpuSet::EMPTY, CpuSet::EMPTY); n_slots],
            n_nodes,
        }
    }

    /// Records `node`'s new L1 copy of `line` and clears its bit on the
    /// victim line the fill displaced. Fault injection (sentinel): may
    /// record a spurious sharer — a presence bit with no backing L1 copy.
    pub fn note_fill(
        &mut self,
        sentinel: &mut Sentinel,
        l2: &CacheArray,
        node: usize,
        line: Addr,
        ifetch: bool,
        victim: Option<Addr>,
    ) {
        let spurious = self.n_nodes > 1 && sentinel.inject(FaultKind::SpuriousState, line);
        if let Some(slot) = l2.slot_of(line) {
            let entry = &mut self.slots[slot];
            if ifetch {
                entry.1.set(node);
            } else {
                entry.0.set(node);
            }
            if spurious {
                let ghost = (node + 1) % self.n_nodes;
                entry.0.set(ghost);
            }
        }
        if let Some(v) = victim {
            if let Some(slot) = l2.slot_of(v) {
                let e = &mut self.slots[slot];
                if ifetch {
                    e.1.clear(node);
                } else {
                    e.0.clear(node);
                }
            }
        }
    }

    /// Invalidates every other node's L1 copies of `line` after a write by
    /// `writer` (directory-driven coherence). Fault injection (sentinel):
    /// may drop the invalidation message to one victim while still clearing
    /// its directory bit — the stale copy then shows up as a
    /// copy-without-presence violation.
    #[allow(clippy::too_many_arguments)] // disjoint &mut core fields, by design
    pub fn invalidate_sharers(
        &mut self,
        sentinel: &mut Sentinel,
        stats: &mut MemStats,
        l1d: &mut [CacheArray],
        l1i: &mut [CacheArray],
        l2: &CacheArray,
        writer: usize,
        line: Addr,
        addr: Addr,
    ) {
        let Some(slot) = l2.slot_of(line) else {
            // Not L2-resident: inclusion says no L1 holds it either.
            return;
        };
        let (d, i) = &mut self.slots[slot];
        if !d.contains_other(writer) && !i.contains_other(writer) {
            // Common case: only the writer holds the line — one map probe,
            // no victim walk. (Every store funnels through here.)
            return;
        }
        let d_victims = d.except(writer);
        let i_victims = i.except(writer);
        d.subtract(&d_victims);
        i.subtract(&i_victims);
        let mut drop_one = sentinel.inject(FaultKind::DroppedInvalidation, line);
        for node in 0..self.n_nodes {
            if d_victims.contains(node) {
                if drop_one {
                    drop_one = false;
                } else {
                    l1d[node].invalidate(addr);
                }
                stats.invalidations_sent += 1;
            }
            if i_victims.contains(node) {
                if drop_one {
                    drop_one = false;
                } else {
                    l1i[node].invalidate(addr);
                }
                stats.invalidations_sent += 1;
            }
        }
    }

    /// Enforces inclusion when the L2 evicts the line that sat in `slot`
    /// (now already overwritten by the incoming fill): every L1 copy of
    /// the victim `line` must go, and the slot's bits now belong to the
    /// new line, so they are taken and zeroed. These back-invalidations
    /// are capacity-driven, so the evicted lines are *not* marked as
    /// coherence-invalidated.
    pub fn back_invalidate_slot(
        &mut self,
        l1d: &mut [CacheArray],
        l1i: &mut [CacheArray],
        slot: usize,
        line: Addr,
    ) {
        let (d_bits, i_bits) = std::mem::take(&mut self.slots[slot]);
        if d_bits.is_empty() && i_bits.is_empty() {
            return;
        }
        for node in 0..self.n_nodes {
            if d_bits.contains(node) {
                l1d[node].evict(line);
            }
            if i_bits.contains(node) {
                l1i[node].evict(line);
            }
        }
    }

    /// Checks the directory invariant: every valid L1 line has its presence
    /// bit set, and every presence bit points at a valid L1 line backed by
    /// a valid L2 line (inclusion). Diagnostics / property tests.
    pub fn consistent(&self, l1d: &[CacheArray], l1i: &[CacheArray], l2: &CacheArray) -> bool {
        for node in 0..self.n_nodes {
            for (cache, side) in [(&l1d[node], 0usize), (&l1i[node], 1)] {
                for line in cache.valid_lines() {
                    let Some(slot) = l2.slot_of(line) else {
                        return false; // inclusion violated
                    };
                    let (d, i) = &self.slots[slot];
                    let bits = if side == 0 { d } else { i };
                    if !bits.contains(node) {
                        return false;
                    }
                }
            }
        }
        for (slot, (d_bits, i_bits)) in self.slots.iter().enumerate() {
            if d_bits.is_empty() && i_bits.is_empty() {
                continue;
            }
            let Some(line) = l2.line_at_slot(slot) else {
                return false; // presence bits on an invalid L2 way
            };
            for node in 0..self.n_nodes {
                if d_bits.contains(node) && !l1d[node].probe(line).is_valid() {
                    return false;
                }
                if i_bits.contains(node) && !l1i[node].probe(line).is_valid() {
                    return false;
                }
            }
        }
        true
    }

    /// Sentinel invariant check scoped to one line: presence bits must
    /// agree with actual L1 residency, every L1 copy must be backed by a
    /// valid L2 line (inclusion), and the write-through L1s must never hold
    /// dirty data. `noun` names the node kind ("cpu", "cluster", "tile")
    /// in violation details.
    #[allow(clippy::too_many_arguments)]
    pub fn check_line(
        &self,
        sentinel: &mut Sentinel,
        l1d: &[CacheArray],
        l1i: &[CacheArray],
        l2: &CacheArray,
        noun: &str,
        now: Cycle,
        cpu: CpuId,
        line: Addr,
    ) {
        static EMPTY: (CpuSet, CpuSet) = (CpuSet::EMPTY, CpuSet::EMPTY);
        let slot = l2.slot_of(line);
        let (d_bits, i_bits) = slot.map_or(&EMPTY, |s| &self.slots[s]);
        let l2_valid = slot.is_some();
        let mut found: Vec<(ViolationKind, String)> = Vec::new();
        for n in 0..self.n_nodes {
            for (cache, bits, side) in [(&l1d[n], d_bits, "l1d"), (&l1i[n], i_bits, "l1i")] {
                let state = cache.probe(line);
                let bit = bits.contains(n);
                if state.is_valid() && !bit {
                    found.push((
                        ViolationKind::CopyWithoutPresence,
                        format!("{noun} {n} {side} holds the line but its directory bit is clear"),
                    ));
                }
                if bit && !state.is_valid() {
                    found.push((
                        ViolationKind::PresenceWithoutCopy,
                        format!(
                            "directory marks {noun} {n} {side} as a sharer but it holds no copy"
                        ),
                    ));
                }
                if state.is_valid() && !l2_valid {
                    found.push((
                        ViolationKind::InclusionViolation,
                        format!("{noun} {n} {side} holds the line but the shared L2 does not"),
                    ));
                }
                if state == LineState::Modified {
                    found.push((
                        ViolationKind::WriteThroughDirty,
                        format!("write-through {noun} {n} {side} holds the line dirty"),
                    ));
                }
            }
        }
        for (kind, detail) in found {
            sentinel.report(now.0, cpu, line, kind, detail);
        }
    }
}

/// What distinguishes one [`DirectoryTopo`] from another: how CPUs map
/// onto directory nodes, how a node's L1 arbitrates its accesses, and the
/// interconnect stage between the L1s and the shared L2 banks. The
/// defaults describe private L1s on a crossbar; a scheme overrides only
/// the steps its hardware adds, and the defaults compile away.
pub trait NodeScheme: std::fmt::Debug {
    /// Architecture name ([`crate::MemorySystem::name`]).
    const NAME: &'static str;
    /// What one node is called in diagnostics.
    const NOUN: &'static str;

    /// The node whose L1 serves `cpu`: the CPU's own, by default.
    #[inline]
    fn node_of(&self, cpu: CpuId) -> usize {
        cpu
    }

    /// Front-end arbitration for an access `node`'s L1 sees at `now`:
    /// the grant cycle and the hit latency from it. A private L1 grants
    /// at once and hits in `lat.l1_lat`.
    #[inline]
    fn arbitrate(
        &mut self,
        core: &mut HierarchyCore,
        _node: usize,
        _addr: Addr,
        now: Cycle,
    ) -> (Cycle, u64) {
        (now, core.cfg.lat.l1_lat)
    }

    /// The interconnect stage of a miss or store leaving `node` at `at`:
    /// the cycle it reaches the L2 bank holding `addr`, and the latency
    /// the response adds on its way back. A crossbar's crossing is part
    /// of `lat.l2_lat`, so by default it costs nothing here.
    #[inline]
    fn to_l2(&mut self, _node: usize, _addr: Addr, at: Cycle) -> (Cycle, u64) {
        (at, 0)
    }

    /// Appends the scheme's own contended resources, reported ahead of
    /// the L2 banks.
    fn push_port_util(&self, _out: &mut Vec<PortUtil>) {}
}

/// Geometry of a directory topology's L1 front end.
#[derive(Debug, Clone, Copy)]
pub struct DirectoryLayout {
    /// Directory nodes, one L1 pair each.
    pub n_nodes: usize,
    /// Per-node instruction-cache geometry.
    pub l1i_spec: CacheSpec,
    /// Per-node data-cache geometry.
    pub l1d_spec: CacheSpec,
    /// Instruction-cache label.
    pub l1i_name: &'static str,
    /// Data-cache label.
    pub l1d_name: &'static str,
}

impl DirectoryLayout {
    /// One private `l1i`/`l1d` pair per CPU, as the configuration sizes
    /// them.
    pub(crate) fn private(cfg: &SystemConfig) -> DirectoryLayout {
        DirectoryLayout {
            n_nodes: cfg.n_cpus,
            l1i_spec: cfg.l1i,
            l1d_spec: cfg.l1d,
            l1i_name: "l1i",
            l1d_name: "l1d",
        }
    }
}

/// Write-through L1s over a banked shared L2 with a per-line directory —
/// the one access walk of the shared-L2 architecture, the clustered
/// extension and the mesh extension, which differ only in their
/// [`NodeScheme`].
#[derive(Debug)]
pub struct DirectoryTopo<S> {
    scheme: S,
    l1i: Vec<CacheArray>,
    l1d: Vec<CacheArray>,
    dir: Directory,
    back: SharedL2Back,
}

impl<S: NodeScheme> DirectoryTopo<S> {
    /// Builds the topology from a configuration, a front-end layout and
    /// the scheme's own state.
    pub fn build(cfg: &SystemConfig, layout: &DirectoryLayout, scheme: S) -> DirectoryTopo<S> {
        let n = layout.n_nodes;
        let back = SharedL2Back::new(cfg);
        DirectoryTopo {
            scheme,
            l1i: (0..n)
                .map(|_| CacheArray::new(layout.l1i_name, layout.l1i_spec))
                .collect(),
            l1d: (0..n)
                .map(|_| CacheArray::new(layout.l1d_name, layout.l1d_spec))
                .collect(),
            dir: Directory::new(n, back.l2.n_slots()),
            back,
        }
    }

    /// The scheme's own state (grid, crossbar banks).
    pub(crate) fn scheme(&self) -> &S {
        &self.scheme
    }

    /// A load or ifetch that missed the node's L1: cross to the shared L2
    /// banks (and memory beyond), then refill the L1 and the directory.
    #[allow(clippy::too_many_arguments)] // disjoint &mut core fields, by design
    fn read_miss(
        &mut self,
        core: &mut HierarchyCore,
        at: Cycle,
        node: usize,
        addr: Addr,
        ifetch: bool,
        kind: MissKind,
        l1_extra: u64,
    ) -> MemResult {
        if ifetch {
            core.stats.l1i.miss(kind);
        } else {
            core.stats.l1d.miss(kind);
        }
        let (arrive, back_lat) = self.scheme.to_l2(node, addr, at);
        let (finish, level) = self.back.read(
            &mut core.stats,
            &mut self.dir,
            &mut self.l1d,
            &mut self.l1i,
            &core.cfg.lat,
            addr,
            arrive,
        );
        let cache = if ifetch {
            &mut self.l1i[node]
        } else {
            &mut self.l1d[node]
        };
        // Write-through L1: lines are never dirty.
        let victim = cache.fill(addr, LineState::Shared).map(|v| v.addr);
        let line = self.back.line(addr);
        self.dir.note_fill(
            &mut core.sentinel,
            &self.back.l2,
            node,
            line,
            ifetch,
            victim,
        );
        MemResult {
            finish: finish + back_lat,
            serviced_by: level,
            l1_miss: true,
            l1_extra,
        }
    }

    /// Write-through, no-write-allocate: the word always travels to the L2
    /// bank; a hit in the node's L1 just updates it in place. Store
    /// hit/miss outcomes are not folded into the L1 miss rate
    /// (no-allocate stores are not demand fetches).
    fn store(
        &mut self,
        core: &mut HierarchyCore,
        grant: Cycle,
        node: usize,
        addr: Addr,
        l1_extra: u64,
    ) -> MemResult {
        self.l1d[node].touch(addr);
        let (arrive, back_lat) = self.scheme.to_l2(node, addr, grant);
        let line = self.back.line(addr);
        self.dir.invalidate_sharers(
            &mut core.sentinel,
            &mut core.stats,
            &mut self.l1d,
            &mut self.l1i,
            &self.back.l2,
            node,
            line,
            addr,
        );
        let (finish, level) = self.back.store(
            &mut core.stats,
            &mut self.dir,
            &mut self.l1d,
            &mut self.l1i,
            &core.cfg.lat,
            addr,
            arrive,
        );
        MemResult {
            finish: finish + back_lat,
            serviced_by: level,
            l1_miss: false,
            l1_extra,
        }
    }
}

impl<S: NodeScheme> Topology for DirectoryTopo<S> {
    const NAME: &'static str = S::NAME;

    #[inline]
    fn access(&mut self, core: &mut HierarchyCore, now: Cycle, req: MemRequest) -> MemResult {
        let node = self.scheme.node_of(req.cpu);
        let addr = req.addr;
        let ifetch = req.kind == AccessKind::IFetch;
        let (grant, l1_lat) = self.scheme.arbitrate(core, node, addr, now);
        let l1_extra = (grant - now) + (l1_lat - 1);

        match req.kind {
            AccessKind::IFetch | AccessKind::Load => {
                let outcome = if ifetch {
                    self.l1i[node].lookup(addr)
                } else {
                    self.l1d[node].lookup(addr)
                };
                match outcome {
                    AccessOutcome::Hit(_) => {
                        if ifetch {
                            core.stats.l1i.hit();
                        } else {
                            core.stats.l1d.hit();
                        }
                        MemResult {
                            finish: grant + l1_lat,
                            serviced_by: ServiceLevel::L1,
                            l1_miss: false,
                            l1_extra,
                        }
                    }
                    AccessOutcome::Miss(kind) => {
                        self.read_miss(core, grant, node, addr, ifetch, kind, l1_extra)
                    }
                }
            }
            AccessKind::Store => self.store(core, grant, node, addr, l1_extra),
        }
    }

    fn check_line(&self, core: &mut HierarchyCore, now: Cycle, cpu: CpuId, addr: Addr) {
        let line = self.back.line(addr);
        self.dir.check_line(
            &mut core.sentinel,
            &self.l1d,
            &self.l1i,
            &self.back.l2,
            S::NOUN,
            now,
            cpu,
            line,
        );
    }

    fn load_would_hit_l1(&self, cpu: CpuId, addr: Addr) -> bool {
        self.l1d[self.scheme.node_of(cpu)].probe(addr).is_valid()
    }

    fn push_port_util(&self, out: &mut Vec<PortUtil>) {
        self.scheme.push_port_util(out);
        out.push(util_of_banks(&self.back.banks));
        out.push(util_of_port(&self.back.mem));
    }
}

/// Probes every directory system shares: the shared-L2, clustered and
/// mesh machines.
impl<S: NodeScheme> HierarchySystem<DirectoryTopo<S>> {
    /// Read-only view of one node's L1 data cache — a CPU's, a cluster's
    /// or a tile's (tests, probes).
    pub fn l1d(&self, node: usize) -> &CacheArray {
        &self.topo().l1d[node]
    }

    /// Read-only view of the shared L2 (tests, probes).
    pub fn l2(&self) -> &CacheArray {
        &self.topo().back.l2
    }

    /// Checks the directory invariant: every valid L1 line has its presence
    /// bit set, and every presence bit points at a valid L1 line backed by
    /// a valid L2 line (inclusion). Diagnostics / property tests.
    pub fn directory_consistent(&self) -> bool {
        let t = self.topo();
        t.dir.consistent(&t.l1d, &t.l1i, &t.back.l2)
    }
}
