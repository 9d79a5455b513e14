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
use crate::sentinel::ViolationKind;
use crate::stats::MemStats;
use crate::{AccessKind, Addr, CpuId, MemRequest, MemResult, PortUtil, ServiceLevel};
use cmpsim_engine::Cycle;

/// Per-line presence bitmaps over the nodes of a directory topology, with
/// the invalidation plumbing that maintains them.
///
/// Presence lives in a table parallel to the shared L2's way slots — the
/// hardware arrangement, where directory state sits next to the L2 tags.
/// Inclusion means an L1 copy implies an L2-resident line, so a slot per
/// L2 way covers every line the directory can ever need, and the store
/// path's presence lookup rides the L2 set walk it was about to do anyway
/// instead of hashing into a side map.
///
/// The table is one flat bitset allocated zeroed, with no per-slot object
/// to build or drop. Each slot holds a d-side lane then an i-side lane of
/// `lane` bits each, node `k` of slot `s` on side `d` (0 = data, 1 =
/// instruction) at bit `(2s + d) * lane + k`. `lane` is `n_nodes` rounded
/// up to a power of two up to 64 nodes and to a multiple of 64 above, so
/// a lane never straddles a word: at the paper's 4 CPUs a slot costs one
/// byte, and from 33 nodes on each lane is whole words, one per 64 nodes.
#[derive(Debug)]
pub struct Directory {
    /// The presence bitset. Invariant: every bit of a slot is zero
    /// whenever its way is invalid.
    bits: Vec<u64>,
    /// Bits per side of one slot.
    lane: usize,
    /// The low `min(lane, 64)` bits: one word's share of a lane.
    mask: u64,
    n_nodes: usize,
}

/// The set bit positions of `w`, lowest first.
fn bit_positions(mut w: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (w != 0).then(|| {
            let b = w.trailing_zeros() as usize;
            w &= w - 1;
            b
        })
    })
}

impl Directory {
    /// An empty directory over `n_nodes` nodes, tracking an L2 with
    /// `n_slots` way slots.
    pub fn new(n_nodes: usize, n_slots: usize) -> Directory {
        let lane = if n_nodes <= 64 {
            n_nodes.next_power_of_two()
        } else {
            n_nodes.next_multiple_of(64)
        };
        Directory {
            bits: vec![0; (2 * lane * n_slots).div_ceil(64)],
            lane,
            mask: u64::MAX >> (64 - lane.min(64)),
            n_nodes,
        }
    }

    /// Bit position of node 0 on `side` of `slot`.
    #[inline]
    fn lane_at(&self, slot: usize, side: usize) -> usize {
        (2 * slot + side) * self.lane
    }

    /// The bits of the lane chunk starting at bit `pos`: nodes `64c..`
    /// of a lane for chunk `c` (one chunk per lane up to 64 nodes).
    #[inline]
    fn chunk(&self, pos: usize) -> u64 {
        self.bits[pos >> 6] >> (pos & 63) & self.mask
    }

    /// Clears the bits `m` of the lane chunk starting at bit `pos`.
    #[inline]
    fn clear(&mut self, pos: usize, m: u64) {
        self.bits[pos >> 6] &= !(m << (pos & 63));
    }

    /// Sets `node`'s bit on `side` of `slot`.
    #[inline]
    fn set(&mut self, slot: usize, side: usize, node: usize) {
        let pos = self.lane_at(slot, side) + node;
        self.bits[pos >> 6] |= 1 << (pos & 63);
    }

    /// Whether `node`'s bit is set on `side` of `slot`.
    #[inline]
    fn has(&self, slot: usize, side: usize, node: usize) -> bool {
        let pos = self.lane_at(slot, side) + node;
        self.bits[pos >> 6] >> (pos & 63) & 1 != 0
    }

    /// Chunks per lane: one word's worth of nodes each.
    #[inline]
    fn chunks_per_lane(&self) -> usize {
        self.lane.div_ceil(64)
    }

    /// Records `node`'s new L1 copy of `line` and clears its bit on the
    /// victim line the fill displaced.
    pub fn note_fill(
        &mut self,
        l2: &CacheArray,
        node: usize,
        line: Addr,
        ifetch: bool,
        victim: Option<Addr>,
    ) {
        let side = usize::from(ifetch);
        if let Some(slot) = l2.slot_of(line) {
            self.set(slot, side, node);
        }
        if let Some(v) = victim {
            if let Some(slot) = l2.slot_of(v) {
                self.clear(self.lane_at(slot, side) + node, 1);
            }
        }
    }

    /// Invalidates every other node's L1 copies of `line` after a write by
    /// `writer` (directory-driven coherence).
    #[allow(clippy::too_many_arguments)] // disjoint &mut core fields, by design
    pub fn invalidate_sharers(
        &mut self,
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
        let (d, i) = (self.lane_at(slot, 0), self.lane_at(slot, 1));
        let others = |c: usize| !(u64::from(writer >> 6 == c) << (writer & 63));
        if (0..self.chunks_per_lane())
            .all(|c| (self.chunk(d + 64 * c) | self.chunk(i + 64 * c)) & others(c) == 0)
        {
            // Common case: only the writer holds the line — no victim
            // walk. (Every store funnels through here.)
            return;
        }
        for (start, caches) in [(d, &mut *l1d), (i, &mut *l1i)] {
            for c in 0..self.chunks_per_lane() {
                let pos = start + 64 * c;
                let victims = self.chunk(pos) & others(c);
                self.clear(pos, victims);
                for b in bit_positions(victims) {
                    caches[64 * c + b].invalidate(addr);
                }
                stats.invalidations_sent += u64::from(victims.count_ones());
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
        let (d, i) = (self.lane_at(slot, 0), self.lane_at(slot, 1));
        for c in 0..self.chunks_per_lane() {
            let (dp, ip) = (d + 64 * c, i + 64 * c);
            let (d_bits, i_bits) = (self.chunk(dp), self.chunk(ip));
            self.clear(dp, d_bits);
            self.clear(ip, i_bits);
            for b in bit_positions(d_bits | i_bits) {
                let node = 64 * c + b;
                if d_bits >> b & 1 != 0 {
                    l1d[node].evict(line);
                }
                if i_bits >> b & 1 != 0 {
                    l1i[node].evict(line);
                }
            }
        }
    }

    /// Checks the directory invariant over the whole table: no presence
    /// bit sits on an invalid L2 way, and [`Directory::check_line`] finds
    /// nothing wrong with any line an L1 holds or a slot's presence bits
    /// name. Diagnostics / property tests.
    pub fn consistent(&self, l1d: &[CacheArray], l1i: &[CacheArray], l2: &CacheArray) -> bool {
        let mut lines: Vec<Addr> = l1d
            .iter()
            .chain(l1i)
            .flat_map(CacheArray::valid_lines)
            .collect();
        for slot in 0..l2.n_slots() {
            let (d, i) = (self.lane_at(slot, 0), self.lane_at(slot, 1));
            if (0..self.chunks_per_lane())
                .any(|c| self.chunk(d + 64 * c) | self.chunk(i + 64 * c) != 0)
            {
                let Some(line) = l2.line_at_slot(slot) else {
                    return false; // presence bits on an invalid L2 way
                };
                lines.push(line);
            }
        }
        lines.sort_unstable();
        lines.dedup();
        lines
            .into_iter()
            .all(|line| self.check_line(l1d, l1i, l2, "node", line).is_empty())
    }

    /// The sentinel's invariant check scoped to one line, over every node:
    /// each L1 copy must be backed by a valid L2 line (inclusion) and by
    /// its presence bit, each presence bit by an L1 copy, and the
    /// write-through L1s must never hold dirty data. Returns one `(kind,
    /// detail)` per broken rule; `noun` names the node kind ("cpu",
    /// "cluster", "tile") in the details.
    pub fn check_line(
        &self,
        l1d: &[CacheArray],
        l1i: &[CacheArray],
        l2: &CacheArray,
        noun: &str,
        line: Addr,
    ) -> Vec<(ViolationKind, String)> {
        let slot = l2.slot_of(line);
        let mut found = Vec::new();
        for n in 0..self.n_nodes {
            for (cache, side, name) in [(&l1d[n], 0, "l1d"), (&l1i[n], 1, "l1i")] {
                let state = cache.probe(line);
                let bit = slot.is_some_and(|s| self.has(s, side, n));
                if state.is_valid() && slot.is_none() {
                    found.push((
                        ViolationKind::InclusionViolation,
                        format!("{noun} {n} {name} holds the line but the shared L2 does not"),
                    ));
                } else if state.is_valid() && !bit {
                    found.push((
                        ViolationKind::CopyWithoutPresence,
                        format!("{noun} {n} {name} holds the line but its directory bit is clear"),
                    ));
                }
                if bit && !state.is_valid() {
                    found.push((
                        ViolationKind::PresenceWithoutCopy,
                        format!(
                            "directory marks {noun} {n} {name} as a sharer but it holds no copy"
                        ),
                    ));
                }
                if state == LineState::Modified {
                    found.push((
                        ViolationKind::WriteThroughDirty,
                        format!("write-through {noun} {n} {name} holds the line dirty"),
                    ));
                }
            }
        }
        found
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
        self.dir
            .note_fill(&self.back.l2, node, line, ifetch, victim);
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
        let found = self
            .dir
            .check_line(&self.l1d, &self.l1i, &self.back.l2, S::NOUN, line);
        for (kind, detail) in found {
            core.sentinel.report(now.0, cpu, line, kind, detail);
        }
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

    /// Checks the directory invariant over the whole table (see
    /// [`Directory::consistent`]). Diagnostics / property tests.
    pub fn directory_consistent(&self) -> bool {
        let t = self.topo();
        t.dir.consistent(&t.l1d, &t.l1i, &t.back.l2)
    }
}

/// Faults planted straight into a directory machine's state, for the
/// tests that check the sentinel reports each one.
#[cfg(test)]
pub(crate) mod plant {
    use super::*;
    use crate::MemorySystem;

    /// The line every planted fault sits on.
    const LINE: Addr = 0x1000;

    /// A fault in a directory machine's state, planted on `LINE` after
    /// CPU 0 and the machine's last CPU (on another node) read it and
    /// CPU 0 wrote it.
    #[derive(Debug, Clone, Copy)]
    pub(crate) enum Plant {
        /// The last CPU's node gets back the copy the store invalidated,
        /// as a dropped invalidation would leave it.
        StaleCopy,
        /// The last CPU's node gets back its presence bit, with no copy.
        GhostBit,
        /// The L2 drops the line while CPU 0's node keeps its L1 copy.
        Uncovered,
        /// CPU 0's node's write-through copy turns dirty.
        Dirty,
    }

    /// Runs the accesses above on `s` (sentinel on), plants `fault` and
    /// has CPU 0 load the line again, so the sentinel checks it. Asserts
    /// that the check reports exactly one violation, of `kind`, and that
    /// its detail names the node the fault sits on.
    pub(crate) fn assert_reported<S: NodeScheme>(
        mut s: HierarchySystem<DirectoryTopo<S>>,
        fault: Plant,
        kind: ViolationKind,
    ) {
        let last = s.n_cpus() - 1;
        s.access(Cycle(0), MemRequest::load(0, LINE));
        s.access(Cycle(100), MemRequest::load(last, LINE));
        s.access(Cycle(200), MemRequest::store(0, LINE));
        assert!(s.violations().is_empty(), "{:?}", s.violations());
        let t = s.topo_mut();
        let (near, far) = (t.scheme.node_of(0), t.scheme.node_of(last));
        assert_ne!(near, far);
        let slot = t.back.l2.slot_of(LINE).expect("the L2 holds the line");
        let node = match fault {
            Plant::StaleCopy => {
                t.l1d[far].fill(LINE, LineState::Shared);
                far
            }
            Plant::GhostBit => {
                t.dir.set(slot, 0, far);
                far
            }
            Plant::Uncovered => {
                t.back.l2.evict(LINE);
                near
            }
            Plant::Dirty => {
                t.l1d[near].set_state(LINE, LineState::Modified);
                near
            }
        };
        s.access(Cycle(300), MemRequest::load(0, LINE));
        let noun = S::NOUN;
        let [v] = s.violations() else {
            panic!("{fault:?} on the {noun} machine: {:?}", s.violations());
        };
        assert_eq!(v.kind, kind, "{fault:?} on the {noun} machine");
        let at = format!("{noun} {node} l1d");
        assert!(v.detail.contains(&at), "{:?} does not name {at}", v.detail);
    }
}

#[cfg(test)]
mod tests {
    use super::plant::{assert_reported, Plant};
    use super::*;
    use crate::sentinel::SentinelSpec;
    use crate::{ClusteredSystem, MeshSystem, SharedL2System};

    /// A slot costs two lanes of bits, each lane `n_nodes` rounded up to a
    /// power of two up to 64 and to a multiple of 64 above — never more
    /// than one 64-bit word per side per 64 nodes (16·⌈n/64⌉ B).
    #[test]
    fn a_way_costs_two_presence_lanes_sized_to_the_node_count() {
        let n_slots = 64;
        for (n_nodes, lane) in [
            (1, 1),
            (3, 4),
            (4, 4),
            (33, 64),
            (64, 64),
            (65, 128),
            (130, 192),
        ] {
            let dir = Directory::new(n_nodes, n_slots);
            assert_eq!(dir.lane, lane, "{n_nodes} nodes");
            let bytes = 8 * dir.bits.len();
            assert_eq!(8 * bytes, 2 * lane * n_slots, "{n_nodes} nodes");
            assert!(
                bytes <= 16 * n_nodes.div_ceil(64) * n_slots,
                "{n_nodes} nodes"
            );
        }
        // The paper's 2 MB direct-mapped L2 at 4 CPUs: 64 KiB of presence.
        let dir = Directory::new(4, 64 * 1024);
        assert_eq!(8 * dir.bits.len(), 64 * 1024);
    }

    /// The victim walk crosses presence words and both sides: nodes 65
    /// (both sides) and 130 (d side) lose their copies, the writer keeps
    /// its own, and only the writer's bit survives in the slot.
    #[test]
    fn a_store_invalidates_every_other_node_across_words_and_sides() {
        let n = 131;
        let l1 = CacheSpec::new(1024, 2);
        let mut l1d: Vec<_> = (0..n).map(|_| CacheArray::new("l1d", l1)).collect();
        let mut l1i: Vec<_> = (0..n).map(|_| CacheArray::new("l1i", l1)).collect();
        let mut l2 = CacheArray::new("l2", CacheSpec::new(4096, 1));
        let line = 0x40;
        l2.fill(line, LineState::Exclusive);
        let mut dir = Directory::new(n, l2.n_slots());
        for (node, ifetch) in [(130, false), (65, true), (65, false), (0, false)] {
            let cache = if ifetch {
                &mut l1i[node]
            } else {
                &mut l1d[node]
            };
            cache.fill(line, LineState::Shared);
            dir.note_fill(&l2, node, line, ifetch, None);
        }
        let mut stats = MemStats::new();
        dir.invalidate_sharers(&mut stats, &mut l1d, &mut l1i, &l2, 0, line, line);
        assert_eq!(stats.invalidations_sent, 3);
        assert!(l1d[0].probe(line).is_valid(), "the writer keeps its copy");
        for cache in [&l1d[65], &l1i[65], &l1d[130]] {
            assert!(!cache.probe(line).is_valid());
        }
        let slot = l2.slot_of(line).expect("resident");
        for node in 0..n {
            for side in 0..2 {
                let kept = (side, node) == (0, 0);
                assert_eq!(dir.has(slot, side, node), kept, "side {side} node {node}");
            }
        }
        assert!(dir.consistent(&l1d, &l1i, &l2));
    }

    /// Below 33 nodes several slots share a word. Bits planted in the
    /// slots on either side of `s` (every node, both sides) survive a
    /// store's invalidation and an L2 eviction on `s`, which clear only
    /// `s`'s own lanes.
    #[test]
    fn clearing_a_slot_leaves_its_word_neighbours_set() {
        for n in [3, 5] {
            let l1 = CacheSpec::new(1024, 2);
            let mut l1d: Vec<_> = (0..n).map(|_| CacheArray::new("l1d", l1)).collect();
            let mut l1i: Vec<_> = (0..n).map(|_| CacheArray::new("l1i", l1)).collect();
            let mut l2 = CacheArray::new("l2", CacheSpec::new(4096, 1));
            let line: Addr = 0x20;
            l2.fill(line, LineState::Exclusive);
            let s = l2.slot_of(line).expect("resident");
            let mut dir = Directory::new(n, l2.n_slots());
            assert_eq!(
                dir.lane_at(s - 1, 0) >> 6,
                dir.lane_at(s + 1, 1) >> 6,
                "{n} nodes: slots s - 1 to s + 1 share a word"
            );
            let neighbours = [s - 1, s + 1];
            for slot in neighbours {
                for node in 0..n {
                    dir.set(slot, 0, node);
                    dir.set(slot, 1, node);
                }
            }
            for node in 0..n {
                for cache in [&mut l1d[node], &mut l1i[node]] {
                    cache.fill(line, LineState::Shared);
                }
                dir.set(s, 0, node);
                dir.set(s, 1, node);
            }
            let mut stats = MemStats::new();
            dir.invalidate_sharers(&mut stats, &mut l1d, &mut l1i, &l2, 0, line, line);
            assert_eq!(stats.invalidations_sent, 2 * n as u64 - 2, "{n} nodes");
            dir.back_invalidate_slot(&mut l1d, &mut l1i, s, line);
            for node in 0..n {
                for side in 0..2 {
                    assert!(!dir.has(s, side, node), "{n} nodes: slot s keeps a bit");
                    for slot in neighbours {
                        assert!(
                            dir.has(slot, side, node),
                            "{n} nodes: slot {slot} lost a bit"
                        );
                    }
                }
                assert!(!l1d[node].probe(line).is_valid() && !l1i[node].probe(line).is_valid());
            }
        }
    }

    /// Plants `fault` on each directory machine — shared-L2, clustered
    /// (two CPUs per node) and mesh, 4 CPUs each. A stale copy and a
    /// ghost bit are planted machine by machine in each machine's tests.
    fn assert_reported_everywhere(fault: Plant, kind: ViolationKind) {
        let on = SentinelSpec::on();
        let l2 = SystemConfig::paper_shared_l2(4).with_sentinel(on);
        let mesh = SystemConfig::paper_mesh(4).with_sentinel(on);
        assert_reported(SharedL2System::new(&l2), fault, kind);
        assert_reported(ClusteredSystem::new(&l2), fault, kind);
        assert_reported(MeshSystem::new(&mesh), fault, kind);
    }

    #[test]
    fn an_l1_line_the_l2_no_longer_holds_is_an_inclusion_violation() {
        assert_reported_everywhere(Plant::Uncovered, ViolationKind::InclusionViolation);
    }

    #[test]
    fn a_dirty_write_through_line_is_reported() {
        assert_reported_everywhere(Plant::Dirty, ViolationKind::WriteThroughDirty);
    }
}
