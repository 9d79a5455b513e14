//! Mesh/NoC architecture: a 2D grid of tiles over a directory-kept shared
//! L2 — the many-core extension the ROADMAP's MemPool direction calls for.
//!
//! Each CPU owns one *tile*: a private write-through L1 (shared-L2 cache
//! geometry and Table 2 latencies) plus a router with four outgoing links
//! (east/west/south/north) to its grid neighbours. The shared L2 is
//! distributed across the tiles line-interleaved — line `k` lives in the
//! L2 slice at tile `k % n_tiles` — so an L1 miss travels the mesh to its
//! *home tile* under dimension-ordered XY routing (columns first, then
//! rows), paying one [`LINK_LAT`]-cycle hop per link and contending for
//! each directed link it crosses ([`LINK_OCC`]-cycle occupancy per
//! transfer, event-driven [`Port`] reservations like every other resource
//! in the simulator). The response retraces the path latency-only — the
//! return network is modeled as contention-free, the usual
//! separate-virtual-network assumption.
//!
//! Coherence and the whole access walk are the shared-L2 architecture's
//! ([`DirectoryTopo`]): write-through no-write-allocate L1s,
//! invalidations on writes and replacements, handled at the home tile.
//! Only the interconnect differs, and it is one stage of that walk: the
//! [`Mesh`] scheme carries each miss and store to its home tile. A
//! crossbar reaches any bank in a fixed 14 cycles, while the mesh pays
//! `l2_lat + 2 * hops * LINK_LAT`, which is what makes the topology scale
//! past the crossbar's port limits.

use crate::config::{ConfigError, SystemConfig};
use crate::hierarchy::{DirectoryLayout, DirectoryTopo, HierarchySystem, NodeScheme};
use crate::{Addr, PortUtil, LINE_BYTES};
use cmpsim_engine::{Cycle, Port};

/// Latency of one router-to-router hop, in cycles.
pub const LINK_LAT: u64 = 1;

/// Cycles a line transfer occupies each directed link it crosses.
pub const LINK_OCC: u64 = 1;

/// Outgoing-link slots per tile, in `links` index order.
const E: usize = 0;
const W: usize = 1;
const S: usize = 2;
const N: usize = 3;

/// Mesh scheme: one tile per CPU, per-tile routers with directed links,
/// and a line-interleaved home-tile map.
#[derive(Debug)]
pub struct Mesh {
    rows: usize,
    cols: usize,
    /// Directed links, `tile * 4 + direction`. Edge tiles keep unused
    /// ports (never reserved) so indexing stays branch-free.
    links: Vec<Port>,
}

impl Mesh {
    /// The tile whose L2 slice is home to `addr`'s line.
    #[inline]
    fn home_of(&self, addr: Addr) -> usize {
        let line = addr / LINE_BYTES;
        line as usize % (self.rows * self.cols)
    }

    /// Routes a request from tile `from` to tile `to` under XY routing,
    /// reserving every directed link crossed. Returns the arrival time and
    /// the hop count (the response retraces the same distance
    /// latency-only).
    fn route(&mut self, from: usize, to: usize, start: Cycle) -> (Cycle, u64) {
        let (mut r, mut c) = (from / self.cols, from % self.cols);
        let (tr, tc) = (to / self.cols, to % self.cols);
        let mut t = start;
        let mut hops = 0u64;
        while c != tc {
            let d = if tc > c { E } else { W };
            let g = self.links[(r * self.cols + c) * 4 + d].reserve(t, LINK_OCC);
            t = g + LINK_LAT;
            hops += 1;
            c = if tc > c { c + 1 } else { c - 1 };
        }
        while r != tr {
            let d = if tr > r { S } else { N };
            let g = self.links[(r * self.cols + c) * 4 + d].reserve(t, LINK_OCC);
            t = g + LINK_LAT;
            hops += 1;
            r = if tr > r { r + 1 } else { r - 1 };
        }
        (t, hops)
    }
}

impl NodeScheme for Mesh {
    const NAME: &'static str = "mesh";
    const NOUN: &'static str = "tile";

    /// The mesh stage: XY-route to the home tile's L2 slice; the response
    /// pays the same hops back.
    #[inline]
    fn to_l2(&mut self, tile: usize, addr: Addr, at: Cycle) -> (Cycle, u64) {
        let (arrive, hops) = self.route(tile, self.home_of(addr), at);
        (arrive, hops * LINK_LAT)
    }

    fn push_port_util(&self, out: &mut Vec<PortUtil>) {
        let mut mesh = PortUtil {
            name: "mesh-link",
            grants: 0,
            busy_cycles: 0,
            wait_cycles: 0,
        };
        for p in &self.links {
            mesh.grants += p.grants();
            mesh.busy_cycles += p.busy_cycles();
            mesh.wait_cycles += p.wait_cycles();
        }
        out.push(mesh);
    }
}

/// The mesh multiprocessor memory system.
pub type MeshSystem = HierarchySystem<DirectoryTopo<Mesh>>;

impl MeshSystem {
    /// Builds the system from a configuration (see
    /// [`SystemConfig::paper_mesh`]).
    ///
    /// # Panics
    ///
    /// Panics on an invalid configuration; use [`MeshSystem::try_new`] to
    /// reject one without unwinding.
    pub fn new(cfg: &SystemConfig) -> MeshSystem {
        MeshSystem::try_new(cfg).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Builds the system, validating the tile grid.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if the configuration fails
    /// [`SystemConfig::validate`] — in particular when
    /// `mesh_rows * mesh_cols != n_cpus`.
    pub fn try_new(cfg: &SystemConfig) -> Result<MeshSystem, ConfigError> {
        cfg.validate()?;
        let mesh = Mesh {
            rows: cfg.mesh_rows,
            cols: cfg.mesh_cols,
            links: (0..cfg.n_cpus * 4)
                .map(|_| Port::new("mesh-link"))
                .collect(),
        };
        let layout = DirectoryLayout::private(cfg);
        Ok(HierarchySystem::from_parts(
            cfg,
            DirectoryTopo::build(cfg, &layout, mesh),
        ))
    }

    /// The tile grid as `(rows, cols)`.
    pub fn dims(&self) -> (usize, usize) {
        let mesh = self.topo().scheme();
        (mesh.rows, mesh.cols)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::LineState;
    use crate::config::SystemConfig;
    use crate::hierarchy::directory::plant::{assert_reported, Plant};
    use crate::sentinel::{SentinelSpec, ViolationKind};
    use crate::{MemRequest, MemorySystem, ServiceLevel};

    fn sys(n: usize) -> MeshSystem {
        MeshSystem::new(&SystemConfig::paper_mesh(n))
    }

    /// 0x1000 is line 128: home tile 0 at any power-of-two tile count
    /// below 128.
    const HOME0: Addr = 0x1000;

    #[test]
    fn grid_defaults_to_the_most_square_factorization() {
        assert_eq!(sys(4).dims(), (2, 2));
        assert_eq!(sys(16).dims(), (4, 4));
        assert_eq!(sys(64).dims(), (8, 8));
        assert_eq!(sys(6).dims(), (2, 3));
    }

    #[test]
    fn bad_grid_is_a_typed_error() {
        let cfg = SystemConfig::paper_mesh(16).with_mesh_dims(3, 4);
        assert_eq!(
            MeshSystem::try_new(&cfg).err(),
            Some(ConfigError::MeshGeometry {
                n_cpus: 16,
                rows: 3,
                cols: 4
            })
        );
    }

    #[test]
    fn l1_hit_is_one_cycle() {
        let mut s = sys(4);
        s.access(Cycle(0), MemRequest::load(0, HOME0));
        let r = s.access(Cycle(100), MemRequest::load(0, HOME0));
        assert_eq!(r.finish, Cycle(101));
        assert_eq!(r.serviced_by, ServiceLevel::L1);
    }

    #[test]
    fn cold_miss_at_the_home_tile_costs_memory_latency() {
        let mut s = sys(4);
        let r = s.access(Cycle(0), MemRequest::load(0, HOME0));
        assert_eq!(r.serviced_by, ServiceLevel::Memory);
        assert_eq!(r.finish, Cycle(50), "zero hops: cpu 0 is the home tile");
    }

    #[test]
    fn remote_l2_hit_pays_round_trip_hops() {
        let mut s = sys(4);
        s.access(Cycle(0), MemRequest::load(0, HOME0)); // cold: fills L2
                                                        // CPU 1 sits one hop from home tile 0 on the 2x2 grid.
        let r = s.access(Cycle(100), MemRequest::load(1, HOME0));
        assert_eq!(r.serviced_by, ServiceLevel::L2);
        assert_eq!(
            r.finish,
            Cycle(100 + 14 + 2 * LINK_LAT),
            "l2_lat plus one hop each way"
        );
    }

    #[test]
    fn corner_to_corner_pays_the_full_manhattan_distance() {
        let mut s = sys(64);
        // CPU 63 sits at (7,7); HOME0 homes at tile 0 = (0,0): 14 hops.
        let r = s.access(Cycle(0), MemRequest::load(63, HOME0));
        assert_eq!(r.serviced_by, ServiceLevel::Memory);
        assert_eq!(r.finish, Cycle(14 * LINK_LAT + 50 + 14 * LINK_LAT));
    }

    #[test]
    fn concurrent_transfers_contend_for_shared_links() {
        let mut s = sys(4);
        // Warm the L2 so both probes below are L2 hits.
        s.access(Cycle(0), MemRequest::load(0, HOME0));
        // Two same-cycle misses from tile 1 (one data, one instruction, so
        // neither hits the other's L1 fill) serialize on tile 1's west
        // link toward home tile 0.
        let a = s.access(Cycle(100), MemRequest::load(1, HOME0));
        let b = s.access(Cycle(100), MemRequest::ifetch(1, HOME0));
        assert_eq!(a.finish, Cycle(116));
        assert!(
            b.finish > a.finish,
            "the second transfer waits for the link: {:?} vs {:?}",
            b.finish,
            a.finish
        );
        let util = s.port_utilization();
        let link = util.iter().find(|u| u.name == "mesh-link").unwrap();
        assert!(link.grants >= 2);
        assert!(link.wait_cycles >= 1, "contention is visible in the util");
    }

    #[test]
    fn store_invalidates_sharers_across_tiles() {
        let mut s = sys(4);
        s.access(Cycle(0), MemRequest::load(0, HOME0));
        s.access(Cycle(100), MemRequest::load(3, HOME0));
        s.access(Cycle(200), MemRequest::store(0, HOME0));
        assert_eq!(s.stats().invalidations_sent, 1);
        assert_eq!(s.l1d(3).probe(HOME0), LineState::Invalid);
        assert_eq!(s.l1d(0).probe(HOME0), LineState::Shared, "writer keeps it");
        assert!(s.directory_consistent());
    }

    #[test]
    fn sixty_four_tiles_run_clean_under_the_sentinel() {
        let mut s =
            MeshSystem::new(&SystemConfig::paper_mesh(64).with_sentinel(SentinelSpec::on()));
        assert_eq!(s.n_cpus(), 64);
        for t in 0..400u64 {
            let cpu = (t % 64) as usize;
            let addr = 0x1000 + ((t * 52) % 8192) as Addr;
            if t % 3 == 0 {
                s.access(Cycle(t * 10), MemRequest::store(cpu, addr));
            } else {
                s.access(Cycle(t * 10), MemRequest::load(cpu, addr));
            }
        }
        assert!(s.violations().is_empty(), "{:?}", s.violations());
        assert!(s.directory_consistent());
    }

    #[test]
    fn sentinel_detects_dropped_invalidations() {
        let cfg = SystemConfig::paper_mesh(4).with_sentinel(SentinelSpec::on());
        let s = MeshSystem::new(&cfg);
        assert_reported(s, Plant::StaleCopy, ViolationKind::CopyWithoutPresence);
    }

    #[test]
    fn sentinel_detects_spurious_directory_state() {
        let cfg = SystemConfig::paper_mesh(4).with_sentinel(SentinelSpec::on());
        let s = MeshSystem::new(&cfg);
        assert_reported(s, Plant::GhostBit, ViolationKind::PresenceWithoutCopy);
    }
}
