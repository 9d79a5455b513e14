//! Clustered shared-cache architecture — the extension studied in the
//! authors' companion paper (reference \[16\], Nayfeh, Olukotun & Singh,
//! "The Impact of Shared-Cache Clustering in Small-Scale Shared-Memory
//! Multiprocessors", HPCA 1996).
//!
//! A middle point between the paper's shared-L1 and shared-L2 designs: the
//! CPUs form `n_cpus / cpus_per_cluster` clusters, each cluster sharing a
//! pooled write-through L1 through a small (2-cycle) crossbar; the clusters
//! share the banked L2 of the shared-L2 architecture, whose per-line
//! directory now tracks *clusters* instead of CPUs. Intra-cluster sharing
//! is nearly free; inter-cluster sharing costs an L2 round trip.
//!
//! The entire access walk lives in
//! [`DirectoryTopo`](crate::hierarchy::DirectoryTopo); this file only
//! names the scheme — several CPUs per node, a pooled L1 and a small
//! crossbar in front of each node. The cluster geometry comes straight from
//! [`SystemConfig::cpus_per_cluster`], so 4×2, 2×4, or 8×2 systems need no
//! new code.

use crate::config::SystemConfig;
use crate::hierarchy::{
    util_of_banks, DirectoryLayout, DirectoryTopo, HierarchyCore, HierarchySystem, NodeScheme,
};
use crate::{Addr, CpuId, PortUtil, LINE_BYTES};
use cmpsim_engine::{BankedResource, Cycle};

/// Extra hit latency of the intra-cluster crossbar: smaller than the
/// 4-way shared-L1 crossbar's 2 extra cycles.
const CLUSTER_L1_LAT: u64 = 2;

/// Clustered scheme: CPUs pool into cluster nodes, each sharing an L1
/// through its own banked crossbar.
#[derive(Debug)]
pub struct PerCluster {
    cpus_per_cluster: usize,
    /// One bank group per cluster, one bank per member CPU.
    banks: Vec<BankedResource>,
}

impl NodeScheme for PerCluster {
    const NAME: &'static str = "clustered";
    const NOUN: &'static str = "cluster";

    #[inline]
    fn node_of(&self, cpu: CpuId) -> usize {
        cpu / self.cpus_per_cluster
    }

    /// The cluster crossbar: the access waits for its bank (unless the
    /// shared L1 is idealized) and then hits in `CLUSTER_L1_LAT` cycles.
    #[inline]
    fn arbitrate(
        &mut self,
        core: &mut HierarchyCore,
        node: usize,
        addr: Addr,
        now: Cycle,
    ) -> (Cycle, u64) {
        if core.cfg.ideal_shared_l1 {
            return (now, 1);
        }
        let grant =
            self.banks[node].reserve(u64::from(addr / LINE_BYTES), now, core.cfg.lat.l1_occ);
        core.stats.l1_bank_wait += grant - now;
        (grant, CLUSTER_L1_LAT)
    }

    fn push_port_util(&self, out: &mut Vec<PortUtil>) {
        out.extend(self.banks.iter().map(util_of_banks));
    }
}

/// The clustered shared-L1-over-shared-L2 memory system.
pub type ClusteredSystem = HierarchySystem<DirectoryTopo<PerCluster>>;

impl ClusteredSystem {
    /// Builds the clustered system. `cfg` follows the shared-L2 paper
    /// configuration; each cluster's L1 pools the per-CPU capacity
    /// (`cpus_per_cluster` × 16 KB) with one bank per member CPU.
    ///
    /// # Panics
    ///
    /// Panics unless `cfg.n_cpus` is a multiple of a non-zero
    /// `cfg.cpus_per_cluster`. Use [`ClusteredSystem::try_new`] for a
    /// fallible variant.
    pub fn new(cfg: &SystemConfig) -> ClusteredSystem {
        ClusteredSystem::try_new(cfg).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible constructor: rejects a configuration that fails
    /// [`SystemConfig::validate`], CPU counts that leave a partial
    /// cluster (or a zero-CPU cluster) and pooled L1 geometries the cache
    /// model cannot represent.
    pub fn try_new(cfg: &SystemConfig) -> Result<ClusteredSystem, crate::ConfigError> {
        cfg.validate()?;
        let k = cfg.cpus_per_cluster;
        if k == 0 || !cfg.n_cpus.is_multiple_of(k) {
            return Err(crate::ConfigError::PartialCluster {
                n_cpus: cfg.n_cpus,
                cpus_per_cluster: k,
            });
        }
        let l1_spec = crate::CacheSpec::try_new(cfg.l1d.size_bytes * k as u32, cfg.l1d.assoc)?;
        let n_clusters = cfg.n_cpus / k;
        let scheme = PerCluster {
            cpus_per_cluster: k,
            banks: (0..n_clusters)
                .map(|_| BankedResource::new("cluster-l1-bank", k))
                .collect(),
        };
        Ok(HierarchySystem::from_parts(
            cfg,
            DirectoryTopo::build(
                cfg,
                &DirectoryLayout {
                    n_nodes: n_clusters,
                    l1i_spec: l1_spec,
                    l1d_spec: l1_spec,
                    l1i_name: "cluster-l1i",
                    l1d_name: "cluster-l1d",
                },
                scheme,
            ),
        ))
    }

    /// Number of clusters (`n_cpus / cpus_per_cluster`).
    pub fn n_clusters(&self) -> usize {
        self.topo().scheme().banks.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;
    use crate::hierarchy::directory::plant::{assert_reported, Plant};
    use crate::sentinel::{SentinelSpec, ViolationKind};
    use crate::{MemRequest, MemorySystem, ServiceLevel};
    use cmpsim_engine::Cycle;

    fn sys() -> ClusteredSystem {
        ClusteredSystem::new(&SystemConfig::paper_shared_l2(4))
    }

    #[test]
    fn intra_cluster_sharing_is_an_l1_hit() {
        let mut s = sys();
        // CPU 0 writes; CPU 1 (same cluster) reads: straight from the
        // cluster's shared L1 via the write-through-updated copy.
        s.access(Cycle(0), MemRequest::load(0, 0x1000));
        s.access(Cycle(100), MemRequest::store(0, 0x1000));
        let r = s.access(Cycle(200), MemRequest::load(1, 0x1000));
        assert_eq!(r.serviced_by, ServiceLevel::L1);
        assert_eq!(r.finish, Cycle(202), "2-cycle cluster crossbar hit");
    }

    #[test]
    fn inter_cluster_sharing_goes_through_the_l2() {
        let mut s = sys();
        s.access(Cycle(0), MemRequest::load(0, 0x2000));
        s.access(Cycle(100), MemRequest::load(2, 0x2000)); // other cluster
                                                           // CPU 0 writes: cluster 1's copy is invalidated.
        s.access(Cycle(200), MemRequest::store(0, 0x2000));
        assert_eq!(s.stats().invalidations_sent, 1);
        let r = s.access(Cycle(300), MemRequest::load(3, 0x2000));
        assert_eq!(r.serviced_by, ServiceLevel::L2);
        assert_eq!(s.stats().l1d.miss_inval, 1);
    }

    #[test]
    fn cluster_bank_conflicts_only_within_a_cluster() {
        let mut s = sys();
        s.access(Cycle(0), MemRequest::load(0, 0x1000));
        s.access(Cycle(100), MemRequest::load(2, 0x1000));
        // Same bank, same cluster: the pair conflicts.
        let a = s.access(Cycle(500), MemRequest::load(0, 0x1000));
        let b = s.access(Cycle(500), MemRequest::load(1, 0x1000));
        assert_eq!(b.finish - a.finish, 1, "intra-cluster bank wait");
        // Different clusters never conflict at the L1.
        let c = s.access(Cycle(900), MemRequest::load(0, 0x1000));
        let d = s.access(Cycle(900), MemRequest::load(2, 0x1000));
        assert_eq!(c.finish, d.finish);
    }

    #[test]
    fn ideal_mode_gives_one_cycle_hits() {
        let cfg = SystemConfig::paper_shared_l2(4).with_ideal_shared_l1(true);
        let mut s = ClusteredSystem::new(&cfg);
        s.access(Cycle(0), MemRequest::load(0, 0x3000));
        let r = s.access(Cycle(100), MemRequest::load(1, 0x3000));
        assert_eq!(r.finish, Cycle(101));
    }

    #[test]
    fn cold_miss_reaches_memory() {
        let mut s = sys();
        let r = s.access(Cycle(0), MemRequest::load(0, 0x4000));
        assert_eq!(r.serviced_by, ServiceLevel::Memory);
        assert_eq!(r.finish, Cycle(50));
    }

    #[test]
    #[should_panic(expected = "clusters must be full")]
    fn odd_cpu_counts_rejected() {
        let _ = ClusteredSystem::new(&SystemConfig::paper_shared_l2(3));
    }

    #[test]
    fn try_new_rejects_partial_clusters_with_typed_error() {
        let err = ClusteredSystem::try_new(&SystemConfig::paper_shared_l2(3)).unwrap_err();
        assert!(matches!(
            err,
            crate::ConfigError::PartialCluster {
                n_cpus: 3,
                cpus_per_cluster: 2
            }
        ));
        assert!(ClusteredSystem::try_new(&SystemConfig::paper_shared_l2(4)).is_ok());
    }

    #[test]
    fn zero_cpus_per_cluster_rejected() {
        let cfg = SystemConfig::paper_shared_l2(4).with_cpus_per_cluster(0);
        let err = ClusteredSystem::try_new(&cfg).unwrap_err();
        assert!(matches!(
            err,
            crate::ConfigError::PartialCluster {
                n_cpus: 4,
                cpus_per_cluster: 0
            }
        ));
    }

    #[test]
    fn two_by_four_geometry_runs_via_config_alone() {
        // 8 CPUs in two clusters of four: intra-cluster sharing stays an
        // L1 hit across all four members; the fourth CPU of the other
        // cluster misses to the L2.
        let cfg = SystemConfig::paper_shared_l2(8).with_cpus_per_cluster(4);
        let mut s = ClusteredSystem::new(&cfg);
        assert_eq!(s.n_cpus(), 8);
        assert_eq!(s.n_clusters(), 2);
        s.access(Cycle(0), MemRequest::load(0, 0x1000));
        let r = s.access(Cycle(100), MemRequest::load(3, 0x1000));
        assert_eq!(r.serviced_by, ServiceLevel::L1, "same cluster of four");
        let r = s.access(Cycle(200), MemRequest::load(4, 0x1000));
        assert_eq!(r.serviced_by, ServiceLevel::L2, "other cluster");
        // A write by cluster 0 invalidates cluster 1's single copy.
        s.access(Cycle(300), MemRequest::store(0, 0x1000));
        assert_eq!(s.stats().invalidations_sent, 1);
        assert!(s.directory_consistent());
    }

    #[test]
    fn single_cluster_degenerates_to_one_pooled_l1() {
        // 4 CPUs in one cluster of four: no inter-cluster traffic exists,
        // so a write never sends invalidations.
        let cfg = SystemConfig::paper_shared_l2(4).with_cpus_per_cluster(4);
        let mut s = ClusteredSystem::new(&cfg);
        assert_eq!(s.n_clusters(), 1);
        s.access(Cycle(0), MemRequest::load(0, 0x1000));
        s.access(Cycle(100), MemRequest::load(3, 0x1000));
        s.access(Cycle(200), MemRequest::store(2, 0x1000));
        assert_eq!(s.stats().invalidations_sent, 0);
        let r = s.access(Cycle(300), MemRequest::load(1, 0x1000));
        assert_eq!(r.serviced_by, ServiceLevel::L1);
    }

    #[test]
    fn sentinel_clean_traffic_has_no_violations() {
        use crate::Addr;
        let mut s = ClusteredSystem::new(
            &SystemConfig::paper_shared_l2(4).with_sentinel(SentinelSpec::on()),
        );
        for t in 0..200u64 {
            let cpu = (t % 4) as usize;
            let addr = 0x1000 + ((t * 52) % 4096) as Addr;
            if t % 3 == 0 {
                s.access(Cycle(t * 10), MemRequest::store(cpu, addr));
            } else {
                s.access(Cycle(t * 10), MemRequest::load(cpu, addr));
            }
        }
        assert!(s.violations().is_empty(), "{:?}", s.violations());
    }

    #[test]
    fn sentinel_detects_dropped_invalidations() {
        let cfg = SystemConfig::paper_shared_l2(4).with_sentinel(SentinelSpec::on());
        let s = ClusteredSystem::new(&cfg);
        assert_reported(s, Plant::StaleCopy, ViolationKind::CopyWithoutPresence);
    }

    #[test]
    fn sentinel_detects_spurious_directory_state() {
        let cfg = SystemConfig::paper_shared_l2(4).with_sentinel(SentinelSpec::on());
        let s = ClusteredSystem::new(&cfg);
        assert_reported(s, Plant::GhostBit, ViolationKind::PresenceWithoutCopy);
    }
}
