//! Cross-system contract suite: every invariant here must hold for all
//! five memory-system topologies, because upper layers (the CPU models,
//! the run harness, the report generator) rely on them without knowing
//! which architecture they drive.
//!
//! The latency contracts pin Table 2 of the paper in contention-free
//! form: a cold miss always pays the full memory latency, and the L1/L2
//! service deltas are the per-architecture numbers the paper's fixed
//! latencies imply.

use cmpsim_engine::Cycle;
use cmpsim_mem::{
    ClusteredSystem, MemRequest, MemResult, MemorySystem, MeshSystem, ServiceLevel, SharedL1System,
    SharedL2System, SharedMemSystem, SystemConfig, LINE_BYTES,
};

const ADDR: u32 = 0x4000;

/// One topology plus its Table 2 contention-free latency expectations.
struct Contract {
    arch: &'static str,
    make: fn(usize) -> Box<dyn MemorySystem>,
    /// Finish delta of an uncontended L1 hit.
    l1_hit: u64,
    /// Finish delta of an uncontended L2-serviced access.
    l2_hit: u64,
    /// After CPU 0 cold-fills `ADDR` at cycle 0, runs this topology's
    /// L2-service scenario and returns the probing access's result. The
    /// probe is issued at `at`; any setup uses earlier cycles.
    l2_probe: fn(&mut Box<dyn MemorySystem>, Cycle) -> MemResult,
}

fn contracts() -> Vec<Contract> {
    vec![
        Contract {
            arch: "shared-L1",
            make: |n| Box::new(SharedL1System::new(&SystemConfig::paper_shared_l1(n))),
            l1_hit: 3,
            l2_hit: 10,
            // Evict ADDR from the 2-way shared L1 (32 KB way stride); it
            // stays resident in the L2.
            l2_probe: |s, at| {
                s.access(Cycle(at.0 - 2000), MemRequest::load(0, ADDR + 0x8000));
                s.access(Cycle(at.0 - 1000), MemRequest::load(0, ADDR + 0x1_0000));
                s.access(at, MemRequest::load(0, ADDR))
            },
        },
        Contract {
            arch: "shared-L2",
            make: |n| Box::new(SharedL2System::new(&SystemConfig::paper_shared_l2(n))),
            l1_hit: 1,
            l2_hit: 14,
            // A second CPU reads the line: its private L1 misses, the
            // shared L2 services it.
            l2_probe: |s, at| s.access(at, MemRequest::load(1, ADDR)),
        },
        Contract {
            arch: "shared-memory",
            make: |n| Box::new(SharedMemSystem::new(&SystemConfig::paper_shared_mem(n))),
            l1_hit: 1,
            l2_hit: 10,
            // Evict ADDR from CPU 0's 16 KB 2-way private L1 (8 KB way
            // stride); the refill hits its private L2 without a bus trip.
            l2_probe: |s, at| {
                s.access(Cycle(at.0 - 2000), MemRequest::load(0, ADDR + 0x2000));
                s.access(Cycle(at.0 - 1000), MemRequest::load(0, ADDR + 0x4000));
                s.access(at, MemRequest::load(0, ADDR))
            },
        },
        Contract {
            arch: "clustered",
            make: |n| Box::new(ClusteredSystem::new(&SystemConfig::paper_shared_l2(n))),
            l1_hit: 2,
            l2_hit: 14,
            // A CPU in the *other* cluster reads the line: its cluster L1
            // misses, the shared L2 services it.
            l2_probe: |s, at| s.access(at, MemRequest::load(2, ADDR)),
        },
        Contract {
            arch: "mesh",
            make: |n| Box::new(MeshSystem::new(&SystemConfig::paper_mesh(n))),
            l1_hit: 1,
            // `ADDR` homes at tile 0; CPU 1 sits one hop away, so the
            // shared-L2 latency picks up one link hop each way.
            l2_hit: 16,
            // A neighbouring tile reads the line: its private L1 misses,
            // the home tile's L2 slice services it over the mesh.
            l2_probe: |s, at| s.access(at, MemRequest::load(1, ADDR)),
        },
    ]
}

#[test]
fn cold_miss_pays_full_memory_latency_everywhere() {
    for c in contracts() {
        let mut s = (c.make)(4);
        let r = s.access(Cycle(0), MemRequest::load(0, ADDR));
        assert_eq!(r.finish, Cycle(50), "{}: cold miss latency", c.arch);
        assert_eq!(r.serviced_by, ServiceLevel::Memory, "{}", c.arch);
    }
}

#[test]
fn l1_hit_latency_matches_table2() {
    for c in contracts() {
        let mut s = (c.make)(4);
        s.access(Cycle(0), MemRequest::load(0, ADDR));
        let r = s.access(Cycle(10_000), MemRequest::load(0, ADDR));
        assert_eq!(r.serviced_by, ServiceLevel::L1, "{}", c.arch);
        assert_eq!(
            r.finish - Cycle(10_000),
            c.l1_hit,
            "{}: L1 hit latency",
            c.arch
        );
    }
}

#[test]
fn l2_service_latency_matches_table2() {
    for c in contracts() {
        let mut s = (c.make)(4);
        s.access(Cycle(0), MemRequest::load(0, ADDR));
        let r = (c.l2_probe)(&mut s, Cycle(10_000));
        assert_eq!(r.serviced_by, ServiceLevel::L2, "{}", c.arch);
        assert_eq!(
            r.finish - Cycle(10_000),
            c.l2_hit,
            "{}: L2 service latency",
            c.arch
        );
    }
}

/// `load_would_hit_l1` is the MXS model's MSHR-admission oracle: its
/// prediction must agree with what an immediately following load actually
/// does, for every CPU — including cluster-mates that share an L1.
#[test]
fn load_would_hit_l1_agrees_with_a_subsequent_load() {
    for c in contracts() {
        for cpu in 0..4 {
            let mut s = (c.make)(4);
            assert!(
                !s.load_would_hit_l1(cpu, ADDR),
                "{} cpu{cpu}: cold caches hold nothing",
                c.arch
            );
            s.access(Cycle(0), MemRequest::load(0, ADDR));
            let predicted = s.load_would_hit_l1(cpu, ADDR);
            let r = s.access(Cycle(10_000), MemRequest::load(cpu, ADDR));
            assert_eq!(
                predicted,
                r.serviced_by == ServiceLevel::L1,
                "{} cpu{cpu}: prediction disagrees with the actual load",
                c.arch
            );
        }
    }
}

/// The run harness zeroes statistics at the region-of-interest marker via
/// `stats_mut().reset()`; counters must restart from zero on every
/// topology, and later accesses must keep counting normally.
#[test]
fn stats_reset_at_roi_clears_every_counter() {
    for c in contracts() {
        let mut s = (c.make)(4);
        for i in 0..8u64 {
            s.access(
                Cycle(i * 100),
                MemRequest::load((i % 4) as usize, ADDR + 0x40 * i as u32),
            );
            s.access(Cycle(i * 100 + 50), MemRequest::store(0, 0x9000));
        }
        assert!(s.stats().l1d.accesses > 0, "{}", c.arch);
        assert!(s.stats().latency.total() > 0, "{}", c.arch);
        s.stats_mut().reset();
        assert_eq!(s.stats().l1d.accesses, 0, "{}: reset clears L1D", c.arch);
        assert_eq!(s.stats().mem_accesses, 0, "{}: reset clears memory", c.arch);
        assert_eq!(
            s.stats().latency.total(),
            0,
            "{}: reset clears the histogram",
            c.arch
        );
        s.access(Cycle(100_000), MemRequest::load(0, ADDR));
        assert_eq!(s.stats().l1d.accesses, 1, "{}: counting resumes", c.arch);
        assert_eq!(s.stats().latency.total(), 1, "{}", c.arch);
    }
}

#[test]
fn line_size_cpu_count_and_name_are_reported() {
    for c in contracts() {
        for n in [4usize, 8] {
            let mut s = (c.make)(n);
            // One miss fills exactly one `LINE_BYTES`-wide line.
            s.access(Cycle(0), MemRequest::load(0, ADDR));
            assert!(s.load_would_hit_l1(0, ADDR + LINE_BYTES - 4), "{}", c.arch);
            assert!(!s.load_would_hit_l1(0, ADDR + LINE_BYTES), "{}", c.arch);
            assert_eq!(s.n_cpus(), n, "{}", c.arch);
            assert_eq!(s.name(), c.arch);
        }
    }
}

/// Acceptance criterion: non-default geometries run end-to-end through
/// `SystemConfig` alone — no per-topology constructor arguments.
#[test]
fn eight_cpu_shared_l2_runs_via_config_alone() {
    let mut s = SharedL2System::new(&SystemConfig::paper_shared_l2(8));
    for cpu in 0..8 {
        s.access(Cycle(cpu as u64 * 100), MemRequest::load(cpu, ADDR));
    }
    s.access(Cycle(10_000), MemRequest::store(7, ADDR));
    assert_eq!(
        s.stats().invalidations_sent,
        7,
        "an 8th-CPU store invalidates the other seven copies"
    );
}

#[test]
fn clustered_4x2_and_2x4_run_via_config_alone() {
    // 4 clusters × 2 CPUs (the default geometry at 8 CPUs).
    let mut s = ClusteredSystem::new(&SystemConfig::paper_shared_l2(8));
    assert_eq!(s.n_clusters(), 4);
    s.access(Cycle(0), MemRequest::load(0, ADDR));
    let r = s.access(Cycle(1000), MemRequest::load(1, ADDR));
    assert_eq!(
        r.serviced_by,
        ServiceLevel::L1,
        "cluster-mate shares the L1"
    );
    let r = s.access(Cycle(2000), MemRequest::load(7, ADDR));
    assert_eq!(
        r.serviced_by,
        ServiceLevel::L2,
        "far cluster goes to the L2"
    );
    assert!(s.directory_consistent());

    // 2 clusters × 4 CPUs via the config knob.
    let cfg = SystemConfig::paper_shared_l2(8).with_cpus_per_cluster(4);
    let mut s = ClusteredSystem::new(&cfg);
    assert_eq!(s.n_clusters(), 2);
    s.access(Cycle(0), MemRequest::load(0, ADDR));
    let r = s.access(Cycle(1000), MemRequest::load(3, ADDR));
    assert_eq!(
        r.serviced_by,
        ServiceLevel::L1,
        "cpu 3 shares cluster 0's L1"
    );
    s.access(Cycle(2000), MemRequest::store(4, ADDR));
    assert_eq!(
        s.stats().invalidations_sent,
        1,
        "one cluster L1 invalidated"
    );
    assert!(s.directory_consistent());
}
