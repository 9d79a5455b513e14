//! Configuration: cache geometries and the paper's latency/occupancy table.

use crate::sentinel::SentinelSpec;
use crate::LINE_BYTES;
use std::fmt;

/// A rejected configuration, with enough context to correct it.
///
/// The `new`-style constructors across the workspace keep their historical
/// panicking behavior for infallible call sites, but every panic now routes
/// through a `try_`/`validate` variant returning this type, so embedding
/// code (benches, sweeps, config files) can reject bad configurations
/// without unwinding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// A size that the geometry math requires to be a power of two.
    NotPowerOfTwo {
        /// Which parameter ("cache size", "BTB size").
        what: &'static str,
        /// The offending value.
        value: u64,
    },
    /// Associativity of zero.
    ZeroAssociativity,
    /// A count or latency of zero.
    Zero {
        /// Which parameter ("L1 bank count", "L2 bank count", "L1 hit
        /// latency", "MXS reorder window", ...).
        what: &'static str,
    },
    /// Capacity below one full set (`assoc * LINE_BYTES`).
    CacheTooSmall {
        /// Requested capacity in bytes.
        size_bytes: u32,
        /// Requested associativity.
        assoc: usize,
    },
    /// CPU count exceeds the validation ceiling.
    TooManyCpus {
        /// Requested CPU count.
        n_cpus: usize,
        /// Supported maximum ([`SystemConfig::MAX_CPUS`]).
        max: usize,
    },
    /// Zero CPUs.
    NoCpus,
    /// The mesh architecture requires its tile grid to cover the CPUs
    /// exactly.
    MeshGeometry {
        /// Requested CPU count.
        n_cpus: usize,
        /// Requested mesh rows.
        rows: usize,
        /// Requested mesh columns.
        cols: usize,
    },
    /// The clustered architecture requires full clusters.
    PartialCluster {
        /// Requested CPU count.
        n_cpus: usize,
        /// CPUs per cluster.
        cpus_per_cluster: usize,
    },
    /// A size above what its structures hold: a cache associativity past
    /// the 3-bit LRU rank of a packed tag word, an MXS fetch width past
    /// the fetch buffer, a window whose `32 + rob_entries` registers
    /// outgrow the 16-bit register indices, or a BTB past its ceiling.
    OutOfRange {
        /// Which parameter ("cache associativity", "MXS fetch width",
        /// "MXS reorder window", "BTB size").
        what: &'static str,
        /// The requested value.
        value: usize,
        /// The largest value allowed.
        max: usize,
    },
    /// A process's private region would reach the shared kernel mapping.
    KernelOverlap {
        /// Offending address-space id.
        asid: u32,
    },
    /// A workload was installed into a machine with a different CPU count.
    WorkloadCpuMismatch {
        /// CPUs the workload was built for.
        workload: usize,
        /// CPUs the machine has.
        machine: usize,
    },
    /// A machine configuration asked for a shard count other than 1.
    /// Every run is one serial loop; the shard count survives only as a
    /// retired field that accepts 1.
    ShardsRetired {
        /// The requested shard count.
        shards: usize,
    },
    /// Reference-trace capture of more CPUs than a trace record's CPU
    /// field can name.
    CaptureTooManyCpus {
        /// Requested CPU count.
        n_cpus: usize,
        /// Most CPUs a trace can carry.
        max: usize,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::NotPowerOfTwo { what, value } => {
                write!(f, "{what} must be a power of two (got {value})")
            }
            ConfigError::ZeroAssociativity => {
                write!(f, "associativity must be at least 1")
            }
            ConfigError::Zero { what } => write!(f, "{what} must be at least 1"),
            ConfigError::CacheTooSmall { size_bytes, assoc } => write!(
                f,
                "cache smaller than assoc * line ({size_bytes} B < {assoc} x {LINE_BYTES} B)"
            ),
            ConfigError::TooManyCpus { n_cpus, max } => {
                write!(f, "{n_cpus} CPUs exceed the {max}-CPU validation ceiling")
            }
            ConfigError::NoCpus => write!(f, "a machine needs at least one CPU"),
            ConfigError::MeshGeometry { n_cpus, rows, cols } => write!(
                f,
                "mesh tiles must cover the CPUs exactly: {rows} x {cols} != {n_cpus}"
            ),
            ConfigError::PartialCluster {
                n_cpus,
                cpus_per_cluster,
            } => write!(
                f,
                "clusters must be full: {n_cpus} CPUs with {cpus_per_cluster} per cluster"
            ),
            ConfigError::OutOfRange { what, value, max } => {
                write!(f, "{what} must be 1..={max} (got {value})")
            }
            ConfigError::KernelOverlap { asid } => {
                write!(f, "asid {asid} private region overlaps kernel space")
            }
            ConfigError::WorkloadCpuMismatch { workload, machine } => write!(
                f,
                "workload built for a different CPU count \
                 ({workload} workload vs {machine} machine)"
            ),
            ConfigError::ShardsRetired { shards } => write!(
                f,
                "shards = {shards}: sharded runs were removed; \
                 every run uses one serial loop (leave shards unset or 1)"
            ),
            ConfigError::CaptureTooManyCpus { n_cpus, max } => write!(
                f,
                "trace capture carries at most {max} CPUs (got {n_cpus}); \
                 run this machine without capture"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Geometry of one cache. Every cache has [`LINE_BYTES`]-byte lines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheSpec {
    /// Total capacity in bytes.
    pub size_bytes: u32,
    /// Associativity (1 = direct-mapped, at most
    /// [`CacheSpec::MAX_ASSOC`]).
    pub assoc: usize,
}

impl CacheSpec {
    /// The most ways a set may have: [`crate::CacheArray`] keeps each
    /// way's LRU rank in the three tag-word bits a 32-byte line leaves
    /// free beside the line state.
    pub const MAX_ASSOC: usize = 8;

    /// Creates and validates a cache geometry.
    ///
    /// # Panics
    ///
    /// Panics if the size is not a power of two or the capacity is not an
    /// integer number of sets. Use [`CacheSpec::try_new`] to reject bad
    /// geometries without unwinding.
    pub fn new(size_bytes: u32, assoc: usize) -> CacheSpec {
        CacheSpec::try_new(size_bytes, assoc).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Validates a cache geometry, returning a typed error instead of
    /// panicking.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if the size is not a power of two, the
    /// associativity is zero, the capacity is below one full set, or the
    /// associativity exceeds [`CacheSpec::MAX_ASSOC`].
    pub fn try_new(size_bytes: u32, assoc: usize) -> Result<CacheSpec, ConfigError> {
        if !size_bytes.is_power_of_two() {
            return Err(ConfigError::NotPowerOfTwo {
                what: "cache size",
                value: u64::from(size_bytes),
            });
        }
        if assoc == 0 {
            return Err(ConfigError::ZeroAssociativity);
        }
        let spec = CacheSpec { size_bytes, assoc };
        if spec.n_sets() < 1 {
            return Err(ConfigError::CacheTooSmall { size_bytes, assoc });
        }
        if assoc > CacheSpec::MAX_ASSOC {
            return Err(ConfigError::OutOfRange {
                what: "cache associativity",
                value: assoc,
                max: CacheSpec::MAX_ASSOC,
            });
        }
        Ok(spec)
    }

    /// Number of sets.
    pub fn n_sets(&self) -> usize {
        self.n_lines() / self.assoc
    }

    /// Number of lines.
    pub fn n_lines(&self) -> usize {
        (self.size_bytes / LINE_BYTES) as usize
    }
}

/// Contention-free latencies and occupancies, in CPU cycles — Table 2 of
/// the paper (1 cycle = 5 ns at 200 MHz).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencySpec {
    /// L1 hit latency (3 for the shared L1 including crossbar, 1 otherwise).
    pub l1_lat: u64,
    /// L1 bank occupancy (1 everywhere — banks are pipelined).
    pub l1_occ: u64,
    /// L2 hit latency (10, or 14 for the shared L2 behind the crossbar).
    pub l2_lat: u64,
    /// L2 bank occupancy per 32-byte line (2 with a 128-bit path, 4 with the
    /// shared-L2's 64-bit path).
    pub l2_occ: u64,
    /// Main-memory latency (50).
    pub mem_lat: u64,
    /// Main-memory occupancy (6).
    pub mem_occ: u64,
    /// Cache-to-cache transfer latency on the snooping bus (">50"; we use
    /// 60: bus arbitration + remote L2 tag check + data return).
    pub c2c_lat: u64,
    /// Bus occupancy of a cache-to-cache transfer.
    pub c2c_occ: u64,
    /// Latency of an invalidate/upgrade bus transaction (address-only; the
    /// paper gives no number — we assume bus arbitration + snoop response).
    pub upgrade_lat: u64,
    /// Bus occupancy of an upgrade (address-only transaction).
    pub upgrade_occ: u64,
}

impl LatencySpec {
    /// Table 2, shared-L1 row.
    pub fn shared_l1() -> LatencySpec {
        LatencySpec {
            l1_lat: 3,
            l1_occ: 1,
            l2_lat: 10,
            l2_occ: 2,
            mem_lat: 50,
            mem_occ: 6,
            c2c_lat: 60,
            c2c_occ: 6,
            upgrade_lat: 20,
            upgrade_occ: 3,
        }
    }

    /// Table 2, shared-L2 row.
    pub fn shared_l2() -> LatencySpec {
        LatencySpec {
            l1_lat: 1,
            l2_lat: 14,
            l2_occ: 4,
            ..LatencySpec::shared_l1()
        }
    }

    /// Table 2, shared-memory row.
    pub fn shared_mem() -> LatencySpec {
        LatencySpec {
            l1_lat: 1,
            l2_lat: 10,
            l2_occ: 2,
            ..LatencySpec::shared_l1()
        }
    }
}

/// Full configuration of one memory system.
///
/// Use the `paper_*` constructors for the paper's three architectures and
/// the `with_*` builders for the ablation studies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SystemConfig {
    /// Number of CPUs (the paper studies 4).
    pub n_cpus: usize,
    /// Instruction L1 geometry. Per CPU for private configurations; total
    /// for the shared-L1 architecture.
    pub l1i: CacheSpec,
    /// Data L1 geometry (same convention).
    pub l1d: CacheSpec,
    /// L2 geometry. Total for shared configurations; per CPU for the
    /// shared-memory architecture.
    pub l2: CacheSpec,
    /// Latency/occupancy table.
    pub lat: LatencySpec,
    /// Number of L1 banks (shared-L1 architecture).
    pub l1_banks: usize,
    /// Number of L2 banks (shared-L2 architecture).
    pub l2_banks: usize,
    /// CPUs sharing each cluster L1 (clustered architecture; the paper's
    /// companion study uses 2). `n_cpus` must be a multiple of this —
    /// `clusters = n_cpus / cpus_per_cluster`. Other architectures ignore
    /// it.
    pub cpus_per_cluster: usize,
    /// Mesh rows (mesh architecture). `mesh_rows * mesh_cols` must equal
    /// `n_cpus`; the `paper_*` constructors derive a near-square grid.
    /// Other architectures ignore it.
    pub mesh_rows: usize,
    /// Mesh columns (mesh architecture; see `mesh_rows`).
    pub mesh_cols: usize,
    /// Idealize the shared L1 (1-cycle hit, no bank contention) — the
    /// paper's Mipsy runs do this to avoid penalizing the shared-L1
    /// architecture on a CPU model with no latency hiding. It applies to
    /// the L1s several CPUs share (shared-L1, clustered); private L1s
    /// ignore it.
    pub ideal_shared_l1: bool,
    /// Coherence-sentinel configuration (the invariant checker). Off by
    /// default.
    pub sentinel: SentinelSpec,
}

impl SystemConfig {
    /// Most CPUs a validated configuration may have: a sanity ceiling, so
    /// a mistyped CPU count fails fast instead of allocating gigabytes of
    /// cache model.
    pub const MAX_CPUS: usize = 1024;

    /// Shared-primary-cache architecture (Figure 1): 4 CPUs share banked
    /// 64 KB I and D caches through a crossbar; uniprocessor-like L2 and
    /// memory below.
    pub fn paper_shared_l1(n_cpus: usize) -> SystemConfig {
        SystemConfig {
            n_cpus,
            // 4 x 16 KB, pooled into one shared 2-way cache.
            l1i: CacheSpec::new(64 * 1024, 2),
            l1d: CacheSpec::new(64 * 1024, 2),
            l2: CacheSpec::new(2 * 1024 * 1024, 1),
            lat: LatencySpec::shared_l1(),
            l1_banks: 4,
            l2_banks: 1,
            cpus_per_cluster: 2,
            mesh_rows: default_mesh_dims(n_cpus).0,
            mesh_cols: default_mesh_dims(n_cpus).1,
            ideal_shared_l1: false,
            sentinel: SentinelSpec::off(),
        }
    }

    /// Shared-secondary-cache architecture (Figure 2): private write-through
    /// 16 KB L1s over a 4-banked shared 2 MB L2 behind a crossbar.
    pub fn paper_shared_l2(n_cpus: usize) -> SystemConfig {
        SystemConfig {
            n_cpus,
            l1i: CacheSpec::new(16 * 1024, 2),
            l1d: CacheSpec::new(16 * 1024, 2),
            l2: CacheSpec::new(2 * 1024 * 1024, 1),
            lat: LatencySpec::shared_l2(),
            l1_banks: 1,
            l2_banks: 4,
            cpus_per_cluster: 2,
            mesh_rows: default_mesh_dims(n_cpus).0,
            mesh_cols: default_mesh_dims(n_cpus).1,
            ideal_shared_l1: false,
            sentinel: SentinelSpec::off(),
        }
    }

    /// Mesh/NoC architecture: per-tile write-through 16 KB L1s on a 2D
    /// mesh of point-to-point links over the banked shared L2 (shared-L2
    /// cache geometry and Table 2 latencies; the interconnect adds
    /// XY-routing hop latency and per-link contention on top). The grid
    /// defaults to the most-square factorization of `n_cpus`; override it
    /// with [`SystemConfig::with_mesh_dims`].
    pub fn paper_mesh(n_cpus: usize) -> SystemConfig {
        SystemConfig::paper_shared_l2(n_cpus)
    }

    /// Bus-based shared-memory architecture (Figure 3): private write-back
    /// 16 KB L1s, private 512 KB L2 per CPU, snooping MESI bus to memory.
    pub fn paper_shared_mem(n_cpus: usize) -> SystemConfig {
        SystemConfig {
            n_cpus,
            l1i: CacheSpec::new(16 * 1024, 2),
            l1d: CacheSpec::new(16 * 1024, 2),
            // 2 MB total, divided among the CPUs.
            l2: CacheSpec::new(512 * 1024, 1),
            lat: LatencySpec::shared_mem(),
            l1_banks: 1,
            l2_banks: 1,
            cpus_per_cluster: 2,
            mesh_rows: default_mesh_dims(n_cpus).0,
            mesh_cols: default_mesh_dims(n_cpus).1,
            ideal_shared_l1: false,
            sentinel: SentinelSpec::off(),
        }
    }

    /// Overrides the L2 associativity (the paper's MP3D ablation uses 4).
    /// [`SystemConfig::validate`] checks the resulting geometry, as it
    /// checks every override.
    #[must_use]
    pub fn with_l2_assoc(mut self, assoc: usize) -> SystemConfig {
        self.l2.assoc = assoc;
        self
    }

    /// Overrides the L2 capacity (size ablations; associativity is
    /// preserved). Total for shared configurations, per CPU for
    /// the shared-memory architecture — the same convention as the `l2`
    /// field itself.
    #[must_use]
    pub fn with_l2_size(mut self, bytes: u32) -> SystemConfig {
        self.l2.size_bytes = bytes;
        self
    }

    /// Overrides the number of L2 banks (ablation).
    #[must_use]
    pub fn with_l2_banks(mut self, banks: usize) -> SystemConfig {
        self.l2_banks = banks;
        self
    }

    /// Enables/disables the idealized shared-L1 (Mipsy mode).
    #[must_use]
    pub fn with_ideal_shared_l1(mut self, ideal: bool) -> SystemConfig {
        self.ideal_shared_l1 = ideal;
        self
    }

    /// Overrides the shared-L1 hit latency (ablation: 1..5 cycles).
    #[must_use]
    pub fn with_l1_latency(mut self, lat: u64) -> SystemConfig {
        self.lat.l1_lat = lat;
        self
    }

    /// Overrides the number of L1 banks (ablation).
    #[must_use]
    pub fn with_l1_banks(mut self, banks: usize) -> SystemConfig {
        self.l1_banks = banks;
        self
    }

    /// Overrides the L2 occupancy, modelling a different datapath width
    /// (2 cycles = 128-bit, 4 cycles = 64-bit for a 32-byte line).
    #[must_use]
    pub fn with_l2_occupancy(mut self, occ: u64) -> SystemConfig {
        self.lat.l2_occ = occ;
        self
    }

    /// Overrides both L1 geometries' capacity (cache-size ablations;
    /// associativity is preserved).
    #[must_use]
    pub fn with_l1_size(mut self, bytes: u32) -> SystemConfig {
        self.l1i.size_bytes = bytes;
        self.l1d.size_bytes = bytes;
        self
    }

    /// Overrides the sentinel configuration (the invariant checker).
    #[must_use]
    pub fn with_sentinel(mut self, sentinel: SentinelSpec) -> SystemConfig {
        self.sentinel = sentinel;
        self
    }

    /// Overrides the cluster geometry: `n_cpus / cpus_per_cluster` clusters
    /// each sharing one L1 (clustered architecture only).
    #[must_use]
    pub fn with_cpus_per_cluster(mut self, cpus_per_cluster: usize) -> SystemConfig {
        self.cpus_per_cluster = cpus_per_cluster;
        self
    }

    /// Overrides the mesh tile grid (mesh architecture only); validation
    /// requires `rows * cols == n_cpus`.
    #[must_use]
    pub fn with_mesh_dims(mut self, rows: usize, cols: usize) -> SystemConfig {
        self.mesh_rows = rows;
        self.mesh_cols = cols;
        self
    }

    /// Validates the whole configuration: the one place the `with_*`
    /// overrides are checked, so every system builder can rely on it.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if the CPU count is zero or exceeds the
    /// [`SystemConfig::MAX_CPUS`] sanity ceiling, a cache geometry fails
    /// [`CacheSpec::try_new`], a bank count or the L1 hit latency is zero,
    /// or the mesh tile grid does not cover the CPUs exactly.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.n_cpus == 0 {
            return Err(ConfigError::NoCpus);
        }
        if self.n_cpus > SystemConfig::MAX_CPUS {
            return Err(ConfigError::TooManyCpus {
                n_cpus: self.n_cpus,
                max: SystemConfig::MAX_CPUS,
            });
        }
        for c in [self.l1i, self.l1d, self.l2] {
            CacheSpec::try_new(c.size_bytes, c.assoc)?;
        }
        for (value, what) in [
            (self.l1_banks as u64, "L1 bank count"),
            (self.l2_banks as u64, "L2 bank count"),
            (self.lat.l1_lat, "L1 hit latency"),
        ] {
            if value == 0 {
                return Err(ConfigError::Zero { what });
            }
        }
        if self.mesh_rows.checked_mul(self.mesh_cols) != Some(self.n_cpus) {
            return Err(ConfigError::MeshGeometry {
                n_cpus: self.n_cpus,
                rows: self.mesh_rows,
                cols: self.mesh_cols,
            });
        }
        Ok(())
    }
}

/// The most-square `rows x cols` factorization of `n`: rows is the
/// largest divisor of `n` at most `sqrt(n)` (4 -> 2x2, 8 -> 2x4,
/// 64 -> 8x8, primes -> 1xn).
fn default_mesh_dims(n: usize) -> (usize, usize) {
    let mut rows = 1;
    let mut d = 1;
    while d * d <= n {
        if n.is_multiple_of(d) {
            rows = d;
        }
        d += 1;
    }
    (rows, n / rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_geometry() {
        let s = CacheSpec::new(16 * 1024, 2);
        assert_eq!(s.n_lines(), 512);
        assert_eq!(s.n_sets(), 256);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_size_rejected() {
        let _ = CacheSpec::new(1000, 2);
    }

    #[test]
    fn try_new_rejects_each_bad_geometry_with_a_typed_error() {
        assert_eq!(
            CacheSpec::try_new(1000, 2),
            Err(ConfigError::NotPowerOfTwo {
                what: "cache size",
                value: 1000
            })
        );
        assert_eq!(
            CacheSpec::try_new(1024, 0),
            Err(ConfigError::ZeroAssociativity)
        );
        assert_eq!(
            CacheSpec::try_new(64, 4),
            Err(ConfigError::CacheTooSmall {
                size_bytes: 64,
                assoc: 4,
            })
        );
        assert_eq!(
            CacheSpec::try_new(64 * 1024, 16),
            Err(ConfigError::OutOfRange {
                what: "cache associativity",
                value: 16,
                max: 8,
            })
        );
        assert!(CacheSpec::try_new(1024, 2).is_ok());
        assert!(CacheSpec::try_new(LINE_BYTES, 1).is_ok());
        assert!(CacheSpec::try_new(1024, CacheSpec::MAX_ASSOC).is_ok());
    }

    #[test]
    fn system_config_validates_cpu_count() {
        assert!(SystemConfig::paper_shared_l2(4).validate().is_ok());
        assert!(SystemConfig::paper_shared_l2(8).validate().is_ok());
        assert!(SystemConfig::paper_shared_l2(32).validate().is_ok());
        // Any count up to the sanity ceiling validates.
        assert!(SystemConfig::paper_shared_l2(33).validate().is_ok());
        assert!(SystemConfig::paper_shared_l2(64).validate().is_ok());
        assert!(SystemConfig::paper_shared_l2(SystemConfig::MAX_CPUS)
            .validate()
            .is_ok());
        assert_eq!(
            SystemConfig::paper_shared_l2(SystemConfig::MAX_CPUS + 1).validate(),
            Err(ConfigError::TooManyCpus {
                n_cpus: SystemConfig::MAX_CPUS + 1,
                max: SystemConfig::MAX_CPUS
            })
        );
        assert_eq!(
            SystemConfig::paper_shared_l2(0).validate(),
            Err(ConfigError::NoCpus)
        );
    }

    #[test]
    fn mesh_dims_must_tile_the_cpus_exactly() {
        // Constructors derive a near-square grid that always validates.
        let c = SystemConfig::paper_mesh(16);
        assert_eq!((c.mesh_rows, c.mesh_cols), (4, 4));
        assert!(c.validate().is_ok());
        assert_eq!(
            {
                let c = SystemConfig::paper_mesh(8);
                (c.mesh_rows, c.mesh_cols)
            },
            (2, 4)
        );
        assert_eq!(
            {
                let c = SystemConfig::paper_mesh(7);
                (c.mesh_rows, c.mesh_cols)
            },
            (1, 7)
        );
        // Explicit grids validate iff rows * cols == n_cpus.
        assert!(SystemConfig::paper_mesh(12)
            .with_mesh_dims(3, 4)
            .validate()
            .is_ok());
        assert_eq!(
            SystemConfig::paper_mesh(16).with_mesh_dims(3, 4).validate(),
            Err(ConfigError::MeshGeometry {
                n_cpus: 16,
                rows: 3,
                cols: 4
            })
        );
    }

    #[test]
    fn config_errors_render_actionable_messages() {
        let e = ConfigError::OutOfRange {
            what: "MXS reorder window",
            value: 70_000,
            max: 65_504,
        };
        assert!(e.to_string().contains("1..=65504") && e.to_string().contains("70000"));
        let e = ConfigError::CacheTooSmall {
            size_bytes: 64,
            assoc: 4,
        };
        assert!(e.to_string().contains("4 x 32 B"), "{e}");
        let e = ConfigError::PartialCluster {
            n_cpus: 3,
            cpus_per_cluster: 2,
        };
        assert!(e.to_string().contains("clusters must be full"));
        let e = ConfigError::KernelOverlap { asid: 3 };
        assert!(e.to_string().contains("overlaps kernel"));
    }

    #[test]
    fn with_sentinel_overrides() {
        use crate::sentinel::SentinelSpec;
        let c = SystemConfig::paper_shared_mem(4);
        assert!(!c.sentinel.enabled, "sentinel is off by default");
        let c = c.with_sentinel(SentinelSpec::on());
        assert!(c.sentinel.enabled);
    }

    #[test]
    fn paper_latencies_match_table2() {
        let l1 = LatencySpec::shared_l1();
        assert_eq!((l1.l1_lat, l1.l2_lat, l1.mem_lat), (3, 10, 50));
        assert_eq!((l1.l1_occ, l1.l2_occ, l1.mem_occ), (1, 2, 6));
        let l2 = LatencySpec::shared_l2();
        assert_eq!((l2.l1_lat, l2.l2_lat, l2.l2_occ), (1, 14, 4));
        let sm = LatencySpec::shared_mem();
        assert_eq!(
            (sm.l1_lat, sm.l2_lat, sm.l2_occ, sm.mem_lat),
            (1, 10, 2, 50)
        );
        assert!(sm.c2c_lat > 50, "Table 2: cache-to-cache > 50");
        assert!(
            sm.c2c_occ >= 6,
            "Table 2: cache-to-cache occupancy > 6 is >="
        );
    }

    #[test]
    fn paper_geometries() {
        let a = SystemConfig::paper_shared_l1(4);
        assert_eq!(a.l1d.size_bytes, 64 * 1024);
        assert_eq!(a.l1_banks, 4);
        let b = SystemConfig::paper_shared_l2(4);
        assert_eq!(b.l1d.size_bytes, 16 * 1024);
        assert_eq!(b.l2.size_bytes, 2 * 1024 * 1024);
        assert_eq!(b.l2_banks, 4);
        let c = SystemConfig::paper_shared_mem(4);
        assert_eq!(c.l2.size_bytes, 512 * 1024);
    }

    #[test]
    fn builders_override() {
        let c = SystemConfig::paper_shared_l1(4)
            .with_l2_assoc(4)
            .with_ideal_shared_l1(true)
            .with_l1_latency(1)
            .with_l1_banks(8)
            .with_l2_occupancy(4)
            .with_l1_size(128 * 1024)
            .with_l2_size(4 * 1024 * 1024)
            .with_l2_banks(8)
            .with_cpus_per_cluster(4);
        assert_eq!(c.l2.assoc, 4);
        assert!(c.ideal_shared_l1);
        assert_eq!(c.lat.l1_lat, 1);
        assert_eq!(c.l1_banks, 8);
        assert_eq!(c.lat.l2_occ, 4);
        assert_eq!(c.l1d.size_bytes, 128 * 1024);
        assert_eq!(c.l1d.assoc, 2, "associativity preserved");
        assert_eq!(c.l2.size_bytes, 4 * 1024 * 1024);
        assert_eq!(c.l2.assoc, 4, "with_l2_size preserves associativity");
        assert_eq!(c.l2_banks, 8);
        assert_eq!(c.cpus_per_cluster, 4);
    }
}
