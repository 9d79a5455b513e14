//! The typed design space and its integer embedding.
//!
//! A [`DesignSpace`] is a cross product of up to [`NDIMS`] dimensions —
//! architecture, CPU model, CPU count, cache geometries, bank counts,
//! datapath width and the MXS reorder window. Every point is addressed
//! by a compact **mixed-radix integer embedding**: dimension `i` with
//! `r_i` levels contributes digit `d_i < r_i`, and
//! `code = Σ d_i · Π_{j<i} r_j` (dimension 0 varies fastest). Unset
//! dimensions keep the paper default for whatever architecture the point
//! lands on and contribute radix 1 — so the embedding is exactly as wide
//! as the knobs actually being swept.
//!
//! [`DesignSpace::decode`] is the only way to turn a code into a
//! runnable configuration, and it validates everything: range, cache
//! geometry, cluster/mesh coverage, and **canonicality** — a knob that
//! is physically absent from the point's architecture or CPU model
//! (L1 banks off the shared-L1 crossbar, the reorder window under
//! Mipsy) must sit at digit 0, so no two codes alias the same machine.

use crate::ExploreError;
use cmpsim_core::{ArchKind, CpuKind, MachineConfig, MxsConfig};
use cmpsim_mem::{
    AreaModel, CacheCopies, CacheSpec, ConfigError, CpuSet, SentinelSpec, SystemConfig,
};

/// Number of dimensions in the embedding, in [`DIM_NAMES`] order.
pub const NDIMS: usize = 10;

/// Dimension names as the CLI spells them, in embedding order
/// (dimension 0 varies fastest in the code).
pub const DIM_NAMES: [&str; NDIMS] = [
    "arch", "cpu", "cpus", "l1-kb", "l2-kb", "l2-assoc", "l2-banks", "l1-banks", "l2-width", "rob",
];

/// Hard ceiling on a space's cardinality — far above anything a search
/// can visit, but low enough that strides never overflow `u64`.
pub const MAX_CARDINALITY: u64 = 1 << 40;

/// CPU model selector (the `rob` dimension refines `Mxs` into custom
/// window sizes; `CpuKind::MxsCustom` itself is not enumerable).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CpuSel {
    /// In-order blocking model.
    Mipsy,
    /// 2-way out-of-order model.
    Mxs,
}

/// A cross product of configuration dimensions. Required dimensions
/// (`archs`, `cpus`, `n_cpus`) must hold at least one level; an *empty*
/// optional dimension means "inherit the paper default of whatever
/// architecture the point uses" and contributes radix 1.
#[derive(Debug, Clone, PartialEq)]
pub struct DesignSpace {
    /// Memory-system architectures.
    pub archs: Vec<ArchKind>,
    /// CPU timing models.
    pub cpus: Vec<CpuSel>,
    /// CPU counts.
    pub n_cpus: Vec<usize>,
    /// Per-CPU L1 capacity in KB (pooled ×`n_cpus` for the shared-L1
    /// architecture, whose `SystemConfig` holds the total).
    pub l1_kb: Vec<u32>,
    /// L2 capacity in KB (total for shared L2s, per CPU for
    /// shared-memory — the `SystemConfig::l2` convention).
    pub l2_kb: Vec<u32>,
    /// L2 associativity.
    pub l2_assoc: Vec<usize>,
    /// L2 bank count.
    pub l2_banks: Vec<usize>,
    /// Shared-L1 bank count (canonical only on the shared-L1
    /// architecture).
    pub l1_banks: Vec<usize>,
    /// L2 bank occupancy in cycles per 32-byte line; the CLI spells this
    /// `l2-width=128|64` (128-bit path → 2 cycles, 64-bit → 4).
    pub l2_occ: Vec<u64>,
    /// MXS reorder-window sizes (canonical only under the MXS model).
    pub rob: Vec<usize>,
}

/// One decoded, validated point of a design space: its embedding plus
/// the fully resolved machine configuration (sentinel pinned off, so a
/// point means the same machine whatever the environment).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Point {
    /// The mixed-radix embedding this point decodes from.
    pub code: u64,
    /// Per-dimension digits, in [`DIM_NAMES`] order.
    pub digits: [usize; NDIMS],
    /// The runnable configuration.
    pub cfg: MachineConfig,
}

impl DesignSpace {
    /// The paper's baseline as a single-point space: shared-L2, Mipsy,
    /// 4 CPUs, every knob inheriting its default.
    pub fn paper() -> DesignSpace {
        DesignSpace {
            archs: vec![ArchKind::SharedL2],
            cpus: vec![CpuSel::Mipsy],
            n_cpus: vec![4],
            l1_kb: Vec::new(),
            l2_kb: Vec::new(),
            l2_assoc: Vec::new(),
            l2_banks: Vec::new(),
            l1_banks: Vec::new(),
            l2_occ: Vec::new(),
            rob: Vec::new(),
        }
    }

    /// Replaces one dimension's levels from a comma-separated CLI value
    /// (e.g. `set_dim("l2-kb", "512,1024,2048")`).
    ///
    /// # Errors
    ///
    /// [`ExploreError::UnknownDimension`] for a name outside
    /// [`DIM_NAMES`], [`ExploreError::BadLevel`] for a value the
    /// dimension cannot hold.
    pub fn set_dim(&mut self, name: &str, values: &str) -> Result<(), ExploreError> {
        fn ints<T: std::str::FromStr>(
            dim: &'static str,
            values: &str,
        ) -> Result<Vec<T>, ExploreError> {
            values
                .split(',')
                .map(|v| {
                    v.trim().parse::<T>().map_err(|_| ExploreError::BadLevel {
                        dim,
                        value: v.trim().to_string(),
                        why: "not an unsigned integer".to_string(),
                    })
                })
                .collect()
        }
        match name {
            "arch" => {
                self.archs = values
                    .split(',')
                    .map(|v| {
                        v.trim().parse().map_err(|_| ExploreError::BadLevel {
                            dim: "arch",
                            value: v.trim().to_string(),
                            why: "expected shared-L1, shared-L2, shared-memory, clustered or mesh"
                                .to_string(),
                        })
                    })
                    .collect::<Result<_, _>>()?;
            }
            "cpu" => {
                self.cpus = values
                    .split(',')
                    .map(|v| match v.trim().to_ascii_lowercase().as_str() {
                        "mipsy" => Ok(CpuSel::Mipsy),
                        "mxs" => Ok(CpuSel::Mxs),
                        other => Err(ExploreError::BadLevel {
                            dim: "cpu",
                            value: other.to_string(),
                            why: "expected mipsy or mxs".to_string(),
                        }),
                    })
                    .collect::<Result<_, _>>()?;
            }
            "cpus" => self.n_cpus = ints("cpus", values)?,
            "l1-kb" => self.l1_kb = ints("l1-kb", values)?,
            "l2-kb" => self.l2_kb = ints("l2-kb", values)?,
            "l2-assoc" => self.l2_assoc = ints("l2-assoc", values)?,
            "l2-banks" => self.l2_banks = ints("l2-banks", values)?,
            "l1-banks" => self.l1_banks = ints("l1-banks", values)?,
            "l2-width" => {
                self.l2_occ = values
                    .split(',')
                    .map(|v| match v.trim() {
                        "128" => Ok(2),
                        "64" => Ok(4),
                        other => Err(ExploreError::BadLevel {
                            dim: "l2-width",
                            value: other.to_string(),
                            why: "expected 128 or 64 (bits)".to_string(),
                        }),
                    })
                    .collect::<Result<_, _>>()?;
            }
            "rob" => self.rob = ints("rob", values)?,
            other => return Err(ExploreError::UnknownDimension(other.to_string())),
        }
        Ok(())
    }

    /// Validates the space itself (level values and total cardinality);
    /// per-point combination rules live in [`DesignSpace::decode`].
    ///
    /// # Errors
    ///
    /// [`ExploreError::EmptyDimension`] when a required dimension has no
    /// levels, [`ExploreError::BadLevel`] for duplicate or out-of-domain
    /// levels, [`ExploreError::SpaceTooLarge`] past [`MAX_CARDINALITY`].
    pub fn validate(&self) -> Result<(), ExploreError> {
        fn bad(dim: &'static str, value: impl std::fmt::Display, why: &str) -> ExploreError {
            ExploreError::BadLevel {
                dim,
                value: value.to_string(),
                why: why.to_string(),
            }
        }
        fn no_dup<T: PartialEq + std::fmt::Display + Copy>(
            dim: &'static str,
            levels: &[T],
        ) -> Result<(), ExploreError> {
            for (i, v) in levels.iter().enumerate() {
                if levels[..i].contains(v) {
                    return Err(bad(dim, v, "duplicate level"));
                }
            }
            Ok(())
        }
        if self.archs.is_empty() {
            return Err(ExploreError::EmptyDimension("arch"));
        }
        if self.cpus.is_empty() {
            return Err(ExploreError::EmptyDimension("cpu"));
        }
        if self.n_cpus.is_empty() {
            return Err(ExploreError::EmptyDimension("cpus"));
        }
        no_dup("arch", &self.archs)?;
        no_dup("cpu", &self.cpus)?;
        no_dup("cpus", &self.n_cpus)?;
        no_dup("l1-kb", &self.l1_kb)?;
        no_dup("l2-kb", &self.l2_kb)?;
        no_dup("l2-assoc", &self.l2_assoc)?;
        no_dup("l2-banks", &self.l2_banks)?;
        no_dup("l1-banks", &self.l1_banks)?;
        no_dup("l2-width", &self.l2_occ)?;
        no_dup("rob", &self.rob)?;
        for &n in &self.n_cpus {
            if n == 0 {
                return Err(bad("cpus", n, "a machine needs at least one CPU"));
            }
            if n > CpuSet::MAX_CPUS {
                return Err(bad("cpus", n, "exceeds the CpuSet validation ceiling"));
            }
        }
        for &kb in self.l1_kb.iter().chain(&self.l2_kb) {
            if kb == 0 || !kb.is_power_of_two() {
                return Err(bad(
                    if self.l1_kb.contains(&kb) {
                        "l1-kb"
                    } else {
                        "l2-kb"
                    },
                    kb,
                    "capacity must be a nonzero power of two",
                ));
            }
        }
        for &a in &self.l2_assoc {
            if a == 0 {
                return Err(bad("l2-assoc", a, "associativity must be at least 1"));
            }
        }
        for &b in self.l2_banks.iter().chain(&self.l1_banks) {
            if b == 0 {
                return Err(bad(
                    if self.l2_banks.contains(&b) {
                        "l2-banks"
                    } else {
                        "l1-banks"
                    },
                    b,
                    "bank count must be at least 1",
                ));
            }
        }
        for &r in &self.rob {
            if !(4..=512).contains(&r) {
                return Err(bad("rob", r, "reorder window must be 4..=512 entries"));
            }
        }
        let card: u128 = self.radices().iter().map(|&r| r as u128).product();
        if card > u128::from(MAX_CARDINALITY) {
            return Err(ExploreError::SpaceTooLarge {
                cardinality: card,
                max: MAX_CARDINALITY,
            });
        }
        Ok(())
    }

    /// Per-dimension radices in [`DIM_NAMES`] order (1 for an inherited
    /// dimension).
    pub fn radices(&self) -> [u64; NDIMS] {
        let r = |n: usize| n.max(1) as u64;
        [
            r(self.archs.len()),
            r(self.cpus.len()),
            r(self.n_cpus.len()),
            r(self.l1_kb.len()),
            r(self.l2_kb.len()),
            r(self.l2_assoc.len()),
            r(self.l2_banks.len()),
            r(self.l1_banks.len()),
            r(self.l2_occ.len()),
            r(self.rob.len()),
        ]
    }

    /// Total number of codes (valid or not): the product of the radices.
    pub fn cardinality(&self) -> u64 {
        self.radices().iter().product()
    }

    /// The code addressing `digits`.
    pub fn encode(&self, digits: &[usize; NDIMS]) -> u64 {
        let radices = self.radices();
        let mut code = 0u64;
        let mut stride = 1u64;
        for i in 0..NDIMS {
            code += digits[i] as u64 * stride;
            stride *= radices[i];
        }
        code
    }

    /// Splits `code` into per-dimension digits.
    ///
    /// # Errors
    ///
    /// [`ExploreError::InvalidEmbedding`] when `code` is at or past the
    /// cardinality.
    pub fn split(&self, code: u64) -> Result<[usize; NDIMS], ExploreError> {
        if code >= self.cardinality() {
            return Err(ExploreError::InvalidEmbedding {
                code,
                why: format!("out of range (cardinality {})", self.cardinality()),
            });
        }
        let radices = self.radices();
        let mut digits = [0usize; NDIMS];
        let mut rest = code;
        for i in 0..NDIMS {
            digits[i] = (rest % radices[i]) as usize;
            rest /= radices[i];
        }
        Ok(digits)
    }

    /// Decodes and fully validates one embedding into a runnable point.
    ///
    /// # Errors
    ///
    /// [`ExploreError::InvalidEmbedding`] for out-of-range or
    /// non-canonical codes (see the module docs), and
    /// [`ExploreError::Config`] when the combination resolves to a
    /// configuration the simulator rejects (unrepresentable pooled L1,
    /// partial clusters, mesh coverage).
    pub fn decode(&self, code: u64) -> Result<Point, ExploreError> {
        let digits = self.split(code)?;
        let noncanon = |why: &str| ExploreError::InvalidEmbedding {
            code,
            why: why.to_string(),
        };
        let arch = self.archs[digits[0]];
        let cpusel = self.cpus[digits[1]];
        let n = self.n_cpus[digits[2]];
        // Canonicality: knobs that are physically absent from this
        // point's architecture or CPU model must sit at digit 0, so no
        // two codes alias the same machine.
        if cpusel == CpuSel::Mipsy && digits[9] != 0 {
            return Err(noncanon("the reorder window is an MXS knob; Mipsy points must keep the rob dimension at its first level"));
        }
        if arch != ArchKind::SharedL1 && digits[7] != 0 {
            return Err(noncanon("L1 banks exist on the shared-L1 crossbar only; other architectures must keep the l1-banks dimension at its first level"));
        }
        let cpu = match (cpusel, self.rob.is_empty()) {
            (CpuSel::Mipsy, _) => CpuKind::Mipsy,
            (CpuSel::Mxs, true) => CpuKind::Mxs,
            (CpuSel::Mxs, false) => {
                let rob = self.rob[digits[9]];
                CpuKind::MxsCustom(MxsConfig {
                    rob_entries: rob,
                    phys_regs: MxsConfig::default().phys_regs.max(32 + rob),
                    ..MxsConfig::default()
                })
            }
        };
        let mut cfg = MachineConfig::new(arch, cpu);
        cfg.n_cpus = n;
        // Pin the environment-resolved knob: a point must mean the same
        // machine in any process.
        cfg.sentinel = Some(SentinelSpec::off());
        let paper = arch.config(n);
        if !self.l1_kb.is_empty() {
            // The dimension is per-CPU; the shared-L1 architecture's
            // SystemConfig holds the pooled total.
            let pool = if arch == ArchKind::SharedL1 {
                n as u32
            } else {
                1
            };
            let bytes = self.l1_kb[digits[3]]
                .checked_mul(1024)
                .and_then(|b| b.checked_mul(pool))
                .ok_or_else(|| noncanon("pooled L1 capacity overflows u32"))?;
            CacheSpec::try_new(bytes, paper.l1d.assoc, paper.l1d.line_bytes)?;
            if arch == ArchKind::Clustered {
                // The clustered build pools the per-CPU spec again by
                // cluster size; reject geometries it would refuse.
                let k = paper.cpus_per_cluster as u32;
                let pooled = bytes
                    .checked_mul(k)
                    .ok_or_else(|| noncanon("cluster-pooled L1 capacity overflows u32"))?;
                CacheSpec::try_new(pooled, paper.l1d.assoc, paper.l1d.line_bytes)?;
            }
            cfg.l1_size = Some(bytes);
        }
        let l2_size = if self.l2_kb.is_empty() {
            paper.l2.size_bytes
        } else {
            let bytes = self.l2_kb[digits[4]]
                .checked_mul(1024)
                .ok_or_else(|| noncanon("L2 capacity overflows u32"))?;
            cfg.l2_size = Some(bytes);
            bytes
        };
        let l2_assoc = if self.l2_assoc.is_empty() {
            paper.l2.assoc
        } else {
            let a = self.l2_assoc[digits[5]];
            cfg.l2_assoc = Some(a);
            a
        };
        CacheSpec::try_new(l2_size, l2_assoc, paper.l2.line_bytes)?;
        if !self.l2_banks.is_empty() {
            cfg.l2_banks = Some(self.l2_banks[digits[6]]);
        }
        if !self.l1_banks.is_empty() && arch == ArchKind::SharedL1 {
            cfg.l1_banks = Some(self.l1_banks[digits[7]]);
        }
        if !self.l2_occ.is_empty() {
            cfg.l2_occupancy = Some(self.l2_occ[digits[8]]);
        }
        if arch == ArchKind::Clustered && !n.is_multiple_of(paper.cpus_per_cluster) {
            return Err(ExploreError::Config(ConfigError::PartialCluster {
                n_cpus: n,
                cpus_per_cluster: paper.cpus_per_cluster,
            }));
        }
        cfg.system_config().validate()?;
        Ok(Point { code, digits, cfg })
    }

    /// All valid codes in ascending order — the exhaustive driver's work
    /// list. Non-canonical and invalid combinations are simply skipped.
    pub fn enumerate(&self) -> Vec<u64> {
        (0..self.cardinality())
            .filter(|&c| self.decode(c).is_ok())
            .collect()
    }

    /// The valid one-digit-step neighbors of `code`, in dimension order
    /// (minus before plus) — the hill-climb move set.
    pub fn neighbors(&self, code: u64) -> Vec<u64> {
        let Ok(digits) = self.split(code) else {
            return Vec::new();
        };
        let radices = self.radices();
        let mut out = Vec::new();
        for dim in 0..NDIMS {
            for delta in [-1i64, 1] {
                let d = digits[dim] as i64 + delta;
                if d < 0 || d as u64 >= radices[dim] {
                    continue;
                }
                let mut moved = digits;
                moved[dim] = d as usize;
                let c = self.encode(&moved);
                if self.decode(c).is_ok() {
                    out.push(c);
                }
            }
        }
        out
    }
}

impl std::fmt::Display for CpuSel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            CpuSel::Mipsy => "mipsy",
            CpuSel::Mxs => "mxs",
        })
    }
}

impl Point {
    /// The resolved memory-system configuration.
    pub fn system_config(&self) -> SystemConfig {
        self.cfg.system_config()
    }

    /// Physical copy counts for the area proxy: how many L1 pairs, L2
    /// arrays and routers this architecture lays down.
    pub fn copies(&self) -> CacheCopies {
        let n = self.cfg.n_cpus;
        match self.cfg.arch {
            // One pooled L1 pair (the SystemConfig holds the total).
            ArchKind::SharedL1 => CacheCopies {
                l1: 1,
                l2: 1,
                routers: 0,
            },
            ArchKind::SharedL2 => CacheCopies {
                l1: n,
                l2: 1,
                routers: 0,
            },
            ArchKind::SharedMem => CacheCopies {
                l1: n,
                l2: n,
                routers: 0,
            },
            // Per-CPU L1 specs pooled per cluster: n × per-CPU capacity
            // of SRAM either way.
            ArchKind::Clustered => CacheCopies {
                l1: n,
                l2: 1,
                routers: 0,
            },
            ArchKind::Mesh => CacheCopies {
                l1: n,
                l2: 1,
                routers: n,
            },
        }
    }

    /// Static area proxy in KB-equivalents (DESIGN.md §15).
    pub fn area_kb(&self) -> f64 {
        self.system_config()
            .area_proxy_kb(self.copies(), &AreaModel::default())
    }

    /// Reorder-window entries (0 under Mipsy — the knob does not exist).
    pub fn rob_entries(&self) -> usize {
        match self.cfg.cpu {
            CpuKind::Mipsy => 0,
            CpuKind::Mxs => MxsConfig::default().rob_entries,
            CpuKind::MxsCustom(c) => c.rob_entries,
        }
    }

    /// Short CPU-model label for JSON output.
    pub fn cpu_label(&self) -> &'static str {
        match self.cfg.cpu {
            CpuKind::Mipsy => "mipsy",
            CpuKind::Mxs | CpuKind::MxsCustom(_) => "mxs",
        }
    }

    /// The CPU-side signature this point shares a reference trace with:
    /// everything that changes the instruction stream (model, window,
    /// CPU count). Points differing only below this signature replay the
    /// same capture.
    pub fn group_sig(&self) -> String {
        format!("{:?}|{}", self.cfg.cpu, self.cfg.n_cpus)
    }
}
