//! The workload interface consumed by the machine in `cmpsim-core`.

use cmpsim_isa::Addr;
use cmpsim_mem::{AddrSpace, PhysMem};
use std::fmt;

/// Build-time parameters common to all workloads.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadParams {
    /// Number of CPUs (the paper uses 4; generators support 1–4).
    pub n_cpus: usize,
    /// Problem-size scale: 1.0 reproduces the paper-equivalent
    /// configuration; tests use ~0.05–0.2 for speed. Each generator maps
    /// the scale onto its own dimensions, clamps to sane minimums and
    /// refuses a scale its layout or loop counters cannot hold.
    pub scale: f64,
}

impl WorkloadParams {
    /// Scales `base` by the configured factor with a floor of `min`.
    pub fn scaled(&self, base: usize, min: usize) -> usize {
        ((base as f64 * self.scale) as usize).max(min)
    }

    /// Refuses a scale that asks for `need` of `what` when `holder`, a
    /// layout area or a 32-bit loop counter, holds at most `max`; the
    /// error names the limit.
    pub(crate) fn at_most(
        &self,
        workload: &str,
        need: usize,
        max: usize,
        what: &str,
        holder: &str,
    ) -> Result<usize, String> {
        if need > max {
            return Err(format!(
                "{workload} scale {:?} needs {need} {what}; {holder} holds at most {max}",
                self.scale
            ));
        }
        Ok(need)
    }
}

impl Default for WorkloadParams {
    fn default() -> Self {
        WorkloadParams {
            n_cpus: 4,
            scale: 1.0,
        }
    }
}

/// An additional process for the multiprogramming workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProcessInit {
    /// Entry pc (virtual).
    pub entry: u32,
    /// The process's address space.
    pub space: AddrSpace,
}

/// A fully built workload: code image, data initialization, per-CPU entry
/// points and a self-check against a Rust reference computation.
pub struct BuiltWorkload {
    /// Workload name.
    pub name: &'static str,
    /// Code/data segments to copy into physical memory: (base, words).
    pub image: Vec<(Addr, Vec<u32>)>,
    /// Initial process per CPU.
    pub entries: Vec<ProcessInit>,
    /// Extra runnable processes per CPU (multiprogramming); empty queues
    /// for the parallel applications.
    pub extra_processes: Vec<Vec<ProcessInit>>,
    /// Writes initial data into physical memory.
    pub init: InitFn,
    /// Validates the final memory state against the reference result.
    pub check: CheckFn,
}

/// Data-initialization hook type.
pub type InitFn = Box<dyn Fn(&mut PhysMem)>;
/// Self-validation hook type.
pub type CheckFn = Box<dyn Fn(&PhysMem) -> Result<(), String>>;

impl BuiltWorkload {
    /// Loads the code image and runs data initialization.
    pub fn install(&self, phys: &mut PhysMem) {
        for (base, words) in &self.image {
            phys.load_words(*base, words);
        }
        (self.init)(phys);
    }

    /// Total code size in instructions.
    pub fn code_words(&self) -> usize {
        self.image.iter().map(|(_, w)| w.len()).sum()
    }
}

impl fmt::Debug for BuiltWorkload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BuiltWorkload")
            .field("name", &self.name)
            .field("code_words", &self.code_words())
            .field("entries", &self.entries)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn params_scale_with_floor() {
        let p = WorkloadParams {
            n_cpus: 4,
            scale: 0.1,
        };
        assert_eq!(p.scaled(1000, 16), 100);
        assert_eq!(p.scaled(100, 64), 64);
        assert_eq!(WorkloadParams::default().scaled(1000, 16), 1000);
    }

    #[test]
    fn install_loads_image_and_inits() {
        let w = BuiltWorkload {
            name: "t",
            image: vec![(0x100, vec![1, 2])],
            entries: vec![],
            extra_processes: vec![],
            init: Box::new(|m| m.write_u32(0x200, 7)),
            check: Box::new(|_| Ok(())),
        };
        let mut m = PhysMem::new(1);
        w.install(&mut m);
        assert_eq!(m.read_u32(0x104), 2);
        assert_eq!(m.read_u32(0x200), 7);
        assert_eq!(w.code_words(), 2);
        assert!(format!("{w:?}").contains("code_words"));
    }
}
