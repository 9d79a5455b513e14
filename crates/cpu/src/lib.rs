//! CPU models for `cmpsim`.
//!
//! The paper evaluates every architecture under two CPU timing models, and
//! this crate reimplements both over a shared functional core:
//!
//! * [`MipsyCpu`] — the "simple" model: every instruction has a one-cycle
//!   result latency and repeat rate, and the CPU stalls for every memory
//!   operation that takes longer than a cycle. All memory time shows up
//!   directly in the execution-time breakdown.
//! * [`MxsCpu`] — the "detailed" model: a 2-way-issue dynamically scheduled
//!   superscalar with a 32-entry instruction window, 32-entry reorder
//!   buffer, register renaming, a 1024-entry BTB with speculative wrong-path
//!   fetch, and a non-blocking data cache supporting four outstanding
//!   misses. Functional-unit latencies follow Table 1 ([`FuLatencies`]).
//!   [`MxsConfig`] holds the five sizes ablations vary (fetch width, issue
//!   width, window, MSHRs, BTB); the rest of the paper's core is constant,
//!   and the register file is sized by the window (`32 + rob_entries` per
//!   file), so rename never stalls.
//!
//! Both models execute the same programs against the same [`PhysMem`], so a
//! program's final architectural state is identical under either model —
//! a property the test suite checks with random programs. Both fetch
//! through [`PhysMem::fetch`], whose decoded-instruction memo is shared by
//! every CPU of a machine and always agrees with memory, so the models keep
//! no decode state of their own.
//!
//! [`CpuModel::step`] (and MXS's stages under it) is generic over the
//! [`MemorySystem`] it drives: a caller holding the concrete topology gets
//! every access of a step as a static call the L1-hit path can inline
//! into. No trait object stands between a CPU model and its memory system.
//!
//! [`PhysMem`]: cmpsim_mem::PhysMem
//! [`PhysMem::fetch`]: cmpsim_mem::PhysMem::fetch

pub mod arch;
pub mod btb;
pub mod counters;
pub mod func;
pub mod mipsy;
pub mod mxs;

pub use arch::ArchState;
pub use btb::Btb;
pub use counters::{CpuCounters, StallCategory};
pub use func::{ExecEnv, Outcome, StepInfo};
pub use mipsy::MipsyCpu;
pub use mxs::{MxsConfig, MxsCpu};

use cmpsim_engine::Cycle;
use cmpsim_isa::{FuClass, HcallNo};
use cmpsim_mem::{AddrSpace, MemorySystem, PhysMem};

/// Write-buffer depth (entries) of both CPU models. Deep enough that
/// well-spaced stores never stall, shallow enough that bursts expose L2
/// port contention (a 1996-era depth; the R10000 has 4 entries).
const WRITE_BUFFER_ENTRIES: usize = 4;

/// Functional-unit result latencies in cycles — Table 1 of the paper.
///
/// Load latency is "1 or 3" in the table because it depends on the
/// architecture (shared-L1 hits take 3 cycles); the memory system supplies
/// it, so it does not appear here.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FuLatencies {
    pub int_alu: u64,
    pub int_mul: u64,
    pub int_div: u64,
    pub branch: u64,
    pub store: u64,
    pub fp_addsub_sp: u64,
    pub fp_mul_sp: u64,
    pub fp_div_sp: u64,
    pub fp_addsub_dp: u64,
    pub fp_mul_dp: u64,
    pub fp_div_dp: u64,
}

impl FuLatencies {
    /// The latencies of Table 1: the ones the MXS core runs.
    pub const fn table1() -> FuLatencies {
        FuLatencies {
            int_alu: 1,
            int_mul: 2,
            int_div: 12,
            branch: 2,
            store: 1,
            fp_addsub_sp: 2,
            fp_mul_sp: 2,
            fp_div_sp: 12,
            fp_addsub_dp: 2,
            fp_mul_dp: 2,
            fp_div_dp: 18,
        }
    }

    /// Latency for a functional-unit class. `Load` returns 1 (the memory
    /// system adds the real latency).
    pub fn of(&self, class: FuClass) -> u64 {
        match class {
            FuClass::IntAlu => self.int_alu,
            FuClass::IntMul => self.int_mul,
            FuClass::IntDiv => self.int_div,
            FuClass::Branch => self.branch,
            FuClass::Load => 1,
            FuClass::Store => self.store,
            FuClass::FpAddSubSp => self.fp_addsub_sp,
            FuClass::FpMulSp => self.fp_mul_sp,
            FuClass::FpDivSp => self.fp_div_sp,
            FuClass::FpAddSubDp => self.fp_addsub_dp,
            FuClass::FpMulDp => self.fp_mul_dp,
            FuClass::FpDivDp => self.fp_div_dp,
        }
    }
}

/// Events a CPU step can surface to the machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepEvent {
    /// Nothing notable; keep stepping.
    None,
    /// The CPU executed `HALT` and stopped.
    Halted,
    /// The CPU committed a harness call the machine must service.
    Hcall(HcallNo),
}

/// A CPU timing model the machine can drive.
///
/// The machine advances CPUs in simulated-time order: each `step` executes
/// a unit of work (one instruction for Mipsy, one cycle for MXS) starting at
/// `now` and returns the cycle at which the CPU next wants to run. Keeping
/// all CPUs ordered by that time makes the functional memory interleaving
/// consistent with the timing model.
///
/// `step` is generic over the memory system, so a caller holding the
/// concrete topology gets every `access` of the step statically
/// dispatched, and the L1-hit path can inline into the CPU model. The
/// trait therefore has no trait-object form: a machine holds its CPUs by
/// their concrete type.
pub trait CpuModel {
    /// Advances the CPU. Returns the next cycle this CPU is runnable and
    /// any event the machine must handle.
    fn step<M: MemorySystem + ?Sized>(
        &mut self,
        now: Cycle,
        mem: &mut M,
        phys: &mut PhysMem,
    ) -> (Cycle, StepEvent);

    /// Architectural register state (context-switch support).
    fn arch(&self) -> &ArchState;

    /// Mutable architectural state.
    ///
    /// For MXS this is only meaningful after a [`CpuModel::flush`].
    fn arch_mut(&mut self) -> &mut ArchState;

    /// Replaces the address space (context switch). Decoded instructions
    /// live in [`PhysMem`], keyed by physical address, so nothing decoded
    /// under the old space can be served under the new one.
    fn set_space(&mut self, space: AddrSpace);

    /// Current address space.
    fn space(&self) -> AddrSpace;

    /// Drains/flushes any pipeline state (no-op for Mipsy). There is no
    /// decode state to drop: [`PhysMem::fetch`] always returns a fresh
    /// decode of memory.
    fn flush(&mut self);

    /// Whether the CPU has executed `HALT`.
    fn halted(&self) -> bool;

    /// Statistics counters.
    fn counters(&self) -> &CpuCounters;

    /// Mutable statistics counters (region-of-interest reset).
    fn counters_mut(&mut self) -> &mut CpuCounters;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_latencies() {
        let t = FuLatencies::table1();
        assert_eq!(t.of(FuClass::IntAlu), 1);
        assert_eq!(t.of(FuClass::IntMul), 2);
        assert_eq!(t.of(FuClass::IntDiv), 12);
        assert_eq!(t.of(FuClass::Branch), 2);
        assert_eq!(t.of(FuClass::Store), 1);
        assert_eq!(
            t.of(FuClass::Load),
            1,
            "load latency comes from the memory system"
        );
        assert_eq!(t.of(FuClass::FpAddSubSp), 2);
        assert_eq!(t.of(FuClass::FpDivSp), 12);
        assert_eq!(t.of(FuClass::FpDivDp), 18);
        assert_eq!(t.of(FuClass::FpMulDp), 2);
    }
}
