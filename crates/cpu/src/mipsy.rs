//! The Mipsy CPU model: simple in-order execution.
//!
//! Mipsy "models all instructions with a one cycle result latency and a one
//! cycle repeat rate" and stalls for every memory operation that takes
//! longer than a cycle, so all memory-system time contributes directly to
//! execution time. Stores retire through a write buffer (Table 1's 1-cycle
//! store latency); `SYNC` drains it. Every stall cycle is attributed to the
//! hierarchy level that serviced the access, which yields the breakdown
//! graphs of Figures 4–10.

use crate::arch::ArchState;
use crate::counters::{CpuCounters, StallCategory};
use crate::func::{self, ExecEnv, Outcome};
use crate::{CpuModel, StepEvent, WRITE_BUFFER_ENTRIES};
use cmpsim_engine::Cycle;
use cmpsim_mem::{
    AccessKind, AddrSpace, CpuId, MemRequest, MemorySystem, PhysMem, ServiceLevel, WriteBuffer,
};

/// The simple in-order CPU model.
///
/// # Examples
///
/// Drive a single Mipsy CPU over a shared-memory system:
///
/// ```
/// use cmpsim_cpu::{CpuModel, MipsyCpu};
/// use cmpsim_engine::Cycle;
/// use cmpsim_isa::{Asm, Reg};
/// use cmpsim_mem::{AddrSpace, MemorySystem, PhysMem, SharedMemSystem, SystemConfig};
///
/// # fn main() -> Result<(), cmpsim_isa::AsmError> {
/// let mut a = Asm::new(0x1000);
/// a.li(Reg::T0, 3);
/// a.halt();
/// let prog = a.assemble()?;
///
/// let mut phys = PhysMem::new(1);
/// phys.load_words(prog.base, &prog.words);
/// let mut mem = SharedMemSystem::new(&SystemConfig::paper_shared_mem(1));
/// let mut cpu = MipsyCpu::new(0, prog.base, AddrSpace::identity());
///
/// let mut now = Cycle(0);
/// while !cpu.halted() {
///     let (next, _event) = cpu.step(now, &mut mem, &mut phys);
///     now = next;
/// }
/// assert_eq!(cpu.arch().gpr(Reg::T0), 3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct MipsyCpu {
    cpu: CpuId,
    state: ArchState,
    space: AddrSpace,
    wbuf: WriteBuffer,
    counters: CpuCounters,
    halted: bool,
}

impl MipsyCpu {
    /// Creates a CPU with id `cpu` starting at `pc` in `space`.
    pub fn new(cpu: CpuId, pc: u32, space: AddrSpace) -> MipsyCpu {
        MipsyCpu {
            cpu,
            state: ArchState::new(pc),
            space,
            wbuf: WriteBuffer::new(WRITE_BUFFER_ENTRIES),
            counters: CpuCounters::new(),
            halted: false,
        }
    }

    fn data_stall_category(level: ServiceLevel) -> StallCategory {
        match level {
            ServiceLevel::L1 => StallCategory::L1Data,
            ServiceLevel::L2 => StallCategory::L2,
            ServiceLevel::Memory => StallCategory::Memory,
            ServiceLevel::CacheToCache => StallCategory::CacheToCache,
        }
    }
}

impl CpuModel for MipsyCpu {
    fn step<M: MemorySystem + ?Sized>(
        &mut self,
        now: Cycle,
        mem: &mut M,
        phys: &mut PhysMem,
    ) -> (Cycle, StepEvent) {
        debug_assert!(!self.halted, "stepping a halted CPU");
        let mut t = now;

        // Instruction fetch. A 1-cycle hit is hidden by pipelining; anything
        // beyond that stalls the CPU and is charged to instruction time.
        let ipa = self.space.translate(self.state.pc);
        let ires = mem.access(t, MemRequest::ifetch(self.cpu, ipa));
        let iextra = (ires.finish - t).saturating_sub(1);
        self.counters.stall(StallCategory::Instruction, iextra);
        t += iextra;

        let instr = phys.fetch(self.cpu, ipa);

        // Execute (one busy cycle).
        let mut env = ExecEnv {
            mem: phys,
            space: self.space,
            cpu: self.cpu,
        };
        let info = func::step(&mut self.state, &instr, &mut env);
        self.counters.instructions += 1;
        self.counters.busy_cycles += 1;
        if instr.is_control() && !instr.is_direct_jump() {
            self.counters.branches += 1;
        }
        let issue = t;
        t += 1;

        match info.mem_access {
            Some((AccessKind::Load, pa)) => {
                self.counters.loads += 1;
                let res = mem.access(issue, MemRequest::load(self.cpu, pa));
                let stall = (res.finish - issue).saturating_sub(1);
                self.counters
                    .stall(Self::data_stall_category(res.serviced_by), stall);
                t += stall;
            }
            Some((AccessKind::Store, pa)) => {
                self.counters.stores += 1;
                let mut at = issue;
                if self.wbuf.is_full(at) {
                    let free = self.wbuf.free_at(at);
                    self.counters.stall(StallCategory::StoreBuffer, free - at);
                    t += free - at;
                    at = free;
                }
                let res = mem.access(at, MemRequest::store(self.cpu, pa));
                self.wbuf.push(at, res.finish);
            }
            Some((AccessKind::IFetch, _)) => unreachable!("execute never ifetches"),
            None => {}
        }

        if info.sc_failed {
            self.counters.sc_failures += 1;
        }

        if matches!(instr, cmpsim_isa::Instr::Sync) {
            let drain = self.wbuf.drain_time(t);
            self.counters.stall(StallCategory::Fence, drain.since(t));
            t = t.max(drain);
        }

        let event = match info.outcome {
            Outcome::Normal => StepEvent::None,
            Outcome::Halt => {
                self.halted = true;
                StepEvent::Halted
            }
            Outcome::Hcall(no) => StepEvent::Hcall(no),
        };
        (t, event)
    }

    fn arch(&self) -> &ArchState {
        &self.state
    }

    fn arch_mut(&mut self) -> &mut ArchState {
        &mut self.state
    }

    fn set_space(&mut self, space: AddrSpace) {
        self.space = space;
    }

    fn space(&self) -> AddrSpace {
        self.space
    }

    fn flush(&mut self) {}

    fn halted(&self) -> bool {
        self.halted
    }

    fn counters(&self) -> &CpuCounters {
        &self.counters
    }

    fn counters_mut(&mut self) -> &mut CpuCounters {
        &mut self.counters
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmpsim_isa::{Asm, Reg};
    use cmpsim_mem::{SharedMemSystem, SystemConfig};

    fn build(asm: &Asm) -> (PhysMem, SharedMemSystem, MipsyCpu) {
        let prog = asm.assemble().expect("assembles");
        let mut phys = PhysMem::new(4);
        phys.load_words(prog.base, &prog.words);
        let mem = SharedMemSystem::new(&SystemConfig::paper_shared_mem(4));
        let cpu = MipsyCpu::new(0, prog.base, AddrSpace::identity());
        (phys, mem, cpu)
    }

    fn run_to_halt(phys: &mut PhysMem, mem: &mut SharedMemSystem, cpu: &mut MipsyCpu) -> Cycle {
        let mut now = Cycle(0);
        for _ in 0..1_000_000 {
            if cpu.halted() {
                return now;
            }
            let (next, _) = cpu.step(now, mem, phys);
            now = next;
        }
        panic!("program did not halt");
    }

    #[test]
    fn computes_a_loop() {
        let mut a = Asm::new(0x1000);
        a.li(Reg::T0, 0);
        a.li(Reg::T1, 10);
        a.label("loop");
        a.addi(Reg::T0, Reg::T0, 3);
        a.addi(Reg::T1, Reg::T1, -1);
        a.bnez(Reg::T1, "loop");
        a.halt();
        let (mut phys, mut mem, mut cpu) = build(&a);
        run_to_halt(&mut phys, &mut mem, &mut cpu);
        assert_eq!(cpu.arch().gpr(Reg::T0), 30);
        assert_eq!(cpu.counters().instructions, 2 + 3 * 10 + 1);
    }

    #[test]
    fn memory_stalls_attributed_to_levels() {
        let mut a = Asm::new(0x1000);
        a.li(Reg::A0, 0x10000);
        a.lw(Reg::T0, Reg::A0, 0); // cold miss -> memory
        a.lw(Reg::T1, Reg::A0, 4); // L1 hit
        a.halt();
        let (mut phys, mut mem, mut cpu) = build(&a);
        run_to_halt(&mut phys, &mut mem, &mut cpu);
        let c = cpu.counters();
        assert_eq!(c.loads, 2);
        // Cold load: 50-cycle service, 49 stall cycles charged to memory.
        assert_eq!(c.stall_memory, 49);
        assert_eq!(c.stall_l2, 0);
        assert_eq!(c.stall_l1_data, 0, "1-cycle hits cost nothing extra");
    }

    #[test]
    fn stores_do_not_stall_until_buffer_full() {
        let mut a = Asm::new(0x1000);
        a.li(Reg::A0, 0x20000);
        // First touch so the line is present (avoid 16 cold misses).
        a.lw(Reg::T0, Reg::A0, 0);
        for k in 0..16 {
            a.sw(Reg::T0, Reg::A0, (k * 4) as i16);
        }
        a.halt();
        let (mut phys, mut mem, mut cpu) = build(&a);
        run_to_halt(&mut phys, &mut mem, &mut cpu);
        let c = cpu.counters();
        assert_eq!(c.stores, 16);
        // Write-back L1 hits complete in a cycle; buffer never fills.
        assert_eq!(c.stall_store_buffer, 0);
    }

    #[test]
    fn sync_drains_write_buffer() {
        let mut a = Asm::new(0x1000);
        a.li(Reg::A0, 0x30000);
        a.sw(Reg::T0, Reg::A0, 0); // cold store miss: 50 cycles in flight
        a.sync();
        a.halt();
        let (mut phys, mut mem, mut cpu) = build(&a);
        run_to_halt(&mut phys, &mut mem, &mut cpu);
        assert!(cpu.counters().stall_fence > 0, "sync waited for the store");
    }

    #[test]
    fn instruction_fetch_miss_charged_to_istall() {
        let mut a = Asm::new(0x1000);
        a.halt();
        let (mut phys, mut mem, mut cpu) = build(&a);
        run_to_halt(&mut phys, &mut mem, &mut cpu);
        // The first fetch cold-misses all the way to memory.
        assert_eq!(cpu.counters().stall_instruction, 49);
    }

    #[test]
    fn a_rewritten_instruction_runs_its_new_encoding() {
        use cmpsim_isa::{encode, AluOp, Instr};
        let add100 = Instr::AluI {
            op: AluOp::Add,
            rt: Reg::T1,
            rs: Reg::T1,
            imm: 100,
        };
        // Pass 1 runs `addi t1, t1, 1`, then stores `addi t1, t1, 100`
        // over it; pass 2 must run the new word.
        let mut a = Asm::new(0x1000);
        a.li(Reg::T0, 2);
        a.la(Reg::A0, "patched");
        a.li(Reg::A1, i64::from(encode(&add100)));
        a.label("patched");
        a.addi(Reg::T1, Reg::T1, 1);
        a.sw(Reg::A1, Reg::A0, 0);
        a.addi(Reg::T0, Reg::T0, -1);
        a.bnez(Reg::T0, "patched");
        a.halt();
        let (mut phys, mut mem, mut cpu) = build(&a);
        run_to_halt(&mut phys, &mut mem, &mut cpu);
        assert_eq!(cpu.arch().gpr(Reg::T1), 101);
    }

    #[test]
    fn spin_time_counts_as_busy() {
        // CPU time in the paper includes synchronization spin.
        let mut a = Asm::new(0x1000);
        a.li(Reg::T0, 100);
        a.label("spin");
        a.addi(Reg::T0, Reg::T0, -1);
        a.bnez(Reg::T0, "spin");
        a.halt();
        let (mut phys, mut mem, mut cpu) = build(&a);
        run_to_halt(&mut phys, &mut mem, &mut cpu);
        assert_eq!(cpu.counters().busy_cycles, cpu.counters().instructions);
    }
}
