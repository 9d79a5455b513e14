//! Synchronization runtime: LL/SC spin locks, sense-reversing barriers and
//! fetch-and-add, emitted as inline assembly sequences.
//!
//! Register conventions (documented contract with the workload generators):
//!
//! * `$s7` holds the CPU id for the whole program (set by
//!   [`Runtime::preamble`]).
//! * `$s6` holds the barrier's local sense.
//! * `$t8`, `$t9` are runtime scratch — workload code must not keep live
//!   values in them across runtime calls.
//!
//! Lock acquire is test-and-test-and-set (spin on a plain load, then
//! LL/SC), which keeps spin traffic in the local cache on the private-L1
//! architectures. Acquire ends with `SYNC` and release begins with one, so
//! critical sections are properly fenced under the speculative MXS model.

use crate::layout::Layout;
use cmpsim_isa::{Asm, Reg};

/// Emitter for synchronization primitives. Carries a counter so every
/// emission gets unique labels.
#[derive(Debug, Default)]
pub struct Runtime {
    next: u32,
}

impl Runtime {
    /// Creates a fresh emitter.
    pub fn new() -> Runtime {
        Runtime::default()
    }

    fn fresh(&mut self, stem: &str) -> String {
        let n = self.next;
        self.next += 1;
        format!("__rt{n}_{stem}")
    }

    /// Program preamble: `$s7` = cpu id, `$sp` = this CPU's stack top,
    /// `$s6` = initial barrier sense (0).
    pub fn preamble(&mut self, a: &mut Asm) {
        a.cpuid(Reg::S7);
        a.addi(Reg::T8, Reg::S7, 1);
        a.slli(Reg::T8, Reg::T8, 14); // * STACK_BYTES (0x4000)
        a.la_abs(Reg::SP, Layout::STACKS);
        a.add(Reg::SP, Reg::SP, Reg::T8);
        a.addi(Reg::SP, Reg::SP, -32);
        a.li(Reg::S6, 0);
    }

    /// Spins until the lock at `0(lock)` is acquired. Clobbers `$t8`/`$t9`.
    pub fn lock_acquire(&mut self, a: &mut Asm, lock: Reg) {
        let acq = self.fresh("acquire");
        a.label(&acq);
        // Test: spin locally while held.
        a.lw(Reg::T8, lock, 0);
        a.bnez(Reg::T8, &acq);
        // Test-and-set.
        a.ll(Reg::T8, lock, 0);
        a.bnez(Reg::T8, &acq);
        a.li(Reg::T9, 1);
        a.sc(Reg::T9, lock, 0);
        a.beqz(Reg::T9, &acq);
        a.sync();
    }

    /// Releases the lock at `0(lock)`.
    pub fn lock_release(&mut self, a: &mut Asm, lock: Reg) {
        a.sync();
        a.sw(Reg::ZERO, lock, 0);
    }

    /// Sense-reversing barrier for `n_cpus` CPUs. The barrier block at
    /// `0(bar)` holds the arrival count; the release sense lives one cache
    /// line later at `32(bar)`. Uses `$s6` as the local sense; clobbers
    /// `$t8`/`$t9`.
    pub fn barrier(&mut self, a: &mut Asm, bar: Reg, n_cpus: usize) {
        let inc = self.fresh("bar_inc");
        let wait = self.fresh("bar_wait");
        let done = self.fresh("bar_done");
        a.xori(Reg::S6, Reg::S6, 1);
        a.label(&inc);
        a.ll(Reg::T8, bar, 0);
        a.addi(Reg::T9, Reg::T8, 1);
        a.sc(Reg::T9, bar, 0);
        a.beqz(Reg::T9, &inc);
        a.addi(Reg::T8, Reg::T8, 1); // new count
        a.li(Reg::T9, n_cpus as i64);
        a.bne(Reg::T8, Reg::T9, &wait);
        // Last arrival: reset the count, then flip the release sense.
        a.sw(Reg::ZERO, bar, 0);
        a.sync();
        a.sw(Reg::S6, bar, 32);
        a.j(&done);
        a.label(&wait);
        a.lw(Reg::T8, bar, 32);
        a.bne(Reg::T8, Reg::S6, &wait);
        a.label(&done);
        a.sync();
    }

    /// Atomic fetch-and-add on `0(addr)`: `result` gets the *old* value.
    /// Clobbers `$t8`/`$t9`; `result` must not be `$t8`/`$t9`/`addr`.
    pub fn fetch_add(&mut self, a: &mut Asm, addr: Reg, delta: i16, result: Reg) {
        assert!(
            result != Reg::T8 && result != Reg::T9 && result != addr,
            "fetch_add result register conflicts with scratch"
        );
        let retry = self.fresh("faa");
        a.label(&retry);
        a.ll(Reg::T8, addr, 0);
        a.addi(Reg::T9, Reg::T8, delta);
        a.sc(Reg::T9, addr, 0);
        a.beqz(Reg::T9, &retry);
        a.sync();
        a.mv(result, Reg::T8);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmpsim_cpu::{CpuModel, MipsyCpu};
    use cmpsim_engine::Cycle;
    use cmpsim_mem::{AddrSpace, PhysMem, SharedMemSystem, SystemConfig};

    /// Minimal 4-CPU harness: steps the CPU with the smallest next-ready
    /// time, like the real machine in `cmpsim-core`.
    fn run4(prog: &cmpsim_isa::Program, phys: &mut PhysMem) -> Vec<MipsyCpu> {
        let mut mem = SharedMemSystem::new(&SystemConfig::paper_shared_mem(4));
        let mut cpus: Vec<MipsyCpu> = (0..4)
            .map(|c| MipsyCpu::new(c, prog.base, AddrSpace::identity()))
            .collect();
        let mut ready = [Cycle(0); 4];
        for _ in 0..8_000_000 {
            let Some(c) = (0..4)
                .filter(|&c| !cpus[c].halted())
                .min_by_key(|&c| ready[c])
            else {
                return cpus;
            };
            let (next, _) = cpus[c].step(ready[c], &mut mem, phys);
            ready[c] = next;
        }
        panic!("did not converge");
    }

    #[test]
    fn lock_protects_a_counter() {
        let counter = Layout::sync_word(4);
        let lock = Layout::sync_word(5);
        let mut rt = Runtime::new();
        let mut a = Asm::new(Layout::CODE);
        rt.preamble(&mut a);
        a.la_abs(Reg::A0, lock);
        a.la_abs(Reg::A1, counter);
        a.li(Reg::S0, 50); // iterations
        a.label("loop");
        rt.lock_acquire(&mut a, Reg::A0);
        a.lw(Reg::T0, Reg::A1, 0);
        a.addi(Reg::T0, Reg::T0, 1);
        a.sw(Reg::T0, Reg::A1, 0);
        rt.lock_release(&mut a, Reg::A0);
        a.addi(Reg::S0, Reg::S0, -1);
        a.bnez(Reg::S0, "loop");
        a.halt();
        let prog = a.assemble().expect("assembles");
        let mut phys = PhysMem::new(4);
        phys.load_words(prog.base, &prog.words);
        run4(&prog, &mut phys);
        assert_eq!(phys.read_u32(counter), 200, "4 CPUs x 50 increments");
    }

    #[test]
    fn barrier_orders_phases() {
        // Phase 1: each CPU writes its slot. Barrier. Phase 2: each CPU
        // sums all four slots; without the barrier some slots would be 0.
        let slots = Layout::sync_word(8); // 4 line-padded slots
        let results = Layout::sync_word(16);
        let bar = Layout::sync_word(24);
        let mut rt = Runtime::new();
        let mut a = Asm::new(Layout::CODE);
        rt.preamble(&mut a);
        a.la_abs(Reg::A0, slots);
        a.la_abs(Reg::A1, results);
        a.la_abs(Reg::A2, bar);
        // slot[c] = c + 1
        a.slli(Reg::T0, Reg::S7, 5);
        a.add(Reg::T0, Reg::A0, Reg::T0);
        a.addi(Reg::T1, Reg::S7, 1);
        a.sw(Reg::T1, Reg::T0, 0);
        rt.barrier(&mut a, Reg::A2, 4);
        // sum = slot[0..4]
        a.li(Reg::T2, 0);
        for c in 0..4 {
            a.lw(Reg::T3, Reg::A0, (c * 32) as i16);
            a.add(Reg::T2, Reg::T2, Reg::T3);
        }
        a.slli(Reg::T0, Reg::S7, 5);
        a.add(Reg::T0, Reg::A1, Reg::T0);
        a.sw(Reg::T2, Reg::T0, 0);
        a.halt();
        let prog = a.assemble().expect("assembles");
        let mut phys = PhysMem::new(4);
        phys.load_words(prog.base, &prog.words);
        run4(&prog, &mut phys);
        for c in 0..4 {
            assert_eq!(phys.read_u32(results + c * 32), 10, "cpu {c} saw all slots");
        }
    }

    #[test]
    fn barrier_reusable_many_times() {
        // Each CPU increments a per-CPU counter between barriers; after N
        // rounds all counters equal N and no CPU ever raced ahead.
        let bar = Layout::sync_word(30);
        let shared = Layout::sync_word(32); // one shared word all add into
        let mut rt = Runtime::new();
        let mut a = Asm::new(Layout::CODE);
        rt.preamble(&mut a);
        a.la_abs(Reg::A2, bar);
        a.la_abs(Reg::A3, shared);
        a.li(Reg::S0, 10); // rounds
        a.label("round");
        rt.fetch_add(&mut a, Reg::A3, 1, Reg::T0);
        rt.barrier(&mut a, Reg::A2, 4);
        a.addi(Reg::S0, Reg::S0, -1);
        a.bnez(Reg::S0, "round");
        a.halt();
        let prog = a.assemble().expect("assembles");
        let mut phys = PhysMem::new(4);
        phys.load_words(prog.base, &prog.words);
        run4(&prog, &mut phys);
        assert_eq!(phys.read_u32(shared), 40, "4 CPUs x 10 rounds");
    }

    #[test]
    fn fetch_add_returns_old_values() {
        let word = Layout::sync_word(40);
        let out = Layout::sync_word(42);
        let mut rt = Runtime::new();
        let mut a = Asm::new(Layout::CODE);
        rt.preamble(&mut a);
        a.la_abs(Reg::A0, word);
        a.la_abs(Reg::A1, out);
        // Each CPU grabs one ticket and records it in its own slot.
        rt.fetch_add(&mut a, Reg::A0, 1, Reg::T0);
        a.slli(Reg::T1, Reg::S7, 5);
        a.add(Reg::T1, Reg::A1, Reg::T1);
        a.sw(Reg::T0, Reg::T1, 0);
        a.halt();
        let prog = a.assemble().expect("assembles");
        let mut phys = PhysMem::new(4);
        phys.load_words(prog.base, &prog.words);
        run4(&prog, &mut phys);
        let mut tickets: Vec<u32> = (0..4).map(|c| phys.read_u32(out + c * 32)).collect();
        tickets.sort_unstable();
        assert_eq!(tickets, vec![0, 1, 2, 3], "tickets must be unique");
        assert_eq!(phys.read_u32(word), 4);
    }

    #[test]
    #[should_panic(expected = "conflicts with scratch")]
    fn fetch_add_rejects_scratch_result() {
        let mut rt = Runtime::new();
        let mut a = Asm::new(0);
        rt.fetch_add(&mut a, Reg::A0, 1, Reg::T8);
    }
}
