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

    #[test]
    #[should_panic(expected = "conflicts with scratch")]
    fn fetch_add_rejects_scratch_result() {
        let mut rt = Runtime::new();
        let mut a = Asm::new(0);
        rt.fetch_add(&mut a, Reg::A0, 1, Reg::T8);
    }
}
