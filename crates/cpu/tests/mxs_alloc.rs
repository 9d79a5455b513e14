//! The MXS core allocates nothing per simulated cycle once it is warm.
//!
//! A counting global allocator records the heap allocations made on the
//! test's own thread while counting is switched on, and the test asserts
//! that 10k steady-state `MxsCpu::step` calls make none. The loop kernel
//! covers every pipeline path that used to allocate or could start to: fetch
//! groups, loads, stores, `LL`/`SC`, a `SYNC` fence, an alternating branch
//! that mispredicts and squashes, and a harness call whose graduation
//! rebuilds the rename state.

use cmpsim_cpu::{CpuModel, MxsCpu, StepEvent};
use cmpsim_engine::Cycle;
use cmpsim_isa::{AluOp, Asm, HcallNo, Reg};
use cmpsim_mem::{AddrSpace, PhysMem, SharedMemSystem, SystemConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

const CODE: u32 = 0x1_0000;
const DATA: u32 = 0x10_0000;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting this thread's allocations while
/// [`COUNTING`] is set.
struct Counting;

fn note() {
    // `try_with`: the thread-locals may already be gone while a thread exits.
    let on = COUNTING.try_with(Cell::get).unwrap_or(false);
    if on {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter only observes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: the caller's guarantees for `alloc` pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, that is from `System`,
        // with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

fn kernel() -> Asm {
    let mut a = Asm::new(CODE);
    a.la_abs(Reg::A0, DATA);
    a.li(Reg::S0, 1_000_000);
    a.li(Reg::T5, 3);
    a.label("loop");
    a.lw(Reg::T0, Reg::A0, 0);
    a.addi(Reg::T0, Reg::T0, 1);
    a.sw(Reg::T0, Reg::A0, 0);
    a.div(Reg::T4, Reg::T0, Reg::T5);
    a.ll(Reg::T1, Reg::A0, 4);
    a.addi(Reg::T1, Reg::T1, 1);
    a.sc(Reg::T1, Reg::A0, 4);
    a.sync();
    // Taken every other iteration: the BTB keeps mispredicting it.
    a.alui(AluOp::And, Reg::T2, Reg::S0, 1);
    a.beqz(Reg::T2, "even");
    a.addi(Reg::T3, Reg::T3, 1);
    a.label("even");
    a.hcall(HcallNo::Phase(1));
    a.addi(Reg::S0, Reg::S0, -1);
    a.bnez(Reg::S0, "loop");
    a.halt();
    a
}

#[test]
fn steady_state_steps_do_not_allocate() {
    let prog = kernel().assemble().expect("assembles");
    let mut phys = PhysMem::new(1);
    phys.load_words(prog.base, &prog.words);
    let mut mem = SharedMemSystem::new(&SystemConfig::paper_shared_mem(1));
    let mut cpu = MxsCpu::new(0, prog.base, AddrSpace::identity());

    let mut now = Cycle(0);
    let mut hcalls = 0u64;
    let mut run = |cpu: &mut MxsCpu, steps: usize| {
        for _ in 0..steps {
            let (next, ev) = cpu.step(now, &mut mem, &mut phys);
            assert!(!cpu.halted(), "the kernel must still be looping");
            if matches!(ev, StepEvent::Hcall(_)) {
                hcalls += 1;
            }
            now = next;
        }
    };

    run(&mut cpu, 10_000);
    let before = (cpu.counters().instructions, cpu.counters().mispredicts);
    COUNTING.with(|on| on.set(true));
    run(&mut cpu, 10_000);
    COUNTING.with(|on| on.set(false));
    let allocs = ALLOCS.with(Cell::get);

    let graduated = cpu.counters().instructions - before.0;
    let mispredicts = cpu.counters().mispredicts - before.1;
    assert!(
        graduated > 1_000,
        "the window must make progress ({graduated})"
    );
    assert!(hcalls > 10, "harness calls must graduate ({hcalls})");
    assert!(
        mispredicts > 10,
        "the branch must mispredict ({mispredicts})"
    );
    assert_eq!(
        allocs, 0,
        "{allocs} heap allocations in 10k steady-state steps ({graduated} instructions)"
    );
}
