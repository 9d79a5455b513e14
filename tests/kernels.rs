//! The workload generators and the synchronization runtime, run on the
//! machine. Every program runs on the shared-memory Mipsy machine through
//! `cmpsim_core::Machine`, the simulator's one scheduler (with its full
//! context switch), and the workloads must pass their own checks against
//! the Rust reference computations.

use cmpsim::core::machine::run_workload;
use cmpsim::core::{ArchKind, CpuKind, Machine, MachineConfig, RunError, RunSummary};
use cmpsim_isa::{Asm, Program, Reg};
use cmpsim_kernels::{BuiltWorkload, Layout, ProcessInit, Runtime, WorkloadParams};
use cmpsim_mem::AddrSpace;

const BUDGET: u64 = 2_000_000_000;

/// The shared-memory Mipsy machine with `n_cpus` CPUs.
fn machine_config(n_cpus: usize) -> MachineConfig {
    let mut cfg = MachineConfig::new(ArchKind::SharedMem, CpuKind::Mipsy);
    cfg.n_cpus = n_cpus;
    cfg
}

/// Runs `w` to completion on the shared-memory Mipsy machine, one CPU per
/// entry point, and runs its self-check.
fn run(w: &BuiltWorkload) -> Result<RunSummary, RunError> {
    run_workload(&machine_config(w.entries.len()), w, BUDGET)
}

fn params(n_cpus: usize, scale: f64) -> WorkloadParams {
    WorkloadParams { n_cpus, scale }
}

mod eqntott {
    use super::*;
    use cmpsim_kernels::eqntott::build;

    #[test]
    fn runs_and_validates_small() {
        let w = build(&params(4, 0.05)).expect("builds");
        run(&w).expect("workload validates");
    }

    /// The generator covers arbitrary CPU counts, not just the
    /// power-of-two ladder: a non-power-of-two count picks the multiply
    /// offset path and still validates against the Rust reference.
    #[test]
    fn runs_and_validates_at_a_non_power_of_two_cpu_count() {
        let w = build(&params(6, 0.05)).expect("builds");
        assert_eq!(w.entries.len(), 6);
        run(&w).expect("6-cpu run validates");
    }

    #[test]
    fn runs_on_one_cpu() {
        let w = build(&params(1, 0.05)).expect("builds");
        run(&w).expect("single-cpu run validates");
    }
}

mod ocean {
    use super::*;
    use cmpsim_kernels::ocean::build;

    #[test]
    fn runs_and_validates_small() {
        let w = build(&params(4, 0.15)).expect("builds");
        run(&w).expect("workload validates");
    }

    #[test]
    fn runs_on_two_cpus() {
        let w = build(&params(2, 0.15)).expect("builds");
        run(&w).expect("two-cpu run validates");
    }

    /// A phase of a quarter band used to carry the upper CPUs of 8- and
    /// 16-CPU machines past their own band, into the next CPU's rows and
    /// over the fixed bottom border, and the checksum came out wrong.
    #[test]
    fn validates_on_eight_and_sixteen_cpus() {
        for (n_cpus, scale) in [(8, 0.25), (16, 0.5)] {
            let w = build(&params(n_cpus, scale)).expect("builds");
            run(&w).unwrap_or_else(|e| panic!("{n_cpus} CPUs at scale {scale}: {e}"));
        }
    }
}

mod multiprog {
    use super::*;
    use cmpsim_kernels::multiprog::build;

    #[test]
    fn runs_and_validates_small() {
        let w = build(&params(4, 0.15)).expect("builds");
        run(&w).expect("workload validates");
    }

    #[test]
    fn runs_on_two_cpus() {
        let w = build(&params(2, 0.15)).expect("builds");
        run(&w).expect("two-cpu run validates");
    }
}

mod synth {
    use super::*;
    use cmpsim_kernels::synth::{build, SynthParams};

    #[test]
    fn default_params_validate() {
        let p = SynthParams {
            rounds: 4,
            grain: 120,
            ..SynthParams::default()
        };
        run(&build(&p).expect("builds")).expect("validates");
    }

    #[test]
    fn pure_private_read_only_configuration() {
        let p = SynthParams {
            rounds: 3,
            grain: 100,
            store_pct: 0,
            shared_pct: 0,
            ..SynthParams::default()
        };
        run(&build(&p).expect("builds")).expect("validates");
    }

    #[test]
    fn heavy_sharing_heavy_stores_configuration() {
        let p = SynthParams {
            rounds: 3,
            grain: 100,
            store_pct: 60,
            shared_pct: 80,
            shared_kb: 2,
            ..SynthParams::default()
        };
        run(&build(&p).expect("builds")).expect("validates");
    }

    #[test]
    fn single_cpu_works() {
        let p = SynthParams {
            n_cpus: 1,
            rounds: 2,
            grain: 80,
            ..SynthParams::default()
        };
        run(&build(&p).expect("builds")).expect("validates");
    }
}

mod ear {
    use super::*;
    use cmpsim_kernels::ear::build;

    #[test]
    fn runs_and_validates_small() {
        let w = build(&params(4, 0.05)).expect("builds");
        run(&w).expect("workload validates");
    }
}

mod fft {
    use super::*;
    use cmpsim_kernels::fft::build;

    #[test]
    fn runs_and_validates_small() {
        let w = build(&params(4, 0.03)).expect("builds");
        run(&w).expect("workload validates");
    }
}

mod mp3d {
    use super::*;
    use cmpsim_kernels::mp3d::build;

    #[test]
    fn runs_and_validates_small() {
        let w = build(&params(4, 0.05)).expect("builds");
        run(&w).expect("workload validates");
    }
}

mod volpack {
    use super::*;
    use cmpsim_kernels::volpack::build;

    #[test]
    fn runs_and_validates_small() {
        let w = build(&params(4, 0.1)).expect("builds");
        run(&w).expect("workload validates");
    }
}

/// The synchronization primitives, each in a small program that all four
/// CPUs run from the same code in the identity address space.
mod runtime {
    use super::*;

    /// Runs `prog` on every CPU of the 4-CPU shared-memory Mipsy machine
    /// and returns the finished machine, whose memory the test reads.
    fn run_on_four_cpus(prog: &Program) -> Machine {
        let entry = ProcessInit {
            entry: prog.base,
            space: AddrSpace::identity(),
        };
        let w = BuiltWorkload {
            name: "runtime",
            image: vec![(prog.base, prog.words.clone())],
            entries: vec![entry; 4],
            extra_processes: vec![Vec::new(); 4],
            init: Box::new(|_| {}),
            check: Box::new(|_| Ok(())),
        };
        let mut m = Machine::new(&machine_config(4), &w);
        m.run(BUDGET).expect("every CPU halts");
        m
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
        let m = run_on_four_cpus(&a.assemble().expect("assembles"));
        let phys = m.phys();
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
        let m = run_on_four_cpus(&a.assemble().expect("assembles"));
        let phys = m.phys();
        for c in 0..4 {
            assert_eq!(phys.read_u32(results + c * 32), 10, "cpu {c} saw all slots");
        }
    }

    #[test]
    fn barrier_reusable_many_times() {
        // Each CPU adds into one shared word between barriers; after N
        // rounds it holds 4 * N and no CPU ever raced ahead.
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
        let m = run_on_four_cpus(&a.assemble().expect("assembles"));
        let phys = m.phys();
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
        let m = run_on_four_cpus(&a.assemble().expect("assembles"));
        let phys = m.phys();
        let mut tickets: Vec<u32> = (0..4).map(|c| phys.read_u32(out + c * 32)).collect();
        tickets.sort_unstable();
        assert_eq!(tickets, vec![0, 1, 2, 3], "tickets must be unique");
        assert_eq!(phys.read_u32(word), 4);
    }
}
