//! Failure-injection and edge-path tests across the public API.

use cmpsim::core::machine::run_workload;
use cmpsim::core::{ArchKind, CpuKind, Machine, MachineConfig, RunError};
use cmpsim_cpu::{CpuModel, MipsyCpu};
use cmpsim_engine::prop::{self, Config};
use cmpsim_engine::Cycle;
use cmpsim_isa::{Asm, Reg};
use cmpsim_kernels::{build_by_name, BuiltWorkload, Layout, ProcessInit, ALL_WORKLOADS};
use cmpsim_mem::{AddrSpace, MemorySystem, PhysMem, SentinelSpec, SharedMemSystem, SystemConfig};

fn tiny_workload(asm: &Asm) -> BuiltWorkload {
    let prog = asm.assemble().expect("assembles");
    BuiltWorkload {
        name: "tiny",
        image: vec![(prog.base, prog.words)],
        entries: vec![ProcessInit {
            entry: prog.base,
            space: AddrSpace::identity(),
        }],
        extra_processes: vec![Vec::new()],
        init: Box::new(|_| {}),
        check: Box::new(|_| Ok(())),
    }
}

#[test]
fn sc_without_ll_fails_cleanly() {
    let mut a = Asm::new(Layout::CODE);
    a.la_abs(Reg::A0, Layout::DATA);
    a.li(Reg::T0, 99);
    a.sc(Reg::T0, Reg::A0, 0); // no preceding LL
    a.la_abs(Reg::A1, Layout::CHECK);
    a.sw(Reg::T0, Reg::A1, 0); // record the SC result
    a.halt();
    let w = tiny_workload(&a);
    let mut cfg = MachineConfig::new(ArchKind::SharedMem, CpuKind::Mipsy);
    cfg.n_cpus = 1;
    let mut m = Machine::new(&cfg, &w);
    m.run(1_000_000).expect("runs");
    assert_eq!(m.phys().read_u32(Layout::CHECK), 0, "SC must fail");
    assert_eq!(m.phys().read_u32(Layout::DATA), 0, "no store on failure");
}

#[test]
fn misaligned_and_unmapped_accesses_are_total() {
    let mut a = Asm::new(Layout::CODE);
    a.la_abs(Reg::A0, Layout::DATA);
    a.li(Reg::T0, 0x1234_5678);
    a.sw(Reg::T0, Reg::A0, 1); // misaligned store (byte-wise semantics)
    a.lw(Reg::T1, Reg::A0, 1); // misaligned load reads it back
    a.la_abs(Reg::A1, 0xDEAD_0000); // unmapped region
    a.lw(Reg::T2, Reg::A1, 0);
    a.la_abs(Reg::A2, Layout::CHECK);
    a.sw(Reg::T1, Reg::A2, 0);
    a.sw(Reg::T2, Reg::A2, 4);
    a.halt();
    let w = tiny_workload(&a);
    let mut cfg = MachineConfig::new(ArchKind::SharedL1, CpuKind::Mipsy);
    cfg.n_cpus = 1;
    let mut m = Machine::new(&cfg, &w);
    m.run(1_000_000).expect("runs");
    assert_eq!(m.phys().read_u32(Layout::CHECK), 0x1234_5678);
    assert_eq!(
        m.phys().read_u32(Layout::CHECK + 4),
        0,
        "unmapped reads zero"
    );
}

#[test]
fn infinite_loop_hits_the_cycle_budget() {
    let mut a = Asm::new(Layout::CODE);
    a.label("forever");
    a.j("forever");
    let w = tiny_workload(&a);
    let mut cfg = MachineConfig::new(ArchKind::SharedMem, CpuKind::Mipsy);
    cfg.n_cpus = 1;
    let mut m = Machine::new(&cfg, &w);
    match m.run(10_000) {
        Err(RunError::Timeout { budget, report }) => {
            assert_eq!(budget, 10_000);
            // The enriched report names the stuck CPU and its PC.
            let stuck: Vec<_> = report.stuck_cpus().collect();
            assert_eq!(stuck.len(), 1, "{report}");
            assert_eq!(stuck[0].cpu, 0);
            assert!(report.to_string().contains("pc 0x"), "{report}");
        }
        other => panic!("expected a timeout, got {other:?}"),
    }
}

#[test]
fn sentinel_on_random_fragments_reports_zero_violations() {
    // Property: with the checker on, random workload fragments run clean
    // on all five architectures — the protocol implementations actually
    // preserve their invariants.
    let arches = [
        ArchKind::SharedL1,
        ArchKind::SharedL2,
        ArchKind::SharedMem,
        ArchKind::Clustered,
        ArchKind::Mesh,
    ];
    let cfg = Config::from_env_or_cases(8);
    prop::check_with(&cfg, "sentinel_on_random_fragments", |src| {
        let workload = src.choice(&ALL_WORKLOADS);
        let scale = src.f64(0.02..0.08);
        let w = build_by_name(workload, 4, scale)
            .unwrap_or_else(|e| panic!("{workload} @{scale}: {e}"));
        for arch in arches {
            let mut mc = MachineConfig::new(arch, CpuKind::Mipsy);
            mc.sentinel = Some(SentinelSpec::on());
            let s = run_workload(&mc, &w, 10_000_000_000)
                .unwrap_or_else(|e| panic!("{workload} on {arch}: {e}"));
            assert!(
                s.violations.is_empty(),
                "{workload} @{scale} on {arch}: {:?}",
                s.violations
            );
        }
    });
}

#[test]
fn check_failures_are_reported_not_swallowed() {
    let mut a = Asm::new(Layout::CODE);
    a.halt();
    let prog = a.assemble().expect("assembles");
    let w = BuiltWorkload {
        name: "always-fails",
        image: vec![(prog.base, prog.words)],
        entries: vec![ProcessInit {
            entry: prog.base,
            space: AddrSpace::identity(),
        }],
        extra_processes: vec![Vec::new()],
        init: Box::new(|_| {}),
        check: Box::new(|_| Err("expected failure".into())),
    };
    let mut cfg = MachineConfig::new(ArchKind::SharedMem, CpuKind::Mipsy);
    cfg.n_cpus = 1;
    match run_workload(&cfg, &w, 1_000_000) {
        Err(RunError::CheckFailed(msg)) => assert!(msg.contains("expected failure")),
        other => panic!("expected CheckFailed, got {other:?}"),
    }
}

#[test]
fn wrong_path_garbage_fetch_is_harmless() {
    // A mispredicted indirect jump sends MXS fetch into unmapped memory;
    // the garbage decodes to NOPs, gets squashed, and the program still
    // computes the right answer.
    use cmpsim_cpu::MxsCpu;
    let mut a = Asm::new(Layout::CODE);
    a.la_abs(Reg::T5, Layout::CODE + 0x4000); // far, unmapped-ish target
    a.li(Reg::S0, 3);
    a.label("loop");
    // Train the BTB on one target, then switch: guaranteed mispredicts.
    a.jalr(Reg::RA, Reg::T5);
    a.label("back");
    a.addi(Reg::S0, Reg::S0, -1);
    a.bnez(Reg::S0, "loop");
    a.halt();
    // The "function" at +0x4000: just return.
    let mut f = Asm::new(Layout::CODE + 0x4000);
    f.ret();
    let prog = a.assemble().expect("assembles");
    let fprog = f.assemble().expect("assembles");
    let mut phys = PhysMem::new(1);
    phys.load_words(prog.base, &prog.words);
    phys.load_words(fprog.base, &fprog.words);
    let mut mem = SharedMemSystem::new(&SystemConfig::paper_shared_mem(1));
    let mut cpu = MxsCpu::new(0, prog.base, AddrSpace::identity());
    let mut now = Cycle(0);
    while !cpu.halted() && now.0 < 1_000_000 {
        let (next, _) = cpu.step(now, &mut mem, &mut phys);
        now = next;
    }
    assert!(cpu.halted(), "program must terminate despite wrong paths");
    assert_eq!(cpu.arch().gpr(Reg::S0), 0);
}

#[test]
fn mipsy_write_buffer_backpressure_counts_stalls() {
    // A burst of store misses to distinct lines fills the 4-entry buffer.
    let mut a = Asm::new(Layout::CODE);
    a.la_abs(Reg::A0, Layout::DATA);
    for k in 0..12 {
        a.sw(Reg::T0, Reg::A0, (k * 64) as i16); // distinct lines, all cold
    }
    a.halt();
    let prog = a.assemble().expect("assembles");
    let mut phys = PhysMem::new(1);
    phys.load_words(prog.base, &prog.words);
    let mut mem = SharedMemSystem::new(&SystemConfig::paper_shared_mem(1));
    let mut cpu = MipsyCpu::new(0, prog.base, AddrSpace::identity());
    let mut now = Cycle(0);
    while !cpu.halted() {
        let (next, _) = cpu.step(now, &mut mem, &mut phys);
        now = next;
    }
    assert!(
        cpu.counters().stall_store_buffer > 0,
        "the burst must back-pressure the 4-entry write buffer"
    );
}

#[test]
fn roi_reset_clears_statistics() {
    use cmpsim_isa::HcallNo;
    let mut a = Asm::new(Layout::CODE);
    a.la_abs(Reg::A0, Layout::DATA);
    // Warm-up phase with memory traffic.
    for k in 0..8 {
        a.lw(Reg::T0, Reg::A0, (k * 64) as i16);
    }
    a.hcall(HcallNo::ResetStats);
    // Region of interest: pure ALU work.
    a.li(Reg::T1, 100);
    a.label("roi");
    a.addi(Reg::T1, Reg::T1, -1);
    a.bnez(Reg::T1, "roi");
    a.halt();
    let w = tiny_workload(&a);
    let mut cfg = MachineConfig::new(ArchKind::SharedMem, CpuKind::Mipsy);
    cfg.n_cpus = 1;
    let mut m = Machine::new(&cfg, &w);
    let s = m.run(1_000_000).expect("runs");
    assert_eq!(s.mem.l1d.accesses, 0, "pre-ROI loads must not be counted");
    assert!(s.total.instructions <= 210, "only ROI instructions counted");
    assert!(s.wall_cycles < 1000, "wall clock restarts at the ROI");
}

#[test]
fn memory_systems_reject_nothing_but_count_everything() {
    // Druidic smoke test: a scatter of accesses with every kind, then the
    // stats add up.
    use cmpsim_mem::MemRequest;
    let mut sys = SharedMemSystem::new(&SystemConfig::paper_shared_mem(4));
    let mut n = 0;
    for i in 0..1000u32 {
        let cpu = (i % 4) as usize;
        let addr = (i.wrapping_mul(2654435761)) & 0xf_ffff;
        let req = match i % 3 {
            0 => MemRequest::load(cpu, addr),
            1 => MemRequest::store(cpu, addr),
            _ => MemRequest::ifetch(cpu, addr),
        };
        sys.access(Cycle(u64::from(i) * 10), req);
        n += 1;
    }
    let st = sys.stats();
    assert_eq!(
        st.l1d.accesses + st.l1i.accesses,
        n,
        "every access lands in exactly one L1's statistics"
    );
}
