//! Debugging workflow: disassemble a generated program, capture its
//! reference trace, and replay it.
//!
//! ```sh
//! cargo run --release --example trace_debug
//! ```
//!
//! Shows the two tools a workload author reaches for when a kernel
//! misbehaves: the listing (with labels and branch targets) and the
//! captured reference stream — every memory access the CPU issued, in
//! issue order, straight out of the `cmpsim-trace` capture hook. The same
//! capture then replays into a fresh memory system and reproduces the
//! original statistics bit for bit.

use cmpsim_cpu::{CpuModel, MipsyCpu};
use cmpsim_engine::Cycle;
use cmpsim_isa::disasm::listing;
use cmpsim_isa::{Asm, Reg};
use cmpsim_mem::{AddrSpace, MemorySystem, PhysMem, SharedMemSystem, SystemConfig};
use cmpsim_trace::{decode, replay_bytes, sink_to, SharedBuf, SinkOut, TracingSystem};
use std::rc::Rc;

fn main() {
    // A small program with a data-dependent loop and a memory access.
    let mut a = Asm::new(0x1000);
    a.label("entry");
    a.li(Reg::T0, 5);
    a.la_abs(Reg::A0, 0x8000);
    a.label("loop");
    a.lw(Reg::T1, Reg::A0, 0);
    a.add(Reg::T1, Reg::T1, Reg::T0);
    a.sw(Reg::T1, Reg::A0, 0);
    a.addi(Reg::T0, Reg::T0, -1);
    a.bnez(Reg::T0, "loop");
    a.label("done");
    a.halt();
    let prog = a.assemble().expect("assembles");

    println!("=== listing ===\n{}", listing(&prog));

    // Run the program with the capture decorator wrapped around the
    // memory system: every ifetch/load/store lands in `buf`.
    let cfg = SystemConfig::paper_shared_mem(1);
    let mut phys = PhysMem::new(1);
    phys.load_words(prog.base, &prog.words);
    let buf = SharedBuf::new();
    let sink = sink_to(SinkOut::Plain(Box::new(buf.clone())), 1).expect("sink");
    let mut mem = TracingSystem::new(Box::new(SharedMemSystem::new(&cfg)), Rc::clone(&sink));
    let mut cpu = MipsyCpu::new(0, prog.base, AddrSpace::identity());
    let mut now = Cycle(0);
    while !cpu.halted() {
        let (next, _) = cpu.step(now, &mut mem, &mut phys);
        now = next;
    }
    sink.borrow_mut().finish().expect("finishes");
    let bytes = buf.take();

    let records = decode(&bytes).expect("decodes");
    println!(
        "=== captured reference stream (last 12 of {} records, {} bytes) ===",
        records.len(),
        bytes.len()
    );
    for r in records.iter().rev().take(12).rev() {
        println!(
            "cycle {:>5}  cpu {}  {:?} @{:#06x}",
            r.cycle, r.cpu, r.kind, r.addr
        );
    }

    // Replay the capture into a fresh, identically configured system: the
    // memory statistics come out bit-identical to the traced run's.
    let mut fresh = SharedMemSystem::new(&cfg);
    let rs = replay_bytes(&bytes, &mut fresh).expect("replays");
    let identical = format!("{:?}", fresh.stats()) == format!("{:?}", mem.stats());
    println!(
        "\n=== replay ===\n{} accesses re-issued; stats bit-identical: {identical}",
        rs.accesses
    );
    assert!(identical, "replay must reproduce the captured run's stats");

    println!("\nfinal word at 0x8000: {}", phys.read_u32(0x8000));
    assert_eq!(phys.read_u32(0x8000), 5 + 4 + 3 + 2 + 1);
}
