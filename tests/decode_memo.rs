//! The decoded-instruction memo in `PhysMem` is a pure host-speed
//! optimization: every fetch must return what a fresh decode of memory
//! returns, whatever writes came before it, and the memo must hold one
//! copy of the code per machine, not one per CPU.

use cmpsim::core::{ArchKind, CpuKind, Machine, MachineConfig};
use cmpsim_engine::prop::{self, Source};
use cmpsim_isa::{decode, encode, AluOp, Instr, Reg};
use cmpsim_kernels::build_by_name;
use cmpsim_mem::PhysMem;

const PAGE: u32 = 4096;
const CPUS: usize = 3;

/// An address within 24 bytes of either end of page 1, 2 or 3, so writes
/// and fetches keep meeting on the same words, and multi-byte writes
/// straddle page boundaries (page 3's into page 4).
fn any_addr(src: &mut Source) -> u32 {
    let off = if src.bool() {
        PAGE - src.u32(1..25)
    } else {
        src.u32(0..24)
    };
    src.u32(1..4) * PAGE + off
}

/// A word that is usually a real instruction (so a stale decode differs
/// from a fresh one), otherwise arbitrary bits (often undecodable).
fn any_word(src: &mut Source) -> u32 {
    if src.index(4) == 0 {
        src.u32_any()
    } else {
        encode(&Instr::AluI {
            op: AluOp::Add,
            rt: Reg::T1,
            rs: Reg::T1,
            imm: src.i16_any(),
        })
    }
}

/// Every fetch equals `decode(read_u32(pa & !3))` (undecodable as `NOP`)
/// and allocates nothing, under arbitrary interleavings of every write
/// path (`write_u8`, `write_u32`, a store's `snoop_store` + `write_u32`,
/// `write_f32`, `write_f64`, `load_words`; aligned, unaligned and
/// page-crossing) with
/// fetches by several CPUs on written pages, on page 4 (written only by
/// straddling writes) and on page 8 (never written).
#[test]
fn prop_fetch_matches_a_fresh_decode_of_memory() {
    prop::check("fetch_matches_a_fresh_decode_of_memory", |src| {
        let mut m = PhysMem::new(CPUS);
        src.vec(1..200, |s| {
            if s.bool() {
                let cpu = s.index(CPUS);
                let pa = match s.index(4) {
                    0 => 8 * PAGE + s.u32(0..PAGE),
                    1 => 4 * PAGE + s.u32(0..24),
                    _ => any_addr(s),
                };
                let pages = m.resident_pages();
                let want = decode(m.read_u32(pa & !3)).unwrap_or(Instr::Nop);
                assert_eq!(m.fetch(cpu, pa), want, "fetch {pa:#x} by cpu {cpu}");
                assert_eq!(m.resident_pages(), pages, "fetch {pa:#x} allocated");
                return;
            }
            let addr = any_addr(s);
            match s.index(6) {
                0 => m.write_u8(addr, s.u32(0..256) as u8),
                1 => m.write_u32(addr, any_word(s)),
                2 => {
                    m.snoop_store(addr);
                    m.write_u32(addr, any_word(s));
                }
                3 => m.write_f32(addr, f32::from_bits(s.u32_any())),
                4 => m.write_f64(addr, f64::from_bits(s.u64_any())),
                _ => {
                    let words = s.vec(1..5, any_word);
                    m.load_words(addr, &words);
                }
            }
        });
    });
}

/// Every CPU runs the same eqntott image, so 64 CPUs decode the same
/// pages as 4: the memo is per machine, not per CPU.
#[test]
fn decoded_pages_do_not_grow_with_the_cpu_count() {
    let decoded_pages = |n_cpus: usize| {
        let w = build_by_name("eqntott", n_cpus, 0.02).expect("eqntott builds");
        let mut cfg = MachineConfig::new(ArchKind::SharedL2, CpuKind::Mipsy);
        cfg.n_cpus = n_cpus;
        let mut m = Machine::new(&cfg, &w);
        m.run(2_000_000_000).expect("eqntott runs");
        (w.check)(m.phys()).expect("eqntott validates");
        m.phys().decoded_pages()
    };
    let four = decoded_pages(4);
    assert!(four > 0, "a run fetches code");
    assert_eq!(decoded_pages(64), four);
}
