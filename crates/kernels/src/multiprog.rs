//! Multiprogramming + OS workload: parallel gcc-like compiles over a
//! simulated kernel.
//!
//! The paper's multiprogramming workload runs two parallel makes of the
//! Modified Andrew Benchmark's compile phase (gcc on 17 files) under IRIX:
//! multiple independent processes with *no* user-level sharing, long code
//! paths (instruction working set beyond the 16 KB I-caches), a much larger
//! store fraction than the scientific codes, and ~16% of non-idle time in
//! the kernel, whose code and data are shared by all CPUs.
//!
//! This generator creates `2 × n_cpus` compile processes, each in its own
//! address space with a private copy of a large synthetic "compiler"
//! (dozens of generated straight-line functions mixing loads, stores and
//! ALU ops over a 32 KB private data area). After each "file" a process
//! traps into a shared kernel routine (lock-protected run-queue update plus
//! bookkeeping) and yields, so the per-CPU scheduler interleaves the two
//! processes — kernel data structures are the only shared state, exactly as
//! the paper describes.
//!
//! Signature to match (Figure 10 / Figure 11): instruction stalls ≈ 9–10%
//! of time; shared-L1 *not* worse than private L1s under Mipsy (small
//! per-process working sets + kernel overlap); shared-L2 ~6% worse under
//! Mipsy (write-through store port contention); shared-memory clearly best
//! under MXS once the real 3-cycle shared-L1 hit time applies.

use crate::workload::{BuiltWorkload, ProcessInit, WorkloadParams};
use cmpsim_engine::Rng64;
use cmpsim_isa::{Asm, AsmError, HcallNo, Reg};
use cmpsim_mem::{AddrSpace, KERNEL_BASE};

/// Private bytes per process. The 0x3_2000-byte skew acts as OS page
/// colouring: the eight processes' code and data land in distinct
/// L2-offset slots (mod 2 MB and mod 512 KB) *and* distinct shared-L1 set
/// offsets (mod 32 KB), instead of all aliasing at the same cache sets.
pub const PRIV_BYTES: u32 = 0x0103_2000;
const CODE_VA: u32 = 0x0001_0000;
const DATA_VA: u32 = 0x0020_0000;
/// Private data area: 12 KB. The paper stresses that the OS workload's
/// processes have *small* data working sets that fit comfortably even in a
/// shared 64 KB L1.
const DATA_WORDS: u32 = 3072;
const STATE_VA: u32 = 0x0030_0000;
const ACC_VA: u32 = 0x0030_0100;
const DONE_VA: u32 = 0x0030_0200;
const DONE_MAGIC: u32 = 0xD00D_FEED;

const KDATA: u32 = KERNEL_BASE + 0x1F_0000;
const KDATA_LINES: usize = 64;
const KLOCK: u32 = KERNEL_BASE + 0x1F_8000;
/// Iterations of the kernel bookkeeping loop (tuned for ~16% kernel time).
const KPAD: i64 = 40;

/// Ops in each generated function's body.
const OPS_PER_FUNC: usize = 100;
/// Code words one generated function can take: up to two per op, its
/// loop counter, loop branch and return, and the main loop's two calls.
const FUNC_WORDS: usize = 2 * OPS_PER_FUNC + 6;
/// Functions whose code fits between `CODE_VA` and `DATA_VA`, keeping
/// one function's worth of words for the main loop.
const MAX_FUNCS: usize = (DATA_VA - CODE_VA) as usize / 4 / FUNC_WORDS - 1;

/// Times each generated function's body loops over its op sequence —
/// models gcc's internal loops and gives the instruction stream the reuse a
/// real compiler has.
const FUNC_REPEAT: usize = 8;

/// One step of a generated "compiler" function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    /// `acc ^= data[woff]`
    Load(u16),
    /// `data[woff] = acc`
    Store(u16),
    /// `acc += k` (sign-extended)
    Add(i16),
    /// `acc ^= k` (zero-extended)
    Xor(u16),
}

fn gen_funcs(rng: &mut Rng64, n_funcs: usize, ops_per_func: usize) -> Vec<Vec<Op>> {
    (0..n_funcs)
        .map(|_| {
            (0..ops_per_func)
                .map(|_| {
                    let woff = (rng.range(u64::from(DATA_WORDS)) as u16) * 4;
                    match rng.range(100) {
                        0..=44 => Op::Load(woff),
                        45..=69 => Op::Store(woff),
                        70..=84 => Op::Add((rng.range(4000) as i16) - 2000),
                        _ => Op::Xor(rng.range(0x7fff) as u16),
                    }
                })
                .collect()
        })
        .collect()
}

fn initial_data(asid: u32, i: u32) -> u32 {
    (i ^ asid.wrapping_mul(0x9e37_79b9)).wrapping_mul(2654435761)
}

/// Reference: final accumulator for one process.
fn eval_process(asid: u32, funcs: &[Vec<Op>], n_files: usize) -> u32 {
    let mut arr: Vec<u32> = (0..DATA_WORDS).map(|i| initial_data(asid, i)).collect();
    let mut acc = 0u32;
    for _file in 0..n_files {
        for _pass in 0..2 {
            for f in funcs {
                for op in std::iter::repeat_n(f, FUNC_REPEAT).flatten() {
                    match *op {
                        Op::Load(off) => acc ^= arr[(off / 4) as usize],
                        Op::Store(off) => arr[(off / 4) as usize] = acc,
                        Op::Add(k) => acc = acc.wrapping_add(k as i32 as u32),
                        Op::Xor(k) => acc ^= u32::from(k),
                    }
                }
            }
        }
    }
    acc
}

fn emit_user_program(funcs: &[Vec<Op>], n_files: usize) -> Result<Vec<u32>, AsmError> {
    let mut a = Asm::new(CODE_VA);
    // Entry: acc in $s0, data base in $s1, files left in $s2.
    a.la_abs(Reg::S1, DATA_VA);
    a.li(Reg::S0, 0);
    a.li(Reg::S2, n_files as i64);
    a.label("file");
    for pass in 0..2 {
        for (i, _) in funcs.iter().enumerate() {
            let _ = pass;
            a.jal(&format!("func{i}"));
        }
    }
    // "System call" after each file, then yield the CPU. The kernel lives
    // above the 26-bit direct-jump range, so call through a register.
    a.la_abs(Reg::T0, KERNEL_BASE);
    a.jalr(Reg::RA, Reg::T0);
    a.la_abs(Reg::T0, STATE_VA);
    a.sw(Reg::S0, Reg::T0, 0);
    a.sw(Reg::S2, Reg::T0, 4);
    a.hcall(HcallNo::Yield);
    a.la_abs(Reg::S1, DATA_VA);
    a.la_abs(Reg::T0, STATE_VA);
    a.lw(Reg::S0, Reg::T0, 0);
    a.lw(Reg::S2, Reg::T0, 4);
    a.addi(Reg::S2, Reg::S2, -1);
    a.bnez(Reg::S2, "file");
    // Done: publish the result and exit.
    a.la_abs(Reg::T0, ACC_VA);
    a.sw(Reg::S0, Reg::T0, 0);
    a.la_abs(Reg::T0, DONE_VA);
    a.li(Reg::T1, i64::from(DONE_MAGIC));
    a.sw(Reg::T1, Reg::T0, 0);
    a.hcall(HcallNo::Exit);
    a.halt(); // unreachable (Exit retires the process)

    // The generated "compiler" functions: a long straight-line body,
    // executed FUNC_REPEAT times per call.
    for (i, f) in funcs.iter().enumerate() {
        a.label(&format!("func{i}"));
        a.li(Reg::T6, FUNC_REPEAT as i64);
        a.label(&format!("func{i}_loop"));
        for op in f {
            match *op {
                Op::Load(off) => {
                    a.lw(Reg::T0, Reg::S1, off as i16);
                    a.xor(Reg::S0, Reg::S0, Reg::T0);
                }
                Op::Store(off) => {
                    a.sw(Reg::S0, Reg::S1, off as i16);
                }
                Op::Add(k) => {
                    a.addi(Reg::S0, Reg::S0, k);
                }
                Op::Xor(k) => {
                    a.xori(Reg::S0, Reg::S0, k as i16);
                }
            }
        }
        a.addi(Reg::T6, Reg::T6, -1);
        a.bnez(Reg::T6, &format!("func{i}_loop"));
        a.ret();
    }
    Ok(a.assemble()?.words)
}

fn emit_kernel() -> Result<Vec<u32>, AsmError> {
    let mut rt = crate::runtime::Runtime::new();
    let mut a = Asm::new(KERNEL_BASE);
    // Lock-protected walk of the shared kernel "run queue" (RMW of 64
    // lines): the only inter-process sharing in this workload.
    a.la_abs(Reg::K0, KLOCK);
    rt.lock_acquire(&mut a, Reg::K0);
    a.la_abs(Reg::K1, KDATA);
    a.li(Reg::T0, KDATA_LINES as i64);
    a.label("kd");
    a.lw(Reg::T1, Reg::K1, 0);
    a.addi(Reg::T1, Reg::T1, 1);
    a.sw(Reg::T1, Reg::K1, 0);
    a.addi(Reg::K1, Reg::K1, 32);
    a.addi(Reg::T0, Reg::T0, -1);
    a.bnez(Reg::T0, "kd");
    rt.lock_release(&mut a, Reg::K0);
    // Kernel bookkeeping (accounting, page-table walks...): pure compute
    // that lengthens the kernel path, clobbering only scratch registers.
    a.li(Reg::T0, KPAD);
    a.label("kp");
    for k in 0..8 {
        a.addi(Reg::T1, Reg::T1, (3 + k) as i16);
        a.xori(Reg::T2, Reg::T1, 0x55);
        a.add(Reg::T3, Reg::T2, Reg::T1);
        a.srli(Reg::T4, Reg::T3, 3);
    }
    a.addi(Reg::T0, Reg::T0, -1);
    a.bnez(Reg::T0, "kp");
    a.ret();
    Ok(a.assemble()?.words)
}

/// Builds the multiprogramming workload.
///
/// # Errors
///
/// Returns [`cmpsim_mem::ConfigError::KernelOverlap`] when the CPU count
/// needs more address spaces than fit below the kernel (two per CPU, so
/// 95 CPUs and more), an error naming the limit when the scale asks for
/// more than 2464 functions (above scale 88), and an assembly error if
/// the generated program is malformed (a bug).
pub fn build(params: &WorkloadParams) -> Result<BuiltWorkload, Box<dyn std::error::Error>> {
    let n_cpus = params.n_cpus;
    let n_procs = 2 * n_cpus;
    let n_files = params.scaled(3, 1);
    let n_funcs = params.at_most(
        "multiprog",
        params.scaled(28, 6),
        MAX_FUNCS,
        "functions",
        "the code area",
    )?;

    let spaces = (0..n_procs as u32)
        .map(|asid| AddrSpace::try_new(asid, PRIV_BYTES))
        .collect::<Result<Vec<_>, _>>()?;
    let mut rng = Rng64::new(42);
    let funcs = gen_funcs(&mut rng, n_funcs, OPS_PER_FUNC);
    let user = emit_user_program(&funcs, n_files)?;
    let kernel = emit_kernel()?;

    let mut image = vec![(KERNEL_BASE, kernel)];
    for s in &spaces {
        image.push((s.translate(CODE_VA), user.clone()));
    }

    let expected: Vec<u32> = (0..n_procs as u32)
        .map(|asid| eval_process(asid, &funcs, n_files))
        .collect();
    let spaces_for_init = spaces.clone();
    let spaces_for_check = spaces.clone();

    Ok(BuiltWorkload {
        name: "multiprog",
        image,
        entries: (0..n_cpus)
            .map(|c| ProcessInit {
                entry: CODE_VA,
                space: spaces[c],
            })
            .collect(),
        extra_processes: (0..n_cpus)
            .map(|c| {
                vec![ProcessInit {
                    entry: CODE_VA,
                    space: spaces[n_cpus + c],
                }]
            })
            .collect(),
        init: Box::new(move |phys| {
            for s in &spaces_for_init {
                for i in 0..DATA_WORDS {
                    phys.write_u32(s.translate(DATA_VA + i * 4), initial_data(s.asid(), i));
                }
            }
        }),
        check: Box::new(move |phys| {
            for (s, &exp) in spaces_for_check.iter().zip(&expected) {
                let done = phys.read_u32(s.translate(DONE_VA));
                if done != DONE_MAGIC {
                    return Err(format!("process {} did not finish", s.asid()));
                }
                let acc = phys.read_u32(s.translate(ACC_VA));
                if acc != exp {
                    return Err(format!(
                        "process {}: acc {acc:#x} != expected {exp:#x}",
                        s.asid()
                    ));
                }
            }
            Ok(())
        }),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testharness::run_workload_mipsy;

    /// `MAX_FUNCS` rests on two bounds: the main loop fits in one
    /// function's words, and each function adds at most `FUNC_WORDS`.
    #[test]
    fn user_code_stays_within_its_word_bounds() {
        let mut rng = Rng64::new(42);
        for n_funcs in [0, 28] {
            let funcs = gen_funcs(&mut rng, n_funcs, OPS_PER_FUNC);
            let words = emit_user_program(&funcs, 3).expect("assembles").len();
            assert!(words <= (n_funcs + 1) * FUNC_WORDS, "{n_funcs}: {words}");
        }
        assert_eq!(MAX_FUNCS, 2464);
    }

    #[test]
    fn builds_with_large_instruction_footprint() {
        let w = build(&WorkloadParams::default()).expect("builds");
        // The paper's point: the per-process instruction working set must
        // exceed the 16 KB (4096-instruction) I-caches.
        let user_words = w.image[1].1.len();
        assert!(
            user_words > 4096,
            "user code only {user_words} words; needs > 4096"
        );
        assert_eq!(w.entries.len(), 4);
        assert_eq!(w.extra_processes.iter().map(Vec::len).sum::<usize>(), 4);
    }

    #[test]
    fn processes_have_disjoint_code_copies() {
        let w = build(&WorkloadParams::default()).expect("builds");
        let mut bases: Vec<u32> = w.image.iter().map(|(b, _)| *b).collect();
        bases.sort_unstable();
        bases.dedup();
        assert_eq!(bases.len(), w.image.len(), "no two segments collide");
    }

    #[test]
    fn reference_differs_per_process() {
        let mut rng = Rng64::new(42);
        let funcs = gen_funcs(&mut rng, 4, 20);
        assert_ne!(eval_process(0, &funcs, 1), eval_process(1, &funcs, 1));
        assert_eq!(eval_process(2, &funcs, 1), eval_process(2, &funcs, 1));
    }

    #[test]
    fn runs_and_validates_small() {
        let w = build(&WorkloadParams {
            n_cpus: 4,
            scale: 0.15,
        })
        .expect("builds");
        run_workload_mipsy(&w).expect("workload validates");
    }

    #[test]
    fn runs_on_two_cpus() {
        let w = build(&WorkloadParams {
            n_cpus: 2,
            scale: 0.15,
        })
        .expect("builds");
        run_workload_mipsy(&w).expect("two-cpu run validates");
    }
}
