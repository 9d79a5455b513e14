//! Ear-like workload: an extremely fine-grained compiler-parallelized
//! filter cascade.
//!
//! SPEC92 Ear models the inner ear as a cascade of filter stages; the SUIF
//! compiler parallelizes its many very short loops, giving the smallest
//! grain size of any application in the study. Stage `k` consumes what
//! stage `k-1` just produced, and the doall partition rotates across CPUs
//! each stage, so *every* operand was written by another processor moments
//! ago — maximal fine-grained producer-consumer communication with a
//! barrier every few dozen instructions.
//!
//! Signature to match (Figure 8): near-zero L1 misses on the shared-L1
//! architecture (the whole cascade fits in cache) but the *highest* `L1I`
//! rate of any application on the private-L1 architectures.

use crate::layout::Layout;
use crate::runtime::Runtime;
use crate::workload::{BuiltWorkload, ProcessInit, WorkloadParams};
use cmpsim_isa::{Asm, FReg, Reg};
use cmpsim_mem::{AddrSpace, KERNEL_BASE};

const STAGE_BASE: u32 = Layout::DATA;
const COEFF_A: u32 = Layout::DATA - 0x100;
const COEFF_B: u32 = Layout::DATA - 0xf8;
/// Elements per CPU per stage.
const CHUNK: usize = 16;

const A: f32 = 0.875;
const B: f32 = 0.125;

fn initial(i: usize) -> f32 {
    ((i * 37) % 100) as f32 * 0.01 + 0.5
}

/// Rust reference: final stage-0 checksum after all samples.
fn reference(n_cpus: usize, stages: usize, samples: usize) -> f64 {
    let n = n_cpus * CHUNK;
    let mut st: Vec<Vec<f32>> = (0..stages)
        .map(|k| (0..n).map(|i| initial(k * n + i)).collect())
        .collect();
    for _ in 0..samples {
        for k in 0..stages {
            let prev = if k == 0 { stages - 1 } else { k - 1 };
            let src: Vec<f32> = st[prev].clone();
            for i in 0..n {
                let neighbor = (i + 1) % n;
                st[k][i] = A * src[i] + B * src[neighbor];
            }
        }
    }
    st[stages - 1].iter().map(|&v| f64::from(v)).sum()
}

/// Builds the Ear workload.
///
/// # Errors
///
/// Returns an error naming the rule when the CPU count is not a power of
/// two (the partition rotates with a mask), an error naming the limit when
/// the scale asks for more stages than fit between `DATA` and kernel
/// space, and an assembly error if the generated program is malformed (a
/// bug).
pub fn build(params: &WorkloadParams) -> Result<BuiltWorkload, Box<dyn std::error::Error>> {
    let n_cpus = params.n_cpus;
    if !n_cpus.is_power_of_two() {
        return Err(format!(
            "ear rotates its chunks modulo the CPU count with a mask, so it runs on a \
             power-of-two count of CPUs, not {n_cpus}"
        )
        .into());
    }
    let n = n_cpus * CHUNK;
    // One stage is `n` f32s. At the stage limit (scale 4.2 million on
    // one CPU, less on more) the sample count still fits its 32-bit
    // counter.
    let stages = params.at_most(
        "ear",
        params.scaled(12, 4),
        (KERNEL_BASE - STAGE_BASE) as usize / (n * 4),
        "stages",
        "the data area below kernel space",
    )?;
    let samples = params.scaled(250, 6);

    let mut rt = Runtime::new();
    let mut a = Asm::new(Layout::CODE);
    rt.preamble(&mut a);
    a.la_abs(Reg::A2, Layout::sync_word(0));
    a.la_abs(Reg::S0, STAGE_BASE);
    a.la_abs(Reg::T0, COEFF_A);
    a.fls(FReg::F10, Reg::T0, 0);
    a.la_abs(Reg::T0, COEFF_B);
    a.fls(FReg::F11, Reg::T0, 0);
    a.li(Reg::S3, samples as i64);

    a.label("sample");
    a.li(Reg::S4, 0); // stage k
    a.label("stage");
    // prev stage index: k == 0 ? stages-1 : k-1
    a.addi(Reg::T0, Reg::S4, -1);
    a.bnez(Reg::S4, "prev_ok");
    a.li(Reg::T0, (stages - 1) as i64);
    a.label("prev_ok");
    // src = base + prev*n*4 ; dst = base + k*n*4
    a.li(Reg::T1, (n * 4) as i64);
    a.mul(Reg::T0, Reg::T0, Reg::T1);
    a.add(Reg::T2, Reg::S0, Reg::T0); // src row
    a.mul(Reg::T0, Reg::S4, Reg::T1);
    a.add(Reg::T3, Reg::S0, Reg::T0); // dst row
                                      // Rotated partition: my first element = ((cpu + k) & (n_cpus-1)) * CHUNK.
    a.add(Reg::T0, Reg::S7, Reg::S4);
    a.andi(Reg::T0, Reg::T0, (n_cpus - 1) as i16);
    a.slli(Reg::T0, Reg::T0, (CHUNK.trailing_zeros() + 2) as i16);
    a.add(Reg::T4, Reg::T0, Reg::ZERO); // byte offset of first element
    a.li(Reg::T5, CHUNK as i64); // elements left
    a.label("elem");
    // i's byte offset is in T4; neighbor = (i+1) % n  => offset wraps.
    a.add(Reg::T6, Reg::T2, Reg::T4);
    a.fls(FReg::F1, Reg::T6, 0); // src[i]
    a.addi(Reg::T7, Reg::T4, 4);
    a.li(Reg::T6, (n * 4) as i64);
    a.bne(Reg::T7, Reg::T6, "no_wrap");
    a.li(Reg::T7, 0);
    a.label("no_wrap");
    a.add(Reg::T6, Reg::T2, Reg::T7);
    a.fls(FReg::F2, Reg::T6, 0); // src[neighbor]
    a.fmul_s(FReg::F1, FReg::F10, FReg::F1);
    a.fmul_s(FReg::F2, FReg::F11, FReg::F2);
    a.fadd_s(FReg::F1, FReg::F1, FReg::F2);
    a.add(Reg::T6, Reg::T3, Reg::T4);
    a.fss(FReg::F1, Reg::T6, 0);
    a.addi(Reg::T4, Reg::T4, 4);
    a.addi(Reg::T5, Reg::T5, -1);
    a.bnez(Reg::T5, "elem");
    // Barrier after every stage: extremely fine grain.
    rt.barrier(&mut a, Reg::A2, n_cpus);
    a.addi(Reg::S4, Reg::S4, 1);
    a.li(Reg::T0, stages as i64);
    a.blt(Reg::S4, Reg::T0, "stage");
    a.addi(Reg::S3, Reg::S3, -1);
    a.bnez(Reg::S3, "sample");

    // CPU 0 checksums the last stage.
    a.bnez(Reg::S7, "end");
    a.fsub_d(FReg::F0, FReg::F0, FReg::F0);
    a.li(Reg::T1, ((stages - 1) * n * 4) as i64);
    a.add(Reg::T1, Reg::S0, Reg::T1);
    a.li(Reg::T3, n as i64);
    a.label("ck");
    a.fls(FReg::F1, Reg::T1, 0);
    a.fadd_d(FReg::F0, FReg::F0, FReg::F1);
    a.addi(Reg::T1, Reg::T1, 4);
    a.addi(Reg::T3, Reg::T3, -1);
    a.bnez(Reg::T3, "ck");
    a.la_abs(Reg::T1, Layout::CHECK);
    a.fsd(FReg::F0, Reg::T1, 0);
    a.label("end");
    a.halt();

    let prog = a.assemble()?;
    let expected = reference(n_cpus, stages, samples);

    Ok(BuiltWorkload {
        name: "ear",
        image: vec![(prog.base, prog.words)],
        entries: (0..n_cpus)
            .map(|_| ProcessInit {
                entry: Layout::CODE,
                space: AddrSpace::identity(),
            })
            .collect(),
        extra_processes: vec![Vec::new(); n_cpus],
        init: Box::new(move |phys| {
            phys.write_f32(COEFF_A, A);
            phys.write_f32(COEFF_B, B);
            for k in 0..stages {
                for i in 0..n {
                    phys.write_f32(STAGE_BASE + ((k * n + i) * 4) as u32, initial(k * n + i));
                }
            }
        }),
        check: Box::new(move |phys| {
            let got = phys.read_f64(Layout::CHECK);
            if got == expected {
                Ok(())
            } else {
                Err(format!("ear checksum {got:e} != expected {expected:e}"))
            }
        }),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_at_paper_scale() {
        let w = build(&WorkloadParams::default()).expect("builds");
        assert!(w.code_words() > 60);
    }

    #[test]
    fn reference_bounded_and_deterministic() {
        let r = reference(4, 4, 10);
        assert_eq!(r, reference(4, 4, 10));
        // a + b = 1.0 keeps the cascade bounded.
        assert!(r.abs() < 1000.0);
    }
}
