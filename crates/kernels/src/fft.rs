//! FFT-kernel workload (nasa7): coarse-grained compiler-parallelized
//! butterfly passes.
//!
//! The paper parallelizes the FFT kernel from SPEC92 nasa7 with SUIF; the
//! compiler finds large outer loops, so the granularity is large and data
//! sharing modest. This generator runs `log2(N)` double-buffered butterfly
//! passes over an array of complex `f64` values: each CPU owns a contiguous
//! quarter, partners are `i ^ stride`, so the low-order passes touch only
//! local data and only the two highest passes reach across CPUs — moderate
//! communication, one barrier per pass.
//!
//! Signature to match (Figure 9): low `L1R` and `L1I` everywhere, all three
//! architectures within a few percent, shared caches slightly ahead.

use crate::layout::Layout;
use crate::runtime::Runtime;
use crate::workload::{BuiltWorkload, ProcessInit, WorkloadParams};
use cmpsim_isa::{Asm, FReg, Reg};
use cmpsim_mem::{AddrSpace, KERNEL_BASE};

const SRC_BASE: u32 = Layout::DATA;
const W_RE_ADDR: u32 = Layout::DATA - 0x100;
const W_IM_ADDR: u32 = Layout::DATA - 0xf8;
/// Points whose source and staggered destination buffers, 16 bytes per
/// point each, fit below kernel space.
const MAX_POINTS: usize = 1 << 26;
const _: () = assert!(SRC_BASE as usize + 32 * MAX_POINTS + 0x1040 <= KERNEL_BASE as usize);

/// Fixed twiddle factor (|w| = 1 keeps magnitudes polynomial).
const W_RE: f64 = 0.8;
const W_IM: f64 = 0.6;

fn initial_re(i: usize) -> f64 {
    ((i * 37) % 100) as f64 * 0.01
}

fn initial_im(i: usize) -> f64 {
    ((i * 59) % 100) as f64 * 0.01 - 0.5
}

/// Rust reference mirroring the emitted op order exactly.
fn reference(n: usize) -> f64 {
    let passes = n.trailing_zeros() as usize;
    let mut src: Vec<(f64, f64)> = (0..n).map(|i| (initial_re(i), initial_im(i))).collect();
    let mut dst = src.clone();
    for p in 0..passes {
        let s = 1usize << p;
        for i in 0..n {
            let j = i ^ s;
            let (re_i, im_i) = src[i];
            let (re_j, im_j) = src[j];
            // t = w * src[j]; u = w * t; dst = src[i] + t + u.
            let t_re = W_RE * re_j - W_IM * im_j;
            let t_im = W_RE * im_j + W_IM * re_j;
            let u_re = W_RE * t_re - W_IM * t_im;
            let u_im = W_RE * t_im + W_IM * t_re;
            dst[i] = ((re_i + t_re) + u_re, (im_i + t_im) + u_im);
        }
        std::mem::swap(&mut src, &mut dst);
    }
    src.iter().map(|&(re, im)| re + im).sum()
}

/// Builds the FFT workload.
///
/// # Errors
///
/// Returns an error naming the limit when the scale asks for more than
/// 2^26 points (above scale 32768), and an assembly error if the
/// generated program is malformed (a bug).
pub fn build(params: &WorkloadParams) -> Result<BuiltWorkload, Box<dyn std::error::Error>> {
    let n_cpus = params.n_cpus;
    // 2048 complex doubles (64 KB total): per-CPU chunks re-fit the caches,
    // giving the low L1 miss rates the paper reports for FFT.
    let n = params
        .at_most(
            "fft",
            params.scaled(2048, 256),
            MAX_POINTS,
            "points",
            "the data area below kernel space",
        )?
        .next_power_of_two();
    let passes = n.trailing_zeros() as usize;
    let chunk = n / n_cpus;
    // The destination buffer is staggered by one line-aligned non-power-of
    // -two amount so dst[i] never lands on src[i]'s cache set.
    let dst_base: u32 = SRC_BASE + (n * 16) as u32 + 0x1040;
    // Each CPU starts a quarter of the way into its chunk: chunk bases are
    // multiples of every cache's set stride, so in lockstep all four CPUs
    // would otherwise fight over identical shared-L1 sets.
    let phase = chunk / 4;

    let mut rt = Runtime::new();
    let mut a = Asm::new(Layout::CODE);
    rt.preamble(&mut a);
    a.la_abs(Reg::A2, Layout::sync_word(0));
    a.la_abs(Reg::S0, SRC_BASE);
    a.la_abs(Reg::S1, dst_base);
    a.la_abs(Reg::T0, W_RE_ADDR);
    a.fld(FReg::F10, Reg::T0, 0);
    a.la_abs(Reg::T0, W_IM_ADDR);
    a.fld(FReg::F11, Reg::T0, 0);
    a.li(Reg::S3, 0); // pass p
    a.li(Reg::S4, 1); // stride s = 1 << p

    a.label("pass");
    // Rotated chunk traversal: [cpu*chunk + cpu*phase, (cpu+1)*chunk),
    // then the wrapped prefix [cpu*chunk, cpu*chunk + cpu*phase).
    a.li(Reg::T0, chunk as i64);
    a.mul(Reg::T5, Reg::S7, Reg::T0); // chunk base
    a.add(Reg::S2, Reg::T5, Reg::T0); // chunk end
    a.li(Reg::T0, phase as i64);
    a.mul(Reg::T0, Reg::S7, Reg::T0);
    a.add(Reg::S5, Reg::T5, Reg::T0); // i = base + cpu*phase
    for (elem, done) in [("elem1", "elem1_done"), ("elem2", "elem2_done")] {
        a.bge(Reg::S5, Reg::S2, done);
        a.label(elem);
        // j = i ^ s ; addresses: base + idx*16
        a.xor(Reg::T1, Reg::S5, Reg::S4);
        a.slli(Reg::T0, Reg::S5, 4);
        a.add(Reg::T2, Reg::S0, Reg::T0); // &src[i]
        a.add(Reg::T4, Reg::S1, Reg::T0); // &dst[i]
        a.slli(Reg::T1, Reg::T1, 4);
        a.add(Reg::T3, Reg::S0, Reg::T1); // &src[j]
        a.fld(FReg::F1, Reg::T2, 0); // re_i
        a.fld(FReg::F2, Reg::T2, 8); // im_i
        a.fld(FReg::F3, Reg::T3, 0); // re_j
        a.fld(FReg::F4, Reg::T3, 8); // im_j
                                     // t = w * src[j]  (F5 = t_re, F7 = t_im)
        a.fmul_d(FReg::F5, FReg::F10, FReg::F3);
        a.fmul_d(FReg::F6, FReg::F11, FReg::F4);
        a.fsub_d(FReg::F5, FReg::F5, FReg::F6);
        a.fmul_d(FReg::F7, FReg::F10, FReg::F4);
        a.fmul_d(FReg::F8, FReg::F11, FReg::F3);
        a.fadd_d(FReg::F7, FReg::F7, FReg::F8);
        // u = w * t  (F3 = u_re, F4 = u_im; src[j] regs are dead now)
        a.fmul_d(FReg::F3, FReg::F10, FReg::F5);
        a.fmul_d(FReg::F6, FReg::F11, FReg::F7);
        a.fsub_d(FReg::F3, FReg::F3, FReg::F6);
        a.fmul_d(FReg::F4, FReg::F10, FReg::F7);
        a.fmul_d(FReg::F6, FReg::F11, FReg::F5);
        a.fadd_d(FReg::F4, FReg::F4, FReg::F6);
        // dst = src[i] + t + u
        a.fadd_d(FReg::F5, FReg::F1, FReg::F5);
        a.fadd_d(FReg::F5, FReg::F5, FReg::F3);
        a.fadd_d(FReg::F7, FReg::F2, FReg::F7);
        a.fadd_d(FReg::F7, FReg::F7, FReg::F4);
        a.fsd(FReg::F5, Reg::T4, 0);
        a.fsd(FReg::F7, Reg::T4, 8);
        a.addi(Reg::S5, Reg::S5, 1);
        a.blt(Reg::S5, Reg::S2, elem);
        a.label(done);
        if elem == "elem1" {
            a.mv(Reg::S5, Reg::T5);
            a.li(Reg::T0, phase as i64);
            a.mul(Reg::T0, Reg::S7, Reg::T0);
            a.add(Reg::S2, Reg::T5, Reg::T0);
        }
    }

    rt.barrier(&mut a, Reg::A2, n_cpus);
    // Swap buffers; next pass.
    a.mv(Reg::T0, Reg::S0);
    a.mv(Reg::S0, Reg::S1);
    a.mv(Reg::S1, Reg::T0);
    a.slli(Reg::S4, Reg::S4, 1);
    a.addi(Reg::S3, Reg::S3, 1);
    a.li(Reg::T0, passes as i64);
    a.blt(Reg::S3, Reg::T0, "pass");

    // CPU 0 checksums.
    a.bnez(Reg::S7, "end");
    a.fsub_d(FReg::F0, FReg::F0, FReg::F0);
    a.mv(Reg::T1, Reg::S0);
    a.li(Reg::T3, n as i64);
    a.label("ck");
    a.fld(FReg::F1, Reg::T1, 0);
    a.fld(FReg::F2, Reg::T1, 8);
    a.fadd_d(FReg::F1, FReg::F1, FReg::F2);
    a.fadd_d(FReg::F0, FReg::F0, FReg::F1);
    a.addi(Reg::T1, Reg::T1, 16);
    a.addi(Reg::T3, Reg::T3, -1);
    a.bnez(Reg::T3, "ck");
    a.la_abs(Reg::T1, Layout::CHECK);
    a.fsd(FReg::F0, Reg::T1, 0);
    a.label("end");
    a.halt();

    let prog = a.assemble()?;
    let expected = reference(n);

    Ok(BuiltWorkload {
        name: "fft",
        image: vec![(prog.base, prog.words)],
        entries: (0..n_cpus)
            .map(|_| ProcessInit {
                entry: Layout::CODE,
                space: AddrSpace::identity(),
            })
            .collect(),
        extra_processes: vec![Vec::new(); n_cpus],
        init: Box::new(move |phys| {
            phys.write_f64(W_RE_ADDR, W_RE);
            phys.write_f64(W_IM_ADDR, W_IM);
            for i in 0..n {
                phys.write_f64(SRC_BASE + (i * 16) as u32, initial_re(i));
                phys.write_f64(SRC_BASE + (i * 16 + 8) as u32, initial_im(i));
            }
        }),
        check: Box::new(move |phys| {
            let got = phys.read_f64(Layout::CHECK);
            // The checksum reaches ~1e9 after 14 doubling passes; compare
            // with a relative tolerance of one part in 1e12 to absorb the
            // final summation running in simulated f64 (it is in fact
            // bit-exact; the tolerance documents intent).
            let ok = if expected == 0.0 {
                got == 0.0
            } else {
                ((got - expected) / expected).abs() < 1e-12
            };
            if ok {
                Ok(())
            } else {
                Err(format!("fft checksum {got:e} != expected {expected:e}"))
            }
        }),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testharness::run_workload_mipsy;

    #[test]
    fn builds_at_paper_scale() {
        let w = build(&WorkloadParams::default()).expect("builds");
        assert!(w.code_words() > 60);
    }

    #[test]
    fn reference_grows_polynomially() {
        let r = reference(256);
        assert!(r.is_finite());
        assert_eq!(r, reference(256));
    }

    #[test]
    fn runs_and_validates_small() {
        let w = build(&WorkloadParams {
            n_cpus: 4,
            scale: 0.03,
        })
        .expect("builds");
        run_workload_mipsy(&w).expect("workload validates");
    }
}
