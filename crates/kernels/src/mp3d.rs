//! MP3D-like workload: particle simulation with a large streamed working
//! set and unstructured read-write sharing.
//!
//! SPLASH MP3D is a 3-D rarefied-flow particle simulator written for vector
//! machines: each step streams the whole particle array, updates positions,
//! and scatters unsynchronized read-modify-writes into a shared space-cell
//! array. Its communication volume is large and unstructured, and its
//! working set far exceeds the L1 caches.
//!
//! The generator reproduces the three effects the paper reports (Figure 5):
//!
//! * streaming particle traffic ≫ any L1 → high `L1R` on all architectures;
//! * a hot per-CPU *reservation scratch* area that fits a private 16 KB L1
//!   but gets evicted from the shared 64 KB L1 by the four interleaved
//!   particle streams → shared-L1 `L1R` ≈ 2× the private architectures;
//! * the scratch areas are placed 2 MB beyond the particle array, so their
//!   refetches *alias with the particle stream in the direct-mapped 2 MB
//!   L2* — the extra L1 misses of the shared-L1 architecture turn into L2
//!   conflict misses, exactly the pathology the paper verifies by raising
//!   the L2 associativity to 4 (see the `fig05` ablation bench);
//! * unsynchronized increments of shared space cells → invalidation misses
//!   that dominate the shared-memory architecture's L2 misses.

use crate::layout::Layout;
use crate::runtime::Runtime;
use crate::workload::{BuiltWorkload, ProcessInit, WorkloadParams};
use cmpsim_isa::{Asm, Reg};
use cmpsim_mem::AddrSpace;

const PART_BASE: u32 = Layout::DATA;
/// Scratch lives 2 MB past the particles: aliases them in a direct-mapped
/// 2 MB L2.
const SCRATCH_OFFSET: u32 = 2 * 1024 * 1024;
const SCRATCH_WORDS: u32 = 2048; // 8 KB per CPU
/// Scratch areas sit 32 KB apart — exactly the shared L1's set stride, so
/// all four CPUs' hot scratch competes for the *same* sets of the shared
/// 64 KB 2-way cache (the same-virtual-layout conflict the paper blames),
/// while each fits comfortably in a private 16 KB L1.
const SCRATCH_SPACING: u32 = 0x8000;
// Cell-array placement must dodge every cache's aliasing windows:
// offset 0x1F_8000 from DATA gives L2 offsets of 0x3_8000 (mod both the
// 2 MB shared and 512 KB private L2s), below the particle range
// (0x4_0000..) and clear of code, stacks, sync words and the checksum.
const CELLS_BASE: u32 = Layout::DATA + 0x1F_8000;
const N_CELLS: u32 = 512;
const HASH_K: u32 = 2654435761;

fn initial_x(i: u32) -> u32 {
    i.wrapping_mul(977).wrapping_add(13)
}

fn initial_vx(i: u32) -> u32 {
    i.wrapping_mul(331) ^ 0x5a5a
}

/// One particle's deterministic update: positions do not depend on the
/// (racy) cell counters or the private scratch, so the reference is exact.
fn advance(x: u32, vx: u32) -> (u32, u32) {
    let x2 = x.wrapping_add(vx);
    let vx2 = vx.wrapping_add((x2 >> 7) & 0xff);
    (x2, vx2)
}

/// Builds the MP3D workload.
///
/// # Errors
///
/// Returns an error naming the limit when the scale asks for more time
/// steps than the 32-bit step counter holds, and an assembly error if the
/// generated program is malformed (a bug).
pub fn build(params: &WorkloadParams) -> Result<BuiltWorkload, Box<dyn std::error::Error>> {
    let n = params.n_cpus;
    // Capped so the particle array never reaches the cell array at
    // `DATA + 0x8_0000`.
    let npart = params.scaled(6144, 256).min(16 * 1024) as u32;
    let steps = params.at_most(
        "mp3d",
        params.scaled(6, 2),
        u32::MAX as usize,
        "time steps",
        "the step counter",
    )? as u32;
    assert!(npart * 32 <= 0x8_0000, "particles overrun the cell array");

    let mut rt = Runtime::new();
    let mut a = Asm::new(Layout::CODE);
    rt.preamble(&mut a);
    a.la_abs(Reg::A2, Layout::sync_word(0));
    a.la_abs(Reg::S0, PART_BASE);
    a.la_abs(Reg::S1, CELLS_BASE);
    // scratch base for this CPU: PART + 2MB + cpu * SPACING
    a.la_abs(Reg::S2, PART_BASE + SCRATCH_OFFSET);
    a.li(Reg::T0, i64::from(SCRATCH_SPACING));
    a.mul(Reg::T0, Reg::S7, Reg::T0);
    a.add(Reg::S2, Reg::S2, Reg::T0);
    a.li(Reg::S3, i64::from(steps));
    a.li(Reg::S4, i64::from(HASH_K));

    a.label("step");
    // i = cpu; while i < npart { process particle i; i += n }
    a.mv(Reg::S5, Reg::S7);
    a.label("ploop");
    // p = PART + i*32
    a.slli(Reg::T0, Reg::S5, 5);
    a.add(Reg::T0, Reg::S0, Reg::T0);
    a.lw(Reg::T1, Reg::T0, 0); // x
    a.lw(Reg::T2, Reg::T0, 12); // vx
                                // x += vx; vx += (x >> 7) & 0xff
    a.add(Reg::T1, Reg::T1, Reg::T2);
    a.srli(Reg::T3, Reg::T1, 7);
    a.andi(Reg::T3, Reg::T3, 0xff);
    a.add(Reg::T2, Reg::T2, Reg::T3);
    a.sw(Reg::T1, Reg::T0, 0);
    a.sw(Reg::T2, Reg::T0, 12);
    // Shared cell update (unsynchronized, like the original MP3D):
    // cells[(x >> 4) & (N_CELLS-1)] += 1 whenever the particle crosses a
    // cell boundary (every 4th step here).
    // Particles are CPU-interleaved by the low index bits, so gate on the
    // bits above the interleave (every 2nd particle *per CPU*).
    a.srli(Reg::T4, Reg::S5, 2);
    a.andi(Reg::T4, Reg::T4, 1);
    a.bnez(Reg::T4, "no_cell");
    a.srli(Reg::T3, Reg::T1, 4);
    a.andi(Reg::T3, Reg::T3, (N_CELLS - 1) as i16);
    a.slli(Reg::T3, Reg::T3, 2);
    a.add(Reg::T3, Reg::S1, Reg::T3);
    a.lw(Reg::T4, Reg::T3, 0);
    a.addi(Reg::T4, Reg::T4, 1);
    a.sw(Reg::T4, Reg::T3, 0);
    a.label("no_cell");
    // Two hot scratch reads (reservation-table probes, hashed within
    // 8 KB), plus an occasional update. Read-mostly keeps the shared-L2
    // architecture's write-through traffic realistic while the *refetches*
    // still hammer the shared L1.
    for shift in [20i16, 14, 8] {
        a.mul(Reg::T3, Reg::T1, Reg::S4);
        a.srli(Reg::T3, Reg::T3, shift);
        a.andi(Reg::T3, Reg::T3, (SCRATCH_WORDS - 1) as i16);
        a.slli(Reg::T3, Reg::T3, 2);
        a.add(Reg::T3, Reg::S2, Reg::T3);
        a.lw(Reg::T4, Reg::T3, 0);
        a.add(Reg::T7, Reg::T7, Reg::T4);
    }
    // Every 16th particle (per CPU) writes its reservation entry back.
    a.srli(Reg::T4, Reg::S5, 2);
    a.andi(Reg::T4, Reg::T4, 15);
    a.bnez(Reg::T4, "no_scratch_wr");
    a.sw(Reg::T7, Reg::T3, 0);
    a.label("no_scratch_wr");
    // next particle
    a.addi(Reg::T0, Reg::ZERO, n as i16);
    a.add(Reg::S5, Reg::S5, Reg::T0);
    a.li(Reg::T0, i64::from(npart));
    a.blt(Reg::S5, Reg::T0, "ploop");

    rt.barrier(&mut a, Reg::A2, n);
    a.addi(Reg::S3, Reg::S3, -1);
    a.bnez(Reg::S3, "step");
    a.halt();

    let prog = a.assemble()?;

    // Reference: positions after `steps` updates.
    let expected: Vec<(u32, u32)> = (0..npart)
        .map(|i| {
            let (mut x, mut vx) = (initial_x(i), initial_vx(i));
            for _ in 0..steps {
                let (x2, vx2) = advance(x, vx);
                x = x2;
                vx = vx2;
            }
            (x, vx)
        })
        .collect();

    Ok(BuiltWorkload {
        name: "mp3d",
        image: vec![(prog.base, prog.words)],
        entries: (0..n)
            .map(|_| ProcessInit {
                entry: Layout::CODE,
                space: AddrSpace::identity(),
            })
            .collect(),
        extra_processes: vec![Vec::new(); n],
        init: Box::new(move |phys| {
            for i in 0..npart {
                let p = PART_BASE + i * 32;
                phys.write_u32(p, initial_x(i));
                phys.write_u32(p + 12, initial_vx(i));
            }
        }),
        check: Box::new(move |phys| {
            for (i, &(x, vx)) in expected.iter().enumerate() {
                let p = PART_BASE + (i as u32) * 32;
                let (gx, gvx) = (phys.read_u32(p), phys.read_u32(p + 12));
                if (gx, gvx) != (x, vx) {
                    return Err(format!(
                        "mp3d particle {i}: got ({gx:#x},{gvx:#x}) expected ({x:#x},{vx:#x})"
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

    #[test]
    fn builds_at_paper_scale() {
        let w = build(&WorkloadParams::default()).expect("builds");
        assert!(w.code_words() > 50);
    }

    #[test]
    fn advance_is_deterministic() {
        assert_eq!(advance(100, 7), advance(100, 7));
        let (x, vx) = advance(0x1234, 0x10);
        assert_eq!(x, 0x1244);
        assert_eq!(vx, 0x10 + ((0x1244 >> 7) & 0xff));
    }

    #[test]
    fn scratch_aliases_particles_in_2mb_l2() {
        // The design hinges on this address relationship.
        let scratch = PART_BASE + SCRATCH_OFFSET;
        assert_eq!((scratch - PART_BASE) % (2 * 1024 * 1024), 0);
    }

    #[test]
    fn runs_and_validates_small() {
        let w = build(&WorkloadParams {
            n_cpus: 4,
            scale: 0.05,
        })
        .expect("builds");
        run_workload_mipsy(&w).expect("workload validates");
    }
}
