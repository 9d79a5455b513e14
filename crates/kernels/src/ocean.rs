//! Ocean-like workload: grid-based Jacobi relaxation with nearest-neighbour
//! boundary exchange.
//!
//! SPLASH-2 Ocean simulates eddy currents with a multigrid solver on a
//! 130×130 grid; each processor owns a subgrid and communicates only at the
//! boundaries. Per-CPU working sets (~34 KB at paper scale) exceed every L1,
//! so all three architectures show high `L1R`; communication is a small
//! fraction of the traffic. The heavy write streaming is what hurts the
//! shared-L2 architecture (write-through L1s over a narrower L2 datapath) —
//! the effect behind Figure 6.
//!
//! The kernel is a double-buffered 5-point Jacobi sweep over an
//! `(n+2)²` f64 grid, row-banded across CPUs, one barrier per sweep, with a
//! bit-exact Rust reference for the final checksum.

use crate::layout::Layout;
use crate::runtime::Runtime;
use crate::workload::{BuiltWorkload, ProcessInit, WorkloadParams};
use cmpsim_isa::{Asm, FReg, Reg};
use cmpsim_mem::AddrSpace;

const GRID_A: u32 = Layout::DATA;
const CONST_QUARTER: u32 = Layout::DATA - 0x100; // f64 constant 0.25
/// Next-multigrid-level copy, written every sweep (the paper's Ocean is a
/// multigrid solver; the extra write stream is what makes it bandwidth-
/// hungry).
const GRID_RES: u32 = Layout::DATA + 0x5_2080;

fn initial(i: usize, j: usize) -> f64 {
    ((i * 131 + j * 17) % 1000) as f64 * 0.001
}

/// Rust reference: runs the same Jacobi sweeps and returns the checksum.
fn reference(n: usize, iters: usize) -> f64 {
    let dim = n + 2;
    let mut a: Vec<f64> = (0..dim * dim).map(|k| initial(k / dim, k % dim)).collect();
    let mut b = a.clone(); // borders copied; interior overwritten per sweep
    for _ in 0..iters {
        for i in 1..=n {
            for j in 1..=n {
                let up = a[(i - 1) * dim + j];
                let down = a[(i + 1) * dim + j];
                let left = a[i * dim + j - 1];
                let right = a[i * dim + j + 1];
                // Matches the emitted op order exactly: (up+down)+(left+right).
                b[i * dim + j] = ((up + down) + (left + right)) * 0.25;
            }
        }
        std::mem::swap(&mut a, &mut b);
    }
    let mut sum = 0.0;
    for i in 1..=n {
        for j in 1..=n {
            sum += a[i * dim + j];
        }
    }
    sum
}

/// Builds the Ocean workload.
///
/// # Errors
///
/// Returns an error naming the limit when the scale asks for more sweeps
/// than the 32-bit sweep counter holds, and an assembly error if the
/// generated program is malformed (a bug).
pub fn build(params: &WorkloadParams) -> Result<BuiltWorkload, Box<dyn std::error::Error>> {
    let n_cpus = params.n_cpus;
    // Interior size; paper uses 130x130 points => n = 128 interior. Capped
    // at 140 so the grid fits the fixed buffer layout (the B buffer starts
    // 0x2_9040 bytes after A). Floored at one row per CPU so large
    // machines (the 64-CPU scaling study) keep a non-empty band; the
    // buffer-fit asserts below reject CPU counts the layout cannot hold.
    let n = ((params.scaled(128, 16).min(140) / n_cpus) * n_cpus).max(n_cpus);
    let dim = n + 2;
    let stride = (dim * 8) as u32;
    assert!(stride < 32768 / 2, "row stride must fit branch offsets");
    let iters = params.at_most(
        "ocean",
        params.scaled(12, 3),
        u32::MAX as usize,
        "sweeps",
        "the sweep counter",
    )?;
    // The second buffer sits at a fixed 160 KB offset: not a multiple of
    // any cache's set stride, so dst never aliases src.
    // Staggered bases: the three buffers must not be congruent modulo any
    // cache's set stride (8 KB private, 32 KB shared L1), or the src, dst
    // and restriction streams all fight for the same two ways.
    let grid_b: u32 = GRID_A + 0x2_9040;
    assert!(
        (dim * dim * 8) <= 0x2_9040,
        "grid must fit below the B buffer"
    );
    assert!(
        GRID_RES - grid_b >= (dim * dim * 8) as u32,
        "buffers overlap"
    );
    for (x, y) in [(GRID_A, grid_b), (grid_b, GRID_RES), (GRID_A, GRID_RES)] {
        assert!((y - x) % 0x8000 != 0, "buffers are set-aligned");
    }
    let rows_per_cpu = n / n_cpus;
    // CPU c starts its sweep c phases into its band: the four row bands
    // are ~33 KB (≈ one shared-L1 set stride) apart, so without the phase
    // shift all four CPUs touch the same sets in lockstep — an artificial
    // conflict pattern the real application's square subgrids do not
    // have. Dividing by at least the CPU count keeps the last CPU's
    // offset inside its own band; on larger machines a wider phase wraps
    // into the next CPU's rows and the grid's bottom border.
    let phase = rows_per_cpu / n_cpus.max(4);

    let mut rt = Runtime::new();
    let mut a = Asm::new(Layout::CODE);
    rt.preamble(&mut a);
    a.la_abs(Reg::A2, Layout::sync_word(0));
    a.la_abs(Reg::S0, GRID_A); // src
    a.la_abs(Reg::S1, grid_b); // dst
    a.li(Reg::S3, iters as i64);
    // F12 = 0.25
    a.la_abs(Reg::T0, CONST_QUARTER);
    a.fld(FReg::F12, Reg::T0, 0);
    // First interior row of this CPU's band.
    a.li(Reg::T0, rows_per_cpu as i64);
    a.mul(Reg::S4, Reg::S7, Reg::T0);
    a.addi(Reg::S4, Reg::S4, 1); // row0 = 1 + cpu*rows_per_cpu

    a.label("sweep");
    // Part 1: rows [row0 + cpu*phase, row0 + rows_per_cpu).
    a.li(Reg::T0, phase as i64);
    a.mul(Reg::T0, Reg::S7, Reg::T0);
    a.add(Reg::S5, Reg::S4, Reg::T0); // i = row0 + cpu*phase
    a.li(Reg::T0, rows_per_cpu as i64);
    a.add(Reg::S2, Reg::S4, Reg::T0); // band end
    for (rows, cols) in [("rows1", "cols1"), ("rows2", "cols2")] {
        a.bge(Reg::S5, Reg::S2, &format!("{rows}_done"));
        a.label(rows);
        // p = src + (i*dim + 1)*8 ; q = dst + same
        a.li(Reg::T0, dim as i64);
        a.mul(Reg::T0, Reg::S5, Reg::T0);
        a.addi(Reg::T0, Reg::T0, 1);
        a.slli(Reg::T0, Reg::T0, 3);
        a.add(Reg::T1, Reg::S0, Reg::T0); // p (src)
        a.add(Reg::T2, Reg::S1, Reg::T0); // q (dst)
        a.la_abs(Reg::T6, GRID_RES);
        a.add(Reg::T6, Reg::T6, Reg::T0); // restriction row
        a.li(Reg::T3, n as i64); // columns left
        a.label(cols);
        a.fld(FReg::F1, Reg::T1, -(stride as i16)); // up
        a.fld(FReg::F2, Reg::T1, stride as i16); // down
        a.fld(FReg::F3, Reg::T1, -8); // left
        a.fld(FReg::F4, Reg::T1, 8); // right
        a.fadd_d(FReg::F1, FReg::F1, FReg::F2);
        a.fadd_d(FReg::F3, FReg::F3, FReg::F4);
        a.fadd_d(FReg::F1, FReg::F1, FReg::F3);
        a.fmul_d(FReg::F1, FReg::F1, FReg::F12);
        a.fsd(FReg::F1, Reg::T2, 0);
        a.fsd(FReg::F1, Reg::T6, 0); // restriction copy for the next level
        a.addi(Reg::T1, Reg::T1, 8);
        a.addi(Reg::T2, Reg::T2, 8);
        a.addi(Reg::T6, Reg::T6, 8);
        a.addi(Reg::T3, Reg::T3, -1);
        a.bnez(Reg::T3, cols);
        a.addi(Reg::S5, Reg::S5, 1);
        a.blt(Reg::S5, Reg::S2, rows);
        a.label(&format!("{rows}_done"));
        if rows == "rows1" {
            // Part 2: wrap around to rows [row0, row0 + cpu*phase).
            a.mv(Reg::S5, Reg::S4);
            a.li(Reg::T0, phase as i64);
            a.mul(Reg::T0, Reg::S7, Reg::T0);
            a.add(Reg::S2, Reg::S4, Reg::T0);
        }
    }

    rt.barrier(&mut a, Reg::A2, n_cpus);
    // Swap src/dst.
    a.mv(Reg::T0, Reg::S0);
    a.mv(Reg::S0, Reg::S1);
    a.mv(Reg::S1, Reg::T0);
    a.addi(Reg::S3, Reg::S3, -1);
    a.bnez(Reg::S3, "sweep");

    // CPU 0 checksums the interior of the final grid (now in src).
    a.bnez(Reg::S7, "end");
    a.fsub_d(FReg::F0, FReg::F0, FReg::F0); // F0 = 0
    a.li(Reg::S5, 1); // i
    a.label("ck_rows");
    a.li(Reg::T0, dim as i64);
    a.mul(Reg::T0, Reg::S5, Reg::T0);
    a.addi(Reg::T0, Reg::T0, 1);
    a.slli(Reg::T0, Reg::T0, 3);
    a.add(Reg::T1, Reg::S0, Reg::T0);
    a.li(Reg::T3, n as i64);
    a.label("ck_cols");
    a.fld(FReg::F1, Reg::T1, 0);
    a.fadd_d(FReg::F0, FReg::F0, FReg::F1);
    a.addi(Reg::T1, Reg::T1, 8);
    a.addi(Reg::T3, Reg::T3, -1);
    a.bnez(Reg::T3, "ck_cols");
    a.addi(Reg::S5, Reg::S5, 1);
    a.li(Reg::T0, (n + 1) as i64);
    a.blt(Reg::S5, Reg::T0, "ck_rows");
    a.la_abs(Reg::T0, Layout::CHECK);
    a.fsd(FReg::F0, Reg::T0, 0);
    a.label("end");
    a.halt();

    let prog = a.assemble()?;
    let expected = reference(n, iters);

    Ok(BuiltWorkload {
        name: "ocean",
        image: vec![(prog.base, prog.words)],
        entries: (0..n_cpus)
            .map(|_| ProcessInit {
                entry: Layout::CODE,
                space: AddrSpace::identity(),
            })
            .collect(),
        extra_processes: vec![Vec::new(); n_cpus],
        init: Box::new(move |phys| {
            phys.write_f64(CONST_QUARTER, 0.25);
            for i in 0..dim {
                for j in 0..dim {
                    let v = initial(i, j);
                    phys.write_f64(GRID_A + ((i * dim + j) * 8) as u32, v);
                    // Borders of the second buffer must match (they are
                    // never rewritten).
                    phys.write_f64(grid_b + ((i * dim + j) * 8) as u32, v);
                }
            }
        }),
        check: Box::new(move |phys| {
            let got = phys.read_f64(Layout::CHECK);
            if got == expected {
                Ok(())
            } else {
                Err(format!("ocean checksum {got:e} != expected {expected:e}"))
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
    fn reference_converges_smoothly() {
        let r1 = reference(16, 3);
        let r2 = reference(16, 3);
        assert_eq!(r1, r2, "reference must be deterministic");
        assert!(r1.is_finite());
    }

    /// Satellite: small scales used to round the grid to zero rows per
    /// CPU on large machines, leaving every CPU spinning in an empty
    /// band; the floor keeps one row per CPU so 64-CPU runs terminate.
    #[test]
    fn grid_keeps_one_row_per_cpu_on_large_machines() {
        let w = build(&WorkloadParams {
            n_cpus: 64,
            scale: 0.05,
        })
        .expect("builds");
        assert_eq!(w.entries.len(), 64);
    }
}
