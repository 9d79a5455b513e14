//! Volpack-like workload: parallel volume rendering with a dynamic task
//! queue.
//!
//! Volpack renders a 128³ voxel volume with shear-warp factorization in
//! three steps: a shading lookup table computed in parallel, an intermediate
//! image computed by workers pulling two-scanline tasks from a queue (with
//! task stealing for load balance), and a parallel warp of the intermediate
//! image. The deliberately small task size maximizes data sharing and
//! synchronization frequency.
//!
//! Signature to match (Figure 7): `L1R` ≈ 1%, negligible `L1I` (the lookup
//! table is read-only and hot), non-negligible `L2I` on the shared-memory
//! architecture from the queue counter and intermediate-image handoff, and
//! visibly reduced synchronization time on the shared-cache architectures.

use crate::layout::Layout;
use crate::runtime::Runtime;
use crate::workload::{BuiltWorkload, ProcessInit, WorkloadParams};
use cmpsim_isa::{Asm, Reg};
use cmpsim_mem::AddrSpace;

const LUT_BASE: u32 = Layout::DATA;
const LUT_WORDS: u32 = 1024; // 4 KB shading table
const VOX_BASE: u32 = Layout::DATA + 0x2_0000;
/// Voxels per task: four 128-voxel scanlines.
const TASK_VOXELS: u32 = 512;
const OUT_BASE: u32 = Layout::DATA + 0x12_0000;
/// Tasks whose voxels fit below `OUT_BASE`: a larger volume's voxels
/// would overlap the output, which the render overwrites before reading.
const MAX_TASKS: usize = ((OUT_BASE - VOX_BASE) / (TASK_VOXELS * 4)) as usize;
/// Output words per task (one per 4 voxels).
const OUT_WORDS: u32 = TASK_VOXELS / 4;
const RESULT_BASE: u32 = Layout::DATA + 0x1A_0000;

fn lut_entry(i: u32) -> u32 {
    i.wrapping_mul(i).wrapping_add(0x9e37)
}

fn voxel(i: u32) -> u32 {
    i.wrapping_mul(0x0019_660d).wrapping_add(0x3c6e_f35f)
}

/// Reference: the checksum over all task outputs.
fn reference(n_tasks: u32) -> u32 {
    let mut sum = 0u32;
    for t in 0..n_tasks {
        let mut acc = 0u32;
        for v in 0..TASK_VOXELS {
            let vox = voxel(t * TASK_VOXELS + v);
            acc = acc.wrapping_add(lut_entry(vox & (LUT_WORDS - 1)));
            acc = acc.wrapping_add(lut_entry((vox >> 10) & (LUT_WORDS - 1)));
            if v % 4 == 3 {
                sum = sum.wrapping_add(acc);
            }
        }
    }
    sum
}

/// Builds the Volpack workload.
///
/// # Errors
///
/// Returns an error naming the limit when the scale asks for more than
/// 512 tasks (above scale 10.67), and an assembly error if the
/// generated program is malformed (a bug).
pub fn build(params: &WorkloadParams) -> Result<BuiltWorkload, Box<dyn std::error::Error>> {
    let n = params.n_cpus;
    let n_tasks = params.at_most(
        "volpack",
        params.scaled(48, 8),
        MAX_TASKS,
        "tasks",
        "the voxel volume",
    )? as u32;
    let next_task = Layout::sync_word(2);

    let mut rt = Runtime::new();
    let mut a = Asm::new(Layout::CODE);
    rt.preamble(&mut a);
    a.la_abs(Reg::A2, Layout::sync_word(0));
    a.la_abs(Reg::A3, next_task);
    a.la_abs(Reg::S0, LUT_BASE);
    a.la_abs(Reg::S1, VOX_BASE);
    a.la_abs(Reg::S2, OUT_BASE);

    // --- Step 1: compute the shading table in parallel (each CPU fills an
    // interleaved quarter: lut[i] = i*i + 0x9e37).
    a.mv(Reg::T0, Reg::S7); // i = cpu
    a.label("lut");
    a.mul(Reg::T1, Reg::T0, Reg::T0);
    a.li(Reg::T2, 0x9e37);
    a.add(Reg::T1, Reg::T1, Reg::T2);
    a.slli(Reg::T2, Reg::T0, 2);
    a.add(Reg::T2, Reg::S0, Reg::T2);
    a.sw(Reg::T1, Reg::T2, 0);
    a.addi(Reg::T0, Reg::T0, n as i16);
    a.li(Reg::T1, i64::from(LUT_WORDS));
    a.blt(Reg::T0, Reg::T1, "lut");
    rt.barrier(&mut a, Reg::A2, n);

    // --- Step 2: render tasks pulled from the shared queue.
    a.label("grab");
    rt.fetch_add(&mut a, Reg::A3, 1, Reg::S3); // S3 = my task id
    a.li(Reg::T0, i64::from(n_tasks));
    a.bge(Reg::S3, Reg::T0, "tasks_done");
    // vox ptr = VOX + task*TASK_VOXELS*4 ; out ptr = OUT + task*OUT_WORDS*4
    a.li(Reg::T0, i64::from(TASK_VOXELS * 4));
    a.mul(Reg::T1, Reg::S3, Reg::T0);
    a.add(Reg::T1, Reg::S1, Reg::T1); // vox ptr
    a.li(Reg::T0, i64::from(OUT_WORDS * 4));
    a.mul(Reg::T2, Reg::S3, Reg::T0);
    a.add(Reg::T2, Reg::S2, Reg::T2); // out ptr
    a.li(Reg::T3, i64::from(TASK_VOXELS)); // voxels left
    a.li(Reg::T4, 0); // acc
    a.label("vox");
    a.lw(Reg::T7, Reg::T1, 0);
    // Opacity classification: lut[vox & 1023].
    a.andi(Reg::T5, Reg::T7, (LUT_WORDS - 1) as i16);
    a.slli(Reg::T5, Reg::T5, 2);
    a.add(Reg::T5, Reg::S0, Reg::T5);
    a.lw(Reg::T5, Reg::T5, 0);
    a.add(Reg::T4, Reg::T4, Reg::T5);
    // Shading: lut[(vox >> 10) & 1023].
    a.srli(Reg::T5, Reg::T7, 10);
    a.andi(Reg::T5, Reg::T5, (LUT_WORDS - 1) as i16);
    a.slli(Reg::T5, Reg::T5, 2);
    a.add(Reg::T5, Reg::S0, Reg::T5);
    a.lw(Reg::T5, Reg::T5, 0);
    a.add(Reg::T4, Reg::T4, Reg::T5);
    // Every 4th voxel emits one output word.
    a.andi(Reg::T6, Reg::T3, 3);
    a.addi(Reg::T6, Reg::T6, -1);
    a.bnez(Reg::T6, "no_emit");
    a.sw(Reg::T4, Reg::T2, 0);
    a.addi(Reg::T2, Reg::T2, 4);
    a.label("no_emit");
    a.addi(Reg::T1, Reg::T1, 4);
    a.addi(Reg::T3, Reg::T3, -1);
    a.bnez(Reg::T3, "vox");
    a.j("grab");

    a.label("tasks_done");
    rt.barrier(&mut a, Reg::A2, n);

    // --- Step 3: parallel warp. Each CPU sums an interleaved quarter of
    // the intermediate image (written by whichever CPU rendered it).
    a.mv(Reg::T0, Reg::S7);
    a.li(Reg::T4, 0);
    a.label("warp");
    a.slli(Reg::T1, Reg::T0, 2);
    a.add(Reg::T1, Reg::S2, Reg::T1);
    a.lw(Reg::T2, Reg::T1, 0);
    a.add(Reg::T4, Reg::T4, Reg::T2);
    a.addi(Reg::T0, Reg::T0, n as i16);
    a.li(Reg::T1, i64::from(n_tasks * OUT_WORDS));
    a.blt(Reg::T0, Reg::T1, "warp");
    a.la_abs(Reg::T1, RESULT_BASE);
    a.slli(Reg::T2, Reg::S7, 5);
    a.add(Reg::T1, Reg::T1, Reg::T2);
    a.sw(Reg::T4, Reg::T1, 0);
    rt.barrier(&mut a, Reg::A2, n);

    // CPU 0 gathers the final checksum.
    a.bnez(Reg::S7, "end");
    a.la_abs(Reg::T1, RESULT_BASE);
    a.li(Reg::T4, 0);
    for c in 0..n {
        a.lw(Reg::T2, Reg::T1, (c * 32) as i16);
        a.add(Reg::T4, Reg::T4, Reg::T2);
    }
    a.la_abs(Reg::T1, Layout::CHECK);
    a.sw(Reg::T4, Reg::T1, 0);
    a.label("end");
    a.halt();

    let prog = a.assemble()?;
    let expected = reference(n_tasks);

    Ok(BuiltWorkload {
        name: "volpack",
        image: vec![(prog.base, prog.words)],
        entries: (0..n)
            .map(|_| ProcessInit {
                entry: Layout::CODE,
                space: AddrSpace::identity(),
            })
            .collect(),
        extra_processes: vec![Vec::new(); n],
        init: Box::new(move |phys| {
            for i in 0..n_tasks * TASK_VOXELS {
                phys.write_u32(VOX_BASE + i * 4, voxel(i));
            }
        }),
        check: Box::new(move |phys| {
            let got = phys.read_u32(Layout::CHECK);
            if got == expected {
                Ok(())
            } else {
                Err(format!(
                    "volpack checksum {got:#x} != expected {expected:#x}"
                ))
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
    fn reference_is_deterministic() {
        assert_eq!(reference(8), reference(8));
        assert_ne!(reference(8), reference(9));
    }

    /// 48 tasks per unit of scale: 10.67 asks for 512, the most whose
    /// voxels fit below the output, and 10.6875 for 513.
    #[test]
    fn rejects_more_tasks_than_the_voxel_volume_holds() {
        let at = |scale| WorkloadParams { n_cpus: 4, scale };
        assert_eq!(MAX_TASKS, 512);
        for scale in [10.6875, 16.0, 1e30] {
            let Err(err) = build(&at(scale)) else {
                panic!("scale {scale} built");
            };
            assert!(err.to_string().contains("at most 512"), "{err}");
        }
        build(&at(10.67)).expect("512 tasks build");
    }

    #[test]
    fn runs_and_validates_small() {
        let w = build(&WorkloadParams {
            n_cpus: 4,
            scale: 0.1,
        })
        .expect("builds");
        run_workload_mipsy(&w).expect("workload validates");
    }
}
