//! A fully parameterized synthetic workload for design exploration.
//!
//! The seven paper workloads have fixed characters; `synth` exposes the
//! knobs directly — per-CPU working-set size, store fraction, shared-data
//! fraction and synchronization grain — so the three architectures can be
//! mapped across the whole design space (`cmpsim synth ...` drives it from
//! the command line).
//!
//! Every access pattern is a deterministic hash stream, so the private
//! portion of the computation self-validates against a Rust mirror even
//! though shared-region stores race (as they would in MP3D).

use crate::layout::Layout;
use crate::runtime::Runtime;
use crate::workload::{BuiltWorkload, ProcessInit};
use cmpsim_isa::{Asm, Reg};
use cmpsim_mem::{AddrSpace, KERNEL_BASE};

const PRIV_BASE: u32 = Layout::DATA;
/// Per-CPU private regions sit 256 KB apart (not set-aligned anywhere).
const PRIV_STRIDE: u32 = 0x4_1040;
const SHARED_BASE: u32 = Layout::DATA + 0x18_0000;
/// Largest CPU count: four private regions fit below `SHARED_BASE`.
const MAX_CPUS: usize = 4;
/// Largest private working set: the power of two within `PRIV_STRIDE`.
const MAX_WS_KB: usize = 256;
/// Largest shared region: the power of two that ends below the kernel.
const MAX_SHARED_KB: usize = 2 * 1024 * 1024;
const _: () = assert!(
    MAX_WS_KB * 1024 <= PRIV_STRIDE as usize
        && PRIV_BASE as usize + MAX_CPUS * PRIV_STRIDE as usize <= SHARED_BASE as usize
        && SHARED_BASE as usize + MAX_SHARED_KB * 1024 <= KERNEL_BASE as usize
);
const HASH_K: u32 = 2654435761;
const DONE_MAGIC: u32 = 0x51D0_0D0E;

/// Parameters of the synthetic workload. [`build`] refuses a value
/// outside the limits given here.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SynthParams {
    /// CPUs (1–4).
    pub n_cpus: usize,
    /// Barrier rounds (at least 1).
    pub rounds: usize,
    /// Accesses per CPU between barriers (the grain; at least 1, and
    /// `rounds * grain` fits the 32-bit access counter).
    pub grain: usize,
    /// Per-CPU private working set in KB (power of two, at most 256).
    pub working_set_kb: usize,
    /// Percent of accesses that are stores (0–100).
    pub store_pct: u8,
    /// Percent of accesses that touch the shared region (0–100).
    pub shared_pct: u8,
    /// Shared region size in KB (power of two, at most 2 GB).
    pub shared_kb: usize,
}

impl Default for SynthParams {
    fn default() -> Self {
        SynthParams {
            n_cpus: 4,
            rounds: 20,
            grain: 500,
            working_set_kb: 32,
            store_pct: 25,
            shared_pct: 10,
            shared_kb: 16,
        }
    }
}

impl SynthParams {
    fn ws_mask(&self) -> u32 {
        self.working_set_kb as u32 * 1024 / 4 - 1
    }
    fn shared_mask(&self) -> u32 {
        self.shared_kb as u32 * 1024 / 4 - 1
    }
}

/// The deterministic per-access hash (mirrored in Rust and in assembly).
fn access_hash(cpu: u32, k: u32) -> u32 {
    (k ^ cpu.wrapping_mul(0x9e37_79b9)).wrapping_mul(HASH_K)
}

/// Whether access `k` by `cpu` is a store / is shared, and its word index.
fn classify(p: &SynthParams, cpu: u32, k: u32) -> (bool, bool, u32) {
    let h = access_hash(cpu, k);
    let is_store = (h >> 8) % 100 < u32::from(p.store_pct);
    let is_shared = (h >> 16) % 100 < u32::from(p.shared_pct);
    let idx = if is_shared {
        h & p.shared_mask()
    } else {
        h & p.ws_mask()
    };
    (is_store, is_shared, idx)
}

/// Store value for access `k` (independent of loaded data, so private
/// memory stays deterministic even though shared loads race).
fn store_value(cpu: u32, k: u32) -> u32 {
    k.wrapping_mul(HASH_K) ^ cpu
}

/// Checks every limit [`SynthParams`] documents, naming the one a value
/// breaks.
fn check(p: &SynthParams) -> Result<(), String> {
    if !(1..=MAX_CPUS).contains(&p.n_cpus) {
        return Err(format!("synth runs on 1-{MAX_CPUS} CPUs, not {}", p.n_cpus));
    }
    for (pct, what) in [(p.store_pct, "store"), (p.shared_pct, "shared")] {
        if pct > 100 {
            return Err(format!("synth {what} percentage {pct} exceeds 100"));
        }
    }
    for (kb, what, max) in [
        (p.working_set_kb, "working set", MAX_WS_KB),
        (p.shared_kb, "shared region", MAX_SHARED_KB),
    ] {
        if !kb.is_power_of_two() {
            return Err(format!(
                "synth {what} {kb} KB is not a power-of-two KB count"
            ));
        }
        if kb > max {
            return Err(format!("synth {what} {kb} KB exceeds its {max} KB limit"));
        }
    }
    if p.rounds == 0 || p.grain == 0 {
        return Err(format!(
            "synth needs at least 1 round of at least 1 access (rounds {}, grain {})",
            p.rounds, p.grain
        ));
    }
    match p.rounds.checked_mul(p.grain) {
        Some(n) if n <= u32::MAX as usize => Ok(()),
        _ => Err(format!(
            "synth rounds {} x grain {} needs more accesses per CPU than \
             the 32-bit access counter holds ({})",
            p.rounds,
            p.grain,
            u32::MAX
        )),
    }
}

/// Builds the synthetic workload.
///
/// # Errors
///
/// Returns an error naming the limit when a parameter breaks one of
/// [`SynthParams`]'s limits, and an assembly error if the generated
/// program is malformed (a bug).
pub fn build(p: &SynthParams) -> Result<BuiltWorkload, Box<dyn std::error::Error>> {
    check(p)?;
    let p = *p;

    let mut rt = Runtime::new();
    let mut a = Asm::new(Layout::CODE);
    rt.preamble(&mut a);
    a.la_abs(Reg::A2, Layout::sync_word(0));
    // Private base = PRIV_BASE + cpu * PRIV_STRIDE.
    a.la_abs(Reg::S0, PRIV_BASE);
    a.li(Reg::T0, i64::from(PRIV_STRIDE));
    a.mul(Reg::T0, Reg::S7, Reg::T0);
    a.add(Reg::S0, Reg::S0, Reg::T0);
    a.la_abs(Reg::S1, SHARED_BASE);
    a.li(Reg::S4, i64::from(HASH_K));
    // cpu_salt = cpu * 0x9e3779b9
    a.li(Reg::T0, 0x9e37_79b9u32 as i64);
    a.mul(Reg::S2, Reg::S7, Reg::T0);
    a.li(Reg::S3, p.rounds as i64);
    a.li(Reg::S5, 0); // k (global access counter)

    a.label("round");
    a.li(Reg::T7, p.grain as i64); // accesses left this round
    a.label("access");
    // h = (k ^ salt) * K
    a.xor(Reg::T0, Reg::S5, Reg::S2);
    a.mul(Reg::T0, Reg::T0, Reg::S4);
    // is_store = ((h >> 8) % 100) < store_pct
    a.srli(Reg::T1, Reg::T0, 8);
    a.li(Reg::T2, 100);
    a.rem(Reg::T1, Reg::T1, Reg::T2);
    a.slti(Reg::T1, Reg::T1, p.store_pct as i16);
    // is_shared = ((h >> 16) % 100) < shared_pct
    a.srli(Reg::T3, Reg::T0, 16);
    a.rem(Reg::T3, Reg::T3, Reg::T2);
    a.slti(Reg::T3, Reg::T3, p.shared_pct as i16);
    // address: base/mask by region
    a.bnez(Reg::T3, "shared_addr");
    a.li(Reg::T4, i64::from(p.ws_mask()));
    a.and(Reg::T4, Reg::T0, Reg::T4);
    a.slli(Reg::T4, Reg::T4, 2);
    a.add(Reg::T4, Reg::S0, Reg::T4);
    a.j("have_addr");
    a.label("shared_addr");
    a.li(Reg::T4, i64::from(p.shared_mask()));
    a.and(Reg::T4, Reg::T0, Reg::T4);
    a.slli(Reg::T4, Reg::T4, 2);
    a.add(Reg::T4, Reg::S1, Reg::T4);
    a.label("have_addr");
    // value = k * K ^ cpu
    a.mul(Reg::T5, Reg::S5, Reg::S4);
    a.xor(Reg::T5, Reg::T5, Reg::S7);
    a.beqz(Reg::T1, "do_load");
    a.sw(Reg::T5, Reg::T4, 0);
    a.j("next");
    a.label("do_load");
    a.lw(Reg::T6, Reg::T4, 0);
    a.label("next");
    a.addi(Reg::S5, Reg::S5, 1);
    a.addi(Reg::T7, Reg::T7, -1);
    a.bnez(Reg::T7, "access");
    rt.barrier(&mut a, Reg::A2, p.n_cpus);
    a.addi(Reg::S3, Reg::S3, -1);
    a.bnez(Reg::S3, "round");
    // done[cpu] = MAGIC
    a.la_abs(Reg::T0, Layout::CHECK);
    a.slli(Reg::T1, Reg::S7, 5);
    a.add(Reg::T0, Reg::T0, Reg::T1);
    a.li(Reg::T2, i64::from(DONE_MAGIC));
    a.sw(Reg::T2, Reg::T0, 0);
    a.halt();

    let prog = a.assemble()?;

    // Rust mirror of each CPU's private-region final contents.
    let n = p.n_cpus;
    let expected_priv: Vec<Vec<u32>> = (0..n as u32)
        .map(|cpu| {
            let words = p.working_set_kb * 1024 / 4;
            let mut arr = vec![0u32; words];
            for k in 0..(p.rounds * p.grain) as u32 {
                let (is_store, is_shared, idx) = classify(&p, cpu, k);
                if is_store && !is_shared {
                    arr[idx as usize] = store_value(cpu, k);
                }
            }
            arr
        })
        .collect();

    Ok(BuiltWorkload {
        name: "synth",
        image: vec![(prog.base, prog.words)],
        entries: (0..n)
            .map(|_| ProcessInit {
                entry: Layout::CODE,
                space: AddrSpace::identity(),
            })
            .collect(),
        extra_processes: vec![Vec::new(); n],
        init: Box::new(|_| {}),
        check: Box::new(move |phys| {
            for (cpu, arr) in expected_priv.iter().enumerate() {
                let base = PRIV_BASE + cpu as u32 * PRIV_STRIDE;
                for (i, &want) in arr.iter().enumerate() {
                    let got = phys.read_u32(base + i as u32 * 4);
                    if got != want {
                        return Err(format!("synth cpu {cpu} word {i}: {got:#x} != {want:#x}"));
                    }
                }
                let done = phys.read_u32(Layout::CHECK + cpu as u32 * 32);
                if done != DONE_MAGIC {
                    return Err(format!("synth cpu {cpu} did not finish"));
                }
            }
            Ok(())
        }),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_is_deterministic_and_bounded() {
        let p = SynthParams::default();
        for k in 0..1000 {
            let (s1, sh1, i1) = classify(&p, 2, k);
            let (s2, sh2, i2) = classify(&p, 2, k);
            assert_eq!((s1, sh1, i1), (s2, sh2, i2));
            if sh1 {
                assert!(i1 <= p.shared_mask());
            } else {
                assert!(i1 <= p.ws_mask());
            }
        }
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn rejects_non_pow2_working_set() {
        let p = SynthParams {
            working_set_kb: 3,
            ..SynthParams::default()
        };
        if let Err(e) = build(&p) {
            panic!("{e}");
        }
    }
}
