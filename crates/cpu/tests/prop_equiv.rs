//! The strongest property in the suite: for randomly generated (but
//! terminating) programs, the in-order Mipsy model and the speculative
//! out-of-order MXS model must produce *identical architectural state* —
//! every integer register, every FP register, and all touched memory.
//! Any renaming, forwarding, squash or fence bug shows up here.
//! Runs on `cmpsim_engine::prop`.

use cmpsim_cpu::{CpuModel, MipsyCpu, MxsConfig, MxsCpu};
use cmpsim_engine::prop::{self, Config, Source};
use cmpsim_engine::Cycle;
use cmpsim_isa::{AluOp, Asm, FReg, FpOp, Reg};
use cmpsim_mem::{AddrSpace, PhysMem, SharedMemSystem, SystemConfig};

const CODE: u32 = 0x1_0000;
const DATA: u32 = 0x10_0000;
const DATA_WORDS: u32 = 64;

/// One random-but-safe operation inside the generated loop body.
#[derive(Debug, Clone)]
enum GenOp {
    Alu(AluOp, u8, u8, u8),
    AluI(AluOp, u8, u8, i16),
    Mul(u8, u8, u8),
    Div(u8, u8, u8),
    Fp(FpOp, u8, u8, u8),
    Cvt(u8, u8),
    Load(u8, u16),
    Store(u8, u16),
    FLoad(u8, u16),
    FStore(u8, u16),
    LlSc(u16),
    /// Data-dependent forward skip over the next `n` ops.
    Skip(u8, u8),
    Sync,
}

fn any_gpr(src: &mut Source) -> u8 {
    // T0..T7 and S0..S3: never the loop counter (S5) or bases.
    let idx = src.u8(0..12);
    if idx < 8 {
        8 + idx
    } else {
        16 + (idx - 8)
    }
}
fn any_fpr(src: &mut Source) -> u8 {
    src.u8(1..9)
}
fn any_woff(src: &mut Source) -> u16 {
    src.u64(0..u64::from(DATA_WORDS)) as u16 * 4
}
fn any_alu(src: &mut Source) -> AluOp {
    src.choice(&[
        AluOp::Add,
        AluOp::Sub,
        AluOp::And,
        AluOp::Or,
        AluOp::Xor,
        AluOp::Nor,
        AluOp::Slt,
        AluOp::Sltu,
        AluOp::Sll,
        AluOp::Srl,
        AluOp::Sra,
    ])
}
fn any_fp(src: &mut Source) -> FpOp {
    // Divides excluded: 0/0 -> NaN propagates fine but makes failures
    // noisier to debug; Mul/Add/Sub still cover the FP pipelines.
    src.choice(&[
        FpOp::AddS,
        FpOp::SubS,
        FpOp::MulS,
        FpOp::AddD,
        FpOp::SubD,
        FpOp::MulD,
    ])
}

fn any_op(src: &mut Source) -> GenOp {
    match src.index(13) {
        0 => GenOp::Alu(any_alu(src), any_gpr(src), any_gpr(src), any_gpr(src)),
        1 => GenOp::AluI(any_alu(src), any_gpr(src), any_gpr(src), src.i16_any()),
        2 => GenOp::Mul(any_gpr(src), any_gpr(src), any_gpr(src)),
        3 => GenOp::Div(any_gpr(src), any_gpr(src), any_gpr(src)),
        4 => GenOp::Fp(any_fp(src), any_fpr(src), any_fpr(src), any_fpr(src)),
        5 => GenOp::Cvt(any_fpr(src), any_gpr(src)),
        6 => GenOp::Load(any_gpr(src), any_woff(src)),
        7 => GenOp::Store(any_gpr(src), any_woff(src)),
        8 => GenOp::FLoad(any_fpr(src), any_woff(src)),
        9 => GenOp::FStore(any_fpr(src), any_woff(src)),
        10 => GenOp::LlSc(any_woff(src)),
        11 => GenOp::Skip(any_gpr(src), src.u8(1..4)),
        _ => GenOp::Sync,
    }
}

/// Emits the generated loop; every program terminates (bounded counter,
/// forward-only data-dependent branches).
fn emit(ops: &[GenOp], loop_iters: u8) -> Asm {
    let mut a = Asm::new(CODE);
    a.la_abs(Reg::A0, DATA);
    // Seed registers deterministically.
    for r in 8..20u8 {
        a.li(Reg::new(r), i64::from(r) * 0x0101_0101);
    }
    for f in 1..9u8 {
        a.li(Reg::AT, i64::from(f) * 3 - 10);
        a.cvt_if(FReg::new(f), Reg::AT);
    }
    a.li(Reg::S5, i64::from(loop_iters));
    a.label("loop");
    let mut skip_id = 0usize;
    let mut pending_skip: Option<(usize, u8)> = None;
    for op in ops {
        // Close an open skip region when its length expires.
        if let Some((id, 0)) = pending_skip {
            a.label(&format!("skip{id}"));
            pending_skip = None;
        }
        if let Some((_, n)) = &mut pending_skip {
            *n -= 1;
        }
        match *op {
            GenOp::Alu(op, d, s, t) => {
                a.alu(op, Reg::new(d), Reg::new(s), Reg::new(t));
            }
            GenOp::AluI(op, d, s, i) => {
                a.alui(op, Reg::new(d), Reg::new(s), i);
            }
            GenOp::Mul(d, s, t) => {
                a.mul(Reg::new(d), Reg::new(s), Reg::new(t));
            }
            GenOp::Div(d, s, t) => {
                a.div(Reg::new(d), Reg::new(s), Reg::new(t));
            }
            GenOp::Fp(op, d, s, t) => {
                a.fp(op, FReg::new(d), FReg::new(s), FReg::new(t));
            }
            GenOp::Cvt(f, r) => {
                a.cvt_if(FReg::new(f), Reg::new(r));
                a.cvt_fi(Reg::new(r), FReg::new(f));
            }
            GenOp::Load(r, off) => {
                a.lw(Reg::new(r), Reg::A0, off as i16);
            }
            GenOp::Store(r, off) => {
                a.sw(Reg::new(r), Reg::A0, off as i16);
            }
            GenOp::FLoad(f, off) => {
                a.fld(FReg::new(f), Reg::A0, off as i16);
            }
            GenOp::FStore(f, off) => {
                a.fsd(FReg::new(f), Reg::A0, off as i16);
            }
            GenOp::LlSc(off) => {
                a.ll(Reg::T8, Reg::A0, off as i16);
                a.addi(Reg::T8, Reg::T8, 1);
                a.sc(Reg::T8, Reg::A0, off as i16);
            }
            GenOp::Skip(r, n) if pending_skip.is_none() => {
                let id = skip_id;
                skip_id += 1;
                a.beqz(Reg::new(r), &format!("skip{id}"));
                pending_skip = Some((id, n));
            }
            GenOp::Skip(..) => a.nop().ignore(),
            GenOp::Sync => a.sync().ignore(),
        }
    }
    if let Some((id, _)) = pending_skip {
        a.label(&format!("skip{id}"));
    }
    a.addi(Reg::S5, Reg::S5, -1);
    a.bnez(Reg::S5, "loop");
    a.halt();
    a
}

trait Ignore {
    fn ignore(&mut self) {}
}
impl Ignore for Asm {}

fn run<C: CpuModel>(mut cpu: C, prog: &cmpsim_isa::Program) -> (C, PhysMem) {
    let mut phys = PhysMem::new(1);
    phys.load_words(prog.base, &prog.words);
    // Seed data memory deterministically.
    for i in 0..DATA_WORDS {
        phys.write_u32(DATA + i * 4, i.wrapping_mul(0x9e37_79b9));
    }
    let mut mem = SharedMemSystem::new(&SystemConfig::paper_shared_mem(1));
    let mut now = Cycle(0);
    for _ in 0..10_000_000u64 {
        if cpu.halted() {
            return (cpu, phys);
        }
        let (next, _) = cpu.step(now, &mut mem, &mut phys);
        now = next;
    }
    panic!("generated program did not halt");
}

/// An MXS core shape: window sizes from a tiny to the explorer's widest,
/// and the MSHR, issue and fetch widths the issue queue's wake-up rules
/// depend on.
fn any_mxs_config(src: &mut Source) -> MxsConfig {
    MxsConfig {
        rob_entries: src.choice(&[4, 8, 32, 512]),
        mshrs: src.usize(1..5),
        issue_width: src.usize(1..5),
        fetch_width: src.usize(1..9),
        ..MxsConfig::default()
    }
}

/// Runs the program on both models and asserts identical architectural
/// state: GPRs, FPRs (NaN == NaN) and all data memory. Also asserts that
/// MXS rename never stalled: its `32 + rob_entries` registers per file
/// cover every in-flight instruction.
fn assert_models_agree(ops: &[GenOp], iters: u8, cfg: MxsConfig) {
    let prog = emit(ops, iters).assemble().expect("assembles");
    let (mipsy, mem_a) = run(MipsyCpu::new(0, CODE, AddrSpace::identity()), &prog);
    let (mxs, mem_b) = run(
        MxsCpu::with_config(0, CODE, AddrSpace::identity(), cfg),
        &prog,
    );
    assert_eq!(
        mxs.counters().dispatch_stall_preg,
        0,
        "rename stalled on {cfg:?}"
    );

    for r in 0..32u8 {
        assert_eq!(
            mipsy.arch().gpr(Reg::new(r)),
            mxs.arch().gpr(Reg::new(r)),
            "gpr {r} differs"
        );
    }
    for f in 0..32u8 {
        let (a, b) = (mipsy.arch().fpr(FReg::new(f)), mxs.arch().fpr(FReg::new(f)));
        assert!(
            a == b || (a.is_nan() && b.is_nan()),
            "fpr {f} differs: {a} vs {b}"
        );
    }
    for i in 0..DATA_WORDS {
        assert_eq!(
            mem_a.read_u32(DATA + i * 4),
            mem_b.read_u32(DATA + i * 4),
            "memory word {i} differs"
        );
    }
}

#[test]
fn mipsy_and_mxs_agree_on_architectural_state() {
    let cfg = Config::from_env_or_cases(64);
    prop::check_with(&cfg, "mipsy_and_mxs_agree_on_architectural_state", |src| {
        let ops = src.vec(1..40, any_op);
        let iters = src.u8(1..12);
        let cfg = any_mxs_config(src);
        assert_models_agree(&ops, iters, cfg);
    });
}

/// Pinned regression: the DESIGN.md §7 LL/SC-at-graduation bug class.
/// Setting the load-link reservation at (speculative) execute instead of
/// graduation let the older same-CPU store below clear it when that store
/// graduated, turning the SC into a spurious failure — Mipsy and MXS then
/// disagreed on T8 and on the touched word. Found by the equivalence
/// property; must stay covered verbatim.
#[test]
fn regression_llsc_reservation_set_at_graduation() {
    assert_models_agree(
        &[GenOp::Mul(12, 8, 8), GenOp::Store(8, 96), GenOp::LlSc(96)],
        1,
        MxsConfig::default(),
    );
}
