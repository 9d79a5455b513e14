//! The functional core: instruction semantics.
//!
//! Pure evaluation helpers (`eval_*`) are shared by both timing models; the
//! in-order [`step`] executes one instruction completely (including memory
//! side effects and the PC update) and is the execution engine of the Mipsy
//! model. The MXS model calls the `eval_*` helpers at its execute stage and
//! defers stores to graduation, so speculation never corrupts memory.
//!
//! All semantics are *total*: division by zero yields 0, float→int
//! conversion saturates (NaN → 0), and unmapped loads read zero. Totality is
//! what makes speculative wrong-path execution under MXS harmless.

use crate::arch::ArchState;
use cmpsim_isa::{AluOp, BranchCond, FpCmp, FpOp, HcallNo, Instr};
use cmpsim_mem::{AccessKind, Addr, AddrSpace, CpuId, PhysMem};

/// Execution environment: memory contents, address space and CPU identity.
#[derive(Debug)]
pub struct ExecEnv<'a> {
    /// Physical memory contents.
    pub mem: &'a mut PhysMem,
    /// Current address space (translation).
    pub space: AddrSpace,
    /// This CPU's id (for `CPUID` and LL/SC links).
    pub cpu: CpuId,
}

/// Non-sequential outcomes of one instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Fall through / branch handled via `next_pc`.
    Normal,
    /// The CPU halted.
    Halt,
    /// A harness call for the machine.
    Hcall(HcallNo),
}

/// Result of executing one instruction in order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepInfo {
    /// The memory access the timing model must charge (physical address),
    /// if any. A failed `SC` performs no access.
    pub mem_access: Option<(AccessKind, Addr)>,
    /// Whether this was an `SC` that failed.
    pub sc_failed: bool,
    /// Whether this instruction was a taken control transfer.
    pub taken_branch: bool,
    /// Special outcome.
    pub outcome: Outcome,
}

/// Integer ALU evaluation (register-register form).
pub fn eval_alu(op: AluOp, a: u32, b: u32) -> u32 {
    match op {
        AluOp::Add => a.wrapping_add(b),
        AluOp::Sub => a.wrapping_sub(b),
        AluOp::And => a & b,
        AluOp::Or => a | b,
        AluOp::Xor => a ^ b,
        AluOp::Nor => !(a | b),
        AluOp::Slt => u32::from((a as i32) < (b as i32)),
        AluOp::Sltu => u32::from(a < b),
        AluOp::Sll => a.wrapping_shl(b & 31),
        AluOp::Srl => a.wrapping_shr(b & 31),
        AluOp::Sra => ((a as i32).wrapping_shr(b & 31)) as u32,
    }
}

/// Integer ALU evaluation with an immediate. Arithmetic and comparisons
/// sign-extend; logical operations zero-extend; shifts use the low 5 bits.
pub fn eval_alui(op: AluOp, a: u32, imm: i16) -> u32 {
    let b = match op {
        AluOp::And | AluOp::Or | AluOp::Xor | AluOp::Nor => u32::from(imm as u16),
        _ => imm as i32 as u32,
    };
    eval_alu(op, a, b)
}

/// Floating-point evaluation. Single-precision opcodes round through `f32`.
pub fn eval_fp(op: FpOp, a: f64, b: f64) -> f64 {
    match op {
        FpOp::AddS => f64::from(a as f32 + b as f32),
        FpOp::SubS => f64::from(a as f32 - b as f32),
        FpOp::MulS => f64::from(a as f32 * b as f32),
        FpOp::DivS => f64::from(a as f32 / b as f32),
        FpOp::AddD => a + b,
        FpOp::SubD => a - b,
        FpOp::MulD => a * b,
        FpOp::DivD => a / b,
    }
}

/// Floating-point comparison.
pub fn eval_fcmp(cmp: FpCmp, a: f64, b: f64) -> bool {
    match cmp {
        FpCmp::Eq => a == b,
        FpCmp::Lt => a < b,
        FpCmp::Le => a <= b,
    }
}

/// Branch condition evaluation.
pub fn eval_branch(cond: BranchCond, a: u32, b: u32) -> bool {
    match cond {
        BranchCond::Eq => a == b,
        BranchCond::Ne => a != b,
        BranchCond::Lt => (a as i32) < (b as i32),
        BranchCond::Ge => (a as i32) >= (b as i32),
        BranchCond::Ltu => a < b,
        BranchCond::Geu => a >= b,
    }
}

/// Truncating f64 → i32 conversion with saturation; NaN converts to 0.
pub fn eval_cvt_fi(value: f64) -> u32 {
    (value as i32) as u32
}

/// Signed i32 → f64 conversion.
pub fn eval_cvt_if(value: u32) -> f64 {
    f64::from(value as i32)
}

/// Effective virtual address of a memory instruction.
pub fn effective_addr(base: u32, off: i16) -> u32 {
    base.wrapping_add(off as i32 as u32)
}

const NO_MEM: StepInfo = StepInfo {
    mem_access: None,
    sc_failed: false,
    taken_branch: false,
    outcome: Outcome::Normal,
};

/// Executes one instruction in order: reads/writes registers and memory,
/// updates `state.pc`, and reports what the timing model must charge.
pub fn step(state: &mut ArchState, instr: &Instr, env: &mut ExecEnv<'_>) -> StepInfo {
    use Instr::*;
    let pc = state.pc;
    let next = pc.wrapping_add(4);
    state.pc = next;

    match *instr {
        Alu { op, rd, rs, rt } => {
            let v = eval_alu(op, state.gpr(rs), state.gpr(rt));
            state.set_gpr(rd, v);
            NO_MEM
        }
        AluI { op, rt, rs, imm } => {
            let v = eval_alui(op, state.gpr(rs), imm);
            state.set_gpr(rt, v);
            NO_MEM
        }
        Lui { rt, imm } => {
            state.set_gpr(rt, u32::from(imm) << 16);
            NO_MEM
        }
        Mul { rd, rs, rt } => {
            let v = state.gpr(rs).wrapping_mul(state.gpr(rt));
            state.set_gpr(rd, v);
            NO_MEM
        }
        Div { rd, rs, rt } => {
            let (a, b) = (state.gpr(rs) as i32, state.gpr(rt) as i32);
            state.set_gpr(rd, if b == 0 { 0 } else { a.wrapping_div(b) as u32 });
            NO_MEM
        }
        Rem { rd, rs, rt } => {
            let (a, b) = (state.gpr(rs) as i32, state.gpr(rt) as i32);
            state.set_gpr(rd, if b == 0 { 0 } else { a.wrapping_rem(b) as u32 });
            NO_MEM
        }
        Fp { op, fd, fs, ft } => {
            let v = eval_fp(op, state.fpr(fs), state.fpr(ft));
            state.set_fpr(fd, v);
            NO_MEM
        }
        Fcmp { cmp, rd, fs, ft } => {
            let v = eval_fcmp(cmp, state.fpr(fs), state.fpr(ft));
            state.set_gpr(rd, u32::from(v));
            NO_MEM
        }
        Fmov { fd, fs } => {
            let v = state.fpr(fs);
            state.set_fpr(fd, v);
            NO_MEM
        }
        CvtIf { fd, rs } => {
            let v = eval_cvt_if(state.gpr(rs));
            state.set_fpr(fd, v);
            NO_MEM
        }
        CvtFi { rd, fs } => {
            let v = eval_cvt_fi(state.fpr(fs));
            state.set_gpr(rd, v);
            NO_MEM
        }
        Lb { rt, base, off } => {
            let pa = env.space.translate(effective_addr(state.gpr(base), off));
            state.set_gpr(rt, env.mem.read_u8(pa) as i8 as i32 as u32);
            StepInfo {
                mem_access: Some((AccessKind::Load, pa)),
                ..NO_MEM
            }
        }
        Lbu { rt, base, off } => {
            let pa = env.space.translate(effective_addr(state.gpr(base), off));
            state.set_gpr(rt, u32::from(env.mem.read_u8(pa)));
            StepInfo {
                mem_access: Some((AccessKind::Load, pa)),
                ..NO_MEM
            }
        }
        Lw { rt, base, off } => {
            let pa = env.space.translate(effective_addr(state.gpr(base), off));
            state.set_gpr(rt, env.mem.read_u32(pa));
            StepInfo {
                mem_access: Some((AccessKind::Load, pa)),
                ..NO_MEM
            }
        }
        Sb { rt, base, off } => {
            let pa = env.space.translate(effective_addr(state.gpr(base), off));
            env.mem.snoop_store(pa);
            env.mem.write_u8(pa, state.gpr(rt) as u8);
            StepInfo {
                mem_access: Some((AccessKind::Store, pa)),
                ..NO_MEM
            }
        }
        Sw { rt, base, off } => {
            let pa = env.space.translate(effective_addr(state.gpr(base), off));
            env.mem.snoop_store(pa);
            env.mem.write_u32(pa, state.gpr(rt));
            StepInfo {
                mem_access: Some((AccessKind::Store, pa)),
                ..NO_MEM
            }
        }
        Ll { rt, base, off } => {
            let pa = env.space.translate(effective_addr(state.gpr(base), off));
            env.mem.set_link(env.cpu, pa);
            state.set_gpr(rt, env.mem.read_u32(pa));
            StepInfo {
                mem_access: Some((AccessKind::Load, pa)),
                ..NO_MEM
            }
        }
        Sc { rt, base, off } => {
            let pa = env.space.translate(effective_addr(state.gpr(base), off));
            if env.mem.check_and_clear_link(env.cpu, pa) {
                env.mem.snoop_store(pa);
                env.mem.write_u32(pa, state.gpr(rt));
                state.set_gpr(rt, 1);
                StepInfo {
                    mem_access: Some((AccessKind::Store, pa)),
                    ..NO_MEM
                }
            } else {
                state.set_gpr(rt, 0);
                StepInfo {
                    sc_failed: true,
                    ..NO_MEM
                }
            }
        }
        Fls { ft, base, off } => {
            let pa = env.space.translate(effective_addr(state.gpr(base), off));
            state.set_fpr(ft, f64::from(env.mem.read_f32(pa)));
            StepInfo {
                mem_access: Some((AccessKind::Load, pa)),
                ..NO_MEM
            }
        }
        Fss { ft, base, off } => {
            let pa = env.space.translate(effective_addr(state.gpr(base), off));
            env.mem.snoop_store(pa);
            env.mem.write_f32(pa, state.fpr(ft) as f32);
            StepInfo {
                mem_access: Some((AccessKind::Store, pa)),
                ..NO_MEM
            }
        }
        Fld { ft, base, off } => {
            let pa = env.space.translate(effective_addr(state.gpr(base), off));
            state.set_fpr(ft, env.mem.read_f64(pa));
            StepInfo {
                mem_access: Some((AccessKind::Load, pa)),
                ..NO_MEM
            }
        }
        Fsd { ft, base, off } => {
            let pa = env.space.translate(effective_addr(state.gpr(base), off));
            env.mem.snoop_store(pa);
            env.mem.write_f64(pa, state.fpr(ft));
            StepInfo {
                mem_access: Some((AccessKind::Store, pa)),
                ..NO_MEM
            }
        }
        Branch { cond, rs, rt, off } => {
            if eval_branch(cond, state.gpr(rs), state.gpr(rt)) {
                state.pc = next.wrapping_add((off as i32 as u32).wrapping_mul(4));
                StepInfo {
                    taken_branch: true,
                    ..NO_MEM
                }
            } else {
                NO_MEM
            }
        }
        J { target } => {
            state.pc = target * 4;
            StepInfo {
                taken_branch: true,
                ..NO_MEM
            }
        }
        Jal { target } => {
            state.set_gpr(cmpsim_isa::Reg::RA, next);
            state.pc = target * 4;
            StepInfo {
                taken_branch: true,
                ..NO_MEM
            }
        }
        Jr { rs } => {
            state.pc = state.gpr(rs);
            StepInfo {
                taken_branch: true,
                ..NO_MEM
            }
        }
        Jalr { rd, rs } => {
            let target = state.gpr(rs);
            state.set_gpr(rd, next);
            state.pc = target;
            StepInfo {
                taken_branch: true,
                ..NO_MEM
            }
        }
        Sync => NO_MEM,
        Cpuid { rd } => {
            state.set_gpr(rd, env.cpu as u32);
            NO_MEM
        }
        Hcall { no } => StepInfo {
            outcome: Outcome::Hcall(no),
            ..NO_MEM
        },
        Halt => StepInfo {
            outcome: Outcome::Halt,
            ..NO_MEM
        },
        Nop => NO_MEM,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmpsim_isa::{FReg, Reg};

    fn env(mem: &mut PhysMem) -> ExecEnv<'_> {
        ExecEnv {
            mem,
            space: AddrSpace::identity(),
            cpu: 0,
        }
    }

    fn run(state: &mut ArchState, mem: &mut PhysMem, i: Instr) -> StepInfo {
        let mut e = env(mem);
        step(state, &i, &mut e)
    }

    #[test]
    fn alu_semantics() {
        assert_eq!(eval_alu(AluOp::Add, 3, u32::MAX), 2);
        assert_eq!(eval_alu(AluOp::Sub, 3, 5), (-2i32) as u32);
        assert_eq!(eval_alu(AluOp::Nor, 0, 0), u32::MAX);
        assert_eq!(eval_alu(AluOp::Slt, (-1i32) as u32, 0), 1);
        assert_eq!(eval_alu(AluOp::Sltu, u32::MAX, 0), 0);
        assert_eq!(
            eval_alu(AluOp::Sll, 1, 33),
            2,
            "shift amount masked to 5 bits"
        );
        assert_eq!(eval_alu(AluOp::Sra, (-8i32) as u32, 1), (-4i32) as u32);
        assert_eq!(eval_alu(AluOp::Srl, (-8i32) as u32, 1), 0x7ffffffc);
    }

    #[test]
    fn alui_extension_rules() {
        // Arithmetic sign-extends.
        assert_eq!(eval_alui(AluOp::Add, 10, -1), 9);
        // Logical zero-extends.
        assert_eq!(eval_alui(AluOp::Or, 0, -1), 0xffff);
        assert_eq!(eval_alui(AluOp::And, 0xffff_ffff, -1), 0xffff);
    }

    #[test]
    fn division_is_total() {
        assert_eq!(eval_alu(AluOp::Add, 0, 0), 0);
        let mut s = ArchState::new(0);
        let mut m = PhysMem::new(1);
        s.set_gpr(Reg::T1, 7);
        s.set_gpr(Reg::T2, 0);
        run(
            &mut s,
            &mut m,
            Instr::Div {
                rd: Reg::T0,
                rs: Reg::T1,
                rt: Reg::T2,
            },
        );
        assert_eq!(s.gpr(Reg::T0), 0);
        run(
            &mut s,
            &mut m,
            Instr::Rem {
                rd: Reg::T0,
                rs: Reg::T1,
                rt: Reg::T2,
            },
        );
        assert_eq!(s.gpr(Reg::T0), 0);
        // i32::MIN / -1 must not trap.
        s.set_gpr(Reg::T1, i32::MIN as u32);
        s.set_gpr(Reg::T2, (-1i32) as u32);
        run(
            &mut s,
            &mut m,
            Instr::Div {
                rd: Reg::T0,
                rs: Reg::T1,
                rt: Reg::T2,
            },
        );
        assert_eq!(s.gpr(Reg::T0), i32::MIN as u32);
    }

    #[test]
    fn single_precision_rounds_through_f32() {
        let a = 1.0e-8;
        let one = 1.0;
        assert_eq!(
            eval_fp(FpOp::AddS, one, a),
            1.0,
            "f32 cannot represent 1+1e-8"
        );
        assert_ne!(eval_fp(FpOp::AddD, one, a), 1.0);
    }

    #[test]
    fn cvt_saturates_and_handles_nan() {
        assert_eq!(eval_cvt_fi(f64::NAN), 0);
        assert_eq!(eval_cvt_fi(1e99), i32::MAX as u32);
        assert_eq!(eval_cvt_fi(-1e99), i32::MIN as u32);
        assert_eq!(eval_cvt_fi(-3.9), (-3i32) as u32);
        assert_eq!(eval_cvt_if((-5i32) as u32), -5.0);
    }

    #[test]
    fn loads_and_stores_roundtrip() {
        let mut s = ArchState::new(0);
        let mut m = PhysMem::new(1);
        s.set_gpr(Reg::A0, 0x1000);
        s.set_gpr(Reg::T0, 0xdead_beef);
        let info = run(
            &mut s,
            &mut m,
            Instr::Sw {
                rt: Reg::T0,
                base: Reg::A0,
                off: 4,
            },
        );
        assert_eq!(info.mem_access, Some((AccessKind::Store, 0x1004)));
        run(
            &mut s,
            &mut m,
            Instr::Lw {
                rt: Reg::T1,
                base: Reg::A0,
                off: 4,
            },
        );
        assert_eq!(s.gpr(Reg::T1), 0xdead_beef);
        // Signed / unsigned byte loads.
        run(
            &mut s,
            &mut m,
            Instr::Lb {
                rt: Reg::T2,
                base: Reg::A0,
                off: 7,
            },
        );
        assert_eq!(s.gpr(Reg::T2) as i32, -34, "0xde sign-extends");
        run(
            &mut s,
            &mut m,
            Instr::Lbu {
                rt: Reg::T3,
                base: Reg::A0,
                off: 7,
            },
        );
        assert_eq!(s.gpr(Reg::T3), 0xde);
    }

    #[test]
    fn fp_memory_roundtrip() {
        let mut s = ArchState::new(0);
        let mut m = PhysMem::new(1);
        s.set_gpr(Reg::A0, 0x2000);
        s.set_fpr(FReg::F1, 2.75);
        run(
            &mut s,
            &mut m,
            Instr::Fsd {
                ft: FReg::F1,
                base: Reg::A0,
                off: 0,
            },
        );
        run(
            &mut s,
            &mut m,
            Instr::Fld {
                ft: FReg::F2,
                base: Reg::A0,
                off: 0,
            },
        );
        assert_eq!(s.fpr(FReg::F2), 2.75);
        run(
            &mut s,
            &mut m,
            Instr::Fss {
                ft: FReg::F1,
                base: Reg::A0,
                off: 8,
            },
        );
        run(
            &mut s,
            &mut m,
            Instr::Fls {
                ft: FReg::F3,
                base: Reg::A0,
                off: 8,
            },
        );
        assert_eq!(s.fpr(FReg::F3), 2.75);
    }

    #[test]
    fn ll_sc_pair_succeeds_and_intervening_store_fails_it() {
        let mut m = PhysMem::new(2);
        let mut s = ArchState::new(0);
        s.set_gpr(Reg::A0, 0x3000);
        s.set_gpr(Reg::T0, 42);
        run(
            &mut s,
            &mut m,
            Instr::Ll {
                rt: Reg::T1,
                base: Reg::A0,
                off: 0,
            },
        );
        let info = run(
            &mut s,
            &mut m,
            Instr::Sc {
                rt: Reg::T0,
                base: Reg::A0,
                off: 0,
            },
        );
        assert!(!info.sc_failed);
        assert_eq!(s.gpr(Reg::T0), 1, "SC success writes 1");
        assert_eq!(m.read_u32(0x3000), 42);

        // Second CPU steals the line between LL and SC.
        run(
            &mut s,
            &mut m,
            Instr::Ll {
                rt: Reg::T1,
                base: Reg::A0,
                off: 0,
            },
        );
        m.snoop_store(0x3000);
        m.write_u32(0x3000, 7);
        s.set_gpr(Reg::T0, 99);
        let info = run(
            &mut s,
            &mut m,
            Instr::Sc {
                rt: Reg::T0,
                base: Reg::A0,
                off: 0,
            },
        );
        assert!(info.sc_failed);
        assert_eq!(info.mem_access, None, "failed SC performs no store");
        assert_eq!(s.gpr(Reg::T0), 0);
        assert_eq!(m.read_u32(0x3000), 7);
    }

    #[test]
    fn branches_and_jumps_update_pc() {
        let mut s = ArchState::new(100);
        let mut m = PhysMem::new(1);
        s.set_gpr(Reg::T0, 1);
        // Not taken: pc advances by 4.
        let i = run(
            &mut s,
            &mut m,
            Instr::Branch {
                cond: BranchCond::Eq,
                rs: Reg::T0,
                rt: Reg::ZERO,
                off: 5,
            },
        );
        assert!(!i.taken_branch);
        assert_eq!(s.pc, 104);
        // Taken backward branch: target = pc + 4 + off*4.
        let i = run(
            &mut s,
            &mut m,
            Instr::Branch {
                cond: BranchCond::Ne,
                rs: Reg::T0,
                rt: Reg::ZERO,
                off: -2,
            },
        );
        assert!(i.taken_branch);
        assert_eq!(s.pc, 104 + 4 - 8);

        run(&mut s, &mut m, Instr::Jal { target: 0x100 });
        assert_eq!(s.pc, 0x400);
        assert_eq!(s.gpr(Reg::RA), 104);
        run(&mut s, &mut m, Instr::Jr { rs: Reg::RA });
        assert_eq!(s.pc, 104);
        s.set_gpr(Reg::T5, 0x2000);
        run(
            &mut s,
            &mut m,
            Instr::Jalr {
                rd: Reg::T6,
                rs: Reg::T5,
            },
        );
        assert_eq!(s.pc, 0x2000);
        assert_eq!(s.gpr(Reg::T6), 108);
    }

    #[test]
    fn special_outcomes() {
        let mut s = ArchState::new(0);
        let mut m = PhysMem::new(1);
        assert_eq!(run(&mut s, &mut m, Instr::Halt).outcome, Outcome::Halt);
        assert_eq!(
            run(&mut s, &mut m, Instr::Hcall { no: HcallNo::Yield }).outcome,
            Outcome::Hcall(HcallNo::Yield)
        );
        run(&mut s, &mut m, Instr::Cpuid { rd: Reg::V0 });
        assert_eq!(s.gpr(Reg::V0), 0);
    }

    #[test]
    fn translation_applies_to_memory_ops() {
        let mut m = PhysMem::new(1);
        let mut s = ArchState::new(0);
        s.set_gpr(Reg::A0, 0x100);
        s.set_gpr(Reg::T0, 5);
        let mut e = ExecEnv {
            mem: &mut m,
            space: AddrSpace::new(1, 0x1_0000),
            cpu: 0,
        };
        let info = step(
            &mut s,
            &Instr::Sw {
                rt: Reg::T0,
                base: Reg::A0,
                off: 0,
            },
            &mut e,
        );
        assert_eq!(info.mem_access, Some((AccessKind::Store, 0x1_0100)));
        assert_eq!(m.read_u32(0x1_0100), 5);
        assert_eq!(m.read_u32(0x100), 0);
    }
}
