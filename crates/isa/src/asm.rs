//! A small assembler with labels, used by the workload generators.
//!
//! The assembler is a builder: emit instructions through convenience methods,
//! drop labels with [`Asm::label`], and call [`Asm::assemble`] to resolve
//! forward references and produce a [`Program`] (binary words plus a symbol
//! table) that the machine loads into simulated memory.

use crate::encode::encode;
use crate::instr::{AluOp, BranchCond, FpCmp, FpOp, HcallNo, Instr};
use crate::reg::{FReg, Reg};
use crate::{Addr, INSTR_BYTES};
use std::collections::HashMap;
use std::fmt;

/// Errors produced while assembling a program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AsmError {
    /// A label was referenced but never defined.
    UndefinedLabel(String),
    /// The same label was defined twice.
    DuplicateLabel(String),
    /// A branch to `label` is further than a 16-bit word offset can reach.
    BranchOutOfRange { label: String, distance: i64 },
    /// The program base address is not 4-byte aligned.
    UnalignedBase(Addr),
}

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AsmError::UndefinedLabel(l) => write!(f, "undefined label `{l}`"),
            AsmError::DuplicateLabel(l) => write!(f, "duplicate label `{l}`"),
            AsmError::BranchOutOfRange { label, distance } => {
                write!(f, "branch to `{label}` out of range ({distance} words)")
            }
            AsmError::UnalignedBase(a) => write!(f, "program base {a:#x} not 4-byte aligned"),
        }
    }
}

impl std::error::Error for AsmError {}

/// An assembled program: binary words at `base`, plus the symbol table.
#[derive(Debug, Clone)]
pub struct Program {
    /// Byte address of the first word.
    pub base: Addr,
    /// Encoded instructions/data.
    pub words: Vec<u32>,
    /// Label → byte address.
    pub symbols: HashMap<String, Addr>,
}

impl Program {
    /// Byte address of a label.
    pub fn addr_of(&self, label: &str) -> Option<Addr> {
        self.symbols.get(label).copied()
    }

    /// One past the last byte of the program.
    pub fn end_addr(&self) -> Addr {
        self.base + (self.words.len() as u32) * INSTR_BYTES
    }

    /// Program size in bytes.
    pub fn size_bytes(&self) -> u32 {
        self.words.len() as u32 * INSTR_BYTES
    }
}

#[derive(Debug, Clone)]
enum Slot {
    Done(Instr),
    /// Conditional branch to a label (offset patched at assemble time).
    BranchTo {
        cond: BranchCond,
        rs: Reg,
        rt: Reg,
        label: String,
    },
    /// `j`/`jal` to a label.
    JumpTo {
        link: bool,
        label: String,
    },
    /// First word of a two-word `la` expansion (`lui` + `ori`).
    LaHi {
        rt: Reg,
        label: String,
    },
    /// Second word of `la`.
    LaLo {
        rt: Reg,
        label: String,
    },
    /// Raw data word.
    Raw(u32),
}

/// Assembler builder. See the [crate docs](crate) for an example.
#[derive(Debug, Clone)]
pub struct Asm {
    base: Addr,
    slots: Vec<Slot>,
    labels: HashMap<String, u32>, // word index
    duplicate: Option<String>,
}

impl Asm {
    /// Starts a program at byte address `base`.
    pub fn new(base: Addr) -> Asm {
        Asm {
            base,
            slots: Vec::new(),
            labels: HashMap::new(),
            duplicate: None,
        }
    }

    /// Defines `label` at the current position.
    pub fn label(&mut self, label: &str) -> &mut Asm {
        let idx = self.slots.len() as u32;
        if self.labels.insert(label.to_string(), idx).is_some() && self.duplicate.is_none() {
            self.duplicate = Some(label.to_string());
        }
        self
    }

    /// Byte address of the next emitted word.
    pub fn here(&self) -> Addr {
        self.base + self.slots.len() as u32 * INSTR_BYTES
    }

    /// Number of words emitted so far.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether nothing has been emitted.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Emits a pre-built instruction.
    pub fn instr(&mut self, i: Instr) -> &mut Asm {
        self.slots.push(Slot::Done(i));
        self
    }

    /// Emits a raw data word (for embedding constants in the text segment).
    pub fn word(&mut self, w: u32) -> &mut Asm {
        self.slots.push(Slot::Raw(w));
        self
    }

    // ----- integer ALU -----

    pub fn alu(&mut self, op: AluOp, rd: Reg, rs: Reg, rt: Reg) -> &mut Asm {
        self.instr(Instr::Alu { op, rd, rs, rt })
    }
    pub fn add(&mut self, rd: Reg, rs: Reg, rt: Reg) -> &mut Asm {
        self.alu(AluOp::Add, rd, rs, rt)
    }
    pub fn sub(&mut self, rd: Reg, rs: Reg, rt: Reg) -> &mut Asm {
        self.alu(AluOp::Sub, rd, rs, rt)
    }
    pub fn and(&mut self, rd: Reg, rs: Reg, rt: Reg) -> &mut Asm {
        self.alu(AluOp::And, rd, rs, rt)
    }
    pub fn or(&mut self, rd: Reg, rs: Reg, rt: Reg) -> &mut Asm {
        self.alu(AluOp::Or, rd, rs, rt)
    }
    pub fn xor(&mut self, rd: Reg, rs: Reg, rt: Reg) -> &mut Asm {
        self.alu(AluOp::Xor, rd, rs, rt)
    }
    pub fn slt(&mut self, rd: Reg, rs: Reg, rt: Reg) -> &mut Asm {
        self.alu(AluOp::Slt, rd, rs, rt)
    }
    pub fn sltu(&mut self, rd: Reg, rs: Reg, rt: Reg) -> &mut Asm {
        self.alu(AluOp::Sltu, rd, rs, rt)
    }

    pub fn alui(&mut self, op: AluOp, rt: Reg, rs: Reg, imm: i16) -> &mut Asm {
        self.instr(Instr::AluI { op, rt, rs, imm })
    }
    pub fn addi(&mut self, rt: Reg, rs: Reg, imm: i16) -> &mut Asm {
        self.alui(AluOp::Add, rt, rs, imm)
    }
    pub fn andi(&mut self, rt: Reg, rs: Reg, imm: i16) -> &mut Asm {
        self.alui(AluOp::And, rt, rs, imm)
    }
    pub fn ori(&mut self, rt: Reg, rs: Reg, imm: i16) -> &mut Asm {
        self.alui(AluOp::Or, rt, rs, imm)
    }
    pub fn xori(&mut self, rt: Reg, rs: Reg, imm: i16) -> &mut Asm {
        self.alui(AluOp::Xor, rt, rs, imm)
    }
    pub fn slti(&mut self, rt: Reg, rs: Reg, imm: i16) -> &mut Asm {
        self.alui(AluOp::Slt, rt, rs, imm)
    }
    pub fn slli(&mut self, rt: Reg, rs: Reg, sh: i16) -> &mut Asm {
        self.alui(AluOp::Sll, rt, rs, sh)
    }
    pub fn srli(&mut self, rt: Reg, rs: Reg, sh: i16) -> &mut Asm {
        self.alui(AluOp::Srl, rt, rs, sh)
    }
    pub fn lui(&mut self, rt: Reg, imm: u16) -> &mut Asm {
        self.instr(Instr::Lui { rt, imm })
    }
    pub fn mul(&mut self, rd: Reg, rs: Reg, rt: Reg) -> &mut Asm {
        self.instr(Instr::Mul { rd, rs, rt })
    }
    pub fn div(&mut self, rd: Reg, rs: Reg, rt: Reg) -> &mut Asm {
        self.instr(Instr::Div { rd, rs, rt })
    }
    pub fn rem(&mut self, rd: Reg, rs: Reg, rt: Reg) -> &mut Asm {
        self.instr(Instr::Rem { rd, rs, rt })
    }

    // ----- floating point -----

    pub fn fp(&mut self, op: FpOp, fd: FReg, fs: FReg, ft: FReg) -> &mut Asm {
        self.instr(Instr::Fp { op, fd, fs, ft })
    }
    pub fn fadd_d(&mut self, fd: FReg, fs: FReg, ft: FReg) -> &mut Asm {
        self.fp(FpOp::AddD, fd, fs, ft)
    }
    pub fn fsub_d(&mut self, fd: FReg, fs: FReg, ft: FReg) -> &mut Asm {
        self.fp(FpOp::SubD, fd, fs, ft)
    }
    pub fn fmul_d(&mut self, fd: FReg, fs: FReg, ft: FReg) -> &mut Asm {
        self.fp(FpOp::MulD, fd, fs, ft)
    }
    pub fn fdiv_d(&mut self, fd: FReg, fs: FReg, ft: FReg) -> &mut Asm {
        self.fp(FpOp::DivD, fd, fs, ft)
    }
    pub fn fadd_s(&mut self, fd: FReg, fs: FReg, ft: FReg) -> &mut Asm {
        self.fp(FpOp::AddS, fd, fs, ft)
    }
    pub fn fmul_s(&mut self, fd: FReg, fs: FReg, ft: FReg) -> &mut Asm {
        self.fp(FpOp::MulS, fd, fs, ft)
    }
    pub fn fcmp(&mut self, cmp: FpCmp, rd: Reg, fs: FReg, ft: FReg) -> &mut Asm {
        self.instr(Instr::Fcmp { cmp, rd, fs, ft })
    }
    pub fn fmov(&mut self, fd: FReg, fs: FReg) -> &mut Asm {
        self.instr(Instr::Fmov { fd, fs })
    }
    pub fn cvt_if(&mut self, fd: FReg, rs: Reg) -> &mut Asm {
        self.instr(Instr::CvtIf { fd, rs })
    }
    pub fn cvt_fi(&mut self, rd: Reg, fs: FReg) -> &mut Asm {
        self.instr(Instr::CvtFi { rd, fs })
    }

    // ----- memory -----

    pub fn lb(&mut self, rt: Reg, base: Reg, off: i16) -> &mut Asm {
        self.instr(Instr::Lb { rt, base, off })
    }
    pub fn lbu(&mut self, rt: Reg, base: Reg, off: i16) -> &mut Asm {
        self.instr(Instr::Lbu { rt, base, off })
    }
    pub fn lw(&mut self, rt: Reg, base: Reg, off: i16) -> &mut Asm {
        self.instr(Instr::Lw { rt, base, off })
    }
    pub fn sb(&mut self, rt: Reg, base: Reg, off: i16) -> &mut Asm {
        self.instr(Instr::Sb { rt, base, off })
    }
    pub fn sw(&mut self, rt: Reg, base: Reg, off: i16) -> &mut Asm {
        self.instr(Instr::Sw { rt, base, off })
    }
    pub fn ll(&mut self, rt: Reg, base: Reg, off: i16) -> &mut Asm {
        self.instr(Instr::Ll { rt, base, off })
    }
    pub fn sc(&mut self, rt: Reg, base: Reg, off: i16) -> &mut Asm {
        self.instr(Instr::Sc { rt, base, off })
    }
    pub fn fls(&mut self, ft: FReg, base: Reg, off: i16) -> &mut Asm {
        self.instr(Instr::Fls { ft, base, off })
    }
    pub fn fss(&mut self, ft: FReg, base: Reg, off: i16) -> &mut Asm {
        self.instr(Instr::Fss { ft, base, off })
    }
    pub fn fld(&mut self, ft: FReg, base: Reg, off: i16) -> &mut Asm {
        self.instr(Instr::Fld { ft, base, off })
    }
    pub fn fsd(&mut self, ft: FReg, base: Reg, off: i16) -> &mut Asm {
        self.instr(Instr::Fsd { ft, base, off })
    }

    // ----- control flow -----

    fn branch(&mut self, cond: BranchCond, rs: Reg, rt: Reg, label: &str) -> &mut Asm {
        self.slots.push(Slot::BranchTo {
            cond,
            rs,
            rt,
            label: label.to_string(),
        });
        self
    }
    pub fn beq(&mut self, rs: Reg, rt: Reg, label: &str) -> &mut Asm {
        self.branch(BranchCond::Eq, rs, rt, label)
    }
    pub fn bne(&mut self, rs: Reg, rt: Reg, label: &str) -> &mut Asm {
        self.branch(BranchCond::Ne, rs, rt, label)
    }
    pub fn blt(&mut self, rs: Reg, rt: Reg, label: &str) -> &mut Asm {
        self.branch(BranchCond::Lt, rs, rt, label)
    }
    pub fn bge(&mut self, rs: Reg, rt: Reg, label: &str) -> &mut Asm {
        self.branch(BranchCond::Ge, rs, rt, label)
    }
    pub fn bltu(&mut self, rs: Reg, rt: Reg, label: &str) -> &mut Asm {
        self.branch(BranchCond::Ltu, rs, rt, label)
    }
    pub fn bgeu(&mut self, rs: Reg, rt: Reg, label: &str) -> &mut Asm {
        self.branch(BranchCond::Geu, rs, rt, label)
    }
    /// `beqz rs, label`.
    pub fn beqz(&mut self, rs: Reg, label: &str) -> &mut Asm {
        self.beq(rs, Reg::ZERO, label)
    }
    /// `bnez rs, label`.
    pub fn bnez(&mut self, rs: Reg, label: &str) -> &mut Asm {
        self.bne(rs, Reg::ZERO, label)
    }

    /// Unconditional jump to a label.
    pub fn j(&mut self, label: &str) -> &mut Asm {
        self.slots.push(Slot::JumpTo {
            link: false,
            label: label.to_string(),
        });
        self
    }
    /// Call a label (`jal`).
    pub fn jal(&mut self, label: &str) -> &mut Asm {
        self.slots.push(Slot::JumpTo {
            link: true,
            label: label.to_string(),
        });
        self
    }
    pub fn jr(&mut self, rs: Reg) -> &mut Asm {
        self.instr(Instr::Jr { rs })
    }
    pub fn jalr(&mut self, rd: Reg, rs: Reg) -> &mut Asm {
        self.instr(Instr::Jalr { rd, rs })
    }
    /// Return (`jr $ra`).
    pub fn ret(&mut self) -> &mut Asm {
        self.jr(Reg::RA)
    }

    // ----- misc -----

    pub fn sync(&mut self) -> &mut Asm {
        self.instr(Instr::Sync)
    }
    pub fn cpuid(&mut self, rd: Reg) -> &mut Asm {
        self.instr(Instr::Cpuid { rd })
    }
    pub fn hcall(&mut self, no: HcallNo) -> &mut Asm {
        self.instr(Instr::Hcall { no })
    }
    pub fn halt(&mut self) -> &mut Asm {
        self.instr(Instr::Halt)
    }
    pub fn nop(&mut self) -> &mut Asm {
        self.instr(Instr::Nop)
    }

    // ----- pseudo-instructions -----

    /// Loads a 32-bit constant (one or two instructions).
    pub fn li(&mut self, rt: Reg, value: i64) -> &mut Asm {
        let v = value as i32 as u32;
        if (-32768..=32767).contains(&value) {
            self.addi(rt, Reg::ZERO, value as i16)
        } else if v & 0xffff == 0 {
            self.lui(rt, (v >> 16) as u16)
        } else {
            self.lui(rt, (v >> 16) as u16);
            self.ori(rt, rt, (v & 0xffff) as u16 as i16)
        }
    }

    /// Loads the address of a label (always two instructions).
    pub fn la(&mut self, rt: Reg, label: &str) -> &mut Asm {
        self.slots.push(Slot::LaHi {
            rt,
            label: label.to_string(),
        });
        self.slots.push(Slot::LaLo {
            rt,
            label: label.to_string(),
        });
        self
    }

    /// Loads an absolute address constant.
    pub fn la_abs(&mut self, rt: Reg, addr: Addr) -> &mut Asm {
        self.li(rt, addr as i64)
    }

    /// `move rd, rs`.
    pub fn mv(&mut self, rd: Reg, rs: Reg) -> &mut Asm {
        self.add(rd, rs, Reg::ZERO)
    }

    /// Finalizes the program, resolving label references.
    ///
    /// # Errors
    ///
    /// Returns an error for duplicate or undefined labels, out-of-range
    /// branches, or an unaligned base address.
    pub fn assemble(&self) -> Result<Program, AsmError> {
        if !self.base.is_multiple_of(INSTR_BYTES) {
            return Err(AsmError::UnalignedBase(self.base));
        }
        if let Some(dup) = &self.duplicate {
            return Err(AsmError::DuplicateLabel(dup.clone()));
        }
        let lookup = |label: &str| -> Result<u32, AsmError> {
            self.labels
                .get(label)
                .copied()
                .ok_or_else(|| AsmError::UndefinedLabel(label.to_string()))
        };
        let mut words = Vec::with_capacity(self.slots.len());
        for (idx, slot) in self.slots.iter().enumerate() {
            let word = match slot {
                Slot::Done(i) => encode(i),
                Slot::Raw(w) => *w,
                Slot::BranchTo {
                    cond,
                    rs,
                    rt,
                    label,
                } => {
                    let target = lookup(label)?;
                    let distance = i64::from(target) - (idx as i64 + 1);
                    let off = i16::try_from(distance).map_err(|_| AsmError::BranchOutOfRange {
                        label: label.clone(),
                        distance,
                    })?;
                    encode(&Instr::Branch {
                        cond: *cond,
                        rs: *rs,
                        rt: *rt,
                        off,
                    })
                }
                Slot::JumpTo { link, label } => {
                    let target_word = (self.base / INSTR_BYTES) + lookup(label)?;
                    if *link {
                        encode(&Instr::Jal {
                            target: target_word,
                        })
                    } else {
                        encode(&Instr::J {
                            target: target_word,
                        })
                    }
                }
                Slot::LaHi { rt, label } => {
                    let addr = self.base + lookup(label)? * INSTR_BYTES;
                    encode(&Instr::Lui {
                        rt: *rt,
                        imm: (addr >> 16) as u16,
                    })
                }
                Slot::LaLo { rt, label } => {
                    let addr = self.base + lookup(label)? * INSTR_BYTES;
                    encode(&Instr::AluI {
                        op: AluOp::Or,
                        rt: *rt,
                        rs: *rt,
                        imm: (addr & 0xffff) as u16 as i16,
                    })
                }
            };
            words.push(word);
        }
        let symbols = self
            .labels
            .iter()
            .map(|(name, &idx)| (name.clone(), self.base + idx * INSTR_BYTES))
            .collect();
        Ok(Program {
            base: self.base,
            words,
            symbols,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decode;

    #[test]
    fn forward_and_backward_branches_resolve() {
        let mut a = Asm::new(0);
        a.label("top");
        a.addi(Reg::T0, Reg::T0, 1);
        a.beq(Reg::T0, Reg::T1, "done"); // forward
        a.bne(Reg::T0, Reg::T1, "top"); // backward
        a.label("done");
        a.halt();
        let p = a.assemble().unwrap();
        // beq is at word 1; "done" at word 3; offset = 3 - 2 = 1.
        match decode(p.words[1]).unwrap() {
            Instr::Branch { off, .. } => assert_eq!(off, 1),
            other => panic!("{other}"),
        }
        // bne at word 2; "top" at 0; offset = 0 - 3 = -3.
        match decode(p.words[2]).unwrap() {
            Instr::Branch { off, .. } => assert_eq!(off, -3),
            other => panic!("{other}"),
        }
    }

    #[test]
    fn jump_targets_are_absolute_words() {
        let mut a = Asm::new(0x1000);
        a.j("end");
        a.label("end");
        a.halt();
        let p = a.assemble().unwrap();
        match decode(p.words[0]).unwrap() {
            Instr::J { target } => assert_eq!(target, (0x1000 / 4) + 1),
            other => panic!("{other}"),
        }
        assert_eq!(p.addr_of("end"), Some(0x1004));
    }

    #[test]
    fn la_materializes_full_address() {
        let mut a = Asm::new(0x0012_0000);
        a.la(Reg::T0, "data");
        a.halt();
        a.label("data");
        a.word(0xdeadbeef);
        let p = a.assemble().unwrap();
        let data_addr = p.addr_of("data").unwrap();
        match decode(p.words[0]).unwrap() {
            Instr::Lui { imm, .. } => assert_eq!(u32::from(imm), data_addr >> 16),
            other => panic!("{other}"),
        }
        match decode(p.words[1]).unwrap() {
            Instr::AluI {
                op: AluOp::Or, imm, ..
            } => {
                assert_eq!((imm as u16) as u32, data_addr & 0xffff)
            }
            other => panic!("{other}"),
        }
        assert_eq!(p.words[3], 0xdeadbeef);
    }

    #[test]
    fn li_small_and_large() {
        let mut a = Asm::new(0);
        a.li(Reg::T0, 5); // 1 instr
        a.li(Reg::T1, -5); // 1 instr
        a.li(Reg::T2, 0x12345678); // 2 instrs
        a.li(Reg::T3, 0x70000); // lui only would not work (0x7_0000 low 16 = 0)
        let p = a.assemble().unwrap();
        assert_eq!(p.words.len(), 1 + 1 + 2 + 1);
    }

    #[test]
    fn undefined_label_is_an_error() {
        let mut a = Asm::new(0);
        a.j("nowhere");
        assert_eq!(
            a.assemble().unwrap_err(),
            AsmError::UndefinedLabel("nowhere".into())
        );
    }

    #[test]
    fn duplicate_label_is_an_error() {
        let mut a = Asm::new(0);
        a.label("x");
        a.nop();
        a.label("x");
        assert_eq!(
            a.assemble().unwrap_err(),
            AsmError::DuplicateLabel("x".into())
        );
    }

    #[test]
    fn unaligned_base_is_an_error() {
        let a = Asm::new(2);
        assert_eq!(a.assemble().unwrap_err(), AsmError::UnalignedBase(2));
    }

    #[test]
    fn branch_out_of_range_detected() {
        let mut a = Asm::new(0);
        a.label("top");
        for _ in 0..40_000 {
            a.nop();
        }
        a.beq(Reg::T0, Reg::T1, "top");
        match a.assemble().unwrap_err() {
            AsmError::BranchOutOfRange { label, .. } => assert_eq!(label, "top"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn here_tracks_position() {
        let mut a = Asm::new(0x100);
        assert_eq!(a.here(), 0x100);
        a.nop();
        a.nop();
        assert_eq!(a.here(), 0x108);
        assert_eq!(a.len(), 2);
        assert!(!a.is_empty());
    }
}
