//! Host-speed calibration.
//!
//! On a shared host the same pass can take 1.5× longer from one minute to
//! the next, and the slowdowns come from outside the virtual machine's
//! view: loading its other vCPU does not reproduce them. A fixed kernel
//! that is not simulator code, but the same kind of code (a tiny bytecode
//! interpreter: branchy dispatch, loads and stores into a 256 KiB
//! memory), is timed between cases (between searches for
//! `explore-replay`), and each case's times are scaled by
//! `CAL_REF_S ÷ the mean of the kernel times on either side`. On the
//! shared 2-vCPU virtual machine this benchmark was built on, with the
//! kernel run next to every case, that cut the spread of 10-second
//! medians of Mipsy and MXS runs from 11–12% to under 1%; a random-access
//! table kernel tracked the simulator less well.
//!
//! Calibrated seconds are host seconds on a machine where the kernel
//! takes [`CAL_REF_S`]; the raw wall times are reported beside them.

use std::hint::black_box;
use std::time::Instant;

/// Kernel time that calibrated seconds are expressed against (about its
/// time on the shared 2-vCPU virtual machine this benchmark was built
/// on).
pub const CAL_REF_S: f64 = 0.006;

const PROGRAM_WORDS: usize = 1024;
const MEMORY_WORDS: usize = 1 << 16;
const STEPS: usize = 4_000_000;

/// The calibration kernel: a fixed pseudo-random program and the
/// interpreter's memory.
#[derive(Debug)]
pub struct Calibrator {
    program: Vec<u32>,
    memory: Vec<u32>,
}

impl Default for Calibrator {
    fn default() -> Calibrator {
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        let program = (0..PROGRAM_WORDS)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u32
            })
            .collect();
        Calibrator {
            program,
            memory: vec![0; MEMORY_WORDS],
        }
    }
}

impl Calibrator {
    /// Runs the kernel once on the calling thread, whose core is the one
    /// the timed work ran on; returns its wall time in seconds.
    pub fn measure(&mut self) -> f64 {
        interpret(&self.program, &mut self.memory)
    }
}

/// Interprets `program` for [`STEPS`] instructions; returns the wall
/// time in seconds.
fn interpret(program: &[u32], mem: &mut [u32]) -> f64 {
    let start = Instant::now();
    let (program, mem) = (black_box(program), black_box(mem));
    let mask = MEMORY_WORDS - 1;
    let mut regs = [1u32; 16];
    let mut pc = 0;
    for _ in 0..STEPS {
        let ins = program[pc];
        let (a, b, imm) = (
            (ins >> 24 & 15) as usize,
            (ins >> 20 & 15) as usize,
            ins & 0xf_ffff,
        );
        pc = (pc + 1) & (PROGRAM_WORDS - 1);
        match ins >> 28 {
            0 => regs[a] = regs[a].wrapping_add(regs[b]),
            1 => regs[a] = regs[b] ^ imm,
            2 => regs[a] = mem[regs[b].wrapping_add(imm) as usize & mask],
            3 => mem[regs[b].wrapping_add(imm) as usize & mask] = regs[a],
            4 => {
                if regs[a] & 1 == 0 {
                    pc = imm as usize & (PROGRAM_WORDS - 1);
                }
            }
            5 => regs[a] = regs[a].rotate_left(imm & 31).wrapping_mul(0x9E37_79B1),
            6 => regs[a] = regs[a].wrapping_sub(regs[b] >> 3),
            _ => regs[a] = regs[b].wrapping_mul(regs[a] | 1),
        }
    }
    black_box(regs);
    start.elapsed().as_secs_f64()
}

/// The factor that turns wall seconds measured between two kernel runs
/// into calibrated seconds.
pub fn factor(before_s: f64, after_s: f64) -> f64 {
    CAL_REF_S / ((before_s + after_s) / 2.0)
}
