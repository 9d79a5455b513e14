//! The MXS CPU model: a 2-way-issue dynamically scheduled superscalar.
//!
//! Reimplements the documented microarchitecture of the paper's detailed
//! simulator (Bennett's MXS): a decoupled fetch/execute/graduate pipeline
//! with a 32-entry centralized instruction window, a 32-entry reorder buffer
//! for precise state, register renaming over physical register files,
//! speculative execution past branches predicted by a 1024-entry BTB, and a
//! non-blocking data cache supporting four outstanding misses. Functional
//! units follow Table 1 with two copies of every unit except the single
//! memory data port.
//!
//! Speculation safety: instructions compute into *renamed physical
//! registers* at execute, so wrong-path results never touch architectural
//! state; stores buffer their data in the reorder buffer and only write
//! memory at graduation, in program order. Loads read memory speculatively
//! at execute (after disambiguating against older stores in the window, with
//! exact-match forwarding). `SYNC` is a full fence: younger memory
//! operations do not issue until it graduates and the write buffer drains —
//! the synchronization runtime relies on this, exactly as MIPS code relies
//! on `sync`.
//!
//! Issue walks an age-ordered queue of the un-issued instructions rather
//! than the whole window. Each queued instruction remembers what it waits
//! for (a producer, a cycle, older stores, a fence), and the walk is skipped
//! on cycles before anything can issue; DESIGN.md §6 lists the events that
//! wake it, which is the argument that this issues exactly what a scan of
//! the whole window would.

use crate::arch::ArchState;
use crate::btb::Btb;
use crate::counters::CpuCounters;
use crate::func::{
    effective_addr, eval_alu, eval_alui, eval_branch, eval_cvt_fi, eval_cvt_if, eval_fcmp, eval_fp,
};
use crate::{CpuModel, FuLatencies, StepEvent, WRITE_BUFFER_ENTRIES};
use cmpsim_engine::Cycle;
use cmpsim_isa::{FuClass, Instr, Reg};
use cmpsim_mem::{
    AddrSpace, ConfigError, CpuId, MemRequest, MemorySystem, PhysMem, WriteBuffer, LINE_BYTES,
};
use std::collections::VecDeque;

/// The sizes of the MXS core that ablations and the explorer vary;
/// defaults follow the paper (§2.1).
///
/// Everything else the paper fixes is a constant of the core (DESIGN.md
/// §6): it graduates 2 instructions per cycle, has 2 copies of every
/// functional unit but the single memory port, drains stores through the
/// same 4-entry write buffer as Mipsy, runs the Table 1 latencies
/// ([`FuLatencies::table1`]), and holds `32 + rob_entries` physical
/// registers per file, which is enough that rename never stalls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MxsConfig {
    /// Instructions fetched per cycle.
    pub fetch_width: usize,
    /// Instructions issued to functional units per cycle.
    pub issue_width: usize,
    /// Reorder-buffer (= instruction window) entries.
    pub rob_entries: usize,
    /// Maximum outstanding load misses (non-blocking cache MSHRs).
    pub mshrs: usize,
    /// Branch-target-buffer entries.
    pub btb_entries: usize,
}

impl MxsConfig {
    /// Validates the configuration, returning a typed error instead of
    /// panicking. A configuration that passes builds a core that runs.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::Zero`] for a zero fetch width, issue width,
    /// window or MSHR count (the core would fetch, issue, hold or miss
    /// nothing and spin until the cycle budget ends the run),
    /// [`ConfigError::NotPowerOfTwo`] for a BTB size that is not a power
    /// of two, and [`ConfigError::OutOfRange`] for a fetch width past the
    /// 8-entry fetch buffer, a window whose `32 + rob_entries` registers
    /// outgrow the 16-bit register indices, or a BTB above 65536 entries.
    pub fn validate(&self) -> Result<(), ConfigError> {
        for (value, what) in [
            (self.fetch_width, "MXS fetch width"),
            (self.issue_width, "MXS issue width"),
            (self.rob_entries, "MXS reorder window"),
            (self.mshrs, "MXS MSHR count"),
        ] {
            if value == 0 {
                return Err(ConfigError::Zero { what });
            }
        }
        if !self.btb_entries.is_power_of_two() {
            return Err(ConfigError::NotPowerOfTwo {
                what: "BTB size",
                value: self.btb_entries as u64,
            });
        }
        for (value, max, what) in [
            (self.fetch_width, FBUF_CAP, "MXS fetch width"),
            (self.rob_entries, MAX_ROB_ENTRIES, "MXS reorder window"),
            (self.btb_entries, MAX_BTB_ENTRIES, "BTB size"),
        ] {
            if value > max {
                return Err(ConfigError::OutOfRange { what, value, max });
            }
        }
        Ok(())
    }

    /// Physical registers per file: the 32 architectural mappings plus one
    /// per window entry, since each in-flight instruction renames at most
    /// one register per file. Rename can therefore never run out.
    fn phys_regs(&self) -> usize {
        ARCH_REGS + self.rob_entries
    }
}

impl Default for MxsConfig {
    fn default() -> Self {
        MxsConfig {
            fetch_width: 2,
            issue_width: 2,
            rob_entries: 32,
            mshrs: 4,
            btb_entries: 1024,
        }
    }
}

/// Architectural registers per file.
const ARCH_REGS: usize = 32;

/// Largest window: its `32 + rob_entries` registers per file must fit the
/// `u16` register indices.
const MAX_ROB_ENTRIES: usize = (1 << 16) - ARCH_REGS;

/// Largest BTB: a sanity ceiling, 64 times the paper's 1024 entries.
const MAX_BTB_ENTRIES: usize = 1 << 16;

/// Instructions graduated per cycle.
const GRADUATE_WIDTH: u64 = 2;

/// Copies of each functional unit (except the single memory port).
const FU_PER_CLASS: usize = 2;

/// Functional-unit latencies: Table 1.
const FU: FuLatencies = FuLatencies::table1();

/// Buffered store data awaiting graduation.
#[derive(Debug, Clone, Copy, PartialEq)]
enum StoreVal {
    W8(u8),
    W32(u32),
    F32(f32),
    F64(f64),
}

impl StoreVal {
    fn bytes(self) -> u32 {
        match self {
            StoreVal::W8(_) => 1,
            StoreVal::W32(_) | StoreVal::F32(_) => 4,
            StoreVal::F64(_) => 8,
        }
    }
}

/// A renamed destination: the architectural register, the physical
/// register allocated for it, and the mapping it replaced (the undo record
/// a squash restores).
#[derive(Debug, Clone, Copy)]
struct Def {
    arch: u8,
    new: u16,
    old: u16,
}

/// A fetched, renamed, in-flight instruction.
#[derive(Debug)]
struct RobEntry {
    pc: u32,
    instr: Instr,
    /// `instr.fu_class()`, cached at dispatch.
    class: FuClass,
    /// The pc fetch assumed would follow this instruction.
    predicted_next: u32,
    int_def: Option<Def>,
    fp_def: Option<Def>,
    int_srcs: [Option<u16>; 2],
    fp_srcs: [Option<u16>; 2],
    issued: bool,
    done_at: Cycle,
    mispredicted: bool,
    mem_paddr: Option<u32>,
    store_val: Option<StoreVal>,
    is_sc: bool,
    /// Load that missed the L1 (blame graduation stalls on the data cache).
    dcache_blame: bool,
}

/// A physical register of either file.
#[derive(Debug, Clone, Copy)]
enum PReg {
    Int(u16),
    Fp(u16),
}

/// An issue-queue slot: a dispatched instruction that has not issued.
#[derive(Debug, Clone, Copy)]
struct Waiting {
    /// Sequence number of its ROB entry.
    seq: u64,
    /// A source whose ready cycle is still unknown: its producer has not
    /// issued (or is an `LL`/`SC`, whose result is ready at graduation).
    wait: Option<PReg>,
    /// Cycle by which every source is ready; meaningful once `wait` is
    /// `None`.
    ready_at: Cycle,
    /// For a load: the store epoch at which disambiguation against older
    /// stores last failed.
    store_blocked: Option<u64>,
}

/// Why a load that passed the issue checks could not execute.
#[derive(Debug, Clone, Copy)]
enum Blocked {
    /// An older store has no address yet, or overlaps without an exact
    /// match.
    Store,
    /// Every MSHR holds another line's miss.
    Mshrs,
}

/// A fetched instruction waiting for rename (the fetch buffer).
#[derive(Debug, Clone, Copy)]
struct Fetched {
    pc: u32,
    instr: Instr,
    predicted_next: u32,
    avail_at: Cycle,
    was_icache_miss: bool,
}

/// The detailed dynamic superscalar CPU model.
#[derive(Debug)]
pub struct MxsCpu {
    cpu: CpuId,
    cfg: MxsConfig,
    space: AddrSpace,
    arch: ArchState,
    halted: bool,

    int_preg: Vec<u32>,
    int_ready: Vec<Cycle>,
    fp_preg: Vec<f64>,
    fp_ready: Vec<Cycle>,
    front_int: [u16; 32],
    front_fp: [u16; 32],
    retire_int: [u16; 32],
    retire_fp: [u16; 32],
    int_free: Vec<u16>,
    fp_free: Vec<u16>,

    rob: VecDeque<RobEntry>,
    /// Sequence number of `rob[0]`: entry `i` is number `rob_base + i`.
    rob_base: u64,
    /// The un-issued instructions, oldest first.
    iq: Vec<Waiting>,
    /// No queued instruction can issue before this cycle, so the issue
    /// walk is skipped until then (or until an event lowers it).
    issue_wake: Cycle,
    /// Counts store issues and graduations: the only events that change
    /// the outcome of a load's disambiguation against older stores.
    store_epoch: u64,
    /// `SYNC`s in the window.
    syncs: usize,
    fetch_pc: u32,
    fetch_resume_at: Cycle,
    fetch_stopped: bool,
    fbuf: VecDeque<Fetched>,
    btb: Btb,
    wbuf: WriteBuffer,
    /// Outstanding load misses: (line address, completion).
    outstanding: Vec<(u32, Cycle)>,
    /// Fetch line buffer: the last I-cache line delivered. Consecutive
    /// fetch groups within one line are served from this buffer without
    /// re-accessing the cache (loop bodies and spin loops re-fetch the same
    /// line every cycle; a real fetch unit holds it in a line register).
    fetch_line: Option<u32>,
    counters: CpuCounters,
}

/// Fetch-buffer capacity in instructions (a few groups in flight keeps the
/// 3-cycle shared-L1 fetch path fully pipelined).
const FBUF_CAP: usize = 8;

impl MxsCpu {
    /// Creates an MXS CPU with id `cpu` starting at `pc` in `space`.
    pub fn new(cpu: CpuId, pc: u32, space: AddrSpace) -> MxsCpu {
        MxsCpu::with_config(cpu, pc, space, MxsConfig::default())
    }

    /// Creates an MXS CPU with a custom configuration.
    ///
    /// # Panics
    ///
    /// Panics on a configuration [`MxsConfig::validate`] rejects. Use
    /// [`MxsCpu::try_with_config`] to reject bad configurations without
    /// unwinding.
    pub fn with_config(cpu: CpuId, pc: u32, space: AddrSpace, cfg: MxsConfig) -> MxsCpu {
        MxsCpu::try_with_config(cpu, pc, space, cfg).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible constructor: validates `cfg` (see [`MxsConfig::validate`])
    /// before building the core.
    pub fn try_with_config(
        cpu: CpuId,
        pc: u32,
        space: AddrSpace,
        cfg: MxsConfig,
    ) -> Result<MxsCpu, ConfigError> {
        cfg.validate()?;
        let phys_regs = cfg.phys_regs();
        let mut m = MxsCpu {
            cpu,
            cfg,
            space,
            arch: ArchState::new(pc),
            halted: false,
            int_preg: vec![0; phys_regs],
            int_ready: vec![Cycle::ZERO; phys_regs],
            fp_preg: vec![0.0; phys_regs],
            fp_ready: vec![Cycle::ZERO; phys_regs],
            front_int: [0; 32],
            front_fp: [0; 32],
            retire_int: [0; 32],
            retire_fp: [0; 32],
            int_free: Vec::with_capacity(phys_regs),
            fp_free: Vec::with_capacity(phys_regs),
            rob: VecDeque::with_capacity(cfg.rob_entries),
            rob_base: 0,
            iq: Vec::with_capacity(cfg.rob_entries),
            issue_wake: Cycle::ZERO,
            store_epoch: 0,
            syncs: 0,
            fetch_pc: pc,
            fetch_resume_at: Cycle::ZERO,
            fetch_stopped: false,
            fbuf: VecDeque::with_capacity(FBUF_CAP),
            btb: Btb::new(cfg.btb_entries),
            wbuf: WriteBuffer::new(WRITE_BUFFER_ENTRIES),
            outstanding: Vec::new(),
            fetch_line: None,
            counters: CpuCounters::new(),
        };
        m.reset_pipeline();
        Ok(m)
    }

    /// Rebuilds all speculative state from the committed `arch` state.
    fn reset_pipeline(&mut self) {
        for r in 0..32 {
            self.front_int[r] = r as u16;
            self.front_fp[r] = r as u16;
            self.retire_int[r] = r as u16;
            self.retire_fp[r] = r as u16;
            self.int_preg[r] = self.arch.gpr(Reg::new(r as u8));
            self.fp_preg[r] = self.arch.fpr(cmpsim_isa::FReg::new(r as u8));
            self.int_ready[r] = Cycle::ZERO;
            self.fp_ready[r] = Cycle::ZERO;
        }
        // Refilled in place: this runs on every hcall graduation.
        let free = (ARCH_REGS..self.cfg.phys_regs()).map(|p| p as u16);
        self.int_free.clear();
        self.int_free.extend(free.clone());
        self.fp_free.clear();
        self.fp_free.extend(free);
        self.rob.clear();
        self.iq.clear();
        self.issue_wake = Cycle::ZERO;
        self.syncs = 0;
        self.fbuf.clear();
        self.fetch_pc = self.arch.pc;
        self.fetch_stopped = false;
        self.outstanding.clear();
        self.fetch_line = None;
    }

    /// Copies the committed register state into `arch` (pc set by caller).
    fn sync_arch(&mut self) {
        for r in 1..32u8 {
            self.arch.set_gpr(
                Reg::new(r),
                self.int_preg[usize::from(self.retire_int[r as usize])],
            );
        }
        for r in 0..32u8 {
            self.arch.set_fpr(
                cmpsim_isa::FReg::new(r),
                self.fp_preg[usize::from(self.retire_fp[r as usize])],
            );
        }
    }

    /// Squashes every ROB entry younger than index `keep` (exclusive),
    /// restoring the front rename maps by walking the undo records in
    /// reverse order.
    fn squash_after(&mut self, keep: usize) {
        while self.rob.len() > keep + 1 {
            let e = self.rob.pop_back().expect("len checked");
            if let Some(d) = e.int_def {
                self.front_int[usize::from(d.arch)] = d.old;
                self.int_free.push(d.new);
            }
            if let Some(d) = e.fp_def {
                self.front_fp[usize::from(d.arch)] = d.old;
                self.fp_free.push(d.new);
            }
            if matches!(e.instr, Instr::Sync) {
                self.syncs -= 1;
            }
        }
        let last = self.rob_base + keep as u64;
        while self.iq.last().is_some_and(|w| w.seq > last) {
            self.iq.pop();
        }
        self.fbuf.clear();
    }

    /// The first source of `e` whose ready cycle is unknown, or else the
    /// cycle by which all its sources are ready.
    fn source_wait(&self, e: &RobEntry) -> (Option<PReg>, Cycle) {
        let mut ready_at = Cycle::ZERO;
        for &p in e.int_srcs.iter().flatten() {
            let r = self.int_ready[usize::from(p)];
            if r == Cycle::MAX {
                return (Some(PReg::Int(p)), ready_at);
            }
            ready_at = ready_at.max(r);
        }
        for &p in e.fp_srcs.iter().flatten() {
            let r = self.fp_ready[usize::from(p)];
            if r == Cycle::MAX {
                return (Some(PReg::Fp(p)), ready_at);
            }
            ready_at = ready_at.max(r);
        }
        (None, ready_at)
    }

    /// Whether `p`'s ready cycle is still unknown.
    fn unknown(&self, p: PReg) -> bool {
        match p {
            PReg::Int(i) => self.int_ready[usize::from(i)] == Cycle::MAX,
            PReg::Fp(i) => self.fp_ready[usize::from(i)] == Cycle::MAX,
        }
    }

    fn write_int(&mut self, def: Option<Def>, value: u32, ready: Cycle) {
        if let Some(d) = def {
            self.int_preg[usize::from(d.new)] = value;
            self.int_ready[usize::from(d.new)] = ready;
        }
    }

    fn write_fp(&mut self, def: Option<Def>, value: f64, ready: Cycle) {
        if let Some(d) = def {
            self.fp_preg[usize::from(d.new)] = value;
            self.fp_ready[usize::from(d.new)] = ready;
        }
    }

    fn ival(&self, src: Option<u16>) -> u32 {
        src.map_or(0, |p| self.int_preg[usize::from(p)])
    }

    fn fval(&self, src: Option<u16>) -> f64 {
        src.map_or(0.0, |p| self.fp_preg[usize::from(p)])
    }

    // ------------------------------------------------------------------
    // Graduate stage
    // ------------------------------------------------------------------

    fn graduate<M: MemorySystem + ?Sized>(
        &mut self,
        now: Cycle,
        mem: &mut M,
        phys: &mut PhysMem,
    ) -> Option<StepEvent> {
        let width = GRADUATE_WIDTH;
        let mut grads: u64 = 0;
        let mut event = None;

        while grads < width {
            let Some(head) = self.rob.front() else {
                // Empty window: blame the front end.
                let icache = self
                    .fbuf
                    .front()
                    .is_some_and(|f| f.avail_at > now && f.was_icache_miss);
                if icache {
                    self.counters.slots_icache += width - grads;
                } else {
                    self.counters.slots_pipeline += width - grads;
                }
                return event;
            };
            if head.done_at > now {
                if head.instr.is_load() && head.dcache_blame {
                    self.counters.slots_dcache += width - grads;
                } else {
                    self.counters.slots_pipeline += width - grads;
                }
                return event;
            }

            // Effects that happen at graduation.
            if head.instr.is_store() {
                let paddr = head.mem_paddr.expect("store executed");
                if head.is_sc {
                    // The write-buffer check must precede *every* effect:
                    // consuming the link or publishing the success flag and
                    // then aborting graduation would let dependents observe
                    // a success whose store never happened (a lost update).
                    if self.wbuf.is_full(now) {
                        self.counters.slots_dcache += width - grads;
                        return event;
                    }
                    let ok = phys.check_and_clear_link(self.cpu, paddr);
                    let def = self.rob.front().expect("head exists").int_def;
                    self.write_int(def, u32::from(ok), now);
                    if ok {
                        let val = self.rob.front().expect("head").store_val.expect("sc value");
                        Self::apply_store(phys, paddr, val);
                        let res = mem.access(now, MemRequest::store(self.cpu, paddr));
                        self.wbuf.push(now, res.finish);
                    } else {
                        self.counters.sc_failures += 1;
                    }
                } else {
                    if self.wbuf.is_full(now) {
                        self.counters.slots_dcache += width - grads;
                        return event;
                    }
                    let val = head.store_val.expect("store executed");
                    Self::apply_store(phys, paddr, val);
                    let res = mem.access(now, MemRequest::store(self.cpu, paddr));
                    self.wbuf.push(now, res.finish);
                }
                self.counters.stores += 1;
            } else if matches!(head.instr, Instr::Sync) {
                if self.wbuf.drain_time(now) > now {
                    self.counters.slots_dcache += width - grads;
                    return event;
                }
            } else if head.instr.is_load() {
                if matches!(head.instr, Instr::Ll { .. }) {
                    // LL is architectural: read the value and arm the
                    // reservation atomically, in program order. Every older
                    // store (own or remote) has already reached memory.
                    let pa = head.mem_paddr.expect("LL executed");
                    phys.set_link(self.cpu, pa);
                    let value = phys.read_u32(pa);
                    let def = head.int_def;
                    self.write_int(def, value, now);
                }
                self.counters.loads += 1;
            }

            let head = self.rob.pop_front().expect("head exists");
            self.rob_base += 1;
            // Graduations that can make a queued instruction issuable this
            // very cycle (issue runs after graduate): an `LL`/`SC` result,
            // a store leaving the window, or a fence lifting.
            if head.instr.is_store() {
                self.store_epoch += 1;
                self.issue_wake = self.issue_wake.min(now);
            } else if matches!(head.instr, Instr::Sync) {
                self.syncs -= 1;
                self.issue_wake = self.issue_wake.min(now);
            } else if matches!(head.instr, Instr::Ll { .. }) {
                self.issue_wake = self.issue_wake.min(now);
            }
            if head.instr.is_control() && !head.instr.is_direct_jump() {
                self.counters.branches += 1;
                if head.mispredicted {
                    self.counters.mispredicts += 1;
                }
            }
            if let Some(d) = head.int_def {
                self.retire_int[usize::from(d.arch)] = d.new;
                self.int_free.push(d.old);
            }
            if let Some(d) = head.fp_def {
                self.retire_fp[usize::from(d.arch)] = d.new;
                self.fp_free.push(d.old);
            }
            self.counters.instructions += 1;
            grads += 1;

            match head.instr {
                Instr::Halt => {
                    self.sync_arch();
                    self.arch.pc = head.pc;
                    self.halted = true;
                    self.counters.slots_pipeline += width - grads;
                    return Some(StepEvent::Halted);
                }
                Instr::Hcall { no } => {
                    self.sync_arch();
                    self.arch.pc = head.pc.wrapping_add(4);
                    self.reset_pipeline();
                    self.fetch_resume_at = now + 1;
                    self.counters.slots_pipeline += width - grads;
                    event = Some(StepEvent::Hcall(no));
                    return event;
                }
                _ => {}
            }
        }
        event
    }

    fn apply_store(phys: &mut PhysMem, paddr: u32, val: StoreVal) {
        phys.snoop_store(paddr);
        match val {
            StoreVal::W8(b) => phys.write_u8(paddr, b),
            StoreVal::W32(w) => phys.write_u32(paddr, w),
            StoreVal::F32(f) => phys.write_f32(paddr, f),
            StoreVal::F64(f) => phys.write_f64(paddr, f),
        }
    }

    // ------------------------------------------------------------------
    // Issue / execute stage
    // ------------------------------------------------------------------

    /// Issues up to `issue_width` ready instructions, oldest first.
    ///
    /// Walks the issue queue, not the window. An instruction passed over
    /// either lowers the next walk's `issue_wake` (a known ready cycle, or a
    /// per-cycle resource to retry next cycle) or records the event it
    /// waits for: a producer's result, a store issuing or graduating, a
    /// `SYNC` graduating. Those events lower `issue_wake` where they happen.
    fn issue<M: MemorySystem + ?Sized>(&mut self, now: Cycle, mem: &mut M, phys: &mut PhysMem) {
        if now < self.issue_wake {
            return;
        }
        self.outstanding.retain(|&(_, f)| f > now);
        let mut wake = Cycle::MAX;
        let mut issued = 0usize;
        let mut mem_port_used = false;
        let mut class_counts = [0usize; 12];
        // Index of the oldest un-graduated SYNC; younger memory operations
        // must not issue past it (full-fence semantics).
        let fence_idx = if self.syncs == 0 {
            None
        } else {
            self.rob.iter().position(|e| matches!(e.instr, Instr::Sync))
        };

        let mut q = 0;
        while q < self.iq.len() {
            if issued >= self.cfg.issue_width {
                wake = now + 1;
                break;
            }
            let mut w = self.iq[q];
            let idx = (w.seq - self.rob_base) as usize;
            if let Some(p) = w.wait {
                if self.unknown(p) {
                    q += 1;
                    continue;
                }
                (w.wait, w.ready_at) = self.source_wait(&self.rob[idx]);
                self.iq[q] = w;
                if w.wait.is_some() {
                    q += 1;
                    continue;
                }
            }
            if w.ready_at > now {
                wake = wake.min(w.ready_at);
                q += 1;
                continue;
            }
            let class = self.rob[idx].class;
            let is_mem = matches!(class, FuClass::Load | FuClass::Store);
            if is_mem {
                if mem_port_used {
                    wake = now + 1;
                    q += 1;
                    continue;
                }
                if fence_idx.is_some_and(|f| f < idx) {
                    q += 1;
                    continue;
                }
                if w.store_blocked == Some(self.store_epoch) {
                    q += 1;
                    continue;
                }
            } else if class_counts[class_index(class)] >= FU_PER_CLASS {
                wake = now + 1;
                q += 1;
                continue;
            }

            match self.execute_at(idx, now, mem, phys) {
                Err(Blocked::Store) => {
                    self.iq[q].store_blocked = Some(self.store_epoch);
                    q += 1;
                }
                Err(Blocked::Mshrs) => {
                    // Another CPU's access can turn this load into an L1
                    // hit at any cycle: retry every cycle.
                    wake = now + 1;
                    q += 1;
                }
                Ok(()) => {
                    self.iq.remove(q);
                    issued += 1;
                    if is_mem {
                        mem_port_used = true;
                    } else {
                        class_counts[class_index(class)] += 1;
                    }
                    if self.rob[idx].mispredicted {
                        // Squash redirects fetch; nothing younger remains.
                        break;
                    }
                }
            }
        }
        self.issue_wake = wake;
    }

    /// Executes the instruction in ROB slot `idx`, or reports why a load
    /// could not issue after all (memory structural hazards).
    fn execute_at<M: MemorySystem + ?Sized>(
        &mut self,
        idx: usize,
        now: Cycle,
        mem: &mut M,
        phys: &mut PhysMem,
    ) -> Result<(), Blocked> {
        let e = &self.rob[idx];
        let (instr, pc, class) = (e.instr, e.pc, e.class);
        let (int_srcs, fp_srcs) = (e.int_srcs, e.fp_srcs);
        let (int_def, fp_def) = (e.int_def, e.fp_def);
        let next = pc.wrapping_add(4);
        let mut done = now + FU.of(class);
        let mut actual_next = next;

        use Instr::*;
        match instr {
            Alu { op, .. } => {
                let v = eval_alu(op, self.ival(int_srcs[0]), self.ival(int_srcs[1]));
                self.write_int(int_def, v, done);
            }
            AluI { op, imm, .. } => {
                let v = eval_alui(op, self.ival(int_srcs[0]), imm);
                self.write_int(int_def, v, done);
            }
            Lui { imm, .. } => self.write_int(int_def, u32::from(imm) << 16, done),
            Mul { .. } => {
                let v = self.ival(int_srcs[0]).wrapping_mul(self.ival(int_srcs[1]));
                self.write_int(int_def, v, done);
            }
            Div { .. } => {
                let (a, b) = (self.ival(int_srcs[0]) as i32, self.ival(int_srcs[1]) as i32);
                let v = if b == 0 { 0 } else { a.wrapping_div(b) as u32 };
                self.write_int(int_def, v, done);
            }
            Rem { .. } => {
                let (a, b) = (self.ival(int_srcs[0]) as i32, self.ival(int_srcs[1]) as i32);
                let v = if b == 0 { 0 } else { a.wrapping_rem(b) as u32 };
                self.write_int(int_def, v, done);
            }
            Fp { op, .. } => {
                let v = eval_fp(op, self.fval(fp_srcs[0]), self.fval(fp_srcs[1]));
                self.write_fp(fp_def, v, done);
            }
            Fcmp { cmp, .. } => {
                let v = eval_fcmp(cmp, self.fval(fp_srcs[0]), self.fval(fp_srcs[1]));
                self.write_int(int_def, u32::from(v), done);
            }
            Fmov { .. } => {
                let v = self.fval(fp_srcs[0]);
                self.write_fp(fp_def, v, done);
            }
            CvtIf { .. } => {
                let v = eval_cvt_if(self.ival(int_srcs[0]));
                self.write_fp(fp_def, v, done);
            }
            CvtFi { .. } => {
                let v = eval_cvt_fi(self.fval(fp_srcs[0]));
                self.write_int(int_def, v, done);
            }
            Lb { off, .. }
            | Lbu { off, .. }
            | Lw { off, .. }
            | Ll { off, .. }
            | Fls { off, .. }
            | Fld { off, .. } => {
                let va = effective_addr(self.ival(int_srcs[0]), off);
                let pa = self.space.translate(va);
                let bytes = instr.mem_bytes().expect("load has a size");
                // Disambiguate against older stores in the window.
                match self.scan_older_stores(idx, pa, bytes) {
                    StoreScan::Unknown | StoreScan::Partial => return Err(Blocked::Store),
                    StoreScan::Forward(val) => {
                        done = now + 1;
                        self.finish_load(instr, int_def, fp_def, pa, Some(val), done, phys);
                        self.rob[idx].mem_paddr = Some(pa);
                    }
                    StoreScan::Clear => {
                        let line = pa & !(LINE_BYTES - 1);
                        if let Some(&(_, fin)) = self.outstanding.iter().find(|&&(l, _)| l == line)
                        {
                            // Merge with the outstanding miss to this line.
                            done = fin.max(now + 1);
                            self.rob[idx].dcache_blame = true;
                        } else {
                            // The L1 probe only matters when every MSHR is busy.
                            if self.outstanding.len() >= self.cfg.mshrs
                                && !mem.load_would_hit_l1(self.cpu, pa)
                            {
                                return Err(Blocked::Mshrs);
                            }
                            let res = mem.access(now, MemRequest::load(self.cpu, pa));
                            done = res.finish;
                            if res.l1_miss {
                                self.outstanding.push((line, res.finish));
                                self.rob[idx].dcache_blame = true;
                            }
                        }
                        self.finish_load(instr, int_def, fp_def, pa, None, done, phys);
                        self.rob[idx].mem_paddr = Some(pa);
                    }
                }
            }
            Sb { off, .. }
            | Sw { off, .. }
            | Sc { off, .. }
            | Fss { off, .. }
            | Fsd { off, .. } => {
                let va = effective_addr(self.ival(int_srcs[0]), off);
                let pa = self.space.translate(va);
                let val = match instr {
                    Sb { .. } => StoreVal::W8(self.ival(int_srcs[1]) as u8),
                    Sw { .. } | Sc { .. } => StoreVal::W32(self.ival(int_srcs[1])),
                    Fss { .. } => StoreVal::F32(self.fval(fp_srcs[0]) as f32),
                    Fsd { .. } => StoreVal::F64(self.fval(fp_srcs[0])),
                    _ => unreachable!(),
                };
                done = now + FU.store;
                self.rob[idx].mem_paddr = Some(pa);
                self.rob[idx].store_val = Some(val);
                self.store_epoch += 1;
                // An SC's destination becomes ready at graduation, when the
                // link is checked; leave it not-ready here.
            }
            Branch { cond, off, .. } => {
                let taken = eval_branch(cond, self.ival(int_srcs[0]), self.ival(int_srcs[1]));
                actual_next = if taken {
                    next.wrapping_add((off as i32 as u32).wrapping_mul(4))
                } else {
                    next
                };
                self.btb.update(pc, taken, actual_next);
            }
            J { target } => actual_next = target * 4,
            Jal { target } => {
                actual_next = target * 4;
                self.write_int(int_def, next, done);
            }
            Jr { .. } => {
                actual_next = self.ival(int_srcs[0]);
                self.btb.update(pc, true, actual_next);
            }
            Jalr { .. } => {
                actual_next = self.ival(int_srcs[0]);
                self.write_int(int_def, next, done);
                self.btb.update(pc, true, actual_next);
            }
            Cpuid { .. } => self.write_int(int_def, self.cpu as u32, done),
            Sync | Hcall { .. } | Halt | Nop => {}
        }

        let e = &mut self.rob[idx];
        e.issued = true;
        e.done_at = done;
        if instr.is_control() && actual_next != e.predicted_next {
            e.mispredicted = true;
            self.squash_after(idx);
            self.fetch_pc = actual_next;
            self.fetch_resume_at = now + FU.branch;
            self.fetch_stopped = false;
            self.fetch_line = None;
        }
        Ok(())
    }

    #[allow(clippy::too_many_arguments)] // mirrors the execute-stage operands
    fn finish_load(
        &mut self,
        instr: Instr,
        int_def: Option<Def>,
        fp_def: Option<Def>,
        pa: u32,
        forwarded: Option<StoreVal>,
        ready: Cycle,
        phys: &mut PhysMem,
    ) {
        use Instr::*;
        match instr {
            Lb { .. } => {
                let b = match forwarded {
                    Some(StoreVal::W8(b)) => b,
                    Some(StoreVal::W32(w)) => w as u8,
                    _ => phys.read_u8(pa),
                };
                self.write_int(int_def, b as i8 as i32 as u32, ready);
            }
            Lbu { .. } => {
                let b = match forwarded {
                    Some(StoreVal::W8(b)) => b,
                    Some(StoreVal::W32(w)) => w as u8,
                    _ => phys.read_u8(pa),
                };
                self.write_int(int_def, u32::from(b), ready);
            }
            Lw { .. } => {
                let w = match forwarded {
                    Some(StoreVal::W32(w)) => w,
                    Some(StoreVal::F32(f)) => f.to_bits(),
                    _ => phys.read_u32(pa),
                };
                self.write_int(int_def, w, ready);
            }
            Ll { .. } => {
                // Both the value read and the link establishment happen at
                // graduation: reading the value early while arming the link
                // late would open a lost-update window for remote stores
                // (all four CPUs' barrier counts collapsed that way), and
                // arming early lets older own stores spuriously clear it.
                // The destination stays not-ready until graduation.
                let _ = forwarded;
            }
            Fls { .. } => {
                let f = match forwarded {
                    Some(StoreVal::F32(f)) => f,
                    Some(StoreVal::W32(w)) => f32::from_bits(w),
                    _ => phys.read_f32(pa),
                };
                self.write_fp(fp_def, f64::from(f), ready);
            }
            Fld { .. } => {
                let f = match forwarded {
                    Some(StoreVal::F64(f)) => f,
                    _ => phys.read_f64(pa),
                };
                self.write_fp(fp_def, f, ready);
            }
            _ => unreachable!("finish_load on non-load"),
        }
    }

    fn scan_older_stores(&self, idx: usize, pa: u32, bytes: u32) -> StoreScan {
        let mut result = StoreScan::Clear;
        for j in 0..idx {
            let e = &self.rob[j];
            if !e.instr.is_store() {
                continue;
            }
            if !e.issued {
                return StoreScan::Unknown;
            }
            let spa = e.mem_paddr.expect("issued store has an address");
            let sval = e.store_val.expect("issued store has a value");
            let sbytes = sval.bytes();
            let overlap = pa < spa + sbytes && spa < pa + bytes;
            if !overlap {
                continue;
            }
            if spa == pa && sbytes == bytes && !e.is_sc {
                // Youngest exact match wins (keep scanning).
                result = StoreScan::Forward(sval);
            } else {
                // Partial overlap (or an SC whose success is unknown):
                // wait for the store to graduate.
                result = StoreScan::Partial;
            }
        }
        result
    }

    // ------------------------------------------------------------------
    // Rename / dispatch stage
    // ------------------------------------------------------------------

    fn dispatch(&mut self, now: Cycle) {
        let mut n = 0;
        loop {
            if n >= self.cfg.fetch_width {
                break;
            }
            let Some(f) = self.fbuf.front() else { break };
            if f.avail_at > now {
                break;
            }
            if self.rob.len() >= self.cfg.rob_entries {
                self.counters.dispatch_stall_rob += 1;
                break;
            }
            let ops = f.instr.reg_ops();
            if (ops.int_def.is_some() && self.int_free.is_empty())
                || (ops.fp_def.is_some() && self.fp_free.is_empty())
            {
                // No physical register: stall rename.
                self.counters.dispatch_stall_preg += 1;
                break;
            }
            let f = self.fbuf.pop_front().expect("peeked");
            let int_srcs = [
                ops.int_uses[0].map(|r| self.front_int[r.index()]),
                ops.int_uses[1].map(|r| self.front_int[r.index()]),
            ];
            let fp_srcs = [
                ops.fp_uses[0].map(|r| self.front_fp[r.index()]),
                ops.fp_uses[1].map(|r| self.front_fp[r.index()]),
            ];
            let int_def = ops.int_def.map(|r| {
                let new = self.int_free.pop().expect("checked non-empty");
                let old = self.front_int[r.index()];
                self.front_int[r.index()] = new;
                self.int_ready[usize::from(new)] = Cycle::MAX;
                Def {
                    arch: r.index() as u8,
                    new,
                    old,
                }
            });
            let fp_def = ops.fp_def.map(|r| {
                let new = self.fp_free.pop().expect("checked non-empty");
                let old = self.front_fp[r.index()];
                self.front_fp[r.index()] = new;
                self.fp_ready[usize::from(new)] = Cycle::MAX;
                Def {
                    arch: r.index() as u8,
                    new,
                    old,
                }
            });
            let entry = RobEntry {
                pc: f.pc,
                instr: f.instr,
                class: f.instr.fu_class(),
                predicted_next: f.predicted_next,
                int_def,
                fp_def,
                int_srcs,
                fp_srcs,
                issued: false,
                done_at: Cycle::MAX,
                mispredicted: false,
                mem_paddr: None,
                store_val: None,
                is_sc: matches!(f.instr, Instr::Sc { .. }),
                dcache_blame: false,
            };
            let (wait, ready_at) = self.source_wait(&entry);
            if wait.is_none() {
                // Issue already ran this cycle.
                self.issue_wake = self.issue_wake.min(ready_at.max(now + 1));
            }
            self.syncs += usize::from(matches!(f.instr, Instr::Sync));
            self.iq.push(Waiting {
                seq: self.rob_base + self.rob.len() as u64,
                wait,
                ready_at,
                store_blocked: None,
            });
            self.rob.push_back(entry);
            n += 1;
        }
    }

    // ------------------------------------------------------------------
    // Fetch stage
    // ------------------------------------------------------------------

    fn fetch<M: MemorySystem + ?Sized>(&mut self, now: Cycle, mem: &mut M, phys: &mut PhysMem) {
        if self.fetch_stopped
            || now < self.fetch_resume_at
            || self.fbuf.len() + self.cfg.fetch_width > FBUF_CAP
        {
            return;
        }
        let group_pa = self.space.translate(self.fetch_pc);
        // The group goes straight into the fetch buffer; its arrival time
        // is patched in once the line access below is known.
        let first = self.fbuf.len();
        for _ in 0..self.cfg.fetch_width {
            let pc = self.fetch_pc;
            let pa = self.space.translate(pc);
            let instr = phys.fetch(self.cpu, pa);
            let predicted_next = match instr {
                Instr::J { target } | Instr::Jal { target } => target * 4,
                Instr::Branch { .. } => self.btb.predict_branch(pc).unwrap_or(pc.wrapping_add(4)),
                Instr::Jr { .. } | Instr::Jalr { .. } => {
                    self.btb.predict_indirect(pc).unwrap_or(pc.wrapping_add(4))
                }
                _ => pc.wrapping_add(4),
            };
            self.fbuf.push_back(Fetched {
                pc,
                instr,
                predicted_next,
                avail_at: Cycle::MAX,
                was_icache_miss: false,
            });
            self.fetch_pc = predicted_next;
            if matches!(instr, Instr::Halt | Instr::Hcall { .. }) {
                self.fetch_stopped = true;
                break;
            }
            if predicted_next != pc.wrapping_add(4) {
                break; // taken prediction ends the fetch group
            }
        }
        let line = group_pa & !(LINE_BYTES - 1);
        let (avail_at, was_miss) = if self.fetch_line == Some(line) {
            // Same line as the previous group: served from the line buffer.
            (now + 1, false)
        } else {
            let res = mem.access(now, MemRequest::ifetch(self.cpu, group_pa));
            self.fetch_line = Some(line);
            (res.finish, res.l1_miss)
        };
        for f in self.fbuf.range_mut(first..) {
            f.avail_at = avail_at;
            f.was_icache_miss = was_miss;
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum StoreScan {
    /// No older store overlaps.
    Clear,
    /// An older store has an unknown address.
    Unknown,
    /// Overlap without exact match; wait for graduation.
    Partial,
    /// Exact match: forward this value.
    Forward(StoreVal),
}

fn class_index(c: FuClass) -> usize {
    match c {
        FuClass::IntAlu => 0,
        FuClass::IntMul => 1,
        FuClass::IntDiv => 2,
        FuClass::Branch => 3,
        FuClass::Load => 4,
        FuClass::Store => 5,
        FuClass::FpAddSubSp => 6,
        FuClass::FpMulSp => 7,
        FuClass::FpDivSp => 8,
        FuClass::FpAddSubDp => 9,
        FuClass::FpMulDp => 10,
        FuClass::FpDivDp => 11,
    }
}

impl CpuModel for MxsCpu {
    fn step<M: MemorySystem + ?Sized>(
        &mut self,
        now: Cycle,
        mem: &mut M,
        phys: &mut PhysMem,
    ) -> (Cycle, StepEvent) {
        debug_assert!(!self.halted, "stepping a halted CPU");
        self.counters.mxs_cycles += 1;
        self.counters.window_occupancy_sum += self.rob.len() as u64;
        let event = self.graduate(now, mem, phys);
        if let Some(ev) = event {
            return (now + 1, ev);
        }
        self.issue(now, mem, phys);
        self.dispatch(now);
        self.fetch(now, mem, phys);
        (now + 1, StepEvent::None)
    }

    fn arch(&self) -> &ArchState {
        &self.arch
    }

    fn arch_mut(&mut self) -> &mut ArchState {
        &mut self.arch
    }

    fn set_space(&mut self, space: AddrSpace) {
        self.space = space;
    }

    fn space(&self) -> AddrSpace {
        self.space
    }

    fn flush(&mut self) {
        self.reset_pipeline();
    }

    fn halted(&self) -> bool {
        self.halted
    }

    fn counters(&self) -> &CpuCounters {
        &self.counters
    }

    fn counters_mut(&mut self) -> &mut CpuCounters {
        &mut self.counters
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmpsim_isa::{Asm, FReg};
    use cmpsim_mem::{SharedMemSystem, SystemConfig};

    fn build(asm: &Asm) -> (PhysMem, SharedMemSystem, MxsCpu) {
        let prog = asm.assemble().expect("assembles");
        let mut phys = PhysMem::new(4);
        phys.load_words(prog.base, &prog.words);
        let mem = SharedMemSystem::new(&SystemConfig::paper_shared_mem(4));
        let cpu = MxsCpu::new(0, prog.base, AddrSpace::identity());
        (phys, mem, cpu)
    }

    #[test]
    fn config_validation_rejects_each_bad_shape_with_a_typed_error() {
        use cmpsim_mem::ConfigError;
        let ok = MxsConfig::default();
        assert!(ok.validate().is_ok());
        type Set = fn(&mut MxsConfig);
        let with = |set: Set| {
            let mut c = ok;
            set(&mut c);
            c
        };

        // Zero of any of these fetches, issues, holds or misses nothing:
        // the core would spin until the cycle budget ends the run.
        let zeros: [(Set, &str); 4] = [
            (|c| c.fetch_width = 0, "MXS fetch width"),
            (|c| c.issue_width = 0, "MXS issue width"),
            (|c| c.rob_entries = 0, "MXS reorder window"),
            (|c| c.mshrs = 0, "MXS MSHR count"),
        ];
        for (set, what) in zeros {
            assert_eq!(with(set).validate(), Err(ConfigError::Zero { what }));
        }

        // The BTB indexes by masking the pc.
        for btb_entries in [0, 1000] {
            assert_eq!(
                MxsConfig { btb_entries, ..ok }.validate(),
                Err(ConfigError::NotPowerOfTwo {
                    what: "BTB size",
                    value: btb_entries as u64,
                })
            );
        }

        // Upper bounds: the fetch buffer, the 16-bit indices naming the
        // window's `32 + rob_entries` registers, and the BTB ceiling.
        let too_large: [(Set, &str, usize, usize); 3] = [
            (|c| c.fetch_width = 9, "MXS fetch width", 9, 8),
            (
                |c| c.rob_entries = 65_505,
                "MXS reorder window",
                65_505,
                65_504,
            ),
            (|c| c.btb_entries = 1 << 17, "BTB size", 1 << 17, 1 << 16),
        ];
        for (set, what, value, max) in too_large {
            assert_eq!(
                with(set).validate(),
                Err(ConfigError::OutOfRange { what, value, max })
            );
        }

        // Every shape that validates builds, down to one of each and up
        // to each bound.
        let smallest = MxsConfig {
            fetch_width: 1,
            issue_width: 1,
            rob_entries: 1,
            mshrs: 1,
            btb_entries: 1,
        };
        let largest = MxsConfig {
            fetch_width: FBUF_CAP,
            issue_width: usize::MAX,
            rob_entries: MAX_ROB_ENTRIES,
            mshrs: usize::MAX,
            btb_entries: MAX_BTB_ENTRIES,
        };
        for shape in [smallest, ok, largest] {
            assert!(shape.validate().is_ok(), "{shape:?}");
            assert!(MxsCpu::try_with_config(0, 0, AddrSpace::identity(), shape).is_ok());
        }
        let err = MxsCpu::try_with_config(
            0,
            0,
            AddrSpace::identity(),
            MxsConfig {
                btb_entries: 1000,
                ..ok
            },
        )
        .expect_err("a BTB size that is not a power of two must be rejected");
        assert!(err.to_string().contains("(got 1000)"), "{err}");
    }

    #[test]
    #[should_panic(expected = "BTB size must be a power of two (got 1000)")]
    fn with_config_still_panics_on_bad_configs() {
        let bad = MxsConfig {
            btb_entries: 1000,
            ..MxsConfig::default()
        };
        let _ = MxsCpu::with_config(0, 0, AddrSpace::identity(), bad);
    }

    fn run_to_halt(phys: &mut PhysMem, mem: &mut SharedMemSystem, cpu: &mut MxsCpu) -> Cycle {
        let mut now = Cycle(0);
        for _ in 0..2_000_000 {
            if cpu.halted() {
                return now;
            }
            let (next, _) = cpu.step(now, mem, phys);
            now = next;
        }
        panic!("program did not halt; pc={:#x}", cpu.arch().pc);
    }

    #[test]
    fn straight_line_arithmetic() {
        let mut a = Asm::new(0x1000);
        a.li(Reg::T0, 5);
        a.li(Reg::T1, 7);
        a.add(Reg::T2, Reg::T0, Reg::T1);
        a.mul(Reg::T3, Reg::T2, Reg::T2);
        a.halt();
        let (mut phys, mut mem, mut cpu) = build(&a);
        run_to_halt(&mut phys, &mut mem, &mut cpu);
        assert_eq!(cpu.arch().gpr(Reg::T2), 12);
        assert_eq!(cpu.arch().gpr(Reg::T3), 144);
        assert_eq!(cpu.counters().instructions, 5);
    }

    #[test]
    fn loop_with_branches() {
        let mut a = Asm::new(0x1000);
        a.li(Reg::T0, 0);
        a.li(Reg::T1, 50);
        a.label("loop");
        a.addi(Reg::T0, Reg::T0, 2);
        a.addi(Reg::T1, Reg::T1, -1);
        a.bnez(Reg::T1, "loop");
        a.halt();
        let (mut phys, mut mem, mut cpu) = build(&a);
        run_to_halt(&mut phys, &mut mem, &mut cpu);
        assert_eq!(cpu.arch().gpr(Reg::T0), 100);
        let c = cpu.counters();
        assert_eq!(c.instructions, 2 + 150 + 1);
        assert_eq!(c.branches, 50);
        // BTB learns the loop: far fewer mispredicts than branches.
        assert!(c.mispredicts <= 4, "mispredicts = {}", c.mispredicts);
    }

    #[test]
    fn stores_commit_in_order_and_loads_forward() {
        let mut a = Asm::new(0x1000);
        a.li(Reg::A0, 0x8000);
        a.li(Reg::T0, 0xaa);
        a.li(Reg::T1, 0xbb);
        a.sw(Reg::T0, Reg::A0, 0);
        a.sw(Reg::T1, Reg::A0, 0); // overwrite
        a.lw(Reg::T2, Reg::A0, 0); // must see 0xbb (forwarded)
        a.halt();
        let (mut phys, mut mem, mut cpu) = build(&a);
        run_to_halt(&mut phys, &mut mem, &mut cpu);
        assert_eq!(cpu.arch().gpr(Reg::T2), 0xbb);
        assert_eq!(phys.read_u32(0x8000), 0xbb);
    }

    #[test]
    fn partial_overlap_waits_for_graduation() {
        let mut a = Asm::new(0x1000);
        a.li(Reg::A0, 0x8000);
        a.li(Reg::T0, 0x11223344);
        a.sw(Reg::T0, Reg::A0, 0);
        a.lb(Reg::T1, Reg::A0, 1); // partial overlap: byte 1 of the word
        a.halt();
        let (mut phys, mut mem, mut cpu) = build(&a);
        run_to_halt(&mut phys, &mut mem, &mut cpu);
        assert_eq!(cpu.arch().gpr(Reg::T1), 0x33);
    }

    #[test]
    fn mispredicted_branch_recovers_precisely() {
        let mut a = Asm::new(0x1000);
        a.li(Reg::T0, 1);
        a.li(Reg::T3, 7);
        // Taken branch over a poison section (cold BTB predicts fall-through
        // -> wrong path executes speculatively, then squashes).
        a.bnez(Reg::T0, "past");
        a.li(Reg::T3, 999); // wrong path
        a.li(Reg::T4, 888); // wrong path
        a.label("past");
        a.halt();
        let (mut phys, mut mem, mut cpu) = build(&a);
        run_to_halt(&mut phys, &mut mem, &mut cpu);
        assert_eq!(cpu.arch().gpr(Reg::T3), 7, "wrong path must not commit");
        assert_eq!(cpu.arch().gpr(Reg::T4), 0);
        assert_eq!(cpu.counters().mispredicts, 1);
    }

    #[test]
    fn wrong_path_stores_never_reach_memory() {
        let mut a = Asm::new(0x1000);
        a.li(Reg::A0, 0x9000);
        a.li(Reg::T0, 1);
        a.bnez(Reg::T0, "past");
        a.sw(Reg::T0, Reg::A0, 0); // wrong path store
        a.label("past");
        a.halt();
        let (mut phys, mut mem, mut cpu) = build(&a);
        run_to_halt(&mut phys, &mut mem, &mut cpu);
        assert_eq!(
            phys.read_u32(0x9000),
            0,
            "speculative store must not commit"
        );
    }

    #[test]
    fn ll_sc_works_under_speculation() {
        let mut a = Asm::new(0x1000);
        a.li(Reg::A0, 0xa000);
        a.label("retry");
        a.ll(Reg::T0, Reg::A0, 0);
        a.addi(Reg::T1, Reg::T0, 1);
        a.sc(Reg::T1, Reg::A0, 0);
        a.beqz(Reg::T1, "retry");
        a.halt();
        let (mut phys, mut mem, mut cpu) = build(&a);
        run_to_halt(&mut phys, &mut mem, &mut cpu);
        assert_eq!(phys.read_u32(0xa000), 1);
    }

    #[test]
    fn fp_pipeline_latencies_respected() {
        let mut a = Asm::new(0x1000);
        a.li(Reg::A0, 0xb000);
        a.cvt_if(FReg::F1, Reg::A0); // f1 = 45056.0
        a.fmov(FReg::F2, FReg::F1);
        a.fdiv_d(FReg::F3, FReg::F1, FReg::F2); // 18-cycle divide
        a.fadd_d(FReg::F4, FReg::F3, FReg::F3);
        a.fsd(FReg::F4, Reg::A0, 0);
        a.halt();
        let (mut phys, mut mem, mut cpu) = build(&a);
        let end = run_to_halt(&mut phys, &mut mem, &mut cpu);
        assert_eq!(phys.read_f64(0xb000), 2.0);
        assert!(end.0 >= 18, "dp divide latency must show up");
    }

    #[test]
    fn nonblocking_loads_overlap_misses() {
        // Four independent cold loads to different lines: with 4 MSHRs they
        // overlap; total time must be far less than 4 * 50.
        let mut a = Asm::new(0x1000);
        a.li(Reg::A0, 0x2_0000);
        a.lw(Reg::T0, Reg::A0, 0);
        a.lw(Reg::T1, Reg::A0, 0x40);
        a.lw(Reg::T2, Reg::A0, 0x80);
        a.lw(Reg::T3, Reg::A0, 0xc0);
        a.halt();
        let (mut phys, mut mem, mut cpu) = build(&a);
        let end = run_to_halt(&mut phys, &mut mem, &mut cpu);
        // The cold I-fetch costs ~50 cycles; the four load misses then
        // overlap behind the 6-cycle bus occupancy. Blocking loads would
        // need ~50 + 4*50 = 250 cycles.
        assert!(
            end.0 < 140,
            "loads must overlap (took {} cycles; serial would be ~250)",
            end.0
        );
    }

    #[test]
    fn ipc_near_two_on_independent_alu_code() {
        let mut a = Asm::new(0x1000);
        // Warm loop: independent adds in pairs.
        a.li(Reg::T5, 200);
        a.label("loop");
        for _ in 0..4 {
            a.addi(Reg::T0, Reg::T0, 1);
            a.addi(Reg::T1, Reg::T1, 1);
        }
        a.addi(Reg::T5, Reg::T5, -1);
        a.bnez(Reg::T5, "loop");
        a.halt();
        let (mut phys, mut mem, mut cpu) = build(&a);
        run_to_halt(&mut phys, &mut mem, &mut cpu);
        let ipc = cpu.counters().ipc();
        assert!(ipc > 1.2, "expected high IPC, got {ipc:.2}");
    }

    #[test]
    fn sync_fences_memory_operations() {
        let mut a = Asm::new(0x1000);
        a.li(Reg::A0, 0xc000);
        a.li(Reg::T0, 77);
        a.sw(Reg::T0, Reg::A0, 0);
        a.sync();
        a.lw(Reg::T1, Reg::A0, 0);
        a.halt();
        let (mut phys, mut mem, mut cpu) = build(&a);
        run_to_halt(&mut phys, &mut mem, &mut cpu);
        assert_eq!(cpu.arch().gpr(Reg::T1), 77);
    }

    #[test]
    fn matches_mipsy_architectural_results() {
        // The same program must produce identical architectural state under
        // both CPU models.
        use crate::mipsy::MipsyCpu;
        let mut a = Asm::new(0x1000);
        a.li(Reg::A0, 0xd000);
        a.li(Reg::T0, 0);
        a.li(Reg::T1, 20);
        a.label("loop");
        a.mul(Reg::T2, Reg::T1, Reg::T1);
        a.add(Reg::T0, Reg::T0, Reg::T2);
        a.sw(Reg::T0, Reg::A0, 0);
        a.lw(Reg::T3, Reg::A0, 0);
        a.addi(Reg::T1, Reg::T1, -1);
        a.bnez(Reg::T1, "loop");
        a.halt();

        let (mut phys_a, mut mem_a, mut mxs) = build(&a);
        run_to_halt(&mut phys_a, &mut mem_a, &mut mxs);

        let prog = a.assemble().expect("assembles");
        let mut phys_b = PhysMem::new(4);
        phys_b.load_words(prog.base, &prog.words);
        let mut mem_b = SharedMemSystem::new(&SystemConfig::paper_shared_mem(4));
        let mut mipsy = MipsyCpu::new(0, prog.base, AddrSpace::identity());
        let mut now = Cycle(0);
        while !mipsy.halted() {
            let (next, _) = mipsy.step(now, &mut mem_b, &mut phys_b);
            now = next;
        }
        assert_eq!(mxs.arch().gpr(Reg::T0), mipsy.arch().gpr(Reg::T0));
        assert_eq!(mxs.arch().gpr(Reg::T3), mipsy.arch().gpr(Reg::T3));
        assert_eq!(phys_a.read_u32(0xd000), phys_b.read_u32(0xd000));
    }

    #[test]
    fn hcall_synchronizes_architectural_state() {
        use cmpsim_isa::HcallNo;
        let mut a = Asm::new(0x1000);
        a.li(Reg::T0, 42);
        a.hcall(HcallNo::Phase(1));
        a.li(Reg::T1, 43);
        a.halt();
        let (mut phys, mut mem, mut cpu) = build(&a);
        let mut now = Cycle(0);
        let mut saw_hcall = false;
        for _ in 0..10_000 {
            if cpu.halted() {
                break;
            }
            let (next, ev) = cpu.step(now, &mut mem, &mut phys);
            if let StepEvent::Hcall(no) = ev {
                saw_hcall = true;
                assert_eq!(no, HcallNo::Phase(1));
                // At the hcall, T0 is committed but T1 is not yet.
                assert_eq!(cpu.arch().gpr(Reg::T0), 42);
                assert_eq!(cpu.arch().gpr(Reg::T1), 0);
            }
            now = next;
        }
        assert!(saw_hcall);
        assert_eq!(cpu.arch().gpr(Reg::T1), 43);
    }

    // The tests below pin one issue wake-up rule each. Their expected
    // values were recorded from the model that scanned the whole window
    // every cycle, so the issue queue must reproduce them exactly.

    /// End cycle and the counters a change in issue timing would move.
    fn timing(cpu: &MxsCpu, end: Cycle) -> [u64; 7] {
        let c = cpu.counters();
        [
            end.0,
            c.instructions,
            c.slots_pipeline,
            c.slots_dcache,
            c.slots_icache,
            c.window_occupancy_sum,
            c.dispatch_stall_rob,
        ]
    }

    #[test]
    fn wakes_a_load_when_an_older_store_address_resolves() {
        let mut a = Asm::new(0x1000);
        a.li(Reg::A0, 0x8000);
        a.li(Reg::T1, 1);
        a.li(Reg::T0, 5);
        a.div(Reg::T2, Reg::A0, Reg::T1); // the store address, after 12 cycles
        a.sw(Reg::T0, Reg::T2, 0);
        a.lw(Reg::T3, Reg::A0, 64); // disjoint, but waits for the store address
        a.addi(Reg::T4, Reg::T3, 1);
        a.halt();
        let (mut phys, mut mem, mut cpu) = build(&a);
        let end = run_to_halt(&mut phys, &mut mem, &mut cpu);
        assert_eq!(cpu.arch().gpr(Reg::T4), 1);
        assert_eq!(timing(&cpu, end), [124, 9, 31, 110, 98, 199, 0]);
    }

    #[test]
    fn wakes_a_partially_overlapping_load_when_the_store_graduates() {
        let mut a = Asm::new(0x1000);
        a.li(Reg::A0, 0x8000);
        a.li(Reg::T0, 0x1122_3344);
        a.sw(Reg::T0, Reg::A0, 0);
        a.lb(Reg::T1, Reg::A0, 1); // part of the stored word: waits for graduation
        a.lw(Reg::T2, Reg::A0, 0); // the exact word: forwarded at once
        a.add(Reg::T3, Reg::T1, Reg::T2);
        a.halt();
        let (mut phys, mut mem, mut cpu) = build(&a);
        let end = run_to_halt(&mut phys, &mut mem, &mut cpu);
        assert_eq!(cpu.arch().gpr(Reg::T3), 0x33 + 0x1122_3344);
        assert_eq!(timing(&cpu, end), [103, 9, 16, 0, 181, 28, 0]);
    }

    #[test]
    fn wakes_ll_and_sc_dependents_at_graduation() {
        let mut a = Asm::new(0x1000);
        a.li(Reg::A0, 0xa000);
        a.ll(Reg::T0, Reg::A0, 0);
        a.addi(Reg::T1, Reg::T0, 1);
        a.addi(Reg::T2, Reg::T1, 1);
        a.sc(Reg::T2, Reg::A0, 0);
        a.add(Reg::T3, Reg::T2, Reg::T1); // the SC's success flag plus T1
        a.halt();
        let (mut phys, mut mem, mut cpu) = build(&a);
        let end = run_to_halt(&mut phys, &mut mem, &mut cpu);
        assert_eq!(phys.read_u32(0xa000), 2);
        assert_eq!(cpu.arch().gpr(Reg::T3), 2);
        assert_eq!(timing(&cpu, end), [108, 8, 12, 98, 98, 325, 0]);
    }

    #[test]
    fn wakes_fenced_memory_operations_when_the_sync_graduates() {
        let mut a = Asm::new(0x1000);
        a.li(Reg::A0, 0xc000);
        a.li(Reg::T0, 77);
        a.sw(Reg::T0, Reg::A0, 0);
        a.sync();
        a.lw(Reg::T1, Reg::A0, 0);
        a.addi(Reg::T2, Reg::T0, 1); // not a memory operation: issues past the fence
        a.lw(Reg::T3, Reg::A0, 4);
        a.halt();
        let (mut phys, mut mem, mut cpu) = build(&a);
        let end = run_to_halt(&mut phys, &mut mem, &mut cpu);
        assert_eq!(cpu.arch().gpr(Reg::T1), 77);
        assert_eq!(cpu.arch().gpr(Reg::T2), 78);
        assert_eq!(timing(&cpu, end), [109, 9, 8, 103, 98, 236, 0]);
    }

    #[test]
    fn retries_loads_every_cycle_while_all_mshrs_are_busy() {
        let mut a = Asm::new(0x1000);
        a.li(Reg::A0, 0x2_0000);
        a.lw(Reg::T0, Reg::A0, 0);
        a.lw(Reg::T1, Reg::A0, 0x40);
        a.lw(Reg::T2, Reg::A0, 0x80);
        a.lw(Reg::T3, Reg::A0, 4); // merges with the first miss
        a.halt();
        let (mut phys, mut mem, _) = build(&a);
        let cfg = MxsConfig {
            mshrs: 1,
            ..MxsConfig::default()
        };
        let mut cpu = MxsCpu::with_config(0, 0x1000, AddrSpace::identity(), cfg);
        let end = run_to_halt(&mut phys, &mut mem, &mut cpu);
        assert_eq!(timing(&cpu, end), [204, 6, 10, 294, 98, 607, 0]);
    }
}
