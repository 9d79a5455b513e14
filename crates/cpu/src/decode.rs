//! Pre-decoded instruction cache (a simulator optimization, not a
//! microarchitectural structure).
//!
//! Both CPU models fetch encoded words from [`PhysMem`] and decode them; the
//! decode cache memoizes decoded instructions per physical page. The hot
//! fetch path is a single page-number compare plus an array index: almost
//! every fetch lands in the same 4 KB page as the previous one (straight-line
//! code and loops), so the page-table lookup runs only on page crossings.
//! Undecodable words decode to `NOP` — they can only be reached by
//! speculative wrong-path fetch, which squashes before graduation (generated
//! programs always decode cleanly on the correct path).
//!
//! Correctness knobs:
//!
//! * [`DecodeCache::clear`] is O(1) — it bumps a generation counter and
//!   pages lazily re-decode on next touch. The CPU models call it from
//!   `flush()`/`set_space()`, so context switches (multiprogramming) and
//!   address-space changes can never serve stale decodes even if a process
//!   image were overwritten in place.
//! * [`DecodeCache::new_with`]`(false)` disables memoization entirely:
//!   every fetch decodes fresh from memory. Simulated results are
//!   identical either way — the switch exists so tests can prove it
//!   (`Machine::disable_decode_cache`).
//!
//! [`PhysMem`]: cmpsim_mem::PhysMem

use cmpsim_isa::{decode, Instr};
use cmpsim_mem::{Addr, PhysMem};
use std::collections::HashMap;

const PAGE_SHIFT: u32 = 12;
const WORDS_PER_PAGE: usize = 1 << (PAGE_SHIFT - 2);

#[derive(Debug)]
struct Page {
    generation: u64,
    slots: Box<[Option<Instr>; WORDS_PER_PAGE]>,
}

/// Per-page memoized decoder with a last-page fast path and generational
/// O(1) invalidation.
#[derive(Debug)]
pub struct DecodeCache {
    enabled: bool,
    generation: u64,
    /// Page index of the most recently fetched page, and its slot in
    /// `pages`. `usize::MAX` marks "no last page" (also reset by `clear`).
    last_page: Addr,
    last_slot: usize,
    pages: Vec<Page>,
    index: HashMap<Addr, usize>,
}

impl Default for DecodeCache {
    fn default() -> DecodeCache {
        DecodeCache::new()
    }
}

impl DecodeCache {
    /// Creates an empty cache with memoization on.
    pub fn new() -> DecodeCache {
        DecodeCache::new_with(true)
    }

    /// Creates an empty cache with memoization on or off.
    pub fn new_with(enabled: bool) -> DecodeCache {
        DecodeCache {
            enabled,
            generation: 0,
            last_page: 0,
            last_slot: usize::MAX,
            pages: Vec::new(),
            index: HashMap::new(),
        }
    }

    /// Whether memoization is active.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Fetches and decodes the instruction at physical address `pa`
    /// (word-aligned by truncation).
    #[inline]
    pub fn fetch(&mut self, mem: &PhysMem, pa: Addr) -> Instr {
        let pa = pa & !3;
        if !self.enabled {
            return decode(mem.read_u32(pa)).unwrap_or(Instr::Nop);
        }
        let page = pa >> PAGE_SHIFT;
        let idx = ((pa as usize) >> 2) & (WORDS_PER_PAGE - 1);
        if self.last_slot != usize::MAX && self.last_page == page {
            let p = &mut self.pages[self.last_slot];
            if let Some(i) = p.slots[idx] {
                return i;
            }
            let instr = decode(mem.read_u32(pa)).unwrap_or(Instr::Nop);
            p.slots[idx] = Some(instr);
            return instr;
        }
        self.fetch_crossing(mem, pa, page, idx)
    }

    /// The page-crossing path: resolve (or allocate) the page, revalidate
    /// its generation, then decode through it.
    #[cold]
    fn fetch_crossing(&mut self, mem: &PhysMem, pa: Addr, page: Addr, idx: usize) -> Instr {
        let slot = match self.index.get(&page) {
            Some(&s) => {
                if self.pages[s].generation != self.generation {
                    // Invalidated since last touched: wipe lazily.
                    self.pages[s].slots.fill(None);
                    self.pages[s].generation = self.generation;
                }
                s
            }
            None => {
                let s = self.pages.len();
                self.pages.push(Page {
                    generation: self.generation,
                    slots: Box::new([None; WORDS_PER_PAGE]),
                });
                self.index.insert(page, s);
                s
            }
        };
        self.last_page = page;
        self.last_slot = slot;
        if let Some(i) = self.pages[slot].slots[idx] {
            return i;
        }
        let instr = decode(mem.read_u32(pa)).unwrap_or(Instr::Nop);
        self.pages[slot].slots[idx] = Some(instr);
        instr
    }

    /// Drops every memoized decode in O(1): bumps the generation (pages
    /// lazily reset on next touch) and forgets the last-page shortcut.
    /// Called on context switches and address-space changes.
    pub fn clear(&mut self) {
        self.generation += 1;
        self.last_slot = usize::MAX;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmpsim_isa::{encode, AluOp, Reg};

    #[test]
    fn decodes_and_memoizes() {
        let mut mem = PhysMem::new(1);
        let i = Instr::AluI {
            op: AluOp::Add,
            rt: Reg::T0,
            rs: Reg::T1,
            imm: 7,
        };
        mem.write_u32(0x1000, encode(&i));
        let mut dc = DecodeCache::new_with(true);
        assert_eq!(dc.fetch(&mem, 0x1000), i);
        // Second fetch comes from the memo (mutating memory is not seen —
        // by design, code is immutable between clears).
        mem.write_u32(0x1000, 0);
        assert_eq!(dc.fetch(&mem, 0x1000), i);
        dc.clear();
        assert_ne!(dc.fetch(&mem, 0x1000), i);
    }

    #[test]
    fn garbage_decodes_to_nop() {
        let mem = PhysMem::new(1);
        let mut dc = DecodeCache::new();
        // Unmapped memory reads 0 == a valid R-type Alu add $zero — check
        // explicitly what an undefined opcode does instead.
        let mut mem2 = PhysMem::new(1);
        mem2.write_u32(0x0, 0xffff_ffff);
        assert_eq!(dc.fetch(&mem2, 0x0), Instr::Nop);
        let _ = mem;
    }

    #[test]
    fn unaligned_pc_truncates() {
        let mut mem = PhysMem::new(1);
        let i = Instr::Halt;
        mem.write_u32(0x2000, encode(&i));
        let mut dc = DecodeCache::new();
        assert_eq!(dc.fetch(&mem, 0x2002), i);
    }

    #[test]
    fn disabled_cache_always_decodes_fresh() {
        let mut mem = PhysMem::new(1);
        let a = Instr::Halt;
        mem.write_u32(0x3000, encode(&a));
        let mut dc = DecodeCache::new_with(false);
        assert!(!dc.enabled());
        assert_eq!(dc.fetch(&mem, 0x3000), a);
        // An overwrite is visible immediately: nothing was memoized.
        let b = Instr::Nop;
        mem.write_u32(0x3000, encode(&b));
        assert_eq!(dc.fetch(&mem, 0x3000), b);
    }

    #[test]
    fn clear_invalidates_across_pages() {
        let mut mem = PhysMem::new(1);
        let i = Instr::Halt;
        // Two different 4 KB pages.
        mem.write_u32(0x1000, encode(&i));
        mem.write_u32(0x5000, encode(&i));
        let mut dc = DecodeCache::new_with(true);
        assert_eq!(dc.fetch(&mem, 0x1000), i);
        assert_eq!(dc.fetch(&mem, 0x5000), i);
        mem.write_u32(0x1000, 0);
        mem.write_u32(0x5000, 0);
        dc.clear();
        // Both pages must re-decode, including the non-last one.
        assert_ne!(dc.fetch(&mem, 0x1000), i);
        assert_ne!(dc.fetch(&mem, 0x5000), i);
    }

    #[test]
    fn same_page_fetches_use_the_fast_path() {
        let mut mem = PhysMem::new(1);
        let i = Instr::Halt;
        for k in 0..16u32 {
            mem.write_u32(0x1000 + k * 4, encode(&i));
        }
        let mut dc = DecodeCache::new_with(true);
        for _ in 0..3 {
            for k in 0..16u32 {
                assert_eq!(dc.fetch(&mem, 0x1000 + k * 4), i);
            }
        }
        // One page allocated despite 48 fetches.
        assert_eq!(dc.pages.len(), 1);
    }
}
