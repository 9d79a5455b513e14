//! The machine's decoded-instruction memo (a host-speed optimization, not
//! a microarchitectural structure).
//!
//! Each page frame of [`PhysMem`] that code has been fetched from holds
//! one [`DecodedPage`]: the decode of each of its words, made on the
//! word's first fetch by any CPU and shared by all of them. Every write to
//! the frame clears the decodes of the words it touches, so
//! [`PhysMem::fetch`] always returns what a fresh decode of memory would.
//! Undecodable words decode to `NOP`: only speculative wrong-path fetch
//! reaches them, and it squashes before graduation (generated programs
//! always decode cleanly on the correct path).
//!
//! [`PhysMem`]: crate::PhysMem
//! [`PhysMem::fetch`]: crate::PhysMem::fetch

use crate::phys::PAGE_BYTES;
use cmpsim_isa::{decode, Instr};

const WORDS_PER_PAGE: usize = PAGE_BYTES / 4;

/// Decodes one instruction word, an undecodable one as `NOP`.
pub(crate) fn decode_word(word: u32) -> Instr {
    decode(word).unwrap_or(Instr::Nop)
}

/// The memoized decodes of one page frame's words, addressed by byte
/// offset within the page. A word without an entry decodes on its next
/// fetch.
#[derive(Debug, Clone)]
pub(crate) struct DecodedPage(Box<[Option<Instr>; WORDS_PER_PAGE]>);

impl DecodedPage {
    /// A page with no word decoded yet.
    pub(crate) fn new() -> DecodedPage {
        DecodedPage(Box::new([None; WORDS_PER_PAGE]))
    }

    /// The memoized decode of the word holding byte `off`, if there is one.
    #[inline]
    pub(crate) fn get(&self, off: usize) -> Option<Instr> {
        self.0[off / 4]
    }

    /// Decodes `word`, the word holding byte `off`, and memoizes it.
    pub(crate) fn fill(&mut self, off: usize, word: u32) -> Instr {
        let instr = decode_word(word);
        self.0[off / 4] = Some(instr);
        instr
    }

    /// Clears the decodes of the (at most two) words that `len` bytes
    /// written at `off` touch.
    #[inline]
    pub(crate) fn clear(&mut self, off: usize, len: usize) {
        self.0[off / 4] = None;
        self.0[(off + len - 1) / 4] = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PhysMem;
    use cmpsim_isa::{encode, AluOp, Reg};

    #[test]
    fn decodes_and_memoizes() {
        let i = Instr::AluI {
            op: AluOp::Add,
            rt: Reg::T0,
            rs: Reg::T1,
            imm: 7,
        };
        let mut page = DecodedPage::new();
        assert_eq!(page.get(0x10), None, "no word is decoded before its fetch");
        assert_eq!(page.fill(0x10, encode(&i)), i);
        // Every byte of the word finds the one decode; its neighbours have
        // none.
        for off in 0x10..0x14 {
            assert_eq!(page.get(off), Some(i));
        }
        assert_eq!((page.get(0x0c), page.get(0x14)), (None, None));

        // Through `PhysMem`: one decoded page serves every CPU.
        let mut mem = PhysMem::new(2);
        mem.write_u32(0x1000, encode(&i));
        assert_eq!(mem.fetch(0, 0x1000), i);
        assert_eq!(mem.fetch(1, 0x1000), i);
        assert_eq!(mem.decoded_pages(), 1);
    }

    #[test]
    fn garbage_decodes_to_nop() {
        assert!(decode(0xffff_ffff).is_err(), "0xffffffff is undecodable");
        assert_eq!(decode_word(0xffff_ffff), Instr::Nop);
        let mut mem = PhysMem::new(1);
        mem.write_u32(0x0, 0xffff_ffff);
        assert_eq!(mem.fetch(0, 0x0), Instr::Nop);
    }

    #[test]
    fn unaligned_pc_truncates() {
        let mut mem = PhysMem::new(1);
        mem.write_u32(0x2000, 0xffff_ffff);
        mem.write_u32(0x2004, encode(&Instr::Halt));
        for pc in 0x2004..0x2008 {
            assert_eq!(mem.fetch(0, pc), Instr::Halt, "pc {pc:#x}");
        }
        assert_eq!(mem.fetch(0, 0x2003), Instr::Nop);
    }

    #[test]
    fn clear_invalidates_across_pages() {
        let (a, b) = (Instr::Halt, Instr::Sync);
        let mut page = DecodedPage::new();
        page.fill(0x0, encode(&a));
        page.fill(0x4, encode(&a));
        page.fill(0x8, encode(&a));
        // Four bytes written at 0x2 touch the words at 0x0 and 0x4 only.
        page.clear(0x2, 4);
        assert_eq!(
            (page.get(0x0), page.get(0x4), page.get(0x8)),
            (None, None, Some(a))
        );

        // Through `PhysMem`: two pages, each fetched (memoized), then
        // rewritten by a different write path and fetched by the other CPU;
        // both re-decode, including the one that is not the last fetched.
        let mut mem = PhysMem::new(2);
        mem.load_words(0x1000, &[encode(&a)]);
        mem.write_u32(0x5000, encode(&a));
        assert_eq!(mem.fetch(0, 0x1000), a);
        assert_eq!(mem.fetch(0, 0x5000), a);
        mem.snoop_store(0x1000);
        mem.write_u32(0x1000, encode(&b));
        for (i, byte) in encode(&b).to_le_bytes().into_iter().enumerate() {
            mem.write_u8(0x5000 + i as u32, byte);
        }
        assert_eq!(mem.fetch(1, 0x1000), b);
        assert_eq!(mem.fetch(1, 0x5000), b);
        // An unaligned store clears both words it touches.
        mem.write_u32(0x1002, 0);
        assert_eq!(mem.fetch(0, 0x1000), decode_word(mem.read_u32(0x1000)));
        assert_eq!(mem.fetch(0, 0x1004), decode_word(mem.read_u32(0x1004)));
    }
}
