//! Physical memory contents and address spaces.
//!
//! [`PhysMem`] stores the actual bytes the simulated programs compute on,
//! independent of any timing model, plus the per-CPU LL/SC link registers
//! that make the synchronization runtime work. All reads are *total*: an
//! unmapped or unaligned address reads as zero bytes rather than faulting,
//! so speculative wrong-path execution under the MXS model is harmless.
//!
//! It also holds the machine's one decoded-instruction memo (a host-speed
//! optimization, not a microarchitectural structure, one `DecodedPage` per
//! code page): [`PhysMem::fetch`] decodes each word of a page once, for
//! every CPU, and every write clears the decodes of the words it touches,
//! so a fetch always returns what a fresh decode of memory would.
//!
//! [`AddrSpace`] provides the minimal address translation the
//! multiprogramming workload needs: each process's private virtual range is
//! relocated to a disjoint physical range, while the kernel range above
//! [`KERNEL_BASE`] maps identically in every process (shared kernel code and
//! data, as in IRIX).

use crate::decode::{decode_word, DecodedPage};
use crate::{Addr, CpuId, LINE_BYTES};
use cmpsim_engine::FastMap;
use cmpsim_isa::Instr;
use std::cell::Cell;

const PAGE_SHIFT: u32 = 12;
pub(crate) const PAGE_BYTES: usize = 1 << PAGE_SHIFT;

/// LL/SC links are per cache line, as in the paper.
const LINE_MASK: Addr = !(LINE_BYTES - 1);

/// Virtual addresses at or above this value are kernel addresses, mapped
/// identically in every address space.
pub const KERNEL_BASE: Addr = 0xC000_0000;

/// One physical page frame: its bytes and, once code has been fetched
/// from it, the memoized decode of each of its words.
#[derive(Debug, Clone)]
struct Frame {
    bytes: Box<[u8; PAGE_BYTES]>,
    /// Allocated on the frame's first fetch.
    decoded: Option<DecodedPage>,
}

impl Frame {
    /// Stores `bytes` at `off` and forgets the decodes of the (at most
    /// two) words they touch.
    fn write(&mut self, off: usize, bytes: &[u8]) {
        self.bytes[off..off + bytes.len()].copy_from_slice(bytes);
        if let Some(decoded) = &mut self.decoded {
            decoded.clear(off, bytes.len());
        }
    }

    /// The memoized decode of the word at `off`, if there is one.
    fn decoded(&self, off: usize) -> Option<Instr> {
        self.decoded.as_ref()?.get(off)
    }

    /// The instruction in the word at `off` (word-aligned), decoded at most
    /// once between writes to that word.
    fn fetch(&mut self, off: usize) -> Instr {
        let decoded = self.decoded.get_or_insert_with(DecodedPage::new);
        if let Some(instr) = decoded.get(off) {
            return instr;
        }
        let word = u32::from_le_bytes(
            self.bytes[off..off + 4]
                .try_into()
                .expect("4-byte span: off is word-aligned within the page"),
        );
        decoded.fill(off, word)
    }
}

/// Sparse physical memory with per-CPU LL/SC links and the machine's
/// decoded-instruction memo.
///
/// # Examples
///
/// ```
/// use cmpsim_isa::{encode, Instr};
/// use cmpsim_mem::PhysMem;
/// let mut m = PhysMem::new(4);
/// m.write_u32(0x100, 0xdeadbeef);
/// assert_eq!(m.read_u32(0x100), 0xdeadbeef);
/// assert_eq!(m.read_u32(0x9999_0000), 0, "unmapped reads as zero");
///
/// // LL/SC: a store by another CPU breaks the link.
/// m.set_link(0, 0x200);
/// m.snoop_store(0x200);
/// m.write_u32(0x200, 7);
/// assert!(!m.check_and_clear_link(0, 0x200));
///
/// // Fetches see every store, even to an already decoded word.
/// m.write_u32(0x300, encode(&Instr::Halt));
/// assert_eq!(m.fetch(1, 0x300), Instr::Halt);
/// m.write_u32(0x300, encode(&Instr::Sync));
/// assert_eq!(m.fetch(2, 0x300), Instr::Sync);
/// ```
#[derive(Debug, Clone)]
pub struct PhysMem {
    /// Page frames; `index` maps page numbers to slots here. A slot never
    /// changes page, so a slot packed beside its page stays valid forever.
    frames: Vec<Frame>,
    index: FastMap<u32, u32>,
    /// One-entry translation cache, packed `page << 32 | (slot + 1)`; a
    /// zero slot field means invalid. Simulated memory access is the
    /// hottest loop in the whole simulator and exhibits strong page
    /// locality.
    last: Cell<u64>,
    /// Per-CPU fetch hint: the CPU's last code page and its slot, packed
    /// like `last`. Instruction fetch stays on one page for long runs, but
    /// data accesses in between move `last`.
    fetch_hints: Vec<u64>,
    /// Per-CPU link register: line address of an outstanding LL.
    links: Vec<Option<Addr>>,
}

impl PhysMem {
    /// Creates empty memory serving `n_cpus` CPUs (link registers and
    /// fetch hints). The LL/SC link granularity is the 32-byte cache line
    /// used throughout the paper.
    pub fn new(n_cpus: usize) -> PhysMem {
        PhysMem {
            frames: Vec::new(),
            index: FastMap::default(),
            last: Cell::new(0),
            fetch_hints: vec![0; n_cpus],
            links: vec![None; n_cpus],
        }
    }

    fn page_of(addr: Addr) -> (u32, usize) {
        (addr >> PAGE_SHIFT, (addr as usize) & (PAGE_BYTES - 1))
    }

    fn pack(page: u32, slot: u32) -> u64 {
        (u64::from(page) << 32) | u64::from(slot + 1)
    }

    /// The slot packed in `packed` if it caches `page`.
    fn unpack(packed: u64, page: u32) -> Option<usize> {
        (packed as u32 != 0 && (packed >> 32) as u32 == page).then(|| packed as u32 as usize - 1)
    }

    /// Resolves a page number to a frame slot, if mapped (cached).
    fn slot_of(&self, page: u32) -> Option<usize> {
        if let Some(slot) = Self::unpack(self.last.get(), page) {
            return Some(slot);
        }
        let slot = *self.index.get(&page)?;
        self.last.set(Self::pack(page, slot));
        Some(slot as usize)
    }

    /// Resolves or allocates the frame slot for `page`.
    fn slot_or_alloc(&mut self, page: u32) -> usize {
        if let Some(s) = self.slot_of(page) {
            return s;
        }
        let slot = self.frames.len() as u32;
        self.frames.push(Frame {
            bytes: Box::new([0u8; PAGE_BYTES]),
            decoded: None,
        });
        self.index.insert(page, slot);
        self.last.set(Self::pack(page, slot));
        slot as usize
    }

    /// Reads one byte; unmapped memory reads as zero.
    pub fn read_u8(&self, addr: Addr) -> u8 {
        let (page, off) = Self::page_of(addr);
        match self.slot_of(page) {
            Some(s) => self.frames[s].bytes[off],
            None => 0,
        }
    }

    /// Writes one byte, allocating the page on demand.
    pub fn write_u8(&mut self, addr: Addr, value: u8) {
        let (page, off) = Self::page_of(addr);
        let slot = self.slot_or_alloc(page);
        self.frames[slot].write(off, &[value]);
    }

    /// Reads a little-endian `u32`. Works for unaligned addresses (byte-wise).
    pub fn read_u32(&self, addr: Addr) -> u32 {
        let (page, off) = Self::page_of(addr);
        if off + 4 <= PAGE_BYTES {
            match self.slot_of(page) {
                Some(s) => u32::from_le_bytes(
                    self.frames[s].bytes[off..off + 4]
                        .try_into()
                        .expect("4-byte span: bounds checked against PAGE_BYTES above"),
                ),
                None => 0,
            }
        } else {
            let mut bytes = [0u8; 4];
            for (i, b) in bytes.iter_mut().enumerate() {
                *b = self.read_u8(addr.wrapping_add(i as u32));
            }
            u32::from_le_bytes(bytes)
        }
    }

    /// Writes a little-endian `u32`.
    pub fn write_u32(&mut self, addr: Addr, value: u32) {
        let (page, off) = Self::page_of(addr);
        if off + 4 <= PAGE_BYTES {
            let slot = self.slot_or_alloc(page);
            self.frames[slot].write(off, &value.to_le_bytes());
        } else {
            for (i, b) in value.to_le_bytes().iter().enumerate() {
                self.write_u8(addr.wrapping_add(i as u32), *b);
            }
        }
    }

    /// Reads a little-endian `u64`.
    pub fn read_u64(&self, addr: Addr) -> u64 {
        u64::from(self.read_u32(addr)) | (u64::from(self.read_u32(addr.wrapping_add(4))) << 32)
    }

    /// Writes a little-endian `u64`.
    pub fn write_u64(&mut self, addr: Addr, value: u64) {
        self.write_u32(addr, value as u32);
        self.write_u32(addr.wrapping_add(4), (value >> 32) as u32);
    }

    /// Reads an `f64` stored by [`PhysMem::write_f64`].
    pub fn read_f64(&self, addr: Addr) -> f64 {
        f64::from_bits(self.read_u64(addr))
    }

    /// Writes an `f64`.
    pub fn write_f64(&mut self, addr: Addr, value: f64) {
        self.write_u64(addr, value.to_bits());
    }

    /// Reads an `f32` (widening to `f64` is up to the caller).
    pub fn read_f32(&self, addr: Addr) -> f32 {
        f32::from_bits(self.read_u32(addr))
    }

    /// Writes an `f32`.
    pub fn write_f32(&mut self, addr: Addr, value: f32) {
        self.write_u32(addr, value.to_bits());
    }

    /// Copies a program image (assembled words) into memory at `base`.
    pub fn load_words(&mut self, base: Addr, words: &[u32]) {
        for (i, &w) in words.iter().enumerate() {
            self.write_u32(base + (i as u32) * 4, w);
        }
    }

    /// Establishes CPU `cpu`'s LL link on the line containing `addr`.
    pub fn set_link(&mut self, cpu: CpuId, addr: Addr) {
        self.links[cpu] = Some(addr & LINE_MASK);
    }

    /// Atomically checks and consumes the link for an SC. Returns whether
    /// the SC may proceed. On success the caller performs the store
    /// (`snoop_store`, then the write).
    pub fn check_and_clear_link(&mut self, cpu: CpuId, addr: Addr) -> bool {
        let ok = self.links[cpu] == Some(addr & LINE_MASK);
        self.links[cpu] = None;
        ok
    }

    /// Invalidates all links to `addr`'s line. Every simulated store, of
    /// any size, calls this before its plain write.
    pub fn snoop_store(&mut self, addr: Addr) {
        let line = addr & LINE_MASK;
        for link in &mut self.links {
            if *link == Some(line) {
                *link = None;
            }
        }
    }

    /// Fetches the instruction at `pa` (word-aligned by truncation) for
    /// CPU `cpu`: always `decode(read_u32(pa & !3))`, an undecodable word
    /// as `NOP`.
    ///
    /// Decodes are memoized per frame, shared by every CPU, and cleared
    /// word by word by every write, so no context switch, address-space
    /// change or rewritten instruction can serve a stale decode. A fetch
    /// from an unmapped page decodes a zero word without allocating.
    #[inline]
    pub fn fetch(&mut self, cpu: CpuId, pa: Addr) -> Instr {
        let (page, off) = Self::page_of(pa & !3);
        if let Some(slot) = Self::unpack(self.fetch_hints[cpu], page) {
            if let Some(instr) = self.frames[slot].decoded(off) {
                return instr;
            }
        }
        self.fetch_slow(cpu, page, off)
    }

    /// [`PhysMem::fetch`] off its fast path (a page crossing or a word
    /// not yet decoded): resolves the page, points the CPU's hint at it
    /// and decodes through the frame's memo.
    #[cold]
    fn fetch_slow(&mut self, cpu: CpuId, page: u32, off: usize) -> Instr {
        let Some(slot) = self.slot_of(page) else {
            return decode_word(0);
        };
        self.fetch_hints[cpu] = Self::pack(page, slot as u32);
        self.frames[slot].fetch(off)
    }

    /// Number of resident (allocated) pages; useful in tests.
    pub fn resident_pages(&self) -> usize {
        self.frames.len()
    }

    /// Number of pages code has been fetched from, each holding one
    /// decoded-instruction memo whichever CPUs fetch from it; useful in
    /// tests.
    pub fn decoded_pages(&self) -> usize {
        self.frames.iter().filter(|f| f.decoded.is_some()).count()
    }

    /// CPU `cpu`'s outstanding LL reservation, if any (watchdog diagnostics).
    pub fn link(&self, cpu: CpuId) -> Option<Addr> {
        self.links.get(cpu).copied().flatten()
    }
}

/// Per-process address translation for the multiprogramming workload.
///
/// Virtual addresses below [`KERNEL_BASE`] are private to the process and
/// relocated by `asid * priv_bytes`; kernel addresses map identically.
///
/// # Examples
///
/// ```
/// use cmpsim_mem::{AddrSpace, KERNEL_BASE};
/// let a0 = AddrSpace::new(0, 0x0100_0000);
/// let a1 = AddrSpace::new(1, 0x0100_0000);
/// assert_eq!(a0.translate(0x1000), 0x1000);
/// assert_eq!(a1.translate(0x1000), 0x0100_1000);
/// assert_eq!(a1.translate(KERNEL_BASE + 8), KERNEL_BASE + 8);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AddrSpace {
    asid: u32,
    priv_bytes: u32,
}

impl AddrSpace {
    /// Creates the address space for process `asid`, giving each process
    /// `priv_bytes` of private physical memory.
    ///
    /// # Panics
    ///
    /// Panics if the private region of this `asid` would reach
    /// [`KERNEL_BASE`]. Use [`AddrSpace::try_new`] for a fallible variant.
    pub fn new(asid: u32, priv_bytes: u32) -> AddrSpace {
        AddrSpace::try_new(asid, priv_bytes).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible constructor: rejects an `asid` whose private region would
    /// reach [`KERNEL_BASE`].
    pub fn try_new(asid: u32, priv_bytes: u32) -> Result<AddrSpace, crate::ConfigError> {
        let end = (u64::from(asid) + 1) * u64::from(priv_bytes);
        if end > u64::from(KERNEL_BASE) {
            return Err(crate::ConfigError::KernelOverlap { asid });
        }
        Ok(AddrSpace { asid, priv_bytes })
    }

    /// The identity address space (parallel applications, asid 0).
    pub fn identity() -> AddrSpace {
        AddrSpace {
            asid: 0,
            priv_bytes: 0,
        }
    }

    /// Translates a virtual address to physical.
    pub fn translate(&self, va: Addr) -> Addr {
        if va >= KERNEL_BASE {
            va
        } else {
            va.wrapping_add(self.asid.wrapping_mul(self.priv_bytes))
        }
    }

    /// The process id this space belongs to.
    pub fn asid(&self) -> u32 {
        self.asid
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_write_roundtrip_all_widths() {
        let mut m = PhysMem::new(1);
        m.write_u8(10, 0xab);
        assert_eq!(m.read_u8(10), 0xab);
        m.write_u32(100, 0x1234_5678);
        assert_eq!(m.read_u32(100), 0x1234_5678);
        m.write_u64(200, 0xdead_beef_cafe_f00d);
        assert_eq!(m.read_u64(200), 0xdead_beef_cafe_f00d);
        m.write_f64(300, -3.25);
        assert_eq!(m.read_f64(300), -3.25);
        m.write_f32(400, 1.5);
        assert_eq!(m.read_f32(400), 1.5);
    }

    #[test]
    fn unmapped_reads_zero_without_allocating() {
        let m = PhysMem::new(1);
        assert_eq!(m.read_u32(0xFFFF_0000), 0);
        assert_eq!(m.read_u64(0x1234), 0);
        assert_eq!(m.resident_pages(), 0);
    }

    #[test]
    fn cross_page_access_works() {
        let mut m = PhysMem::new(1);
        let addr = (1 << PAGE_SHIFT) - 2; // straddles page 0 and 1
        m.write_u32(addr, 0xa1b2_c3d4);
        assert_eq!(m.read_u32(addr), 0xa1b2_c3d4);
        assert_eq!(m.resident_pages(), 2);
    }

    #[test]
    fn little_endian_layout() {
        let mut m = PhysMem::new(1);
        m.write_u32(0, 0x0403_0201);
        assert_eq!(m.read_u8(0), 1);
        assert_eq!(m.read_u8(3), 4);
    }

    #[test]
    fn ll_sc_success_and_failure() {
        let mut m = PhysMem::new(2);
        m.set_link(0, 0x104);
        // Same line (0x100..0x120): SC succeeds.
        assert!(m.check_and_clear_link(0, 0x118));
        // Link consumed: a second SC fails.
        assert!(!m.check_and_clear_link(0, 0x118));
    }

    #[test]
    fn store_by_other_cpu_breaks_link() {
        let mut m = PhysMem::new(2);
        m.set_link(0, 0x100);
        m.snoop_store(0x11c); // same 32-byte line
        m.write_u32(0x11c, 5);
        assert!(!m.check_and_clear_link(0, 0x100));

        m.set_link(0, 0x100);
        m.snoop_store(0x120); // different line
        m.write_u32(0x120, 5);
        assert!(m.check_and_clear_link(0, 0x100));
    }

    #[test]
    fn own_store_breaks_own_link() {
        let mut m = PhysMem::new(1);
        m.set_link(0, 0x40);
        m.snoop_store(0x44);
        m.write_u32(0x44, 9);
        assert!(!m.check_and_clear_link(0, 0x40));
    }

    #[test]
    fn load_words_places_program() {
        let mut m = PhysMem::new(1);
        m.load_words(0x1000, &[1, 2, 3]);
        assert_eq!(m.read_u32(0x1000), 1);
        assert_eq!(m.read_u32(0x1008), 3);
    }

    #[test]
    fn one_memo_per_page_whichever_cpus_fetch() {
        let mut m = PhysMem::new(3);
        m.write_u32(0x1000, 1);
        m.write_u32(0x8000, 2);
        assert_eq!(m.decoded_pages(), 0, "writes decode nothing");
        for cpu in 0..3 {
            for k in 0..16 {
                m.fetch(cpu, 0x1000 + k * 4);
            }
        }
        assert_eq!(m.decoded_pages(), 1);
        // An unmapped page decodes a zero word and allocates nothing.
        assert_eq!(m.fetch(2, 0x7_0000), decode_word(0));
        assert_eq!((m.resident_pages(), m.decoded_pages()), (2, 1));
    }

    #[test]
    fn addr_space_translation() {
        let a2 = AddrSpace::new(2, 0x10_0000);
        assert_eq!(a2.translate(0x100), 0x20_0100);
        assert_eq!(a2.translate(KERNEL_BASE), KERNEL_BASE);
        assert_eq!(AddrSpace::identity().translate(0xabc), 0xabc);
        assert_eq!(a2.asid(), 2);
    }

    #[test]
    #[should_panic(expected = "overlaps kernel")]
    fn addr_space_kernel_overlap_rejected() {
        let _ = AddrSpace::new(3, 0x4000_0000);
    }

    #[test]
    fn addr_space_try_new_returns_typed_error() {
        let err = AddrSpace::try_new(3, 0x4000_0000).unwrap_err();
        assert!(matches!(err, crate::ConfigError::KernelOverlap { asid: 3 }));
        assert!(AddrSpace::try_new(3, 0x1000_0000).is_ok());
    }

    #[test]
    fn link_reports_the_reserved_line() {
        let mut m = PhysMem::new(1);
        assert!(m.link(0).is_none());
        m.set_link(0, 0x104);
        assert_eq!(m.link(0), Some(0x100));
    }
}
