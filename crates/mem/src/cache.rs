//! Set-associative cache tag/state array with LRU replacement and
//! replacement-vs-invalidation miss classification.
//!
//! The paper's miss-rate tables split every cache's misses into a
//! *replacement* component (cold + capacity + conflict; `L1R`, `L2R`) and an
//! *invalidation* component caused by coherence actions (`L1I`, `L2I`).
//! [`CacheArray`] implements the classification the way the original
//! SimOS-era simulators did: when a line is invalidated by a coherence
//! action, its address is remembered; the next miss to that address is an
//! invalidation miss, any other miss is a replacement miss.
//!
//! The array is policy-free: the topology (its owner) decides what states
//! mean (write-through caches only use [`LineState::Shared`] as "valid") and
//! when to call [`CacheArray::set_state`], [`CacheArray::invalidate`], etc.

use crate::config::CacheSpec;
use crate::{Addr, LINE_BYTES};
use cmpsim_engine::FastSet;

/// MESI-style line states. Write-through caches use only `Invalid`/`Shared`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LineState {
    Invalid,
    Shared,
    Exclusive,
    Modified,
}

impl LineState {
    /// Whether a line in this state holds valid data.
    pub fn is_valid(self) -> bool {
        self != LineState::Invalid
    }
    /// Whether the line must be written back on eviction.
    pub fn is_dirty(self) -> bool {
        self == LineState::Modified
    }
}

/// Why a miss happened, for the paper's R/I miss breakdown.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MissKind {
    /// Cold, capacity or conflict miss (`L1R`/`L2R`).
    Replacement,
    /// The line was previously invalidated by a coherence action
    /// (`L1I`/`L2I`).
    Invalidation,
}

/// A line evicted by [`CacheArray::fill`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Victim {
    /// Line-aligned address of the evicted line.
    pub addr: Addr,
    /// Whether the victim was modified (needs a write-back).
    pub dirty: bool,
}

/// Result of [`CacheArray::lookup`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessOutcome {
    /// Present; carries the line state.
    Hit(LineState),
    /// Absent; carries the miss classification.
    Miss(MissKind),
}

/// A set-associative tag/state array.
///
/// # Examples
///
/// ```
/// use cmpsim_mem::{CacheArray, CacheSpec, LineState, AccessOutcome, MissKind};
///
/// let mut c = CacheArray::new("l1d", CacheSpec::new(1024, 2));
/// assert_eq!(c.lookup(0x40), AccessOutcome::Miss(MissKind::Replacement));
/// c.fill(0x40, LineState::Exclusive);
/// assert_eq!(c.lookup(0x40), AccessOutcome::Hit(LineState::Exclusive));
/// ```
/// Storage is one packed metadata word per way, indexed
/// `set * assoc + way`, and nothing else per way. A line-aligned address
/// leaves its low `log2(LINE_BYTES)` = 5 bits free, so the word is the
/// line-aligned tag OR'd with the 2-bit line state in bits 0–1 and the
/// way's exact-LRU rank in bits 2–4. A probe therefore touches a single
/// contiguous array — one host cache line per set — which matters when
/// the simulated L2's metadata is megabytes wide and probed at random,
/// and replacement state costs no memory of its own.
///
/// Ranks order a set's ways by recency: the most recently used way has
/// rank 0 and, once every way has been touched, the ranks are a
/// permutation of `0..assoc`, so three bits hold up to
/// [`CacheSpec::MAX_ASSOC`] ways. A touch increments every other way of
/// the set whose rank is at most the touched way's and zeroes its own
/// (ways not yet touched share the highest rank); a hit on the MRU way
/// writes nothing. The set index is a shift-and-mask (power-of-two set
/// counts — the common case — pay no division).
#[derive(Debug, Clone)]
pub struct CacheArray {
    name: &'static str,
    spec: CacheSpec,
    n_sets: usize,
    /// `n_sets - 1` when the set count is a power of two, else `usize::MAX`
    /// as the "use modulo" sentinel (odd associativities).
    set_mask: usize,
    /// Per-way `line_addr | rank << 2 | state_code`; `state_code == 0` ⇔
    /// invalid.
    meta: Vec<Addr>,
    invalidated: FastSet<Addr>,
}

/// Low metadata bits holding the [`LineState`] code.
const STATE_BITS: Addr = 0b11;

/// Metadata bits holding the way's LRU rank (0 = most recently used).
const RANK_BITS: Addr = 0b111 << 2;

/// One LRU rank step in the metadata word.
const RANK_ONE: Addr = 1 << 2;

/// Metadata bits holding the line-aligned tag.
const TAG_BITS: Addr = !(LINE_BYTES - 1);

/// `log2(LINE_BYTES)`: a byte address shifted right by this is its line
/// number.
const LINE_SHIFT: u32 = LINE_BYTES.trailing_zeros();

/// Packs a [`LineState`] into the low metadata bits (`Invalid` is 0, so a
/// zeroed array is an empty cache).
#[inline]
fn state_code(state: LineState) -> Addr {
    match state {
        LineState::Invalid => 0,
        LineState::Shared => 1,
        LineState::Exclusive => 2,
        LineState::Modified => 3,
    }
}

/// Decodes the low metadata bits back into a [`LineState`].
#[inline]
fn code_state(meta: Addr) -> LineState {
    match meta & STATE_BITS {
        0 => LineState::Invalid,
        1 => LineState::Shared,
        2 => LineState::Exclusive,
        _ => LineState::Modified,
    }
}

impl CacheArray {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if the spec is internally inconsistent (see
    /// [`CacheSpec::try_new`]).
    pub fn new(name: &'static str, spec: CacheSpec) -> CacheArray {
        if let Err(e) = CacheSpec::try_new(spec.size_bytes, spec.assoc) {
            panic!("{name}: {e}");
        }
        let n_sets = spec.n_sets();
        let n_lines = n_sets * spec.assoc;
        CacheArray {
            name,
            spec,
            n_sets,
            set_mask: if n_sets.is_power_of_two() {
                n_sets - 1
            } else {
                usize::MAX
            },
            meta: vec![0; n_lines],
            invalidated: FastSet::default(),
        }
    }

    /// Line-aligned address of `addr`.
    #[inline]
    pub fn line_addr(&self, addr: Addr) -> Addr {
        addr & TAG_BITS
    }

    #[inline]
    fn set_range(&self, addr: Addr) -> std::ops::Range<usize> {
        let idx = (addr >> LINE_SHIFT) as usize;
        let set = if self.set_mask != usize::MAX {
            idx & self.set_mask
        } else {
            idx % self.n_sets
        };
        let start = set * self.spec.assoc;
        start..start + self.spec.assoc
    }

    #[inline]
    fn find(&self, addr: Addr) -> Option<usize> {
        let la = self.line_addr(addr);
        self.set_range(addr)
            .find(|&i| self.meta[i] & TAG_BITS == la && self.meta[i] & STATE_BITS != 0)
    }

    /// Records way `i` of the set `range` as most recently used: it takes
    /// rank 0, and every other way ranked at or below its old rank ages by
    /// one.
    #[inline]
    fn touch_way(&mut self, range: std::ops::Range<usize>, i: usize) {
        let rank = self.meta[i] & RANK_BITS;
        for j in range {
            if j != i && self.meta[j] & RANK_BITS <= rank {
                self.meta[j] += RANK_ONE;
            }
        }
        self.meta[i] &= !RANK_BITS;
    }

    /// Records the resident way `i` of `addr`'s set as most recently used.
    /// The MRU way is the one way of rank 0, so hitting it again — most
    /// hits — writes nothing.
    #[inline]
    fn touch_hit(&mut self, addr: Addr, i: usize) {
        if self.meta[i] & RANK_BITS != 0 {
            self.touch_way(self.set_range(addr), i);
        }
    }

    /// Looks up `addr`, updating LRU on a hit. Misses are classified but no
    /// fill happens; the caller decides whether/what to fill.
    #[inline]
    pub fn lookup(&mut self, addr: Addr) -> AccessOutcome {
        match self.find(addr) {
            Some(i) => {
                self.touch_hit(addr, i);
                AccessOutcome::Hit(code_state(self.meta[i]))
            }
            None => {
                let la = self.line_addr(addr);
                let kind = if self.invalidated.contains(&la) {
                    MissKind::Invalidation
                } else {
                    MissKind::Replacement
                };
                AccessOutcome::Miss(kind)
            }
        }
    }

    /// Touches `addr` for LRU purposes without classifying a miss: the
    /// store path's L1 recency update, where the hit/miss outcome is
    /// unused and the invalidated-set probe would be wasted work. The LRU
    /// update is identical to [`CacheArray::lookup`]'s.
    #[inline]
    pub fn touch(&mut self, addr: Addr) {
        if let Some(i) = self.find(addr) {
            self.touch_hit(addr, i);
        }
    }

    /// Looks up `addr` and, on a hit, also sets the line's state — a
    /// store's lookup-and-modify in one set walk instead of two. The
    /// returned outcome carries the state *before* the update, exactly as
    /// a [`CacheArray::lookup`] followed by [`CacheArray::set_state`]
    /// would observe it.
    #[inline]
    pub fn lookup_set(&mut self, addr: Addr, state: LineState) -> AccessOutcome {
        match self.find(addr) {
            Some(i) => {
                self.touch_hit(addr, i);
                let old = code_state(self.meta[i]);
                self.meta[i] = (self.meta[i] & !STATE_BITS) | state_code(state);
                AccessOutcome::Hit(old)
            }
            None => {
                let la = self.line_addr(addr);
                let kind = if self.invalidated.contains(&la) {
                    MissKind::Invalidation
                } else {
                    MissKind::Replacement
                };
                AccessOutcome::Miss(kind)
            }
        }
    }

    /// State of the line containing `addr` without touching LRU (snoops).
    #[inline]
    pub fn probe(&self, addr: Addr) -> LineState {
        self.find(addr)
            .map_or(LineState::Invalid, |i| code_state(self.meta[i]))
    }

    /// Way slot holding `addr`'s line, if resident; does not touch LRU.
    /// Slots index side tables kept parallel to the array (the shared-L2
    /// directory keeps its presence bitmaps per L2 way, as the hardware
    /// would).
    #[inline]
    pub fn slot_of(&self, addr: Addr) -> Option<usize> {
        self.find(addr)
    }

    /// Line address resident in way `slot`, if any (inverse of
    /// [`CacheArray::slot_of`], for diagnostics walking a side table).
    pub fn line_at_slot(&self, slot: usize) -> Option<Addr> {
        let m = self.meta[slot];
        (m & STATE_BITS != 0).then_some(m & TAG_BITS)
    }

    /// Total way slots (`n_sets * assoc`), the length of any parallel
    /// side table.
    pub fn n_slots(&self) -> usize {
        self.meta.len()
    }

    /// Inserts the line containing `addr` with `state`, evicting the LRU way
    /// (the highest rank) if the set is full. Returns the victim if a valid
    /// line was evicted.
    ///
    /// # Panics
    ///
    /// Panics if the line is already present (fills must follow misses).
    pub fn fill(&mut self, addr: Addr, state: LineState) -> Option<Victim> {
        assert!(
            self.find(addr).is_none(),
            "{}: fill of resident line {addr:#x}",
            self.name
        );
        let la = self.line_addr(addr);
        self.invalidated.remove(&la);
        let range = self.set_range(addr);
        // Prefer an invalid way; otherwise evict true-LRU: in a full set
        // every way has been touched, so the ranks are a permutation and
        // the highest is unique. Direct-mapped sets have exactly one
        // candidate either way.
        let slot = if self.spec.assoc == 1 {
            range.start
        } else {
            range
                .clone()
                .find(|&i| self.meta[i] & STATE_BITS == 0)
                .unwrap_or_else(|| {
                    range
                        .clone()
                        .max_by_key(|&i| self.meta[i] & RANK_BITS)
                        .expect("set_range is non-empty: CacheSpec::try_new rejects assoc == 0")
                })
        };
        let m = self.meta[slot];
        let victim = if m & STATE_BITS != 0 {
            Some(Victim {
                addr: m & TAG_BITS,
                dirty: code_state(m).is_dirty(),
            })
        } else {
            None
        };
        self.meta[slot] = la | (m & RANK_BITS) | state_code(state);
        self.touch_way(range, slot);
        victim
    }

    /// Sets the state of a resident line (e.g. `E -> M` on a write hit).
    ///
    /// # Panics
    ///
    /// Panics if the line is not resident.
    pub fn set_state(&mut self, addr: Addr, state: LineState) {
        let i = self
            .find(addr)
            .unwrap_or_else(|| panic!("{}: set_state on absent line {addr:#x}", self.name));
        self.meta[i] = (self.meta[i] & !STATE_BITS) | state_code(state);
    }

    /// Invalidates the line due to a *coherence action* and remembers it so
    /// the next miss on it is classified as an invalidation miss. Returns
    /// the previous state (`Invalid` if it was not resident).
    pub fn invalidate(&mut self, addr: Addr) -> LineState {
        match self.find(addr) {
            Some(i) => {
                let old = code_state(self.meta[i]);
                self.meta[i] &= !STATE_BITS;
                self.invalidated.insert(self.line_addr(addr));
                old
            }
            None => LineState::Invalid,
        }
    }

    /// Removes the line *without* marking it as coherence-invalidated (used
    /// for inclusion-driven back-invalidations accounted elsewhere, or for
    /// natural evictions driven by an outer level). Returns the old state.
    pub fn evict(&mut self, addr: Addr) -> LineState {
        match self.find(addr) {
            Some(i) => {
                let old = code_state(self.meta[i]);
                self.meta[i] &= !STATE_BITS;
                old
            }
            None => LineState::Invalid,
        }
    }

    /// Downgrades a resident Modified/Exclusive line to Shared (snoop read).
    /// No-op if not resident.
    pub fn downgrade(&mut self, addr: Addr) {
        if let Some(i) = self.find(addr) {
            self.meta[i] = (self.meta[i] & !STATE_BITS) | state_code(LineState::Shared);
        }
    }

    /// Number of valid lines currently resident.
    pub fn resident(&self) -> usize {
        self.meta.iter().filter(|&&m| m & STATE_BITS != 0).count()
    }

    /// Line addresses of every valid resident line (diagnostics and
    /// invariant checks).
    pub fn valid_lines(&self) -> Vec<Addr> {
        self.meta
            .iter()
            .filter(|&&m| m & STATE_BITS != 0)
            .map(|&m| m & TAG_BITS)
            .collect()
    }

    /// Cache geometry.
    pub fn spec(&self) -> CacheSpec {
        self.spec
    }

    /// Label for diagnostics.
    pub fn name(&self) -> &'static str {
        self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> CacheArray {
        // 2 sets x 2 ways x 32B lines = 128 B.
        CacheArray::new("t", CacheSpec::new(128, 2))
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = small();
        assert_eq!(c.lookup(0x100), AccessOutcome::Miss(MissKind::Replacement));
        assert_eq!(c.fill(0x100, LineState::Shared), None);
        assert_eq!(c.lookup(0x11f), AccessOutcome::Hit(LineState::Shared));
        assert_eq!(c.resident(), 1);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = small();
        // Set 0 holds lines whose (addr/32) is even: 0x00, 0x40, 0x80...
        c.fill(0x00, LineState::Shared);
        c.fill(0x40, LineState::Shared);
        // Touch 0x00 so 0x40 is LRU.
        assert!(matches!(c.lookup(0x00), AccessOutcome::Hit(_)));
        let v = c.fill(0x80, LineState::Shared).expect("conflict eviction");
        assert_eq!(v.addr, 0x40);
        assert!(!v.dirty);
        assert_eq!(c.probe(0x00), LineState::Shared);
        assert_eq!(c.probe(0x40), LineState::Invalid);
    }

    #[test]
    fn dirty_victim_reported() {
        let mut c = small();
        c.fill(0x00, LineState::Modified);
        c.fill(0x40, LineState::Shared);
        let v = c.fill(0x80, LineState::Shared).expect("eviction");
        assert_eq!(v.addr, 0x00);
        assert!(v.dirty);
    }

    #[test]
    fn invalidation_miss_classification() {
        let mut c = small();
        c.fill(0x00, LineState::Shared);
        assert_eq!(c.invalidate(0x00), LineState::Shared);
        assert_eq!(c.lookup(0x00), AccessOutcome::Miss(MissKind::Invalidation));
        // After refill, a natural eviction makes the next miss a replacement.
        c.fill(0x00, LineState::Shared);
        c.fill(0x40, LineState::Shared);
        c.fill(0x80, LineState::Shared); // evicts LRU (0x00)
        assert_eq!(c.probe(0x00), LineState::Invalid);
        assert_eq!(c.lookup(0x00), AccessOutcome::Miss(MissKind::Replacement));
    }

    #[test]
    fn evict_does_not_mark_invalidation() {
        let mut c = small();
        c.fill(0x00, LineState::Shared);
        assert_eq!(c.evict(0x00), LineState::Shared);
        assert_eq!(c.lookup(0x00), AccessOutcome::Miss(MissKind::Replacement));
    }

    #[test]
    fn probe_does_not_touch_lru() {
        let mut c = small();
        c.fill(0x00, LineState::Shared);
        c.fill(0x40, LineState::Shared);
        // Probing 0x00 must NOT make 0x40 the eviction victim.
        assert_eq!(c.probe(0x00), LineState::Shared);
        let v = c.fill(0x80, LineState::Shared).expect("eviction");
        assert_eq!(v.addr, 0x00, "probe must not refresh LRU");
    }

    #[test]
    fn invalidate_absent_line_is_noop() {
        let mut c = small();
        assert_eq!(c.invalidate(0x1000), LineState::Invalid);
        // Not resident when invalidated => still a replacement (cold) miss.
        // (The invalidated-set only tracks lines that were actually present.)
        assert_eq!(c.lookup(0x1000), AccessOutcome::Miss(MissKind::Replacement));
    }

    #[test]
    fn set_and_downgrade_state() {
        let mut c = small();
        c.fill(0x00, LineState::Exclusive);
        c.set_state(0x00, LineState::Modified);
        assert_eq!(c.probe(0x00), LineState::Modified);
        c.downgrade(0x00);
        assert_eq!(c.probe(0x00), LineState::Shared);
        c.downgrade(0x40); // absent: no-op
    }

    #[test]
    fn different_sets_do_not_conflict() {
        let mut c = small();
        c.fill(0x00, LineState::Shared); // set 0
        c.fill(0x20, LineState::Shared); // set 1
        c.fill(0x40, LineState::Shared); // set 0
        c.fill(0x60, LineState::Shared); // set 1
        assert_eq!(c.resident(), 4);
    }

    #[test]
    #[should_panic(expected = "fill of resident")]
    fn double_fill_panics() {
        let mut c = small();
        c.fill(0x00, LineState::Shared);
        c.fill(0x00, LineState::Shared);
    }
}
