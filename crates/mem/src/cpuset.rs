//! A CPU/node bitset with a fixed small-size fast path.
//!
//! Every layer that tracks sharers — the directory's presence table and
//! the sentinel's residency checks — used to carry raw `u32`/`u64`
//! bitmasks, structurally capping configurations at 32 CPUs. [`CpuSet`]
//! lifts that: the first 64 members live in one inline word (no heap
//! traffic, so ≤64-CPU configurations keep the old single-word
//! arithmetic), and larger configurations spill into extra words
//! allocated on first use. Results are identical either way — the
//! representation is invisible to digests.

/// A set of CPU (or node) indices, backed by 64-bit words.
///
/// Word 0 is stored inline; words for indices ≥64 live in a spill vector
/// that stays unallocated until a large index is inserted. All operations
/// on sets confined to the inline word are branch-plus-bit-arithmetic,
/// matching the cost of the raw bitmasks this type replaced.
#[derive(Debug, Clone, Default)]
pub struct CpuSet {
    /// Bits 0..64.
    word0: u64,
    /// Bits 64.. in 64-bit words: `spill[k]` holds indices `64*(k+1)..`.
    /// Empty (never allocated) for small configurations. Trailing zero
    /// words are permitted — equality is logical, ignoring them.
    spill: Vec<u64>,
}

impl PartialEq for CpuSet {
    fn eq(&self, other: &CpuSet) -> bool {
        let n = self.spill.len().max(other.spill.len()) + 1;
        self.word0 == other.word0 && (1..n).all(|w| self.word(w) == other.word(w))
    }
}

impl Eq for CpuSet {}

impl CpuSet {
    /// Largest CPU index + 1 the simulator accepts in a validated
    /// configuration. The representation itself is unbounded; this is the
    /// sanity ceiling `SystemConfig::validate` enforces so a typo'd CPU
    /// count fails fast instead of allocating gigabytes of cache model.
    pub const MAX_CPUS: usize = 1024;

    /// The empty set (usable in `const`/`static` position).
    pub const EMPTY: CpuSet = CpuSet {
        word0: 0,
        spill: Vec::new(),
    };

    /// An empty set.
    #[inline]
    pub fn new() -> CpuSet {
        CpuSet::EMPTY
    }

    /// A set containing exactly `i`.
    #[inline]
    pub fn single(i: usize) -> CpuSet {
        let mut s = CpuSet::new();
        s.set(i);
        s
    }

    #[inline]
    fn word(&self, w: usize) -> u64 {
        if w == 0 {
            self.word0
        } else {
            self.spill.get(w - 1).copied().unwrap_or(0)
        }
    }

    #[inline]
    fn word_mut(&mut self, w: usize) -> &mut u64 {
        if w == 0 {
            &mut self.word0
        } else {
            if self.spill.len() < w {
                self.spill.resize(w, 0);
            }
            &mut self.spill[w - 1]
        }
    }

    /// Inserts `i`.
    #[inline]
    pub fn set(&mut self, i: usize) {
        *self.word_mut(i >> 6) |= 1u64 << (i & 63);
    }

    /// Removes `i`.
    #[inline]
    pub fn clear(&mut self, i: usize) {
        let w = i >> 6;
        if w == 0 {
            self.word0 &= !(1u64 << (i & 63));
        } else if let Some(word) = self.spill.get_mut(w - 1) {
            *word &= !(1u64 << (i & 63));
        }
    }

    /// Is `i` a member?
    #[inline]
    pub fn contains(&self, i: usize) -> bool {
        self.word(i >> 6) & (1u64 << (i & 63)) != 0
    }

    /// Is the set empty?
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.word0 == 0 && self.spill.iter().all(|&w| w == 0)
    }

    /// Number of members.
    #[inline]
    pub fn len(&self) -> usize {
        self.word0.count_ones() as usize
            + self
                .spill
                .iter()
                .map(|w| w.count_ones() as usize)
                .sum::<usize>()
    }

    /// The set minus member `i` — the "every sharer except the writer"
    /// victim mask the invalidation path computes on each store.
    #[inline]
    pub fn except(&self, i: usize) -> CpuSet {
        let mut out = self.clone();
        out.clear(i);
        out
    }

    /// Removes every member of `other` from `self`.
    #[inline]
    pub fn subtract(&mut self, other: &CpuSet) {
        self.word0 &= !other.word0;
        for (w, o) in self.spill.iter_mut().zip(&other.spill) {
            *w &= !o;
        }
    }

    /// Does the set contain any member other than `i`? This is the
    /// only-other-sharer probe: the directory's "anyone else to
    /// invalidate?" early-out.
    #[inline]
    pub fn contains_other(&self, i: usize) -> bool {
        let w = i >> 6;
        let masked = self.word(w) & !(1u64 << (i & 63));
        if masked != 0 {
            return true;
        }
        if w == 0 {
            self.spill.iter().any(|&x| x != 0)
        } else {
            self.word0 != 0
                || self
                    .spill
                    .iter()
                    .enumerate()
                    .any(|(k, &x)| k + 1 != w && x != 0)
        }
    }

    /// Iterates the members in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        let words = std::iter::once(self.word0).chain(self.spill.iter().copied());
        words.enumerate().flat_map(|(wi, mut w)| {
            std::iter::from_fn(move || {
                if w == 0 {
                    return None;
                }
                let b = w.trailing_zeros() as usize;
                w &= w - 1;
                Some((wi << 6) | b)
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmpsim_engine::prop::{self, Source};

    /// A naive model: membership as `Vec<bool>`.
    fn model_of(set: &CpuSet, n: usize) -> Vec<bool> {
        (0..n).map(|i| set.contains(i)).collect()
    }

    fn arbitrary_indices(src: &mut Source) -> Vec<usize> {
        // Bias half the draws into the inline word and half into spill
        // territory so both representations shrink independently.
        src.vec(0..40, |s| {
            if s.bool() {
                s.usize(0..64)
            } else {
                s.usize(0..CpuSet::MAX_CPUS)
            }
        })
    }

    #[test]
    fn prop_set_clear_contains_matches_vec_bool_model() {
        prop::check("cpuset set/clear/contains vs Vec<bool>", |src| {
            let mut set = CpuSet::new();
            let mut model = vec![false; CpuSet::MAX_CPUS];
            for i in arbitrary_indices(src) {
                if src.bool() {
                    set.set(i);
                    model[i] = true;
                } else {
                    set.clear(i);
                    model[i] = false;
                }
            }
            assert_eq!(model_of(&set, CpuSet::MAX_CPUS), model);
            assert_eq!(set.is_empty(), model.iter().all(|&b| !b));
            assert_eq!(set.len(), model.iter().filter(|&&b| b).count());
        });
    }

    #[test]
    fn prop_iter_yields_exactly_the_members_in_order() {
        prop::check("cpuset iter vs Vec<bool>", |src| {
            let mut set = CpuSet::new();
            let mut model = vec![false; CpuSet::MAX_CPUS];
            for i in arbitrary_indices(src) {
                set.set(i);
                model[i] = true;
            }
            let from_iter: Vec<usize> = set.iter().collect();
            let from_model: Vec<usize> = (0..CpuSet::MAX_CPUS).filter(|&i| model[i]).collect();
            assert_eq!(from_iter, from_model);
        });
    }

    #[test]
    fn prop_only_other_sharer_matches_model() {
        prop::check("cpuset contains_other vs Vec<bool>", |src| {
            let mut set = CpuSet::new();
            let mut model = vec![false; CpuSet::MAX_CPUS];
            for i in arbitrary_indices(src) {
                set.set(i);
                model[i] = true;
            }
            let probe = src.usize(0..CpuSet::MAX_CPUS);
            let expect = (0..CpuSet::MAX_CPUS).any(|i| i != probe && model[i]);
            assert_eq!(set.contains_other(probe), expect, "probe {probe}");
        });
    }

    #[test]
    fn prop_except_and_subtract_match_model() {
        prop::check("cpuset except/subtract vs Vec<bool>", |src| {
            let mut a = CpuSet::new();
            let mut b = CpuSet::new();
            let mut ma = vec![false; CpuSet::MAX_CPUS];
            let mut mb = vec![false; CpuSet::MAX_CPUS];
            for i in arbitrary_indices(src) {
                a.set(i);
                ma[i] = true;
            }
            for i in arbitrary_indices(src) {
                b.set(i);
                mb[i] = true;
            }
            let writer = src.usize(0..CpuSet::MAX_CPUS);
            let victims = a.except(writer);
            let mut mv = ma.clone();
            mv[writer] = false;
            assert_eq!(model_of(&victims, CpuSet::MAX_CPUS), mv);
            // `except` leaves the source untouched.
            assert_eq!(model_of(&a, CpuSet::MAX_CPUS), ma);
            a.subtract(&b);
            for i in 0..CpuSet::MAX_CPUS {
                ma[i] &= !mb[i];
            }
            assert_eq!(model_of(&a, CpuSet::MAX_CPUS), ma);
        });
    }

    #[test]
    fn small_sets_never_touch_the_heap() {
        let mut s = CpuSet::new();
        for i in 0..64 {
            s.set(i);
        }
        s.clear(63);
        assert_eq!(s.spill.capacity(), 0, "inline fast path must not spill");
        assert_eq!(s.len(), 63);
        assert!(s.contains_other(0));
        assert!(!CpuSet::single(5).contains_other(5));
    }

    #[test]
    fn take_leaves_an_empty_set() {
        let mut s = CpuSet::single(70);
        let taken = std::mem::take(&mut s);
        assert!(taken.contains(70));
        assert!(s.is_empty());
    }
}
