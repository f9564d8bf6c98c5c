//! A packed bitset over dense small-integer ids.
//!
//! The analysis layer keys almost everything by a dense index — edge ids
//! in a function's arena, instruction indexes, memory-reference ordinals
//! — and the hot passes mostly ask "is this id in the set" and "walk the
//! set in ascending order". [`BitSet`] packs those sets into `u64` words:
//! membership is one shift, a subset test is O(words), iteration
//! walks set bits with `trailing_zeros`, and a set of a few thousand ids
//! fits in a cache line or two where a `BTreeSet` would chase pointers.
//!
//! Invariants relied on by the analysis layer:
//!
//! - Iteration order is **ascending id order** — identical to a sorted
//!   `Vec` or a `BTreeSet` over the same ids, so converting an index
//!   from sorted edge-id lists to bitsets preserves every observable
//!   traversal order.
//! - The universe grows on demand (`insert` past the current capacity
//!   reallocates); trailing zero words are semantically absent, so sets
//!   of different word lengths compare and combine correctly.

/// A growable packed set of `usize` ids (see module docs).
#[derive(Clone, Default)]
pub struct BitSet {
    words: Vec<u64>,
    len: usize,
}

impl PartialEq for BitSet {
    fn eq(&self, other: &BitSet) -> bool {
        // Equal cardinality plus an equal common prefix forces the longer
        // tail to be all zero, so capacity differences never matter.
        let n = self.words.len().min(other.words.len());
        self.len == other.len && self.words[..n] == other.words[..n]
    }
}

impl Eq for BitSet {}

impl std::fmt::Debug for BitSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl BitSet {
    /// An empty set (no allocation until the first insert).
    pub const fn new() -> BitSet {
        BitSet {
            words: Vec::new(),
            len: 0,
        }
    }

    /// An empty set with room for ids `< universe` without reallocating.
    pub fn with_capacity(universe: usize) -> BitSet {
        BitSet {
            words: vec![0; universe.div_ceil(64)],
            len: 0,
        }
    }

    /// Number of ids in the set.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Insert `id`; returns whether it was newly added.
    pub fn insert(&mut self, id: usize) -> bool {
        let (w, b) = (id / 64, id % 64);
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        let mask = 1u64 << b;
        let fresh = self.words[w] & mask == 0;
        self.words[w] |= mask;
        self.len += fresh as usize;
        fresh
    }

    /// Remove `id`; returns whether it was present.
    pub fn remove(&mut self, id: usize) -> bool {
        let (w, b) = (id / 64, id % 64);
        if w >= self.words.len() {
            return false;
        }
        let mask = 1u64 << b;
        let had = self.words[w] & mask != 0;
        self.words[w] &= !mask;
        self.len -= had as usize;
        had
    }

    /// Whether `id` is in the set.
    #[inline]
    pub fn contains(&self, id: usize) -> bool {
        self.words
            .get(id / 64)
            .is_some_and(|w| w & (1u64 << (id % 64)) != 0)
    }

    /// Drop every id, keeping the allocation.
    pub fn clear(&mut self) {
        self.words.fill(0);
        self.len = 0;
    }

    /// Whether every id of `self` is in `other` (O(words)).
    pub fn is_subset(&self, other: &BitSet) -> bool {
        self.words
            .iter()
            .enumerate()
            .all(|(i, &a)| a & !other.words.get(i).copied().unwrap_or(0) == 0)
    }

    /// The smallest id in the set.
    pub fn first(&self) -> Option<usize> {
        self.iter().next()
    }

    /// Ids in ascending order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            words: &self.words,
            word_idx: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }
}

impl FromIterator<usize> for BitSet {
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> BitSet {
        let mut s = BitSet::new();
        for id in iter {
            s.insert(id);
        }
        s
    }
}

impl Extend<usize> for BitSet {
    fn extend<I: IntoIterator<Item = usize>>(&mut self, iter: I) {
        for id in iter {
            self.insert(id);
        }
    }
}

impl<'a> IntoIterator for &'a BitSet {
    type Item = usize;
    type IntoIter = Iter<'a>;
    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

/// Ascending-order iterator over a [`BitSet`].
pub struct Iter<'a> {
    words: &'a [u64],
    word_idx: usize,
    current: u64,
}

impl Iterator for Iter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1;
                return Some(self.word_idx * 64 + bit);
            }
            self.word_idx += 1;
            if self.word_idx >= self.words.len() {
                return None;
            }
            self.current = self.words[self.word_idx];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove_roundtrip() {
        let mut s = BitSet::new();
        assert!(s.insert(3));
        assert!(s.insert(64));
        assert!(s.insert(1000));
        assert!(!s.insert(64), "double insert reports not-fresh");
        assert_eq!(s.len(), 3);
        assert!(s.contains(3) && s.contains(64) && s.contains(1000));
        assert!(!s.contains(4) && !s.contains(10_000));
        assert!(s.remove(64));
        assert!(!s.remove(64));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![3, 1000]);
    }

    #[test]
    fn trailing_zero_words_do_not_break_equality_semantics() {
        let mut a = BitSet::with_capacity(1024);
        a.insert(5);
        let b: BitSet = [5usize].into_iter().collect();
        assert_eq!(a, b, "capacity must not affect equality");
        assert_eq!(a.iter().collect::<Vec<_>>(), b.iter().collect::<Vec<_>>());
        assert!(a.is_subset(&b) && b.is_subset(&a));
    }
}
