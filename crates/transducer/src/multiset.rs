//! Message buffers are multisets of facts (Section 4.1.3): the same
//! message can be in flight multiple times.

use std::collections::BTreeMap;

/// A multiset over an ordered element type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Multiset<T: Ord> {
    counts: BTreeMap<T, usize>,
    /// The sum of `counts`, kept by every mutator: `len` is a read. (A
    /// function of `counts`, so the derived equality stands.)
    total: usize,
}

impl<T: Ord> Default for Multiset<T> {
    fn default() -> Self {
        Multiset {
            counts: BTreeMap::new(),
            total: 0,
        }
    }
}

impl<T: Ord + Clone> Multiset<T> {
    /// The empty multiset.
    pub fn new() -> Self {
        Multiset::default()
    }

    /// Add one occurrence.
    pub fn insert(&mut self, item: T) {
        self.insert_n(item, 1);
    }

    /// Add `n` occurrences.
    pub fn insert_n(&mut self, item: T, n: usize) {
        if n > 0 {
            *self.counts.entry(item).or_insert(0) += n;
            self.total += n;
        }
    }

    /// Remove one occurrence; returns `false` when absent.
    pub fn remove_one(&mut self, item: &T) -> bool {
        match self.counts.get_mut(item) {
            Some(c) if *c > 1 => *c -= 1,
            Some(_) => {
                self.counts.remove(item);
            }
            None => return false,
        }
        self.total -= 1;
        true
    }

    /// Multiset difference: remove the occurrences of `other` (saturating).
    pub fn subtract(&mut self, other: &Multiset<T>) {
        for (item, &n) in &other.counts {
            for _ in 0..n {
                if !self.remove_one(item) {
                    break;
                }
            }
        }
    }

    /// Number of occurrences of an element.
    pub fn count(&self, item: &T) -> usize {
        self.counts.get(item).copied().unwrap_or(0)
    }

    /// Total number of occurrences — O(1).
    pub fn len(&self) -> usize {
        self.total
    }

    /// Whether empty.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// The distinct elements (the multiset "collapsed to a set").
    pub fn support(&self) -> impl Iterator<Item = &T> {
        self.counts.keys()
    }

    /// Iterate `(element, count)`.
    pub fn iter(&self) -> impl Iterator<Item = (&T, usize)> {
        self.counts.iter().map(|(t, &c)| (t, c))
    }

    /// Drain everything, returning the previous contents.
    fn take_all(&mut self) -> Multiset<T> {
        std::mem::take(self)
    }

    /// Drain everything as `(element, count)` pairs in element order —
    /// the bulk form of a deliver-everything sweep (one pass, no
    /// per-occurrence removes).
    pub fn drain_all(&mut self) -> impl Iterator<Item = (T, usize)> {
        self.take_all().counts.into_iter()
    }

    /// Absorb another multiset wholesale (the bulk form of repeated
    /// [`Multiset::insert`]): occurrence counts add. When `self` is
    /// empty this is a move, not an element-by-element merge.
    pub fn extend_from(&mut self, other: Multiset<T>) {
        if self.counts.is_empty() {
            *self = other;
            return;
        }
        for (item, n) in other.counts {
            self.insert_n(item, n);
        }
    }
}

impl<T: Ord + Clone> Extend<T> for Multiset<T> {
    fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        for x in iter {
            self.insert(x);
        }
    }
}

impl<T: Ord + Clone> FromIterator<T> for Multiset<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut m = Multiset::new();
        m.extend(iter);
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_multiplicities() {
        let mut m = Multiset::new();
        m.insert("a");
        m.insert("a");
        m.insert("b");
        assert_eq!(m.count(&"a"), 2);
        assert_eq!(m.len(), 3);
        assert_eq!(m.support().count(), 2);
    }

    #[test]
    fn remove_one_decrements() {
        let mut m: Multiset<&str> = ["a", "a"].into_iter().collect();
        assert!(m.remove_one(&"a"));
        assert_eq!(m.count(&"a"), 1);
        assert!(m.remove_one(&"a"));
        assert!(!m.remove_one(&"a"));
        assert!(m.is_empty());
    }

    #[test]
    fn subtract_is_saturating() {
        let mut m: Multiset<i32> = [1, 1, 2].into_iter().collect();
        let other: Multiset<i32> = [1, 2, 2, 3].into_iter().collect();
        m.subtract(&other);
        assert_eq!(m.count(&1), 1);
        assert_eq!(m.count(&2), 0);
        assert_eq!(m.count(&3), 0);
    }

    #[test]
    fn take_all_empties() {
        let mut m: Multiset<i32> = [1, 2].into_iter().collect();
        let taken = m.take_all();
        assert!(m.is_empty());
        assert_eq!(taken.len(), 2);
    }

    #[test]
    fn drain_all_yields_counts_and_empties() {
        let mut m: Multiset<i32> = [1, 1, 2].into_iter().collect();
        let drained: Vec<(i32, usize)> = m.drain_all().collect();
        assert_eq!(drained, vec![(1, 2), (2, 1)]);
        assert!(m.is_empty());
        assert_eq!(m.drain_all().count(), 0);
    }

    #[test]
    fn extend_from_adds_counts() {
        let mut m: Multiset<i32> = [1, 2].into_iter().collect();
        let other: Multiset<i32> = [1, 3, 3].into_iter().collect();
        m.extend_from(other);
        assert_eq!(m.count(&1), 2);
        assert_eq!(m.count(&2), 1);
        assert_eq!(m.count(&3), 2);
        // Into an empty multiset it is a move.
        let mut empty: Multiset<i32> = Multiset::new();
        empty.extend_from([4, 4].into_iter().collect());
        assert_eq!(empty.count(&4), 2);
    }

    #[test]
    fn extend_takes_single_occurrences() {
        let mut m: Multiset<i32> = Multiset::new();
        m.extend([1, 1, 2]);
        assert_eq!(m.count(&1), 2);
        assert_eq!(m.len(), 3);
    }

    #[test]
    fn the_running_total_is_the_sum_of_the_counts_after_any_sequence_of_mutations() {
        use calm_common::rng::Rng;
        let sum = |m: &Multiset<u8>| m.iter().map(|(_, n)| n).sum::<usize>();
        for seed in 0..32 {
            let mut rng = Rng::seed_from_u64(seed);
            let mut m: Multiset<u8> = Multiset::new();
            let small = |rng: &mut Rng| -> Multiset<u8> {
                (0..rng.gen_range(0..5usize))
                    .map(|_| rng.gen_range(0..6u8))
                    .collect()
            };
            for step in 0..200 {
                let item = rng.gen_range(0..6u8);
                match rng.gen_range(0..8u8) {
                    0 | 1 => m.insert(item),
                    2 => m.insert_n(item, rng.gen_range(0..4usize)),
                    3 => {
                        m.remove_one(&item);
                    }
                    4 => m.subtract(&small(&mut rng)),
                    5 => m.extend_from(small(&mut rng)),
                    6 => {
                        let drained: usize = m.drain_all().map(|(_, n)| n).sum();
                        assert!(m.is_empty() && drained > 0 || drained == 0);
                    }
                    _ => {
                        let taken = m.take_all();
                        assert_eq!(taken.len(), sum(&taken), "seed {seed}, step {step}");
                    }
                }
                assert_eq!(m.len(), sum(&m), "seed {seed}, step {step}");
                assert_eq!(m.is_empty(), sum(&m) == 0, "seed {seed}, step {step}");
            }
        }
    }
}
