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
            for step in 0..200 {
                let item = rng.gen_range(0..6u8);
                match rng.gen_range(0..4u8) {
                    0 | 1 => m.insert(item),
                    2 => m.insert_n(item, rng.gen_range(0..4usize)),
                    _ => {
                        let taken = std::mem::take(&mut m);
                        assert_eq!(taken.len(), sum(&taken), "seed {seed}, step {step}");
                        let n = rng.gen_range(0..5usize);
                        m.extend((0..n).map(|_| rng.gen_range(0..6u8)));
                    }
                }
                assert_eq!(m.len(), sum(&m), "seed {seed}, step {step}");
                assert_eq!(m.is_empty(), sum(&m) == 0, "seed {seed}, step {step}");
            }
        }
    }
}
