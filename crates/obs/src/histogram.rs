//! Fixed-bucket power-of-two histograms: constant-size and allocation-free
//! once constructed — the distribution primitive behind
//! latency and batch-size recording.

/// A histogram with 65 fixed buckets: bucket `i` (for `i < 64`) counts
/// values `v` with `floor(log2(v)) == i - 1` — i.e. bucket 0 holds the
/// value 0, bucket 1 holds 1, bucket 2 holds 2–3, bucket 3 holds 4–7, and
/// so on. No configuration, no rescaling, O(1) record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pow2Histogram {
    buckets: [u64; 65],
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for Pow2Histogram {
    fn default() -> Self {
        Pow2Histogram {
            buckets: [0; 65],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

/// The bucket index of a value: 0 for 0, `1 + floor(log2(v))` otherwise.
#[inline]
pub(crate) fn bucket_of(v: u64) -> usize {
    match v {
        0 => 0,
        v => 1 + v.ilog2() as usize,
    }
}

/// The inclusive lower bound of a bucket.
fn bucket_lo(i: usize) -> u64 {
    match i {
        0 => 0,
        i => 1u64 << (i - 1),
    }
}

impl Pow2Histogram {
    /// Record one observation.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.buckets[bucket_of(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.max = self.max.max(v);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Largest observation (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean observation (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Estimate the `q`-quantile (`q` in `[0, 1]`) by locating the
    /// bucket holding the `ceil(q·n)`-th smallest observation and
    /// interpolating linearly within it under a uniform-within-bucket
    /// assumption. Exact whenever the bucket holds a single value
    /// (buckets 0 and 1, i.e. the values 0 and 1) and never off by more
    /// than the bucket width otherwise; the estimate is clamped to
    /// [`Pow2Histogram::max`] so a sparse top bucket cannot overshoot
    /// the data. Returns 0.0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if seen + c >= target {
                let lo = bucket_lo(i) as f64;
                // Exclusive upper edge; bucket 0 holds only the value 0.
                let hi = match i {
                    0 => 1.0,
                    i if i >= 63 => self.max as f64 + 1.0,
                    i => (1u64 << i) as f64,
                };
                // How far into this bucket's occupants the target rank
                // falls, in (0, 1].
                let frac = (target - seen) as f64 / c as f64;
                let est = lo + (hi - lo) * frac;
                return est.min(self.max as f64);
            }
            seen += c;
        }
        self.max as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_powers_of_two() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(7), 3);
        assert_eq!(bucket_of(8), 4);
        assert_eq!(bucket_of(u64::MAX), 64);
    }

    #[test]
    fn record_tracks_aggregates() {
        let mut h = Pow2Histogram::default();
        for v in [0, 1, 2, 3, 4, 100] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum, 110);
        assert_eq!(h.max(), 100);
        assert!((h.mean() - 110.0 / 6.0).abs() < 1e-9);
        // 0 → bucket 0; 1 → b1; 2,3 → b2; 4 → b3; 100 → b7 ([64,128)).
        assert_eq!(h.buckets[..8], [1, 1, 2, 1, 0, 0, 0, 1]);
    }

    #[test]
    fn quantile_interpolates_within_buckets() {
        let mut h = Pow2Histogram::default();
        for _ in 0..90 {
            h.record(3);
        }
        for _ in 0..10 {
            h.record(1000);
        }
        // Median falls in the [2,4) bucket; p99 in [512,1024), clamped
        // to the observed max.
        let p50 = h.quantile(0.5);
        assert!((2.0..4.0).contains(&p50), "p50={p50}");
        let p99 = h.quantile(0.99);
        assert!((512.0..=1000.0).contains(&p99), "p99={p99}");
        // q=1.0 is the max exactly (clamp).
        assert_eq!(h.quantile(1.0), 1000.0);
    }

    #[test]
    fn quantile_on_single_value_buckets() {
        // Buckets 0 and 1 hold exactly one value each (0 and 1): low
        // ranks interpolate inside [0,1), high ranks clamp to the max.
        let mut h = Pow2Histogram::default();
        for _ in 0..4 {
            h.record(0);
        }
        for _ in 0..4 {
            h.record(1);
        }
        assert!(h.quantile(0.1) < 1.0, "rank 1 of 8 is a zero");
        assert!(h.quantile(0.25) <= 1.0);
        assert_eq!(h.quantile(1.0), 1.0, "top rank is the max");
    }

    #[test]
    fn quantile_at_bucket_boundaries() {
        // 4 values exactly on a bucket's lower edge: every quantile is
        // inside [lo, hi) of that bucket and never exceeds max.
        let mut h = Pow2Histogram::default();
        for _ in 0..4 {
            h.record(8); // bucket [8,16)
        }
        for q in [0.0, 0.25, 0.5, 0.75, 0.99, 1.0] {
            let est = h.quantile(q);
            assert!((8.0..=8.0).contains(&est), "q={q} est={est}");
        }
        // Empty histogram: 0.
        assert_eq!(Pow2Histogram::default().quantile(0.5), 0.0);
        // Quantile estimates are monotone in q.
        let mut m = Pow2Histogram::default();
        for v in [1u64, 2, 4, 9, 17, 80, 300, 5000] {
            m.record(v);
        }
        let mut prev = 0.0;
        for q in [0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 1.0] {
            let est = m.quantile(q);
            assert!(est >= prev, "monotone at q={q}");
            assert!(est <= m.max() as f64);
            prev = est;
        }
    }
}
