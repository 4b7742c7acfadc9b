//! A fixed-bucket latency histogram: bounded memory, O(1) record,
//! mergeable, with percentile read-out — p50/p99/p999 across tens of
//! thousands of samples, with a text form to ship one process's
//! measurements to another.
//!
//! Bucketing is HDR-style log-linear: one *major* per power of two of the
//! value, split into `MINORS_PER_MAJOR` linear *minors* — so bucket
//! width tracks magnitude and relative error is bounded by
//! `1 / MINORS_PER_MAJOR` (≈3 % here) at every scale, from nanoseconds to
//! seconds, without configuring a range up front.

/// Linear subdivisions of each power-of-two major bucket. 32 minors bound
/// the quantization error of any recorded value to under ~3.2 %.
const MINORS_PER_MAJOR: usize = 32;

/// log2 of [`MINORS_PER_MAJOR`]: the first major with linear subdivision.
const FIRST_MAJOR: usize = 5;

/// 32 exact buckets for values below [`MINORS_PER_MAJOR`], then 32 linear
/// minors for each power-of-two major 5..=63 — contiguous over all `u64`.
const BUCKETS: usize = MINORS_PER_MAJOR + (64 - FIRST_MAJOR) * MINORS_PER_MAJOR;

/// A log-linear histogram over `u64` samples (typically nanoseconds).
///
/// `record` is O(1) with no allocation; `merge` adds another histogram's
/// counts (the cross-process aggregation path); `percentile` reports the
/// upper bound of the bucket holding the p-th sample — an over-estimate by
/// at most one bucket width (≈3 % relative).
#[derive(Clone)]
pub struct LatencyHistogram {
    counts: Vec<u64>,
    total: u64,
    max: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        LatencyHistogram { counts: vec![0; BUCKETS], total: 0, max: 0 }
    }

    /// The bucket index for `value`: log2 major, linear minor.
    fn bucket(value: u64) -> usize {
        // Values below one full minor row are their own (exact) buckets.
        if value < MINORS_PER_MAJOR as u64 {
            return value as usize;
        }
        let major = 63 - value.leading_zeros() as usize;
        let shift = major - FIRST_MAJOR;
        let minor = (value >> shift) as usize - MINORS_PER_MAJOR;
        (major - FIRST_MAJOR + 1) * MINORS_PER_MAJOR + minor
    }

    /// The largest value a bucket covers (inclusive).
    fn bucket_upper(index: usize) -> u64 {
        if index < MINORS_PER_MAJOR {
            return index as u64;
        }
        let major = index / MINORS_PER_MAJOR - 1 + FIRST_MAJOR;
        let minor = index % MINORS_PER_MAJOR;
        let shift = major - FIRST_MAJOR;
        // u128: the top bucket's exclusive bound is 2^64 itself.
        let upper = (((MINORS_PER_MAJOR + minor + 1) as u128) << shift) - 1;
        upper.min(u64::MAX as u128) as u64
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.counts[Self::bucket(value)] += 1;
        self.total += 1;
        self.max = self.max.max(value);
    }

    /// Number of samples recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.total
    }

    /// The largest sample recorded (exact, not bucketed). 0 when empty.
    #[must_use]
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The value at quantile `q` in `[0, 1]`: the upper bound of the
    /// bucket containing the ⌈q·count⌉-th smallest sample (the exact
    /// `max` for the top bucket). 0 when empty.
    #[must_use]
    pub fn percentile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        // ⌈q·total⌉, but at least 1: p0 is the smallest sample's bucket.
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (index, &count) in self.counts.iter().enumerate() {
            seen += count;
            if seen >= rank {
                return Self::bucket_upper(index).min(self.max);
            }
        }
        self.max
    }

    /// Median (see [`LatencyHistogram::percentile`]).
    #[must_use]
    pub fn p50(&self) -> u64 {
        self.percentile(0.50)
    }

    /// 99th percentile.
    #[must_use]
    pub fn p99(&self) -> u64 {
        self.percentile(0.99)
    }

    /// 99.9th percentile.
    #[must_use]
    pub fn p999(&self) -> u64 {
        self.percentile(0.999)
    }

    /// Adds every sample of `other` into `self` — bucket-exact, since both
    /// sides share the fixed bucket layout.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.total += other.total;
        self.max = self.max.max(other.max);
    }

    /// Sparse text encoding (`total;max;index:count,index:count,...`) for
    /// handing a histogram across a process boundary on one line.
    #[must_use]
    pub fn encode(&self) -> String {
        let cells: Vec<String> = self
            .counts
            .iter()
            .enumerate()
            .filter(|(_, &count)| count > 0)
            .map(|(index, &count)| format!("{index}:{count}"))
            .collect();
        format!("{};{};{}", self.total, self.max, cells.join(","))
    }

    /// Parses [`LatencyHistogram::encode`] output. `None` on any
    /// malformed field.
    #[must_use]
    pub fn decode(text: &str) -> Option<Self> {
        let mut parts = text.splitn(3, ';');
        let total: u64 = parts.next()?.parse().ok()?;
        let max: u64 = parts.next()?.parse().ok()?;
        let cells = parts.next()?;
        let mut hist = LatencyHistogram::new();
        hist.total = total;
        hist.max = max;
        if !cells.is_empty() {
            for cell in cells.split(',') {
                let (index, count) = cell.split_once(':')?;
                let index: usize = index.parse().ok()?;
                if index >= BUCKETS {
                    return None;
                }
                hist.counts[index] = count.parse().ok()?;
            }
        }
        if hist.counts.iter().sum::<u64>() != total {
            return None;
        }
        Some(hist)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Small values are exact: one bucket per integer below 32.
    #[test]
    fn small_values_are_exact() {
        let mut h = LatencyHistogram::new();
        for v in 0..32u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 32);
        assert_eq!(h.percentile(0.0), 0);
        assert_eq!(h.p50(), 15);
        assert_eq!(h.percentile(1.0), 31);
    }

    /// Percentile math pinned on a known uniform distribution: 1..=10_000
    /// recorded once each — every quantile lands within one bucket width
    /// (~3.2 %) of the true order statistic.
    #[test]
    fn percentiles_on_uniform_distribution() {
        let mut h = LatencyHistogram::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        for (q, expected) in [(0.50, 5_000u64), (0.99, 9_900), (0.999, 9_990)] {
            let got = h.percentile(q);
            assert!(got >= expected, "p{q} under-reported: {got} < {expected}");
            let error = (got - expected) as f64 / expected as f64;
            assert!(error <= 0.04, "p{q} off by {error:.3}: {got} vs {expected}");
        }
        assert_eq!(h.max(), 10_000);
        assert_eq!(h.percentile(1.0), 10_000, "p100 is the exact max");
    }

    /// A two-mode distribution: 99 fast samples and 1 slow one. p50 sits
    /// in the fast mode, p99 and p999 report the slow outlier.
    #[test]
    fn percentiles_on_bimodal_distribution() {
        let mut h = LatencyHistogram::new();
        for _ in 0..99 {
            h.record(100);
        }
        h.record(1_000_000);
        assert!(h.p50() >= 100 && h.p50() <= 103, "p50 = {}", h.p50());
        assert_eq!(h.p99(), 100_u64.max(h.percentile(0.99)));
        assert_eq!(h.p999(), 1_000_000, "the outlier is the top sample (exact max)");
    }

    /// Merging equals recording the union, bucket for bucket.
    #[test]
    fn merge_is_the_union() {
        let mut left = LatencyHistogram::new();
        let mut right = LatencyHistogram::new();
        let mut both = LatencyHistogram::new();
        for v in [1u64, 50, 700, 3_000, 12_345] {
            left.record(v);
            both.record(v);
        }
        for v in [9u64, 80, 900, 65_000, 1 << 40] {
            right.record(v);
            both.record(v);
        }
        left.merge(&right);
        assert_eq!(left.count(), both.count());
        assert_eq!(left.max(), both.max());
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0] {
            assert_eq!(left.percentile(q), both.percentile(q), "q = {q}");
        }
    }

    /// Encode → decode is lossless, including the exact max and counts.
    #[test]
    fn encode_decode_round_trips() {
        let mut h = LatencyHistogram::new();
        for v in [0u64, 1, 31, 32, 1_000, 123_456_789, u64::MAX] {
            h.record(v);
        }
        let decoded = LatencyHistogram::decode(&h.encode()).expect("round trip");
        assert_eq!(decoded.count(), h.count());
        assert_eq!(decoded.max(), h.max());
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(decoded.percentile(q), h.percentile(q));
        }

        assert!(LatencyHistogram::decode("garbage").is_none());
        assert!(LatencyHistogram::decode("3;9;0:1").is_none(), "count mismatch");
        assert!(LatencyHistogram::decode("1;9;9999:1").is_none(), "bucket out of range");
        let empty = LatencyHistogram::decode("0;0;").expect("empty histogram");
        assert_eq!(empty.count(), 0);
        assert_eq!(empty.p99(), 0);
    }

    /// Every `u64` lands in a bucket whose bounds contain it, and bucket
    /// upper bounds are monotone — the structural invariant behind the
    /// percentile walk.
    #[test]
    fn bucket_bounds_contain_their_values() {
        let probes: Vec<u64> = (0..63)
            .flat_map(|shift| {
                let base = 1u64 << shift;
                [base - 1, base, base + 1, base + base / 3]
            })
            .chain([0, u64::MAX])
            .collect();
        for &v in &probes {
            let b = LatencyHistogram::bucket(v);
            assert!(v <= LatencyHistogram::bucket_upper(b), "{v} above its bucket {b}");
            if b > 0 {
                assert!(
                    v > LatencyHistogram::bucket_upper(b - 1),
                    "{v} also fits the previous bucket {b}"
                );
            }
        }
        for b in 1..BUCKETS {
            assert!(LatencyHistogram::bucket_upper(b) > LatencyHistogram::bucket_upper(b - 1));
        }
    }
}
