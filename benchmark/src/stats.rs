//! The harness's arithmetic: percentiles, tail selection, span self
//! time and the result checksum. Kept free of clocks and threads so it
//! can be unit-tested exactly — the arithmetic must not be a noise
//! source.

/// Nearest-rank percentile of an ascending-sorted, non-empty slice:
/// the smallest sample with at least `per_mille`/1000 of the samples at
/// or below it. Percentiles are integers per mille so that the rank is
/// computed exactly: `0.9 * 100.0` is not 90 in floating point.
pub fn percentile(sorted: &[f64], per_mille: usize) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (per_mille * sorted.len()).div_ceil(1000);
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest of the usual tail percentiles (per mille) that still
/// has at least ten samples beyond it, or `None` below 40 samples (not
/// even p75 qualifies). A tail read off fewer than ten samples is an
/// anecdote.
pub fn tail_percentile(n: usize) -> Option<usize> {
    [999, 990, 950, 900, 750]
        .into_iter()
        .find(|pm| n * (1000 - pm) >= 10 * 1000)
}

/// Fastest sample, median, tail and count of one sample set.
///
/// The gated timing metrics report the fastest sample: interference on
/// a shared box only ever adds time, in bursts that can slow most ops
/// of a run, so the minimum repeats where the median does not
/// (README.md, "Why the protocol is what it is").
#[derive(Clone, Copy, Debug)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub p50: f64,
    /// `(per mille, value)` chosen by [`tail_percentile`].
    pub tail: Option<(usize, f64)>,
}

impl Summary {
    pub fn of(samples: &[f64]) -> Summary {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        Summary {
            n: sorted.len(),
            min: sorted[0],
            p50: percentile(&sorted, 500),
            tail: tail_percentile(sorted.len()).map(|p| (p, percentile(&sorted, p))),
        }
    }

    /// The value at `per_mille`, from unsorted samples.
    pub fn at(samples: &[f64], per_mille: usize) -> f64 {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        percentile(&sorted, per_mille)
    }
}

/// Median of a non-empty sample set.
pub fn median(samples: &[f64]) -> f64 {
    Summary::at(samples, 500)
}

/// Self time of a span: its duration minus the part of its interval
/// that its direct children cover. Children may overlap one another
/// (rank threads run in parallel) and are clipped to the parent.
pub fn self_time(parent: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let (p0, p1) = parent;
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.clamp(p0, p1), e.clamp(p0, p1)))
        .filter(|(s, e)| e > s)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut cursor = p0;
    for (s, e) in clipped {
        let s = s.max(cursor);
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    (p1 - p0) - covered
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over 64-bit words. Word-wise rather than byte-wise: the
/// checksum of an 8 MB grid is taken once per round, and must stay
/// well under an op's own time.
pub fn fnv64(words: impl IntoIterator<Item = u64>) -> u64 {
    words
        .into_iter()
        .fold(FNV_OFFSET, |h, w| (h ^ w).wrapping_mul(FNV_PRIME))
}

/// Checksum of a result grid: FNV over the bit patterns, so `-0.0` and
/// `0.0`, or two NaNs, never compare equal by accident.
pub fn fnv64_f32(data: &[f32]) -> u64 {
    fnv64(data.iter().map(|x| u64::from(x.to_bits())))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_one_two_odd_even() {
        assert_eq!(percentile(&[7.0], 500), 7.0);
        assert_eq!(percentile(&[7.0], 990), 7.0);
        // Two samples: the median is the lower one (rank ⌈0.5·2⌉ = 1).
        assert_eq!(percentile(&[1.0, 2.0], 500), 1.0);
        assert_eq!(percentile(&[1.0, 2.0], 501), 2.0);
        // Odd: the middle sample.
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0, 5.0], 500), 3.0);
        // Even: the lower middle, never an interpolated value.
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 500), 2.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 1000), 4.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 0), 1.0);
        // Exact ranks where floating point would be off by one:
        // 0.9 · 100 and 0.95 · 200 are not integers in f64.
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 900), 90.0);
        assert_eq!(percentile(&hundred, 990), 99.0);
    }

    #[test]
    fn summary_sorts_before_ranking() {
        let s = Summary::of(&[5.0, 1.0, 3.0]);
        assert_eq!((s.n, s.min, s.p50), (3, 1.0, 3.0));
        assert!(s.tail.is_none());
        assert_eq!(median(&[9.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(39), None);
        assert_eq!(tail_percentile(40), Some(750));
        assert_eq!(tail_percentile(99), Some(750));
        assert_eq!(tail_percentile(100), Some(900));
        assert_eq!(tail_percentile(199), Some(900));
        assert_eq!(tail_percentile(200), Some(950));
        assert_eq!(tail_percentile(999), Some(950));
        assert_eq!(tail_percentile(1000), Some(990));
        assert_eq!(tail_percentile(10_000), Some(999));
        let samples: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(Summary::of(&samples).tail, Some((950, 190.0)));
    }

    #[test]
    fn self_time_nested_adjacent_and_parallel_children() {
        // No children: all self.
        assert_eq!(self_time((10, 110), &[]), 100);
        // Nested child.
        assert_eq!(self_time((10, 110), &[(20, 50)]), 70);
        // Adjacent children cover a contiguous stretch once.
        assert_eq!(self_time((10, 110), &[(20, 50), (50, 80)]), 40);
        // Overlapping (parallel) children count their union only.
        assert_eq!(self_time((10, 110), &[(20, 60), (40, 80)]), 40);
        // A child contained in another adds nothing.
        assert_eq!(self_time((10, 110), &[(20, 80), (30, 40)]), 40);
        // Children are clipped to the parent; order does not matter.
        assert_eq!(self_time((10, 110), &[(90, 200), (0, 20)]), 70);
        // Full cover.
        assert_eq!(self_time((10, 110), &[(0, 200)]), 0);
    }

    #[test]
    fn fnv_is_stable_and_bit_exact() {
        // Pinned values: a change here silently invalidates every
        // reference checksum a run compares against.
        assert_eq!(fnv64([]), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64([0]), 0xaf63_bd4c_8601_b7df);
        assert_eq!(fnv64_f32(&[1.0, 2.0]), fnv64([0x3f80_0000, 0x4000_0000]));
        assert_ne!(fnv64_f32(&[0.0]), fnv64_f32(&[-0.0]));
        assert_ne!(fnv64_f32(&[1.0, 2.0]), fnv64_f32(&[2.0, 1.0]));
    }
}
