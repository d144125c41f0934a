//! Order statistics over timing samples and a seeded input generator.

/// Nearest-rank quantile `q` (0..=1) of `samples`; `None` when empty. The
/// p90 of 100 samples is the 90th smallest, leaving 10 samples beyond it.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Some(sorted[rank - 1])
}

/// Median of `samples` (nearest rank); NaN when empty, so a metric with
/// no samples fails the run instead of reading as 0.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5).unwrap_or(f64::NAN)
}

/// SplitMix64: the benchmark's only source of input randomness, so one
/// `--seed` always yields the same inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` on input stream `stream` (one per workload
    /// input, so adding an input never shifts another's values).
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform integer in `lo..hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo) as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_leaves_ten_samples_beyond_p90_of_one_hundred() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&samples, 0.9), Some(90.0));
        assert_eq!(quantile(&samples, 0.5), Some(50.0));
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn rng_streams_repeat_per_seed() {
        let a: Vec<u64> = (0..4).map(|_| Rng::new(7, 1).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(Rng::new(7, 1).next_u64(), Rng::new(7, 2).next_u64());
        assert_ne!(Rng::new(7, 1).next_u64(), Rng::new(8, 1).next_u64());
    }
}
