//! A tiny deterministic pseudo-random number generator.
//!
//! Every stochastic component of the workspace (netlist generation, placement
//! initialization, routing tie-breaks) must be reproducible from a single
//! `u64` seed so that experiments regenerate byte-identical tables. We use
//! SplitMix64 — 64-bit state, excellent statistical quality for simulation
//! purposes, and trivially portable — instead of depending on a `rand`
//! version whose stream might change across releases.

/// SplitMix64 pseudo-random number generator.
///
/// # Examples
///
/// ```
/// use vm1_geom::rng::SplitMix64;
///
/// let mut a = SplitMix64::new(42);
/// let mut b = SplitMix64::new(42);
/// assert_eq!(a.next_u64(), b.next_u64()); // fully deterministic
/// let r = a.range_usize(0, 10);
/// assert!(r < 10);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed. Equal seeds yield equal streams.
    #[must_use]
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        // 53 high bits → uniform double in [0,1).
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn range_usize(&mut self, lo: usize, hi: usize) -> usize {
        assert!(lo < hi, "range_usize: empty range {lo}..{hi}");
        lo + (self.next_u64() % (hi - lo) as u64) as usize
    }

    /// Uniform integer in `[lo, hi)` over `i64`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn range_i64(&mut self, lo: i64, hi: i64) -> i64 {
        assert!(lo < hi, "range_i64: empty range {lo}..{hi}");
        lo + (self.next_u64() % (hi - lo) as u64) as i64
    }

    /// Bernoulli draw with probability `p` of `true`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Picks a uniformly random element of `slice`.
    ///
    /// # Panics
    ///
    /// Panics if `slice` is empty.
    pub fn pick<'a, T>(&mut self, slice: &'a [T]) -> &'a T {
        assert!(!slice.is_empty(), "pick: empty slice");
        &slice[self.range_usize(0, slice.len())]
    }

    /// Fisher–Yates shuffle of `slice` in place.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.range_usize(0, i + 1);
            slice.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_stream() {
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(2);
        let same = (0..16).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut g = SplitMix64::new(3);
        for _ in 0..1000 {
            let x = g.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn range_respects_bounds() {
        let mut g = SplitMix64::new(4);
        for _ in 0..1000 {
            let v = g.range_usize(3, 9);
            assert!((3..9).contains(&v));
            let w = g.range_i64(-5, 5);
            assert!((-5..5).contains(&w));
        }
    }

    #[test]
    fn range_hits_every_value() {
        let mut g = SplitMix64::new(5);
        let mut seen = [false; 6];
        for _ in 0..300 {
            seen[g.range_usize(0, 6)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut g = SplitMix64::new(6);
        let mut v: Vec<u32> = (0..50).collect();
        g.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        let mut g = SplitMix64::new(1);
        let _ = g.range_usize(5, 5);
    }

    #[test]
    fn mean_is_roughly_half() {
        let mut g = SplitMix64::new(11);
        let n = 10_000;
        let mean: f64 = (0..n).map(|_| g.next_f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }
}
