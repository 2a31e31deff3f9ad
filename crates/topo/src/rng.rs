//! A small deterministic PRNG for topology generation.
//!
//! The Waxman generator only needs reproducible uniform draws — the same
//! seed must always produce the same graph, on every platform. The
//! splitmix64 generator delivers that with no external dependencies (the
//! build environment is offline), 64 bits of state and excellent
//! statistical quality for this use.

/// Deterministic splitmix64 pseudo-random generator.
///
/// # Example
///
/// ```
/// use pm_topo::rng::DetRng;
/// let mut a = DetRng::seed_from_u64(7);
/// let mut b = DetRng::seed_from_u64(7);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DetRng {
    state: u64,
}

/// The splitmix64 increment (the golden ratio in 64-bit fixed point):
/// after `k` draws the state is `seed + k·GAMMA`, wrapping.
const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

impl DetRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed_from_u64(seed: u64) -> Self {
        DetRng { state: seed }
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GAMMA);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Skips the next `draws` outputs in O(1): afterwards the generator is
    /// where `draws` calls of [`DetRng::next_u64`] would have left it. Every
    /// draw is thereby addressable by its index, so disjoint index ranges
    /// can be consumed independently (and in parallel) with the exact
    /// values a serial loop would see.
    ///
    /// ```
    /// use pm_topo::rng::DetRng;
    /// let mut serial = DetRng::seed_from_u64(7);
    /// let third = (0..3).map(|_| serial.next_u64()).last();
    /// let mut jumped = DetRng::seed_from_u64(7);
    /// jumped.jump(2);
    /// assert_eq!(Some(jumped.next_u64()), third);
    /// ```
    pub fn jump(&mut self, draws: u64) {
        self.state = self.state.wrapping_add(draws.wrapping_mul(GAMMA));
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `f64` in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi` or either bound is not finite.
    pub fn gen_range(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo.is_finite() && hi.is_finite() && lo < hi, "bad range");
        lo + self.unit_f64() * (hi - lo)
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.unit_f64() < p.clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = DetRng::seed_from_u64(42);
        let mut b = DetRng::seed_from_u64(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = DetRng::seed_from_u64(1);
        let mut b = DetRng::seed_from_u64(2);
        assert_ne!(
            (0..8).map(|_| a.next_u64()).collect::<Vec<_>>(),
            (0..8).map(|_| b.next_u64()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn unit_f64_in_range_and_spread() {
        let mut rng = DetRng::seed_from_u64(9);
        let mut below_half = 0usize;
        for _ in 0..10_000 {
            let v = rng.unit_f64();
            assert!((0.0..1.0).contains(&v));
            if v < 0.5 {
                below_half += 1;
            }
        }
        // Loose two-sided check that draws are not degenerate.
        assert!((3_500..=6_500).contains(&below_half));
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut rng = DetRng::seed_from_u64(3);
        for _ in 0..1000 {
            let v = rng.gen_range(-2.5, 7.5);
            assert!((-2.5..7.5).contains(&v));
        }
    }

    #[test]
    fn jump_equals_sequential_draws() {
        // γ > 2⁶³, so k·γ wraps from k = 2 on; three million draws wrap
        // it some 1.85 million times.
        for seed in [0u64, 42, u64::MAX - 5] {
            for k in [0u64, 1, 2, 1000, 3_000_000] {
                let mut serial = DetRng::seed_from_u64(seed);
                for _ in 0..k {
                    serial.next_u64();
                }
                let mut jumped = DetRng::seed_from_u64(seed);
                jumped.jump(k);
                assert_eq!(jumped, serial, "seed {seed} k {k}");
                assert_eq!(jumped.next_u64(), serial.next_u64());
            }
        }
    }

    #[test]
    fn gen_bool_extremes() {
        let mut rng = DetRng::seed_from_u64(5);
        assert!(!(0..100).any(|_| rng.gen_bool(0.0)));
        assert!((0..100).all(|_| rng.gen_bool(1.0)));
    }
}
