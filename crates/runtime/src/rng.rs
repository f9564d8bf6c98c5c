//! A tiny deterministic PRNG for seeded test and benchmark inputs.

/// SplitMix64: the seed substrate of the fault fuzz generator and the
/// benchmark's request shuffles. Not cryptographic; its only job is
/// reproducibility without external dependencies.
#[derive(Debug, Clone)]
pub struct Rng64 {
    state: u64,
}

impl Rng64 {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Rng64 {
        Rng64 { state: seed }
    }

    /// Next raw 64-bit output.
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `0..bound` (`bound ≥ 1`).
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound.max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_stable() {
        let mut r = Rng64::new(42);
        let first: Vec<u64> = (0..4).map(|_| r.next_u64()).collect();
        let mut r2 = Rng64::new(42);
        let second: Vec<u64> = (0..4).map(|_| r2.next_u64()).collect();
        assert_eq!(first, second);
    }
}
