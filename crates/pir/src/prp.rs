//! Keyed pseudo-random permutation over `[0, domain)`.
//!
//! The shuffled oblivious store needs a permutation the SCP can evaluate
//! point-wise without materializing it. We use a 4-round balanced Feistel
//! network over the smallest even bit-width covering the domain, with
//! cycle-walking to stay inside `[0, domain)`. The round function is a
//! splitmix64-style mix — *not* cryptographically strong, which is fine for a
//! simulation: the paper uses the PIR protocol of \[36\] as a black box and
//! rests its security argument on that protocol (§3.2), not on this stand-in.

/// A keyed permutation over `0..domain`.
#[derive(Debug, Clone)]
pub struct Prp {
    domain: u64,
    half_bits: u32,
    keys: [u64; 4],
}

fn mix(mut x: u64) -> u64 {
    // splitmix64 finalizer
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

impl Prp {
    /// Creates a permutation over `0..domain` keyed by `key`.
    ///
    /// # Panics
    /// Panics if `domain == 0`.
    pub fn new(domain: u64, key: u64) -> Prp {
        assert!(domain > 0, "PRP domain must be nonempty");
        // smallest even bit-width 2h with 2^(2h) >= domain
        let bits = 64 - (domain - 1).max(1).leading_zeros();
        let half_bits = bits.div_ceil(2).max(1);
        let keys = [
            mix(key ^ 0xa076_1d64_78bd_642f),
            mix(key ^ 0xe703_7ed1_a0b4_28db),
            mix(key ^ 0x8ebc_6af0_9c88_c6e3),
            mix(key ^ 0x5899_65cc_7537_4cc3),
        ];
        Prp {
            domain,
            half_bits,
            keys,
        }
    }

    fn feistel(&self, x: u64) -> u64 {
        let mask = (1u64 << self.half_bits) - 1;
        let mut left = x >> self.half_bits;
        let mut right = x & mask;
        for &k in &self.keys {
            let f = mix(right ^ k) & mask;
            let new_left = right;
            right = left ^ f;
            left = new_left;
        }
        (left << self.half_bits) | right
    }

    /// Maps `x` to its permuted position (cycle-walking until the image lands
    /// inside the domain).
    ///
    /// # Panics
    /// Panics if `x >= domain`.
    pub fn apply(&self, x: u64) -> u64 {
        assert!(
            x < self.domain,
            "PRP input {x} outside domain {}",
            self.domain
        );
        let mut y = self.feistel(x);
        while y >= self.domain {
            y = self.feistel(y);
        }
        y
    }

    /// Domain size.
    pub fn domain(&self) -> u64 {
        self.domain
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn is_a_permutation() {
        for domain in [1u64, 2, 7, 64, 100, 1000] {
            let prp = Prp::new(domain, 0xdead_beef);
            let mut seen = vec![false; domain as usize];
            for x in 0..domain {
                let y = prp.apply(x);
                assert!(y < domain);
                assert!(!seen[y as usize], "collision at {y} (domain {domain})");
                seen[y as usize] = true;
            }
        }
    }

    #[test]
    fn different_keys_differ() {
        let a = Prp::new(1000, 1);
        let b = Prp::new(1000, 2);
        let same = (0..1000).filter(|&x| a.apply(x) == b.apply(x)).count();
        assert!(same < 50, "{same} fixed pairs between independent keys");
    }

    #[test]
    fn deterministic() {
        let a = Prp::new(512, 99);
        let b = Prp::new(512, 99);
        for x in 0..512 {
            assert_eq!(a.apply(x), b.apply(x));
        }
    }

    #[test]
    fn spreads_sequential_inputs() {
        // Consecutive inputs should not map to consecutive outputs.
        let prp = Prp::new(4096, 7);
        let mut adjacent = 0;
        for x in 0..4095u64 {
            if prp.apply(x).abs_diff(prp.apply(x + 1)) == 1 {
                adjacent += 1;
            }
        }
        assert!(adjacent < 40, "{adjacent} adjacent mappings");
    }

    #[test]
    #[should_panic(expected = "outside domain")]
    fn rejects_out_of_domain() {
        Prp::new(10, 0).apply(10);
    }

    proptest! {
        #[test]
        fn permutation_property(domain in 1u64..5000, key in any::<u64>()) {
            let prp = Prp::new(domain, key);
            let mut seen = std::collections::HashSet::new();
            // spot-check a sample; full check for small domains
            let step = (domain / 64).max(1);
            for x in (0..domain).step_by(step as usize) {
                let y = prp.apply(x);
                prop_assert!(y < domain);
                prop_assert!(seen.insert(y));
            }
        }
    }
}
