//! Fixed-width bitsets.
//!
//! Used for (a) arc-flag vectors (one bit per region per edge, §4) and
//! (b) the destination-region sets propagated up shortest-path trees during
//! the S_ij / G_ij pre-computation (§5.2).

/// A fixed-capacity bitset backed by `u64` words.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct FixedBitset {
    bits: usize,
    words: Vec<u64>,
}

impl FixedBitset {
    /// An all-zero bitset with capacity `bits`.
    pub fn new(bits: usize) -> Self {
        FixedBitset {
            bits,
            words: vec![0; bits.div_ceil(64)],
        }
    }

    /// Sets bit `i`.
    ///
    /// # Panics
    /// Panics if `i >= capacity`.
    pub fn set(&mut self, i: usize) {
        assert!(i < self.bits, "bit {i} out of range {}", self.bits);
        self.words[i / 64] |= 1u64 << (i % 64);
    }

    /// Reads bit `i`.
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.bits, "bit {i} out of range {}", self.bits);
        self.words[i / 64] >> (i % 64) & 1 == 1
    }

    /// Sets every bit of `other` in `self` (`self |= other`).
    ///
    /// # Panics
    /// Panics on capacity mismatch.
    pub fn union_with(&mut self, other: &FixedBitset) {
        assert_eq!(self.bits, other.bits, "bitset capacity mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// True if no bit is set.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Clears all bits (keeps capacity).
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Iterates the indices of set bits in ascending order.
    pub fn ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut rem = w;
            std::iter::from_fn(move || {
                if rem == 0 {
                    return None;
                }
                let tz = rem.trailing_zeros() as usize;
                rem &= rem - 1;
                Some(wi * 64 + tz)
            })
        })
    }

    /// Rebuilds a bitset from raw words.
    pub(crate) fn from_words(bits: usize, words: Vec<u64>) -> Self {
        assert_eq!(words.len(), bits.div_ceil(64));
        FixedBitset { bits, words }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn ones_iterates_in_order() {
        let mut b = FixedBitset::new(200);
        for i in [3usize, 5, 63, 64, 65, 128, 199] {
            b.set(i);
        }
        let got: Vec<usize> = b.ones().collect();
        assert_eq!(got, vec![3, 5, 63, 64, 65, 128, 199]);
    }

    #[test]
    fn clear_resets() {
        let mut a = FixedBitset::new(10);
        a.set(9);
        assert!(!a.is_empty());
        a.clear();
        assert!(a.is_empty());
        assert_eq!(a.bits, 10);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_panics() {
        let mut b = FixedBitset::new(8);
        b.set(8);
    }

    #[test]
    fn words_round_trip() {
        let mut a = FixedBitset::new(70);
        a.set(69);
        let b = FixedBitset::from_words(70, a.words.clone());
        assert_eq!(a, b);
    }

    proptest! {
        #[test]
        fn matches_reference_set(idx in proptest::collection::btree_set(0usize..500, 0..100)) {
            let mut b = FixedBitset::new(500);
            for &i in &idx { b.set(i); }
            prop_assert_eq!(b.ones().count(), idx.len());
            let got: Vec<usize> = b.ones().collect();
            let want: Vec<usize> = idx.iter().copied().collect();
            prop_assert_eq!(got, want);
        }

        #[test]
        fn union_is_set_union(
            xs in proptest::collection::btree_set(0usize..300, 0..50),
            ys in proptest::collection::btree_set(0usize..300, 0..50),
        ) {
            let mut a = FixedBitset::new(300);
            let mut b = FixedBitset::new(300);
            for &i in &xs { a.set(i); }
            for &i in &ys { b.set(i); }
            a.union_with(&b);
            let want: Vec<usize> = xs.union(&ys).copied().collect();
            let got: Vec<usize> = a.ones().collect();
            prop_assert_eq!(got, want);
        }
    }
}
