//! Exact fractions in `[0, 1]` for positions along an edge segment.
//!
//! Border nodes sit at `t = (c − a)/(b − a)` along their edge, where all
//! quantities are (doubled) integer coordinates. Comparing crossing positions
//! from different split axes requires exact arithmetic — `i128`
//! cross-multiplication avoids any floating-point ordering bugs.

use std::cmp::Ordering;

/// A non-negative fraction `num/den` with `den > 0`, usually in `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Frac {
    /// Numerator.
    pub(crate) num: i64,
    /// Denominator (always positive after construction).
    pub(crate) den: i64,
}

impl Frac {
    /// Zero.
    pub(crate) const ZERO: Frac = Frac { num: 0, den: 1 };
    /// One.
    pub(crate) const ONE: Frac = Frac { num: 1, den: 1 };

    /// Creates `num/den`, normalizing the sign so `den > 0` and reducing by
    /// the gcd so structurally-equal fractions are value-equal (`2/4 == 1/2`).
    ///
    /// # Panics
    /// Panics if `den == 0`.
    pub(crate) fn new(num: i64, den: i64) -> Frac {
        assert_ne!(den, 0, "fraction denominator must be nonzero");
        let (mut num, mut den) = if den < 0 { (-num, -den) } else { (num, den) };
        let g = gcd(num.unsigned_abs(), den.unsigned_abs());
        if g > 1 {
            num /= g as i64;
            den /= g as i64;
        }
        Frac { num, den }
    }

    /// `1 − self` (used to mirror crossing positions onto the reverse arc).
    pub(crate) fn complement(self) -> Frac {
        Frac {
            num: self.den - self.num,
            den: self.den,
        }
    }

    /// Approximate value as `f64` (for weight apportioning only, never for
    /// ordering decisions).
    pub fn to_f64(self) -> f64 {
        self.num as f64 / self.den as f64
    }

    /// True if strictly between zero and one — i.e. an interior point of the
    /// segment, which is what makes a crossing a genuine border node.
    pub(crate) fn is_interior(self) -> bool {
        self > Frac::ZERO && self < Frac::ONE
    }
}

fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a.max(1)
}

impl PartialOrd for Frac {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Frac {
    fn cmp(&self, other: &Self) -> Ordering {
        let lhs = i128::from(self.num) * i128::from(other.den);
        let rhs = i128::from(other.num) * i128::from(self.den);
        lhs.cmp(&rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn ordering_is_exact() {
        assert!(Frac::new(1, 3) < Frac::new(1, 2));
        assert!(Frac::new(2, 4) == Frac::new(1, 2));
        assert!(Frac::new(-1, -2) == Frac::new(1, 2));
        assert!(Frac::new(1, -2) < Frac::ZERO);
    }

    #[test]
    fn complement() {
        assert_eq!(Frac::new(1, 4).complement(), Frac::new(3, 4));
        assert_eq!(Frac::ZERO.complement(), Frac::ONE);
    }

    #[test]
    fn interior() {
        assert!(Frac::new(1, 2).is_interior());
        assert!(!Frac::ZERO.is_interior());
        assert!(!Frac::ONE.is_interior());
        assert!(!Frac::new(5, 4).is_interior());
        assert!(Frac::new(2, 4) == Frac::new(1, 2));
    }

    #[test]
    #[should_panic(expected = "denominator")]
    fn zero_denominator_panics() {
        Frac::new(1, 0);
    }

    proptest! {
        #[test]
        fn cmp_matches_f64_when_far_apart(a in 1i64..10_000, b in 1i64..10_000, c in 1i64..10_000, d in 1i64..10_000) {
            let x = Frac::new(a, b);
            let y = Frac::new(c, d);
            let fx = x.to_f64();
            let fy = y.to_f64();
            if (fx - fy).abs() > 1e-9 {
                prop_assert_eq!(x.cmp(&y), fx.partial_cmp(&fy).unwrap());
            }
        }

        #[test]
        fn complement_is_involution(num in 0i64..1000, den in 1i64..1000) {
            let f = Frac::new(num.min(den), den);
            prop_assert_eq!(f.complement().complement(), f);
        }
    }
}
