//! Exact rational numbers in lowest terms.

use crate::Natural;
use std::cmp::Ordering;
use std::fmt;

/// An exact rational number.
///
/// Invariants: `den != 0`, `gcd(num, den) == 1`, and `num == 0` implies
/// `!neg && den == 1`.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Rational {
    neg: bool,
    num: Natural,
    den: Natural,
}

impl Rational {
    /// Zero.
    pub fn zero() -> Self {
        Rational {
            neg: false,
            num: Natural::zero(),
            den: Natural::one(),
        }
    }

    /// One.
    pub fn one() -> Self {
        Rational {
            neg: false,
            num: Natural::one(),
            den: Natural::one(),
        }
    }

    /// Builds `num/den` from unsigned parts. Panics if `den == 0`.
    pub fn from_ratio(num: u64, den: u64) -> Self {
        Rational::new(false, Natural::from_u64(num), Natural::from_u64(den))
    }

    /// Builds a signed integer.
    pub fn from_i64(v: i64) -> Self {
        Rational::new(v < 0, Natural::from_u64(v.unsigned_abs()), Natural::one())
    }

    /// Builds a normalized rational from sign + parts.
    pub fn new(neg: bool, num: Natural, den: Natural) -> Self {
        assert!(!den.is_zero(), "rational with zero denominator");
        if num.is_zero() {
            return Rational::zero();
        }
        let g = num.gcd(&den);
        if g.is_one() {
            return Rational { neg, num, den };
        }
        let (num, _) = num.div_rem(&g);
        let (den, _) = den.div_rem(&g);
        Rational { neg, num, den }
    }

    /// The numerator (absolute value).
    pub fn numer(&self) -> &Natural {
        &self.num
    }

    /// The denominator.
    pub fn denom(&self) -> &Natural {
        &self.den
    }

    /// True iff negative.
    pub fn is_negative(&self) -> bool {
        self.neg
    }

    /// True iff zero.
    pub fn is_zero(&self) -> bool {
        self.num.is_zero()
    }

    /// True iff exactly one.
    pub fn is_one(&self) -> bool {
        !self.neg && self.num.is_one() && self.den.is_one()
    }

    /// Negation.
    pub fn neg(&self) -> Rational {
        if self.is_zero() {
            self.clone()
        } else {
            Rational {
                neg: !self.neg,
                num: self.num.clone(),
                den: self.den.clone(),
            }
        }
    }

    /// Numerator and denominator as machine words, when both fit.
    #[inline]
    fn as_u64_parts(&self) -> Option<(u64, u64)> {
        Some((self.num.to_u64()?, self.den.to_u64()?))
    }

    /// Addition.
    pub fn add(&self, other: &Rational) -> Rational {
        // Small-value fast path: word-sized operands combine in u128
        // arithmetic with a primitive gcd, skipping all Natural
        // allocations (and the arbitrary-precision gcd) entirely.
        if let (Some((a, b)), Some((c, d))) = (self.as_u64_parts(), other.as_u64_parts()) {
            if let Some(r) = add_small(a, b, self.neg, c, d, other.neg) {
                return r;
            }
        }
        // a/b + c/d = (a*d + c*b) / (b*d), with signs.
        let ad = self.num.mul(&other.den);
        let cb = other.num.mul(&self.den);
        let den = self.den.mul(&other.den);
        match (self.neg, other.neg) {
            (false, false) => Rational::new(false, ad.add(&cb), den),
            (true, true) => Rational::new(true, ad.add(&cb), den),
            (sn, _) => match ad.cmp_nat(&cb) {
                Ordering::Equal => Rational::zero(),
                Ordering::Greater => Rational::new(sn, ad.checked_sub(&cb).unwrap(), den),
                Ordering::Less => Rational::new(!sn, cb.checked_sub(&ad).unwrap(), den),
            },
        }
    }

    /// Subtraction.
    pub fn sub(&self, other: &Rational) -> Rational {
        self.add(&other.neg())
    }

    /// Multiplication.
    pub fn mul(&self, other: &Rational) -> Rational {
        // Small-value fast path: cross-reduce with primitive gcds before
        // multiplying. Because both operands are in lowest terms, the
        // cross-reduced product is already canonical — no gcd of the
        // (up to 128-bit) product is ever computed.
        if let (Some((a, b)), Some((c, d))) = (self.as_u64_parts(), other.as_u64_parts()) {
            if a == 0 || c == 0 {
                return Rational::zero();
            }
            let g1 = gcd_u64(a, d);
            let g2 = gcd_u64(c, b);
            return Rational {
                neg: self.neg != other.neg,
                num: Natural::from_u128((a / g1) as u128 * (c / g2) as u128),
                den: Natural::from_u128((b / g2) as u128 * (d / g1) as u128),
            };
        }
        Rational::new(
            self.neg != other.neg,
            self.num.mul(&other.num),
            self.den.mul(&other.den),
        )
    }

    /// Division. Panics on division by zero.
    pub fn div(&self, other: &Rational) -> Rational {
        assert!(!other.is_zero(), "rational division by zero");
        Rational::new(
            self.neg != other.neg,
            self.num.mul(&other.den),
            self.den.mul(&other.num),
        )
    }

    /// `1 - self` (ubiquitous for probabilities).
    pub fn one_minus(&self) -> Rational {
        Rational::one().sub(self)
    }

    /// Integer power.
    pub fn pow(&self, mut e: u32) -> Rational {
        let mut base = self.clone();
        let mut acc = Rational::one();
        while e > 0 {
            if e & 1 == 1 {
                acc = acc.mul(&base);
            }
            base = base.mul(&base);
            e >>= 1;
        }
        acc
    }

    /// Correctly-rounded `f64` value (round-to-nearest, ties-to-even)
    /// for results in the normal range; results that underflow to the
    /// subnormal range may be off by at most one additional ulp
    /// (≤ 2⁻¹⁰⁷⁴ absolute). The float evaluation tier's error
    /// accounting leans on this: a conversion contributes at most half
    /// an ulp of relative error.
    pub fn to_f64(&self) -> f64 {
        let mag = if self.den.is_one() {
            self.num.to_f64()
        } else if self.num.is_zero() {
            0.0
        } else {
            // Scale so the integer quotient q = ⌊num·2^k / den⌋ carries
            // 55–56 bits, then round q (plus a sticky bit from both the
            // dropped quotient bits and the division remainder) to a
            // 53-bit significand in one nearest-even step.
            let nb = self.num.bit_len() as i64;
            let db = self.den.bit_len() as i64;
            let k = db - nb + 55;
            let (scaled_num, divisor) = if k >= 0 {
                (
                    self.num.shl(k.min(u32::MAX as i64) as u32),
                    self.den.clone(),
                )
            } else {
                (
                    self.num.clone(),
                    self.den.shl((-k).min(u32::MAX as i64) as u32),
                )
            };
            let (q, r) = scaled_num.div_rem(&divisor);
            let qb = q.bit_len();
            debug_assert!((54..=56).contains(&qb), "quotient carries {qb} bits");
            let s = qb.saturating_sub(54);
            let mut m = q.shr(s as u32).to_u64().expect("54 bits fit in a u64");
            let sticky = !r.is_zero() || q.low_bits_nonzero(s);
            let round = m & 1 == 1;
            m >>= 1;
            if round && (sticky || m & 1 == 1) {
                m += 1;
            }
            ldexp(
                m as f64,
                (s as i64 + 1 - k).clamp(i32::MIN as i64, i32::MAX as i64) as i32,
            )
        };
        if self.neg {
            -mag
        } else {
            mag
        }
    }

    /// True iff the value lies in `[0, 1]` (valid probability).
    pub fn is_probability(&self) -> bool {
        !self.neg && self.num.cmp_nat(&self.den) != Ordering::Greater
    }
}

/// `m · 2^e` with the exponent applied in steps small enough that no
/// intermediate `powi` overflows on its own (a single `powi(-1074)`
/// would underflow to zero before the multiply).
fn ldexp(m: f64, mut e: i32) -> f64 {
    let mut x = m;
    while e > 1000 {
        x *= 2f64.powi(1000);
        e -= 1000;
        if x.is_infinite() {
            return x;
        }
    }
    while e < -1000 {
        x *= 2f64.powi(-1000);
        e += 1000;
        if x == 0.0 {
            return x;
        }
    }
    x * 2f64.powi(e)
}

/// Word-sized addition: `±a/b + ±c/d` in u128 arithmetic. Returns `None`
/// on (near-impossible) u128 overflow of `a·d + c·b`, sending the caller
/// to the arbitrary-precision path. The result is canonical: the u128 gcd
/// normalization mirrors [`Rational::new`] exactly.
#[inline]
fn add_small(a: u64, b: u64, a_neg: bool, c: u64, d: u64, c_neg: bool) -> Option<Rational> {
    let ad = a as u128 * d as u128;
    let cb = c as u128 * b as u128;
    let den = b as u128 * d as u128;
    let (neg, num) = match (a_neg, c_neg) {
        (false, false) => (false, ad.checked_add(cb)?),
        (true, true) => (true, ad.checked_add(cb)?),
        (sn, _) => match ad.cmp(&cb) {
            Ordering::Equal => return Some(Rational::zero()),
            Ordering::Greater => (sn, ad - cb),
            Ordering::Less => (!sn, cb - ad),
        },
    };
    if num == 0 {
        return Some(Rational::zero());
    }
    let g = gcd_u128(num, den);
    Some(Rational {
        neg,
        num: Natural::from_u128(num / g),
        den: Natural::from_u128(den / g),
    })
}

/// Binary gcd over a primitive unsigned width: `gcd_u64` runs on the
/// multiplication cross-reduction, `gcd_u128` normalizes word-sized sums
/// and finishes [`Natural::gcd`] once both operands fit in 4 limbs.
macro_rules! binary_gcd {
    ($vis:vis $name:ident, $t:ty) => {
        #[inline]
        $vis fn $name(mut a: $t, mut b: $t) -> $t {
            if a == 0 {
                return b;
            }
            if b == 0 {
                return a;
            }
            let shift = (a | b).trailing_zeros();
            a >>= a.trailing_zeros();
            loop {
                b >>= b.trailing_zeros();
                if a > b {
                    std::mem::swap(&mut a, &mut b);
                }
                b -= a;
                if b == 0 {
                    return a << shift;
                }
            }
        }
    };
}

binary_gcd!(gcd_u64, u64);
binary_gcd!(pub(crate) gcd_u128, u128);

impl PartialOrd for Rational {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Rational {
    fn cmp(&self, other: &Self) -> Ordering {
        match (self.neg, other.neg) {
            (false, true) => Ordering::Greater,
            (true, false) => Ordering::Less,
            (neg, _) => {
                let lhs = self.num.mul(&other.den);
                let rhs = other.num.mul(&self.den);
                let ord = lhs.cmp_nat(&rhs);
                if neg {
                    ord.reverse()
                } else {
                    ord
                }
            }
        }
    }
}

impl fmt::Display for Rational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.neg {
            write!(f, "-")?;
        }
        if self.den.is_one() {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

impl fmt::Debug for Rational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Rational({self} ≈ {})", self.to_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn rat(n: i64, d: u64) -> Rational {
        Rational::new(
            n < 0,
            Natural::from_u64(n.unsigned_abs()),
            Natural::from_u64(d),
        )
    }

    #[test]
    fn normalization() {
        assert_eq!(rat(2, 4), rat(1, 2));
        assert_eq!(rat(-6, 9), rat(-2, 3));
        assert_eq!(rat(0, 7), Rational::zero());
        assert_eq!(rat(0, 7).to_string(), "0");
        assert_eq!(rat(-1, 2).to_string(), "-1/2");
        assert_eq!(rat(4, 2).to_string(), "2");
    }

    #[test]
    fn arithmetic_basics() {
        assert_eq!(rat(1, 2).add(&rat(1, 3)), rat(5, 6));
        assert_eq!(rat(1, 2).sub(&rat(1, 3)), rat(1, 6));
        assert_eq!(rat(1, 3).sub(&rat(1, 2)), rat(-1, 6));
        assert_eq!(rat(2, 3).mul(&rat(3, 4)), rat(1, 2));
        assert_eq!(rat(2, 3).div(&rat(4, 3)), rat(1, 2));
        assert_eq!(rat(1, 4).one_minus(), rat(3, 4));
        assert_eq!(rat(-1, 2).add(&rat(1, 2)), Rational::zero());
        assert_eq!(rat(1, 2).pow(10), rat(1, 1024));
        assert_eq!(rat(-2, 1).pow(3), rat(-8, 1));
        assert_eq!(rat(7, 3).pow(0), Rational::one());
    }

    #[test]
    fn fast_and_slow_paths_agree_across_the_word_boundary() {
        // A >64-bit numerator forces the arbitrary-precision path; mixing
        // it with word-sized operands must stay exact and canonical.
        let big = Rational::new(
            false,
            Natural::from_decimal("123456789012345678901234567890").unwrap(),
            Natural::from_u64(7),
        );
        let small = rat(3, 4);
        assert_eq!(big.mul(&small).div(&small), big);
        assert_eq!(big.add(&small).sub(&small), big);
        // Near-overflow word-sized operands: `a·d + c·b` approaches 2¹²⁸
        // but stays on the fast path, exactly.
        let x = Rational::from_ratio(u64::MAX - 1, u64::MAX);
        let y = Rational::from_ratio(1, u64::MAX - 2);
        assert_eq!(x.add(&y).sub(&y), x);
        assert_eq!(x.mul(&y).div(&y), x);
        // Signs and cancellation through the fast path.
        assert_eq!(rat(-1, 2).add(&rat(1, 2)), Rational::zero());
        assert_eq!(rat(-2, 3).mul(&rat(-3, 2)), Rational::one());
    }

    #[test]
    fn to_f64_correctly_rounded() {
        // IEEE division of exactly-representable operands is itself the
        // correctly-rounded quotient — the oracle for word-sized cases.
        for (n, d) in [
            (1u64, 3u64),
            (2, 3),
            (1, 10),
            (355, 113),
            ((1 << 53) - 1, 7),
            (1, (1 << 53) - 1),
            ((1 << 53) - 3, (1 << 53) - 1),
        ] {
            assert_eq!(
                Rational::from_ratio(n, d).to_f64(),
                n as f64 / d as f64,
                "{n}/{d}"
            );
        }
        assert_eq!(rat(-1, 3).to_f64(), -(1.0 / 3.0));
        // 2^53 significand boundary: (2^53+1)/2^107 needs 54 bits —
        // the tie rounds to even (2^53), giving exactly 2^-54.
        let p53_plus_1 = Natural::from_u128((1u128 << 53) + 1);
        let tie = Rational::new(false, p53_plus_1, Natural::one().shl(107));
        assert_eq!(tie.to_f64(), 2f64.powi(-54));
        // 2^64 boundary in the numerator: the sticky bit below the top
        // 54 bits must reach the rounding decision.
        let p64 = 1u128 << 64;
        let r = Rational::new(
            false,
            Natural::from_u128(p64 + 2049),
            Natural::one().shl(64),
        );
        assert_eq!(r.to_f64(), ((p64 + 4096) as f64) / (p64 as f64));
        // Deep underflow rounds to zero; overflow saturates.
        let tiny = Rational::new(false, Natural::one(), Natural::one().shl(1080));
        assert_eq!(tiny.to_f64(), 0.0);
        let huge = Rational::new(false, Natural::one().shl(1030), Natural::from_u64(3));
        assert_eq!(huge.to_f64(), f64::INFINITY);
    }

    #[test]
    fn probability_range() {
        assert!(rat(1, 2).is_probability());
        assert!(Rational::zero().is_probability());
        assert!(Rational::one().is_probability());
        assert!(!rat(3, 2).is_probability());
        assert!(!rat(-1, 2).is_probability());
    }

    #[test]
    fn ordering() {
        assert!(rat(1, 3) < rat(1, 2));
        assert!(rat(-1, 2) < rat(-1, 3));
        assert!(rat(-1, 2) < rat(1, 100));
        assert_eq!(rat(2, 4).cmp(&rat(1, 2)), Ordering::Equal);
    }

    #[test]
    fn example_2_2_value() {
        // Pr(G ⇝ H) = 0.7 × (1 − 0.9 × 0.2) = 0.574 = 287/500.
        let p = rat(7, 10).mul(&rat(9, 10).mul(&rat(2, 10)).one_minus());
        assert_eq!(p, rat(287, 500));
        assert!((p.to_f64() - 0.574).abs() < 1e-12);
    }

    /// A product of up to 3 random factors, each a power of two below
    /// 2^100, a small odd number or a full 64-bit word: zero, dyadic,
    /// word-sized and multi-limb parts all occur.
    fn factors(runner: &mut proptest::TestRunner) -> Natural {
        (0..u8::arbitrary(runner) % 4).fold(Natural::one(), |acc, _| {
            let f = match u8::arbitrary(runner) % 3 {
                0 => Natural::one().shl(u32::arbitrary(runner) % 100),
                1 => Natural::from_u64((u64::arbitrary(runner) % 1000) | 1),
                _ => Natural::from_u64(u64::arbitrary(runner)),
            };
            acc.mul(&f)
        })
    }

    /// `(g·x, g·y)` with `g`, `x`, `y` drawn by [`factors`]; `x` is
    /// sometimes zero.
    fn unreduced_parts(runner: &mut proptest::TestRunner) -> (Natural, Natural) {
        let g = factors(runner);
        let x = match u8::arbitrary(runner) % 16 {
            0 => Natural::zero(),
            _ => factors(runner),
        };
        (g.mul(&x), g.mul(&factors(runner)))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]

        #[test]
        fn new_matches_normalization_by_euclid(
            parts in unreduced_parts as fn(&mut proptest::TestRunner) -> (Natural, Natural),
            neg: bool,
        ) {
            let (num, den) = parts;
            let r = Rational::new(neg, num.clone(), den.clone());
            // Euclid's algorithm over `div_rem` as the reference gcd.
            let (mut a, mut b) = (num.clone(), den.clone());
            while !b.is_zero() {
                let rem = a.div_rem(&b).1;
                a = b;
                b = rem;
            }
            let (want_num, rem) = num.div_rem(&a);
            prop_assert!(rem.is_zero());
            let (want_den, rem) = den.div_rem(&a);
            prop_assert!(rem.is_zero());
            let want_den = if want_num.is_zero() { Natural::one() } else { want_den };
            prop_assert_eq!(r.numer(), &want_num);
            prop_assert_eq!(r.denom(), &want_den);
            prop_assert_eq!(r.is_negative(), neg && !num.is_zero());
        }
    }

    proptest! {
        #[test]
        fn to_f64_matches_ieee_division(n in 0u64..(1 << 53), d in 1u64..(1 << 53)) {
            // Both operands are exact in f64, so hardware division is the
            // correctly-rounded quotient.
            prop_assert_eq!(Rational::from_ratio(n, d).to_f64(), n as f64 / d as f64);
        }

        #[test]
        fn add_commutes(a in -1000i64..1000, b in 1u64..100, c in -1000i64..1000, d in 1u64..100) {
            let x = rat(a, b);
            let y = rat(c, d);
            prop_assert_eq!(x.add(&y), y.add(&x));
        }

        #[test]
        fn add_associates(a in -100i64..100, b in 1u64..20, c in -100i64..100,
                          d in 1u64..20, e in -100i64..100, f in 1u64..20) {
            let x = rat(a, b);
            let y = rat(c, d);
            let z = rat(e, f);
            prop_assert_eq!(x.add(&y).add(&z), x.add(&y.add(&z)));
        }

        #[test]
        fn mul_distributes(a in -100i64..100, b in 1u64..20, c in -100i64..100,
                           d in 1u64..20, e in -100i64..100, f in 1u64..20) {
            let x = rat(a, b);
            let y = rat(c, d);
            let z = rat(e, f);
            prop_assert_eq!(x.mul(&y.add(&z)), x.mul(&y).add(&x.mul(&z)));
        }

        #[test]
        fn sub_then_add_roundtrips(a in -1000i64..1000, b in 1u64..100,
                                   c in -1000i64..1000, d in 1u64..100) {
            let x = rat(a, b);
            let y = rat(c, d);
            prop_assert_eq!(x.sub(&y).add(&y), x);
        }

        #[test]
        fn div_inverts_mul(a in -1000i64..1000, b in 1u64..100,
                           c in -1000i64..1000, d in 1u64..100) {
            prop_assume!(c != 0);
            let x = rat(a, b);
            let y = rat(c, d);
            prop_assert_eq!(x.mul(&y).div(&y), x);
        }

        #[test]
        fn to_f64_close(a in -100_000i64..100_000, b in 1u64..100_000) {
            let x = rat(a, b);
            let expect = a as f64 / b as f64;
            prop_assert!((x.to_f64() - expect).abs() < 1e-9);
        }

        #[test]
        fn cmp_matches_f64(a in -1000i64..1000, b in 1u64..100,
                           c in -1000i64..1000, d in 1u64..100) {
            let x = rat(a, b);
            let y = rat(c, d);
            let fx = a as f64 / b as f64;
            let fy = c as f64 / d as f64;
            if (fx - fy).abs() > 1e-9 {
                prop_assert_eq!(x < y, fx < fy);
            }
        }
    }
}
