//! Arbitrary-precision unsigned integers.
//!
//! Little-endian base-2³² limbs with no trailing zero limb (the canonical
//! representation of zero is the empty limb vector). The operations
//! implemented are exactly those the rest of the workspace needs: addition,
//! subtraction, multiplication, Knuth-style long division, binary GCD,
//! shifts, comparison, and conversions.

use crate::rational::gcd_u128;
use std::cmp::Ordering;
use std::fmt;

const BASE_BITS: u32 = 32;

/// An arbitrary-precision unsigned integer.
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct Natural {
    /// Little-endian limbs; invariant: no trailing `0` limb.
    limbs: Vec<u32>,
}

impl Natural {
    /// The number zero.
    pub fn zero() -> Self {
        Natural { limbs: Vec::new() }
    }

    /// The number one.
    pub fn one() -> Self {
        Natural { limbs: vec![1] }
    }

    /// Builds a natural from a `u64`.
    pub fn from_u64(v: u64) -> Self {
        let mut limbs = vec![v as u32, (v >> 32) as u32];
        while limbs.last() == Some(&0) {
            limbs.pop();
        }
        Natural { limbs }
    }

    /// Builds a natural from a `u128`.
    pub fn from_u128(v: u128) -> Self {
        let mut limbs = vec![
            v as u32,
            (v >> 32) as u32,
            (v >> 64) as u32,
            (v >> 96) as u32,
        ];
        while limbs.last() == Some(&0) {
            limbs.pop();
        }
        Natural { limbs }
    }

    /// Returns the value as a `u64` if it fits (the common case on the
    /// probability hot path, where numerators and denominators stay
    /// word-sized; see `Rational`'s small-value fast paths).
    #[inline]
    pub fn to_u64(&self) -> Option<u64> {
        match self.limbs.as_slice() {
            [] => Some(0),
            [lo] => Some(*lo as u64),
            [lo, hi] => Some(*lo as u64 | (*hi as u64) << 32),
            _ => None,
        }
    }

    /// Returns the value as a `u128` if it fits.
    pub fn to_u128(&self) -> Option<u128> {
        if self.limbs.len() > 4 {
            return None;
        }
        let mut v: u128 = 0;
        for (i, &l) in self.limbs.iter().enumerate() {
            v |= (l as u128) << (32 * i as u32);
        }
        Some(v)
    }

    /// True iff this is zero.
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// True iff this is one.
    pub fn is_one(&self) -> bool {
        self.limbs.len() == 1 && self.limbs[0] == 1
    }

    /// Number of significant bits (0 for zero).
    pub fn bit_len(&self) -> u64 {
        match self.limbs.last() {
            None => 0,
            Some(&top) => {
                (self.limbs.len() as u64 - 1) * BASE_BITS as u64
                    + (BASE_BITS - top.leading_zeros()) as u64
            }
        }
    }

    fn normalize(mut limbs: Vec<u32>) -> Natural {
        while limbs.last() == Some(&0) {
            limbs.pop();
        }
        Natural { limbs }
    }

    /// Addition.
    pub fn add(&self, other: &Natural) -> Natural {
        let (a, b) = if self.limbs.len() >= other.limbs.len() {
            (&self.limbs, &other.limbs)
        } else {
            (&other.limbs, &self.limbs)
        };
        let mut out = Vec::with_capacity(a.len() + 1);
        let mut carry: u64 = 0;
        #[allow(clippy::needless_range_loop)] // b is indexed too, via get()
        for i in 0..a.len() {
            let sum = a[i] as u64 + *b.get(i).unwrap_or(&0) as u64 + carry;
            out.push(sum as u32);
            carry = sum >> 32;
        }
        if carry != 0 {
            out.push(carry as u32);
        }
        Natural::normalize(out)
    }

    /// Subtraction; returns `None` if `other > self`.
    pub fn checked_sub(&self, other: &Natural) -> Option<Natural> {
        if self.cmp_nat(other) == Ordering::Less {
            return None;
        }
        let mut out = Vec::with_capacity(self.limbs.len());
        let mut borrow: i64 = 0;
        for i in 0..self.limbs.len() {
            let mut diff = self.limbs[i] as i64 - *other.limbs.get(i).unwrap_or(&0) as i64 - borrow;
            if diff < 0 {
                diff += 1 << 32;
                borrow = 1;
            } else {
                borrow = 0;
            }
            out.push(diff as u32);
        }
        debug_assert_eq!(borrow, 0);
        Some(Natural::normalize(out))
    }

    /// Multiplication (schoolbook; our operand sizes stay small enough that
    /// asymptotically faster algorithms are not worth the complexity).
    pub fn mul(&self, other: &Natural) -> Natural {
        if self.is_zero() || other.is_zero() {
            return Natural::zero();
        }
        let mut out = vec![0u32; self.limbs.len() + other.limbs.len()];
        for (i, &a) in self.limbs.iter().enumerate() {
            let mut carry: u64 = 0;
            for (j, &b) in other.limbs.iter().enumerate() {
                let cur = out[i + j] as u64 + a as u64 * b as u64 + carry;
                out[i + j] = cur as u32;
                carry = cur >> 32;
            }
            let mut k = i + other.limbs.len();
            while carry != 0 {
                let cur = out[k] as u64 + carry;
                out[k] = cur as u32;
                carry = cur >> 32;
                k += 1;
            }
        }
        Natural::normalize(out)
    }

    /// Left shift by `bits`.
    pub fn shl(&self, bits: u32) -> Natural {
        if self.is_zero() || bits == 0 {
            return self.clone();
        }
        let limb_shift = (bits / BASE_BITS) as usize;
        let bit_shift = bits % BASE_BITS;
        let mut out = vec![0u32; limb_shift];
        if bit_shift == 0 {
            out.extend_from_slice(&self.limbs);
        } else {
            let mut carry: u32 = 0;
            for &l in &self.limbs {
                out.push((l << bit_shift) | carry);
                carry = l >> (BASE_BITS - bit_shift);
            }
            if carry != 0 {
                out.push(carry);
            }
        }
        Natural::normalize(out)
    }

    /// Right shift by `bits`.
    pub fn shr(&self, bits: u32) -> Natural {
        let limb_shift = (bits / BASE_BITS) as usize;
        if limb_shift >= self.limbs.len() {
            return Natural::zero();
        }
        let bit_shift = bits % BASE_BITS;
        let mut out: Vec<u32> = self.limbs[limb_shift..].to_vec();
        if bit_shift != 0 {
            let mut carry: u32 = 0;
            for l in out.iter_mut().rev() {
                let new = (*l >> bit_shift) | carry;
                carry = *l << (BASE_BITS - bit_shift);
                *l = new;
            }
        }
        Natural::normalize(out)
    }

    /// Comparison.
    pub fn cmp_nat(&self, other: &Natural) -> Ordering {
        if self.limbs.len() != other.limbs.len() {
            return self.limbs.len().cmp(&other.limbs.len());
        }
        for i in (0..self.limbs.len()).rev() {
            match self.limbs[i].cmp(&other.limbs[i]) {
                Ordering::Equal => continue,
                ord => return ord,
            }
        }
        Ordering::Equal
    }

    /// Division with remainder. Panics if `divisor` is zero.
    pub fn div_rem(&self, divisor: &Natural) -> (Natural, Natural) {
        assert!(!divisor.is_zero(), "division by zero Natural");
        match self.cmp_nat(divisor) {
            Ordering::Less => return (Natural::zero(), self.clone()),
            Ordering::Equal => return (Natural::one(), Natural::zero()),
            Ordering::Greater => {}
        }
        if divisor.limbs.len() == 1 {
            let d = divisor.limbs[0] as u64;
            let mut rem: u64 = 0;
            let mut out = vec![0u32; self.limbs.len()];
            for i in (0..self.limbs.len()).rev() {
                let cur = (rem << 32) | self.limbs[i] as u64;
                out[i] = (cur / d) as u32;
                rem = cur % d;
            }
            return (Natural::normalize(out), Natural::from_u64(rem));
        }
        self.div_rem_knuth(divisor)
    }

    /// Knuth Algorithm D for multi-limb divisors.
    fn div_rem_knuth(&self, divisor: &Natural) -> (Natural, Natural) {
        let shift = divisor.limbs.last().unwrap().leading_zeros();
        let v = divisor.shl(shift).limbs;
        let mut u = {
            let shifted = self.shl(shift);
            let mut l = shifted.limbs;
            l.push(0); // room for the virtual extra limb u[m+n]
            l
        };
        let n = v.len();
        let m = u.len() - 1 - n;
        let mut q = vec![0u32; m + 1];
        let b: u64 = 1 << 32;
        for j in (0..=m).rev() {
            let top = ((u[j + n] as u64) << 32) | u[j + n - 1] as u64;
            let mut qhat = top / v[n - 1] as u64;
            let mut rhat = top % v[n - 1] as u64;
            while qhat >= b || qhat * v[n - 2] as u64 > ((rhat << 32) | u[j + n - 2] as u64) {
                qhat -= 1;
                rhat += v[n - 1] as u64;
                if rhat >= b {
                    break;
                }
            }
            // Multiply and subtract: u[j..j+n+1] -= qhat * v.
            let mut borrow: i64 = 0;
            let mut carry: u64 = 0;
            for i in 0..n {
                let p = qhat * v[i] as u64 + carry;
                carry = p >> 32;
                let mut t = u[j + i] as i64 - (p as u32) as i64 - borrow;
                if t < 0 {
                    t += b as i64;
                    borrow = 1;
                } else {
                    borrow = 0;
                }
                u[j + i] = t as u32;
            }
            let t = u[j + n] as i64 - carry as i64 - borrow;
            if t < 0 {
                // qhat was one too large: add back.
                u[j + n] = (t + b as i64) as u32;
                qhat -= 1;
                let mut c: u64 = 0;
                for i in 0..n {
                    let s = u[j + i] as u64 + v[i] as u64 + c;
                    u[j + i] = s as u32;
                    c = s >> 32;
                }
                u[j + n] = u[j + n].wrapping_add(c as u32);
            } else {
                u[j + n] = t as u32;
            }
            q[j] = qhat as u32;
        }
        let rem = Natural::normalize(u[..n].to_vec()).shr(shift);
        (Natural::normalize(q), rem)
    }

    /// Greatest common divisor: a binary GCD that works in place on one
    /// copy of each operand, allocating nothing per step. Each round
    /// subtracts the smaller odd operand from the larger in place and
    /// strips all the difference's trailing zero bits at once; once both
    /// operands fit in 4 limbs it finishes in `u128`.
    pub fn gcd(&self, other: &Natural) -> Natural {
        if let (Some(a), Some(b)) = (self.to_u128(), other.to_u128()) {
            return Natural::from_u128(gcd_u128(a, b));
        }
        if self.is_zero() || other.is_zero() {
            return if self.is_zero() { other } else { self }.clone();
        }
        let shift = self.trailing_zeros().min(other.trailing_zeros());
        let mut a = self.clone();
        let mut b = other.clone();
        a.shr_assign(a.trailing_zeros());
        b.shr_assign(b.trailing_zeros());
        // Both odd from here on.
        loop {
            match a.cmp_nat(&b) {
                Ordering::Equal => return a.shl(shift as u32),
                Ordering::Less => std::mem::swap(&mut a, &mut b),
                Ordering::Greater => {}
            }
            a.sub_assign(&b);
            a.shr_assign(a.trailing_zeros());
            if let (Some(x), Some(y)) = (a.to_u128(), b.to_u128()) {
                return Natural::from_u128(gcd_u128(x, y)).shl(shift as u32);
            }
        }
    }

    /// Number of trailing zero bits (0 for zero).
    fn trailing_zeros(&self) -> u64 {
        match self.limbs.iter().position(|&l| l != 0) {
            None => 0,
            Some(i) => i as u64 * BASE_BITS as u64 + self.limbs[i].trailing_zeros() as u64,
        }
    }

    /// `self -= other` in place; requires `self ≥ other`.
    fn sub_assign(&mut self, other: &Natural) {
        let mut borrow = false;
        for (i, l) in self.limbs.iter_mut().enumerate() {
            if i >= other.limbs.len() && !borrow {
                break;
            }
            let (d, o1) = l.overflowing_sub(other.limbs.get(i).copied().unwrap_or(0));
            let (d, o2) = d.overflowing_sub(borrow as u32);
            *l = d;
            borrow = o1 || o2;
        }
        debug_assert!(!borrow, "sub_assign needs self ≥ other");
        self.trim();
    }

    /// `self >>= bits` in place.
    fn shr_assign(&mut self, bits: u64) {
        let limbs = ((bits / BASE_BITS as u64) as usize).min(self.limbs.len());
        self.limbs.drain(..limbs);
        let bit_shift = (bits % BASE_BITS as u64) as u32;
        if bit_shift != 0 {
            for i in 0..self.limbs.len() {
                let carry = self
                    .limbs
                    .get(i + 1)
                    .map_or(0, |&h| h << (BASE_BITS - bit_shift));
                self.limbs[i] = (self.limbs[i] >> bit_shift) | carry;
            }
        }
        self.trim();
    }

    /// Drops trailing zero limbs, restoring the invariant.
    fn trim(&mut self) {
        while self.limbs.last() == Some(&0) {
            self.limbs.pop();
        }
    }

    /// Correctly-rounded conversion to `f64` (round-to-nearest,
    /// ties-to-even — the IEEE 754 default); returns `f64::INFINITY`
    /// when out of range. The float evaluation tier's error accounting
    /// starts from this guarantee: the result is always within half an
    /// ulp of the true value.
    pub fn to_f64(&self) -> f64 {
        let bits = self.bit_len();
        if bits == 0 {
            return 0.0;
        }
        if bits <= 64 {
            // `u64 as f64` rounds to nearest-even natively.
            let mut v: u64 = 0;
            for (i, &l) in self.limbs.iter().enumerate() {
                v |= (l as u64) << (32 * i as u32);
            }
            return v as f64;
        }
        if bits > 1024 {
            return f64::INFINITY; // ≥ 2^1024 > f64::MAX
        }
        // Keep the top 54 bits (53-bit significand + round bit) and
        // fold every dropped bit into a sticky bit, so the final
        // nearest-even decision sees the full value — shifting to 64
        // bits and casting would round twice and miss ties.
        let excess = (bits - 54) as u32;
        let mut m = self.shr(excess).to_u64().expect("54 bits fit in a u64");
        let sticky = self.low_bits_nonzero(excess as u64);
        let round = m & 1 == 1;
        m >>= 1;
        if round && (sticky || m & 1 == 1) {
            m += 1; // may carry to 2^53 — still exactly representable
        }
        (m as f64) * 2f64.powi(excess as i32 + 1)
    }

    /// True iff any of the low `bits` bits are set (the "sticky" test
    /// used by the correctly-rounded float conversions).
    pub(crate) fn low_bits_nonzero(&self, bits: u64) -> bool {
        let full = (bits / BASE_BITS as u64) as usize;
        if self.limbs.iter().take(full).any(|&l| l != 0) {
            return true;
        }
        let rem = (bits % BASE_BITS as u64) as u32;
        rem != 0
            && self
                .limbs
                .get(full)
                .is_some_and(|&l| l & ((1u32 << rem) - 1) != 0)
    }

    /// `self * 10^0 ..` decimal rendering.
    fn to_decimal(&self) -> String {
        if self.is_zero() {
            return "0".into();
        }
        let chunk = Natural::from_u64(1_000_000_000);
        let mut rest = self.clone();
        let mut parts: Vec<u32> = Vec::new();
        while !rest.is_zero() {
            let (q, r) = rest.div_rem(&chunk);
            parts.push(r.to_u128().unwrap() as u32);
            rest = q;
        }
        let mut s = format!("{}", parts.pop().unwrap());
        for p in parts.into_iter().rev() {
            s.push_str(&format!("{p:09}"));
        }
        s
    }

    /// Parses a decimal string (used by tests and examples).
    pub fn from_decimal(s: &str) -> Option<Natural> {
        if s.is_empty() || !s.bytes().all(|b| b.is_ascii_digit()) {
            return None;
        }
        let ten9 = Natural::from_u64(1_000_000_000);
        let mut out = Natural::zero();
        let bytes = s.as_bytes();
        let mut i = 0;
        while i < bytes.len() {
            let remaining = bytes.len() - i;
            let take = if remaining.is_multiple_of(9) {
                9
            } else {
                remaining % 9
            };
            let chunk: u64 = s[i..i + take].parse().ok()?;
            let mult = if take == 9 {
                ten9.clone()
            } else {
                Natural::from_u64(10u64.pow(take as u32))
            };
            out = out.mul(&mult).add(&Natural::from_u64(chunk));
            i += take;
        }
        Some(out)
    }
}

impl PartialOrd for Natural {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Natural {
    fn cmp(&self, other: &Self) -> Ordering {
        self.cmp_nat(other)
    }
}

impl fmt::Display for Natural {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_decimal())
    }
}

impl fmt::Debug for Natural {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Natural({self})")
    }
}

impl From<u64> for Natural {
    fn from(v: u64) -> Self {
        Natural::from_u64(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn zero_and_one() {
        assert!(Natural::zero().is_zero());
        assert!(Natural::one().is_one());
        assert!(!Natural::one().is_zero());
        assert_eq!(Natural::zero().bit_len(), 0);
        assert_eq!(Natural::one().bit_len(), 1);
        assert_eq!(Natural::from_u64(0), Natural::zero());
    }

    #[test]
    fn display_roundtrip_small() {
        for v in [0u64, 1, 9, 10, 999_999_999, 1_000_000_000, u64::MAX] {
            let n = Natural::from_u64(v);
            assert_eq!(n.to_string(), v.to_string());
            assert_eq!(Natural::from_decimal(&v.to_string()), Some(n));
        }
    }

    #[test]
    fn big_display() {
        // 2^128 = 340282366920938463463374607431768211456
        let two = Natural::from_u64(2);
        let mut n = Natural::one();
        for _ in 0..128 {
            n = n.mul(&two);
        }
        assert_eq!(n.to_string(), "340282366920938463463374607431768211456");
        assert_eq!(Natural::from_decimal(&n.to_string()), Some(n));
    }

    #[test]
    fn to_f64_correctly_rounded_at_boundaries() {
        // Exact up to 2^53; ties round to even above it.
        let p53 = 1u128 << 53;
        assert_eq!(Natural::from_u128(p53).to_f64(), p53 as f64);
        assert_eq!(Natural::from_u128(p53 + 1).to_f64(), p53 as f64); // tie → even
        assert_eq!(Natural::from_u128(p53 + 2).to_f64(), (p53 + 2) as f64);
        assert_eq!(Natural::from_u128(p53 + 3).to_f64(), (p53 + 4) as f64); // tie → even
                                                                            // Across the 2^64 boundary the ulp is 2^12 = 4096; the sticky
                                                                            // bit must survive the shift (the old truncating conversion
                                                                            // rounded 2^64 + 2049 down to 2^64).
        let p64 = 1u128 << 64;
        assert_eq!(Natural::from_u128(p64).to_f64(), p64 as f64);
        assert_eq!(Natural::from_u128(p64 + 2048).to_f64(), p64 as f64); // tie → even
        assert_eq!(Natural::from_u128(p64 + 2049).to_f64(), (p64 + 4096) as f64);
        assert_eq!(Natural::from_u128(p64 + 4096).to_f64(), (p64 + 4096) as f64);
        // `u128 as f64` is itself correctly rounded — cross-check a spread.
        for v in [
            u64::MAX as u128,
            u64::MAX as u128 + 1,
            0x1234_5678_9abc_def0_1234u128,
            u128::MAX,
        ] {
            assert_eq!(Natural::from_u128(v).to_f64(), v as f64, "{v}");
        }
        // Out-of-range values saturate to infinity.
        let huge = Natural::one().shl(1025);
        assert_eq!(huge.to_f64(), f64::INFINITY);
        assert_eq!(Natural::one().shl(1023).to_f64(), 2f64.powi(1023));
    }

    #[test]
    fn division_by_zero_panics() {
        let r = std::panic::catch_unwind(|| Natural::one().div_rem(&Natural::zero()));
        assert!(r.is_err());
    }

    #[test]
    fn knuth_addback_case() {
        // A case engineered to exercise the add-back branch:
        // u = b^4 * 3/4-ish patterns. Use known tricky values.
        let u = Natural::from_u128(0x8000_0000_0000_0000_0000_0000_0000_0000u128);
        let v = Natural::from_u128(0x8000_0000_0000_0001u128);
        let (q, r) = u.div_rem(&v);
        let back = q.mul(&v).add(&r);
        assert_eq!(back, u);
        assert!(r.cmp_nat(&v) == std::cmp::Ordering::Less);
    }

    #[test]
    fn gcd_basics() {
        let a = Natural::from_u64(48);
        let b = Natural::from_u64(36);
        assert_eq!(a.gcd(&b), Natural::from_u64(12));
        assert_eq!(a.gcd(&Natural::zero()), a);
        assert_eq!(Natural::zero().gcd(&b), b);
        assert_eq!(Natural::one().gcd(&b), Natural::one());
    }

    #[test]
    fn shifts() {
        let n = Natural::from_u64(0xdead_beef);
        assert_eq!(n.shl(40).shr(40), n);
        assert_eq!(n.shr(64), Natural::zero());
        assert_eq!(Natural::zero().shl(100), Natural::zero());
    }

    fn nat(v: u128) -> Natural {
        Natural::from_u128(v)
    }

    /// A product of `k` random odd 32–64-bit factors.
    fn odd_product(runner: &mut proptest::TestRunner, k: u8) -> Natural {
        (0..k).fold(Natural::one(), |acc, _| {
            acc.mul(&Natural::from_u64(u64::arbitrary(runner) | 1 << 31 | 1))
        })
    }

    /// A random number of exactly `bits` bits (`bits ≥ 1`).
    fn exact_bits(runner: &mut proptest::TestRunner, bits: u32) -> Natural {
        let words = bits.div_ceil(64);
        let low = (0..words).fold(Natural::zero(), |acc, _| {
            acc.shl(64).add(&Natural::from_u64(u64::arbitrary(runner)))
        });
        low.shr(words * 64 - (bits - 1))
            .add(&Natural::one().shl(bits - 1))
    }

    /// Multi-limb gcd operands in four shapes, each sharing a factor so
    /// the answer is rarely 1:
    /// * `(g·x << s, g·y << t)`, `g`, `x`, `y` products of odd 32–64-bit
    ///   factors and shifts below 130, so the binary GCD's subtract and
    ///   strip loop runs over several limbs;
    /// * the same with dyadic-heavy shifts up to 400 bits (runs of whole
    ///   zero limbs on one side or both);
    /// * one operand a power of two `2^s`, the other `g·x << t`;
    /// * `g·x << s` and `g·y << t` of 120–136 bits, straddling the 128-bit
    ///   point where the loop hands over to `u128`.
    fn multi_limb_gcd_operands(runner: &mut proptest::TestRunner) -> (Natural, Natural) {
        let shape = u8::arbitrary(runner) % 4;
        let max_shift = if shape == 1 { 400 } else { 130 };
        let shift = |runner: &mut proptest::TestRunner| u32::arbitrary(runner) % max_shift;
        match shape {
            0 | 1 => {
                let kg = u8::arbitrary(runner) % 4;
                let g = odd_product(runner, kg + 1);
                let (kx, ky) = (u8::arbitrary(runner) % 4, u8::arbitrary(runner) % 4);
                let a = g.mul(&odd_product(runner, kx)).shl(shift(runner));
                let b = g.mul(&odd_product(runner, ky)).shl(shift(runner));
                (a, b)
            }
            2 => {
                let kx = u8::arbitrary(runner) % 4;
                let a = Natural::one().shl(shift(runner));
                let b = odd_product(runner, kx + 1).shl(shift(runner));
                (a, b)
            }
            _ => {
                let gbits = 1 + u32::arbitrary(runner) % 64;
                let g = exact_bits(runner, gbits);
                let side = |runner: &mut proptest::TestRunner| {
                    let total = 120 + u32::arbitrary(runner) % 17;
                    let s = (u32::arbitrary(runner) % 5).min(total - gbits - 1);
                    g.mul(&exact_bits(runner, total - gbits - s)).shl(s)
                };
                (side(runner), side(runner))
            }
        }
    }

    /// Euclid's algorithm over [`Natural::div_rem`]: the reference the
    /// binary GCD is checked against.
    fn euclid_by_div_rem(mut a: Natural, mut b: Natural) -> Natural {
        while !b.is_zero() {
            let r = a.div_rem(&b).1;
            a = b;
            b = r;
        }
        a
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]

        #[test]
        fn gcd_matches_euclid_on_multi_limb_operands(
            ab in multi_limb_gcd_operands as fn(&mut proptest::TestRunner) -> (Natural, Natural)
        ) {
            let (a, b) = ab;
            let want = euclid_by_div_rem(a.clone(), b.clone());
            prop_assert_eq!(a.gcd(&b), want.clone());
            prop_assert_eq!(b.gcd(&a), want);
        }
    }

    proptest! {
        #[test]
        fn add_matches_u128(a in 0u128..=u64::MAX as u128, b in 0u128..=u64::MAX as u128) {
            prop_assert_eq!(nat(a).add(&nat(b)), nat(a + b));
        }

        #[test]
        fn sub_matches_u128(a: u128, b: u128) {
            let (hi, lo) = if a >= b { (a, b) } else { (b, a) };
            prop_assert_eq!(nat(hi).checked_sub(&nat(lo)), Some(nat(hi - lo)));
            if hi != lo {
                prop_assert_eq!(nat(lo).checked_sub(&nat(hi)), None);
            }
        }

        #[test]
        fn mul_matches_u128(a in 0u128..=u64::MAX as u128, b in 0u128..=u64::MAX as u128) {
            prop_assert_eq!(nat(a).mul(&nat(b)), nat(a * b));
        }

        #[test]
        fn div_rem_matches_u128(a: u128, b in 1u128..) {
            let (q, r) = nat(a).div_rem(&nat(b));
            prop_assert_eq!(q, nat(a / b));
            prop_assert_eq!(r, nat(a % b));
        }

        #[test]
        fn div_rem_reconstructs(a: u128, b in 1u128..) {
            let (q, r) = nat(a).div_rem(&nat(b));
            prop_assert_eq!(q.mul(&nat(b)).add(&r), nat(a));
            prop_assert!(r < nat(b));
        }

        #[test]
        fn gcd_matches_euclid(a: u64, b: u64) {
            fn euclid(mut a: u64, mut b: u64) -> u64 {
                while b != 0 {
                    let t = a % b;
                    a = b;
                    b = t;
                }
                a
            }
            prop_assert_eq!(nat(a as u128).gcd(&nat(b as u128)), nat(euclid(a, b) as u128));
        }

        #[test]
        fn cmp_matches_u128(a: u128, b: u128) {
            prop_assert_eq!(nat(a).cmp_nat(&nat(b)), a.cmp(&b));
        }

        #[test]
        fn to_f64_close(a: u128) {
            let f = nat(a).to_f64();
            let expect = a as f64;
            prop_assert!((f - expect).abs() <= expect * 1e-9);
        }

        #[test]
        fn decimal_roundtrip(a: u128) {
            let n = nat(a);
            prop_assert_eq!(n.to_string(), a.to_string());
            prop_assert_eq!(Natural::from_decimal(&a.to_string()), Some(n));
        }

        #[test]
        fn big_mul_div_roundtrip(a: u128, b in 1u128.., c in 1u128..) {
            // (a*b*c) / (b*c) == a with multi-limb divisors.
            let prod = nat(a).mul(&nat(b)).mul(&nat(c));
            let div = nat(b).mul(&nat(c));
            let (q, r) = prod.div_rem(&div);
            prop_assert_eq!(q, nat(a));
            prop_assert!(r.is_zero());
        }
    }
}
