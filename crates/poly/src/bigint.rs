//! Arbitrary-precision signed integers with an inline small-value fast
//! path.
//!
//! The parametric partitioning algorithm performs long chains of
//! Fourier–Motzkin combinations whose coefficients can overflow any fixed
//! width integer, so all polyhedral arithmetic is exact over [`BigInt`].
//! In practice, though, the overwhelming majority of coefficients are tiny
//! (gcd normalization after every operation keeps them small), so the
//! representation is a two-armed enum: an inline `i64` for values that fit,
//! and a sign plus little-endian `u32` limbs only for values that do not.
//!
//! The representation is canonical — the heap arm is used *only* for
//! values outside the `i64` range, and limb vectors never carry trailing
//! zeros — so structural equality and hashing coincide with numeric
//! equality and derived `Eq`/`Hash` are correct. Every arithmetic result
//! is re-canonicalized, demoting back to the inline arm whenever it fits;
//! promotions (small operands whose result needs limbs) are counted in
//! `offload_obs::PipelineStats::small_int_promotions`.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Rem, Sub, SubAssign};
use std::str::FromStr;

/// Sign of a heap-allocated [`BigInt`] (the heap arm is never zero).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Sign {
    Negative,
    Positive,
}

/// Internal representation. Invariant: `Big` is used only for values
/// strictly outside the `i64` range, and its limb vector has no trailing
/// zeros — so every value has exactly one representation.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Repr {
    Small(i64),
    /// Little-endian limbs; magnitude exceeds `i64::MAX` for positives
    /// and 2^63 for negatives (a magnitude of exactly 2^63 with negative
    /// sign is `i64::MIN` and stays `Small`).
    Big(Sign, Vec<u32>),
}

/// An arbitrary-precision signed integer.
///
/// # Examples
///
/// ```
/// use offload_poly::BigInt;
///
/// let a = BigInt::from(1_000_000_007i64);
/// let b = &a * &a;
/// assert_eq!(b.to_string(), "1000000014000000049");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct BigInt(Repr);

/// Binary (Stein's) gcd: shifts and subtractions, no division.
#[inline]
fn gcd_u64(mut a: u64, mut b: u64) -> u64 {
    if a == 0 || b == 0 {
        return a | b;
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

impl BigInt {
    /// The integer zero.
    #[inline]
    pub fn zero() -> Self {
        BigInt(Repr::Small(0))
    }

    /// The integer one.
    #[inline]
    pub fn one() -> Self {
        BigInt(Repr::Small(1))
    }

    /// Returns `true` if this integer is zero.
    #[inline]
    pub fn is_zero(&self) -> bool {
        matches!(self.0, Repr::Small(0))
    }

    /// Returns `true` if this integer is one.
    #[inline]
    pub(crate) fn is_one(&self) -> bool {
        matches!(self.0, Repr::Small(1))
    }

    /// Returns `true` if this integer is strictly positive.
    #[inline]
    pub fn is_positive(&self) -> bool {
        match &self.0 {
            Repr::Small(v) => *v > 0,
            Repr::Big(s, _) => *s == Sign::Positive,
        }
    }

    /// Returns `true` if this integer is strictly negative.
    #[inline]
    pub fn is_negative(&self) -> bool {
        match &self.0 {
            Repr::Small(v) => *v < 0,
            Repr::Big(s, _) => *s == Sign::Negative,
        }
    }

    /// Sign as `-1`, `0` or `1`.
    #[inline]
    pub fn signum(&self) -> i32 {
        match &self.0 {
            Repr::Small(v) => v.signum() as i32,
            Repr::Big(Sign::Negative, _) => -1,
            Repr::Big(Sign::Positive, _) => 1,
        }
    }

    /// The inline value, when this integer fits `i64`.
    #[inline]
    pub(crate) fn as_small(&self) -> Option<i64> {
        match self.0 {
            Repr::Small(v) => Some(v),
            Repr::Big(..) => None,
        }
    }

    /// Absolute value.
    pub fn abs(&self) -> Self {
        match &self.0 {
            Repr::Small(v) => match v.checked_abs() {
                Some(a) => BigInt(Repr::Small(a)),
                // |i64::MIN| = 2^63 does not fit i64.
                None => BigInt::promoted_i128(-(i64::MIN as i128)),
            },
            Repr::Big(_, limbs) => BigInt(Repr::Big(Sign::Positive, limbs.clone())),
        }
    }

    /// Canonical constructor from a value known to fit `i128`; promotes to
    /// the heap arm (and counts the promotion) only when needed.
    #[inline]
    fn promoted_i128(v: i128) -> Self {
        if let Ok(s) = i64::try_from(v) {
            return BigInt(Repr::Small(s));
        }
        offload_obs::tally(|t| t.small_int_promotions += 1);
        Self::big_from_u128(v < 0, v.unsigned_abs())
    }

    /// Like [`Self::promoted_i128`] but without the promotion accounting —
    /// used by `From` conversions, where a large literal is not an
    /// arithmetic overflow.
    #[inline]
    fn from_i128_quiet(v: i128) -> Self {
        if let Ok(s) = i64::try_from(v) {
            return BigInt(Repr::Small(s));
        }
        Self::big_from_u128(v < 0, v.unsigned_abs())
    }

    fn big_from_u128(negative: bool, mut mag: u128) -> Self {
        // Caller guarantees the value is outside i64 range.
        debug_assert!(mag > i64::MAX as u128);
        let mut limbs = Vec::with_capacity(4);
        while mag != 0 {
            limbs.push(mag as u32);
            mag >>= 32;
        }
        let sign = if negative {
            Sign::Negative
        } else {
            Sign::Positive
        };
        BigInt(Repr::Big(sign, limbs))
    }

    /// Canonical constructor from a signed magnitude: trims trailing
    /// zeros and demotes to the inline arm when the value fits `i64`.
    fn from_sign_limbs(sign: i8, mut limbs: Vec<u32>) -> Self {
        while limbs.last() == Some(&0) {
            limbs.pop();
        }
        if limbs.is_empty() {
            return BigInt::zero();
        }
        if limbs.len() <= 2 {
            let mag = limbs[0] as u64 | ((limbs.get(1).copied().unwrap_or(0) as u64) << 32);
            if sign > 0 && mag <= i64::MAX as u64 {
                return BigInt(Repr::Small(mag as i64));
            }
            if sign < 0 && mag <= i64::MIN.unsigned_abs() {
                return BigInt(Repr::Small((mag as i64).wrapping_neg()));
            }
        }
        debug_assert_ne!(sign, 0);
        let s = if sign < 0 {
            Sign::Negative
        } else {
            Sign::Positive
        };
        BigInt(Repr::Big(s, limbs))
    }

    /// Magnitude view: sign as `-1`/`0`/`1` plus a limb slice, borrowing
    /// either the heap limbs or a caller-provided stack buffer for the
    /// inline arm. Lets mixed small/big operations share one code path
    /// without allocating.
    #[inline]
    fn mag_view<'a>(&'a self, buf: &'a mut [u32; 2]) -> (i8, &'a [u32]) {
        match &self.0 {
            Repr::Small(0) => (0, &[]),
            Repr::Small(v) => {
                let m = v.unsigned_abs();
                buf[0] = m as u32;
                buf[1] = (m >> 32) as u32;
                let len = if buf[1] != 0 { 2 } else { 1 };
                (if *v < 0 { -1 } else { 1 }, &buf[..len])
            }
            Repr::Big(Sign::Negative, limbs) => (-1, limbs.as_slice()),
            Repr::Big(Sign::Positive, limbs) => (1, limbs.as_slice()),
        }
    }

    /// Converts to `i128` if the value fits.
    pub fn to_i128(&self) -> Option<i128> {
        match &self.0 {
            Repr::Small(v) => Some(*v as i128),
            Repr::Big(sign, limbs) => {
                if limbs.len() > 4 {
                    return None;
                }
                let mut mag: u128 = 0;
                for (i, &l) in limbs.iter().enumerate() {
                    mag |= (l as u128) << (32 * i);
                }
                match sign {
                    Sign::Positive => {
                        if mag <= i128::MAX as u128 {
                            Some(mag as i128)
                        } else {
                            None
                        }
                    }
                    Sign::Negative => {
                        if mag <= i128::MAX as u128 + 1 {
                            Some((mag as i128).wrapping_neg())
                        } else {
                            None
                        }
                    }
                }
            }
        }
    }

    /// Converts to `f64` (approximately, for reporting only).
    pub fn to_f64(&self) -> f64 {
        match &self.0 {
            Repr::Small(v) => *v as f64,
            Repr::Big(sign, limbs) => {
                let mut v = 0.0f64;
                for &l in limbs.iter().rev() {
                    v = v * 4294967296.0 + l as f64;
                }
                if *sign == Sign::Negative {
                    -v
                } else {
                    v
                }
            }
        }
    }

    fn cmp_mag(a: &[u32], b: &[u32]) -> Ordering {
        if a.len() != b.len() {
            return a.len().cmp(&b.len());
        }
        for (x, y) in a.iter().rev().zip(b.iter().rev()) {
            if x != y {
                return x.cmp(y);
            }
        }
        Ordering::Equal
    }

    fn add_mag(a: &[u32], b: &[u32]) -> Vec<u32> {
        let (long, short) = if a.len() >= b.len() { (a, b) } else { (b, a) };
        let mut out = Vec::with_capacity(long.len() + 1);
        let mut carry = 0u64;
        for i in 0..long.len() {
            let mut s = long[i] as u64 + carry;
            if i < short.len() {
                s += short[i] as u64;
            }
            out.push(s as u32);
            carry = s >> 32;
        }
        if carry != 0 {
            out.push(carry as u32);
        }
        out
    }

    /// Requires `a >= b` in magnitude.
    fn sub_mag(a: &[u32], b: &[u32]) -> Vec<u32> {
        debug_assert!(Self::cmp_mag(a, b) != Ordering::Less);
        let mut out = Vec::with_capacity(a.len());
        let mut borrow = 0i64;
        for i in 0..a.len() {
            let mut d = a[i] as i64 - borrow;
            if i < b.len() {
                d -= b[i] as i64;
            }
            if d < 0 {
                d += 1 << 32;
                borrow = 1;
            } else {
                borrow = 0;
            }
            out.push(d as u32);
        }
        debug_assert_eq!(borrow, 0);
        out
    }

    fn mul_mag(a: &[u32], b: &[u32]) -> Vec<u32> {
        if a.is_empty() || b.is_empty() {
            return Vec::new();
        }
        let mut out = vec![0u32; a.len() + b.len()];
        for (i, &x) in a.iter().enumerate() {
            let mut carry = 0u64;
            for (j, &y) in b.iter().enumerate() {
                let t = out[i + j] as u64 + x as u64 * y as u64 + carry;
                out[i + j] = t as u32;
                carry = t >> 32;
            }
            let mut k = i + b.len();
            while carry != 0 {
                let t = out[k] as u64 + carry;
                out[k] = t as u32;
                carry = t >> 32;
                k += 1;
            }
        }
        out
    }

    /// Schoolbook magnitude division: returns `(quotient, remainder)`.
    fn divmod_mag(a: &[u32], b: &[u32]) -> (Vec<u32>, Vec<u32>) {
        assert!(!b.is_empty(), "division by zero");
        if Self::cmp_mag(a, b) == Ordering::Less {
            return (Vec::new(), a.to_vec());
        }
        if b.len() == 1 {
            // Fast path: single-limb divisor.
            let d = b[0] as u64;
            let mut q = vec![0u32; a.len()];
            let mut rem = 0u64;
            for i in (0..a.len()).rev() {
                let cur = (rem << 32) | a[i] as u64;
                q[i] = (cur / d) as u32;
                rem = cur % d;
            }
            while q.last() == Some(&0) {
                q.pop();
            }
            let r = if rem == 0 {
                Vec::new()
            } else {
                vec![rem as u32]
            };
            return (q, r);
        }
        // Binary long division over bits (adequate for the coefficient sizes
        // arising in our polyhedral computations, which are kept small by
        // gcd normalization after every operation).
        let bits = a.len() * 32;
        let mut q = vec![0u32; a.len()];
        let mut rem: Vec<u32> = Vec::new();
        for bit in (0..bits).rev() {
            // rem = rem << 1 | bit_of_a
            let mut carry = (a[bit / 32] >> (bit % 32)) & 1;
            for limb in rem.iter_mut() {
                let next = *limb >> 31;
                *limb = (*limb << 1) | carry;
                carry = next;
            }
            if carry != 0 {
                rem.push(carry);
            }
            if Self::cmp_mag(&rem, b) != Ordering::Less {
                rem = Self::sub_mag(&rem, b);
                while rem.last() == Some(&0) {
                    rem.pop();
                }
                q[bit / 32] |= 1 << (bit % 32);
            }
        }
        while q.last() == Some(&0) {
            q.pop();
        }
        (q, rem)
    }

    /// Signed addition over magnitude views (both operands non-zero).
    fn add_signed(s1: i8, m1: &[u32], s2: i8, m2: &[u32]) -> BigInt {
        debug_assert!(s1 != 0 && s2 != 0);
        if s1 == s2 {
            BigInt::from_sign_limbs(s1, Self::add_mag(m1, m2))
        } else {
            match Self::cmp_mag(m1, m2) {
                Ordering::Equal => BigInt::zero(),
                Ordering::Greater => BigInt::from_sign_limbs(s1, Self::sub_mag(m1, m2)),
                Ordering::Less => BigInt::from_sign_limbs(s2, Self::sub_mag(m2, m1)),
            }
        }
    }

    /// Euclidean division returning `(quotient, remainder)` with the
    /// remainder carrying the sign of `self` (truncated division, matching
    /// Rust's `/` and `%` on primitives).
    pub fn div_rem(&self, other: &BigInt) -> (BigInt, BigInt) {
        assert!(!other.is_zero(), "division by zero");
        if let (Repr::Small(a), Repr::Small(b)) = (&self.0, &other.0) {
            if let (Some(q), Some(r)) = (a.checked_div(*b), a.checked_rem(*b)) {
                return (BigInt(Repr::Small(q)), BigInt(Repr::Small(r)));
            }
            // i128 sidesteps the lone overflow case, i64::MIN / -1 = 2^63.
            let (a, b) = (*a as i128, *b as i128);
            return (
                BigInt::promoted_i128(a / b),
                BigInt(Repr::Small((a % b) as i64)),
            );
        }
        let (mut b1, mut b2) = ([0u32; 2], [0u32; 2]);
        let (s1, m1) = self.mag_view(&mut b1);
        let (s2, m2) = other.mag_view(&mut b2);
        let (qm, rm) = Self::divmod_mag(m1, m2);
        (
            BigInt::from_sign_limbs(s1 * s2, qm),
            BigInt::from_sign_limbs(s1, rm),
        )
    }

    /// Greatest common divisor (always non-negative).
    ///
    /// `gcd(0, 0)` is defined as `0`.
    pub fn gcd(&self, other: &BigInt) -> BigInt {
        if let (Repr::Small(a), Repr::Small(b)) = (&self.0, &other.0) {
            let g = gcd_u64(a.unsigned_abs(), b.unsigned_abs());
            // gcd of two i64 magnitudes can be 2^63 (e.g. both i64::MIN):
            // promoted_i128 handles the spill.
            return BigInt::promoted_i128(g as i128);
        }
        // Mixed or big operands: Euclid over magnitudes drops into the
        // all-small path after at most a couple of big divisions.
        let mut a = self.abs();
        let mut b = other.abs();
        while !b.is_zero() {
            if let (Repr::Small(x), Repr::Small(y)) = (&a.0, &b.0) {
                let g = gcd_u64(x.unsigned_abs(), y.unsigned_abs());
                return BigInt::promoted_i128(g as i128);
            }
            let r = a.div_rem(&b).1;
            a = b;
            b = r.abs();
        }
        a
    }

    /// `self -= a·b`, without materializing the product when every
    /// operand is inline.
    #[inline]
    pub(crate) fn sub_mul(&mut self, a: &BigInt, b: &BigInt) {
        if let (Repr::Small(s), Repr::Small(x), Repr::Small(y)) = (&self.0, &a.0, &b.0) {
            // |x·y| ≤ 2^126 and |s| ≤ 2^63: the difference fits i128.
            *self = BigInt::promoted_i128(*s as i128 - *x as i128 * *y as i128);
            return;
        }
        *self -= &(a * b);
    }

    /// Least common multiple (always non-negative).
    ///
    /// # Panics
    ///
    /// Panics if both arguments are zero.
    pub fn lcm(&self, other: &BigInt) -> BigInt {
        let g = self.gcd(other);
        (&(&self.abs() / &g) * &other.abs()).abs()
    }
}

impl Default for BigInt {
    fn default() -> Self {
        BigInt::zero()
    }
}

impl Ord for BigInt {
    fn cmp(&self, other: &Self) -> Ordering {
        match (&self.0, &other.0) {
            (Repr::Small(a), Repr::Small(b)) => a.cmp(b),
            // The heap arm is canonical: it is always outside i64 range,
            // so its sign alone decides against any inline value.
            (Repr::Small(_), Repr::Big(Sign::Positive, _)) => Ordering::Less,
            (Repr::Small(_), Repr::Big(Sign::Negative, _)) => Ordering::Greater,
            (Repr::Big(Sign::Positive, _), Repr::Small(_)) => Ordering::Greater,
            (Repr::Big(Sign::Negative, _), Repr::Small(_)) => Ordering::Less,
            (Repr::Big(s1, l1), Repr::Big(s2, l2)) => match (s1, s2) {
                (Sign::Negative, Sign::Negative) => Self::cmp_mag(l2, l1),
                (Sign::Negative, Sign::Positive) => Ordering::Less,
                (Sign::Positive, Sign::Negative) => Ordering::Greater,
                (Sign::Positive, Sign::Positive) => Self::cmp_mag(l1, l2),
            },
        }
    }
}

impl PartialOrd for BigInt {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

macro_rules! impl_from_small_signed {
    ($($t:ty),*) => {$(
        impl From<$t> for BigInt {
            #[inline]
            fn from(v: $t) -> Self {
                BigInt(Repr::Small(v as i64))
            }
        }
    )*};
}
impl_from_small_signed!(i8, i16, i32, i64, isize);

impl From<i128> for BigInt {
    fn from(v: i128) -> Self {
        BigInt::from_i128_quiet(v)
    }
}

macro_rules! impl_from_small_unsigned {
    ($($t:ty),*) => {$(
        impl From<$t> for BigInt {
            #[inline]
            fn from(v: $t) -> Self {
                BigInt(Repr::Small(v as i64))
            }
        }
    )*};
}
impl_from_small_unsigned!(u8, u16, u32);

macro_rules! impl_from_wide_unsigned {
    ($($t:ty),*) => {$(
        impl From<$t> for BigInt {
            #[inline]
            fn from(v: $t) -> Self {
                BigInt::from_i128_quiet(v as i128)
            }
        }
    )*};
}
impl_from_wide_unsigned!(u64, usize);

impl From<u128> for BigInt {
    fn from(v: u128) -> Self {
        if let Ok(s) = i64::try_from(v) {
            return BigInt(Repr::Small(s));
        }
        BigInt::big_from_u128(false, v)
    }
}

impl Neg for &BigInt {
    type Output = BigInt;
    fn neg(self) -> BigInt {
        match &self.0 {
            Repr::Small(v) => match v.checked_neg() {
                Some(n) => BigInt(Repr::Small(n)),
                // -i64::MIN = 2^63 does not fit i64.
                None => BigInt::promoted_i128(-(i64::MIN as i128)),
            },
            Repr::Big(Sign::Negative, limbs) => BigInt(Repr::Big(Sign::Positive, limbs.clone())),
            Repr::Big(Sign::Positive, limbs) => {
                // Magnitude exactly 2^63 demotes to Small(i64::MIN).
                BigInt::from_sign_limbs(-1, limbs.clone())
            }
        }
    }
}

impl Neg for BigInt {
    type Output = BigInt;
    fn neg(self) -> BigInt {
        match self.0 {
            Repr::Small(v) => match v.checked_neg() {
                Some(n) => BigInt(Repr::Small(n)),
                None => BigInt::promoted_i128(-(i64::MIN as i128)),
            },
            Repr::Big(Sign::Negative, limbs) => BigInt(Repr::Big(Sign::Positive, limbs)),
            Repr::Big(Sign::Positive, limbs) => BigInt::from_sign_limbs(-1, limbs),
        }
    }
}

impl Add for &BigInt {
    type Output = BigInt;
    fn add(self, other: &BigInt) -> BigInt {
        if let (Repr::Small(a), Repr::Small(b)) = (&self.0, &other.0) {
            return match a.checked_add(*b) {
                Some(s) => BigInt(Repr::Small(s)),
                None => BigInt::promoted_i128(*a as i128 + *b as i128),
            };
        }
        let (mut b1, mut b2) = ([0u32; 2], [0u32; 2]);
        let (s1, m1) = self.mag_view(&mut b1);
        let (s2, m2) = other.mag_view(&mut b2);
        if s1 == 0 {
            return other.clone();
        }
        if s2 == 0 {
            return self.clone();
        }
        BigInt::add_signed(s1, m1, s2, m2)
    }
}

impl Sub for &BigInt {
    type Output = BigInt;
    fn sub(self, other: &BigInt) -> BigInt {
        if let (Repr::Small(a), Repr::Small(b)) = (&self.0, &other.0) {
            return match a.checked_sub(*b) {
                Some(s) => BigInt(Repr::Small(s)),
                None => BigInt::promoted_i128(*a as i128 - *b as i128),
            };
        }
        let (mut b1, mut b2) = ([0u32; 2], [0u32; 2]);
        let (s1, m1) = self.mag_view(&mut b1);
        let (s2, m2) = other.mag_view(&mut b2);
        if s2 == 0 {
            return self.clone();
        }
        if s1 == 0 {
            return BigInt::from_sign_limbs(-s2, m2.to_vec());
        }
        BigInt::add_signed(s1, m1, -s2, m2)
    }
}

impl Mul for &BigInt {
    type Output = BigInt;
    fn mul(self, other: &BigInt) -> BigInt {
        if let (Repr::Small(a), Repr::Small(b)) = (&self.0, &other.0) {
            return match a.checked_mul(*b) {
                Some(p) => BigInt(Repr::Small(p)),
                // i64 × i64 always fits i128.
                None => BigInt::promoted_i128(*a as i128 * *b as i128),
            };
        }
        if self.is_zero() || other.is_zero() {
            return BigInt::zero();
        }
        let (mut b1, mut b2) = ([0u32; 2], [0u32; 2]);
        let (s1, m1) = self.mag_view(&mut b1);
        let (s2, m2) = other.mag_view(&mut b2);
        BigInt::from_sign_limbs(s1 * s2, BigInt::mul_mag(m1, m2))
    }
}

impl Div for &BigInt {
    type Output = BigInt;
    fn div(self, other: &BigInt) -> BigInt {
        self.div_rem(other).0
    }
}

impl Rem for &BigInt {
    type Output = BigInt;
    fn rem(self, other: &BigInt) -> BigInt {
        self.div_rem(other).1
    }
}

macro_rules! forward_binop_owned {
    ($($tr:ident :: $m:ident),*) => {$(
        impl $tr for BigInt {
            type Output = BigInt;
            fn $m(self, other: BigInt) -> BigInt {
                $tr::$m(&self, &other)
            }
        }
        impl $tr<&BigInt> for BigInt {
            type Output = BigInt;
            fn $m(self, other: &BigInt) -> BigInt {
                $tr::$m(&self, other)
            }
        }
        impl $tr<BigInt> for &BigInt {
            type Output = BigInt;
            fn $m(self, other: BigInt) -> BigInt {
                $tr::$m(self, &other)
            }
        }
    )*};
}
forward_binop_owned!(Add::add, Sub::sub, Mul::mul, Div::div, Rem::rem);

impl AddAssign<&BigInt> for BigInt {
    fn add_assign(&mut self, other: &BigInt) {
        if let (Repr::Small(a), Repr::Small(b)) = (&self.0, &other.0) {
            if let Some(s) = a.checked_add(*b) {
                self.0 = Repr::Small(s);
                return;
            }
        }
        *self = &*self + other;
    }
}
impl SubAssign<&BigInt> for BigInt {
    fn sub_assign(&mut self, other: &BigInt) {
        if let (Repr::Small(a), Repr::Small(b)) = (&self.0, &other.0) {
            if let Some(s) = a.checked_sub(*b) {
                self.0 = Repr::Small(s);
                return;
            }
        }
        *self = &*self - other;
    }
}
impl MulAssign<&BigInt> for BigInt {
    fn mul_assign(&mut self, other: &BigInt) {
        if let (Repr::Small(a), Repr::Small(b)) = (&self.0, &other.0) {
            if let Some(p) = a.checked_mul(*b) {
                self.0 = Repr::Small(p);
                return;
            }
        }
        *self = &*self * other;
    }
}

impl fmt::Display for BigInt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.0 {
            Repr::Small(v) => write!(f, "{v}"),
            Repr::Big(sign, limbs) => {
                // Repeated division by 10^9.
                let mut digits: Vec<u32> = Vec::new();
                let mut cur = limbs.clone();
                while !cur.is_empty() {
                    let (q, r) = Self::divmod_mag(&cur, &[1_000_000_000]);
                    digits.push(r.first().copied().unwrap_or(0));
                    cur = q;
                }
                if *sign == Sign::Negative {
                    write!(f, "-")?;
                }
                write!(f, "{}", digits.last().expect("non-zero big"))?;
                for d in digits.iter().rev().skip(1) {
                    write!(f, "{d:09}")?;
                }
                Ok(())
            }
        }
    }
}

/// Error returned when parsing a [`BigInt`] from a malformed string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseBigIntError;

impl fmt::Display for ParseBigIntError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid integer literal")
    }
}
impl std::error::Error for ParseBigIntError {}

impl FromStr for BigInt {
    type Err = ParseBigIntError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (neg, body) = match s.strip_prefix('-') {
            Some(b) => (true, b),
            None => (false, s.strip_prefix('+').unwrap_or(s)),
        };
        if body.is_empty() || !body.bytes().all(|b| b.is_ascii_digit()) {
            return Err(ParseBigIntError);
        }
        if body.len() <= 18 {
            // ≤ 18 decimal digits always fits i64 either sign.
            let mag: i64 = body.parse().map_err(|_| ParseBigIntError)?;
            return Ok(BigInt(Repr::Small(if neg { -mag } else { mag })));
        }
        // Accumulate in 9-digit chunks: limbs = limbs * 10^k + chunk.
        let mut limbs: Vec<u32> = Vec::new();
        let bytes = body.as_bytes();
        let mut i = 0;
        while i < bytes.len() {
            let take = (bytes.len() - i).min(9);
            let mut chunk: u32 = 0;
            let mut pow: u32 = 1;
            for &b in &bytes[i..i + take] {
                chunk = chunk * 10 + (b - b'0') as u32;
            }
            for _ in 0..take {
                pow *= 10;
            }
            let mut carry = chunk as u64;
            for l in limbs.iter_mut() {
                let t = *l as u64 * pow as u64 + carry;
                *l = t as u32;
                carry = t >> 32;
            }
            while carry != 0 {
                limbs.push(carry as u32);
                carry >>= 32;
            }
            i += take;
        }
        Ok(BigInt::from_sign_limbs(if neg { -1 } else { 1 }, limbs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_identity() {
        let z = BigInt::zero();
        let a = BigInt::from(42i64);
        assert_eq!(&a + &z, a);
        assert_eq!(&z + &a, a);
        assert!(z.is_zero());
        assert_eq!(z.to_string(), "0");
    }

    #[test]
    fn add_sub_roundtrip() {
        let a = BigInt::from(i64::MAX);
        let b = BigInt::from(i64::MAX);
        let s = &a + &b;
        assert_eq!(s.to_i128(), Some(i64::MAX as i128 * 2));
        assert_eq!(&s - &b, a);
    }

    #[test]
    fn mul_carries_across_limbs() {
        let a = BigInt::from(u64::MAX);
        let b = &a * &a;
        assert_eq!(
            b.to_string(),
            format!("{}", u64::MAX as u128 * u64::MAX as u128)
        );
    }

    #[test]
    fn division_matches_primitive() {
        for &(x, y) in &[
            (100i64, 7i64),
            (-100, 7),
            (100, -7),
            (-100, -7),
            (0, 3),
            (5, 100),
        ] {
            let (q, r) = BigInt::from(x).div_rem(&BigInt::from(y));
            assert_eq!(q.to_i128(), Some((x / y) as i128), "{x}/{y}");
            assert_eq!(r.to_i128(), Some((x % y) as i128), "{x}%{y}");
        }
    }

    #[test]
    fn large_division() {
        let a: BigInt = "123456789012345678901234567890".parse().unwrap();
        let b: BigInt = "9876543210987654321".parse().unwrap();
        let (q, r) = a.div_rem(&b);
        assert_eq!(&(&q * &b) + &r, a);
        assert!(r < b);
    }

    #[test]
    fn gcd_basics() {
        assert_eq!(
            BigInt::from(12i64).gcd(&BigInt::from(18i64)),
            BigInt::from(6i64)
        );
        assert_eq!(
            BigInt::from(-12i64).gcd(&BigInt::from(18i64)),
            BigInt::from(6i64)
        );
        assert_eq!(
            BigInt::from(0i64).gcd(&BigInt::from(5i64)),
            BigInt::from(5i64)
        );
        assert_eq!(BigInt::zero().gcd(&BigInt::zero()), BigInt::zero());
    }

    #[test]
    fn lcm_basics() {
        assert_eq!(
            BigInt::from(4i64).lcm(&BigInt::from(6i64)),
            BigInt::from(12i64)
        );
    }

    #[test]
    fn ordering() {
        let vals = [-5i64, -1, 0, 1, 5];
        for &x in &vals {
            for &y in &vals {
                assert_eq!(
                    BigInt::from(x).cmp(&BigInt::from(y)),
                    x.cmp(&y),
                    "{x} vs {y}"
                );
            }
        }
    }

    #[test]
    fn parse_display_roundtrip() {
        for s in [
            "0",
            "1",
            "-1",
            "4294967296",
            "-123456789012345678901234567890",
        ] {
            let v: BigInt = s.parse().unwrap();
            assert_eq!(v.to_string(), s);
        }
        assert!("".parse::<BigInt>().is_err());
        assert!("12a".parse::<BigInt>().is_err());
        assert!("-".parse::<BigInt>().is_err());
    }

    #[test]
    fn to_i128_bounds() {
        assert_eq!(BigInt::from(i128::MAX).to_i128(), Some(i128::MAX));
        assert_eq!(BigInt::from(i128::MIN).to_i128(), Some(i128::MIN));
        let too_big = &BigInt::from(i128::MAX) + &BigInt::one();
        assert_eq!(too_big.to_i128(), None);
        let min_minus = &BigInt::from(i128::MIN) - &BigInt::one();
        assert_eq!(min_minus.to_i128(), None);
    }

    // --- small/big boundary behavior ---

    /// `true` iff the value is stored inline (test-only introspection).
    fn is_inline(v: &BigInt) -> bool {
        matches!(v.0, Repr::Small(_))
    }

    #[test]
    fn representation_is_canonical_at_the_boundary() {
        assert!(is_inline(&BigInt::from(i64::MAX)));
        assert!(is_inline(&BigInt::from(i64::MIN)));
        assert!(!is_inline(&(&BigInt::from(i64::MAX) + &BigInt::one())));
        assert!(!is_inline(&(&BigInt::from(i64::MIN) - &BigInt::one())));
        // Arithmetic that comes back into range demotes to inline.
        let over = &BigInt::from(i64::MAX) + &BigInt::one();
        assert!(is_inline(&(&over - &BigInt::one())));
        let under = &BigInt::from(i64::MIN) - &BigInt::one();
        assert!(is_inline(&(&under + &BigInt::one())));
    }

    #[test]
    fn min_negation_promotes_and_roundtrips() {
        let min = BigInt::from(i64::MIN);
        let neg = -&min;
        assert!(!is_inline(&neg));
        assert_eq!(neg.to_i128(), Some(-(i64::MIN as i128)));
        assert_eq!(-&neg, min);
        assert!(is_inline(&(-&neg)));
        assert_eq!(min.abs(), neg);
    }

    #[test]
    fn min_divided_by_minus_one() {
        let (q, r) = BigInt::from(i64::MIN).div_rem(&BigInt::from(-1i64));
        assert_eq!(q.to_i128(), Some(-(i64::MIN as i128)));
        assert!(r.is_zero());
    }

    #[test]
    fn gcd_at_the_boundary() {
        let min = BigInt::from(i64::MIN);
        let g = min.gcd(&BigInt::zero());
        assert_eq!(g.to_i128(), Some(-(i64::MIN as i128)));
        assert_eq!(min.gcd(&min), g);
        // Mixed small/big operands.
        let big = &BigInt::from(i64::MAX) + &BigInt::one(); // 2^63
        assert_eq!(BigInt::from(6i64).gcd(&big), BigInt::from(2i64));
        assert_eq!(big.gcd(&BigInt::from(6i64)), BigInt::from(2i64));
    }

    #[test]
    fn promotions_are_counted() {
        let (_, counted) = offload_obs::tallied(|| &BigInt::from(i64::MAX) * &BigInt::from(2i64));
        assert!(counted.small_int_promotions > 0);
    }

    #[test]
    fn cross_representation_ordering() {
        let big_pos = &BigInt::from(i64::MAX) + &BigInt::one();
        let big_neg = &BigInt::from(i64::MIN) - &BigInt::one();
        assert!(big_pos > BigInt::from(i64::MAX));
        assert!(big_neg < BigInt::from(i64::MIN));
        assert!(big_pos > big_neg);
    }
}
