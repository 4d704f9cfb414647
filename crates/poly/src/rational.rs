//! Exact rational numbers over [`BigInt`].

use crate::bigint::BigInt;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};
use std::str::FromStr;

/// An exact rational number, always stored in lowest terms with a strictly
/// positive denominator.
///
/// # Examples
///
/// ```
/// use offload_poly::Rational;
///
/// let half = Rational::new(1, 2);
/// let third = Rational::new(1, 3);
/// assert_eq!(&half + &third, Rational::new(5, 6));
/// assert!(half > third);
/// ```
#[derive(Debug, Clone)]
pub struct Rational {
    num: BigInt,
    den: BigInt,
}

impl Rational {
    /// Creates `n / d` from machine integers.
    ///
    /// # Panics
    ///
    /// Panics if `d == 0`.
    pub fn new(n: i64, d: i64) -> Self {
        Self::from_bigints(BigInt::from(n), BigInt::from(d))
    }

    /// Creates `n / d` from big integers, normalizing sign and common factors.
    ///
    /// # Panics
    ///
    /// Panics if `d` is zero.
    pub fn from_bigints(num: BigInt, den: BigInt) -> Self {
        assert!(!den.is_zero(), "rational with zero denominator");
        if num.is_zero() {
            return Rational {
                num: BigInt::zero(),
                den: BigInt::one(),
            };
        }
        let g = num.gcd(&den);
        let (mut num, mut den) = (&num / &g, &den / &g);
        if den.is_negative() {
            num = -num;
            den = -den;
        }
        Rational { num, den }
    }

    /// The rational zero.
    pub fn zero() -> Self {
        Rational {
            num: BigInt::zero(),
            den: BigInt::one(),
        }
    }

    /// The rational one.
    pub fn one() -> Self {
        Rational {
            num: BigInt::one(),
            den: BigInt::one(),
        }
    }

    /// Numerator (sign-carrying).
    pub fn numer(&self) -> &BigInt {
        &self.num
    }

    /// Denominator (always positive).
    pub fn denom(&self) -> &BigInt {
        &self.den
    }

    /// Returns `true` if the value is zero.
    pub fn is_zero(&self) -> bool {
        self.num.is_zero()
    }

    /// Returns `true` if the value is strictly positive.
    pub fn is_positive(&self) -> bool {
        self.num.is_positive()
    }

    /// Returns `true` if the value is strictly negative.
    pub fn is_negative(&self) -> bool {
        self.num.is_negative()
    }

    /// Returns `true` if the value is an integer.
    pub fn is_integer(&self) -> bool {
        self.den == BigInt::one()
    }

    /// Sign as `-1`, `0` or `1`.
    pub fn signum(&self) -> i32 {
        self.num.signum()
    }

    /// Absolute value.
    pub fn abs(&self) -> Self {
        Rational {
            num: self.num.abs(),
            den: self.den.clone(),
        }
    }

    /// Multiplicative inverse.
    ///
    /// Since `self` is already in lowest terms, the inverse is a swap plus
    /// a sign fix — no gcd needed.
    ///
    /// # Panics
    ///
    /// Panics if the value is zero.
    pub fn recip(&self) -> Self {
        assert!(!self.is_zero(), "reciprocal of zero");
        if self.num.is_negative() {
            Rational {
                num: -(&self.den),
                den: -(&self.num),
            }
        } else {
            Rational {
                num: self.den.clone(),
                den: self.num.clone(),
            }
        }
    }

    /// Floor, as a big integer.
    pub fn floor(&self) -> BigInt {
        let (q, r) = self.num.div_rem(&self.den);
        if r.is_negative() {
            &q - &BigInt::one()
        } else {
            q
        }
    }

    /// Ceiling, as a big integer.
    pub fn ceil(&self) -> BigInt {
        -(&(-self.clone()).floor())
    }

    /// Approximate `f64` value (for reporting only — never used in the
    /// exact polyhedral algorithms).
    pub fn to_f64(&self) -> f64 {
        self.num.to_f64() / self.den.to_f64()
    }

    /// Midpoint of two rationals.
    pub fn midpoint(a: &Rational, b: &Rational) -> Rational {
        &(a + b) / &Rational::new(2, 1)
    }
}

impl Default for Rational {
    fn default() -> Self {
        Rational::zero()
    }
}

impl From<i64> for Rational {
    fn from(v: i64) -> Self {
        Rational {
            num: BigInt::from(v),
            den: BigInt::one(),
        }
    }
}

impl From<BigInt> for Rational {
    fn from(v: BigInt) -> Self {
        Rational {
            num: v,
            den: BigInt::one(),
        }
    }
}

impl PartialEq for Rational {
    fn eq(&self, other: &Self) -> bool {
        self.num == other.num && self.den == other.den
    }
}
impl Eq for Rational {}

impl Hash for Rational {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.num.hash(state);
        self.den.hash(state);
    }
}

/// Compares the fractions `a/b` and `c/d` (`b, d > 0`) by
/// cross-multiplication: `a·d ? c·b`.
pub(crate) fn cmp_fractions(a: &BigInt, b: &BigInt, c: &BigInt, d: &BigInt) -> Ordering {
    if let (Some(a), Some(b), Some(c), Some(d)) =
        (a.as_small(), b.as_small(), c.as_small(), d.as_small())
    {
        // i64 × i64 always fits i128: compare without touching BigInt.
        return (a as i128 * d as i128).cmp(&(c as i128 * b as i128));
    }
    (a * d).cmp(&(c * b))
}

impl Ord for Rational {
    fn cmp(&self, other: &Self) -> Ordering {
        cmp_fractions(&self.num, &self.den, &other.num, &other.den)
    }
}

impl PartialOrd for Rational {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Addition/subtraction via Knuth TAOCP 4.5.1: with both operands in
/// lowest terms and `d1 = gcd(b, d)`, the sum `a/b ± c/d` needs at most
/// one more gcd — of the combined numerator against `d1` — instead of a
/// full-size gcd of the cross-multiplied numerator and `b·d`. When
/// `d1 == 1` (the common case for small coefficients) no reduction is
/// needed at all: the result is already in lowest terms.
fn add_sub(lhs: &Rational, rhs: &Rational, negate_rhs: bool) -> Rational {
    if rhs.is_zero() {
        return lhs.clone();
    }
    if lhs.is_zero() {
        let num = if negate_rhs {
            -(&rhs.num)
        } else {
            rhs.num.clone()
        };
        return Rational {
            num,
            den: rhs.den.clone(),
        };
    }
    let (a, b) = (&lhs.num, &lhs.den);
    let (c, d) = (&rhs.num, &rhs.den);
    let d1 = b.gcd(d);
    let (t, den) = if d1 == BigInt::one() {
        let ad = a * d;
        let cb = c * b;
        let t = if negate_rhs { &ad - &cb } else { &ad + &cb };
        // gcd(b, d) == 1 implies the result is already in lowest terms.
        if t.is_zero() {
            return Rational::zero();
        }
        return Rational { num: t, den: b * d };
    } else {
        let b1 = b / &d1;
        let d_red = d / &d1;
        let t = if negate_rhs {
            &(a * &d_red) - &(c * &b1)
        } else {
            &(a * &d_red) + &(c * &b1)
        };
        (t, b1)
    };
    if t.is_zero() {
        return Rational::zero();
    }
    let d2 = t.gcd(&d1);
    Rational {
        num: &t / &d2,
        den: &den * &(d / &d2),
    }
}

impl Add for &Rational {
    type Output = Rational;
    fn add(self, other: &Rational) -> Rational {
        add_sub(self, other, false)
    }
}

impl Sub for &Rational {
    type Output = Rational;
    fn sub(self, other: &Rational) -> Rational {
        add_sub(self, other, true)
    }
}

impl Mul for &Rational {
    type Output = Rational;
    fn mul(self, other: &Rational) -> Rational {
        // Knuth 4.5.1: cross-reduce before multiplying. With d1 = gcd(a, d)
        // and d2 = gcd(c, b), (a/d1)·(c/d2) / ((b/d2)·(d/d1)) is in lowest
        // terms, and the multiplications happen on the reduced values.
        if self.is_zero() || other.is_zero() {
            return Rational::zero();
        }
        let (a, b) = (&self.num, &self.den);
        let (c, d) = (&other.num, &other.den);
        let d1 = a.gcd(d);
        let d2 = c.gcd(b);
        let one = BigInt::one();
        let (num, den) = match (d1 == one, d2 == one) {
            (true, true) => (a * c, b * d),
            (true, false) => (a * &(c / &d2), &(b / &d2) * d),
            (false, true) => (&(a / &d1) * c, b * &(d / &d1)),
            (false, false) => (&(a / &d1) * &(c / &d2), &(b / &d2) * &(d / &d1)),
        };
        Rational { num, den }
    }
}

impl Div for &Rational {
    type Output = Rational;
    fn div(self, other: &Rational) -> Rational {
        assert!(!other.is_zero(), "rational division by zero");
        if self.is_zero() {
            return Rational::zero();
        }
        // a/b ÷ c/d = (a·d)/(b·c): cross-reduce a vs c and d vs b, then fix
        // the sign (c may be negative).
        let (a, b) = (&self.num, &self.den);
        let (c, d) = (&other.num, &other.den);
        let d1 = a.gcd(c);
        let d2 = d.gcd(b);
        let mut num = &(a / &d1) * &(d / &d2);
        let mut den = &(b / &d2) * &(c / &d1);
        if den.is_negative() {
            num = -num;
            den = -den;
        }
        Rational { num, den }
    }
}

macro_rules! forward_binop_owned {
    ($($tr:ident :: $m:ident),*) => {$(
        impl $tr for Rational {
            type Output = Rational;
            fn $m(self, other: Rational) -> Rational {
                $tr::$m(&self, &other)
            }
        }
        impl $tr<&Rational> for Rational {
            type Output = Rational;
            fn $m(self, other: &Rational) -> Rational {
                $tr::$m(&self, other)
            }
        }
        impl $tr<Rational> for &Rational {
            type Output = Rational;
            fn $m(self, other: Rational) -> Rational {
                $tr::$m(self, &other)
            }
        }
    )*};
}
forward_binop_owned!(Add::add, Sub::sub, Mul::mul, Div::div);

impl Neg for &Rational {
    type Output = Rational;
    fn neg(self) -> Rational {
        Rational {
            num: -(&self.num),
            den: self.den.clone(),
        }
    }
}
impl Neg for Rational {
    type Output = Rational;
    fn neg(self) -> Rational {
        Rational {
            num: -self.num,
            den: self.den,
        }
    }
}

impl AddAssign<&Rational> for Rational {
    fn add_assign(&mut self, other: &Rational) {
        *self = &*self + other;
    }
}
impl SubAssign<&Rational> for Rational {
    fn sub_assign(&mut self, other: &Rational) {
        *self = &*self - other;
    }
}
impl MulAssign<&Rational> for Rational {
    fn mul_assign(&mut self, other: &Rational) {
        *self = &*self * other;
    }
}

impl fmt::Display for Rational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_integer() {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

/// Error returned when parsing a [`Rational`] from a malformed string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseRationalError;

impl fmt::Display for ParseRationalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid rational literal")
    }
}
impl std::error::Error for ParseRationalError {}

impl FromStr for Rational {
    type Err = ParseRationalError;

    /// Parses `"n"` or `"n/d"`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.split_once('/') {
            None => {
                let n: BigInt = s.parse().map_err(|_| ParseRationalError)?;
                Ok(Rational::from(n))
            }
            Some((n, d)) => {
                let n: BigInt = n.parse().map_err(|_| ParseRationalError)?;
                let d: BigInt = d.parse().map_err(|_| ParseRationalError)?;
                if d.is_zero() {
                    return Err(ParseRationalError);
                }
                Ok(Rational::from_bigints(n, d))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalization() {
        assert_eq!(Rational::new(2, 4), Rational::new(1, 2));
        assert_eq!(Rational::new(-2, -4), Rational::new(1, 2));
        assert_eq!(Rational::new(2, -4), Rational::new(-1, 2));
        assert_eq!(Rational::new(0, 5), Rational::zero());
        assert_eq!(Rational::new(0, -5).denom(), &BigInt::one());
    }

    #[test]
    fn field_ops() {
        let a = Rational::new(3, 4);
        let b = Rational::new(5, 6);
        assert_eq!(&a + &b, Rational::new(19, 12));
        assert_eq!(&a - &b, Rational::new(-1, 12));
        assert_eq!(&a * &b, Rational::new(5, 8));
        assert_eq!(&a / &b, Rational::new(9, 10));
        assert_eq!(a.recip(), Rational::new(4, 3));
    }

    #[test]
    fn ordering() {
        assert!(Rational::new(1, 3) < Rational::new(1, 2));
        assert!(Rational::new(-1, 2) < Rational::new(-1, 3));
        assert!(Rational::new(7, 7) == Rational::one());
    }

    #[test]
    fn floor_ceil() {
        assert_eq!(Rational::new(7, 2).floor(), BigInt::from(3i64));
        assert_eq!(Rational::new(7, 2).ceil(), BigInt::from(4i64));
        assert_eq!(Rational::new(-7, 2).floor(), BigInt::from(-4i64));
        assert_eq!(Rational::new(-7, 2).ceil(), BigInt::from(-3i64));
        assert_eq!(Rational::new(6, 2).floor(), BigInt::from(3i64));
        assert_eq!(Rational::new(6, 2).ceil(), BigInt::from(3i64));
    }

    #[test]
    fn parse() {
        assert_eq!("3/4".parse::<Rational>().unwrap(), Rational::new(3, 4));
        assert_eq!("-6/8".parse::<Rational>().unwrap(), Rational::new(-3, 4));
        assert_eq!("5".parse::<Rational>().unwrap(), Rational::from(5));
        assert!("1/0".parse::<Rational>().is_err());
        assert!("x/2".parse::<Rational>().is_err());
    }

    #[test]
    fn midpoint_between() {
        let a = Rational::new(1, 3);
        let b = Rational::new(1, 2);
        let m = Rational::midpoint(&a, &b);
        assert!(a < m && m < b);
    }

    #[test]
    #[should_panic(expected = "zero denominator")]
    fn zero_denominator_panics() {
        let _ = Rational::new(1, 0);
    }
}
