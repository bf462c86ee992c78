//! Exact rational arithmetic on `i128` numerator/denominator pairs.
//!
//! Every operation is checked: a result that would overflow `i128`
//! returns [`Overflow`] instead of a rounded value, and the caller (the
//! certificate checker) treats that as "cannot verify" — the checker
//! fails closed rather than ever accepting on approximate arithmetic.
//! There are deliberately no conversions back to floating point on any
//! path that feeds a verdict.

#![expect(
    clippy::should_implement_trait,
    reason = "the arithmetic is fallible (`Result<_, Overflow>`), which the std operator \
              traits cannot express; the inherent add/sub/mul/div/neg names are intentional"
)]

use std::cmp::Ordering;
use std::fmt;

/// An exact computation overflowed `i128` (or divided by zero); the
/// result cannot be represented and the enclosing check must fail
/// closed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Overflow;

impl fmt::Display for Overflow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("exact-arithmetic overflow")
    }
}

fn gcd(mut a: u128, mut b: u128) -> u128 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    if a == 0 {
        1
    } else {
        a
    }
}

/// An exact rational number: `num / den` with `den > 0` and
/// `gcd(|num|, den) == 1`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Rat {
    num: i128,
    den: i128,
}

impl Rat {
    /// Exact zero.
    #[must_use]
    pub const fn zero() -> Rat {
        Rat { num: 0, den: 1 }
    }

    /// Exact one.
    #[must_use]
    pub const fn one() -> Rat {
        Rat { num: 1, den: 1 }
    }

    /// The integer `n` as a rational.
    #[must_use]
    pub const fn from_int(n: i128) -> Rat {
        Rat { num: n, den: 1 }
    }

    /// The dyadic rational `1 / 2^k` (`k <= 126`).
    ///
    /// # Panics
    ///
    /// Panics if `k > 126` (the denominator would overflow `i128`); the
    /// checker only calls this with small compile-time constants.
    #[must_use]
    pub fn dyadic(k: u32) -> Rat {
        assert!(k <= 126, "dyadic exponent {k} too large");
        Rat {
            num: 1,
            den: 1i128 << k,
        }
    }

    /// Builds `num / den` in lowest terms.
    ///
    /// # Errors
    ///
    /// Returns [`Overflow`] when `den == 0`.
    pub fn new(num: i128, den: i128) -> Result<Rat, Overflow> {
        if den == 0 {
            return Err(Overflow);
        }
        let sign = if (num < 0) == (den < 0) { 1 } else { -1 };
        let (nu, du) = (num.unsigned_abs(), den.unsigned_abs());
        let g = gcd(nu, du);
        let nu = nu / g;
        let du = du / g;
        if nu > i128::MAX as u128 || du > i128::MAX as u128 {
            return Err(Overflow);
        }
        Ok(Rat {
            num: sign * nu as i128,
            den: du as i128,
        })
    }

    /// Converts a **finite** `f64` exactly (every finite double is a
    /// dyadic rational). Values whose exact form does not fit `i128`
    /// (magnitude above ~2^74 or below ~2^-74) and non-finite values
    /// report [`Overflow`].
    ///
    /// # Errors
    ///
    /// Returns [`Overflow`] for non-finite or non-representable inputs.
    pub fn from_f64(x: f64) -> Result<Rat, Overflow> {
        if !x.is_finite() {
            return Err(Overflow);
        }
        let bits = x.to_bits();
        let sign: i128 = if bits >> 63 == 1 { -1 } else { 1 };
        let exp_bits = ((bits >> 52) & 0x7ff) as i64;
        let frac = (bits & ((1u64 << 52) - 1)) as i128;
        let (mant, exp) = if exp_bits == 0 {
            (frac, -1074i64) // subnormal
        } else {
            (frac | (1i128 << 52), exp_bits - 1075)
        };
        if mant == 0 {
            return Ok(Rat::zero());
        }
        if exp >= 0 {
            if exp > 74 {
                return Err(Overflow); // mant << exp exceeds i128
            }
            Rat::new(sign * (mant << exp), 1)
        } else {
            if -exp > 126 {
                return Err(Overflow); // denominator 2^-exp exceeds i128
            }
            Rat::new(sign * mant, 1i128 << (-exp))
        }
    }

    /// Exact sum.
    ///
    /// # Errors
    ///
    /// Returns [`Overflow`] when the result does not fit `i128`.
    pub fn add(self, o: Rat) -> Result<Rat, Overflow> {
        let g = gcd(self.den.unsigned_abs(), o.den.unsigned_abs()) as i128;
        let d1 = self.den / g;
        let d2 = o.den / g;
        let left = self.num.checked_mul(d2).ok_or(Overflow)?;
        let right = o.num.checked_mul(d1).ok_or(Overflow)?;
        let num = left.checked_add(right).ok_or(Overflow)?;
        let den = self.den.checked_mul(d2).ok_or(Overflow)?;
        Rat::new(num, den)
    }

    /// Exact difference.
    ///
    /// # Errors
    ///
    /// Returns [`Overflow`] when the result does not fit `i128`.
    pub fn sub(self, o: Rat) -> Result<Rat, Overflow> {
        self.add(o.neg()?)
    }

    /// Exact negation.
    ///
    /// # Errors
    ///
    /// Returns [`Overflow`] only for the unrepresentable `-i128::MIN`.
    pub fn neg(self) -> Result<Rat, Overflow> {
        Ok(Rat {
            num: self.num.checked_neg().ok_or(Overflow)?,
            den: self.den,
        })
    }

    /// Exact product (cross-reduced before multiplying to delay
    /// overflow).
    ///
    /// # Errors
    ///
    /// Returns [`Overflow`] when the result does not fit `i128`.
    pub fn mul(self, o: Rat) -> Result<Rat, Overflow> {
        let g1 = gcd(self.num.unsigned_abs(), o.den.unsigned_abs()) as i128;
        let g2 = gcd(o.num.unsigned_abs(), self.den.unsigned_abs()) as i128;
        let n1 = self.num / g1;
        let d2 = o.den / g1;
        let n2 = o.num / g2;
        let d1 = self.den / g2;
        let num = n1.checked_mul(n2).ok_or(Overflow)?;
        let den = d1.checked_mul(d2).ok_or(Overflow)?;
        Rat::new(num, den)
    }

    /// Exact quotient.
    ///
    /// # Errors
    ///
    /// Returns [`Overflow`] when `o` is zero or the result does not fit
    /// `i128`.
    pub fn div(self, o: Rat) -> Result<Rat, Overflow> {
        if o.num == 0 {
            return Err(Overflow);
        }
        self.mul(Rat::new(o.den, o.num)?)
    }

    /// Largest integer `<= self`.
    #[must_use]
    pub fn floor_int(self) -> i128 {
        self.num.div_euclid(self.den)
    }

    /// Smallest integer `>= self`.
    #[must_use]
    pub fn ceil_int(self) -> i128 {
        let f = self.num.div_euclid(self.den);
        if self.num % self.den == 0 {
            f
        } else {
            f + 1
        }
    }

    /// Sign of the value: `-1`, `0`, or `1`.
    #[must_use]
    pub const fn signum(self) -> i32 {
        if self.num > 0 {
            1
        } else if self.num < 0 {
            -1
        } else {
            0
        }
    }

    /// Whether the value is an exact integer.
    #[must_use]
    pub const fn is_integer(self) -> bool {
        self.den == 1
    }

    /// Absolute value.
    ///
    /// # Errors
    ///
    /// Returns [`Overflow`] only for the unrepresentable `|i128::MIN|`.
    pub fn abs(self) -> Result<Rat, Overflow> {
        if self.num < 0 {
            self.neg()
        } else {
            Ok(self)
        }
    }

    /// Exact comparison.
    ///
    /// # Errors
    ///
    /// Returns [`Overflow`] when the cross products do not fit `i128`.
    pub fn cmp_exact(self, o: Rat) -> Result<Ordering, Overflow> {
        Ok(self.sub(o)?.signum().cmp(&0))
    }

    /// `self <= o`, exactly.
    ///
    /// # Errors
    ///
    /// Returns [`Overflow`] when the comparison itself overflows.
    pub fn le(self, o: Rat) -> Result<bool, Overflow> {
        Ok(self.cmp_exact(o)? != Ordering::Greater)
    }

    /// The smaller of the two values.
    ///
    /// # Errors
    ///
    /// Returns [`Overflow`] when the comparison itself overflows.
    pub fn min_exact(self, o: Rat) -> Result<Rat, Overflow> {
        Ok(if self.le(o)? { self } else { o })
    }
}

impl fmt::Display for Rat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den == 1 {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

/// A rational extended with the two infinities, for variable upper
/// bounds and activity bounds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Ext {
    /// `-∞`.
    NegInf,
    /// A finite exact value.
    Fin(Rat),
    /// `+∞`.
    PosInf,
}

impl Ext {
    /// Converts an `f64`, mapping the IEEE infinities to the matching
    /// variant.
    ///
    /// # Errors
    ///
    /// Returns [`Overflow`] for NaN or finite values out of exact range.
    pub fn from_f64(x: f64) -> Result<Ext, Overflow> {
        if x.is_nan() {
            Err(Overflow)
        } else if x.is_infinite() {
            Ok(if x.is_sign_positive() {
                Ext::PosInf
            } else {
                Ext::NegInf
            })
        } else {
            Ok(Ext::Fin(Rat::from_f64(x)?))
        }
    }

    /// The finite value, if any.
    #[must_use]
    pub const fn finite(self) -> Option<Rat> {
        match self {
            Ext::Fin(r) => Some(r),
            Ext::NegInf | Ext::PosInf => None,
        }
    }

    /// Extended sum. `+∞ + -∞` is undefined.
    ///
    /// # Errors
    ///
    /// Returns [`Overflow`] for the undefined case or a finite overflow.
    pub fn add(self, o: Ext) -> Result<Ext, Overflow> {
        match (self, o) {
            (Ext::Fin(a), Ext::Fin(b)) => Ok(Ext::Fin(a.add(b)?)),
            (Ext::PosInf, Ext::NegInf) | (Ext::NegInf, Ext::PosInf) => Err(Overflow),
            (Ext::PosInf, _) | (_, Ext::PosInf) => Ok(Ext::PosInf),
            (Ext::NegInf, _) | (_, Ext::NegInf) => Ok(Ext::NegInf),
        }
    }

    /// Extended product with a finite factor; `0 · ±∞` is `0` (the
    /// convention activity bounds need: an absent coefficient
    /// contributes nothing regardless of the variable's range).
    ///
    /// # Errors
    ///
    /// Returns [`Overflow`] on finite overflow.
    pub fn mul_rat(self, c: Rat) -> Result<Ext, Overflow> {
        match self {
            Ext::Fin(a) => Ok(Ext::Fin(a.mul(c)?)),
            Ext::PosInf | Ext::NegInf => Ok(match c.signum() {
                0 => Ext::Fin(Rat::zero()),
                1 => self,
                _ => {
                    if self == Ext::PosInf {
                        Ext::NegInf
                    } else {
                        Ext::PosInf
                    }
                }
            }),
        }
    }

    /// Extended comparison (`-∞ < finite < +∞`; the infinities equal
    /// themselves).
    ///
    /// # Errors
    ///
    /// Returns [`Overflow`] when a finite comparison overflows.
    pub fn cmp_exact(self, o: Ext) -> Result<Ordering, Overflow> {
        match (self, o) {
            (Ext::Fin(a), Ext::Fin(b)) => a.cmp_exact(b),
            (Ext::NegInf, Ext::NegInf) | (Ext::PosInf, Ext::PosInf) => Ok(Ordering::Equal),
            (Ext::NegInf, _) | (_, Ext::PosInf) => Ok(Ordering::Less),
            (Ext::PosInf, _) | (_, Ext::NegInf) => Ok(Ordering::Greater),
        }
    }

    /// `self <= o`, exactly.
    ///
    /// # Errors
    ///
    /// Returns [`Overflow`] when the comparison itself overflows.
    pub fn le(self, o: Ext) -> Result<bool, Overflow> {
        Ok(self.cmp_exact(o)? != Ordering::Greater)
    }

    /// The smaller of the two values.
    ///
    /// # Errors
    ///
    /// Returns [`Overflow`] when the comparison itself overflows.
    pub fn min_exact(self, o: Ext) -> Result<Ext, Overflow> {
        Ok(if self.le(o)? { self } else { o })
    }
}

impl fmt::Display for Ext {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Ext::NegInf => f.write_str("-inf"),
            Ext::Fin(r) => write!(f, "{r}"),
            Ext::PosInf => f.write_str("+inf"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(n: i128, d: i128) -> Rat {
        Rat::new(n, d).unwrap()
    }

    #[test]
    fn normalization_and_ops() {
        assert_eq!(r(2, 4), r(1, 2));
        assert_eq!(r(-2, -4), r(1, 2));
        assert_eq!(r(2, -4), r(-1, 2));
        assert_eq!(r(1, 3).add(r(1, 6)).unwrap(), r(1, 2));
        assert_eq!(r(1, 2).sub(r(1, 2)).unwrap(), Rat::zero());
        assert_eq!(r(2, 3).mul(r(3, 4)).unwrap(), r(1, 2));
        assert_eq!(r(-7, 2).abs().unwrap(), r(7, 2));
        assert!(r(1, 3).le(r(1, 2)).unwrap());
        assert!(!r(1, 2).le(r(1, 3)).unwrap());
    }

    #[test]
    fn from_f64_is_exact() {
        assert_eq!(Rat::from_f64(0.5).unwrap(), r(1, 2));
        assert_eq!(Rat::from_f64(-3.0).unwrap(), r(-3, 1));
        assert_eq!(Rat::from_f64(0.0).unwrap(), Rat::zero());
        // 0.1 is not 1/10 in binary; the conversion must reproduce the
        // exact dyadic it actually is.
        let tenth = Rat::from_f64(0.1).unwrap();
        assert_ne!(tenth, r(1, 10));
        assert_eq!(tenth, r(3_602_879_701_896_397, 1i128 << 55));
        // Non-finite and out-of-range values fail closed.
        assert!(Rat::from_f64(f64::NAN).is_err());
        assert!(Rat::from_f64(f64::INFINITY).is_err());
        assert!(Rat::from_f64(1e300).is_err());
    }

    #[test]
    fn overflow_is_reported_not_wrapped() {
        let big = Rat::from_int(i128::MAX / 2);
        assert!(big.mul(Rat::from_int(4)).is_err());
        assert!(big.add(big.mul(Rat::one()).unwrap()).is_ok());
        assert!(Rat::new(1, 0).is_err());
    }

    #[test]
    fn ext_ordering_and_arithmetic() {
        let two = Ext::Fin(Rat::from_int(2));
        assert!(Ext::NegInf.le(two).unwrap());
        assert!(two.le(Ext::PosInf).unwrap());
        assert!(!Ext::PosInf.le(two).unwrap());
        assert_eq!(Ext::PosInf.mul_rat(Rat::from_int(-3)).unwrap(), Ext::NegInf);
        assert_eq!(
            Ext::PosInf.mul_rat(Rat::zero()).unwrap(),
            Ext::Fin(Rat::zero())
        );
        assert!(Ext::PosInf.add(Ext::NegInf).is_err());
        assert_eq!(two.add(Ext::PosInf).unwrap(), Ext::PosInf);
    }

    #[test]
    fn div_floor_ceil() {
        assert_eq!(r(1, 2).div(r(1, 4)).unwrap(), r(2, 1));
        assert_eq!(r(-1, 2).div(r(1, 4)).unwrap(), r(-2, 1));
        assert!(r(1, 2).div(Rat::zero()).is_err());
        assert_eq!(r(7, 2).floor_int(), 3);
        assert_eq!(r(7, 2).ceil_int(), 4);
        assert_eq!(r(-7, 2).floor_int(), -4);
        assert_eq!(r(-7, 2).ceil_int(), -3);
        assert_eq!(r(6, 2).floor_int(), 3);
        assert_eq!(r(6, 2).ceil_int(), 3);
    }

    #[test]
    fn dyadic_constants() {
        assert_eq!(Rat::dyadic(20), r(1, 1 << 20));
        assert_eq!(Rat::dyadic(0), Rat::one());
    }
}
