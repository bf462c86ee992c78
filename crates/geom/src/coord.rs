use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Rem, Sub, SubAssign};

/// A layout coordinate or distance in database units (1 DBU = 1 nm).
///
/// `Dbu` is a transparent newtype over `i64` so that nanometer quantities
/// cannot silently mix with site counts, row indices, or track indices,
/// which are plain integers elsewhere in the workspace.
///
/// # Examples
///
/// ```
/// use vm1_geom::Dbu;
///
/// let site = Dbu(48);
/// assert_eq!(site * 10, Dbu(480));
/// assert_eq!(Dbu(100) - Dbu(40), Dbu(60));
/// assert_eq!(Dbu(-5).abs(), Dbu(5));
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Dbu(pub i64);

impl Dbu {
    /// The zero distance.
    pub const ZERO: Dbu = Dbu(0);

    /// Returns the absolute value.
    #[must_use]
    pub fn abs(self) -> Dbu {
        Dbu(self.0.abs())
    }

    /// Returns the smaller of `self` and `other`.
    #[must_use]
    pub fn min(self, other: Dbu) -> Dbu {
        Dbu(self.0.min(other.0))
    }

    /// Returns the larger of `self` and `other`.
    #[must_use]
    pub fn max(self, other: Dbu) -> Dbu {
        Dbu(self.0.max(other.0))
    }

    /// Clamps `self` into `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    #[must_use]
    pub fn clamp(self, lo: Dbu, hi: Dbu) -> Dbu {
        assert!(lo <= hi, "Dbu::clamp: lo {lo} > hi {hi}");
        Dbu(self.0.clamp(lo.0, hi.0))
    }

    /// Converts to micrometres as `f64` (lossy, for reporting only).
    #[must_use]
    pub fn to_um(self) -> f64 {
        self.0 as f64 / 1000.0
    }

    /// Raw `i64` value in nanometres.
    #[must_use]
    pub fn nm(self) -> i64 {
        self.0
    }
}

impl fmt::Display for Dbu {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl Add for Dbu {
    type Output = Dbu;
    fn add(self, rhs: Dbu) -> Dbu {
        Dbu(self.0 + rhs.0)
    }
}

impl AddAssign for Dbu {
    fn add_assign(&mut self, rhs: Dbu) {
        self.0 += rhs.0;
    }
}

impl Sub for Dbu {
    type Output = Dbu;
    fn sub(self, rhs: Dbu) -> Dbu {
        Dbu(self.0 - rhs.0)
    }
}

impl SubAssign for Dbu {
    fn sub_assign(&mut self, rhs: Dbu) {
        self.0 -= rhs.0;
    }
}

impl Neg for Dbu {
    type Output = Dbu;
    fn neg(self) -> Dbu {
        Dbu(-self.0)
    }
}

impl Mul<i64> for Dbu {
    type Output = Dbu;
    fn mul(self, rhs: i64) -> Dbu {
        Dbu(self.0 * rhs)
    }
}

impl Div<i64> for Dbu {
    type Output = Dbu;
    fn div(self, rhs: i64) -> Dbu {
        Dbu(self.0 / rhs)
    }
}

impl Div<Dbu> for Dbu {
    type Output = i64;
    fn div(self, rhs: Dbu) -> i64 {
        self.0 / rhs.0
    }
}

impl Rem<Dbu> for Dbu {
    type Output = Dbu;
    fn rem(self, rhs: Dbu) -> Dbu {
        Dbu(self.0 % rhs.0)
    }
}

impl Sum for Dbu {
    fn sum<I: Iterator<Item = Dbu>>(iter: I) -> Dbu {
        Dbu(iter.map(|d| d.0).sum())
    }
}

impl From<i64> for Dbu {
    fn from(v: i64) -> Dbu {
        Dbu(v)
    }
}

impl From<Dbu> for i64 {
    fn from(v: Dbu) -> i64 {
        v.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        assert_eq!(Dbu(3) + Dbu(4), Dbu(7));
        assert_eq!(Dbu(3) - Dbu(4), Dbu(-1));
        assert_eq!(-Dbu(3), Dbu(-3));
        assert_eq!(Dbu(3) * 4, Dbu(12));
        assert_eq!(Dbu(12) / 4, Dbu(3));
        assert_eq!(Dbu(13) / Dbu(4), 3);
        assert_eq!(Dbu(13) % Dbu(4), Dbu(1));
    }

    #[test]
    fn min_max_clamp_abs() {
        assert_eq!(Dbu(3).min(Dbu(4)), Dbu(3));
        assert_eq!(Dbu(3).max(Dbu(4)), Dbu(4));
        assert_eq!(Dbu(10).clamp(Dbu(0), Dbu(5)), Dbu(5));
        assert_eq!(Dbu(-10).clamp(Dbu(0), Dbu(5)), Dbu(0));
        assert_eq!(Dbu(-7).abs(), Dbu(7));
    }

    #[test]
    #[should_panic(expected = "lo")]
    fn clamp_panics_on_inverted_bounds() {
        let _ = Dbu(1).clamp(Dbu(5), Dbu(0));
    }

    #[test]
    fn um_conversion_round_trips() {
        assert!((Dbu(1500).to_um() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn sum_of_iterator() {
        let total: Dbu = [Dbu(1), Dbu(2), Dbu(3)].into_iter().sum();
        assert_eq!(total, Dbu(6));
    }

    #[test]
    fn display_shows_raw_nm() {
        assert_eq!(Dbu(48).to_string(), "48");
    }
}
