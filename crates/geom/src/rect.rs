use crate::{Dbu, Interval, Point};
use std::fmt;

/// An axis-aligned rectangle `[lo.x, hi.x) × [lo.y, hi.y)` in database units.
///
/// Rectangles describe cell outlines, pin shapes, window extents and routing
/// blockages. The closed-open convention matches [`Interval`], so abutting
/// cells do not "overlap".
///
/// # Examples
///
/// ```
/// use vm1_geom::{Dbu, Point, Rect};
///
/// let cell = Rect::new(Point::new(Dbu(0), Dbu(0)), Point::new(Dbu(144), Dbu(360)));
/// assert_eq!(cell.width(), Dbu(144));
/// assert_eq!(cell.height(), Dbu(360));
/// assert_eq!(cell.half_perimeter(), Dbu(504));
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Rect {
    lo: Point,
    hi: Point,
}

impl Rect {
    /// Creates a rectangle from its lower-left and upper-right corners.
    ///
    /// # Panics
    ///
    /// Panics if `lo.x > hi.x` or `lo.y > hi.y`.
    #[must_use]
    pub fn new(lo: Point, hi: Point) -> Rect {
        assert!(
            lo.x <= hi.x && lo.y <= hi.y,
            "Rect::new: inverted corners {lo} / {hi}"
        );
        Rect { lo, hi }
    }

    /// Creates a rectangle from raw nanometre coordinates.
    #[must_use]
    pub fn from_nm(x_lo: i64, y_lo: i64, x_hi: i64, y_hi: i64) -> Rect {
        Rect::new(
            Point::new(Dbu(x_lo), Dbu(y_lo)),
            Point::new(Dbu(x_hi), Dbu(y_hi)),
        )
    }

    /// The degenerate rectangle containing exactly one point.
    #[must_use]
    pub fn from_point(p: Point) -> Rect {
        Rect { lo: p, hi: p }
    }

    /// Lower-left corner.
    #[must_use]
    pub fn lo(self) -> Point {
        self.lo
    }

    /// Upper-right corner.
    #[must_use]
    pub fn hi(self) -> Point {
        self.hi
    }

    /// Horizontal extent as an interval.
    #[must_use]
    pub fn x_range(self) -> Interval {
        Interval::new(self.lo.x, self.hi.x)
    }

    /// Vertical extent as an interval.
    #[must_use]
    pub fn y_range(self) -> Interval {
        Interval::new(self.lo.y, self.hi.y)
    }

    /// Width of the rectangle.
    #[must_use]
    pub fn width(self) -> Dbu {
        self.hi.x - self.lo.x
    }

    /// Height of the rectangle.
    #[must_use]
    pub fn height(self) -> Dbu {
        self.hi.y - self.lo.y
    }

    /// Width plus height — the HPWL of a net whose bounding box this is.
    #[must_use]
    pub fn half_perimeter(self) -> Dbu {
        self.width() + self.height()
    }

    /// Area in nm².
    #[must_use]
    pub fn area(self) -> i64 {
        self.width().nm() * self.height().nm()
    }

    /// Geometric centre (rounded down to integer DBU).
    #[must_use]
    pub fn center(self) -> Point {
        Point::new(
            Dbu((self.lo.x.nm() + self.hi.x.nm()) / 2),
            Dbu((self.lo.y.nm() + self.hi.y.nm()) / 2),
        )
    }

    /// Whether `p` lies inside the closed-open extent.
    #[must_use]
    pub fn contains(self, p: Point) -> bool {
        self.x_range().contains(p.x) && self.y_range().contains(p.y)
    }

    /// The intersection rectangle, or `None` when the overlap has zero area.
    #[must_use]
    pub fn intersection(self, other: Rect) -> Option<Rect> {
        let x = self.x_range().overlap(other.x_range())?;
        let y = self.y_range().overlap(other.y_range())?;
        Some(Rect::new(
            Point::new(x.lo(), y.lo()),
            Point::new(x.hi(), y.hi()),
        ))
    }

    /// Smallest rectangle containing both `self` and `other`.
    #[must_use]
    pub fn hull(self, other: Rect) -> Rect {
        Rect {
            lo: Point::new(self.lo.x.min(other.lo.x), self.lo.y.min(other.lo.y)),
            hi: Point::new(self.hi.x.max(other.hi.x), self.hi.y.max(other.hi.y)),
        }
    }

    /// Grows the hull to also contain point `p`.
    #[must_use]
    pub fn expanded_to(self, p: Point) -> Rect {
        self.hull(Rect::from_point(p))
    }

    /// The rectangle translated by `delta`.
    #[must_use]
    pub fn shifted(self, delta: Point) -> Rect {
        Rect {
            lo: self.lo + delta,
            hi: self.hi + delta,
        }
    }

    /// Bounding box of an iterator of points. Returns `None` for an empty
    /// iterator.
    pub fn bounding_box<I: IntoIterator<Item = Point>>(points: I) -> Option<Rect> {
        let mut it = points.into_iter();
        let first = it.next()?;
        Some(it.fold(Rect::from_point(first), Rect::expanded_to))
    }
}

impl fmt::Display for Rect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{} — {}]", self.lo, self.hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(x0: i64, y0: i64, x1: i64, y1: i64) -> Rect {
        Rect::from_nm(x0, y0, x1, y1)
    }

    #[test]
    fn dimensions() {
        let a = r(0, 0, 10, 20);
        assert_eq!(a.width(), Dbu(10));
        assert_eq!(a.height(), Dbu(20));
        assert_eq!(a.half_perimeter(), Dbu(30));
        assert_eq!(a.area(), 200);
        assert_eq!(a.center(), Point::new(Dbu(5), Dbu(10)));
    }

    #[test]
    fn intersection_cases() {
        let a = r(0, 0, 10, 10);
        assert_eq!(a.intersection(r(5, 5, 15, 15)), Some(r(5, 5, 10, 10)));
        assert_eq!(
            a.intersection(r(10, 0, 20, 10)),
            None,
            "abutment is not overlap"
        );
        assert_eq!(a.intersection(r(0, 10, 10, 20)), None);
        assert_eq!(a.intersection(r(20, 20, 30, 30)), None);
    }

    #[test]
    fn hull_and_bbox() {
        let a = r(0, 0, 1, 1);
        let b = r(10, 5, 12, 6);
        assert_eq!(a.hull(b), r(0, 0, 12, 6));

        let pts = [
            Point::new(Dbu(5), Dbu(1)),
            Point::new(Dbu(-2), Dbu(7)),
            Point::new(Dbu(3), Dbu(3)),
        ];
        let bb = Rect::bounding_box(pts).unwrap();
        assert_eq!(bb, r(-2, 1, 5, 7));
        assert_eq!(bb.half_perimeter(), Dbu(13));
        assert_eq!(Rect::bounding_box(std::iter::empty()), None);
    }

    #[test]
    fn contains_and_shift() {
        let a = r(0, 0, 10, 10);
        assert!(a.contains(Point::new(Dbu(0), Dbu(0))));
        assert!(!a.contains(Point::new(Dbu(10), Dbu(5))));
        assert_eq!(a.shifted(Point::new(Dbu(5), Dbu(-5))), r(5, -5, 15, 5));
    }

    #[test]
    #[should_panic(expected = "inverted")]
    fn inverted_rect_panics() {
        let _ = r(10, 0, 0, 10);
    }
}
