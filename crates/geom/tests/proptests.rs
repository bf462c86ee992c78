//! Property-based tests of the geometric primitives.

use proptest::prelude::*;
use vm1_geom::{Dbu, Interval, Orient, Point, Rect};

fn interval_strategy() -> impl Strategy<Value = Interval> {
    (-10_000i64..10_000, 0i64..5_000).prop_map(|(lo, len)| Interval::new(Dbu(lo), Dbu(lo + len)))
}

fn rect_strategy() -> impl Strategy<Value = Rect> {
    (
        -10_000i64..10_000,
        -10_000i64..10_000,
        0i64..4_000,
        0i64..4_000,
    )
        .prop_map(|(x, y, w, h)| Rect::from_nm(x, y, x + w, y + h))
}

proptest! {
    #[test]
    fn overlap_commutes(a in interval_strategy(), b in interval_strategy()) {
        prop_assert_eq!(a.overlap(b), b.overlap(a));
        prop_assert_eq!(a.overlap_len(b), b.overlap_len(a));
    }

    #[test]
    fn overlap_is_contained_in_both(a in interval_strategy(), b in interval_strategy()) {
        if let Some(o) = a.overlap(b) {
            prop_assert!(o.lo() >= a.lo() && o.hi() <= a.hi());
            prop_assert!(o.lo() >= b.lo() && o.hi() <= b.hi());
            prop_assert!(o.len() > Dbu(0));
        }
    }

    #[test]
    fn hull_contains_both(a in interval_strategy(), b in interval_strategy()) {
        let h = a.hull(b);
        prop_assert!(h.lo() <= a.lo() && h.hi() >= a.hi());
        prop_assert!(h.lo() <= b.lo() && h.hi() >= b.hi());
    }

    #[test]
    fn shift_preserves_length(a in interval_strategy(), d in -5_000i64..5_000) {
        prop_assert_eq!(a.shifted(Dbu(d)).len(), a.len());
    }

    #[test]
    fn rect_intersection_symmetric(a in rect_strategy(), b in rect_strategy()) {
        prop_assert_eq!(a.intersection(b), b.intersection(a));
    }

    #[test]
    fn rect_intersection_within_hull(a in rect_strategy(), b in rect_strategy()) {
        let h = a.hull(b);
        if let Some(i) = a.intersection(b) {
            prop_assert!(h.lo().x <= i.lo().x && h.hi().x >= i.hi().x);
            prop_assert!(h.lo().y <= i.lo().y && h.hi().y >= i.hi().y);
            prop_assert!(i.area() > 0);
        }
    }

    #[test]
    fn manhattan_triangle_inequality(
        ax in -1000i64..1000, ay in -1000i64..1000,
        bx in -1000i64..1000, by in -1000i64..1000,
        cx in -1000i64..1000, cy in -1000i64..1000,
    ) {
        let a = Point::new(Dbu(ax), Dbu(ay));
        let b = Point::new(Dbu(bx), Dbu(by));
        let c = Point::new(Dbu(cx), Dbu(cy));
        prop_assert!(a.manhattan_distance(c) <= a.manhattan_distance(b) + b.manhattan_distance(c));
    }

    #[test]
    fn orient_apply_x_involution(lo in 0i64..250, len in 0i64..250, w in 500i64..1000) {
        let (w, lo, hi) = (Dbu(w), Dbu(lo), Dbu(lo + len));
        let (a, b) = Orient::FlippedNorth.apply_x_range(lo, hi, w);
        prop_assert_eq!(Orient::FlippedNorth.apply_x_range(a, b, w), (lo, hi));
        prop_assert_eq!(Orient::North.apply_x_range(lo, hi, w), (lo, hi));
    }

    #[test]
    fn orient_range_preserves_length(lo in 0i64..200, len in 0i64..200, w in 500i64..1000) {
        let (a, b) = Orient::FlippedNorth.apply_x_range(Dbu(lo), Dbu(lo + len), Dbu(w));
        prop_assert_eq!(b - a, Dbu(len));
    }

    #[test]
    fn bounding_box_contains_all_points(
        pts in proptest::collection::vec((-1000i64..1000, -1000i64..1000), 1..20)
    ) {
        let points: Vec<Point> = pts.iter().map(|&(x, y)| Point::new(Dbu(x), Dbu(y))).collect();
        let bb = Rect::bounding_box(points.iter().copied()).unwrap();
        for p in &points {
            prop_assert!(bb.lo().x <= p.x && p.x <= bb.hi().x);
            prop_assert!(bb.lo().y <= p.y && p.y <= bb.hi().y);
        }
    }
}
