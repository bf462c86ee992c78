use crate::Dbu;
use std::fmt;

/// Placement orientation of a standard cell.
///
/// Row-based detailed placement uses two orientations per row parity: the
/// identity and the horizontal mirror ("flip about the y-axis"). The paper's
/// MILP includes a binary flip indicator `f_c` per cell (constraint (6));
/// flipping mirrors every pin x-offset inside the cell.
///
/// Vertical mirroring (row-parity `MX`) does not change pin x-coordinates
/// and therefore has no effect on vertical M1 alignment, so the workspace
/// models only the horizontally relevant pair.
///
/// # Examples
///
/// ```
/// use vm1_geom::{Dbu, Orient};
///
/// // A pin spanning 10..14 nm from the left edge of a 48 nm-wide cell
/// // spans 34..38 nm once the cell is flipped.
/// let span = Orient::FlippedNorth.apply_x_range(Dbu(10), Dbu(14), Dbu(48));
/// assert_eq!(span, (Dbu(34), Dbu(38)));
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Orient {
    /// Identity orientation (`N` / `R0`).
    #[default]
    North,
    /// Mirrored about the y-axis (`FN` / `MY`).
    FlippedNorth,
}

impl Orient {
    /// Both orientations, in canonical order.
    pub const ALL: [Orient; 2] = [Orient::North, Orient::FlippedNorth];

    /// Whether this orientation mirrors the cell horizontally. This is the
    /// paper's binary flip indicator `f_c`.
    #[must_use]
    pub fn is_flipped(self) -> bool {
        matches!(self, Orient::FlippedNorth)
    }

    /// The opposite orientation.
    #[must_use]
    pub fn flipped(self) -> Orient {
        match self {
            Orient::North => Orient::FlippedNorth,
            Orient::FlippedNorth => Orient::North,
        }
    }

    /// Transforms a cell-relative x-interval `[lo, hi)` given the cell
    /// `width`, returning the transformed `(lo, hi)` pair (still ordered).
    /// [`Orient::North`] keeps it; [`Orient::FlippedNorth`] mirrors it to
    /// `[width - hi, width - lo)`.
    #[must_use]
    pub fn apply_x_range(self, lo: Dbu, hi: Dbu, width: Dbu) -> (Dbu, Dbu) {
        match self {
            Orient::North => (lo, hi),
            Orient::FlippedNorth => (width - hi, width - lo),
        }
    }
}

impl fmt::Display for Orient {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Orient::North => write!(f, "N"),
            Orient::FlippedNorth => write!(f, "FN"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flip_is_involution() {
        for o in Orient::ALL {
            assert_eq!(o.flipped().flipped(), o);
        }
        assert_ne!(Orient::North, Orient::North.flipped());
    }

    #[test]
    fn apply_x_identity_and_mirror() {
        let w = Dbu(100);
        let span = (Dbu(30), Dbu(40));
        assert_eq!(Orient::North.apply_x_range(span.0, span.1, w), span);
        // Mirroring twice restores the span.
        let once = Orient::FlippedNorth.apply_x_range(span.0, span.1, w);
        assert_eq!(once, (Dbu(60), Dbu(70)));
        assert_eq!(Orient::FlippedNorth.apply_x_range(once.0, once.1, w), span);
    }

    #[test]
    fn apply_x_range_stays_ordered() {
        let (lo, hi) = Orient::FlippedNorth.apply_x_range(Dbu(10), Dbu(30), Dbu(100));
        assert_eq!((lo, hi), (Dbu(70), Dbu(90)));
        assert!(lo <= hi);
    }

    #[test]
    fn is_flipped_matches_variant() {
        assert!(!Orient::North.is_flipped());
        assert!(Orient::FlippedNorth.is_flipped());
    }

    #[test]
    fn default_is_north() {
        assert_eq!(Orient::default(), Orient::North);
    }
}
