use crate::CellArch;
use vm1_geom::Dbu;

/// Per-layer and device electrical parameters used by the timing and power
/// models (values are representative of a 7 nm-class stack; units are
/// kΩ/nm, fF/nm, kΩ, fF, V so that R·C comes out in picoseconds).
#[derive(Clone, Debug)]
pub struct ElectricalParams {
    /// Wire resistance per nanometre, per layer (kΩ/nm).
    pub layer_res: [f64; 5],
    /// Wire capacitance per nanometre, per layer (fF/nm).
    pub layer_cap: [f64; 5],
    /// Resistance of a single via cut (kΩ).
    pub via_res: f64,
    /// Capacitance of a single via cut (fF).
    pub via_cap: f64,
    /// Supply voltage (V).
    pub vdd: f64,
    /// Average switching-activity factor used by the power model.
    pub activity: f64,
}

impl Default for ElectricalParams {
    fn default() -> ElectricalParams {
        ElectricalParams {
            // Lower layers are thinner and more resistive.
            layer_res: [6e-4, 4e-4, 3e-4, 2.2e-4, 1.6e-4],
            layer_cap: [2.2e-4, 2.0e-4, 1.9e-4, 1.8e-4, 1.8e-4],
            via_res: 0.02,
            via_cap: 0.05,
            vdd: 0.7,
            activity: 0.15,
        }
    }
}

/// Process/technology description shared by every tool in the flow.
///
/// The key geometric facts (paper §1.1): the placement-site width equals the
/// M1 pitch, so ClosedM1 pins of vertically aligned cells land on the same
/// M1 track; the row height is `tracks_per_row + 0.5` M2 pitches.
///
/// # Examples
///
/// ```
/// use vm1_tech::{CellArch, Technology};
/// use vm1_geom::Dbu;
///
/// let tech = Technology::for_arch(CellArch::ClosedM1);
/// assert_eq!(tech.site_width, Dbu(48));
/// assert_eq!(tech.row_height, Dbu(360)); // 7.5 tracks * 48 nm
/// assert_eq!(tech.site_to_x(10), Dbu(480));
/// assert_eq!(tech.x_to_site(Dbu(485)), 10);
/// ```
#[derive(Clone, Debug)]
pub struct Technology {
    /// Standard-cell architecture the library implements.
    pub arch: CellArch,
    /// Placement-site width == M1 routing pitch (nm).
    pub site_width: Dbu,
    /// Placement-row height (nm).
    pub row_height: Dbu,
    /// Maximum vertical span of a direct vertical M1 route, in rows
    /// (the paper's γ; "we use γ = 3").
    pub gamma: i64,
    /// Minimum required pin overlap for a dM1 in the OpenM1 architecture
    /// (the paper's δ).
    pub delta: Dbu,
    /// For OpenM1 designs, the pitch (in sites) of the vertical M1 power
    /// staples that connect M0 and M2 VDD/VSS (paper footnote 1); those M1
    /// tracks are blocked for signal routing. `None` for other
    /// architectures.
    pub pdn_staple_pitch_sites: Option<i64>,
    /// Electrical constants for timing/power estimation.
    pub electrical: ElectricalParams,
}

impl Technology {
    /// Builds the default technology for a given cell architecture.
    #[must_use]
    pub fn for_arch(arch: CellArch) -> Technology {
        let site_width = Dbu(48);
        let row_height = match arch {
            CellArch::Conv12T => Dbu(576),                     // 12 tracks
            CellArch::ClosedM1 | CellArch::OpenM1 => Dbu(360), // 7.5 tracks
        };
        Technology {
            arch,
            site_width,
            row_height,
            gamma: 3,
            delta: Dbu(24),
            pdn_staple_pitch_sites: match arch {
                CellArch::OpenM1 => Some(16),
                _ => None,
            },
            electrical: ElectricalParams::default(),
        }
    }

    /// X coordinate of the left edge of site `site` (sites count from the
    /// core-area origin).
    #[must_use]
    pub fn site_to_x(&self, site: i64) -> Dbu {
        self.site_width * site
    }

    /// Site index containing x coordinate `x` (floor division).
    #[must_use]
    pub fn x_to_site(&self, x: Dbu) -> i64 {
        x.nm().div_euclid(self.site_width.nm())
    }

    /// Y coordinate of the bottom edge of row `row`.
    #[must_use]
    pub fn row_to_y(&self, row: i64) -> Dbu {
        self.row_height * row
    }

    /// Row index containing y coordinate `y` (floor division).
    #[must_use]
    pub fn y_to_row(&self, y: Dbu) -> i64 {
        y.nm().div_euclid(self.row_height.nm())
    }

    /// Maximum dM1 vertical span in nanometres (γ · H).
    #[must_use]
    pub fn gamma_span(&self) -> Dbu {
        self.row_height * self.gamma
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_heights_by_arch() {
        assert_eq!(Technology::for_arch(CellArch::Conv12T).row_height, Dbu(576));
        assert_eq!(
            Technology::for_arch(CellArch::ClosedM1).row_height,
            Dbu(360)
        );
        assert_eq!(Technology::for_arch(CellArch::OpenM1).row_height, Dbu(360));
    }

    #[test]
    fn site_round_trip() {
        let t = Technology::for_arch(CellArch::ClosedM1);
        for s in [0, 1, 5, 100] {
            assert_eq!(t.x_to_site(t.site_to_x(s)), s);
            assert_eq!(t.x_to_site(t.site_to_x(s) + Dbu(47)), s);
            assert_eq!(t.x_to_site(t.site_to_x(s) + Dbu(48)), s + 1);
        }
    }

    #[test]
    fn row_round_trip_negative_safe() {
        let t = Technology::for_arch(CellArch::ClosedM1);
        assert_eq!(t.y_to_row(Dbu(-1)), -1);
        assert_eq!(t.y_to_row(Dbu(0)), 0);
        assert_eq!(t.y_to_row(Dbu(359)), 0);
        assert_eq!(t.y_to_row(Dbu(360)), 1);
    }

    #[test]
    fn gamma_span_is_three_rows_by_default() {
        let t = Technology::for_arch(CellArch::ClosedM1);
        assert_eq!(t.gamma_span(), Dbu(1080));
    }
}
