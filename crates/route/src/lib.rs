//! Grid-based detailed router with direct-vertical-M1 awareness.
//!
//! This crate stands in for the commercial (Innovus) router of the paper.
//! It models the back-end as a uniform routing lattice:
//!
//! * one vertical **M1**/M3 track per placement site column, one horizontal
//!   M2/M4 track per routing track row, strict preferred directions;
//! * **M0** carries no routing — its nodes exist only where OpenM1 pins
//!   live, reachable through V01 vias, exactly like the paper's
//!   complementary below-M1 pin layer;
//! * every grid edge has capacity one (it is a *detailed* grid), so
//!   over-capacity edges are shorts — the `#DRV` metric;
//! * cells block the M1 tracks their pins/PG/blockage shapes cover
//!   ([`vm1_tech::MacroCell::m1_blocked_cols`]); OpenM1 PDN staples block
//!   periodic M1 columns.
//!
//! Routing itself is **dM1-first**: before maze-routing a two-pin subnet,
//! the router attempts a *direct vertical M1 route* — a single M1 segment
//! (plus pin vias) joining the two pins, permitted when the pins share a
//! track (ClosedM1) or their shapes overlap horizontally by at least δ
//! (OpenM1), span at most γ rows, and the track in between is unblocked and
//! unused. This models a router that "effectively exploits the
//! availability of direct vertical M1 routing" (paper §1.1). Everything
//! else falls to A* maze routing over the lattice with PathFinder-style
//! rip-up and re-route.
//!
//! # Examples
//!
//! ```
//! use vm1_netlist::generator::{DesignProfile, GeneratorConfig};
//! use vm1_place::{place, PlaceConfig};
//! use vm1_route::{route, RouterConfig};
//! use vm1_tech::{CellArch, Library};
//!
//! let lib = Library::synthetic_7nm(CellArch::ClosedM1);
//! let mut d = GeneratorConfig::profile(DesignProfile::M0)
//!     .with_insts(120)
//!     .generate(&lib, 1);
//! place(&mut d, &PlaceConfig::default(), 1);
//! let result = route(&d, &RouterConfig::default());
//! assert!(result.metrics.routed_wl.nm() > 0);
//! ```

#![warn(missing_docs)]

mod grid;
mod maze;
mod router;
pub mod steiner;

pub use grid::{Edge, NodeId, PinAccess, RoutingGrid};
pub use maze::{MazeCosts, SearchBox, SearchSpace};
pub use router::{route, NetRoute, RouteMetrics, RouteResult, RouteStats, RouterConfig, Segment};
