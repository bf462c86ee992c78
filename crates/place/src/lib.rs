//! Placement for the vm1dp workspace: a net-centroid global placer whose
//! row packing leaves every placement legal, and a greedy
//! wirelength-driven detailed refinement pass.
//!
//! The paper starts from a commercial (Innovus) placement; this crate
//! produces the equivalent *input* to the vertical-M1 optimization — a
//! legal, wirelength-reasonable placement at a chosen utilization. The
//! greedy refiner doubles as the "traditional wirelength-driven detailed
//! placement" baseline the paper contrasts with (its optimization problem
//! is *not* HPWL-monotonic because dM1 routing is almost free; see §1.2).
//!
//! # Examples
//!
//! ```
//! use vm1_netlist::generator::{DesignProfile, GeneratorConfig};
//! use vm1_place::{place, PlaceConfig};
//! use vm1_tech::{CellArch, Library};
//!
//! let lib = Library::synthetic_7nm(CellArch::ClosedM1);
//! let mut d = GeneratorConfig::profile(DesignProfile::M0)
//!     .with_insts(200)
//!     .generate(&lib, 1);
//! place(&mut d, &PlaceConfig::default(), 1);
//! d.validate_placement().unwrap();
//! ```

#![warn(missing_docs)]

mod global;
mod refine;
mod rowmap;
pub mod verify;

pub use global::{place, scatter, PlaceConfig};
pub use refine::{greedy_refine, RefineStats};
pub use rowmap::{RowMap, SpanMove};
pub use verify::{
    verify_placement, DisplacementBounds, PlacementSnapshot, PlacementViolation, VerifyReport,
};
