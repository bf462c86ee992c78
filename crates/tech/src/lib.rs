//! Technology model and synthetic standard-cell libraries for the vm1dp
//! workspace.
//!
//! The DAC 2017 paper evaluates three standard-cell architectures
//! (its Figure 1):
//!
//! * **conventional 12-track** — signal pins on M1, horizontal M1
//!   power/ground rails at the top and bottom of every cell, which block all
//!   inter-row vertical M1 routing (pin access happens on M2);
//! * **ClosedM1 7.5-track** — 1-D *vertical* M1 signal pins placed on a
//!   fixed pitch equal to the placement-site width, M1 VDD/VSS pins at the
//!   cell boundaries connected up to M2 rails, leaving the space between
//!   pins open for inter-row M1 routing;
//! * **OpenM1 7.5-track** — pins on the M0 layer (horizontal segments), M1
//!   almost completely unobstructed.
//!
//! The paper used proprietary 7 nm libraries from a technology consortium;
//! this crate generates *synthetic* libraries that reproduce exactly the
//! properties the detailed-placement optimization and the router care
//! about: pin layer/geometry per architecture, site-pitch M1 pin alignment,
//! M1 track blockage, plus simple timing and power parameters for the
//! reporting columns of the paper's Table 2.
//!
//! # Examples
//!
//! ```
//! use vm1_tech::{CellArch, Library};
//!
//! let lib = Library::synthetic_7nm(CellArch::ClosedM1);
//! let inv = lib.cell_by_name("INV_X1").unwrap();
//! assert!(inv.width_sites >= 2);
//! // Every ClosedM1 signal pin is a vertical M1 shape.
//! for pin in inv.signal_pins() {
//!     assert_eq!(pin.shape.layer, vm1_tech::Layer::M1);
//! }
//! ```

#![warn(missing_docs)]

mod arch;
mod cell;
mod layer;
mod library;
mod technology;

pub use arch::CellArch;
pub use cell::{CellTiming, Function, MacroCell, MacroPin, PinDir, PinShape};
pub use layer::{Layer, LayerDir};
pub use library::Library;
pub use technology::{ElectricalParams, Technology};
