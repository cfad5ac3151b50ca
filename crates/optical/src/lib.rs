//! Optical-layer substrate for the Owan reproduction.
//!
//! A modern WAN's network layer is built over an intelligent optical layer:
//! every network-layer link is an optical circuit that traverses ROADMs
//! (Reconfigurable Optical Add-Drop Multiplexers) connected by fiber pairs
//! (paper §2.1). This crate models that layer faithfully enough to enforce
//! every constraint of the paper's problem formulation (§3.2):
//!
//! 1. router ports per site are limited (`fp_v`),
//! 2. a wavelength travels at most the *optical reach* `η` before it must be
//!    regenerated,
//! 3. regenerators per site are limited (`rg_v`) and may convert wavelengths,
//! 4. a fiber carries at most `φ` wavelengths, all distinct, each of
//!    capacity `θ`.
//!
//! The main types:
//!
//! * [`FiberPlant`] — the static physical infrastructure: sites (ROADM +
//!   optional router + pre-deployed regenerators) and fibers,
//! * [`OpticalState`] — the dynamic state: which wavelength channels are in
//!   use on which fiber, how many regenerators remain free at each site, and
//!   the set of provisioned [`Circuit`]s.
//!
//! Circuit feasibility is the paper's: reach, regenerators and wavelengths.
//! Like the paper's formulation, the crate assumes the optical power budget
//! closes on every segment within reach, and it has no per-device ROADM
//! model; `owan-update` times reconfiguration from its own parameters.
//!
//! # Example
//!
//! ```
//! use owan_optical::{FiberPlant, OpticalParams, OpticalState};
//!
//! // Three sites in a line, 400 km apart, reach 500 km, one regenerator at
//! // the middle site.
//! let mut params = OpticalParams::default();
//! params.optical_reach_km = 500.0;
//! let mut plant = FiberPlant::new(params);
//! let a = plant.add_site("A", 4, 0);
//! let b = plant.add_site("B", 4, 1);
//! let c = plant.add_site("C", 4, 0);
//! plant.add_fiber(a, b, 400.0);
//! plant.add_fiber(b, c, 400.0);
//!
//! let mut state = OpticalState::new(&plant);
//! // A→C is 800 km > 500 km reach, so the circuit must regenerate at B.
//! let id = state.provision(&plant, &[a, b, c]).unwrap();
//! assert_eq!(state.circuit(id).unwrap().regen_sites, vec![b]);
//! assert_eq!(state.free_regenerators(b), 0);
//! ```

pub mod circuit;
pub mod plant;

pub use circuit::{
    Circuit, CircuitId, CircuitLedger, Occupancy, OpticalState, ProvisionError, Segment,
};
pub use plant::{Fiber, FiberId, FiberPlant, FiberRoute, OpticalParams, RouteTable, Site, SiteId};
