//! WAN topologies used in the Owan evaluation (§5.1).
//!
//! Three networks:
//!
//! * [`internet2`] — the 9-site Internet2 footprint of Figure 1, in two
//!   flavors: the paper's *testbed* (full-mesh fiber, 15 wavelengths of
//!   10 Gbps) and a realistic *WAN* fiber plant with geographic distances;
//! * [`isp`] — a ~40-site irregular-mesh ISP backbone (the paper's ISP
//!   traces are proprietary; the generator reproduces the described
//!   structure — see DESIGN.md §2);
//! * [`interdc`] — a ~25-site inter-DC network: "super cores" in a ring,
//!   each serving a cluster of smaller sites.
//!
//! Every constructor returns a [`Network`]: the fiber plant plus the static
//! network-layer topology that fixed-topology baselines (MaxFlow,
//! MaxMinFract, SWAN, Tempus, Amoeba) use, with router port counts sized so
//! the static topology consumes exactly the available ports — reconfiguring
//! then re-spends the same ports, as on the paper's testbed.

pub mod interdc;
pub mod internet2;
pub mod isp;

use owan_core::Topology;
use owan_optical::FiberPlant;

/// Why a [`Network`] failed [`Network::validate`] — the static topology
/// does not match the plant it ships with.
#[derive(Debug, Clone, PartialEq)]
pub enum NetworkValidationError {
    /// The static topology asks for more links at some site than its
    /// router has ports.
    PortsExceeded {
        /// Network name.
        network: String,
    },
    /// The static topology leaves some router site unreachable.
    NotConnected {
        /// Network name.
        network: String,
    },
    /// A router site leaves ports unused — on the testbed every port
    /// drives a wavelength, so the static topology must spend them all.
    PortsUnused {
        /// Network name.
        network: String,
        /// Offending site.
        site: usize,
        /// Ports the static topology uses at the site.
        used: u32,
        /// Ports the router actually has.
        available: u32,
    },
}

impl std::fmt::Display for NetworkValidationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetworkValidationError::PortsExceeded { network } => {
                write!(f, "{network}: static topology exceeds router ports")
            }
            NetworkValidationError::NotConnected { network } => {
                write!(f, "{network}: static topology does not connect routers")
            }
            NetworkValidationError::PortsUnused {
                network,
                site,
                used,
                available,
            } => write!(
                f,
                "{network}: site {site} uses {used} of {available} ports \
                 (must use all, as on the testbed)"
            ),
        }
    }
}

impl std::error::Error for NetworkValidationError {}

/// A named evaluation network: physical plant + static reference topology.
#[derive(Debug, Clone)]
pub struct Network {
    /// Short name used in result tables ("internet2", "isp", "interdc").
    pub name: String,
    /// The physical infrastructure.
    pub plant: FiberPlant,
    /// The static network-layer topology used by fixed-topology baselines
    /// and as Owan's initial state.
    pub static_topology: Topology,
}

impl Network {
    /// Per-site relative demand weights used by the workload generator
    /// (heavier sites source/sink more traffic). Derived from static-
    /// topology degree — a standard gravity-model proxy when real traces
    /// are unavailable.
    pub fn site_weights(&self) -> Vec<f64> {
        (0..self.plant.site_count())
            .map(|s| self.static_topology.degree(s) as f64)
            .collect()
    }

    /// Total router-port capacity of the network, Gbps (each port drives
    /// one wavelength of capacity θ). An upper bound on instantaneous
    /// throughput; used to calibrate workload load factors.
    pub fn total_port_capacity_gbps(&self) -> f64 {
        let theta = self.plant.params().wavelength_capacity_gbps;
        let ports: u32 = (0..self.plant.site_count())
            .map(|s| self.plant.router_ports(s))
            .sum();
        // Each link consumes two ports, so the usable simultaneous
        // capacity is half the port-rate sum.
        ports as f64 * theta / 2.0
    }

    /// Validates internal consistency (ports cover the static topology,
    /// topology connects all routers). Returns a typed violation on
    /// failure; used by tests for every shipped network.
    pub fn validate(&self) -> Result<(), NetworkValidationError> {
        if !self.static_topology.ports_feasible(&self.plant) {
            return Err(NetworkValidationError::PortsExceeded {
                network: self.name.clone(),
            });
        }
        if !self.static_topology.connects_routers(&self.plant) {
            return Err(NetworkValidationError::NotConnected {
                network: self.name.clone(),
            });
        }
        for s in 0..self.plant.site_count() {
            if self.plant.site(s).has_router()
                && self.static_topology.degree(s) != self.plant.router_ports(s)
            {
                return Err(NetworkValidationError::PortsUnused {
                    network: self.name.clone(),
                    site: s,
                    used: self.static_topology.degree(s),
                    available: self.plant.router_ports(s),
                });
            }
        }
        Ok(())
    }
}

pub use interdc::inter_dc;
pub use internet2::{internet2_testbed, internet2_wan};
pub use isp::{isp_backbone, isp_backbone_sized};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_networks_validate() {
        for net in [
            internet2_testbed(),
            internet2_wan(),
            isp_backbone(7),
            inter_dc(7),
        ] {
            net.validate().unwrap_or_else(|e| panic!("{e}"));
        }
    }

    #[test]
    fn site_weights_match_degree() {
        let net = internet2_testbed();
        let w = net.site_weights();
        for (s, &weight) in w.iter().enumerate() {
            assert_eq!(weight, net.static_topology.degree(s) as f64);
        }
    }

    #[test]
    fn port_capacity_positive() {
        assert!(internet2_testbed().total_port_capacity_gbps() > 0.0);
        assert!(isp_backbone(1).total_port_capacity_gbps() > 0.0);
    }
}
