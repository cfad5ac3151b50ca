//! Failure handling (§3.4).
//!
//! "Link and switch failures are detected and sent to the controller. The
//! controller removes these links and switches from the physical network,
//! and recomputes the network state with the updated physical network."
//! Controller failure is handled by statelessness: "we only need to store
//! the physical network and the set of all transfers … when the controller
//! fails, we spawn a new instance, which starts to compute and reconfigure
//! the network state at the next time slot."
//!
//! This module holds the failure model ([`Failure`], [`FailureEvent`]) and
//! [`degrade_plant`], which produces the post-failure physical network.
//! The loop that drives a controller through failures — detection delay,
//! repairs, mid-slot blackholes, update-op faults and stateless crash
//! restarts — is `owan_chaos::run_chaos`, which builds on these
//! primitives.

use owan_optical::{FiberId, FiberPlant, SiteId};

/// A failure event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Failure {
    /// A fiber cut: the fiber disappears from the plant.
    FiberCut(FiberId),
    /// A site (router + ROADM) goes dark: its router ports drop to zero and
    /// all its fibers are removed.
    SiteDown(SiteId),
    /// Partial degradation: an amplifier fault shrinks the fiber's usable
    /// wavelengths to `usable` (a cap below the plant-wide φ). Multiple
    /// degradations of the same fiber compose by taking the minimum.
    AmpDegraded {
        /// Affected fiber.
        fiber: FiberId,
        /// Usable wavelengths remaining.
        usable: u32,
    },
}

/// A failure at a point in time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FailureEvent {
    /// When the failure occurs, seconds.
    pub time_s: f64,
    /// What fails.
    pub failure: Failure,
}

/// Rebuilds a plant with the given failures applied (fibers removed, dead
/// sites stripped of ports and regenerators, degraded fibers capped). Site
/// ids are preserved; fiber ids compact (see [`degrade_plant_mapped`] for
/// the id mapping).
pub fn degrade_plant(plant: &FiberPlant, failures: &[Failure]) -> FiberPlant {
    degrade_plant_mapped(plant, failures).0
}

/// [`degrade_plant`] plus the fiber-id mapping: `map[original_id]` is the
/// fiber's id in the degraded plant, or `None` if it was removed. Failure
/// fiber ids always refer to the plant passed in; callers tracking faults
/// across a degradation (e.g. mid-slot blackhole detection in `owan-chaos`)
/// use the map to translate.
pub fn degrade_plant_mapped(
    plant: &FiberPlant,
    failures: &[Failure],
) -> (FiberPlant, Vec<Option<FiberId>>) {
    let dead_site = |s: SiteId| {
        failures
            .iter()
            .any(|f| matches!(f, Failure::SiteDown(d) if *d == s))
    };
    let cut_fiber = |f: FiberId| {
        failures
            .iter()
            .any(|x| matches!(x, Failure::FiberCut(c) if *c == f))
    };
    // Minimum surviving-wavelength cap per fiber across amp faults, folded
    // with any cap already on the fiber (degrading a degraded plant must
    // never restore capacity).
    let amp_cap = |f: FiberId| {
        failures
            .iter()
            .filter_map(|x| match x {
                Failure::AmpDegraded { fiber, usable } if *fiber == f => Some(*usable),
                _ => None,
            })
            .chain(plant.fiber(f).lambda_cap)
            .min()
    };

    let mut out = FiberPlant::new(plant.params().clone());
    for s in 0..plant.site_count() {
        let site = plant.site(s);
        if dead_site(s) {
            out.add_site(&site.name, 0, 0);
        } else {
            out.add_site(&site.name, site.router_ports, site.regenerators);
        }
    }
    let mut map = vec![None; plant.fiber_count()];
    for (id, fiber) in plant.fibers().iter().enumerate() {
        if !cut_fiber(id) && !dead_site(fiber.a) && !dead_site(fiber.b) {
            let new_id = out.add_fiber(fiber.a, fiber.b, fiber.length_km);
            out.set_fiber_wavelength_cap(new_id, amp_cap(id));
            map[id] = Some(new_id);
        }
    }
    (out, map)
}

#[cfg(test)]
mod tests {
    use super::*;
    use owan_optical::OpticalParams;

    fn plant() -> FiberPlant {
        let params = OpticalParams {
            wavelength_capacity_gbps: 10.0,
            wavelengths_per_fiber: 8,
            ..Default::default()
        };
        let mut p = FiberPlant::new(params);
        for i in 0..4 {
            p.add_site(&format!("S{i}"), 2, 1);
        }
        for i in 0..4 {
            p.add_fiber(i, (i + 1) % 4, 300.0);
        }
        p
    }

    #[test]
    fn degrade_removes_fibers_and_ports() {
        let p = plant();
        let d = degrade_plant(&p, &[Failure::FiberCut(0), Failure::SiteDown(3)]);
        assert_eq!(d.site_count(), 4);
        assert_eq!(d.router_ports(3), 0);
        // Fiber 0 cut, plus both fibers touching site 3 gone: 4 - 3 = 1.
        assert_eq!(d.fiber_count(), 1);
    }

    #[test]
    fn degrade_caps_wavelengths() {
        let p = plant();
        let d = degrade_plant(
            &p,
            &[Failure::AmpDegraded {
                fiber: 1,
                usable: 3,
            }],
        );
        assert_eq!(d.fiber_count(), 4, "degraded fiber survives");
        assert_eq!(d.usable_wavelengths(1), 3);
        assert_eq!(d.usable_wavelengths(0), 8);
        // Two degradations of the same fiber compose by minimum.
        let d2 = degrade_plant(
            &p,
            &[
                Failure::AmpDegraded {
                    fiber: 1,
                    usable: 3,
                },
                Failure::AmpDegraded {
                    fiber: 1,
                    usable: 5,
                },
            ],
        );
        assert_eq!(d2.usable_wavelengths(1), 3);
    }

    #[test]
    fn degrade_mapping_tracks_removals() {
        let p = plant();
        let (d, map) = degrade_plant_mapped(&p, &[Failure::FiberCut(1)]);
        assert_eq!(map, vec![Some(0), None, Some(1), Some(2)]);
        for (orig, new) in map.iter().enumerate() {
            if let Some(n) = new {
                assert_eq!(d.fiber(*n).a, p.fiber(orig).a);
                assert_eq!(d.fiber(*n).b, p.fiber(orig).b);
            }
        }
    }
}
