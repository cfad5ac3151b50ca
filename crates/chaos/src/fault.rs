//! The fault model (§3.4): timed events that hit the plant or the
//! controller, the fold that turns a history of events into the set of
//! failures currently active, and the degraded plant that set leaves.
//!
//! "Link and switch failures are detected and sent to the controller. The
//! controller removes these links and switches from the physical network,
//! and recomputes the network state with the updated physical network."
//! Every fault that touches the plant has a repair ([`FaultKind::repair`]);
//! a controller crash never touches the plant at all. The controller does
//! not see events directly: it sees the *believed* plant, derived from
//! events whose detection delay has elapsed.

use owan_optical::{FiberId, FiberPlant, SiteId};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// One kind of fault (or repair) in a chaos timeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// The fiber is cut: it disappears from the plant.
    FiberCut(FiberId),
    /// A previously cut fiber is spliced back; the plant segment returns
    /// exactly as it was (same length, same wavelength budget).
    FiberRepaired(FiberId),
    /// A site goes dark: router ports drop to zero, incident fibers die.
    SiteDown(SiteId),
    /// A dark site comes back up with its original ports and fibers.
    SiteUp(SiteId),
    /// An amplifier fault shrinks the fiber's usable wavelengths to
    /// `usable`. Repeated degradations of one fiber compose by minimum.
    AmpDegraded {
        /// Affected fiber.
        fiber: FiberId,
        /// Usable wavelengths remaining.
        usable: u32,
    },
    /// The amplifier is swapped; the fiber's full budget returns.
    AmpRepaired(FiberId),
    /// The controller process dies. It restarts statelessly at the next
    /// slot boundary from the stored plant and transfer set (§3.4: "the
    /// new instance will start to compute and reconfigure the network at
    /// the next time slot").
    ControllerCrash,
}

impl FaultKind {
    /// True for events that change the physical plant (everything except
    /// a controller crash).
    pub fn touches_plant(&self) -> bool {
        !matches!(self, FaultKind::ControllerCrash)
    }

    /// The event that heals this fault, or `None` for a repair or a
    /// controller crash.
    pub fn repair(&self) -> Option<FaultKind> {
        match *self {
            FaultKind::FiberCut(f) => Some(FaultKind::FiberRepaired(f)),
            FaultKind::SiteDown(s) => Some(FaultKind::SiteUp(s)),
            FaultKind::AmpDegraded { fiber, .. } => Some(FaultKind::AmpRepaired(fiber)),
            FaultKind::FiberRepaired(_)
            | FaultKind::SiteUp(_)
            | FaultKind::AmpRepaired(_)
            | FaultKind::ControllerCrash => None,
        }
    }
}

/// The event's stable label in flight-dump frames and why reports
/// (`fault fiber_cut 3`, `repair site 1`, ...).
impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            FaultKind::FiberCut(id) => write!(f, "fault fiber_cut {id}"),
            FaultKind::FiberRepaired(id) => write!(f, "repair fiber {id}"),
            FaultKind::SiteDown(s) => write!(f, "fault site_down {s}"),
            FaultKind::SiteUp(s) => write!(f, "repair site {s}"),
            FaultKind::AmpDegraded { fiber, usable } => {
                write!(f, "fault amp_degraded {fiber} usable={usable}")
            }
            FaultKind::AmpRepaired(id) => write!(f, "repair amp {id}"),
            FaultKind::ControllerCrash => f.write_str("fault controller_crash"),
        }
    }
}

/// A fault at a point in time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// When the fault strikes, seconds since simulation start.
    pub time_s: f64,
    /// What happens.
    pub kind: FaultKind,
}

impl FaultEvent {
    /// Shorthand constructor.
    pub fn at(time_s: f64, kind: FaultKind) -> Self {
        FaultEvent { time_s, kind }
    }
}

/// The set of failures currently active: the left fold of applied
/// events. Internally keyed on original (undegraded) plant ids, so
/// applying and un-applying events is exact regardless of how fiber ids
/// shift in the degraded view.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultState {
    cut_fibers: BTreeSet<FiberId>,
    down_sites: BTreeSet<SiteId>,
    amp_caps: BTreeMap<FiberId, u32>,
}

impl FaultState {
    /// Folds one event into the state. Returns true when the
    /// plant-visible state changed (a crash never does; a repeat cut of
    /// an already-cut fiber doesn't either).
    pub fn apply(&mut self, kind: &FaultKind) -> bool {
        match *kind {
            FaultKind::FiberCut(f) => self.cut_fibers.insert(f),
            FaultKind::FiberRepaired(f) => self.cut_fibers.remove(&f),
            FaultKind::SiteDown(s) => self.down_sites.insert(s),
            FaultKind::SiteUp(s) => self.down_sites.remove(&s),
            FaultKind::AmpDegraded { fiber, usable } => {
                let prev = self.amp_caps.get(&fiber).copied();
                let next = prev.map_or(usable, |p| p.min(usable));
                self.amp_caps.insert(fiber, next);
                prev != Some(next)
            }
            FaultKind::AmpRepaired(f) => self.amp_caps.remove(&f).is_some(),
            FaultKind::ControllerCrash => false,
        }
    }

    /// True when no failure is active — degrading by this state is the
    /// identity (repairs restored the original plant exactly).
    pub fn is_clear(&self) -> bool {
        self.cut_fibers.is_empty() && self.down_sites.is_empty() && self.amp_caps.is_empty()
    }

    /// Stable labels of the active failures in flight-dump frames: cuts,
    /// then site downs, then amp caps, each ascending by id
    /// (`fiber_cut 3`, `site_down 1`, `amp_degraded 0 usable=4`).
    pub fn labels(&self) -> Vec<String> {
        let cuts = self.cut_fibers.iter().map(|f| format!("fiber_cut {f}"));
        let downs = self.down_sites.iter().map(|s| format!("site_down {s}"));
        let amps = self
            .amp_caps
            .iter()
            .map(|(f, u)| format!("amp_degraded {f} usable={u}"));
        cuts.chain(downs).chain(amps).collect()
    }

    /// The plant as this state leaves it, plus the original→degraded
    /// fiber id map. A down site keeps its name but loses its ports and
    /// regenerators; a fiber survives unless it is cut or touches a down
    /// site (survivors keep their order, so ids compact and cut fibers
    /// map to `None`); a surviving fiber's wavelength cap is the minimum
    /// of its amp cap and any cap `base` already has, so degrading a
    /// degraded plant never restores capacity.
    pub fn degraded_view(&self, base: &FiberPlant) -> (FiberPlant, Vec<Option<FiberId>>) {
        let down = |s: SiteId| self.down_sites.contains(&s);
        let mut out = FiberPlant::new(base.params().clone());
        for s in 0..base.site_count() {
            let site = base.site(s);
            if down(s) {
                out.add_site(&site.name, 0, 0);
            } else {
                out.add_site(&site.name, site.router_ports, site.regenerators);
            }
        }
        let mut map = vec![None; base.fiber_count()];
        for (id, fiber) in base.fibers().iter().enumerate() {
            if !self.cut_fibers.contains(&id) && !down(fiber.a) && !down(fiber.b) {
                let new_id = out.add_fiber(fiber.a, fiber.b, fiber.length_km);
                let amp_cap = self.amp_caps.get(&id).copied();
                out.set_fiber_wavelength_cap(
                    new_id,
                    amp_cap.into_iter().chain(fiber.lambda_cap).min(),
                );
                map[id] = Some(new_id);
            }
        }
        (out, map)
    }
}

/// Field-wise plant equality ([`FiberPlant`] intentionally does not
/// implement `PartialEq`): same params, same sites (name, ports,
/// regenerators), same fibers (endpoints, length, wavelength cap).
pub fn plants_equal(a: &FiberPlant, b: &FiberPlant) -> bool {
    if a.site_count() != b.site_count() || a.fiber_count() != b.fiber_count() {
        return false;
    }
    let (pa, pb) = (a.params(), b.params());
    if pa.wavelengths_per_fiber != pb.wavelengths_per_fiber
        || (pa.wavelength_capacity_gbps - pb.wavelength_capacity_gbps).abs() > 1e-12
    {
        return false;
    }
    for s in 0..a.site_count() {
        let (sa, sb) = (a.site(s), b.site(s));
        if sa.name != sb.name
            || sa.router_ports != sb.router_ports
            || sa.regenerators != sb.regenerators
        {
            return false;
        }
    }
    for f in 0..a.fiber_count() {
        let (fa, fb) = (a.fiber(f), b.fiber(f));
        if fa.a != fb.a
            || fa.b != fb.b
            || (fa.length_km - fb.length_km).abs() > 1e-9
            || fa.lambda_cap != fb.lambda_cap
        {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use owan_optical::OpticalParams;

    fn plant() -> FiberPlant {
        let mut p = FiberPlant::new(OpticalParams::default());
        for i in 0..4 {
            p.add_site(&format!("S{i}"), 2, 1);
        }
        for i in 0..4 {
            p.add_fiber(i, (i + 1) % 4, 200.0);
        }
        p
    }

    #[test]
    fn cut_then_repair_restores_original_plant() {
        let base = plant();
        let mut st = FaultState::default();
        st.apply(&FaultKind::FiberCut(2));
        let (degraded, map) = st.degraded_view(&base);
        assert_eq!(degraded.fiber_count(), 3);
        assert_eq!(map[2], None);
        st.apply(&FaultKind::FiberRepaired(2));
        assert!(st.is_clear());
        let (restored, map) = st.degraded_view(&base);
        assert!(plants_equal(&restored, &base));
        assert!(map.iter().enumerate().all(|(i, m)| *m == Some(i)));
    }

    #[test]
    fn site_and_amp_repairs_round_trip() {
        let base = plant();
        let mut st = FaultState::default();
        st.apply(&FaultKind::SiteDown(1));
        st.apply(&FaultKind::AmpDegraded {
            fiber: 3,
            usable: 2,
        });
        let (degraded, _) = st.degraded_view(&base);
        assert_eq!(degraded.site(1).router_ports, 0);
        st.apply(&FaultKind::SiteUp(1));
        st.apply(&FaultKind::AmpRepaired(3));
        assert!(st.is_clear());
        assert!(plants_equal(&st.degraded_view(&base).0, &base));
    }

    #[test]
    fn amp_degradations_compose_by_minimum() {
        let mut st = FaultState::default();
        st.apply(&FaultKind::AmpDegraded {
            fiber: 0,
            usable: 4,
        });
        // Weaker degradation does not restore capacity.
        let changed = st.apply(&FaultKind::AmpDegraded {
            fiber: 0,
            usable: 6,
        });
        assert!(!changed);
        assert_eq!(st.labels(), vec!["amp_degraded 0 usable=4"]);
    }

    #[test]
    fn degrade_removes_fibers_and_ports() {
        let p = plant();
        let mut st = FaultState::default();
        st.apply(&FaultKind::FiberCut(0));
        st.apply(&FaultKind::SiteDown(3));
        let (d, _) = st.degraded_view(&p);
        assert_eq!(d.site_count(), 4);
        assert_eq!(d.router_ports(3), 0);
        assert_eq!(d.site(3).regenerators, 0);
        // Fiber 0 cut, plus both fibers touching site 3 gone: 4 - 3 = 1.
        assert_eq!(d.fiber_count(), 1);
    }

    #[test]
    fn degrade_caps_wavelengths() {
        let p = plant();
        let mut st = FaultState::default();
        st.apply(&FaultKind::AmpDegraded {
            fiber: 1,
            usable: 3,
        });
        let (d, _) = st.degraded_view(&p);
        assert_eq!(d.fiber_count(), 4, "degraded fiber survives");
        assert_eq!(d.usable_wavelengths(1), 3);
        assert_eq!(d.usable_wavelengths(0), p.usable_wavelengths(0));
        // A cap already on the base plant is never raised.
        st.apply(&FaultKind::AmpRepaired(1));
        st.apply(&FaultKind::AmpDegraded {
            fiber: 1,
            usable: 5,
        });
        assert_eq!(st.degraded_view(&d).0.usable_wavelengths(1), 3);
    }

    #[test]
    fn degrade_mapping_tracks_removals() {
        let p = plant();
        let mut st = FaultState::default();
        st.apply(&FaultKind::FiberCut(1));
        let (d, map) = st.degraded_view(&p);
        assert_eq!(map, vec![Some(0), None, Some(1), Some(2)]);
        for (orig, new) in map.iter().enumerate() {
            if let Some(n) = new {
                assert_eq!(d.fiber(*n).a, p.fiber(orig).a);
                assert_eq!(d.fiber(*n).b, p.fiber(orig).b);
            }
        }
    }

    #[test]
    fn labels_are_pinned_and_ordered() {
        let events = [
            FaultKind::AmpDegraded {
                fiber: 2,
                usable: 1,
            },
            FaultKind::SiteDown(3),
            FaultKind::FiberCut(5),
            FaultKind::SiteDown(0),
            FaultKind::FiberCut(1),
        ];
        let mut st = FaultState::default();
        for e in &events {
            st.apply(e);
        }
        assert_eq!(
            st.labels(),
            vec![
                "fiber_cut 1",
                "fiber_cut 5",
                "site_down 0",
                "site_down 3",
                "amp_degraded 2 usable=1",
            ]
        );
        let kinds = [
            FaultKind::FiberCut(4),
            FaultKind::FiberRepaired(4),
            FaultKind::SiteDown(2),
            FaultKind::SiteUp(2),
            FaultKind::AmpDegraded {
                fiber: 0,
                usable: 3,
            },
            FaultKind::AmpRepaired(0),
            FaultKind::ControllerCrash,
        ];
        let labels: Vec<String> = kinds.iter().map(FaultKind::to_string).collect();
        assert_eq!(
            labels,
            vec![
                "fault fiber_cut 4",
                "repair fiber 4",
                "fault site_down 2",
                "repair site 2",
                "fault amp_degraded 0 usable=3",
                "repair amp 0",
                "fault controller_crash",
            ]
        );
    }

    #[test]
    fn repair_heals_every_plant_fault() {
        let faults = [
            FaultKind::FiberCut(2),
            FaultKind::SiteDown(1),
            FaultKind::AmpDegraded {
                fiber: 3,
                usable: 2,
            },
        ];
        for fault in faults {
            let mut st = FaultState::default();
            assert!(st.apply(&fault));
            let repair = fault.repair().expect("a plant fault heals");
            assert_eq!(repair.repair(), None, "a repair heals nothing");
            assert!(st.apply(&repair));
            assert!(st.is_clear(), "{fault} then {repair}");
        }
        assert_eq!(FaultKind::ControllerCrash.repair(), None);
    }

    #[test]
    fn crash_never_touches_plant_state() {
        let mut st = FaultState::default();
        assert!(!st.apply(&FaultKind::ControllerCrash));
        assert!(st.is_clear());
        assert!(!FaultKind::ControllerCrash.touches_plant());
    }
}
