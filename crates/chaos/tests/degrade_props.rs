//! Property tests for plant degradation and repair: `FaultState`'s
//! degraded view is a set-fold (duplicate- and order-insensitive),
//! strictly monotone in capacity, stable under re-application through
//! the fiber-id map, equal to a list-scan reference, and exactly inverted
//! by repairs.

use owan_chaos::{plants_equal, FaultKind, FaultState};
use owan_optical::{FiberId, FiberPlant, OpticalParams, SiteId};
use proptest::prelude::*;

const PHI: u32 = 8;

/// Deterministic test plant: ring of `n` sites plus a chord, mixed port
/// counts so site failures bite differently.
fn plant(n: usize) -> FiberPlant {
    let mut p = FiberPlant::new(OpticalParams {
        wavelength_capacity_gbps: 10.0,
        wavelengths_per_fiber: PHI,
        ..Default::default()
    });
    for i in 0..n {
        p.add_site(&format!("S{i}"), 1 + (i as u32 % 3), 1);
    }
    for i in 0..n {
        p.add_fiber(i, (i + 1) % n, 150.0 + 10.0 * i as f64);
    }
    p.add_fiber(0, n / 2, 400.0);
    p
}

/// Random strikes: fiber cuts, site downs and amp degradations.
fn arb_faults(nf: usize, ns: usize) -> impl Strategy<Value = Vec<FaultKind>> {
    proptest::collection::vec((0u8..3, 0..nf, 0..ns, 1u32..PHI), 0..6).prop_map(move |specs| {
        specs
            .into_iter()
            .map(|(kind, f, s, usable)| match kind {
                0 => FaultKind::FiberCut(f),
                1 => FaultKind::SiteDown(s),
                _ => FaultKind::AmpDegraded { fiber: f, usable },
            })
            .collect()
    })
}

/// The state `faults` fold into, in order.
fn state_of(faults: &[FaultKind]) -> FaultState {
    let mut state = FaultState::default();
    for f in faults {
        state.apply(f);
    }
    state
}

/// Total usable wavelengths across the plant — the capacity measure the
/// monotonicity property tracks.
fn total_wavelengths(p: &FiberPlant) -> u64 {
    (0..p.fiber_count())
        .map(|f| p.usable_wavelengths(f) as u64)
        .sum()
}

fn total_ports(p: &FiberPlant) -> u64 {
    (0..p.site_count()).map(|s| p.router_ports(s) as u64).sum()
}

/// Translates original-id faults into the degraded plant's ids via the
/// view's fiber map. Faults on cut fibers vanish.
fn translate(faults: &[FaultKind], map: &[Option<usize>]) -> Vec<FaultKind> {
    faults
        .iter()
        .filter_map(|f| match *f {
            FaultKind::FiberCut(id) => map[id].map(FaultKind::FiberCut),
            FaultKind::AmpDegraded { fiber, usable } => {
                map[fiber].map(|fiber| FaultKind::AmpDegraded { fiber, usable })
            }
            other => Some(other),
        })
        .collect()
}

/// Reference degradation: a scan of the strike list per site and per
/// fiber, independent of `FaultState`'s sets. Dead sites keep their name
/// with no ports or regenerators, fibers that are cut or touch a dead
/// site vanish (survivors keep their order), and a survivor's cap is the
/// minimum over its amp faults and any cap already on `plant`.
fn list_scan_view(plant: &FiberPlant, faults: &[FaultKind]) -> (FiberPlant, Vec<Option<FiberId>>) {
    let dead_site = |s: SiteId| {
        faults
            .iter()
            .any(|f| matches!(f, FaultKind::SiteDown(d) if *d == s))
    };
    let cut_fiber = |f: FiberId| {
        faults
            .iter()
            .any(|x| matches!(x, FaultKind::FiberCut(c) if *c == f))
    };
    let amp_cap = |f: FiberId| {
        faults
            .iter()
            .filter_map(|x| match x {
                FaultKind::AmpDegraded { fiber, usable } if *fiber == f => Some(*usable),
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn degrade_is_duplicate_insensitive(faults in arb_faults(7, 6)) {
        let base = plant(6);
        let once = state_of(&faults).degraded_view(&base).0;
        let mut doubled = faults.clone();
        doubled.extend(faults.iter().copied());
        let twice = state_of(&doubled).degraded_view(&base).0;
        prop_assert!(plants_equal(&once, &twice));
    }

    #[test]
    fn degrade_is_order_insensitive(faults in arb_faults(7, 6)) {
        let base = plant(6);
        let forward = state_of(&faults).degraded_view(&base).0;
        let mut reversed = faults.clone();
        reversed.reverse();
        let backward = state_of(&reversed).degraded_view(&base).0;
        prop_assert!(plants_equal(&forward, &backward));
    }

    #[test]
    fn degrade_is_monotone(faults in arb_faults(7, 6), extra in arb_faults(7, 6)) {
        let base = plant(6);
        let some = state_of(&faults).degraded_view(&base).0;
        let mut all = faults.clone();
        all.extend(extra.iter().copied());
        let more = state_of(&all).degraded_view(&base).0;
        prop_assert!(more.fiber_count() <= some.fiber_count());
        prop_assert!(total_wavelengths(&more) <= total_wavelengths(&some));
        prop_assert!(total_ports(&more) <= total_ports(&some));
    }

    #[test]
    fn reapplication_through_id_map_is_noop(faults in arb_faults(7, 6)) {
        let base = plant(6);
        let (degraded, map) = state_of(&faults).degraded_view(&base);
        let again = state_of(&translate(&faults, &map)).degraded_view(&degraded).0;
        prop_assert!(plants_equal(&again, &degraded));
    }

    #[test]
    fn degraded_view_matches_list_scan_reference(
        faults in arb_faults(7, 6),
        caps in proptest::collection::vec(proptest::option::of(1u32..=PHI), 7),
        amp_fiber in 0usize..7,
        usables in (1u32..PHI, 1u32..PHI),
    ) {
        // A base plant that already carries caps, and two degradations
        // of one fiber on top of whatever the random set holds.
        let mut base = plant(6);
        for (f, cap) in caps.into_iter().enumerate() {
            base.set_fiber_wavelength_cap(f, cap);
        }
        let mut faults = faults;
        for usable in [usables.0, usables.1] {
            faults.push(FaultKind::AmpDegraded { fiber: amp_fiber, usable });
        }
        let (view, map) = state_of(&faults).degraded_view(&base);
        let (reference, reference_map) = list_scan_view(&base, &faults);
        prop_assert!(plants_equal(&view, &reference));
        prop_assert_eq!(map, reference_map);
    }

    #[test]
    fn repairs_restore_original_plant_exactly(
        cuts in proptest::collection::vec(0usize..7, 0..5),
        downs in proptest::collection::vec(0usize..6, 0..4),
        amps in proptest::collection::vec((0usize..7, 1u32..PHI), 0..4),
    ) {
        let base = plant(6);
        let mut state = FaultState::default();
        for &f in &cuts {
            state.apply(&FaultKind::FiberCut(f));
        }
        for &s in &downs {
            state.apply(&FaultKind::SiteDown(s));
        }
        for &(f, usable) in &amps {
            state.apply(&FaultKind::AmpDegraded { fiber: f, usable });
        }
        // Repair everything, in a different order than it broke.
        for &(f, _) in amps.iter().rev() {
            state.apply(&FaultKind::AmpRepaired(f));
        }
        for &f in cuts.iter().rev() {
            state.apply(&FaultKind::FiberRepaired(f));
        }
        for &s in downs.iter().rev() {
            state.apply(&FaultKind::SiteUp(s));
        }
        prop_assert!(state.is_clear());
        let (restored, map) = state.degraded_view(&base);
        prop_assert!(plants_equal(&restored, &base));
        prop_assert!(map.iter().enumerate().all(|(i, m)| *m == Some(i)));
    }

    #[test]
    fn partial_repair_leaves_remaining_faults(
        cuts in proptest::collection::vec(0usize..7, 2..5),
    ) {
        let base = plant(6);
        let mut state = FaultState::default();
        for &f in &cuts {
            state.apply(&FaultKind::FiberCut(f));
        }
        // Repair only the first cut; the rest must still be active.
        state.apply(&FaultKind::FiberRepaired(cuts[0]));
        let distinct_rest: std::collections::BTreeSet<usize> =
            cuts[1..].iter().copied().filter(|f| *f != cuts[0]).collect();
        let (degraded, _) = state.degraded_view(&base);
        prop_assert_eq!(degraded.fiber_count(), base.fiber_count() - distinct_rest.len());
    }
}
