//! Building optical circuits for a desired network-layer topology —
//! Algorithm 3, lines 2–14 ("build optical circuits for each link").
//!
//! For every desired link `(u, v)` with multiplicity `m`, the builder asks
//! the regenerator graph for candidate relay paths in increasing weight
//! order and tries to provision each as an optical circuit until `m`
//! circuits exist or the candidates are exhausted. If fewer than `m` can be
//! built (no wavelengths, no regenerators, reach violations), the achieved
//! topology records the smaller multiplicity — "If there are not enough
//! possible optical circuits to satisfy all the desired capacity, we have
//! to decrease the link capacity" (lines 13–14).

use crate::cache::{EnergyCache, FiberSet, PlantCache};
use crate::regen::{RegenGraph, RelayScratch, RelaySearch};
use crate::telemetry::CoreTelemetry;
use crate::topology::Topology;
use owan_optical::{Circuit, CircuitId, FiberPlant, OccupancyShadow, OpticalState};

/// Per-pair probe sets of a build: for each desired pair, in canonical
/// pair order, the route fibers of every relay candidate the pair's
/// provisioning attempts actually tried — exactly the fibers whose channel
/// occupancy those attempts read or wrote. Recorded by the cached and
/// delta builders; the naive builder leaves it empty.
///
/// A later delta rebuild resuming from this build uses the log as the
/// fiber half of its **dirty-set screen**: a pair whose recorded probe set
/// avoids every diverged fiber (and whose relay domain avoids every
/// diverged regenerator site) provably reproduces its previous circuits,
/// with no relay search and no provisioning.
#[derive(Debug, Clone, Default)]
pub struct ProbeLog(Vec<((usize, usize), FiberSet)>);

impl ProbeLog {
    fn push(&mut self, u: usize, v: usize, probe: FiberSet) {
        self.0.push(((u, v), probe));
    }
}

/// The log is derived data — two builds with equal circuits have equal
/// probe sets wherever both recorded them — so it is excluded from
/// equality: the naive builder records nothing, and the structural
/// identity the debug assertions check is over achieved topology, optical
/// state, and circuits.
impl PartialEq for ProbeLog {
    fn eq(&self, _: &ProbeLog) -> bool {
        true
    }
}

/// Result of realizing a desired topology in the optical layer.
#[derive(Debug, Clone, PartialEq)]
pub struct BuiltTopology {
    /// The topology actually achieved (multiplicities possibly reduced).
    pub achieved: Topology,
    /// The optical state with all circuits provisioned.
    pub optical: OpticalState,
    /// Circuit ids per link, aligned with `achieved.links()` order.
    pub circuits: Vec<((usize, usize), Vec<CircuitId>)>,
    /// Probe-set unions per desired pair (see [`ProbeLog`]).
    pub pair_probes: ProbeLog,
}

impl BuiltTopology {
    /// Total circuits provisioned.
    pub fn circuit_count(&self) -> usize {
        self.circuits.iter().map(|(_, c)| c.len()).sum()
    }
}

/// Configuration of the circuit builder.
#[derive(Debug, Clone, Copy)]
pub struct CircuitBuildConfig {
    /// Candidate relay paths tried per circuit (Yen's k on the transformed
    /// regenerator graph).
    pub relay_candidates: usize,
}

impl Default for CircuitBuildConfig {
    fn default() -> Self {
        CircuitBuildConfig {
            relay_candidates: 4,
        }
    }
}

/// Provisions circuits for every link of `desired`, in deterministic link
/// order, against a fresh optical state.
///
/// `fiber_dist` is the plant's all-pairs fiber distance matrix (shared
/// across calls for speed; see [`RegenGraph::build`]).
pub fn build_topology(
    plant: &FiberPlant,
    desired: &Topology,
    fiber_dist: &[Vec<f64>],
    config: &CircuitBuildConfig,
) -> BuiltTopology {
    build_topology_observed(
        plant,
        desired,
        fiber_dist,
        config,
        &CoreTelemetry::disabled(),
    )
}

/// [`build_topology`] with telemetry: counts circuits built, failed
/// provisioning attempts, regenerators consumed, and regenerator-graph
/// constructions (the shortest-path workhorse). The built result is
/// identical to the unobserved call.
pub fn build_topology_observed(
    plant: &FiberPlant,
    desired: &Topology,
    fiber_dist: &[Vec<f64>],
    config: &CircuitBuildConfig,
    telemetry: &CoreTelemetry,
) -> BuiltTopology {
    let mut optical = OpticalState::new(plant);
    let mut achieved = Topology::empty(desired.site_count());
    let mut circuits = Vec::new();

    for (u, v, m) in desired.links() {
        let mut ids = Vec::new();
        for _ in 0..m {
            // The regenerator graph changes as regenerators are consumed,
            // so rebuild it per circuit.
            let rg = RegenGraph::build(plant, &optical, fiber_dist, u, v);
            telemetry.shortest_path_calls.incr();
            let mut provisioned = false;
            for relay in rg.relay_candidates(config.relay_candidates) {
                match optical.provision(plant, &relay) {
                    Ok(id) => {
                        telemetry.circuits_built.incr();
                        telemetry
                            .regens_consumed
                            .add(optical.circuit(id).map_or(0, |c| c.regen_sites.len()) as u64);
                        ids.push(id);
                        provisioned = true;
                        break;
                    }
                    Err(_) => telemetry.wavelength_failures.incr(),
                }
            }
            if !provisioned {
                break; // reduce this link's capacity (Alg 3 lines 13-14)
            }
        }
        if !ids.is_empty() {
            achieved.add_links(u, v, ids.len() as u32);
            circuits.push(((u, v), ids));
        }
    }

    BuiltTopology {
        achieved,
        optical,
        circuits,
        pair_probes: ProbeLog::default(),
    }
}

/// The fast builders' provisioning step, shared by
/// [`build_topology_cached`] and the delta rebuild: everything an attempt
/// needs besides the optical state it provisions into.
struct Attempts<'a> {
    plant: &'a FiberPlant,
    fiber_dist: &'a [Vec<f64>],
    config: &'a CircuitBuildConfig,
    pc: &'a PlantCache,
    scratch: &'a mut RelayScratch,
    telemetry: &'a CoreTelemetry,
}

impl Attempts<'_> {
    /// One provisioning attempt for `(u, v)` (Algorithm 3 lines 7–12):
    /// draws relay candidates from a [`RelaySearch`] under the state's
    /// free-regenerator vector, cheapest first, and tries to light each —
    /// the next one is searched for only when the previous could not be
    /// lit — until one succeeds or `relay_candidates` were tried. The
    /// route fibers of every candidate tried are added to `probe`.
    fn light_circuit(
        &mut self,
        optical: &mut OpticalState,
        u: usize,
        v: usize,
        probe: &mut FiberSet,
    ) -> Option<CircuitId> {
        let telemetry = self.telemetry;
        // The vector moves when a circuit is lit; the reference check
        // below needs the one the search started from.
        let regens_at_start = cfg!(debug_assertions).then(|| optical.free_regen_vec().to_vec());
        telemetry.shortest_path_calls.incr();
        let mut search = RelaySearch::start(
            self.pc.reach(),
            optical.free_regen_vec(),
            u,
            v,
            self.scratch,
        );
        let mut lit = None;
        for _ in 0..self.config.relay_candidates {
            let Some((relay, _)) = search.next_path() else {
                break;
            };
            for w in relay.windows(2) {
                if let Some(route) = self.pc.routes().route(w[0], w[1]) {
                    for &f in &route.fibers {
                        probe.insert(f);
                    }
                }
            }
            match optical.provision_routed(self.plant, self.pc.routes(), relay) {
                Ok(id) => {
                    telemetry.circuits_built.incr();
                    telemetry
                        .regens_consumed
                        .add(optical.circuit(id).map_or(0, |c| c.regen_sites.len()) as u64);
                    lit = Some(id);
                    break;
                }
                Err(_) => telemetry.wavelength_failures.incr(),
            }
        }
        debug_assert!(
            search.matches_reference(
                self.plant,
                regens_at_start.as_deref().unwrap_or_default(),
                self.fiber_dist
            ),
            "relay search must equal RegenGraph + Yen for ({u}, {v})"
        );
        lit
    }

    /// Provisions up to `m` circuits for `(u, v)`, stopping at the first
    /// attempt that lights nothing (Algorithm 3 lines 13–14: the link's
    /// capacity is reduced). Returns the circuits and the pair's probe
    /// set — recorded even when nothing was built: the failed attempt
    /// still tried candidates, and a later delta's screen vouches for
    /// exactly that attempt.
    fn provision_pair(
        &mut self,
        optical: &mut OpticalState,
        u: usize,
        v: usize,
        m: u32,
    ) -> (Vec<CircuitId>, FiberSet) {
        let mut ids = Vec::new();
        let mut probe = FiberSet::new(self.plant.fiber_count());
        for _ in 0..m {
            match self.light_circuit(optical, u, v, &mut probe) {
                Some(id) => ids.push(id),
                None => break,
            }
        }
        (ids, probe)
    }
}

/// [`build_topology_observed`] on the fast path: identical construction
/// order and identical results, but relay candidates are drawn lazily from
/// a [`RelaySearch`] over the cache's plant-scoped tables (no graph built,
/// no path searched that is not tried) and segments are routed from the
/// plant's route table. Records the [`ProbeLog`] a later delta rebuild
/// resumes from.
pub fn build_topology_cached(
    plant: &FiberPlant,
    desired: &Topology,
    fiber_dist: &[Vec<f64>],
    config: &CircuitBuildConfig,
    cache: &mut EnergyCache,
    telemetry: &CoreTelemetry,
) -> BuiltTopology {
    cache.stats.full_builds += 1;
    let pc = cache.plant_precompute(plant, fiber_dist);
    let mut attempts = Attempts {
        plant,
        fiber_dist,
        config,
        pc: &pc,
        scratch: &mut cache.relay_scratch,
        telemetry,
    };
    let mut optical = OpticalState::new(plant);
    let mut achieved = Topology::empty(desired.site_count());
    let mut circuits = Vec::new();
    let mut pair_probes = ProbeLog::default();

    for (u, v, m) in desired.links() {
        let (ids, probe) = attempts.provision_pair(&mut optical, u, v, m);
        pair_probes.push(u, v, probe);
        if !ids.is_empty() {
            achieved.add_links(u, v, ids.len() as u32);
            circuits.push(((u, v), ids));
        }
    }

    let built = BuiltTopology {
        achieved,
        optical,
        circuits,
        pair_probes,
    };
    debug_assert_eq!(
        built,
        build_topology_observed(
            plant,
            desired,
            fiber_dist,
            config,
            &CoreTelemetry::disabled()
        ),
        "cached build must equal the naive build"
    );
    built
}

/// A forward-only cursor over a per-pair list sorted in canonical pair
/// order (`u < v`, lexicographic), for callers that visit pairs in that
/// same order.
struct PairCursor<'a, T> {
    rest: &'a [((usize, usize), T)],
}

impl<'a, T> PairCursor<'a, T> {
    fn new(list: &'a [((usize, usize), T)]) -> Self {
        debug_assert!(list.windows(2).all(|w| w[0].0 < w[1].0));
        PairCursor { rest: list }
    }

    /// The entry of `(u, v)`, if the list has one. Pairs must be sought
    /// in increasing order.
    fn seek(&mut self, u: usize, v: usize) -> Option<&'a T> {
        while let Some((first, tail)) = self.rest.split_first() {
            match first.0.cmp(&(u, v)) {
                std::cmp::Ordering::Less => self.rest = tail,
                std::cmp::Ordering::Equal => return Some(&first.1),
                std::cmp::Ordering::Greater => break,
            }
        }
        None
    }
}

/// Maximum link-unit distance the delta rebuild accepts (Algorithm 2's
/// neighbor move changes at most four).
const MAX_DELTA_UNITS: u32 = 4;

/// Incremental circuit rebuild: provisions `desired` by resuming from the
/// retained build of `prev_desired` instead of rebuilding every link.
///
/// The builder walks every active pair in canonical order, maintaining the
/// build under construction plus a lightweight **occupancy shadow** — the
/// packed channel words and regenerator vector of a verbatim replay of the
/// previous build, without circuit storage. It tracks the **dirty fibers**:
/// a superset of where the live build's channel occupancy has diverged
/// from the replay's (contributed only by pairs whose circuits actually
/// changed). A pair of unchanged multiplicity passes the **dirty-set
/// screen** — would a fresh build, given the state built so far, reproduce
/// the previous circuits? — when
///
/// 1. the free-regenerator vectors of the two states agree on the pair's
///    relay domain (see [`PlantCache`]) — they then agree there at every
///    attempt (both sides decrement by the same circuits), so every
///    attempt's relay search draws exactly the candidates the previous
///    build's drew; and
/// 2. channel occupancy is equal between the two states on every fiber of
///    the pair's recorded probe set (see [`ProbeLog`]) — the fibers of the
///    candidates the previous build tried, which by (1) are the ones a
///    fresh build would try — so every first-fit channel choice and every
///    wavelength failure is reproduced exactly, the trailing failed
///    attempt of a partially satisfied pair included. Only probe fibers
///    that are dirty need comparing; clean ones are equal by construction.
///
/// When the screen passes, the previous circuits are installed verbatim:
/// no relay search, no provisioning. When it fails — or the pair's
/// multiplicity changed — only *that pair* is re-provisioned, exactly as
/// [`build_topology_cached`] would, and it spreads dirt only if its
/// circuits come out different. There is no all-or-nothing contention
/// fallback: divergence degrades reuse pair by pair.
///
/// Returns `None` only when the topologies differ by more than
/// [`MAX_DELTA_UNITS`] units (beyond the neighbor-move bound, resuming
/// saves little and the caller's full rebuild is simpler). The result is
/// *structurally identical* to a fresh build — ids, storage order, and
/// occupancy — and debug builds assert that equality on every call.
#[allow(clippy::too_many_arguments)]
pub fn try_build_topology_delta(
    plant: &FiberPlant,
    desired: &Topology,
    prev_desired: &Topology,
    prev_built: &BuiltTopology,
    fiber_dist: &[Vec<f64>],
    config: &CircuitBuildConfig,
    cache: &mut EnergyCache,
    telemetry: &CoreTelemetry,
) -> Option<BuiltTopology> {
    let n = desired.site_count();
    debug_assert_eq!(n, prev_desired.site_count());

    let mut delta_units = 0u32;
    for u in 0..n {
        for v in u + 1..n {
            delta_units += prev_desired
                .multiplicity(u, v)
                .abs_diff(desired.multiplicity(u, v));
        }
    }
    if delta_units > MAX_DELTA_UNITS {
        cache.stats.delta_fallbacks += 1;
        return None;
    }
    if delta_units == 0 {
        cache.stats.delta_builds += 1;
        return Some(prev_built.clone());
    }

    // The previous build's per-pair lists are in the canonical pair order
    // this rebuild walks, so one cursor each replaces a search per pair.
    let mut prev_circuits = PairCursor::new(&prev_built.circuits);
    let mut prev_probes = PairCursor::new(&prev_built.pair_probes.0);

    let pc = cache.plant_precompute(plant, fiber_dist);
    let mut attempts = Attempts {
        plant,
        fiber_dist,
        config,
        pc: &pc,
        scratch: &mut cache.relay_scratch,
        telemetry,
    };
    let mut optical = OpticalState::new(plant);
    let mut replay = OccupancyShadow::new(plant);
    let mut achieved = Topology::empty(n);
    let mut circuits = Vec::new();
    let mut pair_probes = ProbeLog::default();
    let mut reused = 0u64;
    let mut rebuilt = 0u64;

    // Dirty fibers: a conservative superset of where the live build has
    // diverged from the replay so far. A rebuilt pair whose new circuits
    // differ from its previous ones contributes the fibers of *both*
    // generations; everything else (reused pairs, and rebuilds that
    // reproduced their circuits verbatim) contributes nothing, because
    // identical circuits installed on both sides leave occupancy words and
    // free-regenerator counts equal.
    let mut dirty_fibers = FiberSet::new(plant.fiber_count());
    let mut any_dirty = false;
    let mark_dirty = |c: &Circuit, df: &mut FiberSet| {
        for seg in &c.segments {
            for &f in &seg.fibers {
                df.insert(f);
            }
        }
    };

    for u in 0..n {
        for v in u + 1..n {
            let m_prev = prev_desired.multiplicity(u, v);
            let m_new = desired.multiplicity(u, v);
            if m_prev == 0 && m_new == 0 {
                continue;
            }
            let ids = prev_circuits.seek(u, v).map_or(&[][..], Vec::as_slice);
            let recorded = prev_probes.seek(u, v);

            // The dirty-set screen (unchanged pairs only).
            let screened = recorded.filter(|prev_probe| {
                let domain_equal = !any_dirty || {
                    let lv = optical.free_regen_vec();
                    let rv = replay.free_regen_vec();
                    pc.domain(u, v).iter().all(|&s| lv[s] == rv[s])
                };
                m_prev == m_new
                    && domain_equal
                    && prev_probe
                        .iter_common(&dirty_fibers)
                        .all(|f| optical.occupancy_words(f) == replay.occupancy_words(f))
            });

            if let Some(prev_probe) = screened {
                reused += 1;
                let mut pair_ids = Vec::new();
                for &id in ids {
                    let c = prev_built.optical.circuit(id).expect("live circuit");
                    replay.install(c);
                    pair_ids.push(optical.install(c.clone()));
                }
                pair_probes.push(u, v, prev_probe.clone());
                if !pair_ids.is_empty() {
                    achieved.add_links(u, v, pair_ids.len() as u32);
                    circuits.push(((u, v), pair_ids));
                }
                continue;
            }

            // Keep the replay in step regardless of how this pair is built.
            for &id in ids {
                replay.install(prev_built.optical.circuit(id).expect("live circuit"));
            }

            if m_new == 0 {
                // The previous circuits vanish from the live build: their
                // channels and regenerators now differ from the replay.
                for &id in ids {
                    let c = prev_built.optical.circuit(id).expect("live circuit");
                    mark_dirty(c, &mut dirty_fibers);
                    any_dirty = true;
                }
                continue;
            }
            // Re-provision this pair exactly as a fresh cached build would.
            rebuilt += 1;
            let (pair_ids, probe) = attempts.provision_pair(&mut optical, u, v, m_new);
            pair_probes.push(u, v, probe);

            // A rebuild that reproduced the previous circuits verbatim
            // leaves live and replay identical on every fiber and site it
            // touched — no dirt, so the screen stays sharp for the pairs
            // after it.
            let identical = pair_ids.len() == ids.len()
                && pair_ids
                    .iter()
                    .zip(ids)
                    .all(|(&nid, &oid)| optical.circuit(nid) == prev_built.optical.circuit(oid));
            if !identical {
                for &id in ids {
                    let c = prev_built.optical.circuit(id).expect("live circuit");
                    mark_dirty(c, &mut dirty_fibers);
                }
                for &id in &pair_ids {
                    let c = optical.circuit(id).expect("just provisioned");
                    mark_dirty(c, &mut dirty_fibers);
                }
                any_dirty = true;
            }

            if !pair_ids.is_empty() {
                achieved.add_links(u, v, pair_ids.len() as u32);
                circuits.push(((u, v), pair_ids));
            }
        }
    }

    cache.stats.delta_builds += 1;
    cache.stats.delta_pairs_reused += reused;
    cache.stats.delta_pairs_rebuilt += rebuilt;

    let built = BuiltTopology {
        achieved,
        optical,
        circuits,
        pair_probes,
    };
    debug_assert_eq!(
        built,
        build_topology_observed(
            plant,
            desired,
            fiber_dist,
            config,
            &CoreTelemetry::disabled()
        ),
        "delta rebuild must equal the naive build"
    );
    Some(built)
}

#[cfg(test)]
mod tests {
    use super::*;
    use owan_optical::OpticalParams;

    /// Four sites on a ring, 300 km fibers; every site has a router.
    fn ring_plant(wavelengths: u32, regens: u32, reach: f64) -> FiberPlant {
        let params = OpticalParams {
            wavelengths_per_fiber: wavelengths,
            optical_reach_km: reach,
            ..Default::default()
        };
        let mut p = FiberPlant::new(params);
        for i in 0..4 {
            p.add_site(&format!("S{i}"), 4, regens);
        }
        for i in 0..4 {
            p.add_fiber(i, (i + 1) % 4, 300.0);
        }
        p
    }

    #[test]
    fn simple_topology_fully_built() {
        let p = ring_plant(8, 2, 2_000.0);
        let mut desired = Topology::empty(4);
        desired.add_links(0, 1, 2);
        desired.add_links(2, 3, 1);
        let fd = p.fiber_distance_matrix();
        let built = build_topology(&p, &desired, &fd, &CircuitBuildConfig::default());
        assert_eq!(built.achieved, desired);
        assert_eq!(built.circuit_count(), 3);
        built.optical.check_invariants(&p).unwrap();
    }

    #[test]
    fn capacity_reduced_when_wavelengths_run_out() {
        // Only 1 wavelength per fiber: a 0-1 link of multiplicity 3 cannot
        // be satisfied; adjacent fibers allow alternate (longer) routes
        // around the ring, so 2 circuits are achievable (direct + the long
        // way), but not 3.
        let p = ring_plant(1, 4, 2_000.0);
        let mut desired = Topology::empty(4);
        desired.add_links(0, 1, 3);
        let fd = p.fiber_distance_matrix();
        let built = build_topology(&p, &desired, &fd, &CircuitBuildConfig::default());
        assert!(built.achieved.multiplicity(0, 1) < 3);
        assert!(built.achieved.multiplicity(0, 1) >= 1);
        built.optical.check_invariants(&p).unwrap();
    }

    #[test]
    fn long_links_use_regenerators() {
        // Reach 350 km: the 2-hop route 0-1-2 (600 km) needs a regenerator
        // at site 1 (or 3).
        let p = ring_plant(8, 1, 350.0);
        let mut desired = Topology::empty(4);
        desired.add_links(0, 2, 1);
        let fd = p.fiber_distance_matrix();
        let built = build_topology(&p, &desired, &fd, &CircuitBuildConfig::default());
        assert_eq!(built.achieved.multiplicity(0, 2), 1);
        let (_, ids) = &built.circuits[0];
        let c = built.optical.circuit(ids[0]).unwrap();
        assert_eq!(c.regen_sites.len(), 1);
    }

    #[test]
    fn no_regenerators_drops_unreachable_link() {
        let p = ring_plant(8, 0, 350.0);
        let mut desired = Topology::empty(4);
        desired.add_links(0, 2, 1); // 600 km, impossible without regen
        desired.add_links(0, 1, 1); // 300 km, fine
        let fd = p.fiber_distance_matrix();
        let built = build_topology(&p, &desired, &fd, &CircuitBuildConfig::default());
        assert_eq!(built.achieved.multiplicity(0, 2), 0);
        assert_eq!(built.achieved.multiplicity(0, 1), 1);
    }

    #[test]
    fn deterministic_across_runs() {
        let p = ring_plant(2, 1, 650.0);
        let mut desired = Topology::empty(4);
        desired.add_links(0, 1, 2);
        desired.add_links(1, 2, 2);
        desired.add_links(0, 2, 1);
        let fd = p.fiber_distance_matrix();
        let a = build_topology(&p, &desired, &fd, &CircuitBuildConfig::default());
        let b = build_topology(&p, &desired, &fd, &CircuitBuildConfig::default());
        assert_eq!(a.achieved, b.achieved);
        assert_eq!(a.circuit_count(), b.circuit_count());
    }
}
