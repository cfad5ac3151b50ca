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
//!
//! Two builders make the same decisions in the same order.
//! [`build_topology_observed`] is the reference: a [`RegenGraph`] and a
//! Yen run per circuit, an [`OpticalState`] provisioned segment by segment.
//! The annealing evaluation builds a [`TopologyLedger`] instead — the same
//! build held as flat arrays in reused buffers, in full or incrementally
//! from the previous one — and turns it into a [`BuiltTopology`]
//! ([`TopologyLedger::materialise`]) only for the run's winner.

use crate::cache::{EnergyCache, PlantCache};
use crate::regen::{RegenGraph, RelayScratch, RelaySearch};
use crate::rows::{row_sites, set_bit};
use crate::telemetry::CoreTelemetry;
use crate::topology::Topology;
use owan_optical::{
    CircuitId, CircuitLedger, FiberPlant, Occupancy, OpticalState, RouteTable, SiteId,
};

/// Result of realizing a desired topology in the optical layer.
#[derive(Debug, Clone, PartialEq)]
pub struct BuiltTopology {
    /// The topology actually achieved (multiplicities possibly reduced).
    pub achieved: Topology,
    /// The optical state with all circuits provisioned.
    pub optical: OpticalState,
    /// Circuit ids per link, aligned with `achieved.links()` order.
    pub circuits: Vec<((usize, usize), Vec<CircuitId>)>,
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
    }
}

/// Maximum link-unit distance the delta rebuild accepts (Algorithm 2's
/// neighbor move changes at most four).
pub const MAX_DELTA_UNITS: u32 = 4;

/// What a ledger build reads besides the topologies.
struct BuildEnv<'a> {
    plant: &'a FiberPlant,
    fiber_dist: &'a [Vec<f64>],
    config: &'a CircuitBuildConfig,
    pc: &'a PlantCache,
    telemetry: &'a CoreTelemetry,
}

/// One desired pair of a [`TopologyLedger`]: its circuits are
/// `first..first + count` of the ledger's.
#[derive(Debug, Clone, Copy)]
struct PairRec {
    u: SiteId,
    v: SiteId,
    first: usize,
    count: usize,
}

/// Buffers of the delta rebuild, cleared per build: the **replay** — the
/// occupancy of the previous build installed verbatim, pair by pair, in
/// step with the build under construction — and the **dirty fibers**, a
/// bitset row.
#[derive(Debug, Clone, Default)]
pub(crate) struct DeltaScratch {
    replay: Occupancy,
    dirty: Vec<u64>,
}

/// Sets the bit of every fiber on the routes between consecutive sites of
/// `relay` in the fiber bitset `row`.
fn mark_route_fibers(pc: &PlantCache, relay: &[SiteId], row: &mut [u64]) {
    for w in relay.windows(2) {
        if let Some(route) = pc.routes().route(w[0], w[1]) {
            for &f in route.fibers {
                set_bit(row, f);
            }
        }
    }
}

/// True when `a` and `b` hold equal occupancy words on every fiber in both
/// of the fiber bitsets `probe` and `dirty`.
fn equal_on(a: &Occupancy, b: &Occupancy, probe: &[u64], dirty: &[u64]) -> bool {
    for (j, (&probed, &dirty)) in probe.iter().zip(dirty).enumerate() {
        let mut bits = probed & dirty;
        while bits != 0 {
            let f = j * 64 + bits.trailing_zeros() as usize;
            bits &= bits - 1;
            if a.occupancy_words(f) != b.occupancy_words(f) {
                return false;
            }
        }
    }
    true
}

/// One build of a desired topology, held flat: the circuits lit, in
/// provisioning order, as a [`CircuitLedger`] (occupancy words, free
/// regenerators, relay path and channels per circuit); per desired pair in
/// canonical order (`u < v`, lexicographic) which circuits are its, and
/// its **probe row** — the route fibers of every relay candidate the
/// pair's provisioning attempts tried, exactly the fibers whose channel
/// occupancy those attempts read or wrote; and the achieved topology.
///
/// Every buffer is reused from build to build, so once a ledger has held a
/// build on a plant, building into it allocates nothing. It is what an
/// annealing evaluation produces; [`Self::materialise`] turns it into the
/// [`BuiltTopology`] the naive builder would have returned.
#[derive(Debug, Clone, Default)]
pub struct TopologyLedger {
    lit: CircuitLedger,
    pairs: Vec<PairRec>,
    /// Probe rows, `fiber_words` words per pair of `pairs`.
    probes: Vec<u64>,
    fiber_words: usize,
    achieved: Topology,
}

impl TopologyLedger {
    /// The topology the build achieved.
    pub fn achieved(&self) -> &Topology {
        &self.achieved
    }

    /// An empty build of `desired` over `plant`, every buffer sized for
    /// the most the build can hold: a circuit and a pair per desired link.
    fn begin(&mut self, plant: &FiberPlant, desired: &Topology) {
        let links = desired.total_links() as usize;
        self.lit.reset(plant, links);
        self.fiber_words = plant.fiber_count().div_ceil(64);
        self.pairs.clear();
        self.pairs.reserve(links);
        self.probes.clear();
        self.probes.reserve(links * self.fiber_words);
        self.achieved.reset(desired.site_count());
    }

    /// Probe row of pair record `k`.
    fn probe(&self, k: usize) -> &[u64] {
        &self.probes[k * self.fiber_words..(k + 1) * self.fiber_words]
    }

    /// One provisioning attempt for the pair being built, `(u, v)`
    /// (Algorithm 3 lines 7–12): draws relay candidates from a
    /// [`RelaySearch`] under the build's free-regenerator vector, cheapest
    /// first, and tries to light each — the next one is searched for only
    /// when the previous could not be lit — until one succeeds or
    /// `relay_candidates` were tried. The route fibers of every candidate
    /// tried go into the pair's probe row (the last of `probes`).
    fn light_circuit(
        &mut self,
        env: &BuildEnv<'_>,
        scratch: &mut RelayScratch,
        u: SiteId,
        v: SiteId,
    ) -> bool {
        let telemetry = env.telemetry;
        let regens = self.lit.occupancy().free_regen_vec();
        // The vector moves when a circuit is lit; the reference check
        // below needs the one the search started from.
        let regens_at_start = cfg!(debug_assertions).then(|| regens.to_vec());
        telemetry.shortest_path_calls.incr();
        let mut search = RelaySearch::start(env.pc.reach(), regens, u, v, scratch);
        let row = self.probes.len() - self.fiber_words;
        let mut lit = false;
        for _ in 0..env.config.relay_candidates {
            let Some((relay, _)) = search.next_path() else {
                break;
            };
            mark_route_fibers(env.pc, relay, &mut self.probes[row..]);
            match self.lit.light(env.plant, env.pc.routes(), relay) {
                Ok(()) => {
                    telemetry.circuits_built.incr();
                    telemetry.regens_consumed.add(relay.len() as u64 - 2);
                    lit = true;
                    break;
                }
                Err(_) => telemetry.wavelength_failures.incr(),
            }
        }
        debug_assert!(
            search.matches_reference(
                env.plant,
                regens_at_start.as_deref().unwrap_or_default(),
                env.fiber_dist
            ),
            "relay search must equal RegenGraph + Yen for ({u}, {v})"
        );
        lit
    }

    /// Provisions up to `m` circuits for `(u, v)`, stopping at the first
    /// attempt that lights nothing (Algorithm 3 lines 13–14: the link's
    /// capacity is reduced), and records the pair — with its probe row
    /// even when nothing was built: the failed attempt still tried
    /// candidates, and a later delta's screen vouches for exactly that
    /// attempt. Returns the circuits lit.
    fn provision_pair(
        &mut self,
        env: &BuildEnv<'_>,
        scratch: &mut RelayScratch,
        u: SiteId,
        v: SiteId,
        m: u32,
    ) -> std::ops::Range<usize> {
        let first = self.lit.len();
        self.probes.resize(self.probes.len() + self.fiber_words, 0);
        for _ in 0..m {
            if !self.light_circuit(env, scratch, u, v) {
                break;
            }
        }
        self.push_pair(u, v, first);
        first..self.lit.len()
    }

    /// Records `(u, v)` as the owner of the circuits lit since `first`.
    fn push_pair(&mut self, u: SiteId, v: SiteId, first: usize) {
        let count = self.lit.len() - first;
        if count > 0 {
            self.achieved.add_links(u, v, count as u32);
        }
        self.pairs.push(PairRec { u, v, first, count });
    }

    /// [`build_topology_observed`] into the ledger: identical construction
    /// order and identical decisions, but relay candidates are drawn
    /// lazily from a [`RelaySearch`] over the plant-scoped tables (no
    /// graph built, no path searched that is not tried) and segments are
    /// routed from the plant's route table.
    fn full(&mut self, env: &BuildEnv<'_>, scratch: &mut RelayScratch, desired: &Topology) {
        let n = desired.site_count();
        self.begin(env.plant, desired);
        for u in 0..n {
            for (v, &m) in desired.row(u).iter().enumerate().skip(u + 1) {
                if m > 0 {
                    self.provision_pair(env, scratch, u, v, m);
                }
            }
        }
    }

    /// Incremental rebuild: provisions `desired` by resuming from `prev`,
    /// the build of `prev_desired`, instead of rebuilding every link.
    ///
    /// The builder walks every active pair in canonical order, maintaining
    /// the build under construction plus the **replay** of the previous
    /// build (see [`DeltaScratch`]). It tracks the **dirty fibers**: a
    /// superset of where the live build's channel occupancy has diverged
    /// from the replay's (contributed only by pairs whose circuits
    /// actually changed). A pair of unchanged multiplicity passes the
    /// **dirty-set screen** — would a fresh build, given the state built so
    /// far, reproduce the previous circuits? — when
    ///
    /// 1. the free-regenerator vectors of the two states agree on the
    ///    pair's relay domain (see [`PlantCache`]) — they then agree there
    ///    at every attempt (both sides decrement by the same circuits), so
    ///    every attempt's relay search draws exactly the candidates the
    ///    previous build's drew; and
    /// 2. channel occupancy is equal between the two states on every fiber
    ///    of the pair's recorded probe row — the fibers of the candidates
    ///    the previous build tried, which by (1) are the ones a fresh build
    ///    would try — so every first-fit channel choice and every
    ///    wavelength failure is reproduced exactly, the trailing failed
    ///    attempt of a partially satisfied pair included. Only probe fibers
    ///    that are dirty need comparing; clean ones are equal by
    ///    construction.
    ///
    /// When the screen passes, the previous circuits are copied verbatim:
    /// no relay search, no provisioning. When it fails — or the pair's
    /// multiplicity changed — only *that pair* is re-provisioned, exactly
    /// as [`Self::full`] would, and it spreads dirt only if its circuits
    /// come out different. There is no all-or-nothing contention fallback:
    /// divergence degrades reuse pair by pair.
    ///
    /// The result is the ledger [`Self::full`] would have built. Returns
    /// how many pairs were reused and how many re-provisioned.
    fn delta(
        &mut self,
        env: &BuildEnv<'_>,
        scratch: &mut RelayScratch,
        ds: &mut DeltaScratch,
        desired: &Topology,
        prev_desired: &Topology,
        prev: &TopologyLedger,
    ) -> (u64, u64) {
        let n = desired.site_count();
        assert_eq!(n, prev_desired.site_count());
        let (pc, routes) = (env.pc, env.pc.routes());
        self.begin(env.plant, desired);
        ds.replay.reset(env.plant);
        // Dirty fibers: a conservative superset of where the live build
        // has diverged from the replay so far. A rebuilt pair whose new
        // circuits differ from its previous ones contributes the fibers of
        // *both* generations; everything else (reused pairs, and rebuilds
        // that reproduced their circuits verbatim) contributes nothing,
        // because identical circuits installed on both sides leave
        // occupancy words and free-regenerator counts equal.
        ds.dirty.clear();
        ds.dirty.resize(self.fiber_words, 0);
        let mut any_dirty = false;
        // `prev.pairs` holds exactly the pairs `prev_desired` links, in the
        // order this walk visits them.
        let mut next_prev = 0;
        let (mut reused, mut rebuilt) = (0, 0);

        for u in 0..n {
            for v in u + 1..n {
                let m_prev = prev_desired.multiplicity(u, v);
                let m_new = desired.multiplicity(u, v);
                if m_prev == 0 && m_new == 0 {
                    continue;
                }
                let recorded = (m_prev > 0).then(|| {
                    let k = next_prev;
                    next_prev += 1;
                    let rec = prev.pairs[k];
                    assert_eq!(
                        (rec.u, rec.v),
                        (u, v),
                        "`prev` is the build of `prev_desired`"
                    );
                    (k, rec)
                });
                let prev_circuits = recorded.map_or(0..0, |(_, r)| r.first..r.first + r.count);

                // The dirty-set screen (unchanged pairs only).
                let screened = recorded.filter(|&(k, _)| {
                    let live = self.lit.occupancy();
                    m_prev == m_new
                        && (!any_dirty || {
                            let (lv, rv) = (live.free_regen_vec(), ds.replay.free_regen_vec());
                            row_sites(pc.domain(u, v)).all(|s| lv[s] == rv[s])
                        })
                        && equal_on(live, &ds.replay, prev.probe(k), &ds.dirty)
                });

                if let Some((k, _)) = screened {
                    reused += 1;
                    let first = self.lit.len();
                    for i in prev_circuits {
                        ds.replay
                            .install(routes, prev.lit.relay(i), prev.lit.channels(i));
                        self.lit.copy_circuit(routes, &prev.lit, i);
                    }
                    self.probes.extend_from_slice(prev.probe(k));
                    self.push_pair(u, v, first);
                    continue;
                }

                // Keep the replay in step regardless of how this pair is
                // built.
                for i in prev_circuits.clone() {
                    ds.replay
                        .install(routes, prev.lit.relay(i), prev.lit.channels(i));
                }

                if m_new == 0 {
                    // The previous circuits vanish from the live build:
                    // their channels and regenerators now differ from the
                    // replay.
                    for i in prev_circuits {
                        mark_route_fibers(pc, prev.lit.relay(i), &mut ds.dirty);
                        any_dirty = true;
                    }
                    continue;
                }
                // Re-provision this pair exactly as a full build would.
                rebuilt += 1;
                let new_circuits = self.provision_pair(env, scratch, u, v, m_new);

                // A rebuild that reproduced the previous circuits verbatim
                // leaves live and replay identical on every fiber and site
                // it touched — no dirt, so the screen stays sharp for the
                // pairs after it.
                let identical = new_circuits.len() == prev_circuits.len()
                    && new_circuits
                        .clone()
                        .zip(prev_circuits.clone())
                        .all(|(i, j)| {
                            self.lit.relay(i) == prev.lit.relay(j)
                                && self.lit.channels(i) == prev.lit.channels(j)
                        });
                if !identical {
                    for j in prev_circuits {
                        mark_route_fibers(pc, prev.lit.relay(j), &mut ds.dirty);
                    }
                    for i in new_circuits {
                        mark_route_fibers(pc, self.lit.relay(i), &mut ds.dirty);
                    }
                    any_dirty = true;
                }
            }
        }
        (reused, rebuilt)
    }

    /// The build as a [`BuiltTopology`]: the circuits installed in ledger
    /// order into a fresh [`OpticalState`], so ids, storage order and
    /// occupancy are those of [`build_topology_observed`] on the same
    /// desired topology. `routes` must be the route table of `plant`, the
    /// plant the ledger was built on. The only place the fast path
    /// constructs [`Circuit`](owan_optical::Circuit)s.
    pub fn materialise(&self, plant: &FiberPlant, routes: &RouteTable) -> BuiltTopology {
        let mut optical = OpticalState::new(plant);
        let circuits = self
            .pairs
            .iter()
            .filter(|p| p.count > 0)
            .map(|p| {
                let ids = (p.first..p.first + p.count)
                    .map(|i| optical.install(self.lit.circuit(routes, i)))
                    .collect();
                ((p.u, p.v), ids)
            })
            .collect();
        BuiltTopology {
            achieved: self.achieved.clone(),
            optical,
            circuits,
        }
    }
}

/// Builds `desired` into `cache.scored`: incrementally from
/// `cache.accepted` when `basis` — the desired topology `accepted` is the
/// build of — is at most [`MAX_DELTA_UNITS`] link units away (beyond the
/// neighbor-move bound resuming saves little), in full otherwise. Debug
/// builds assert the ledger against the naive build on every call.
pub(crate) fn build_ledger(
    plant: &FiberPlant,
    desired: &Topology,
    basis: Option<&Topology>,
    fiber_dist: &[Vec<f64>],
    config: &CircuitBuildConfig,
    cache: &mut EnergyCache,
    telemetry: &CoreTelemetry,
) {
    let pc = cache.plant_precompute(plant, fiber_dist);
    let env = BuildEnv {
        plant,
        fiber_dist,
        config,
        pc: &pc,
        telemetry,
    };
    let near = basis.filter(|prev| desired.link_distance(prev) <= MAX_DELTA_UNITS);
    if basis.is_some() && near.is_none() {
        cache.stats.delta_fallbacks += 1;
    }
    match near {
        Some(prev_desired) => {
            let (reused, rebuilt) = cache.scored.delta(
                &env,
                &mut cache.relay_scratch,
                &mut cache.delta_scratch,
                desired,
                prev_desired,
                &cache.accepted,
            );
            cache.stats.delta_builds += 1;
            cache.stats.delta_pairs_reused += reused;
            cache.stats.delta_pairs_rebuilt += rebuilt;
        }
        None => {
            cache.stats.full_builds += 1;
            cache.scored.full(&env, &mut cache.relay_scratch, desired);
        }
    }
    debug_assert_eq!(
        cache.scored.materialise(plant, pc.routes()),
        build_topology_observed(
            plant,
            desired,
            fiber_dist,
            config,
            &CoreTelemetry::disabled()
        ),
        "the ledger must equal the naive build"
    );
}

/// [`build_topology_observed`] on the fast path: a full ledger build in
/// the cache's buffers (see [`TopologyLedger`]), materialised.
pub fn build_topology_cached(
    plant: &FiberPlant,
    desired: &Topology,
    fiber_dist: &[Vec<f64>],
    config: &CircuitBuildConfig,
    cache: &mut EnergyCache,
    telemetry: &CoreTelemetry,
) -> BuiltTopology {
    build_ledger(plant, desired, None, fiber_dist, config, cache, telemetry);
    let pc = cache.plant_precompute(plant, fiber_dist);
    cache.scored.materialise(plant, pc.routes())
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
