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
//! Two builders reach the same circuits.
//! [`build_topology_observed`] is the reference: a [`RegenGraph`] and a
//! Yen run per circuit, an [`OpticalState`] provisioned segment by segment.
//! The annealing evaluation builds a [`TopologyLedger`] instead — the same
//! build held as flat arrays in reused buffers, in full or incrementally
//! from the previous one, and without choosing a channel as long as the
//! wavelength bound proves first fit cannot run out of one — and turns it
//! into a [`BuiltTopology`] ([`TopologyLedger::materialise`]), channels
//! assigned by first fit, only for the run's winner.

use crate::cache::{EnergyCache, PlantCache};
use crate::regen::{RegenGraph, RelayScratch, RelaySearch};
use crate::rows::{clear_bit, set_bit, MAX_ROW_WORDS};
use crate::telemetry::CoreTelemetry;
use crate::topology::Topology;
use owan_optical::{CircuitId, CircuitLedger, FiberPlant, OpticalState, RouteTable, SiteId};

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

/// Maximum link-unit distance the delta build accepts (Algorithm 2's
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
    /// Every attempt of the pair lit the first relay path drawn, or drew
    /// none.
    first_draws: bool,
}

/// Buffers of the delta build, refilled per build: the **replay** — the
/// free-regenerator vector of the accepted build, consumed pair by pair in
/// step with the build under construction — and the **diverged** sites, a
/// site row of those whose free count differs between the two.
#[derive(Debug, Clone, Default)]
pub(crate) struct DeltaScratch {
    replay: Vec<u32>,
    diverged: [u64; MAX_ROW_WORDS],
}

impl DeltaScratch {
    /// Re-marks `sites` as diverged or not against the live vector.
    fn sync(&mut self, live: &[u32], sites: &[SiteId]) {
        for &s in sites {
            if live[s] == self.replay[s] {
                clear_bit(&mut self.diverged, s);
            } else {
                set_bit(&mut self.diverged, s);
            }
        }
    }
}

/// The interior sites of a relay path: where it consumes regenerators.
fn interior(relay: &[SiteId]) -> &[SiteId] {
    &relay[1..relay.len() - 1]
}

/// One build of a desired topology, held flat: the circuits in
/// provisioning order as relay paths; per desired pair in canonical order
/// (`u < v`, lexicographic) which circuits are its; the free-regenerator
/// vector and the segments recorded across each fiber; and the achieved
/// topology.
///
/// An attempt is made **channel-free** whenever it can be: it records the
/// first relay path under the build's free-regenerator vector and counts
/// its segments, no channel chosen. That is exact by the **wavelength
/// bound**: a segment over route `R` planned while `used(f)` segments
/// cross each fiber `f` (the circuit's own earlier segments included)
/// finds a free channel by first fit whichever channels they hold, when
/// `Σ_{f∈R} used(f) < min_{f∈R} usable(f)` — each of them holds one
/// channel on each fiber it crosses. If every segment passes the bound and
/// provisioning accepts its route (the [`PlantCache`]'s segment checks), the
/// exact build lights the first relay path; those depend on the
/// free-regenerator vector alone, so by induction over the attempts the
/// exact build's circuits, and hence its achieved topology and score, are
/// the recorded ones.
///
/// An attempt the bound cannot vouch for is made **exactly**: the circuits
/// recorded before it are lit by first fit — the exact build's channels —
/// and the attempt draws relay candidates and lights them channel by
/// channel until one lights or `relay_candidates` were tried. The counts
/// take its circuit like any other, and later attempts go channel-free
/// again where the bound holds: it holds whichever channels are taken.
///
/// Every buffer is reused from build to build, so once a ledger has held a
/// build on a plant, building into it allocates nothing. It is what an
/// annealing evaluation produces; [`Self::materialise`] turns it into the
/// [`BuiltTopology`] the naive builder would have returned.
#[derive(Debug, Clone, Default)]
pub struct TopologyLedger {
    /// Relay paths of the circuits, back to back.
    relays: Vec<SiteId>,
    /// End of circuit `i`'s relay path in `relays`.
    ends: Vec<usize>,
    pairs: Vec<PairRec>,
    /// Free regenerators per site under the circuits recorded.
    regens: Vec<u32>,
    /// Segments recorded across each fiber.
    used: Vec<u32>,
    achieved: Topology,
    /// The first `lit.len()` circuits lit by first fit, caught up before
    /// every exact attempt. Its occupancy also holds the usable channels of
    /// each fiber, read from the plant of the build (the plant-scoped
    /// precompute does not key amplifier caps).
    lit: CircuitLedger,
    /// Some attempt of the build was made exactly.
    exact: bool,
}

impl TopologyLedger {
    /// The topology the build achieved.
    pub fn achieved(&self) -> &Topology {
        &self.achieved
    }

    /// Number of circuits.
    fn len(&self) -> usize {
        self.ends.len()
    }

    /// Relay path `[src, relay…, dst]` of circuit `i`.
    fn relay(&self, i: usize) -> &[SiteId] {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.relays[start..self.ends[i]]
    }

    /// An empty build of `desired` over `plant`, every buffer sized for
    /// the most the build can hold: a circuit and a pair per desired link;
    /// beyond two endpoints a circuit's relay path holds only sites whose
    /// regenerators it consumes.
    fn begin(&mut self, plant: &FiberPlant, desired: &Topology) {
        let links = desired.total_links() as usize;
        self.lit.reset(plant, links);
        self.regens.clear();
        self.regens
            .extend_from_slice(self.lit.occupancy().free_regen_vec());
        let regens: usize = self.regens.iter().map(|&r| r as usize).sum();
        self.relays.clear();
        self.relays.reserve(2 * links + regens);
        self.ends.clear();
        self.ends.reserve(links);
        self.pairs.clear();
        self.pairs.reserve(links);
        self.used.clear();
        self.used.resize(plant.fiber_count(), 0);
        self.achieved.reset(desired.site_count());
        self.exact = false;
    }

    /// Adds one to the segment count of every fiber crossed by the first
    /// `segments` segments of `relay`, or takes one away.
    fn count(&mut self, pc: &PlantCache, relay: &[SiteId], segments: usize, add: bool) {
        for w in relay.windows(2).take(segments) {
            for &f in pc.routes().route(w[0], w[1]).expect("counted").fibers {
                if add {
                    self.used[f] += 1;
                } else {
                    self.used[f] -= 1;
                }
            }
        }
    }

    /// Appends a circuit along `relay` whose segments are counted.
    fn record(&mut self, relay: &[SiteId]) {
        for &s in interior(relay) {
            debug_assert!(self.regens[s] > 0, "no regenerator at {s}");
            self.regens[s] -= 1;
        }
        self.relays.extend_from_slice(relay);
        self.ends.push(self.relays.len());
    }

    /// Counts the circuit recorded last as provisioned.
    fn built(&self, telemetry: &CoreTelemetry) {
        telemetry.circuits_built.incr();
        let relayed = interior(self.relay(self.len() - 1)).len();
        telemetry.regens_consumed.add(relayed as u64);
    }

    /// Records a circuit along `relay` channel-free when every segment
    /// passes provisioning's route check and the wavelength bound; returns
    /// `false`, nothing recorded, otherwise. The caller guarantees a free
    /// regenerator at every interior site.
    fn light_free(&mut self, pc: &PlantCache, relay: &[SiteId]) -> bool {
        for (j, w) in relay.windows(2).enumerate() {
            let fits = pc.segment_ok(w[0], w[1]) && {
                let fibers = pc.routes().route(w[0], w[1]).expect("checked").fibers;
                let occupancy = self.lit.occupancy();
                let (used, usable) = fibers.iter().fold((0, u32::MAX), |(n, least), &f| {
                    (n + self.used[f], least.min(occupancy.usable(f)))
                });
                used < usable
            };
            if !fits {
                self.count(pc, relay, j, false);
                return false;
            }
            self.count(pc, &relay[j..], 1, true);
        }
        self.record(relay);
        true
    }

    /// One provisioning attempt for `(u, v)` (Algorithm 3 lines 7–12).
    /// Its first relay path is `vouched` when the caller knows it (a
    /// delta's copy), `[u, v]` when the two are within reach, else the
    /// first draw of a relay search under the build's vector; it is
    /// recorded channel-free if it can be, else the attempt is made exactly
    /// ([`Self::light_exact`]). Returns whether a circuit was lit, and
    /// whether the attempt lit its first draw or drew none.
    fn attempt(
        &mut self,
        env: &BuildEnv<'_>,
        scratch: &mut RelayScratch,
        (u, v): (SiteId, SiteId),
        vouched: Option<&[SiteId]>,
    ) -> (bool, bool) {
        let pc = env.pc;
        if vouched.is_none() {
            env.telemetry.shortest_path_calls.incr();
        }
        let recorded = if let Some(relay) = vouched {
            self.light_free(pc, relay)
        } else if pc.reach().within(u, v) {
            self.light_free(pc, &[u, v])
        } else {
            let mut search = RelaySearch::start(pc.reach(), &self.regens, u, v, scratch);
            let Some((relay, _)) = search.next_path() else {
                return (false, true);
            };
            self.light_free(pc, relay)
        };
        if !recorded {
            return self.light_exact(env, scratch, u, v);
        }
        if vouched.is_none() {
            self.built(env.telemetry);
        }
        (true, true)
    }

    /// An attempt made exactly: lights the circuits recorded since the
    /// last one into `lit` by first fit, then draws relay candidates from a
    /// [`RelaySearch`] under the build's vector, cheapest first, and tries
    /// to light each — the next one is searched for only when the previous
    /// could not be lit — until one succeeds or `relay_candidates` were
    /// tried (Algorithm 3 lines 7–12, as [`build_topology_observed`] makes
    /// them). Returns as [`Self::attempt`] does.
    fn light_exact(
        &mut self,
        env: &BuildEnv<'_>,
        scratch: &mut RelayScratch,
        u: SiteId,
        v: SiteId,
    ) -> (bool, bool) {
        let pc = env.pc;
        self.exact = true;
        for i in self.lit.len()..self.len() {
            let start = if i == 0 { 0 } else { self.ends[i - 1] };
            self.lit
                .light(env.plant, pc.routes(), &self.relays[start..self.ends[i]])
                .expect("the bound vouched for a recorded circuit");
        }
        // The reference check below needs the vector the search started
        // from.
        let regens_at_start = cfg!(debug_assertions).then(|| self.regens.clone());
        let mut search = RelaySearch::start(pc.reach(), &self.regens, u, v, scratch);
        let mut outcome = (false, true);
        for draw in 0..env.config.relay_candidates {
            let Some((relay, _)) = search.next_path() else {
                break;
            };
            outcome.1 = false;
            match self.lit.light(env.plant, pc.routes(), relay) {
                Ok(()) => {
                    self.count(pc, relay, relay.len() - 1, true);
                    self.record(relay);
                    self.built(env.telemetry);
                    outcome = (true, draw == 0);
                    break;
                }
                Err(_) => env.telemetry.wavelength_failures.incr(),
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
        outcome
    }

    /// Records `(u, v)` as the owner of the circuits recorded since
    /// `first`.
    fn push_pair(&mut self, u: SiteId, v: SiteId, first: usize, first_draws: bool) {
        let count = self.len() - first;
        if count > 0 {
            self.achieved.add_links(u, v, count as u32);
        }
        self.pairs.push(PairRec {
            u,
            v,
            first,
            count,
            first_draws,
        });
    }

    /// [`build_topology_observed`] into the ledger: identical construction
    /// order and identical decisions, but relay candidates are drawn
    /// lazily from a [`RelaySearch`] over the plant-scoped tables (no graph
    /// built, no path searched that is not tried), segments are routed
    /// from the plant's route table, and channels are chosen only where
    /// the wavelength bound cannot vouch for an attempt. Each pair gets up
    /// to `m` circuits, stopping at the first attempt that lights nothing
    /// (Algorithm 3 lines 13–14: the link's capacity is reduced).
    fn full(&mut self, env: &BuildEnv<'_>, scratch: &mut RelayScratch, desired: &Topology) {
        let n = desired.site_count();
        self.begin(env.plant, desired);
        for u in 0..n {
            for (v, &m) in desired.row(u).iter().enumerate().skip(u + 1) {
                if m > 0 {
                    let first = self.len();
                    let mut first_draws = true;
                    for _ in 0..m {
                        let (lit, first_draw) = self.attempt(env, scratch, (u, v), None);
                        first_draws &= first_draw;
                        if !lit {
                            break;
                        }
                    }
                    self.push_pair(u, v, first, first_draws);
                }
            }
        }
    }

    /// [`Self::full`]'s build of `desired`, resumed from `prev`, the build
    /// of `prev_desired`, instead of searching for every circuit. Returns
    /// how many pairs the screen cleared at unchanged multiplicity and how
    /// many others were provisioned.
    ///
    /// The builder walks every active pair in canonical order, keeping the
    /// **replay** of `prev`'s free-regenerator vector in step (see
    /// [`DeltaScratch`]) and the site row of where it has **diverged** from
    /// the live one. The **screen** clears a pair within reach — `[u, v]`
    /// is its first relay path under any vector — and a pair no site of
    /// whose relay domain (see [`PlantCache`]) has diverged, one AND per
    /// word: the two vectors then agree on the domain at every attempt the
    /// two builds share (both sides consume the same circuits), so those
    /// attempts draw the first paths `prev`'s drew. If `prev` lit those
    /// (every attempt of the pair lit its first draw), the first `min(count,
    /// m)` attempts take `prev`'s relay paths, no search run; when `prev`'s
    /// next attempt found no path, neither does this one's; only attempts
    /// beyond `prev`'s multiplicity search. A pair the screen does not clear
    /// is searched anew, and so is the rest of a pair once an attempt lit a
    /// path other than its first draw. Either way each attempt is
    /// channel-free only where the wavelength bound vouches for it against
    /// the live segment counts.
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
        let pc = env.pc;
        self.begin(env.plant, desired);
        ds.replay.clone_from(&self.regens);
        ds.diverged = [0; MAX_ROW_WORDS];
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
                let rec = (m_prev > 0).then(|| {
                    let rec = prev.pairs[next_prev];
                    next_prev += 1;
                    assert_eq!(
                        (rec.u, rec.v),
                        (u, v),
                        "`prev` is the build of `prev_desired`"
                    );
                    rec
                });
                let prev_circuits = rec.map_or(0..0, |r| r.first..r.first + r.count);
                let clean = rec.is_none_or(|r| r.first_draws)
                    && (pc.reach().within(u, v)
                        || pc
                            .domain(u, v)
                            .iter()
                            .zip(&ds.diverged)
                            .all(|(d, x)| d & x == 0));
                let first = self.len();
                let mut first_draws = true;
                for made in 0..m_new as usize {
                    let vouched = if !(clean && first_draws) {
                        None
                    } else if made < prev_circuits.len() {
                        Some(prev.relay(prev_circuits.start + made))
                    } else if prev_circuits.len() < m_prev as usize {
                        // `prev`'s next attempt found no path.
                        break;
                    } else {
                        None
                    };
                    let (lit, first_draw) = self.attempt(env, scratch, (u, v), vouched);
                    first_draws &= first_draw;
                    if !lit {
                        break;
                    }
                }
                for i in prev_circuits.clone() {
                    for &s in interior(prev.relay(i)) {
                        ds.replay[s] -= 1;
                    }
                }
                for i in prev_circuits {
                    ds.sync(&self.regens, interior(prev.relay(i)));
                }
                for i in first..self.len() {
                    ds.sync(&self.regens, interior(self.relay(i)));
                }
                if m_new > 0 {
                    if clean && m_new == m_prev {
                        reused += 1;
                    } else {
                        rebuilt += 1;
                    }
                    self.push_pair(u, v, first, first_draws);
                }
            }
        }
        (reused, rebuilt)
    }

    /// The build as a [`BuiltTopology`]: the relay paths lit in ledger
    /// order by first fit into a fresh [`OpticalState`], so ids, storage
    /// order, channels and occupancy are those of
    /// [`build_topology_observed`] on the same desired topology — the
    /// exact build lights exactly these paths, in this order, and its
    /// failed attempts change nothing. `routes` must be the route table of
    /// `plant`, the plant the ledger was built on. The only place the fast
    /// path constructs [`Circuit`](owan_optical::Circuit)s.
    pub fn materialise(&self, plant: &FiberPlant, routes: &RouteTable) -> BuiltTopology {
        let mut lit = CircuitLedger::default();
        lit.reset(plant, self.len());
        let mut optical = OpticalState::new(plant);
        let circuits = self
            .pairs
            .iter()
            .filter(|p| p.count > 0)
            .map(|p| {
                let ids = (p.first..p.first + p.count)
                    .map(|i| {
                        lit.light(plant, routes, self.relay(i))
                            .expect("a recorded relay path lights");
                        optical.install(lit.circuit(routes, i))
                    })
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

/// Builds `desired` into `cache.scored` (see [`TopologyLedger`]):
/// resuming from `cache.accepted` when `basis` — the desired topology
/// `accepted` is the build of — is at most [`MAX_DELTA_UNITS`] link units
/// away (beyond the neighbor-move bound resuming saves little), in full
/// otherwise. Debug builds assert the ledger against the naive build on
/// every call.
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
    if cache.scored.exact {
        cache.stats.exact_fallbacks += 1;
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
