//! The annealing fast path's state: the plant-scoped precompute, the two
//! circuit ledgers and the kernels' scratch buffers.
//!
//! Every annealing iteration evaluates `ComputeEnergy` (Algorithm 3) on a
//! candidate topology and reads one number of the result, the throughput.
//! The naive evaluation rebuilds a [`RegenGraph`](crate::regen::RegenGraph)
//! (Dijkstra + Yen) for *every* desired link and materialises every
//! circuit and allocation — even though the plant is fixed for the whole
//! slot and the neighbor differs from the accepted state in four links.
//! The [`EnergyCache`] holds what the fast evaluation keeps between those
//! calls, none of it per evaluation:
//!
//! 1. **[`PlantCache`]** — everything about circuit construction that
//!    depends on the plant alone: the reach rows the resumable relay search
//!    ([`RelaySearch`](crate::regen::RelaySearch)) runs on, the route table
//!    provisioning and the probe rows read fibers from, and the per-pair
//!    relay domains the delta rebuild's dirty-set screen compares
//!    free-regenerator vectors on. Relay candidates themselves are *not*
//!    cached: a search draws them one at a time, and nearly every attempt
//!    lights the first.
//! 2. **Two [`TopologyLedger`]s** — `accepted`, the build of the walk's
//!    current state, and `scored`, the build of the neighbor being
//!    evaluated, rebuilt incrementally from `accepted`; accepting a move
//!    swaps them.
//! 3. **Scratch buffers** of the kernels an evaluation runs: the relay
//!    search's, the delta rebuild's and the rate pass's.
//!
//! There is no memo of evaluated topologies: a walk that returns to a
//! state re-scores it — a deterministic function of the same inputs, so
//! the walk is unchanged — which costs less than hashing, storing and
//! dropping full outcomes for the few evaluations in a hundred that
//! repeat.
//!
//! Invalidation: the [`PlantCache`] is valid as long as the plant content
//! is unchanged; [`EnergyCache::begin_run`] fingerprints the plant (sites,
//! ports, regenerators, fibers, lengths, usable wavelengths) and drops it
//! when the fingerprint moves — e.g. when a chaos fault degrades an
//! amplifier and shrinks a fiber's usable band. The ledgers are buffers: a
//! run's first evaluation rebuilds `accepted` in full.

use crate::circuits::{DeltaScratch, TopologyLedger};
use crate::rates::RateScratch;
use crate::regen::{ReachRows, RelayScratch};
use crate::rows::{by_row_words, clear_bit, has_bit, row, row_mut, row_sites, set_bit};
use owan_optical::{FiberPlant, RouteTable, SiteId};
use std::sync::Arc;

/// Attributed cause of an evaluation that had to run Algorithm 3: the
/// `anneal.cache_miss.<reason>` counters, which partition
/// `anneal.cache_miss` exactly. Every evaluation runs Algorithm 3, so
/// `anneal.cache_miss` is the evaluation count: `uncached` on the naive
/// path, `cold` on the fast path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum MissReason {
    /// No cache attached at all (the naive reference path).
    Uncached,
    /// An evaluation on the fast path.
    Cold,
    // The variants below named why the outcome memo (`Capacity`) and the
    // relay-candidate cache (the other five) missed. Both are gone and
    // nothing produces them; they, the `outcome_hits` and three `relay_*`
    // fields of [`EnergyCacheStats`] and their
    // [`CoreTelemetry`](crate::telemetry::CoreTelemetry) counters exist
    // only until a benchmark-only PR drops the `benchmark/src/layers.rs`
    // rows that read them (`core.cache_outcome_hit_rate`,
    // `core.cache_relay_hit_rate`, six `core.cache_miss_*`).
    #[doc(hidden)]
    Capacity,
    #[doc(hidden)]
    Flush,
    #[doc(hidden)]
    ClassCollision,
    #[doc(hidden)]
    PartialCandidateList,
    #[doc(hidden)]
    BoundaryGuard,
    #[doc(hidden)]
    MembershipCrossing,
}

impl MissReason {
    /// Stable slug used in counter names and report tables.
    pub fn name(self) -> &'static str {
        match self {
            MissReason::Uncached => "uncached",
            MissReason::Cold => "cold",
            MissReason::Capacity => "capacity",
            MissReason::Flush => "flush",
            MissReason::ClassCollision => "class_collision",
            MissReason::PartialCandidateList => "partial_candidate_list",
            MissReason::BoundaryGuard => "boundary_guard",
            MissReason::MembershipCrossing => "membership_crossing",
        }
    }
}

/// Fast-path work counters, exposed for tests and the bench pipeline.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EnergyCacheStats {
    /// Evaluations scored on the fast path (each ran Algorithm 3; the
    /// name is the one the outcome memo's miss count had).
    pub outcome_misses: u64,
    /// Incremental (delta) circuit rebuilds performed.
    pub delta_builds: u64,
    /// Delta rebuilds refused outright (the desired topologies differ by
    /// more than the neighbor-move bound; a full rebuild follows).
    pub delta_fallbacks: u64,
    /// Pairs whose previous circuits were reused verbatim by delta
    /// rebuilds: cleared by the dirty-set screen, no relay search, no
    /// provisioning.
    pub delta_pairs_reused: u64,
    /// Pairs re-provisioned inside delta rebuilds (multiplicity changed,
    /// or the screen found a regenerator or occupancy divergence).
    pub delta_pairs_rebuilt: u64,
    /// Full circuit rebuilds (initial evaluations, fallbacks, and a
    /// winner that is not the accepted state).
    pub full_builds: u64,
    /// Plant-fingerprint flushes of the plant-scoped precompute.
    pub flushes: u64,
    /// Always zero: see the note in [`MissReason`].
    #[doc(hidden)]
    pub outcome_hits: u64,
    #[doc(hidden)]
    pub relay_hits: u64,
    #[doc(hidden)]
    pub relay_relaxed_hits: u64,
    #[doc(hidden)]
    pub relay_misses: u64,
}

impl EnergyCacheStats {
    /// Field-wise sum, for aggregating per-chain caches into one report.
    pub fn merge(&mut self, other: &EnergyCacheStats) {
        self.outcome_misses += other.outcome_misses;
        self.delta_builds += other.delta_builds;
        self.delta_fallbacks += other.delta_fallbacks;
        self.delta_pairs_reused += other.delta_pairs_reused;
        self.delta_pairs_rebuilt += other.delta_pairs_rebuilt;
        self.full_builds += other.full_builds;
        self.flushes += other.flushes;
    }
}

/// Content fingerprint of a plant: everything circuit construction can
/// observe — parameters, per-site ports/regenerators, per-fiber endpoints,
/// lengths, and usable wavelengths (which folds in degradation caps). Site
/// names are excluded: they cannot influence any build decision. FNV-1a
/// over the canonical field order.
pub fn plant_fingerprint(plant: &FiberPlant) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = FNV_OFFSET;
    let mut mix = |v: u64| {
        for byte in v.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(FNV_PRIME);
        }
    };
    let params = plant.params();
    mix(params.wavelength_capacity_gbps.to_bits());
    mix(params.wavelengths_per_fiber as u64);
    mix(params.optical_reach_km.to_bits());
    mix(plant.site_count() as u64);
    for s in plant.sites() {
        mix(s.router_ports as u64);
        mix(s.regenerators as u64);
    }
    mix(plant.fiber_count() as u64);
    for (f, fiber) in plant.fibers().iter().enumerate() {
        mix(fiber.a as u64);
        mix(fiber.b as u64);
        mix(fiber.length_km.to_bits());
        mix(plant.usable_wavelengths(f) as u64);
    }
    h
}

/// Plant-scoped, vector-independent precompute shared by every run and
/// every parallel chain's cache (`Arc`-shared, immutable once built):
///
/// - the **reach rows** ([`ReachRows`]): which site pairs lie within
///   optical reach, the adjacency every relay search runs on;
/// - the per-pair **relay domains**: for a pair `(u, v)`, the
///   regenerator-equipped sites `s ∉ {u, v}` that a reach-graph path from
///   `u` gets to, and that get to `v`, with every interior site equipped —
///   exactly the condition for `s` to appear on *some* relay path under
///   *some* free-regenerator vector (`free ≤ total`, so reachability over
///   equipped sites over-covers every dynamic one). A site outside the
///   domain is never a node the pair's Dijkstra/Yen run can pop or relax
///   through on a returned path, so its free count cannot influence the
///   output: two vectors with equal domain projections yield
///   bit-identical draws from a relay search — the theorem the delta
///   rebuild's dirty-set screen rests on;
/// - the **route table** ([`RouteTable`]): the shortest fiber route of
///   every ordered site pair, which the ledger builds hand to provisioning
///   (no Dijkstra per segment) and read probe and dirty fibers from.
///
/// Invalidation piggybacks on the plant fingerprint: a degradation that
/// moves the fingerprint (e.g. an amp fault shrinking a fiber's usable
/// band) drops the `Arc` and the next run rebuilds.
#[derive(Debug)]
pub struct PlantCache {
    sig: u64,
    n: usize,
    /// Relay domain per unordered pair as a site row, row `min * n + max`.
    domains: Vec<u64>,
    reach: ReachRows,
    routes: RouteTable,
}

impl PlantCache {
    /// Builds the precompute: the reach rows; their closure over
    /// regenerator-equipped pivots (a boolean Floyd–Warshall on site rows,
    /// `O(V^2)` row unions) with the per-pair domains read off it, word by
    /// word; and one fiber-graph Dijkstra per site for the route table.
    ///
    /// # Panics
    ///
    /// If the plant has more than [`MAX_SITES`](crate::rows::MAX_SITES)
    /// sites.
    pub fn build(plant: &FiberPlant, fiber_dist: &[Vec<f64>]) -> Self {
        let reach = ReachRows::build(plant, fiber_dist);
        let domains = by_row_words!(reach.words(), |W| relay_domains::<W>(plant, &reach));
        PlantCache {
            sig: plant_fingerprint(plant),
            n: plant.site_count(),
            domains,
            reach,
            routes: RouteTable::build(plant),
        }
    }

    /// Fingerprint of the plant this precompute was built from.
    pub fn fingerprint(&self) -> u64 {
        self.sig
    }

    /// The relay domain of pair `(u, v)` as a site row (see
    /// [`row_sites`]).
    pub fn domain(&self, u: SiteId, v: SiteId) -> &[u64] {
        let (a, b) = if u <= v { (u, v) } else { (v, u) };
        let w = self.reach.words();
        &self.domains[(a * self.n + b) * w..][..w]
    }

    /// The plant's reach adjacency.
    pub(crate) fn reach(&self) -> &ReachRows {
        &self.reach
    }

    /// The plant's all-pairs shortest fiber routes.
    pub(crate) fn routes(&self) -> &RouteTable {
        &self.routes
    }
}

/// The relay domain of every unordered pair `(u, v)`, `u < v`, as `W`-word
/// rows indexed `u * n + v`: the equipped sites, not `u` or `v`, that
/// `through[u]` holds and whose own `through` row holds `v`.
fn relay_domains<const W: usize>(plant: &FiberPlant, reach: &ReachRows) -> Vec<u64> {
    let n = plant.site_count();
    let mut equipped = [0u64; W];
    for s in (0..n).filter(|&s| plant.site(s).regenerators > 0) {
        set_bit(&mut equipped, s);
    }
    // `through[x]`: the sites a path from `x` gets to with every interior
    // site equipped.
    let mut through = vec![0u64; n * W];
    for x in 0..n {
        *row_mut::<W>(&mut through, x) = *reach.fwd::<W>(x);
    }
    for k in row_sites(&equipped) {
        let via = *row::<W>(&through, k);
        for x in 0..n {
            let r = row_mut::<W>(&mut through, x);
            if has_bit(r, k) {
                for (a, b) in r.iter_mut().zip(via) {
                    *a |= b;
                }
            }
        }
    }
    // `into[v]`: the sites whose `through` row holds `v`.
    let mut into = vec![0u64; n * W];
    for x in 0..n {
        for v in row_sites(row::<W>(&through, x)) {
            set_bit(row_mut::<W>(&mut into, v), x);
        }
    }
    let mut domains = vec![0u64; n * n * W];
    for u in 0..n {
        let from_u = *row::<W>(&through, u);
        for v in u + 1..n {
            let to_v = row::<W>(&into, v);
            let d = row_mut::<W>(&mut domains, u * n + v);
            for i in 0..W {
                d[i] = equipped[i] & from_u[i] & to_v[i];
            }
            clear_bit(d, u);
            clear_bit(d, v);
        }
    }
    domains
}

/// What the fast evaluation keeps between calls. See the module docs for
/// the parts and their invalidation rules.
///
/// Not shared between threads: each parallel annealing chain owns its own
/// cache, which keeps chains bit-for-bit independent of scheduling.
#[derive(Debug, Clone, Default)]
pub struct EnergyCache {
    /// Fingerprint of the plant the current run evaluates.
    plant_sig: Option<u64>,
    /// The build of the annealing walk's current state: what a neighbor's
    /// build resumes from.
    pub(crate) accepted: TopologyLedger,
    /// The build of the topology evaluated last.
    pub(crate) scored: TopologyLedger,
    /// Buffers and between-draw state of the relay search.
    pub(crate) relay_scratch: RelayScratch,
    /// Buffers of the delta rebuild.
    pub(crate) delta_scratch: DeltaScratch,
    /// Buffers of the rate pass.
    pub(crate) rate_scratch: RateScratch,
    /// Plant-scoped precompute (relay domains, reach rows, route table),
    /// `Arc`-shared across chains when a parallel run installs one.
    plant: Option<Arc<PlantCache>>,
    /// A shared precompute offered by the enclosing parallel run via
    /// [`Self::install_plant_cache`]; adopted on first use when its
    /// fingerprint matches, so sibling chains never rebuild it.
    shared_plant: Option<Arc<PlantCache>>,
    /// Work counters.
    pub stats: EnergyCacheStats,
}

impl EnergyCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Prepares the cache for one evaluation run (one annealing call):
    /// drops the plant-scoped precompute if the plant content changed
    /// since it was built. `fiber_dist` passed to the other methods must
    /// always be `plant.fiber_distance_matrix()`.
    pub fn begin_run(&mut self, plant: &FiberPlant) {
        let sig = plant_fingerprint(plant);
        if self.plant_sig == Some(sig) {
            return;
        }
        if self.plant_sig.is_some() {
            self.stats.flushes += 1;
        }
        self.plant_sig = Some(sig);
        self.plant = None;
    }

    /// Offers a shared [`PlantCache`] built by the enclosing run. The
    /// cache adopts it (instead of building its own) as long as its
    /// fingerprint matches the plant of the current run.
    pub fn install_plant_cache(&mut self, pc: Arc<PlantCache>) {
        self.shared_plant = Some(pc);
    }

    /// The plant-scoped precompute currently adopted or offered, if its
    /// fingerprint is `sig` — lets a parallel run recycle one chain's
    /// precompute for its siblings across slots.
    pub fn plant_cache_for(&self, sig: u64) -> Option<Arc<PlantCache>> {
        self.plant
            .iter()
            .chain(self.shared_plant.iter())
            .find(|p| p.sig == sig)
            .cloned()
    }

    /// The plant-scoped precompute, adopting the shared one or building a
    /// fresh one on first use after a flush.
    pub(crate) fn plant_precompute(
        &mut self,
        plant: &FiberPlant,
        fiber_dist: &[Vec<f64>],
    ) -> Arc<PlantCache> {
        if let Some(pc) = &self.plant {
            return Arc::clone(pc);
        }
        let sig = self.plant_sig.unwrap_or_else(|| plant_fingerprint(plant));
        let pc = self
            .shared_plant
            .as_ref()
            .filter(|p| p.sig == sig)
            .cloned()
            .unwrap_or_else(|| Arc::new(PlantCache::build(plant, fiber_dist)));
        self.plant = Some(Arc::clone(&pc));
        pc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use owan_optical::OpticalParams;

    fn plant() -> FiberPlant {
        let mut p = FiberPlant::new(OpticalParams {
            optical_reach_km: 500.0,
            ..Default::default()
        });
        for i in 0..4 {
            p.add_site(&format!("S{i}"), 4, 2);
        }
        for i in 0..4 {
            p.add_fiber(i, (i + 1) % 4, 400.0);
        }
        p
    }

    #[test]
    fn fingerprint_tracks_plant_content() {
        let p = plant();
        let base = plant_fingerprint(&p);
        assert_eq!(base, plant_fingerprint(&p), "deterministic");

        let mut degraded = p.clone();
        degraded.set_fiber_wavelength_cap(0, Some(3));
        assert_ne!(base, plant_fingerprint(&degraded), "amp degradation");
        degraded.set_fiber_wavelength_cap(0, None);
        assert_eq!(base, plant_fingerprint(&degraded), "repair restores");
    }

    #[test]
    fn domains_are_reachability_through_equipped_interiors() {
        // A ring of 11 sites with chords, some sites without regenerators;
        // reach covers one hop (and the short chords) only.
        let mut p = FiberPlant::new(OpticalParams {
            optical_reach_km: 500.0,
            ..Default::default()
        });
        let regens = [2, 0, 1, 3, 0, 0, 2, 1, 0, 4, 1];
        for (i, &r) in regens.iter().enumerate() {
            p.add_site(&format!("S{i}"), 4, r);
        }
        let n = regens.len();
        for i in 0..n {
            p.add_fiber(i, (i + 1) % n, 300.0 + 40.0 * (i % 4) as f64);
        }
        p.add_fiber(0, 5, 450.0);
        p.add_fiber(2, 9, 520.0);
        p.add_fiber(3, 7, 380.0);
        let fd = p.fiber_distance_matrix();
        let pc = PlantCache::build(&p, &fd);

        // The oracle: a search from `x` that expands only `x` itself and
        // equipped sites.
        let gets_to = |x: usize| -> Vec<bool> {
            let mut seen = vec![false; n];
            let mut stack = vec![x];
            while let Some(a) = stack.pop() {
                if a != x && regens[a] == 0 {
                    continue;
                }
                for b in 0..n {
                    if b != a && fd[a][b] <= 500.0 && !seen[b] {
                        seen[b] = true;
                        stack.push(b);
                    }
                }
            }
            seen
        };
        let mut sizes = std::collections::BTreeSet::new();
        for u in 0..n {
            for v in u + 1..n {
                let want: Vec<usize> = (0..n)
                    .filter(|&s| {
                        s != u && s != v && regens[s] > 0 && gets_to(u)[s] && gets_to(s)[v]
                    })
                    .collect();
                let row: Vec<usize> = row_sites(pc.domain(u, v)).collect();
                assert_eq!(row, want, "({u}, {v})");
                assert_eq!(pc.domain(v, u), pc.domain(u, v), "({v}, {u})");
                sizes.insert(want.len());
            }
        }
        assert!(sizes.len() > 2, "domains of several sizes: {sizes:?}");
    }

    #[test]
    fn begin_run_flushes_on_degradation_only() {
        let mut p = plant();
        let mut cache = EnergyCache::new();
        cache.begin_run(&p);
        let first = cache.plant_precompute(&p, &p.fiber_distance_matrix());

        cache.begin_run(&p);
        assert_eq!(cache.stats.flushes, 0, "same plant keeps the precompute");
        let again = cache.plant_precompute(&p, &p.fiber_distance_matrix());
        assert!(Arc::ptr_eq(&first, &again));

        p.set_fiber_wavelength_cap(2, Some(1));
        cache.begin_run(&p);
        assert_eq!(cache.stats.flushes, 1, "degradation flushes");
        let rebuilt = cache.plant_precompute(&p, &p.fiber_distance_matrix());
        assert!(!Arc::ptr_eq(&first, &rebuilt), "precompute was rebuilt");
    }

    #[test]
    fn route_table_follows_the_plant_fingerprint() {
        // Parallel fibers 0-1 and a fiberless site: the table the cache
        // hands to provisioning must equal the plant's own routes pair
        // for pair, and be rebuilt when the fingerprint moves.
        let mut p = plant();
        p.add_fiber(0, 1, 250.0);
        p.add_site("LONE", 4, 0);
        let same_routes = |pc: &PlantCache, p: &FiberPlant| {
            for a in 0..p.site_count() {
                for b in 0..p.site_count() {
                    let want = p.shortest_fiber_route(a, b);
                    let got = pc
                        .routes()
                        .route(a, b)
                        .map(|r| (r.fibers.clone(), r.sites.clone(), r.length_km));
                    assert_eq!(got, want, "{a}->{b}");
                }
            }
        };
        let mut cache = EnergyCache::new();
        cache.begin_run(&p);
        let first = cache.plant_precompute(&p, &p.fiber_distance_matrix());
        same_routes(&first, &p);
        assert_eq!(first.routes().route(0, 1).unwrap().fibers, vec![4]);
        assert!(first.routes().route(0, 4).is_none());

        cache.begin_run(&p);
        let again = cache.plant_precompute(&p, &p.fiber_distance_matrix());
        assert!(Arc::ptr_eq(&first, &again), "same plant keeps the table");

        // Amp degradation moves the fingerprint: flushed and rebuilt.
        p.set_fiber_wavelength_cap(4, Some(1));
        cache.begin_run(&p);
        let degraded = cache.plant_precompute(&p, &p.fiber_distance_matrix());
        assert!(!Arc::ptr_eq(&first, &degraded));
        same_routes(&degraded, &p);

        // Repair restores the fingerprint; the precompute is rebuilt for
        // it (the flush dropped the old one) with the original routes.
        p.set_fiber_wavelength_cap(4, None);
        cache.begin_run(&p);
        let repaired = cache.plant_precompute(&p, &p.fiber_distance_matrix());
        assert_eq!(repaired.fingerprint(), first.fingerprint());
        assert!(!Arc::ptr_eq(&degraded, &repaired));
        same_routes(&repaired, &p);

        // A cut (the plant loses the short parallel fiber) changes routes,
        // and the table with them.
        let mut cut = plant();
        cut.add_site("LONE", 4, 0);
        cache.begin_run(&cut);
        let after_cut = cache.plant_precompute(&cut, &cut.fiber_distance_matrix());
        same_routes(&after_cut, &cut);
        assert_eq!(after_cut.routes().route(0, 1).unwrap().fibers, vec![0]);
    }
}
