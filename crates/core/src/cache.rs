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
//!    provisioning and the wavelength bound read segments from, the
//!    per-pair segment checks (route present and within reach) a
//!    channel-free build needs besides the bound, and the per-pair relay
//!    domains the delta build's regenerator screen tests for diverged
//!    sites; and the fiber distance matrix, read off the route table's
//!    shortest-path trees (no second Dijkstra pass), which the reach rows
//!    are built from and the engine's port repair and the chaos runner
//!    read too. Relay candidates themselves are *not* cached: a search
//!    draws them one at a time, and nearly every attempt lights the first.
//! 2. **Three [`TopologyLedger`]s** — `accepted`, the build of the walk's
//!    current state, `scored`, the build of the neighbor being evaluated,
//!    built channel-free and incrementally from `accepted` (accepting a
//!    move swaps them), and `best`, a copy of the best state's build taken
//!    when the walk leaves it, which the run's winner is materialised
//!    from. After a run `accepted` holds the winner's build, and the next
//!    run on the same plant precompute resumes its first evaluation from
//!    it.
//! 3. **Scratch buffers** of the kernels an evaluation runs: the relay
//!    search's, the delta build's and the rate pass's.
//!
//! There is no memo of evaluated topologies: a walk that returns to a
//! state re-scores it — a deterministic function of the same inputs, so
//! the walk is unchanged — which costs less than hashing, storing and
//! dropping full outcomes for the few evaluations in a hundred that
//! repeat.
//!
//! Invalidation: the [`PlantCache`] is valid as long as what it reads is
//! unchanged; [`EnergyCache::begin_run`] takes the plant's
//! [`precompute_key`] (site count, regenerators, fiber endpoints and
//! lengths, optical reach) and drops the precompute when the key moves — a
//! fiber cut, a site down, the repair of either. An amplifier degradation
//! only shrinks a fiber's usable band, which no table reads (provisioning
//! and the wavelength bound read the band off the plant at every build),
//! so it keeps the precompute. A flush also drops the winner's build the
//! next run would have resumed from: its first evaluation then builds in
//! full.

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
    /// Circuit builds that resumed from the accepted one (see
    /// [`TopologyLedger`]).
    pub delta_builds: u64,
    /// Delta builds refused outright (the desired topologies differ by
    /// more than the neighbor-move bound; a full build follows).
    pub delta_fallbacks: u64,
    /// Pairs of unchanged multiplicity cleared by the delta build's
    /// regenerator screen: within reach of each other (`[u, v]` is the
    /// first relay path under any vector), or with no site of their relay
    /// domain diverged from the accepted build's replay, so their accepted
    /// relay paths were taken without a relay search.
    pub delta_pairs_reused: u64,
    /// Every other pair delta builds provisioned: multiplicity changed, a
    /// relay domain site diverged, or the accepted build's attempts for
    /// the pair did not all light their first draw.
    pub delta_pairs_rebuilt: u64,
    /// Full circuit builds (initial evaluations, refused deltas, and a
    /// winner that is not the accepted state).
    pub full_builds: u64,
    /// Builds with an attempt made exactly, channel by channel: a segment
    /// of its first relay path failed the wavelength bound or
    /// provisioning's route check.
    pub exact_fallbacks: u64,
    /// Flushes of the plant-scoped precompute: runs whose plant's
    /// [`precompute_key`] differed from the previous run's.
    pub flushes: u64,
    /// Attempts of delta builds that took the accepted build's relay path
    /// on the relay-path certificate, no search run.
    pub relay_certified: u64,
    /// Pairs delta builds stopped on the certificate where the accepted
    /// build's next attempt drew no relay path, no search run.
    pub relay_certified_dry: u64,
    /// Certified draws and stops checked against the search they skipped
    /// (every one in debug builds, and with
    /// [`EnergyCache::audit_certificates`] set).
    pub certificates_audited: u64,
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
        self.exact_fallbacks += other.exact_fallbacks;
        self.flushes += other.flushes;
        self.relay_certified += other.relay_certified;
        self.relay_certified_dry += other.relay_certified_dry;
        self.certificates_audited += other.certificates_audited;
    }
}

/// Key of the plant-scoped precompute: exactly the plant content a
/// [`PlantCache`] and its fiber distance matrix read — the site count and
/// per-site regenerators (relay domains), fiber endpoints and lengths
/// (distances and routes) and the optical reach (reach rows). Two plants
/// with one key share one precompute. Router ports, site names, the
/// wavelength count and capacity and per-fiber wavelength caps (amplifier
/// degradation) are left out: no table reads them. FNV-1a over the
/// canonical field order.
pub fn precompute_key(plant: &FiberPlant) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = FNV_OFFSET;
    let mut mix = |v: u64| {
        for byte in v.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(FNV_PRIME);
        }
    };
    mix(plant.params().optical_reach_km.to_bits());
    mix(plant.site_count() as u64);
    for s in plant.sites() {
        mix(s.regenerators as u64);
    }
    mix(plant.fiber_count() as u64);
    for fiber in plant.fibers() {
        mix(fiber.a as u64);
        mix(fiber.b as u64);
        mix(fiber.length_km.to_bits());
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
///   build's regenerator screen rests on;
/// - the **route table** ([`RouteTable`]): the shortest fiber route of
///   every ordered site pair, which the ledger builds hand to provisioning
///   (no Dijkstra per segment) and read the wavelength bound's fibers
///   from;
/// - the **segment checks**: per ordered site pair, whether provisioning
///   accepts its route (present, within reach);
/// - the **fiber distance matrix**: the route table's trees' distances,
///   which the reach rows are built from and the engine reads too (port
///   repair).
///
/// Invalidation follows the [`precompute_key`]: a plant change that moves
/// it (a cut, a site down, a repair of either) drops the `Arc` and the
/// next run rebuilds; one that does not (an amplifier degradation) keeps
/// it.
#[derive(Debug)]
pub struct PlantCache {
    key: u64,
    n: usize,
    /// Relay domain per unordered pair as a site row, row `min * n + max`.
    domains: Vec<u64>,
    reach: ReachRows,
    routes: RouteTable,
    /// Site row per source site: the destinations whose route-table route
    /// exists and lies within reach.
    segments: Vec<u64>,
    fiber_dist: Vec<Vec<f64>>,
}

impl PlantCache {
    /// Builds the precompute from `plant` alone, the one construction
    /// path: one fiber-graph Dijkstra per site for the route table, whose
    /// trees' distances are the fiber distance matrix
    /// ([`RouteTable::distance_matrix`], bit-equal to
    /// `plant.fiber_distance_matrix()`); the reach rows from that matrix;
    /// their closure over regenerator-equipped pivots (a boolean
    /// Floyd–Warshall on site rows, `O(V^2)` row unions) with the per-pair
    /// domains read off it, word by word; and the segment checks.
    ///
    /// # Panics
    ///
    /// If the plant has more than [`MAX_SITES`](crate::rows::MAX_SITES)
    /// sites.
    pub fn new(plant: &FiberPlant) -> Self {
        let routes = RouteTable::build(plant);
        let fiber_dist = routes.distance_matrix();
        let reach = ReachRows::build(plant, &fiber_dist);
        let domains = by_row_words!(reach.words(), |W| relay_domains::<W>(plant, &reach));
        let (n, w) = (plant.site_count(), reach.words());
        let reach_km = plant.params().optical_reach_km;
        let mut segments = vec![0u64; n * w];
        for a in 0..n {
            for b in 0..n {
                if routes.route(a, b).is_some_and(|r| r.length_km <= reach_km) {
                    set_bit(&mut segments[a * w..], b);
                }
            }
        }
        PlantCache {
            key: precompute_key(plant),
            n,
            domains,
            reach,
            routes,
            segments,
            fiber_dist,
        }
    }

    /// [`Self::new`], for a caller that holds the plant's distance matrix
    /// already: `fiber_dist` must be `plant.fiber_distance_matrix()`, and
    /// debug builds assert the precompute's own matrix equals it bit for
    /// bit.
    ///
    /// # Panics
    ///
    /// As [`Self::new`].
    pub fn build(plant: &FiberPlant, fiber_dist: &[Vec<f64>]) -> Self {
        let pc = Self::new(plant);
        let bits =
            |m: &[Vec<f64>]| -> Vec<u64> { m.iter().flatten().map(|d| d.to_bits()).collect() };
        debug_assert_eq!(
            bits(&pc.fiber_dist),
            bits(fiber_dist),
            "fiber_dist is not the plant's distance matrix"
        );
        pc
    }

    /// [`precompute_key`] of the plant this precompute was built from.
    pub fn key(&self) -> u64 {
        self.key
    }

    /// The plant's all-pairs shortest fiber distance matrix.
    pub fn fiber_dist(&self) -> &[Vec<f64>] {
        &self.fiber_dist
    }

    /// The relay domain of pair `(u, v)` as a site row (see
    /// [`row_sites`]).
    pub fn domain(&self, u: SiteId, v: SiteId) -> &[u64] {
        let (a, b) = if u <= v { (u, v) } else { (v, u) };
        let w = self.reach.words();
        &self.domains[(a * self.n + b) * w..][..w]
    }

    /// True when provisioning accepts a segment `a → b` on route grounds:
    /// the route table has a route and it lies within reach. The relay
    /// search's reach edges test the distance matrix instead, which agrees
    /// with the route lengths only up to summation order.
    pub(crate) fn segment_ok(&self, a: SiteId, b: SiteId) -> bool {
        has_bit(&self.segments[a * self.reach.words()..], b)
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
    /// [`precompute_key`] of the plant the current run evaluates.
    plant_key: Option<u64>,
    /// The build of the annealing walk's current state: what a neighbor's
    /// build resumes from.
    pub(crate) accepted: TopologyLedger,
    /// The build of the topology evaluated last.
    pub(crate) scored: TopologyLedger,
    /// A copy of the build of the run's best state, taken when the walk
    /// accepts a move away from it (see `EnergyEvaluator::keep_best`).
    pub(crate) best: TopologyLedger,
    /// `accepted` holds a build made under the current plant's
    /// [`precompute_key`] (a run's winner, left there by `finish`): a run's
    /// first evaluation may resume from it. A key change clears it.
    pub(crate) resume: bool,
    /// Buffers and between-draw state of the relay search.
    pub(crate) relay_scratch: RelayScratch,
    /// Buffers of the delta build.
    pub(crate) delta_scratch: DeltaScratch,
    /// Buffers of the rate pass.
    pub(crate) rate_scratch: RateScratch,
    /// Plant-scoped precompute (relay domains, reach rows, route table,
    /// segment checks, distance matrix), `Arc`-shared across chains when a
    /// parallel run installs one.
    plant: Option<Arc<PlantCache>>,
    /// A shared precompute offered by the enclosing parallel run via
    /// [`Self::install_plant_cache`]; adopted on first use when its key
    /// matches, so sibling chains never rebuild it.
    shared_plant: Option<Arc<PlantCache>>,
    /// Work counters.
    pub stats: EnergyCacheStats,
    /// Check every certified relay draw and certified stop of a delta
    /// build against the search it skipped, panicking on a difference
    /// (debug builds always do): for the differential tests.
    #[doc(hidden)]
    pub audit_certificates: bool,
}

impl EnergyCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Prepares the cache for one evaluation run (one annealing call):
    /// drops the plant-scoped precompute if the plant's
    /// [`precompute_key`] moved since it was built. `fiber_dist` passed to
    /// the other methods must always be `plant.fiber_distance_matrix()`.
    pub fn begin_run(&mut self, plant: &FiberPlant) {
        let key = precompute_key(plant);
        if self.plant_key == Some(key) {
            return;
        }
        if self.plant_key.is_some() {
            self.stats.flushes += 1;
        }
        self.plant_key = Some(key);
        self.plant = None;
        self.resume = false;
    }

    /// Offers a shared [`PlantCache`] built by the enclosing run. The
    /// cache adopts it (instead of building its own) as long as its key
    /// matches the plant of the current run.
    pub fn install_plant_cache(&mut self, pc: Arc<PlantCache>) {
        self.shared_plant = Some(pc);
    }

    /// The plant-scoped precompute currently adopted or offered, if its
    /// key is `key` — lets a parallel run recycle one chain's precompute
    /// for its siblings across slots.
    pub fn plant_cache_for(&self, key: u64) -> Option<Arc<PlantCache>> {
        self.plant
            .iter()
            .chain(self.shared_plant.iter())
            .find(|p| p.key == key)
            .cloned()
    }

    /// Begins a run on `plant` (see [`Self::begin_run`]) and returns its
    /// precompute: the one held, the shared one, or a fresh one whose
    /// route table's trees give the distance matrix ([`PlantCache::new`]).
    /// The engine and the chaos runner read the plant's distance matrix
    /// from here instead of computing their own.
    pub fn precompute(&mut self, plant: &FiberPlant) -> Arc<PlantCache> {
        self.begin_run(plant);
        self.adopt_or_build(plant, || PlantCache::new(plant))
    }

    /// The plant-scoped precompute, adopting the shared one or building a
    /// fresh one on first use after a flush.
    pub(crate) fn plant_precompute(
        &mut self,
        plant: &FiberPlant,
        fiber_dist: &[Vec<f64>],
    ) -> Arc<PlantCache> {
        self.adopt_or_build(plant, || PlantCache::build(plant, fiber_dist))
    }

    fn adopt_or_build(
        &mut self,
        plant: &FiberPlant,
        build: impl FnOnce() -> PlantCache,
    ) -> Arc<PlantCache> {
        if let Some(pc) = &self.plant {
            return Arc::clone(pc);
        }
        let key = self.plant_key.unwrap_or_else(|| precompute_key(plant));
        let pc = self
            .shared_plant
            .as_ref()
            .filter(|p| p.key == key)
            .cloned()
            .unwrap_or_else(|| Arc::new(build()));
        self.plant = Some(Arc::clone(&pc));
        pc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use owan_optical::OpticalParams;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

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

    /// A plant spelled out field by field, so that a test can change one
    /// field at a time.
    #[derive(Clone)]
    struct Spec {
        params: OpticalParams,
        /// `(name, router ports, regenerators)`.
        sites: Vec<(String, u32, u32)>,
        /// `(a, b, length km, wavelength cap)`.
        fibers: Vec<(usize, usize, f64, Option<u32>)>,
    }

    impl Spec {
        /// 4–11 sites, some without regenerators or ports, and random
        /// fibers (parallel ones and isolated sites included).
        fn random(rng: &mut StdRng) -> Spec {
            let n = rng.random_range(4..12usize);
            let sites = (0..n)
                .map(|i| {
                    let ports = rng.random_range(0..4u32);
                    (format!("S{i}"), ports, rng.random_range(0..3u32))
                })
                .collect();
            let mut fibers = Vec::new();
            for _ in 0..rng.random_range(1..2 * n) {
                let a = rng.random_range(0..n);
                let b = (a + rng.random_range(1..n)) % n;
                fibers.push((a, b, rng.random_range(100.0..900.0), None));
            }
            Spec {
                params: OpticalParams {
                    optical_reach_km: rng.random_range(600.0..1500.0),
                    ..Default::default()
                },
                sites,
                fibers,
            }
        }

        fn plant(&self) -> FiberPlant {
            let mut p = FiberPlant::new(self.params.clone());
            for (name, ports, regens) in &self.sites {
                p.add_site(name, *ports, *regens);
            }
            for &(a, b, km, cap) in &self.fibers {
                let f = p.add_fiber(a, b, km);
                p.set_fiber_wavelength_cap(f, cap);
            }
            p
        }

        fn key(&self) -> u64 {
            precompute_key(&self.plant())
        }
    }

    fn built(p: &FiberPlant) -> PlantCache {
        PlantCache::build(p, &p.fiber_distance_matrix())
    }

    /// Every table of two precomputes, bit for bit.
    fn assert_same_precompute(a: &PlantCache, b: &PlantCache, tag: &str) {
        assert_eq!(a.key(), b.key(), "{tag}: key");
        assert_eq!(a.reach, b.reach, "{tag}: reach rows");
        assert_eq!(a.domains, b.domains, "{tag}: relay domains");
        assert_eq!(a.segments, b.segments, "{tag}: segment checks");
        let bits = |m: &[Vec<f64>]| -> Vec<Vec<u64>> {
            m.iter()
                .map(|row| row.iter().map(|d| d.to_bits()).collect())
                .collect()
        };
        assert_eq!(
            bits(a.fiber_dist()),
            bits(b.fiber_dist()),
            "{tag}: distances"
        );
        for u in 0..a.n {
            for v in 0..a.n {
                let route = |pc: &PlantCache| {
                    pc.routes()
                        .route(u, v)
                        .map(|r| (r.fibers.to_vec(), r.sites.to_vec(), r.length_km.to_bits()))
                };
                assert_eq!(route(a), route(b), "{tag}: route {u}->{v}");
            }
        }
    }

    #[test]
    fn precompute_key_tracks_what_the_precompute_reads() {
        let mut rng = StdRng::seed_from_u64(0x5EED_CAFE);
        for case in 0..40 {
            let spec = Spec::random(&mut rng);
            let base = spec.key();
            assert_eq!(base, spec.key(), "case {case}: deterministic");

            // Amplifier degradation and the wavelength count: the same
            // precompute, table for table.
            let mut capped = spec.clone();
            for fiber in capped.fibers.iter_mut() {
                if rng.random_range(0..2u32) == 0 {
                    fiber.3 = Some(rng.random_range(1..80u32));
                }
            }
            capped.params.wavelengths_per_fiber = 40;
            let tag = format!("case {case}");
            assert_same_precompute(&built(&spec.plant()), &built(&capped.plant()), &tag);

            let mut renamed = spec.clone();
            renamed.sites[0].0 = "ELSEWHERE".into();
            let mut ported = spec.clone();
            ported.sites[1].1 += 3;
            for (what, other) in [("cap", &capped), ("name", &renamed), ("ports", &ported)] {
                assert_eq!(other.key(), base, "case {case}: {what} moved the key");
            }

            let mut cut = spec.clone();
            cut.fibers.remove(rng.random_range(0..spec.fibers.len()));
            // Site down: no ports, no regenerators, its fibers gone.
            let mut down = spec.clone();
            let s = spec.fibers[0].0;
            down.sites[s].1 = 0;
            down.sites[s].2 = 0;
            down.fibers.retain(|&(a, b, _, _)| a != s && b != s);
            let mut regens = spec.clone();
            regens.sites[2].2 += 1;
            let mut longer = spec.clone();
            longer.fibers[0].2 *= 1.5;
            let mut reach = spec.clone();
            reach.params.optical_reach_km += 1.0;
            for (what, other) in [
                ("cut", &cut),
                ("site down", &down),
                ("regenerators", &regens),
                ("length", &longer),
                ("reach", &reach),
            ] {
                assert_ne!(other.key(), base, "case {case}: {what} left the key");
            }
        }
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
        // A degradation the precompute reads (a cut) flushes it; an
        // amplifier degradation, which it does not read, keeps it.
        let mut p = plant();
        let mut cache = EnergyCache::new();
        let first = cache.precompute(&p);
        let bits =
            |m: &[Vec<f64>]| -> Vec<u64> { m.iter().flatten().map(|d| d.to_bits()).collect() };
        assert_eq!(bits(first.fiber_dist()), bits(&p.fiber_distance_matrix()));

        let again = cache.precompute(&p);
        assert_eq!(cache.stats.flushes, 0, "same plant keeps the precompute");
        assert!(Arc::ptr_eq(&first, &again));

        p.set_fiber_wavelength_cap(2, Some(1));
        let capped = cache.precompute(&p);
        assert_eq!(cache.stats.flushes, 0, "amp degradation keeps it");
        assert!(Arc::ptr_eq(&first, &capped));

        let mut cut = FiberPlant::new(p.params().clone());
        for s in p.sites() {
            cut.add_site(&s.name, s.router_ports, s.regenerators);
        }
        for f in &p.fibers()[1..] {
            cut.add_fiber(f.a, f.b, f.length_km);
        }
        let rebuilt = cache.precompute(&cut);
        assert_eq!(cache.stats.flushes, 1, "a cut flushes");
        assert!(!Arc::ptr_eq(&first, &rebuilt), "precompute was rebuilt");
        assert_eq!(
            bits(rebuilt.fiber_dist()),
            bits(&cut.fiber_distance_matrix())
        );
    }

    #[test]
    fn one_pass_matrix_is_all_pairs_dijkstra_on_the_networks_and_their_fault_views() {
        let bits =
            |m: &[Vec<f64>]| -> Vec<u64> { m.iter().flatten().map(|d| d.to_bits()).collect() };
        let assert_one_pass = |p: &FiberPlant, tag: &str| {
            let pc = PlantCache::new(p);
            let want = owan_graph::dijkstra::all_pairs_distances(p.fiber_graph());
            assert_eq!(bits(pc.fiber_dist()), bits(&want), "{tag}");
            assert_same_precompute(&pc, &PlantCache::build(p, &want), tag);
        };
        for (name, p) in [
            ("internet2 testbed", owan_topo::internet2_testbed().plant),
            ("internet2 wan", owan_topo::internet2_wan().plant),
            ("isp_backbone(7)", owan_topo::isp_backbone(7).plant),
            ("inter_dc(7)", owan_topo::inter_dc(7).plant),
        ] {
            assert_one_pass(&p, name);
            // Every single-fiber cut, and every fiber amplifier-degraded.
            for cut in 0..p.fiber_count() {
                let mut view = FiberPlant::new(p.params().clone());
                for s in p.sites() {
                    view.add_site(&s.name, s.router_ports, s.regenerators);
                }
                for (f, fiber) in p.fibers().iter().enumerate() {
                    if f != cut {
                        view.add_fiber(fiber.a, fiber.b, fiber.length_km);
                    }
                }
                assert_one_pass(&view, &format!("{name}, fiber {cut} cut"));
            }
            let mut degraded = p.clone();
            for f in 0..p.fiber_count() {
                degraded.set_fiber_wavelength_cap(f, Some(1 + f as u32 % 7));
            }
            assert_one_pass(&degraded, &format!("{name}, amplifiers degraded"));
        }
    }

    #[test]
    fn route_table_follows_the_precompute_key() {
        // Parallel fibers 0-1 and a fiberless site: the table the cache
        // hands to provisioning must equal the plant's own routes pair
        // for pair, survive an amplifier degradation and its repair, and
        // be rebuilt when a cut moves the key.
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
                        .map(|r| (r.fibers.to_vec(), r.sites.to_vec(), r.length_km));
                    assert_eq!(got, want, "{a}->{b}");
                }
            }
        };
        let mut cache = EnergyCache::new();
        cache.begin_run(&p);
        let first = cache.plant_precompute(&p, &p.fiber_distance_matrix());
        same_routes(&first, &p);
        assert_eq!(first.routes().route(0, 1).unwrap().fibers, [4]);
        assert!(first.routes().route(0, 4).is_none());

        cache.begin_run(&p);
        let again = cache.plant_precompute(&p, &p.fiber_distance_matrix());
        assert!(Arc::ptr_eq(&first, &again), "same plant keeps the table");

        // Amp degradation and its repair leave the key alone: kept.
        for cap in [Some(1), None] {
            p.set_fiber_wavelength_cap(4, cap);
            cache.begin_run(&p);
            let kept = cache.plant_precompute(&p, &p.fiber_distance_matrix());
            assert!(Arc::ptr_eq(&first, &kept), "cap {cap:?}");
            same_routes(&kept, &p);
        }
        assert_eq!(cache.stats.flushes, 0);

        // A cut (the plant loses the short parallel fiber) changes routes,
        // and the table with them.
        let mut cut = plant();
        cut.add_site("LONE", 4, 0);
        cache.begin_run(&cut);
        assert_eq!(cache.stats.flushes, 1, "a cut flushes");
        let after_cut = cache.plant_precompute(&cut, &cut.fiber_distance_matrix());
        assert_ne!(after_cut.key(), first.key());
        same_routes(&after_cut, &cut);
        assert_eq!(after_cut.routes().route(0, 1).unwrap().fibers, [0]);
    }
}
