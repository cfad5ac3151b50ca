//! The annealing fast path's state: the plant-scoped precompute, the
//! kernels' scratch buffers and the run-scoped outcome memo.
//!
//! Every annealing iteration evaluates `ComputeEnergy` (Algorithm 3) on a
//! candidate topology, and the naive evaluation rebuilds a
//! [`RegenGraph`](crate::regen::RegenGraph) (Dijkstra + Yen) for *every*
//! desired link — even though the plant is fixed for the whole slot and the
//! Metropolis walk revisits states. The [`EnergyCache`] holds what the fast
//! evaluation keeps between those calls:
//!
//! 1. **[`PlantCache`]** — everything about circuit construction that
//!    depends on the plant alone: the reach rows the resumable relay search
//!    ([`RelaySearch`](crate::regen::RelaySearch)) runs on, the route table
//!    provisioning and the probe sets read fibers from, and the per-pair
//!    relay domains the delta rebuild's dirty-set screen compares
//!    free-regenerator vectors on. Relay candidates themselves are *not*
//!    cached: a search draws them one at a time, and nearly every attempt
//!    lights the first.
//! 2. **Scratch buffers** of the two allocation-free kernels an evaluation
//!    runs: the relay search's and the rate pass's.
//! 3. **Outcome memo** — full [`EnergyOutcome`]s keyed by the desired
//!    topology (revisited states cost a lookup + `Arc` clone).
//!
//! Invalidation: the [`PlantCache`] is valid as long as the plant content
//! is unchanged; [`EnergyCache::begin_run`] fingerprints the plant (sites,
//! ports, regenerators, fibers, lengths, usable wavelengths) and drops it
//! when the fingerprint moves — e.g. when a chaos fault degrades an
//! amplifier and shrinks a fiber's usable band. The memo is only valid for
//! one evaluation context (one transfer set, one slot length):
//! [`EnergyCache::end_run`] releases it and `begin_run` clears whatever a
//! run left behind.

use crate::energy::EnergyOutcome;
use crate::rates::RateScratch;
use crate::regen::{ReachRows, RelayScratch};
use crate::topology::Topology;
use owan_optical::{FiberPlant, RouteTable, SiteId};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Cap on memoized full outcomes per run (an outcome holds an optical
/// state; the cap bounds memory on long runs). Inserts stop at the cap —
/// deterministically, since the insert order is the search order.
const OUTCOME_CAP: usize = 4096;

/// Cap on the capacity-miss overflow key set (topology hashes remembered
/// after the outcome memo fills, so repeats attribute to `capacity`).
const OVERFLOW_CAP: usize = 4 * OUTCOME_CAP;

/// A small fiber-id bitset: the probe sets the circuit builders record and
/// the dirty sets of delta rebuilds.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FiberSet {
    words: Vec<u64>,
}

/// The positions of the set bits of `bits`, lowest first, offset by
/// `64 * word`.
fn set_bits(word: usize, mut bits: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (bits != 0).then(|| {
            let b = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            word * 64 + b
        })
    })
}

impl FiberSet {
    /// An empty set over `n_fibers` fiber ids.
    pub fn new(n_fibers: usize) -> Self {
        FiberSet {
            words: vec![0; n_fibers.div_ceil(64)],
        }
    }

    /// Inserts fiber `f`.
    pub fn insert(&mut self, f: usize) {
        self.words[f / 64] |= 1 << (f % 64);
    }

    /// True if the sets share any fiber.
    pub fn intersects(&self, other: &FiberSet) -> bool {
        self.words.iter().zip(&other.words).any(|(a, b)| a & b != 0)
    }

    /// Adds every fiber of `other` to `self`.
    pub fn union_with(&mut self, other: &FiberSet) {
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// Iterates the fiber ids in the set, in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words
            .iter()
            .enumerate()
            .flat_map(|(w, &bits)| set_bits(w, bits))
    }

    /// Iterates the fiber ids present in *both* sets, in increasing order.
    pub fn iter_common<'a>(&'a self, other: &'a FiberSet) -> impl Iterator<Item = usize> + 'a {
        self.words
            .iter()
            .zip(&other.words)
            .enumerate()
            .flat_map(|(w, (&a, &b))| set_bits(w, a & b))
    }
}

/// Attributed cause of an evaluation that had to run Algorithm 3: the
/// `anneal.cache_miss.<reason>` counters, which partition
/// `anneal.cache_miss` exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum MissReason {
    /// No cache attached at all (the naive reference path).
    Uncached,
    /// First sight: the topology was never evaluated this run.
    Cold,
    /// The outcome was computed before but the memo's capacity cap
    /// refused to store it.
    Capacity,
    // The five variants below named why the relay-candidate cache missed.
    // That cache is gone and nothing produces them; they, the three
    // `relay_*` fields of [`EnergyCacheStats`] and their
    // [`CoreTelemetry`](crate::telemetry::CoreTelemetry) counters exist
    // only until a benchmark-only PR drops the `benchmark/src/layers.rs`
    // rows that read them (`core.cache_relay_hit_rate`, five
    // `core.cache_miss_*`).
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

    /// The causes an outcome-memo miss attributes to, in the index order
    /// of [`EnergyCacheStats::miss_by_reason`].
    pub const MEMO: [MissReason; 2] = [MissReason::Cold, MissReason::Capacity];
}

/// Cache effectiveness counters, exposed for tests and the bench pipeline.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EnergyCacheStats {
    /// Full-outcome memo hits (an evaluation answered without Algorithm 3).
    pub outcome_hits: u64,
    /// Full-outcome memo misses.
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
    /// Full circuit rebuilds (initial evaluations and fallbacks).
    pub full_builds: u64,
    /// Plant-fingerprint flushes of the plant-scoped precompute.
    pub flushes: u64,
    /// Outcome-memo misses by attributed cause, indexed as
    /// [`MissReason::MEMO`]; the entries sum to `outcome_misses`.
    pub miss_by_reason: [u64; 2],
    /// Always zero: see the note in [`MissReason`].
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
        self.outcome_hits += other.outcome_hits;
        self.outcome_misses += other.outcome_misses;
        self.delta_builds += other.delta_builds;
        self.delta_fallbacks += other.delta_fallbacks;
        self.delta_pairs_reused += other.delta_pairs_reused;
        self.delta_pairs_rebuilt += other.delta_pairs_rebuilt;
        self.full_builds += other.full_builds;
        self.flushes += other.flushes;
        for (a, b) in self.miss_by_reason.iter_mut().zip(&other.miss_by_reason) {
            *a += b;
        }
    }

    pub(crate) fn count_eval_miss(&mut self, reason: MissReason) {
        let idx = MissReason::MEMO
            .iter()
            .position(|&r| r == reason)
            .expect("an outcome-memo miss is cold or capacity");
        self.miss_by_reason[idx] += 1;
    }

    /// Outcome-memo misses by attributed cause as `(slug, count)` pairs.
    pub fn miss_reasons(&self) -> [(&'static str, u64); 2] {
        std::array::from_fn(|i| (MissReason::MEMO[i].name(), self.miss_by_reason[i]))
    }

    /// The largest attributed evaluation-miss cause, if any miss was
    /// recorded (ties resolve to the later of [`MissReason::MEMO`]).
    pub fn dominant_miss_cause(&self) -> Option<(&'static str, u64)> {
        self.miss_reasons()
            .into_iter()
            .filter(|&(_, n)| n > 0)
            .max_by_key(|&(_, n)| n)
    }

    /// Renders the per-run cache breakdown: memo hit/miss totals, circuit
    /// builds by kind, misses split by attributed cause, and the dominant
    /// cause named on the last line.
    pub fn format_breakdown(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let pct = |part: u64, whole: u64| {
            if whole == 0 {
                0.0
            } else {
                100.0 * part as f64 / whole as f64
            }
        };
        let evals = self.outcome_hits + self.outcome_misses;
        let _ = writeln!(
            out,
            "outcome memo   {:>10} hits {:>10} misses ({:.1}% hit)",
            self.outcome_hits,
            self.outcome_misses,
            pct(self.outcome_hits, evals)
        );
        let _ = writeln!(
            out,
            "circuit builds {:>10} delta {:>10} full ({} fallbacks)",
            self.delta_builds, self.full_builds, self.delta_fallbacks
        );
        let _ = writeln!(
            out,
            "delta pairs    {:>10} reused {:>8} rebuilt",
            self.delta_pairs_reused, self.delta_pairs_rebuilt
        );
        let _ = writeln!(out, "eval misses by cause (sum = outcome misses):");
        for (slug, n) in self.miss_reasons() {
            let _ = writeln!(
                out,
                "  {:<24} {:>10} ({:.1}%)",
                slug,
                n,
                pct(n, self.outcome_misses)
            );
        }
        match self.dominant_miss_cause() {
            Some((slug, n)) => {
                let _ = writeln!(
                    out,
                    "dominant miss cause: {slug} ({n} of {} misses)",
                    self.outcome_misses
                );
            }
            None => {
                let _ = writeln!(out, "dominant miss cause: none (no misses recorded)");
            }
        }
        out
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
///   exactly the criterion for `s` to appear on *some* relay path under
///   *some* free-regenerator vector (`free ≤ total`, so reachability over
///   equipped sites over-covers every dynamic one). A site outside the
///   domain is never a node the pair's Dijkstra/Yen run can pop or relax
///   through on a returned path, so its free count cannot influence the
///   output: two vectors with equal domain projections yield
///   bit-identical draws from a relay search — the theorem the delta
///   rebuild's dirty-set screen rests on;
/// - the **route table** ([`RouteTable`]): the shortest fiber route of
///   every ordered site pair, which the cached and delta builders hand to
///   provisioning (no Dijkstra per segment) and read probe fibers from.
///
/// Invalidation piggybacks on the plant fingerprint: a degradation that
/// moves the fingerprint (e.g. an amp fault shrinking a fiber's usable
/// band) drops the `Arc` and the next run rebuilds.
#[derive(Debug)]
pub struct PlantCache {
    sig: u64,
    n: usize,
    /// Relay domain per unordered pair, indexed `min * n + max`.
    domains: Vec<Vec<SiteId>>,
    reach: ReachRows,
    routes: RouteTable,
}

impl PlantCache {
    /// Builds the precompute: the reach rows; their closure over
    /// regenerator-equipped pivots (a boolean Floyd–Warshall on bitset
    /// rows, `O(V^2)` row unions) with the per-pair domains read off it;
    /// and one fiber-graph Dijkstra per site for the route table.
    pub fn build(plant: &FiberPlant, fiber_dist: &[Vec<f64>]) -> Self {
        let n = plant.site_count();
        let reach = ReachRows::build(plant, fiber_dist);
        let equipped = |s: SiteId| plant.site(s).regenerators > 0;
        // `through[x]`: the sites a path from `x` gets to with every
        // interior site equipped.
        let mut through: Vec<Vec<u64>> = (0..n).map(|x| reach.row(x).to_vec()).collect();
        let has = |row: &[u64], s: SiteId| row[s / 64] >> (s % 64) & 1 == 1;
        for k in (0..n).filter(|&k| equipped(k)) {
            let via = through[k].clone();
            for row in through.iter_mut().filter(|row| has(row, k)) {
                for (a, b) in row.iter_mut().zip(&via) {
                    *a |= b;
                }
            }
        }
        let mut domains = vec![Vec::new(); n * n];
        for u in 0..n {
            for v in u + 1..n {
                domains[u * n + v] = (0..n)
                    .filter(|&s| {
                        s != u
                            && s != v
                            && equipped(s)
                            && has(&through[u], s)
                            && has(&through[s], v)
                    })
                    .collect();
            }
        }
        PlantCache {
            sig: plant_fingerprint(plant),
            n,
            domains,
            reach,
            routes: RouteTable::build(plant),
        }
    }

    /// Fingerprint of the plant this precompute was built from.
    pub fn fingerprint(&self) -> u64 {
        self.sig
    }

    /// The relay domain of pair `(u, v)`, in increasing site order.
    pub fn domain(&self, u: SiteId, v: SiteId) -> &[SiteId] {
        let (a, b) = if u <= v { (u, v) } else { (v, u) };
        &self.domains[a * self.n + b]
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

/// What the fast evaluation keeps between calls. See the module docs for
/// the parts and their invalidation rules.
///
/// Not shared between threads: each parallel annealing chain owns its own
/// cache, which keeps chains bit-for-bit independent of scheduling.
#[derive(Debug, Clone, Default)]
pub struct EnergyCache {
    /// Fingerprint of the plant the current run evaluates.
    plant_sig: Option<u64>,
    /// Buffers and between-draw state of the relay search.
    pub(crate) relay_scratch: RelayScratch,
    /// Buffers of the rate pass.
    pub(crate) rate_scratch: RateScratch,
    /// Plant-scoped precompute (relay domains, reach rows, route table),
    /// `Arc`-shared across chains when a parallel run installs one.
    plant: Option<Arc<PlantCache>>,
    /// A shared precompute offered by the enclosing parallel run via
    /// [`Self::install_plant_cache`]; adopted on first use when its
    /// fingerprint matches, so sibling chains never rebuild it.
    shared_plant: Option<Arc<PlantCache>>,
    /// Run-scoped: full outcomes keyed by desired topology. `Arc`-shared
    /// with the annealing loop's current/best snapshots, so a hit (and a
    /// store) is a pointer clone, not a deep outcome copy.
    outcomes: HashMap<Topology, Arc<EnergyOutcome>>,
    /// Run-scoped: desired topologies whose outcome the memo *refused* at
    /// [`OUTCOME_CAP`] — a re-evaluation of one of these is a capacity
    /// miss, not a cold one. Itself capped (see [`OVERFLOW_CAP`]); beyond
    /// that the attribution degrades to `cold`, never miscounts.
    overflow: HashSet<Topology>,
    /// Effectiveness counters.
    pub stats: EnergyCacheStats,
}

impl EnergyCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Prepares the cache for one evaluation run (one annealing call):
    /// clears the run-scoped memo, and drops the plant-scoped precompute
    /// if the plant content changed since it was built. `fiber_dist`
    /// passed to the other methods must always be
    /// `plant.fiber_distance_matrix()`.
    pub fn begin_run(&mut self, plant: &FiberPlant) {
        self.end_run();
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

    /// Releases the run-scoped memo: its outcomes answer for one transfer
    /// set only, and dropping the memo's handles leaves the run's winner
    /// uniquely owned by whoever still holds it.
    pub fn end_run(&mut self) {
        self.outcomes.clear();
        self.overflow.clear();
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

    /// Looks up a memoized full outcome for a desired topology. Returns a
    /// shared handle: a hit costs one `Arc` clone, not a deep copy.
    pub fn lookup_outcome(&mut self, desired: &Topology) -> Option<Arc<EnergyOutcome>> {
        let hit = self.outcomes.get(desired).cloned();
        match hit {
            Some(_) => self.stats.outcome_hits += 1,
            None => self.stats.outcome_misses += 1,
        }
        hit
    }

    /// Memoizes a full outcome. Beyond the cap the outcome is dropped and
    /// the key remembered in the overflow set, so re-evaluations attribute
    /// to `capacity` rather than `cold`.
    pub fn store_outcome(&mut self, desired: Topology, outcome: Arc<EnergyOutcome>) {
        if self.outcomes.len() < OUTCOME_CAP {
            self.outcomes.insert(desired, outcome);
        } else if self.overflow.len() < OVERFLOW_CAP {
            self.overflow.insert(desired);
        }
    }

    /// True when `desired` was evaluated this run but the outcome memo
    /// refused to store it (capacity cap).
    pub(crate) fn outcome_overflowed(&self, desired: &Topology) -> bool {
        self.overflow.contains(desired)
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
    fn fiberset_basics() {
        let mut a = FiberSet::new(130);
        let mut b = FiberSet::new(130);
        a.insert(0);
        a.insert(129);
        b.insert(64);
        assert!(!a.intersects(&b));
        b.insert(129);
        assert!(a.intersects(&b));
        let mut c = FiberSet::new(130);
        c.union_with(&a);
        assert!(c.intersects(&a));
    }

    #[test]
    fn fiberset_iterates_set_bits_in_increasing_order() {
        let ids = [0, 1, 63, 64, 65, 127, 128, 191];
        let mut a = FiberSet::new(192);
        for &f in &ids {
            a.insert(f);
        }
        assert_eq!(a.iter().collect::<Vec<_>>(), ids);
        let mut b = FiberSet::new(192);
        for f in [1, 2, 63, 65, 66, 128, 190] {
            b.insert(f);
        }
        assert_eq!(a.iter_common(&b).collect::<Vec<_>>(), [1, 63, 65, 128]);
        assert_eq!(b.iter_common(&a).collect::<Vec<_>>(), [1, 63, 65, 128]);
        assert_eq!(FiberSet::new(192).iter().count(), 0);
        assert_eq!(a.iter_common(&FiberSet::new(192)).count(), 0);
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
                assert_eq!(pc.domain(u, v), want, "({u}, {v})");
                assert_eq!(pc.domain(v, u), want, "({v}, {u})");
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
