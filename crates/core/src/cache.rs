//! The annealing fast path: plant-scoped relay caches and run-scoped
//! energy memoization.
//!
//! Every annealing iteration evaluates `ComputeEnergy` (Algorithm 3) on a
//! candidate topology, and the naive evaluation rebuilds a [`RegenGraph`]
//! (Dijkstra + Yen) for *every* desired link — even though the plant is
//! fixed for the whole slot and the Metropolis walk revisits states. The
//! [`EnergyCache`] removes that redundancy in two layers:
//!
//! 1. **Relay-candidate cache** — candidate relay paths for a link
//!    `(u, v)` depend only on the plant, the fiber-distance matrix, and
//!    the free-regenerator vector — but not on the *whole* vector: only
//!    the sites in the pair's **relay domain** (regenerator-equipped and
//!    reachable from both endpoints through equipped interiors, see
//!    [`PlantCache`]) can influence the Yen output. Entries are therefore
//!    keyed on `(u, v)` plus the **constraint class** of the vector — a
//!    hash of the domain projection — and a class hit is verified by
//!    comparing the projections site-for-site (a hash collision falls
//!    through). When no class matches, the *relaxed match*
//!    ([`relaxed_entry_reject`]) may still prove an existing entry's
//!    differences irrelevant: every site whose free count moved is
//!    screened against a static lower bound on any relay path through it,
//!    adjusted candidate costs provably preserve their order (exact ties
//!    are only accepted where Yen's own tie-breaks are forced), and the
//!    stored `(k+1)`-th cost bounds every path outside the candidate set.
//!    The relaxed scan looks at the `RELAXED_SCAN_WINDOW` newest entries
//!    only: whichever entry it accepts, and whatever is computed after it
//!    refuses, the candidates served are a fresh Yen run's, so the window
//!    moves hit counts and nothing else. A miss runs the dense kernel
//!    [`relay_k_shortest`] over the plant's reach rows — no graph is
//!    built — and reads probe fibers off the plant's route table.
//! 2. **Outcome memo** — full [`EnergyOutcome`]s keyed by the canonical
//!    topology hash (revisited states cost a lookup + clone).
//!
//! It also holds the scratch buffers of the two allocation-free kernels an
//! evaluation runs: the relay search's and the rate pass's.
//!
//! Invalidation: layer 1 and the [`PlantCache`] under it (relay domains,
//! reach rows, route table) are valid as long as the plant content is
//! unchanged; [`EnergyCache::begin_run`] fingerprints the plant (sites,
//! ports, regenerators, fibers, lengths, usable wavelengths) and flushes
//! them when the fingerprint moves — e.g. when a chaos fault degrades an
//! amplifier and shrinks a fiber's usable band. Layer 2 is only valid for
//! one evaluation context (one transfer set, one slot length) and is
//! cleared on every `begin_run`.

use crate::circuits::CircuitBuildConfig;
use crate::energy::EnergyOutcome;
use crate::rates::RateScratch;
use crate::regen::{relay_k_shortest, ReachRows, RegenGraph, RelayScratch};
use crate::telemetry::CoreTelemetry;
use crate::topology::Topology;
use owan_optical::{FiberPlant, RouteTable, SiteId};
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;

/// Cap on memoized full outcomes per run (an outcome holds an optical
/// state; the cap bounds memory on long runs). Inserts stop at the cap —
/// deterministically, since the insert order is the search order.
const OUTCOME_CAP: usize = 4096;

/// Cap on the capacity-miss overflow key set (topology hashes remembered
/// after the outcome memo fills, so repeats attribute to `capacity`).
const OVERFLOW_CAP: usize = 4 * OUTCOME_CAP;

/// Cap on relay entries per endpoint pair (distinct regenerator vectors
/// seen). On regenerator-rich plants each pair sees one vector per
/// distinct upstream-consumption prefix, so the cap must hold a full
/// annealing run's worth; on overflow the *oldest* entry is evicted
/// (deterministic: insertion order is the search order).
const RELAY_STATES_PER_PAIR: usize = 64;

/// Entries the relaxed scan examines per lookup, newest first. The entry
/// that matches sits a few positions from the newest (the walk's vectors
/// drift), so a short window keeps nearly every relaxed hit at a fraction
/// of a full scan's cost; older entries still serve exact class hits
/// through the alias index. Chosen by measurement on the three Owan
/// benchmark workloads (EXPERIMENTS.md, fast-path section).
const RELAXED_SCAN_WINDOW: usize = 8;

/// A small fiber-id bitset: the probe sets of relay entries and the dirty
/// sets of delta rebuilds.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FiberSet {
    words: Vec<u64>,
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
        self.words.iter().enumerate().flat_map(|(w, &bits)| {
            (0..64).filter_map(move |b| {
                if bits & (1 << b) != 0 {
                    Some(w * 64 + b)
                } else {
                    None
                }
            })
        })
    }

    /// Iterates the fiber ids present in *both* sets, in increasing order.
    pub fn iter_common<'a>(&'a self, other: &'a FiberSet) -> impl Iterator<Item = usize> + 'a {
        self.words
            .iter()
            .zip(&other.words)
            .enumerate()
            .flat_map(|(w, (&a, &b))| {
                let bits = a & b;
                (0..64).filter_map(move |bit| {
                    if bits & (1 << bit) != 0 {
                        Some(w * 64 + bit)
                    } else {
                        None
                    }
                })
            })
    }
}

/// Attributed cause of a cache miss. Evaluation-level misses (the
/// `anneal.cache_miss.<reason>` counters, which partition
/// `anneal.cache_miss` exactly) use every variant; relay-layer misses use
/// the subset below [`MissReason::Flush`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum MissReason {
    /// No cache attached at all (the naive reference path).
    Uncached,
    /// First sight: the key was never computed under this run/plant.
    Cold,
    /// The outcome was computed before but the memo's capacity cap
    /// refused to store it.
    Capacity,
    /// The relay entry existed but was lost to a plant-fingerprint flush.
    Flush,
    /// The constraint-class machinery failed to prove equivalence: the
    /// class hash matched an entry whose domain projection differs (a
    /// genuine hash collision), or the relaxed match failed order
    /// preservation among adjusted candidate costs.
    ClassCollision,
    /// A site released from zero regenerators met a candidate list
    /// shorter than `relay_k` — Yen would append its paths regardless of
    /// cost.
    PartialCandidateList,
    /// The top-k boundary guard failed: an outside path could undercut
    /// or tie-displace the adjusted last candidate.
    BoundaryGuard,
    /// A membership crossing failed its static screen (a vanished site
    /// relayed a candidate, or a crossing site's static bound did not
    /// clear the boundary).
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

    /// The relay-layer reasons, in attribution-priority order (ties in
    /// per-evaluation dominance resolve to the earliest).
    pub const RELAY: [MissReason; 6] = [
        MissReason::Cold,
        MissReason::Flush,
        MissReason::ClassCollision,
        MissReason::PartialCandidateList,
        MissReason::BoundaryGuard,
        MissReason::MembershipCrossing,
    ];
}

/// Cache effectiveness counters, exposed for tests and the bench pipeline.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EnergyCacheStats {
    /// Full-outcome memo hits (an evaluation answered without Algorithm 3).
    pub outcome_hits: u64,
    /// Full-outcome memo misses.
    pub outcome_misses: u64,
    /// Relay-candidate cache hits (a k-shortest relay search avoided).
    pub relay_hits: u64,
    /// Relay-candidate hits through the relaxed vector match: the queried
    /// vector differs from the stored one only at sites provably
    /// irrelevant to the pair's top-k relay paths.
    pub relay_relaxed_hits: u64,
    /// Relay-candidate cache misses.
    pub relay_misses: u64,
    /// Incremental (delta) circuit rebuilds performed.
    pub delta_builds: u64,
    /// Delta rebuilds refused outright (the desired topologies differ by
    /// more than the neighbor-move bound; a full rebuild follows).
    pub delta_fallbacks: u64,
    /// Pairs whose previous circuits were reused verbatim by delta
    /// rebuilds (no shortest-path work, no provisioning).
    pub delta_pairs_reused: u64,
    /// Pairs re-provisioned from scratch inside delta rebuilds (the
    /// skip test found a regenerator or occupancy divergence).
    pub delta_pairs_rebuilt: u64,
    /// The subset of `delta_pairs_reused` cleared by the dirty-set screen
    /// alone — two bitset intersections against the recorded probe union,
    /// with no relay-cache lookups and no attempt walk.
    pub delta_pairs_screened: u64,
    /// Full circuit rebuilds (initial evaluations and fallbacks).
    pub full_builds: u64,
    /// Plant-fingerprint flushes of the relay layer.
    pub flushes: u64,
    /// Relay misses by cause, indexed by position in
    /// [`MissReason::RELAY`]; the six entries sum to `relay_misses`.
    pub relay_miss_by_reason: [u64; 6],
    /// Outcome-memo misses by attributed cause, same indexing plus
    /// [`MissReason::Capacity`] in the final slot; the seven entries sum
    /// to `outcome_misses`.
    pub miss_by_reason: [u64; 7],
}

impl EnergyCacheStats {
    /// Field-wise sum, for aggregating per-chain caches into one report.
    pub fn merge(&mut self, other: &EnergyCacheStats) {
        self.outcome_hits += other.outcome_hits;
        self.outcome_misses += other.outcome_misses;
        self.relay_hits += other.relay_hits;
        self.relay_relaxed_hits += other.relay_relaxed_hits;
        self.relay_misses += other.relay_misses;
        self.delta_builds += other.delta_builds;
        self.delta_fallbacks += other.delta_fallbacks;
        self.delta_pairs_reused += other.delta_pairs_reused;
        self.delta_pairs_rebuilt += other.delta_pairs_rebuilt;
        self.delta_pairs_screened += other.delta_pairs_screened;
        self.full_builds += other.full_builds;
        self.flushes += other.flushes;
        for (a, b) in self
            .relay_miss_by_reason
            .iter_mut()
            .zip(&other.relay_miss_by_reason)
        {
            *a += b;
        }
        for (a, b) in self.miss_by_reason.iter_mut().zip(&other.miss_by_reason) {
            *a += b;
        }
    }

    pub(crate) fn count_eval_miss(&mut self, reason: MissReason) {
        let idx = match reason {
            MissReason::Capacity => 6,
            r => MissReason::RELAY
                .iter()
                .position(|&x| x == r)
                .expect("evaluation misses never attribute to Uncached here"),
        };
        self.miss_by_reason[idx] += 1;
    }

    fn count_relay_miss(&mut self, reason: MissReason) {
        let idx = MissReason::RELAY
            .iter()
            .position(|&r| r == reason)
            .expect("relay misses use relay reasons");
        self.relay_miss_by_reason[idx] += 1;
    }

    /// Relay misses by cause as `(slug, count)` pairs.
    pub fn relay_miss_reasons(&self) -> [(&'static str, u64); 6] {
        let mut out = [("", 0); 6];
        for (i, r) in MissReason::RELAY.iter().enumerate() {
            out[i] = (r.name(), self.relay_miss_by_reason[i]);
        }
        out
    }

    /// Outcome-memo misses by attributed cause as `(slug, count)` pairs.
    pub fn miss_reasons(&self) -> [(&'static str, u64); 7] {
        let mut out = [("", 0); 7];
        for (i, r) in MissReason::RELAY.iter().enumerate() {
            out[i] = (r.name(), self.miss_by_reason[i]);
        }
        out[6] = (MissReason::Capacity.name(), self.miss_by_reason[6]);
        out
    }

    /// The largest attributed evaluation-miss cause, if any miss was
    /// recorded (ties resolve to the attribution-priority order).
    pub fn dominant_miss_cause(&self) -> Option<(&'static str, u64)> {
        self.miss_reasons()
            .into_iter()
            .filter(|&(_, n)| n > 0)
            .max_by_key(|&(_, n)| n)
    }

    /// Renders the per-run cache breakdown: hit/miss totals for each
    /// layer, misses split by attributed cause, and the dominant cause
    /// named on the last line.
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
        let relay_lookups = self.relay_hits + self.relay_relaxed_hits + self.relay_misses;
        let _ = writeln!(
            out,
            "relay cache    {:>10} hits {:>10} relaxed {:>7} misses ({:.1}% hit)",
            self.relay_hits,
            self.relay_relaxed_hits,
            self.relay_misses,
            pct(self.relay_hits + self.relay_relaxed_hits, relay_lookups)
        );
        let _ = writeln!(
            out,
            "circuit builds {:>10} delta {:>10} full ({} fallbacks)",
            self.delta_builds, self.full_builds, self.delta_fallbacks
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
        let _ = writeln!(out, "relay misses by cause (sum = relay misses):");
        for (slug, n) in self.relay_miss_reasons() {
            let _ = writeln!(
                out,
                "  {:<24} {:>10} ({:.1}%)",
                slug,
                n,
                pct(n, self.relay_misses)
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
/// - the **static-interior Floyd–Warshall matrix** `sd`: `sd[x][y]` is a
///   lower bound on the summed relay weight strictly between `x` and `y`
///   on any relay path, valid under every free-regenerator vector (static
///   weights `1/total` under-estimate dynamic `1/free`) — the screen the
///   relaxed match rests on, formerly rebuilt per cache;
/// - the per-pair **relay domains**: for a pair `(u, v)`, the sites
///   `s ∉ {u, v}` with `total_regens[s] > 0` and `sd[u][s]`, `sd[s][v]`
///   both finite. Finite `sd[u][s]` means a reach-graph path from `u` to
///   `s` exists whose interior sites are all regenerator-equipped —
///   exactly the criterion for `s` to appear on *some* relay path under
///   *some* vector (`free ≤ total`, so static reachability over-covers
///   every dynamic one). A site outside the domain is never a node the
///   pair's Dijkstra/Yen run can pop or relax through on a returned path,
///   so its free count cannot influence the output: two vectors with
///   equal domain projections yield bit-identical candidate lists;
/// - the **reach rows** ([`ReachRows`]): which site pairs lie within
///   optical reach, the adjacency [`relay_k_shortest`] searches on a miss;
/// - the **route table** ([`RouteTable`]): the shortest fiber route of
///   every ordered site pair, which the cached and delta builders hand to
///   provisioning (no Dijkstra per segment) and misses read probe fibers
///   from.
///
/// Invalidation piggybacks on the plant fingerprint: a degradation that
/// moves the fingerprint (e.g. an amp fault shrinking a fiber's usable
/// band) drops the `Arc` and the next run rebuilds.
#[derive(Debug)]
pub struct PlantCache {
    sig: u64,
    n: usize,
    static_interior: Vec<Vec<f64>>,
    /// Relay domain per unordered pair, indexed `min * n + max` (the
    /// domain is symmetric in `u`, `v` because `sd` is).
    domains: Vec<Vec<SiteId>>,
    reach: ReachRows,
    routes: RouteTable,
}

impl PlantCache {
    /// Builds the precompute: one node-weighted Floyd–Warshall (`O(V^3)`)
    /// pivoting on regenerator-equipped sites with weight `1/total`, edges
    /// wherever the fiber distance is within optical reach, then the
    /// per-pair domains read off the matrix; plus the reach rows and one
    /// fiber-graph Dijkstra per site for the route table.
    pub fn build(plant: &FiberPlant, fiber_dist: &[Vec<f64>]) -> Self {
        let n = plant.site_count();
        let reach = plant.params().optical_reach_km;
        let mut d = vec![vec![f64::INFINITY; n]; n];
        for (x, row) in d.iter_mut().enumerate() {
            for (y, cell) in row.iter_mut().enumerate() {
                if x == y || fiber_dist[x][y] <= reach {
                    *cell = 0.0;
                }
            }
        }
        for (k, site) in plant.sites().iter().enumerate() {
            if site.regenerators == 0 {
                continue;
            }
            let w = 1.0 / site.regenerators as f64;
            for i in 0..n {
                if !d[i][k].is_finite() {
                    continue;
                }
                let dik = d[i][k] + w;
                #[allow(clippy::needless_range_loop)] // reads d[k][j], writes d[i][j]
                for j in 0..n {
                    let cand = dik + d[k][j];
                    if cand < d[i][j] {
                        d[i][j] = cand;
                    }
                }
            }
        }
        let mut domains = vec![Vec::new(); n * n];
        for u in 0..n {
            for v in u + 1..n {
                let dom: Vec<SiteId> = (0..n)
                    .filter(|&s| {
                        s != u
                            && s != v
                            && plant.site(s).regenerators > 0
                            && d[u][s].is_finite()
                            && d[s][v].is_finite()
                    })
                    .collect();
                domains[u * n + v] = dom;
            }
        }
        PlantCache {
            sig: plant_fingerprint(plant),
            n,
            static_interior: d,
            domains,
            reach: ReachRows::build(plant, fiber_dist),
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

    /// The static-interior distance matrix.
    pub fn static_interior(&self) -> &[Vec<f64>] {
        &self.static_interior
    }

    /// The plant's all-pairs shortest fiber routes.
    pub(crate) fn routes(&self) -> &RouteTable {
        &self.routes
    }
}

/// Constraint-class hash of a free-regenerator vector for one pair: an
/// FNV-style multiply-xor over the counts at the pair's relay-domain
/// sites, one step per site, in domain order. Two vectors hash equal
/// whenever their domain projections are equal; the converse is only
/// probabilistic, so class hits verify the projection site-for-site
/// before being trusted.
fn class_hash(domain: &[SiteId], regens_free: &[u32]) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    domain.iter().fold(FNV_OFFSET, |h, &s| {
        (h ^ regens_free[s] as u64).wrapping_mul(FNV_PRIME)
    })
}

/// One cached relay-candidate computation: the exact regenerator vector it
/// was computed under, the Yen output, and the *probe set* — every fiber
/// any of the candidates' window routes traverses. A provisioning attempt
/// that iterates this candidate list reads (and possibly writes) channel
/// occupancy only on probe-set fibers, which is what lets the delta
/// rebuild prove two links cannot observe each other's channels.
#[derive(Debug, Clone)]
struct RelayEntry {
    regens: Vec<u32>,
    candidates: Vec<Vec<SiteId>>,
    /// Yen cost of each candidate, aligned with `candidates`.
    costs: Vec<f64>,
    probe: FiberSet,
    /// Yen cost of the best path *not* in `candidates` (the `k+1`-th
    /// shortest, computed alongside), or `+inf` when the path set is
    /// exhausted. Every path outside `candidates` costs at least this
    /// much under the stored vector.
    next_cost: f64,
}

/// An entry in the constraint-class index: the entry it resolves to plus
/// the domain projection the proof was made under. The projection is the
/// *query's*, not the entry's — a relaxed match can prove an entry built
/// under a different projection still yields the query's Yen output, and
/// every later query with that same projection inherits the proof (equal
/// projections produce identical Yen runs, the class-key theorem). Without
/// the stored projection, verifying such an alias against the entry's own
/// vector would spuriously reject it on every revisit.
#[derive(Debug, Clone)]
struct ClassAlias {
    /// Sequence number (`base` + offset) of the resolved entry.
    seq: u64,
    /// The free-regenerator counts at the pair's domain sites, in domain
    /// order, that this class was proven for.
    proj: Vec<u32>,
}

/// Aliases kept per pair before the index is reset wholesale. Each alias
/// owns a domain-sized projection, so unbounded growth would leak on long
/// runs; re-proving an evicted alias is one relaxed scan.
const CLASS_ALIASES_PER_PAIR: usize = 4096;

/// The relay entries of one endpoint pair: a FIFO of at most
/// [`RELAY_STATES_PER_PAIR`] entries plus the constraint-class index over
/// them. Entries are addressed by *sequence number* (`base` + offset) so
/// FIFO eviction never invalidates index entries — a class mapping whose
/// sequence fell below `base` points at an evicted entry and is purged
/// lazily on lookup.
#[derive(Debug, Clone, Default)]
struct PairEntries {
    entries: VecDeque<RelayEntry>,
    /// Sequence number of `entries.front()`.
    base: u64,
    /// Constraint-class hash → proven resolution (latest proof wins).
    by_class: HashMap<u64, ClassAlias>,
}

impl PairEntries {
    /// Records that the class with hash `class` and projection `proj`
    /// resolves to the entry at `seq`.
    fn alias(&mut self, class: u64, seq: u64, proj: Vec<u32>) {
        if self.by_class.len() >= CLASS_ALIASES_PER_PAIR {
            self.by_class.clear();
        }
        self.by_class.insert(class, ClassAlias { seq, proj });
    }

    /// Pushes a fresh entry (evicting the oldest at the cap) and indexes
    /// it under `class` with projection `proj`; returns its offset in
    /// `entries`.
    fn push(&mut self, class: u64, proj: Vec<u32>, entry: RelayEntry) -> usize {
        if self.entries.len() >= RELAY_STATES_PER_PAIR {
            self.entries.pop_front();
            self.base += 1;
        }
        self.entries.push_back(entry);
        let seq = self.base + (self.entries.len() - 1) as u64;
        self.alias(class, seq, proj);
        self.entries.len() - 1
    }
}

/// Slack for every relaxed-match weight comparison: absorbs f64
/// summation-order error between adjusted costs, the static bound, and
/// Yen's own path sums. Comparisons are arranged so the slack only ever
/// makes the match *more* conservative.
const RELAX_EPS: f64 = 1e-9;

/// Reusable buffers of [`relaxed_entry_reject`], so a scan over a pair's
/// entries allocates nothing.
#[derive(Debug, Clone, Default)]
struct RelaxScratch {
    /// Member in both vectors, weight moved.
    changed: Vec<SiteId>,
    /// 0 regens → free (node appears).
    entered: Vec<SiteId>,
    /// free → 0 regens (node vanishes).
    left: Vec<SiteId>,
    adjusted: Vec<f64>,
    moved: Vec<bool>,
    exact: Vec<bool>,
}

/// Decides whether the entry, computed under its stored `relay_k` and
/// vector `v1`, provably yields the same Yen output (same paths, same
/// order) under the queried vector `v2`. A path's cost is the sum of its
/// relay weights (`1/free`), so each stored candidate's cost under `v2`
/// is its stored cost plus the weight deltas of changed sites it relays
/// through. The match accepts when:
///
/// - no site is released from zero free regenerators while the stored
///   candidate list is *shorter* than `relay_k` — a short list means Yen
///   exhausted the path set, so a fresh run returns every path it finds
///   and would append the released site's paths *regardless of cost*; no
///   cost screen below can rule that out;
/// - membership (`free > 0`) is unchanged at every changed site — the
///   node set, and hence the node indexing every deterministic tie-break
///   rests on, is then identical (the pair's own endpoints are skipped:
///   the regenerator graph excludes them and weighs them zero);
/// - the adjusted candidate costs preserve the stored order *strictly*
///   (`RELAX_EPS`-separated), or keep exact ties only between candidates
///   whose costs did not move at all (their cost-then-lexicographic
///   order is then decided exactly as before);
/// - no path outside the stored candidates can undercut the adjusted last
///   candidate: outside paths cost at least `next_cost` under `v1`, minus
///   at most the total weight drop of released sites — excluding sites
///   *screened* by the static interior bound `sd[u][s] + 1/free[s] +
///   sd[s][v]`, a vector-independent lower bound on any `u–v` path
///   through `s` that already clears the adjusted last cost.
///
/// Under these conditions every path cheaper than some candidate is
/// itself a candidate, strictly separated from the outside, so Yen
/// selects exactly the stored list in the stored order.
///
/// `None` accepts the entry; `Some(reason)` names which screen refused it
/// — the per-reason miss counters of the taxonomy are built from these
/// reject points.
fn relaxed_entry_reject(
    e: &RelayEntry,
    relay_k: usize,
    regens_free: &[u32],
    u: SiteId,
    v: SiteId,
    sd: &[Vec<f64>],
    scratch: &mut RelaxScratch,
) -> Option<MissReason> {
    let RelaxScratch {
        changed,
        entered,
        left,
        adjusted,
        moved,
        exact,
    } = scratch;
    changed.clear();
    entered.clear();
    left.clear();
    for (s, (&r1, &r2)) in e.regens.iter().zip(regens_free).enumerate() {
        if r1 == r2 || s == u || s == v {
            continue;
        }
        match (r1 > 0, r2 > 0) {
            (true, true) => changed.push(s),
            (false, true) => entered.push(s),
            (true, false) => left.push(s),
            (false, false) => unreachable!("r1 != r2"),
        }
    }
    if changed.is_empty() && entered.is_empty() && left.is_empty() {
        return None;
    }
    // A list shorter than `relay_k` means Yen exhausted the path set
    // (`next_cost` is infinite): a fresh run under `v2` would *append*
    // every path through a released site no matter how much it costs, so
    // the screens below — which only guard the top-k boundary — cannot
    // apply. (This subsumes the empty-list case handled further down.)
    if !entered.is_empty() && e.candidates.len() < relay_k {
        return Some(MissReason::PartialCandidateList);
    }

    // Node indexing shifts when membership changes, but it stays monotone
    // in site id, so every *relative* index comparison — Dijkstra pop
    // order, Yen's pool lexicographic tie-break — is preserved across the
    // shift. Membership changes therefore reduce to path-set changes: a
    // site consumed to zero removes exactly the paths through it, and a
    // site released from zero adds them. Either is safe when the site
    // relays no candidate and the static bound keeps every path through it
    // strictly above the boundary — nothing within the top-k appears,
    // disappears, or changes a tie it participates in. (Strictly above
    // matters even for *removed* paths: Yen's tie selection is
    // pool-dependent, and a removed boundary-tied path can unhide an
    // equal-cost path behind its spur point.)
    for &s in left.iter() {
        if e.candidates.iter().any(|c| c[1..c.len() - 1].contains(&s)) {
            // A candidate path just became invalid.
            return Some(MissReason::MembershipCrossing);
        }
    }

    // Adjusted candidate costs under the queried vector. Three exactness
    // classes: an *unchanged* candidate keeps its stored cost, which is
    // bit-for-bit what a fresh run computes for it (the fresh run walks
    // the identical generation sequence over identical weights); a moved
    // *single-relay* candidate's cost is recomputed outright — one
    // division, no summation, so again bit-exact; a moved multi-relay
    // adjustment carries rounding error and is only trusted to
    // `RELAX_EPS`.
    let k = e.candidates.len();
    adjusted.clear();
    adjusted.extend_from_slice(&e.costs);
    moved.clear();
    moved.resize(k, false);
    exact.clear();
    exact.resize(k, false);
    for i in 0..k {
        let interior = &e.candidates[i][1..e.candidates[i].len() - 1];
        let mut d = 0.0;
        for &s in interior {
            if changed.binary_search(&s).is_ok() {
                d += 1.0 / regens_free[s] as f64 - 1.0 / e.regens[s] as f64;
            }
        }
        if d == 0.0 {
            exact[i] = true;
        } else {
            moved[i] = true;
            if interior.len() == 1 {
                adjusted[i] = 1.0 / regens_free[interior[0]] as f64;
                exact[i] = true;
            } else {
                adjusted[i] = e.costs[i] + d;
            }
        }
    }

    // Single-relay hub, if the candidate is one.
    let hub = |i: usize| -> Option<SiteId> {
        let c = &e.candidates[i];
        (c.len() == 3).then(|| c[1])
    };

    // Order preservation among the candidates: consecutive costs must stay
    // strictly separated, except that *exact* ties between single-relay
    // candidates are allowed in increasing hub-id order. Node indexing in
    // the regenerator graph is fixed by membership (unchanged) and
    // monotone in site id, so hub order is simultaneously the Dijkstra
    // pop-order tie-break and Yen's pool lexicographic tie-break: a
    // hub-ordered tied group is selected in exactly the stored order.
    for i in 1..k {
        if !moved[i - 1] && !moved[i] {
            continue;
        }
        if adjusted[i - 1] + RELAX_EPS < adjusted[i] {
            continue;
        }
        if exact[i - 1] && exact[i] {
            if adjusted[i - 1] < adjusted[i] {
                continue;
            }
            if adjusted[i - 1] == adjusted[i] {
                if let (Some(a), Some(b)) = (hub(i - 1), hub(i)) {
                    if a < b {
                        continue;
                    }
                }
            }
        }
        return Some(MissReason::ClassCollision);
    }

    // Boundary: can any path outside the stored candidates undercut (or
    // tie-displace) the adjusted last candidate?
    let Some(&last) = adjusted.last() else {
        // No relay path exists under the stored vector. Weight changes
        // cannot create one (connectivity depends only on membership), but
        // a released node can.
        return (!entered.is_empty()).then_some(MissReason::MembershipCrossing);
    };
    // Membership crossings must clear the boundary statically (the site
    // already relays no candidate: checked above for vanished nodes,
    // impossible for appearing ones).
    for &s in entered.iter() {
        if sd[u][s] + 1.0 / regens_free[s] as f64 + sd[s][v] <= last + RELAX_EPS {
            return Some(MissReason::MembershipCrossing);
        }
    }
    for &s in left.iter() {
        if sd[u][s] + 1.0 / e.regens[s] as f64 + sd[s][v] <= last + RELAX_EPS {
            return Some(MissReason::MembershipCrossing);
        }
    }
    let max_free = regens_free.iter().copied().max().unwrap_or(1).max(1);
    let wmin = 1.0 / max_free as f64;
    // Screens a site whose paths got cheaper (weight drop, or a released
    // node appearing): true when no path through `s` can enter or
    // tie-displace the top-k.
    let screened = |s: SiteId, w: f64| -> bool {
        if sd[u][s] + w + sd[s][v] > last + RELAX_EPS {
            return true; // statically screened
        }
        // Exact screen: when `s` neighbors both endpoints and any longer
        // path through it clears the boundary (a second relay adds at
        // least `wmin`), the only potential entrant is `[u, s, v]` at the
        // bit-exact cost `w`.
        if sd[u][s] == 0.0 && sd[s][v] == 0.0 && w + wmin > last + RELAX_EPS {
            if e.candidates.iter().any(|c| c.len() == 3 && c[1] == s) {
                return true; // already a candidate; its move was order-checked
            }
            // `[u, s, v]` stays outside the top-k iff it sorts after every
            // candidate: strictly costlier than the (sorted) last, or tied
            // only with single-relay candidates of smaller hub id.
            if exact[k - 1] && adjusted[k - 1] < w {
                return true;
            }
            return (0..k).all(|i| {
                if exact[i] {
                    adjusted[i] < w || (adjusted[i] == w && hub(i).is_some_and(|h| h < s))
                } else {
                    adjusted[i] + RELAX_EPS < w
                }
            });
        }
        false
    };
    let mut unscreened_drop = 0.0f64;
    for &s in changed.iter() {
        let (r1, r2) = (e.regens[s], regens_free[s]);
        if r2 <= r1 {
            // Weight rose: through-`s` paths only got heavier, and strict
            // relaxation keeps them from stealing any tie they previously
            // lost.
            continue;
        }
        let w = 1.0 / r2 as f64;
        if !screened(s, w) {
            unscreened_drop += 1.0 / r1 as f64 - w;
        }
    }
    if unscreened_drop == 0.0 && adjusted[k - 1] <= e.costs[k - 1] {
        // Nothing can enter from outside and the boundary didn't rise:
        // the last candidate keeps winning whatever tie it already won.
        return None;
    }
    (last + RELAX_EPS >= e.next_cost - unscreened_drop).then_some(MissReason::BoundaryGuard)
}

/// The layered evaluation cache. See the module docs for the layer
/// structure and invalidation rules.
///
/// Not shared between threads: each parallel annealing chain owns its own
/// cache, which keeps chains bit-for-bit independent of scheduling.
#[derive(Debug, Clone, Default)]
pub struct EnergyCache {
    /// Fingerprint the plant-scoped layers were built under.
    plant_sig: Option<u64>,
    /// `relay_candidates` count the entries were computed with.
    relay_k: usize,
    /// Relay-candidate entries per endpoint pair, class-indexed.
    relay: HashMap<(SiteId, SiteId), PairEntries>,
    /// Buffers of the miss path's k-shortest relay search.
    relay_scratch: RelayScratch,
    /// Buffers of the relaxed scan.
    relax_scratch: RelaxScratch,
    /// Buffers of the rate pass.
    pub(crate) rate_scratch: RateScratch,
    /// Plant-scoped precompute (static-interior screens, relay domains,
    /// reach rows, route table), `Arc`-shared across chains when a
    /// parallel run installs one.
    plant: Option<Arc<PlantCache>>,
    /// A shared precompute offered by the enclosing parallel run via
    /// [`Self::install_plant_cache`]; adopted by [`Self::begin_run`] when
    /// its fingerprint matches, so sibling chains never rebuild it.
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
    /// Pairs that held relay entries when a plant-fingerprint flush wiped
    /// the relay layer: their next entry-less miss is attributed to the
    /// flush rather than to cold start.
    flushed_pairs: HashSet<(SiteId, SiteId)>,
    /// Effectiveness counters.
    pub stats: EnergyCacheStats,
}

impl EnergyCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Prepares the cache for one evaluation run (one annealing call):
    /// clears the run-scoped memos unconditionally, and flushes the
    /// plant-scoped layers if the plant content or the relay-candidate
    /// count changed since they were built. `fiber_dist` passed to the
    /// other methods must always be `plant.fiber_distance_matrix()`.
    pub fn begin_run(&mut self, plant: &FiberPlant, config: &CircuitBuildConfig) {
        self.outcomes.clear();
        self.overflow.clear();
        let sig = plant_fingerprint(plant);
        if self.plant_sig == Some(sig) && self.relay_k == config.relay_candidates {
            return;
        }
        if self.plant_sig.is_some() {
            self.stats.flushes += 1;
            self.flushed_pairs.extend(self.relay.keys().copied());
        }
        self.plant_sig = Some(sig);
        self.relay_k = config.relay_candidates;
        self.relay.clear();
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

    /// Returns the plant-scoped precompute, adopting the shared one or
    /// building a fresh one on first use after a flush.
    fn ensure_plant_cache(
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

    /// Finds or computes the relay entry for `(u, v)` under the given
    /// free-regenerator vector, returning its index in the pair's entry
    /// list. The lookup goes constraint class first: the vector's domain
    /// projection is hashed and the class index consulted, with the
    /// projection verified site-for-site (see [`PlantCache`] for why
    /// projection equality implies identical Yen output). On a class miss
    /// the [`RELAXED_SCAN_WINDOW`] newest entries are scanned with the
    /// relaxed match, which may prove an entry built under a *different*
    /// projection still yields the same output; failing that the dense
    /// kernel computes a fresh entry — either way the returned entry's
    /// candidate list is exactly what a fresh Yen run would produce.
    fn relay_entry_index(
        &mut self,
        plant: &FiberPlant,
        fiber_dist: &[Vec<f64>],
        regens_free: &[u32],
        u: SiteId,
        v: SiteId,
        telemetry: &CoreTelemetry,
    ) -> usize {
        let pc = self.ensure_plant_cache(plant, fiber_dist);
        let domain = pc.domain(u, v);
        let class = class_hash(domain, regens_free);
        let relay_k = self.relay_k;
        let sd = pc.static_interior();
        let mut collision = false;
        // Why the newest entry refused the query, if the scan got that far.
        let mut newest_reject = None;
        {
            let pair = self.relay.entry((u, v)).or_default();
            if let Some(alias) = pair.by_class.get(&class) {
                if alias.seq >= pair.base {
                    // Verify against the projection the alias was PROVEN
                    // for — not the entry's own vector, which may differ
                    // when the proof came from the relaxed matcher. Equal
                    // projections run identical Yen searches, so the proof
                    // transfers to this query verbatim.
                    if domain
                        .iter()
                        .zip(&alias.proj)
                        .all(|(&s, &p)| regens_free[s] == p)
                    {
                        let off = (alias.seq - pair.base) as usize;
                        self.stats.relay_hits += 1;
                        return off;
                    }
                    // Same hash, different projection: a genuine hash
                    // collision. Fall through to the relaxed scan.
                    collision = true;
                } else {
                    // The mapped entry was FIFO-evicted; purge lazily.
                    pair.by_class.remove(&class);
                }
            }
            for (back, e) in pair
                .entries
                .iter()
                .rev()
                .take(RELAXED_SCAN_WINDOW)
                .enumerate()
            {
                let reject = relaxed_entry_reject(
                    e,
                    relay_k,
                    regens_free,
                    u,
                    v,
                    sd,
                    &mut self.relax_scratch,
                );
                let Some(reason) = reject else {
                    self.stats.relay_relaxed_hits += 1;
                    // Alias this class to the proven entry so the next
                    // query under the same projection hits on the fast
                    // path.
                    let off = pair.entries.len() - 1 - back;
                    let proj: Vec<u32> = domain.iter().map(|&s| regens_free[s]).collect();
                    let seq = pair.base + off as u64;
                    pair.alias(class, seq, proj);
                    return off;
                };
                if back == 0 {
                    newest_reject = Some(reason);
                }
            }
        }
        self.stats.relay_misses += 1;
        // Attribute the miss: a failed class verification is a collision;
        // otherwise entries exist → the reject reason of the most recently
        // stored one (the entry a fresh hit would most plausibly have
        // matched); none → flush if a fingerprint flush wiped this pair,
        // cold otherwise.
        let reason = if collision {
            MissReason::ClassCollision
        } else {
            newest_reject.unwrap_or(if self.flushed_pairs.contains(&(u, v)) {
                MissReason::Flush
            } else {
                MissReason::Cold
            })
        };
        self.stats.count_relay_miss(reason);
        telemetry.shortest_path_calls.incr();
        // Compute one path beyond the candidate count: Yen grows its found
        // list incrementally, so the first `relay_k` paths are exactly what
        // a `relay_k`-run would return, and the extra path's cost bounds
        // every path outside the candidate list for the relaxed match.
        let mut with_costs = relay_k_shortest(
            &pc.reach,
            regens_free,
            u,
            v,
            relay_k + 1,
            &mut self.relay_scratch,
        );
        debug_assert!(
            {
                let want = RegenGraph::build_with_free_regens(plant, regens_free, fiber_dist, u, v)
                    .relay_candidates_with_costs(relay_k + 1);
                want.len() == with_costs.len()
                    && want
                        .iter()
                        .zip(&with_costs)
                        .all(|(w, g)| w.0 == g.0 && w.1.to_bits() == g.1.to_bits())
            },
            "dense relay kernel must equal RegenGraph + Yen for ({u}, {v})"
        );
        let next_cost = if with_costs.len() > relay_k {
            with_costs.pop().expect("k+1 paths").1
        } else {
            f64::INFINITY
        };
        let costs: Vec<f64> = with_costs.iter().map(|(_, c)| *c).collect();
        let candidates: Vec<Vec<SiteId>> = with_costs.into_iter().map(|(p, _)| p).collect();
        let mut probe = FiberSet::new(plant.fiber_count());
        for cand in &candidates {
            for w in cand.windows(2) {
                if let Some(route) = pc.routes().route(w[0], w[1]) {
                    for &f in &route.fibers {
                        probe.insert(f);
                    }
                }
            }
        }
        let proj: Vec<u32> = domain.iter().map(|&s| regens_free[s]).collect();
        self.relay.entry((u, v)).or_default().push(
            class,
            proj,
            RelayEntry {
                regens: regens_free.to_vec(),
                candidates,
                costs,
                probe,
                next_cost,
            },
        )
    }

    /// Delta-rebuild skip-test helper: proves one provisioning attempt for
    /// `(u, v)` would behave identically under the live vector `v_live`
    /// and the replayed previous-build vector `v_rep` — i.e. both produce
    /// the same candidate list. Returns that list's probe set (the fibers
    /// whose channel occupancy must then also match) on success.
    ///
    /// Fast path: when the two vectors agree on the pair's relay domain,
    /// equivalence holds outright (see [`PlantCache`]) and a single
    /// class-keyed lookup serves the probe set. Only when the projections
    /// differ do both vectors get looked up and their candidate lists
    /// compared by value.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn attempt_equivalent(
        &mut self,
        plant: &FiberPlant,
        fiber_dist: &[Vec<f64>],
        v_live: &[u32],
        v_rep: &[u32],
        u: SiteId,
        v: SiteId,
        telemetry: &CoreTelemetry,
    ) -> Option<FiberSet> {
        let pc = self.ensure_plant_cache(plant, fiber_dist);
        let domain = pc.domain(u, v);
        if domain.iter().all(|&s| v_live[s] == v_rep[s]) {
            let i = self.relay_entry_index(plant, fiber_dist, v_live, u, v, telemetry);
            return Some(self.relay[&(u, v)].entries[i].probe.clone());
        }
        let i = self.relay_entry_index(plant, fiber_dist, v_live, u, v, telemetry);
        let e = &self.relay[&(u, v)].entries[i];
        let (cand_live, probe) = (e.candidates.clone(), e.probe.clone());
        // The second lookup may insert (and thus evict), so compare by
        // value, not by the first index.
        let j = self.relay_entry_index(plant, fiber_dist, v_rep, u, v, telemetry);
        (self.relay[&(u, v)].entries[j].candidates == cand_live).then_some(probe)
    }

    /// Relay candidates for a circuit `(u, v)` under the given
    /// free-regenerator vector — the cached equivalent of
    /// `RegenGraph::build(..).relay_candidates(k)`. A hit requires the
    /// stored regenerator vector to match verbatim, so the returned list
    /// is always identical to what a fresh build would produce.
    /// `telemetry.shortest_path_calls` counts misses only: it keeps
    /// measuring shortest-path work actually performed.
    pub fn relay_candidates(
        &mut self,
        plant: &FiberPlant,
        fiber_dist: &[Vec<f64>],
        regens_free: &[u32],
        u: SiteId,
        v: SiteId,
        telemetry: &CoreTelemetry,
    ) -> Vec<Vec<SiteId>> {
        let idx = self.relay_entry_index(plant, fiber_dist, regens_free, u, v, telemetry);
        self.relay[&(u, v)].entries[idx].candidates.clone()
    }

    /// [`Self::relay_candidates`] plus the entry's probe set, from a single
    /// lookup — the builders record the probes so a later delta rebuild can
    /// clear its dirty-set screen without consulting the cache at all.
    /// Both are borrows of the entry, good until the next cache call.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn relay_candidates_and_probe(
        &mut self,
        plant: &FiberPlant,
        fiber_dist: &[Vec<f64>],
        regens_free: &[u32],
        u: SiteId,
        v: SiteId,
        telemetry: &CoreTelemetry,
    ) -> (&[Vec<SiteId>], &FiberSet) {
        let idx = self.relay_entry_index(plant, fiber_dist, regens_free, u, v, telemetry);
        let e = &self.relay[&(u, v)].entries[idx];
        (&e.candidates, &e.probe)
    }

    /// The plant-scoped precompute, adopting or building it on first use —
    /// the builders read the route table from it, the delta rebuild also
    /// pair domains for the dirty-site screen.
    pub(crate) fn plant_precompute(
        &mut self,
        plant: &FiberPlant,
        fiber_dist: &[Vec<f64>],
    ) -> Arc<PlantCache> {
        self.ensure_plant_cache(plant, fiber_dist)
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

    fn relaxed_entry_match(
        e: &RelayEntry,
        relay_k: usize,
        regens_free: &[u32],
        u: SiteId,
        v: SiteId,
        sd: &[Vec<f64>],
    ) -> bool {
        let mut scratch = RelaxScratch::default();
        relaxed_entry_reject(e, relay_k, regens_free, u, v, sd, &mut scratch).is_none()
    }

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
    fn relay_cache_hits_on_same_regen_vector() {
        let p = plant();
        let fd = p.fiber_distance_matrix();
        let t = CoreTelemetry::disabled();
        let mut cache = EnergyCache::new();
        cache.begin_run(&p, &CircuitBuildConfig::default());
        let regens: Vec<u32> = p.sites().iter().map(|s| s.regenerators).collect();

        let a = cache.relay_candidates(&p, &fd, &regens, 0, 2, &t);
        let b = cache.relay_candidates(&p, &fd, &regens, 0, 2, &t);
        assert_eq!(a, b);
        assert_eq!(cache.stats.relay_misses, 1);
        assert_eq!(cache.stats.relay_hits, 1);

        // A different regenerator vector is a different key.
        let mut spent = regens.clone();
        spent[1] = 0;
        let c = cache.relay_candidates(&p, &fd, &spent, 0, 2, &t);
        assert_eq!(cache.stats.relay_misses, 2);
        // And matches an uncached build under the same vector.
        let fresh = RegenGraph::build_with_free_regens(&p, &spent, &fd, 0, 2)
            .relay_candidates(CircuitBuildConfig::default().relay_candidates);
        assert_eq!(c, fresh);
    }

    #[test]
    fn begin_run_flushes_on_degradation_only() {
        let mut p = plant();
        let fd = p.fiber_distance_matrix();
        let t = CoreTelemetry::disabled();
        let mut cache = EnergyCache::new();
        let cfg = CircuitBuildConfig::default();
        cache.begin_run(&p, &cfg);
        let regens: Vec<u32> = p.sites().iter().map(|s| s.regenerators).collect();
        cache.relay_candidates(&p, &fd, &regens, 0, 1, &t);

        cache.begin_run(&p, &cfg);
        assert_eq!(cache.stats.flushes, 0, "same plant keeps relay layer");
        cache.relay_candidates(&p, &fd, &regens, 0, 1, &t);
        assert_eq!(cache.stats.relay_hits, 1);

        p.set_fiber_wavelength_cap(2, Some(1));
        cache.begin_run(&p, &cfg);
        assert_eq!(cache.stats.flushes, 1, "degradation flushes");
        cache.relay_candidates(&p, &fd, &regens, 0, 1, &t);
        assert_eq!(cache.stats.relay_misses, 2, "entry was rebuilt");
    }

    #[test]
    fn relaxed_match_requires_full_list_for_released_sites() {
        // Stored entry for pair (0, 1): one candidate through hub 2, the
        // path set exhausted (`next_cost` infinite). The queried vector
        // releases site 3 from zero free regenerators; its path [0, 3, 1]
        // costs 1.0 — strictly above the last stored candidate's 0.5.
        let e = RelayEntry {
            regens: vec![0, 0, 2, 0],
            candidates: vec![vec![0, 2, 1]],
            costs: vec![0.5],
            probe: FiberSet::new(4),
            next_cost: f64::INFINITY,
        };
        let released = vec![0, 0, 2, 1];
        let sd = vec![vec![0.0; 4]; 4];
        // Full list (relay_k == 1): the released path cannot enter the
        // top-1, so the entry still matches.
        assert!(relaxed_entry_match(&e, 1, &released, 0, 1, &sd));
        // Partial list (relay_k == 2): a fresh Yen run would append the
        // released path *regardless of cost* — the match must refuse,
        // even though the static screen clears the top-k boundary.
        assert!(!relaxed_entry_match(&e, 2, &released, 0, 1, &sd));
        // A weight-only change (no membership crossing) on a partial
        // list is still fine: site 2 gains a regenerator, its candidate
        // stays the unique path.
        let cheaper = vec![0, 0, 4, 0];
        assert!(relaxed_entry_match(&e, 2, &cheaper, 0, 1, &sd));
    }

    #[test]
    fn class_key_ignores_sites_outside_domain() {
        // Line 0-1-2-3, 400 km hops, reach 500. Site 2 has no
        // regenerators, so site 3 cannot be reached from 0 or 2 through
        // equipped interiors: it is outside the (0, 2) relay domain, and
        // spending its regenerators must not change the pair's
        // constraint class — the lookup stays a plain hit.
        let mut p = FiberPlant::new(OpticalParams {
            optical_reach_km: 500.0,
            ..Default::default()
        });
        p.add_site("A", 4, 2);
        p.add_site("B", 4, 2);
        p.add_site("C", 4, 0);
        p.add_site("D", 4, 2);
        p.add_fiber(0, 1, 400.0);
        p.add_fiber(1, 2, 400.0);
        p.add_fiber(2, 3, 400.0);
        let fd = p.fiber_distance_matrix();
        let t = CoreTelemetry::disabled();
        let mut cache = EnergyCache::new();
        cache.begin_run(&p, &CircuitBuildConfig::default());
        let regens: Vec<u32> = p.sites().iter().map(|s| s.regenerators).collect();

        let a = cache.relay_candidates(&p, &fd, &regens, 0, 2, &t);
        let mut spent3 = regens.clone();
        spent3[3] = 0;
        let b = cache.relay_candidates(&p, &fd, &spent3, 0, 2, &t);
        assert_eq!(cache.stats.relay_misses, 1, "only the cold build misses");
        assert_eq!(cache.stats.relay_hits, 1, "out-of-domain change class-hits");
        assert_eq!(a, b);
        // The served list is exactly what a fresh build would produce.
        let fresh = RegenGraph::build_with_free_regens(&p, &spent3, &fd, 0, 2)
            .relay_candidates(CircuitBuildConfig::default().relay_candidates);
        assert_eq!(b, fresh);

        // An in-domain change (site 1 relays the only candidate) is a
        // different class; here the relaxed proof machine still accepts.
        let mut spent1 = regens.clone();
        spent1[1] = 1;
        let c = cache.relay_candidates(&p, &fd, &spent1, 0, 2, &t);
        assert_eq!(cache.stats.relay_relaxed_hits, 1);
        assert_eq!(cache.stats.relay_misses, 1);
        let fresh1 = RegenGraph::build_with_free_regens(&p, &spent1, &fd, 0, 2)
            .relay_candidates(CircuitBuildConfig::default().relay_candidates);
        assert_eq!(c, fresh1);
    }

    /// Endpoints 0 and 1, out of each other's reach, and `hubs` relay
    /// sites each within reach of both and of nothing else: every relay
    /// path is `[0, h, 1]` at cost `1/free[h]`.
    fn hub_plant(hubs: usize) -> FiberPlant {
        let mut p = FiberPlant::new(OpticalParams {
            optical_reach_km: 500.0,
            ..Default::default()
        });
        p.add_site("U", 4, 0);
        p.add_site("V", 4, 0);
        for h in 0..hubs {
            let s = p.add_site(&format!("H{h}"), 0, 9);
            p.add_fiber(0, s, 400.0);
            p.add_fiber(s, 1, 400.0);
        }
        p
    }

    #[test]
    fn scan_window_and_eviction_never_change_the_candidates_served() {
        let p = hub_plant(16);
        let fd = p.fiber_distance_matrix();
        let t = CoreTelemetry::disabled();
        let k = CircuitBuildConfig::default().relay_candidates;
        let mut cache = EnergyCache::new();
        cache.begin_run(&p, &CircuitBuildConfig::default());
        // Vector `i`: four hubs picked by `i` hold 9, 8, 7, 6 free
        // regenerators, every other hub 1 — a different top-4 each time,
        // which the relaxed match cannot bridge.
        let vector = |i: usize| -> Vec<u32> {
            let mut v = vec![1u32; p.site_count()];
            (v[0], v[1]) = (0, 0);
            let mut h = i * 7;
            for free in [9, 8, 7, 6] {
                while v[2 + h % 16] != 1 {
                    h += 1;
                }
                v[2 + h % 16] = free;
                h += 5 + i / 16;
            }
            v
        };
        let fresh =
            |v: &[u32]| RegenGraph::build_with_free_regens(&p, v, &fd, 0, 1).relay_candidates(k);
        let v0 = vector(0);
        let class0 = class_hash(cache.plant_precompute(&p, &fd).domain(0, 1), &v0);

        // Enough distinct classes to push the first entry out of the scan
        // window, but not out of the FIFO.
        for i in 0..=RELAXED_SCAN_WINDOW + 2 {
            let v = vector(i);
            assert_eq!(cache.relay_candidates(&p, &fd, &v, 0, 1, &t), fresh(&v));
        }
        let pair = &cache.relay[&(0, 1)];
        assert_eq!(pair.base, 0);
        assert_eq!(pair.by_class[&class0].seq, 0);
        assert!(pair.entries.len() > RELAXED_SCAN_WINDOW + 1);
        // The alias index reaches the first entry where the scan no
        // longer looks: a plain class hit, no recompute.
        let before = cache.stats;
        assert_eq!(cache.relay_candidates(&p, &fd, &v0, 0, 1, &t), fresh(&v0));
        assert_eq!(cache.stats.relay_hits, before.relay_hits + 1);
        assert_eq!(cache.stats.relay_misses, before.relay_misses);

        // Now overflow the FIFO so the first entry is evicted while its
        // alias still names it.
        for i in 0..4 * RELAY_STATES_PER_PAIR {
            let v = vector(i);
            assert_eq!(cache.relay_candidates(&p, &fd, &v, 0, 1, &t), fresh(&v));
        }
        let pair = &cache.relay[&(0, 1)];
        assert_eq!(pair.entries.len(), RELAY_STATES_PER_PAIR);
        assert!(pair.base > 0, "the FIFO evicted");
        if let Some(alias) = pair.by_class.get(&class0) {
            assert!(alias.seq < pair.base, "vector 0 was not re-proven since");
        }
        // The stale alias is purged and the class re-resolved (scan or
        // recompute) to a live entry serving the same candidates.
        assert_eq!(cache.relay_candidates(&p, &fd, &v0, 0, 1, &t), fresh(&v0));
        let pair = &cache.relay[&(0, 1)];
        let alias = &pair.by_class[&class0];
        assert!(alias.seq >= pair.base);
        let e = &pair.entries[(alias.seq - pair.base) as usize];
        assert_eq!(e.candidates, fresh(&v0));
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
        let cfg = CircuitBuildConfig::default();
        let mut cache = EnergyCache::new();
        cache.begin_run(&p, &cfg);
        let first = cache.plant_precompute(&p, &p.fiber_distance_matrix());
        same_routes(&first, &p);
        assert_eq!(first.routes().route(0, 1).unwrap().fibers, vec![4]);
        assert!(first.routes().route(0, 4).is_none());

        cache.begin_run(&p, &cfg);
        let again = cache.plant_precompute(&p, &p.fiber_distance_matrix());
        assert!(Arc::ptr_eq(&first, &again), "same plant keeps the table");

        // Amp degradation moves the fingerprint: flushed and rebuilt.
        p.set_fiber_wavelength_cap(4, Some(1));
        cache.begin_run(&p, &cfg);
        let degraded = cache.plant_precompute(&p, &p.fiber_distance_matrix());
        assert!(!Arc::ptr_eq(&first, &degraded));
        same_routes(&degraded, &p);

        // Repair restores the fingerprint; the precompute is rebuilt for
        // it (the flush dropped the old one) with the original routes.
        p.set_fiber_wavelength_cap(4, None);
        cache.begin_run(&p, &cfg);
        let repaired = cache.plant_precompute(&p, &p.fiber_distance_matrix());
        assert_eq!(repaired.fingerprint(), first.fingerprint());
        assert!(!Arc::ptr_eq(&degraded, &repaired));
        same_routes(&repaired, &p);

        // A cut (the plant loses the short parallel fiber) changes routes,
        // and the table with them.
        let mut cut = plant();
        cut.add_site("LONE", 4, 0);
        cache.begin_run(&cut, &cfg);
        let after_cut = cache.plant_precompute(&cut, &cut.fiber_distance_matrix());
        same_routes(&after_cut, &cut);
        assert_eq!(after_cut.routes().route(0, 1).unwrap().fibers, vec![0]);
    }
}
