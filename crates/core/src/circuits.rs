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
//!
//! An incremental build costs what the move changed. It walks the
//! previous build's pairs merged with the at most four pairs a neighbor
//! move changes, and it copies a previous relay path instead of searching
//! whenever the **relay-path certificate** proves the path is still the
//! attempt's first draw: no site on the path changed its free-regenerator
//! count, and every site of the pair's relay domain that did either lost
//! regenerators or cannot carry a path as cheap as the copied one (its own
//! weight plus a floor weight per missing reach edge to an endpoint
//! already exceeds the path's cost). The proof is in DESIGN.md, "Delta
//! builds: the relay-path certificate"; debug builds, and any build with
//! [`EnergyCache::audit_certificates`] set, run the skipped search and
//! assert it agrees. Relay weights (`1/free`) live in the ledger and are
//! updated as circuits consume regenerators, so a search starts without
//! copying the vector or dividing.

use crate::cache::{EnergyCache, PlantCache};
use crate::regen::{RegenGraph, RelayScratch, RelaySearch, RelayWeights};
use crate::rows::{clear_bit, has_bit, set_bit, MAX_ROW_WORDS};
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
    /// Run the search behind every certified draw and no-path break, and
    /// assert it agrees (always on in debug builds).
    audit: bool,
}

/// What a delta build did beyond its circuits.
#[derive(Debug, Clone, Copy, Default)]
struct DeltaCensus {
    /// Pairs of unchanged multiplicity whose every attempt was certified.
    reused: u64,
    /// The other pairs provisioned.
    rebuilt: u64,
    /// Attempts that took the accepted build's relay path, certified.
    certified: u64,
    /// Pairs that stopped, certified, where the accepted build's next
    /// attempt drew no relay path.
    dry: u64,
    /// Certified draws and breaks checked against the search they skipped.
    audited: u64,
}

/// One desired pair of a [`TopologyLedger`]: its circuits are
/// `first..first + count` of the ledger's.
#[derive(Debug, Clone, Copy)]
struct PairRec {
    u: SiteId,
    v: SiteId,
    /// The desired multiplicity.
    m: u32,
    first: usize,
    count: usize,
    /// The pair's first `lead` attempts each lit the first relay path they
    /// drew.
    lead: usize,
    /// The attempt after the pair's last circuit drew no relay path (only
    /// when `count < m`).
    dry: bool,
}

/// The pairs whose desired multiplicity a candidate changes against the
/// build it resumes from: canonical (`u < v`), ascending, each with its
/// change — at most [`MAX_DELTA_UNITS`] link units in all.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Moved {
    pairs: [(SiteId, SiteId, i32); MAX_DELTA_UNITS as usize],
    len: usize,
}

impl Moved {
    /// Algorithm 2's move of one unit from `(u, v)` and one from `(p, q)`
    /// to `(u, p)` and `(v, q)`, netted pair by pair. Empty when the move
    /// gives back the topology it started from.
    pub(crate) fn of_move([u, v, p, q]: [SiteId; 4]) -> Self {
        let mut moved = Moved::default();
        for (a, b, d) in [(u, v, -1), (p, q, -1), (u, p, 1), (v, q, 1)] {
            moved.add(a.min(b), a.max(b), d);
        }
        moved.pairs[..moved.len].sort_unstable();
        moved
    }

    /// The pairs `desired` changes against `prev`'s desired topology, or
    /// `None` beyond [`MAX_DELTA_UNITS`]: one walk of `desired`'s upper
    /// triangle beside `prev`'s pair list.
    fn between(desired: &Topology, prev: &TopologyLedger) -> Option<Self> {
        let n = desired.site_count();
        if prev.achieved.site_count() != n {
            return None;
        }
        let mut moved = Moved::default();
        let mut units = 0;
        let mut recs = prev.pairs.iter().peekable();
        for u in 0..n {
            for (v, &m) in desired.row(u).iter().enumerate().skip(u + 1) {
                let m_prev = recs.next_if(|r| (r.u, r.v) == (u, v)).map_or(0, |r| r.m);
                if m != m_prev {
                    units += m.abs_diff(m_prev);
                    if units > MAX_DELTA_UNITS {
                        return None;
                    }
                    moved.add(u, v, m as i32 - m_prev as i32);
                }
            }
        }
        Some(moved)
    }

    fn add(&mut self, u: SiteId, v: SiteId, d: i32) {
        match self.pairs[..self.len]
            .iter()
            .position(|&(a, b, _)| (a, b) == (u, v))
        {
            Some(i) => {
                self.pairs[i].2 += d;
                if self.pairs[i].2 == 0 {
                    self.pairs.copy_within(i + 1..self.len, i);
                    self.len -= 1;
                }
            }
            None => {
                self.pairs[self.len] = (u, v, d);
                self.len += 1;
            }
        }
    }

    /// No pair changes.
    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The changed pairs, ascending.
    pub(crate) fn pairs(&self) -> &[(SiteId, SiteId, i32)] {
        &self.pairs[..self.len]
    }
}

/// Where a ledger build starts from.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Basis {
    /// Nothing to resume from: a full build.
    Fresh,
    /// The accepted build is too far away to resume from: a full build.
    Far,
    /// The accepted build, which the candidate changes by these pairs.
    Near(Moved),
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

    /// The diverged sites of `domain`, ascending.
    fn diverged_in<'s>(&'s self, domain: &'s [u64]) -> impl Iterator<Item = SiteId> + 's {
        domain
            .iter()
            .zip(&self.diverged)
            .enumerate()
            .flat_map(|(i, (&d, &x))| {
                let mut bits = d & x;
                std::iter::from_fn(move || {
                    (bits != 0).then(|| {
                        let s = i * 64 + bits.trailing_zeros() as usize;
                        bits &= bits - 1;
                        s
                    })
                })
            })
    }
}

/// The interior sites of a relay path: where it consumes regenerators.
fn interior(relay: &[SiteId]) -> &[SiteId] {
    &relay[1..relay.len() - 1]
}

/// One build of a desired topology, held flat: the circuits in
/// provisioning order as relay paths; per desired pair in canonical order
/// (`u < v`, lexicographic) its multiplicity and which circuits are its;
/// the free-regenerator vector with its relay weights, and the segments
/// recorded across each fiber; and the achieved topology.
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
#[derive(Debug, Default)]
pub struct TopologyLedger {
    /// Relay paths of the circuits, back to back.
    relays: Vec<SiteId>,
    /// End of circuit `i`'s relay path in `relays`.
    ends: Vec<usize>,
    pairs: Vec<PairRec>,
    /// Links of the desired topology (with multiplicity).
    desired_links: u32,
    /// Free regenerators per site under the circuits recorded.
    regens: Vec<u32>,
    /// The relay weights of `regens`, kept in step by [`Self::record`].
    weights: RelayWeights,
    /// `1/max` of the vector at the start of the build: no relay weighs
    /// less during the build.
    floor: f64,
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

impl Clone for TopologyLedger {
    fn clone(&self) -> Self {
        let mut ledger = TopologyLedger::default();
        ledger.clone_from(self);
        ledger
    }

    /// Copies the build — its circuits, pairs and achieved topology: what
    /// [`Self::materialise`] and a delta build resuming from it read —
    /// into this ledger's buffers. The working state (vector, weights,
    /// segment counts, channels) is refilled by the next build into either
    /// ledger and is not copied.
    fn clone_from(&mut self, source: &Self) {
        self.relays.clone_from(&source.relays);
        self.ends.clone_from(&source.ends);
        self.pairs.clone_from(&source.pairs);
        self.desired_links = source.desired_links;
        self.achieved.clone_from(&source.achieved);
        self.exact = source.exact;
    }
}

impl TopologyLedger {
    /// The topology the build achieved.
    pub fn achieved(&self) -> &Topology {
        &self.achieved
    }

    /// The achieved links `(u, v, multiplicity)`, `u < v`, in canonical
    /// order: the pairs that lit a circuit.
    pub(crate) fn achieved_links(&self) -> impl Iterator<Item = (SiteId, SiteId, u32)> + '_ {
        self.pairs
            .iter()
            .filter(|p| p.count > 0)
            .map(|p| (p.u, p.v, p.count as u32))
    }

    /// True when this is a build of `desired`.
    pub(crate) fn is_build_of(&self, desired: &Topology) -> bool {
        self.achieved.site_count() == desired.site_count()
            && self.desired_links == desired.total_links()
            && self
                .pairs
                .iter()
                .all(|p| desired.multiplicity(p.u, p.v) == p.m)
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

    /// An empty build of a desired topology of `links` links over the `n`
    /// sites of `plant`, every buffer sized for the most the build can
    /// hold: a circuit and a pair per desired link; beyond two endpoints a
    /// circuit's relay path holds only sites whose regenerators it
    /// consumes. The achieved topology is emptied pair by pair, not cell
    /// by cell.
    fn begin(&mut self, plant: &FiberPlant, n: usize, links: u32) {
        let links = links as usize;
        self.lit.reset(plant, links);
        self.regens.clear();
        self.regens
            .extend_from_slice(self.lit.occupancy().free_regen_vec());
        self.weights.fill(&self.regens);
        self.floor = 1.0 / self.regens.iter().copied().max().unwrap_or(0) as f64;
        let regens: usize = self.regens.iter().map(|&r| r as usize).sum();
        self.relays.clear();
        self.relays.reserve(2 * links + regens);
        self.ends.clear();
        self.ends.reserve(links);
        if self.achieved.site_count() == n {
            for p in self.pairs.iter().filter(|p| p.count > 0) {
                self.achieved.remove_links(p.u, p.v, p.count as u32);
            }
        } else {
            self.achieved.reset(n);
        }
        self.pairs.clear();
        self.pairs.reserve(links);
        self.desired_links = links as u32;
        self.used.clear();
        self.used.resize(plant.fiber_count(), 0);
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
            self.weights.set(s, self.regens[s]);
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
            let route = pc
                .segment_ok(w[0], w[1])
                .then(|| pc.routes().route(w[0], w[1]).expect("checked").fibers);
            let fits = route.filter(|fibers| {
                let occupancy = self.lit.occupancy();
                let (used, usable) = fibers.iter().fold((0, u32::MAX), |(n, least), &f| {
                    (n + self.used[f], least.min(occupancy.usable(f)))
                });
                used < usable
            });
            let Some(fibers) = fits else {
                self.count(pc, relay, j, false);
                return false;
            };
            for &f in fibers {
                self.used[f] += 1;
            }
        }
        self.record(relay);
        true
    }

    /// One provisioning attempt for `(u, v)` (Algorithm 3 lines 7–12).
    /// Its first relay path is `vouched` when the caller knows it (a
    /// delta's certified copy), `[u, v]` when the two are within reach,
    /// else the first draw of a relay search under the build's vector; it
    /// is recorded channel-free if it can be, else the attempt is made
    /// exactly ([`Self::light_exact`]). Returns whether a circuit was lit,
    /// and whether the attempt lit its first draw or drew none.
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
            let mut search = RelaySearch::start(pc.reach(), &self.weights, u, v, scratch);
            if search.next_path().is_none() {
                return (false, true);
            }
            self.light_free(pc, scratch.drawn_path(0))
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
        let mut search = RelaySearch::start(pc.reach(), &self.weights, u, v, scratch);
        let (mut drew, mut lit) = (false, None);
        for draw in 0..env.config.relay_candidates {
            let Some((relay, _)) = search.next_path() else {
                break;
            };
            drew = true;
            match self.lit.light(env.plant, pc.routes(), relay) {
                Ok(()) => {
                    lit = Some(draw);
                    break;
                }
                Err(_) => env.telemetry.wavelength_failures.incr(),
            }
        }
        debug_assert!(
            search.matches_reference(env.plant, &self.regens, env.fiber_dist),
            "relay search must equal RegenGraph + Yen for ({u}, {v})"
        );
        let Some(draw) = lit else {
            return (false, !drew);
        };
        let relay = scratch.drawn_path(draw);
        self.count(pc, relay, relay.len() - 1, true);
        self.record(relay);
        self.built(env.telemetry);
        (true, draw == 0)
    }

    /// Records `(u, v)`, desired `m` times, as the owner of the circuits
    /// recorded since `first`.
    fn push_pair(
        &mut self,
        (u, v): (SiteId, SiteId),
        m: u32,
        first: usize,
        lead: usize,
        dry: bool,
    ) {
        let count = self.len() - first;
        if count > 0 {
            self.achieved.add_links(u, v, count as u32);
        }
        self.pairs.push(PairRec {
            u,
            v,
            m,
            first,
            count,
            lead,
            dry,
        });
    }

    /// Up to `m` attempts for `(u, v)`, stopping at the first that lights
    /// nothing (Algorithm 3 lines 13–14: the link's capacity is reduced).
    fn provision(
        &mut self,
        env: &BuildEnv<'_>,
        scratch: &mut RelayScratch,
        (u, v): (SiteId, SiteId),
        m: u32,
    ) {
        let first = self.len();
        let (mut lead, mut dry) = (0, false);
        for k in 0..m as usize {
            let (lit, first_draw) = self.attempt(env, scratch, (u, v), None);
            if !lit {
                dry = first_draw;
                break;
            }
            if first_draw && lead == k {
                lead += 1;
            }
        }
        self.push_pair((u, v), m, first, lead, dry);
    }

    /// [`build_topology_observed`] into the ledger: identical construction
    /// order and identical decisions, but relay candidates are drawn
    /// lazily from a [`RelaySearch`] over the plant-scoped tables (no graph
    /// built, no path searched that is not tried), segments are routed
    /// from the plant's route table, and channels are chosen only where
    /// the wavelength bound cannot vouch for an attempt.
    fn full(&mut self, env: &BuildEnv<'_>, scratch: &mut RelayScratch, desired: &Topology) {
        let n = desired.site_count();
        self.begin(env.plant, n, desired.total_links());
        for u in 0..n {
            for (v, &m) in desired.row(u).iter().enumerate().skip(u + 1) {
                if m > 0 {
                    self.provision(env, scratch, (u, v), m);
                }
            }
        }
    }

    /// True when the **relay-path certificate** holds for `relay`, the
    /// path `prev` lit on its first draw at this attempt of `(u, v)`, while
    /// every earlier attempt of the pair in this build took `prev`'s: then
    /// `relay` is this attempt's first draw too, and no search need run.
    /// The live vector and the replay have then consumed the same
    /// circuits of the pair, so the sites where they differ are the
    /// diverged ones of the pair's start. The certificate: `[u, v]` is
    /// within reach; or no interior site of `relay` diverged and every
    /// diverged site `d` of the pair's relay domain lost regenerators
    /// (live below replay) or has `least(d) > cost(relay)` — `cost` the
    /// search's own left-to-right sum of the live weights, `least(d)` the
    /// live weight of `d` plus the weight floor once for each endpoint `d`
    /// is not within reach of (a path through `d` then relays through
    /// another site on that side too). Proof in DESIGN.md.
    fn certified(
        &self,
        pc: &PlantCache,
        ds: &DeltaScratch,
        (u, v): (SiteId, SiteId),
        relay: &[SiteId],
    ) -> bool {
        let reach = pc.reach();
        if reach.within(u, v) {
            return true;
        }
        let inner = interior(relay);
        if inner.iter().any(|&s| has_bit(&ds.diverged, s)) {
            return false;
        }
        let cost = inner.iter().fold(0.0, |c, &s| c + self.weights.weight(s));
        ds.diverged_in(pc.domain(u, v)).all(|d| {
            self.regens[d] < ds.replay[d] || {
                let mut least = self.weights.weight(d);
                if !reach.within(u, d) {
                    least += self.floor;
                }
                if !reach.within(v, d) {
                    least += self.floor;
                }
                least > cost
            }
        })
    }

    /// True when no diverged site of `(u, v)`'s relay domain gained
    /// regenerators: where `prev` drew no relay path, this build draws
    /// none either (weights only rose, members only left).
    fn none_gained(&self, pc: &PlantCache, ds: &DeltaScratch, (u, v): (SiteId, SiteId)) -> bool {
        ds.diverged_in(pc.domain(u, v))
            .all(|d| self.regens[d] < ds.replay[d])
    }

    /// Runs the search a certificate skipped and asserts it draws `relay`
    /// first, at the cost the certificate computed — or, for a certified
    /// break (`relay` is `None`), nothing at all.
    fn audit(
        &self,
        pc: &PlantCache,
        scratch: &mut RelayScratch,
        (u, v): (SiteId, SiteId),
        relay: Option<&[SiteId]>,
    ) {
        let mut search = RelaySearch::start(pc.reach(), &self.weights, u, v, scratch);
        let drawn = search.next_path().map(|(p, c)| (p.to_vec(), c.to_bits()));
        let want = relay.map(|r| {
            let cost = interior(r)
                .iter()
                .fold(0.0, |c, &s| c + self.weights.weight(s));
            (r.to_vec(), cost.to_bits())
        });
        assert_eq!(drawn, want, "certified first draw of ({u}, {v})");
    }

    /// [`Self::full`]'s build of `desired`, resumed from `prev` instead of
    /// searching for every circuit, where `desired` changes `prev`'s
    /// desired topology by the pairs `moved`. Returns what it did besides
    /// the circuits.
    ///
    /// The builder walks `prev`'s pairs merged with the moved ones in
    /// canonical order — the pairs either build links — keeping the
    /// **replay** of `prev`'s free-regenerator vector in step (see
    /// [`DeltaScratch`]) and the site row of where it has **diverged** from
    /// the live one. An attempt of a pair takes `prev`'s relay path for it,
    /// no search run, while `prev`'s attempts up to it lit their first
    /// draws, this build's attempts of the pair so far took `prev`'s paths,
    /// and the relay-path certificate ([`Self::certified`]) holds; when
    /// `prev`'s next attempt drew no path and no diverged domain site
    /// gained regenerators, the pair stops there, no search run either.
    /// Every other attempt searches anew. Either way each attempt is
    /// channel-free only where the wavelength bound vouches for it against
    /// the live segment counts.
    fn delta(
        &mut self,
        env: &BuildEnv<'_>,
        scratch: &mut RelayScratch,
        ds: &mut DeltaScratch,
        desired: &Topology,
        moved: &Moved,
        prev: &TopologyLedger,
    ) -> DeltaCensus {
        let pc = env.pc;
        let links = moved
            .pairs()
            .iter()
            .fold(i64::from(prev.desired_links), |l, &(_, _, d)| {
                l + i64::from(d)
            });
        self.begin(env.plant, desired.site_count(), links as u32);
        ds.replay.clone_from(&self.regens);
        ds.diverged = [0; MAX_ROW_WORDS];
        let mut census = DeltaCensus::default();
        let (mut recs, mut moves) = (
            prev.pairs.iter().peekable(),
            moved.pairs().iter().peekable(),
        );
        loop {
            let (u, v) = match (recs.peek(), moves.peek()) {
                (None, None) => break,
                (Some(r), None) => (r.u, r.v),
                (None, Some(&&(a, b, _))) => (a, b),
                (Some(r), Some(&&(a, b, _))) => (r.u, r.v).min((a, b)),
            };
            let rec = recs.next_if(|r| (r.u, r.v) == (u, v)).copied();
            let m_prev = rec.map_or(0, |r| r.m);
            let m = moves
                .next_if(|&&(a, b, _)| (a, b) == (u, v))
                .map_or(m_prev, |&(_, _, d)| (m_prev as i32 + d) as u32);
            debug_assert_eq!(m, desired.multiplicity(u, v), "`moved` nets ({u}, {v})");
            let first = self.len();
            let (mut lead, mut dry) = (0, false);
            // Every attempt so far took `prev`'s relay path, certified.
            let mut following = rec.is_some();
            for k in 0..m as usize {
                let mut vouched = None;
                if let Some(r) = rec.filter(|_| following) {
                    if k < r.lead {
                        let relay = prev.relay(r.first + k);
                        if self.certified(pc, ds, (u, v), relay) {
                            vouched = Some(relay);
                        }
                    } else if k == r.count && r.dry && self.none_gained(pc, ds, (u, v)) {
                        if env.audit {
                            self.audit(pc, scratch, (u, v), None);
                            census.audited += 1;
                        }
                        env.telemetry.relay_certified.incr();
                        census.dry += 1;
                        dry = true;
                        break;
                    }
                }
                if let Some(relay) = vouched {
                    if env.audit {
                        self.audit(pc, scratch, (u, v), Some(relay));
                        census.audited += 1;
                    }
                    env.telemetry.relay_certified.incr();
                    census.certified += 1;
                }
                let (lit, first_draw) = self.attempt(env, scratch, (u, v), vouched);
                following &= vouched.is_some() && lit && first_draw;
                if !lit {
                    dry = first_draw;
                    break;
                }
                if first_draw && lead == k {
                    lead += 1;
                }
            }
            let prev_circuits = rec.map_or(0..0, |r| r.first..r.first + r.count);
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
            if m > 0 {
                if following && m == m_prev {
                    census.reused += 1;
                } else {
                    census.rebuilt += 1;
                }
                self.push_pair((u, v), m, first, lead, dry);
            }
        }
        census
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
/// resuming from `cache.accepted` when `basis` says how `desired` changes
/// its desired topology (beyond the neighbor-move bound resuming saves
/// little), in full otherwise. Debug builds assert the ledger against the
/// naive build on every call.
pub(crate) fn build_ledger(
    plant: &FiberPlant,
    desired: &Topology,
    basis: Basis,
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
        audit: cfg!(debug_assertions) || cache.audit_certificates,
    };
    match basis {
        Basis::Near(moved) => {
            let census = cache.scored.delta(
                &env,
                &mut cache.relay_scratch,
                &mut cache.delta_scratch,
                desired,
                &moved,
                &cache.accepted,
            );
            let stats = &mut cache.stats;
            stats.delta_builds += 1;
            stats.delta_pairs_reused += census.reused;
            stats.delta_pairs_rebuilt += census.rebuilt;
            stats.relay_certified += census.certified;
            stats.relay_certified_dry += census.dry;
            stats.certificates_audited += census.audited;
        }
        Basis::Fresh | Basis::Far => {
            if matches!(basis, Basis::Far) {
                cache.stats.delta_fallbacks += 1;
            }
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

/// How `desired` stands to the build `cache.accepted` holds: [`Basis::Near`]
/// with the pairs it changes, [`Basis::Far`] beyond the neighbor-move
/// bound. One walk of `desired`'s upper triangle.
pub(crate) fn basis_of(desired: &Topology, cache: &EnergyCache) -> Basis {
    match Moved::between(desired, &cache.accepted) {
        Some(moved) => Basis::Near(moved),
        None => Basis::Far,
    }
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
    build_ledger(
        plant,
        desired,
        Basis::Fresh,
        fiber_dist,
        config,
        cache,
        telemetry,
    );
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
