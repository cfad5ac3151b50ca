//! Simulated annealing over network-layer topologies — Algorithms 1 and 2.
//!
//! The search state is the topology multigraph; the energy is the total
//! throughput computed by [`compute_energy`](crate::energy::compute_energy)
//! (Algorithm 3). The neighbor move picks two links `(u,v)` and `(p,q)` and
//! moves one capacity unit each to `(u,p)` and `(v,q)` — degree-preserving,
//! so the router-port constraint holds by construction, and only four links
//! change ("the minimal number of links to change to satisfy the port
//! number constraints", §3.2).
//!
//! Seeding the search from the *current* topology both speeds convergence
//! and keeps the accepted topology close to it, which minimizes optical
//! churn during the subsequent network update.
//!
//! Note on the acceptance rule: the paper's text writes the probability for
//! a worse neighbor as `e^{(e_current − e_neighbor)/T}`, which exceeds 1
//! under maximization — a typo. We use the standard Metropolis rule
//! `e^{(e_neighbor − e_current)/T}` from the cited Kirkpatrick et al.
//! formulation (see DESIGN.md §4). A move whose two units share the pivot
//! site gives back the current topology; it is accepted at the current
//! energy, as the rule accepts any move that is no worse, without being
//! evaluated.

use crate::cache::{precompute_key, EnergyCache, PlantCache};
use crate::circuits::Moved;
use crate::energy::{EnergyContext, EnergyEvaluator, EnergyOutcome};
use crate::pool::EvalPool;
use crate::rates::RateInputs;
use crate::telemetry::{names, CoreTelemetry};
use crate::topology::Topology;
use owan_obs::Value;
use owan_optical::SiteId;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::sync::Arc;

/// Energy-trajectory samples recorded per annealing run (spread evenly
/// over `max_iterations`); bounds event volume on long searches.
const TRAJECTORY_SAMPLES: usize = 32;

/// Tunables of the annealing search (Algorithm 1).
#[derive(Debug, Clone, Copy)]
pub struct AnnealConfig {
    /// Cooling factor `α` applied to the temperature each iteration.
    pub alpha: f64,
    /// Stop once the temperature falls below this value (`ε`).
    pub epsilon: f64,
    /// RNG seed (the search is fully deterministic given the seed).
    pub seed: u64,
    /// Hard cap on iterations regardless of temperature.
    pub max_iterations: usize,
}

impl Default for AnnealConfig {
    fn default() -> Self {
        AnnealConfig {
            alpha: 0.95,
            epsilon: 1.0,
            seed: 1,
            max_iterations: 400,
        }
    }
}

/// Result of one annealing run.
#[derive(Debug, Clone)]
pub struct AnnealResult {
    /// Best topology found (`s*`).
    pub topology: Topology,
    /// Its full energy outcome (circuits + rates).
    pub outcome: EnergyOutcome,
    /// Energy of the initial state, for diagnostics.
    pub initial_energy_gbps: f64,
    /// Iterations executed.
    pub iterations: usize,
}

impl AnnealResult {
    /// Best energy found, Gbps.
    pub fn energy_gbps(&self) -> f64 {
        self.outcome.energy_gbps()
    }
}

/// Generates a random neighbor of `s` (Algorithm 2): pick two link units
/// `(u,v)`, `(p,q)`, remove one unit from each, add one unit to `(u,p)` and
/// `(v,q)`. Returns `None` if no valid move exists (e.g. fewer than two
/// links, or every sampled move would create a self-link).
pub fn compute_neighbor(s: &Topology, rng: &mut StdRng) -> Option<Topology> {
    let mv = LinkUnits::of(s).draw(rng)?;
    let mut t = s.clone();
    mv.apply(&mut t);
    Some(t)
}

/// One draw of Algorithm 2: a unit leaves `(u, v)` and one leaves `(p, q)`;
/// one joins `(u, p)` and one `(v, q)`. `[u, v, p, q]`, oriented as drawn.
#[derive(Debug, Clone, Copy)]
struct Move([SiteId; 4]);

impl Move {
    fn apply(self, t: &mut Topology) {
        let [u, v, p, q] = self.0;
        t.remove_links(u, v, 1);
        t.remove_links(p, q, 1);
        t.add_links(u, p, 1);
        t.add_links(v, q, 1);
    }

    fn undo(self, t: &mut Topology) {
        let [u, v, p, q] = self.0;
        t.remove_links(u, p, 1);
        t.remove_links(v, q, 1);
        t.add_links(u, v, 1);
        t.add_links(p, q, 1);
    }
}

/// The link units of a topology, as Algorithm 2 draws them: its links in
/// canonical order (`u < v`, lexicographic) with their cumulative
/// multiplicities. A unit index maps to the link whose cumulative count
/// first exceeds it — the map of sampling the expanded unit list — found
/// by binary search, and an accepted move updates the list by merging in
/// the pairs it changed, so neither walks the matrix.
#[derive(Debug, Clone, Default)]
struct LinkUnits {
    links: Vec<(SiteId, SiteId)>,
    /// `ends[k]`: the units of links `0..=k`.
    ends: Vec<usize>,
    /// The next list, built by [`Self::apply`] and swapped in.
    spare: (Vec<(SiteId, SiteId)>, Vec<usize>),
}

impl LinkUnits {
    fn of(s: &Topology) -> Self {
        let mut units = LinkUnits::default();
        let mut total = 0;
        for (u, v, m) in s.iter_links() {
            total += m as usize;
            units.links.push((u, v));
            units.ends.push(total);
        }
        units
    }

    fn total(&self) -> usize {
        self.ends.last().copied().unwrap_or(0)
    }

    /// The link owning unit `idx`.
    fn unit(&self, idx: usize) -> (SiteId, SiteId) {
        self.links[self.ends.partition_point(|&end| end <= idx)]
    }

    /// Algorithm 2's draw: two distinct units, each oriented at random,
    /// retried (64 times at most) while a new link would be a self-link.
    fn draw(&self, rng: &mut StdRng) -> Option<Move> {
        let total = self.total();
        if total < 2 {
            return None;
        }
        for _attempt in 0..64 {
            let i = rng.random_range(0..total);
            let j = rng.random_range(0..total);
            if i == j {
                continue;
            }
            let (mut u, mut v) = self.unit(i);
            let (mut p, mut q) = self.unit(j);
            // Random orientation of each undirected link.
            if rng.random::<bool>() {
                std::mem::swap(&mut u, &mut v);
            }
            if rng.random::<bool>() {
                std::mem::swap(&mut p, &mut q);
            }
            // New links (u,p) and (v,q) must not be self-links.
            if u == p || v == q {
                continue;
            }
            return Some(Move([u, v, p, q]));
        }
        None
    }

    /// The list after an accepted move that changed `moved`'s pairs.
    fn apply(&mut self, moved: &Moved) {
        let (links, ends) = &mut self.spare;
        links.clear();
        ends.clear();
        let (mut total, mut prev_end) = (0, 0);
        let mut changes = moved.pairs().iter().peekable();
        let mut push = |pair: (SiteId, SiteId), m: usize| {
            if m > 0 {
                total += m;
                links.push(pair);
                ends.push(total);
            }
        };
        for (&pair, &end) in self.links.iter().zip(&self.ends) {
            let mut m = (end - prev_end) as i64;
            prev_end = end;
            while let Some(&&(a, b, d)) = changes.peek() {
                if (a, b) > pair {
                    break;
                }
                changes.next();
                if (a, b) == pair {
                    m += i64::from(d);
                } else {
                    push((a, b), d as usize);
                }
            }
            push(pair, m as usize);
        }
        for &(a, b, d) in changes {
            push((a, b), d as usize);
        }
        std::mem::swap(&mut self.links, &mut self.spare.0);
        std::mem::swap(&mut self.ends, &mut self.spare.1);
    }
}

/// Runs simulated annealing (Algorithm 1) from `initial`, maximizing the
/// energy of Algorithm 3 under `ctx`, against an ephemeral
/// [`EnergyCache`] and with telemetry off.
pub fn anneal(ctx: &EnergyContext<'_>, initial: &Topology, config: &AnnealConfig) -> AnnealResult {
    let mut cache = EnergyCache::new();
    anneal_with_cache(
        ctx,
        initial,
        config,
        Some(&mut cache),
        &CoreTelemetry::disabled(),
    )
}

/// [`anneal`] against an explicit cache and with telemetry: counts
/// iterations and accepted/rejected moves, times each iteration (= one
/// temperature stage, since `T *= α` every iteration), and emits sampled
/// energy-trajectory events. The recorder never touches the RNG or the
/// accept decisions, so the search is bit-for-bit the unobserved one.
///
/// A persistent cache reuses the plant-scoped layers across slots. `None`
/// selects the naive reference backend, which scores every candidate with
/// a full [`compute_energy`](crate::energy::compute_energy); the
/// differential suites compare against it, and nothing else selects it.
/// The search result is bit-identical across `cache` choices; only
/// wall-clock and the work-performed counters differ.
pub fn anneal_with_cache(
    ctx: &EnergyContext<'_>,
    initial: &Topology,
    config: &AnnealConfig,
    cache: Option<&mut EnergyCache>,
    telemetry: &CoreTelemetry,
) -> AnnealResult {
    let rate_inputs = ctx.rate_inputs(telemetry);
    anneal_chain(ctx, initial, config, cache, &rate_inputs, telemetry, 0)
}

/// [`anneal_with_cache`] tagged with a chain index: every sampled
/// trajectory event carries a `chain` field so per-slot traces from
/// concurrent chains stay attributable after they interleave in the
/// recorder ring. Sequential entry points are chain 0. `rate_inputs` are
/// the run's, shared by its chains.
fn anneal_chain(
    ctx: &EnergyContext<'_>,
    initial: &Topology,
    config: &AnnealConfig,
    cache: Option<&mut EnergyCache>,
    rate_inputs: &RateInputs<'_>,
    telemetry: &CoreTelemetry,
    chain: u64,
) -> AnnealResult {
    let _span = telemetry.anneal.enter();
    let _region = ctx.prof.region("anneal");
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut eval = EnergyEvaluator::new(ctx, cache, rate_inputs, telemetry);

    let mut current = initial.clone();
    let mut current_e = eval.score_initial(&current);
    eval.accept();
    let initial_energy_gbps = current_e;
    let mut units = LinkUnits::of(&current);
    // The neighbor under evaluation: `current` with the move drawn
    // applied, and undone again unless it is accepted.
    let mut neighbor = current.clone();

    // Best-so-far snapshot, held lazily: `best_held == false` means the
    // best state *is* the current state, so improvement streaks cost no
    // copies at all; a snapshot (of the topology and of its build) happens
    // only when the walk accepts a move away from the best state. Correct
    // because an improving neighbor (`neighbor_e > best_e`) always
    // satisfies `neighbor_e >= current_e` (the invariant `best_e >=
    // current_e` holds throughout) and is therefore always accepted.
    let mut best = Topology::empty(0);
    let mut best_held = false;
    let mut best_e = current_e;

    // Initial temperature = current throughput (Alg 1 line 4); keep it
    // strictly positive so the loop runs even from an idle network.
    let mut temperature = current_e.max(config.epsilon * 2.0);
    let mut iterations = 0;
    let sample_every = (config.max_iterations / TRAJECTORY_SAMPLES).max(1);

    while temperature > config.epsilon && iterations < config.max_iterations {
        let iter_span = telemetry.anneal_iter.enter();
        let Some(mv) = units.draw(&mut rng) else {
            iter_span.cancel();
            break;
        };
        let moved = Moved::of_move(mv.0);
        // Algorithm 2 gives back `current` itself when the two units it
        // picks share the pivot site; that energy is known.
        let identity = moved.is_empty();
        let neighbor_e = if identity {
            telemetry.anneal_identity_moves.incr();
            current_e
        } else {
            mv.apply(&mut neighbor);
            eval.score_move(&neighbor, &moved)
        };

        let improved = neighbor_e > best_e;
        if improved {
            best_e = neighbor_e;
        }

        // Metropolis acceptance (an identity move is accepted without a
        // draw, as any move that is no worse).
        let accept = if neighbor_e >= current_e {
            true
        } else {
            let p = ((neighbor_e - current_e) / temperature).exp();
            rng.random::<f64>() < p
        };
        debug_assert!(!improved || accept, "an improving move is always accepted");
        if accept {
            telemetry.anneal_accepted.incr();
            // Accepting `current` itself changes nothing.
            if !identity {
                if improved {
                    // The new current state becomes the best; drop any
                    // older snapshot.
                    best_held = false;
                } else if !best_held {
                    // Walking away from the best state: snapshot it first.
                    best.clone_from(&current);
                    eval.keep_best();
                    best_held = true;
                }
                mv.apply(&mut current);
                units.apply(&moved);
                debug_assert!(
                    {
                        let fresh = LinkUnits::of(&current);
                        (fresh.links == units.links) && (fresh.ends == units.ends)
                    },
                    "the merged link list is the accepted topology's"
                );
                eval.accept();
                current_e = neighbor_e;
            }
        } else {
            telemetry.anneal_rejected.incr();
            if !identity {
                mv.undo(&mut neighbor);
            }
        }

        if telemetry.recorder.is_enabled() && iterations % sample_every == 0 {
            telemetry.recorder.event(
                names::EVENT_ANNEAL_SAMPLE,
                &[
                    ("chain", Value::U64(chain)),
                    ("iteration", Value::U64(iterations as u64)),
                    ("temperature", Value::F64(temperature)),
                    ("current_gbps", Value::F64(current_e)),
                    ("best_gbps", Value::F64(best_e)),
                ],
            );
        }
        iter_span.finish();

        temperature *= config.alpha;
        iterations += 1;
    }
    telemetry.anneal_iterations.add(iterations as u64);

    // Circuits and allocations are produced here, once, for the winner:
    // the evaluations above kept only their scores.
    let best_is_accepted = !best_held;
    let topology = if best_held { best } else { current };
    let outcome = eval.finish(&topology, best_is_accepted);
    debug_assert_eq!(
        outcome.energy_gbps().to_bits(),
        best_e.to_bits(),
        "the winner's outcome has the energy it was scored at"
    );
    AnnealResult {
        topology,
        outcome,
        initial_energy_gbps,
        iterations,
    }
}

/// The per-chain seed of chain `i`: chain 0 keeps the configured seed
/// verbatim (so a 1-chain parallel run replays the sequential run), later
/// chains decorrelate via a golden-ratio multiply. Public so benchmarks
/// and tests can replay individual chains sequentially.
pub fn chain_seed(seed: u64, i: usize) -> u64 {
    seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Runs `chains` independently-seeded annealing chains and returns the
/// best result, with deterministic reduction: chains are compared in chain
/// order and a later chain replaces the incumbent only on *strictly*
/// greater energy, so ties always resolve to the lowest chain index —
/// scheduling cannot influence the winner.
///
/// The caches are the caller's, so the plant-scoped cache layers persist
/// across slots: `caches` holds at least `chains` entries, chain `i` uses
/// `caches[i]`, and no cache is shared between threads.
///
/// Chain 0 is the sequential run: with `chains == 1` this executes inline
/// (no thread spawn) and returns exactly what [`anneal_with_cache`] would.
///
/// All chains share `telemetry`: counters and span histograms aggregate
/// across chains, and each sampled trajectory event carries the emitting
/// chain's index in its `chain` field, so interleaved per-slot traces
/// remain attributable.
///
/// `workers` is the worker budget of the evaluation pool: `None` sizes the
/// pool to the machine ([`EvalPool::auto`]), `Some(1)` forces every chain
/// inline on the caller thread (no spawns at all — the right choice on one
/// core, where the old thread-per-chain model paid spawn and scheduler
/// overhead for nothing). The chain → result mapping and the winner are
/// identical for every worker count; only wall-clock changes.
///
/// Before any chain runs, the per-plant precompute (relay domains, reach
/// rows, route table and distance matrix, see [`PlantCache`]) is
/// resolved **once** — recycled from whichever cache already holds it for
/// this plant's key, built fresh otherwise — and offered to every chain's
/// cache, so N chains never redo the all-pairs work N times.
#[allow(clippy::too_many_arguments)]
pub fn anneal_parallel_pooled(
    ctx: &EnergyContext<'_>,
    initial: &Topology,
    config: &AnnealConfig,
    chains: usize,
    caches: &mut [EnergyCache],
    workers: Option<usize>,
    telemetry: &CoreTelemetry,
) -> AnnealResult {
    assert!(chains >= 1, "at least one annealing chain is required");
    assert!(caches.len() >= chains, "pass one cache per chain");
    telemetry.anneal_chains.add(chains as u64);
    let caches = &mut caches[..chains];

    // Hoist the per-plant precompute out of the chains: one Floyd–Warshall
    // pass shared by every chain (and, via the caches, by later slots).
    let key = precompute_key(ctx.plant);
    let shared = caches
        .iter()
        .find_map(|c| c.plant_cache_for(key))
        .unwrap_or_else(|| Arc::new(PlantCache::build(ctx.plant, ctx.fiber_dist)));
    for c in caches.iter_mut() {
        c.install_plant_cache(Arc::clone(&shared));
    }

    if let [cache] = caches {
        return anneal_with_cache(ctx, initial, config, Some(cache), telemetry);
    }

    let pool = match workers {
        Some(w) => EvalPool::with_workers(w),
        None => EvalPool::auto(chains),
    };
    let rate_inputs = &ctx.rate_inputs(telemetry);
    let parallel_region = ctx.prof.region("anneal.parallel");
    let parallel_id = parallel_region.id();
    let spawn_ns = telemetry.recorder.now_ns();
    let tasks: Vec<_> = caches
        .iter_mut()
        .enumerate()
        .map(|(i, cache)| {
            let cfg = AnnealConfig {
                seed: chain_seed(config.seed, i),
                ..*config
            };
            move || {
                // A chain may run on a pool thread, where regions land on a
                // fresh thread-local stack; parent them under the spawning
                // `anneal.parallel` region explicitly.
                let _chain_region = ctx.prof.region_under(parallel_id, "chain");
                let start_ns = telemetry.recorder.now_ns();
                let r = anneal_chain(
                    ctx,
                    initial,
                    &cfg,
                    Some(cache),
                    rate_inputs,
                    telemetry,
                    i as u64,
                );
                (r, start_ns, telemetry.recorder.now_ns())
            }
        })
        .collect();
    let results: Vec<(AnnealResult, u64, u64)> = pool.run(tasks);
    drop(parallel_region);

    // Utilization accounting: summed per-chain busy time over the wall
    // time of the spawn-to-join window says how parallel the run really
    // was (`busy / wall ≈ 1` means the chains effectively serialized —
    // the observed ~0.95× "speedup" on one core). All clock reads come
    // from the recorder and are 0 when it is disabled, so the math below
    // degenerates to counting zeros into no-op counters.
    let wall_ns = telemetry.recorder.now_ns().saturating_sub(spawn_ns);
    telemetry.anneal_parallel_wall_ns.add(wall_ns);
    if telemetry.recorder.is_enabled() {
        for (i, (_, start_ns, end_ns)) in results.iter().enumerate() {
            let busy_ns = end_ns.saturating_sub(*start_ns);
            telemetry.anneal_parallel_busy_ns.add(busy_ns);
            telemetry.recorder.event(
                names::EVENT_CHAIN_TIMING,
                &[
                    ("chain", Value::U64(i as u64)),
                    (
                        "start_offset_ns",
                        Value::U64(start_ns.saturating_sub(spawn_ns)),
                    ),
                    ("busy_ns", Value::U64(busy_ns)),
                    ("wall_ns", Value::U64(wall_ns)),
                ],
            );
        }
    }

    let mut winner: Option<AnnealResult> = None;
    for (r, _, _) in results {
        winner = match winner {
            Some(w) if r.energy_gbps() <= w.energy_gbps() => Some(w),
            _ => Some(r),
        };
    }
    winner.expect("chains >= 1")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuits::CircuitBuildConfig;
    use crate::rates::RateAssignConfig;
    use crate::types::{SchedulingPolicy, Transfer};
    use owan_optical::{FiberPlant, OpticalParams};

    fn ring_plant(n: usize, ports: u32) -> FiberPlant {
        let params = OpticalParams {
            wavelength_capacity_gbps: 10.0,
            wavelengths_per_fiber: 8,
            ..Default::default()
        };
        let mut p = FiberPlant::new(params);
        for i in 0..n {
            p.add_site(&format!("S{i}"), ports, 1);
        }
        for i in 0..n {
            p.add_fiber(i, (i + 1) % n, 300.0);
        }
        p
    }

    fn transfer(id: usize, src: usize, dst: usize, gbits: f64) -> Transfer {
        Transfer {
            id,
            src,
            dst,
            volume_gbits: gbits,
            remaining_gbits: gbits,
            arrival_s: 0.0,
            deadline_s: None,
            starved_slots: 0,
        }
    }

    #[test]
    fn neighbor_preserves_degrees() {
        let mut t = Topology::empty(5);
        t.add_links(0, 1, 2);
        t.add_links(1, 2, 1);
        t.add_links(3, 4, 2);
        let degrees: Vec<u32> = (0..5).map(|v| t.degree(v)).collect();
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..50 {
            if let Some(n) = compute_neighbor(&t, &mut rng) {
                let nd: Vec<u32> = (0..5).map(|v| n.degree(v)).collect();
                assert_eq!(degrees, nd, "degree must be invariant");
                assert!(n.link_distance(&t) <= 4, "at most four links change");
            }
        }
    }

    #[test]
    fn neighbor_none_on_tiny_topologies() {
        let t = Topology::empty(3);
        let mut rng = StdRng::seed_from_u64(0);
        assert!(compute_neighbor(&t, &mut rng).is_none());

        let mut one = Topology::empty(3);
        one.add_links(0, 1, 1);
        assert!(compute_neighbor(&one, &mut rng).is_none());
    }

    #[test]
    fn anneal_improves_mismatched_topology() {
        // Demand is 0<->1 and 2<->3 heavy, but the initial topology wastes
        // ports on a ring; annealing should find extra direct capacity.
        let plant = ring_plant(4, 2);
        let fd = plant.fiber_distance_matrix();
        let transfers = vec![transfer(0, 0, 1, 100.0), transfer(1, 2, 3, 100.0)];
        let ctx = EnergyContext {
            plant: &plant,
            fiber_dist: &fd,
            transfers: &transfers,
            policy: SchedulingPolicy::ShortestJobFirst,
            slot_len_s: 1.0,
            circuit_config: CircuitBuildConfig::default(),
            rate_config: RateAssignConfig::default(),
            prof: owan_prof::Profiler::disabled(),
        };
        let mut ring = Topology::empty(4);
        for i in 0..4 {
            ring.add_links(i, (i + 1) % 4, 1);
        }
        let res = anneal(&ctx, &ring, &AnnealConfig::default());
        assert!(
            res.energy_gbps() >= res.initial_energy_gbps,
            "best is never worse than initial"
        );
        assert!(
            res.energy_gbps() > res.initial_energy_gbps + 1.0,
            "annealing should find a better topology: {} -> {}",
            res.initial_energy_gbps,
            res.energy_gbps()
        );
    }

    #[test]
    fn anneal_is_deterministic_per_seed() {
        let plant = ring_plant(5, 2);
        let fd = plant.fiber_distance_matrix();
        let transfers = vec![transfer(0, 0, 2, 50.0), transfer(1, 1, 3, 50.0)];
        let ctx = EnergyContext {
            plant: &plant,
            fiber_dist: &fd,
            transfers: &transfers,
            policy: SchedulingPolicy::ShortestJobFirst,
            slot_len_s: 1.0,
            circuit_config: CircuitBuildConfig::default(),
            rate_config: RateAssignConfig::default(),
            prof: owan_prof::Profiler::disabled(),
        };
        let mut ring = Topology::empty(5);
        for i in 0..5 {
            ring.add_links(i, (i + 1) % 5, 1);
        }
        let cfg = AnnealConfig {
            seed: 7,
            ..Default::default()
        };
        let a = anneal(&ctx, &ring, &cfg);
        let b = anneal(&ctx, &ring, &cfg);
        assert_eq!(a.topology, b.topology);
        assert_eq!(a.energy_gbps(), b.energy_gbps());
    }

    #[test]
    fn starvation_promotions_count_once_per_run_not_per_evaluation() {
        let plant = ring_plant(5, 2);
        let fd = plant.fiber_distance_matrix();
        let mut starved = transfer(1, 1, 3, 50.0);
        starved.starved_slots = RateAssignConfig::default().starvation_threshold;
        let transfers = vec![transfer(0, 0, 2, 50.0), starved];
        let ctx = EnergyContext {
            plant: &plant,
            fiber_dist: &fd,
            transfers: &transfers,
            policy: SchedulingPolicy::ShortestJobFirst,
            slot_len_s: 1.0,
            circuit_config: CircuitBuildConfig::default(),
            rate_config: RateAssignConfig::default(),
            prof: owan_prof::Profiler::disabled(),
        };
        let mut ring = Topology::empty(5);
        for i in 0..5 {
            ring.add_links(i, (i + 1) % 5, 1);
        }
        let cfg = AnnealConfig {
            max_iterations: 20,
            ..Default::default()
        };
        // One chain, cached and naive, and four chains sharing one order.
        for (chains, cached) in [(1, true), (1, false), (4, true)] {
            let recorder = owan_obs::Recorder::enabled();
            let telemetry = CoreTelemetry::new(&recorder);
            if cached {
                let mut caches: Vec<EnergyCache> =
                    (0..chains).map(|_| EnergyCache::new()).collect();
                anneal_parallel_pooled(&ctx, &ring, &cfg, chains, &mut caches, None, &telemetry);
            } else {
                anneal_with_cache(&ctx, &ring, &cfg, None, &telemetry);
            }
            assert!(recorder.counter("rates.full_evals").get() > chains as u64);
            assert_eq!(
                recorder.counter("rates.starvation_promotions").get(),
                1,
                "{chains} chains, cached {cached}"
            );
        }
    }
}
