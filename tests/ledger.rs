//! The circuit ledger against the naive build, evaluation by evaluation,
//! and the route table it reads segments from against per-pair routing.
//!
//! An annealing evaluation builds a flat `TopologyLedger` — incrementally
//! from the accepted state's — and keeps a score; `Circuit`s and
//! `Allocation`s exist only for the winner. Debug builds assert every
//! ledger against the naive build inside `owan-core`; this suite makes the
//! same comparison with plain `assert_eq!`, so it holds in release builds
//! too (CI runs it there: the benchmark runs release binaries), on walks
//! the annealer's own acceptance rule would not take: seeded coin flips,
//! runs of rejections from one accepted state, returns to earlier
//! topologies and candidates too far away to resume from.

mod common;

use common::{context, fixture_on, scarce_network};
use owan::chaos::{FaultKind, FaultState};
use owan::core::anneal::compute_neighbor;
use owan::core::{
    compute_energy, CoreTelemetry, EnergyCache, EnergyEvaluator, Topology, Transfer,
    MAX_DELTA_UNITS,
};
use owan::optical::RouteTable;
use owan::topo::Network;
use owan_bench::net_by_name;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

const MOVES: usize = 80;
const SEEDS: u64 = 6;

/// What one walk met, for the non-vacuity checks.
#[derive(Default)]
struct Census {
    scored: usize,
    rejected_twice_in_a_row: usize,
    returns: usize,
    far: usize,
}

/// `steps` neighbor moves applied in sequence.
fn far_neighbor(from: &Topology, rng: &mut StdRng, steps: usize) -> Option<Topology> {
    let mut t = from.clone();
    for _ in 0..steps {
        t = compute_neighbor(&t, rng)?;
    }
    Some(t)
}

/// Walks `MOVES` candidates from `initial` through one evaluator, checking
/// every score and its ledger against `compute_energy`, then finishes on
/// the accepted state (even seeds) or on an earlier one (odd seeds).
fn walk(net: &Network, transfers: &[Transfer], initial: &Topology, seed: u64, census: &mut Census) {
    let fiber_dist = net.plant.fiber_distance_matrix();
    let ctx = context(net, &fiber_dist, transfers);
    let routes = RouteTable::build(&net.plant);
    let telemetry = CoreTelemetry::disabled();
    let rate_inputs = ctx.rate_inputs(&telemetry);
    let mut cache = EnergyCache::new();
    let mut eval = EnergyEvaluator::new(&ctx, Some(&mut cache), &rate_inputs, &telemetry);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xA076_1D64_78BD_642F);
    let tag = |step: usize| format!("{} seed {seed} step {step}", net.name);

    let check = |eval: &mut EnergyEvaluator<'_, '_>,
                 desired: &Topology,
                 basis: Option<&Topology>,
                 step: usize| {
        let score = eval.score(desired, basis);
        let want = compute_energy(&ctx, desired);
        let ledger = eval.scored().expect("the cached backend keeps a ledger");
        let built = ledger.materialise(&net.plant, &routes);
        assert_eq!(built.achieved, want.built.achieved, "{}", tag(step));
        assert_eq!(built.optical, want.built.optical, "{}", tag(step));
        assert_eq!(built.circuits, want.built.circuits, "{}", tag(step));
        assert_eq!(ledger.achieved(), &want.built.achieved, "{}", tag(step));
        assert_eq!(
            score.to_bits(),
            want.energy_gbps().to_bits(),
            "{}",
            tag(step)
        );
    };

    let mut current = initial.clone();
    check(&mut eval, &current, None, 0);
    eval.accept();
    // Accepted states before the current one, oldest first.
    let mut earlier: Vec<Topology> = Vec::new();
    let mut rejections = 0;
    for step in 1..=MOVES {
        let candidate = match step % 20 {
            // Too far to resume from: the build falls back to a full one.
            7 => {
                let far = far_neighbor(&current, &mut rng, 4)
                    .filter(|t| t.link_distance(&current) > MAX_DELTA_UNITS);
                census.far += usize::from(far.is_some());
                far
            }
            // Back to a topology accepted (and scored) before.
            13 if earlier.len() >= 2 => {
                census.returns += 1;
                Some(earlier[earlier.len() - 2].clone())
            }
            _ => None,
        };
        let Some(candidate) = candidate.or_else(|| compute_neighbor(&current, &mut rng)) else {
            break;
        };
        check(&mut eval, &candidate, Some(&current), step);
        census.scored += 1;
        // A seeded coin, with rejections forced at the start of every ten
        // steps so that neighbors in a row are scored from one accepted
        // state.
        let accept = step % 10 > 2 && rng.random::<bool>();
        if accept {
            rejections = 0;
            earlier.push(std::mem::replace(&mut current, candidate));
            eval.accept();
        } else {
            rejections += 1;
            census.rejected_twice_in_a_row += usize::from(rejections == 2);
        }
    }

    let (best, best_is_accepted) = match earlier.first() {
        Some(first) if seed % 2 == 1 => (first, false),
        _ => (&current, true),
    };
    let outcome = eval.finish(best, best_is_accepted);
    assert_eq!(
        outcome,
        compute_energy(&ctx, best),
        "{} seed {seed}: finish",
        net.name
    );
    assert!(
        cache.stats.delta_pairs_reused > 0,
        "{} seed {seed}",
        net.name
    );
    assert!(
        cache.stats.delta_pairs_rebuilt > 0,
        "{} seed {seed}",
        net.name
    );
}

fn walk_family(nets: impl Fn(u64) -> Network) {
    let mut census = Census::default();
    let mut name = String::new();
    for seed in 0..SEEDS {
        let (net, transfers, initial) = fixture_on(nets(seed), seed);
        walk(&net, &transfers, &initial, seed, &mut census);
        name = net.name;
    }
    assert!(census.scored > SEEDS as usize * MOVES / 2, "{name}");
    assert!(census.rejected_twice_in_a_row >= SEEDS as usize, "{name}");
    assert!(
        census.returns > 0,
        "{name}: no return to an earlier topology"
    );
    assert!(
        census.far > 0,
        "{name}: no candidate beyond the delta bound"
    );
}

#[test]
fn ledger_equals_the_naive_build_on_the_benchmark_networks() {
    for name in ["internet2", "isp", "interdc"] {
        walk_family(|_| net_by_name(name));
    }
}

#[test]
fn ledger_equals_the_naive_build_on_scarce_plants() {
    for family in ["isp", "interdc", "stressed"] {
        walk_family(|seed| scarce_network(family, seed));
    }
}

/// The route table the ledger reads segments from against the per-pair
/// reference, `FiberPlant::shortest_fiber_route`: pair for pair, lengths
/// bit-equal, on the benchmark plants and on a fiber-cut and a site-down
/// view of each — both renumber the surviving fibers, and the site-down
/// view leaves a site with no fiber at all.
#[test]
fn route_table_equals_pointwise_routes_on_real_plants() {
    for name in ["internet2", "isp", "interdc"] {
        let base = net_by_name(name).plant;
        let (m, n) = (base.fiber_count(), base.site_count());
        let mut cut = FaultState::default();
        cut.apply(&FaultKind::FiberCut(m / 3));
        cut.apply(&FaultKind::FiberCut(2 * m / 3));
        let mut down = FaultState::default();
        down.apply(&FaultKind::SiteDown(n / 2));
        let views = [
            ("intact", base.clone()),
            ("fiber cut", cut.degraded_view(&base).0),
            ("site down", down.degraded_view(&base).0),
        ];
        for (view, plant) in &views {
            let table = RouteTable::build(plant);
            assert_eq!(table.site_count(), n);
            let mut disconnected = 0;
            for src in 0..n {
                for dst in 0..n {
                    let tag = format!("{name} {view}: {src}->{dst}");
                    let want = plant.shortest_fiber_route(src, dst);
                    let got = table.route(src, dst);
                    assert_eq!(got.is_some(), want.is_some(), "{tag}");
                    let (Some(got), Some((fibers, sites, length_km))) = (got, want) else {
                        disconnected += 1;
                        continue;
                    };
                    assert_eq!(got.fibers, fibers, "{tag}");
                    assert_eq!(got.sites, sites, "{tag}");
                    assert_eq!(got.length_km.to_bits(), length_km.to_bits(), "{tag}");
                }
            }
            if *view == "site down" {
                assert!(disconnected > 0, "{name}: the down site has no route");
            }
        }
        assert!(views[1].1.fiber_count() < m && views[2].1.fiber_count() < m);
    }
}
