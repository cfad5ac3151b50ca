//! Heap allocations of the annealing fast path, counted.
//!
//! An evaluation builds its circuits into a reused ledger and stops the
//! rate pass at the throughput, so in steady state it allocates nothing;
//! a whole run allocates what its *winner* needs (`Circuit`s and
//! `Allocation`s, built once) and little else. The bounds hold where debug
//! assertions are off — with them on, every evaluation also builds the
//! naive references it is compared against — so `cargo test` runs the same
//! calls and checks only that the counter counts; CI runs this suite with
//! `--release`.

mod common;

use common::{context, fixture};
use owan::core::anneal::compute_neighbor;
use owan::core::{
    anneal_with_cache, AnnealConfig, CoreTelemetry, EnergyCache, EnergyEvaluator, Topology,
};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations made by this thread (tests run on parallel threads and
    /// must not see each other's).
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting `alloc` and `realloc` calls per thread.
struct Counting;

impl Counting {
    fn count() {
        // `try_with`: a thread being torn down may free after its
        // thread-locals are gone.
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    }
}

// SAFETY: every operation is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter is a `const`-initialised
// thread-local `Cell<u64>` with no destructor, so touching it neither
// allocates nor re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::count();
        // SAFETY: the caller's obligations are `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with
        // this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::count();
        // SAFETY: as for `dealloc`; the caller's obligations are
        // `System.realloc`'s.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations this thread makes while `f` runs.
fn allocations_in<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

#[test]
fn the_counter_counts() {
    let (v, n) = allocations_in(|| Vec::<u64>::with_capacity(32));
    assert_eq!((v.capacity(), n), (32, 1));
    let ((), n) = allocations_in(|| drop(v));
    assert_eq!(n, 0, "frees are not counted");
}

/// 200 evaluations on the ISP after a 5-evaluation warm-up: a seeded walk
/// that accepts half its moves, so both ledgers and the swap are in play.
#[test]
fn steady_state_scores_allocate_nothing() {
    const WARM_UP: usize = 5;
    const MEASURED: usize = 200;
    let (net, transfers, initial) = fixture("isp", 1);
    let fiber_dist = net.plant.fiber_distance_matrix();
    let ctx = context(&net, &fiber_dist, &transfers);
    let telemetry = CoreTelemetry::disabled();
    let rate_inputs = ctx.rate_inputs(&telemetry);

    // The walk, decided before anything is counted: (basis, candidate,
    // accept) per step.
    let mut rng = StdRng::seed_from_u64(1);
    let mut current = initial.clone();
    let mut steps: Vec<(Topology, Topology, bool)> = Vec::new();
    for _ in 0..WARM_UP + MEASURED {
        let candidate = compute_neighbor(&current, &mut rng).expect("the ISP has neighbors");
        let accept = rng.random::<bool>();
        steps.push((current.clone(), candidate.clone(), accept));
        if accept {
            current = candidate;
        }
    }

    let mut cache = EnergyCache::new();
    let mut eval = EnergyEvaluator::new(&ctx, Some(&mut cache), &rate_inputs, &telemetry);
    let mut total = eval.score(&initial, None);
    eval.accept();
    let mut run = |steps: &[(Topology, Topology, bool)]| {
        for (basis, candidate, accept) in steps {
            total += eval.score(candidate, Some(basis));
            if *accept {
                eval.accept();
            }
        }
    };
    run(&steps[..WARM_UP]);
    let ((), allocations) = allocations_in(|| run(&steps[WARM_UP..]));
    assert!(total > 0.0, "the walk scored something");
    if cfg!(debug_assertions) {
        assert!(allocations > 0, "debug builds build the naive references");
    } else {
        assert_eq!(allocations, 0, "{MEASURED} steady-state evaluations");
    }
}

/// A whole 40-iteration run on a cache an earlier run warmed (the
/// plant-scoped precompute is per plant, not per run).
#[test]
fn a_run_allocates_for_its_winner_only() {
    let (net, transfers, initial) = fixture("isp", 1);
    let fiber_dist = net.plant.fiber_distance_matrix();
    let ctx = context(&net, &fiber_dist, &transfers);
    let telemetry = CoreTelemetry::disabled();
    let config = AnnealConfig {
        max_iterations: 40,
        seed: 1,
        ..Default::default()
    };
    let mut cache = EnergyCache::new();
    let warm = anneal_with_cache(&ctx, &initial, &config, Some(&mut cache), &telemetry);
    let (run, allocations) =
        allocations_in(|| anneal_with_cache(&ctx, &initial, &config, Some(&mut cache), &telemetry));
    assert_eq!(run.iterations, 40);
    assert_eq!(run.outcome, warm.outcome);
    if !cfg!(debug_assertions) {
        assert!(allocations < 3_000, "{allocations} allocations in one run");
    }
}
