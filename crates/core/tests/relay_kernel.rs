//! Differential tests of the dense relay kernel (`relay_k_shortest` over
//! `ReachRows`) against the reference it replaces on the cache's miss path:
//! `RegenGraph::build_with_free_regens(..).relay_candidates_with_costs(k)`.
//! Paths must be equal and in the same order, costs equal bit for bit.

use owan_core::{relay_k_shortest, ReachRows, RegenGraph, RelayScratch};
use owan_optical::{FiberPlant, OpticalParams};
use proptest::prelude::*;

const REACH_KM: f64 = 900.0;

/// `n` sites with the given regenerator counts, a ring of fibers with
/// seed-derived lengths plus seed-derived chords. The last site stays
/// fiberless when `isolate_last` is set (an unreachable endpoint).
fn plant(regens: &[u32], seed: u64, isolate_last: bool) -> FiberPlant {
    let n = regens.len();
    let mut p = FiberPlant::new(OpticalParams {
        optical_reach_km: REACH_KM,
        ..Default::default()
    });
    for (i, &r) in regens.iter().enumerate() {
        p.add_site(&format!("S{i}"), 4, r);
    }
    let ring = if isolate_last { n - 1 } else { n };
    let mut x = seed | 1;
    let mut next = move || {
        // xorshift64: lengths and chords only need to vary with the seed.
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    for i in 0..ring {
        // Multiples of 50 km: many exact distance ties, some exactly at
        // the reach.
        p.add_fiber(i, (i + 1) % ring, 300.0 + 50.0 * (next() % 10) as f64);
    }
    for _ in 0..ring / 2 {
        let (a, b) = (
            (next() % ring as u64) as usize,
            (next() % ring as u64) as usize,
        );
        if a != b {
            p.add_fiber(a, b, 200.0 + 50.0 * (next() % 12) as f64);
        }
    }
    p
}

/// One plant (or one hand-made distance matrix) with both searches set up
/// over it; the scratch is reused across every query made.
struct Fixture {
    plant: FiberPlant,
    fiber_dist: Vec<Vec<f64>>,
    reach: ReachRows,
    scratch: RelayScratch,
}

impl Fixture {
    fn new(plant: FiberPlant, fiber_dist: Vec<Vec<f64>>) -> Self {
        let reach = ReachRows::build(&plant, &fiber_dist);
        Fixture {
            plant,
            fiber_dist,
            reach,
            scratch: RelayScratch::default(),
        }
    }

    /// Asserts kernel == reference for one query; returns the path count.
    fn check(
        &mut self,
        free: &[u32],
        src: usize,
        dst: usize,
        k: usize,
    ) -> Result<usize, TestCaseError> {
        let want =
            RegenGraph::build_with_free_regens(&self.plant, free, &self.fiber_dist, src, dst)
                .relay_candidates_with_costs(k);
        let got = relay_k_shortest(&self.reach, free, src, dst, k, &mut self.scratch);
        prop_assert_eq!(got.len(), want.len(), "{}->{} k={}", src, dst, k);
        for (g, w) in got.iter().zip(&want) {
            prop_assert_eq!(&g.0, &w.0, "{}->{} k={}", src, dst, k);
            prop_assert_eq!(g.1.to_bits(), w.1.to_bits(), "{}->{} k={}", src, dst, k);
        }
        Ok(got.len())
    }
}

/// Free-regenerator vectors: arbitrary small counts (zeros included), or
/// one count everywhere — every relay weighs the same, so every choice the
/// search makes is a tie-break.
fn arb_free(n: usize) -> impl Strategy<Value = Vec<u32>> {
    (
        proptest::collection::vec(0u32..6, n),
        any::<bool>(),
        1u32..4,
    )
        .prop_map(
            |(mixed, uniform, c)| {
                if uniform {
                    vec![c; mixed.len()]
                } else {
                    mixed
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every ordered pair (so `src > dst` too) of small random plants,
    /// `k` in 1..=6, with one scratch reused across all queries.
    #[test]
    fn kernel_equals_regen_graph_yen(
        (free, seed, isolate) in (4usize..17)
            .prop_flat_map(|n| (arb_free(n), any::<u64>(), any::<bool>())),
        k in 1usize..=6,
    ) {
        let n = free.len();
        // The plant's own counts are irrelevant to both sides: the vector
        // under test is `free`.
        let p = plant(&vec![3; n], seed, isolate);
        let fd = p.fiber_distance_matrix();
        let mut fx = Fixture::new(p, fd);
        let mut unreachable = 0;
        for src in 0..n {
            for dst in 0..n {
                if src != dst && fx.check(&free, src, dst, k)? == 0 {
                    unreachable += 1;
                }
            }
        }
        if isolate {
            prop_assert!(unreachable >= 2 * (n - 1), "the fiberless site reaches nothing");
        }
    }

    /// The distance matrix is a parameter of both sides, so feed them one
    /// no plant would produce — each *ordered* pair independently within
    /// reach or not. The reference tests a node pair from its earlier
    /// node (`src`, `dst`, then sites ascending); the kernel must pick the
    /// same orientation.
    #[test]
    fn kernel_follows_the_reference_orientation_on_asymmetric_distances(
        (free, within) in (4usize..10).prop_flat_map(|n| {
            (arb_free(n), proptest::collection::vec(any::<bool>(), n * n))
        }),
        k in 1usize..=6,
    ) {
        let n = free.len();
        let p = plant(&vec![1; n], 1, false);
        let fd: Vec<Vec<f64>> = (0..n)
            .map(|x| {
                (0..n)
                    .map(|y| if x == y { 0.0 } else if within[x * n + y] { 100.0 } else { 5_000.0 })
                    .collect()
            })
            .collect();
        let mut fx = Fixture::new(p, fd);
        for src in 0..n {
            for dst in 0..n {
                if src != dst {
                    fx.check(&free, src, dst, k)?;
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// More than 64 sites: bitset rows span two words, and pairs straddle
    /// the word boundary.
    #[test]
    fn kernel_equals_reference_on_multi_word_rows(
        (free, seed) in (66usize..80).prop_flat_map(|n| (arb_free(n), any::<u64>())),
        k in 1usize..=6,
        picks in proptest::collection::vec((any::<usize>(), any::<usize>()), 24),
    ) {
        let n = free.len();
        let p = plant(&vec![3; n], seed, false);
        let fd = p.fiber_distance_matrix();
        let mut fx = Fixture::new(p, fd);
        let fixed = [(0, n - 1), (n - 1, 0), (63, 64), (64, 63), (1, 65)];
        for (src, dst) in picks.iter().map(|&(a, b)| (a % n, b % n)).chain(fixed) {
            if src != dst {
                fx.check(&free, src, dst, k)?;
            }
        }
    }
}
