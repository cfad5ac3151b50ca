//! Differential tests of the dense relay kernel (`RelaySearch` over
//! `ReachRows`, and `relay_k_shortest`, which is "start, draw k, collect")
//! against the reference it replaces on the fast circuit builders' path:
//! `RegenGraph::build_with_free_regens(..).relay_candidates_with_costs(k)`.
//! Paths must be equal and in the same order, costs equal bit for bit —
//! whether asked for `k` at once or drawn one at a time.

use owan_core::{relay_k_shortest, PlantCache, ReachRows, RegenGraph, RelayScratch, RelaySearch};
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
        let want = self.reference(free, src, dst, k);
        let got: Vec<_> = relay_k_shortest(&self.reach, free, src, dst, k, &mut self.scratch)
            .into_iter()
            .map(|(p, c)| (p, c.to_bits()))
            .collect();
        prop_assert_eq!(&got, &want, "{}->{} k={}", src, dst, k);
        Ok(got.len())
    }

    /// Draws `(src, dst)` one path at a time until the search runs dry
    /// (at most `cap` draws) and returns the paths with their cost bits.
    fn draw_all(
        &mut self,
        free: &[u32],
        src: usize,
        dst: usize,
        cap: usize,
    ) -> Vec<(Vec<usize>, u64)> {
        let mut search = RelaySearch::start(&self.reach, free, src, dst, &mut self.scratch);
        let mut out = Vec::new();
        while out.len() < cap {
            let Some((path, cost)) = search.next_path() else {
                break;
            };
            out.push((path.to_vec(), cost.to_bits()));
        }
        out
    }

    /// The reference's `k` paths with their cost bits.
    fn reference(&self, free: &[u32], src: usize, dst: usize, k: usize) -> Vec<(Vec<usize>, u64)> {
        reference(&self.plant, &self.fiber_dist, free, src, dst, k)
    }
}

fn reference(
    plant: &FiberPlant,
    fiber_dist: &[Vec<f64>],
    free: &[u32],
    src: usize,
    dst: usize,
    k: usize,
) -> Vec<(Vec<usize>, u64)> {
    RegenGraph::build_with_free_regens(plant, free, fiber_dist, src, dst)
        .relay_candidates_with_costs(k)
        .into_iter()
        .map(|(p, c)| (p, c.to_bits()))
        .collect()
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// One path per call, to exhaustion: after `j` draws the search has
    /// handed out the reference's list of length `j`, for every `j` up to
    /// 8 — and once it runs dry it stays dry, where the reference asked
    /// for more paths returns no more either.
    #[test]
    fn drawing_one_at_a_time_equals_the_reference_list_of_every_length(
        (free, seed) in (4usize..13).prop_flat_map(|n| (arb_free(n), any::<u64>())),
    ) {
        const MAX_K: usize = 8;
        let n = free.len();
        let p = plant(&vec![3; n], seed, false);
        let fd = p.fiber_distance_matrix();
        let Fixture {
            plant,
            fiber_dist,
            reach,
            mut scratch,
        } = Fixture::new(p, fd);
        for src in 0..n {
            for dst in 0..n {
                if src == dst {
                    continue;
                }
                let longest = reference(&plant, &fiber_dist, &free, src, dst, MAX_K + 4);
                let mut search =
                    RelaySearch::start(&reach, &free, src, dst, &mut scratch);
                for j in 1..=MAX_K {
                    let drew = search.next_path().map(|(p, c)| (p.to_vec(), c.to_bits()));
                    prop_assert_eq!(drew.as_ref(), longest.get(j - 1), "{}->{} draw {}", src, dst, j);
                    let drawn: Vec<_> =
                        search.drawn().map(|(p, c)| (p.to_vec(), c.to_bits())).collect();
                    // The reference asked for exactly `j` paths: a prefix
                    // of the longer run, and what has been drawn so far.
                    let want = reference(&plant, &fiber_dist, &free, src, dst, j);
                    prop_assert_eq!(&drawn, &want, "{}->{} after {} draws", src, dst, j);
                    prop_assert!(search.matches_reference(&plant, &free, &fiber_dist));
                    if drew.is_none() {
                        // Past exhaustion: dry for good.
                        prop_assert!(search.next_path().is_none());
                        prop_assert_eq!(search.drawn().count(), longest.len());
                        break;
                    }
                }
            }
        }
    }

    /// A search dropped after `j` draws — found paths, pool and bans left
    /// in the scratch — must not leak into the next search on another
    /// pair, under another vector.
    #[test]
    fn an_abandoned_search_leaves_the_scratch_good_for_another_pair(
        (free, other, seed) in (5usize..13)
            .prop_flat_map(|n| (arb_free(n), arb_free(n), any::<u64>())),
        j in 0usize..5,
        picks in proptest::collection::vec((any::<usize>(), any::<usize>()), 12),
    ) {
        let n = free.len();
        let p = plant(&vec![3; n], seed, false);
        let fd = p.fiber_distance_matrix();
        let mut fx = Fixture::new(p, fd);
        for pair in picks.windows(2) {
            let (a, b) = (pair[0].0 % n, pair[0].1 % n);
            let (c, d) = (pair[1].0 % n, pair[1].1 % n);
            if a == b || c == d {
                continue;
            }
            let abandoned = fx.draw_all(&free, a, b, j);
            prop_assert_eq!(abandoned, fx.reference(&free, a, b, j));
            let full = fx.draw_all(&other, c, d, 6);
            prop_assert_eq!(full, fx.reference(&other, c, d, 6), "{}->{} after {}->{}", c, d, a, b);
        }
    }

    /// The theorem the delta rebuild's dirty-set screen rests on: two
    /// free-regenerator vectors that agree on `PlantCache::domain(u, v)`
    /// give the pair identical draws, whatever they hold elsewhere. The
    /// plant's own counts decide the domains here, and every vector stays
    /// below them (`free <= total`); on these plants about three pairs in
    /// four have an equipped site outside their domain for the vectors to
    /// differ on (the line plant below is the hand-made case).
    #[test]
    fn vectors_equal_on_the_relay_domain_give_identical_draws(
        (total, noise, seed) in (5usize..14).prop_flat_map(|n| {
            (
                proptest::collection::vec(0u32..4, n),
                proptest::collection::vec((any::<u32>(), any::<u32>()), n),
                any::<u64>(),
            )
        }),
    ) {
        let n = total.len();
        let p = plant(&total, seed, false);
        let fd = p.fiber_distance_matrix();
        let pc = PlantCache::build(&p, &fd);
        let mut fx = Fixture::new(p, fd);
        let below = |pick: fn(&(u32, u32)) -> u32| -> Vec<u32> {
            total.iter().zip(&noise).map(|(&t, x)| pick(x) % (t + 1)).collect()
        };
        let a = below(|x| x.0);
        for u in 0..n {
            for v in 0..n {
                if u == v {
                    continue;
                }
                // `b` copies `a` on the domain and differs freely off it.
                let mut b = below(|x| x.1);
                let domain = pc.domain(u, v);
                for &s in domain {
                    b[s] = a[s];
                }
                let da = fx.draw_all(&a, u, v, 8);
                let db = fx.draw_all(&b, u, v, 8);
                prop_assert_eq!(&da, &db, "{}->{} domain {:?}", u, v, domain);
                prop_assert_eq!(da, fx.reference(&a, u, v, 8));
            }
        }
    }
}

/// Line 0-1-2-3 with 400 km hops and reach 500: site 2 has no
/// regenerators, so site 3 cannot be reached from 0 or 2 through equipped
/// interiors — it is outside the (0, 2) relay domain, and spending its
/// regenerators must not change what the pair draws. (Moved here from the
/// relay-candidate cache's unit tests, whose class key relied on it.)
#[test]
fn a_site_outside_the_domain_cannot_change_the_draws() {
    let mut p = FiberPlant::new(OpticalParams {
        optical_reach_km: 500.0,
        ..Default::default()
    });
    for regens in [2, 2, 0, 2] {
        p.add_site(&format!("S{}", p.site_count()), 4, regens);
    }
    for i in 0..3 {
        p.add_fiber(i, i + 1, 400.0);
    }
    let fd = p.fiber_distance_matrix();
    let pc = PlantCache::build(&p, &fd);
    assert_eq!(pc.domain(0, 2), [1]);
    let mut fx = Fixture::new(p, fd);
    let full = vec![2, 2, 0, 2];
    let spent3 = vec![2, 2, 0, 0];
    let want = vec![(vec![0, 1, 2], 0.5f64.to_bits())];
    assert_eq!(fx.draw_all(&full, 0, 2, 4), want);
    assert_eq!(fx.draw_all(&spent3, 0, 2, 4), want);
    // An in-domain change does move the draw's cost.
    let spent1 = vec![2, 1, 0, 2];
    assert_eq!(
        fx.draw_all(&spent1, 0, 2, 4),
        vec![(vec![0, 1, 2], 1.0f64.to_bits())]
    );
}

/// Endpoints within reach of each other: the first draw is the direct
/// circuit `[src, dst]` at cost 0 (no regenerator is cheaper than none),
/// and relayed detours follow it.
#[test]
fn a_within_reach_pair_draws_the_direct_path_first() {
    let p = plant(&[2; 6], 7, false);
    let fd = p.fiber_distance_matrix();
    let mut fx = Fixture::new(p, fd);
    let free = vec![2; 6];
    let mut within = 0;
    for src in 0..6 {
        for dst in 0..6 {
            if src == dst || fx.fiber_dist[src][dst] > REACH_KM {
                continue;
            }
            within += 1;
            let draws = fx.draw_all(&free, src, dst, 3);
            assert_eq!(draws[0], (vec![src, dst], 0f64.to_bits()), "{src}->{dst}");
            assert!(draws[1..]
                .iter()
                .all(|(p, c)| p.len() > 2 && f64::from_bits(*c) > 0.0));
        }
    }
    assert!(within >= 6, "the ring's neighbors are within reach");
}

/// The direct-pair shortcut on the plants the benchmark runs: for every
/// within-reach ordered pair of the ISP and inter-DC backbones, the first
/// draw — which runs no Dijkstra — and the Yen rounds after it are the
/// reference's, under random free-regenerator vectors below the plant's
/// counts, the plant's own vector and the all-zero one.
#[test]
fn within_reach_pairs_of_the_benchmark_plants_equal_the_reference() {
    for net in [owan_topo::isp_backbone(7), owan_topo::inter_dc(7)] {
        let total: Vec<u32> = net.plant.sites().iter().map(|s| s.regenerators).collect();
        let n = total.len();
        let fd = net.plant.fiber_distance_matrix();
        let reach_km = net.plant.params().optical_reach_km;
        let mut fx = Fixture::new(net.plant.clone(), fd);
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut vectors = vec![total.clone(), vec![0; n]];
        for _ in 0..3 {
            vectors.push(
                total
                    .iter()
                    .map(|&t| {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        (x % (u64::from(t) + 1)) as u32
                    })
                    .collect(),
            );
        }
        let mut within = 0;
        for free in &vectors {
            for src in 0..n {
                for dst in 0..n {
                    if src == dst || fx.fiber_dist[src][dst] > reach_km {
                        continue;
                    }
                    within += 1;
                    let draws = fx.draw_all(free, src, dst, 3);
                    assert_eq!(
                        draws[0],
                        (vec![src, dst], 0f64.to_bits()),
                        "{}: {src}->{dst}",
                        net.name
                    );
                    assert_eq!(
                        draws,
                        fx.reference(free, src, dst, 3),
                        "{}: {src}->{dst} under {free:?}",
                        net.name
                    );
                }
            }
        }
        assert!(
            within >= 5 * n,
            "{}: {within} within-reach queries",
            net.name
        );
    }
}
