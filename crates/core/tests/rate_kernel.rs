//! Differential tests of the rate kernel (`assign_rates_with`) against the
//! pass it replaced (`assign_rates_reference`): the same transfers get the
//! same paths in the same order, and every rate and the throughput are
//! equal bit for bit. Debug builds assert this inside the kernel on every
//! pass; the benchmark runs release builds, where only this file does
//! (`cargo test --release -p owan-core --test rate_kernel`).

use owan_core::{
    assign_rates, assign_rates_ordered, assign_rates_reference, assign_rates_with, CoreTelemetry,
    RateAssignConfig, RateInputs, RateOutcome, RateScratch, SchedulingPolicy, Topology, Transfer,
};

/// xorshift64: inputs only need to vary with the seed and repeat with it.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }

    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn between(&mut self, lo: usize, hi: usize) -> usize {
        lo + self.below(hi - lo + 1)
    }
}

/// A sparse topology over `n` sites, multiplicities 1–3: the sites are
/// shuffled, about a tenth stay linkless, the rest form one ring or two
/// (two components: transfers between them are cut off with both ends
/// live), and chords shorten the rings.
fn topology(rng: &mut Rng, n: usize) -> Topology {
    let mut topo = Topology::empty(n);
    let mut sites: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        sites.swap(i, rng.below(i + 1));
    }
    let linked = &sites[..n - n / 10];
    let split = if rng.below(3) == 0 {
        linked.len() / 2
    } else {
        linked.len()
    };
    for ring in [&linked[..split], &linked[split..]] {
        for (i, &u) in ring.iter().enumerate() {
            let v = ring[(i + 1) % ring.len()];
            if u != v && topo.multiplicity(u, v) == 0 {
                topo.add_links(u, v, rng.between(1, 3) as u32);
            }
        }
        for _ in 0..ring.len() / 2 {
            let (u, v) = (ring[rng.below(ring.len())], ring[rng.below(ring.len())]);
            if u != v {
                topo.add_links(u, v, 1);
            }
        }
    }
    topo
}

/// A dense topology over `n` sites: each pair linked with probability
/// one half, multiplicities 1–3. A pair then has some `n / 4` common
/// neighbors, more than `max_paths_per_round`, so the limit cuts round
/// 2's ascending sequence, and half the pairs are first served there.
fn dense(rng: &mut Rng, n: usize) -> Topology {
    let mut topo = Topology::empty(n);
    for u in 0..n {
        for v in u + 1..n {
            if rng.below(2) == 0 {
                topo.add_links(u, v, rng.between(1, 3) as u32);
            }
        }
    }
    topo
}

/// Chains over the shuffled sites: lines of 2–12 sites, every third one
/// closed into a ring, multiplicities 1–3. Along a line a site is first
/// reachable as many hops away as it is positions away, up to 11; sites
/// of different chains are unreachable at any depth. Returns the chains
/// with the topology.
fn chains(rng: &mut Rng, n: usize) -> (Topology, Vec<Vec<usize>>) {
    let mut topo = Topology::empty(n);
    let mut sites: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        sites.swap(i, rng.below(i + 1));
    }
    let mut chains = Vec::new();
    let mut rest = &sites[..];
    while rest.len() >= 2 {
        let len = rng.between(2, 12).min(rest.len());
        let (chain, tail) = rest.split_at(len);
        for pair in chain.windows(2) {
            topo.add_links(pair[0], pair[1], rng.between(1, 3) as u32);
        }
        if chains.len() % 3 == 2 && len > 2 {
            topo.add_links(chain[len - 1], chain[0], rng.between(1, 3) as u32);
        }
        chains.push(chain.to_vec());
        rest = tail;
    }
    (topo, chains)
}

/// `count` transfers whose endpoints mostly lie on one chain, any number
/// of positions apart; the others run between chains.
fn chain_transfers(
    rng: &mut Rng,
    n: usize,
    chains: &[Vec<usize>],
    count: usize,
    theta: f64,
) -> Vec<Transfer> {
    let mut ts = transfers(rng, n, count, theta, 30.0);
    for t in &mut ts {
        if rng.below(5) > 0 {
            let chain = &chains[rng.below(chains.len())];
            (t.src, t.dst) = (chain[rng.below(chain.len())], chain[rng.below(chain.len())]);
        }
    }
    ts
}

/// `count` transfers over `n` sites whose demand rates are comparable to
/// a circuit's `theta` whatever the slot length, so links saturate and
/// later rounds run on a thinned residual. Some have no volume left, some
/// run from a site to itself, some are starved, some have deadlines.
fn transfers(rng: &mut Rng, n: usize, count: usize, theta: f64, slot_len_s: f64) -> Vec<Transfer> {
    (0..count)
        .map(|id| {
            let src = rng.below(n);
            let dst = if rng.below(12) == 0 {
                src
            } else {
                rng.below(n)
            };
            let remaining_gbits = match rng.below(10) {
                0 => 0.0,
                1 => 1e-10,
                _ => theta * slot_len_s * (1 + rng.below(40)) as f64 / 10.0,
            };
            Transfer {
                id: 1000 + id,
                src,
                dst,
                volume_gbits: remaining_gbits,
                remaining_gbits,
                arrival_s: 0.0,
                deadline_s: (rng.below(3) > 0).then(|| (rng.below(50) * 300) as f64),
                starved_slots: rng.below(5) as u32,
            }
        })
        .collect()
}

fn assert_bit_equal(got: &RateOutcome, want: &RateOutcome, what: &str) {
    assert_eq!(
        got.throughput_gbps.to_bits(),
        want.throughput_gbps.to_bits(),
        "{what}: throughput {} vs {}",
        got.throughput_gbps,
        want.throughput_gbps
    );
    assert_eq!(
        got.allocations.len(),
        want.allocations.len(),
        "{what}: transfers served"
    );
    for (g, w) in got.allocations.iter().zip(&want.allocations) {
        assert_eq!(g.transfer, w.transfer, "{what}: allocation order");
        assert_eq!(
            g.paths.len(),
            w.paths.len(),
            "{what}: paths of transfer {}",
            g.transfer
        );
        for ((gp, gr), (wp, wr)) in g.paths.iter().zip(&w.paths) {
            assert_eq!(gp, wp, "{what}: a path of transfer {}", g.transfer);
            assert_eq!(
                gr.to_bits(),
                wr.to_bits(),
                "{what}: rate on {gp:?} of transfer {}",
                g.transfer
            );
        }
    }
}

/// One input to both passes.
#[derive(Clone, Copy)]
struct Case<'a> {
    topo: &'a Topology,
    theta: f64,
    ts: &'a [Transfer],
    policy: SchedulingPolicy,
    slot_len_s: f64,
    config: RateAssignConfig,
}

impl Case<'_> {
    /// Runs the case through both passes, the kernel in the caller's
    /// scratch. Returns the number of paths allocated, so callers can
    /// check they tested something.
    fn check(&self, scratch: &mut RateScratch, what: &str) -> usize {
        self.outcome(scratch, &CoreTelemetry::disabled(), what)
            .allocations
            .iter()
            .map(|a| a.paths.len())
            .sum()
    }

    /// [`Self::check`] with the kernel's counters going to `telemetry`;
    /// returns the outcome both passes agreed on.
    fn outcome(
        &self,
        scratch: &mut RateScratch,
        telemetry: &CoreTelemetry,
        what: &str,
    ) -> RateOutcome {
        let inputs = RateInputs::new(
            self.ts,
            self.policy,
            self.slot_len_s,
            &self.config,
            telemetry,
        );
        let want = assign_rates_reference(self.topo, self.theta, &inputs, &self.config);
        let got = assign_rates_with(
            self.topo,
            self.theta,
            &inputs,
            &self.config,
            scratch,
            telemetry,
        );
        assert_bit_equal(&got, &want, what);
        want
    }
}

const POLICIES: [SchedulingPolicy; 2] = [
    SchedulingPolicy::ShortestJobFirst,
    SchedulingPolicy::EarliestDeadlineFirst,
];
const SLOTS: [f64; 3] = [1.0, 30.0, 300.0];

/// `cases` seeded inputs with site counts drawn from `sites`, one scratch
/// across all of them (so every pass runs in buffers another size left
/// behind), default limits.
fn sweep(seed: u64, sites: std::ops::RangeInclusive<usize>, cases: usize) {
    let mut rng = Rng::new(seed);
    let mut scratch = RateScratch::default();
    let mut allocated = 0;
    for case in 0..cases {
        let n = rng.between(*sites.start(), *sites.end());
        let topo = topology(&mut rng, n);
        let theta = [10.0, 100.0][case % 2];
        let slot_len_s = SLOTS[case % 3];
        let count = rng.between(1, 3 * n.min(30));
        let ts = transfers(&mut rng, n, count, theta, slot_len_s);
        let policy = POLICIES[(case / 2) % 2];
        allocated += Case {
            topo: &topo,
            theta,
            ts: &ts,
            policy,
            slot_len_s,
            config: RateAssignConfig::default(),
        }
        .check(
            &mut scratch,
            &format!("seed {seed} case {case} ({n} sites, {policy:?})"),
        );
    }
    assert!(allocated > cases, "the sweep must allocate paths");
}

#[test]
fn kernel_equals_reference_on_tiny_plants() {
    sweep(1, 2..=8, 300);
}

#[test]
fn kernel_equals_reference_on_backbone_sized_plants() {
    sweep(2, 20..=50, 120);
}

#[test]
fn kernel_equals_reference_at_the_word_boundary() {
    sweep(3, 64..=64, 30);
    sweep(4, 65..=85, 40);
}

#[test]
fn kernel_equals_reference_on_multi_word_rows() {
    sweep(5, 120..=140, 30);
}

#[test]
fn kernel_equals_reference_for_every_hop_and_path_limit() {
    let mut rng = Rng::new(6);
    let mut scratch = RateScratch::default();
    for max_path_hops in 1..=8 {
        for max_paths_per_round in 1..=8 {
            for policy in POLICIES {
                let n = rng.between(6, 40);
                let topo = topology(&mut rng, n);
                let ts = transfers(&mut rng, n, 40, 10.0, 30.0);
                Case {
                    topo: &topo,
                    theta: 10.0,
                    ts: &ts,
                    policy,
                    slot_len_s: 30.0,
                    config: RateAssignConfig {
                        max_path_hops,
                        max_paths_per_round,
                        starvation_threshold: 3,
                    },
                }
                .check(
                    &mut scratch,
                    &format!("{max_path_hops} hops, {max_paths_per_round} paths, {policy:?}"),
                );
            }
        }
    }
}

#[test]
fn kernel_equals_reference_on_degenerate_inputs() {
    let mut rng = Rng::new(7);
    let mut scratch = RateScratch::default();
    let n = 30;
    let topo = topology(&mut rng, n);
    let ts = transfers(&mut rng, n, 50, 10.0, 30.0);
    let base = Case {
        topo: &topo,
        theta: 10.0,
        ts: &ts,
        policy: SchedulingPolicy::ShortestJobFirst,
        slot_len_s: 30.0,
        config: RateAssignConfig::default(),
    };

    // A circuit capacity at or under the tolerance: a link has support
    // only where its multiplicity lifts it over.
    for theta in [0.0, 1e-10, 4e-10, 1e-9] {
        let served = Case { theta, ..base }.check(&mut scratch, "tiny theta");
        assert!(served == 0 || theta > 1e-10, "theta {theta}");
    }
    // No links at all, and no transfers at all.
    let empty = Topology::empty(n);
    let no_links = Case {
        topo: &empty,
        ..base
    };
    assert_eq!(no_links.check(&mut scratch, "no links"), 0);
    let no_transfers = Case { ts: &[], ..base };
    assert_eq!(no_transfers.check(&mut scratch, "no transfers"), 0);
    // Only transfers that can never be served.
    let mut stuck = ts.clone();
    for (k, t) in stuck.iter_mut().enumerate() {
        match k % 3 {
            0 => t.dst = t.src,
            1 => t.remaining_gbits = 0.0,
            _ => {}
        }
    }
    let mut islands = Topology::empty(n);
    islands.add_links(0, 1, 2);
    Case {
        topo: &islands,
        ts: &stuck,
        ..base
    }
    .check(&mut scratch, "islands");
    // Limits of zero: no round runs, or no path is ever enumerated.
    for (max_path_hops, max_paths_per_round) in [(0, 8), (8, 0)] {
        let config = RateAssignConfig {
            max_path_hops,
            max_paths_per_round,
            starvation_threshold: 3,
        };
        let served = Case { config, ..base }.check(&mut scratch, "zero limit");
        assert_eq!(served, 0);
    }
}

#[test]
fn public_entry_points_run_the_kernel_on_fresh_buffers() {
    let mut rng = Rng::new(8);
    let config = RateAssignConfig::default();
    let telemetry = CoreTelemetry::disabled();
    for case in 0..20 {
        let n = rng.between(5, 70);
        let topo = topology(&mut rng, n);
        let ts = transfers(&mut rng, n, 30, 10.0, 300.0);
        let policy = POLICIES[case % 2];
        let inputs = RateInputs::new(&ts, policy, 300.0, &config, &telemetry);
        let want = assign_rates_reference(&topo, 10.0, &inputs, &config);
        let got = assign_rates(&topo, 10.0, &ts, policy, 300.0, &config);
        assert_bit_equal(&got, &want, "assign_rates");

        // An explicit order, here one that serves a transfer twice a
        // round and another never.
        let mut order: Vec<usize> = (0..ts.len()).rev().collect();
        order[0] = order[1];
        let inputs = RateInputs::ordered(&ts, &order[..], 300.0);
        let want = assign_rates_reference(&topo, 10.0, &inputs, &config);
        let got = assign_rates_ordered(&topo, 10.0, &ts, &order, 300.0, &config);
        assert_bit_equal(&got, &want, "assign_rates_ordered");
    }
}

/// Dense plants, where round 2 has more common neighbors than it may take:
/// every path limit from 1 to 8 cuts the ascending sequence somewhere.
#[test]
fn kernel_equals_reference_where_common_neighbors_outnumber_the_limit() {
    let mut rng = Rng::new(9);
    let mut scratch = RateScratch::default();
    let mut two_hop = 0;
    for max_paths_per_round in 1..=8 {
        for (case, policy) in POLICIES.into_iter().enumerate() {
            let n = rng.between(12, 70);
            let topo = dense(&mut rng, n);
            let ts = transfers(&mut rng, n, 3 * n, 10.0, SLOTS[case]);
            let out = Case {
                topo: &topo,
                theta: 10.0,
                ts: &ts,
                policy,
                slot_len_s: SLOTS[case],
                config: RateAssignConfig {
                    max_paths_per_round,
                    ..RateAssignConfig::default()
                },
            }
            .outcome(
                &mut scratch,
                &CoreTelemetry::disabled(),
                &format!("dense, {n} sites, {max_paths_per_round} paths, {policy:?}"),
            );
            two_hop += out
                .allocations
                .iter()
                .flat_map(|a| &a.paths)
                .filter(|(p, _)| p.len() == 3)
                .count();
        }
    }
    assert!(two_hop > 100, "only {two_hop} two-hop paths grabbed");
}

/// Chains, where destinations are first reachable 3 to 11 hops away or
/// never, at every hop bound: a transfer beyond the bound gets nothing, one
/// within it gets its paths of every length, and with a bound of 1 or 2 no
/// hop levels are computed at all.
#[test]
fn kernel_equals_reference_on_chains_at_every_hop_bound() {
    let mut rng = Rng::new(10);
    let mut scratch = RateScratch::default();
    let mut lengths = [0usize; 9];
    for max_path_hops in 1..=8 {
        for case in 0..12 {
            let n = rng.between(10, 90);
            let (topo, chains) = chains(&mut rng, n);
            // Few enough transfers that the long paths keep some capacity.
            let ts = chain_transfers(&mut rng, n, &chains, n / 2, 10.0);
            let recorder = owan_obs::Recorder::enabled();
            let telemetry = CoreTelemetry::new(&recorder);
            let out = Case {
                topo: &topo,
                theta: 10.0,
                ts: &ts,
                policy: POLICIES[case % 2],
                slot_len_s: 30.0,
                config: RateAssignConfig {
                    max_path_hops,
                    max_paths_per_round: 1 + case % 4,
                    starvation_threshold: 3,
                },
            }
            .outcome(
                &mut scratch,
                &telemetry,
                &format!("chains, {n} sites, {max_path_hops} hops, case {case}"),
            );
            for (path, _) in out.allocations.iter().flat_map(|a| &a.paths) {
                lengths[path.len() - 1] += 1;
            }
            let levels = recorder.counter("rates.hop_levels").get();
            if max_path_hops <= 2 {
                assert_eq!(levels, 0, "{max_path_hops} hops, case {case}");
            }
        }
    }
    for (hops, &count) in lengths.iter().enumerate().skip(1) {
        assert!(count > 0, "no {hops}-hop path grabbed: {lengths:?}");
    }
}

/// One scratch through sparse, dense and chain plants of every size class,
/// the 64-site word boundary and the sizes just past it included, so each
/// pass runs on masks, support rows and saturation depths another plant
/// left behind.
#[test]
fn one_scratch_serves_every_plant_shape_and_size() {
    let mut rng = Rng::new(11);
    let mut scratch = RateScratch::default();
    let sizes = [5, 64, 70, 3, 85, 64, 65, 30, 8, 77, 64, 40];
    for (case, &n) in sizes.iter().cycle().take(3 * sizes.len()).enumerate() {
        let (topo, ts) = match case % 3 {
            0 => {
                let topo = topology(&mut rng, n);
                (topo, transfers(&mut rng, n, 2 * n, 10.0, 30.0))
            }
            1 => {
                let topo = dense(&mut rng, n);
                (topo, transfers(&mut rng, n, 2 * n, 10.0, 30.0))
            }
            _ => {
                let (topo, chains) = chains(&mut rng, n);
                let ts = chain_transfers(&mut rng, n, &chains, 2 * n, 10.0);
                (topo, ts)
            }
        };
        Case {
            topo: &topo,
            theta: 10.0,
            ts: &ts,
            policy: POLICIES[case % 2],
            slot_len_s: 30.0,
            config: RateAssignConfig::default(),
        }
        .check(&mut scratch, &format!("case {case}, {n} sites"));
    }
}
