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
        let telemetry = CoreTelemetry::disabled();
        let inputs = RateInputs::new(
            self.ts,
            self.policy,
            self.slot_len_s,
            &self.config,
            &telemetry,
        );
        let want = assign_rates_reference(self.topo, self.theta, &inputs, &self.config);
        let got = assign_rates_with(
            self.topo,
            self.theta,
            &inputs,
            &self.config,
            scratch,
            &telemetry,
        );
        assert_bit_equal(&got, &want, what);
        want.allocations.iter().map(|a| a.paths.len()).sum()
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
