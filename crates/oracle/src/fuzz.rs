//! Deterministic fuzz-workload generator for differential replay.
//!
//! A [`Scenario`] is a complete, self-contained control-loop instance: a
//! small fiber plant, a seeded request stream, and optional failure
//! injections. Generation is a pure function of the seed, so a reproducer
//! never needs to serialize the scenario itself — the seed plus the set of
//! retained request/failure indices regenerate it exactly.

use owan_chaos::{FaultEvent, FaultKind};
use owan_core::TransferRequest;
use owan_optical::{FiberPlant, OpticalParams};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// One fuzzed control-loop instance.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Seed this scenario was generated from.
    pub seed: u64,
    /// The physical plant (3–6 router sites, ring plus random chords).
    pub plant: FiberPlant,
    /// Transfer requests, sorted by arrival time.
    pub requests: Vec<TransferRequest>,
    /// Failure injections (fiber cuts and site downs), sorted by time.
    pub failures: Vec<FaultEvent>,
    /// Reconfiguration slot length, seconds.
    pub slot_len_s: f64,
    /// Replay horizon, slots.
    pub max_slots: usize,
}

impl Scenario {
    /// Generates the scenario for `seed`. Deterministic: the same seed
    /// always yields byte-identical plants, requests, and failures.
    pub fn generate(seed: u64) -> Scenario {
        let mut rng = StdRng::seed_from_u64(seed);

        let n = 3 + (rng.next_u64() % 4) as usize; // 3..=6 sites
        let params = OpticalParams {
            wavelength_capacity_gbps: 10.0,
            wavelengths_per_fiber: 4 + (rng.next_u64() % 8) as u32,
            optical_reach_km: 1000.0,
            ..Default::default()
        };
        let mut plant = FiberPlant::new(params);
        for i in 0..n {
            let ports = 1 + (rng.next_u64() % 3) as u32;
            let regens = (rng.next_u64() % 3) as u32;
            plant.add_site(&format!("F{i}"), ports, regens);
        }
        // Ring backbone keeps the plant connected; chords add diversity.
        for i in 0..n {
            plant.add_fiber(i, (i + 1) % n, 100.0 + rng.random::<f64>() * 800.0);
        }
        let chords = rng.next_u64() % 3;
        for _ in 0..chords {
            let a = rng.random_range(0..n);
            let b = rng.random_range(0..n);
            let duplicate = plant
                .fibers()
                .iter()
                .any(|f| (f.a == a && f.b == b) || (f.a == b && f.b == a));
            if a != b && !duplicate {
                plant.add_fiber(a, b, 100.0 + rng.random::<f64>() * 800.0);
            }
        }

        let slot_len_s = 10.0;
        let max_slots = 4 + (rng.next_u64() % 5) as usize; // 4..=8 slots
        let horizon_s = slot_len_s * max_slots as f64;

        let n_requests = 1 + (rng.next_u64() % 8) as usize;
        let mut requests: Vec<TransferRequest> = (0..n_requests)
            .map(|_| {
                let src = rng.random_range(0..n);
                let dst = loop {
                    let d = rng.random_range(0..n);
                    if d != src {
                        break d;
                    }
                };
                let volume_gbits = 20.0 + rng.random::<f64>() * 400.0;
                let arrival_s = rng.random::<f64>() * horizon_s * 0.5;
                // ~half the requests carry deadlines, some of them too
                // tight to meet — the oracle must hold either way.
                let deadline_s = if rng.random::<f64>() < 0.5 {
                    Some(arrival_s + slot_len_s * (1.0 + rng.random::<f64>() * 5.0))
                } else {
                    None
                };
                TransferRequest {
                    src,
                    dst,
                    volume_gbits,
                    arrival_s,
                    deadline_s,
                }
            })
            .collect();
        requests.sort_by(|a, b| a.arrival_s.total_cmp(&b.arrival_s));

        let n_failures = (rng.next_u64() % 3) as usize; // 0..=2
        let mut failures: Vec<FaultEvent> = (0..n_failures)
            .map(|_| {
                let time_s = slot_len_s + rng.random::<f64>() * (horizon_s - slot_len_s);
                // Bias toward fiber cuts; never take down more than one
                // site so the plant stays nontrivial.
                let kind = if rng.random::<f64>() < 0.7 {
                    FaultKind::FiberCut(rng.random_range(0..plant.fiber_count()))
                } else {
                    FaultKind::SiteDown(rng.random_range(0..n))
                };
                FaultEvent { time_s, kind }
            })
            .collect();
        failures.sort_by(|a, b| a.time_s.total_cmp(&b.time_s));
        failures.dedup_by(|a, b| a.kind == b.kind);

        Scenario {
            seed,
            plant,
            requests,
            failures,
            slot_len_s,
            max_slots,
        }
    }

    /// The scenario restricted to the given request and failure indices
    /// (into the *generated* vectors of this seed). Used by the minimizer:
    /// a reproducer records `seed` + surviving indices, and
    /// `Scenario::generate(seed).subset(..)` rebuilds the minimal case.
    pub fn subset(&self, request_idx: &[usize], failure_idx: &[usize]) -> Scenario {
        let pick = |keep: &[usize], len: usize| -> Vec<usize> {
            let mut k: Vec<usize> = keep.iter().copied().filter(|&i| i < len).collect();
            k.sort_unstable();
            k.dedup();
            k
        };
        let mut s = self.clone();
        s.requests = pick(request_idx, self.requests.len())
            .into_iter()
            .map(|i| self.requests[i].clone())
            .collect();
        s.failures = pick(failure_idx, self.failures.len())
            .into_iter()
            .map(|i| self.failures[i])
            .collect();
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        for seed in 0..20 {
            let a = Scenario::generate(seed);
            let b = Scenario::generate(seed);
            assert_eq!(a.requests.len(), b.requests.len());
            assert_eq!(a.failures.len(), b.failures.len());
            assert_eq!(a.plant.site_count(), b.plant.site_count());
            assert_eq!(a.plant.fiber_count(), b.plant.fiber_count());
            for (x, y) in a.requests.iter().zip(&b.requests) {
                assert_eq!(x.src, y.src);
                assert_eq!(x.dst, y.dst);
                assert_eq!(x.volume_gbits, y.volume_gbits);
                assert_eq!(x.arrival_s, y.arrival_s);
                assert_eq!(x.deadline_s, y.deadline_s);
            }
            for (x, y) in a.failures.iter().zip(&b.failures) {
                assert_eq!(x, y);
            }
        }
    }

    #[test]
    fn scenarios_are_well_formed() {
        for seed in 0..50 {
            let s = Scenario::generate(seed);
            let n = s.plant.site_count();
            assert!((3..=6).contains(&n), "seed {seed}: {n} sites");
            assert!(!s.requests.is_empty());
            for r in &s.requests {
                assert!(r.src < n && r.dst < n && r.src != r.dst);
                assert!(r.volume_gbits > 0.0);
                if let Some(d) = r.deadline_s {
                    assert!(d > r.arrival_s);
                }
            }
            for f in &s.failures {
                assert!(f.time_s >= s.slot_len_s);
            }
            // Ring backbone: the plant is connected.
            for v in 1..n {
                assert!(s.plant.fiber_distance(0, v).is_finite());
            }
        }
    }

    #[test]
    fn subset_restricts_and_clamps() {
        let s = Scenario::generate(3);
        let sub = s.subset(&[0, 99], &[]);
        assert_eq!(sub.requests.len(), 1);
        assert!(sub.failures.is_empty());
        assert_eq!(sub.seed, s.seed);
    }
}
