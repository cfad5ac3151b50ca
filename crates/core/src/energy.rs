//! `ComputeEnergy` — Algorithm 3 in full.
//!
//! The energy of a candidate network-layer topology is the total throughput
//! achievable on it: first build optical circuits for every desired link
//! (reducing capacities where the optical layer cannot satisfy them), then
//! run the greedy shortest-paths-first rate assignment over the *achieved*
//! topology.

use crate::cache::{EnergyCache, MissReason};
use crate::circuits::{
    build_topology_cached, build_topology_observed, try_build_topology_delta, BuiltTopology,
    CircuitBuildConfig,
};
use crate::rates::{assign_rates_with, RateAssignConfig, RateInputs, RateOutcome, RateScratch};
use crate::telemetry::CoreTelemetry;
use crate::topology::Topology;
use crate::types::{SchedulingPolicy, Transfer};
use owan_optical::FiberPlant;
use owan_prof::Profiler;
use std::sync::Arc;

/// Everything `ComputeEnergy` produced for one candidate topology.
#[derive(Debug, Clone, PartialEq)]
pub struct EnergyOutcome {
    /// The optical realization (circuits + achieved topology).
    pub built: BuiltTopology,
    /// The rate assignment over the achieved topology.
    pub rates: RateOutcome,
}

impl EnergyOutcome {
    /// The energy value: total throughput, Gbps.
    pub fn energy_gbps(&self) -> f64 {
        self.rates.throughput_gbps
    }
}

/// Shared, per-slot-invariant context for energy evaluations: the plant,
/// its distance matrix, the transfer set, and the tunables.
pub struct EnergyContext<'a> {
    /// The physical plant.
    pub plant: &'a FiberPlant,
    /// All-pairs fiber distances (precompute with
    /// [`FiberPlant::fiber_distance_matrix`]).
    pub fiber_dist: &'a [Vec<f64>],
    /// Transfers with outstanding demand.
    pub transfers: &'a [Transfer],
    /// Transfer ordering policy.
    pub policy: SchedulingPolicy,
    /// Slot length, seconds (converts volumes into demand rates).
    pub slot_len_s: f64,
    /// Circuit-builder tunables.
    pub circuit_config: CircuitBuildConfig,
    /// Rate-assignment tunables.
    pub rate_config: RateAssignConfig,
    /// Region profiler for performance attribution (tier 3 of the
    /// observability stack). A [`Profiler::disabled`] handle — the
    /// [`Default`]-like choice every existing caller makes — is inert:
    /// one `Option` check per region open, nothing else.
    pub prof: Profiler,
}

impl<'a> EnergyContext<'a> {
    /// The rate step's per-slot inputs: the policy order and the demand
    /// rates, the same for every topology evaluated under this context.
    pub fn rate_inputs(&self, telemetry: &CoreTelemetry) -> RateInputs<'a> {
        RateInputs::new(
            self.transfers,
            self.policy,
            self.slot_len_s,
            &self.rate_config,
            telemetry,
        )
    }
}

/// Computes the energy of `topology` (Algorithm 3).
pub fn compute_energy(ctx: &EnergyContext<'_>, topology: &Topology) -> EnergyOutcome {
    compute_energy_observed(ctx, topology, &CoreTelemetry::disabled())
}

/// [`compute_energy`] with telemetry: the circuit-construction and
/// rate-assignment halves each run under their own span, so annealing
/// wall time splits into its two dominant costs. The outcome is identical
/// to the unobserved call.
pub fn compute_energy_observed(
    ctx: &EnergyContext<'_>,
    topology: &Topology,
    telemetry: &CoreTelemetry,
) -> EnergyOutcome {
    compute_energy_with(ctx, topology, &ctx.rate_inputs(telemetry), telemetry)
}

/// The naive evaluation over rate inputs built by the caller.
fn compute_energy_with(
    ctx: &EnergyContext<'_>,
    topology: &Topology,
    rate_inputs: &RateInputs<'_>,
    telemetry: &CoreTelemetry,
) -> EnergyOutcome {
    let built = {
        let _span = telemetry.circuits.enter();
        let _region = ctx.prof.region("circuits");
        build_topology_observed(
            ctx.plant,
            topology,
            ctx.fiber_dist,
            &ctx.circuit_config,
            telemetry,
        )
    };
    let theta = ctx.plant.params().wavelength_capacity_gbps;
    let rates = {
        let _span = telemetry.rates.enter();
        let _region = ctx.prof.region("rates");
        assign_rates_with(
            &built.achieved,
            theta,
            rate_inputs,
            &ctx.rate_config,
            &mut RateScratch::default(),
            telemetry,
        )
    };
    EnergyOutcome { built, rates }
}

/// Stateful energy evaluator: [`compute_energy_observed`] plus the layered
/// [`EnergyCache`] fast path.
///
/// With a cache attached, an evaluation first consults the outcome memo
/// (revisited topologies cost a hash lookup + clone), then rebuilds
/// circuits — incrementally against a `basis` outcome when it is a
/// neighbor move away, in full otherwise, either way over the cache's
/// plant tables with relay candidates drawn lazily — and finally runs the
/// rate pass in the cache's scratch buffers. Without a cache it is a plain
/// pass-through, so callers can toggle the fast path with an `Option` and
/// nothing else.
///
/// Every path produces a bit-identical [`EnergyOutcome`] (debug builds
/// assert the circuit-layer equality on every cached/delta build); only
/// the work-performed telemetry differs.
pub struct EnergyEvaluator<'a, 'c> {
    ctx: &'a EnergyContext<'a>,
    cache: Option<&'c mut EnergyCache>,
    rate_inputs: &'a RateInputs<'a>,
    telemetry: &'a CoreTelemetry,
}

impl<'a, 'c> EnergyEvaluator<'a, 'c> {
    /// Creates an evaluator; a `Some` cache is prepared with
    /// [`EnergyCache::begin_run`] (plant-fingerprint invalidation happens
    /// here). `rate_inputs` are [`EnergyContext::rate_inputs`] of `ctx`,
    /// built once per annealing run and shared by its chains.
    pub fn new(
        ctx: &'a EnergyContext<'a>,
        cache: Option<&'c mut EnergyCache>,
        rate_inputs: &'a RateInputs<'a>,
        telemetry: &'a CoreTelemetry,
    ) -> Self {
        let mut cache = cache;
        if let Some(c) = cache.as_deref_mut() {
            c.begin_run(ctx.plant);
        }
        EnergyEvaluator {
            ctx,
            cache,
            rate_inputs,
            telemetry,
        }
    }

    /// Evaluates `desired`. `basis` is an already-evaluated nearby state
    /// (the annealer passes the current state when evaluating a neighbor);
    /// it seeds the delta rebuild, and is ignored on the naive path.
    /// Outcomes are shared behind an [`Arc`] so the memo, the annealer's
    /// current/best snapshots, and the caller never deep-clone the circuit
    /// set.
    pub fn eval(
        &mut self,
        desired: &Topology,
        basis: Option<(&Topology, &EnergyOutcome)>,
    ) -> Arc<EnergyOutcome> {
        let ctx = self.ctx;
        let _region = ctx.prof.region("eval");
        let Some(cache) = self.cache.as_deref_mut() else {
            self.telemetry.anneal_cache_miss.incr();
            self.telemetry.cache_miss_uncached.incr();
            return Arc::new(compute_energy_with(
                ctx,
                desired,
                self.rate_inputs,
                self.telemetry,
            ));
        };

        if let Some(hit) = cache.lookup_outcome(desired) {
            self.telemetry.anneal_cache_hit.incr();
            return hit;
        }
        self.telemetry.anneal_cache_miss.incr();
        // Miss attribution: a repeat the memo refused at its capacity cap
        // is `capacity`, anything else is first sight.
        let reason = if cache.outcome_overflowed(desired) {
            MissReason::Capacity
        } else {
            MissReason::Cold
        };
        cache.stats.count_eval_miss(reason);
        self.telemetry.cache_miss_reason(reason).incr();

        let built = {
            let _span = self.telemetry.circuits.enter();
            let _region = ctx.prof.region("circuits");
            let delta = basis.and_then(|(prev_desired, prev_outcome)| {
                try_build_topology_delta(
                    ctx.plant,
                    desired,
                    prev_desired,
                    &prev_outcome.built,
                    ctx.fiber_dist,
                    &ctx.circuit_config,
                    cache,
                    self.telemetry,
                )
            });
            match delta {
                Some(b) => b,
                None => build_topology_cached(
                    ctx.plant,
                    desired,
                    ctx.fiber_dist,
                    &ctx.circuit_config,
                    cache,
                    self.telemetry,
                ),
            }
        };

        let rates = {
            let _span = self.telemetry.rates.enter();
            let _region = ctx.prof.region("rates");
            assign_rates_with(
                &built.achieved,
                ctx.plant.params().wavelength_capacity_gbps,
                self.rate_inputs,
                &ctx.rate_config,
                &mut cache.rate_scratch,
                self.telemetry,
            )
        };

        let outcome = Arc::new(EnergyOutcome { built, rates });
        cache.store_outcome(desired.clone(), Arc::clone(&outcome));
        outcome
    }

    /// Ends the run: releases the cache's run-scoped outcome memo, so the
    /// outcomes this evaluator handed out are owned by their holders alone
    /// (the memo answers for this run's transfer set only and would be
    /// cleared by the next [`EnergyCache::begin_run`] anyway).
    pub fn finish(self) {
        if let Some(cache) = self.cache {
            cache.end_run();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Transfer;
    use owan_optical::OpticalParams;

    fn ring_plant() -> FiberPlant {
        let params = OpticalParams {
            wavelength_capacity_gbps: 10.0,
            wavelengths_per_fiber: 4,
            ..Default::default()
        };
        let mut p = FiberPlant::new(params);
        for i in 0..4 {
            p.add_site(&format!("S{i}"), 2, 1);
        }
        for i in 0..4 {
            p.add_fiber(i, (i + 1) % 4, 300.0);
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
    fn energy_reflects_demand_and_capacity() {
        let plant = ring_plant();
        let fd = plant.fiber_distance_matrix();
        let transfers = vec![transfer(0, 0, 1, 40.0), transfer(1, 2, 3, 40.0)];
        let ctx = EnergyContext {
            plant: &plant,
            fiber_dist: &fd,
            transfers: &transfers,
            policy: SchedulingPolicy::ShortestJobFirst,
            slot_len_s: 1.0,
            circuit_config: CircuitBuildConfig::default(),
            rate_config: RateAssignConfig::default(),
            prof: Profiler::disabled(),
        };

        // Ring topology: one circuit per adjacent pair.
        let mut ring = Topology::empty(4);
        for i in 0..4 {
            ring.add_links(i, (i + 1) % 4, 1);
        }
        let e_ring = compute_energy(&ctx, &ring);
        // Demand-matched topology: both ports of 0 to 1, both of 2 to 3.
        let mut matched = Topology::empty(4);
        matched.add_links(0, 1, 2);
        matched.add_links(2, 3, 2);
        let e_matched = compute_energy(&ctx, &matched);

        assert!(
            e_matched.energy_gbps() > e_ring.energy_gbps(),
            "matched {} should beat ring {}",
            e_matched.energy_gbps(),
            e_ring.energy_gbps()
        );
        assert!(
            (e_matched.energy_gbps() - 40.0).abs() < 1e-6,
            "2x20 Gbps served"
        );
    }

    #[test]
    fn infeasible_links_reduce_energy_not_panic() {
        let plant = ring_plant();
        let fd = plant.fiber_distance_matrix();
        let transfers = vec![transfer(0, 0, 2, 100.0)];
        let ctx = EnergyContext {
            plant: &plant,
            fiber_dist: &fd,
            transfers: &transfers,
            policy: SchedulingPolicy::ShortestJobFirst,
            slot_len_s: 1.0,
            circuit_config: CircuitBuildConfig::default(),
            rate_config: RateAssignConfig::default(),
            prof: Profiler::disabled(),
        };
        // Demand far beyond any achievable topology: 0-2 with multiplicity 2
        // needs two 2-hop circuits; wavelengths suffice, so it builds, but
        // throughput is capped by ports/θ.
        let mut topo = Topology::empty(4);
        topo.add_links(0, 2, 2);
        let e = compute_energy(&ctx, &topo);
        assert!(e.energy_gbps() <= 20.0 + 1e-9);
        assert!(e.energy_gbps() > 0.0);
    }

    #[test]
    fn finishing_the_run_leaves_outcomes_uniquely_owned() {
        let plant = ring_plant();
        let fd = plant.fiber_distance_matrix();
        let transfers = vec![transfer(0, 0, 1, 40.0), transfer(1, 2, 3, 40.0)];
        let ctx = EnergyContext {
            plant: &plant,
            fiber_dist: &fd,
            transfers: &transfers,
            policy: SchedulingPolicy::ShortestJobFirst,
            slot_len_s: 1.0,
            circuit_config: CircuitBuildConfig::default(),
            rate_config: RateAssignConfig::default(),
            prof: Profiler::disabled(),
        };
        let telemetry = CoreTelemetry::disabled();
        let rate_inputs = ctx.rate_inputs(&telemetry);
        let mut ring = Topology::empty(4);
        for i in 0..4 {
            ring.add_links(i, (i + 1) % 4, 1);
        }
        let mut cache = EnergyCache::new();
        let mut eval = EnergyEvaluator::new(&ctx, Some(&mut cache), &rate_inputs, &telemetry);
        let outcome = eval.eval(&ring, None);
        assert!(Arc::ptr_eq(&outcome, &eval.eval(&ring, None)), "memo hit");
        assert_eq!(Arc::strong_count(&outcome), 2, "the memo holds a handle");
        eval.finish();
        assert!(
            Arc::try_unwrap(outcome).is_ok(),
            "no deep clone to take the winner out"
        );
    }
}
