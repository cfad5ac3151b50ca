//! `ComputeEnergy` — Algorithm 3 in full.
//!
//! The energy of a candidate network-layer topology is the total throughput
//! achievable on it: first build optical circuits for every desired link
//! (reducing capacities where the optical layer cannot satisfy them), then
//! run the greedy shortest-paths-first rate assignment over the *achieved*
//! topology.
//!
//! [`compute_energy`] returns everything that produced — circuits and
//! allocations — as an [`EnergyOutcome`]. Algorithm 1 reads one number of
//! it per neighbor, so the annealer's [`EnergyEvaluator`] *scores*
//! candidates and produces the outcome once, for the winner. A score
//! needs the achieved topology only, not which wavelength each circuit
//! took, so it is computed from relay paths alone whenever that provably
//! gives the same topology (see [`TopologyLedger`]).

use crate::cache::EnergyCache;
use crate::circuits::{
    basis_of, build_ledger, build_topology_observed, Basis, BuiltTopology, CircuitBuildConfig,
    Moved, TopologyLedger,
};
use crate::rates::{
    assign_rates_with, rate_pass, RateAssignConfig, RateInputs, RateOutcome, RateScratch,
};
use crate::telemetry::CoreTelemetry;
use crate::topology::Topology;
use crate::types::{SchedulingPolicy, Transfer};
use owan_optical::FiberPlant;
use owan_prof::Profiler;

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
    let telemetry = CoreTelemetry::disabled();
    compute_energy_with(ctx, topology, &ctx.rate_inputs(&telemetry), &telemetry)
}

/// The naive evaluation over rate inputs built by the caller. The
/// circuit-construction and rate-assignment halves each run under their
/// own span, so annealing wall time splits into its two dominant costs.
pub(crate) fn compute_energy_with(
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

/// The annealer's view of Algorithm 3: [`Self::score`] a candidate,
/// [`Self::accept`] it as the state later candidates are neighbors of, and
/// [`Self::finish`] with the full [`EnergyOutcome`] of the run's winner.
///
/// With a cache attached, a score is a [`TopologyLedger`] build in the
/// cache's buffers — incremental from the accepted state's when the
/// candidate is a neighbor move away, copying every relay path the
/// relay-path certificate vouches for, in full otherwise, either way over
/// the cache's plant tables with relay candidates drawn lazily, and
/// channel-free while the wavelength bound vouches that first fit would
/// light every first relay path — and a rate pass over the achieved links
/// that stops at the throughput. Channels, circuits and allocations are
/// materialised by `finish` alone, from a build the run already made.
/// Without a cache every score is a naive evaluation whose outcome is
/// dropped, so callers toggle the fast path with an `Option` and nothing
/// else.
///
/// Both backends produce bit-identical scores and outcomes (debug builds
/// assert every ledger against the naive build); only the work-performed
/// telemetry differs.
pub struct EnergyEvaluator<'a, 'c> {
    ctx: &'a EnergyContext<'a>,
    cache: Option<&'c mut EnergyCache>,
    rate_inputs: &'a RateInputs<'a>,
    telemetry: &'a CoreTelemetry,
}

impl<'a, 'c> EnergyEvaluator<'a, 'c> {
    /// Creates an evaluator; a `Some` cache is prepared with
    /// [`EnergyCache::begin_run`] (precompute-key invalidation happens
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

    /// The energy of `desired`, Gbps. `basis` is the topology last
    /// accepted (the annealer passes its current state when scoring a
    /// neighbor): it lets the circuit build resume from that state's, and
    /// is ignored on the naive path. Pass `None` for a topology that is
    /// not a neighbor of the accepted one, and before anything was
    /// accepted.
    pub fn score(&mut self, desired: &Topology, basis: Option<&Topology>) -> f64 {
        let basis = match (self.cache.as_deref(), basis) {
            (Some(cache), Some(accepted)) => {
                debug_assert!(
                    cache.accepted.is_build_of(accepted),
                    "`basis` is the topology accepted last"
                );
                basis_of(desired, cache)
            }
            _ => Basis::Fresh,
        };
        self.score_from(desired, basis)
    }

    /// The energy of `desired`, a neighbor of the accepted topology that
    /// changes it by `moved` (Algorithm 2's move): the annealer's score,
    /// which reads the change off the move instead of comparing the two
    /// topologies.
    pub(crate) fn score_move(&mut self, desired: &Topology, moved: &Moved) -> f64 {
        self.score_from(desired, Basis::Near(*moved))
    }

    /// The energy of a run's initial state: resumed from the build of the
    /// previous run's winner when the cache holds one for this plant
    /// precompute and it is a neighbor move away, in full otherwise.
    pub(crate) fn score_initial(&mut self, desired: &Topology) -> f64 {
        let basis = match self.cache.as_deref() {
            Some(cache) if cache.resume => basis_of(desired, cache),
            _ => Basis::Fresh,
        };
        self.score_from(desired, basis)
    }

    fn score_from(&mut self, desired: &Topology, basis: Basis) -> f64 {
        let ctx = self.ctx;
        let _region = ctx.prof.region("eval");
        self.telemetry.anneal_cache_miss.incr();
        let Some(cache) = self.cache.as_deref_mut() else {
            self.telemetry.cache_miss_uncached.incr();
            return compute_energy_with(ctx, desired, self.rate_inputs, self.telemetry)
                .energy_gbps();
        };
        self.telemetry.cache_miss_cold.incr();
        cache.stats.outcome_misses += 1;
        {
            let _span = self.telemetry.circuits.enter();
            let _region = ctx.prof.region("circuits");
            build_ledger(
                ctx.plant,
                desired,
                basis,
                ctx.fiber_dist,
                &ctx.circuit_config,
                cache,
                self.telemetry,
            );
        }
        let _span = self.telemetry.rates.enter();
        let _region = ctx.prof.region("rates");
        let scored = &cache.scored;
        rate_pass(
            scored.achieved(),
            scored.achieved_links(),
            ctx.plant.params().wavelength_capacity_gbps,
            self.rate_inputs,
            &ctx.rate_config,
            &mut cache.rate_scratch,
            self.telemetry,
        )
    }

    /// Makes the topology scored last the accepted one: the basis of the
    /// scores that follow.
    pub fn accept(&mut self) {
        if let Some(cache) = self.cache.as_deref_mut() {
            std::mem::swap(&mut cache.accepted, &mut cache.scored);
        }
    }

    /// Keeps a copy of the accepted build as the run's best: the annealer
    /// calls this when it accepts a move away from its best state, so
    /// [`Self::finish`] materialises the winner without building it again.
    pub(crate) fn keep_best(&mut self) {
        if let Some(cache) = self.cache.as_deref_mut() {
            cache.best.clone_from(&cache.accepted);
        }
    }

    /// The build of the topology scored last (`None` on the naive path).
    pub fn scored(&self) -> Option<&TopologyLedger> {
        self.cache.as_deref().map(|cache| &cache.scored)
    }

    /// Ends the run with the full outcome of its winner, `best` — equal to
    /// [`compute_energy`] of it. When `best_is_accepted` the accepted
    /// build is materialised as it stands; otherwise the copy
    /// [`Self::keep_best`] took of its best state's build (the annealer
    /// passes `false` only after taking one), when it is a build of
    /// `best`, and a build of `best` made in full when not. That build stays the
    /// accepted one, for the next run on this plant to resume from. One
    /// rate pass then produces the allocations.
    pub fn finish(self, best: &Topology, best_is_accepted: bool) -> EnergyOutcome {
        let ctx = self.ctx;
        let Some(cache) = self.cache else {
            return compute_energy_with(ctx, best, self.rate_inputs, self.telemetry);
        };
        let built = {
            let _span = self.telemetry.circuits.enter();
            let _region = ctx.prof.region("circuits");
            if !best_is_accepted {
                if cache.best.is_build_of(best) {
                    std::mem::swap(&mut cache.accepted, &mut cache.best);
                } else {
                    build_ledger(
                        ctx.plant,
                        best,
                        Basis::Fresh,
                        ctx.fiber_dist,
                        &ctx.circuit_config,
                        cache,
                        self.telemetry,
                    );
                    std::mem::swap(&mut cache.accepted, &mut cache.scored);
                }
            }
            cache.resume = true;
            let pc = cache.plant_precompute(ctx.plant, ctx.fiber_dist);
            cache.accepted.materialise(ctx.plant, pc.routes())
        };
        let _span = self.telemetry.rates.enter();
        let _region = ctx.prof.region("rates");
        let rates = assign_rates_with(
            &built.achieved,
            ctx.plant.params().wavelength_capacity_gbps,
            self.rate_inputs,
            &ctx.rate_config,
            &mut cache.rate_scratch,
            self.telemetry,
        );
        EnergyOutcome { built, rates }
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
    fn scoring_then_finishing_equals_compute_energy_on_both_backends() {
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
        let mut matched = Topology::empty(4);
        matched.add_links(0, 1, 2);
        matched.add_links(2, 3, 2);
        let (want_ring, want_matched) =
            (compute_energy(&ctx, &ring), compute_energy(&ctx, &matched));

        let mut cache = EnergyCache::new();
        for cached in [true, false] {
            // Accepted stays the ring; the winner is either of the two.
            for best_is_accepted in [true, false] {
                let mut eval = EnergyEvaluator::new(
                    &ctx,
                    cached.then_some(&mut cache),
                    &rate_inputs,
                    &telemetry,
                );
                let e_ring = eval.score(&ring, None);
                eval.accept();
                let e_matched = eval.score(&matched, Some(&ring));
                assert_eq!(e_ring.to_bits(), want_ring.energy_gbps().to_bits());
                assert_eq!(e_matched.to_bits(), want_matched.energy_gbps().to_bits());
                assert_eq!(eval.scored().is_some(), cached);
                let (best, want) = if best_is_accepted {
                    (&ring, &want_ring)
                } else {
                    (&matched, &want_matched)
                };
                assert_eq!(&eval.finish(best, best_is_accepted), want);
            }
        }
        assert_eq!(cache.stats.outcome_misses, 4);
    }
}
