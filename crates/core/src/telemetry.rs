//! Pre-resolved telemetry handles for the core pipeline.
//!
//! Handle acquisition takes the recorder's registry lock, so hot paths
//! resolve their handles once — here — and update lock-free atomics from
//! then on. A bundle built from a disabled recorder is all no-ops; the
//! instrumented code is identical either way and never branches on an
//! "is telemetry on" flag. The struct itself is generated by
//! [`owan_obs::telemetry_bundle!`], shared with the sim/update/chaos
//! bundles.

use owan_obs::telemetry_bundle;

/// Metric names are centralized here so exporters, tests, and docs agree.
pub mod names {
    /// Annealing span (one per [`crate::anneal::anneal`] call).
    pub const STAGE_ANNEAL: &str = "stage.anneal";
    /// One annealing iteration = one temperature stage (`T *= α` each
    /// iteration), so this span's histogram is the per-temperature-stage
    /// wall time.
    pub const STAGE_ANNEAL_ITER: &str = "stage.anneal.iter";
    /// Circuit-construction span (Algorithm 3 lines 2–14). Runs inside
    /// every energy evaluation, i.e. nested under `stage.anneal`.
    pub const STAGE_CIRCUITS: &str = "stage.circuits";
    /// Rate-assignment span (Algorithm 3 lines 15–25), nested like
    /// `stage.circuits`.
    pub const STAGE_RATES: &str = "stage.rates";
    /// Sampled energy-trajectory event emitted during annealing.
    pub const EVENT_ANNEAL_SAMPLE: &str = "anneal.sample";
    /// Per-chain busy/idle timing event emitted once per parallel
    /// annealing run per chain (start offset and busy time relative to
    /// the spawn point).
    pub const EVENT_CHAIN_TIMING: &str = "anneal.chain_timing";
    /// Common prefix of the per-reason cache-miss counters; the reasons
    /// partition `anneal.cache_miss` exactly (see
    /// [`crate::cache::MissReason`]).
    pub const CACHE_MISS_PREFIX: &str = "anneal.cache_miss.";
}

telemetry_bundle! {
    /// Counter/stage handles used by `owan-core`'s hot paths.
    pub struct CoreTelemetry {
        /// Span over one full annealing run.
        pub anneal: stage = names::STAGE_ANNEAL,
        /// Span over one annealing iteration (one temperature stage).
        pub anneal_iter: stage = names::STAGE_ANNEAL_ITER,
        /// Span over one circuit-construction pass.
        pub circuits: stage = names::STAGE_CIRCUITS,
        /// Span over one rate-assignment pass.
        pub rates: stage = names::STAGE_RATES,
        /// Annealing iterations executed.
        pub anneal_iterations: counter = "anneal.iterations",
        /// Neighbor moves accepted by the Metropolis rule.
        pub anneal_accepted: counter = "anneal.accepted",
        /// Neighbor moves rejected.
        pub anneal_rejected: counter = "anneal.rejected",
        /// Neighbor moves that gave back the current topology: taken at
        /// the current energy, without an evaluation.
        pub anneal_identity_moves: counter = "anneal.identity_moves",
        /// Energy evaluations: each runs Algorithm 3 (circuits + rates).
        pub anneal_cache_miss: counter = "anneal.cache_miss",
        /// Evaluations on the naive path (no cache attached at all).
        pub cache_miss_uncached: counter = "anneal.cache_miss.uncached",
        /// Evaluations on the fast path.
        pub cache_miss_cold: counter = "anneal.cache_miss.cold",
        // Never incremented: the outcome memo and the relay-candidate
        // cache whose misses these six attributed are gone (see
        // `cache::MissReason`).
        #[doc(hidden)]
        pub cache_miss_capacity: counter = "anneal.cache_miss.capacity",
        #[doc(hidden)]
        pub cache_miss_flush: counter = "anneal.cache_miss.flush",
        #[doc(hidden)]
        pub cache_miss_class_collision: counter = "anneal.cache_miss.class_collision",
        #[doc(hidden)]
        pub cache_miss_partial_candidate_list: counter = "anneal.cache_miss.partial_candidate_list",
        #[doc(hidden)]
        pub cache_miss_boundary_guard: counter = "anneal.cache_miss.boundary_guard",
        #[doc(hidden)]
        pub cache_miss_membership_crossing: counter = "anneal.cache_miss.membership_crossing",
        /// Wall nanoseconds of parallel annealing runs (spawn to reduce).
        pub anneal_parallel_wall_ns: counter = "anneal.parallel.wall_ns",
        /// Summed per-chain busy nanoseconds inside parallel runs.
        pub anneal_parallel_busy_ns: counter = "anneal.parallel.busy_ns",
        /// Annealing chains launched via the parallel entry points (adds N per
        /// multi-chain run, 1 per single-chain run).
        pub anneal_chains: counter = "anneal.chains",
        /// Optical circuits successfully provisioned.
        pub circuits_built: counter = "circuits.built",
        /// Failed provisioning attempts (no wavelength assignment for a relay
        /// candidate).
        pub wavelength_failures: counter = "circuits.wavelength_failures",
        /// Regenerators consumed by provisioned circuits.
        pub regens_consumed: counter = "circuits.regens_consumed",
        /// Relay searches started: regenerator-graph constructions on the
        /// naive path, `RelaySearch` starts on the fast path — one per
        /// provisioning attempt either way.
        pub shortest_path_calls: counter = "circuits.shortest_path_calls",
        /// Relay searches a delta build skipped on the relay-path
        /// certificate: attempts that took the accepted build's first draw,
        /// and pairs stopped where the accepted build drew no path.
        pub relay_certified: counter = "circuits.relay_certified",
        /// Candidate paths examined by rate assignment.
        pub paths_examined: counter = "rates.paths_examined",
        /// Hop-level BFS runs of rate assignment (rounds 3 and later, at
        /// most one per destination and round).
        pub hop_levels: counter = "rates.hop_levels",
        /// Path-rate allocations made.
        pub allocations_made: counter = "rates.allocations_made",
        /// Transfers promoted by the starvation guard (§3.2, t̂ threshold),
        /// counted once per transfer order built — once per annealing run,
        /// not once per evaluation.
        pub starvation_promotions: counter = "rates.starvation_promotions",
        /// Rate-assignment passes run.
        pub rates_full_evals: counter = "rates.full_evals",
    }
}

impl CoreTelemetry {
    /// The `anneal.cache_miss.<reason>` counter for one attributed miss.
    pub fn cache_miss_reason(&self, reason: crate::cache::MissReason) -> &owan_obs::Counter {
        use crate::cache::MissReason::*;
        match reason {
            Uncached => &self.cache_miss_uncached,
            Cold => &self.cache_miss_cold,
            Capacity => &self.cache_miss_capacity,
            Flush => &self.cache_miss_flush,
            ClassCollision => &self.cache_miss_class_collision,
            PartialCandidateList => &self.cache_miss_partial_candidate_list,
            BoundaryGuard => &self.cache_miss_boundary_guard,
            MembershipCrossing => &self.cache_miss_membership_crossing,
        }
    }
}
