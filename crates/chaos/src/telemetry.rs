//! Chaos counters on the shared [`owan_obs::Recorder`]: how often faults
//! were detected, ops retried or aborted, the controller crashed, the
//! planner fell back, and traffic was blackholed. All land in the obs
//! JSONL export under the `chaos.` prefix. Generated by
//! [`owan_obs::telemetry_bundle!`].

use owan_obs::telemetry_bundle;
use owan_sim::StageSplit;

telemetry_bundle! {
    /// Pre-resolved counter handles for the chaos runner. Cheap to clone;
    /// disabled recorders produce no-op handles.
    pub struct ChaosTelemetry {
        /// Plant/controller fault events whose detection delay elapsed.
        pub faults_detected: counter = "chaos.faults_detected",
        /// Update-op attempts re-run after a timeout or failure.
        pub op_retries: counter = "chaos.op_retries",
        /// Update-op attempts that timed out.
        pub op_timeouts: counter = "chaos.op_timeouts",
        /// Update-op attempts that failed fast.
        pub op_failures: counter = "chaos.op_failures",
        /// Ops aborted (retry budget exhausted, or a prerequisite aborted).
        pub op_aborts: counter = "chaos.op_aborts",
        /// Controller crash restarts.
        pub crashes: counter = "chaos.crashes",
        /// Slots where the engine plan was rejected and the previous
        /// topology (filtered to surviving links) was used instead.
        pub fallback_slots: counter = "chaos.fallback_slots",
        /// Paths blackholed by a not-yet-detected cut mid-slot.
        pub blackhole_paths: counter = "chaos.blackhole_paths",
        /// The engine's stage split, for the slot record.
        pub stages: bundle(StageSplit),
    }
}

telemetry_bundle! {
    /// Counters for the adversarial-traffic suite, alongside the fault
    /// family under the same `chaos.` prefix so one table shows both.
    pub struct AttackTelemetry {
        /// Attack waves composed into the scenario.
        pub waves: counter = "chaos.attack.waves",
        /// Slots with at least one attack wave actively injecting.
        pub active_slots: counter = "chaos.attack.active_slots",
        /// Total adversarial volume injected, gigabits (rounded).
        pub injected_gbits: counter = "chaos.attack.injected_gbits",
        /// Distinct network-layer links tracked as attack victims.
        pub victim_links: counter = "chaos.attack.victim_links",
        /// Post-onset slots where background delivery was restored to
        /// the configured fraction of the fault-free baseline.
        pub restored_slots: counter = "chaos.attack.restored_slots",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use owan_obs::Recorder;

    #[test]
    fn counters_register_under_chaos_prefix() {
        let rec = Recorder::enabled();
        let t = ChaosTelemetry::new(&rec);
        t.op_retries.add(3);
        t.crashes.incr();
        let snap = rec.snapshot();
        assert_eq!(snap.counters.get("chaos.op_retries"), Some(&3));
        assert_eq!(snap.counters.get("chaos.crashes"), Some(&1));
    }

    #[test]
    fn disabled_recorder_is_noop() {
        let t = ChaosTelemetry::new(&Recorder::disabled());
        t.op_aborts.add(10);
        assert_eq!(t.op_aborts.get(), 0);
    }
}
