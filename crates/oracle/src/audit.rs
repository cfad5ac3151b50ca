//! The oracle's per-slot audit of the production failure loop.
//!
//! `owan_chaos::run_chaos` hands every planned slot to an audit hook as a
//! [`SlotAudit`]: the plant the controller believed in, the transfers it
//! planned for, the target plan and the update schedule it executed.
//! [`InvariantAudit`] is the one hook every replay, the `chaos` / `attack`
//! commands and flight-dump replay install: [`check_plan`] on the slot
//! plan, [`check_timeline`] on the schedule, each check counted.

use crate::invariants::{check_plan, check_timeline, timeline_exempt};
use crate::replay::ReplayFailure;
use owan_chaos::SlotAudit;
use owan_obs::Counter;
use owan_scope::ScopeRecorder;
use owan_sim::Probes;

/// Audits slots of a chaos run. Every check counts on the probes'
/// recorder (`oracle.invariant_checked` / `oracle.invariant_violated`,
/// and `oracle.timeline_exempt` for a schedule [`check_timeline`]
/// exempts), and a violation raises the `oracle.invariant_violated`
/// anomaly on the probes' scope, freezing a flight dump of the slots
/// leading up to it.
pub struct InvariantAudit {
    checked: Counter,
    violated: Counter,
    exempt: Counter,
    scope: ScopeRecorder,
    /// Slot plans that passed [`check_plan`].
    pub plans_checked: usize,
    /// Executed update schedules that passed [`check_timeline`], exempt
    /// ones not counted.
    pub updates_checked: usize,
    /// Executed update schedules [`check_timeline`] exempts (see
    /// [`timeline_exempt`]).
    pub updates_exempt: usize,
    /// The first violation and the slot it surfaced in.
    failure: Option<ReplayFailure>,
}

impl InvariantAudit {
    /// An audit reporting into `probes`' recorder and scope.
    pub fn new(probes: &Probes) -> Self {
        InvariantAudit {
            checked: probes.recorder.counter("oracle.invariant_checked"),
            violated: probes.recorder.counter("oracle.invariant_violated"),
            exempt: probes.recorder.counter("oracle.timeline_exempt"),
            scope: probes.scope.clone(),
            plans_checked: 0,
            updates_checked: 0,
            updates_exempt: 0,
            failure: None,
        }
    }

    /// Checks the slot plan on the believed plant and the executed update
    /// schedule into it. The error names the violated invariant.
    pub fn check(&mut self, a: &SlotAudit) -> Result<(), String> {
        self.checked.add(1);
        if let Err(v) = check_plan(a.believed_plant, a.transfers, a.slot_len_s, a.plan) {
            return self.violation(a.slot, format!("slot plan: {v}"));
        }
        self.plans_checked += 1;
        if let (Some(delta), Some(update)) = (a.delta, a.update) {
            if timeline_exempt(update) {
                self.exempt.add(1);
                self.updates_exempt += 1;
                return Ok(());
            }
            self.checked.add(1);
            if let Err(v) = check_timeline(delta, update, &a.params) {
                return self.violation(a.slot, format!("update: {v}"));
            }
            self.updates_checked += 1;
        }
        Ok(())
    }

    /// [`InvariantAudit::check`], after first requiring that the engine's
    /// own plan was feasible: a slot the runner had to fall back on is a
    /// `PlanError` violation, not a recovered slot.
    pub fn check_engine_plan(&mut self, a: &SlotAudit) -> Result<(), String> {
        self.checked.add(1);
        if let Some(why) = &a.fallback {
            return self.violation(a.slot, format!("PlanError: {why}"));
        }
        self.check(a)
    }

    /// The first violation this audit found, with its slot. `error` is
    /// what the aborted loop returned; it stands in if the audit saw none.
    pub fn failure(&mut self, error: String) -> ReplayFailure {
        self.failure.take().unwrap_or(ReplayFailure {
            slot: 0,
            message: error,
        })
    }

    fn violation(&mut self, slot: usize, message: String) -> Result<(), String> {
        self.violated.add(1);
        self.scope.anomaly("oracle.invariant_violated", slot);
        self.failure.get_or_insert(ReplayFailure {
            slot,
            message: message.clone(),
        });
        Err(message)
    }
}
