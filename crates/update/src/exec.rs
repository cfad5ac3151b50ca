//! Executing an update schedule against an unreliable data plane.
//!
//! The scheduler ([`crate::plan`]) assumes every reconfiguration command
//! succeeds on first try. Real ROADM/router agents time out or fail
//! outright (OpenOptics-style controller evaluations put command failure,
//! not topology loss, at the center of optical-WAN robustness). This module
//! replays a scheduled [`UpdatePlan`] through a fault injector: each
//! faulted attempt is retried after a capped exponential backoff, and an
//! operation that exhausts its retry budget is **aborted** together with
//! its dependent subtree (per [`crate::plan::dependency_edges`]) — a
//! circuit that never came up must not have paths installed over it.
//!
//! The caller (the chaos controller in `owan-chaos`) folds the surviving
//! operations into its achieved network state and replans the rest next
//! slot.

use crate::plan::{dependency_edges, NetworkDelta, OpKind, ScheduledOp, UpdatePlan};

const EPS: f64 = 1e-9;

/// What the injector did to one execution attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpFault {
    /// The command succeeded.
    None,
    /// The command timed out: the agent never acknowledged, costing
    /// [`RetryPolicy::timeout_s`] before the controller gives up on the
    /// attempt.
    Timeout,
    /// The command failed fast: the agent NACKed after the op's nominal
    /// duration.
    Fail,
}

/// Retry/backoff policy for faulted operations.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Additional attempts after the first (0 = no retries).
    pub max_retries: u32,
    /// Backoff before the first retry, seconds; doubles per attempt.
    pub base_backoff_s: f64,
    /// Cap on any single backoff, seconds.
    pub backoff_cap_s: f64,
    /// Wall-clock cost of a timed-out attempt, seconds (at least the op's
    /// nominal duration).
    pub timeout_s: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 3,
            base_backoff_s: 0.5,
            backoff_cap_s: 8.0,
            timeout_s: 10.0,
        }
    }
}

impl RetryPolicy {
    /// Backoff after the `attempt`-th failed attempt (1-based): capped
    /// exponential, `min(cap, base · 2^(attempt-1))`.
    pub fn backoff_s(&self, attempt: u32) -> f64 {
        let exp = self.base_backoff_s * 2.0f64.powi(attempt.saturating_sub(1).min(30) as i32);
        exp.min(self.backoff_cap_s)
    }
}

/// Terminal state of one operation after execution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OpStatus {
    /// The operation eventually succeeded.
    Completed {
        /// When the successful attempt started, seconds.
        start_s: f64,
        /// When it completed.
        end_s: f64,
    },
    /// The operation exhausted its retry budget, or a prerequisite did.
    Aborted,
}

/// Execution outcome of one scheduled operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpExecution {
    /// The operation (indexes into the delta, like [`ScheduledOp::kind`]).
    pub kind: OpKind,
    /// Attempts made (0 when aborted transitively without ever starting).
    pub attempts: u32,
    /// How it ended.
    pub status: OpStatus,
}

impl OpExecution {
    /// True if the operation completed.
    pub fn completed(&self) -> bool {
        matches!(self.status, OpStatus::Completed { .. })
    }
}

/// Report of one plan execution.
#[derive(Debug, Clone, Default)]
pub struct ExecReport {
    /// Outcome per scheduled op, in the plan's op order.
    pub ops: Vec<OpExecution>,
    /// When the last completed operation finished (0 if none completed).
    pub makespan_s: f64,
    /// Faulted attempts that were retried.
    pub retries: u64,
    /// Attempts that timed out.
    pub timeouts: u64,
    /// Attempts that failed fast.
    pub failures: u64,
    /// Operations aborted (including transitively).
    pub aborted: u64,
}

impl ExecReport {
    /// True if every operation completed without a single fault.
    pub fn clean(&self) -> bool {
        self.aborted == 0 && self.timeouts == 0 && self.failures == 0
    }

    /// The completed operations as a pseudo-[`UpdatePlan`] carrying their
    /// *actual* (post-retry) start/end times, suitable for replaying
    /// through [`crate::throughput_timeline`] to price the transition that
    /// really happened.
    pub fn as_executed_plan(&self) -> UpdatePlan {
        let mut ops: Vec<ScheduledOp> = self
            .ops
            .iter()
            .filter_map(|o| match o.status {
                OpStatus::Completed { start_s, end_s } => Some(ScheduledOp {
                    kind: o.kind,
                    start_s,
                    end_s,
                    forced: false,
                }),
                OpStatus::Aborted => None,
            })
            .collect();
        ops.sort_by(|a, b| a.start_s.total_cmp(&b.start_s));
        UpdatePlan {
            ops,
            makespan_s: self.makespan_s,
        }
    }
}

/// Executes `plan` against the fault injector `inject`, which is called
/// once per attempt with `(op index into plan.ops, attempt number)` (the
/// attempt number is 1-based) and decides that attempt's fate.
///
/// Semantics:
/// * Operations run in dependency order ([`dependency_edges`] restricted
///   to the ops actually scheduled; cycles — only possible with `forced`
///   schedules — fall back to scheduled start order).
/// * An op's first attempt starts at its scheduled start or after all its
///   prerequisites' actual completions, whichever is later: retries of a
///   prerequisite push its dependents back.
/// * Each faulted attempt costs its duration (fail-fast) or
///   [`RetryPolicy::timeout_s`] (timeout), then a capped exponential
///   backoff before the next attempt.
/// * An op whose faulted attempts exceed [`RetryPolicy::max_retries`] is
///   aborted, and so is — transitively, without consuming attempts — every
///   op depending on it.
pub fn execute_plan(
    delta: &NetworkDelta,
    plan: &UpdatePlan,
    retry: &RetryPolicy,
    inject: &mut dyn FnMut(usize, u32) -> OpFault,
) -> ExecReport {
    let n = plan.ops.len();
    // Dependency edges among the ops actually present in the plan: where
    // each of the delta's ops sits in `plan.ops` (the later entry when the
    // plan names one twice).
    const ABSENT: usize = usize::MAX;
    let mut index_of = vec![ABSENT; delta.op_count()];
    for (i, o) in plan.ops.iter().enumerate() {
        if let Some(slot) = delta.op_slot(o.kind) {
            index_of[slot] = i;
        }
    }
    let planned = |kind: OpKind| {
        delta
            .op_slot(kind)
            .map(|slot| index_of[slot])
            .filter(|&i| i != ABSENT)
    };
    let mut prereqs: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (pre, dep) in dependency_edges(delta) {
        if let (Some(p), Some(d)) = (planned(pre), planned(dep)) {
            prereqs[d].push(p);
        }
    }

    // Topological order (Kahn), ties broken by scheduled start order;
    // cycle remnants (forced schedules) appended in plan order with their
    // unprocessed prerequisites ignored.
    let mut indegree: Vec<usize> = prereqs.iter().map(|p| p.len()).collect();
    let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (d, ps) in prereqs.iter().enumerate() {
        for &p in ps {
            dependents[p].push(d);
        }
    }
    let mut order: Vec<usize> = Vec::with_capacity(n);
    let mut frontier: Vec<usize> = (0..n).filter(|&i| indegree[i] == 0).collect();
    while let Some(&i) = frontier.iter().min_by(|&&a, &&b| {
        plan.ops[a]
            .start_s
            .total_cmp(&plan.ops[b].start_s)
            .then(a.cmp(&b))
    }) {
        frontier.retain(|&x| x != i);
        order.push(i);
        for &d in &dependents[i] {
            indegree[d] -= 1;
            if indegree[d] == 0 {
                frontier.push(d);
            }
        }
    }
    let mut in_order = vec![false; n];
    for &i in &order {
        in_order[i] = true;
    }
    order.extend((0..n).filter(|&i| !in_order[i]));

    let mut report = ExecReport {
        ops: plan
            .ops
            .iter()
            .map(|o| OpExecution {
                kind: o.kind,
                attempts: 0,
                status: OpStatus::Aborted,
            })
            .collect(),
        ..Default::default()
    };
    let mut end_of: Vec<Option<f64>> = vec![None; n];
    let mut aborted: Vec<bool> = vec![false; n];

    for &i in &order {
        if prereqs[i].iter().any(|&p| aborted[p]) {
            aborted[i] = true;
            report.aborted += 1;
            continue;
        }
        let duration = plan.ops[i].end_s - plan.ops[i].start_s;
        let mut t = plan.ops[i].start_s;
        for &p in &prereqs[i] {
            if let Some(e) = end_of[p] {
                t = t.max(e);
            }
        }
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            match inject(i, attempt) {
                OpFault::None => {
                    let end = t + duration;
                    report.ops[i] = OpExecution {
                        kind: plan.ops[i].kind,
                        attempts: attempt,
                        status: OpStatus::Completed {
                            start_s: t,
                            end_s: end,
                        },
                    };
                    end_of[i] = Some(end);
                    report.makespan_s = report.makespan_s.max(end);
                    break;
                }
                fault => {
                    let cost = match fault {
                        OpFault::Timeout => {
                            report.timeouts += 1;
                            retry.timeout_s.max(duration)
                        }
                        _ => {
                            report.failures += 1;
                            duration
                        }
                    };
                    if attempt > retry.max_retries {
                        report.ops[i].attempts = attempt;
                        aborted[i] = true;
                        report.aborted += 1;
                        break;
                    }
                    report.retries += 1;
                    t += cost + retry.backoff_s(attempt);
                }
            }
        }
    }
    debug_assert!(report.makespan_s >= -EPS);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{plan_consistent, CircuitDesc, PathDesc, UpdateParams};

    /// Delta with a full dependency chain: teardown (0,1) frees fiber 9,
    /// setup (0,2) takes it, then the new path 0-2 installs, and finally
    /// the old path's removal (make-before-break) lets teardown of its
    /// link… kept minimal: setup → add-path chain plus an independent op.
    fn chain_delta() -> NetworkDelta {
        let mut d = NetworkDelta::default();
        d.set_initial_circuits(0, 1, 1);
        d.set_fiber_free(9, 0);
        d.removed_circuits.push(CircuitDesc {
            u: 0,
            v: 1,
            fibers: vec![9],
        });
        d.added_circuits.push(CircuitDesc {
            u: 0,
            v: 2,
            fibers: vec![9],
        });
        d.added_paths.push(PathDesc {
            transfer: 0,
            nodes: vec![0, 2],
            rate_gbps: 50.0,
        });
        d
    }

    fn no_faults(_: usize, _: u32) -> OpFault {
        OpFault::None
    }

    #[test]
    fn clean_execution_matches_schedule() {
        let d = chain_delta();
        let plan = plan_consistent(&d, &UpdateParams::default());
        let report = execute_plan(&d, &plan, &RetryPolicy::default(), &mut no_faults);
        assert!(report.clean());
        assert_eq!(report.ops.len(), plan.ops.len());
        for (exec, sched) in report.ops.iter().zip(&plan.ops) {
            let OpStatus::Completed { start_s, end_s } = exec.status else {
                panic!("all ops complete");
            };
            assert!((start_s - sched.start_s).abs() < 1e-9);
            assert!((end_s - sched.end_s).abs() < 1e-9);
            assert_eq!(exec.attempts, 1);
        }
        assert!((report.makespan_s - plan.makespan_s).abs() < 1e-9);
    }

    #[test]
    fn retry_delays_op_and_dependents() {
        let d = chain_delta();
        let params = UpdateParams::default();
        let plan = plan_consistent(&d, &params);
        let setup_idx = plan
            .ops
            .iter()
            .position(|o| matches!(o.kind, OpKind::SetupCircuit(_)))
            .unwrap();
        let retry = RetryPolicy::default();
        let mut inject = |op: usize, attempt: u32| {
            if op == setup_idx && attempt == 1 {
                OpFault::Fail
            } else {
                OpFault::None
            }
        };
        let report = execute_plan(&d, &plan, &retry, &mut inject);
        assert_eq!(report.failures, 1);
        assert_eq!(report.retries, 1);
        assert_eq!(report.aborted, 0);
        // The setup slips by one failed attempt + backoff…
        let OpStatus::Completed {
            end_s: setup_end, ..
        } = report.ops[setup_idx].status
        else {
            panic!("setup completes on retry");
        };
        let slip = params.circuit_time_s + retry.backoff_s(1);
        assert!(
            (setup_end - (plan.ops[setup_idx].end_s + slip)).abs() < 1e-9,
            "setup end {setup_end}"
        );
        // …and the dependent path install starts no earlier than that.
        let add_idx = plan
            .ops
            .iter()
            .position(|o| matches!(o.kind, OpKind::AddPath(_)))
            .unwrap();
        let OpStatus::Completed {
            start_s: add_start, ..
        } = report.ops[add_idx].status
        else {
            panic!("add completes");
        };
        assert!(add_start >= setup_end - 1e-9);
    }

    #[test]
    fn exhausted_retries_abort_dependent_subtree() {
        let d = chain_delta();
        let plan = plan_consistent(&d, &UpdateParams::default());
        let setup_idx = plan
            .ops
            .iter()
            .position(|o| matches!(o.kind, OpKind::SetupCircuit(_)))
            .unwrap();
        let retry = RetryPolicy {
            max_retries: 2,
            ..Default::default()
        };
        let mut inject = |op: usize, _: u32| {
            if op == setup_idx {
                OpFault::Timeout
            } else {
                OpFault::None
            }
        };
        let report = execute_plan(&d, &plan, &retry, &mut inject);
        assert_eq!(report.timeouts, 3, "initial attempt + 2 retries");
        assert_eq!(report.retries, 2);
        // Setup aborted, and the path install over the never-built circuit
        // aborted transitively without consuming attempts.
        assert_eq!(report.aborted, 2);
        assert_eq!(report.ops[setup_idx].status, OpStatus::Aborted);
        assert_eq!(report.ops[setup_idx].attempts, 3);
        let add_idx = plan
            .ops
            .iter()
            .position(|o| matches!(o.kind, OpKind::AddPath(_)))
            .unwrap();
        assert_eq!(report.ops[add_idx].status, OpStatus::Aborted);
        assert_eq!(report.ops[add_idx].attempts, 0);
        // The teardown does not depend on the setup and still completes.
        let teardown_idx = plan
            .ops
            .iter()
            .position(|o| matches!(o.kind, OpKind::TeardownCircuit(_)))
            .unwrap();
        assert!(report.ops[teardown_idx].completed());
    }

    #[test]
    fn edges_follow_the_later_entry_and_skip_ops_outside_the_delta() {
        let d = chain_delta();
        let mut plan = plan_consistent(&d, &UpdateParams::default());
        // The setup named a second time, much later: the path install's
        // prerequisite is that entry. An op the delta does not have has no
        // edges and simply runs.
        plan.ops.push(ScheduledOp {
            kind: OpKind::SetupCircuit(0),
            start_s: 20.0,
            end_s: 24.0,
            forced: false,
        });
        plan.ops.push(ScheduledOp {
            kind: OpKind::AddPath(7),
            start_s: 1.0,
            end_s: 1.1,
            forced: false,
        });
        let report = execute_plan(&d, &plan, &RetryPolicy::default(), &mut no_faults);
        assert!(report.clean());
        let end_of = |i: usize| match report.ops[i].status {
            OpStatus::Completed { start_s, end_s } => (start_s, end_s),
            OpStatus::Aborted => panic!("op {i} aborted"),
        };
        let add_idx = plan
            .ops
            .iter()
            .position(|o| o.kind == OpKind::AddPath(0))
            .unwrap();
        assert!(end_of(add_idx).0 >= 24.0 - 1e-9, "{:?}", end_of(add_idx));
        assert_eq!(end_of(plan.ops.len() - 1), (1.0, 1.1));
    }

    #[test]
    fn backoff_is_capped_exponential() {
        let r = RetryPolicy {
            max_retries: 10,
            base_backoff_s: 1.0,
            backoff_cap_s: 6.0,
            timeout_s: 10.0,
        };
        assert_eq!(r.backoff_s(1), 1.0);
        assert_eq!(r.backoff_s(2), 2.0);
        assert_eq!(r.backoff_s(3), 4.0);
        assert_eq!(r.backoff_s(4), 6.0, "capped");
        assert_eq!(r.backoff_s(8), 6.0);
    }

    #[test]
    fn executed_plan_carries_actual_times() {
        let d = chain_delta();
        let plan = plan_consistent(&d, &UpdateParams::default());
        let setup_idx = plan
            .ops
            .iter()
            .position(|o| matches!(o.kind, OpKind::SetupCircuit(_)))
            .unwrap();
        let mut inject = |op: usize, attempt: u32| {
            if op == setup_idx && attempt == 1 {
                OpFault::Fail
            } else {
                OpFault::None
            }
        };
        let report = execute_plan(&d, &plan, &RetryPolicy::default(), &mut inject);
        let executed = report.as_executed_plan();
        assert_eq!(executed.ops.len(), plan.ops.len());
        assert!(executed.makespan_s > plan.makespan_s, "retry slipped it");
        // Starts are sorted like a scheduler-produced plan.
        for w in executed.ops.windows(2) {
            assert!(w[0].start_s <= w[1].start_s + 1e-9);
        }
    }

    #[test]
    fn timeout_costs_more_than_fail_fast() {
        let d = chain_delta();
        let plan = plan_consistent(&d, &UpdateParams::default());
        let setup_idx = plan
            .ops
            .iter()
            .position(|o| matches!(o.kind, OpKind::SetupCircuit(_)))
            .unwrap();
        let run = |fault: OpFault| {
            let mut inject = |op: usize, attempt: u32| {
                if op == setup_idx && attempt == 1 {
                    fault
                } else {
                    OpFault::None
                }
            };
            execute_plan(&d, &plan, &RetryPolicy::default(), &mut inject).makespan_s
        };
        assert!(run(OpFault::Timeout) > run(OpFault::Fail));
    }
}
