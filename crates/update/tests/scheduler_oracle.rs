//! Oracle tests for the update scheduler: termination on crafted
//! dependency cycles, circuit-before-IP ordering (§3.3), and the forced
//! escape hatch as the documented fallback for genuine resource deadlocks.

use owan_update::{
    plan_consistent, CircuitDesc, NetworkDelta, OpKind, PathDesc, UpdateParams, UpdatePlan,
};

const THETA: f64 = 10.0;

fn params() -> UpdateParams {
    UpdateParams {
        theta_gbps: THETA,
        ..Default::default()
    }
}

fn op_of(plan: &UpdatePlan, pred: impl Fn(OpKind) -> bool) -> owan_update::ScheduledOp {
    let ops = plan.ops_of(pred);
    assert_eq!(ops.len(), 1, "expected exactly one matching op");
    ops[0]
}

/// A genuine four-operation dependency cycle:
///
/// ```text
/// TeardownCircuit(0,1)  needs load off (0,1)      -> RemovePath(0-1)
/// RemovePath(0-1)       make-before-break         -> AddPath(0-2)
/// AddPath(0-2)          needs a (0,2) circuit     -> SetupCircuit(0,2)
/// SetupCircuit(0,2)     needs fiber 9's wavelength-> TeardownCircuit(0,1)
/// ```
///
/// No operation can start; Dionysus resolves this class by rate
/// reduction, which this scheduler surfaces as a `forced` start instead.
fn cyclic_delta() -> NetworkDelta {
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
    d.removed_paths.push(PathDesc {
        transfer: 0,
        nodes: vec![0, 1],
        rate_gbps: THETA,
    });
    d.added_paths.push(PathDesc {
        transfer: 0,
        nodes: vec![0, 2],
        rate_gbps: THETA,
    });
    d
}

#[test]
fn crafted_cycle_terminates_with_forced_escape_hatch() {
    let d = cyclic_delta();
    let plan = plan_consistent(&d, &params());
    // Termination with every operation scheduled exactly once...
    assert_eq!(plan.ops.len(), d.op_count());
    assert!(plan.makespan_s.is_finite());
    assert!(plan.makespan_s <= 100.0 * params().circuit_time_s);
    // ...and the deadlock broken by the documented fallback, not silently.
    assert!(
        plan.ops.iter().any(|o| o.forced),
        "a genuine cycle must engage the forced escape hatch"
    );
}

#[test]
fn breaking_the_cycle_removes_the_forced_flag() {
    // Same delta, but the shared fiber has a spare wavelength: the setup
    // no longer waits on the teardown and the cycle dissolves.
    let mut d = cyclic_delta();
    d.set_fiber_free(9, 1);
    let plan = plan_consistent(&d, &params());
    assert_eq!(plan.ops.len(), d.op_count());
    assert!(
        plan.ops.iter().all(|o| !o.forced),
        "no deadlock once a wavelength is spare: {:?}",
        plan.ops
    );
}

#[test]
fn forced_op_is_the_first_pending_in_op_order() {
    // Regression pin for the escape hatch's determinism: the scheduler
    // breaks deadlocks by force-starting the *first* pending operation in
    // its fixed op enumeration (removals, teardowns, setups, adds) — here
    // the path removal, which is Dionysus's rate-reduction analogue
    // (taking traffic off the old path first).
    let plan = plan_consistent(&cyclic_delta(), &params());
    let forced: Vec<_> = plan.ops.iter().filter(|o| o.forced).collect();
    assert_eq!(forced.len(), 1, "one forced start breaks this cycle");
    assert!(
        matches!(forced[0].kind, OpKind::RemovePath(0)),
        "expected the path removal to be forced, got {:?}",
        forced[0].kind
    );
}

#[test]
fn deadlock_scan_over_crafted_wavelength_chains() {
    // Chains of circuits contending for one fiber's single wavelength:
    // setup[i] can only run after teardown[i] frees the channel. Whatever
    // the chain length, the scheduler must terminate with every op
    // scheduled and (absent load) nothing forced.
    for chain in 1..6 {
        let mut d = NetworkDelta::default();
        for i in 0..chain {
            d.set_initial_circuits(0, i + 1, 1);
            d.set_fiber_free(i, 0);
            d.removed_circuits.push(CircuitDesc {
                u: 0,
                v: i + 1,
                fibers: vec![i],
            });
            d.added_circuits.push(CircuitDesc {
                u: 1,
                v: i + 2,
                fibers: vec![i],
            });
        }
        let plan = plan_consistent(&d, &params());
        assert_eq!(plan.ops.len(), d.op_count(), "chain {chain}");
        assert!(plan.ops.iter().all(|o| !o.forced), "chain {chain}");
        // Each setup waits for the teardown sharing its fiber.
        for i in 0..chain {
            let teardown = op_of(&plan, |k| k == OpKind::TeardownCircuit(i));
            let setup = op_of(&plan, |k| k == OpKind::SetupCircuit(i));
            assert!(
                setup.start_s >= teardown.end_s - 1e-9,
                "chain {chain}: setup {} before teardown end {}",
                setup.start_s,
                teardown.end_s
            );
        }
    }
}

/// §3.3's ordering on the install side: a path over a brand-new circuit is
/// installed only after the circuit is up (circuit-before-IP).
#[test]
fn install_side_orders_circuit_before_ip() {
    let mut d = NetworkDelta::default();
    d.set_fiber_free(3, 2);
    d.added_circuits.push(CircuitDesc {
        u: 0,
        v: 2,
        fibers: vec![3],
    });
    d.added_paths.push(PathDesc {
        transfer: 7,
        nodes: vec![0, 2],
        rate_gbps: 5.0,
    });
    let plan = plan_consistent(&d, &params());
    assert!(plan.ops.iter().all(|o| !o.forced));
    let setup = op_of(&plan, |k| matches!(k, OpKind::SetupCircuit(_)));
    let add = op_of(&plan, |k| matches!(k, OpKind::AddPath(_)));
    assert!(
        add.start_s >= setup.end_s - 1e-9,
        "IP path installed at {} before its circuit was lit at {}",
        add.start_s,
        setup.end_s
    );
}

/// §3.3's ordering on the removal side, mirrored: the circuit under a
/// dying path is darkened only once the path's traffic is off it
/// (IP-before-circuit — the same rule seen from the teardown).
#[test]
fn removal_side_orders_ip_before_circuit() {
    let mut d = NetworkDelta::default();
    d.set_initial_circuits(0, 1, 1);
    d.set_fiber_free(0, 0);
    d.removed_circuits.push(CircuitDesc {
        u: 0,
        v: 1,
        fibers: vec![0],
    });
    d.removed_paths.push(PathDesc {
        transfer: 1,
        nodes: vec![0, 1],
        rate_gbps: THETA,
    });
    let plan = plan_consistent(&d, &params());
    assert!(plan.ops.iter().all(|o| !o.forced));
    let remove = op_of(&plan, |k| matches!(k, OpKind::RemovePath(_)));
    let teardown = op_of(&plan, |k| matches!(k, OpKind::TeardownCircuit(_)));
    // Traffic leaves the path at removal start; only then may the circuit
    // go dark.
    assert!(
        teardown.start_s >= remove.start_s - 1e-9,
        "circuit darkened at {} while its path still carried traffic until {}",
        teardown.start_s,
        remove.start_s
    );
}
