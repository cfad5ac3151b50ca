//! Smoke tests for every figure pipeline at tiny scale: each experiment in
//! EXPERIMENTS.md must run end to end and produce sane shapes.

use owan::sim::metrics::SizeBin;
use owan_bench::figs::{fig7, fig8, fig9};
use owan_bench::micro::{fig10a, fig10b, fig10c, fig10d, validation};
use owan_bench::scale::{net_by_name, Scale};

fn tiny() -> Scale {
    Scale {
        duration_s: 900.0,
        max_requests: 10,
        anneal_iterations: 40,
        loads: vec![1.0],
        deadline_factors: vec![10.0],
        ..Scale::quick()
    }
}

#[test]
fn fig7_and_fig8_all_networks() {
    for name in ["internet2", "isp", "interdc"] {
        let net = net_by_name(name);
        let scale = Scale {
            max_requests: 8,
            ..tiny()
        };
        let points = fig7(&net, &scale);
        assert_eq!(points.len(), 1, "{name}");
        for p in &points {
            for r in &p.results {
                assert!(r.all_completed(), "{name}/{}", r.engine);
            }
            let (avg, p95) = p.improvement(1, SizeBin::All);
            assert!(avg > 0.0 && p95 > 0.0);
        }
        let f8 = fig8(&points);
        assert!(f8[0].improvements.iter().all(|&v| v > 0.0));
    }
}

#[test]
fn fig9_internet2() {
    let net = net_by_name("internet2");
    let points = fig9(&net, &tiny());
    for p in &points {
        let met = p.pct_met(SizeBin::All);
        assert_eq!(met.len(), 6);
        for v in met {
            assert!((0.0..=100.0).contains(&v));
        }
    }
}

#[test]
fn fig10a_annealing_vs_greedy() {
    let (sa, greedy) = fig10a(&tiny());
    assert!(!sa.is_empty() && !greedy.is_empty());
    let avg = |s: &[(f64, f64)]| s.iter().map(|p| p.1).sum::<f64>() / s.len() as f64;
    // At tiny scale the gap fluctuates; just require SA not be crushed.
    assert!(avg(&sa) > 0.0);
    assert!(avg(&greedy) >= 0.0);
}

#[test]
fn fig10b_oneshot_dips_consistent_does_not() {
    let fig = fig10b(&tiny());
    let min = |s: &[owan::update::TimelinePoint]| {
        s.iter()
            .map(|p| p.throughput_gbps)
            .fold(f64::INFINITY, f64::min)
    };
    // Consistent keeps live traffic flowing; one-shot loses strictly more
    // (in this scenario, everything crossing a reconfigured circuit).
    assert!(
        min(&fig.consistent) > 0.0,
        "consistent update lost all traffic"
    );
    // The comparison is only meaningful when circuits actually move: a
    // pure path swap has nothing to darken, and the consistent schedule's
    // capacity-ordered staging can transiently carry less than an
    // instantaneous swap. At tiny annealing scales the search may settle
    // on such a plan; at full scale the demand shift forces optical churn
    // and one-shot strictly loses.
    if fig.circuit_ops > 0 {
        assert!(
            min(&fig.one_shot) <= min(&fig.consistent) + 1e-6,
            "one-shot ({}) cannot lose less than consistent ({})",
            min(&fig.one_shot),
            min(&fig.consistent)
        );
    }
}

#[test]
fn fig10c_monotone_in_control() {
    let rows = fig10c(&Scale {
        loads: vec![1.0],
        ..tiny()
    });
    for (_, [rate, routing, topo]) in &rows {
        assert!(
            *rate >= *routing - 0.3,
            "routing should help: {rate} vs {routing}"
        );
        assert!(
            *routing >= *topo - 0.3,
            "topology should help: {routing} vs {topo}"
        );
    }
}

#[test]
fn fig10d_budget_sweep_runs() {
    let scale = Scale {
        max_requests: 6,
        ..tiny()
    };
    let rows = fig10d(&scale);
    assert_eq!(rows.len(), 5);
    for r in &rows {
        assert!(r.iterations > 0);
        assert!(r.iterations_run > 0.0 && r.iterations_run <= r.iterations as f64);
        assert!(r.avg_completion_s > 0.0);
    }
    // A larger search budget never catastrophically hurts (within noise).
    let first = rows[0].avg_completion_s;
    let last = rows.last().unwrap().avg_completion_s;
    assert!(
        last <= first * 1.5,
        "{} iterations {last} vs {} {first}",
        rows.last().unwrap().iterations,
        rows[0].iterations
    );
}

#[test]
fn validation_deltas_reported() {
    let reports = validation(&tiny());
    assert_eq!(reports.len(), 3);
    for r in &reports {
        assert!(r.avg_delta() >= 0.0);
        assert!(
            r.avg_delta() <= 0.5,
            "{}: delta {}",
            r.engine,
            r.avg_delta()
        );
    }
}
