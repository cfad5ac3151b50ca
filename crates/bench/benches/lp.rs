//! Criterion benches for the LP solver on baseline-TE-shaped problems.

use criterion::{criterion_group, criterion_main, Criterion};
use owan_solver::{LinearProgram, McfProblem};
use std::hint::black_box;

/// Tunnel `k` of flow `f` over `links` links: 2-4 distinct links.
fn tunnel(links: usize, f: usize, k: usize) -> Vec<usize> {
    let len = 2 + (f + k) % 3;
    (0..len).map(|h| (f * 3 + k * 5 + h * 11) % links).collect()
}

/// A TE-shaped MCF: `links` links, `flows` commodities with `tunnels`
/// paths of 2-4 links each.
fn te_problem(links: usize, flows: usize, tunnels: usize) -> McfProblem {
    let mut p = McfProblem::new((0..links).map(|i| 50.0 + (i % 7) as f64 * 10.0).collect());
    for f in 0..flows {
        let paths = (0..tunnels).map(|k| tunnel(links, f, k)).collect();
        p.add_commodity(20.0 + (f % 13) as f64, paths);
    }
    p
}

fn bench_max_throughput(c: &mut Criterion) {
    for (links, flows) in [(26, 40), (64, 150)] {
        let p = te_problem(links, flows, 3);
        c.bench_function(format!("lp_max_throughput/{links}l_{flows}f"), |b| {
            b.iter(|| black_box(&p).max_throughput())
        });
    }
}

fn bench_max_min(c: &mut Criterion) {
    let p = te_problem(26, 40, 3);
    c.bench_function("lp_max_min_fraction/26l_40f", |b| {
        b.iter(|| black_box(&p).max_min_fraction())
    });
}

/// SWAN's slot at the ISP benchmark's size: one prepared program, five
/// solves with the ceilings doubling and the floors at the previous
/// rates — the floors are what gives these LPs a phase 1.
fn bench_swan_chain(c: &mut Criterion) {
    let p = te_problem(66, 60, 4);
    let n = p.commodity_count();
    c.bench_function("lp_swan_chain/66l_60f_4t", |b| {
        b.iter(|| {
            let mut bounded = black_box(&p).bounded();
            let mut floor = vec![0.0; n];
            for step in 0..5 {
                let alpha = 2f64.powi(step - 4);
                let ceil: Vec<f64> = (0..n).map(|f| alpha * p.demand(f)).collect();
                let sol = bounded.solve(&floor, &ceil).expect("feasible");
                floor = (0..n).map(|f| sol.commodity_rate(f)).collect();
            }
            floor
        })
    });
}

/// Tempus's fraction LP at its default size (4 buckets, 2 tunnels, 150
/// transfers): volume variables per (transfer, tunnel, eligible bucket),
/// link x bucket rows, volume rows, and the `sum - V α >= -already` rows
/// whose negative right-hand sides the tableau flips.
fn bench_tempus_shaped(c: &mut Criterion) {
    let (links, buckets, transfers, tunnels) = (66, 4, 150, 2);
    let bucket_s = [300.0, 1_500.0, 4_800.0, 12_000.0];
    let mut lp = LinearProgram::maximize(0);
    let mut link_rows = vec![Vec::new(); links * buckets];
    let mut transfer_rows = vec![Vec::new(); transfers];
    for (f, of_f) in transfer_rows.iter_mut().enumerate() {
        for k in 0..tunnels {
            for b in 0..1 + f % buckets {
                let var = lp.add_var();
                for l in tunnel(links, f, k) {
                    link_rows[l * buckets + b].push((var, 1.0));
                }
                of_f.push((var, 1.0));
            }
        }
    }
    for (i, coeffs) in link_rows.iter().enumerate() {
        if !coeffs.is_empty() {
            lp.add_le(
                coeffs,
                (100 + 100 * (i / buckets % 2)) as f64 * bucket_s[i % buckets],
            );
        }
    }
    let volume = |f: usize| 20_000.0 + 9_000.0 * (f % 17) as f64;
    let already = |f: usize| {
        if f.is_multiple_of(3) {
            0.25 * volume(f)
        } else {
            0.0
        }
    };
    for (f, coeffs) in transfer_rows.iter().enumerate() {
        lp.add_le(coeffs, volume(f) - already(f));
    }
    let alpha = lp.add_var();
    lp.set_objective(alpha, 1.0);
    lp.add_le(&[(alpha, 1.0)], 1.0);
    for (f, mut coeffs) in transfer_rows.into_iter().enumerate() {
        coeffs.push((alpha, -volume(f)));
        lp.add_ge(&coeffs, -already(f));
    }
    c.bench_function("lp_tempus_fraction/66l_4b_150f_2t", |b| {
        b.iter(|| black_box(&lp).solve())
    });
}

criterion_group!(
    benches,
    bench_max_throughput,
    bench_max_min,
    bench_swan_chain,
    bench_tempus_shaped
);
criterion_main!(benches);
