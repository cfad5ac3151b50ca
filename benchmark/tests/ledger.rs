//! The metric tables, the statistics helpers and the span arithmetic.

use owan_benchmark::metrics::{
    manifest_json, overhead_cell, percentile, MetricDef, END_TO_END, PER_LAYER,
};
use owan_benchmark::spans::{layer_table, self_times, Span};
use owan_benchmark::workloads::WORKLOADS;
use std::collections::BTreeSet;

fn well_formed(name: &str, max: usize, extra: &str) -> bool {
    !name.is_empty()
        && name.len() <= max
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
}

#[test]
fn metric_names_and_units_meet_the_contract() {
    let mut seen = BTreeSet::new();
    for d in END_TO_END.iter().chain(&PER_LAYER) {
        assert!(well_formed(d.name, 64, "_.-"), "name {:?}", d.name);
        assert!(
            d.name.starts_with(|c: char| c.is_ascii_alphanumeric()),
            "name {:?} must start with a letter or digit",
            d.name
        );
        assert!(well_formed(d.unit, 16, "_/%.-"), "unit {:?}", d.unit);
        assert!(seen.insert(d.name), "{} defined twice", d.name);
    }
    for w in &WORKLOADS {
        assert!(well_formed(w.name, 64, "_.-"));
        assert!(seen.insert(w.name), "{} used twice", w.name);
        assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.why);
    }
    assert!((1..=16).contains(&END_TO_END.len()));
    assert!((1..=128).contains(&PER_LAYER.len()));
}

#[test]
fn end_to_end_bounds_are_set_and_setup_has_the_largest() {
    let setup: &MetricDef = END_TO_END
        .iter()
        .find(|d| d.name == "setup_s")
        .expect("setup_s is an end-to-end metric");
    assert_eq!((setup.unit, setup.better.as_str()), ("s", "lower"));
    for d in &END_TO_END {
        assert!(
            d.bound > 0.0 && d.bound <= 0.25,
            "{} bound {}",
            d.name,
            d.bound
        );
        assert!(d.bound <= setup.bound, "{} exceeds setup_s's bound", d.name);
    }
}

#[test]
fn checked_in_manifest_is_the_generated_one() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let workloads: Vec<(&str, &str)> = WORKLOADS.iter().map(|w| (w.name, w.why)).collect();
    assert_eq!(
        on_disk,
        manifest_json(&workloads),
        "BENCHMARK.json differs from what the metric tables generate"
    );
    assert!(on_disk.len() <= 64 * 1024);
}

#[test]
fn a_seed_picks_its_request_sets_from_the_pool() {
    for w in &WORKLOADS {
        let sets = w.request_sets(7, 20);
        assert_eq!(
            sets,
            w.request_sets(7, 20),
            "{}: same seed, other sets",
            w.name
        );
        assert_ne!(
            sets,
            w.request_sets(8, 20),
            "{}: other seed, same sets",
            w.name
        );
        let distinct: BTreeSet<u64> = sets.iter().copied().collect();
        assert_eq!(distinct.len(), 20, "{}: a set drawn twice", w.name);
        assert!(sets.iter().all(|&k| k < w.pool_sets));
        // A shorter run is a prefix of a longer one on the same seed.
        assert_eq!(w.request_sets(7, 5), sets[..5]);
    }
}

#[test]
fn percentile_refuses_a_tail_with_fewer_than_ten_samples_beyond() {
    let xs: Vec<f64> = (1..=90).map(f64::from).collect();
    // 90 samples: p90 reads the 81st, which leaves 9 beyond it.
    let refused = percentile(&xs, 90.0).expect_err("9 samples beyond p90");
    assert_eq!((refused.samples, refused.beyond), (90, 9));
    let xs: Vec<f64> = (1..=101).map(f64::from).collect();
    assert_eq!(percentile(&xs, 90.0), Ok(91.0));
    assert!(percentile(&xs, 95.0).is_err(), "5 beyond p95");
    // The median needs no tail.
    assert_eq!(percentile(&[3.0, 1.0, 2.0], 50.0), Ok(2.0));
    assert!(percentile(&[], 50.0).is_err());
}

#[test]
fn an_overhead_inside_its_mad_is_unresolved_never_negative() {
    assert!(overhead_cell(-0.06, 0.01).starts_with("unresolved"));
    assert!(overhead_cell(0.004, 0.009).starts_with("unresolved"));
    assert_eq!(overhead_cell(0.05, 0.01), "0.0500 ± 0.0100");
}

fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
    Span {
        name,
        start_ns,
        end_ns,
        parent,
        run: 0,
        slot: 0,
    }
}

#[test]
fn self_time_is_duration_minus_what_children_cover() {
    let spans = vec![
        span("slot", 0, 100, None),           // 0
        span("plan", 10, 60, Some(0)),        // 1: covers 50 of slot
        span("core.anneal", 20, 50, Some(1)), // 2: covers 30 of plan
        span("update", 55, 80, Some(0)),      // 3: overlaps plan by 5
        span("late", 90, 130, Some(0)),       // 4: sticks out of slot by 30
        span("core.rates", 25, 30, Some(2)),  // 5
    ];
    let own = self_times(&spans);
    // slot: children cover [10,60) ∪ [55,80) ∪ [90,100) = 70 + 10.
    assert_eq!(own[0], 100 - 80);
    assert_eq!(own[1], 50 - 30);
    assert_eq!(own[2], 30 - 5);
    assert_eq!(own[3], 25);
    assert_eq!(own[4], 40);
    assert_eq!(own[5], 5);

    let table = layer_table(&spans);
    assert_eq!(table["slot"].count, 1);
    assert_eq!(table["slot"].total_ns, 100);
    assert_eq!(table["slot"].self_ns, 20);
}
