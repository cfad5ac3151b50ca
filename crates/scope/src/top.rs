//! Rendering for the `owan-cli top` terminal dashboard.
//!
//! Pure snapshot → string so it is testable without a terminal; the CLI
//! adds the refresh loop and ANSI screen clearing around it.

use owan_obs::{format_counter_rows, format_stage_table, Snapshot};
use std::fmt::Write as _;

/// The controller's timed stages, `(label, stage name)`: the table
/// `owan-cli --obs-summary` prints and the dashboard's timing table.
pub const STAGES: [(&str, &str); 6] = [
    ("slot", "stage.slot"),
    ("anneal", "stage.anneal"),
    ("anneal iteration", "stage.anneal.iter"),
    ("circuit build", "stage.circuits"),
    ("rate assignment", "stage.rates"),
    ("update scheduling", "stage.update"),
];

fn counter(snapshot: &Snapshot, name: &str) -> u64 {
    snapshot.counters.get(name).copied().unwrap_or(0)
}

fn gauge(snapshot: &Snapshot, name: &str) -> f64 {
    snapshot.gauges.get(name).copied().unwrap_or(0.0)
}

/// Renders one dashboard frame from a recorder snapshot.
pub fn render_top(snapshot: &Snapshot, elapsed_s: f64) -> String {
    let mut out = String::new();
    let slots = counter(snapshot, "stage.slot.calls");
    let _ = writeln!(out, "owan top — {elapsed_s:.1}s elapsed, slot {slots}",);
    let _ = writeln!(
        out,
        "throughput {:.2} Gbps | active {} | queued {} | at-risk {}",
        gauge(snapshot, "slot.throughput_gbps"),
        gauge(snapshot, "slot.active_transfers") as u64,
        gauge(snapshot, "slot.queue_depth") as u64,
        gauge(snapshot, "slot.at_risk") as u64,
    );

    // Every energy evaluation counts under `anneal.cache_miss`.
    let evals = counter(snapshot, "anneal.cache_miss");
    if evals > 0 {
        let _ = writeln!(
            out,
            "anneal: {} iters, {evals} evaluations",
            counter(snapshot, "anneal.iterations"),
        );
        // By path, when the run recorded any: the
        // `anneal.cache_miss.<reason>` counters partition the total.
        let reason_rows: Vec<(&str, u64)> = snapshot
            .counters
            .iter()
            .filter(|(name, _)| name.starts_with("anneal.cache_miss."))
            .map(|(name, value)| (name.as_str(), *value))
            .collect();
        if reason_rows.iter().any(|&(_, n)| n > 0) {
            out.push_str(&format_counter_rows(&reason_rows));
        }
    }

    // Rate assignment: shortest-paths-first passes run, and what they did.
    let passes = counter(snapshot, "rates.full_evals");
    if passes > 0 {
        let _ = writeln!(
            out,
            "rates: {passes} passes, {} paths examined, {} allocations, {} starvation promotions",
            counter(snapshot, "rates.paths_examined"),
            counter(snapshot, "rates.allocations_made"),
            counter(snapshot, "rates.starvation_promotions"),
        );
    }

    out.push('\n');
    // Only list stages that have run, so baselines without annealing get
    // a compact table.
    let active_stages: Vec<(&str, &str)> = STAGES
        .iter()
        .copied()
        .filter(|(_, name)| counter(snapshot, &format!("{name}.calls")) > 0)
        .collect();
    if active_stages.is_empty() {
        out.push_str("(no stage timings yet)\n");
    } else {
        out.push_str(&format_stage_table(snapshot, &active_stages));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use owan_obs::Recorder;

    #[test]
    fn dashboard_shows_gauges_evaluations_and_stages() {
        let rec = Recorder::enabled();
        rec.gauge("slot.throughput_gbps").set(42.5);
        rec.gauge("slot.active_transfers").set(7.0);
        rec.gauge("slot.at_risk").set(2.0);
        rec.counter("anneal.cache_miss").add(101);
        rec.counter("anneal.iterations").add(100);
        rec.stage("stage.slot").record_ns(5_000_000);
        let text = render_top(&rec.snapshot(), 3.25);
        assert!(text.contains("3.2s elapsed"));
        assert!(text.contains("throughput 42.50 Gbps"));
        assert!(text.contains("at-risk 2"));
        assert!(text.contains("anneal: 100 iters, 101 evaluations"));
        assert!(text.contains("slot"));
    }

    #[test]
    fn miss_attribution_table_appears_with_reason_counters() {
        let rec = Recorder::enabled();
        rec.counter("anneal.cache_miss").add(5);
        rec.counter("anneal.cache_miss.cold").add(4);
        rec.counter("anneal.cache_miss.uncached").add(1);
        let text = render_top(&rec.snapshot(), 0.0);
        assert!(text.contains("anneal.cache_miss.cold"));
        assert!(text.contains("anneal.cache_miss.uncached"));
    }

    #[test]
    fn rates_row_appears_with_counters() {
        let rec = Recorder::enabled();
        rec.counter("rates.full_evals").add(40);
        rec.counter("rates.paths_examined").add(900);
        rec.counter("rates.allocations_made").add(700);
        rec.counter("rates.starvation_promotions").add(2);
        let text = render_top(&rec.snapshot(), 0.0);
        assert!(
            text.contains(
                "rates: 40 passes, 900 paths examined, 700 allocations, 2 starvation promotions"
            ),
            "{text}"
        );
        let none = render_top(&Recorder::enabled().snapshot(), 0.0);
        assert!(!none.contains("rates:"), "no rates row without counters");
    }

    #[test]
    fn empty_snapshot_renders_placeholder() {
        let text = render_top(&Recorder::disabled().snapshot(), 0.0);
        assert!(text.contains("(no stage timings yet)"));
    }
}
