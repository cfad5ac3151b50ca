//! Prometheus text-format exposition for an [`owan_obs::Snapshot`].
//!
//! Counter and gauge names are sanitized (dots and dashes become
//! underscores) and prefixed `owan_`; histograms render as cumulative
//! `_bucket{le=...}` series plus `_sum`/`_count`, per the Prometheus
//! exposition format. Span-timer histograms (names ending `.ms`) also
//! render a companion `_summary` metric with p50/p90/p99 quantile lines
//! estimated by bucket interpolation, so dashboards get tail latency
//! without a PromQL `histogram_quantile` round trip.

use owan_obs::Snapshot;
use std::fmt::Write as _;

/// `anneal.cache_miss` → `owan_anneal_cache_miss`.
fn sanitize(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 5);
    out.push_str("owan_");
    for c in name.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

fn write_float(out: &mut String, v: f64) {
    if v == v.trunc() && v.abs() < 1e15 {
        let _ = write!(out, "{v:.0}");
    } else {
        let _ = write!(out, "{v}");
    }
}

/// Renders the snapshot in Prometheus text exposition format.
pub fn render_prometheus(snapshot: &Snapshot) -> String {
    let mut out = String::new();
    for (name, value) in &snapshot.counters {
        let metric = sanitize(name);
        let _ = writeln!(out, "# TYPE {metric} counter");
        let _ = writeln!(out, "{metric} {value}");
    }
    for (name, value) in &snapshot.gauges {
        let metric = sanitize(name);
        let _ = writeln!(out, "# TYPE {metric} gauge");
        out.push_str(&metric);
        out.push(' ');
        write_float(&mut out, *value);
        out.push('\n');
    }
    for (name, hist) in &snapshot.histograms {
        let metric = sanitize(name);
        let _ = writeln!(out, "# TYPE {metric} histogram");
        let mut cumulative = 0u64;
        for (i, count) in hist.counts.iter().enumerate() {
            cumulative += count;
            match hist.bounds.get(i) {
                Some(bound) => {
                    out.push_str(&metric);
                    out.push_str("_bucket{le=\"");
                    write_float(&mut out, *bound);
                    let _ = writeln!(out, "\"}} {cumulative}");
                }
                None => {
                    let _ = writeln!(out, "{metric}_bucket{{le=\"+Inf\"}} {cumulative}");
                }
            }
        }
        out.push_str(&metric);
        out.push_str("_sum ");
        write_float(&mut out, hist.sum);
        out.push('\n');
        let _ = writeln!(out, "{metric}_count {}", hist.total);
        if name.ends_with(".ms") {
            let _ = writeln!(out, "# TYPE {metric}_summary summary");
            for (label, q) in [("0.5", 0.5), ("0.9", 0.9), ("0.99", 0.99)] {
                let _ = write!(out, "{metric}_summary{{quantile=\"{label}\"}} ");
                write_float(&mut out, hist.quantile(q));
                out.push('\n');
            }
            out.push_str(&metric);
            out.push_str("_summary_sum ");
            write_float(&mut out, hist.sum);
            out.push('\n');
            let _ = writeln!(out, "{metric}_summary_count {}", hist.total);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use owan_obs::Recorder;

    #[test]
    fn counters_gauges_and_histograms_render() {
        let rec = Recorder::enabled();
        rec.counter("anneal.cache_miss").add(41);
        rec.gauge("slot.throughput_gbps").set(12.5);
        let h = rec.histogram("stage.slot.ms", &[1.0, 10.0]);
        h.observe(0.5);
        h.observe(5.0);
        h.observe(100.0);
        let text = render_prometheus(&rec.snapshot());
        assert!(text.contains("# TYPE owan_anneal_cache_miss counter"));
        assert!(text.contains("owan_anneal_cache_miss 41"));
        assert!(text.contains("owan_slot_throughput_gbps 12.5"));
        // Cumulative buckets: 1, 2, then +Inf = 3.
        assert!(text.contains("owan_stage_slot_ms_bucket{le=\"1\"} 1"));
        assert!(text.contains("owan_stage_slot_ms_bucket{le=\"10\"} 2"));
        assert!(text.contains("owan_stage_slot_ms_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("owan_stage_slot_ms_count 3"));
    }

    #[test]
    fn span_timer_histograms_render_quantile_summaries() {
        let rec = Recorder::enabled();
        let h = rec.histogram("stage.anneal.ms", &[1.0, 10.0, 100.0]);
        for _ in 0..90 {
            h.observe(0.5);
        }
        for _ in 0..10 {
            h.observe(50.0);
        }
        let text = render_prometheus(&rec.snapshot());
        assert!(text.contains("# TYPE owan_stage_anneal_ms_summary summary"));
        // p50 interpolates inside the first bucket, p99 inside (10, 100].
        assert!(text.contains("owan_stage_anneal_ms_summary{quantile=\"0.5\"}"));
        assert!(text.contains("owan_stage_anneal_ms_summary{quantile=\"0.9\"}"));
        assert!(text.contains("owan_stage_anneal_ms_summary{quantile=\"0.99\"}"));
        assert!(text.contains("owan_stage_anneal_ms_summary_count 100"));
        let p99_line = text
            .lines()
            .find(|l| l.contains("quantile=\"0.99\""))
            .expect("p99 line renders");
        let p99: f64 = p99_line.rsplit(' ').next().unwrap().parse().unwrap();
        assert!(p99 > 10.0 && p99 <= 100.0, "p99 {p99} outside its bucket");
    }

    #[test]
    fn non_timer_histograms_render_no_summary() {
        let rec = Recorder::enabled();
        rec.histogram("transfer.size_gbits", &[10.0]).observe(3.0);
        let text = render_prometheus(&rec.snapshot());
        assert!(!text.contains("_summary"));
    }

    #[test]
    fn names_are_sanitized() {
        assert_eq!(sanitize("a.b-c_d9"), "owan_a_b_c_d9");
    }

    #[test]
    fn empty_snapshot_renders_empty() {
        assert_eq!(render_prometheus(&Recorder::disabled().snapshot()), "");
    }
}
