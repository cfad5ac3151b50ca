//! Reading a run's result line back, for the run-everything mode and
//! `--repeat-check`, which run every workload in its own process.

use std::collections::BTreeMap;

/// End-to-end metrics that are a function of the plans alone: at a fixed
/// seed and iteration count they repeat bit for bit, so any drift between
/// two runs of one commit means the plans changed.
pub const DETERMINISTIC: [&str; 6] = [
    "avg_completion_s",
    "p95_completion_s",
    "makespan_s",
    "transition_loss_gbit",
    "deadline_met_frac",
    "bytes_by_deadline_frac",
];

/// One parsed result line.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// The run's own verdict on its outputs.
    pub correct: bool,
    /// Operations (planned slots) attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// `name -> (value, unit)`; a JSON `null` reads back as NaN.
    pub metrics: BTreeMap<String, (f64, String)>,
}

impl Outcome {
    /// A metric's value, NaN when absent.
    pub fn value(&self, name: &str) -> f64 {
        self.metrics.get(name).map_or(f64::NAN, |m| m.0)
    }
}

fn after<'a>(s: &'a str, key: &str) -> Option<&'a str> {
    s.find(key).map(|i| s[i + key.len()..].trim_start())
}

fn token(s: &str) -> &str {
    let end = s.find([',', '}']).unwrap_or(s.len());
    s[..end].trim()
}

/// Parses the line `metrics::result_json` writes. Not a general JSON
/// parser: it reads exactly that shape and returns `None` on any other.
pub fn parse_result(line: &str) -> Option<Outcome> {
    let correct = token(after(line, "\"correct\":")?).parse().ok()?;
    let attempted = token(after(line, "\"attempted\":")?).parse().ok()?;
    let failed = token(after(line, "\"failed\":")?).parse().ok()?;
    let mut rest = after(line, "\"metrics\": {")?;
    let mut metrics = BTreeMap::new();
    while let Some(open) = rest.find('"') {
        let body = &rest[open + 1..];
        let close = body.find('"')?;
        let name = &body[..close];
        let value_text = token(after(&body[close..], "\"value\":")?);
        let value = if value_text == "null" {
            f64::NAN
        } else {
            value_text.parse().ok()?
        };
        let unit_body = after(&body[close..], "\"unit\": \"")?;
        let unit = &unit_body[..unit_body.find('"')?];
        metrics.insert(name.to_string(), (value, unit.to_string()));
        rest = &unit_body[unit_body.find('}')? + 1..];
    }
    Some(Outcome {
        correct,
        attempted,
        failed,
        metrics,
    })
}
