//! Bounded ring-buffer flight recorder with anomaly-triggered dumps.
//!
//! The scope keeps the last K slots' [`SlotRecord`]s. On the first
//! anomaly (infeasible plan, blackhole loss, update-retry exhaustion,
//! oracle invariant violation) the ring is serialized to a self-contained
//! dump file that embeds the run's reconstruction metadata, so
//! `owan-cli verify --replay` can re-run the exact scenario.
//!
//! Dumps are *deterministic*: a frame line carries only simulation-time
//! state (slot indices, sim seconds, Gb figures rendered with `{:?}`),
//! the metadata map is sorted, and no wall-clock reading or filesystem
//! path enters the bytes — two same-seed runs produce byte-identical
//! dumps.

use crate::{jsonv, SlotRecord};
use owan_obs::json::{write_f64, write_str};
use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;

/// First line of every dump file.
pub const DUMP_HEADER: &str = "owan-scope flight dump v1";

/// The bounded ring: each slot's record with its plan's link and
/// allocation counts, oldest first.
#[derive(Debug, Default)]
pub(crate) struct FlightRing {
    frames: VecDeque<(SlotRecord, usize, usize)>,
    capacity: usize,
}

impl FlightRing {
    /// A ring keeping the last `capacity` slots.
    pub fn new(capacity: usize) -> Self {
        FlightRing {
            frames: VecDeque::with_capacity(capacity.min(1024)),
            capacity: capacity.max(1),
        }
    }

    /// Pushes a slot, evicting the oldest past capacity.
    pub fn push(&mut self, rec: SlotRecord, plan_links: usize, plan_allocs: usize) {
        if self.frames.len() == self.capacity {
            self.frames.pop_front();
        }
        self.frames.push_back((rec, plan_links, plan_allocs));
    }
}

/// One slot as one JSON line: the header fields, the failure and event
/// labels, then the active rows in ascending id.
fn frame_json(rec: &SlotRecord, plan_links: usize, plan_allocs: usize) -> String {
    let mut out = String::new();
    let _ = write!(out, "{{\"slot\":{},\"now_s\":", rec.slot);
    write_f64(&mut out, rec.now_s);
    let _ = write!(
        out,
        ",\"active\":{},\"queue_depth\":{},\"at_risk\":{},\"throughput_gbps\":",
        rec.active_transfers, rec.queue_depth, rec.at_risk
    );
    write_f64(&mut out, rec.throughput_gbps);
    let _ = write!(
        out,
        ",\"plan_links\":{plan_links},\"plan_allocs\":{plan_allocs},\"update_ops\":{}",
        rec.update_ops
    );
    for (key, list) in [
        ("believed_down", &rec.believed_down),
        ("actual_down", &rec.actual_down),
        ("events", &rec.events),
    ] {
        let _ = write!(out, ",\"{key}\":[");
        for (i, item) in list.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_str(&mut out, item);
        }
        out.push(']');
    }
    out.push_str(",\"transfers\":[");
    for (i, t) in rec
        .by_id()
        .into_iter()
        .map(|i| &rec.transfers[i])
        .enumerate()
    {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{{\"id\":{},\"rate_gbps\":", t.id);
        write_f64(&mut out, t.rate_gbps);
        out.push_str(",\"delivered_gbits\":");
        write_f64(&mut out, t.delivered_gbits);
        out.push_str(",\"remaining_gbits\":");
        write_f64(&mut out, t.remaining_gbits);
        let _ = write!(out, ",\"queued\":{}}}", t.queued());
    }
    out.push_str("]}");
    out
}

/// Renders a dump: header, sorted `key: value` metadata, `frames: N`,
/// then one frame JSON line each. `reason`/`slot` describe the anomaly
/// that triggered it ("forced"/last slot for CI-forced dumps).
pub(crate) fn render_dump(
    reason: &str,
    slot: usize,
    meta: &BTreeMap<String, String>,
    ring: &FlightRing,
) -> String {
    let mut out = String::new();
    out.push_str(DUMP_HEADER);
    out.push('\n');
    let _ = writeln!(out, "reason: {reason}");
    let _ = writeln!(out, "anomaly_slot: {slot}");
    for (key, value) in meta {
        // Reserved keys cannot be overridden by run metadata.
        if key != "reason" && key != "anomaly_slot" && key != "frames" {
            let _ = writeln!(out, "{key}: {value}");
        }
    }
    let _ = writeln!(out, "frames: {}", ring.frames.len());
    for (rec, links, allocs) in &ring.frames {
        out.push_str(&frame_json(rec, *links, *allocs));
        out.push('\n');
    }
    out
}

/// A parsed dump file.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightDump {
    /// The anomaly that triggered the dump.
    pub reason: String,
    /// Slot the anomaly fired in.
    pub anomaly_slot: usize,
    /// Run-reconstruction metadata (`net`, `seed`, `load`, …).
    pub meta: BTreeMap<String, String>,
    /// Raw frame JSON lines, oldest first (each validated as JSON).
    pub frames: Vec<String>,
}

impl FlightDump {
    /// Detects the dump header (used by `verify --replay` dispatch).
    pub fn is_dump(text: &str) -> bool {
        text.lines().next().map(str::trim) == Some(DUMP_HEADER)
    }

    /// Parses and validates a dump produced by `render_dump`.
    pub fn from_text(text: &str) -> Result<FlightDump, String> {
        let mut lines = text.lines();
        if lines.next().map(str::trim) != Some(DUMP_HEADER) {
            return Err(format!("missing `{DUMP_HEADER}` header"));
        }
        let mut meta = BTreeMap::new();
        let mut declared_frames: Option<usize> = None;
        for line in lines.by_ref() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let Some((key, value)) = line.split_once(':') else {
                return Err(format!("metadata line without ':': {line:?}"));
            };
            let (key, value) = (key.trim(), value.trim());
            if key == "frames" {
                declared_frames = Some(value.parse().map_err(|e| format!("bad frame count: {e}"))?);
                break;
            }
            meta.insert(key.to_string(), value.to_string());
        }
        let declared = declared_frames.ok_or("missing `frames:` line")?;
        let mut frames = Vec::with_capacity(declared);
        for line in lines {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            jsonv::parse(line).map_err(|e| format!("frame {} invalid: {e}", frames.len()))?;
            frames.push(line.to_string());
        }
        if frames.len() != declared {
            return Err(format!(
                "frame count mismatch: declared {declared}, found {}",
                frames.len()
            ));
        }
        let reason = meta.remove("reason").ok_or("missing `reason:` metadata")?;
        let anomaly_slot = meta
            .remove("anomaly_slot")
            .ok_or("missing `anomaly_slot:` metadata")?
            .parse()
            .map_err(|e| format!("bad anomaly_slot: {e}"))?;
        Ok(FlightDump {
            reason,
            anomaly_slot,
            meta,
            frames,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TransferRow;

    fn record(slot: usize) -> SlotRecord {
        SlotRecord {
            slot,
            now_s: slot as f64 * 300.0,
            active_transfers: 3,
            queue_depth: 1,
            throughput_gbps: 12.5,
            update_ops: 4,
            believed_down: vec!["fiber 2 (1-4)".into()],
            actual_down: vec!["fiber 2 (1-4)".into(), "fiber 7 (3-5)".into()],
            events: vec![format!("op.retry slot={slot}")],
            transfers: vec![TransferRow {
                id: 0,
                rate_gbps: 5.0,
                live_rate_gbps: 5.0,
                delivered_gbits: 1500.0,
                remaining_gbits: 400.0,
                completion_s: None,
                active: true,
            }],
            ..SlotRecord::default()
        }
    }

    /// A ring of `capacity` fed the records of `slots`, each with an
    /// 8-link, 3-allocation plan.
    fn ring(capacity: usize, slots: std::ops::Range<usize>) -> FlightRing {
        let mut ring = FlightRing::new(capacity);
        for slot in slots {
            ring.push(record(slot), 8, 3);
        }
        ring
    }

    #[test]
    fn ring_evicts_oldest() {
        let ring = ring(3, 0..5);
        let slots: Vec<usize> = ring.frames.iter().map(|f| f.0.slot).collect();
        assert_eq!(slots, vec![2, 3, 4]);
    }

    #[test]
    fn dump_round_trips() {
        let ring = ring(4, 0..4);
        let mut meta = BTreeMap::new();
        meta.insert("net".to_string(), "isp".to_string());
        meta.insert("seed".to_string(), "42".to_string());
        let text = render_dump("blackhole.undetected_cut", 3, &meta, &ring);
        assert!(FlightDump::is_dump(&text));
        let dump = FlightDump::from_text(&text).unwrap();
        assert_eq!(dump.reason, "blackhole.undetected_cut");
        assert_eq!(dump.anomaly_slot, 3);
        assert_eq!(dump.meta["net"], "isp");
        assert_eq!(dump.frames.len(), 4);
        // Frames are valid JSON with the expected fields.
        let f0 = jsonv::parse(&dump.frames[0]).unwrap();
        assert_eq!(f0.get("slot").unwrap().as_f64(), Some(0.0));
        assert_eq!(f0.get("actual_down").unwrap().as_arr().unwrap().len(), 2);
        assert_eq!(f0.get("plan_links").unwrap().as_f64(), Some(8.0));
        assert_eq!(f0.get("plan_allocs").unwrap().as_f64(), Some(3.0));
    }

    #[test]
    fn dump_bytes_are_deterministic() {
        let build = || {
            let ring = ring(2, 7..9);
            let mut meta = BTreeMap::new();
            meta.insert("seed".to_string(), "9".to_string());
            meta.insert("net".to_string(), "isp".to_string());
            render_dump("plan.infeasible", 8, &meta, &ring)
        };
        assert_eq!(build(), build());
    }

    /// Rows come in booking order and may include an allocation whose
    /// transfer already finished (an aborted `RemovePath`). The frame
    /// lists only the active rows, by ascending id, and marks a row
    /// queued exactly when its rate is zero.
    #[test]
    fn frame_lists_active_rows_by_id() {
        let row = |id, rate_gbps, active| TransferRow {
            id,
            rate_gbps,
            live_rate_gbps: rate_gbps,
            delivered_gbits: 10.0 * id as f64,
            remaining_gbits: 1.5,
            completion_s: None,
            active,
        };
        let rec = SlotRecord {
            slot: 3,
            now_s: 900.0,
            active_transfers: 2,
            queue_depth: 1,
            transfers: vec![row(4, 2.5, true), row(1, 3.0, false), row(2, 0.0, true)],
            ..SlotRecord::default()
        };
        assert_eq!(
            frame_json(&rec, 5, 2),
            "{\"slot\":3,\"now_s\":900.0,\"active\":2,\"queue_depth\":1,\"at_risk\":0,\
             \"throughput_gbps\":0.0,\"plan_links\":5,\"plan_allocs\":2,\"update_ops\":0,\
             \"believed_down\":[],\"actual_down\":[],\"events\":[],\"transfers\":[\
             {\"id\":2,\"rate_gbps\":0.0,\"delivered_gbits\":20.0,\"remaining_gbits\":1.5,\
             \"queued\":true},\
             {\"id\":4,\"rate_gbps\":2.5,\"delivered_gbits\":40.0,\"remaining_gbits\":1.5,\
             \"queued\":false}]}"
        );
    }

    #[test]
    fn parser_rejects_corrupt_dumps() {
        assert!(FlightDump::from_text("nonsense").is_err());
        let good = render_dump("x", 0, &BTreeMap::new(), &ring(1, 0..1));
        let truncated_frame = good.replace("]}", "]");
        assert!(FlightDump::from_text(&truncated_frame).is_err());
        let wrong_count = good.replace("frames: 1", "frames: 2");
        assert!(FlightDump::from_text(&wrong_count).is_err());
    }
}
