//! Bounded ring-buffer flight recorder with anomaly-triggered dumps.
//!
//! The scope keeps the last K slots of full-fidelity state as
//! [`SlotFrame`]s. On the first anomaly (infeasible plan, blackhole
//! loss, update-retry exhaustion, oracle invariant violation) the ring
//! is serialized to a self-contained dump file that embeds the run's
//! reconstruction metadata, so `owan-cli verify --replay` can re-run the
//! exact scenario.
//!
//! Dumps are *deterministic*: frames carry only simulation-time state
//! (slot indices, sim seconds, Gb figures rendered with `{:?}`), the
//! metadata map is sorted, and no wall-clock reading or filesystem path
//! enters the bytes — two same-seed runs produce byte-identical dumps.

use crate::jsonv;
use owan_obs::json::{write_f64, write_str};
use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;

/// First line of every dump file.
pub const DUMP_HEADER: &str = "owan-scope flight dump v1";

/// One transfer's state inside a frame.
#[derive(Debug, Clone, PartialEq)]
pub struct FrameTransfer {
    /// Transfer id.
    pub id: usize,
    /// Allocated rate this slot, Gbps.
    pub rate_gbps: f64,
    /// Delivered this slot, Gb.
    pub delivered_gbits: f64,
    /// Remaining after the slot, Gb.
    pub remaining_gbits: f64,
    /// Whether the transfer sat in the zero-rate queue.
    pub queued: bool,
}

/// One slot of full-fidelity recorder state.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SlotFrame {
    /// Slot index.
    pub slot: usize,
    /// Slot start, sim seconds.
    pub now_s: f64,
    /// Active transfers at slot start.
    pub active: usize,
    /// Zero-rate queue depth.
    pub queue_depth: usize,
    /// Deadline transfers that cannot finish in time at current rates.
    pub at_risk: usize,
    /// Allocated throughput, Gbps.
    pub throughput_gbps: f64,
    /// Links in the slot's topology.
    pub plan_links: usize,
    /// Allocations in the slot's plan.
    pub plan_allocs: usize,
    /// Update operations scheduled into the slot.
    pub update_ops: usize,
    /// Failures the controller believed in (detected), as stable strings.
    pub believed_down: Vec<String>,
    /// Failures actually present in the plant (detected or not).
    pub actual_down: Vec<String>,
    /// Per-transfer state.
    pub transfers: Vec<FrameTransfer>,
    /// Deterministic event strings for the slot (chaos ops, crashes …).
    pub events: Vec<String>,
}

impl SlotFrame {
    /// Serializes the frame as one JSON line.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(out, "{{\"slot\":{},\"now_s\":", self.slot);
        write_f64(&mut out, self.now_s);
        let _ = write!(
            out,
            ",\"active\":{},\"queue_depth\":{},\"at_risk\":{},\"throughput_gbps\":",
            self.active, self.queue_depth, self.at_risk
        );
        write_f64(&mut out, self.throughput_gbps);
        let _ = write!(
            out,
            ",\"plan_links\":{},\"plan_allocs\":{},\"update_ops\":{}",
            self.plan_links, self.plan_allocs, self.update_ops
        );
        for (key, list) in [
            ("believed_down", &self.believed_down),
            ("actual_down", &self.actual_down),
            ("events", &self.events),
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
        for (i, t) in self.transfers.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"id\":{},\"rate_gbps\":", t.id);
            write_f64(&mut out, t.rate_gbps);
            out.push_str(",\"delivered_gbits\":");
            write_f64(&mut out, t.delivered_gbits);
            out.push_str(",\"remaining_gbits\":");
            write_f64(&mut out, t.remaining_gbits);
            let _ = write!(out, ",\"queued\":{}}}", t.queued);
        }
        out.push_str("]}");
        out
    }
}

/// The bounded frame ring.
#[derive(Debug, Clone, Default)]
pub struct FlightRing {
    frames: VecDeque<SlotFrame>,
    capacity: usize,
}

impl FlightRing {
    /// A ring keeping the last `capacity` frames.
    pub fn new(capacity: usize) -> Self {
        FlightRing {
            frames: VecDeque::with_capacity(capacity.min(1024)),
            capacity: capacity.max(1),
        }
    }

    /// Pushes a frame, evicting the oldest past capacity.
    pub fn push(&mut self, frame: SlotFrame) {
        if self.frames.len() == self.capacity {
            self.frames.pop_front();
        }
        self.frames.push_back(frame);
    }

    /// Frames currently held, oldest first.
    pub fn frames(&self) -> impl Iterator<Item = &SlotFrame> {
        self.frames.iter()
    }

    /// Number of frames held.
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// True when no frame has been recorded.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }
}

/// Renders a dump: header, sorted `key: value` metadata, `frames: N`,
/// then one frame JSON line each. `reason`/`slot` describe the anomaly
/// that triggered it ("forced"/last slot for CI-forced dumps).
pub fn render_dump(
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
    let _ = writeln!(out, "frames: {}", ring.len());
    for frame in ring.frames() {
        out.push_str(&frame.to_json());
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

    fn frame(slot: usize) -> SlotFrame {
        SlotFrame {
            slot,
            now_s: slot as f64 * 300.0,
            active: 3,
            queue_depth: 1,
            at_risk: 0,
            throughput_gbps: 12.5,
            plan_links: 8,
            plan_allocs: 3,
            update_ops: 4,
            believed_down: vec!["fiber 2 (1-4)".into()],
            actual_down: vec!["fiber 2 (1-4)".into(), "fiber 7 (3-5)".into()],
            transfers: vec![FrameTransfer {
                id: 0,
                rate_gbps: 5.0,
                delivered_gbits: 1500.0,
                remaining_gbits: 400.0,
                queued: false,
            }],
            events: vec![format!("op.retry slot={slot}")],
        }
    }

    #[test]
    fn ring_evicts_oldest() {
        let mut ring = FlightRing::new(3);
        for slot in 0..5 {
            ring.push(frame(slot));
        }
        let slots: Vec<usize> = ring.frames().map(|f| f.slot).collect();
        assert_eq!(slots, vec![2, 3, 4]);
    }

    #[test]
    fn dump_round_trips() {
        let mut ring = FlightRing::new(4);
        for slot in 0..4 {
            ring.push(frame(slot));
        }
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
    }

    #[test]
    fn dump_bytes_are_deterministic() {
        let build = || {
            let mut ring = FlightRing::new(2);
            ring.push(frame(7));
            ring.push(frame(8));
            let mut meta = BTreeMap::new();
            meta.insert("seed".to_string(), "9".to_string());
            meta.insert("net".to_string(), "isp".to_string());
            render_dump("plan.infeasible", 8, &meta, &ring)
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn parser_rejects_corrupt_dumps() {
        assert!(FlightDump::from_text("nonsense").is_err());
        let mut ring = FlightRing::new(1);
        ring.push(frame(0));
        let good = render_dump("x", 0, &BTreeMap::new(), &ring);
        let truncated_frame = good.replace("]}", "]");
        assert!(FlightDump::from_text(&truncated_frame).is_err());
        let wrong_count = good.replace("frames: 1", "frames: 2");
        assert!(FlightDump::from_text(&wrong_count).is_err());
    }
}
