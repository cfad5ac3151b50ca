//! `owan-scope`: per-transfer flight recorder, causal slot timelines,
//! and live introspection for the Owan reproduction.
//!
//! This crate is the second observability tier on top of `owan-obs`.
//! Where `owan-obs` answers "how much / how fast" with counters and
//! histograms, `owan-scope` answers "what happened to *this* transfer
//! in *that* slot":
//!
//! * [`SlotRecord`] — the one record a slot loop builds per slot (slot
//!   header plus one [`TransferRow`] per booked transfer); the scope
//!   reads it, then the why tier keeps it, and `owan-sim` returns it as
//!   its per-slot telemetry;
//! * [`TransferTracker`] — per-transfer lifecycle state machine with
//!   per-slot rates, per-path delivered volume, queue positions,
//!   preemptions and deadline slack (`owan-cli transfers [--trace ID]`);
//! * [`SpanRec`] + [`write_chrome_trace`] — a causal timeline of every
//!   slot's anneal/circuits/rates/update work, exportable as Chrome
//!   trace-event JSON for Perfetto / `chrome://tracing`;
//! * the flight ring — the last K slots' records, dumped to a
//!   self-contained reproducer file ([`FlightDump`]) on the first
//!   anomaly;
//! * [`MetricsServer`] + [`render_top`] — live Prometheus exposition
//!   and a terminal dashboard while a sim runs.
//!
//! Like the obs [`owan_obs::Recorder`], a [`ScopeRecorder`] is an
//! `Option<Arc<...>>`: the disabled default makes every hook an early
//! return on `None`, so instrumented loops pay nothing when scoping is
//! off — no allocation, no locking, no formatting.

mod flight;
pub mod jsonv;
mod prom;
mod record;
mod serve;
mod top;
mod trace;
mod transfers;

pub use flight::{FlightDump, DUMP_HEADER};
pub use prom::render_prometheus;
pub use record::{SlotRecord, TransferRow};
pub use serve::MetricsServer;
pub use top::{render_top, STAGES};
pub use trace::{prof_trace_spans, write_chrome_trace, SpanRec};
pub use transfers::{SlotTrace, TrackedTransfer, TransferState, TransferTracker};

use flight::FlightRing;
use owan_core::{SlotPlan, TransferRequest};
use owan_obs::{Snapshot, Value};
use std::collections::BTreeMap;
use std::io;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

/// Configuration for an enabled scope.
#[derive(Debug, Clone)]
pub struct ScopeConfig {
    /// Flight-recorder depth: how many recent slots survive in the ring.
    pub flight_slots: usize,
    /// Where an anomaly dump is written; `None` keeps it in memory only
    /// (retrievable via [`ScopeRecorder::dump_text`]).
    pub dump_path: Option<PathBuf>,
}

impl Default for ScopeConfig {
    fn default() -> Self {
        ScopeConfig {
            flight_slots: 16,
            dump_path: None,
        }
    }
}

#[derive(Debug, Default)]
struct ScopeState {
    meta: BTreeMap<String, String>,
    tracker: TransferTracker,
    spans: Vec<SpanRec>,
    ring: FlightRing,
    last_slot_span: Option<u64>,
    dumped: bool,
    dump_text: Option<String>,
    dump_error: Option<String>,
}

#[derive(Debug)]
struct ScopeInner {
    config: ScopeConfig,
    state: Mutex<ScopeState>,
}

/// Handle to the flight recorder / timeline collector (see crate docs).
///
/// Cloning shares the underlying state; the disabled default is inert.
#[derive(Debug, Clone, Default)]
pub struct ScopeRecorder {
    inner: Option<Arc<ScopeInner>>,
}

impl ScopeRecorder {
    /// The inert scope: every method returns immediately.
    pub fn disabled() -> Self {
        ScopeRecorder::default()
    }

    /// A collecting scope.
    pub fn enabled(config: ScopeConfig) -> Self {
        let ring = FlightRing::new(config.flight_slots);
        ScopeRecorder {
            inner: Some(Arc::new(ScopeInner {
                config,
                state: Mutex::new(ScopeState {
                    ring,
                    ..ScopeState::default()
                }),
            })),
        }
    }

    /// Whether this scope collects anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    fn lock(&self) -> Option<std::sync::MutexGuard<'_, ScopeState>> {
        let inner = self.inner.as_ref()?;
        Some(inner.state.lock().expect("scope state poisoned"))
    }

    /// Attaches run-reconstruction metadata (`net`, `seed`, `load`, …)
    /// echoed — sorted — into every flight dump.
    pub fn set_meta(&self, key: &str, value: impl ToString) {
        if let Some(mut state) = self.lock() {
            state.meta.insert(key.to_string(), value.to_string());
        }
    }

    /// Registers the run's request list and clears prior run state.
    pub fn begin_run(&self, requests: &[TransferRequest]) {
        let Some(inner) = self.inner.as_ref() else {
            return;
        };
        let mut state = inner.state.lock().expect("scope state poisoned");
        state.tracker.begin_run(requests);
        state.spans.clear();
        state.last_slot_span = None;
        state.dumped = false;
        state.dump_text = None;
        state.dump_error = None;
        state.ring = FlightRing::new(inner.config.flight_slots);
    }

    /// Feeds one slot: updates the transfer tracker, keeps the record in
    /// the flight ring, and synthesizes the slot's span tree. `plan` is
    /// the plan the slot ran on; the per-path shares come from its
    /// allocations.
    pub fn record_slot(&self, rec: &SlotRecord, plan: &SlotPlan) {
        let Some(mut state) = self.lock() else {
            return;
        };
        state.tracker.observe_slot(rec, &rec.by_id(), plan);
        let (links, allocs) = (plan.topology.links().len(), plan.allocations.len());
        state.ring.push(rec.clone(), links, allocs);
        synthesize_spans(&mut state, rec, links, allocs);
    }

    /// Adds an extra span (e.g. a chaos recovery window) as a child of
    /// the most recent slot span. Bounds are clamped into the slot.
    pub fn record_extra_span(
        &self,
        cat: &str,
        name: &str,
        start_ns: u64,
        end_ns: u64,
        args: Vec<(String, Value)>,
    ) {
        let Some(mut state) = self.lock() else {
            return;
        };
        let parent = state.last_slot_span;
        // Span ids are indices into `spans`.
        let (start_ns, end_ns) = match parent.map(|id| &state.spans[id as usize]) {
            Some(slot) => {
                let start = start_ns.clamp(slot.start_ns, slot.end_ns);
                (start, end_ns.clamp(start, slot.end_ns))
            }
            None => (start_ns, end_ns.max(start_ns)),
        };
        push_span(&mut state, parent, cat, name, start_ns, end_ns, args);
    }

    /// Reports an anomaly. The *first* anomaly of a run freezes the
    /// flight ring into a dump: kept in memory (see
    /// [`ScopeRecorder::dump_text`]) and written to the configured path,
    /// if any (a failed write is kept for [`ScopeRecorder::dump_error`]).
    /// Later anomalies are ignored so the dump shows the slots *leading
    /// up to* the first failure.
    pub fn anomaly(&self, reason: &str, slot: usize) {
        let Some(inner) = self.inner.as_ref() else {
            return;
        };
        let mut state = inner.state.lock().expect("scope state poisoned");
        if state.dumped {
            return;
        }
        state.dumped = true;
        let text = flight::render_dump(reason, slot, &state.meta, &state.ring);
        if let Some(path) = &inner.config.dump_path {
            if let Err(e) = std::fs::write(path, &text) {
                state.dump_error = Some(e.to_string());
            }
        }
        state.dump_text = Some(text);
    }

    /// Why the frozen dump could not be written to the configured path:
    /// the OS error.
    pub fn dump_error(&self) -> Option<String> {
        self.lock()?.dump_error.clone()
    }

    /// The in-memory dump from the first anomaly, if one fired.
    pub fn dump_text(&self) -> Option<String> {
        self.lock()?.dump_text.clone()
    }

    /// Whether an anomaly has already frozen the ring.
    pub fn has_dumped(&self) -> bool {
        self.lock().map(|s| s.dumped).unwrap_or(false)
    }

    /// Exports the collected spans (plus, optionally, the obs event ring
    /// as instants) as Chrome trace-event JSON.
    pub fn export_chrome_trace<W: io::Write>(
        &self,
        snapshot: Option<&Snapshot>,
        mut writer: W,
    ) -> io::Result<()> {
        let spans = match self.lock() {
            Some(state) => state.spans.clone(),
            None => Vec::new(),
        };
        write_chrome_trace(&mut writer, &spans, snapshot)
    }

    /// [`Self::export_chrome_trace`] with a tier-3 profiler snapshot's
    /// retained spans merged in (category `prof`), their ids offset by
    /// `1 << 48` — one trace file carries the causal slot timeline and the
    /// measured hot-path regions side by side, with no id collisions
    /// between the two streams.
    pub fn export_chrome_trace_with_prof<W: io::Write>(
        &self,
        snapshot: Option<&Snapshot>,
        prof: &owan_prof::ProfSnapshot,
        mut writer: W,
    ) -> io::Result<()> {
        let mut spans = match self.lock() {
            Some(state) => state.spans.clone(),
            None => Vec::new(),
        };
        spans.extend(prof_trace_spans(prof, PROF_SPAN_ID_BASE));
        write_chrome_trace(&mut writer, &spans, snapshot)
    }

    /// Number of spans collected so far.
    pub fn span_count(&self) -> usize {
        self.lock().map(|s| s.spans.len()).unwrap_or(0)
    }

    /// A point-in-time copy of the transfer tracker.
    pub fn tracker_snapshot(&self) -> Option<TransferTracker> {
        Some(self.lock()?.tracker.clone())
    }

    /// The `owan-cli transfers` table.
    pub fn render_transfers(&self) -> Option<String> {
        Some(self.lock()?.tracker.render_table())
    }

    /// The per-slot trace of one transfer (`--trace ID`).
    pub fn render_transfer_trace(&self, id: usize) -> Option<String> {
        self.lock()?.tracker.render_trace(id)
    }

    /// Total delivered across every tracked transfer, Gb.
    pub fn total_delivered_gbits(&self) -> f64 {
        self.lock()
            .map(|s| s.tracker.total_delivered_gbits())
            .unwrap_or(0.0)
    }
}

/// The first id of the profiler's spans in a merged trace: the scope's
/// own span ids count from zero and never reach it.
const PROF_SPAN_ID_BASE: u64 = 1 << 48;

/// `[0, 3, 5]` → `"0-3-5"` — the stable per-path label used in
/// tracker rows and `delivered by path` reports.
pub fn path_label(path: &[usize]) -> String {
    let mut out = String::with_capacity(path.len() * 3);
    for (i, site) in path.iter().enumerate() {
        if i > 0 {
            out.push('-');
        }
        out.push_str(&site.to_string());
    }
    out
}

fn push_span(
    state: &mut ScopeState,
    parent: Option<u64>,
    cat: &str,
    name: &str,
    start_ns: u64,
    end_ns: u64,
    args: Vec<(String, Value)>,
) -> u64 {
    let id = state.spans.len() as u64;
    state.spans.push(SpanRec {
        id,
        parent,
        cat: cat.to_string(),
        name: name.to_string(),
        start_ns,
        end_ns: end_ns.max(start_ns),
        args,
    });
    id
}

/// Builds the slot's span tree from the stage durations.
///
/// Layout (telemetry invariants guarantee the containments; bounds are
/// clamped defensively anyway):
///
/// ```text
/// slot N  [start_ns ............................... end_ns]      cat sim
///   anneal   [plan_start, +anneal_ns]                             cat anneal
///     circuits  [plan_start, +circuits_ns]                        cat circuits
///     rates     [plan_start+circuits_ns, +rates_ns]               cat rates
///   update   [plan_start+plan_ns, +update_ns]                     cat update
/// ```
fn synthesize_spans(state: &mut ScopeState, rec: &SlotRecord, links: usize, allocs: usize) {
    let clamp = |lo: u64, hi: u64, start: u64, len: u64| {
        let s = start.clamp(lo, hi);
        (s, s.saturating_add(len).clamp(s, hi))
    };
    let (slot_lo, slot_hi) = (rec.start_ns, rec.end_ns.max(rec.start_ns));
    let slot_span = push_span(
        state,
        None,
        "sim",
        &format!("slot {}", rec.slot),
        slot_lo,
        slot_hi,
        vec![
            ("slot".to_string(), Value::from(rec.slot as u64)),
            ("now_s".to_string(), Value::from(rec.now_s)),
            (
                "throughput_gbps".to_string(),
                Value::from(rec.throughput_gbps),
            ),
            (
                "active".to_string(),
                Value::from(rec.active_transfers as u64),
            ),
            (
                "queue_depth".to_string(),
                Value::from(rec.queue_depth as u64),
            ),
            ("at_risk".to_string(), Value::from(rec.at_risk as u64)),
        ],
    );
    state.last_slot_span = Some(slot_span);

    let (anneal_lo, anneal_hi) = clamp(slot_lo, slot_hi, rec.plan_start_ns, rec.anneal_ns);
    let anneal_span = push_span(
        state,
        Some(slot_span),
        "anneal",
        "anneal",
        anneal_lo,
        anneal_hi,
        Vec::new(),
    );
    let (circ_lo, circ_hi) = clamp(anneal_lo, anneal_hi, anneal_lo, rec.circuits_ns);
    push_span(
        state,
        Some(anneal_span),
        "circuits",
        "circuits",
        circ_lo,
        circ_hi,
        vec![("links".to_string(), Value::from(links as u64))],
    );
    let (rates_lo, rates_hi) = clamp(anneal_lo, anneal_hi, circ_hi, rec.rates_ns);
    push_span(
        state,
        Some(anneal_span),
        "rates",
        "rates",
        rates_lo,
        rates_hi,
        vec![("allocations".to_string(), Value::from(allocs as u64))],
    );
    let (upd_lo, upd_hi) = clamp(
        slot_lo,
        slot_hi,
        rec.plan_start_ns.saturating_add(rec.plan_ns),
        rec.update_ns,
    );
    push_span(
        state,
        Some(slot_span),
        "update",
        "update",
        upd_lo,
        upd_hi,
        vec![("ops".to_string(), Value::from(rec.update_ops as u64))],
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use owan_core::{SlotPlan, Topology};

    fn plan() -> SlotPlan {
        SlotPlan {
            topology: Topology::empty(4),
            allocations: Vec::new(),
            throughput_gbps: 0.0,
        }
    }

    fn rec(slot: usize) -> SlotRecord {
        SlotRecord {
            slot,
            now_s: slot as f64 * 300.0,
            slot_len_s: 300.0,
            start_ns: 1_000,
            end_ns: 11_000,
            plan_start_ns: 2_000,
            plan_ns: 6_000,
            anneal_ns: 5_000,
            circuits_ns: 2_000,
            rates_ns: 1_500,
            update_ns: 1_000,
            update_ops: 3,
            throughput_gbps: 10.0,
            active_transfers: 1,
            ..SlotRecord::default()
        }
    }

    #[test]
    fn disabled_scope_is_inert() {
        let scope = ScopeRecorder::disabled();
        assert!(!scope.is_enabled());
        scope.set_meta("net", "isp");
        scope.begin_run(&[]);
        let p = plan();
        scope.record_slot(&rec(0), &p);
        assert_eq!(scope.span_count(), 0);
        scope.anomaly("plan.infeasible", 0);
        assert!(!scope.has_dumped());
        assert!(scope.dump_text().is_none());
        assert!(scope.render_transfers().is_none());
        let mut buf = Vec::new();
        scope.export_chrome_trace(None, &mut buf).unwrap();
        assert_eq!(String::from_utf8(buf).unwrap(), "{\"traceEvents\":[]}");
    }

    #[test]
    fn record_slot_builds_nested_spans() {
        let scope = ScopeRecorder::enabled(ScopeConfig::default());
        scope.begin_run(&[]);
        let p = plan();
        scope.record_slot(&rec(0), &p);
        assert_eq!(scope.span_count(), 5);
        let mut buf = Vec::new();
        scope.export_chrome_trace(None, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let doc = jsonv::parse(&text).unwrap();
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(events.len(), 10, "5 spans -> 5 B + 5 E");
        for cat in ["sim", "anneal", "circuits", "rates", "update"] {
            assert!(
                events
                    .iter()
                    .any(|e| e.get("cat").and_then(jsonv::Json::as_str) == Some(cat)),
                "missing category {cat}"
            );
        }
    }

    #[test]
    fn spans_are_clamped_into_parents() {
        let scope = ScopeRecorder::enabled(ScopeConfig::default());
        scope.begin_run(&[]);
        let p = plan();
        let mut r = rec(0);
        // Pathological durations that would overflow the slot.
        r.anneal_ns = 1_000_000;
        r.circuits_ns = 2_000_000;
        r.update_ns = 9_999_999;
        scope.record_slot(&r, &p);
        let tracker = scope.lock().unwrap();
        for span in &tracker.spans {
            assert!(span.start_ns >= 1_000 && span.end_ns <= 11_000, "{span:?}");
            assert!(span.start_ns <= span.end_ns);
        }
    }

    #[test]
    fn first_anomaly_wins_and_freezes_the_dump() {
        let scope = ScopeRecorder::enabled(ScopeConfig {
            flight_slots: 4,
            dump_path: None,
        });
        scope.set_meta("net", "isp");
        scope.set_meta("seed", 7u64);
        scope.begin_run(&[]);
        let p = plan();
        for slot in 0..3 {
            scope.record_slot(&rec(slot), &p);
        }
        scope.anomaly("plan.infeasible", 2);
        assert!(scope.has_dumped());
        assert!(scope.dump_error().is_none(), "no path configured");
        let text = scope.dump_text().unwrap();
        let dump = FlightDump::from_text(&text).unwrap();
        assert_eq!(dump.reason, "plan.infeasible");
        assert_eq!(dump.anomaly_slot, 2);
        assert_eq!(dump.frames.len(), 3);
        assert_eq!(dump.meta["seed"], "7");
        // Second anomaly is ignored.
        scope.anomaly("blackhole.undetected_cut", 2);
        assert_eq!(scope.dump_text().unwrap(), text);
    }

    #[test]
    fn a_failed_dump_write_is_kept() {
        let dir = std::env::temp_dir().join("owan_scope_missing_dir");
        let _ = std::fs::remove_dir_all(&dir);
        let scope = ScopeRecorder::enabled(ScopeConfig {
            flight_slots: 4,
            dump_path: Some(dir.join("x.dump")),
        });
        scope.begin_run(&[]);
        scope.anomaly("plan.infeasible", 0);
        assert!(scope.has_dumped());
        assert!(scope.dump_text().is_some(), "the dump stays in memory");
        let err = scope.dump_error().expect("the write must fail");
        assert!(err.contains("os error"), "{err}");
    }

    #[test]
    fn extra_spans_attach_to_the_slot() {
        let scope = ScopeRecorder::enabled(ScopeConfig::default());
        scope.begin_run(&[]);
        let p = plan();
        scope.record_slot(&rec(0), &p);
        scope.record_extra_span("chaos", "op.retry", 500, 99_000, Vec::new());
        let state = scope.lock().unwrap();
        let chaos = state.spans.iter().find(|s| s.cat == "chaos").unwrap();
        assert_eq!(chaos.parent, state.last_slot_span);
        assert!(chaos.start_ns >= 1_000 && chaos.end_ns <= 11_000);
    }

    #[test]
    fn path_labels_are_dash_joined() {
        assert_eq!(path_label(&[0, 3, 5]), "0-3-5");
        assert_eq!(path_label(&[7]), "7");
        assert_eq!(path_label(&[]), "");
    }
}
