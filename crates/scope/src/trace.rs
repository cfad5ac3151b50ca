//! Causal slot timeline: parent/child spans and Chrome trace-event
//! export.
//!
//! Spans are recorded *post hoc* as closed `[start_ns, end_ns]` intervals
//! with an explicit parent — the slot loop already measures every
//! stage's duration (the `*_ns` fields of [`crate::SlotRecord`]), so the
//! scope layer lays those measurements out as a properly nested tree
//! instead of re-timing them.
//! Export follows the Chrome trace-event JSON format (the array-of-events
//! `traceEvents` form): nested `ph:"B"`/`ph:"E"` duration events emitted
//! in depth-first order plus `ph:"i"` instants for the recorder's event
//! ring, so a run opens directly in Perfetto or `chrome://tracing`.

use owan_obs::json::{write_f64, write_str};
use owan_obs::{Snapshot, Value};
use std::fmt::Write as _;
use std::io::{self, Write};

/// A closed span in the slot timeline.
#[derive(Debug, Clone)]
pub struct SpanRec {
    /// Span id, unique within the run.
    pub id: u64,
    /// Parent span id (`None` for slot roots).
    pub parent: Option<u64>,
    /// Subsystem category (`sim`, `anneal`, `circuits`, `rates`,
    /// `update`, `chaos`).
    pub cat: String,
    /// Display name.
    pub name: String,
    /// Start, recorder-clock nanoseconds.
    pub start_ns: u64,
    /// End, recorder-clock nanoseconds (`>= start_ns`).
    pub end_ns: u64,
    /// Arguments shown in the trace viewer.
    pub args: Vec<(String, Value)>,
}

fn write_value(out: &mut String, value: &Value) {
    match value {
        Value::U64(v) => {
            let _ = write!(out, "{v}");
        }
        Value::I64(v) => {
            let _ = write!(out, "{v}");
        }
        Value::F64(v) => write_f64(out, *v),
        Value::Bool(v) => {
            let _ = write!(out, "{v}");
        }
        Value::Str(s) => write_str(out, s),
    }
}

fn write_args(out: &mut String, args: &[(String, Value)]) {
    out.push_str(",\"args\":{");
    for (i, (k, v)) in args.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_str(out, k);
        out.push(':');
        write_value(out, v);
    }
    out.push('}');
}

fn write_event_prefix(out: &mut String, name: &str, cat: &str, ph: char, ts_ns: u64) {
    out.push_str("{\"name\":");
    write_str(out, name);
    out.push_str(",\"cat\":");
    write_str(out, cat);
    let _ = write!(out, ",\"ph\":\"{ph}\",\"ts\":");
    write_f64(out, ts_ns as f64 / 1_000.0);
    out.push_str(",\"pid\":1,\"tid\":1");
}

/// Writes `spans` (+ the recorder snapshot's event ring as instants) as a
/// Chrome trace-event JSON document.
///
/// Duration events are emitted as `B`/`E` pairs in depth-first order —
/// children strictly inside their parent — so a reader that replays the
/// array front-to-back sees a well-formed span stack even where
/// timestamps tie.
pub fn write_chrome_trace<W: Write>(
    writer: &mut W,
    spans: &[SpanRec],
    snapshot: Option<&Snapshot>,
) -> io::Result<()> {
    // Index children by parent, preserving recording order (which is
    // already start-ordered within a parent). First occurrence wins on a
    // duplicate id: a later same-id span must not steal the earlier
    // span's children.
    let mut roots: Vec<usize> = Vec::new();
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    let mut index_of_id = std::collections::BTreeMap::new();
    for (i, span) in spans.iter().enumerate() {
        index_of_id.entry(span.id).or_insert(i);
    }
    for (i, span) in spans.iter().enumerate() {
        match span.parent.and_then(|p| index_of_id.get(&p)) {
            Some(&parent_idx) if parent_idx != i => children[parent_idx].push(i),
            _ => roots.push(i),
        }
    }

    let mut out = String::new();
    out.push_str("{\"traceEvents\":[");
    let mut first = true;

    // Iterative DFS; each stack entry is (span index, emitted-children?).
    let mut stack: Vec<(usize, bool)> = roots.iter().rev().map(|&i| (i, false)).collect();
    while let Some((idx, expanded)) = stack.pop() {
        let span = &spans[idx];
        if expanded {
            if !first {
                out.push(',');
            }
            first = false;
            write_event_prefix(&mut out, &span.name, &span.cat, 'E', span.end_ns);
            out.push('}');
            continue;
        }
        if !first {
            out.push(',');
        }
        first = false;
        write_event_prefix(&mut out, &span.name, &span.cat, 'B', span.start_ns);
        write_args(&mut out, &span.args);
        out.push('}');
        stack.push((idx, true));
        for &child in children[idx].iter().rev() {
            stack.push((child, false));
        }
        if out.len() >= 1 << 16 {
            writer.write_all(out.as_bytes())?;
            out.clear();
        }
    }

    // The recorder's event ring becomes thread-scoped instants.
    if let Some(snapshot) = snapshot {
        for event in &snapshot.events {
            if !first {
                out.push(',');
            }
            first = false;
            write_event_prefix(&mut out, &event.name, "event", 'i', event.ts_ns);
            out.push_str(",\"s\":\"t\"");
            let args: Vec<(String, Value)> = event.fields.clone();
            write_args(&mut out, &args);
            out.push('}');
            if out.len() >= 1 << 16 {
                writer.write_all(out.as_bytes())?;
                out.clear();
            }
        }
    }

    out.push_str("]}");
    writer.write_all(out.as_bytes())
}

/// Converts a profiler snapshot's retained raw spans into trace spans,
/// so one Chrome trace carries both the scope's causal timeline and the
/// tier-3 measured regions (category `prof`). `id_offset` moves the
/// profiler's span indices past every id of the scope spans the result
/// will be merged with. Spans whose enclosing span fell outside the
/// retention cap surface as roots rather than being dropped.
pub fn prof_trace_spans(snap: &owan_prof::ProfSnapshot, id_offset: u64) -> Vec<SpanRec> {
    snap.spans
        .iter()
        .enumerate()
        .map(|(i, s)| SpanRec {
            id: id_offset + i as u64,
            parent: s.parent.map(|p| id_offset + p as u64),
            cat: "prof".into(),
            name: snap.nodes[s.node].name.clone(),
            start_ns: s.start_ns,
            end_ns: s.end_ns,
            args: vec![
                ("path".into(), Value::Str(snap.path(s.node).join(";"))),
                ("tid".into(), Value::U64(s.tid as u64)),
            ],
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jsonv::{parse, Json};

    fn span(id: u64, parent: Option<u64>, cat: &str, start: u64, end: u64) -> SpanRec {
        SpanRec {
            id,
            parent,
            cat: cat.into(),
            name: format!("{cat} {id}"),
            start_ns: start,
            end_ns: end,
            args: vec![("id".into(), Value::U64(id))],
        }
    }

    #[test]
    fn trace_is_valid_json_with_balanced_begin_end() {
        let spans = vec![
            span(1, None, "sim", 0, 100),
            span(2, Some(1), "anneal", 10, 60),
            span(3, Some(2), "circuits", 10, 30),
            span(4, Some(2), "rates", 30, 55),
            span(5, Some(1), "update", 60, 80),
            span(6, None, "sim", 100, 200),
        ];
        let mut buf = Vec::new();
        write_chrome_trace(&mut buf, &spans, None).unwrap();
        let doc = parse(std::str::from_utf8(&buf).unwrap()).unwrap();
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        // B/E balance with a proper stack.
        let mut stack: Vec<String> = Vec::new();
        for ev in events {
            let ph = ev.get("ph").unwrap().as_str().unwrap();
            let name = ev.get("name").unwrap().as_str().unwrap();
            match ph {
                "B" => stack.push(name.to_string()),
                "E" => assert_eq!(stack.pop().as_deref(), Some(name)),
                _ => {}
            }
        }
        assert!(stack.is_empty());
        assert_eq!(events.len(), 12);
    }

    #[test]
    fn timestamps_are_microseconds() {
        let spans = vec![span(1, None, "sim", 2_500, 4_500)];
        let mut buf = Vec::new();
        write_chrome_trace(&mut buf, &spans, None).unwrap();
        let doc = parse(std::str::from_utf8(&buf).unwrap()).unwrap();
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(events[0].get("ts").unwrap().as_f64(), Some(2.5));
        assert_eq!(events[1].get("ts").unwrap().as_f64(), Some(4.5));
    }

    #[test]
    fn prof_spans_merge_into_the_trace() {
        let prof = owan_prof::Profiler::enabled();
        {
            let _outer = prof.region("plan_slot");
            let _inner = prof.region("anneal");
        }
        let snap = prof.snapshot();
        assert_eq!(snap.spans.len(), 2);
        let mut spans = vec![span(1, None, "sim", 0, 100)];
        spans.extend(prof_trace_spans(&snap, 1_000));
        assert_eq!(spans.len(), 3);
        assert!(spans
            .iter()
            .skip(1)
            .all(|s| s.cat == "prof" && s.id >= 1_000));
        // The nested prof region keeps its parent link after rebasing.
        assert!(spans
            .iter()
            .any(|s| s.name == "anneal" && s.parent.is_some_and(|p| p >= 1_000)));
        let mut buf = Vec::new();
        write_chrome_trace(&mut buf, &spans, None).unwrap();
        let doc = parse(std::str::from_utf8(&buf).unwrap()).unwrap();
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        // 3 spans -> 3 B + 3 E events, stack-balanced.
        assert_eq!(events.len(), 6);
        let mut depth = 0i64;
        for ev in events {
            match ev.get("ph").unwrap().as_str().unwrap() {
                "B" => depth += 1,
                "E" => depth -= 1,
                _ => {}
            }
            assert!(depth >= 0);
        }
        assert_eq!(depth, 0);
    }

    #[test]
    fn snapshot_events_become_instants() {
        let rec = owan_obs::Recorder::enabled();
        rec.event("anneal.sample", &[("iter", Value::U64(7))]);
        let mut buf = Vec::new();
        write_chrome_trace(&mut buf, &[], Some(&rec.snapshot())).unwrap();
        let doc = parse(std::str::from_utf8(&buf).unwrap()).unwrap();
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].get("ph").unwrap().as_str(), Some("i"));
        assert_eq!(
            events[0].get("args").unwrap().get("iter"),
            Some(&Json::Num(7.0))
        );
    }
}
