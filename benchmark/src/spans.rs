//! In-memory span recorder for the traced pass. Spans are recorded from
//! the benchmark's own code, around the calls into each crate; nothing
//! is written until the run ends.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::rc::Rc;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name (`plan`, `update.schedule`, `core.circuits` …).
    pub name: &'static str,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Run (engine × seed) the span belongs to.
    pub run: u32,
    /// Slot within the run: all spans of one slot share `(run, slot)`.
    pub slot: u32,
}

#[derive(Debug)]
struct Inner {
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    run: u32,
    slot: u32,
}

/// Cheaply clonable handle on the recorder.
#[derive(Debug, Clone)]
pub struct Spans(Rc<RefCell<Inner>>);

/// Closes its span when dropped.
pub struct SpanGuard {
    spans: Spans,
    id: usize,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        self.spans.close(self.id);
    }
}

impl Default for Spans {
    fn default() -> Self {
        Spans(Rc::new(RefCell::new(Inner {
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            run: 0,
            slot: 0,
        })))
    }
}

impl Spans {
    /// Sets the `(run, slot)` stamped on spans opened from now on.
    pub fn set_context(&self, run: u32, slot: u32) {
        let mut i = self.0.borrow_mut();
        i.run = run;
        i.slot = slot;
    }

    /// Opens a span under the innermost open one.
    pub fn open(&self, name: &'static str) -> usize {
        let mut i = self.0.borrow_mut();
        let now = i.t0.elapsed().as_nanos() as u64;
        let span = Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: i.stack.last().copied(),
            run: i.run,
            slot: i.slot,
        };
        i.spans.push(span);
        let id = i.spans.len() - 1;
        i.stack.push(id);
        id
    }

    /// Closes span `id` (and anything still open inside it).
    pub fn close(&self, id: usize) {
        let mut i = self.0.borrow_mut();
        let now = i.t0.elapsed().as_nanos() as u64;
        while let Some(top) = i.stack.pop() {
            i.spans[top].end_ns = now;
            if top == id {
                break;
            }
        }
    }

    /// Opens a span closed when the guard drops.
    pub fn enter(&self, name: &'static str) -> SpanGuard {
        SpanGuard {
            spans: self.clone(),
            id: self.open(name),
        }
    }

    /// A copy of everything recorded so far.
    pub fn snapshot(&self) -> Vec<Span> {
        self.0.borrow().spans.clone()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its child spans cover (children clipped to the parent, overlaps
/// between children counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let lo = s.start_ns.max(spans[p].start_ns);
            let hi = s.end_ns.min(spans[p].end_ns);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut edge = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(edge);
                if hi > lo {
                    covered += hi - lo;
                    edge = hi;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Per-name totals of a span set.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerRow {
    /// Spans with this name.
    pub count: u64,
    /// Summed duration, nanoseconds.
    pub total_ns: u64,
    /// Summed self time, nanoseconds.
    pub self_ns: u64,
}

/// Aggregates spans by name.
pub fn layer_table(spans: &[Span]) -> BTreeMap<&'static str, LayerRow> {
    let selfs = self_times(spans);
    let mut rows: BTreeMap<&'static str, LayerRow> = BTreeMap::new();
    for (s, own) in spans.iter().zip(selfs) {
        let row = rows.entry(s.name).or_default();
        row.count += 1;
        row.total_ns += s.end_ns - s.start_ns;
        row.self_ns += own;
    }
    rows
}

/// Renders the span set as one JSON document.
pub fn to_json(workload: &str, seed: u64, spans: &[Span]) -> String {
    let mut out = String::with_capacity(64 + spans.len() * 96);
    let _ = write!(
        out,
        "{{\"workload\":\"{workload}\",\"seed\":{seed},\"spans\":["
    );
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let parent = s
            .parent
            .map_or_else(|| "null".to_string(), |p| p.to_string());
        let _ = write!(
            out,
            "\n{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"run\":{},\"slot\":{}}}",
            s.name, s.start_ns, s.end_ns, s.run, s.slot
        );
    }
    out.push_str("\n]}\n");
    out
}
