//! Performance attribution for the Owan reproduction — the third
//! observability tier.
//!
//! owan-obs answers *what happened* (counters, histograms, stage totals),
//! owan-scope answers *in what order* (causal slot timelines, flight
//! dumps). This crate answers *where the time went*: RAII scoped regions
//! on thread-local stacks, aggregated into a self-time/total-time call
//! tree, exportable as folded-stack text (flamegraph-compatible) and as
//! spans that owan-scope merges into its Chrome trace.
//!
//! Like the other tiers it is std-only and zero-cost when disabled: a
//! [`Profiler`] is an `Option<Arc<...>>`, so the disabled default makes
//! [`Profiler::region`] a single `Option` check returning an inert guard.
//! When enabled, opening a region takes one mutex acquisition on the
//! shared call tree; regions are placed in per-run hot paths whose bodies
//! are microseconds to milliseconds, so the lock is never the bottleneck
//! (the benchmark ledger's `prof.overhead_frac` row records the measured
//! overhead).

use std::cell::RefCell;
use std::collections::HashMap;
use std::io::{self, Write};
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;

use owan_obs::{Clock, MonotonicClock};

/// Bound on retained raw spans (the aggregate tree is unbounded but tiny;
/// raw spans feed the Chrome-trace merge and are capped so a long run
/// cannot grow without bound). Overflowing spans still aggregate.
pub const PROF_SPAN_CAP: usize = 8192;

/// One node of the aggregated region tree, keyed by (parent, name).
struct Node {
    name: &'static str,
    parent: Option<usize>,
    children: Vec<usize>,
    calls: u64,
    total_ns: u64,
}

/// A retained raw span (one completed region entry).
struct RawSpan {
    node: usize,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
    tid: u32,
}

#[derive(Default)]
struct ProfState {
    nodes: Vec<Node>,
    spans: Vec<RawSpan>,
    spans_dropped: u64,
    tids: HashMap<ThreadId, u32>,
}

struct ProfInner {
    clock: Arc<dyn Clock>,
    state: Mutex<ProfState>,
}

thread_local! {
    /// Per-thread stack of open regions: (profiler tag, node id, span id).
    /// The tag distinguishes interleaved profilers on one thread.
    static REGION_STACK: RefCell<Vec<(usize, usize, Option<usize>)>> =
        const { RefCell::new(Vec::new()) };
}

/// Handle to a region profiler, cheaply cloneable and shareable across
/// threads. The disabled default records nothing and every operation is
/// one `Option` check.
#[derive(Clone, Default)]
pub struct Profiler {
    inner: Option<Arc<ProfInner>>,
}

impl std::fmt::Debug for Profiler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Profiler")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

/// Names a node in the profiler's region tree; lets a spawned thread
/// attach its root region under the spawner's current region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegionId(usize);

impl Profiler {
    /// The no-op profiler; all operations are early returns.
    pub fn disabled() -> Self {
        Profiler { inner: None }
    }

    /// An active profiler timing regions with a [`MonotonicClock`].
    pub fn enabled() -> Self {
        Self::with_clock(Arc::new(MonotonicClock::new()))
    }

    /// An active profiler with an injected clock (tests pass a
    /// [`owan_obs::ManualClock`]).
    pub fn with_clock(clock: Arc<dyn Clock>) -> Self {
        Profiler {
            inner: Some(Arc::new(ProfInner {
                clock,
                state: Mutex::new(ProfState::default()),
            })),
        }
    }

    /// Whether this profiler captures anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Opens a region named `name` nested under the calling thread's
    /// innermost open region (or as a root). The returned RAII guard
    /// closes the region on drop.
    pub fn region(&self, name: &'static str) -> Region {
        let parent = self.inner.as_ref().map(|inner| {
            let tag = Arc::as_ptr(inner) as usize;
            REGION_STACK.with(|s| {
                s.borrow()
                    .iter()
                    .rev()
                    .find(|(t, _, _)| *t == tag)
                    .map(|&(_, node, _)| node)
            })
        });
        self.open(name, parent.flatten())
    }

    /// Opens a region under an explicit parent — for spawned threads
    /// whose thread-local stack is empty but whose work logically nests
    /// under the spawner's region (e.g. parallel annealing chains).
    pub fn region_under(&self, parent: Option<RegionId>, name: &'static str) -> Region {
        self.open(name, parent.map(|p| p.0))
    }

    fn open(&self, name: &'static str, parent: Option<usize>) -> Region {
        let Some(inner) = &self.inner else {
            return Region { inner: None };
        };
        let tag = Arc::as_ptr(inner) as usize;
        let (node, span, start_ns) = {
            let mut state = inner.state.lock().expect("profiler state poisoned");
            let node = state.intern(name, parent);
            let tid = state.tid(std::thread::current().id());
            let start_ns = inner.clock.now_ns();
            // Parent *span* is the innermost open region on this thread
            // (if any) — looked up by the caller before the lock.
            let parent_span = REGION_STACK.with(|s| {
                s.borrow()
                    .iter()
                    .rev()
                    .find(|(t, _, _)| *t == tag)
                    .and_then(|&(_, _, span)| span)
            });
            let span = if state.spans.len() < PROF_SPAN_CAP {
                state.spans.push(RawSpan {
                    node,
                    parent: parent_span,
                    start_ns,
                    end_ns: start_ns,
                    tid,
                });
                Some(state.spans.len() - 1)
            } else {
                state.spans_dropped += 1;
                None
            };
            (node, span, start_ns)
        };
        REGION_STACK.with(|s| s.borrow_mut().push((tag, node, span)));
        Region {
            inner: Some(OpenRegion {
                prof: Arc::clone(inner),
                node,
                span,
                start_ns,
            }),
        }
    }

    /// A point-in-time copy of the aggregated tree and retained spans.
    pub fn snapshot(&self) -> ProfSnapshot {
        let Some(inner) = &self.inner else {
            return ProfSnapshot::default();
        };
        let state = inner.state.lock().expect("profiler state poisoned");
        let mut nodes: Vec<ProfNode> = state
            .nodes
            .iter()
            .map(|n| ProfNode {
                name: n.name.to_string(),
                parent: n.parent,
                children: n.children.clone(),
                calls: n.calls,
                total_ns: n.total_ns,
                self_ns: n.total_ns,
            })
            .collect();
        // Self time = total minus children's totals. A child observed
        // mid-flight can momentarily exceed its parent; saturate.
        for i in 0..state.nodes.len() {
            if let Some(p) = state.nodes[i].parent {
                nodes[p].self_ns = nodes[p].self_ns.saturating_sub(state.nodes[i].total_ns);
            }
        }
        ProfSnapshot {
            nodes,
            spans: state
                .spans
                .iter()
                .map(|s| ProfSpan {
                    node: s.node,
                    parent: s.parent,
                    start_ns: s.start_ns,
                    end_ns: s.end_ns,
                    tid: s.tid,
                })
                .collect(),
            spans_dropped: state.spans_dropped,
        }
    }

    /// Writes the aggregated tree as folded stacks (`a;b;c <self_ns>`),
    /// the input format flamegraph tooling consumes. No-op when disabled.
    pub fn write_folded<W: Write>(&self, writer: &mut W) -> io::Result<()> {
        self.snapshot().write_folded(writer)
    }
}

impl ProfState {
    /// Finds or creates the tree node for `name` under `parent`.
    fn intern(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let found = match parent {
            Some(p) => self.nodes[p]
                .children
                .iter()
                .copied()
                .find(|&c| self.nodes[c].name == name),
            None => (0..self.nodes.len())
                .find(|&i| self.nodes[i].parent.is_none() && self.nodes[i].name == name),
        };
        if let Some(idx) = found {
            return idx;
        }
        let idx = self.nodes.len();
        self.nodes.push(Node {
            name,
            parent,
            children: Vec::new(),
            calls: 0,
            total_ns: 0,
        });
        if let Some(p) = parent {
            self.nodes[p].children.push(idx);
        }
        idx
    }

    /// Small dense thread ordinal for span attribution.
    fn tid(&mut self, id: ThreadId) -> u32 {
        let next = self.tids.len() as u32;
        *self.tids.entry(id).or_insert(next)
    }
}

struct OpenRegion {
    prof: Arc<ProfInner>,
    node: usize,
    span: Option<usize>,
    start_ns: u64,
}

/// RAII guard for an open region; closing (dropping) it adds the elapsed
/// time to the region's tree node and finalizes its retained span.
pub struct Region {
    inner: Option<OpenRegion>,
}

impl Region {
    /// The tree node this region records into, for
    /// [`Profiler::region_under`] from spawned threads. `None` when the
    /// profiler is disabled.
    pub fn id(&self) -> Option<RegionId> {
        self.inner.as_ref().map(|o| RegionId(o.node))
    }

    /// Ends the region now (equivalent to dropping it).
    pub fn finish(self) {}
}

impl Drop for Region {
    fn drop(&mut self) {
        let Some(open) = self.inner.take() else {
            return;
        };
        let end_ns = open.prof.clock.now_ns();
        let tag = Arc::as_ptr(&open.prof) as usize;
        REGION_STACK.with(|s| {
            let mut stack = s.borrow_mut();
            if let Some(pos) = stack
                .iter()
                .rposition(|&(t, node, _)| t == tag && node == open.node)
            {
                stack.remove(pos);
            }
        });
        let mut state = open.prof.state.lock().expect("profiler state poisoned");
        let node = &mut state.nodes[open.node];
        node.calls += 1;
        node.total_ns += end_ns.saturating_sub(open.start_ns);
        if let Some(span) = open.span {
            state.spans[span].end_ns = end_ns;
        }
    }
}

/// One node of a snapshot's region tree.
#[derive(Debug, Clone)]
pub struct ProfNode {
    /// Region name (the leaf of its path).
    pub name: String,
    /// Index of the parent node, if any.
    pub parent: Option<usize>,
    /// Indices of child nodes.
    pub children: Vec<usize>,
    /// Completed entries into this region.
    pub calls: u64,
    /// Wall time inside this region, children included.
    pub total_ns: u64,
    /// Wall time inside this region, children excluded.
    pub self_ns: u64,
}

/// One retained raw span of a snapshot.
#[derive(Debug, Clone)]
pub struct ProfSpan {
    /// Index into [`ProfSnapshot::nodes`].
    pub node: usize,
    /// Index of the enclosing span on the same thread, if retained.
    pub parent: Option<usize>,
    /// Region open time (profiler clock).
    pub start_ns: u64,
    /// Region close time.
    pub end_ns: u64,
    /// Dense per-profiler thread ordinal.
    pub tid: u32,
}

/// A point-in-time copy of a profiler's contents.
#[derive(Debug, Clone, Default)]
pub struct ProfSnapshot {
    /// The aggregated region tree.
    pub nodes: Vec<ProfNode>,
    /// Retained raw spans, open order (capped at [`PROF_SPAN_CAP`]).
    pub spans: Vec<ProfSpan>,
    /// Spans not retained because the cap was reached (still aggregated).
    pub spans_dropped: u64,
}

impl ProfSnapshot {
    /// The `a;b;c` path of a node, root first.
    pub fn path(&self, node: usize) -> Vec<&str> {
        let mut path = Vec::new();
        let mut cur = Some(node);
        while let Some(i) = cur {
            path.push(self.nodes[i].name.as_str());
            cur = self.nodes[i].parent;
        }
        path.reverse();
        path
    }

    /// Writes folded stacks: one `path;leaf <self_ns>` line per node with
    /// nonzero self time, in stable (tree-index) order.
    pub fn write_folded<W: Write>(&self, writer: &mut W) -> io::Result<()> {
        for (i, node) in self.nodes.iter().enumerate() {
            if node.self_ns == 0 {
                continue;
            }
            writeln!(writer, "{} {}", self.path(i).join(";"), node.self_ns)?;
        }
        Ok(())
    }

    /// Renders the tree as an indented table: calls, total ms, self ms,
    /// and self share of all recorded root time.
    pub fn format_tree(&self) -> String {
        let root_total: u64 = self
            .nodes
            .iter()
            .filter(|n| n.parent.is_none())
            .map(|n| n.total_ns)
            .sum();
        let mut out = String::new();
        out.push_str(&format!(
            "{:<40} {:>9} {:>12} {:>12} {:>7}\n",
            "region", "calls", "total ms", "self ms", "self%"
        ));
        let roots: Vec<usize> = (0..self.nodes.len())
            .filter(|&i| self.nodes[i].parent.is_none())
            .collect();
        for root in roots {
            self.format_node(&mut out, root, 0, root_total);
        }
        if self.spans_dropped > 0 {
            out.push_str(&format!(
                "({} spans past the {}-span cap aggregated only)\n",
                self.spans_dropped, PROF_SPAN_CAP
            ));
        }
        out
    }

    fn format_node(&self, out: &mut String, idx: usize, depth: usize, root_total: u64) {
        let n = &self.nodes[idx];
        let label = format!("{}{}", "  ".repeat(depth), n.name);
        let share = if root_total > 0 {
            100.0 * n.self_ns as f64 / root_total as f64
        } else {
            0.0
        };
        out.push_str(&format!(
            "{:<40} {:>9} {:>12.3} {:>12.3} {:>6.1}%\n",
            label,
            n.calls,
            n.total_ns as f64 / 1e6,
            n.self_ns as f64 / 1e6,
            share
        ));
        for &child in &n.children {
            self.format_node(out, child, depth + 1, root_total);
        }
    }

    /// Total wall time across root regions.
    pub fn root_total_ns(&self) -> u64 {
        self.nodes
            .iter()
            .filter(|n| n.parent.is_none())
            .map(|n| n.total_ns)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use owan_obs::ManualClock;

    #[test]
    fn disabled_profiler_is_inert() {
        let prof = Profiler::disabled();
        {
            let outer = prof.region("outer");
            assert!(outer.id().is_none());
            let _inner = prof.region("inner");
        }
        let snap = prof.snapshot();
        assert!(snap.nodes.is_empty());
        assert!(snap.spans.is_empty());
    }

    #[test]
    fn nesting_aggregates_self_and_total_time() {
        let clock = Arc::new(ManualClock::new());
        let prof = Profiler::with_clock(clock.clone());
        {
            let _a = prof.region("a");
            clock.advance_ns(5);
            {
                let _b = prof.region("b");
                clock.advance_ns(3);
            }
            clock.advance_ns(2);
        }
        {
            let _a = prof.region("a");
            clock.advance_ns(10);
        }
        let snap = prof.snapshot();
        assert_eq!(snap.nodes.len(), 2);
        let a = snap.nodes.iter().find(|n| n.name == "a").unwrap();
        let b = snap.nodes.iter().find(|n| n.name == "b").unwrap();
        assert_eq!(a.calls, 2);
        assert_eq!(a.total_ns, 20);
        assert_eq!(a.self_ns, 17);
        assert_eq!(b.total_ns, 3);
        assert_eq!(b.parent, Some(0));
        assert_eq!(snap.path(1), vec!["a", "b"]);
    }

    #[test]
    fn folded_output_names_full_paths() {
        let clock = Arc::new(ManualClock::new());
        let prof = Profiler::with_clock(clock.clone());
        {
            let _a = prof.region("plan");
            clock.advance_ns(4);
            let _b = prof.region("anneal");
            clock.advance_ns(6);
        }
        let mut out = Vec::new();
        prof.write_folded(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines, vec!["plan 4", "plan;anneal 6"]);
    }

    #[test]
    fn region_under_attaches_cross_thread_work() {
        let clock = Arc::new(ManualClock::new());
        let prof = Profiler::with_clock(clock.clone());
        let parent = prof.region("parallel");
        let parent_id = parent.id();
        std::thread::scope(|s| {
            s.spawn(|| {
                let _chain = prof.region_under(parent_id, "chain");
                clock.advance_ns(7);
            });
        });
        clock.advance_ns(1);
        drop(parent);
        let snap = prof.snapshot();
        let chain = snap.nodes.iter().position(|n| n.name == "chain").unwrap();
        assert_eq!(snap.path(chain), vec!["parallel", "chain"]);
        assert_eq!(snap.nodes[chain].total_ns, 7);
    }

    #[test]
    fn span_cap_drops_raw_spans_but_keeps_aggregates() {
        let clock = Arc::new(ManualClock::new());
        let prof = Profiler::with_clock(clock.clone());
        for _ in 0..(PROF_SPAN_CAP + 5) {
            let _r = prof.region("tick");
            clock.advance_ns(1);
        }
        let snap = prof.snapshot();
        assert_eq!(snap.spans.len(), PROF_SPAN_CAP);
        assert_eq!(snap.spans_dropped, 5);
        assert_eq!(snap.nodes[0].calls, (PROF_SPAN_CAP + 5) as u64);
    }
}
