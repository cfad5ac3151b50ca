//! The [`Recorder`]: registry of metrics, event ring, and span timing.

use std::collections::{BTreeMap, VecDeque};
use std::io::{self, Write};
use std::sync::atomic::AtomicU64;
use std::sync::{Arc, Mutex};

use crate::clock::{Clock, MonotonicClock};
use crate::event::{Event, Value};
use crate::metrics::{Counter, Gauge, Histogram, HistogramCore, HistogramSnapshot};

/// Default bound on the in-memory event ring; older events are dropped.
pub const DEFAULT_EVENT_CAPACITY: usize = 65_536;

/// Default stage-duration histogram bounds, in milliseconds.
const STAGE_MS_BOUNDS: [f64; 8] = [0.01, 0.1, 1.0, 10.0, 100.0, 1_000.0, 10_000.0, 100_000.0];

struct EventRing {
    buf: VecDeque<Event>,
    capacity: usize,
    dropped: u64,
}

struct Inner {
    clock: Arc<dyn Clock>,
    counters: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    gauges: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    histograms: Mutex<BTreeMap<String, Arc<HistogramCore>>>,
    events: Mutex<EventRing>,
}

/// Handle to a telemetry sink, cheaply cloneable and shareable across
/// threads. A disabled recorder (the default) holds no state and every
/// operation returns immediately; handles minted from it are disabled
/// too, so instrumented code pays one `Option` check per update.
#[derive(Clone, Default)]
pub struct Recorder {
    inner: Option<Arc<Inner>>,
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

impl Recorder {
    /// The no-op recorder; all operations are early returns.
    pub fn disabled() -> Self {
        Recorder { inner: None }
    }

    /// An active recorder timing spans with a [`MonotonicClock`].
    pub fn enabled() -> Self {
        Self::with_clock(Arc::new(MonotonicClock::new()))
    }

    /// An active recorder with an injected clock (tests pass a
    /// [`crate::ManualClock`]).
    pub fn with_clock(clock: Arc<dyn Clock>) -> Self {
        Recorder {
            inner: Some(Arc::new(Inner {
                clock,
                counters: Mutex::new(BTreeMap::new()),
                gauges: Mutex::new(BTreeMap::new()),
                histograms: Mutex::new(BTreeMap::new()),
                events: Mutex::new(EventRing {
                    buf: VecDeque::new(),
                    capacity: DEFAULT_EVENT_CAPACITY,
                    dropped: 0,
                }),
            })),
        }
    }

    /// Whether this recorder captures anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Current clock reading, or 0 when disabled.
    pub fn now_ns(&self) -> u64 {
        self.inner.as_ref().map_or(0, |inner| inner.clock.now_ns())
    }

    /// The counter registered under `name` (created on first use).
    /// Acquiring the handle takes the registry lock once; updates through
    /// the handle are lock-free.
    pub fn counter(&self, name: &str) -> Counter {
        let Some(inner) = &self.inner else {
            return Counter::disabled();
        };
        let mut registry = inner.counters.lock().expect("counter registry poisoned");
        let cell = registry.entry(name.to_string()).or_default();
        Counter(Some(Arc::clone(cell)))
    }

    /// The gauge registered under `name` (created on first use).
    pub fn gauge(&self, name: &str) -> Gauge {
        let Some(inner) = &self.inner else {
            return Gauge::disabled();
        };
        let mut registry = inner.gauges.lock().expect("gauge registry poisoned");
        let cell = registry.entry(name.to_string()).or_default();
        Gauge(Some(Arc::clone(cell)))
    }

    /// The histogram registered under `name`, created with `bounds` on
    /// first use. Later calls return the existing histogram regardless of
    /// `bounds`, matching first-registration-wins semantics.
    pub fn histogram(&self, name: &str, bounds: &[f64]) -> Histogram {
        let Some(inner) = &self.inner else {
            return Histogram::disabled();
        };
        let mut registry = inner
            .histograms
            .lock()
            .expect("histogram registry poisoned");
        let core = registry
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(HistogramCore::new(bounds)));
        Histogram(Some(Arc::clone(core)))
    }

    /// A [`Stage`] named `name`: pre-resolved handles for span timing.
    /// Populates `<name>.calls`, `<name>.ns`, and the `<name>.ms`
    /// histogram.
    pub fn stage(&self, name: &str) -> Stage {
        Stage {
            calls: self.counter(&format!("{name}.calls")),
            ns: self.counter(&format!("{name}.ns")),
            ms_hist: self.histogram(&format!("{name}.ms"), &STAGE_MS_BOUNDS),
            clock: self.inner.as_ref().map(|inner| Arc::clone(&inner.clock)),
        }
    }

    /// Records a structured event into the bounded ring. When the ring is
    /// full the oldest event is dropped (and counted).
    pub fn event(&self, name: &str, fields: &[(&str, Value)]) {
        let Some(inner) = &self.inner else {
            return;
        };
        let event = Event {
            ts_ns: inner.clock.now_ns(),
            name: name.to_string(),
            fields: fields
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
        };
        let mut ring = inner.events.lock().expect("event ring poisoned");
        if ring.buf.len() == ring.capacity {
            ring.buf.pop_front();
            ring.dropped += 1;
        }
        ring.buf.push_back(event);
    }

    /// A point-in-time copy of everything recorded so far.
    pub fn snapshot(&self) -> Snapshot {
        let Some(inner) = &self.inner else {
            return Snapshot::default();
        };
        use std::sync::atomic::Ordering;
        let counters = inner
            .counters
            .lock()
            .expect("counter registry poisoned")
            .iter()
            .map(|(name, cell)| (name.clone(), cell.load(Ordering::Relaxed)))
            .collect();
        let gauges = inner
            .gauges
            .lock()
            .expect("gauge registry poisoned")
            .iter()
            .map(|(name, cell)| (name.clone(), f64::from_bits(cell.load(Ordering::Relaxed))))
            .collect();
        let histograms = inner
            .histograms
            .lock()
            .expect("histogram registry poisoned")
            .iter()
            .map(|(name, core)| (name.clone(), core.snapshot()))
            .collect();
        let ring = inner.events.lock().expect("event ring poisoned");
        Snapshot {
            counters,
            gauges,
            histograms,
            events: ring.buf.iter().cloned().collect(),
            events_dropped: ring.dropped,
        }
    }
}

/// Pre-resolved handles for timing one named pipeline stage.
///
/// Obtain via [`Recorder::stage`]; call [`Stage::enter`] around the work.
/// Each completed span bumps `<name>.calls`, adds the elapsed time to
/// `<name>.ns`, and observes milliseconds into the `<name>.ms` histogram.
#[derive(Clone, Default)]
pub struct Stage {
    calls: Counter,
    ns: Counter,
    ms_hist: Histogram,
    clock: Option<Arc<dyn Clock>>,
}

impl std::fmt::Debug for Stage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Stage")
            .field("enabled", &self.clock.is_some())
            .finish()
    }
}

impl Stage {
    /// A disabled stage; spans cost one `Option` check.
    pub fn disabled() -> Self {
        Stage::default()
    }

    /// Starts a span; the returned RAII guard records on drop. Guards may
    /// nest (each span records its own full duration, so a parent span
    /// includes time spent in child spans).
    pub fn enter(&self) -> SpanGuard<'_> {
        SpanGuard {
            stage: self,
            start_ns: self.clock.as_ref().map(|clock| clock.now_ns()),
        }
    }

    /// Records an externally measured duration as one span.
    pub fn record_ns(&self, elapsed_ns: u64) {
        self.calls.incr();
        self.ns.add(elapsed_ns);
        self.ms_hist.observe(elapsed_ns as f64 / 1e6);
    }

    /// Total nanoseconds recorded so far (0 when disabled).
    pub fn total_ns(&self) -> u64 {
        self.ns.get()
    }
}

/// RAII span: records elapsed time into its [`Stage`] when dropped.
pub struct SpanGuard<'a> {
    stage: &'a Stage,
    start_ns: Option<u64>,
}

impl SpanGuard<'_> {
    /// Ends the span now (equivalent to dropping it).
    pub fn finish(self) {}

    /// Discards the span without recording anything — for aborted work
    /// that should not count as a call.
    pub fn cancel(mut self) {
        self.start_ns = None;
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let (Some(start_ns), Some(clock)) = (self.start_ns, self.stage.clock.as_ref()) else {
            return;
        };
        let elapsed_ns = clock.now_ns().saturating_sub(start_ns);
        self.stage.record_ns(elapsed_ns);
    }
}

/// A point-in-time copy of a recorder's contents.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram contents by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// Ring contents, oldest first.
    pub events: Vec<Event>,
    /// Events evicted from the ring because it was full.
    pub events_dropped: u64,
}

impl Snapshot {
    /// Writes the snapshot as JSON Lines (one object per line).
    pub fn write_jsonl<W: Write>(&self, writer: &mut W) -> io::Result<()> {
        use std::fmt::Write as _;
        let mut line = String::new();
        for (name, value) in &self.counters {
            line.clear();
            line.push_str("{\"type\":\"counter\",\"name\":");
            crate::json::write_str(&mut line, name);
            let _ = write!(line, ",\"value\":{value}}}");
            writeln!(writer, "{line}")?;
        }
        for (name, value) in &self.gauges {
            line.clear();
            line.push_str("{\"type\":\"gauge\",\"name\":");
            crate::json::write_str(&mut line, name);
            line.push_str(",\"value\":");
            crate::json::write_f64(&mut line, *value);
            line.push('}');
            writeln!(writer, "{line}")?;
        }
        for (name, hist) in &self.histograms {
            line.clear();
            line.push_str("{\"type\":\"histogram\",\"name\":");
            crate::json::write_str(&mut line, name);
            let _ = write!(line, ",\"total\":{},\"sum\":", hist.total);
            crate::json::write_f64(&mut line, hist.sum);
            line.push_str(",\"buckets\":[");
            for (i, count) in hist.counts.iter().enumerate() {
                if i > 0 {
                    line.push(',');
                }
                line.push_str("{\"le\":");
                match hist.bounds.get(i) {
                    Some(bound) => crate::json::write_f64(&mut line, *bound),
                    None => line.push_str("\"inf\""),
                }
                let _ = write!(line, ",\"count\":{count}}}");
            }
            line.push_str("]}");
            writeln!(writer, "{line}")?;
        }
        for event in &self.events {
            line.clear();
            event.write_json(&mut line);
            writeln!(writer, "{line}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_is_inert() {
        let recorder = Recorder::disabled();
        let counter = recorder.counter("x");
        counter.add(5);
        assert_eq!(counter.get(), 0);
        let stage = recorder.stage("s");
        stage.enter().finish();
        assert_eq!(stage.total_ns(), 0);
        recorder.event("e", &[("k", Value::U64(1))]);
        let snap = recorder.snapshot();
        assert!(snap.counters.is_empty());
        assert!(snap.events.is_empty());
    }

    #[test]
    fn counters_accumulate_and_share_by_name() {
        let recorder = Recorder::enabled();
        let a = recorder.counter("hits");
        let b = recorder.counter("hits");
        a.add(2);
        b.incr();
        assert_eq!(recorder.counter("hits").get(), 3);
    }

    #[test]
    fn event_ring_drops_oldest() {
        let recorder = Recorder::enabled();
        for i in 0..(DEFAULT_EVENT_CAPACITY as u64 + 10) {
            recorder.event("tick", &[("i", Value::U64(i))]);
        }
        let snap = recorder.snapshot();
        assert_eq!(snap.events.len(), DEFAULT_EVENT_CAPACITY);
        assert_eq!(snap.events_dropped, 10);
        assert_eq!(snap.events[0].fields[0].1, Value::U64(10));
    }
}
