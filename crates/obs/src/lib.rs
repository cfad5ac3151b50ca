//! Runtime telemetry for the Owan reproduction.
//!
//! Everything here is std-only and cheap by default: a [`Recorder`] is an
//! `Option<Arc<...>>` under the hood, so a disabled recorder (the default)
//! makes every operation an early return on a `None`, and instrumented
//! code never branches on feature flags. When enabled, counter and
//! histogram updates are lock-free atomic operations; the only mutex sits
//! on the name→handle registry (touched once per handle acquisition, not
//! per update) and on the bounded event ring.
//!
//! Time comes from an injectable [`Clock`] so tests can drive spans
//! deterministically with [`ManualClock`]; production uses
//! [`MonotonicClock`].
//!
//! Export is hand-rolled JSONL (see [`json`]) — one JSON object per line,
//! no external serialization crates.

mod bundle;
mod clock;
mod event;
pub mod json;
mod metrics;
mod recorder;
mod report;

pub use clock::{Clock, ManualClock, MonotonicClock};
pub use event::{Event, Value};
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot};
pub use recorder::{Recorder, Snapshot, SpanGuard, Stage, DEFAULT_EVENT_CAPACITY};
pub use report::{format_counter_rows, format_counter_table, format_stage_table};
