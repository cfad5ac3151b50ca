//! Engine decorators that let the slot loop be measured from outside:
//! [`TimedEngine`] times (and, when tracing, captures) every
//! `plan_slot`, [`ReplayEngine`] hands recorded plans back so
//! `run_controller`/`run_chaos` can be timed with planning taken out.

use crate::spans::Spans;
use owan_core::{SlotInput, SlotPlan, Topology, TrafficEngineer, Transfer};
use owan_obs::Recorder;
use owan_optical::FiberPlant;
use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::rc::Rc;
use std::time::Instant;

/// FNV-1a over the slot's topology links and allocations (paths and the
/// exact bits of every rate), chained across slots: two runs with equal
/// digests planned bit-identical topologies and rates in the same order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanDigest(pub u64);

impl Default for PlanDigest {
    fn default() -> Self {
        PlanDigest(0xcbf2_9ce4_8422_2325)
    }
}

impl PlanDigest {
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds one slot's plan into the digest.
    pub fn absorb(&mut self, plan: &SlotPlan) {
        for (u, v, m) in plan.topology.links() {
            self.word(u as u64);
            self.word(v as u64);
            self.word(u64::from(m));
        }
        self.word(u64::MAX);
        for a in &plan.allocations {
            self.word(a.transfer as u64);
            for (path, rate) in &a.paths {
                for &s in path {
                    self.word(s as u64);
                }
                self.word(rate.to_bits());
            }
        }
        self.word(u64::MAX - 1);
    }
}

/// `owan_sim::simulate` counts a transfer complete once less than this is
/// left (a sub-byte residue of LP slack that no allocator will ever
/// serve); `run_controller` and `run_chaos` have no such floor, so a
/// residue keeps them planning empty slots until `max_slots`. The
/// decorator applies the simulator's floor from outside: such a transfer
/// is complete at the end of the slot that left the residue, and slots
/// with nothing but residues to plan are not latency samples.
pub const DUST_GBITS: f64 = 1e-6;

/// One planned slot as the decorator saw it; the layer replays run on
/// these.
#[derive(Debug, Clone)]
pub struct CapturedSlot {
    /// The plant the engine planned against (shared while unchanged).
    pub plant: Rc<FiberPlant>,
    /// Active transfers handed to the engine.
    pub transfers: Vec<Transfer>,
    /// Topology the network was in when planning started (the previous
    /// slot's plan, or the static topology on a cold engine).
    pub start_topology: Topology,
    /// The plan the engine returned.
    pub plan: SlotPlan,
    /// Slot length, seconds.
    pub slot_len_s: f64,
    /// Slot start, seconds.
    pub now_s: f64,
}

/// What [`TimedEngine`] records. Shared through an `Rc` because
/// `run_chaos` builds a fresh engine after every crash and all of them
/// report into the same run.
#[derive(Debug, Default)]
pub struct PlanLog {
    /// `plan_slot` latency per slot, nanoseconds.
    pub plan_ns: Vec<u64>,
    /// The first plan with something to plan — the one made on cold
    /// caches: its index into `plan_ns`, and when it was handed back (the
    /// end of set-up).
    pub first_plan: Option<(usize, Instant)>,
    /// Digest over every plan returned so far.
    pub digest: PlanDigest,
    /// Captured slots (tracing only).
    pub captured: Vec<CapturedSlot>,
    /// Slots whose every active transfer was dust (see [`DUST_GBITS`]), by
    /// index into `plan_ns`: the loop is only spinning there.
    pub dust_slots: Vec<usize>,
    /// Transfers seen with a dust residue, and the start of the slot they
    /// were first seen in — the end of the slot that left the residue.
    pub dust: BTreeMap<usize, f64>,
    /// The open `slot` span (tracing only): it runs from one `plan_slot`
    /// call to the next, so it covers the runner's own work on the slot.
    pub open_slot: Option<usize>,
}

impl PlanLog {
    /// Closes the last `slot` span once the runner has returned.
    pub fn finish(&mut self, spans: &Spans) {
        if let Some(id) = self.open_slot.take() {
            spans.close(id);
        }
    }
}

/// Shared handle on a [`PlanLog`].
pub type SharedLog = Rc<RefCell<PlanLog>>;

/// Times every `plan_slot` of the wrapped engine. When tracing it also
/// keeps the slot's inputs and plan, opens `slot` → `plan` spans, and pins
/// its own recorder on the inner engine so cache counters can be read
/// after the run.
pub struct TimedEngine {
    inner: Box<dyn TrafficEngineer>,
    log: SharedLog,
    trace: Option<Tracing>,
    start_topology: Topology,
}

/// Tracing attachments of one run.
#[derive(Clone)]
pub struct Tracing {
    /// Span sink; the `plan` span is parented to the open `slot` span.
    pub spans: Spans,
    /// Run index stamped on the spans.
    pub run: u32,
    /// Recorder pinned on the inner engine (the runner's own
    /// `set_recorder` calls are swallowed while tracing).
    pub recorder: Recorder,
}

impl TimedEngine {
    /// Wraps `inner`; `start_topology` is what the network holds before
    /// the first plan.
    pub fn new(
        mut inner: Box<dyn TrafficEngineer>,
        start_topology: Topology,
        log: SharedLog,
        trace: Option<Tracing>,
    ) -> Self {
        if let Some(t) = &trace {
            inner.set_recorder(t.recorder.clone());
        }
        TimedEngine {
            inner,
            log,
            trace,
            start_topology,
        }
    }
}

impl TrafficEngineer for TimedEngine {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn plan_slot(&mut self, plant: &FiberPlant, input: &SlotInput<'_>) -> SlotPlan {
        let span = self.trace.as_ref().map(|t| {
            let mut log = self.log.borrow_mut();
            log.finish(&t.spans);
            t.spans.set_context(t.run, log.plan_ns.len() as u32);
            log.open_slot = Some(t.spans.open("slot"));
            t.spans.enter("plan")
        });
        let t0 = Instant::now();
        let plan = self.inner.plan_slot(plant, input);
        let done = Instant::now();
        drop(span);
        let mut log = self.log.borrow_mut();
        let mut live = input.transfers.is_empty();
        for t in input.transfers {
            if t.remaining_gbits > DUST_GBITS {
                live = true;
            } else {
                log.dust.entry(t.id).or_insert(input.now_s);
            }
        }
        if !live {
            let slot = log.plan_ns.len();
            log.dust_slots.push(slot);
        }
        if !input.transfers.is_empty() && log.first_plan.is_none() {
            log.first_plan = Some((log.plan_ns.len(), done));
        }
        log.plan_ns.push((done - t0).as_nanos() as u64);
        log.digest.absorb(&plan);
        if self.trace.is_some() {
            let plant = match log.captured.last() {
                Some(prev) if owan_chaos::plants_equal(&prev.plant, plant) => prev.plant.clone(),
                _ => Rc::new(plant.clone()),
            };
            log.captured.push(CapturedSlot {
                plant,
                transfers: input.transfers.to_vec(),
                start_topology: std::mem::replace(&mut self.start_topology, plan.topology.clone()),
                plan: plan.clone(),
                slot_len_s: input.slot_len_s,
                now_s: input.now_s,
            });
        }
        plan
    }

    fn set_recorder(&mut self, recorder: Recorder) {
        // Untraced, the runner's (disabled) recorder goes straight
        // through, exactly as without the decorator.
        if self.trace.is_none() {
            self.inner.set_recorder(recorder);
        }
    }
}

/// Hands back recorded plans, so the slot loop runs with planning taken
/// out. Plans are matched on the slot's start time, not on call order:
/// `run_controller` asks for a plan on every slot while `run_chaos` skips
/// idle ones, so a recording made by one can be replayed through the
/// other. A slot with no recording gets the previous topology and no
/// allocations.
#[derive(Clone)]
pub struct ReplayEngine {
    /// Shared so the engines `run_chaos` rebuilds after a crash continue
    /// the same recording.
    state: Rc<RefCell<ReplayState>>,
}

struct ReplayState {
    plans: HashMap<u64, SlotPlan>,
    topology: Topology,
}

impl ReplayEngine {
    /// Replays `(slot start, plan)` recordings; `start_topology` serves
    /// slots before the first recording.
    pub fn new(plans: Vec<(f64, SlotPlan)>, start_topology: Topology) -> Self {
        ReplayEngine {
            state: Rc::new(RefCell::new(ReplayState {
                plans: plans.into_iter().map(|(t, p)| (t.to_bits(), p)).collect(),
                topology: start_topology,
            })),
        }
    }
}

impl TrafficEngineer for ReplayEngine {
    fn name(&self) -> &str {
        "Replay"
    }

    fn plan_slot(&mut self, _plant: &FiberPlant, input: &SlotInput<'_>) -> SlotPlan {
        let mut state = self.state.borrow_mut();
        match state.plans.remove(&input.now_s.to_bits()) {
            Some(plan) => {
                state.topology = plan.topology.clone();
                plan
            }
            None => SlotPlan {
                topology: state.topology.clone(),
                allocations: Vec::new(),
                throughput_gbps: 0.0,
            },
        }
    }
}
