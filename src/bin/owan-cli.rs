//! Command-line driver: run any engine on any evaluation network and
//! print the §5.1 metrics, verify the control loop against the oracle,
//! or introspect a run with the flight recorder.
//!
//! ```text
//! owan-cli [RUN OPTIONS] [PROBE OPTIONS]
//! owan-cli transfers [RUN OPTIONS] [PROBE OPTIONS] [--trace ID]
//! owan-cli top [RUN OPTIONS] [PROBE OPTIONS] [--interval SECS]
//! owan-cli verify [VERIFY OPTIONS]
//! owan-cli chaos [CHAOS OPTIONS] [PROBE OPTIONS]
//! owan-cli attack [ATTACK OPTIONS] [PROBE OPTIONS]
//! owan-cli explain [RUN OPTIONS | --chaos CHAOS OPTIONS] [PROBE OPTIONS] [--id N]
//! owan-cli slo [RUN OPTIONS | --chaos CHAOS OPTIONS] [PROBE OPTIONS]
//! ```
//!
//! With `--sigma` the workload carries deadlines and the deadline metrics
//! are reported; without it, completion-time metrics. Every command but
//! `verify` takes the same probe options, read once into [`ProbeFlags`]:
//! `--obs` exports the run's telemetry as JSON Lines; `--obs-summary`
//! prints a per-stage timing table. `--scope` attaches the flight
//! recorder: per-transfer lifecycle tracking, the causal slot timeline
//! (`--scope-trace` exports Chrome trace-event JSON for Perfetto), and
//! anomaly-triggered flight dumps (`--scope-dump`). `--prof FILE`
//! attaches the tier-3 region profiler and writes folded stacks for
//! flamegraph tooling; `--prof-report` prints the region tree and the
//! cache-miss attribution table instead. `--serve ADDR` exposes live
//! Prometheus text (`/metrics`, `/healthz`) while the run executes.
//! `--slo-*` thresholds attach the tier-4 why recorder's online monitors,
//! which freeze the flight recorder when one trips. Every probe is off by
//! default and a disabled recorder/scope/profiler changes no engine
//! output. Every command exits 2 on a flag or argument it does not read,
//! so a typo'd or retired flag is never silently ignored.
//!
//! `attack` composes adversarial traffic (coremelt, flash crowd, drift)
//! with the chaos fault machinery and measures recovery — delivered-volume
//! and victim-utilization timelines, time-to-restore against a fault-free
//! baseline — for the annealed engine or any fixed-topology baseline.
//!
//! `explain` and `slo` attach the why recorder, which keeps the per-slot
//! record the slot loop builds for the flight recorder (slot header,
//! fault labels, one row per transfer): completion time decomposes into
//! causal buckets that provably partition in-system wall time, and the
//! SLO monitors (deadline-miss burn rate, p99 slot-planning latency,
//! delivered-Gb deficit) report how the run stood against each threshold.
//!
//! `verify` replays fuzzed or named-network scenarios through the real
//! controller with every cross-layer invariant checked each slot. On
//! divergence it exits 1 and prints (or writes, with `--out`) a minimized
//! reproducer that `--replay FILE` re-runs exactly. `--replay` also
//! accepts a flight dump written by `chaos --scope-dump`: the embedded
//! metadata reconstructs the scenario, the run is re-executed under the
//! full invariant audit, and the regenerated dump must match the file
//! byte for byte.
//!
//! Example:
//! `cargo run --release --bin owan-cli -- --net internet2 --engine owan --load 1.5`

use owan::chaos::{
    restartable_owan, run_attack, run_chaos_probed, seeded_scenario, AttackOutcome, AttackTimeline,
    AuditHook, ChaosConfig, ChaosResult, FaultEvent, OpFaultModel,
};
use owan::core::rows::MAX_SITES;
use owan::core::{Profiler, SchedulingPolicy, TrafficEngineer, TransferRequest};
use owan::obs::{format_counter_table, format_stage_table, Recorder};
use owan::oracle::{fuzz, minimize, replay, InvariantAudit, ReplayKind, Reproducer, Scenario};
use owan::scope::{render_top, FlightDump, MetricsServer, ScopeConfig, ScopeRecorder, STAGES};
use owan::sim::metrics::{self, SizeBin};
use owan::sim::runner::{make_engine, EngineKind, RunnerConfig};
use owan::sim::{simulate_probed, Probes, SimConfig, SimResult};
use owan::topo::isp::ISP_SITES;
use owan::topo::{inter_dc, internet2_testbed, isp_backbone, isp_backbone_sized, Network};
use owan::why::{render_explain, render_slo, SloConfig, WhyConfig, WhyRecorder, WhyReport};
use owan::workload::attack::{
    coremelt, drift, flash_crowd, CoremeltConfig, DriftConfig, FlashCrowdConfig,
};
use owan::workload::{generate, WorkloadConfig};
use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt::Display;
use std::path::PathBuf;

const USAGE: &str = "usage: owan-cli [OPTIONS]
       owan-cli transfers [OPTIONS] [--trace ID]
       owan-cli top [OPTIONS] [--interval SECS]
       owan-cli verify [OPTIONS]
       owan-cli chaos [OPTIONS]
       owan-cli attack [OPTIONS]
       owan-cli explain [OPTIONS] [--chaos] [--id N]
       owan-cli slo [OPTIONS] [--chaos]

Every command exits 2 on a flag it does not take.

run options:
  --net NAME          evaluation network: internet2 | isp | interdc  [internet2]
  --sites N           with --net isp: the backbone generator at N sites  [40]
  --engine NAME       owan | maxflow | maxmin | swan | tempus | amoeba | greedy  [owan]
  --load L            workload load factor lambda  [1.0]
  --sigma S           deadline tightness; enables deadline workload and metrics
  --slot SECS         slot length, seconds  [300]
  --duration SECS     workload arrival window, seconds  [7200]
  --seed N            workload + annealing seed  [42]
  --iters N           annealing iterations per slot  [150]
  --chains N          parallel annealing chains per slot (owan)  [1]
  --max-requests N    truncate the workload to N transfers
  -h, --help          show this help

probe options (every command but verify takes them; all off by default):
  --obs FILE.jsonl    export run telemetry as JSON Lines to FILE
  --obs-summary       print a per-stage timing table after the report
  --scope             attach the flight recorder / timeline collector
  --scope-slots N     flight-recorder ring depth, slots  [16]
  --scope-dump FILE   write the anomaly-triggered flight dump here; a
                      chaos dump replays through `verify --replay`
  --scope-trace FILE  export the causal slot timeline as Chrome trace JSON
                      (profiler regions merged in when --prof* is also set)
  --prof FILE         attach the region profiler; write folded stacks to
                      FILE for flamegraph tooling
  --prof-report       attach the region profiler; print the region tree
                      and the cache-miss attribution table after the run
  --serve ADDR        serve live /metrics + /healthz on ADDR while running
  --slo-burn F        attach the why recorder; freeze the flight recorder
                      when the deadline-miss burn rate exceeds F
  --slo-window N      burn-rate sliding window, slots  [8]
  --slo-p99 MS        trip when p99 slot-planning latency exceeds MS
                      (wall-clock: trips may differ between reruns)
  --slo-deficit G     trip when delivered Gb falls G behind the pro-rata
                      deadline promise

transfers: run the workload with the flight recorder attached and print
the per-transfer lifecycle table (state, slots served, delivered Gb by
path, queue time, preemptions, deadline slack). `--trace ID` prints one
transfer's slot-by-slot history instead.

top: run the workload with the telemetry recorder attached and print a
live-refreshing dashboard (throughput, active/queued/at-risk transfers,
annealing and rate counters, per-stage timings) every `--interval`
seconds [2] until the run finishes.

verify options (modes are mutually exclusive; default is --seeds):
  --seeds N           fuzz N consecutive seeds through the oracle  [200]
  --start S           first fuzz seed  [0]
  --replay FILE       re-run a reproducer file written by a failed verify,
                      or a flight dump written by chaos --scope-dump
  --net NAME          replay a generated workload on a named network instead
  --sites N           with --net isp: the backbone generator at N sites  [40]
  --slots N           replay horizon in slots (with --net)  [60]
  --slot SECS         slot length, seconds (with --net)  [300]
  --iters N           annealing iterations per slot  [40]
  --load L            workload load factor (with --net)  [1.0]
  --seed N            workload seed (with --net)  [42]
  --out FILE          write the minimized reproducer here on divergence
  --obs FILE.jsonl    export oracle.invariant_* counters as JSON Lines
  --chaos             fuzz seeds through the hardened chaos controller
                      (cuts+repairs, op faults, crashes) instead of the
                      fault-free loop; failures name the seed directly
  --attack            fuzz seeds with adversarial traffic (coremelt and/or
                      flash-crowd waves) composed into each chaos scenario;
                      failures name the seed directly

verify exits 0 when every invariant holds on every slot, 1 on divergence
(printing the minimized reproducer), 2 on bad arguments.

chaos options:
  --net NAME          evaluation network: internet2 | isp | interdc  [internet2]
  --sites N           with --net isp: the backbone generator at N sites  [40]
  --seed N            scenario + workload + annealing seed  [42]
  --load L            workload load factor lambda  [1.0]
  --sigma S           deadline tightness; enables the deadline workload
                      (the burn-rate and deficit SLOs judge deadlines)
  --slot SECS         slot length, seconds  [300]
  --slots N           horizon, slots  [60]
  --iters N           annealing iterations per slot  [60]
  --detect SECS       fault detection delay, seconds  [30]
  --timeout-prob P    per-attempt update-op timeout probability  [0.1]
  --fail-prob P       per-attempt update-op failure probability  [0.05]

chaos runs a seeded scenario (fiber cut + amp degradation + op faults +
controller crash + repairs) through the hardened controller twice — once
fault-free, once with faults — checking every cross-layer invariant each
slot, and reports the delivered-volume loss. The probes attach to the
faulted run. Exits 0 when all invariants hold and the runs are
deterministic, 1 otherwise, 2 on bad arguments.

attack options:
  --net NAME          evaluation network: internet2 | isp | interdc  [isp]
  --sites N           with --net isp: the backbone generator at N sites  [40]
  --engine NAME       owan | maxflow | maxmin | swan | tempus | amoeba | greedy  [owan]
  --attack NAME       coremelt | flashcrowd | drift | mix  [coremelt]
  --seed N            workload + attack + annealing seed  [42]
  --load L            background workload load factor lambda  [0.4]
  --sigma S           deadline tightness for the background workload
  --slot SECS         slot length, seconds  [300]
  --slots N           horizon, slots  [40]
  --duration SECS     background arrival window, seconds  [min(horizon, 7200)]
  --max-requests N    truncate the background workload to N transfers  [200]
  --iters N           annealing iterations per slot  [60]
  --onset SECS        attack onset  [4 slots]
  --attack-duration S coremelt / drift window length, seconds  [6 slots]
  --intensity F       coremelt demand as a multiple of victim capacity  [1.5]
  --target-fibers N   coremelt: max-betweenness fibers to saturate  [2]
  --pairs-per-fiber N coremelt: adversarial src/dst pairs per fiber  [3]
  --sources N         flash crowd: sites surging onto the victim  [6]
  --peak-gbps F       flash crowd: aggregate peak rate (0 = 2x victim ports)  [0]
  --hold SECS         flash crowd: time held at peak  [1200]
  --restore F         recovery bar, fraction of baseline delivery  [0.9]
  --with-faults       compose the seeded chaos fault timeline and op faults
                      into the attacked run
  --detect SECS       fault detection delay, seconds  [30]
  --timeout-prob P    per-attempt update-op timeout probability  [0.1]
  --fail-prob P       per-attempt update-op failure probability  [0.05]
  --timeline          print the per-slot recovery timeline rows

attack derives an adversarial timeline from the seed, composes it (and,
with --with-faults, the seeded fault scenario) into the background
workload, and runs the hardened controller twice — attack-free and
attacked — checking every cross-layer invariant each slot. The probes
attach to the attacked run. It reports time-to-restore (slots until
cumulative background delivery is back to --restore of baseline and
stays there), residual loss, and peak victim utilization. Exits 0 when
all invariants hold and the runs are deterministic, 1 otherwise, 2 on
bad arguments.

explain / slo options (plus the run options, or with --chaos the chaos
options):
  --chaos             run the seeded chaos scenario instead of the
                      fault-free workload
  --id N              explain transfer N instead of the worst-slack one

explain re-runs the configured scenario with the tier-4 why recorder
keeping every slot's record (and, without --chaos, the region profiler
attached), then decomposes one transfer's in-system wall time into
causal buckets (serving, queue wait, attack preemption, reconfiguration
downtime, blackholed loss, rate starvation vs fair share, stalled) that
sum exactly to the wall time; `bucket,*` rows carry seconds and share,
`fault,*` rows the fault labels of the slots the transfer spent in the
system, `prof_region,*` rows the controller hot spots. Exits 2 if --id
names no transfer, 1 if the partition check fails.

slo runs the same scenario and prints the monitor report: deadline
outcomes and burn rate over the sliding window, p99 slot-planning
latency, delivered-Gb deficit, and which monitor (if any) tripped the
flight-recorder freeze. Unset --slo-* thresholds are measured, never
tripped.";

/// The subcommands: `argv[1]` names one, or the command is the plain run.
const COMMANDS: [&str; 7] = [
    "transfers",
    "top",
    "verify",
    "chaos",
    "attack",
    "explain",
    "slo",
];

/// Every `--engine` name and the engine it selects.
const ENGINES: [(&str, EngineKind); 7] = [
    ("owan", EngineKind::Owan),
    ("maxflow", EngineKind::MaxFlow),
    ("maxmin", EngineKind::MaxMinFract),
    ("swan", EngineKind::Swan),
    ("tempus", EngineKind::Tempus),
    ("amoeba", EngineKind::Amoeba),
    ("greedy", EngineKind::Greedy),
];

/// Prints `owan-cli{cmd}: {msg}` and exits with `code`: 2 on a bad
/// argument, 1 on a failed run or export. `cmd` is the command's name
/// with a leading space, empty for the plain run.
fn fail(cmd: &str, code: i32, msg: impl Display) -> ! {
    eprintln!("owan-cli{cmd}: {msg}");
    std::process::exit(code);
}

/// Minimal flag parser: `--key value` pairs plus boolean switches. It
/// remembers every key a command asks for, so the command can refuse the
/// rest ([`Args::reject_unread`]).
struct Args {
    argv: Vec<String>,
    /// The command's name with a leading space, empty for the plain run;
    /// every error message names it.
    cmd: String,
    /// Keys read so far, each with whether it takes a value.
    read: RefCell<HashMap<String, bool>>,
}

impl Args {
    fn new(argv: Vec<String>) -> Self {
        let cmd = match argv.get(1) {
            Some(c) if COMMANDS.contains(&c.as_str()) => format!(" {c}"),
            _ => String::new(),
        };
        Args {
            argv,
            cmd,
            read: RefCell::default(),
        }
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.read.borrow_mut().insert(key.to_string(), true);
        self.argv
            .iter()
            .position(|a| a == key)
            .and_then(|i| self.argv.get(i + 1))
            .map(String::as_str)
    }

    fn flag(&self, key: &str) -> bool {
        self.read.borrow_mut().insert(key.to_string(), false);
        self.argv.iter().any(|a| a == key)
    }

    /// `--key FILE`, owned.
    fn path(&self, key: &str) -> Option<String> {
        self.get(key).map(str::to_string)
    }

    /// Exits 2 naming the first word of the command line that no read
    /// asked for: a flag (a typo'd or retired one must not be ignored
    /// without a word) or a stray argument. Each command calls this once,
    /// after its last read and before it runs.
    fn reject_unread(&self) {
        let read = self.read.borrow();
        let mut words = self.argv.iter().skip(1 + usize::from(!self.cmd.is_empty()));
        while let Some(word) = words.next() {
            match read.get(word.as_str()) {
                // `get` takes the word after its key as the value.
                Some(true) => {
                    words.next();
                }
                Some(false) => {}
                None => {
                    let what = if word.starts_with('-') {
                        "flag"
                    } else {
                        "argument"
                    };
                    fail(&self.cmd, 2, format!("unknown {what} '{word}'"));
                }
            }
        }
    }

    /// Parses `--key value` when the flag is present. A present but
    /// malformed value exits 2 naming the flag, never a silent fallback.
    fn parse_opt<T: std::str::FromStr>(&self, key: &str) -> Option<T> {
        self.get(key).map(|raw| {
            raw.parse()
                .unwrap_or_else(|_| fail(&self.cmd, 2, format!("invalid value '{raw}' for {key}")))
        })
    }

    /// Parses `--key value`, `default` when the flag is absent.
    fn parse<T: std::str::FromStr>(&self, key: &str, default: T) -> T {
        self.parse_opt(key).unwrap_or(default)
    }

    /// `--net`'s name (`default` when absent) and its network, with
    /// `--sites N` sizing the ISP backbone.
    fn network(&self, default: &str) -> (String, Network) {
        let name = self.get("--net").unwrap_or(default).to_string();
        let network = match self.parse_opt::<usize>("--sites") {
            None => build_network(&self.cmd, &name),
            Some(n) => sized_isp(&self.cmd, &name, n),
        };
        (name, network)
    }

    /// `--engine`'s name (`owan` when absent) and the engine it selects.
    fn engine(&self) -> (String, EngineKind) {
        let name = self.get("--engine").unwrap_or("owan");
        match ENGINES.iter().find(|(n, _)| *n == name) {
            Some(&(name, kind)) => (name.to_string(), kind),
            None => fail(
                &self.cmd,
                2,
                format!("unknown engine '{name}' for --engine"),
            ),
        }
    }
}

fn build_network(cmd: &str, name: &str) -> Network {
    match name {
        "internet2" => internet2_testbed(),
        "isp" => isp_backbone(7),
        "interdc" => inter_dc(7),
        other => fail(cmd, 2, format!("unknown network '{other}' for --net")),
    }
}

/// The ISP backbone of `--sites N` sites; exits 2 for another network or
/// a site count the planner does not take.
fn sized_isp(cmd: &str, name: &str, n: usize) -> Network {
    if name != "isp" {
        fail(
            cmd,
            2,
            format!("--sites applies to --net isp, not '{name}'"),
        );
    }
    if !(3..=MAX_SITES).contains(&n) {
        fail(
            cmd,
            2,
            format!("invalid value '{n}' for --sites (3 to {MAX_SITES})"),
        );
    }
    isp_backbone_sized(7, n)
}

/// The §5.1 workload generator configuration for a named network: the
/// testbed arrival model on `internet2`, the simulation model elsewhere.
fn workload_config(net_name: &str, load: f64, seed: u64) -> WorkloadConfig {
    if net_name == "internet2" {
        WorkloadConfig::testbed(load, seed)
    } else {
        WorkloadConfig::simulation(load, seed)
    }
}

/// Scope metadata: `(key, value)` pairs stamped into the flight recorder.
type Meta<'a> = Vec<(&'a str, String)>;

/// Formats each value of a metadata key list.
fn meta(pairs: &[(&'static str, &dyn Display)]) -> Meta<'static> {
    pairs.iter().map(|(k, v)| (*k, v.to_string())).collect()
}

fn lines(bytes: &[u8]) -> usize {
    bytes.iter().filter(|&&b| b == b'\n').count()
}

/// The probe options every scenario command takes, read once: which of
/// the four tiers a run attaches, and what it exports. A command that
/// needs a tier whatever the flags say sets its switch after reading.
#[derive(Default)]
struct ProbeFlags {
    /// The command's name, for error messages.
    cmd: String,
    obs: Option<String>,
    obs_summary: bool,
    /// Flight recorder on: `--scope`, `--scope-dump` or `--scope-trace`.
    scope: bool,
    scope_slots: usize,
    scope_dump: Option<String>,
    scope_trace: Option<String>,
    /// Region profiler on: `--prof` or `--prof-report`.
    prof: bool,
    prof_out: Option<String>,
    prof_report: bool,
    serve: Option<String>,
    /// Why recorder on: a `--slo-*` threshold is set.
    why: bool,
    /// The SLO monitors; absent thresholds measure but never trip.
    slo: SloConfig,
    /// Telemetry recorder on whatever else is (`top` reads it live).
    record: bool,
}

impl ProbeFlags {
    fn read(args: &Args) -> Self {
        let scope_dump = args.path("--scope-dump");
        let scope_trace = args.path("--scope-trace");
        let prof_out = args.path("--prof");
        let prof_report = args.flag("--prof-report");
        let mut slo = SloConfig::default();
        slo.burn_window_slots = args.parse("--slo-window", slo.burn_window_slots);
        slo.burn_threshold = args.parse_opt("--slo-burn");
        slo.plan_p99_ms = args.parse_opt("--slo-p99");
        slo.deficit_gbits = args.parse_opt("--slo-deficit");
        ProbeFlags {
            cmd: args.cmd.clone(),
            obs: args.path("--obs"),
            obs_summary: args.flag("--obs-summary"),
            scope: args.flag("--scope") || scope_dump.is_some() || scope_trace.is_some(),
            scope_slots: args.parse("--scope-slots", 16),
            scope_dump,
            scope_trace,
            prof: prof_out.is_some() || prof_report,
            prof_out,
            prof_report,
            serve: args.path("--serve"),
            why: slo.burn_threshold.is_some()
                || slo.plan_p99_ms.is_some()
                || slo.deficit_gbits.is_some(),
            slo,
            record: false,
        }
    }

    /// The telemetry recorder is on when an export reads it or another
    /// tier reports through it.
    fn recorder_on(&self) -> bool {
        self.record
            || self.obs.is_some()
            || self.obs_summary
            || self.prof_report
            || self.serve.is_some()
            || self.scope
            || self.why
    }

    /// The run's probes, the flight recorder stamped with `meta` (the
    /// keys that name the run), and, with `--serve`, the live endpoint on
    /// its recorder, which serves until it is dropped.
    fn probes(&self, meta: &[(&str, String)]) -> (Probes, Option<MetricsServer>) {
        let probes = self.build(meta, false);
        let server = self.serve.as_deref().map(|addr| {
            let server = MetricsServer::spawn(addr, probes.recorder.clone()).unwrap_or_else(|e| {
                fail(
                    &self.cmd,
                    2,
                    format!("cannot bind --serve address '{addr}': {e}"),
                )
            });
            eprintln!("serving /metrics on http://{}", server.addr());
            server
        });
        (probes, server)
    }

    /// Probes for a rerun that must reproduce the run: the same flight
    /// recorder, stamped the same, and the same monitors, with no
    /// recorder, dump file or profiler.
    fn rerun_probes(&self, meta: &[(&str, String)]) -> Probes {
        self.build(meta, true)
    }

    fn build(&self, meta: &[(&str, String)], rerun: bool) -> Probes {
        let recorder = if self.recorder_on() && !rerun {
            Recorder::enabled()
        } else {
            Recorder::disabled()
        };
        let scope = if self.scope {
            let scope = ScopeRecorder::enabled(ScopeConfig {
                flight_slots: self.scope_slots,
                dump_path: self
                    .scope_dump
                    .as_ref()
                    .filter(|_| !rerun)
                    .map(PathBuf::from),
            });
            scope.set_meta("scope_slots", self.scope_slots);
            // `slo_window` marks a dump whose run had the monitors
            // attached: replaying it rebuilds them.
            if self.why {
                let slo = &self.slo;
                scope.set_meta("slo_window", slo.burn_window_slots);
                let thresholds = [
                    ("slo_burn", slo.burn_threshold),
                    ("slo_p99_ms", slo.plan_p99_ms),
                    ("slo_deficit", slo.deficit_gbits),
                ];
                for (key, value) in thresholds {
                    if let Some(v) = value {
                        scope.set_meta(key, v);
                    }
                }
            }
            for (key, value) in meta {
                scope.set_meta(key, value);
            }
            scope
        } else {
            ScopeRecorder::disabled()
        };
        let why = if self.why {
            WhyRecorder::enabled(
                WhyConfig {
                    slo: self.slo.clone(),
                },
                &recorder,
            )
        } else {
            WhyRecorder::disabled()
        };
        let prof = if self.prof && !rerun {
            Profiler::enabled()
        } else {
            Profiler::disabled()
        };
        Probes {
            recorder,
            scope,
            prof,
            why,
        }
    }

    /// Writes `bytes` to `path`; exits 1 naming `flag` when it cannot.
    fn write(&self, flag: &str, path: &str, bytes: &[u8]) {
        if let Err(e) = std::fs::write(path, bytes) {
            fail(
                &self.cmd,
                1,
                format!("cannot write {flag} file '{path}': {e}"),
            );
        }
    }

    /// Every command's export tail, after its report: the flight dump
    /// (where it went, or exit 1), the Chrome trace (the profiler's spans
    /// merged in), folded stacks, the region tree, the JSONL, the
    /// non-empty counter tables — the prof report's, then the command's
    /// `tables` prefixes — and the stage table.
    fn export(&self, probes: &Probes, tables: &[&str]) {
        let Probes {
            recorder,
            scope,
            prof,
            ..
        } = probes;
        let snapshot = recorder.snapshot();
        if let Some(path) = self.scope_dump.as_ref().filter(|_| scope.has_dumped()) {
            if let Some(e) = scope.dump_error() {
                fail(
                    &self.cmd,
                    1,
                    format!("cannot write --scope-dump file '{path}': {e}"),
                );
            }
            eprintln!("flight dump written to {path}");
        }
        if let Some(path) = &self.scope_trace {
            let snapshot = recorder.is_enabled().then_some(&snapshot);
            let mut out: Vec<u8> = Vec::new();
            let prof_spans = if prof.is_enabled() {
                let snap = prof.snapshot();
                scope
                    .export_chrome_trace_with_prof(snapshot, &snap, &mut out)
                    .expect("serializing to memory cannot fail");
                snap.spans.len()
            } else {
                scope
                    .export_chrome_trace(snapshot, &mut out)
                    .expect("serializing to memory cannot fail");
                0
            };
            self.write("--scope-trace", path, &out);
            eprintln!("wrote {} spans to {path}", scope.span_count() + prof_spans);
        }
        if let Some(path) = &self.prof_out {
            let mut out: Vec<u8> = Vec::new();
            prof.write_folded(&mut out)
                .expect("serializing to memory cannot fail");
            self.write("--prof", path, &out);
            eprintln!("wrote folded stacks to {path} ({} lines)", lines(&out));
        }
        if self.prof_report {
            print!("{}", prof.snapshot().format_tree());
        }
        if let Some(path) = &self.obs {
            let mut out: Vec<u8> = Vec::new();
            snapshot
                .write_jsonl(&mut out)
                .expect("serializing to memory cannot fail");
            self.write("--obs", path, &out);
            eprintln!("wrote {} telemetry lines to {path}", lines(&out));
        }
        // The prof report's tables: the annealer's evaluations by miss
        // reason, the relay searches the certificate skipped, and what the
        // rate passes did.
        let prof_tables: &[&str] = if self.prof_report {
            &["anneal.cache_miss.", "circuits.relay_certified", "rates."]
        } else {
            &[]
        };
        for prefix in prof_tables.iter().chain(tables) {
            let table = format_counter_table(&snapshot, prefix);
            if table.lines().count() > 1 {
                print!("{table}");
            }
        }
        if self.obs_summary {
            print!("{}", format_stage_table(&snapshot, &STAGES));
        }
    }
}

/// The `scope_dumped` report row, when the flight recorder is on.
fn print_scope_dumped(scope: &ScopeRecorder) {
    if scope.is_enabled() {
        let dumped = if scope.has_dumped() { "yes" } else { "no" };
        println!("scope_dumped,{dumped}");
    }
}

/// The `slo_tripped` report row, when the SLO monitors are on.
fn print_slo_tripped(why: &WhyRecorder) {
    if why.is_enabled() {
        match why.tripped() {
            Some((reason, slot)) => println!("slo_tripped,{reason},{slot}"),
            None => println!("slo_tripped,none"),
        }
    }
}

/// Everything the run-shaped commands (default run, `transfers`, `top`,
/// and `explain` / `slo` without `--chaos`) share: network, engine kind,
/// generated workload, runner config, and the workload knobs echoed into
/// scope metadata.
struct RunSetup {
    net_name: String,
    network: Network,
    engine_name: String,
    kind: EngineKind,
    requests: Vec<TransferRequest>,
    cfg: RunnerConfig,
    sigma: Option<f64>,
    load: f64,
    slot: f64,
    seed: u64,
    iters: usize,
}

impl RunSetup {
    /// Reads the run options and generates the workload.
    fn read(args: &Args) -> Self {
        let (net_name, network) = args.network("internet2");
        let (engine_name, kind) = args.engine();
        let load = args.parse("--load", 1.0f64);
        let sigma = args.parse_opt("--sigma");
        let slot = args.parse("--slot", 300.0f64);
        let duration = args.parse("--duration", 7_200.0f64);
        let seed = args.parse("--seed", 42u64);
        let iters = args.parse("--iters", 150usize);
        let chains = args.parse("--chains", 1usize);
        let max_requests = args.parse("--max-requests", usize::MAX);

        let mut wl = workload_config(&net_name, load, seed);
        wl.duration_s = duration;
        if net_name == "interdc" {
            wl = wl.with_hotspots();
        }
        if let Some(s) = sigma {
            wl = wl.with_deadlines(slot, s);
        }
        let mut requests = generate(&network, &wl);
        requests.truncate(max_requests);

        let cfg = RunnerConfig {
            sim: SimConfig {
                slot_len_s: slot,
                max_slots: 5_000,
                ..Default::default()
            },
            anneal_iterations: iters,
            seed,
            policy: if sigma.is_some() {
                SchedulingPolicy::EarliestDeadlineFirst
            } else {
                SchedulingPolicy::ShortestJobFirst
            },
            anneal_chains: chains,
            ..Default::default()
        };

        RunSetup {
            net_name,
            network,
            engine_name,
            kind,
            requests,
            cfg,
            sigma,
            load,
            slot,
            seed,
            iters,
        }
    }

    /// The scope metadata that names the run.
    fn meta(&self) -> Meta<'static> {
        meta(&[
            ("mode", &"sim"),
            ("net", &self.net_name),
            ("engine", &self.engine_name),
            ("seed", &self.seed),
            ("load", &self.load),
            ("slot_len_s", &self.slot),
            ("iters", &self.iters),
        ])
    }

    /// The `running ...` line every run-shaped command starts with.
    fn describe(&self) -> String {
        format!(
            "{} on {}: {} transfers, load {}, slot {}s",
            self.engine_name,
            self.net_name,
            self.requests.len(),
            self.load,
            self.slot
        )
    }

    /// Runs the configured engine over the workload through the idealized
    /// slot loop, reporting into `probes`.
    fn run(&self, probes: &Probes) -> SimResult {
        let mut engine = make_engine(self.kind, &self.network, &self.cfg);
        simulate_probed(
            &self.network.plant,
            &self.requests,
            engine.as_mut(),
            &self.cfg.sim,
            probes,
        )
    }
}

/// The seeded chaos scenario that `chaos`, `explain --chaos` and
/// `slo --chaos` run, and the one format a chaos flight dump names it in:
/// [`ChaosScenario::meta`] is what the dump's metadata carries and
/// [`ChaosScenario::from_meta`] reads it back for `verify --replay`.
struct ChaosScenario {
    net_name: String,
    network: Network,
    seed: u64,
    load: f64,
    sigma: Option<f64>,
    slot: f64,
    slots: usize,
    iters: usize,
    detect: f64,
    timeout_prob: f64,
    fail_prob: f64,
}

/// What a [`ChaosScenario`] runs on the network's plant.
struct ChaosInputs {
    requests: Vec<TransferRequest>,
    events: Vec<FaultEvent>,
    op_faults: OpFaultModel,
    config: ChaosConfig,
}

impl ChaosScenario {
    /// Reads the chaos options.
    fn read(args: &Args) -> Self {
        let (net_name, network) = args.network("internet2");
        ChaosScenario {
            network,
            net_name,
            seed: args.parse("--seed", 42u64),
            load: args.parse("--load", 1.0f64),
            sigma: args.parse_opt("--sigma"),
            slot: args.parse("--slot", 300.0f64),
            slots: args.parse("--slots", 60usize),
            iters: args.parse("--iters", 60usize),
            detect: args.parse("--detect", 30.0f64),
            timeout_prob: args.parse("--timeout-prob", 0.1f64),
            fail_prob: args.parse("--fail-prob", 0.05f64),
        }
    }

    /// Rebuilds the scenario a chaos flight dump at `path` was recorded
    /// under, and the flight recorder and monitors it ran with; a dump
    /// without `iters:` replays at `iters`. Exits 2 naming the key when
    /// one is missing or malformed.
    fn from_meta(dump: &FlightDump, path: &str, iters: usize) -> (Self, ProbeFlags) {
        const CMD: &str = " verify";
        fn opt<T: std::str::FromStr>(dump: &FlightDump, path: &str, key: &str) -> Option<T> {
            let raw = dump.meta.get(key)?;
            Some(raw.parse().unwrap_or_else(|_| {
                fail(CMD, 2, format!("flight dump '{path}': bad `{key}: {raw}`"))
            }))
        }
        fn need<T: std::str::FromStr>(dump: &FlightDump, path: &str, key: &str) -> T {
            opt(dump, path, key).unwrap_or_else(|| {
                fail(
                    CMD,
                    2,
                    format!("flight dump '{path}' missing `{key}:` metadata"),
                )
            })
        }
        let mode: String = need(dump, path, "mode");
        if mode != "chaos" {
            fail(
                CMD,
                2,
                format!("flight dump '{path}' has mode '{mode}'; only chaos dumps replay"),
            );
        }
        let net_name: String = need(dump, path, "net");
        // Rebuilding the monitors of a dump whose run had them attached
        // lets an SLO-tripped freeze reproduce its anomaly (and so the
        // dump) exactly.
        let slo_window: Option<usize> = opt(dump, path, "slo_window");
        let flags = ProbeFlags {
            cmd: CMD.to_string(),
            scope: true,
            scope_slots: need(dump, path, "scope_slots"),
            why: slo_window.is_some(),
            slo: SloConfig {
                burn_window_slots: slo_window.unwrap_or(SloConfig::default().burn_window_slots),
                burn_threshold: opt(dump, path, "slo_burn"),
                plan_p99_ms: opt(dump, path, "slo_p99_ms"),
                deficit_gbits: opt(dump, path, "slo_deficit"),
                ..Default::default()
            },
            ..Default::default()
        };
        let network = match opt(dump, path, "sites") {
            None => build_network(CMD, &net_name),
            Some(n) => sized_isp(CMD, &net_name, n),
        };
        let scenario = ChaosScenario {
            network,
            net_name,
            seed: need(dump, path, "seed"),
            load: need(dump, path, "load"),
            sigma: opt(dump, path, "sigma"),
            slot: need(dump, path, "slot_len_s"),
            slots: need(dump, path, "slots"),
            iters: opt(dump, path, "iters").unwrap_or(iters),
            detect: need(dump, path, "detect_s"),
            timeout_prob: need(dump, path, "timeout_prob"),
            fail_prob: need(dump, path, "fail_prob"),
        };
        (scenario, flags)
    }

    /// The scope metadata that names the scenario: the keys
    /// [`ChaosScenario::from_meta`] reads.
    fn meta(&self) -> Meta<'static> {
        let mut pairs = meta(&[
            ("mode", &"chaos"),
            ("net", &self.net_name),
            ("seed", &self.seed),
            ("load", &self.load),
            ("slot_len_s", &self.slot),
            ("slots", &self.slots),
            ("iters", &self.iters),
            ("detect_s", &self.detect),
            ("timeout_prob", &self.timeout_prob),
            ("fail_prob", &self.fail_prob),
        ]);
        if let Some(s) = self.sigma {
            pairs.push(("sigma", s.to_string()));
        }
        // A `--sites`-sized backbone; the default plant names no count.
        let sites = self.network.plant.sites().len();
        if self.net_name == "isp" && sites != ISP_SITES {
            pairs.push(("sites", sites.to_string()));
        }
        pairs
    }

    /// Generates the workload, the seeded fault timeline and op-fault
    /// model, and the loop configuration.
    fn inputs(&self) -> ChaosInputs {
        let mut wl = workload_config(&self.net_name, self.load, self.seed);
        if let Some(s) = self.sigma {
            wl = wl.with_deadlines(self.slot, s);
        }
        let horizon = self.slot * self.slots as f64;
        ChaosInputs {
            requests: generate(&self.network, &wl),
            events: seeded_scenario(&self.network.plant, self.seed, horizon),
            op_faults: OpFaultModel {
                seed: self.seed,
                timeout_prob: self.timeout_prob,
                fail_prob: self.fail_prob,
            },
            config: ChaosConfig {
                slot_len_s: self.slot,
                max_slots: self.slots,
                detection_delay_s: self.detect,
                ..Default::default()
            },
        }
    }

    /// Runs the faulted scenario once into `probes`, `audit` checking
    /// every planned slot.
    fn run(
        &self,
        inputs: &ChaosInputs,
        probes: &Probes,
        audit: Option<&mut AuditHook>,
    ) -> Result<ChaosResult, String> {
        run_chaos_probed(
            &self.network.plant,
            &inputs.requests,
            &mut restartable_owan(self.iters, self.seed),
            &inputs.config,
            &inputs.events,
            &inputs.op_faults,
            probes,
            audit,
        )
    }
}

/// Runs the configured scenario for `explain` / `slo` with the why
/// recorder attached (and, without `--chaos`, the profiler, whose hottest
/// regions the report lists), and distills the report. `--chaos` swaps
/// the fault-free workload for the seeded chaos scenario of `owan-cli
/// chaos`. The caller reads its own flags first: this rejects the unread
/// ones before the run.
fn why_run(args: &Args) -> (ProbeFlags, Probes, WhyReport) {
    let cmd = &args.cmd;
    let mut flags = ProbeFlags::read(args);
    flags.why = true;
    let probes = if args.flag("--chaos") {
        let scenario = ChaosScenario::read(args);
        args.reject_unread();
        let inputs = scenario.inputs();
        let (probes, _server) = flags.probes(&scenario.meta());
        eprintln!(
            "owan-cli{cmd}: chaos {}, {} transfers, {} fault events, {} slots of {}s",
            scenario.net_name,
            inputs.requests.len(),
            inputs.events.len(),
            scenario.slots,
            scenario.slot
        );
        if let Err(e) = scenario.run(&inputs, &probes, None) {
            fail(cmd, 1, format!("FAIL: {e}"));
        }
        probes
    } else {
        let setup = RunSetup::read(args);
        flags.prof = true;
        args.reject_unread();
        let (probes, _server) = flags.probes(&setup.meta());
        eprintln!("owan-cli{cmd}: {}", setup.describe());
        setup.run(&probes);
        probes
    };

    if probes.prof.is_enabled() {
        probes.why.attach_prof(&probes.prof.snapshot());
    }
    let report = probes
        .why
        .report()
        .unwrap_or_else(|| fail(cmd, 1, "the run recorded no slots"));
    (flags, probes, report)
}

/// `owan-cli explain`: re-run the scenario with the why recorder attached
/// and print one transfer's causal decomposition —
/// the worst-slack transfer by default, `--id N` to pick. Exits 1 when
/// the bucket partition check fails, 2 when `--id` names no transfer.
fn explain_main(args: &Args) -> ! {
    let id: Option<usize> = args.parse_opt("--id");
    let (flags, probes, report) = why_run(args);
    let text = match id {
        Some(id) => render_explain(&report, id)
            .unwrap_or_else(|| fail(&args.cmd, 2, format!("no transfer with id {id}"))),
        None => {
            let worst = report
                .worst_slack()
                .unwrap_or_else(|| fail(&args.cmd, 1, "the run held no transfers"));
            render_explain(&report, worst.id).expect("worst-slack transfer renders")
        }
    };
    print!("{text}");
    flags.export(&probes, &[]);
    std::process::exit(if text.contains("partition,BROKEN") {
        1
    } else {
        0
    });
}

/// `owan-cli slo`: re-run the scenario with the why recorder attached
/// and print the monitor report (burn rate, p99 planning latency,
/// delivered-Gb deficit, and any tripped monitor).
fn slo_main(args: &Args) -> ! {
    let (flags, probes, report) = why_run(args);
    print!("{}", render_slo(&report));
    flags.export(&probes, &[]);
    std::process::exit(0);
}

/// `owan-cli verify`: the oracle as a command. Three modes — seed fuzzing
/// (default), reproducer/flight-dump replay (`--replay`), and
/// named-network replay (`--net`) — all funnel through the same invariant
/// checkers the test suite uses.
fn verify_main(args: &Args) -> ! {
    let iters = args.parse("--iters", 40usize);
    let out_path = args.path("--out");
    // The oracle's counters are verify's one probe.
    let flags = ProbeFlags {
        cmd: args.cmd.clone(),
        obs: args.path("--obs"),
        ..Default::default()
    };
    let replay_path = args.get("--replay");
    // `--sites` is read only with `--net`, so elsewhere it exits 2.
    let named = args.get("--net").map(|_| args.network(""));
    let load = args.parse("--load", 1.0f64);
    let seed = args.parse("--seed", 42u64);
    let slots = args.parse("--slots", 60usize);
    let slot_len = args.parse("--slot", 300.0f64);
    let count = args.parse("--seeds", 200u64);
    let start = args.parse("--start", 0u64);
    let attack = args.flag("--attack");
    let chaos = args.flag("--chaos");
    args.reject_unread();
    let (probes, _) = flags.probes(&[]);
    let recorder = &probes.recorder;
    let ok = |line: String| -> ! {
        println!("{line}");
        flags.export(&probes, &[]);
        std::process::exit(0);
    };
    let diverged = |message: &str, repro: Option<&Reproducer>| -> ! {
        eprintln!("owan-cli verify: FAIL: {message}");
        if let Some(r) = repro {
            let text = r.to_text();
            match &out_path {
                Some(path) => {
                    if let Err(e) = std::fs::write(path, &text) {
                        eprintln!("owan-cli verify: cannot write --out file '{path}': {e}");
                    } else {
                        eprintln!("owan-cli verify: reproducer written to {path}");
                    }
                }
                None => print!("{text}"),
            }
        }
        flags.export(&probes, &[]);
        std::process::exit(1);
    };

    if let Some(path) = replay_path {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            fail(
                &args.cmd,
                2,
                format!("cannot read --replay file '{path}': {e}"),
            )
        });
        if FlightDump::is_dump(&text) {
            replay_flight_dump(path, &text, iters, flags.obs.clone());
        }
        let repro = Reproducer::from_text(&text)
            .unwrap_or_else(|e| fail(&args.cmd, 2, format!("malformed reproducer '{path}': {e}")));
        let scenario = repro.scenario();
        eprintln!(
            "replaying reproducer {path}: seed {}, {} requests, {} failures",
            scenario.seed,
            scenario.requests.len(),
            scenario.failures.len()
        );
        match replay(&scenario, ReplayKind::Plain, iters, &probes) {
            Ok(stats) => ok(format!(
                "OK: seed {} replayed clean ({} slots, {} plans, {} transitions checked, \
                 {} exempt)",
                scenario.seed,
                stats.slots,
                stats.plans_checked,
                stats.updates_checked,
                stats.updates_exempt
            )),
            Err(f) => diverged(&f.to_string(), Some(&repro)),
        }
    }

    if let Some((net_name, network)) = named {
        let requests = generate(&network, &workload_config(&net_name, load, seed));
        eprintln!(
            "verifying {net_name}: {} transfers, {slots} slots of {slot_len}s, {iters} anneal iters",
            requests.len()
        );
        let scenario = Scenario {
            seed,
            plant: network.plant,
            requests,
            failures: Vec::new(),
            slot_len_s: slot_len,
            max_slots: slots,
        };
        match replay(&scenario, ReplayKind::Plain, iters, &probes) {
            Ok(stats) => ok(format!(
                "OK: {net_name} replayed clean ({} slots, {} plans, {} transitions checked, \
                 {} exempt, {} transfers completed)",
                stats.slots,
                stats.plans_checked,
                stats.updates_checked,
                stats.updates_exempt,
                stats.completed
            )),
            // Named-network workloads are not seed-regenerable through the
            // fuzz generator, so there is no reproducer — the seed and net
            // name on the command line already pin the case.
            Err(f) => diverged(&format!("{net_name}: {f}"), None),
        }
    }

    // With both flags, --attack wins.
    let (kind, fuzzing, seed_label) = if attack {
        (ReplayKind::Attack, "attack-fuzzing", "attack seed")
    } else if chaos {
        (ReplayKind::CHAOS, "chaos-fuzzing", "chaos seed")
    } else {
        (ReplayKind::Plain, "fuzzing", "seed")
    };
    eprintln!(
        "{fuzzing} seeds {start}..{} with {iters} anneal iters",
        start + count
    );
    match (fuzz(start, count, kind, iters, recorder), kind) {
        (Ok(stats), ReplayKind::Plain) => ok(format!(
            "OK: {} seeds replayed clean ({} slots, {} plans, {} transitions checked, \
             {} exempt)",
            stats.scenarios,
            stats.slots,
            stats.plans_checked,
            stats.updates_checked,
            stats.updates_exempt
        )),
        (Ok(stats), ReplayKind::Chaos { .. }) => ok(format!(
            "OK: {} chaos scenarios replayed clean ({} slots, {} plans, {} update \
             schedules checked, {} exempt, {} crash restarts)",
            stats.scenarios,
            stats.slots,
            stats.plans_checked,
            stats.updates_checked,
            stats.updates_exempt,
            stats.crashes
        )),
        (Ok(stats), ReplayKind::Attack) => ok(format!(
            "OK: {} attack scenarios replayed clean ({} slots, {} plans, {} update \
             schedules checked, {} exempt, {} waves, {} recovered)",
            stats.scenarios,
            stats.slots,
            stats.plans_checked,
            stats.updates_checked,
            stats.updates_exempt,
            stats.waves,
            stats.recovered
        )),
        (Err((seed, _)), ReplayKind::Plain) => {
            let repro = minimize(&Scenario::generate(seed), iters);
            diverged(&format!("seed {seed}: {}", repro.message), Some(&repro))
        }
        // Chaos and attack scenarios regenerate deterministically from
        // the seed, so the seed itself is the reproducer.
        (Err((seed, f)), _) => diverged(&format!("{seed_label} {seed}: {f}"), None),
    }
}

/// `verify --replay` on a flight dump: the embedded metadata reconstructs
/// the chaos scenario, the run re-executes under the full invariant
/// audit, and the regenerated dump must match the input byte for byte.
fn replay_flight_dump(path: &str, text: &str, iters_flag: usize, obs: Option<String>) -> ! {
    let cmd = " verify";
    let dump = FlightDump::from_text(text)
        .unwrap_or_else(|e| fail(cmd, 2, format!("malformed flight dump '{path}': {e}")));
    let (scenario, mut flags) = ChaosScenario::from_meta(&dump, path, iters_flag);
    flags.obs = obs;
    eprintln!(
        "replaying flight dump {path}: {} anomaly at slot {}, {} frames, net {}, seed {}",
        dump.reason,
        dump.anomaly_slot,
        dump.frames.len(),
        scenario.net_name,
        scenario.seed
    );
    let inputs = scenario.inputs();
    let meta: Meta = dump
        .meta
        .iter()
        .map(|(k, v)| (k.as_str(), v.clone()))
        .collect();
    let (probes, _) = flags.probes(&meta);
    let mut audit = InvariantAudit::new(&probes);
    let replayed = scenario.run(&inputs, &probes, Some(&mut |a| audit.check(a)));
    flags.export(&probes, &[]);
    if let Err(e) = replayed {
        fail(
            cmd,
            1,
            format!("FAIL: flight-dump replay violated an invariant: {e}"),
        );
    }
    match probes.scope.dump_text() {
        None => fail(
            cmd,
            1,
            format!(
                "FAIL: replay of '{path}' triggered no anomaly (expected {} at slot {})",
                dump.reason, dump.anomaly_slot
            ),
        ),
        Some(t) if t == text => {
            println!(
                "OK: flight dump {path} replayed exactly ({} anomaly at slot {}, {} frames, \
                 all invariants held)",
                dump.reason,
                dump.anomaly_slot,
                dump.frames.len()
            );
            std::process::exit(0);
        }
        Some(_) => fail(
            cmd,
            1,
            format!(
                "FAIL: replay of '{path}' regenerated a different dump \
                 (non-deterministic run or stale metadata)"
            ),
        ),
    }
}

/// `owan-cli chaos`: seeded fault injection end to end. Builds a named
/// network and workload, derives a chaos timeline from the seed, runs the
/// hardened controller fault-free and faulted (auditing every slot), and
/// reports the delivered-volume loss plus the fault/recovery counters.
fn chaos_main(args: &Args) -> ! {
    let scenario = ChaosScenario::read(args);
    let flags = ProbeFlags::read(args);
    args.reject_unread();
    let inputs = scenario.inputs();
    let (requests, events) = (&inputs.requests, &inputs.events);
    eprintln!(
        "chaos on {}: {} transfers, {} fault events, {} slots of {}s, \
         detect {}s, op faults t={} f={}",
        scenario.net_name,
        requests.len(),
        events.len(),
        scenario.slots,
        scenario.slot,
        scenario.detect,
        scenario.timeout_prob,
        scenario.fail_prob
    );

    // Dumps from both faulted runs must be byte-identical, so both scopes
    // carry the same reconstruction metadata; only the first writes a file.
    let meta = scenario.meta();
    let (probes, _server) = flags.probes(&meta);
    let rerun_probes = flags.rerun_probes(&meta);

    let baseline = run_chaos_probed(
        &scenario.network.plant,
        requests,
        &mut restartable_owan(scenario.iters, scenario.seed),
        &inputs.config,
        &[],
        &OpFaultModel::none(),
        &Probes::default(),
        None,
    )
    .expect("fault-free baseline cannot fail an absent audit");

    let run_with = |probes: &Probes| -> Result<ChaosResult, String> {
        let mut audit = InvariantAudit::new(probes);
        scenario.run(&inputs, probes, Some(&mut |a| audit.check(a)))
    };
    let faulted = run_with(&probes).unwrap_or_else(|e| fail(&args.cmd, 1, format!("FAIL: {e}")));
    // Same seed, same scenario: the rerun must reproduce the run exactly.
    let rerun = run_with(&rerun_probes)
        .unwrap_or_else(|e| fail(&args.cmd, 1, format!("FAIL on rerun: {e}")));
    let deterministic = faulted.delivered_series == rerun.delivered_series
        && faulted.stats == rerun.stats
        && faulted.makespan_s == rerun.makespan_s
        && probes.scope.dump_text() == rerun_probes.scope.dump_text();
    if !deterministic {
        eprintln!(
            "owan-cli chaos: FAIL: rerun with seed {} diverged",
            scenario.seed
        );
    }

    let completed = |r: &ChaosResult| {
        r.completions
            .iter()
            .filter(|c| c.completion_s.is_some())
            .count()
    };
    println!("network,{}", scenario.net_name);
    println!("seed,{}", scenario.seed);
    println!("transfers,{}", requests.len());
    println!("fault_events,{}", events.len());
    println!("baseline_completed,{}", completed(&baseline));
    println!("chaos_completed,{}", completed(&faulted));
    println!("baseline_delivered_gbits,{:.0}", baseline.delivered_gbits);
    println!("chaos_delivered_gbits,{:.0}", faulted.delivered_gbits);
    println!(
        "delivered_loss_gbits,{:.0}",
        (baseline.delivered_gbits - faulted.delivered_gbits).max(0.0)
    );
    println!("baseline_makespan_s,{:.0}", baseline.makespan_s);
    println!("chaos_makespan_s,{:.0}", faulted.makespan_s);
    println!("faults_detected,{}", faulted.stats.faults_detected);
    println!("crashes,{}", faulted.stats.crashes);
    println!("op_retries,{}", faulted.stats.op_retries);
    println!("op_timeouts,{}", faulted.stats.op_timeouts);
    println!("op_failures,{}", faulted.stats.op_failures);
    println!("op_aborts,{}", faulted.stats.op_aborts);
    println!("fallback_slots,{}", faulted.stats.fallback_slots);
    println!("blackhole_paths,{}", faulted.stats.blackhole_paths);
    println!("blackhole_gbits,{:.0}", faulted.stats.blackhole_gbits);
    println!("transition_loss_gbits,{:.0}", faulted.transition_loss_gbits);
    print_slo_tripped(&probes.why);
    println!("deterministic,{}", if deterministic { "yes" } else { "no" });
    print_scope_dumped(&probes.scope);
    flags.export(&probes, &["chaos.", "oracle.", "slo."]);
    std::process::exit(if deterministic { 0 } else { 1 });
}

/// `owan-cli attack`: adversarial traffic end to end. Derives a
/// coremelt / flash-crowd / drift timeline from the seed, composes it
/// (plus, with `--with-faults`, the seeded fault scenario) into a
/// background workload, runs the hardened controller attack-free and
/// attacked with every slot audited, and reports the recovery metrics:
/// time-to-restore against the baseline, residual background loss, and
/// peak victim-link utilization.
fn attack_main(args: &Args) -> ! {
    let cmd = &args.cmd;
    let (net_name, network) = args.network("isp");
    let (engine_name, kind) = args.engine();
    let attack_name = args.get("--attack").unwrap_or("coremelt").to_string();
    let seed = args.parse("--seed", 42u64);
    let load = args.parse("--load", 0.4f64);
    let sigma = args.parse_opt("--sigma");
    let slot = args.parse("--slot", 300.0f64);
    let slots = args.parse("--slots", 40usize);
    let iters = args.parse("--iters", 60usize);
    let horizon = slot * slots as f64;
    let onset = args.parse("--onset", 4.0 * slot);
    let attack_dur = args.parse("--attack-duration", 6.0 * slot);
    let intensity = args.parse("--intensity", 1.5f64);
    let target_fibers = args.parse("--target-fibers", 2usize);
    let pairs_per_fiber = args.parse("--pairs-per-fiber", 3usize);
    let sources = args.parse("--sources", 6usize);
    let peak_gbps = args.parse("--peak-gbps", 0.0f64);
    let hold_s = args.parse("--hold", 1_200.0f64);
    let restore = args.parse("--restore", 0.9f64);
    let max_requests = args.parse("--max-requests", 200usize);
    let with_faults = args.flag("--with-faults");
    let detect = args.parse("--detect", 30.0f64);
    let timeout_prob = args.parse("--timeout-prob", 0.1f64);
    let fail_prob = args.parse("--fail-prob", 0.05f64);
    let timeline_rows = args.flag("--timeline");
    let duration = args.parse("--duration", horizon.min(7_200.0));
    let flags = ProbeFlags::read(args);
    args.reject_unread();
    if !(restore > 0.0 && restore <= 1.0) {
        fail(cmd, 2, "--restore must be in (0, 1]");
    }

    let mut wl = workload_config(&net_name, load, seed);
    wl.duration_s = duration;
    if let Some(s) = sigma {
        wl = wl.with_deadlines(slot, s);
    }
    let mut requests = generate(&network, &wl);
    requests.truncate(max_requests);

    let coremelt_cfg = || {
        let mut cm = CoremeltConfig::new(seed, onset, attack_dur);
        cm.intensity = intensity;
        cm.target_fibers = target_fibers;
        cm.pairs_per_fiber = pairs_per_fiber;
        cm
    };
    let flash_cfg = |seed: u64, onset: f64| {
        let mut fc = FlashCrowdConfig::new(seed, onset);
        fc.sources = sources;
        fc.peak_gbps = peak_gbps;
        fc.hold_s = hold_s;
        fc
    };
    let timeline = match attack_name.as_str() {
        "coremelt" => AttackTimeline::new(vec![coremelt(&network.plant, &coremelt_cfg())]),
        "flashcrowd" => {
            AttackTimeline::new(vec![flash_crowd(&network.plant, &flash_cfg(seed, onset))])
        }
        "drift" => {
            let mut dr = DriftConfig::new(seed, attack_dur, load);
            dr.start_s = onset;
            AttackTimeline::new(vec![drift(&network, &dr)])
        }
        "mix" => AttackTimeline::new(vec![
            coremelt(&network.plant, &coremelt_cfg()),
            flash_crowd(
                &network.plant,
                &flash_cfg(seed.wrapping_add(1), onset + 2.0 * slot),
            ),
        ]),
        other => fail(cmd, 2, format!("unknown attack '{other}' for --attack")),
    };
    let attack_requests: usize = timeline.waves().iter().map(|w| w.requests.len()).sum();

    let events = if with_faults {
        seeded_scenario(&network.plant, seed, horizon)
    } else {
        Vec::new()
    };
    let op_faults = if with_faults {
        OpFaultModel {
            seed,
            timeout_prob,
            fail_prob,
        }
    } else {
        OpFaultModel::none()
    };
    let config = ChaosConfig {
        slot_len_s: slot,
        max_slots: slots,
        detection_delay_s: detect,
        ..Default::default()
    };

    // The annealed engine re-optimizes the topology from the believed
    // plant every restart; every other kind plans on the network's fixed
    // static topology, which is exactly the baseline the recovery
    // comparison is about.
    let runner_cfg = RunnerConfig {
        anneal_iterations: iters,
        seed: seed.wrapping_add(1),
        ..Default::default()
    };
    let owan = restartable_owan(iters, seed);
    let mut engine_factory = |p: &owan::optical::FiberPlant| -> Box<dyn TrafficEngineer> {
        if kind == EngineKind::Owan {
            owan(p)
        } else {
            make_engine(kind, &network, &runner_cfg)
        }
    };

    eprintln!(
        "attack on {net_name} ({engine_name}): {attack_name}, {} background transfers, \
         {attack_requests} attack requests ({:.0} Gb injected), {} fault events, \
         {slots} slots of {slot}s, onset {onset}s",
        requests.len(),
        timeline.injected_gbits(),
        events.len()
    );

    let meta = meta(&[
        ("mode", &"attack"),
        ("net", &net_name),
        ("engine", &engine_name),
        ("attack", &attack_name),
        ("seed", &seed),
        ("load", &load),
        ("slot_len_s", &slot),
        ("slots", &slots),
        ("iters", &iters),
        ("onset_s", &onset),
        ("detect_s", &detect),
    ]);
    let (probes, _server) = flags.probes(&meta);
    let rerun_probes = flags.rerun_probes(&meta);

    let mut run_with = |probes: &Probes| -> Result<AttackOutcome, String> {
        let mut audit = InvariantAudit::new(probes);
        run_attack(
            &network.plant,
            &requests,
            &timeline,
            &mut engine_factory,
            &config,
            restore,
            &events,
            &op_faults,
            probes,
            Some(&mut |a| audit.check(a)),
        )
    };
    let outcome = run_with(&probes).unwrap_or_else(|e| fail(cmd, 1, format!("FAIL: {e}")));
    // Same seed, same timeline: the rerun must reproduce the run exactly.
    let rerun =
        run_with(&rerun_probes).unwrap_or_else(|e| fail(cmd, 1, format!("FAIL on rerun: {e}")));
    let deterministic = outcome.attacked.delivered_series == rerun.attacked.delivered_series
        && outcome.attacked.background_series == rerun.attacked.background_series
        && outcome.attacked.victim_util_series == rerun.attacked.victim_util_series
        && outcome.attacked.stats == rerun.attacked.stats
        && outcome.metrics == rerun.metrics
        && probes.scope.dump_text() == rerun_probes.scope.dump_text();
    if !deterministic {
        eprintln!("owan-cli attack: FAIL: rerun with seed {seed} diverged");
    }

    println!("network,{net_name}");
    println!("engine,{engine_name}");
    println!("attack,{attack_name}");
    println!("seed,{seed}");
    println!("transfers,{}", requests.len());
    println!("attack_waves,{}", timeline.waves().len());
    println!("attack_requests,{attack_requests}");
    println!("injected_gbits,{:.0}", outcome.metrics.injected_gbits);
    println!("fault_events,{}", events.len());
    println!("onset_slot,{}", outcome.metrics.onset_slot);
    println!(
        "baseline_delivered_gbits,{:.0}",
        outcome.baseline.delivered_gbits
    );
    println!(
        "attacked_delivered_gbits,{:.0}",
        outcome.attacked.delivered_gbits
    );
    println!(
        "attacked_background_gbits,{:.0}",
        outcome.attacked.background_gbits
    );
    println!(
        "residual_loss_gbits,{:.0}",
        outcome.metrics.residual_loss_gbits
    );
    println!("restore_fraction,{restore}");
    match outcome.metrics.time_to_restore_slots {
        Some(t) => println!("time_to_restore_slots,{t}"),
        None => println!("time_to_restore_slots,never"),
    }
    println!("restored_slots,{}", outcome.metrics.restored_slots);
    println!("peak_victim_util,{:.3}", outcome.metrics.peak_victim_util);
    println!("victim_links,{}", timeline.victim_links().len());
    println!("faults_detected,{}", outcome.attacked.stats.faults_detected);
    println!("crashes,{}", outcome.attacked.stats.crashes);
    println!("fallback_slots,{}", outcome.attacked.stats.fallback_slots);
    print_slo_tripped(&probes.why);
    println!("deterministic,{}", if deterministic { "yes" } else { "no" });
    if timeline_rows {
        println!("timeline,slot,baseline_gbits,background_gbits,victim_util");
        for i in 0..outcome.attacked.background_series.len() {
            let base = outcome
                .baseline
                .delivered_series
                .get(i)
                .map_or(0.0, |&(_, g)| g);
            let bg = outcome.attacked.background_series[i].1;
            let vu = outcome
                .attacked
                .victim_util_series
                .get(i)
                .map_or(0.0, |&(_, u)| u);
            println!("timeline,{i},{base:.0},{bg:.0},{vu:.3}");
        }
    }
    print_scope_dumped(&probes.scope);
    flags.export(&probes, &["chaos.", "oracle.", "slo."]);
    std::process::exit(if deterministic { 0 } else { 1 });
}

/// `owan-cli transfers`: run the workload with the flight recorder
/// attached, then print the per-transfer lifecycle table (or, with
/// `--trace ID`, one transfer's slot-by-slot history).
fn transfers_main(args: &Args) -> ! {
    let setup = RunSetup::read(args);
    let mut flags = ProbeFlags::read(args);
    flags.scope = true;
    let trace: Option<usize> = args.parse_opt("--trace");
    args.reject_unread();
    let (probes, _server) = flags.probes(&setup.meta());
    eprintln!("tracing {}", setup.describe());
    let result = setup.run(&probes);
    let scope = &probes.scope;

    if let Some(id) = trace {
        match scope.render_transfer_trace(id) {
            Some(trace) => print!("{trace}"),
            None => fail(&args.cmd, 2, format!("no transfer with id {id}")),
        }
    } else {
        print!("{}", scope.render_transfers().unwrap_or_default());
        println!();
        println!(
            "total delivered: {:.1} Gb across {} transfers in {} slots",
            scope.total_delivered_gbits(),
            result.completions.len(),
            result.slots
        );
    }
    flags.export(&probes, &[]);
    std::process::exit(0);
}

/// When `top`'s dashboard frames are due: one every `interval` seconds
/// from the start. A poll that lands late draws one frame and skips the
/// ones it missed.
struct FrameClock {
    interval: f64,
    next: f64,
}

impl FrameClock {
    fn new(interval: f64) -> Self {
        FrameClock {
            interval,
            next: interval,
        }
    }

    /// True when a frame is due `elapsed` seconds in; schedules the next.
    fn due(&mut self, elapsed: f64) -> bool {
        if elapsed < self.next {
            return false;
        }
        while self.next <= elapsed {
            self.next += self.interval;
        }
        true
    }
}

/// `owan-cli top`: run the workload on a background thread and print a
/// refreshing dashboard from the live recorder until it finishes.
fn top_main(args: &Args) -> ! {
    let setup = RunSetup::read(args);
    let mut flags = ProbeFlags::read(args);
    flags.record = true;
    let interval = args.parse("--interval", 2.0f64).max(0.1);
    args.reject_unread();
    let (probes, _server) = flags.probes(&setup.meta());
    eprintln!("running {} (dashboard every {interval}s)", setup.describe());

    let recorder = probes.recorder.clone();
    let start = std::time::Instant::now();
    let handle = std::thread::spawn(move || (setup.run(&probes), probes));
    let mut frames = FrameClock::new(interval);
    while !handle.is_finished() {
        std::thread::sleep(std::time::Duration::from_secs_f64(interval.min(0.25)));
        let elapsed = start.elapsed().as_secs_f64();
        if frames.due(elapsed) {
            print!("{}", render_top(&recorder.snapshot(), elapsed));
            println!();
        }
    }
    let (result, probes) = handle.join().expect("sim thread panicked");
    println!("=== final ===");
    print!(
        "{}",
        render_top(&recorder.snapshot(), start.elapsed().as_secs_f64())
    );
    println!(
        "completed {}/{} transfers in {} slots, makespan {:.0}s",
        result
            .completions
            .iter()
            .filter(|c| c.completion_s.is_some())
            .count(),
        result.completions.len(),
        result.slots,
        result.makespan_s
    );
    flags.export(&probes, &[]);
    std::process::exit(0);
}

fn main() {
    let args = Args::new(std::env::args().collect());
    if args.flag("--help") || args.flag("-h") {
        println!("{USAGE}");
        return;
    }
    match args.cmd.trim_start() {
        "verify" => verify_main(&args),
        "chaos" => chaos_main(&args),
        "attack" => attack_main(&args),
        "explain" => explain_main(&args),
        "slo" => slo_main(&args),
        "transfers" => transfers_main(&args),
        "top" => top_main(&args),
        _ => {}
    }

    let setup = RunSetup::read(&args);
    let flags = ProbeFlags::read(&args);
    args.reject_unread();
    let (probes, _server) = flags.probes(&setup.meta());
    eprintln!("running {}", setup.describe());
    let result = setup.run(&probes);

    println!("engine,{}", result.engine);
    println!("network,{}", setup.net_name);
    println!("transfers,{}", result.completions.len());
    println!(
        "completed,{}",
        result
            .completions
            .iter()
            .filter(|c| c.completion_s.is_some())
            .count()
    );
    println!("slots,{}", result.slots);
    println!("makespan_s,{:.0}", result.makespan_s);
    let (avg, p95) = metrics::summary(&result, SizeBin::All);
    println!("avg_completion_s,{avg:.0}");
    println!("p95_completion_s,{p95:.0}");
    if setup.sigma.is_some() {
        println!(
            "pct_deadlines_met,{:.1}",
            metrics::pct_deadlines_met(&result, SizeBin::All)
        );
        println!(
            "pct_bytes_by_deadline,{:.1}",
            metrics::pct_bytes_by_deadline(&result)
        );
    }
    for bin in [SizeBin::Small, SizeBin::Middle, SizeBin::Large] {
        let (avg, p95) = metrics::summary(&result, bin);
        println!("{}_avg_s,{avg:.0}", bin.label().to_lowercase());
        println!("{}_p95_s,{p95:.0}", bin.label().to_lowercase());
    }
    print_scope_dumped(&probes.scope);
    flags.export(&probes, &[]);
}

#[cfg(test)]
mod tests {
    use super::FrameClock;

    /// Polled every 0.25 s for 5 s at a 1 s interval, the dashboard draws
    /// at 1, 2, 3, 4 and 5 s — not on every poll once the first interval
    /// has passed.
    #[test]
    fn top_draws_one_frame_per_interval() {
        let mut clock = FrameClock::new(1.0);
        let drawn: Vec<f64> = (1..=20)
            .map(|i| f64::from(i) * 0.25)
            .filter(|&t| clock.due(t))
            .collect();
        assert_eq!(drawn, [1.0, 2.0, 3.0, 4.0, 5.0]);
    }

    /// A poll that lands several intervals late draws one frame, and the
    /// next is due at the next interval boundary.
    #[test]
    fn a_late_poll_skips_the_missed_frames() {
        let mut clock = FrameClock::new(2.0);
        assert!(!clock.due(1.9));
        assert!(clock.due(7.5));
        assert!(!clock.due(7.9));
        assert!(clock.due(8.0));
    }
}
