//! Command-line driver: run any engine on any evaluation network and
//! print the §5.1 metrics, verify the control loop against the oracle,
//! or introspect a run with the flight recorder.
//!
//! ```text
//! owan-cli [RUN OPTIONS]
//! owan-cli transfers [RUN OPTIONS] [--trace ID]
//! owan-cli top [RUN OPTIONS] [--interval SECS]
//! owan-cli verify [VERIFY OPTIONS]
//! owan-cli chaos [CHAOS OPTIONS]
//! owan-cli attack [ATTACK OPTIONS]
//! owan-cli explain [RUN OPTIONS] [--chaos] [--id N]
//! owan-cli slo [RUN OPTIONS] [--chaos] [--slo-burn F] [--slo-p99 MS]
//! owan-cli perf diff A.json B.json [--threshold F] [--gate]
//! ```
//!
//! With `--sigma` the workload carries deadlines and the deadline metrics
//! are reported; without it, completion-time metrics. `--obs` exports the
//! run's telemetry as JSON Lines; `--obs-summary` prints a per-stage
//! timing table. `--scope` attaches the flight recorder: per-transfer
//! lifecycle tracking, the causal slot timeline (`--scope-trace` exports
//! Chrome trace-event JSON for Perfetto), and anomaly-triggered flight
//! dumps (`--scope-dump`). `--prof FILE` attaches the tier-3 region
//! profiler and writes folded stacks for flamegraph tooling;
//! `--prof-report` prints the region tree and the cache-miss attribution
//! table instead. `--serve ADDR` exposes live Prometheus text
//! (`/metrics`, `/healthz`) while the run executes. Every flag is off by
//! default and a disabled recorder/scope/profiler changes no engine
//! output. `perf diff` compares two `bench_anneal` JSON reports phase by
//! phase with noise-aware thresholds; `--gate` exits 1 on regression.
//!
//! `attack` composes adversarial traffic (coremelt, flash crowd, drift)
//! with the chaos fault machinery and measures recovery — delivered-volume
//! and victim-utilization timelines, time-to-restore against a fault-free
//! baseline — for the annealed engine or any fixed-topology baseline.
//!
//! `explain` and `slo` attach the tier-4 why recorder: the run's obs,
//! scope, profiler, and fault streams are joined into one per-transfer
//! timeline, completion time decomposes into causal buckets that provably
//! partition in-system wall time, and online SLO monitors (deadline-miss
//! burn rate, p99 slot-planning latency, delivered-Gb deficit) freeze the
//! flight recorder when a `--slo-*` threshold trips.
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
    run_attack_explained, run_chaos, run_chaos_explained, seeded_scenario, AttackOutcome,
    AttackTimeline, ChaosConfig, ChaosResult, OpFaultModel, SlotAudit,
};
use owan::core::{
    default_topology, AnnealConfig, OwanConfig, OwanEngine, Profiler, SchedulingPolicy,
    TrafficEngineer, TransferRequest,
};
use owan::obs::{format_counter_table, format_stage_table, Recorder};
use owan::oracle::{
    check_plan, check_timeline, fuzz_attack_observed, fuzz_chaos_observed, fuzz_seeds_observed,
    replay_scenario_observed, ChaosReplayConfig, ReplayConfig, Reproducer, Scenario,
};
use owan::scope::{render_top, FlightDump, MetricsServer, ScopeConfig, ScopeRecorder};
use owan::sim::metrics::{self, SizeBin};
use owan::sim::runner::{
    run_engine_explained, run_engine_profiled, run_engine_traced, EngineKind, RunnerConfig,
};
use owan::sim::SimConfig;
use owan::topo::{inter_dc, internet2_testbed, isp_backbone, Network};
use owan::why::{render_explain, render_slo, SloConfig, WhyConfig, WhyRecorder, WhyReport};
use owan::workload::attack::{
    coremelt, drift, flash_crowd, CoremeltConfig, DriftConfig, FlashCrowdConfig,
};
use owan::workload::{generate, WorkloadConfig};
use std::path::PathBuf;

const USAGE: &str = "usage: owan-cli [OPTIONS]
       owan-cli transfers [OPTIONS] [--trace ID]
       owan-cli top [OPTIONS] [--interval SECS]
       owan-cli verify [OPTIONS]
       owan-cli chaos [OPTIONS]
       owan-cli attack [OPTIONS]
       owan-cli explain [OPTIONS] [--chaos] [--id N]
       owan-cli slo [OPTIONS] [--chaos]
       owan-cli perf diff A.json B.json [--threshold F] [--gate]

run options:
  --net NAME          evaluation network: internet2 | isp | interdc  [internet2]
  --engine NAME       owan | maxflow | maxmin | swan | tempus | amoeba | greedy  [owan]
  --load L            workload load factor lambda  [1.0]
  --sigma S           deadline tightness; enables deadline workload and metrics
  --slot SECS         slot length, seconds  [300]
  --duration SECS     workload arrival window, seconds  [7200]
  --seed N            workload + annealing seed  [42]
  --iters N           annealing iterations per slot  [150]
  --chains N          parallel annealing chains per slot (owan)  [1]
  --no-fastpath       disable the energy-cache fast path (owan); plans are
                      bit-identical either way, only slower
  --max-requests N    truncate the workload to N transfers
  --obs FILE.jsonl    export run telemetry as JSON Lines to FILE
  --obs-summary       print a per-stage timing table after the metrics
  --scope             attach the flight recorder / timeline collector
  --scope-slots N     flight-recorder ring depth, slots  [16]
  --scope-dump FILE   write the anomaly-triggered flight dump here
  --scope-trace FILE  export the causal slot timeline as Chrome trace JSON
                      (profiler regions merged in when --prof* is also set)
  --prof FILE         attach the region profiler; write folded stacks to
                      FILE for flamegraph tooling
  --prof-report       attach the region profiler; print the region tree
                      and the cache-miss attribution table after the run
  --serve ADDR        serve live /metrics + /healthz on ADDR while running
  -h, --help          show this help

transfers: run the workload with the flight recorder attached and print
the per-transfer lifecycle table (state, slots served, delivered Gb by
path, queue time, preemptions, deadline slack). `--trace ID` prints one
transfer's slot-by-slot history instead. Takes all run options.

top: run the workload and print a live-refreshing dashboard (throughput,
active/queued/at-risk transfers, per-stage timings, chaos and oracle
counters) every `--interval` seconds [2] until the run finishes. Takes
all run options plus `--serve`.

verify options (modes are mutually exclusive; default is --seeds):
  --seeds N           fuzz N consecutive seeds through the oracle  [200]
  --start S           first fuzz seed  [0]
  --replay FILE       re-run a reproducer file written by a failed verify,
                      or a flight dump written by chaos --scope-dump
  --net NAME          replay a generated workload on a named network instead
  --slots N           replay horizon in slots (with --net)  [60]
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
  --obs FILE.jsonl    export telemetry (chaos.* counters included) to FILE
  --scope             attach the flight recorder to the faulted run
  --scope-slots N     flight-recorder ring depth, slots  [16]
  --scope-dump FILE   write the anomaly-triggered flight dump here; the
                      file replays through `verify --replay`
  --scope-trace FILE  export the faulted run's timeline as Chrome trace JSON
  --slo-burn F        attach the why recorder; freeze the flight recorder
                      when the deadline-miss burn rate exceeds F
  --slo-window N      burn-rate sliding window, slots  [8]
  --slo-p99 MS        trip when p99 slot-planning latency exceeds MS
                      (wall-clock: trips may differ between reruns)
  --slo-deficit G     trip when delivered Gb falls G behind the pro-rata
                      deadline promise

chaos runs a seeded scenario (fiber cut + amp degradation + op faults +
controller crash + repairs) through the hardened controller twice — once
fault-free, once with faults — checking every cross-layer invariant each
slot, and reports the delivered-volume loss. Exits 0 when all invariants
hold and the runs are deterministic, 1 otherwise, 2 on bad arguments.

attack options:
  --net NAME          evaluation network: internet2 | isp | interdc  [isp]
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
  --obs FILE.jsonl    export telemetry (chaos.attack.* counters included)
  --scope / --scope-slots / --scope-dump / --scope-trace   as in chaos
  --slo-burn / --slo-window / --slo-p99 / --slo-deficit    as in chaos
                      (monitors attach to the attacked run)

attack derives an adversarial timeline from the seed, composes it (and,
with --with-faults, the seeded fault scenario) into the background
workload, and runs the hardened controller twice — attack-free and
attacked — checking every cross-layer invariant each slot. It reports
time-to-restore (slots until cumulative background delivery is back to
--restore of baseline and stays there), residual loss, and peak victim
utilization. Exits 0 when all invariants hold and the runs are
deterministic, 1 otherwise, 2 on bad arguments.

explain / slo options (take all run options, plus):
  --chaos             run the seeded chaos scenario (chaos options apply)
                      instead of the fault-free workload
  --id N              explain transfer N instead of the worst-slack one
  --slo-burn F        deadline-miss burn-rate threshold (unset: measured,
                      never tripped)
  --slo-window N      burn-rate sliding window, slots  [8]
  --slo-p99 MS        p99 slot-planning latency threshold, milliseconds
  --slo-deficit G     delivered-Gb deficit threshold vs pro-rata promise

explain re-runs the configured scenario with the tier-4 why recorder
joined onto the obs, scope, and profiler streams, then decomposes one
transfer's in-system wall time into causal buckets (serving, queue wait,
attack preemption, reconfiguration downtime, blackholed loss, rate
starvation vs fair share, stalled) that sum exactly to the wall time;
`bucket,*` rows carry seconds and share, `fault,*` rows the overlapping
fault instants, `prof_region,*` rows the controller hot spots. Exits 2
if --id names no transfer, 1 if the partition check fails.

slo runs the same scenario and prints the monitor report: deadline
outcomes and burn rate over the sliding window, p99 slot-planning
latency, delivered-Gb deficit, and which monitor (if any) tripped the
flight-recorder freeze.

perf diff options:
  --threshold F       relative change (fraction) a metric must move in the
                      bad direction to count as a regression  [0.15]
  --gate              exit 1 when any metric regressed past the threshold

perf diff compares two bench_anneal JSON reports phase by phase with
noise-aware thresholds. Reports at different scales are refused; a
core-count mismatch warns and masks the chain-scaling rows. Exits 0 when
comparable (regressions print but only --gate turns them into exit 1),
2 on bad arguments or incomparable reports.";

/// Minimal flag parser: `--key value` pairs plus boolean switches.
struct Args(Vec<String>);

impl Args {
    fn get(&self, key: &str) -> Option<&str> {
        self.0
            .iter()
            .position(|a| a == key)
            .and_then(|i| self.0.get(i + 1))
            .map(String::as_str)
    }

    fn flag(&self, key: &str) -> bool {
        self.0.iter().any(|a| a == key)
    }

    /// Parses `--key value`, returning `default` only when the flag is
    /// absent. A present-but-malformed value is an error (naming the
    /// flag), never a silent fallback to the default.
    fn parse<T: std::str::FromStr>(&self, key: &str, default: T) -> T {
        match self.get(key) {
            None => default,
            Some(raw) => raw.parse().unwrap_or_else(|_| {
                eprintln!("owan-cli: invalid value '{raw}' for {key}");
                std::process::exit(2);
            }),
        }
    }
}

fn build_network(cmd: &str, name: &str) -> Network {
    match name {
        "internet2" => internet2_testbed(),
        "isp" => isp_backbone(7),
        "interdc" => inter_dc(7),
        other => {
            eprintln!("owan-cli{cmd}: unknown network '{other}' for --net");
            std::process::exit(2);
        }
    }
}

/// Writes the recorder snapshot as JSON Lines to `path` (if set).
fn write_obs(cmd: &str, recorder: &Recorder, path: &Option<String>) {
    let Some(path) = path else { return };
    if !recorder.is_enabled() {
        return;
    }
    let mut out: Vec<u8> = Vec::new();
    recorder
        .snapshot()
        .write_jsonl(&mut out)
        .expect("serializing to memory cannot fail");
    if let Err(e) = std::fs::write(path, &out) {
        eprintln!("owan-cli{cmd}: cannot write --obs file '{path}': {e}");
        std::process::exit(1);
    }
    eprintln!(
        "wrote {} telemetry lines to {path}",
        out.iter().filter(|&&b| b == b'\n').count()
    );
}

/// Writes the scope's Chrome trace to `path` (if set). An enabled
/// profiler's retained spans are merged into the same trace (category
/// `prof`).
fn write_trace(
    cmd: &str,
    scope: &ScopeRecorder,
    recorder: &Recorder,
    prof: &Profiler,
    path: &Option<String>,
) {
    let Some(path) = path else { return };
    let snapshot = recorder.is_enabled().then(|| recorder.snapshot());
    let mut out: Vec<u8> = Vec::new();
    let prof_spans = if prof.is_enabled() {
        let snap = prof.snapshot();
        let n = snap.spans.len();
        scope
            .export_chrome_trace_with_prof(snapshot.as_ref(), &snap, &mut out)
            .expect("serializing to memory cannot fail");
        n
    } else {
        scope
            .export_chrome_trace(snapshot.as_ref(), &mut out)
            .expect("serializing to memory cannot fail");
        0
    };
    if let Err(e) = std::fs::write(path, &out) {
        eprintln!("owan-cli{cmd}: cannot write --scope-trace file '{path}': {e}");
        std::process::exit(1);
    }
    eprintln!("wrote {} spans to {path}", scope.span_count() + prof_spans);
}

/// Everything the run-shaped commands (default run, `transfers`, `top`)
/// share: network, engine kind, generated workload, runner config, and
/// the workload knobs echoed into scope metadata.
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

fn run_setup(args: &Args) -> RunSetup {
    let net_name = args.get("--net").unwrap_or("internet2").to_string();
    let network = build_network("", &net_name);

    let engine_name = args.get("--engine").unwrap_or("owan").to_string();
    let kind = match engine_name.as_str() {
        "owan" => EngineKind::Owan,
        "maxflow" => EngineKind::MaxFlow,
        "maxmin" => EngineKind::MaxMinFract,
        "swan" => EngineKind::Swan,
        "tempus" => EngineKind::Tempus,
        "amoeba" => EngineKind::Amoeba,
        "greedy" => EngineKind::Greedy,
        other => {
            eprintln!("owan-cli: unknown engine '{other}' for --engine");
            std::process::exit(2);
        }
    };

    let load = args.parse("--load", 1.0f64);
    let sigma: Option<f64> = args.get("--sigma").map(|raw| {
        raw.parse().unwrap_or_else(|_| {
            eprintln!("owan-cli: invalid value '{raw}' for --sigma");
            std::process::exit(2);
        })
    });
    let slot = args.parse("--slot", 300.0f64);
    let duration = args.parse("--duration", 7_200.0f64);
    let seed = args.parse("--seed", 42u64);
    let iters = args.parse("--iters", 150usize);
    let chains = args.parse("--chains", 1usize);
    let use_fastpath = !args.flag("--no-fastpath");
    let max_requests = args.parse("--max-requests", usize::MAX);

    let mut wl = if net_name == "internet2" {
        WorkloadConfig::testbed(load, seed)
    } else {
        WorkloadConfig::simulation(load, seed)
    };
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
        anneal_use_cache: use_fastpath,
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

/// Builds the scope from `--scope*` flags and stamps run-reconstruction
/// metadata. `force` enables the scope even without `--scope` (the
/// `transfers` command needs it unconditionally).
fn scope_from_args(args: &Args, setup: &RunSetup, mode: &str, force: bool) -> ScopeRecorder {
    let dump_path = args.get("--scope-dump").map(str::to_string);
    let enabled =
        force || args.flag("--scope") || dump_path.is_some() || args.get("--scope-trace").is_some();
    if !enabled {
        return ScopeRecorder::disabled();
    }
    let flight_slots = args.parse("--scope-slots", 16usize);
    let scope = ScopeRecorder::enabled(ScopeConfig {
        flight_slots,
        dump_path: dump_path.map(PathBuf::from),
    });
    scope.set_meta("mode", mode);
    scope.set_meta("net", &setup.net_name);
    scope.set_meta("engine", &setup.engine_name);
    scope.set_meta("seed", setup.seed);
    scope.set_meta("load", setup.load);
    scope.set_meta("slot_len_s", setup.slot);
    scope.set_meta("iters", setup.iters);
    scope.set_meta("scope_slots", flight_slots);
    scope
}

/// Builds the SLO monitor config from the `--slo-*` flags. Absent
/// thresholds stay `None`: the monitor measures but never trips.
fn slo_from_args(args: &Args) -> SloConfig {
    let mut slo = SloConfig::default();
    slo.burn_window_slots = args.parse("--slo-window", slo.burn_window_slots);
    if args.get("--slo-burn").is_some() {
        slo.burn_threshold = Some(args.parse("--slo-burn", 0.0f64));
    }
    if args.get("--slo-p99").is_some() {
        slo.plan_p99_ms = Some(args.parse("--slo-p99", 0.0f64));
    }
    if args.get("--slo-deficit").is_some() {
        slo.deficit_gbits = Some(args.parse("--slo-deficit", 0.0f64));
    }
    slo
}

/// True when any `--slo-*` threshold flag asks for the why recorder.
fn slo_flags_on(args: &Args) -> bool {
    args.get("--slo-burn").is_some()
        || args.get("--slo-p99").is_some()
        || args.get("--slo-deficit").is_some()
}

/// Stamps the SLO thresholds into scope metadata so a flight dump frozen
/// by a tripped monitor carries everything `verify --replay` needs to
/// rebuild the same why recorder. `slo_window` doubles as the marker
/// that the why recorder was attached at all.
fn stamp_slo_meta(scope: &ScopeRecorder, slo: &SloConfig) {
    scope.set_meta("slo_window", slo.burn_window_slots);
    if let Some(f) = slo.burn_threshold {
        scope.set_meta("slo_burn", f);
    }
    if let Some(ms) = slo.plan_p99_ms {
        scope.set_meta("slo_p99_ms", ms);
    }
    if let Some(g) = slo.deficit_gbits {
        scope.set_meta("slo_deficit", g);
    }
}

/// Everything `explain` and `slo` need back from a why-recorded run.
struct WhyRun {
    report: WhyReport,
    recorder: Recorder,
    scope: ScopeRecorder,
    prof: Profiler,
}

/// Runs the configured scenario for `explain` / `slo` with the tier-4
/// why recorder attached, joins the obs (and, on the sim path, profiler)
/// snapshots in, and distills the report. `--chaos` swaps the fault-free
/// workload for the seeded chaos scenario of `owan-cli chaos`.
fn why_run(args: &Args, cmd: &str) -> WhyRun {
    let recorder = Recorder::enabled();
    let slo = slo_from_args(args);
    let why = WhyRecorder::enabled(WhyConfig { slo: slo.clone() }, &recorder);

    let (scope, prof);
    if args.flag("--chaos") {
        let net_name = args.get("--net").unwrap_or("internet2").to_string();
        let network = build_network(cmd, &net_name);
        let seed = args.parse("--seed", 42u64);
        let load = args.parse("--load", 1.0f64);
        let sigma: Option<f64> = args.get("--sigma").map(|raw| {
            raw.parse().unwrap_or_else(|_| {
                eprintln!("owan-cli{cmd}: invalid value '{raw}' for --sigma");
                std::process::exit(2);
            })
        });
        let slot = args.parse("--slot", 300.0f64);
        let slots = args.parse("--slots", 60usize);
        let iters = args.parse("--iters", 60usize);
        let detect = args.parse("--detect", 30.0f64);
        let timeout_prob = args.parse("--timeout-prob", 0.1f64);
        let fail_prob = args.parse("--fail-prob", 0.05f64);

        let mut wl = if net_name == "internet2" {
            WorkloadConfig::testbed(load, seed)
        } else {
            WorkloadConfig::simulation(load, seed)
        };
        if let Some(s) = sigma {
            wl = wl.with_deadlines(slot, s);
        }
        let requests = generate(&network, &wl);
        let plant = network.plant;
        let events = seeded_scenario(&plant, seed, slot * slots as f64);
        let op_faults = OpFaultModel {
            seed,
            timeout_prob,
            fail_prob,
        };
        let config = ChaosConfig {
            slot_len_s: slot,
            max_slots: slots,
            detection_delay_s: detect,
            ..Default::default()
        };
        let mut make_engine = |p: &owan::optical::FiberPlant| {
            let owan_config = OwanConfig {
                anneal: AnnealConfig {
                    max_iterations: iters,
                    seed: seed.wrapping_add(1),
                    ..Default::default()
                },
                ..Default::default()
            };
            Box::new(OwanEngine::new(default_topology(p), owan_config)) as Box<dyn TrafficEngineer>
        };

        prof = Profiler::disabled();
        let dump_path = args.get("--scope-dump").map(str::to_string);
        let scope_on =
            args.flag("--scope") || dump_path.is_some() || args.get("--scope-trace").is_some();
        scope = if scope_on {
            let flight_slots = args.parse("--scope-slots", 16usize);
            let scope = ScopeRecorder::enabled(ScopeConfig {
                flight_slots,
                dump_path: dump_path.map(PathBuf::from),
            });
            scope.set_meta("mode", "chaos");
            scope.set_meta("net", &net_name);
            scope.set_meta("seed", seed);
            scope.set_meta("load", load);
            if let Some(s) = sigma {
                scope.set_meta("sigma", s);
            }
            scope.set_meta("slot_len_s", slot);
            scope.set_meta("slots", slots);
            scope.set_meta("iters", iters);
            scope.set_meta("detect_s", detect);
            scope.set_meta("timeout_prob", timeout_prob);
            scope.set_meta("fail_prob", fail_prob);
            scope.set_meta("scope_slots", flight_slots);
            stamp_slo_meta(&scope, &slo);
            scope
        } else {
            ScopeRecorder::disabled()
        };

        eprintln!(
            "owan-cli{cmd}: chaos {net_name}, {} transfers, {} fault events, \
             {slots} slots of {slot}s",
            requests.len(),
            events.len()
        );
        if let Err(e) = run_chaos_explained(
            &plant,
            &requests,
            &mut make_engine,
            &config,
            &events,
            &op_faults,
            &recorder,
            &scope,
            &why,
            None,
        ) {
            eprintln!("owan-cli{cmd}: FAIL: {e}");
            std::process::exit(1);
        }
    } else {
        let setup = run_setup(args);
        scope = scope_from_args(args, &setup, "sim", false);
        prof = Profiler::enabled();
        eprintln!(
            "owan-cli{cmd}: {} on {}, {} transfers, load {}, slot {}s",
            setup.engine_name,
            setup.net_name,
            setup.requests.len(),
            setup.load,
            setup.slot
        );
        run_engine_explained(
            setup.kind,
            &setup.network,
            &setup.requests,
            &setup.cfg,
            &recorder,
            &scope,
            &prof,
            &why,
        );
    }

    if prof.is_enabled() {
        why.attach_prof(&prof.snapshot());
    }
    why.attach_obs(&recorder.snapshot());
    let report = why.report().unwrap_or_else(|| {
        eprintln!("owan-cli{cmd}: the run recorded no slots");
        std::process::exit(1);
    });
    WhyRun {
        report,
        recorder,
        scope,
        prof,
    }
}

/// Shared tail of `explain` / `slo`: honor the export flags the run
/// options advertise (`--scope-trace`, `--prof`, `--obs`).
fn why_run_exports(args: &Args, cmd: &str, run: &WhyRun) {
    if run.scope.is_enabled() {
        write_trace(
            cmd,
            &run.scope,
            &run.recorder,
            &run.prof,
            &args.get("--scope-trace").map(str::to_string),
        );
    }
    if let Some(path) = args.get("--prof") {
        if run.prof.is_enabled() {
            let mut out: Vec<u8> = Vec::new();
            run.prof
                .write_folded(&mut out)
                .expect("serializing to memory cannot fail");
            if let Err(e) = std::fs::write(path, &out) {
                eprintln!("owan-cli{cmd}: cannot write --prof file '{path}': {e}");
                std::process::exit(1);
            }
            eprintln!(
                "wrote folded stacks to {path} ({} lines)",
                out.iter().filter(|&&b| b == b'\n').count()
            );
        }
    }
    write_obs(cmd, &run.recorder, &args.get("--obs").map(str::to_string));
}

/// `owan-cli explain`: re-run the scenario with the why recorder joined
/// onto every stream and print one transfer's causal decomposition —
/// the worst-slack transfer by default, `--id N` to pick. Exits 1 when
/// the bucket partition check fails, 2 when `--id` names no transfer.
fn explain_main(args: &Args) -> ! {
    let run = why_run(args, " explain");
    let text = match args.get("--id") {
        Some(raw) => {
            let id: usize = raw.parse().unwrap_or_else(|_| {
                eprintln!("owan-cli explain: invalid value '{raw}' for --id");
                std::process::exit(2);
            });
            render_explain(&run.report, id).unwrap_or_else(|| {
                eprintln!("owan-cli explain: no transfer with id {id}");
                std::process::exit(2);
            })
        }
        None => {
            let worst = run.report.worst_slack().unwrap_or_else(|| {
                eprintln!("owan-cli explain: the run held no transfers");
                std::process::exit(1);
            });
            render_explain(&run.report, worst.id).expect("worst-slack transfer renders")
        }
    };
    print!("{text}");
    why_run_exports(args, " explain", &run);
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
    let run = why_run(args, " slo");
    print!("{}", render_slo(&run.report));
    why_run_exports(args, " slo", &run);
    std::process::exit(0);
}

/// `owan-cli verify`: the oracle as a command. Three modes — seed fuzzing
/// (default), reproducer/flight-dump replay (`--replay`), and
/// named-network replay (`--net`) — all funnel through the same invariant
/// checkers the test suite uses.
fn verify_main(args: &Args) -> ! {
    let iters = args.parse("--iters", 40usize);
    let config = ReplayConfig {
        anneal_iterations: iters,
        check_updates: true,
    };
    let out_path = args.get("--out").map(str::to_string);
    let obs_path = args.get("--obs").map(str::to_string);
    let recorder = if obs_path.is_some() {
        Recorder::enabled()
    } else {
        Recorder::disabled()
    };

    let fail = |message: &str, repro: Option<&Reproducer>| -> ! {
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
        write_obs(" verify", &recorder, &obs_path);
        std::process::exit(1);
    };

    if let Some(path) = args.get("--replay") {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("owan-cli verify: cannot read --replay file '{path}': {e}");
            std::process::exit(2);
        });
        if FlightDump::is_dump(&text) {
            replay_flight_dump(path, &text, iters, &recorder, &obs_path);
        }
        let repro = Reproducer::from_text(&text).unwrap_or_else(|e| {
            eprintln!("owan-cli verify: malformed reproducer '{path}': {e}");
            std::process::exit(2);
        });
        let scenario = repro.scenario();
        eprintln!(
            "replaying reproducer {path}: seed {}, {} requests, {} failures",
            scenario.seed,
            scenario.requests.len(),
            scenario.failures.len()
        );
        match replay_scenario_observed(&scenario, &config, &recorder) {
            Ok(stats) => {
                println!(
                    "OK: seed {} replayed clean ({} slots, {} plans, {} transitions checked)",
                    scenario.seed, stats.slots, stats.plans_checked, stats.updates_checked
                );
                write_obs(" verify", &recorder, &obs_path);
                std::process::exit(0);
            }
            Err(f) => fail(&f.to_string(), Some(&repro)),
        }
    }

    if let Some(net_name) = args.get("--net") {
        let network = build_network(" verify", net_name);
        let load = args.parse("--load", 1.0f64);
        let seed = args.parse("--seed", 42u64);
        let slots = args.parse("--slots", 60usize);
        let slot_len = args.parse("--slot", 300.0f64);
        let wl = if net_name == "internet2" {
            WorkloadConfig::testbed(load, seed)
        } else {
            WorkloadConfig::simulation(load, seed)
        };
        let requests = generate(&network, &wl);
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
        match replay_scenario_observed(&scenario, &config, &recorder) {
            Ok(stats) => {
                println!(
                    "OK: {net_name} replayed clean ({} slots, {} plans, {} transitions checked, \
                     {} transfers completed)",
                    stats.slots, stats.plans_checked, stats.updates_checked, stats.completed
                );
                write_obs(" verify", &recorder, &obs_path);
                std::process::exit(0);
            }
            // Named-network workloads are not seed-regenerable through the
            // fuzz generator, so there is no reproducer — the seed and net
            // name on the command line already pin the case.
            Err(f) => fail(&format!("{net_name}: {f}"), None),
        }
    }

    let count = args.parse("--seeds", 200u64);
    let start = args.parse("--start", 0u64);
    if args.flag("--attack") {
        eprintln!(
            "attack-fuzzing seeds {start}..{} with {iters} anneal iters",
            start + count
        );
        let chaos_config = ChaosReplayConfig {
            anneal_iterations: iters,
            ..Default::default()
        };
        match fuzz_attack_observed(start, count, &chaos_config, &recorder) {
            Ok(stats) => {
                println!(
                    "OK: {} attack scenarios replayed clean ({} slots, {} plans, {} update \
                     schedules checked, {} waves, {} recovered)",
                    stats.scenarios,
                    stats.slots,
                    stats.plans_checked,
                    stats.updates_checked,
                    stats.waves,
                    stats.recovered
                );
                write_obs(" verify", &recorder, &obs_path);
                std::process::exit(0);
            }
            // Attack scenarios regenerate deterministically from the
            // seed, so the seed itself is the reproducer.
            Err((seed, f)) => fail(&format!("attack seed {seed}: {f}"), None),
        }
    }
    if args.flag("--chaos") {
        eprintln!(
            "chaos-fuzzing seeds {start}..{} with {iters} anneal iters",
            start + count
        );
        let chaos_config = ChaosReplayConfig {
            anneal_iterations: iters,
            ..Default::default()
        };
        match fuzz_chaos_observed(start, count, &chaos_config, &recorder) {
            Ok(stats) => {
                println!(
                    "OK: {} chaos scenarios replayed clean ({} slots, {} plans, {} update \
                     schedules checked, {} crash restarts)",
                    stats.scenarios,
                    stats.slots,
                    stats.plans_checked,
                    stats.updates_checked,
                    stats.crashes
                );
                write_obs(" verify", &recorder, &obs_path);
                std::process::exit(0);
            }
            // Chaos scenarios regenerate deterministically from the seed,
            // so the seed itself is the reproducer.
            Err((seed, f)) => fail(&format!("chaos seed {seed}: {f}"), None),
        }
    }
    eprintln!(
        "fuzzing seeds {start}..{} with {iters} anneal iters",
        start + count
    );
    match fuzz_seeds_observed(start, count, &config, &recorder) {
        Ok(stats) => {
            println!(
                "OK: {} seeds replayed clean ({} slots, {} plans, {} transitions checked)",
                stats.seeds, stats.slots, stats.plans_checked, stats.updates_checked
            );
            write_obs(" verify", &recorder, &obs_path);
            std::process::exit(0);
        }
        Err(repro) => {
            let msg = repro.message.clone();
            fail(&format!("seed {}: {}", repro.seed, msg), Some(&repro))
        }
    }
}

/// `verify --replay` on a flight dump: the embedded metadata reconstructs
/// the chaos scenario, the run re-executes under the full invariant
/// audit, and the regenerated dump must match the input byte for byte.
fn replay_flight_dump(
    path: &str,
    text: &str,
    iters_flag: usize,
    recorder: &Recorder,
    obs_path: &Option<String>,
) -> ! {
    let dump = FlightDump::from_text(text).unwrap_or_else(|e| {
        eprintln!("owan-cli verify: malformed flight dump '{path}': {e}");
        std::process::exit(2);
    });
    let meta = |key: &str| -> String {
        dump.meta.get(key).cloned().unwrap_or_else(|| {
            eprintln!("owan-cli verify: flight dump '{path}' missing `{key}:` metadata");
            std::process::exit(2);
        })
    };
    let parse = |key: &str, raw: &str| -> f64 {
        raw.parse().unwrap_or_else(|_| {
            eprintln!("owan-cli verify: flight dump '{path}': bad `{key}: {raw}`");
            std::process::exit(2);
        })
    };
    let mode = meta("mode");
    if mode != "chaos" {
        eprintln!(
            "owan-cli verify: flight dump '{path}' has mode '{mode}'; only chaos dumps replay"
        );
        std::process::exit(2);
    }
    let net_name = meta("net");
    let seed = parse("seed", &meta("seed")) as u64;
    let load = parse("load", &meta("load"));
    let slot = parse("slot_len_s", &meta("slot_len_s"));
    let slots = parse("slots", &meta("slots")) as usize;
    let iters = dump
        .meta
        .get("iters")
        .map_or(iters_flag, |raw| parse("iters", raw) as usize);
    let detect = parse("detect_s", &meta("detect_s"));
    let timeout_prob = parse("timeout_prob", &meta("timeout_prob"));
    let fail_prob = parse("fail_prob", &meta("fail_prob"));
    let flight_slots = parse("scope_slots", &meta("scope_slots")) as usize;

    eprintln!(
        "replaying flight dump {path}: {} anomaly at slot {}, {} frames, net {net_name}, seed {seed}",
        dump.reason,
        dump.anomaly_slot,
        dump.frames.len()
    );

    let network = build_network(" verify", &net_name);
    let mut wl = if net_name == "internet2" {
        WorkloadConfig::testbed(load, seed)
    } else {
        WorkloadConfig::simulation(load, seed)
    };
    if let Some(raw) = dump.meta.get("sigma") {
        wl = wl.with_deadlines(slot, parse("sigma", raw));
    }
    let requests = generate(&network, &wl);
    let plant = network.plant;
    let horizon = slot * slots as f64;
    let events = seeded_scenario(&plant, seed, horizon);
    let op_faults = OpFaultModel {
        seed,
        timeout_prob,
        fail_prob,
    };
    let config = ChaosConfig {
        slot_len_s: slot,
        max_slots: slots,
        detection_delay_s: detect,
        ..Default::default()
    };
    let mut make_engine = |p: &owan::optical::FiberPlant| {
        let owan_config = OwanConfig {
            anneal: AnnealConfig {
                max_iterations: iters,
                seed: seed.wrapping_add(1),
                ..Default::default()
            },
            ..Default::default()
        };
        Box::new(OwanEngine::new(default_topology(p), owan_config)) as Box<dyn TrafficEngineer>
    };

    let scope = ScopeRecorder::enabled(ScopeConfig {
        flight_slots,
        dump_path: None,
    });
    for (key, value) in &dump.meta {
        scope.set_meta(key, value);
    }

    // `slo_window` marks a dump whose run had the why recorder attached;
    // rebuilding the same monitors lets an SLO-tripped freeze reproduce
    // its anomaly (and so the dump) exactly.
    let why = match dump.meta.get("slo_window") {
        Some(raw) => {
            let mut slo = SloConfig {
                burn_window_slots: parse("slo_window", raw) as usize,
                ..Default::default()
            };
            if let Some(v) = dump.meta.get("slo_burn") {
                slo.burn_threshold = Some(parse("slo_burn", v));
            }
            if let Some(v) = dump.meta.get("slo_p99_ms") {
                slo.plan_p99_ms = Some(parse("slo_p99_ms", v));
            }
            if let Some(v) = dump.meta.get("slo_deficit") {
                slo.deficit_gbits = Some(parse("slo_deficit", v));
            }
            WhyRecorder::enabled(WhyConfig { slo }, recorder)
        }
        None => WhyRecorder::disabled(),
    };

    let checked = recorder.counter("oracle.invariant_checked");
    let violated = recorder.counter("oracle.invariant_violated");
    let mut audit = |a: &SlotAudit| -> Result<(), String> {
        checked.add(1);
        if let Err(v) = check_plan(a.believed_plant, a.transfers, a.slot_len_s, a.plan) {
            violated.add(1);
            scope.anomaly("oracle.invariant_violated", a.slot);
            return Err(format!("slot plan: {v}"));
        }
        if let (Some(delta), Some(update)) = (a.delta, a.update) {
            checked.add(1);
            if let Err(v) = check_timeline(delta, update, &a.params) {
                violated.add(1);
                scope.anomaly("oracle.invariant_violated", a.slot);
                return Err(format!("update: {v}"));
            }
        }
        Ok(())
    };

    if let Err(e) = run_chaos_explained(
        &plant,
        &requests,
        &mut make_engine,
        &config,
        &events,
        &op_faults,
        recorder,
        &scope,
        &why,
        Some(&mut audit),
    ) {
        eprintln!("owan-cli verify: FAIL: flight-dump replay violated an invariant: {e}");
        write_obs(" verify", recorder, obs_path);
        std::process::exit(1);
    }

    let regenerated = scope.dump_text();
    write_obs(" verify", recorder, obs_path);
    match regenerated {
        None => {
            eprintln!(
                "owan-cli verify: FAIL: replay of '{path}' triggered no anomaly \
                 (expected {} at slot {})",
                dump.reason, dump.anomaly_slot
            );
            std::process::exit(1);
        }
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
        Some(_) => {
            eprintln!(
                "owan-cli verify: FAIL: replay of '{path}' regenerated a different dump \
                 (non-deterministic run or stale metadata)"
            );
            std::process::exit(1);
        }
    }
}

/// `owan-cli chaos`: seeded fault injection end to end. Builds a named
/// network and workload, derives a chaos timeline from the seed, runs the
/// hardened controller fault-free and faulted (auditing every slot), and
/// reports the delivered-volume loss plus the fault/recovery counters.
fn chaos_main(args: &Args) -> ! {
    let net_name = args.get("--net").unwrap_or("internet2").to_string();
    let network = build_network(" chaos", &net_name);
    let seed = args.parse("--seed", 42u64);
    let load = args.parse("--load", 1.0f64);
    let sigma: Option<f64> = args.get("--sigma").map(|raw| {
        raw.parse().unwrap_or_else(|_| {
            eprintln!("owan-cli chaos: invalid value '{raw}' for --sigma");
            std::process::exit(2);
        })
    });
    let slot = args.parse("--slot", 300.0f64);
    let slots = args.parse("--slots", 60usize);
    let iters = args.parse("--iters", 60usize);
    let detect = args.parse("--detect", 30.0f64);
    let timeout_prob = args.parse("--timeout-prob", 0.1f64);
    let fail_prob = args.parse("--fail-prob", 0.05f64);
    let obs_path = args.get("--obs").map(str::to_string);
    let scope_dump = args.get("--scope-dump").map(str::to_string);
    let scope_trace = args.get("--scope-trace").map(str::to_string);
    let scope_on = args.flag("--scope") || scope_dump.is_some() || scope_trace.is_some();
    let flight_slots = args.parse("--scope-slots", 16usize);
    let slo = slo_from_args(args);
    let why_enabled = slo_flags_on(args);

    let mut wl = if net_name == "internet2" {
        WorkloadConfig::testbed(load, seed)
    } else {
        WorkloadConfig::simulation(load, seed)
    };
    if let Some(s) = sigma {
        wl = wl.with_deadlines(slot, s);
    }
    let requests = generate(&network, &wl);
    let plant = network.plant;

    let horizon = slot * slots as f64;
    let events = seeded_scenario(&plant, seed, horizon);
    let op_faults = OpFaultModel {
        seed,
        timeout_prob,
        fail_prob,
    };
    let config = ChaosConfig {
        slot_len_s: slot,
        max_slots: slots,
        detection_delay_s: detect,
        ..Default::default()
    };
    let mut make_engine = |p: &owan::optical::FiberPlant| {
        let owan_config = OwanConfig {
            anneal: AnnealConfig {
                max_iterations: iters,
                seed: seed.wrapping_add(1),
                ..Default::default()
            },
            ..Default::default()
        };
        Box::new(OwanEngine::new(default_topology(p), owan_config)) as Box<dyn TrafficEngineer>
    };

    eprintln!(
        "chaos on {net_name}: {} transfers, {} fault events, {slots} slots of {slot}s, \
         detect {detect}s, op faults t={timeout_prob} f={fail_prob}",
        requests.len(),
        events.len()
    );

    let recorder = if obs_path.is_some() || scope_on || why_enabled {
        Recorder::enabled()
    } else {
        Recorder::disabled()
    };
    // Dumps from both faulted runs must be byte-identical, so both scopes
    // carry the same reconstruction metadata; only the first writes a file.
    let make_scope = |dump_path: Option<&String>| -> ScopeRecorder {
        if !scope_on {
            return ScopeRecorder::disabled();
        }
        let scope = ScopeRecorder::enabled(ScopeConfig {
            flight_slots,
            dump_path: dump_path.map(PathBuf::from),
        });
        scope.set_meta("mode", "chaos");
        scope.set_meta("net", &net_name);
        scope.set_meta("seed", seed);
        scope.set_meta("load", load);
        if let Some(s) = sigma {
            scope.set_meta("sigma", s);
        }
        scope.set_meta("slot_len_s", slot);
        scope.set_meta("slots", slots);
        scope.set_meta("iters", iters);
        scope.set_meta("detect_s", detect);
        scope.set_meta("timeout_prob", timeout_prob);
        scope.set_meta("fail_prob", fail_prob);
        scope.set_meta("scope_slots", flight_slots);
        if why_enabled {
            stamp_slo_meta(&scope, &slo);
        }
        scope
    };
    let scope = make_scope(scope_dump.as_ref());
    let rerun_scope = make_scope(None);
    let make_why = |rec: &Recorder| -> WhyRecorder {
        if why_enabled {
            WhyRecorder::enabled(WhyConfig { slo: slo.clone() }, rec)
        } else {
            WhyRecorder::disabled()
        }
    };
    let why = make_why(&recorder);
    let rerun_why = make_why(&Recorder::disabled());

    let mut violations = 0usize;
    let baseline = run_chaos(
        &plant,
        &requests,
        &mut make_engine,
        &config,
        &[],
        &OpFaultModel::none(),
        &Recorder::disabled(),
        None,
    )
    .expect("fault-free baseline cannot fail an absent audit");

    let mut run_with =
        |rec: &Recorder, scp: &ScopeRecorder, why: &WhyRecorder| -> Result<ChaosResult, String> {
            let checked = rec.counter("oracle.invariant_checked");
            let violated = rec.counter("oracle.invariant_violated");
            let mut audit = |a: &SlotAudit| -> Result<(), String> {
                checked.add(1);
                if let Err(v) = check_plan(a.believed_plant, a.transfers, a.slot_len_s, a.plan) {
                    violated.add(1);
                    scp.anomaly("oracle.invariant_violated", a.slot);
                    return Err(format!("slot plan: {v}"));
                }
                if let (Some(delta), Some(update)) = (a.delta, a.update) {
                    checked.add(1);
                    if let Err(v) = check_timeline(delta, update, &a.params) {
                        violated.add(1);
                        scp.anomaly("oracle.invariant_violated", a.slot);
                        return Err(format!("update: {v}"));
                    }
                }
                Ok(())
            };
            run_chaos_explained(
                &plant,
                &requests,
                &mut make_engine,
                &config,
                &events,
                &op_faults,
                rec,
                scp,
                why,
                Some(&mut audit),
            )
        };

    let faulted = match run_with(&recorder, &scope, &why) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("owan-cli chaos: FAIL: {e}");
            std::process::exit(1);
        }
    };
    // Same seed, same scenario: the rerun must reproduce the run exactly.
    let rerun = match run_with(&Recorder::disabled(), &rerun_scope, &rerun_why) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("owan-cli chaos: FAIL on rerun: {e}");
            std::process::exit(1);
        }
    };
    let mut deterministic = faulted.delivered_series == rerun.delivered_series
        && faulted.stats == rerun.stats
        && faulted.makespan_s == rerun.makespan_s;
    if scope_on && scope.dump_text() != rerun_scope.dump_text() {
        deterministic = false;
    }
    if !deterministic {
        eprintln!("owan-cli chaos: FAIL: rerun with seed {seed} diverged");
        violations += 1;
    }

    let completed = |r: &ChaosResult| {
        r.completions
            .iter()
            .filter(|c| c.completion_s.is_some())
            .count()
    };
    println!("network,{net_name}");
    println!("seed,{seed}");
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
    if why_enabled {
        match why.tripped() {
            Some((reason, slot)) => println!("slo_tripped,{reason},{slot}"),
            None => println!("slo_tripped,none"),
        }
    }
    println!("deterministic,{}", if deterministic { "yes" } else { "no" });
    if scope_on {
        println!(
            "scope_dumped,{}",
            if scope.has_dumped() { "yes" } else { "no" }
        );
        if scope.has_dumped() {
            if let Some(path) = &scope_dump {
                eprintln!("flight dump written to {path}");
            }
        }
        write_trace(
            " chaos",
            &scope,
            &recorder,
            &Profiler::disabled(),
            &scope_trace,
        );
    }

    write_obs(" chaos", &recorder, &obs_path);
    if recorder.is_enabled() {
        let snapshot = recorder.snapshot();
        print!("{}", format_counter_table(&snapshot, "chaos."));
        print!("{}", format_counter_table(&snapshot, "oracle."));
        if why_enabled {
            print!("{}", format_counter_table(&snapshot, "slo."));
        }
    }

    std::process::exit(if violations == 0 { 0 } else { 1 });
}

/// `owan-cli attack`: adversarial traffic end to end. Derives a
/// coremelt / flash-crowd / drift timeline from the seed, composes it
/// (plus, with `--with-faults`, the seeded fault scenario) into a
/// background workload, runs the hardened controller attack-free and
/// attacked with every slot audited, and reports the recovery metrics:
/// time-to-restore against the baseline, residual background loss, and
/// peak victim-link utilization.
fn attack_main(args: &Args) -> ! {
    let net_name = args.get("--net").unwrap_or("isp").to_string();
    let network = build_network(" attack", &net_name);
    let engine_name = args.get("--engine").unwrap_or("owan").to_string();
    let kind = match engine_name.as_str() {
        "owan" => EngineKind::Owan,
        "maxflow" => EngineKind::MaxFlow,
        "maxmin" => EngineKind::MaxMinFract,
        "swan" => EngineKind::Swan,
        "tempus" => EngineKind::Tempus,
        "amoeba" => EngineKind::Amoeba,
        "greedy" => EngineKind::Greedy,
        other => {
            eprintln!("owan-cli attack: unknown engine '{other}' for --engine");
            std::process::exit(2);
        }
    };
    let attack_name = args.get("--attack").unwrap_or("coremelt").to_string();
    let seed = args.parse("--seed", 42u64);
    let load = args.parse("--load", 0.4f64);
    let sigma: Option<f64> = args.get("--sigma").map(|raw| {
        raw.parse().unwrap_or_else(|_| {
            eprintln!("owan-cli attack: invalid value '{raw}' for --sigma");
            std::process::exit(2);
        })
    });
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
    let obs_path = args.get("--obs").map(str::to_string);
    let scope_dump = args.get("--scope-dump").map(str::to_string);
    let scope_trace = args.get("--scope-trace").map(str::to_string);
    let scope_on = args.flag("--scope") || scope_dump.is_some() || scope_trace.is_some();
    let flight_slots = args.parse("--scope-slots", 16usize);
    let slo = slo_from_args(args);
    let why_enabled = slo_flags_on(args);
    if !(restore > 0.0 && restore <= 1.0) {
        eprintln!("owan-cli attack: --restore must be in (0, 1]");
        std::process::exit(2);
    }

    let mut wl = if net_name == "internet2" {
        WorkloadConfig::testbed(load, seed)
    } else {
        WorkloadConfig::simulation(load, seed)
    };
    wl.duration_s = args.parse("--duration", horizon.min(7_200.0));
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
        other => {
            eprintln!("owan-cli attack: unknown attack '{other}' for --attack");
            std::process::exit(2);
        }
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
    let mut engine_factory = |p: &owan::optical::FiberPlant| -> Box<dyn TrafficEngineer> {
        if kind == EngineKind::Owan {
            let owan_config = OwanConfig {
                anneal: AnnealConfig {
                    max_iterations: iters,
                    seed: seed.wrapping_add(1),
                    ..Default::default()
                },
                ..Default::default()
            };
            Box::new(OwanEngine::new(default_topology(p), owan_config))
        } else {
            owan::sim::runner::make_engine(kind, &network, &runner_cfg)
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

    let recorder = if obs_path.is_some() || scope_on || why_enabled {
        Recorder::enabled()
    } else {
        Recorder::disabled()
    };
    let make_scope = |dump_path: Option<&String>| -> ScopeRecorder {
        if !scope_on {
            return ScopeRecorder::disabled();
        }
        let scope = ScopeRecorder::enabled(ScopeConfig {
            flight_slots,
            dump_path: dump_path.map(PathBuf::from),
        });
        scope.set_meta("mode", "attack");
        scope.set_meta("net", &net_name);
        scope.set_meta("engine", &engine_name);
        scope.set_meta("attack", &attack_name);
        scope.set_meta("seed", seed);
        scope.set_meta("load", load);
        scope.set_meta("slot_len_s", slot);
        scope.set_meta("slots", slots);
        scope.set_meta("iters", iters);
        scope.set_meta("onset_s", onset);
        scope.set_meta("detect_s", detect);
        scope.set_meta("scope_slots", flight_slots);
        if why_enabled {
            stamp_slo_meta(&scope, &slo);
        }
        scope
    };
    let scope = make_scope(scope_dump.as_ref());
    let rerun_scope = make_scope(None);
    let make_why = |rec: &Recorder| -> WhyRecorder {
        if why_enabled {
            WhyRecorder::enabled(WhyConfig { slo: slo.clone() }, rec)
        } else {
            WhyRecorder::disabled()
        }
    };
    let why = make_why(&recorder);
    let rerun_why = make_why(&Recorder::disabled());

    let mut run_with =
        |rec: &Recorder, scp: &ScopeRecorder, why: &WhyRecorder| -> Result<AttackOutcome, String> {
            let checked = rec.counter("oracle.invariant_checked");
            let violated = rec.counter("oracle.invariant_violated");
            let mut audit = |a: &SlotAudit| -> Result<(), String> {
                checked.add(1);
                if let Err(v) = check_plan(a.believed_plant, a.transfers, a.slot_len_s, a.plan) {
                    violated.add(1);
                    scp.anomaly("oracle.invariant_violated", a.slot);
                    return Err(format!("slot plan: {v}"));
                }
                if let (Some(delta), Some(update)) = (a.delta, a.update) {
                    checked.add(1);
                    if let Err(v) = check_timeline(delta, update, &a.params) {
                        violated.add(1);
                        scp.anomaly("oracle.invariant_violated", a.slot);
                        return Err(format!("update: {v}"));
                    }
                }
                Ok(())
            };
            run_attack_explained(
                &network.plant,
                &requests,
                &timeline,
                &mut engine_factory,
                &config,
                restore,
                &events,
                &op_faults,
                rec,
                scp,
                why,
                Some(&mut audit),
            )
        };

    let outcome = match run_with(&recorder, &scope, &why) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("owan-cli attack: FAIL: {e}");
            std::process::exit(1);
        }
    };
    // Same seed, same timeline: the rerun must reproduce the run exactly.
    let rerun = match run_with(&Recorder::disabled(), &rerun_scope, &rerun_why) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("owan-cli attack: FAIL on rerun: {e}");
            std::process::exit(1);
        }
    };
    let mut deterministic = outcome.attacked.delivered_series == rerun.attacked.delivered_series
        && outcome.attacked.background_series == rerun.attacked.background_series
        && outcome.attacked.victim_util_series == rerun.attacked.victim_util_series
        && outcome.attacked.stats == rerun.attacked.stats
        && outcome.metrics == rerun.metrics;
    if scope_on && scope.dump_text() != rerun_scope.dump_text() {
        deterministic = false;
    }
    let mut violations = 0usize;
    if !deterministic {
        eprintln!("owan-cli attack: FAIL: rerun with seed {seed} diverged");
        violations += 1;
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
    if why_enabled {
        match why.tripped() {
            Some((reason, slot)) => println!("slo_tripped,{reason},{slot}"),
            None => println!("slo_tripped,none"),
        }
    }
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
    if scope_on {
        println!(
            "scope_dumped,{}",
            if scope.has_dumped() { "yes" } else { "no" }
        );
        if scope.has_dumped() {
            if let Some(path) = &scope_dump {
                eprintln!("flight dump written to {path}");
            }
        }
        write_trace(
            " attack",
            &scope,
            &recorder,
            &Profiler::disabled(),
            &scope_trace,
        );
    }

    write_obs(" attack", &recorder, &obs_path);
    if recorder.is_enabled() {
        let snapshot = recorder.snapshot();
        print!("{}", format_counter_table(&snapshot, "chaos."));
        print!("{}", format_counter_table(&snapshot, "oracle."));
        if why_enabled {
            print!("{}", format_counter_table(&snapshot, "slo."));
        }
    }

    std::process::exit(if violations == 0 { 0 } else { 1 });
}

/// `owan-cli perf diff`: compare two `bench_anneal` JSON reports with
/// noise-aware per-phase thresholds. Strict flag parsing — unknown flags
/// and malformed values exit 2 rather than being silently ignored, so a
/// typo'd `--gate` can never turn a gating CI job into a no-op.
fn perf_main() -> ! {
    let rest: Vec<String> = std::env::args().skip(2).collect();
    let usage = "owan-cli perf: usage: owan-cli perf diff A.json B.json [--threshold F] [--gate]";
    if rest.first().map(String::as_str) != Some("diff") {
        eprintln!("{usage}");
        std::process::exit(2);
    }
    let mut threshold = 0.15f64;
    let mut gate = false;
    let mut files: Vec<String> = Vec::new();
    let mut it = rest.iter().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--threshold" => {
                let raw = it.next().unwrap_or_else(|| {
                    eprintln!("owan-cli perf: --threshold needs a value");
                    std::process::exit(2);
                });
                threshold = raw.parse().unwrap_or_else(|_| {
                    eprintln!("owan-cli perf: invalid value '{raw}' for --threshold");
                    std::process::exit(2);
                });
            }
            "--gate" => gate = true,
            flag if flag.starts_with('-') => {
                eprintln!("owan-cli perf: unknown flag '{flag}'\n{usage}");
                std::process::exit(2);
            }
            file => files.push(file.to_string()),
        }
    }
    let [a_path, b_path] = files.as_slice() else {
        eprintln!(
            "owan-cli perf: expected exactly two report files, got {}\n{usage}",
            files.len()
        );
        std::process::exit(2);
    };
    let read = |path: &str| -> String {
        std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("owan-cli perf: cannot read '{path}': {e}");
            std::process::exit(2);
        })
    };
    match owan::bench::perf_diff(&read(a_path), &read(b_path), threshold) {
        Ok(diff) => {
            print!("{}", diff.format_table());
            if gate && diff.has_regressions() {
                eprintln!(
                    "owan-cli perf: FAIL: regression past the {:.0}% threshold",
                    threshold * 100.0
                );
                std::process::exit(1);
            }
            std::process::exit(0);
        }
        Err(e) => {
            eprintln!("owan-cli perf: {e}");
            std::process::exit(2);
        }
    }
}

/// `owan-cli transfers`: run the workload with the flight recorder
/// attached, then print the per-transfer lifecycle table (or, with
/// `--trace ID`, one transfer's slot-by-slot history).
fn transfers_main(args: &Args) -> ! {
    let setup = run_setup(args);
    let scope = scope_from_args(args, &setup, "sim", true);
    let recorder = Recorder::enabled();
    eprintln!(
        "tracing {} on {}: {} transfers, load {}, slot {}s",
        setup.engine_name,
        setup.net_name,
        setup.requests.len(),
        setup.load,
        setup.slot
    );
    let result = run_engine_traced(
        setup.kind,
        &setup.network,
        &setup.requests,
        &setup.cfg,
        &recorder,
        &scope,
    );

    if let Some(raw) = args.get("--trace") {
        let id: usize = raw.parse().unwrap_or_else(|_| {
            eprintln!("owan-cli transfers: invalid value '{raw}' for --trace");
            std::process::exit(2);
        });
        match scope.render_transfer_trace(id) {
            Some(trace) => print!("{trace}"),
            None => {
                eprintln!("owan-cli transfers: no transfer with id {id}");
                std::process::exit(2);
            }
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
    write_trace(
        " transfers",
        &scope,
        &recorder,
        &Profiler::disabled(),
        &args.get("--scope-trace").map(str::to_string),
    );
    std::process::exit(0);
}

/// `owan-cli top`: run the workload on a background thread and print a
/// refreshing dashboard from the live recorder until it finishes.
fn top_main(args: &Args) -> ! {
    let setup = run_setup(args);
    let scope = scope_from_args(args, &setup, "sim", false);
    let recorder = Recorder::enabled();
    let interval = args.parse("--interval", 2.0f64).max(0.1);
    let server = args.get("--serve").map(|addr| {
        let server = MetricsServer::spawn(addr, recorder.clone()).unwrap_or_else(|e| {
            eprintln!("owan-cli top: cannot bind --serve address '{addr}': {e}");
            std::process::exit(2);
        });
        eprintln!("serving /metrics on http://{}", server.addr());
        server
    });

    eprintln!(
        "running {} on {}: {} transfers, load {}, slot {}s (dashboard every {interval}s)",
        setup.engine_name,
        setup.net_name,
        setup.requests.len(),
        setup.load,
        setup.slot
    );

    let start = std::time::Instant::now();
    let handle = {
        let network = setup.network.clone();
        let requests = setup.requests.clone();
        let cfg = setup.cfg;
        let kind = setup.kind;
        let rec = recorder.clone();
        let scp = scope.clone();
        std::thread::spawn(move || run_engine_traced(kind, &network, &requests, &cfg, &rec, &scp))
    };
    while !handle.is_finished() {
        std::thread::sleep(std::time::Duration::from_secs_f64(interval.min(0.25)));
        if start.elapsed().as_secs_f64() >= interval {
            print!(
                "{}",
                render_top(&recorder.snapshot(), start.elapsed().as_secs_f64())
            );
            println!();
        }
    }
    let result = handle.join().expect("sim thread panicked");
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
    drop(server);
    std::process::exit(0);
}

fn main() {
    let args = Args(std::env::args().collect());
    if args.flag("--help") || args.flag("-h") {
        println!("{USAGE}");
        return;
    }
    match std::env::args().nth(1).as_deref() {
        Some("verify") => verify_main(&args),
        Some("chaos") => chaos_main(&args),
        Some("attack") => attack_main(&args),
        Some("explain") => explain_main(&args),
        Some("slo") => slo_main(&args),
        Some("transfers") => transfers_main(&args),
        Some("top") => top_main(&args),
        Some("perf") => perf_main(),
        _ => {}
    }

    let setup = run_setup(&args);
    let obs_path = args.get("--obs").map(str::to_string);
    let obs_summary = args.flag("--obs-summary");
    let scope_trace = args.get("--scope-trace").map(str::to_string);
    let serve_addr = args.get("--serve").map(str::to_string);
    let scope = scope_from_args(&args, &setup, "sim", false);
    let prof_path = args.get("--prof").map(str::to_string);
    let prof_report = args.flag("--prof-report");
    let prof = if prof_path.is_some() || prof_report {
        Profiler::enabled()
    } else {
        Profiler::disabled()
    };

    let recorder = if obs_path.is_some()
        || obs_summary
        || prof_report
        || scope.is_enabled()
        || serve_addr.is_some()
    {
        Recorder::enabled()
    } else {
        Recorder::disabled()
    };
    let server = serve_addr.map(|addr| {
        let server = MetricsServer::spawn(&addr, recorder.clone()).unwrap_or_else(|e| {
            eprintln!("owan-cli: cannot bind --serve address '{addr}': {e}");
            std::process::exit(2);
        });
        eprintln!("serving /metrics on http://{}", server.addr());
        server
    });

    eprintln!(
        "running {} on {}: {} transfers, load {}, slot {}s",
        setup.engine_name,
        setup.net_name,
        setup.requests.len(),
        setup.load,
        setup.slot
    );
    let result = run_engine_profiled(
        setup.kind,
        &setup.network,
        &setup.requests,
        &setup.cfg,
        &recorder,
        &scope,
        &prof,
    );

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
    if scope.is_enabled() {
        println!(
            "scope_dumped,{}",
            if scope.has_dumped() { "yes" } else { "no" }
        );
        write_trace("", &scope, &recorder, &prof, &scope_trace);
    }

    if let Some(path) = &prof_path {
        let mut out: Vec<u8> = Vec::new();
        prof.write_folded(&mut out)
            .expect("serializing to memory cannot fail");
        if let Err(e) = std::fs::write(path, &out) {
            eprintln!("owan-cli: cannot write --prof file '{path}': {e}");
            std::process::exit(1);
        }
        eprintln!(
            "wrote folded stacks to {path} ({} lines)",
            out.iter().filter(|&&b| b == b'\n').count()
        );
    }
    if prof_report {
        print!("{}", prof.snapshot().format_tree());
        let snapshot = recorder.snapshot();
        let table = format_counter_table(&snapshot, "anneal.cache_miss.");
        if table.lines().count() > 1 {
            print!("{table}");
        }
        // What the rate passes did: passes run, paths examined,
        // allocations made, starvation promotions.
        let rates = format_counter_table(&snapshot, "rates.");
        if rates.lines().count() > 1 {
            print!("{rates}");
        }
    }

    write_obs("", &recorder, &obs_path);
    if recorder.is_enabled() && obs_summary {
        print!(
            "{}",
            format_stage_table(
                &recorder.snapshot(),
                &[
                    ("slot", "stage.slot"),
                    ("anneal", "stage.anneal"),
                    ("anneal iteration", "stage.anneal.iter"),
                    ("circuit build", "stage.circuits"),
                    ("rate assignment", "stage.rates"),
                    ("update scheduling", "stage.update"),
                ],
            )
        );
    }
    drop(server);
}
