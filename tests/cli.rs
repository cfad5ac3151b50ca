//! `owan-cli` end to end through the binary: what each command prints on
//! a small seeded scenario is pinned byte for byte, every scenario
//! command takes the same probe options, and the attack command
//! reproduces the recovery matrix's fixed-topology cell.

use std::path::PathBuf;
use std::process::Command;

use owan::scope::jsonv::{self, Json};

fn owan_cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_owan-cli"))
}

/// A fresh scratch directory for one test.
fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// FNV-1a, 64 bit: a stable digest for the golden outputs below.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Runs `owan-cli` on `args`, asserts it exits 0, and returns its stdout.
fn stdout_of(args: &[&str]) -> String {
    let out = owan_cli().args(args).output().unwrap();
    assert!(
        out.status.success(),
        "{args:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).unwrap()
}

/// `text` without the lines starting with `prefix`: the ones that read
/// wall time (`prof_region,*` shares, `plan_p99_ms`).
fn without(text: &str, prefix: &str) -> String {
    text.lines()
        .filter(|l| !l.starts_with(prefix))
        .map(|l| format!("{l}\n"))
        .collect()
}

/// A small internet2 run with deadlines: 8 transfers, 20 annealing
/// iterations a slot.
const RUN: [&str; 10] = [
    "--net",
    "internet2",
    "--sigma",
    "1.5",
    "--duration",
    "1200",
    "--max-requests",
    "8",
    "--iters",
    "20",
];

/// Pins the stdout of one small seeded command line per scenario
/// command, and the flight dump `chaos --scope-dump` writes. The lines
/// that read wall time are left out of the digest.
#[test]
fn cli_stdout_is_pinned() {
    let dir = temp_dir("owan_cli_golden");
    let dump = dir.join("flight.dump");
    let dump_arg = dump.to_str().unwrap();
    let transfers = [&["transfers"][..], &RUN].concat();
    let explain = stdout_of(&[&["explain"][..], &RUN].concat());
    let slo = stdout_of(&[&["slo"][..], &RUN].concat());
    let chaos = [
        "chaos",
        "--net",
        "internet2",
        "--seed",
        "42",
        "--slots",
        "12",
        "--iters",
        "20",
        "--detect",
        "400",
        "--scope-dump",
        dump_arg,
    ];
    let attack = [
        "attack",
        "--net",
        "internet2",
        "--slots",
        "12",
        "--iters",
        "20",
        "--max-requests",
        "20",
        "--timeline",
    ];
    let digest = |args: &[&str]| fnv1a(stdout_of(args).as_bytes());
    let digests = [
        ("run", digest(&RUN)),
        ("transfers", digest(&transfers)),
        (
            "transfers_trace",
            digest(&[&transfers[..], &["--trace", "3"]].concat()),
        ),
        ("chaos", digest(&chaos)),
        ("chaos_dump", fnv1a(&std::fs::read(&dump).unwrap())),
        ("attack", digest(&attack)),
        (
            "explain",
            fnv1a(without(&explain, "prof_region,").as_bytes()),
        ),
        ("slo", fnv1a(without(&slo, "plan_p99_ms,").as_bytes())),
    ];
    assert_eq!(digests, CLI_GOLDEN, "owan-cli output moved");
}

/// The pinned digests: a change that moves one changes what a command
/// prints or writes.
const CLI_GOLDEN: [(&str, u64); 8] = [
    ("run", 0x1e43c0b5441ba3f0),
    ("transfers", 0x11c594aa0738c2af),
    ("transfers_trace", 0x7cec90ea6e9ed8fc),
    ("chaos", 0xc70cbde42d1f63f9),
    ("chaos_dump", 0x9d04044739e50258),
    ("attack", 0xc3299cbe5a17c39d),
    ("explain", 0xe650c7a4edc530ca),
    ("slo", 0xf89364fa8994726f),
];

/// Every scenario command takes the same probe options: on a tiny
/// internet2 scenario, each writes `--obs` JSON Lines whose every line
/// parses and a `--scope-trace` Chrome trace that parses.
#[test]
fn every_scenario_command_takes_the_probe_options() {
    let dir = temp_dir("owan_cli_probe_options");
    let run = ["--iters", "5", "--max-requests", "2", "--duration", "600"];
    let chaos = ["--iters", "5", "--slots", "2"];
    let commands: [(&str, &[&str]); 7] = [
        ("run", &run),
        ("transfers", &[&["transfers"][..], &run].concat()),
        ("top", &[&["top", "--interval", "100"][..], &run].concat()),
        ("chaos", &[&["chaos"][..], &chaos].concat()),
        (
            "attack",
            &[
                &["attack", "--net", "internet2", "--max-requests", "2"][..],
                &chaos,
            ]
            .concat(),
        ),
        ("explain", &[&["explain"][..], &run].concat()),
        ("slo", &[&["slo"][..], &run].concat()),
    ];
    for (name, args) in commands {
        let obs = dir.join(format!("{name}.jsonl"));
        let trace = dir.join(format!("{name}.trace.json"));
        let out = owan_cli()
            .args(args)
            .arg("--obs")
            .arg(&obs)
            .arg("--scope-trace")
            .arg(&trace)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{name}: {stderr}");

        let jsonl = std::fs::read_to_string(&obs).unwrap();
        assert!(jsonl.lines().count() > 0, "{name}: empty --obs export");
        for line in jsonl.lines() {
            jsonv::parse(line).unwrap_or_else(|e| panic!("{name}: {e}: {line}"));
        }
        let doc = jsonv::parse(&std::fs::read_to_string(&trace).unwrap())
            .unwrap_or_else(|e| panic!("{name}: --scope-trace is not JSON: {e}"));
        let events = doc.get("traceEvents").and_then(Json::as_arr);
        assert!(
            events.is_some_and(|e| !e.is_empty()),
            "{name}: no trace events"
        );
    }
}

/// `--sites` is read wherever `--net` is: a sized chaos run writes a
/// flight dump that names its site count and replays clean, `verify
/// --net isp` and `attack` take it, and a command line that reads no
/// network (`verify --seeds`) or names another network exits 2.
#[test]
fn sites_sizes_every_command_that_takes_net() {
    let dir = temp_dir("owan_cli_sites");
    let dump = dir.join("sized.dump");
    let dump_arg = dump.to_str().unwrap();
    stdout_of(&[
        "chaos",
        "--net",
        "isp",
        "--sites",
        "12",
        "--load",
        "0.3",
        "--slots",
        "3",
        "--iters",
        "5",
        "--scope-dump",
        dump_arg,
    ]);
    let text = std::fs::read_to_string(&dump).unwrap();
    assert!(text.lines().any(|l| l == "sites: 12"), "{text}");
    let replayed = stdout_of(&["verify", "--replay", dump_arg]);
    assert!(replayed.starts_with("OK"), "{replayed}");
    let verified = stdout_of(&[
        "verify", "--net", "isp", "--sites", "12", "--slots", "3", "--iters", "5",
    ]);
    assert!(verified.starts_with("OK: isp replayed clean"), "{verified}");

    let refused = |args: &[&str], want: &str| {
        let out = owan_cli().args(args).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(want), "{args:?}: {stderr}");
    };
    refused(
        &["verify", "--seeds", "1", "--sites", "12"],
        "unknown flag '--sites'",
    );
    refused(
        &["chaos", "--net", "internet2", "--sites", "12"],
        "--sites applies to --net isp",
    );
    refused(&["attack", "--sites", "2"], "invalid value '2' for --sites");
}

/// The comparison the attack suite exists for, at the quick recovery
/// matrix's scale (40 background transfers over an 1 800 s window, 16
/// slots, 60 iterations): the coremelt that the annealed controller
/// routes around leaves the fixed-topology max-flow baseline with
/// permanent residual loss. `owan-cli attack` prints the matrix's
/// checked-in `coremelt_maxflow_*` cell.
#[test]
fn maxflow_does_not_recover_from_coremelt() {
    let out = stdout_of(&[
        "attack",
        "--net",
        "isp",
        "--engine",
        "maxflow",
        "--attack",
        "coremelt",
        "--slots",
        "16",
        "--iters",
        "60",
        "--max-requests",
        "40",
        "--duration",
        "1800",
    ]);
    let row = |key: &str| -> &str {
        out.lines()
            .find_map(|l| l.strip_prefix(key)?.strip_prefix(','))
            .unwrap_or_else(|| panic!("no {key} row:\n{out}"))
    };
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_attack_quick.json");
    let matrix = jsonv::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    let cell = |key: &str| {
        matrix
            .get(&format!("coremelt_maxflow_{key}"))
            .and_then(Json::as_f64)
            .unwrap_or_else(|| panic!("no coremelt_maxflow_{key} in {path}"))
    };
    assert_eq!(row("time_to_restore_slots"), "never");
    assert_eq!(
        cell("time_to_restore_slots"),
        -1.0,
        "never serializes as -1"
    );
    assert_eq!(row("residual_loss_gbits"), "167837");
    for key in [
        "residual_loss_gbits",
        "baseline_delivered_gbits",
        "attacked_background_gbits",
        "restored_slots",
        "peak_victim_util",
        "injected_gbits",
    ] {
        assert_eq!(row(key).parse::<f64>().unwrap(), cell(key), "{key}");
    }
    assert_eq!(row("deterministic"), "yes");
}
