//! Handshake ledger: the repo's benchmark. See `README.md` beside this
//! crate for the workloads, the metrics and how to run it.
//!
//! Two binaries share this library. `puzzle-bench` runs the workloads
//! untraced on the system allocator and reports the end-to-end metrics;
//! `puzzle-bench-traced` installs the counting allocator, records spans
//! around every call into a layer, and reports the per-layer ledger.

pub mod alloc;
pub mod ledger;
pub mod loadgen;
pub mod manifest;
pub mod stack;
pub mod sys;
pub mod trace;
pub mod workloads;

use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};

use manifest::{Metric, RUN_SECONDS, WORKLOADS};
use workloads::{EngineKind, Outcome};

const USAGE: &str =
    "usage: puzzle-bench[-traced] [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
       puzzle-bench --check-repeat [--seed N] [--seconds S]
       puzzle-bench --emit-manifest
Without --workload, runs all six workloads, each in its own process.";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    check_repeat: bool,
}

fn parse_args(traced: bool) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS as f64,
        check_repeat: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => {
                let want = if traced { "1" } else { "0" };
                if value()? != want {
                    return Err(format!(
                        "this binary only runs --trace {want}; benchmark/run.sh picks the binary"
                    ));
                }
            }
            "--check-repeat" => args.check_repeat = true,
            "--emit-manifest" => {
                print!("{}", manifest::benchmark_json());
                std::process::exit(0);
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(args)
}

fn run_workload(name: &str, seed: u64, seconds: f64, traced: bool) -> Option<Outcome> {
    if traced {
        return ledger::run(name, seed, seconds);
    }
    Some(match name {
        "engine_handshake" => workloads::engine(EngineKind::Handshake, seed, seconds),
        "engine_syn_flood" => workloads::engine(EngineKind::SynFlood, seed, seconds),
        "wire_busy" => workloads::wire(workloads::WIRE_BUSY, seed, seconds),
        "wire_calm" => workloads::wire(workloads::WIRE_CALM, seed, seconds),
        "wire_attack" => workloads::wire(workloads::WIRE_ATTACK, seed, seconds),
        "sim_matrix" => workloads::sim(seed, seconds),
        _ => return None,
    })
}

/// Runs one workload in this process and prints its result: `METRIC`
/// lines for people and for the all-workloads parent, then the one JSON
/// object the driver reads as the last line of standard output.
fn single(name: &str, args: &Args, traced: bool) -> ExitCode {
    eprintln!(
        "{name}: seed {} seconds {} backend {} nproc {} transport loopback",
        args.seed,
        args.seconds,
        puzzle_crypto::HashBackend::name(&puzzle_crypto::auto_backend()),
        sys::nproc(),
    );
    let Some(out) = run_workload(name, args.seed, args.seconds, traced) else {
        eprintln!("unknown workload {name}\n{USAGE}");
        return ExitCode::from(2);
    };
    for note in &out.notes {
        eprintln!("{name}: {note}");
    }
    if !out.invalid.is_empty() {
        for reason in &out.invalid {
            eprintln!("{name}: INVALID RUN: {reason}");
        }
        return ExitCode::from(3);
    }
    for violation in &out.violations {
        eprintln!("{name}: OUTPUT CHECK FAILED: {violation}");
    }
    let table = manifest::metrics(traced);
    let values: BTreeMap<&str, f64> = out.metrics.iter().copied().collect();
    assert_eq!(values.len(), out.metrics.len(), "a metric was set twice");
    assert_eq!(
        values.len(),
        table.len(),
        "metrics differ from the manifest"
    );
    let mut json = Vec::with_capacity(table.len());
    for Metric { name, unit, .. } in table {
        let value = *values
            .get(name)
            .unwrap_or_else(|| panic!("metric {name} was not measured"));
        assert!(value.is_finite(), "metric {name} is {value}");
        println!("METRIC {name} {value} {unit}");
        json.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    if let Some(digest) = &out.digest {
        println!("DIGEST {digest}");
    }
    let correct = out.violations.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted,
        out.failed,
        json.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// One workload's result as the parent process parsed it.
struct ChildResult {
    metrics: BTreeMap<String, f64>,
    digest: Option<String>,
}

/// Runs every workload, each in a child process of its own (so
/// `peak_rss_mb` is that workload's), and prints the results as a table.
fn run_set(args: &Args, seed: u64, traced: bool) -> Option<BTreeMap<&'static str, ChildResult>> {
    let exe = std::env::current_exe().expect("own executable path");
    let mut set = BTreeMap::new();
    for w in WORKLOADS {
        let child = Command::new(&exe)
            .args(["--workload", w.name])
            .args(["--seed", &seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .stderr(Stdio::inherit())
            .output()
            .expect("spawn workload process");
        let stdout = String::from_utf8_lossy(&child.stdout);
        let mut result = ChildResult {
            metrics: BTreeMap::new(),
            digest: None,
        };
        for line in stdout.lines() {
            let fields: Vec<&str> = line.split_whitespace().collect();
            match fields[..] {
                ["METRIC", name, value, _unit] => {
                    let value = value.parse().expect("child printed a number");
                    result.metrics.insert(name.to_string(), value);
                }
                ["DIGEST", ..] => result.digest = Some(fields[1..].join(" ")),
                _ => {}
            }
        }
        if !child.status.success() {
            eprintln!("{}: failed with {}", w.name, child.status);
            return None;
        }
        println!("{}  (seed {seed})", w.name);
        for m in manifest::metrics(traced) {
            println!(
                "  {:<46} {:>16.6} {}",
                m.name, result.metrics[m.name], m.unit
            );
        }
        set.insert(w.name, result);
    }
    Some(set)
}

/// By what share of `a` the metric got worse from `a` to `b`
/// (negative when it improved).
fn worsening(m: &Metric, a: f64, b: f64) -> f64 {
    if m.higher_is_better {
        (a - b) / a
    } else {
        (b - a) / a
    }
}

/// Two full sets with one seed must agree within every end-to-end
/// bound (and give the same digests); a third set with another seed is
/// reported beside them.
fn check_repeat(args: &Args) -> ExitCode {
    let sets: Vec<_> = [args.seed, args.seed, args.seed + 1]
        .into_iter()
        .map_while(|seed| run_set(args, seed, false))
        .collect();
    let [a, b, c] = &sets[..] else {
        return ExitCode::from(1);
    };
    let mut failed = false;
    println!(
        "\n{:<18} {:<16} {:>14} {:>14} {:>8} {:>7}  {:>14} {:>8}",
        "workload", "metric", "set 1", "set 2", "worse", "bound", "other seed", "differs"
    );
    for w in WORKLOADS {
        for m in manifest::END_TO_END {
            let (va, vb, vc) = (
                a[w.name].metrics[m.name],
                b[w.name].metrics[m.name],
                c[w.name].metrics[m.name],
            );
            let worse = worsening(m, va, vb).abs();
            let verdict = if worse > m.bound { "FAIL" } else { "" };
            failed |= worse > m.bound;
            println!(
                "{:<18} {:<16} {va:>14.5} {vb:>14.5} {:>7.2}% {:>6.0}%  {vc:>14.5} {:>7.2}% {verdict}",
                w.name,
                m.name,
                worse * 100.0,
                m.bound * 100.0,
                worsening(m, va, vc) * 100.0,
            );
        }
        if a[w.name].digest != b[w.name].digest {
            println!(
                "{:<18} digests differ between two sets of one seed FAIL",
                w.name
            );
            failed = true;
        }
    }
    if failed {
        ExitCode::from(1)
    } else {
        println!("two sets of seed {} agree within every bound", args.seed);
        ExitCode::SUCCESS
    }
}

/// Entry point of both binaries; `traced` says which one this is.
pub fn main_with(traced: bool) -> ExitCode {
    let args = match parse_args(traced) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.check_repeat {
        if traced {
            eprintln!("--check-repeat compares end-to-end metrics: run it with puzzle-bench");
            return ExitCode::from(2);
        }
        return check_repeat(&args);
    }
    match &args.workload {
        Some(name) => single(name, &args, traced),
        None => match run_set(&args, args.seed, traced) {
            Some(_) => ExitCode::SUCCESS,
            None => ExitCode::from(1),
        },
    }
}
