//! Bench regression guard.
//!
//! Compares a fresh benchmark JSON report (produced by the workspace's
//! criterion shim via `BENCH_JSON=path cargo bench -p bench --bench …`)
//! against a committed baseline such as `BENCH_verify.json`, and fails
//! when any shared benchmark id slowed down beyond the tolerance band.
//!
//! ```text
//! bench_check <baseline.json> <fresh.json> [--tolerance 0.5]
//! bench_check <fresh.json> --require-scaling <prefix>:<shards>:<factor>
//! bench_check <fresh.json> --max-ratio <num_id>=<den_id>=<factor>
//! ```
//!
//! The tolerance is a fractional slowdown bound: `0.5` tolerates up to
//! +50 % ns/iter over the baseline before flagging a regression — wide on
//! purpose, because CI machines are noisy and the guard is meant to catch
//! order-of-magnitude cliffs (a lost SIMD path, an accidental per-message
//! allocation), not 5 % jitter. Ids present on only one side are
//! reported but never fail the run, so adding or renaming benches does
//! not break the guard.
//!
//! `--require-scaling prefix:N:F` is the multicore guard: it reads
//! *one* report (the fresh run — no baseline involved, since scaling is
//! a property of the machine the report was captured on) and requires
//! `ns(prefix/1) / ns(prefix/N) >= F`. The multicore CI leg uses it to
//! assert the persistent shard pipeline really speeds up batch stepping
//! on a multi-core runner (`sharded_persistent/on_segments:4:1.5` — a
//! loose floor; perfect scaling would be 4×). With two paths it runs
//! after the regression compare, against the fresh report. Exit codes:
//! 0 ok, 1 regression or scaling failure, 2 usage/parse error.
//!
//! `--max-ratio a=b=F` is the cross-id cost guard, also over one
//! report: it requires `ns(a) / ns(b) <= F`. Ids contain `/` but never
//! `=`, so `=` is a safe separator. The verify-cost CI leg uses it to
//! pin the asymmetric collision puzzle's verification bill to the
//! hash-prefix path it rides next to
//! (`backend/collide_verify_batch/256=backend/verify_batch/256=2.0` —
//! two tag recomputations per sub-solution instead of one, and nothing
//! else). Repeatable; missing ids are hard errors.

use std::process::ExitCode;

/// One `{"id": …, "ns_per_iter": …}` record from a report.
#[derive(Clone, Debug, PartialEq)]
struct Entry {
    id: String,
    ns_per_iter: f64,
}

/// Extracts the next double-quoted string starting at or after `from`,
/// returning `(value, index past the closing quote)`. The report format
/// only escapes `"`, matching the writer in the criterion shim.
fn parse_string(s: &str, from: usize) -> Option<(String, usize)> {
    let bytes = s.as_bytes();
    let start = s[from..].find('"')? + from + 1;
    let mut out = String::new();
    let mut i = start;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' if i + 1 < bytes.len() => {
                out.push(bytes[i + 1] as char);
                i += 2;
            }
            b'"' => return Some((out, i + 1)),
            c => {
                out.push(c as char);
                i += 1;
            }
        }
    }
    None
}

/// Parses the bench-report JSON written by the workspace's criterion
/// shim. Tolerant of field order and unknown fields: it scans for
/// `"id"` / `"ns_per_iter"` key-value pairs and pairs each id with the
/// next ns value that follows it.
fn parse_report(text: &str) -> Vec<Entry> {
    let mut entries = Vec::new();
    let mut pos = 0usize;
    while let Some(rel) = text[pos..].find("\"id\"") {
        let key_end = pos + rel + 4;
        let Some((id, after_id)) = parse_string(text, key_end) else {
            break;
        };
        pos = after_id;
        let Some(rel_ns) = text[pos..].find("\"ns_per_iter\"") else {
            break;
        };
        let val_start = pos + rel_ns + "\"ns_per_iter\"".len();
        let tail = &text[val_start..];
        let tail = tail.trim_start_matches([':', ' ']);
        let num: String = tail
            .chars()
            .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-' || *c == 'e' || *c == '+')
            .collect();
        match num.parse::<f64>() {
            Ok(ns_per_iter) => entries.push(Entry { id, ns_per_iter }),
            Err(_) => break,
        }
        pos = val_start;
    }
    entries
}

/// The verdict for one shared id.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Verdict {
    Ok,
    Improved,
    Regressed,
}

fn classify(baseline: f64, fresh: f64, tolerance: f64) -> Verdict {
    if fresh > baseline * (1.0 + tolerance) {
        Verdict::Regressed
    } else if fresh < baseline * (1.0 - tolerance.min(0.9)) {
        Verdict::Improved
    } else {
        Verdict::Ok
    }
}

/// A `--require-scaling` demand: `ns(prefix/1) / ns(prefix/shards)`
/// in one report must reach `factor`.
#[derive(Clone, Debug, PartialEq)]
struct ScalingReq {
    prefix: String,
    shards: u32,
    factor: f64,
}

/// Parses `prefix:shards:factor` (the prefix itself may not contain
/// `:`, which no bench id in this workspace does).
fn parse_scaling_spec(spec: &str) -> Option<ScalingReq> {
    let mut parts = spec.split(':');
    let prefix = parts.next()?.to_string();
    let shards: u32 = parts.next()?.parse().ok()?;
    let factor: f64 = parts.next()?.parse().ok()?;
    if parts.next().is_some() || prefix.is_empty() || shards < 2 || factor <= 0.0 {
        return None;
    }
    Some(ScalingReq {
        prefix,
        shards,
        factor,
    })
}

/// Checks one report against a scaling demand. `Ok(true)` means the
/// demand holds; a missing id is a hard error (the guard must never
/// silently pass because a bench was renamed).
fn check_scaling(entries: &[Entry], req: &ScalingReq) -> Result<bool, String> {
    let find = |id: &str| {
        entries
            .iter()
            .find(|e| e.id == id)
            .ok_or_else(|| format!("scaling check: id {id:?} not found in the fresh report"))
    };
    let base = find(&format!("{}/1", req.prefix))?;
    let scaled = find(&format!("{}/{}", req.prefix, req.shards))?;
    let achieved = base.ns_per_iter / scaled.ns_per_iter;
    let ok = achieved >= req.factor;
    println!(
        "scaling {}/{{1,{}}}: {:.1} ns -> {:.1} ns = {achieved:.2}x (need >= {:.2}x)  {}",
        req.prefix,
        req.shards,
        base.ns_per_iter,
        scaled.ns_per_iter,
        req.factor,
        if ok { "ok" } else { "TOO FLAT" }
    );
    Ok(ok)
}

/// A `--max-ratio` demand: `ns(numerator) / ns(denominator)` in one
/// report must stay at or below `factor`.
#[derive(Clone, Debug, PartialEq)]
struct RatioReq {
    numerator: String,
    denominator: String,
    factor: f64,
}

/// Parses `num_id=den_id=factor` (bench ids in this workspace contain
/// `/` but never `=`).
fn parse_ratio_spec(spec: &str) -> Option<RatioReq> {
    let mut parts = spec.split('=');
    let numerator = parts.next()?.to_string();
    let denominator = parts.next()?.to_string();
    let factor: f64 = parts.next()?.parse().ok()?;
    if parts.next().is_some() || numerator.is_empty() || denominator.is_empty() || factor <= 0.0 {
        return None;
    }
    Some(RatioReq {
        numerator,
        denominator,
        factor,
    })
}

/// Checks one report against a ratio cap. `Ok(true)` means the cap
/// holds; a missing id is a hard error (the guard must never silently
/// pass because a bench was renamed).
fn check_ratio(entries: &[Entry], req: &RatioReq) -> Result<bool, String> {
    let find = |id: &str| {
        entries
            .iter()
            .find(|e| e.id == id)
            .ok_or_else(|| format!("ratio check: id {id:?} not found in the fresh report"))
    };
    let num = find(&req.numerator)?;
    let den = find(&req.denominator)?;
    let achieved = num.ns_per_iter / den.ns_per_iter;
    let ok = achieved <= req.factor;
    println!(
        "ratio {} / {}: {:.1} ns / {:.1} ns = {achieved:.2}x (need <= {:.2}x)  {}",
        req.numerator,
        req.denominator,
        num.ns_per_iter,
        den.ns_per_iter,
        req.factor,
        if ok { "ok" } else { "TOO COSTLY" }
    );
    Ok(ok)
}

fn run(baseline_path: &str, fresh_path: &str, tolerance: f64) -> Result<bool, String> {
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("cannot read {p}: {e}"));
    let baseline = parse_report(&read(baseline_path)?);
    let fresh = parse_report(&read(fresh_path)?);
    if baseline.is_empty() {
        return Err(format!("no benchmark entries found in {baseline_path}"));
    }
    if fresh.is_empty() {
        return Err(format!("no benchmark entries found in {fresh_path}"));
    }

    let mut regressed = false;
    println!(
        "{:<44} {:>12} {:>12} {:>8}  verdict",
        "id", "baseline ns", "fresh ns", "delta"
    );
    for b in &baseline {
        let Some(f) = fresh.iter().find(|f| f.id == b.id) else {
            println!(
                "{:<44} {:>12.1} {:>12} {:>8}  missing-in-fresh",
                b.id, b.ns_per_iter, "-", "-"
            );
            continue;
        };
        let delta = f.ns_per_iter / b.ns_per_iter - 1.0;
        let verdict = classify(b.ns_per_iter, f.ns_per_iter, tolerance);
        regressed |= verdict == Verdict::Regressed;
        println!(
            "{:<44} {:>12.1} {:>12.1} {:>+7.1}%  {}",
            b.id,
            b.ns_per_iter,
            f.ns_per_iter,
            delta * 100.0,
            match verdict {
                Verdict::Ok => "ok",
                Verdict::Improved => "improved",
                Verdict::Regressed => "REGRESSED",
            }
        );
    }
    for f in &fresh {
        if !baseline.iter().any(|b| b.id == f.id) {
            println!(
                "{:<44} {:>12} {:>12.1} {:>8}  new",
                f.id, "-", f.ns_per_iter, "-"
            );
        }
    }
    Ok(regressed)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let mut paths = Vec::new();
    let mut tolerance = 0.5f64;
    let mut scaling: Option<ScalingReq> = None;
    let mut ratios: Vec<RatioReq> = Vec::new();
    let mut i = 1;
    while i < args.len() {
        if args[i] == "--max-ratio" {
            match args.get(i + 1).and_then(|s| parse_ratio_spec(s)) {
                Some(req) => ratios.push(req),
                None => {
                    eprintln!(
                        "--max-ratio needs a <num_id>=<den_id>=<factor> argument (factor > 0)"
                    );
                    return ExitCode::from(2);
                }
            }
            i += 2;
        } else if args[i] == "--tolerance" {
            match args.get(i + 1).and_then(|s| s.parse().ok()) {
                Some(t) => tolerance = t,
                None => {
                    eprintln!("--tolerance needs a numeric argument");
                    return ExitCode::from(2);
                }
            }
            i += 2;
        } else if args[i] == "--require-scaling" {
            match args.get(i + 1).and_then(|s| parse_scaling_spec(s)) {
                Some(req) => scaling = Some(req),
                None => {
                    eprintln!(
                        "--require-scaling needs a <prefix>:<shards>:<factor> argument \
                         (shards >= 2, factor > 0)"
                    );
                    return ExitCode::from(2);
                }
            }
            i += 2;
        } else {
            paths.push(args[i].clone());
            i += 1;
        }
    }
    // The fresh report is the last path either way: the scaling-only
    // and ratio-only modes take one path, the compare mode two.
    let single_report_mode = scaling.is_some() || !ratios.is_empty();
    let (baseline, fresh) = match paths.as_slice() {
        [baseline, fresh] => (Some(baseline.clone()), fresh.clone()),
        [fresh] if single_report_mode => (None, fresh.clone()),
        _ => {
            eprintln!(
                "usage: bench_check <baseline.json> <fresh.json> [--tolerance 0.5] \
                 [--require-scaling prefix:N:F] [--max-ratio a=b=F]\n       \
                 bench_check <fresh.json> --require-scaling prefix:N:F\n       \
                 bench_check <fresh.json> --max-ratio a=b=F"
            );
            return ExitCode::from(2);
        }
    };
    let mut failed = false;
    if let Some(baseline) = &baseline {
        match run(baseline, &fresh, tolerance) {
            Ok(false) => println!(
                "bench_check: within ±{:.0}% tolerance of {baseline}",
                tolerance * 100.0
            ),
            Ok(true) => {
                eprintln!(
                    "bench_check: regression beyond +{:.0}% tolerance",
                    tolerance * 100.0
                );
                failed = true;
            }
            Err(e) => {
                eprintln!("bench_check: {e}");
                return ExitCode::from(2);
            }
        }
    }
    if scaling.is_some() || !ratios.is_empty() {
        let entries = match std::fs::read_to_string(&fresh) {
            Ok(text) => parse_report(&text),
            Err(e) => {
                eprintln!("bench_check: cannot read {fresh}: {e}");
                return ExitCode::from(2);
            }
        };
        if let Some(req) = &scaling {
            match check_scaling(&entries, req) {
                Ok(true) => println!("bench_check: scaling demand met"),
                Ok(false) => {
                    eprintln!(
                        "bench_check: {} did not reach {:.2}x at {} shards",
                        req.prefix, req.factor, req.shards
                    );
                    failed = true;
                }
                Err(e) => {
                    eprintln!("bench_check: {e}");
                    return ExitCode::from(2);
                }
            }
        }
        for req in &ratios {
            match check_ratio(&entries, req) {
                Ok(true) => println!("bench_check: ratio cap met"),
                Ok(false) => {
                    eprintln!(
                        "bench_check: {} exceeded {:.2}x of {}",
                        req.numerator, req.factor, req.denominator
                    );
                    failed = true;
                }
                Err(e) => {
                    eprintln!("bench_check: {e}");
                    return ExitCode::from(2);
                }
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"{
  "results": [
    {"id": "sha256/64B", "ns_per_iter": 680.2, "iterations": 2951760, "throughput_bytes": 64},
    {"id": "backend/verify_batch/256", "ns_per_iter": 367214.8, "iterations": 5460, "throughput_elements": 256},
    {"id": "backend/collide_verify_batch/256", "ns_per_iter": 650000.0, "iterations": 3100, "throughput_elements": 256},
    {"id": "sharded/on_segments/8", "ns_per_iter": 123456.7, "iterations": 16000},
    {"id": "sharded_persistent/on_segments/1", "ns_per_iter": 400000.0, "iterations": 5000},
    {"id": "sharded_persistent/on_segments/4", "ns_per_iter": 160000.0, "iterations": 12000},
    {"id": "backend/issue_batch/256", "ns_per_iter": 30000.0, "iterations": 60000, "throughput_elements": 256},
    {"id": "stack/syn_challenge_batch/1", "ns_per_iter": 350000.0, "iterations": 5500},
    {"id": "stack/syn_challenge_batch/256", "ns_per_iter": 100000.0, "iterations": 19000}
  ]
}"#;

    #[test]
    fn parses_the_shim_report_format() {
        let entries = parse_report(SAMPLE);
        assert_eq!(entries.len(), 9);
        assert_eq!(entries[0].id, "sha256/64B");
        assert!((entries[0].ns_per_iter - 680.2).abs() < 1e-9);
        assert_eq!(entries[1].id, "backend/verify_batch/256");
        assert!((entries[1].ns_per_iter - 367214.8).abs() < 1e-9);
        assert_eq!(entries[2].id, "backend/collide_verify_batch/256");
        assert!((entries[2].ns_per_iter - 650000.0).abs() < 1e-9);
        // The sharded listener's step groups ride the same format.
        assert_eq!(entries[3].id, "sharded/on_segments/8");
        assert!((entries[3].ns_per_iter - 123456.7).abs() < 1e-9);
        assert_eq!(entries[4].id, "sharded_persistent/on_segments/1");
        assert_eq!(entries[5].id, "sharded_persistent/on_segments/4");
    }

    #[test]
    fn scaling_spec_parses_and_rejects() {
        assert_eq!(
            parse_scaling_spec("sharded_persistent/on_segments:4:1.5"),
            Some(ScalingReq {
                prefix: "sharded_persistent/on_segments".to_string(),
                shards: 4,
                factor: 1.5,
            })
        );
        assert_eq!(parse_scaling_spec("prefix:1:1.5"), None, "shards >= 2");
        assert_eq!(parse_scaling_spec("prefix:4:0"), None, "factor > 0");
        assert_eq!(parse_scaling_spec("prefix:4"), None, "three fields");
        assert_eq!(parse_scaling_spec("prefix:4:1.5:x"), None, "exactly three");
        assert_eq!(parse_scaling_spec(":4:1.5"), None, "non-empty prefix");
    }

    #[test]
    fn scaling_check_verdicts() {
        let entries = parse_report(SAMPLE);
        // 400000 / 160000 = 2.5x: meets 1.5 and 2.5, not 3.0.
        let req = |factor| ScalingReq {
            prefix: "sharded_persistent/on_segments".to_string(),
            shards: 4,
            factor,
        };
        assert_eq!(check_scaling(&entries, &req(1.5)), Ok(true));
        assert_eq!(check_scaling(&entries, &req(2.5)), Ok(true));
        assert_eq!(check_scaling(&entries, &req(3.0)), Ok(false));
        // A renamed/missing id is a hard error, never a silent pass.
        let missing = ScalingReq {
            prefix: "sharded_persistent/on_segments".to_string(),
            shards: 8,
            factor: 1.5,
        };
        assert!(check_scaling(&entries, &missing).is_err());
    }

    #[test]
    fn issuance_guard_shape() {
        // The CI issuance guard (`stack/syn_challenge_batch:256:2.0`):
        // 350000 / 100000 = 3.5x over the software-SHA one-SYN-flush leg.
        let entries = parse_report(SAMPLE);
        let req = parse_scaling_spec("stack/syn_challenge_batch:256:2.0").expect("valid spec");
        assert_eq!(check_scaling(&entries, &req), Ok(true));
        let too_strict = parse_scaling_spec("stack/syn_challenge_batch:256:4.0").expect("valid");
        assert_eq!(check_scaling(&entries, &too_strict), Ok(false));
    }

    #[test]
    fn ratio_spec_parses_and_rejects() {
        assert_eq!(
            parse_ratio_spec("backend/collide_verify_batch/256=backend/verify_batch/256=2.0"),
            Some(RatioReq {
                numerator: "backend/collide_verify_batch/256".to_string(),
                denominator: "backend/verify_batch/256".to_string(),
                factor: 2.0,
            })
        );
        assert_eq!(parse_ratio_spec("a=b=0"), None, "factor > 0");
        assert_eq!(parse_ratio_spec("a=b"), None, "three fields");
        assert_eq!(parse_ratio_spec("a=b=2.0=x"), None, "exactly three");
        assert_eq!(parse_ratio_spec("=b=2.0"), None, "non-empty numerator");
        assert_eq!(parse_ratio_spec("a==2.0"), None, "non-empty denominator");
    }

    #[test]
    fn ratio_check_verdicts() {
        // The CI verify-cost guard: collide verification recomputes two
        // tags per sub-solution instead of one, so its batch-256 bill
        // must stay within 2x the prefix path's.
        let entries = parse_report(SAMPLE);
        // 650000 / 367214.8 = 1.77x: meets 2.0, not 1.5.
        let req = |factor| RatioReq {
            numerator: "backend/collide_verify_batch/256".to_string(),
            denominator: "backend/verify_batch/256".to_string(),
            factor,
        };
        assert_eq!(check_ratio(&entries, &req(2.0)), Ok(true));
        assert_eq!(check_ratio(&entries, &req(1.5)), Ok(false));
        // A renamed/missing id is a hard error, never a silent pass.
        let missing = RatioReq {
            numerator: "backend/collide_verify_batch/16".to_string(),
            denominator: "backend/verify_batch/16".to_string(),
            factor: 2.0,
        };
        assert!(check_ratio(&entries, &missing).is_err());
    }

    #[test]
    fn classification_bands() {
        assert_eq!(classify(100.0, 149.0, 0.5), Verdict::Ok);
        assert_eq!(classify(100.0, 151.0, 0.5), Verdict::Regressed);
        assert_eq!(classify(100.0, 30.0, 0.5), Verdict::Improved);
        assert_eq!(classify(100.0, 100.0, 0.5), Verdict::Ok);
    }

    #[test]
    fn empty_input_yields_no_entries() {
        assert!(parse_report("{}").is_empty());
        assert!(parse_report("").is_empty());
    }
}
