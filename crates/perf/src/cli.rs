//! The `perf` command line: runs the benchmark suite and emits a
//! schema-versioned `BENCH_<git-sha>.json` report; optionally gates
//! against a baseline.
//!
//! ```text
//! perf [--quick] [--out FILE] [--check BASELINE] [--bless FILE]
//!      [--tolerance PCT] [--obs-gate PCT]
//! ```
//!
//! * `--quick` — smaller op counts (~1 s); what CI runs.
//! * `--out FILE` — report destination (default `BENCH_<sha>.json`).
//! * `--check FILE` — compare against a baseline report; exit 1 when any
//!   gated bench's events/sec fell more than the tolerance.
//! * `--bless FILE` — also write the fresh report to FILE (the re-bless
//!   flow for an intentional perf change).
//! * `--tolerance P` — gate threshold in percent (default 20).
//! * `--obs-gate P` — exit 1 when the observability recorder costs more
//!   than P percent events/sec (`end_to_end_obs_on` vs `_off`).
//!
//! Every requested gate is evaluated and its verdict logged before the
//! exit code is chosen: 2 when a gate could not be evaluated (unreadable
//! baseline, schema mismatch, missing bench), else 1 when any gate
//! failed, else 0.

use std::process::ExitCode;

use memnet_simcore::{memnet_log, memnet_warn};

use crate::{find_regressions, run_suite, BenchReport};

struct Args {
    quick: bool,
    out: Option<String>,
    check: Option<String>,
    bless: Option<String>,
    tolerance: f64,
    obs_gate: Option<f64>,
}

fn usage() -> &'static str {
    "usage: perf [--quick] [--out FILE] [--check BASELINE] [--bless FILE] \
     [--tolerance PCT] [--obs-gate PCT]"
}

fn parse_args() -> Result<Args, String> {
    let mut args =
        Args { quick: false, out: None, check: None, bless: None, tolerance: 20.0, obs_gate: None };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().ok_or_else(|| format!("{flag} needs a value"));
        match arg.as_str() {
            "--quick" => args.quick = true,
            "--out" => args.out = Some(value("--out")?),
            "--check" => args.check = Some(value("--check")?),
            "--bless" => args.bless = Some(value("--bless")?),
            "--tolerance" => {
                args.tolerance = value("--tolerance")?
                    .parse()
                    .map_err(|_| "--tolerance wants a number (percent)".to_owned())?;
            }
            "--obs-gate" => {
                args.obs_gate = Some(
                    value("--obs-gate")?
                        .parse()
                        .map_err(|_| "--obs-gate wants a number (percent)".to_owned())?,
                );
            }
            "--help" | "-h" => {
                println!("{}", usage());
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other:?} (try --help)")),
        }
    }
    Ok(args)
}

/// Entry point of the workspace-root `perf` binary
/// (`cargo run --release --bin perf`).
pub fn run() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            memnet_warn!("[perf] {msg}");
            return ExitCode::from(2);
        }
    };

    memnet_log!("[perf] running suite ({} mode)...", if args.quick { "quick" } else { "full" });
    let report = run_suite(args.quick);
    for b in &report.benches {
        let eps = b.events_per_sec.map(|e| format!(", {:.0} events/s", e)).unwrap_or_default();
        memnet_log!(
            "[perf]   {:<24} {:>10} ops  {:>9.1} ms  {:>9.1} ns/op{eps}",
            b.name,
            b.iters,
            b.wall_ms,
            b.per_iter_ns
        );
    }
    let rss = report
        .peak_rss_kb
        .map(|kb| format!("{kb} KiB"))
        .unwrap_or_else(|| "unavailable".to_owned());
    memnet_log!("[perf] peak RSS {rss}, git {}", report.git_sha);

    let out = args.out.clone().unwrap_or_else(|| report.filename());
    if let Err(e) = std::fs::write(&out, report.to_json() + "\n") {
        memnet_warn!("[perf] cannot write {out}: {e}");
        return ExitCode::from(2);
    }
    memnet_log!("[perf] wrote {out}");

    if let Some(path) = &args.bless {
        if let Err(e) = std::fs::write(path, report.to_json() + "\n") {
            memnet_warn!("[perf] cannot write baseline {path}: {e}");
            return ExitCode::from(2);
        }
        memnet_log!("[perf] blessed baseline {path}");
    }

    let mut verdicts = Vec::new();
    if let Some(path) = &args.check {
        let baseline = std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|text| BenchReport::from_json(&text).map_err(|e| format!("{e:?}")))
            .map_err(|e| format!("[perf] cannot load baseline {path}: {e}"));
        verdicts.push(regression_verdict(path, baseline, &report, args.tolerance));
    }
    if let Some(gate_pct) = args.obs_gate {
        verdicts.push(obs_verdict(&report, gate_pct));
    }
    for v in &verdicts {
        match v {
            Verdict::Pass(line) => memnet_log!("{line}"),
            Verdict::Fail(lines) => lines.iter().for_each(|l| memnet_warn!("{l}")),
            Verdict::Error(line) => memnet_warn!("{line}"),
        }
    }
    ExitCode::from(exit_status(&verdicts))
}

/// The exit status for a set of gate verdicts: 2 when any gate could not
/// be evaluated, else 1 when any failed, else 0.
fn exit_status(verdicts: &[Verdict]) -> u8 {
    if verdicts.iter().any(|v| matches!(v, Verdict::Error(_))) {
        2
    } else if verdicts.iter().any(|v| matches!(v, Verdict::Fail(_))) {
        1
    } else {
        0
    }
}

/// One gate's verdict, logged before `perf` picks its exit code.
#[derive(Debug)]
enum Verdict {
    /// The gate held; the line says by how much.
    Pass(String),
    /// The gate tripped, one line per failure (exit 1).
    Fail(Vec<String>),
    /// The gate could not be evaluated (exit 2).
    Error(String),
}

/// The baseline regression gate: no gated bench's events/sec may fall
/// more than `tolerance_pct` below `baseline`.
fn regression_verdict(
    path: &str,
    baseline: Result<BenchReport, String>,
    report: &BenchReport,
    tolerance_pct: f64,
) -> Verdict {
    let regs = match baseline.and_then(|b| {
        find_regressions(&b, report, tolerance_pct / 100.0).map_err(|e| format!("[perf] {e}"))
    }) {
        Ok(regs) => regs,
        Err(e) => return Verdict::Error(e),
    };
    if regs.is_empty() {
        return Verdict::Pass(format!(
            "[perf] gate passed: no bench regressed more than {tolerance_pct:.0}% vs {path}"
        ));
    }
    let mut lines: Vec<String> = regs
        .iter()
        .map(|r| {
            format!(
                "[perf] REGRESSION {}: {:.0} events/s vs baseline {:.0} ({:.1}% slower)",
                r.name,
                r.current,
                r.baseline,
                r.slowdown() * 100.0
            )
        })
        .collect();
    lines.push(format!(
        "[perf] gate failed; if this slowdown is intentional, re-bless with \
         `cargo run --release --bin perf -- --quick --bless {path}`"
    ));
    Verdict::Fail(lines)
}

/// The observability gate: the recorder may cost at most `gate_pct`
/// percent events/sec (`end_to_end_obs_on` vs `_off`).
fn obs_verdict(report: &BenchReport, gate_pct: f64) -> Verdict {
    let eps =
        |name: &str| report.benches.iter().find(|b| b.name == name).and_then(|b| b.events_per_sec);
    match (eps("end_to_end_obs_off"), eps("end_to_end_obs_on")) {
        (Some(off), Some(on)) if off > 0.0 => {
            let overhead_pct = (1.0 - on / off) * 100.0;
            if overhead_pct > gate_pct {
                Verdict::Fail(vec![format!(
                    "[perf] obs gate failed: recorder costs {overhead_pct:.2}% events/s \
                     ({on:.0} on vs {off:.0} off), limit {gate_pct}%"
                )])
            } else {
                Verdict::Pass(format!(
                    "[perf] obs gate passed: recorder costs {overhead_pct:.2}% events/s \
                     (limit {gate_pct}%)"
                ))
            }
        }
        _ => Verdict::Error("[perf] obs gate needs the end_to_end_obs_off/_on bench pair".into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BenchResult, BENCH_SCHEMA_VERSION};

    fn report(benches: &[(&str, f64)]) -> BenchReport {
        BenchReport {
            schema_version: BENCH_SCHEMA_VERSION,
            git_sha: "deadbee".to_owned(),
            quick: true,
            peak_rss_kb: None,
            benches: benches
                .iter()
                .map(|&(name, eps)| BenchResult {
                    name: name.to_owned(),
                    iters: 100,
                    wall_ms: 1.0,
                    per_iter_ns: 10.0,
                    ops_per_sec: eps,
                    events_per_sec: Some(eps),
                    replicas: None,
                    events_per_sec_per_replica: None,
                    allocations: None,
                })
                .collect(),
        }
    }

    #[test]
    fn a_report_failing_both_gates_yields_both_failures() {
        let baseline = report(&[("end_to_end_obs_off", 1e6), ("end_to_end_obs_on", 1e6)]);
        // Both benches 30 % below baseline, and obs-on 10 % below obs-off.
        let current = report(&[("end_to_end_obs_off", 0.7e6), ("end_to_end_obs_on", 0.63e6)]);
        let verdicts = [
            regression_verdict("base.json", Ok(baseline), &current, 20.0),
            obs_verdict(&current, 2.0),
        ];
        let [Verdict::Fail(regressions), Verdict::Fail(obs)] = &verdicts else {
            panic!("both gates must fail: {verdicts:?}");
        };
        assert_eq!(regressions.len(), 3, "two regressions and the re-bless hint");
        assert!(obs[0].contains("obs gate failed"), "{obs:?}");
        assert_eq!(exit_status(&verdicts), 1);
    }

    #[test]
    fn unevaluable_gates_are_errors_not_failures() {
        let current = report(&[("end_to_end_small", 1e6)]);
        let mut newer = current.clone();
        newer.schema_version += 1;
        let verdicts = [
            regression_verdict("b.json", Ok(newer), &current, 20.0),
            regression_verdict("b.json", Err("missing".into()), &current, 20.0),
            obs_verdict(&current, 2.0),
        ];
        assert!(verdicts.iter().all(|v| matches!(v, Verdict::Error(_))), "{verdicts:?}");
        assert_eq!(exit_status(&verdicts), 2);
        // An error outranks a failure; a clean pass exits 0.
        let failed =
            obs_verdict(&report(&[("end_to_end_obs_off", 1.0), ("end_to_end_obs_on", 0.5)]), 2.0);
        assert_eq!(exit_status(&[failed, obs_verdict(&current, 2.0)]), 2);
        let pass = regression_verdict("b.json", Ok(current.clone()), &current, 20.0);
        assert!(matches!(pass, Verdict::Pass(_)));
        assert_eq!(exit_status(&[pass]), 0);
    }
}
