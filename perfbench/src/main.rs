//! The memnet benchmark: four workloads driven through memnet's public
//! API from one process.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload sweep-cold --seed 1 --seconds 12 --trace 0
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --selftest
//! ```
//!
//! An untraced run (`--trace 0`) prints every end-to-end metric; a traced
//! run (`--trace 1`) records spans around the calls it makes into each
//! module, writes them to `.perfbench_out/` when it ends, and prints every
//! per-layer metric. Each run checks every output it times and prints, as
//! its last line, one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`; it exits non-zero when any check failed.
//!
//! Workloads and metrics are declared in the repository's
//! `BENCHMARK.json`, which the binary reads at start-up from the working
//! directory; `perfbench/map.json` says which layers each workload loads
//! and which end-to-end metric each per-layer metric should move.

mod common;
mod layers;
mod serve;
mod sweeps;

use std::path::PathBuf;
use std::process::ExitCode;

use common::{Ctx, Outcome, Spans};
use serde::json::{self, Value};

/// The seed whose outputs are pinned below.
pub const DEFAULT_SEED: u64 = 1;

/// Output digests at [`DEFAULT_SEED`]: FNV-1a of the first round's
/// reports (fingerprints excluded, so a cache-schema bump alone does not
/// move them) and, for `serve-open`, of the offline payloads of its
/// leading manifests. A change that alters any simulated statistic moves
/// them and fails the run.
pub const PINNED: &[(&str, &str)] = &[
    ("sweep-cold", "6b615da91d1816a4"),
    ("sweep-warm", "fe0e0f9457889580"),
    ("sweep-seeds", "fc4e462a47a8287d"),
    ("serve-open", "fa99170e5995fc8b"),
];

/// What `BENCHMARK.json` declares: the workload names and the
/// end-to-end and per-layer metrics with their units, in file order.
pub struct Declared {
    pub workloads: Vec<String>,
    pub end_to_end: Vec<(String, String)>,
    pub per_layer: Vec<(String, String)>,
}

/// The `(name, unit)` pairs of the array `key` of `v`.
fn names(v: &Value, key: &str) -> Vec<(String, String)> {
    let Ok(items) = v.get(key).and_then(|a| a.as_array().map(|a| a.to_vec())) else {
        return Vec::new();
    };
    items
        .iter()
        .map(|m| {
            let s = |k| m.get(k).and_then(|x| x.as_str().map(str::to_owned)).unwrap_or_default();
            (s("name"), s("unit"))
        })
        .collect()
}

/// Reads the declarations from `BENCHMARK.json` in the working directory
/// (the root of the checkout).
fn declared() -> Result<Declared, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("cannot read BENCHMARK.json: {e}"))?;
    let v = json::parse(&text).map_err(|e| format!("BENCHMARK.json: {}", e.0))?;
    let d = Declared {
        workloads: names(&v, "workloads").into_iter().map(|(n, _)| n).collect(),
        end_to_end: names(&v, "end_to_end"),
        per_layer: names(&v, "per_layer"),
    };
    if d.workloads.is_empty() || d.end_to_end.is_empty() || d.per_layer.is_empty() {
        return Err("BENCHMARK.json declares no workloads or no metrics".to_owned());
    }
    Ok(d)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    selftest: bool,
}

fn parse_args(workloads: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        selftest: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--selftest" => args.selftest = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !args.selftest && !workloads.contains(&args.workload) {
        return Err(format!("--workload must be one of {}", workloads.join(", ")));
    }
    Ok(args)
}

/// Runs one workload in a fresh scratch directory under the checkout.
pub fn run_workload(workload: &str, seed: u64, seconds: f64, trace: bool, tiny: bool) -> Outcome {
    let work = PathBuf::from(".perfbench_work").join(format!("{workload}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work).expect("scratch directory is writable");
    let ctx = Ctx { seed, seconds, trace, tiny, work: work.clone(), spans: Spans::new(trace) };
    let mut out = match workload {
        "sweep-cold" => sweeps::cold(&ctx),
        "sweep-warm" => sweeps::warm(&ctx),
        "sweep-seeds" => sweeps::seeds(&ctx),
        "serve-open" => serve::open(&ctx),
        other => unreachable!("unknown workload {other}"),
    };
    if trace {
        let dir = PathBuf::from(".perfbench_out");
        let path = dir.join(format!("spans-{workload}-seed{seed}.jsonl"));
        let written = std::fs::create_dir_all(&dir).and_then(|()| ctx.spans.write(&path));
        for (name, (total, own)) in ctx.spans.self_times() {
            out.notes.push(format!("span {name}: total {total:.6} s, self {own:.6} s"));
        }
        if let Err(e) = written {
            eprintln!("[perfbench] cannot write spans to {}: {e}", path.display());
        }
    }
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(".perfbench_work");
    out
}

/// The metrics a run prints, in declaration order; a declared metric the
/// workload did not produce is a failed check.
fn emitted<'a>(out: &mut Outcome, d: &'a Declared, trace: bool) -> Vec<(&'a str, f64, &'a str)> {
    let (declared, values) =
        if trace { (&d.per_layer, &out.layer) } else { (&d.end_to_end, &out.e2e) };
    let mut metrics = Vec::new();
    let mut missing = Vec::new();
    for (name, unit) in declared {
        match values.get(name.as_str()) {
            Some(&v) if v.is_finite() => metrics.push((name.as_str(), v, unit.as_str())),
            _ => missing.push(name),
        }
    }
    for name in missing {
        out.check(false, || format!("metric {name} was not produced"));
    }
    metrics
}

fn result_json(out: &Outcome, metrics: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v:?}, \"unit\": \"{u}\"}}"))
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0,
        out.attempted.max(1),
        out.failed,
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let parsed = declared().and_then(|d| Ok((parse_args(&d.workloads)?, d)));
    let (args, d) = match parsed {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.selftest {
        return selftest::run(&d);
    }
    let mut out = run_workload(&args.workload, args.seed, args.seconds, args.trace, false);
    let metrics = emitted(&mut out, &d, args.trace);
    for note in &out.notes {
        println!("# {note}");
    }
    for (name, value, unit) in &metrics {
        println!("{name} = {value} {unit}");
    }
    println!(
        "failed_frac = {} ({} of {})",
        out.failed as f64 / out.attempted.max(1) as f64,
        out.failed,
        out.attempted
    );
    println!("{}", result_json(&out, &metrics));
    if out.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `--selftest`: every workload at tiny scale in both modes, the layer
/// map against `BENCHMARK.json`, and proof that one flipped byte in a
/// sweep file or a payload counts as a failed operation.
mod selftest {
    use std::process::ExitCode;

    use memnet_bench::shard::{self, Shard, SweepPlan};
    use memnet_bench::{Matrix, Settings};
    use memnet_serve::{job, Manifest};
    use memnet_simcore::SimDuration;
    use serde::json;

    use crate::common::{Outcome, Spans};
    use crate::{emitted, run_workload, serve, sweeps, Declared, DEFAULT_SEED};

    pub fn run(d: &Declared) -> ExitCode {
        let mut problems: Vec<String> = Vec::new();
        layer_map(d, &mut problems);
        for w in &d.workloads {
            for trace in [false, true] {
                let mut out = run_workload(w, DEFAULT_SEED, 1.0, trace, true);
                let n = emitted(&mut out, d, trace).len();
                let want = if trace { d.per_layer.len() } else { d.end_to_end.len() };
                if n != want || out.failed > 0 || out.attempted == 0 {
                    problems.push(format!(
                        "{w} trace={trace}: {n} of {want} metrics, {} of {} operations failed",
                        out.failed, out.attempted
                    ));
                }
                println!(
                    "selftest: {w} trace={trace}: {n} metrics, {} operations checked",
                    out.attempted
                );
            }
        }
        flipped_sweep_byte(&mut problems);
        flipped_payload_byte(&mut problems);
        for p in &problems {
            eprintln!("selftest FAILED: {p}");
        }
        if problems.is_empty() {
            println!("selftest: ok");
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        }
    }

    /// `perfbench/map.json` must place every declared per-layer metric and
    /// workload, and record the serve rates the benchmark uses.
    fn layer_map(d: &Declared, problems: &mut Vec<String>) {
        let map = std::fs::read_to_string("perfbench/map.json")
            .map_err(|e| e.to_string())
            .and_then(|t| json::parse(&t).map_err(|e| e.0));
        let map = match map {
            Ok(m) => m,
            Err(e) => return problems.push(format!("perfbench/map.json: {e}")),
        };
        for (name, _) in &d.per_layer {
            let entry = map.get("per_layer").and_then(|m| m.get(name));
            if !entry.is_ok_and(|e| e.get("moves").is_ok() && e.get("on").is_ok()) {
                problems.push(format!("map.json has no moves/on entry for {name}"));
            }
        }
        for w in &d.workloads {
            let entry = map.get("workloads").and_then(|m| m.get(w));
            if !entry.is_ok_and(|e| e.get("loads").is_ok() && e.get("bypasses").is_ok()) {
                problems.push(format!("map.json has no loads/bypasses entry for {w}"));
            }
        }
        let rate =
            |k| map.get("serve_rates").and_then(|r| r.get(k)).and_then(|v| v.num::<f64>()).ok();
        if rate("light_jobs_per_s") != Some(serve::LIGHT_RATE)
            || rate("heavy_jobs_per_s") != Some(serve::HEAVY_RATE)
        {
            problems.push("map.json serve rates differ from the benchmark's".into());
        }
    }
    /// Changes the first digit of the first report in `text` after byte
    /// offset `from`.
    fn flip_digit(text: &str, from: usize) -> String {
        let mut bytes = text.as_bytes().to_vec();
        let at = from + bytes[from..].iter().position(u8::is_ascii_digit).expect("a digit to flip");
        bytes[at] = if bytes[at] == b'9' { b'0' } else { bytes[at] + 1 };
        String::from_utf8(bytes).expect("digits stay ASCII")
    }

    fn flipped_sweep_byte(problems: &mut Vec<String>) {
        let settings =
            Settings { eval_period: SimDuration::from_us(2), threads: 2, ..Settings::default() };
        let plan = SweepPlan::new(&["stress".to_owned()], &settings).expect("registry figure");
        let (reference, _) = shard::run_shard(&plan, Shard::full(), &settings, &mut Matrix::new())
            .expect("stress cells");
        let texts: Vec<String> = (0..2)
            .map(|i| {
                let mut m = Matrix::new();
                shard::run_shard(&plan, Shard { index: i, of: 2 }, &settings, &mut m)
                    .expect("stress cells")
                    .0
            })
            .collect();
        let spans = Spans::new(false);
        let tr = spans.tracer(0, false);
        let mut cases = vec![("intact", texts.clone(), false)];
        let entry = texts[1].find("\"report\":").expect("shard 1 holds a cell");
        cases.push(("digit", vec![texts[0].clone(), flip_digit(&texts[1], entry)], true));
        let mut broken = texts[1].clone().into_bytes();
        broken[entry] = b'[';
        cases.push((
            "syntax",
            vec![texts[0].clone(), String::from_utf8(broken).expect("ASCII")],
            true,
        ));
        for (what, case, must_fail) in cases {
            let mut out = Outcome::default();
            let (merged, _, _) = sweeps::merge_texts(&case, &tr, None);
            sweeps::check_merged(&mut out, 0, merged.as_deref(), &reference);
            if (out.failed > 0) != must_fail {
                problems.push(format!(
                    "sweep file with a {what} change: {} failures counted",
                    out.failed
                ));
            }
        }
    }

    fn flipped_payload_byte(problems: &mut Vec<String>) {
        let text = "{\"schema\":\"memnet-manifest\",\"v\":1,\"run\":{\"workload\":\"mixD\",\"eval_us\":10,\"seed\":3}}";
        let manifest = Manifest::parse(text).expect("self-test manifest parses");
        let payload = job::run_manifest(&manifest).expect("self-test manifest runs");
        let got = json::to_string(&payload);
        if !serve::payload_ok(&got, &payload) {
            problems.push("an intact payload was counted as a failure".into());
        }
        let at = got.find("\"report\":").expect("payload has a report");
        if serve::payload_ok(&flip_digit(&got, at), &payload) {
            problems.push("a payload with one flipped byte passed the check".into());
        }
    }
}
