//! Performance microbenchmarks and the perf-regression gate.
//!
//! This crate owns three things:
//!
//! 1. **Benchmark kernels** ([`kernels`]): small, deterministic workloads
//!    exercising one hot component each — the event queue, link-energy
//!    pricing, fault-model draws, a policy epoch (AMS/ISP step) and an
//!    end-to-end simulation. The `components` criterion bench and the
//!    `perf` binary both run these, so interactive `cargo bench` numbers
//!    and CI gate numbers measure the same code.
//! 2. **The report format** ([`BenchReport`]): a schema-versioned JSON
//!    document (`BENCH_<git-sha>.json`) with wall time and derived
//!    throughput per bench, peak RSS, and (behind the `perf-alloc`
//!    feature) allocation counts.
//! 3. **The regression gate** ([`find_regressions`]): compares a fresh
//!    report against a checked-in baseline and flags any bench whose
//!    simulator events/sec fell by more than the tolerance (CI uses 20 %).
//!
//! The gate intentionally keys on *events/sec of the end-to-end bench*,
//! not on microbenchmark wall times: sub-microsecond component timings are
//! too noisy on shared CI runners to gate at 20 %, while a real hot-path
//! regression always shows up in end-to-end event throughput.

use std::time::Instant;

use serde::{json, Deserialize, Serialize};

pub mod cli;
pub mod kernels;

/// Bump when the [`BenchReport`] layout changes; the gate refuses to
/// compare reports across schema versions (re-bless instead).
///
/// History: v2 added the multi-seed bench and the per-replica
/// throughput fields (`replicas`, `events_per_sec_per_replica`).
pub const BENCH_SCHEMA_VERSION: u32 = 2;

#[cfg(feature = "perf-alloc")]
mod counting_alloc {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Total allocation calls (alloc + realloc) since process start.
    pub static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

    /// System allocator wrapper counting allocation calls.
    pub struct CountingAllocator;

    // SAFETY: delegates every operation to `System`; the counter is a
    // relaxed atomic with no allocation of its own.
    unsafe impl GlobalAlloc for CountingAllocator {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
            unsafe { System.alloc(layout) }
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            unsafe { System.dealloc(ptr, layout) }
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
            unsafe { System.realloc(ptr, layout, new_size) }
        }
    }

    #[global_allocator]
    static GLOBAL: CountingAllocator = CountingAllocator;
}

/// Allocation calls so far, when built with `--features perf-alloc`;
/// `None` otherwise.
pub fn allocations() -> Option<u64> {
    #[cfg(feature = "perf-alloc")]
    {
        Some(counting_alloc::ALLOCATIONS.load(std::sync::atomic::Ordering::Relaxed))
    }
    #[cfg(not(feature = "perf-alloc"))]
    {
        None
    }
}

/// One benchmark's measurement.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BenchResult {
    /// Stable bench name (the gate matches baselines by this).
    pub name: String,
    /// Inner operations performed (events, draws, pricings, …).
    pub iters: u64,
    /// Total wall time in milliseconds.
    pub wall_ms: f64,
    /// Wall time per inner operation in nanoseconds.
    pub per_iter_ns: f64,
    /// Inner operations per second (1e9 / `per_iter_ns`).
    pub ops_per_sec: f64,
    /// Simulator events per second; set only by end-to-end benches, and
    /// the only metric the regression gate keys on. For multi-replica
    /// benches this is the *aggregate* over all replicas.
    pub events_per_sec: Option<f64>,
    /// Replica count of a multi-seed bench (`None` for single runs).
    pub replicas: Option<u64>,
    /// `events_per_sec / replicas` — per-replica throughput, the number
    /// to compare against a single-run bench's events/sec.
    pub events_per_sec_per_replica: Option<f64>,
    /// Allocation calls during the measurement (`perf-alloc` builds only).
    pub allocations: Option<u64>,
}

/// A full benchmark run, serialized as `BENCH_<git-sha>.json`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BenchReport {
    /// [`BENCH_SCHEMA_VERSION`] at write time.
    pub schema_version: u32,
    /// `git rev-parse --short HEAD`, or `"unknown"` outside a checkout.
    pub git_sha: String,
    /// Whether the suite ran in `--quick` mode (smaller op counts).
    pub quick: bool,
    /// Peak resident set size in KiB (`VmHWM`), or `null` where procfs
    /// does not expose it (non-Linux hosts, restricted containers). A
    /// missing measurement must read as missing, not as an impossible
    /// 0 KiB peak.
    pub peak_rss_kb: Option<u64>,
    /// Per-bench measurements, in suite order.
    pub benches: Vec<BenchResult>,
}

impl BenchReport {
    /// The canonical output filename for this report.
    pub fn filename(&self) -> String {
        format!("BENCH_{}.json", self.git_sha)
    }

    /// Serializes the report to JSON text.
    pub fn to_json(&self) -> String {
        json::to_string(self)
    }

    /// Parses a report from JSON text.
    pub fn from_json(text: &str) -> Result<BenchReport, serde::de::Error> {
        json::from_str(text)
    }
}

/// One gate failure: a bench whose events/sec fell below tolerance.
#[derive(Debug, Clone)]
pub struct Regression {
    /// The bench that regressed (or disappeared).
    pub name: String,
    /// Baseline events/sec.
    pub baseline: f64,
    /// Current events/sec (0.0 when the bench vanished from the suite).
    pub current: f64,
}

impl Regression {
    /// Fractional slowdown, e.g. 0.25 for a 25 % drop.
    pub fn slowdown(&self) -> f64 {
        if self.baseline <= 0.0 {
            0.0
        } else {
            1.0 - self.current / self.baseline
        }
    }
}

/// Compares `current` against `baseline`, returning every gated bench
/// whose events/sec dropped by more than `tolerance` (0.20 = 20 %).
///
/// Only benches reporting [`BenchResult::events_per_sec`] participate; a
/// gated baseline bench missing from `current` counts as a regression
/// (silently dropping the end-to-end bench must not pass the gate).
///
/// # Errors
///
/// Returns an error when the schema versions differ — numbers across
/// schema changes are not comparable; re-bless the baseline instead.
pub fn find_regressions(
    baseline: &BenchReport,
    current: &BenchReport,
    tolerance: f64,
) -> Result<Vec<Regression>, String> {
    if baseline.schema_version != current.schema_version {
        return Err(format!(
            "schema mismatch: baseline v{}, current v{} — re-bless the baseline",
            baseline.schema_version, current.schema_version
        ));
    }
    let mut out = Vec::new();
    for base in &baseline.benches {
        let Some(base_eps) = base.events_per_sec else { continue };
        let cur_eps = current
            .benches
            .iter()
            .find(|b| b.name == base.name)
            .and_then(|b| b.events_per_sec)
            .unwrap_or(0.0);
        if cur_eps < base_eps * (1.0 - tolerance) {
            out.push(Regression { name: base.name.clone(), baseline: base_eps, current: cur_eps });
        }
    }
    Ok(out)
}

/// `git rev-parse --short HEAD`, or `"unknown"` when git or the checkout
/// is unavailable (e.g. a source tarball).
pub fn git_sha() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Peak resident set size in KiB from `/proc/self/status` (`VmHWM`), or
/// `None` where procfs is unavailable or does not carry the field. Warns
/// once per process on the first failed read so reports silently carrying
/// `null` still leave a trail in the log.
pub fn peak_rss_kb() -> Option<u64> {
    static WARNED: std::sync::Once = std::sync::Once::new();
    let parsed = std::fs::read_to_string("/proc/self/status").ok().and_then(|status| {
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|kb| kb.parse().ok())
    });
    if parsed.is_none() {
        WARNED.call_once(|| {
            memnet_simcore::memnet_warn!(
                "[perf] peak RSS unavailable (/proc/self/status has no readable VmHWM); reporting null"
            );
        });
    }
    parsed
}

/// Times `ops` inner operations of `f`, attributing allocation deltas
/// when the counting allocator is compiled in.
fn timed<R>(name: &str, ops: u64, mut f: impl FnMut() -> R) -> BenchResult {
    let alloc_before = allocations();
    let start = Instant::now();
    std::hint::black_box(f());
    let wall = start.elapsed();
    let wall_s = wall.as_secs_f64().max(1e-12);
    BenchResult {
        name: name.to_owned(),
        iters: ops,
        wall_ms: wall_s * 1e3,
        per_iter_ns: wall_s * 1e9 / ops as f64,
        ops_per_sec: ops as f64 / wall_s,
        events_per_sec: None,
        replicas: None,
        events_per_sec_per_replica: None,
        allocations: alloc_before.and_then(|b| allocations().map(|a| a - b)),
    }
}

/// Times an end-to-end simulation bench: runs `f` `repeats` times, keeps
/// the fastest run (damping one-off costs and scheduler noise) and
/// derives events/sec from the report's `events_processed`.
fn end_to_end_bench(
    name: &str,
    repeats: u32,
    mut f: impl FnMut() -> memnet_core::RunReport,
) -> BenchResult {
    let mut best: Option<BenchResult> = None;
    for _ in 0..repeats.max(1) {
        let mut events = 0u64;
        let mut result = timed(name, 1, || {
            let report = f();
            events = report.events_processed;
            report.completed_reads
        });
        result.iters = events;
        result.per_iter_ns = result.wall_ms * 1e6 / events.max(1) as f64;
        result.ops_per_sec = events as f64 / (result.wall_ms / 1e3);
        result.events_per_sec = Some(result.ops_per_sec);
        if best.as_ref().is_none_or(|b| result.wall_ms < b.wall_ms) {
            best = Some(result);
        }
    }
    best.expect("at least one repeat")
}

/// Times a multi-replica end-to-end bench: like [`end_to_end_bench`],
/// but `f` yields one report per replica, events are the aggregate over
/// all replicas, and the per-replica throughput fields are filled in.
fn end_to_end_many_bench(
    name: &str,
    repeats: u32,
    mut f: impl FnMut() -> Vec<memnet_core::RunReport>,
) -> BenchResult {
    let mut best: Option<BenchResult> = None;
    for _ in 0..repeats.max(1) {
        let mut events = 0u64;
        let mut replicas = 0u64;
        let mut result = timed(name, 1, || {
            let reports = f();
            replicas = reports.len() as u64;
            events = reports.iter().map(|r| r.events_processed).sum();
            reports.iter().map(|r| r.completed_reads).sum::<u64>()
        });
        result.iters = events;
        result.per_iter_ns = result.wall_ms * 1e6 / events.max(1) as f64;
        result.ops_per_sec = events as f64 / (result.wall_ms / 1e3);
        result.events_per_sec = Some(result.ops_per_sec);
        result.replicas = Some(replicas);
        result.events_per_sec_per_replica = Some(result.ops_per_sec / replicas.max(1) as f64);
        if best.as_ref().is_none_or(|b| result.wall_ms < b.wall_ms) {
            best = Some(result);
        }
    }
    best.expect("at least one repeat")
}

/// Runs the full suite and assembles the report. `quick` shrinks the op
/// counts for CI (~1 s total) without changing the bench set.
pub fn run_suite(quick: bool) -> BenchReport {
    let scale = if quick { 1 } else { 10 };
    let mut benches = Vec::new();

    let n = 50_000 * scale;
    benches.push(timed("event_queue_push_pop", n, || kernels::event_queue_churn(n, 11)));

    let n = 20_000 * scale;
    benches.push(timed("link_energy_pricing", n, || kernels::link_pricing(n)));

    let n = 100_000 * scale;
    benches.push(timed("fault_model_draw", n, || kernels::fault_draws(n, 42)));

    let n = 200 * scale;
    benches.push(timed("policy_epoch_ams_isp", n, || kernels::policy_epochs(n)));

    let eval_us = if quick { 50 } else { 400 };
    benches.push(end_to_end_bench("end_to_end_small", 1, || kernels::end_to_end(eval_us, 7)));

    // Observability overhead pair: the same end-to-end run with the
    // recorder off and on, long enough (>= 200 us) to cross several epoch
    // boundaries so the per-epoch sampler is actually on the measured
    // path. Best-of-N damps scheduler noise; `--obs-gate` compares the
    // two events/sec figures.
    let obs_eval_us = if quick { 200 } else { 400 };
    benches.push(end_to_end_bench("end_to_end_obs_off", 3, || {
        kernels::end_to_end_obs(obs_eval_us, 7, false)
    }));
    benches.push(end_to_end_bench("end_to_end_obs_on", 3, || {
        kernels::end_to_end_obs(obs_eval_us, 7, true)
    }));

    // Multi-seed bench: K replicas of one configuration, one engine per
    // seed, run back to back; reports aggregate and per-replica events/sec.
    let seeds = kernels::multi_seed_seeds();
    let ms_eval_us = if quick { 100 } else { 300 };
    benches.push(end_to_end_many_bench("end_to_end_multi_seed_solo", 2, || {
        kernels::end_to_end_multi_seed_solo(ms_eval_us, &seeds)
    }));

    BenchReport {
        schema_version: BENCH_SCHEMA_VERSION,
        git_sha: git_sha(),
        quick,
        peak_rss_kb: peak_rss_kb(),
        benches,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake_report(eps: f64) -> BenchReport {
        BenchReport {
            schema_version: BENCH_SCHEMA_VERSION,
            git_sha: "deadbee".to_owned(),
            quick: true,
            peak_rss_kb: Some(1),
            benches: vec![BenchResult {
                name: "end_to_end_small".to_owned(),
                iters: 100,
                wall_ms: 1.0,
                per_iter_ns: 10.0,
                ops_per_sec: eps,
                events_per_sec: Some(eps),
                replicas: None,
                events_per_sec_per_replica: None,
                allocations: None,
            }],
        }
    }

    #[test]
    fn report_round_trips_through_json() {
        let report = fake_report(1e6);
        let back = BenchReport::from_json(&report.to_json()).unwrap();
        assert_eq!(back.schema_version, report.schema_version);
        assert_eq!(back.git_sha, report.git_sha);
        assert_eq!(back.benches.len(), 1);
        assert_eq!(back.benches[0].events_per_sec, Some(1e6));
        assert_eq!(back.filename(), "BENCH_deadbee.json");
    }

    #[test]
    fn gate_passes_within_tolerance_and_fails_beyond() {
        let base = fake_report(1e6);
        // 10 % down: inside a 20 % gate.
        assert!(find_regressions(&base, &fake_report(0.9e6), 0.20).unwrap().is_empty());
        // 25 % down: outside.
        let regs = find_regressions(&base, &fake_report(0.75e6), 0.20).unwrap();
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].name, "end_to_end_small");
        assert!((regs[0].slowdown() - 0.25).abs() < 1e-9);
        // Faster is never a regression.
        assert!(find_regressions(&base, &fake_report(2e6), 0.20).unwrap().is_empty());
    }

    #[test]
    fn gate_flags_missing_bench_and_schema_mismatch() {
        let base = fake_report(1e6);
        let mut empty = fake_report(1e6);
        empty.benches.clear();
        let regs = find_regressions(&base, &empty, 0.20).unwrap();
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].current, 0.0);

        let mut newer = fake_report(1e6);
        newer.schema_version += 1;
        assert!(find_regressions(&base, &newer, 0.20).is_err());
    }
}
