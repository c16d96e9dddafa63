//! The three sweep workloads: `sweep-cold`, `sweep-warm` and
//! `sweep-seeds`, all driven through `memnet_bench::Matrix`.

use std::path::{Path, PathBuf};
use std::time::Instant;

use memnet_bench::figures::{SCALES, SWEEP_FIGURES, TOPOS};
use memnet_bench::shard::{self, Shard, SweepPlan};
use memnet_bench::{DiskCache, Key, Matrix, Settings};
use memnet_core::{PolicyKind, RunReport, SimConfig};
use memnet_faults::FaultConfig;
use memnet_net::mech::RooParams;
use memnet_obs::ObsConfig;
use memnet_policy::Mechanism;
use memnet_simcore::SimDuration;
use serde::json;

use crate::common::{fnv64, median, peak_rss_mb, time_median, Ctx, Outcome};
use crate::layers;

/// Sweep worker threads of the timed rounds. The host this benchmark is
/// sized for has two vCPUs, but how much of the second one it gets swings
/// from nothing to all of it within seconds, which makes two-thread wall
/// times bimodal; one thread repeats within a few percent.
pub const THREADS: usize = 1;
/// Threads of the traced round that measures worker-pool utilisation.
const POOL_THREADS: usize = 2;
/// Rounds measured even when the window is shorter than they take.
const MIN_ROUNDS: usize = 3;
/// Cold and multi-seed set-ups timed before the first round and again
/// before every round; `setup_s` is their median over the run. One takes
/// microseconds while the host's speed drifts over seconds, so bursts
/// spread over the window sample the same host states as the rounds.
const SETUP_BURST: usize = 11;
/// Warm set-ups per run (each simulates the whole figure set); `setup_s`
/// is their median.
const WARM_SETUPS: usize = 3;

/// Workloads of the cold plan: high (`mixB`, 75 %) and low (`sp.D`, 8 %)
/// utilisation, a large footprint (`is.D`, 36 GB) and a wake-chain
/// stress pattern.
const COLD_WORKLOADS: [&str; 4] = ["mixB", "sp.D", "is.D", "adv.wakestorm"];
/// Power-management configurations of the cold plan.
const COLD_CONFIGS: [(PolicyKind, Mechanism); 4] = [
    (PolicyKind::FullPower, Mechanism::FullPower),
    (PolicyKind::NetworkUnaware, Mechanism::VwlRoo),
    (PolicyKind::NetworkAware, Mechanism::VwlRoo),
    (PolicyKind::NetworkAware, Mechanism::DvfsRoo),
];
/// Cold evaluation period: three 100 µs management epochs.
const COLD_EVAL_US: u64 = 300;
/// Evaluation period of the pre-filled warm cache (results only need to
/// exist; their length does not change what a warm round does).
const WARM_EVAL_US: u64 = 2;
/// Multi-seed plan: three keys (not a multiple of the thread count),
/// each under four seeds.
const SEEDS_PER_KEY: usize = 4;
const SEEDS_EVAL_US: u64 = 300;

/// Derives the sweep base seed from the workload seed.
fn sweep_seed(ctx: &Ctx) -> u64 {
    ctx.rng(0x5EED).next_u64() >> 1
}

/// The cold plan: each workload on each topology once, with the scale
/// and power configuration laid out as a Latin square, so every
/// configuration meets every workload and topology once and each scale
/// twice (a sixteenth of the full cross, sized for one-thread rounds).
fn cold_keys(ctx: &Ctx) -> Vec<Key> {
    let workloads: &[&'static str] = if ctx.tiny { &COLD_WORKLOADS[..1] } else { &COLD_WORKLOADS };
    let mut keys = Vec::new();
    for (w, &name) in workloads.iter().enumerate() {
        for (t, topo) in TOPOS.into_iter().enumerate() {
            let scale = SCALES[(w + t / 2) % SCALES.len()];
            let (p, m) = COLD_CONFIGS[(w + t) % COLD_CONFIGS.len()];
            keys.push(Key::main(name, topo, scale, p, m, 0.05));
        }
    }
    keys
}

/// Three keys of similar cost (one workload and network under three
/// policies), so with one job per key the two-thread pool runs two jobs
/// and then one: a worker idles for a third of the round.
fn seeds_keys() -> Vec<Key> {
    use memnet_core::NetworkScale::Small;
    use memnet_net::TopologyKind::TernaryTree;
    use Mechanism::{Roo, VwlRoo};
    use PolicyKind::{NetworkAware, NetworkUnaware};
    [(NetworkAware, VwlRoo), (NetworkUnaware, VwlRoo), (NetworkAware, Roo)]
        .into_iter()
        .map(|(p, m)| Key::main("mixD", TernaryTree, Small, p, m, 0.05))
        .collect()
}

/// The configuration a plain matrix key simulates, built independently
/// of the matrix: the oracle every sweep cell is checked against.
pub fn solo_config(key: &Key, eval: SimDuration, seed: u64, obs: bool) -> SimConfig {
    let roo = if key.roo_wakeup_ns == 20 { RooParams::slow() } else { RooParams::fast() };
    let mut b = SimConfig::builder()
        .workload(key.workload)
        .topology(key.topology)
        .scale(key.scale)
        .policy(key.policy)
        .mechanism(key.mechanism)
        .alpha(key.alpha().max(0.001))
        .roo_params(roo)
        .mapping(key.mapping)
        .faults(FaultConfig::parse(&key.faults).expect("plan fault specs are valid"))
        .eval_period(eval)
        .seed(seed)
        .energy_backend(key.energy);
    if obs {
        b = b.obs(ObsConfig { enabled: true, ..ObsConfig::off() });
    }
    b.build().expect("plan keys are valid configurations")
}

/// One rendered cell per line, in the format of a sweep file's entries.
fn render(m: &Matrix, cells: &[(Key, u64)], settings: &Settings) -> Vec<String> {
    cells
        .iter()
        .map(|(k, s)| {
            format!(
                "{{\"fp\":{},\"report\":{}}}",
                json::to_string(k.fingerprint_at(settings, *s).as_str()),
                json::to_string(m.get_seeded(k, *s))
            )
        })
        .collect()
}

/// Result of one cold (simulating) round.
struct SimRound {
    wall: f64,
    lines: Vec<String>,
    events: u64,
    hits: usize,
    simulated: usize,
}

/// Runs one simulating round of `keys` under every seed of `settings`
/// into a fresh cache directory.
fn sim_round(
    ctx: &Ctx,
    round: u64,
    traced: bool,
    keys: &[Key],
    settings: &Settings,
    dir: PathBuf,
) -> SimRound {
    let settings = Settings { cache_dir: Some(dir), ..settings.clone() };
    let cells: Vec<(Key, u64)> = keys
        .iter()
        .flat_map(|k| settings.seed_list().into_iter().map(move |s| (k.clone(), s)))
        .collect();
    let tr = ctx.spans.tracer(round, traced);
    let t = Instant::now();
    let root = tr.open("round", None);
    let mut m = Matrix::new();
    let stats =
        tr.time("ensure", root, || m.ensure(keys, &settings)).expect("plan keys are simulable");
    let lines = tr.time("render", root, || render(&m, &cells, &settings));
    tr.close(root);
    let wall = t.elapsed().as_secs_f64();
    let events = cells.iter().map(|(k, s)| m.get_seeded(k, *s).events_processed).sum();
    SimRound { wall, lines, events, hits: stats.cache_hits, simulated: stats.simulated }
}

/// Runs rounds until the window closes. In traced runs even rounds are
/// traced and odd rounds are not, so tracing overhead is measured.
fn measure<R>(
    ctx: &Ctx,
    mut round: impl FnMut(u64, bool) -> R,
    wall: impl Fn(&R) -> f64,
) -> Vec<(R, bool)> {
    let start = Instant::now();
    let mut out = Vec::new();
    let min = if ctx.tiny { 1 } else { MIN_ROUNDS };
    let mut i = 0u64;
    let mut walls = Vec::new();
    while out.len() < min || start.elapsed().as_secs_f64() < ctx.seconds {
        let traced = ctx.trace && i.is_multiple_of(2);
        let r = round(i, traced);
        walls.push(format!("{:.0}", wall(&r) * 1e3));
        out.push((r, traced));
        i += 1;
    }
    eprintln!("[perfbench] round walls (ms): {}", walls.join(" "));
    out
}

/// Worker-pool utilisation of one extra round at [`POOL_THREADS`]: the
/// mean number of live sweep workers over threads, sampled from
/// `/proc/self/task` every 2 ms. A runner worker lives exactly while it
/// has jobs, so this reads how much of the pool the plan's job
/// granularity keeps busy, wherever the host schedules the threads.
fn pool_util(ctx: &Ctx, keys: &[Key], settings: &Settings) -> f64 {
    use std::sync::atomic::{AtomicBool, Ordering};
    let tasks = || std::fs::read_dir("/proc/self/task").map_or(0, |d| d.count());
    let settings = Settings { threads: POOL_THREADS, ..settings.clone() };
    // Everything alive before the round, plus the sampler itself.
    let idle = tasks() + 1;
    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        let sampler = s.spawn(|| {
            let (mut live, mut samples) = (0usize, 0usize);
            while !done.load(Ordering::Relaxed) {
                live += tasks().saturating_sub(idle);
                samples += 1;
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            live as f64 / samples.max(1) as f64
        });
        sim_round(ctx, u64::MAX, false, keys, &settings, ctx.fresh_dir("pool"));
        done.store(true, Ordering::Relaxed);
        sampler.join().expect("sampler thread") / POOL_THREADS as f64
    })
}

/// Tracing overhead: traced rounds' median wall over untraced ones'.
fn trace_overhead(walls: &[(f64, bool)]) -> f64 {
    let on: Vec<f64> = walls.iter().filter(|w| w.1).map(|w| w.0).collect();
    let off: Vec<f64> = walls.iter().filter(|w| !w.1).map(|w| w.0).collect();
    if on.is_empty() || off.is_empty() {
        return 0.0;
    }
    median(&on) / median(&off) - 1.0
}

/// Checks every round's cells against the first round's, line by line.
fn check_rounds(out: &mut Outcome, rounds: &[&SimRound]) {
    let first = &rounds[0].lines;
    for (i, r) in rounds.iter().enumerate().skip(1) {
        for (j, (a, b)) in first.iter().zip(&r.lines).enumerate() {
            out.check(a == b, || format!("round {i} cell {j} differs from round 0"));
        }
        out.check(r.lines.len() == first.len(), || format!("round {i} has a different cell count"));
    }
}

/// Compares cells against solo `Engine` runs of the same (config, seed),
/// one at a time; returns each solo run's wall time in seconds with its
/// config and report (the per-layer timings of traced runs).
fn check_solo(
    out: &mut Outcome,
    cells: &[(Key, u64, usize)],
    lines: &[String],
    eval: SimDuration,
    obs: bool,
) -> Vec<(f64, SimConfig, RunReport)> {
    let mut solos = Vec::new();
    for (key, seed, i) in cells {
        let cfg = solo_config(key, eval, *seed, obs);
        let t = Instant::now();
        let report = cfg.clone().run();
        let wall = t.elapsed().as_secs_f64();
        let want = json::to_string(&report);
        // The line ends with the report object plus the line's own brace.
        let got = lines[*i].split_once(",\"report\":").and_then(|(_, r)| r.strip_suffix('}'));
        out.check(got == Some(want.as_str()), || {
            format!("cell {i} differs from a solo Engine::run of the same (config, seed)")
        });
        solos.push((wall, cfg, report));
    }
    solos
}

/// Digests of the first round's output at the default seed. A change that
/// alters any simulated statistic changes them and fails the run.
pub fn check_pinned(ctx: &Ctx, out: &mut Outcome, workload: &str, text: &str) {
    let digest = format!("{:016x}", fnv64(text.as_bytes()));
    out.notes.push(format!("output digest {workload} = {digest}"));
    if ctx.seed != crate::DEFAULT_SEED || ctx.tiny {
        return;
    }
    let pinned = crate::PINNED.iter().find(|(w, _)| *w == workload).map(|(_, d)| *d);
    if let Some(want) = pinned {
        out.check(digest == want, || format!("{workload} output digest {digest} != pinned {want}"));
    }
}

/// Reports-only text (fingerprints excluded, so a cache-schema bump alone
/// does not move the pinned digest).
fn reports_text(lines: &[String]) -> String {
    lines
        .iter()
        .filter_map(|l| l.split_once(",\"report\":").map(|(_, r)| r))
        .collect::<Vec<_>>()
        .join("\n")
}

fn pick(ctx: &Ctx, salt: u64, n: usize, k: usize) -> Vec<usize> {
    let mut rng = ctx.rng(salt);
    let mut picked: Vec<usize> = Vec::new();
    while picked.len() < k.min(n) {
        let i = rng.next_below(n as u64) as usize;
        if !picked.contains(&i) {
            picked.push(i);
        }
    }
    picked
}

/// One burst of [`SETUP_BURST`] set-ups of a simulating sweep: build the
/// plan's keys and settings around a fresh cache directory (made before
/// the clock starts), fingerprint every key and open the cache. Appends
/// each set-up's time to `times` and returns the last plan.
fn sim_setup(
    ctx: &Ctx,
    name: &str,
    plan: &impl Fn(PathBuf) -> (Vec<Key>, Settings),
    times: &mut Vec<f64>,
) -> (Vec<Key>, Settings) {
    let mut last = None;
    for i in 0..SETUP_BURST {
        let dir = ctx.fresh_dir(&format!("{name}-setup-{i}"));
        let t = Instant::now();
        let (keys, settings) = plan(dir);
        let fps: Vec<String> = keys.iter().map(|k| k.fingerprint(&settings)).collect();
        let _ = DiskCache::open(settings.cache_dir.as_deref().expect("plans set a cache dir"));
        std::hint::black_box(fps);
        times.push(t.elapsed().as_secs_f64());
        last = Some((keys, settings));
    }
    last.expect("at least one set-up")
}

/// `sweep-cold`: a fresh cache every round; the engine does the work.
pub fn cold(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let eval = SimDuration::from_us(if ctx.tiny { 100 } else { COLD_EVAL_US });
    let plan = |dir| {
        let settings = Settings {
            eval_period: eval,
            threads: THREADS,
            seed: sweep_seed(ctx),
            cache_dir: Some(dir),
            ..Settings::default()
        };
        (cold_keys(ctx), settings)
    };
    let mut setups = Vec::new();
    let (keys, settings) = sim_setup(ctx, "cold", &plan, &mut setups);
    let rounds = measure(
        ctx,
        |i, traced| {
            sim_setup(ctx, "cold", &plan, &mut setups);
            sim_round(ctx, i, traced, &keys, &settings, ctx.fresh_dir(&format!("cold-{}", i % 2)))
        },
        |r| r.wall,
    );
    let setup_s = median(&setups);
    let rss = peak_rss_mb();
    let walls: Vec<f64> = rounds.iter().map(|(r, _)| r.wall).collect();
    let events: u64 = rounds.iter().map(|(r, _)| r.events).sum();
    let sim_walls: f64 = walls.iter().sum();
    let all: Vec<&SimRound> = rounds.iter().map(|(r, _)| r).collect();
    check_rounds(&mut out, &all);
    for r in &all {
        out.check(r.hits == 0 && r.simulated == keys.len(), || {
            format!("cold round read the cache: {} hits, {} simulated", r.hits, r.simulated)
        });
    }
    check_pinned(ctx, &mut out, "sweep-cold", &reports_text(&all[0].lines));
    // Oracle: a seed-chosen sample of cells (every cell in a traced run)
    // must equal solo runs of the same (config, seed).
    let idx: Vec<usize> =
        if ctx.trace { (0..keys.len()).collect() } else { pick(ctx, 0x0AC1E, keys.len(), 4) };
    let cells: Vec<(Key, u64, usize)> =
        idx.iter().map(|&i| (keys[i].clone(), settings.seed, i)).collect();
    let solos = check_solo(&mut out, &cells, &all[0].lines, eval, false);

    let wall = median(&walls);
    out.e2e.insert("setup_s", setup_s);
    out.e2e.insert("wall_p50_ms", wall * 1e3);
    out.e2e.insert("peak_rss_mb", rss);
    out.notes.push(format!(
        "{} events per round; {} cells x {} rounds at {} us, {} threads",
        all[0].events,
        keys.len(),
        rounds.len(),
        eval.as_ps() / 1_000_000,
        THREADS
    ));
    if ctx.trace {
        let tw: Vec<(f64, bool)> = rounds.iter().map(|(r, t)| (r.wall, *t)).collect();
        out.layer.insert("trace.overhead_frac", trace_overhead(&tw));
        out.layer.insert("runner.pool_util", pool_util(ctx, &keys, &settings));
        out.layer.insert("core.events_per_s", events as f64 / sim_walls);
        out.layer.insert("bench.hit_frac", 0.0);
        let store_dir = ctx.work.join("cold-0");
        sweep_cache_layers(ctx, &mut out, &keys, &settings, &store_dir, &all[0].lines);
        layers::engine_layers(ctx, &mut out, &solos);
        out.not_applicable(&["bench.parse_ms", "bench.merge_ms"]);
        out.not_applicable(layers::SERVE_LAYERS);
    }
    out
}

/// Cache-path kernels of the simulating sweeps over this plan's own
/// cells: open, lookup, store, fingerprint and memoized render.
fn sweep_cache_layers(
    ctx: &Ctx,
    out: &mut Outcome,
    keys: &[Key],
    settings: &Settings,
    filled: &Path,
    lines: &[String],
) {
    let fps: Vec<String> = settings
        .seed_list()
        .into_iter()
        .flat_map(|s| keys.iter().map(move |k| k.fingerprint_at(settings, s)))
        .collect();
    layers::cache_layers(ctx, out, filled, &fps);
    let (fp_s, _) = time_median(5, || {
        keys.iter().map(|k| k.fingerprint_at(settings, settings.seed).len()).sum::<usize>()
    });
    out.layer.insert("bench.fingerprint_us", fp_s / keys.len() as f64 * 1e6);
    let mut m = Matrix::new();
    let s = Settings { cache_dir: Some(filled.to_path_buf()), ..settings.clone() };
    m.ensure(keys, &s).expect("cached plan loads");
    let cells: Vec<(Key, u64)> =
        keys.iter().flat_map(|k| s.seed_list().into_iter().map(move |x| (k.clone(), x))).collect();
    let (render_s, rendered) = time_median(3, || render(&m, &cells, &s));
    out.layer.insert("bench.render_ms", render_s * 1e3);
    if rendered.as_slice() != lines {
        out.check(false, || "memoized re-render differs from the round's render".to_owned());
    }
}

/// Parses two shard texts and merges them: the merged text (`None` when
/// a file does not parse or the merge refuses), and the parse and merge
/// times in seconds.
pub fn merge_texts(
    texts: &[String],
    tr: &crate::common::Tracer<'_>,
    root: Option<usize>,
) -> (Option<String>, f64, f64) {
    let t = Instant::now();
    let files: Result<Vec<_>, String> = tr.time("parse", root, || {
        texts
            .iter()
            .enumerate()
            .map(|(k, text)| shard::parse_sweep_file(&format!("shard-{k}"), text))
            .collect()
    });
    let parse = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let merged = match files {
        Ok(files) => tr.time("merge", root, || shard::merge(&files).ok().map(|m| m.text)),
        Err(_) => None,
    };
    (merged, parse, t.elapsed().as_secs_f64())
}

/// Checks a merged sweep line by line against the unsharded render.
pub fn check_merged(out: &mut Outcome, round: usize, merged: Option<&str>, reference: &str) {
    let Some(text) = merged else {
        return out
            .check(false, || format!("round {round}: the shard files did not parse and merge"));
    };
    let want: Vec<&str> = reference.lines().collect();
    let got: Vec<&str> = text.lines().collect();
    out.check(got.len() == want.len() && text.len() == reference.len(), || {
        format!("round {round}: merged size differs from the unsharded render")
    });
    for (j, (a, b)) in got.iter().zip(&want).enumerate() {
        out.check(a == b, || {
            format!("round {round}: merged line {j} differs from the unsharded render")
        });
    }
}

/// `sweep-warm`: every figure cell already cached; each round re-sweeps
/// the whole plan as two shards from fresh matrices and merges them.
pub fn warm(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let figures: Vec<String> = if ctx.tiny {
        vec!["fig13".to_owned(), "stress".to_owned()]
    } else {
        SWEEP_FIGURES.iter().map(|f| (*f).to_owned()).collect()
    };
    let mut setups = Vec::new();
    let mut settings = Settings::default();
    let mut reference = String::new();
    for i in 0..WARM_SETUPS {
        let dir = ctx.fresh_dir(&format!("warm-{i}"));
        let t = Instant::now();
        settings = Settings {
            eval_period: SimDuration::from_us(WARM_EVAL_US),
            threads: THREADS,
            seed: sweep_seed(ctx),
            cache_dir: Some(dir),
            ..Settings::default()
        };
        let plan = SweepPlan::new(&figures, &settings).expect("registry figures");
        let mut m = Matrix::new();
        let (text, _) = shard::run_shard(&plan, Shard::full(), &settings, &mut m)
            .expect("figure cells are simulable");
        setups.push(t.elapsed().as_secs_f64());
        reference = text;
    }
    let n_cells = reference.lines().count().saturating_sub(2);
    let halves = [Shard { index: 0, of: 2 }, Shard { index: 1, of: 2 }];
    struct WarmRound {
        wall: f64,
        hits: usize,
        lookups: usize,
        parse: f64,
        merge: f64,
    }
    let rounds = measure(
        ctx,
        |i, traced| {
            let tr = ctx.spans.tracer(i, traced);
            let t = Instant::now();
            let root = tr.open("round", None);
            let plan = tr.time("plan", root, || {
                SweepPlan::new(&figures, &settings).expect("registry figures")
            });
            let mut texts = Vec::new();
            let (mut hits, mut lookups) = (0, 0);
            for shard in halves {
                let (text, stats) = tr.time("shard", root, || {
                    let mut m = Matrix::new();
                    shard::run_shard(&plan, shard, &settings, &mut m)
                        .expect("cached cells are simulable")
                });
                hits += stats.cache_hits;
                lookups += stats.cache_hits + stats.simulated;
                texts.push(text);
            }
            let (merged, parse, merge) = merge_texts(&texts, &tr, root);
            tr.close(root);
            let wall = t.elapsed().as_secs_f64();
            // Checked and dropped at once, so memory does not grow with
            // the number of rounds that fit in the window.
            check_merged(&mut out, i as usize, merged.as_deref(), &reference);
            WarmRound { wall, hits, lookups, parse, merge }
        },
        |r| r.wall,
    );
    let rss = peak_rss_mb();
    let ref_lines: Vec<&str> = reference.lines().collect();
    for (i, (r, _)) in rounds.iter().enumerate() {
        out.check(r.hits == n_cells && r.lookups == n_cells, || {
            format!("round {i}: {} of {} cells were cache hits", r.hits, r.lookups)
        });
    }
    let entries: Vec<String> = reference.lines().map(str::to_owned).collect();
    check_pinned(ctx, &mut out, "sweep-warm", &reports_text(&entries));
    let walls: Vec<f64> = rounds.iter().map(|(r, _)| r.wall).collect();
    let wall = median(&walls);
    out.e2e.insert("setup_s", median(&setups));
    out.e2e.insert("wall_p50_ms", wall * 1e3);
    out.e2e.insert("peak_rss_mb", rss);
    out.notes.push(format!("{n_cells} cached cells x {} rounds, 2 shards", rounds.len()));
    if ctx.trace {
        let tw: Vec<(f64, bool)> = rounds.iter().map(|(r, t)| (r.wall, *t)).collect();
        out.layer.insert("trace.overhead_frac", trace_overhead(&tw));
        let hits: usize = rounds.iter().map(|(r, _)| r.hits).sum();
        let lookups: usize = rounds.iter().map(|(r, _)| r.lookups).sum();
        out.layer.insert("bench.hit_frac", hits as f64 / lookups.max(1) as f64);
        let med = |f: fn(&WarmRound) -> f64| {
            median(&rounds.iter().map(|(r, _)| f(r)).collect::<Vec<_>>())
        };
        out.layer.insert("bench.parse_ms", med(|r| r.parse) * 1e3);
        out.layer.insert("bench.merge_ms", med(|r| r.merge) * 1e3);
        let filled = settings.cache_dir.clone().expect("warm cache dir");
        let plan = SweepPlan::new(&figures, &settings).expect("registry figures");
        let fps: Vec<String> = plan.cells().iter().map(|(_, _, fp)| fp.clone()).collect();
        layers::cache_layers(ctx, &mut out, &filled, &fps);
        let (fp_s, _) = time_median(3, || {
            plan.cells()
                .iter()
                .map(|(k, s, _)| k.fingerprint_at(&settings, *s).len())
                .sum::<usize>()
        });
        out.layer.insert("bench.fingerprint_us", fp_s / fps.len() as f64 * 1e6);
        let mut m = Matrix::new();
        shard::run_shard(&plan, Shard::full(), &settings, &mut m).expect("cached plan loads");
        let (render_s, _) = time_median(3, || {
            shard::run_shard(&plan, Shard::full(), &settings, &mut m).expect("memoized")
        });
        out.layer.insert("bench.render_ms", render_s * 1e3);
        out.layer.insert("runner.pool_util", 0.0);
        out.layer.insert("core.events_per_s", 0.0);
        // The engine does nothing in a warm round; its kernels are still
        // reported over a sample of the plan's cells for reference.
        let idx = pick(ctx, 0x3A3, plan.len(), 3);
        let cells: Vec<(Key, u64, usize)> =
            idx.iter().map(|&i| (plan.cells()[i].0.clone(), plan.cells()[i].1, i)).collect();
        let entry_lines: Vec<String> =
            ref_lines[1..ref_lines.len() - 1].iter().map(|l| (*l).to_owned()).collect();
        let solos = check_solo(&mut out, &cells, &entry_lines, settings.eval_period, false);
        layers::engine_layers(ctx, &mut out, &solos);
        out.not_applicable(layers::SERVE_LAYERS);
    }
    out
}

/// `sweep-seeds`: three keys under four seeds each with per-epoch
/// observability on — the multi-seed runner's path.
pub fn seeds(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let eval = SimDuration::from_us(if ctx.tiny { 100 } else { SEEDS_EVAL_US });
    let plan = |dir| {
        let mut rng = ctx.rng(0x5EED5);
        let settings = Settings {
            eval_period: eval,
            threads: THREADS,
            seed: sweep_seed(ctx),
            seeds: (1..SEEDS_PER_KEY).map(|_| rng.next_u64() >> 1).collect(),
            obs: true,
            cache_dir: Some(dir),
            ..Settings::default()
        };
        (seeds_keys(), settings)
    };
    let mut setups = Vec::new();
    let (keys, settings) = sim_setup(ctx, "seeds", &plan, &mut setups);
    let rounds = measure(
        ctx,
        |i, traced| {
            sim_setup(ctx, "seeds", &plan, &mut setups);
            sim_round(ctx, i, traced, &keys, &settings, ctx.fresh_dir(&format!("seeds-{}", i % 2)))
        },
        |r| r.wall,
    );
    let setup_s = median(&setups);
    let rss = peak_rss_mb();
    let all: Vec<&SimRound> = rounds.iter().map(|(r, _)| r).collect();
    let n_cells = keys.len() * settings.seed_list().len();
    check_rounds(&mut out, &all);
    for r in &all {
        out.check(r.hits == 0 && r.simulated == n_cells, || {
            format!("seeds round read the cache: {} hits, {} simulated", r.hits, r.simulated)
        });
    }
    check_pinned(ctx, &mut out, "sweep-seeds", &reports_text(&all[0].lines));
    // Every cell must be bit-identical to a solo run of its (config, seed).
    let cells: Vec<(Key, u64, usize)> = keys
        .iter()
        .flat_map(|k| settings.seed_list().into_iter().map(move |s| (k.clone(), s)))
        .enumerate()
        .map(|(i, (k, s))| (k, s, i))
        .collect();
    let solos = check_solo(&mut out, &cells, &all[0].lines, eval, true);
    let walls: Vec<f64> = all.iter().map(|r| r.wall).collect();
    let wall = median(&walls);
    let events: u64 = all.iter().map(|r| r.events).sum();
    out.e2e.insert("setup_s", setup_s);
    out.e2e.insert("wall_p50_ms", wall * 1e3);
    out.e2e.insert("peak_rss_mb", rss);
    out.notes.push(format!(
        "{} events per round; {} keys x {} seeds x {} rounds at {} us, obs on, {} threads",
        all[0].events,
        keys.len(),
        settings.seed_list().len(),
        rounds.len(),
        eval.as_ps() / 1_000_000,
        THREADS
    ));
    if ctx.trace {
        let tw: Vec<(f64, bool)> = rounds.iter().map(|(r, t)| (r.wall, *t)).collect();
        out.layer.insert("trace.overhead_frac", trace_overhead(&tw));
        out.layer.insert("runner.pool_util", pool_util(ctx, &keys, &settings));
        out.layer.insert("core.events_per_s", events as f64 / walls.iter().sum::<f64>());
        out.layer.insert("bench.hit_frac", 0.0);
        let filled = ctx.work.join("seeds-0");
        sweep_cache_layers(ctx, &mut out, &keys, &settings, &filled, &all[0].lines);
        layers::engine_layers(ctx, &mut out, &solos);
        out.not_applicable(&["bench.parse_ms", "bench.merge_ms"]);
        out.not_applicable(layers::SERVE_LAYERS);
    }
    out
}
