//! The `serve-open` workload: an in-process `memnet serve` daemon fed
//! open-loop by two client connections.
//!
//! Each connection sends seed-generated run manifests at Poisson arrival
//! times, first at a light rate and then at a heavy one, without waiting
//! for replies. Latency is timed from each request's due time, so a
//! stalled generator or daemon shows up in every later request.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::Mutex;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use memnet_bench::figures::SWEEP_FIGURES;
use memnet_bench::shard::SweepPlan;
use memnet_bench::{Key, Settings};
use memnet_core::{AddressMapping, PolicyKind};
use memnet_policy::Mechanism;
use memnet_serve::{job, CacheNote, Manifest, ResultPayload, Server, ServerConfig, Stats};
use serde::json::{self, Value};

use crate::common::{median, peak_rss_mb, percentile, tail, time_median, Ctx, Outcome};
use crate::layers;

/// Daemon worker threads: one, for the reason given at
/// `sweeps::THREADS`.
const WORKERS: usize = 1;
/// Client connections.
const CLIENTS: usize = 2;
/// Light-phase arrival rate, jobs/s over both connections: about a tenth
/// of the daemon's capacity for this mix, so latency stays close to that
/// of one isolated job.
pub const LIGHT_RATE: f64 = 7.0;
/// Heavy-phase arrival rate, jobs/s over both connections: about half of
/// what the one-worker daemon drained with this mix when saturated on the
/// 2-vCPU host the benchmark is sized for (see `perfbench/map.json`).
pub const HEAVY_RATE: f64 = 36.0;
/// Share of the window spent in the light phase.
const LIGHT_SHARE: f64 = 0.3;
/// Share of arrivals repeating a manifest sent at least a second earlier
/// (served from the disk cache). A chosen value: no measured serve traffic
/// exists to take it from.
const REPEAT_P: f64 = 0.15;
/// Share of new manifests followed 0.5 ms later by an identical one
/// (coalesced onto the first while it is in flight). A chosen value, as
/// [`REPEAT_P`].
const COALESCE_P: f64 = 0.12;
/// Evaluation period of every served run: a fiftieth of the figures'
/// default 1000 µs, so one job simulates for milliseconds. A sizing
/// choice, not a measured one.
const EVAL_US: u64 = 20;
/// Set-ups timed before the window and as many again after it; `setup_s`
/// is the median of all of them, so it samples the host at both ends of
/// the run.
const SETUPS: usize = 5;
/// Leading manifests whose offline payloads are pinned at the default
/// seed.
const PINNED_MANIFESTS: usize = 16;
/// Status polls, for the backlog high-water mark.
const POLL_EVERY: Duration = Duration::from_millis(50);
/// How long the clients wait for outstanding results after the last send.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(60);

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Kind {
    New,
    Faulted,
    Repeat,
    Coalesce,
}

/// One scheduled submission.
#[derive(Clone)]
struct Request {
    /// Seconds after the start of the window.
    due: f64,
    heavy: bool,
    kind: Kind,
    /// Index into the distinct manifest list.
    manifest: usize,
}

/// What one client saw of one submission (seconds after the start).
#[derive(Clone, Default)]
struct Seen {
    sent: Option<f64>,
    queued: Option<f64>,
    started: Option<f64>,
    done: Option<f64>,
    terminal: Option<String>,
    /// The raw result payload of a `done`/`failed` event.
    result: Option<String>,
}

/// The cells of the `SWEEP_FIGURES` plan that a run manifest can express:
/// all but those whose ROO wake-up latency or address mapping the
/// manifest schema has no field for. Served runs are drawn uniformly from
/// these, so the shares of workloads, topologies, scales, policies and
/// fault scenarios are the figure set's own.
pub fn figure_cells() -> Vec<Key> {
    let figures: Vec<String> = SWEEP_FIGURES.iter().map(|f| (*f).to_owned()).collect();
    let plan = SweepPlan::new(&figures, &Settings::default()).expect("registry figures");
    plan.cells()
        .iter()
        .map(|(k, _, _)| k)
        .filter(|k| k.roo_wakeup_ns == 14 && k.mapping == AddressMapping::Contiguous)
        .cloned()
        .collect()
}

/// Builds both clients' schedules and the distinct manifests they send.
fn schedule(ctx: &Ctx, seconds: f64) -> (Vec<Vec<Request>>, Vec<String>) {
    let cells = figure_cells();
    let mut manifests: Vec<String> = Vec::new();
    let mut clients = Vec::new();
    for c in 0..CLIENTS {
        let mut rng = ctx.rng(0x5E12E + c as u64);
        let mut reqs: Vec<Request> = Vec::new();
        let mut t = 0.0;
        loop {
            let heavy = t >= seconds * LIGHT_SHARE;
            let rate = if heavy { HEAVY_RATE } else { LIGHT_RATE } / CLIENTS as f64;
            t += rng.next_exp(1.0 / rate);
            if t >= seconds {
                break;
            }
            let heavy = t >= seconds * LIGHT_SHARE;
            let old: Vec<usize> =
                reqs.iter().filter(|r| r.due <= t - 1.0).map(|r| r.manifest).collect();
            if !old.is_empty() && rng.next_bool(REPEAT_P) {
                let m = old[rng.next_below(old.len() as u64) as usize];
                reqs.push(Request { due: t, heavy, kind: Kind::Repeat, manifest: m });
                continue;
            }
            // Each manifest draws from its own stream, so manifest `m` is
            // the same whatever the window length (the pinned digest
            // covers the first few).
            let m = manifests.len();
            let mut mrng = ctx.rng(0x3A41_0000 + m as u64);
            let key = &cells[mrng.next_below(cells.len() as u64) as usize];
            manifests.push(manifest_text(key, mrng.next_below(1 << 31)));
            let kind = if key.faults.is_empty() { Kind::New } else { Kind::Faulted };
            reqs.push(Request { due: t, heavy, kind, manifest: m });
            if rng.next_bool(COALESCE_P) {
                reqs.push(Request { due: t + 0.0005, heavy, kind: Kind::Coalesce, manifest: m });
            }
        }
        clients.push(reqs);
    }
    (clients, manifests)
}

/// A single-run manifest of one figure cell at [`EVAL_US`] under `seed`.
fn manifest_text(key: &Key, seed: u64) -> String {
    use memnet_net::TopologyKind::{DaisyChain, DdrxLike, Star, TernaryTree};
    use Mechanism::{Dvfs, DvfsRoo, FullPower, Roo, Vwl, VwlRoo};
    let topology = match key.topology {
        DaisyChain => "daisychain",
        TernaryTree => "ternary",
        Star => "star",
        DdrxLike => "ddrx",
    };
    let policy = match key.policy {
        PolicyKind::FullPower => "fp",
        PolicyKind::NetworkUnaware => "unaware",
        PolicyKind::NetworkAware => "aware",
        PolicyKind::StaticSelection => "static",
    };
    let mechanism = match key.mechanism {
        FullPower => "fp",
        Vwl => "vwl",
        Roo => "roo",
        VwlRoo => "vwl+roo",
        Dvfs => "dvfs",
        DvfsRoo => "dvfs+roo",
    };
    let faults = if key.faults.is_empty() {
        String::new()
    } else {
        format!(",\"faults\":{}", json::to_string(key.faults.as_str()))
    };
    format!(
        "{{\"schema\":\"memnet-manifest\",\"v\":1,\"run\":{{\"workload\":\"{}\",\
         \"topology\":\"{topology}\",\"scale\":\"{}\",\"policy\":\"{policy}\",\
         \"mechanism\":\"{mechanism}\",\"alpha_pct\":{},\"eval_us\":{EVAL_US},\"seed\":{seed},\
         \"energy_backend\":\"{}\"{faults}}}}}",
        key.workload,
        key.scale.label(),
        f64::from(key.alpha_tenths_pct) / 10.0,
        key.energy.label()
    )
}

/// A bound daemon running on its own thread.
struct Daemon {
    addr: SocketAddr,
    handle: JoinHandle<std::io::Result<Stats>>,
    cache_dir: PathBuf,
}

/// Binds a daemon over the (fresh) cache directory `cache_dir`.
fn start_daemon(cache_dir: PathBuf) -> Daemon {
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: WORKERS,
        cache_dir: Some(cache_dir.clone()),
        progress_every: 0,
    })
    .expect("ephemeral bind");
    let addr = server.local_addr().expect("bound address");
    let handle = std::thread::spawn(move || server.run());
    Daemon { addr, handle, cache_dir }
}

fn stop_daemon(daemon: Daemon, conn: &mut TcpStream) -> Option<Stats> {
    let _ = conn.write_all(b"{\"op\":\"shutdown\"}\n");
    daemon.handle.join().ok().and_then(Result::ok)
}

fn connect(addr: SocketAddr) -> TcpStream {
    let s = TcpStream::connect(addr).expect("connect to the daemon");
    s.set_nodelay(true).expect("nodelay");
    s
}

/// Per-client results: what each submission saw, and the status polls.
struct ClientRun {
    seen: Vec<Seen>,
    backlog_max: u64,
    late: Vec<f64>,
}

/// Reads events until every submission of this client is terminal.
fn read_events(
    ctx: &Ctx,
    client: usize,
    stream: TcpStream,
    t0: Instant,
    reqs: &[Request],
    sent: &Mutex<Vec<Option<f64>>>,
    traced: bool,
) -> (Vec<Seen>, u64) {
    let now = || t0.elapsed().as_secs_f64();
    stream.set_read_timeout(Some(DRAIN_TIMEOUT)).expect("read timeout");
    let mut reader = BufReader::new(stream);
    let n = reqs.len();
    let mut seen = vec![Seen::default(); n];
    let mut by_job: HashMap<u64, usize> = HashMap::new();
    let mut next_sub = 0usize;
    let mut terminal = 0usize;
    let mut backlog = 0u64;
    let mut line = String::new();
    while terminal < n {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
        let at = now();
        // Event lines are read by prefix only: a full parse of every
        // result payload here would delay the events behind it.
        let kind =
            field(&line, "\"event\":\"").and_then(|r| r.split('"').next()).unwrap_or("").to_owned();
        let job = field(&line, "\"job\":").and_then(leading_u64);
        let sub = match kind.as_str() {
            "status" => {
                let q = field(&line, "\"queued\":").and_then(leading_u64).unwrap_or(0);
                backlog = backlog.max(q);
                continue;
            }
            "queued" | "rejected" => {
                let i = next_sub;
                next_sub += 1;
                if let Some(j) = job {
                    by_job.insert(j, i);
                }
                i
            }
            _ => match job.and_then(|j| by_job.get(&j)) {
                Some(&i) => i,
                None => continue,
            },
        };
        if sub >= n {
            continue;
        }
        let s = &mut seen[sub];
        match kind.as_str() {
            "queued" => s.queued = Some(at),
            "started" => s.started = Some(at),
            _ => {
                s.done = Some(at);
                s.terminal = Some(kind.clone());
                s.result = line
                    .trim_end()
                    .split_once(",\"result\":")
                    .map(|(_, r)| r.strip_suffix('}').unwrap_or(r).to_owned());
                terminal += 1;
                s.sent = sent.lock().expect("sent lock")[sub];
                if traced {
                    trace_job(ctx, client, sub, s, &reqs[sub]);
                }
            }
        }
    }
    (seen, backlog)
}

/// The text following the first occurrence of `key` in `line`.
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    line.find(key).map(|i| &line[i + key.len()..])
}

fn leading_u64(s: &str) -> Option<u64> {
    let end = s.find(|c: char| !c.is_ascii_digit()).unwrap_or(s.len());
    s[..end].parse().ok()
}

/// Records one finished job's spans: due→done with its stages as children.
fn trace_job(ctx: &Ctx, client: usize, sub: usize, s: &Seen, req: &Request) {
    let tr = ctx.spans.tracer((client as u64) << 32 | sub as u64, true);
    let Some(w) = ctx.spans.window() else { return };
    let at = |x: f64| w + Duration::from_secs_f64(x.max(0.0));
    let (Some(sent), Some(done)) = (s.sent, s.done) else { return };
    let root = tr.span("job", None, at(req.due), at(done));
    tr.span("send", root, at(req.due), at(sent));
    if let Some(q) = s.queued {
        tr.span("submit", root, at(sent), at(q));
        let run_from = s.started.unwrap_or(q);
        tr.span("wait", root, at(q), at(run_from));
        tr.span("run", root, at(run_from), at(done));
    }
}

/// Sends one client's schedule open-loop; returns how late each send was.
fn send_all(
    writer: &Mutex<TcpStream>,
    reqs: &[Request],
    manifests: &[String],
    t0: Instant,
    sent: &Mutex<Vec<Option<f64>>>,
) -> Vec<f64> {
    let mut late = Vec::with_capacity(reqs.len());
    for (i, r) in reqs.iter().enumerate() {
        let due = t0 + Duration::from_secs_f64(r.due);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let line = format!("{{\"op\":\"submit\",\"manifest\":{}}}\n", manifests[r.manifest]);
        let at = t0.elapsed().as_secs_f64();
        let ok = writer.lock().expect("writer lock").write_all(line.as_bytes()).is_ok();
        if ok {
            sent.lock().expect("sent lock")[i] = Some(at);
        }
        late.push(at - r.due);
    }
    late
}

/// Runs both clients against the daemon for the whole schedule.
fn drive(
    ctx: &Ctx,
    addr: SocketAddr,
    clients: &[Vec<Request>],
    manifests: &[String],
    traced: bool,
) -> Vec<ClientRun> {
    let conns: Vec<TcpStream> = (0..CLIENTS).map(|_| connect(addr)).collect();
    let t0 = Instant::now();
    ctx.spans.set_window(t0);
    let done = std::sync::atomic::AtomicBool::new(false);
    let writers: Vec<Mutex<TcpStream>> =
        conns.iter().map(|c| Mutex::new(c.try_clone().expect("clone stream"))).collect();
    let sents: Vec<Mutex<Vec<Option<f64>>>> =
        clients.iter().map(|r| Mutex::new(vec![None; r.len()])).collect();
    let results = std::thread::scope(|s| {
        let readers: Vec<_> = conns
            .into_iter()
            .enumerate()
            .map(|(c, conn)| {
                let (reqs, sent) = (&clients[c], &sents[c]);
                s.spawn(move || read_events(ctx, c, conn, t0, reqs, sent, traced))
            })
            .collect();
        let senders: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (w, reqs, sent) = (&writers[c], &clients[c], &sents[c]);
                s.spawn(move || send_all(w, reqs, manifests, t0, sent))
            })
            .collect();
        let poller = s.spawn(|| {
            while !done.load(std::sync::atomic::Ordering::Relaxed) {
                std::thread::sleep(POLL_EVERY);
                let _ = writers[0].lock().expect("writer lock").write_all(b"{\"op\":\"status\"}\n");
            }
        });
        let lates: Vec<Vec<f64>> = senders.into_iter().map(|h| h.join().expect("sender")).collect();
        let seen: Vec<(Vec<Seen>, u64)> =
            readers.into_iter().map(|h| h.join().expect("reader")).collect();
        done.store(true, std::sync::atomic::Ordering::Relaxed);
        poller.join().expect("poller");
        lates.into_iter().zip(seen).collect::<Vec<_>>()
    });
    results
        .into_iter()
        .enumerate()
        .map(|(c, (late, (mut seen, backlog_max)))| {
            let sent = sents[c].lock().expect("sent lock");
            for (s, at) in seen.iter_mut().zip(sent.iter()) {
                s.sent = *at;
            }
            ClientRun { seen, backlog_max, late }
        })
        .collect()
}

/// Reference payloads for every distinct manifest, computed offline one
/// at a time with `job::run_manifest`: `(wall_s, payload)`. One thread:
/// the reference runs double as the per-layer timings of traced runs.
fn references(manifests: &[String]) -> Vec<Option<(f64, ResultPayload)>> {
    manifests
        .iter()
        .map(|text| {
            let t = Instant::now();
            let payload = Manifest::parse(text).ok().and_then(|m| job::run_manifest(&m).ok());
            payload.map(|p| (t.elapsed().as_secs_f64(), p))
        })
        .collect()
}

fn cache_note(result: &str) -> Option<CacheNote> {
    let v = json::parse(result).ok()?;
    let c = v.get("cache").ok()?;
    let hit = matches!(c.get("hit").ok()?, Value::Bool(true));
    let source = c.get("source").ok()?.as_str().ok()?.to_owned();
    Some(CacheNote { hit, source })
}

/// Whether a daemon result payload is byte-equal to the offline run of
/// the same manifest carrying the daemon's provenance note, that note is
/// one the daemon may legitimately give, and the exit code is 0.
pub fn payload_ok(got: &str, want: &ResultPayload) -> bool {
    cache_note(got).is_some_and(|note| {
        let valid = match note.source.as_str() {
            "simulated" => !note.hit,
            "coalesced" | "disk" => note.hit,
            _ => false,
        };
        let expect = ResultPayload { cache: note, ..want.clone() };
        valid && want.exit_code == job::EXIT_PASS && json::to_string(&expect) == got
    })
}

fn events_of(result: &str) -> u64 {
    json::parse(result)
        .ok()
        .and_then(|v| v.get("report").ok()?.get("events_processed").ok()?.num::<u64>().ok())
        .unwrap_or(0)
}

/// One measured window: the clients' view and the daemon's counters.
struct Window {
    runs: Vec<ClientRun>,
    stats: Stats,
    cache_dir: PathBuf,
    /// Peak resident memory when the window ended, before any oracle ran.
    peak_rss_mb: f64,
}

/// Drives the whole schedule against `daemon` and shuts it down.
fn window(
    ctx: &Ctx,
    daemon: Daemon,
    clients: &[Vec<Request>],
    manifests: &[String],
    traced: bool,
) -> Window {
    let runs = drive(ctx, daemon.addr, clients, manifests, traced);
    let peak_rss_mb = peak_rss_mb();
    let mut admin = connect(daemon.addr);
    let cache_dir = daemon.cache_dir.clone();
    let stats = stop_daemon(daemon, &mut admin).unwrap_or_default();
    Window { runs, stats, cache_dir, peak_rss_mb }
}

/// Latencies and stage times of one window, every payload checked.
#[derive(Default)]
struct Tally {
    heavy: Vec<f64>,
    light: Vec<f64>,
    waits: Vec<f64>,
    runs_ms: Vec<f64>,
    sim_events: u64,
    sim_secs: f64,
    /// Offline (solo) run time of the jobs the daemon simulated.
    busy: f64,
    sources: HashMap<String, u64>,
}

/// Checks every payload of a window against the offline run of the same
/// manifest (with the daemon's provenance note, exit code 0) and collects
/// its latencies; a failed request's latency is infinite.
fn tally(
    out: &mut Outcome,
    w: &Window,
    clients: &[Vec<Request>],
    refs: &[Option<(f64, ResultPayload)>],
) -> Tally {
    let mut t = Tally::default();
    for (c, run) in w.runs.iter().enumerate() {
        for (i, (s, r)) in run.seen.iter().zip(&clients[c]).enumerate() {
            let want = refs[r.manifest].as_ref();
            let ok = match (s.terminal.as_deref(), &s.result, want) {
                (Some("done"), Some(got), Some((_, payload))) => {
                    let source = cache_note(got).map_or("?".to_owned(), |n| n.source);
                    *t.sources.entry(source).or_default() += 1;
                    payload_ok(got, payload)
                }
                _ => false,
            };
            out.check(ok, || {
                format!(
                    "client {c} request {i} ({:?}): {} does not match the offline run",
                    r.kind,
                    s.terminal.as_deref().unwrap_or("no terminal event")
                )
            });
            let latency = match (ok, s.done) {
                (true, Some(done)) => (done - r.due) * 1e3,
                _ => f64::INFINITY,
            };
            if r.heavy {
                t.heavy.push(latency);
            } else {
                t.light.push(latency);
            }
            if let (Some(q), Some(st), Some(d), Some(res)) =
                (s.queued, s.started, s.done, &s.result)
            {
                t.waits.push((st - q) * 1e3);
                t.runs_ms.push((d - st) * 1e3);
                if cache_note(res).is_some_and(|n| n.source == "simulated") {
                    t.sim_events += events_of(res);
                    t.sim_secs += d - st;
                    t.busy += want.map_or(0.0, |w| w.0);
                }
            }
        }
    }
    t
}

/// `serve-open`. A traced run drives the same schedule twice, untraced
/// and then traced, each on a fresh daemon and cache, so the tracing
/// overhead compares whole windows.
pub fn open(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let seconds = ctx.seconds;
    // Set-up: schedule, bind, serve and connect over a fresh cache. The
    // daemon of one set-up serves the window; the others are shut down
    // at once.
    let setup = |i: usize| {
        let cache_dir = ctx.fresh_dir(&format!("serve-{i}"));
        let t = Instant::now();
        let sched = schedule(ctx, seconds);
        let d = start_daemon(cache_dir);
        let probe = connect(d.addr);
        (t.elapsed().as_secs_f64(), sched, d, probe)
    };
    let spare = |i: usize| {
        let (secs, _, d, mut probe) = setup(i);
        let _ = stop_daemon(d, &mut probe);
        secs
    };
    let mut setups: Vec<f64> = (1..SETUPS).map(spare).collect();
    let (secs, (clients, manifests), daemon, probe) = setup(0);
    setups.push(secs);
    drop(probe);
    let plain = window(ctx, daemon, &clients, &manifests, false);
    let traced = ctx.trace.then(|| {
        let daemon = start_daemon(ctx.fresh_dir("serve-traced"));
        window(ctx, daemon, &clients, &manifests, true)
    });
    setups.extend((SETUPS..2 * SETUPS).map(spare));

    let refs = references(&manifests);
    let ref_text: Vec<String> = refs
        .iter()
        .take(PINNED_MANIFESTS)
        .map(|r| r.as_ref().map_or(String::new(), |(_, p)| json::to_string(p)))
        .collect();
    crate::sweeps::check_pinned(ctx, &mut out, "serve-open", &ref_text.join("\n"));
    let plain_tally = tally(&mut out, &plain, &clients, &refs);
    let plain_p50 = median(&plain_tally.heavy);
    let (w, t) = match &traced {
        Some(w) => (w, tally(&mut out, w, &clients, &refs)),
        None => (&plain, plain_tally),
    };
    let last_done =
        w.runs.iter().flat_map(|r| r.seen.iter().filter_map(|s| s.done)).fold(0.0, f64::max);
    let q = |v: &[f64]| [10.0, 50.0, 90.0].map(|p| (percentile(v, p) * 10.0).round() / 10.0);
    let submit: Vec<f64> = w
        .runs
        .iter()
        .flat_map(|r| r.seen.iter().filter_map(|s| Some((s.queued? - s.sent?) * 1e3)))
        .collect();
    out.notes.push(format!(
        "p10/p50/p90 ms: heavy {:?}, light {:?}, sent->queued {:?}, queued->started {:?}, started->done {:?}",
        q(&t.heavy),
        q(&t.light),
        q(&submit),
        q(&t.waits),
        q(&t.runs_ms)
    ));
    let late: Vec<f64> = w.runs.iter().flat_map(|r| r.late.iter().map(|x| x * 1e3)).collect();
    let (tail_pct, tail_ms) = tail(&t.heavy);
    out.e2e.insert("setup_s", median(&setups));
    out.e2e.insert("wall_p50_ms", median(&t.heavy));
    out.e2e.insert("peak_rss_mb", plain.peak_rss_mb);
    let submitted: usize = clients.iter().map(Vec::len).sum();
    let faulted = clients.iter().flatten().filter(|r| r.kind == Kind::Faulted).count();
    out.notes.push(format!(
        "{submitted} submissions ({} light at {LIGHT_RATE}/s, {} heavy at {HEAVY_RATE}/s, \
         {faulted} with a fault scenario) over {seconds} s; {} workers, {} connections",
        t.light.len(),
        t.heavy.len(),
        WORKERS,
        CLIENTS
    ));
    out.notes.push(format!(
        "heavy p{tail_pct} = {tail_ms:.3} ms over {} samples; light p50 = {:.3} ms; generator p95 late = {:.3} ms",
        t.heavy.len(),
        median(&t.light),
        percentile(&late, 95.0)
    ));
    let mut src: Vec<_> = t.sources.iter().collect();
    src.sort();
    out.notes.push(format!(
        "provenance {src:?}; last result at {last_done:.3} s; daemon stats {:?}",
        w.stats
    ));
    if ctx.trace {
        let stats = &w.stats;
        let l = &mut out.layer;
        l.insert(
            "core.events_per_s",
            if t.sim_secs > 0.0 { t.sim_events as f64 / t.sim_secs } else { 0.0 },
        );
        l.insert("serve.tail_ms", tail_ms);
        l.insert("serve.tail_pct", tail_pct);
        l.insert("serve.tail_n", t.heavy.len() as f64);
        l.insert("serve.light_p50_ms", median(&t.light));
        l.insert("serve.gen_late_ms", percentile(&late, 95.0));
        l.insert("serve.queue_wait_ms", median(&t.waits));
        l.insert("serve.run_ms", median(&t.runs_ms));
        let sub = stats.submitted.max(1) as f64;
        l.insert("serve.coalesced_frac", stats.coalesced as f64 / sub);
        l.insert("serve.cache_hit_frac", stats.cache_hits as f64 / sub);
        l.insert(
            "serve.backlog_max",
            w.runs.iter().map(|r| r.backlog_max).max().unwrap_or(0) as f64,
        );
        let lookups = (stats.submitted - stats.coalesced).max(1) as f64;
        l.insert("bench.hit_frac", stats.cache_hits as f64 / lookups);
        l.insert("runner.pool_util", t.busy / (WORKERS as f64 * last_done));
        l.insert("trace.overhead_frac", median(&t.heavy) / plain_p50 - 1.0);
        let (parse_s, _) = time_median(3, || {
            manifests
                .iter()
                .filter(|m| Manifest::parse(m).and_then(|m| m.resolve()).is_ok())
                .count()
        });
        l.insert("serve.parse_us", parse_s / manifests.len().max(1) as f64 * 1e6);
        let jobs: Vec<_> =
            manifests.iter().filter_map(|m| Manifest::parse(m).ok()?.resolve().ok()).collect();
        let fps: Vec<String> = jobs.iter().map(|j| j.fingerprint.clone()).collect();
        layers::cache_layers(ctx, &mut out, &w.cache_dir, &fps);
        let solos: Vec<_> = refs
            .iter()
            .zip(&jobs)
            .filter_map(|(r, j)| r.as_ref().map(|(w, p)| (*w, j.cfg.clone(), p.report.clone())))
            .collect();
        layers::engine_layers(ctx, &mut out, &solos);
        out.not_applicable(&[
            "bench.fingerprint_us",
            "bench.render_ms",
            "bench.parse_ms",
            "bench.merge_ms",
        ]);
    }
    out
}
