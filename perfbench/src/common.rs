//! Shared plumbing: run context, metric sets, order statistics, the
//! in-memory span recorder and small hashing helpers.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Instant;

use memnet_simcore::SplitMix64;

/// Everything a workload needs from the command line.
pub struct Ctx {
    /// The workload seed: every input of the run is derived from it.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Traced run: record spans and produce the per-layer metrics.
    pub trace: bool,
    /// Self-test scale: every code path, seconds instead of minutes.
    pub tiny: bool,
    /// Scratch directory inside the checkout, removed when the run ends.
    pub work: PathBuf,
    /// Spans of the traced run (inactive when `trace` is off).
    pub spans: Spans,
}

impl Ctx {
    /// A seed-derived stream for one purpose: the same workload seed and
    /// salt always give the same numbers.
    pub fn rng(&self, salt: u64) -> SplitMix64 {
        SplitMix64::new(self.seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// A fresh, empty directory under the run's scratch directory.
    pub fn fresh_dir(&self, name: &str) -> PathBuf {
        let dir = self.work.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch directory is writable");
        dir
    }
}

/// The metrics one run produced, by name, plus the operation counts.
#[derive(Default)]
pub struct Outcome {
    /// Checked operations.
    pub attempted: u64,
    /// Operations that errored or whose output failed a check.
    pub failed: u64,
    /// End-to-end metrics (untraced runs print these).
    pub e2e: BTreeMap<&'static str, f64>,
    /// Per-layer metrics (traced runs print these).
    pub layer: BTreeMap<&'static str, f64>,
    /// Human-readable context lines printed before the result.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records one checked operation; a failed check is reported on
    /// stderr with `what` so the cause is visible.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("[perfbench] FAILED: {}", what());
        }
    }

    /// Sets per-layer metrics that the workload does not exercise to 0.
    pub fn not_applicable(&mut self, names: &[&'static str]) {
        for n in names {
            self.layer.entry(n).or_insert(0.0);
        }
    }
}

/// Median of a sample (0 for an empty one).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0..100) of a sample.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil().max(1.0) as usize;
    v[rank.min(v.len()) - 1]
}

/// The highest of the usual tail percentiles that still has at least ten
/// samples beyond it: `(percentile, value)`. Falls back to the median
/// when the sample is too small for any tail.
pub fn tail(xs: &[f64]) -> (f64, f64) {
    for p in [99.9, 99.0, 95.0, 90.0, 75.0] {
        let rank = ((p / 100.0) * xs.len() as f64).ceil() as usize;
        if xs.len().saturating_sub(rank) >= 10 {
            return (p, percentile(xs, p));
        }
    }
    (50.0, median(xs))
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs `f` `n` times and returns the median wall time of one call in
/// seconds, with the last result.
pub fn time_median<T>(n: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::with_capacity(n);
    let mut last = None;
    for _ in 0..n.max(1) {
        let t = Instant::now();
        last = Some(std::hint::black_box(f()));
        times.push(t.elapsed().as_secs_f64());
    }
    (median(&times), last.expect("at least one call"))
}

/// FNV-1a over bytes: a content digest for pinned outputs.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Total size of the regular files directly under `dir`, in bytes.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|rd| rd.flatten().filter_map(|e| e.metadata().ok()).map(|m| m.len()).sum())
        .unwrap_or(0)
}

/// One recorded span: `id` groups the spans of one round, cell or job.
struct Span {
    id: u64,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

/// In-memory span store of a traced run, written out once at the end.
/// Recording is a no-op when tracing is off.
pub struct Spans {
    on: bool,
    t0: Instant,
    spans: Mutex<Vec<Span>>,
    window: Mutex<Option<Instant>>,
}

impl Spans {
    /// A recorder; inactive unless `on`.
    pub fn new(on: bool) -> Spans {
        Spans { on, t0: Instant::now(), spans: Mutex::new(Vec::new()), window: Mutex::new(None) }
    }

    /// Marks the start of the measured window, for spans recorded later
    /// from times taken relative to it.
    pub fn set_window(&self, start: Instant) {
        *self.window.lock().expect("window lock is never poisoned") = Some(start);
    }

    /// The start of the measured window, once set.
    pub fn window(&self) -> Option<Instant> {
        *self.window.lock().expect("window lock is never poisoned")
    }

    /// A tracer for the spans of one round, cell or job (`id`); it
    /// records only when this recorder is on and `active` holds, so a
    /// traced run can leave some rounds untraced to measure the overhead.
    pub fn tracer(&self, id: u64, active: bool) -> Tracer<'_> {
        Tracer { spans: self, id, on: self.on && active }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.t0).as_nanos() as u64
    }

    /// Total and self time (duration minus time covered by direct
    /// children) per span name, in seconds.
    pub fn self_times(&self) -> BTreeMap<&'static str, (f64, f64)> {
        let spans = self.spans.lock().expect("span store is never poisoned");
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (f64, f64)> = BTreeMap::new();
        for (i, s) in spans.iter().enumerate() {
            let total = (s.end_ns - s.start_ns) as f64 / 1e9;
            let own = (s.end_ns - s.start_ns).saturating_sub(child_ns[i]) as f64 / 1e9;
            let e = out.entry(s.name).or_default();
            e.0 += total;
            e.1 += own;
        }
        out
    }

    /// Writes every span as one JSON line to `path`.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        use std::io::Write;
        let spans = self.spans.lock().expect("span store is never poisoned");
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"span\":{i},\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.id, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Records the spans of one round, cell or job under one id.
pub struct Tracer<'a> {
    spans: &'a Spans,
    id: u64,
    on: bool,
}

impl Tracer<'_> {
    /// Opens a span now; close it with [`Tracer::close`].
    pub fn open(&self, name: &'static str, parent: Option<usize>) -> Option<usize> {
        self.span(name, parent, Instant::now(), Instant::now())
    }

    /// Ends an open span now.
    pub fn close(&self, span: Option<usize>) {
        if let Some(i) = span {
            let end = self.spans.ns(Instant::now());
            self.spans.spans.lock().expect("span store is never poisoned")[i].end_ns = end;
        }
    }

    /// Records a finished span between two instants.
    pub fn span(
        &self,
        name: &'static str,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> Option<usize> {
        if !self.on {
            return None;
        }
        let (start_ns, end_ns) = (self.spans.ns(start), self.spans.ns(end));
        let mut spans = self.spans.spans.lock().expect("span store is never poisoned");
        spans.push(Span { id: self.id, name, start_ns, end_ns, parent });
        Some(spans.len() - 1)
    }

    /// Times `f` as a child span of `parent`.
    pub fn time<T>(&self, name: &'static str, parent: Option<usize>, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.span(name, parent, t, Instant::now());
        out
    }
}
