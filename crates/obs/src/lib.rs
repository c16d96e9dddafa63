//! Time-series observability for the memory-network simulator.
//!
//! The paper's central claims are temporal — idle-I/O dominance, epoch-by-
//! epoch AMS budgeting, FLO-driven mode transitions, ISP scatter/gather
//! rounds — but a [`RunReport`](../memnet_core/struct.RunReport.html) only
//! carries end-of-run aggregates. This crate adds the missing time axis
//! without perturbing results or costing anything when switched off:
//!
//! * [`Recorder`] — the engine-facing trait. The default methods are all
//!   no-ops, so the [`NullRecorder`] used when observability is off
//!   compiles down to nothing behind the engine's single `obs_on` branch.
//! * [`TimeSeriesRecorder`] — samples an [`EpochSample`] per controller
//!   epoch (per-link mode + mode residency, AMS budgets, FLO estimates,
//!   rescue pool, ISP rounds, queue depths, per-category energy, retry and
//!   wake counts) into a bounded ring buffer, and optionally streams
//!   schema-versioned JSONL events (mode transitions, wakeups, NAKs, ISP
//!   dispatches) to a trace file with decimation controls.
//! * [`summary`] — parses and validates a trace file and renders per-link
//!   residency tables plus an epoch CSV for plotting.
//!
//! Every reader the recorder touches is pure (residency snapshots, budget
//! getters, FLO estimates), so a traced run is bit-identical to an
//! untraced one — `tests/metamorphic.rs` and `tests/obs_trace.rs` in the
//! workspace root enforce both directions.

use std::collections::VecDeque;
use std::fs::File;
use std::io::{BufWriter, Write};

use memnet_simcore::memnet_warn;
use serde::{json, Deserialize, Serialize};

pub mod summary;

/// Version of the JSONL trace schema and of the [`ObsSection`] layout.
///
/// Bump whenever a line shape, field name, or field meaning changes; the
/// summarizer refuses traces whose header carries a different version.
pub const OBS_SCHEMA_VERSION: u32 = 1;

/// Energy category labels, in the order used by [`EpochSample::energy_j`]
/// (Figure 5 order with retransmission I/O appended — the same order as
/// `EnergyBreakdown::categories`).
pub const ENERGY_CATEGORIES: [&str; 7] =
    ["idle_io", "active_io", "logic_leak", "logic_dyn", "dram_leak", "dram_dyn", "retrans_io"];

/// Observability configuration carried inside `SimConfig`.
///
/// The default (and [`ObsConfig::off`]) disables everything; the engine
/// then installs a [`NullRecorder`] and the only residual cost is one
/// always-false branch per hook site. Like `SimConfigBuilder::faults`,
/// nothing here reads the environment — [`ObsConfig::from_env`] exists for
/// the CLI layer only, so cached results can never be poisoned by an env
/// var the cache key does not see.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ObsConfig {
    /// Collect per-epoch [`EpochSample`]s into the report's `obs` section.
    pub enabled: bool,
    /// Ring-buffer capacity for retained epoch samples; older samples are
    /// evicted (and counted in [`ObsSection::samples_dropped`]) beyond it.
    pub ring_capacity: usize,
    /// Stream JSONL events and samples to this path (implies sampling).
    pub trace_path: Option<String>,
    /// Keep every Nth event (1 = keep all). Epoch samples are never
    /// decimated — only discrete events are.
    pub trace_every: u64,
    /// Hard cap on events written to the trace file; once reached the
    /// trace is marked truncated and further events are dropped.
    pub trace_max: u64,
}

impl ObsConfig {
    /// Observability fully disabled (the default).
    pub fn off() -> Self {
        ObsConfig {
            enabled: false,
            ring_capacity: 4096,
            trace_path: None,
            trace_every: 1,
            trace_max: 1_000_000,
        }
    }

    /// True when any recording (in-memory sampling or file tracing) is on.
    pub fn is_active(&self) -> bool {
        self.enabled || self.trace_path.is_some()
    }

    /// Builds a config from `MEMNET_TRACE`, `MEMNET_TRACE_EVERY` and
    /// `MEMNET_TRACE_MAX`, warning (and keeping the default) on malformed
    /// values. Call this from the CLI layer only — never from a config
    /// builder — so cache keys stay a function of explicit configuration.
    pub fn from_env() -> Self {
        let mut cfg = ObsConfig::off();
        if let Ok(path) = std::env::var("MEMNET_TRACE") {
            if !path.is_empty() {
                cfg.trace_path = Some(path);
            }
        }
        cfg.trace_every = env_u64("MEMNET_TRACE_EVERY", cfg.trace_every, 1);
        cfg.trace_max = env_u64("MEMNET_TRACE_MAX", cfg.trace_max, 0);
        cfg
    }
}

impl Default for ObsConfig {
    fn default() -> Self {
        ObsConfig::off()
    }
}

fn env_u64(key: &str, default: u64, min: u64) -> u64 {
    match std::env::var(key) {
        Ok(raw) => match raw.parse::<u64>() {
            Ok(v) if v >= min => v,
            _ => {
                memnet_warn!("[obs] {key}={raw:?} is not an integer >= {min}; using {default}");
                default
            }
        },
        Err(_) => default,
    }
}

/// Run identity written into the trace header so a trace file is
/// self-describing.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TraceMeta {
    pub workload: &'static str,
    pub topology: &'static str,
    pub policy: &'static str,
    pub mechanism: &'static str,
    pub seed: u64,
    pub epoch_ps: u64,
    pub eval_ps: u64,
    pub n_links: u32,
    pub n_modules: u32,
}

/// A discrete simulator event worth tracing, stamped in simulated time.
#[derive(Debug, Clone, PartialEq)]
pub struct ObsEvent {
    /// Simulated time of the event, in picoseconds.
    pub t_ps: u64,
    pub kind: ObsEventKind,
}

/// The event vocabulary of trace schema version 1.
#[derive(Debug, Clone, PartialEq)]
pub enum ObsEventKind {
    /// The controller applied a new bandwidth mode (and optionally a new
    /// ROO threshold) to a link.
    Mode { link: u32, bw: &'static str, roo: Option<&'static str> },
    /// A powered-off link began waking.
    Wake { link: u32 },
    /// A waking link finished its wake transition.
    WakeDone { link: u32 },
    /// A fault stretched a wake transition past its nominal latency.
    WakeTimeout { link: u32 },
    /// An idle link crossed its ROO threshold and powered off.
    TurnOff { link: u32 },
    /// Wake chaining propagated a wake to the next link on the route.
    ChainWake { link: u32 },
    /// The engine forced a link to full power (e.g. route-around traffic).
    ForcedFull { link: u32 },
    /// A CRC failure NAKed a packet; `attempt` is the retry ordinal.
    Nak { link: u32, attempt: u32 },
    /// The controller dispatched an ISP scatter/gather phase of `rounds`
    /// propagation rounds at an epoch boundary.
    Isp { rounds: u32 },
}

impl ObsEventKind {
    /// The `"ev"` tag this kind serializes under.
    pub fn name(&self) -> &'static str {
        match self {
            ObsEventKind::Mode { .. } => "mode",
            ObsEventKind::Wake { .. } => "wake",
            ObsEventKind::WakeDone { .. } => "wake_done",
            ObsEventKind::WakeTimeout { .. } => "wake_timeout",
            ObsEventKind::TurnOff { .. } => "turn_off",
            ObsEventKind::ChainWake { .. } => "chain_wake",
            ObsEventKind::ForcedFull { .. } => "forced_full",
            ObsEventKind::Nak { .. } => "nak",
            ObsEventKind::Isp { .. } => "isp",
        }
    }
}

/// Per-link slice of an [`EpochSample`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LinkSample {
    pub link: u32,
    /// Bandwidth mode label at the end of the epoch (`BwMode::label`).
    pub bw: &'static str,
    /// ROO threshold label, when the mechanism manages one.
    pub roo: Option<&'static str>,
    /// Residency within this epoch, by accounting family, in picoseconds.
    pub off_ps: u64,
    pub waking_ps: u64,
    pub idle_ps: u64,
    pub active_ps: u64,
    pub retrans_ps: u64,
    /// Queue depth observed at the epoch boundary.
    pub queue_depth: u32,
    /// Wake transitions started during this epoch.
    pub wakes: u64,
    /// Retransmissions (NAK retries) during this epoch.
    pub retries: u64,
    /// AMS latency budget governing this epoch, in picoseconds
    /// (saturated into `i64`; budgets are `i128` internally).
    pub budget_ps: i64,
    /// Delay-monitor FLO estimate for the selected mode at epoch close.
    pub flo_ps: i64,
}

/// One epoch of time-series metrics across the whole network.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EpochSample {
    /// Zero-based epoch index (a trailing partial epoch gets the next
    /// index with `end_ps` short of a full period).
    pub epoch: u64,
    pub start_ps: u64,
    pub end_ps: u64,
    /// Energy spent inside this epoch per category, joules, in
    /// [`ENERGY_CATEGORIES`] order. Summing a column over all samples
    /// reproduces the aggregate report energy (the pricing model is linear
    /// in residency, so per-epoch deltas telescope).
    pub energy_j: [f64; 7],
    /// AMS rescue pool remaining at epoch close, picoseconds (saturated).
    pub pool_ps: i64,
    /// Cumulative budget violations observed so far.
    pub violations: u64,
    /// ISP propagation rounds dispatched at this epoch's close.
    pub isp_rounds: u32,
    pub links: Vec<LinkSample>,
}

/// The opt-in `obs` section attached to a `RunReport`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ObsSection {
    /// [`OBS_SCHEMA_VERSION`] at recording time.
    pub schema: u32,
    /// Retained epoch samples, oldest first (ring-bounded).
    pub epochs: Vec<EpochSample>,
    /// Samples evicted from the ring (0 unless the run outgrew it).
    pub samples_dropped: u64,
    /// Discrete events offered to the recorder.
    pub events_seen: u64,
    /// Discrete events actually written to the trace file.
    pub events_written: u64,
    /// True when `trace_max` cut the event stream short.
    pub truncated: bool,
}

/// Saturates an `i128` latency (the policy crate's `LatencyPs`) into the
/// `i64` fields carried by samples.
pub fn saturate_latency(v: i128) -> i64 {
    v.clamp(i64::MIN as i128, i64::MAX as i128) as i64
}

/// Engine-facing recording interface.
///
/// Every method defaults to a no-op so `NullRecorder` (and any partial
/// implementation) costs nothing. The engine additionally guards each call
/// site behind a cached `is_active` flag, so the disabled path never even
/// constructs event payloads.
///
/// `Send` is a supertrait so an engine holding a recorder can move to a
/// worker thread (sweeps run their jobs on a pool of worker threads).
pub trait Recorder: Send {
    /// Whether the engine should construct and deliver payloads at all.
    fn is_active(&self) -> bool {
        false
    }
    /// Called once before the first simulated event.
    fn start(&mut self, _meta: &TraceMeta) {}
    /// Called for each discrete event while active.
    fn record_event(&mut self, _event: &ObsEvent) {}
    /// Called once per controller epoch (plus a trailing partial epoch).
    fn record_epoch(&mut self, _sample: EpochSample) {}
    /// Called at finalization; returns the report section, if any.
    fn finish(&mut self) -> Option<ObsSection> {
        None
    }
}

/// The do-nothing recorder installed when observability is off.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullRecorder;

impl Recorder for NullRecorder {}

#[derive(Serialize)]
struct TraceHeader {
    schema: &'static str,
    version: u32,
    workload: &'static str,
    topology: &'static str,
    policy: &'static str,
    mechanism: &'static str,
    seed: u64,
    epoch_ps: u64,
    eval_ps: u64,
    n_links: u32,
    n_modules: u32,
    every: u64,
    max_events: u64,
}

/// Collects per-epoch samples into a bounded ring and optionally streams
/// JSONL to a trace file.
pub struct TimeSeriesRecorder {
    cfg: ObsConfig,
    epochs: VecDeque<EpochSample>,
    samples_dropped: u64,
    events_seen: u64,
    events_written: u64,
    truncated: bool,
    writer: Option<BufWriter<File>>,
    write_failed: bool,
}

impl TimeSeriesRecorder {
    /// Opens the trace file if one is configured; a failure to open warns
    /// and degrades to in-memory sampling only.
    pub fn new(cfg: ObsConfig) -> Self {
        let writer = cfg.trace_path.as_deref().and_then(|path| match File::create(path) {
            Ok(f) => Some(BufWriter::new(f)),
            Err(e) => {
                memnet_warn!("[obs] cannot create trace file {path:?}: {e}; file tracing disabled");
                None
            }
        });
        TimeSeriesRecorder {
            cfg,
            epochs: VecDeque::new(),
            samples_dropped: 0,
            events_seen: 0,
            events_written: 0,
            truncated: false,
            writer,
            write_failed: false,
        }
    }

    fn write_line(&mut self, line: &str) {
        if let Some(w) = &mut self.writer {
            if writeln!(w, "{line}").is_err() && !self.write_failed {
                self.write_failed = true;
                memnet_warn!("[obs] trace write failed; trace file will be incomplete");
            }
        }
    }

    fn event_line(e: &ObsEvent) -> String {
        let name = e.kind.name();
        let t = e.t_ps;
        match &e.kind {
            ObsEventKind::Mode { link, bw, roo } => {
                let roo = match roo {
                    Some(r) => format!("\"{r}\""),
                    None => "null".to_owned(),
                };
                format!(
                    "{{\"t\":{t},\"ev\":\"{name}\",\"link\":{link},\"bw\":\"{bw}\",\"roo\":{roo}}}"
                )
            }
            ObsEventKind::Wake { link }
            | ObsEventKind::WakeDone { link }
            | ObsEventKind::WakeTimeout { link }
            | ObsEventKind::TurnOff { link }
            | ObsEventKind::ChainWake { link }
            | ObsEventKind::ForcedFull { link } => {
                format!("{{\"t\":{t},\"ev\":\"{name}\",\"link\":{link}}}")
            }
            ObsEventKind::Nak { link, attempt } => {
                format!("{{\"t\":{t},\"ev\":\"{name}\",\"link\":{link},\"attempt\":{attempt}}}")
            }
            ObsEventKind::Isp { rounds } => {
                format!("{{\"t\":{t},\"ev\":\"{name}\",\"rounds\":{rounds}}}")
            }
        }
    }
}

impl Recorder for TimeSeriesRecorder {
    fn is_active(&self) -> bool {
        true
    }

    fn start(&mut self, meta: &TraceMeta) {
        if self.writer.is_some() {
            let header = TraceHeader {
                schema: "memnet-trace",
                version: OBS_SCHEMA_VERSION,
                workload: meta.workload,
                topology: meta.topology,
                policy: meta.policy,
                mechanism: meta.mechanism,
                seed: meta.seed,
                epoch_ps: meta.epoch_ps,
                eval_ps: meta.eval_ps,
                n_links: meta.n_links,
                n_modules: meta.n_modules,
                every: self.cfg.trace_every,
                max_events: self.cfg.trace_max,
            };
            let line = json::to_string(&header);
            self.write_line(&line);
        }
    }

    fn record_event(&mut self, event: &ObsEvent) {
        self.events_seen += 1;
        if self.writer.is_none() {
            return;
        }
        // Decimation: keep the 1st, (every+1)th, ... event seen.
        if !(self.events_seen - 1).is_multiple_of(self.cfg.trace_every) {
            return;
        }
        if self.events_written >= self.cfg.trace_max {
            self.truncated = true;
            return;
        }
        let line = Self::event_line(event);
        self.write_line(&line);
        self.events_written += 1;
    }

    fn record_epoch(&mut self, sample: EpochSample) {
        if self.writer.is_some() {
            let line = format!(
                "{{\"t\":{},\"ev\":\"sample\",\"sample\":{}}}",
                sample.end_ps,
                json::to_string(&sample)
            );
            self.write_line(&line);
        }
        if self.cfg.ring_capacity == 0 {
            self.samples_dropped += 1;
            return;
        }
        while self.epochs.len() >= self.cfg.ring_capacity {
            self.epochs.pop_front();
            self.samples_dropped += 1;
        }
        self.epochs.push_back(sample);
    }

    fn finish(&mut self) -> Option<ObsSection> {
        let section = ObsSection {
            schema: OBS_SCHEMA_VERSION,
            epochs: self.epochs.drain(..).collect(),
            samples_dropped: self.samples_dropped,
            events_seen: self.events_seen,
            events_written: self.events_written,
            truncated: self.truncated,
        };
        if self.writer.is_some() {
            let line = format!(
                "{{\"ev\":\"end\",\"events_seen\":{},\"events_written\":{},\"samples\":{},\"truncated\":{}}}",
                section.events_seen,
                section.events_written,
                section.epochs.len() as u64 + section.samples_dropped,
                section.truncated
            );
            self.write_line(&line);
            if let Some(w) = &mut self.writer {
                if w.flush().is_err() && !self.write_failed {
                    memnet_warn!("[obs] trace flush failed; trace file may be incomplete");
                }
            }
        }
        Some(section)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(epoch: u64) -> EpochSample {
        EpochSample {
            epoch,
            start_ps: epoch * 100,
            end_ps: (epoch + 1) * 100,
            energy_j: [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7],
            pool_ps: 42,
            violations: epoch,
            isp_rounds: 2,
            links: vec![LinkSample {
                link: 0,
                bw: "vwl16",
                roo: Some("t512"),
                off_ps: 10,
                waking_ps: 5,
                idle_ps: 50,
                active_ps: 30,
                retrans_ps: 5,
                queue_depth: 3,
                wakes: 1,
                retries: 0,
                budget_ps: 1_000,
                flo_ps: 250,
            }],
        }
    }

    #[test]
    fn off_config_is_inactive_and_default() {
        assert!(!ObsConfig::off().is_active());
        assert_eq!(ObsConfig::off(), ObsConfig::default());
        let with_trace = ObsConfig { trace_path: Some("x.jsonl".into()), ..ObsConfig::off() };
        assert!(with_trace.is_active());
        let enabled = ObsConfig { enabled: true, ..ObsConfig::off() };
        assert!(enabled.is_active());
    }

    #[test]
    fn null_recorder_is_inert() {
        let mut r = NullRecorder;
        assert!(!r.is_active());
        r.record_epoch(sample(0));
        r.record_event(&ObsEvent { t_ps: 1, kind: ObsEventKind::Wake { link: 0 } });
        assert!(r.finish().is_none());
    }

    #[test]
    fn epoch_sample_round_trips_through_json() {
        let s = sample(3);
        let text = json::to_string(&s);
        let back: EpochSample = json::from_str(&text).expect("round trip");
        assert_eq!(back, s);
    }

    #[test]
    fn ring_evicts_oldest_and_counts_drops() {
        let cfg = ObsConfig { enabled: true, ring_capacity: 2, ..ObsConfig::off() };
        let mut r = TimeSeriesRecorder::new(cfg);
        for e in 0..5 {
            r.record_epoch(sample(e));
        }
        let section = r.finish().expect("section");
        assert_eq!(section.samples_dropped, 3);
        let kept: Vec<u64> = section.epochs.iter().map(|s| s.epoch).collect();
        assert_eq!(kept, vec![3, 4]);
    }

    #[test]
    fn zero_capacity_ring_keeps_nothing() {
        let cfg = ObsConfig { enabled: true, ring_capacity: 0, ..ObsConfig::off() };
        let mut r = TimeSeriesRecorder::new(cfg);
        r.record_epoch(sample(0));
        let section = r.finish().expect("section");
        assert!(section.epochs.is_empty());
        assert_eq!(section.samples_dropped, 1);
    }

    #[test]
    fn events_are_counted_even_without_a_writer() {
        let cfg = ObsConfig { enabled: true, ..ObsConfig::off() };
        let mut r = TimeSeriesRecorder::new(cfg);
        for t in 0..7 {
            r.record_event(&ObsEvent { t_ps: t, kind: ObsEventKind::Wake { link: 1 } });
        }
        let section = r.finish().expect("section");
        assert_eq!(section.events_seen, 7);
        assert_eq!(section.events_written, 0);
        assert!(!section.truncated);
    }

    #[test]
    fn saturate_latency_clamps_extremes() {
        assert_eq!(saturate_latency(5), 5);
        assert_eq!(saturate_latency(-5), -5);
        assert_eq!(saturate_latency(i128::MAX), i64::MAX);
        assert_eq!(saturate_latency(i128::MIN), i64::MIN);
    }

    #[test]
    fn event_lines_are_valid_json_with_the_declared_tag() {
        let events = [
            ObsEventKind::Mode { link: 3, bw: "vwl8", roo: Some("t128") },
            ObsEventKind::Mode { link: 3, bw: "dvfs100", roo: None },
            ObsEventKind::Wake { link: 0 },
            ObsEventKind::WakeDone { link: 0 },
            ObsEventKind::WakeTimeout { link: 9 },
            ObsEventKind::TurnOff { link: 2 },
            ObsEventKind::ChainWake { link: 4 },
            ObsEventKind::ForcedFull { link: 5 },
            ObsEventKind::Nak { link: 1, attempt: 2 },
            ObsEventKind::Isp { rounds: 3 },
        ];
        for kind in events {
            let line = TimeSeriesRecorder::event_line(&ObsEvent { t_ps: 17, kind: kind.clone() });
            let v = json::parse(&line).expect("valid json");
            assert_eq!(v.get("ev").unwrap().as_str().unwrap(), kind.name());
            assert_eq!(v.get("t").unwrap().num::<u64>().unwrap(), 17);
        }
    }
}
