//! The schema-versioned **memnet-manifest** run description (v1 and v2).
//!
//! A manifest is one JSON document naming a full run spec, optional
//! execution limits, and assertions evaluated against the finished
//! report:
//!
//! ```json
//! {
//!   "schema": "memnet-manifest",
//!   "v": 1,
//!   "run": {
//!     "workload": "mixD", "topology": "ternary", "scale": "small",
//!     "policy": "aware", "mechanism": "vwl+roo", "alpha_pct": 5.0,
//!     "eval_us": 1000, "seed": 7, "faults": "ber=1e-6",
//!     "energy_backend": "idd", "calibration": "calib.json",
//!     "audit": "off"
//!   },
//!   "limits": { "wall_time_ms": 60000, "max_events": 10000000,
//!               "max_sim_time_us": 500 },
//!   "assertions": { "expected_exit": "completed",
//!                   "max_total_energy_j": 0.5,
//!                   "max_avg_latency_us": 2.0 }
//! }
//! ```
//!
//! Every `run` field is optional and defaults to the CLI default; the
//! whole `limits` and `assertions` sections may be omitted. Unknown keys
//! are rejected at every level — a typo'd assertion must not silently
//! pass. Errors carry the offending JSON field path and (best-effort)
//! line number, following the line-numbered-error idiom of the
//! calibration CSV parser.
//!
//! Manifests never read environment variables: the energy backend, audit
//! level and fault scenario are exactly what the document says (defaults:
//! `analytical`, `off`, fault-free). This is what makes a manifest's
//! fingerprint — and therefore the shared result cache — trustworthy.
//!
//! **v2** adds an optional `sweep` section that describes a whole figure
//! sweep instead of a single run. The daemon farms the sweep out as one
//! job per shard and merges the shard results (see the serve crate's
//! `sweep` module); a sweep manifest carries no `run`, `limits` or
//! `assertions` sections:
//!
//! ```json
//! {
//!   "schema": "memnet-manifest",
//!   "v": 2,
//!   "sweep": { "figures": ["fig05", "fig09"], "shards": 4,
//!              "eval_us": 1000, "seed": 12648430, "obs": false,
//!              "out": "merged.jsonl" }
//! }
//! ```
//!
//! v1 documents remain accepted unchanged.

use std::fmt;
use std::sync::Arc;

use memnet_bench::figures::SWEEP_FIGURES;
use memnet_bench::shard::MAX_SHARDS;
use memnet_bench::{Key, Settings};
use memnet_core::{ConfigError, NetworkScale, PolicyKind, SimConfig};
use memnet_faults::FaultConfig;
use memnet_net::TopologyKind;
use memnet_policy::Mechanism;
use memnet_power::{EnergyBackendKind, IddModel};
use memnet_simcore::{AuditLevel, SimDuration};
use memnet_workload::RequestTrace;
use serde::json::{self, Value};

/// Manifest schema name (the `schema` field).
pub const MANIFEST_SCHEMA: &str = "memnet-manifest";
/// Newest manifest schema version this build speaks (the `v` field).
/// Every version from 1 up to this one is accepted; the `sweep` section
/// requires v2.
pub const MANIFEST_VERSION: u64 = 2;

/// A manifest validation error: the offending JSON field path, the line
/// it sits on (best-effort; absent when the document never names the
/// field), and what is wrong with it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManifestError {
    /// Dotted field path, e.g. `run.workload`.
    pub path: String,
    /// 1-based line of the field in the manifest text, when locatable.
    pub line: Option<usize>,
    /// What is wrong.
    pub msg: String,
}

impl ManifestError {
    pub(crate) fn new(
        path: impl Into<String>,
        line: Option<usize>,
        msg: impl Into<String>,
    ) -> ManifestError {
        ManifestError { path: path.into(), line, msg: msg.into() }
    }
}

impl fmt::Display for ManifestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.line {
            Some(n) => write!(f, "{} (line {n}): {}", self.path, self.msg),
            None => write!(f, "{}: {}", self.path, self.msg),
        }
    }
}

impl std::error::Error for ManifestError {}

/// Best-effort line lookup: the first line whose text contains the quoted
/// key. Manifest keys are flat and distinct enough that this matches the
/// field the user wrote.
fn line_of(text: &str, key: &str) -> Option<usize> {
    let needle = format!("\"{key}\"");
    text.lines().position(|l| l.contains(&needle)).map(|idx| idx + 1)
}

/// Maps a JSON parse error (which carries a byte offset) to a line.
fn line_of_byte_error(text: &str, msg: &str) -> Option<usize> {
    let offset: usize = msg.rsplit("byte ").next()?.trim_end_matches('"').parse().ok()?;
    Some(
        text.as_bytes()
            .get(..offset)
            .map_or(1, |prefix| 1 + prefix.iter().filter(|&&b| b == b'\n').count()),
    )
}

/// The `run` section: a complete simulation spec, CLI defaults applied.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// Workload name (catalog or `adv.*` stress). A replay manifest takes
    /// the recorded trace's workload instead.
    pub workload: String,
    /// Network shape.
    pub topology: TopologyKind,
    /// Small or big study.
    pub scale: NetworkScale,
    /// Management policy.
    pub policy: PolicyKind,
    /// Circuit-level mechanism.
    pub mechanism: Mechanism,
    /// Allowable slowdown α in percent.
    pub alpha_pct: f64,
    /// Evaluation period in microseconds.
    pub eval_us: u64,
    /// Seed; `None` means the CLI default (or a replay trace's own seed).
    pub seed: Option<u64>,
    /// Fault scenario (canonical spec retained in [`FaultConfig::spec`]).
    pub faults: FaultConfig,
    /// Server-side path to a recorded request trace to replay.
    pub replay: Option<String>,
    /// Energy pricing backend. Explicit in the manifest — never the
    /// `MEMNET_ENERGY_BACKEND` environment variable, which would poison
    /// the shared cache fingerprint.
    pub energy_backend: EnergyBackendKind,
    /// Server-side path to a calibration JSON ([`IddModel`]); requires
    /// the `idd` backend.
    pub calibration: Option<String>,
    /// Audit level. Explicit in the manifest (default off), so a
    /// manifest run is byte-identical across ambient `MEMNET_AUDIT`.
    pub audit: AuditLevel,
}

impl Default for RunSpec {
    fn default() -> RunSpec {
        RunSpec {
            workload: "mixB".to_owned(),
            topology: TopologyKind::TernaryTree,
            scale: NetworkScale::Small,
            policy: PolicyKind::FullPower,
            mechanism: Mechanism::FullPower,
            alpha_pct: 5.0,
            eval_us: 1_000,
            seed: None,
            faults: FaultConfig::none(),
            replay: None,
            energy_backend: EnergyBackendKind::Analytical,
            calibration: None,
            audit: AuditLevel::Off,
        }
    }
}

/// The `limits` section: everything that may stop the run early.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Limits {
    /// Wall-clock budget in milliseconds.
    pub wall_time_ms: Option<u64>,
    /// Event budget.
    pub max_events: Option<u64>,
    /// Simulated-time cap in microseconds.
    pub max_sim_time_us: Option<u64>,
}

/// The `assertions` section, evaluated against the finished report.
#[derive(Debug, Clone, PartialEq)]
pub struct Assertions {
    /// How the run must have ended: `completed` or `limit_exceeded`.
    pub expected_exit: String,
    /// Upper bound on total energy (joules).
    pub max_total_energy_j: Option<f64>,
    /// Upper bound on mean read latency (microseconds).
    pub max_avg_latency_us: Option<f64>,
    /// Lower bound on completed reads.
    pub min_completed_reads: Option<u64>,
    /// Upper bound on α-violation epochs.
    pub max_violations: Option<u64>,
}

impl Default for Assertions {
    fn default() -> Assertions {
        Assertions {
            expected_exit: "completed".to_owned(),
            max_total_energy_j: None,
            max_avg_latency_us: None,
            min_completed_reads: None,
            max_violations: None,
        }
    }
}

/// The `sweep` section (v2): a whole figure sweep, farmed out as
/// `shards` deterministic slices and merged byte-identically.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSpec {
    /// Figure names to enumerate, in registry order. Defaults to every
    /// matrix-backed figure ([`memnet_bench::figures::SWEEP_FIGURES`]).
    pub figures: Vec<String>,
    /// How many shards to split the cell set into (1..=[`MAX_SHARDS`]).
    pub shards: u32,
    /// Evaluation period per cell, microseconds.
    pub eval_us: u64,
    /// Base RNG seed for every cell.
    pub seed: u64,
    /// Attach the observability section to every report (a fingerprint
    /// dimension — observed and unobserved sweeps cache separately).
    pub obs: bool,
    /// Server-side path the merged result JSONL is written to, if any.
    pub out: Option<String>,
}

impl Default for SweepSpec {
    fn default() -> SweepSpec {
        SweepSpec {
            figures: SWEEP_FIGURES.iter().map(|&f| f.to_owned()).collect(),
            shards: 1,
            eval_us: 1_000,
            seed: 0xC0FFEE,
            obs: false,
            out: None,
        }
    }
}

impl SweepSpec {
    /// The bench [`Settings`] every shard of this sweep runs under. The
    /// daemon executes shards single-threaded like any other job; thread
    /// count never affects results.
    pub fn settings(&self) -> Settings {
        Settings {
            eval_period: SimDuration::from_us(self.eval_us),
            threads: 1,
            seed: self.seed,
            obs: self.obs,
            ..Settings::default()
        }
    }
}

/// One parsed, schema-checked manifest.
#[derive(Debug, Clone, Default)]
pub struct Manifest {
    /// The run spec.
    pub run: RunSpec,
    /// Execution limits.
    pub limits: Limits,
    /// Result assertions.
    pub assertions: Assertions,
    /// The sweep spec (v2); present iff this is a sweep manifest, in
    /// which case `run`, `limits` and `assertions` hold their defaults
    /// and must not appear in the document.
    pub sweep: Option<SweepSpec>,
}

/// Field-typed accessors over a [`Value`], each error carrying the field
/// path and line.
struct Field<'a> {
    text: &'a str,
    path: String,
    key: &'a str,
    value: &'a Value<'a>,
}

impl<'a> Field<'a> {
    fn err(&self, msg: impl Into<String>) -> ManifestError {
        ManifestError::new(&self.path, line_of(self.text, self.key), msg)
    }

    fn str(&self) -> Result<&'a str, ManifestError> {
        self.value
            .as_str()
            .map_err(|_| self.err(format!("expected a string, got {:?}", self.value)))
    }

    fn u64(&self) -> Result<u64, ManifestError> {
        match self.value {
            Value::Num(_) => self
                .value
                .num::<u64>()
                .map_err(|_| self.err("expected a non-negative integer".to_owned())),
            _ => Err(self.err(format!("expected a number, got {:?}", self.value))),
        }
    }

    fn f64(&self) -> Result<f64, ManifestError> {
        self.value
            .num::<f64>()
            .map_err(|_| self.err(format!("expected a number, got {:?}", self.value)))
    }

    fn bool(&self) -> Result<bool, ManifestError> {
        match self.value {
            Value::Bool(b) => Ok(*b),
            _ => Err(self.err(format!("expected true or false, got {:?}", self.value))),
        }
    }
}

/// Walks an object section, dispatching each key through `apply` and
/// rejecting unknown keys (naming the valid ones).
fn walk_section(
    text: &str,
    section: &str,
    value: &Value,
    known: &[&str],
    mut apply: impl FnMut(&str, Field<'_>) -> Result<(), ManifestError>,
) -> Result<(), ManifestError> {
    let Value::Obj(pairs) = value else {
        return Err(ManifestError::new(
            section,
            line_of(text, section),
            format!("expected an object, got {value:?}"),
        ));
    };
    for (key, v) in pairs {
        let path = if section.is_empty() { key.to_string() } else { format!("{section}.{key}") };
        if !known.contains(&&**key) {
            return Err(ManifestError::new(
                &path,
                line_of(text, key),
                format!("unknown key (valid keys: {})", known.join(", ")),
            ));
        }
        apply(key, Field { text, path, key, value: v })?;
    }
    Ok(())
}

impl Manifest {
    /// Parses and schema-checks one manifest document. Pure text-in — no
    /// file I/O happens here (see [`Manifest::resolve`] for that).
    pub fn parse(text: &str) -> Result<Manifest, ManifestError> {
        let doc = json::parse_borrowed(text).map_err(|e| {
            ManifestError::new(
                "manifest",
                line_of_byte_error(text, &e.0),
                format!("not valid JSON: {}", e.0),
            )
        })?;
        let mut manifest = Manifest::default();
        let mut saw_schema = false;
        let mut version: Option<u64> = None;
        let mut run_sections: Vec<&str> = Vec::new();
        const TOP: &[&str] = &["schema", "v", "run", "limits", "assertions", "sweep"];
        walk_section(text, "", &doc, TOP, |key, f| {
            match key {
                "schema" => {
                    let s = f.str()?;
                    if s != MANIFEST_SCHEMA {
                        return Err(f.err(format!("expected {MANIFEST_SCHEMA:?}, got {s:?}")));
                    }
                    saw_schema = true;
                }
                "v" => {
                    let v = f.u64()?;
                    if !(1..=MANIFEST_VERSION).contains(&v) {
                        return Err(f.err(format!(
                            "unsupported manifest version {v} (this build speaks v1..=v{MANIFEST_VERSION})"
                        )));
                    }
                    version = Some(v);
                }
                "run" => {
                    run_sections.push("run");
                    manifest.run = parse_run(text, f.value)?;
                }
                "limits" => {
                    run_sections.push("limits");
                    manifest.limits = parse_limits(text, f.value)?;
                }
                "assertions" => {
                    run_sections.push("assertions");
                    manifest.assertions = parse_assertions(text, f.value)?;
                }
                "sweep" => manifest.sweep = Some(parse_sweep(text, f.value)?),
                _ => unreachable!("walk_section rejects unknown keys"),
            }
            Ok(())
        })?;
        if !saw_schema {
            return Err(ManifestError::new(
                "schema",
                None,
                format!("missing; a manifest must declare \"schema\": {MANIFEST_SCHEMA:?}"),
            ));
        }
        let Some(version) = version else {
            return Err(ManifestError::new(
                "v",
                None,
                format!("missing; a manifest must declare \"v\": 1..={MANIFEST_VERSION}"),
            ));
        };
        if manifest.sweep.is_some() {
            if version < 2 {
                return Err(ManifestError::new(
                    "sweep",
                    line_of(text, "sweep"),
                    format!("the sweep section requires \"v\": 2 (this document says {version})"),
                ));
            }
            if let Some(section) = run_sections.first() {
                return Err(ManifestError::new(
                    *section,
                    line_of(text, section),
                    "a sweep manifest describes the whole sweep; it cannot also carry \
                     run/limits/assertions sections (submit a separate run manifest)",
                ));
            }
        }
        if manifest.run.calibration.is_some()
            && manifest.run.energy_backend != EnergyBackendKind::Idd
        {
            return Err(ManifestError::new(
                "run.calibration",
                line_of(text, "calibration"),
                "calibration requires \"energy_backend\": \"idd\" (the analytical model has no \
                 calibratable mode table)",
            ));
        }
        Ok(manifest)
    }

    /// Loads the files the manifest names (replay trace, calibration),
    /// builds the validated [`SimConfig`], and computes the job's cache
    /// identity. Paths resolve relative to the executing process's
    /// working directory (the daemon's, when submitted to a server).
    pub fn resolve(&self) -> Result<ResolvedJob, ManifestError> {
        if self.sweep.is_some() {
            return Err(ManifestError::new(
                "sweep",
                None,
                "a sweep manifest is not a single run; the daemon farms it out per shard \
                 (offline: `memnet run-manifest` executes every shard sequentially)",
            ));
        }
        let run = &self.run;
        let replay: Option<Arc<RequestTrace>> = match &run.replay {
            None => None,
            Some(path) => {
                let err = |msg: String| ManifestError::new("run.replay", None, msg);
                let text = std::fs::read_to_string(path)
                    .map_err(|e| err(format!("reading {path}: {e}")))?;
                let trace = RequestTrace::parse_jsonl(&text)
                    .map_err(|e| err(format!("invalid trace {path}: {e}")))?;
                Some(Arc::new(trace))
            }
        };
        let backend: Option<IddModel> = match &run.calibration {
            None => None,
            Some(path) => {
                let err = |msg: String| ManifestError::new("run.calibration", None, msg);
                let text = std::fs::read_to_string(path)
                    .map_err(|e| err(format!("reading {path}: {e}")))?;
                let model = json::from_str::<IddModel>(&text)
                    .map_err(|e| err(format!("invalid calibration {path}: {e}")))?;
                Some(model)
            }
        };
        let seed = run.seed.unwrap_or(match &replay {
            Some(trace) => trace.seed,
            None => 0xC0FFEE,
        });
        let mut builder = SimConfig::builder()
            .workload(&run.workload)
            .topology(run.topology)
            .scale(run.scale)
            .policy(run.policy)
            .mechanism(run.mechanism)
            .alpha(run.alpha_pct / 100.0)
            .eval_period(SimDuration::from_us(run.eval_us))
            .seed(seed)
            .faults(run.faults.clone())
            .energy_backend(run.energy_backend)
            .audit(run.audit);
        if let Some(trace) = replay.clone() {
            builder = builder.replay(trace);
        }
        let cfg = builder.build().map_err(|e| {
            let path = match &e {
                ConfigError::UnknownWorkload(_) => "run.workload",
                ConfigError::BadAlpha(_) => "run.alpha_pct",
                ConfigError::BadEvalPeriod => "run.eval_us",
                ConfigError::BadFaults(_) => "run.faults",
            };
            ManifestError::new(path, None, e.to_string())
        })?;

        let mut key = Key {
            workload: cfg.workload.name,
            topology: run.topology,
            scale: run.scale,
            policy: run.policy,
            mechanism: run.mechanism,
            alpha_tenths_pct: (cfg.alpha * 1000.0).round() as u32,
            roo_wakeup_ns: 14,
            mapping: memnet_core::AddressMapping::Contiguous,
            faults: run.faults.spec(),
            source: String::new(),
            calibration: String::new(),
            energy: run.energy_backend,
        };
        if let Some(trace) = &replay {
            key = key.with_replay(&trace.digest_hex());
        }
        if let Some(model) = &backend {
            key = key.with_calibration(&calibration_digest(model));
        }
        // Thread count never affects results and the server runs each
        // engine single-threaded; cache_dir is a store location, not an
        // identity, and the shard tag is pure log attribution.
        let settings = Settings {
            eval_period: SimDuration::from_us(run.eval_us),
            threads: 1,
            seed,
            ..Settings::default()
        };
        let fingerprint = key.fingerprint(&settings);

        // A run truncated by an event budget or a sub-eval sim-time cap is
        // NOT the full run: it must neither hit nor populate the shared
        // cache under the full run's fingerprint. Wall-clock limits don't
        // matter here — serving a finished report trivially meets them.
        let truncating_sim_cap = self.limits.max_sim_time_us.filter(|&us| us < run.eval_us);
        let cache_eligible = self.limits.max_events.is_none() && truncating_sim_cap.is_none();
        let mut job_key = fingerprint.clone();
        if let Some(n) = self.limits.max_events {
            job_key.push_str(&format!("|lim_events={n}"));
        }
        if let Some(us) = truncating_sim_cap {
            job_key.push_str(&format!("|lim_sim_us={us}"));
        }

        Ok(ResolvedJob {
            manifest: self.clone(),
            cfg,
            backend,
            fingerprint,
            job_key,
            cache_eligible,
        })
    }
}

/// FNV-1a 64 digest of a calibrated model's serialized form, hex-encoded
/// (the calibration provenance in cache fingerprints).
pub fn calibration_digest(model: &IddModel) -> String {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let bytes = json::to_string(model);
    let h = bytes
        .as_bytes()
        .iter()
        .fold(FNV_OFFSET, |h, &b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME));
    format!("{h:016x}")
}

fn parse_run(text: &str, value: &Value) -> Result<RunSpec, ManifestError> {
    let mut run = RunSpec::default();
    const KNOWN: &[&str] = &[
        "workload",
        "topology",
        "scale",
        "policy",
        "mechanism",
        "alpha_pct",
        "eval_us",
        "seed",
        "channels",
        "faults",
        "replay",
        "energy_backend",
        "calibration",
        "audit",
    ];
    walk_section(text, "run", value, KNOWN, |key, f| {
        match key {
            "workload" => run.workload = f.str()?.to_owned(),
            "topology" => {
                let v = f.str()?;
                run.topology = TopologyKind::parse(v).ok_or_else(|| {
                    f.err(format!("unknown topology {v:?} (daisychain|ternary|star|ddrx)"))
                })?;
            }
            "scale" => {
                let v = f.str()?;
                run.scale = NetworkScale::parse(v)
                    .ok_or_else(|| f.err(format!("unknown scale {v:?} (small|big)")))?;
            }
            "policy" => {
                let v = f.str()?;
                run.policy = PolicyKind::parse(v).ok_or_else(|| {
                    f.err(format!("unknown policy {v:?} (fp|unaware|aware|static)"))
                })?;
            }
            "mechanism" => {
                let v = f.str()?;
                run.mechanism = Mechanism::parse(v).ok_or_else(|| {
                    f.err(format!("unknown mechanism {v:?} (fp|vwl|roo|vwl+roo|dvfs|dvfs+roo)"))
                })?;
            }
            "alpha_pct" => run.alpha_pct = f.f64()?,
            "eval_us" => run.eval_us = f.u64()?,
            "seed" => run.seed = Some(f.u64()?),
            "channels" => {
                // Mirrors `memnet replay`'s multichannel refusal: manifest
                // runs share the replay/record identity machinery, which
                // is single-channel (channels reseed per channel).
                if f.u64()? != 1 {
                    return Err(f.err(
                        "manifest runs are single-channel (channels reseed per channel; \
                         submit one manifest per channel instead)",
                    ));
                }
            }
            "faults" => {
                let v = f.str()?;
                run.faults =
                    FaultConfig::parse(v).map_err(|e| f.err(format!("bad fault scenario: {e}")))?;
            }
            "replay" => run.replay = Some(f.str()?.to_owned()),
            "energy_backend" => {
                let v = f.str()?;
                run.energy_backend = EnergyBackendKind::parse(v).ok_or_else(|| {
                    f.err(format!("unknown energy backend {v:?} (analytical|idd)"))
                })?;
            }
            "calibration" => run.calibration = Some(f.str()?.to_owned()),
            "audit" => {
                let v = f.str()?;
                run.audit = AuditLevel::parse(v)
                    .ok_or_else(|| f.err(format!("unknown audit level {v:?} (off|cheap|full)")))?;
            }
            _ => unreachable!("walk_section rejects unknown keys"),
        }
        Ok(())
    })?;
    Ok(run)
}

fn parse_limits(text: &str, value: &Value) -> Result<Limits, ManifestError> {
    let mut limits = Limits::default();
    const KNOWN: &[&str] = &["wall_time_ms", "max_events", "max_sim_time_us"];
    walk_section(text, "limits", value, KNOWN, |key, f| {
        let n = f.u64()?;
        if n == 0 {
            return Err(f.err("must be positive (omit the key for no limit)"));
        }
        match key {
            "wall_time_ms" => limits.wall_time_ms = Some(n),
            "max_events" => limits.max_events = Some(n),
            "max_sim_time_us" => limits.max_sim_time_us = Some(n),
            _ => unreachable!("walk_section rejects unknown keys"),
        }
        Ok(())
    })?;
    Ok(limits)
}

fn parse_assertions(text: &str, value: &Value) -> Result<Assertions, ManifestError> {
    let mut assertions = Assertions::default();
    const KNOWN: &[&str] = &[
        "expected_exit",
        "max_total_energy_j",
        "max_avg_latency_us",
        "min_completed_reads",
        "max_violations",
    ];
    walk_section(text, "assertions", value, KNOWN, |key, f| {
        match key {
            "expected_exit" => {
                let v = f.str()?;
                if v != "completed" && v != "limit_exceeded" {
                    return Err(
                        f.err(format!("unknown exit kind {v:?} (completed|limit_exceeded)"))
                    );
                }
                assertions.expected_exit = v.to_owned();
            }
            "max_total_energy_j" => assertions.max_total_energy_j = Some(f.f64()?),
            "max_avg_latency_us" => assertions.max_avg_latency_us = Some(f.f64()?),
            "min_completed_reads" => assertions.min_completed_reads = Some(f.u64()?),
            "max_violations" => assertions.max_violations = Some(f.u64()?),
            _ => unreachable!("walk_section rejects unknown keys"),
        }
        Ok(())
    })?;
    Ok(assertions)
}

fn parse_sweep(text: &str, value: &Value) -> Result<SweepSpec, ManifestError> {
    let mut sweep = SweepSpec::default();
    const KNOWN: &[&str] = &["figures", "shards", "eval_us", "seed", "obs", "out"];
    walk_section(text, "sweep", value, KNOWN, |key, f| {
        match key {
            "figures" => {
                let arr = f
                    .value
                    .as_array()
                    .map_err(|_| f.err(format!("expected an array, got {:?}", f.value)))?;
                if arr.is_empty() {
                    return Err(f.err("must name at least one figure (omit the key for all)"));
                }
                let mut figures = Vec::with_capacity(arr.len());
                for v in arr {
                    let name = v.as_str().map_err(|_| {
                        f.err(format!("expected an array of figure names, got {v:?}"))
                    })?;
                    if !SWEEP_FIGURES.contains(&name) {
                        return Err(f.err(format!(
                            "unknown figure {name:?} (valid figures: {})",
                            SWEEP_FIGURES.join(", ")
                        )));
                    }
                    figures.push(name.to_owned());
                }
                sweep.figures = figures;
            }
            "shards" => {
                let n = f.u64()?;
                if n == 0 || n > u64::from(MAX_SHARDS) {
                    return Err(f.err(format!("must be in 1..={MAX_SHARDS}")));
                }
                sweep.shards = n as u32;
            }
            "eval_us" => {
                let n = f.u64()?;
                if n == 0 {
                    return Err(f.err("must be positive"));
                }
                sweep.eval_us = n;
            }
            "seed" => sweep.seed = f.u64()?,
            "obs" => sweep.obs = f.bool()?,
            "out" => sweep.out = Some(f.str()?.to_owned()),
            _ => unreachable!("walk_section rejects unknown keys"),
        }
        Ok(())
    })?;
    Ok(sweep)
}

/// A manifest resolved into something executable: the validated config,
/// the injected backend (when calibrated), and the job's cache identity.
#[derive(Debug, Clone)]
pub struct ResolvedJob {
    /// The manifest this job came from (limits and assertions live here).
    pub manifest: Manifest,
    /// The validated simulation configuration.
    pub cfg: SimConfig,
    /// Calibrated model replacing the stock backend, if any.
    pub backend: Option<IddModel>,
    /// Persistent-cache identity of the *full* run (the bench crate's
    /// schema-versioned fingerprint). Equal fingerprints guarantee
    /// byte-identical reports.
    pub fingerprint: String,
    /// In-flight dedup identity: the fingerprint plus any
    /// result-truncating limits. Two manifests with equal `job_key`
    /// produce byte-identical reports, so one simulation serves both.
    pub job_key: String,
    /// Whether the finished report may hit / populate the shared cache
    /// under `fingerprint` (false when a limit truncates the result).
    pub cache_eligible: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manifest(s: &str) -> Result<Manifest, ManifestError> {
        Manifest::parse(s)
    }

    const MINIMAL: &str = "{\"schema\":\"memnet-manifest\",\"v\":1}";

    #[test]
    fn minimal_manifest_gets_cli_defaults() {
        let m = manifest(MINIMAL).expect("minimal manifest parses");
        assert_eq!(m.run.workload, "mixB");
        assert_eq!(m.run.eval_us, 1_000);
        assert_eq!(m.run.energy_backend, EnergyBackendKind::Analytical);
        assert_eq!(m.run.audit, AuditLevel::Off);
        assert!(m.run.faults.is_none());
        assert_eq!(m.limits, Limits::default());
        assert_eq!(m.assertions.expected_exit, "completed");
    }

    #[test]
    fn schema_and_version_are_mandatory_and_checked() {
        assert!(manifest("{}").unwrap_err().path == "schema");
        assert!(manifest("{\"schema\":\"memnet-manifest\"}").unwrap_err().path == "v");
        let err = manifest("{\"schema\":\"bogus\",\"v\":1}").unwrap_err();
        assert_eq!(err.path, "schema");
        let err = manifest("{\"schema\":\"memnet-manifest\",\"v\":3}").unwrap_err();
        assert_eq!(err.path, "v");
        assert!(err.msg.contains("unsupported"));
        // Both spoken versions parse.
        manifest("{\"schema\":\"memnet-manifest\",\"v\":1}").unwrap();
        manifest("{\"schema\":\"memnet-manifest\",\"v\":2}").unwrap();
    }

    #[test]
    fn errors_carry_field_path_and_line() {
        let text = "{\n  \"schema\": \"memnet-manifest\",\n  \"v\": 1,\n  \"run\": {\n    \
                    \"workload\": \"mixD\",\n    \"topology\": \"moebius\"\n  }\n}";
        let err = manifest(text).unwrap_err();
        assert_eq!(err.path, "run.topology");
        assert_eq!(err.line, Some(6));
        assert!(err.msg.contains("moebius"));
        assert!(err.to_string().contains("run.topology (line 6)"), "{err}");
    }

    #[test]
    fn unknown_keys_are_rejected_with_valid_alternatives() {
        let text = "{\"schema\":\"memnet-manifest\",\"v\":1,\n\"assertions\":{\"max_latency\":1}}";
        let err = manifest(text).unwrap_err();
        assert_eq!(err.path, "assertions.max_latency");
        assert_eq!(err.line, Some(2));
        assert!(err.msg.contains("max_avg_latency_us"), "suggests valid keys: {}", err.msg);

        let err = manifest("{\"schema\":\"memnet-manifest\",\"v\":1,\"runs\":{}}").unwrap_err();
        assert_eq!(err.path, "runs");
    }

    #[test]
    fn invalid_json_reports_a_line() {
        let err = manifest("{\n  \"schema\": \"memnet-manifest\",\n  \"v\": 1,\n").unwrap_err();
        assert_eq!(err.path, "manifest");
        assert!(err.msg.contains("not valid JSON"));
        assert_eq!(err.line, Some(4));
    }

    #[test]
    fn multichannel_is_refused_like_replay() {
        let text = "{\"schema\":\"memnet-manifest\",\"v\":1,\"run\":{\"channels\":2}}";
        let err = manifest(text).unwrap_err();
        assert_eq!(err.path, "run.channels");
        assert!(err.msg.contains("single-channel"), "{}", err.msg);
        // channels: 1 is accepted (it is the only valid value).
        manifest("{\"schema\":\"memnet-manifest\",\"v\":1,\"run\":{\"channels\":1}}").unwrap();
    }

    #[test]
    fn calibration_requires_the_idd_backend() {
        let text = "{\"schema\":\"memnet-manifest\",\"v\":1,\
                    \"run\":{\"calibration\":\"c.json\"}}";
        let err = manifest(text).unwrap_err();
        assert_eq!(err.path, "run.calibration");
        assert!(err.msg.contains("idd"));
        manifest(
            "{\"schema\":\"memnet-manifest\",\"v\":1,\
             \"run\":{\"energy_backend\":\"idd\",\"calibration\":\"c.json\"}}",
        )
        .unwrap();
    }

    #[test]
    fn zero_limits_are_rejected() {
        let err =
            manifest("{\"schema\":\"memnet-manifest\",\"v\":1,\"limits\":{\"max_events\":0}}")
                .unwrap_err();
        assert_eq!(err.path, "limits.max_events");
        assert!(err.msg.contains("positive"));
    }

    #[test]
    fn unknown_workload_resolves_to_a_pathed_error() {
        let m =
            manifest("{\"schema\":\"memnet-manifest\",\"v\":1,\"run\":{\"workload\":\"nope\"}}")
                .unwrap();
        let err = m.resolve().unwrap_err();
        assert_eq!(err.path, "run.workload");
        assert!(err.msg.contains("unknown workload \"nope\""));
        assert!(err.msg.contains("mixB"), "lists the catalog: {}", err.msg);
    }

    #[test]
    fn fingerprint_matches_the_bench_cache_discipline() {
        let m = manifest(
            "{\"schema\":\"memnet-manifest\",\"v\":1,\
             \"run\":{\"workload\":\"mixD\",\"eval_us\":50,\"seed\":7}}",
        )
        .unwrap();
        let job = m.resolve().unwrap();
        assert!(job.fingerprint.starts_with("v10|"), "{}", job.fingerprint);
        assert!(job.fingerprint.contains("wl=mixD"));
        assert!(job.fingerprint.contains("seed=7"));
        assert!(job.cache_eligible);
        assert_eq!(job.fingerprint, job.job_key, "no limits: job key is the fingerprint");
    }

    #[test]
    fn truncating_limits_split_the_job_key_from_the_fingerprint() {
        let m = manifest(
            "{\"schema\":\"memnet-manifest\",\"v\":1,\
             \"run\":{\"workload\":\"mixD\",\"eval_us\":1000},\
             \"limits\":{\"max_sim_time_us\":50,\"wall_time_ms\":60000}}",
        )
        .unwrap();
        let job = m.resolve().unwrap();
        assert!(!job.cache_eligible, "a truncated result must not poison the cache");
        assert!(job.job_key.ends_with("|lim_sim_us=50"), "{}", job.job_key);
        assert_ne!(job.job_key, job.fingerprint);

        // A sim cap at/above the eval period is no truncation, and a pure
        // wall-clock limit never blocks caching.
        let m = manifest(
            "{\"schema\":\"memnet-manifest\",\"v\":1,\
             \"run\":{\"workload\":\"mixD\",\"eval_us\":1000},\
             \"limits\":{\"max_sim_time_us\":1000,\"wall_time_ms\":60000}}",
        )
        .unwrap();
        let job = m.resolve().unwrap();
        assert!(job.cache_eligible);
        assert_eq!(job.job_key, job.fingerprint);
    }

    #[test]
    fn sweep_section_parses_with_defaults() {
        let m = manifest("{\"schema\":\"memnet-manifest\",\"v\":2,\"sweep\":{}}").unwrap();
        let sweep = m.sweep.expect("sweep present");
        assert_eq!(sweep, SweepSpec::default());
        assert_eq!(sweep.figures.len(), SWEEP_FIGURES.len(), "defaults to every figure");
        assert_eq!(sweep.shards, 1);
        assert_eq!(sweep.eval_us, 1_000);
        assert_eq!(sweep.seed, 0xC0FFEE);
        assert!(!sweep.obs);
        assert!(sweep.out.is_none());

        let m = manifest(
            "{\"schema\":\"memnet-manifest\",\"v\":2,\
             \"sweep\":{\"figures\":[\"fig05\",\"model_diff\"],\"shards\":4,\
             \"eval_us\":50,\"seed\":7,\"obs\":true,\"out\":\"m.jsonl\"}}",
        )
        .unwrap();
        let sweep = m.sweep.unwrap();
        assert_eq!(sweep.figures, ["fig05", "model_diff"]);
        assert_eq!(sweep.shards, 4);
        assert_eq!(sweep.eval_us, 50);
        assert_eq!(sweep.seed, 7);
        assert!(sweep.obs);
        assert_eq!(sweep.out.as_deref(), Some("m.jsonl"));
    }

    #[test]
    fn sweep_requires_v2() {
        let err = manifest("{\"schema\":\"memnet-manifest\",\"v\":1,\n\"sweep\":{}}").unwrap_err();
        assert_eq!(err.path, "sweep");
        assert_eq!(err.line, Some(2));
        assert!(err.msg.contains("\"v\": 2"), "{}", err.msg);
    }

    #[test]
    fn sweep_excludes_run_limits_and_assertions() {
        let err = manifest(
            "{\"schema\":\"memnet-manifest\",\"v\":2,\"sweep\":{},\
             \"run\":{\"workload\":\"mixD\"}}",
        )
        .unwrap_err();
        assert_eq!(err.path, "run");
        assert!(err.msg.contains("sweep manifest"), "{}", err.msg);
        let err = manifest(
            "{\"schema\":\"memnet-manifest\",\"v\":2,\
             \"limits\":{\"max_events\":5},\"sweep\":{}}",
        )
        .unwrap_err();
        assert_eq!(err.path, "limits");
    }

    #[test]
    fn sweep_validates_figures_shards_and_obs() {
        let err = manifest(
            "{\"schema\":\"memnet-manifest\",\"v\":2,\
             \"sweep\":{\"figures\":[\"fig99\"]}}",
        )
        .unwrap_err();
        assert_eq!(err.path, "sweep.figures");
        assert!(err.msg.contains("fig99"));
        assert!(err.msg.contains("fig05"), "lists valid figures: {}", err.msg);

        let err = manifest("{\"schema\":\"memnet-manifest\",\"v\":2,\"sweep\":{\"shards\":0}}")
            .unwrap_err();
        assert_eq!(err.path, "sweep.shards");
        assert!(err.msg.contains("1..=4096"), "{}", err.msg);
        let err = manifest("{\"schema\":\"memnet-manifest\",\"v\":2,\"sweep\":{\"shards\":5000}}")
            .unwrap_err();
        assert_eq!(err.path, "sweep.shards");

        let err = manifest("{\"schema\":\"memnet-manifest\",\"v\":2,\"sweep\":{\"obs\":\"yes\"}}")
            .unwrap_err();
        assert_eq!(err.path, "sweep.obs");
        assert!(err.msg.contains("true or false"), "{}", err.msg);

        let err = manifest("{\"schema\":\"memnet-manifest\",\"v\":2,\"sweep\":{\"figs\":[]}}")
            .unwrap_err();
        assert_eq!(err.path, "sweep.figs");
        assert!(err.msg.contains("figures"), "suggests valid keys: {}", err.msg);
    }

    #[test]
    fn sweep_manifests_do_not_resolve_to_a_single_job() {
        let m = manifest("{\"schema\":\"memnet-manifest\",\"v\":2,\"sweep\":{}}").unwrap();
        let err = m.resolve().unwrap_err();
        assert_eq!(err.path, "sweep");
        assert!(err.msg.contains("not a single run"), "{}", err.msg);
    }

    #[test]
    fn calibration_digest_is_stable_and_content_sensitive() {
        let stock = IddModel::hmc_gen2();
        let mut hot = stock.clone();
        hot.io_on_current *= 1.1;
        assert_eq!(calibration_digest(&stock), calibration_digest(&stock));
        assert_ne!(calibration_digest(&stock), calibration_digest(&hot));
        assert_eq!(calibration_digest(&stock).len(), 16);
    }
}
