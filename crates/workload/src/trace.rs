//! Schema-versioned request traces: record a workload's `MemoryRequest`
//! stream to a compact JSONL file and replay it later, bit-identically.
//!
//! The format mirrors the observability trace (`memnet-obs`): one JSON
//! header line identifying the schema, the workload, the seed and a
//! content digest; one compact record line per request; and an `end`
//! footer carrying the record count so truncated files are detected.
//!
//! ```text
//! {"schema":"memnet-reqtrace","version":1,"workload":"mixD","seed":7,"count":3,"digest":"1a2b..."}
//! {"t":1234,"a":98765,"r":1}
//! {"t":2345,"a":43210,"r":0}
//! {"t":3456,"a":11111,"r":1}
//! {"ev":"end","count":3}
//! ```
//!
//! `t` is the request's schedule time in picoseconds, `a` the line
//! address, `r` 1 for a read. The digest is FNV-1a 64 over every record's
//! fields, so a replayed run can carry a stable identity (e.g. into a
//! result-cache key) and corrupted or hand-edited traces are rejected at
//! parse time rather than silently producing different results.

use std::sync::Arc;

use memnet_simcore::SimTime;
use serde::json;

use crate::gen::MemoryRequest;

/// Schema tag written into (and required from) every trace header.
pub const REQTRACE_SCHEMA: &str = "memnet-reqtrace";

/// Version of the request-trace line format. Bump whenever a line shape,
/// field name, or field meaning changes; the parser refuses traces whose
/// header carries a different version.
pub const REQTRACE_VERSION: u32 = 1;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME))
}

/// FNV-1a 64 digest over a record sequence (schedule time, address, kind).
fn digest_records(records: &[MemoryRequest]) -> u64 {
    let mut h = FNV_OFFSET;
    for r in records {
        h = fnv1a(h, &r.ready_at.as_ps().to_le_bytes());
        h = fnv1a(h, &r.line_addr.to_le_bytes());
        h = fnv1a(h, &[u8::from(r.is_read)]);
    }
    h
}

/// A recorded request stream with the identity needed to replay it.
///
/// # Examples
///
/// ```
/// use memnet_workload::trace::RequestTrace;
/// use memnet_workload::MemoryRequest;
/// use memnet_simcore::SimTime;
///
/// let records = vec![MemoryRequest {
///     ready_at: SimTime::from_ps(100),
///     line_addr: 42,
///     is_read: true,
/// }];
/// let trace = RequestTrace::new("mixD", 7, records);
/// let text = trace.to_jsonl();
/// let back = RequestTrace::parse_jsonl(&text).expect("round trip");
/// assert_eq!(back, trace);
/// assert_eq!(back.digest(), trace.digest());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestTrace {
    /// Name of the workload the trace was recorded from (catalog or
    /// stress-catalog name; replay resolves it for footprint and scale).
    pub workload: String,
    /// Seed the recording run used. A replay seeded identically drives
    /// every non-frontend RNG stream (faults, channels) the same way, so
    /// record→replay round trips are bit-identical by default.
    pub seed: u64,
    records: Vec<MemoryRequest>,
    digest: u64,
}

impl RequestTrace {
    /// Wraps a record sequence, computing its digest.
    pub fn new(workload: impl Into<String>, seed: u64, records: Vec<MemoryRequest>) -> Self {
        let digest = digest_records(&records);
        RequestTrace { workload: workload.into(), seed, records, digest }
    }

    /// The recorded requests, in schedule order.
    pub fn records(&self) -> &[MemoryRequest] {
        &self.records
    }

    /// Number of recorded requests.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// FNV-1a 64 digest of the record content.
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// The digest as the 16-hex-digit string used in headers and cache
    /// keys.
    pub fn digest_hex(&self) -> String {
        format!("{:016x}", self.digest)
    }

    /// Serializes the trace to its JSONL form (header, records, footer).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(64 + self.records.len() * 32);
        out.push_str(&format!(
            "{{\"schema\":\"{REQTRACE_SCHEMA}\",\"version\":{REQTRACE_VERSION},\
             \"workload\":{},\"seed\":{},\"count\":{},\"digest\":\"{}\"}}\n",
            json::to_string(self.workload.as_str()),
            self.seed,
            self.records.len(),
            self.digest_hex(),
        ));
        for r in &self.records {
            out.push_str(&format!(
                "{{\"t\":{},\"a\":{},\"r\":{}}}\n",
                r.ready_at.as_ps(),
                r.line_addr,
                u8::from(r.is_read)
            ));
        }
        out.push_str(&format!("{{\"ev\":\"end\",\"count\":{}}}\n", self.records.len()));
        out
    }

    /// Parses and validates a JSONL trace: schema and version must match,
    /// the footer count must equal the records present, schedule times
    /// must be non-decreasing, and the recomputed digest must equal the
    /// header's.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending line or mismatch.
    pub fn parse_jsonl(text: &str) -> Result<RequestTrace, String> {
        let mut lines = text.lines().enumerate().filter(|(_, l)| !l.trim().is_empty());
        let (_, header_line) = lines.next().ok_or("empty trace file")?;
        let header = json::parse_borrowed(header_line).map_err(|e| format!("line 1: {e}"))?;
        let schema =
            header.get("schema").and_then(|v| v.as_str()).map_err(|e| format!("header: {e}"))?;
        if schema != REQTRACE_SCHEMA {
            return Err(format!(
                "not a request trace (schema {schema:?}, want {REQTRACE_SCHEMA:?})"
            ));
        }
        let version: u32 =
            header.get("version").and_then(|v| v.num()).map_err(|e| format!("header: {e}"))?;
        if version != REQTRACE_VERSION {
            return Err(format!(
                "unsupported trace version {version} (this build reads version {REQTRACE_VERSION})"
            ));
        }
        let workload = header
            .get("workload")
            .and_then(|v| v.as_str())
            .map_err(|e| format!("header: {e}"))?
            .to_owned();
        let seed: u64 =
            header.get("seed").and_then(|v| v.num()).map_err(|e| format!("header: {e}"))?;
        let count: usize =
            header.get("count").and_then(|v| v.num()).map_err(|e| format!("header: {e}"))?;
        let digest_hex = header
            .get("digest")
            .and_then(|v| v.as_str())
            .map_err(|e| format!("header: {e}"))?
            .to_owned();
        let declared_digest = u64::from_str_radix(&digest_hex, 16)
            .map_err(|_| format!("header: digest {digest_hex:?} is not 16 hex digits"))?;

        let mut records = Vec::with_capacity(count);
        let mut footer_count: Option<usize> = None;
        let mut prev = SimTime::ZERO;
        for (idx, line) in lines {
            let n = idx + 1;
            let v = json::parse_borrowed(line).map_err(|e| format!("line {n}: {e}"))?;
            if let Ok(ev) = v.get("ev") {
                let ev = ev.as_str().map_err(|e| format!("line {n}: {e}"))?;
                if ev != "end" {
                    return Err(format!("line {n}: unexpected event {ev:?}"));
                }
                footer_count = Some(
                    v.get("count").and_then(|c| c.num()).map_err(|e| format!("line {n}: {e}"))?,
                );
                continue;
            }
            if footer_count.is_some() {
                return Err(format!("line {n}: record after the end footer"));
            }
            let t: u64 = v.get("t").and_then(|t| t.num()).map_err(|e| format!("line {n}: {e}"))?;
            let a: u64 = v.get("a").and_then(|a| a.num()).map_err(|e| format!("line {n}: {e}"))?;
            let r: u8 = v.get("r").and_then(|r| r.num()).map_err(|e| format!("line {n}: {e}"))?;
            if r > 1 {
                return Err(format!("line {n}: r must be 0 or 1, got {r}"));
            }
            let ready_at = SimTime::from_ps(t);
            if ready_at < prev {
                return Err(format!("line {n}: schedule time {t} ps goes backwards"));
            }
            prev = ready_at;
            records.push(MemoryRequest { ready_at, line_addr: a, is_read: r == 1 });
        }
        let footer_count = footer_count.ok_or("missing end footer (truncated trace?)")?;
        if footer_count != records.len() || count != records.len() {
            return Err(format!(
                "record count mismatch: header declares {count}, footer {footer_count}, found {}",
                records.len()
            ));
        }
        let digest = digest_records(&records);
        if digest != declared_digest {
            return Err(format!(
                "digest mismatch: header declares {digest_hex}, content hashes to {digest:016x} \
                 (corrupted or edited trace)"
            ));
        }
        Ok(RequestTrace { workload, seed, records, digest })
    }
}

/// A shared-ownership read cursor over a [`RequestTrace`], cheap to clone
/// (sweeps clone configurations freely; the records are never copied).
#[derive(Debug, Clone)]
pub struct TraceCursor {
    trace: Arc<RequestTrace>,
    next: usize,
}

impl TraceCursor {
    /// Starts a cursor at the beginning of `trace`.
    pub fn new(trace: Arc<RequestTrace>) -> Self {
        TraceCursor { trace, next: 0 }
    }

    /// The next recorded request, or `None` once the trace is exhausted.
    pub fn next_request(&mut self) -> Option<MemoryRequest> {
        let r = self.trace.records.get(self.next).copied();
        if r.is_some() {
            self.next += 1;
        }
        r
    }

    /// Requests consumed so far.
    pub fn position(&self) -> usize {
        self.next
    }

    /// The underlying trace.
    pub fn trace(&self) -> &Arc<RequestTrace> {
        &self.trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(n: u64) -> Vec<MemoryRequest> {
        (0..n)
            .map(|i| MemoryRequest {
                ready_at: SimTime::from_ps(100 * i),
                line_addr: 7 * i + 1,
                is_read: i % 3 != 0,
            })
            .collect()
    }

    #[test]
    fn jsonl_round_trip_preserves_everything() {
        let t = RequestTrace::new("mixB", 42, sample(20));
        let back = RequestTrace::parse_jsonl(&t.to_jsonl()).unwrap();
        assert_eq!(back, t);
        assert_eq!(back.digest_hex(), t.digest_hex());
        assert_eq!(back.workload, "mixB");
        assert_eq!(back.seed, 42);
    }

    #[test]
    fn digest_is_content_sensitive() {
        let a = RequestTrace::new("w", 1, sample(5));
        let mut records = sample(5);
        records[3].line_addr += 1;
        let b = RequestTrace::new("w", 1, records);
        assert_ne!(a.digest(), b.digest());
        // ...but not identity-sensitive: workload/seed are not hashed.
        let c = RequestTrace::new("other", 9, sample(5));
        assert_eq!(a.digest(), c.digest());
    }

    #[test]
    fn corrupted_record_is_rejected_by_digest() {
        let t = RequestTrace::new("w", 1, sample(8));
        let text = t.to_jsonl().replace("\"a\":22", "\"a\":23");
        let err = RequestTrace::parse_jsonl(&text).unwrap_err();
        assert!(err.contains("digest mismatch"), "{err}");
    }

    #[test]
    fn wrong_version_and_schema_are_rejected() {
        let t = RequestTrace::new("w", 1, sample(2));
        let text = t.to_jsonl().replace("\"version\":1", "\"version\":99");
        let err = RequestTrace::parse_jsonl(&text).unwrap_err();
        assert!(err.contains("version 99"), "{err}");
        let text = t.to_jsonl().replace(REQTRACE_SCHEMA, "memnet-trace");
        let err = RequestTrace::parse_jsonl(&text).unwrap_err();
        assert!(err.contains("not a request trace"), "{err}");
    }

    #[test]
    fn truncated_trace_is_rejected() {
        let t = RequestTrace::new("w", 1, sample(5));
        let full = t.to_jsonl();
        let cut: String = full.lines().take(4).map(|l| format!("{l}\n")).collect();
        let err = RequestTrace::parse_jsonl(&cut).unwrap_err();
        assert!(err.contains("missing end footer"), "{err}");
    }

    #[test]
    fn count_mismatch_is_rejected() {
        let t = RequestTrace::new("w", 1, sample(5));
        let text = t.to_jsonl().replace("\"count\":5,", "\"count\":6,");
        let err = RequestTrace::parse_jsonl(&text).unwrap_err();
        assert!(err.contains("count mismatch"), "{err}");
    }

    #[test]
    fn non_monotone_schedule_is_rejected() {
        let mut records = sample(3);
        records[2].ready_at = SimTime::from_ps(50);
        let digest = super::digest_records(&records);
        let text = format!(
            "{{\"schema\":\"{REQTRACE_SCHEMA}\",\"version\":{REQTRACE_VERSION},\"workload\":\"w\",\
             \"seed\":1,\"count\":3,\"digest\":\"{digest:016x}\"}}\n\
             {{\"t\":0,\"a\":1,\"r\":1}}\n{{\"t\":100,\"a\":8,\"r\":1}}\n\
             {{\"t\":50,\"a\":15,\"r\":1}}\n{{\"ev\":\"end\",\"count\":3}}\n"
        );
        let err = RequestTrace::parse_jsonl(&text).unwrap_err();
        assert!(err.contains("goes backwards"), "{err}");
    }

    #[test]
    fn cursor_walks_once_and_exhausts() {
        let t = Arc::new(RequestTrace::new("w", 1, sample(3)));
        let mut c = TraceCursor::new(t.clone());
        let mut seen = Vec::new();
        while let Some(r) = c.next_request() {
            seen.push(r);
        }
        assert_eq!(seen, t.records());
        assert_eq!(c.position(), 3);
        assert_eq!(c.next_request(), None, "stays exhausted");
    }

    #[test]
    fn empty_trace_round_trips() {
        let t = RequestTrace::new("w", 3, Vec::new());
        let back = RequestTrace::parse_jsonl(&t.to_jsonl()).unwrap();
        assert!(back.is_empty());
        assert_eq!(back, t);
    }
}
