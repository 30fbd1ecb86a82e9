//! The JSONL job protocol: request frames in, reply frames out.
//!
//! One frame per line, in both directions. Requests are parsed with the
//! hardened [`csat_telemetry::json`] reader and validated here into typed
//! [`Request`]s; anything malformed becomes a structured `error` reply —
//! the daemon never dies on input. Replies are rendered with the same
//! module's writer so the wire format cannot drift from the telemetry
//! output.
//!
//! ## Requests
//!
//! | `type`      | fields                                                        |
//! |-------------|---------------------------------------------------------------|
//! | `solve`     | `id`, `path` *or* `source`+`format`, plus limits (below)      |
//! | `solve-dir` | `id`, `dir`, plus limits — one job per instance file           |
//! | `cancel`    | `id` — cancel a queued or running job                          |
//! | `status`    | — queue depth, running jobs, counters                          |
//! | `drain`     | — stop accepting, finish in-flight, summary, exit              |
//!
//! Solve limits (all optional): `output` (objective name), `negate`,
//! `threads` (>1 solves on the parallel layer), `mode`
//! (`portfolio`/`cubes`), `prep` (`off`/`light`/`full` preprocessing in
//! front of the solve, charged to the job's budget), `timeout_ms`,
//! `conflicts`, `mem` (byte size, `k`/`m`/`g` suffixes), `progress_ms`
//! (emit job-tagged progress frames).
//! With the `fault-injection` feature the frame may also carry `fault`
//! (`panic`/`memory`/`cancel`/`stall`), `fault_at` (checkpoint ordinal)
//! and `fault_ms` (stall length) for chaos testing.
//!
//! ## Replies
//!
//! `queued`, `result`, `reject` (with `reason` and `retry_after_ms`),
//! `error`, `progress`, `status`, `cancelled`, `summary` — schemas in the
//! README's Serving section.

use csat_par::ParMode;
use csat_pipeline::Format;
use csat_prep::PrepLevel;
use csat_telemetry::json::{self, Json, JsonObject};
use csat_types::{parse_byte_size, Interrupt, RejectReason, Verdict};

/// Longest accepted request line, in bytes. Inline sources for real
/// circuits fit comfortably; anything bigger should be sent as a `path`.
pub const MAX_FRAME_BYTES: usize = 4 << 20;

/// Where a job's instance comes from.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JobSource {
    /// Load from a file on the daemon's filesystem (format by extension,
    /// like the `csat` CLI).
    Path(String),
    /// Inline text in the named format (`bench`, `aiger` or `dimacs`).
    Inline {
        /// Instance format.
        format: Format,
        /// The instance text itself.
        text: String,
    },
}

/// A deterministic fault to inject into one served job (chaos tests).
#[cfg(feature = "fault-injection")]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultSpec {
    /// Which failure to force.
    pub kind: csat_types::FaultKind,
    /// Checkpoint ordinal to fire at (1-based).
    pub at: u64,
}

/// One `solve` job, fully validated.
#[derive(Clone, Debug, PartialEq)]
pub struct SolveRequest {
    /// Client-chosen job id; echoed on every reply about this job.
    pub id: String,
    /// Where the instance comes from.
    pub source: JobSource,
    /// Objective output name (default: the first output).
    pub output: Option<String>,
    /// Solve for objective = 0 instead of 1.
    pub negate: bool,
    /// Worker threads for this job; 1 = the sequential circuit engine.
    pub threads: usize,
    /// Parallel mode when `threads > 1`.
    pub mode: ParMode,
    /// Preprocessing level run in front of the solve (charged to the
    /// job's budget).
    pub prep: PrepLevel,
    /// Wall-clock limit in milliseconds.
    pub timeout_ms: Option<u64>,
    /// Conflict limit.
    pub conflicts: Option<u64>,
    /// Explicit memory limit in bytes (otherwise the governor's share).
    pub mem: Option<u64>,
    /// Emit job-tagged `progress` frames at this interval.
    pub progress_ms: Option<u64>,
    /// Deterministic fault injection for this job.
    #[cfg(feature = "fault-injection")]
    pub fault: Option<FaultSpec>,
}

/// A parsed, validated request frame.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Solve one instance.
    Solve(Box<SolveRequest>),
    /// Solve every instance file in a directory (batch).
    SolveDir {
        /// Batch id; per-file jobs get `id/<filename>`.
        id: String,
        /// Directory to scan for `.bench`/`.aag`/`.aig`/`.cnf`/`.dimacs`.
        dir: String,
        /// Template whose limits apply to every file (its `id`/`source`
        /// are placeholders).
        template: Box<SolveRequest>,
    },
    /// Cancel a queued or running job by id.
    Cancel {
        /// The job to cancel.
        id: String,
    },
    /// Report queue depth, in-flight jobs and lifetime counters.
    Status,
    /// Begin a graceful drain: reject new work, finish in-flight jobs,
    /// emit a summary, exit 0.
    Drain,
}

/// Why a frame could not be turned into a [`Request`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FrameError {
    /// Human-readable description, safe to echo to the client.
    pub message: String,
    /// The request id, when one could be extracted — lets clients
    /// correlate the error with the frame that caused it.
    pub id: Option<String>,
}

impl FrameError {
    fn new(message: impl Into<String>, id: Option<&str>) -> FrameError {
        FrameError {
            message: message.into(),
            id: id.map(str::to_string),
        }
    }
}

/// Parses one request line. Never panics, whatever the input.
pub fn parse_request(line: &str) -> Result<Request, FrameError> {
    if line.len() > MAX_FRAME_BYTES {
        return Err(FrameError::new(
            format!("frame exceeds {MAX_FRAME_BYTES} bytes"),
            None,
        ));
    }
    let value = json::parse(line).map_err(|e| FrameError::new(format!("bad JSON: {e}"), None))?;
    let id = value.get("id").and_then(Json::as_str);
    if !matches!(value, Json::Obj(_)) {
        return Err(FrameError::new("frame must be a JSON object", None));
    }
    let kind = value
        .get("type")
        .and_then(Json::as_str)
        .ok_or_else(|| FrameError::new("missing 'type' field", id))?;
    match kind {
        "solve" => Ok(Request::Solve(Box::new(parse_solve(&value, true)?))),
        "solve-dir" => {
            let id = require_id(&value)?;
            let dir = value
                .get("dir")
                .and_then(Json::as_str)
                .ok_or_else(|| FrameError::new("solve-dir needs a 'dir' field", Some(&id)))?
                .to_string();
            let template = parse_solve(&value, false)?;
            Ok(Request::SolveDir {
                id,
                dir,
                template: Box::new(template),
            })
        }
        "cancel" => Ok(Request::Cancel {
            id: require_id(&value)?,
        }),
        "status" => Ok(Request::Status),
        "drain" => Ok(Request::Drain),
        other => Err(FrameError::new(
            format!("unknown request type '{other}'"),
            id,
        )),
    }
}

fn require_id(value: &Json) -> Result<String, FrameError> {
    match value.get("id").and_then(Json::as_str) {
        Some(id) if !id.is_empty() => Ok(id.to_string()),
        _ => Err(FrameError::new("missing or empty 'id' field", None)),
    }
}

fn parse_solve(value: &Json, need_source: bool) -> Result<SolveRequest, FrameError> {
    let id = require_id(value)?;
    let err = |msg: String| FrameError::new(msg, Some(&id));
    let path = value.get("path").and_then(Json::as_str);
    let source_text = value.get("source").and_then(Json::as_str);
    let source = match (path, source_text) {
        (Some(_), Some(_)) => {
            return Err(err("give either 'path' or 'source', not both".to_string()))
        }
        (Some(p), None) => Some(JobSource::Path(p.to_string())),
        (None, Some(text)) => {
            let name = value
                .get("format")
                .and_then(Json::as_str)
                .unwrap_or("bench");
            let format = Format::from_name(name).ok_or_else(|| {
                err(format!(
                    "unknown format '{name}' (expected bench, aiger or dimacs)"
                ))
            })?;
            Some(JobSource::Inline {
                format,
                text: text.to_string(),
            })
        }
        (None, None) => None,
    };
    let source = match source {
        Some(s) => s,
        None if need_source => {
            return Err(err("solve needs a 'path' or inline 'source'".to_string()))
        }
        // solve-dir template: the per-file path is filled in later.
        None => JobSource::Path(String::new()),
    };
    let uint = |field: &str| -> Result<Option<u64>, FrameError> {
        match value.get(field) {
            None | Some(Json::Null) => Ok(None),
            Some(v) => v
                .as_u64()
                .map(Some)
                .ok_or_else(|| err(format!("'{field}' must be a non-negative integer"))),
        }
    };
    let threads = uint("threads")?.unwrap_or(1).clamp(1, 64) as usize;
    let mode = match value.get("mode") {
        None | Some(Json::Null) => ParMode::Portfolio,
        Some(v) => v
            .as_str()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| err("'mode' must be 'portfolio' or 'cubes'".to_string()))?,
    };
    let prep = match value.get("prep") {
        None | Some(Json::Null) => PrepLevel::Off,
        Some(v) => v
            .as_str()
            .and_then(PrepLevel::parse)
            .ok_or_else(|| err("'prep' must be 'off', 'light' or 'full'".to_string()))?,
    };
    let mem = match value.get("mem") {
        None | Some(Json::Null) => None,
        Some(Json::Str(s)) => Some(parse_byte_size(s).map_err(err)?),
        Some(v) => Some(
            v.as_u64()
                .ok_or_else(|| err("'mem' must be a byte size".to_string()))?,
        ),
    };
    #[cfg(feature = "fault-injection")]
    let fault = parse_fault(value, &id)?;
    #[cfg(not(feature = "fault-injection"))]
    parse_fault(value, &id)?;
    Ok(SolveRequest {
        output: value
            .get("output")
            .and_then(Json::as_str)
            .map(str::to_string),
        negate: value.get("negate").and_then(Json::as_bool).unwrap_or(false),
        threads,
        mode,
        prep,
        timeout_ms: uint("timeout_ms")?,
        conflicts: uint("conflicts")?,
        mem,
        progress_ms: uint("progress_ms")?.map(|v| v.max(1)),
        #[cfg(feature = "fault-injection")]
        fault,
        source,
        id,
    })
}

#[cfg(feature = "fault-injection")]
fn parse_fault(value: &Json, id: &str) -> Result<Option<FaultSpec>, FrameError> {
    use csat_types::FaultKind;
    let kind = match value.get("fault") {
        None | Some(Json::Null) => return Ok(None),
        Some(v) => v
            .as_str()
            .ok_or_else(|| FrameError::new("'fault' must be a string", Some(id)))?,
    };
    let at = value
        .get("fault_at")
        .and_then(Json::as_u64)
        .unwrap_or(1)
        .max(1);
    let kind = match kind {
        "panic" => FaultKind::Panic,
        "memory" => FaultKind::MemoryExhaustion,
        "cancel" => FaultKind::Cancel,
        "stall" => {
            let ms = value.get("fault_ms").and_then(Json::as_u64).unwrap_or(100);
            FaultKind::Stall(ms)
        }
        other => {
            return Err(FrameError::new(
                format!("unknown fault kind '{other}'"),
                Some(id),
            ))
        }
    };
    Ok(Some(FaultSpec { kind, at }))
}

#[cfg(not(feature = "fault-injection"))]
fn parse_fault(value: &Json, id: &str) -> Result<(), FrameError> {
    match value.get("fault") {
        None | Some(Json::Null) => Ok(()),
        Some(_) => Err(FrameError::new(
            "fault injection is not compiled in (build with --features fault-injection)",
            Some(id),
        )),
    }
}

/// How one job ended, for the `result` frame.
#[derive(Clone, Debug, PartialEq)]
pub enum JobStatus {
    /// Satisfiable; the model is over the primary inputs.
    Sat(Vec<bool>),
    /// Unsatisfiable.
    Unsat,
    /// Stopped without an answer for this reason.
    Unknown(Interrupt),
    /// The job panicked; the daemon caught it and kept serving.
    Panicked,
}

impl JobStatus {
    /// Stable lower-case wire name.
    pub fn as_str(&self) -> &'static str {
        match self {
            JobStatus::Sat(_) => "sat",
            JobStatus::Unsat => "unsat",
            JobStatus::Unknown(_) => "unknown",
            JobStatus::Panicked => "panicked",
        }
    }

    /// Converts a solver verdict.
    pub fn from_verdict(v: Verdict) -> JobStatus {
        match v {
            Verdict::Sat(model) => JobStatus::Sat(model),
            Verdict::Unsat => JobStatus::Unsat,
            Verdict::Unknown(Interrupt::Panicked) => JobStatus::Panicked,
            Verdict::Unknown(reason) => JobStatus::Unknown(reason),
        }
    }
}

/// Rendered reply frames (each is one line, newline not included).
pub mod reply {
    use super::*;

    /// `queued`: the job was admitted at this queue depth.
    pub fn queued(id: &str, depth: u32) -> String {
        let mut o = JsonObject::new();
        o.field_str("type", "queued")
            .field_str("id", id)
            .field_u64("depth", depth as u64);
        o.finish()
    }

    /// `reject`: the job was turned away before solving.
    pub fn reject(id: &str, reason: RejectReason, retry_after_ms: Option<u64>) -> String {
        let mut o = JsonObject::new();
        o.field_str("type", "reject")
            .field_str("id", id)
            .field_str("reason", reason.as_str());
        if let Some(ms) = retry_after_ms {
            o.field_u64("retry_after_ms", ms);
        }
        o.finish()
    }

    /// `error`: the frame itself was unusable.
    pub fn error(e: &FrameError) -> String {
        let mut o = JsonObject::new();
        o.field_str("type", "error");
        if let Some(id) = &e.id {
            o.field_str("id", id);
        }
        o.field_str("message", &e.message);
        o.finish()
    }

    /// `result`: terminal frame for one job.
    #[allow(clippy::too_many_arguments)]
    pub fn result(
        id: &str,
        status: &JobStatus,
        worker: u32,
        elapsed_ms: u64,
        conflicts: u64,
        decisions: u64,
        retried: bool,
    ) -> String {
        let mut o = JsonObject::new();
        o.field_str("type", "result")
            .field_str("id", id)
            .field_str("status", status.as_str());
        match status {
            JobStatus::Sat(model) => {
                let bits: String = model.iter().map(|&b| if b { '1' } else { '0' }).collect();
                o.field_str("model", &bits);
            }
            JobStatus::Unknown(reason) => {
                o.field_str("reason", reason.as_str());
            }
            _ => {}
        }
        o.field_u64("worker", worker as u64)
            .field_u64("elapsed_ms", elapsed_ms)
            .field_u64("conflicts", conflicts)
            .field_u64("decisions", decisions);
        if retried {
            o.field_bool("retried", true);
        }
        o.finish()
    }

    /// `cancelled`: acknowledgement of a `cancel` request.
    pub fn cancelled(id: &str, found: bool) -> String {
        let mut o = JsonObject::new();
        o.field_str("type", "cancelled")
            .field_str("id", id)
            .field_bool("found", found);
        o.finish()
    }

    /// `progress`: a job-tagged mid-solve snapshot.
    pub fn progress(
        id: &str,
        worker: u32,
        elapsed_ms: u64,
        conflicts: u64,
        decisions: u64,
    ) -> String {
        let mut o = JsonObject::new();
        o.field_str("type", "progress")
            .field_str("id", id)
            .field_u64("worker", worker as u64)
            .field_u64("elapsed_ms", elapsed_ms)
            .field_u64("conflicts", conflicts)
            .field_u64("decisions", decisions);
        o.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_minimal_solve() {
        let req = parse_request(r#"{"type": "solve", "id": "j1", "path": "c17.bench"}"#).unwrap();
        match req {
            Request::Solve(s) => {
                assert_eq!(s.id, "j1");
                assert_eq!(s.source, JobSource::Path("c17.bench".to_string()));
                assert_eq!(s.prep, PrepLevel::Off);
                assert_eq!(s.threads, 1);
                assert!(!s.negate);
                assert_eq!(s.timeout_ms, None);
            }
            other => panic!("wrong request: {other:?}"),
        }
    }

    #[test]
    fn parses_inline_source_and_limits() {
        let req = parse_request(
            r#"{"type": "solve", "id": "j2", "source": "INPUT(a)\nOUTPUT(a)", "format": "bench",
                "negate": true, "threads": 4, "mode": "cubes", "prep": "light",
                "timeout_ms": 500, "conflicts": 1000, "mem": "64m", "progress_ms": 100}"#,
        )
        .unwrap();
        match req {
            Request::Solve(s) => {
                assert!(matches!(s.source, JobSource::Inline { .. }));
                assert!(s.negate);
                assert_eq!(s.threads, 4);
                assert_eq!(s.mode, ParMode::Cubes);
                assert_eq!(s.prep, PrepLevel::Light);
                assert_eq!(s.timeout_ms, Some(500));
                assert_eq!(s.conflicts, Some(1000));
                assert_eq!(s.mem, Some(64 << 20));
                assert_eq!(s.progress_ms, Some(100));
            }
            other => panic!("wrong request: {other:?}"),
        }
    }

    #[test]
    fn parses_control_frames() {
        assert_eq!(
            parse_request(r#"{"type": "cancel", "id": "j1"}"#).unwrap(),
            Request::Cancel {
                id: "j1".to_string()
            }
        );
        assert_eq!(
            parse_request(r#"{"type": "status"}"#).unwrap(),
            Request::Status
        );
        assert_eq!(
            parse_request(r#"{"type": "drain"}"#).unwrap(),
            Request::Drain
        );
        match parse_request(r#"{"type": "solve-dir", "id": "b", "dir": "insts"}"#).unwrap() {
            Request::SolveDir { id, dir, .. } => {
                assert_eq!(id, "b");
                assert_eq!(dir, "insts");
            }
            other => panic!("wrong request: {other:?}"),
        }
    }

    #[test]
    fn rejects_malformed_frames_with_structured_errors() {
        for (frame, needle) in [
            ("not json", "bad JSON"),
            ("[1,2,3]", "object"),
            (r#"{"id": "x"}"#, "type"),
            (r#"{"type": "frobnicate"}"#, "unknown request type"),
            (r#"{"type": "solve", "id": "j"}"#, "'path' or inline"),
            (r#"{"type": "solve", "path": "f"}"#, "'id'"),
            (r#"{"type": "solve", "id": "", "path": "f"}"#, "'id'"),
            (
                r#"{"type": "solve", "id": "j", "path": "f", "source": "x"}"#,
                "not both",
            ),
            (
                r#"{"type": "solve", "id": "j", "source": "x", "format": "vhdl"}"#,
                "unknown format",
            ),
            (
                r#"{"type": "solve", "id": "j", "path": "f", "threads": -2}"#,
                "threads",
            ),
            (
                r#"{"type": "solve", "id": "j", "path": "f", "mem": "64q"}"#,
                "suffix",
            ),
            (
                r#"{"type": "solve", "id": "j", "path": "f", "prep": "turbo"}"#,
                "'prep'",
            ),
            (
                r#"{"type": "solve", "id": "j", "path": "f", "mode": "race"}"#,
                "mode",
            ),
            (r#"{"type": "cancel"}"#, "'id'"),
            (r#"{"type": "solve-dir", "id": "b"}"#, "'dir'"),
        ] {
            let err = parse_request(frame).unwrap_err();
            assert!(
                err.message.contains(needle),
                "frame {frame}: expected '{needle}' in '{}'",
                err.message
            );
        }
    }

    #[test]
    fn error_replies_carry_the_id_when_extractable() {
        let err = parse_request(r#"{"type": "nope", "id": "j9"}"#).unwrap_err();
        assert_eq!(err.id.as_deref(), Some("j9"));
        let frame = reply::error(&err);
        assert!(frame.contains("\"id\": \"j9\""), "{frame}");
        assert!(frame.starts_with("{\"type\": \"error\""), "{frame}");
    }

    #[cfg(feature = "fault-injection")]
    #[test]
    fn fault_fields_parse_when_compiled_in() {
        use csat_types::FaultKind;
        let req = parse_request(
            r#"{"type": "solve", "id": "j", "path": "f", "fault": "stall",
                "fault_at": 7, "fault_ms": 30}"#,
        )
        .unwrap();
        match req {
            Request::Solve(s) => {
                let fault = s.fault.unwrap();
                assert_eq!(fault.kind, FaultKind::Stall(30));
                assert_eq!(fault.at, 7);
            }
            other => panic!("wrong request: {other:?}"),
        }
        let err = parse_request(r#"{"type": "solve", "id": "j", "path": "f", "fault": "x"}"#)
            .unwrap_err();
        assert!(err.message.contains("unknown fault kind"));
    }

    #[cfg(not(feature = "fault-injection"))]
    #[test]
    fn fault_fields_are_rejected_when_not_compiled_in() {
        let err = parse_request(r#"{"type": "solve", "id": "j", "path": "f", "fault": "panic"}"#)
            .unwrap_err();
        assert!(err.message.contains("not compiled in"), "{}", err.message);
    }

    #[test]
    fn reply_frames_round_trip_through_the_parser() {
        let frames = [
            reply::queued("j1", 3),
            reply::reject("j2", RejectReason::Overloaded, Some(250)),
            reply::result(
                "j3",
                &JobStatus::Sat(vec![true, false, true]),
                0,
                12,
                34,
                56,
                false,
            ),
            reply::result(
                "j4",
                &JobStatus::Unknown(Interrupt::Timeout),
                1,
                1,
                2,
                3,
                true,
            ),
            reply::result("j5", &JobStatus::Panicked, 2, 0, 0, 0, false),
            reply::cancelled("j6", true),
            reply::progress("j7", 1, 100, 200, 300),
        ];
        for frame in &frames {
            let v = json::parse(frame).expect(frame);
            assert!(v.get("type").and_then(Json::as_str).is_some(), "{frame}");
        }
        let sat = json::parse(&frames[2]).unwrap();
        assert_eq!(sat.get("status").and_then(Json::as_str), Some("sat"));
        assert_eq!(sat.get("model").and_then(Json::as_str), Some("101"));
        let to = json::parse(&frames[3]).unwrap();
        assert_eq!(to.get("reason").and_then(Json::as_str), Some("timeout"));
        assert_eq!(to.get("retried").and_then(Json::as_bool), Some(true));
    }

    #[test]
    fn oversized_frames_are_rejected_cheaply() {
        let huge = format!(
            r#"{{"type": "solve", "id": "j", "source": "{}"}}"#,
            "x".repeat(MAX_FRAME_BYTES)
        );
        let err = parse_request(&huge).unwrap_err();
        assert!(err.message.contains("exceeds"), "{}", err.message);
    }
}
