//! `csat-serve` — a crash-tolerant solver daemon.
//!
//! Turns the workspace's solvers into a long-lived service speaking a
//! JSONL job protocol (one frame per line) over stdin/stdout and,
//! optionally, a unix socket. The design goal is *robustness first*:
//!
//! * [`protocol`] — hardened request parsing (via the
//!   [`csat_telemetry::json`] reader) and reply rendering; malformed
//!   frames become structured `error` replies, never crashes.
//! * [`queue`] — a bounded job queue with explicit backpressure: a full
//!   queue sheds with `reject`/`overloaded` + `retry_after_ms` instead of
//!   buffering without bound.
//! * [`governor`] — splits one process-wide `--mem-limit` into per-worker
//!   shares so concurrent jobs cannot collectively blow the budget.
//! * [`breaker`] — a per-instance circuit breaker: an instance that
//!   repeatedly panics or times out is shed (`breaker_open`) for a
//!   cool-off instead of grinding the pool down.
//! * [`job`] — per-job fault domains: own budget, own cancel token,
//!   `catch_unwind` isolation, and a single backoff retry under a halved
//!   memory budget after transient memory pressure.
//! * [`server`] — the daemon itself: worker pool, heartbeat watchdog for
//!   wedged jobs, graceful SIGINT/SIGTERM drain with a firm deadline, and
//!   the `status`/`summary` reporting.
//!
//! The crate is a library so the chaos/resilience test suites (and the
//! `csat-fuzz --matrix serve` family) can drive every layer in-process;
//! the `csat-serve` binary is a thin argument parser around
//! [`server::run`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod breaker;
pub mod governor;
pub mod job;
pub mod protocol;
pub mod queue;
pub mod server;

pub use protocol::{parse_request, FrameError, JobSource, JobStatus, Request, SolveRequest};
pub use server::{run, ServeConfig, Server};

/// A message to a transport's writer thread.
#[derive(Debug)]
pub enum OutMsg {
    /// One reply frame; the writer appends a newline and flushes.
    Line(String),
    /// Flush barrier: the writer flushes, then acks. Used to make sure
    /// the final `summary` reaches the client before the process exits.
    Sync(std::sync::mpsc::Sender<()>),
}
