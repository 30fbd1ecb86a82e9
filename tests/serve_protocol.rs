//! `csat-serve` protocol integration tests (tier-1, no features).
//!
//! Each test spawns the real daemon binary and drives the JSONL protocol
//! over its stdin/stdout (plus one unix-socket round trip): solve frames
//! produce `queued` + `result`, malformed lines produce structured
//! `error` frames, overload sheds with a retry hint, `drain`/EOF/SIGTERM
//! all end in a `summary` frame and exit 0. The injected-fault chaos
//! suite lives in `serve_resilience.rs` behind `fault-injection`.

use std::io::{BufRead, BufReader, Write};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc::{self, Receiver};
use std::time::{Duration, Instant};

/// Single NOT gate: `y = NOT(a) = 1` forces `a = 0`, so the model
/// bit-string is exactly `"0"`.
const NOT1: &str = "INPUT(a)\\nOUTPUT(y)\\ny = NOT(a)";

struct Daemon {
    child: Child,
    stdin: Option<ChildStdin>,
    rx: Receiver<String>,
    seen: Vec<String>,
}

impl Daemon {
    fn spawn(args: &[&str]) -> Daemon {
        let mut child = Command::new(env!("CARGO_BIN_EXE_csat-serve"))
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn csat-serve");
        let stdout = child.stdout.take().expect("piped stdout");
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines() {
                match line {
                    Ok(l) => {
                        if tx.send(l).is_err() {
                            break;
                        }
                    }
                    Err(_) => break,
                }
            }
        });
        let stdin = child.stdin.take();
        Daemon {
            child,
            stdin,
            rx,
            seen: Vec::new(),
        }
    }

    fn send(&mut self, line: &str) {
        writeln!(self.stdin.as_mut().expect("stdin open"), "{line}").expect("write frame");
    }

    /// Blocks until a line containing `needle` arrives; panics with the
    /// full transcript on timeout. Lines are accumulated in `seen`.
    fn expect_line(&mut self, needle: &str, timeout: Duration) -> String {
        let deadline = Instant::now() + timeout;
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                panic!(
                    "no line containing {needle:?}; transcript: {:#?}",
                    self.seen
                );
            }
            match self.rx.recv_timeout(left) {
                Ok(line) => {
                    self.seen.push(line.clone());
                    if line.contains(needle) {
                        return line;
                    }
                }
                Err(_) => {
                    panic!(
                        "no line containing {needle:?}; transcript: {:#?}",
                        self.seen
                    )
                }
            }
        }
    }

    /// Closes stdin; the daemon treats EOF as a drain request.
    fn close_stdin(&mut self) {
        drop(self.stdin.take());
    }

    /// Closes stdin (EOF starts the drain) and waits for a clean exit.
    fn eof_and_wait(mut self) -> i32 {
        self.close_stdin();
        self.wait()
    }

    fn wait(mut self) -> i32 {
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            match self.child.try_wait().expect("try_wait") {
                Some(status) => return status.code().expect("exit code"),
                None if Instant::now() >= deadline => {
                    let _ = self.child.kill();
                    panic!("daemon failed to exit; transcript: {:#?}", self.seen);
                }
                None => std::thread::sleep(Duration::from_millis(20)),
            }
        }
    }
}

fn solve_frame(id: &str) -> String {
    format!(r#"{{"type": "solve", "id": "{id}", "source": "{NOT1}", "format": "bench"}}"#)
}

#[test]
fn solve_round_trip_over_stdin() {
    let mut d = Daemon::spawn(&["--stdin", "--workers", "2"]);
    d.send(&solve_frame("rt"));
    d.expect_line("\"type\": \"queued\"", Duration::from_secs(30));
    let result = d.expect_line("\"type\": \"result\"", Duration::from_secs(30));
    assert!(result.contains("\"id\": \"rt\""), "{result}");
    assert!(result.contains("\"status\": \"sat\""), "{result}");
    assert!(result.contains("\"model\": \"0\""), "{result}");
    // EOF is a drain request: the daemon finishes, summarizes, exits 0.
    d.close_stdin();
    let summary = d.expect_line("\"type\": \"summary\"", Duration::from_secs(30));
    assert!(summary.contains("\"sat\": 1"), "{summary}");
    assert_eq!(d.wait(), 0);
}

#[test]
fn malformed_lines_get_structured_errors_and_daemon_survives() {
    let mut d = Daemon::spawn(&["--stdin"]);
    d.send("this is not json");
    d.expect_line("\"type\": \"error\"", Duration::from_secs(30));
    d.send(r#"{"type": "solve"}"#);
    d.expect_line("\"type\": \"error\"", Duration::from_secs(30));
    // Still serving after the garbage.
    d.send(&solve_frame("after"));
    let result = d.expect_line("\"type\": \"result\"", Duration::from_secs(30));
    assert!(result.contains("\"status\": \"sat\""), "{result}");
    assert_eq!(d.eof_and_wait(), 0);
}

/// This 40-byte AIGER payload claims 2^40 variables in its header. The
/// reader once sized its variable table from that count and aborted the
/// daemon, so the job sent after it was never answered.
#[test]
fn huge_aiger_header_is_answered_and_the_next_job_solved() {
    let mut d = Daemon::spawn(&["--stdin"]);
    d.send(
        r#"{"type":"solve","id":"x","format":"aiger","source":"aag 1099511627776 1 0 0 0\n2\n"}"#,
    );
    d.send(&solve_frame("healthy"));
    let answer = d.expect_line("\"id\": \"x\"", Duration::from_secs(30));
    assert!(answer.contains("\"type\": \"reject\""), "{answer}");
    let result = d.expect_line("\"type\": \"result\"", Duration::from_secs(30));
    assert!(result.contains("\"id\": \"healthy\""), "{result}");
    assert!(result.contains("\"status\": \"sat\""), "{result}");
    assert_eq!(d.eof_and_wait(), 0);
}

#[test]
fn status_and_cancel_of_unknown_id() {
    let mut d = Daemon::spawn(&["--stdin", "--workers", "3", "--queue", "7"]);
    d.send(r#"{"type": "status"}"#);
    let status = d.expect_line("\"type\": \"status\"", Duration::from_secs(30));
    assert!(status.contains("\"workers\": 3"), "{status}");
    assert!(status.contains("\"capacity\": 7"), "{status}");
    d.send(r#"{"type": "cancel", "id": "ghost"}"#);
    let ack = d.expect_line("\"type\": \"cancelled\"", Duration::from_secs(30));
    assert!(ack.contains("\"found\": false"), "{ack}");
    assert_eq!(d.eof_and_wait(), 0);
}

#[test]
fn drain_frame_finishes_queued_work_then_exits_zero() {
    let mut d = Daemon::spawn(&["--stdin"]);
    d.send(&solve_frame("before"));
    d.send(r#"{"type": "drain"}"#);
    // New work after the drain is shed, not queued.
    d.send(&solve_frame("after"));
    let result = d.expect_line("\"type\": \"result\"", Duration::from_secs(30));
    assert!(result.contains("\"id\": \"before\""), "{result}");
    let summary = d.expect_line("\"type\": \"summary\"", Duration::from_secs(30));
    assert!(summary.contains("\"sat\": 1"), "{summary}");
    assert!(
        d.seen
            .iter()
            .any(|l| l.contains("\"id\": \"after\"") && l.contains("\"reason\": \"draining\"")),
        "{:#?}",
        d.seen
    );
    assert_eq!(d.wait(), 0);
}

#[test]
fn overload_sheds_with_retry_hint_and_every_frame_is_answered() {
    let mut d = Daemon::spawn(&["--stdin", "--workers", "1", "--queue", "1"]);
    const JOBS: usize = 12;
    for i in 0..JOBS {
        d.send(&solve_frame(&format!("j{i}")));
    }
    // Every admission gets `queued` then `result`; every shed gets
    // `reject` with the retry hint. Together they account for all frames.
    let deadline = Instant::now() + Duration::from_secs(60);
    let (mut queued, mut rejected, mut results) = (0, 0, 0);
    while results + rejected < JOBS && Instant::now() < deadline {
        if let Ok(line) = d.rx.recv_timeout(Duration::from_millis(100)) {
            if line.contains("\"type\": \"queued\"") {
                queued += 1;
            } else if line.contains("\"type\": \"reject\"") {
                assert!(line.contains("\"reason\": \"overloaded\""), "{line}");
                assert!(line.contains("retry_after_ms"), "{line}");
                rejected += 1;
            } else if line.contains("\"type\": \"result\"") {
                results += 1;
            }
            d.seen.push(line);
        }
    }
    assert_eq!(queued + rejected, JOBS, "{:#?}", d.seen);
    assert_eq!(results, queued, "{:#?}", d.seen);
    assert_eq!(d.eof_and_wait(), 0);
}

#[test]
fn sigterm_drains_gracefully_and_exits_zero() {
    let mut d = Daemon::spawn(&["--stdin"]);
    d.send(&solve_frame("pre-term"));
    d.expect_line("\"type\": \"result\"", Duration::from_secs(30));
    let pid = d.child.id().to_string();
    let killed = Command::new("kill")
        .args(["-TERM", &pid])
        .status()
        .expect("send SIGTERM");
    assert!(killed.success());
    d.expect_line("\"type\": \"summary\"", Duration::from_secs(30));
    assert_eq!(d.wait(), 0);
}

#[cfg(unix)]
#[test]
fn unix_socket_round_trip() {
    use std::os::unix::net::UnixStream;

    let path = std::env::temp_dir().join(format!("csat-serve-{}.sock", std::process::id()));
    let path_str = path.to_str().expect("utf-8 socket path");
    let d = Daemon::spawn(&["--socket", path_str]);
    // The daemon binds shortly after spawn; retry until it's listening.
    let deadline = Instant::now() + Duration::from_secs(30);
    let stream = loop {
        match UnixStream::connect(&path) {
            Ok(s) => break s,
            Err(_) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(20)),
            Err(e) => panic!("socket never came up: {e}"),
        }
    };
    let mut writer = stream.try_clone().expect("clone stream");
    let mut reader = BufReader::new(stream);
    writeln!(writer, "{}", solve_frame("sock")).expect("write frame");
    let mut saw_result = false;
    let mut line = String::new();
    for _ in 0..16 {
        line.clear();
        if reader.read_line(&mut line).unwrap_or(0) == 0 {
            break;
        }
        if line.contains("\"type\": \"result\"") {
            assert!(line.contains("\"id\": \"sock\""), "{line}");
            assert!(line.contains("\"status\": \"sat\""), "{line}");
            saw_result = true;
            break;
        }
    }
    assert!(saw_result, "no result frame over the socket");
    writeln!(writer, r#"{{"type": "drain"}}"#).expect("write drain");
    assert_eq!(d.wait(), 0);
    let _ = std::fs::remove_file(&path);
}
