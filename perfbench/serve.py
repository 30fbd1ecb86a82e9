"""A `csat-serve --stdin` client: one pipe connection, one reader thread."""

import json
import os
import queue
import subprocess
import threading
import time

_TICK = os.sysconf("SC_CLK_TCK")


class Daemon:
    """A daemon with one solving worker. Reply frames are timestamped on
    arrival by the reader thread and handed over through `frames`."""

    def __init__(self, exe):
        self.spawned = time.perf_counter()
        self.proc = subprocess.Popen(
            [exe, "--stdin", "--workers", "1"],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
        )
        self.frames = queue.Queue()
        self.reader = threading.Thread(target=self._read, daemon=True)
        self.reader.start()
        self.rusage = None

    def _read(self):
        for line in self.proc.stdout:
            self.frames.put((time.perf_counter(), json.loads(line)))
        self.frames.put((time.perf_counter(), None))

    def send(self, frame):
        """Writes one frame (bytes without the newline); returns the time the
        write started."""
        started = time.perf_counter()
        self.proc.stdin.write(frame + b"\n")
        self.proc.stdin.flush()
        return started

    def next_frame(self, timeout):
        """(arrival time, frame); frame is None once the daemon has exited."""
        return self.frames.get(timeout=timeout)

    def wait_for(self, kind, timeout=60):
        while True:
            at, frame = self.next_frame(timeout)
            if frame is None:
                raise RuntimeError(f"daemon exited while waiting for a {kind} frame")
            if frame.get("type") == kind:
                return at, frame

    def cpu_seconds(self):
        """User plus system CPU so far, at clock-tick resolution."""
        with open(f"/proc/{self.proc.pid}/stat") as f:
            fields = f.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / _TICK

    def start_drain(self):
        """Asks for a graceful drain without waiting for it."""
        try:
            self.send(b'{"type": "drain"}')
            self.proc.stdin.close()
        except (BrokenPipeError, ValueError):
            pass

    def close(self, timeout=60):
        """Graceful drain; returns the exit status. Kills the daemon if it
        has not exited within `timeout` seconds, and always reaps it."""
        if not self.proc.stdin.closed:
            self.start_drain()
        deadline = time.perf_counter() + timeout
        while self.reader.is_alive() and time.perf_counter() < deadline:
            self.reader.join(0.1)
        if self.reader.is_alive():
            self.proc.kill()
            self.reader.join()
        _, status, self.rusage = os.wait4(self.proc.pid, 0)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.proc.stdout.close()
        return self.proc.returncode


def solve_body(fmt, text, prep, timeout_ms):
    """Everything of a `solve` frame but its id, encoded once per instance."""
    frame = {"format": fmt, "source": text, "timeout_ms": timeout_ms}
    if prep != "off":
        frame["prep"] = prep
    return json.dumps(frame).encode()[1:]


def solve_frame(job_id, body):
    """A `solve` frame with the instance inline."""
    return b'{"type": "solve", "id": ' + json.dumps(job_id).encode() + b", " + body
