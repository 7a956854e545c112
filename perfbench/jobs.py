"""Run one kklab CLI job as a child process and measure it.

A job is one ``kklab`` command line.  It runs in a fresh interpreter,
exactly as the console script would run it (``from kklab.cli import
entry; entry()``), with the checkout's ``src`` first on ``PYTHONPATH``.
Wall time comes from ``time.perf_counter`` around spawn and reap; CPU
time and peak RSS come from ``os.wait4`` on the child.
"""

from __future__ import annotations

import hashlib
import os
import re
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

ENTRY = "from kklab.cli import entry; entry()"

# subcommands that take --threads; only these are replayed at --threads 1
THREADED = {"count", "qmin", "pe", "pc", "search", "sweep", "gen", "required-l",
            "peel", "verify fit", "verify main"}

# count's report carries a wall-clock field; digests leave it out
_ELAPSED = re.compile(rb'^\s*"elapsed_s": [^\n]*\n', re.MULTILINE)


def command_of(argv: list) -> str:
    """The subcommand name, e.g. 'qmin' or 'verify fit'."""
    return " ".join(argv[:2]) if argv[0] == "verify" else argv[0]


def digest(stdout: bytes) -> str:
    """sha256 of a report with count's non-deterministic elapsed_s removed."""
    return hashlib.sha256(_ELAPSED.sub(b"", stdout)).hexdigest()


@dataclass
class Result:
    """One finished job: what ran, how it ended, what it cost."""

    argv: list
    rc: int | None
    wall_s: float
    cpu_s: float
    rss_mb: float
    stdout: bytes
    stderr: bytes = b""
    failure: str | None = None
    spans: str | None = None  # span summary file of a traced job

    @property
    def command(self) -> str:
        return command_of(self.argv)

    def fail(self, reason: str) -> None:
        """Mark the job failed; the first reason given is kept."""
        if self.failure is None:
            self.failure = reason

    def record(self) -> dict:
        return {
            "argv": self.argv,
            "rc": self.rc,
            "wall_s": self.wall_s,
            "cpu_s": self.cpu_s,
            "rss_mb": self.rss_mb,
            "stdout_sha256": digest(self.stdout),
            "failure": self.failure,
        }


def skipped(argv: list, reason: str) -> Result:
    """A job that could not be run; it counts as attempted and failed."""
    return Result(argv, None, 0.0, 0.0, 0.0, b"", failure=reason)


class Runner:
    """Spawns jobs against the kklab sources of one checkout.

    ``deadline`` (a ``time.perf_counter`` value) caps every job's timeout
    so that a whole benchmark run ends in bounded time; a job started
    after it is not run and counts as failed.
    """

    def __init__(self, root: Path, deadline: float):
        self.root = root
        self.deadline = deadline
        env = dict(os.environ)
        src = str(root / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        self.env = env

    def run(self, argv: list, timeout: float, launcher: list | None = None) -> Result:
        """Run ``kklab argv`` (or ``launcher + argv``) and reap it with wait4."""
        budget = min(timeout, self.deadline - time.perf_counter())
        if budget <= 0:
            return skipped(argv, "not run: benchmark run deadline passed")
        cmd = [sys.executable] + (launcher or ["-c", ENTRY]) + list(argv)
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, cwd=self.root, env=self.env)
        timed_out = threading.Event()

        def kill():
            timed_out.set()
            proc.send_signal(signal.SIGKILL)

        err = []
        drain = threading.Thread(target=lambda: err.append(proc.stderr.read()))
        timer = threading.Timer(budget, kill)
        drain.start()
        timer.start()
        try:
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            timer.join()
            drain.join()
            proc.stdout.close()
            proc.stderr.close()
        wall = time.perf_counter() - start
        # wait4 reaped the child; tell Popen so it never waits on the pid again
        proc.returncode = os.waitstatus_to_exitcode(status)
        result = Result(
            argv=list(argv),
            rc=proc.returncode,
            wall_s=wall,
            cpu_s=usage.ru_utime + usage.ru_stime,
            rss_mb=usage.ru_maxrss / 1024.0,
            stdout=out,
            stderr=err[0] if err else b"",
        )
        if timed_out.is_set() and os.WIFSIGNALED(status):
            result.fail(f"timed out after {budget:.1f}s")
        elif result.rc != 0:
            tail = result.stderr.decode("utf-8", "replace").strip().splitlines()[-1:]
            result.fail(f"exit code {result.rc}: {' '.join(tail)}")
        return result
