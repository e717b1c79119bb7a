"""Launching the program the way users do: CLI processes and servers.

Every process the benchmark starts goes through :class:`Processes`,
which stops and reaps whatever is still running when the run ends.
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HOOK = Path(__file__).resolve().parent / "hook"

#: Set-ups timed per untraced run (CLI or server start-ups); ``setup_s``
#: is their median.
SETUPS = 3


class BenchError(RuntimeError):
    """The benchmark could not run the program at all (no result is printed)."""


def program_env(work: Path, trace_dir: Path | None = None) -> dict:
    """Environment for a program process.

    With ``trace_dir`` the per-layer wrappers load at interpreter start
    (``hook/sitecustomize.py``) and write their tallies there on exit;
    without it the process carries no wrappers at all.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith(("SCALTOOL_", "PERFBENCH_"))}
    env.pop("PYTHONPATH", None)
    paths = [str(SRC)]
    if trace_dir is not None:
        paths.insert(0, str(HOOK))
        env["PERFBENCH_TRACE_DIR"] = str(trace_dir)
    env["PYTHONPATH"] = os.pathsep.join(paths)
    # The dispatcher keeps its worker port files in a temp directory.
    tmp = work / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)
    return env


@dataclass
class Command:
    """One finished CLI process."""

    args: list[str]
    seconds: float
    returncode: int
    maxrss_mb: float
    stdout: str
    stderr: str


def _vmhwm_mb(pid: int) -> float:
    """Peak resident set of a live process, from ``/proc/<pid>/status``."""
    try:
        text = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return 0.0
    match = re.search(r"^VmHWM:\s+(\d+)\s+kB", text, re.MULTILINE)
    return int(match.group(1)) / 1024.0 if match else 0.0


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - pid reused by another user
        return True
    return True


class Server:
    """One ``scaltool serve`` process (single or dispatcher + workers)."""

    def __init__(self, proc: subprocess.Popen, log: Path, workers: int) -> None:
        self.proc = proc
        self.log = log
        self.workers = workers
        self.url: str | None = None
        self.worker_pids: list[int] = []

    @property
    def pid(self) -> int:
        return self.proc.pid

    def _get(self, path: str, timeout: float = 5.0) -> dict:
        with urllib.request.urlopen(self.url + path, timeout=timeout) as resp:
            return json.loads(resp.read())

    def wait_ready(self, timeout: float = 60.0) -> None:
        """Block until the server answers ``/healthz`` with every worker up."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise BenchError(
                    f"server exited during start-up (code {self.proc.returncode}): "
                    + self.log.read_text()[-2000:]
                )
            if self.url is None:
                match = re.search(r"listening on (http://\S+)", self.log.read_text())
                if match:
                    self.url = match.group(1)
            if self.url is not None:
                try:
                    health = self._get("/healthz", timeout=2.0)
                except (urllib.error.URLError, OSError, ValueError):
                    health = None
                if health is not None and health.get("status") == "ok":
                    if self.workers < 2:
                        return
                    view = self._get("/v1/workers")
                    alive = [w for w in view["workers"] if w.get("alive")]
                    if len(alive) == self.workers:
                        self.worker_pids = [int(w["pid"]) for w in alive]
                        return
            time.sleep(0.01)
        raise BenchError(f"server not ready after {timeout:g}s")

    def stats(self) -> dict:
        return self._get("/v1/stats", timeout=30.0)

    def peak_rss_mb(self) -> float:
        """Summed peak resident set of the server and its worker processes."""
        return _vmhwm_mb(self.pid) + sum(_vmhwm_mb(pid) for pid in self.worker_pids)

    def stop(self, timeout: float = 60.0) -> bool:
        """SIGINT (the shutdown path ``scaltool serve`` handles), then reap.

        Returns whether every server process ended on its own; any that
        did not are killed so that none outlives the run.
        """
        clean = True
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                clean = False
                self.proc.kill()
                self.proc.wait(timeout=10)
        deadline = time.monotonic() + 10.0
        for pid in self.worker_pids:
            while _alive(pid) and time.monotonic() < deadline:
                time.sleep(0.05)
            if _alive(pid):
                clean = False
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        return clean and self.proc.returncode == 0


class Processes:
    """Starts program processes and guarantees none outlives the run."""

    def __init__(self, work: Path) -> None:
        self.work = work
        self._servers: list[Server] = []
        self._seq = 0
        self._lock = threading.Lock()

    def _paths(self, stem: str) -> tuple[Path, Path]:
        with self._lock:
            self._seq += 1
            seq = self._seq
        logs = self.work / "logs"
        logs.mkdir(parents=True, exist_ok=True)
        return logs / f"{seq:04d}-{stem}.out", logs / f"{seq:04d}-{stem}.err"

    def cli(self, args: list[str], env: dict, timeout: float = 170.0) -> Command:
        """Run ``python -m repro.cli ARGS`` to completion in a fresh process."""
        out_path, err_path = self._paths(args[0])
        with out_path.open("w") as out, err_path.open("w") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", *args],
                stdout=out,
                stderr=err,
                env=env,
                cwd=self.work,
            )
            # A hung command is killed so that the run still ends in time.
            killer = threading.Timer(timeout, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            seconds = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
        return Command(
            args=list(args),
            seconds=seconds,
            returncode=proc.returncode,
            maxrss_mb=usage.ru_maxrss / 1024.0,
            stdout=out_path.read_text(),
            stderr=err_path.read_text(),
        )

    def serve(self, args: list[str], env: dict, workers: int = 1) -> Server:
        """Start ``scaltool serve`` on a free port; returns once it is ready."""
        log, _ = self._paths("serve")
        with log.open("w") as handle:
            proc = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "serve", "--port", "0", *args],
                stdout=handle,
                stderr=subprocess.STDOUT,
                env=env,
                cwd=self.work,
            )
        server = Server(proc, log, workers)
        self._servers.append(server)
        server.wait_ready()
        return server

    def close(self) -> None:
        """Stop whatever is still running (after an error)."""
        for server in self._servers:
            if server.proc.poll() is None or any(_alive(p) for p in server.worker_pids):
                server.stop(timeout=20.0)
