"""One `repro serve` process under test: spawn, wait for health, read memory, stop.

The server always runs with the benchmark's single fixed configuration
(``--store`` on, ``--workers 2``, every other setting at its default) in
its own session, so the load generator's interpreter lock never shows in
the server's numbers and every process the server starts can be found and
stopped afterwards.
"""

from __future__ import annotations

import http.client
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Optional

#: Longest a spawn may take to answer its first health check.
START_TIMEOUT_S = 60.0
#: Longest a clean stop may take before the process group is killed.
STOP_TIMEOUT_S = 15.0


def _descendants(pid: int) -> List[int]:
    """Every live descendant of ``pid`` (campaign worker processes)."""
    found: List[int] = []
    stack = [pid]
    while stack:
        parent = stack.pop()
        try:
            tasks = os.listdir(f"/proc/{parent}/task")
        except OSError:
            continue
        for task in tasks:
            try:
                text = Path(f"/proc/{parent}/task/{task}/children").read_text()
            except OSError:
                continue
            for child in text.split():
                found.append(int(child))
                stack.append(int(child))
    return found


def _alive(pid: int) -> bool:
    """Whether ``pid`` still runs (a zombie waiting to be reaped has ended)."""
    try:
        fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    except OSError:
        return False
    return fields[0] not in ("Z", "X")


def _vm_hwm_kib(pid: int) -> int:
    """Peak resident set (``VmHWM``) of one process, in KiB; 0 once gone."""
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    except OSError:
        pass
    return 0


class ServerProcess:
    """A spawned ``python -m repro serve`` with a fresh store in ``workdir``."""

    def __init__(self, root: Path, workdir: Path) -> None:
        self.root = root
        self.workdir = workdir
        self.port: Optional[int] = None
        self._proc: Optional[subprocess.Popen] = None
        self._log = None

    @property
    def log_path(self) -> Path:
        return self.workdir / "serve.log"

    def start(self) -> float:
        """Spawn the server; return seconds from spawn to the first healthz 200."""
        self.workdir.mkdir(parents=True, exist_ok=True)
        port_file = self.workdir / "port"
        port_file.unlink(missing_ok=True)
        env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        command = [
            sys.executable, "-m", "repro", "serve",
            "--port", "0", "--port-file", str(port_file),
            "--store", str(self.workdir / "jobs.db"),
            "--workers", "2",
        ]
        self._log = open(self.log_path, "wb")
        started = time.perf_counter()
        self._proc = subprocess.Popen(
            command, cwd=self.root, env=env, stdin=subprocess.DEVNULL,
            stdout=self._log, stderr=subprocess.STDOUT, start_new_session=True,
        )
        deadline = started + START_TIMEOUT_S
        while time.perf_counter() < deadline:
            if self._proc.poll() is not None:
                raise RuntimeError(
                    f"repro serve exited with {self._proc.returncode}:\n"
                    + self.log_tail()
                )
            if self.port is None:
                try:
                    self.port = int(port_file.read_text().strip())
                except (OSError, ValueError):
                    pass
            if self.port is not None and self._healthy():
                return time.perf_counter() - started
            time.sleep(0.002)
        raise RuntimeError("repro serve did not become healthy:\n" + self.log_tail())

    def _healthy(self) -> bool:
        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=2.0)
        try:
            connection.request("GET", "/v1/healthz")
            response = connection.getresponse()
            response.read()
            return response.status == 200
        except (OSError, http.client.HTTPException):
            return False
        finally:
            connection.close()

    def peak_rss_mb(self) -> float:
        """VmHWM of the server plus its live campaign workers, in MiB."""
        pid = self._proc.pid
        return sum(_vm_hwm_kib(p) for p in [pid] + _descendants(pid)) / 1024.0

    def log_tail(self, lines: int = 20) -> str:
        try:
            text = self.log_path.read_text(errors="replace")
        except OSError:
            return ""
        return "\n".join(text.splitlines()[-lines:])

    def stop(self) -> None:
        """Stop the server, then make sure every process it started ended.

        SIGINT is the server's clean stop: it closes the campaign worker
        pool.  (SIGTERM ends the server at once and orphans the workers.)
        """
        if self._proc is None:
            return
        proc, self._proc = self._proc, None
        children = _descendants(proc.pid)
        if proc.poll() is None:
            os.kill(proc.pid, signal.SIGINT)
            try:
                proc.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self._kill_group(proc.pid)
                proc.wait()
        self._log.close()
        if self._wait_ended(children):
            return
        for pid in children:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        if not self._wait_ended(children):
            raise RuntimeError(f"server workers {children} survived SIGKILL")

    @staticmethod
    def _wait_ended(pids: List[int]) -> bool:
        deadline = time.monotonic() + STOP_TIMEOUT_S
        while any(_alive(pid) for pid in pids):
            if time.monotonic() > deadline:
                return False
            time.sleep(0.01)
        return True

    @staticmethod
    def _kill_group(pgid: int) -> None:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            pass
