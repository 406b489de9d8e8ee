"""Launch, time and stop the serving stack under test.

The untraced stack is the stock ``pmbc serve`` command (threaded
front-end, ``PMBCService``, thread execution, adaptive tier off) run as
a subprocess on the generated files.  The traced stack is the same
command run through :mod:`traced_host`, which wraps the layers' entry
points before handing over to the CLI.  Both print their bound URL on
stdout (``--port 0``), which is how readiness starts to be detected;
``/healthz`` answering 200 completes it.
"""

from __future__ import annotations

import http.client
import os
import re
import resource
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
_LISTENING = re.compile(r"listening on http://([\d.]+):(\d+)")

#: Longest a server may take from launch to ``/healthz`` ready.
READY_TIMEOUT = 120.0


def child_env() -> dict:
    """Environment for stack processes: the repo's sources, default kernel."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("PMBC_KERNEL", None)
    return env


def cli_argv(*args: str) -> list[str]:
    """argv running the ``pmbc`` CLI from the repo sources."""
    return [sys.executable, "-m", "repro.cli", *args]


def traced_argv(spans_out: Path, *args: str) -> list[str]:
    """argv running the ``pmbc`` CLI under the span recorders."""
    return [sys.executable, str(HERE / "traced_host.py"), str(spans_out), *args]


def _children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def run_build(argv: list[str], log: Path) -> float:
    """Run a ``pmbc build`` to completion (raises on failure); its CPU seconds."""
    before = _children_cpu_s()
    with open(log, "ab") as out:
        subprocess.run(
            argv,
            env=child_env(),
            stdout=out,
            stderr=subprocess.STDOUT,
            check=True,
            timeout=READY_TIMEOUT,
        )
    return _children_cpu_s() - before


class Server:
    """One serving process: launched, readiness-timed, then stopped."""

    def __init__(self, argv: list[str], log: Path) -> None:
        self.log = log
        self._out = open(log, "wb")
        self.proc = subprocess.Popen(
            argv,
            env=child_env(),
            stdout=self._out,
            stderr=subprocess.STDOUT,
        )
        self.host = ""
        self.port = 0
        self.setup_cpu_s = 0.0
        self._cpu_s = 0.0

    def wait_ready(self, start: float) -> float:
        """Block until ``/healthz`` is 200; seconds elapsed since ``start``."""
        limit = start + READY_TIMEOUT
        while not self.port:
            if self.proc.poll() is not None or time.perf_counter() > limit:
                raise RuntimeError(f"server did not start; see {self.log}")
            match = _LISTENING.search(self.log.read_text(errors="replace"))
            if match:
                self.host, self.port = match.group(1), int(match.group(2))
            else:
                time.sleep(0.002)
        while True:
            if self.proc.poll() is not None or time.perf_counter() > limit:
                raise RuntimeError(f"server never became healthy; see {self.log}")
            conn = http.client.HTTPConnection(self.host, self.port, timeout=5)
            try:
                conn.request("GET", "/healthz")
                if conn.getresponse().status == 200:
                    return time.perf_counter() - start
            except OSError:
                pass
            finally:
                conn.close()
            time.sleep(0.002)

    def cpu_s(self) -> float:
        """CPU seconds (user + system, every thread) the server used so far;
        the last reading once the server is gone."""
        try:
            stat = Path(f"/proc/{self.proc.pid}/stat").read_text()
        except OSError:
            return self._cpu_s
        fields = stat.rsplit(")", 1)[1].split()
        self._cpu_s = (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")
        return self._cpu_s

    def peak_rss_mb(self) -> float:
        """Peak resident set size (``VmHWM``) of the server, MiB."""
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        kib = int(re.search(r"VmHWM:\s+(\d+)\s+kB", status).group(1))
        return kib / 1024.0

    def kill(self) -> None:
        """Kill the server abruptly (fault injection)."""
        self.proc.kill()
        self.proc.wait()

    def stop(self) -> int:
        """Interrupt the server (clean shutdown), wait, and close the log."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._out.close()
        return self.proc.returncode
