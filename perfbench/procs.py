"""Starting, reading and stopping the program's processes."""

from __future__ import annotations

import os
import select
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
#: Everything a run writes goes here, inside the checkout.
RUN_DIR = ROOT / ".perfbench_run"


def program_env() -> Dict[str, str]:
    """The environment of every process the benchmark starts."""
    tmp = RUN_DIR / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = (
        src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    )
    env["TMPDIR"] = str(tmp)
    return env


class Process:
    """A child process speaking line-oriented text on stdout."""

    def __init__(
        self, argv: List[str], stdin: bool = False, log: Optional[str] = None
    ) -> None:
        """Start *argv*; its standard error goes to *log* under the run
        directory, or to ours."""
        RUN_DIR.mkdir(parents=True, exist_ok=True)
        self.argv = argv
        stderr = None if log is None else open(RUN_DIR / log, "ab")
        try:
            self.popen = subprocess.Popen(
                argv,
                cwd=str(ROOT),
                env=program_env(),
                stdin=subprocess.PIPE if stdin else subprocess.DEVNULL,
                stdout=subprocess.PIPE,
                stderr=stderr,
            )
        finally:
            if stderr is not None:
                stderr.close()
        self._buffer = b""

    @property
    def pid(self) -> int:
        return self.popen.pid

    def readline(self, timeout: float) -> str:
        """The next stdout line; raises if none arrives within *timeout*."""
        deadline = time.monotonic() + timeout
        fd = self.popen.stdout.fileno()
        while b"\n" not in self._buffer:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError(f"no output from {self.argv[:4]} in {timeout}s")
            ready, _, _ = select.select([fd], [], [], remaining)
            if not ready:
                continue
            chunk = os.read(fd, 65536)
            if not chunk:
                raise RuntimeError(
                    f"{self.argv[:4]} exited with {self.popen.wait()} before "
                    "answering"
                )
            self._buffer += chunk
        line, _, self._buffer = self._buffer.partition(b"\n")
        return line.decode("utf-8")

    def send(self, text: str) -> None:
        self.popen.stdin.write(text.encode("utf-8") + b"\n")
        self.popen.stdin.flush()

    def peak_rss_mb(self) -> float:
        """High-water resident set size of this process (``VmHWM``)."""
        with open(f"/proc/{self.pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self, timeout: float = 30.0) -> None:
        """Ask for a graceful exit, then wait; kill if it does not come."""
        if self.popen.poll() is None:
            if self.popen.stdin is not None:
                self.popen.stdin.close()
            self.popen.send_signal(signal.SIGTERM)
            try:
                self.popen.wait(timeout)
            except subprocess.TimeoutExpired:
                self.popen.kill()
                self.popen.wait()
        if self.popen.stdout is not None:
            self.popen.stdout.close()
        if self.popen.stdin is not None and not self.popen.stdin.closed:
            self.popen.stdin.close()


def start_listener(kind: str, timeout: float = 60.0) -> "Listener":
    """``ocqa serve`` or ``ocqa worker`` on a free loopback port.

    Its log goes to ``<kind>.log`` in the run directory: workers log every
    connection a finished campaign closes.
    """
    process = Process(
        [sys.executable, "-m", "repro.cli", kind, "--listen", "127.0.0.1:0"],
        log=f"{kind}.log",
    )
    try:
        line = process.readline(timeout)
        host, _, port = line.rsplit(" ", 1)[-1].rpartition(":")
        return Listener(process, host, int(port))
    except BaseException:
        process.stop()
        raise


@dataclass
class Listener:
    """A started ``ocqa serve`` or ``ocqa worker`` and where it listens."""

    process: Process
    host: str
    port: int

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"
