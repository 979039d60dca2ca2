"""Start, watch and stop one ``damocles serve`` process.

The untraced server is exactly ``python -m repro.cli serve ...``; the
traced one runs the same CLI entry point through
:mod:`traced_serve`.  Set-up time is measured from launching the process
to the first answered ``ping``.
"""

from __future__ import annotations

import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
CLK_TCK = os.sysconf("SC_CLK_TCK")
_SERVING = re.compile(r"serving .* on ([\d.]+):(\d+)$")


class ServerError(RuntimeError):
    pass


class Server:
    """One server process over one work directory."""

    def __init__(self, src: Path, inputs, workdir: Path, spans: Path | None = None) -> None:
        self.src = src
        self.inputs = inputs
        self.workdir = workdir
        self.spans = spans
        self.proc: subprocess.Popen | None = None
        self.port = 0
        self.setup_s = 0.0
        self.output: list[str] = []
        self._reader: threading.Thread | None = None

    def command(self) -> list[str]:
        inputs = self.inputs
        serve = ["serve", str(inputs.db_path), str(inputs.blueprint_path), "--port", "0"]
        serve += inputs.workload.server_args()
        if inputs.journal_path is not None:
            serve += ["--journal", str(inputs.journal_path)]
        if inputs.policy_path is not None:
            serve += ["--policy", str(inputs.policy_path)]
        if self.spans is None:
            return [sys.executable, "-m", "repro.cli", *serve]
        return [sys.executable, str(HERE / "traced_serve.py"), str(self.spans), *serve]

    def start(self, timeout: float = 120.0) -> float:
        # PYTHONFAULTHANDLER: a server that hangs on stop is sent SIGABRT,
        # which then dumps every thread's stack into its output.
        env = dict(
            os.environ, PYTHONPATH=str(self.src), PYTHONHASHSEED="0", PYTHONFAULTHANDLER="1"
        )
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            self.command(),
            cwd=self.workdir,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        deadline = started + timeout
        assert self.proc.stdout is not None
        for line in self.proc.stdout:
            self.output.append(line.rstrip())
            match = _SERVING.search(line.strip())
            if match:
                self.port = int(match.group(2))
                break
            if time.perf_counter() > deadline:
                break
        if not self.port:
            self.kill()
            raise ServerError("server did not start: " + " | ".join(self.output[-5:]))
        self._reader = threading.Thread(target=self._drain, daemon=True)
        self._reader.start()
        with socket.create_connection(("127.0.0.1", self.port), timeout=timeout) as conn:
            conn.sendall(b"ping\n")
            reply = conn.makefile("rb").readline()
        self.setup_s = time.perf_counter() - started
        if reply.strip() != b"PONG":
            self.kill()
            raise ServerError(f"bad ping reply {reply!r}")
        return self.setup_s

    def _drain(self) -> None:
        assert self.proc is not None and self.proc.stdout is not None
        for line in self.proc.stdout:
            self.output.append(line.rstrip())

    def cpu_s(self) -> float:
        """User + system CPU seconds the server has used so far."""
        assert self.proc is not None
        fields = Path(f"/proc/{self.proc.pid}/stat").read_text().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / CLK_TCK

    def peak_rss_mb(self) -> float:
        assert self.proc is not None
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise ServerError("no VmHWM in /proc status")

    def stop(self, timeout: float = 90.0) -> int:
        """Interrupt the server (it saves or checkpoints) and wait."""
        if self.proc is None:
            return 0
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
        try:
            code = self.proc.wait(timeout)
        except subprocess.TimeoutExpired:
            self.proc.send_signal(signal.SIGABRT)
            self.kill()
            raise ServerError(
                "server did not stop after SIGINT:\n" + "\n".join(self.output[-60:])
            ) from None
        if self._reader is not None:
            self._reader.join(timeout)
        return code

    def kill(self) -> None:
        if self.proc is not None and self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        if self._reader is not None:
            self._reader.join(10)
