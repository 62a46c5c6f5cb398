"""One ``repro serve --listen`` process, started and stopped by the bench.

The service runs in its own interpreter, as it would in deployment, so
the client's time is not mixed with the server's in one process and the
wire is a real localhost TCP connection.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
from pathlib import Path


class Server:
    """A gateway + service process on an ephemeral port.

    ``work`` is a fresh directory for the persistent kernel cache, the
    process's temporary files and, with ``trace``, the JSONL span export
    and metrics snapshot the server writes when it drains.  ``cpus``, if
    given, are the only processors the server may run on.
    """

    def __init__(self, src: Path, work: Path, trace: bool,
                 cpus: set[int] | None = None) -> None:
        work.mkdir(parents=True)
        self.trace_path = work / "trace.jsonl"
        self.metrics_path = work / "metrics.json"
        cmd = [
            sys.executable, "-m", "repro", "serve",
            "--listen", "127.0.0.1:0", "--cache-dir", str(work / "cache"),
        ]
        if trace:
            cmd += ["--trace-out", str(self.trace_path),
                    "--metrics-out", str(self.metrics_path)]
        # A fixed hash seed removes one source of run-to-run variance
        # (dict and set layouts) without changing any answer.
        env = dict(os.environ, PYTHONPATH=str(src), TMPDIR=str(work),
                   PYTHONHASHSEED="0")
        self._stderr = open(work / "stderr.log", "w+")
        self.proc = subprocess.Popen(
            cmd, cwd=work, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=self._stderr, text=True,
        )
        try:
            if cpus:
                # Set before the interpreter has started any thread, so
                # every thread of the server inherits it.
                os.sched_setaffinity(self.proc.pid, cpus)
            self.address = self._await_listening()
        except BaseException:
            self.stop()
            raise

    def _await_listening(self) -> str:
        # The server announces its port before anything else it prints.
        while True:
            line = self.proc.stdout.readline()
            if not line:
                self.proc.wait()
                raise RuntimeError(
                    f"server exited with code {self.proc.returncode} before "
                    f"listening: {self._stderr_tail()}"
                )
            if line.startswith("LISTENING "):
                return line.split()[1]

    def _stderr_tail(self) -> str:
        self._stderr.seek(0)
        return self._stderr.read()[-2000:]

    def stop(self) -> int:
        """SIGTERM (the gateway drains and writes its trace), then wait;
        a server that does not exit within a minute is killed."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
        self._stderr.close()
        return self.proc.returncode
