"""Shared plumbing for the benchmark: statistics, child processes, output.

Everything here is independent of what is being measured: the
percentile rule, the metric-name grammar, spawning and reaping child
processes with their own resource usage, the host stamp, and the one
JSON line the run ends with.
"""

from __future__ import annotations

import json
import math
import os
import platform
import re
import selectors
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

#: The checkout root: the benchmark runs from it and writes only in it.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Everything a run writes, its children's temporary files included.
SCRATCH = ROOT / ".perfbench_tmp"

#: A percentile is reported only when at least this many samples lie
#: beyond it, so the tail it names is more than one or two outliers.
MIN_TAIL = 10

METRIC_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


class TooFewSamples(ValueError):
    """A percentile was asked of a sample too small to support it."""


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile with at least :data:`MIN_TAIL` samples beyond.

    The rank is ``ceil(q * n)`` (1-based), so p99 of 1000 samples is the
    990th smallest and leaves exactly ten above it.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"q must lie in (0, 1), got {q}")
    n = len(samples)
    rank = max(1, math.ceil(q * n))
    if n - rank < MIN_TAIL:
        raise TooFewSamples(
            f"p{q * 100:g} of {n} samples leaves {n - rank} beyond it; "
            f"at least {MIN_TAIL} are needed"
        )
    return sorted(samples)[rank - 1]


def check_metric_name(name: str) -> str:
    """The name unchanged, or ValueError if it breaks the grammar."""
    if not METRIC_NAME_RE.match(name):
        raise ValueError(f"metric name {name!r} must match {METRIC_NAME_RE.pattern}")
    return name


def env_with_src() -> Dict[str, str]:
    """The environment children run in: the checkout's ``src`` first."""
    env = dict(os.environ, TMPDIR=str(SCRATCH))
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env.pop("PYTHONSTARTUP", None)
    return env


def repro_argv(*args: str) -> List[str]:
    """Command line of one ``repro`` CLI invocation from this checkout."""
    return [sys.executable, "-m", "repro.cli", *args]


class Child:
    """One child process, reaped with ``os.wait4`` for its own rusage.

    ``RUSAGE_CHILDREN`` keeps the maximum over every child ever reaped,
    so a per-child peak RSS has to come from the child's own wait.
    """

    def __init__(self, argv: Sequence[str], stdout=subprocess.DEVNULL,
                 stderr=subprocess.DEVNULL) -> None:
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            list(argv), stdout=stdout, stderr=stderr, env=env_with_src(),
            cwd=str(ROOT),
        )
        self.ended: Optional[float] = None
        self.exit_code: Optional[int] = None
        self.maxrss_mb: Optional[float] = None

    @property
    def pid(self) -> int:
        return self.proc.pid

    def wait(self, timeout_s: float) -> int:
        """Reap the child, killing it if it outlives ``timeout_s``."""
        deadline = time.perf_counter() + timeout_s
        while self.exit_code is None:
            pid, status, usage = os.wait4(self.pid, os.WNOHANG)
            if pid == self.pid:
                self.ended = time.perf_counter()
                self.exit_code = os.waitstatus_to_exitcode(status)
                self.proc.returncode = self.exit_code  # reaped here, not by Popen
                self.maxrss_mb = usage.ru_maxrss / 1024.0  # Linux reports KiB
            elif time.perf_counter() > deadline:
                self.proc.kill()
                deadline = time.perf_counter() + 10.0
            else:
                time.sleep(0.002)
        for stream in (self.proc.stdout, self.proc.stderr):
            if stream is not None:
                stream.close()
        return self.exit_code

    def stop(self, sig: int = signal.SIGTERM, timeout_s: float = 15.0) -> int:
        """Signal the child (SIGTERM: a server drains and exits), then reap."""
        if self.exit_code is None:
            try:
                self.proc.send_signal(sig)
            except ProcessLookupError:
                pass
        return self.wait(timeout_s)

    def read_line_matching(self, pattern: re.Pattern, timeout_s: float) -> re.Match:
        """Read the child's stderr until a line matches; time-bounded."""
        stream = self.proc.stderr
        assert stream is not None, "child was spawned without a stderr pipe"
        deadline = time.perf_counter() + timeout_s
        seen: List[str] = []
        with selectors.DefaultSelector() as selector:
            selector.register(stream, selectors.EVENT_READ)
            while True:
                remaining = deadline - time.perf_counter()
                if remaining <= 0 or not selector.select(remaining):
                    raise TimeoutError(
                        f"no line matching {pattern.pattern!r} within "
                        f"{timeout_s:g} s; saw {seen[-5:]}"
                    )
                line = stream.readline().decode(errors="replace")
                if not line:
                    raise RuntimeError(
                        f"child exited before printing {pattern.pattern!r}; "
                        f"saw {seen[-5:]}"
                    )
                seen.append(line.rstrip())
                match = pattern.search(line)
                if match:
                    return match


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def host_stamp() -> Dict[str, object]:
    """What the run ran on; ``loadavg_after`` is filled in at the end."""
    load = os.getloadavg()[0]
    cores = nproc()
    return {
        "nproc": cores,
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "loadavg_before": load,
        "busy": load >= cores,
    }


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def emit(result_metrics: Dict[str, Tuple[float, str]], attempted: int,
         failed: int, correct: bool, stamp: Dict[str, object]) -> None:
    """Print the metric table, the host stamp and the final JSON line."""
    stamp["loadavg_after"] = os.getloadavg()[0]
    for name, (value, unit) in result_metrics.items():
        check_metric_name(name)
        if not UNIT_RE.match(unit):
            raise ValueError(f"unit {unit!r} of {name} breaks the unit grammar")
        print(f"{name:36s} {value:14.6g} {unit}")
    if stamp["busy"]:
        print(
            f"BUSY: load average {stamp['loadavg_before']:.2f} >= "
            f"nproc {stamp['nproc']} at start; figures may be inflated"
        )
    print("host " + json.dumps(stamp, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in result_metrics.items()
        },
    }))
    sys.stdout.flush()
