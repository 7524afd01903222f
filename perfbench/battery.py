"""The battery phase of every workload: serial ``repro all`` in a child.

This is the reproduction users run.  It touches no serving code, so a
serving optimisation should leave every figure here unchanged.  Its
stdout is split per experiment and each section is compared with the
digest recorded in ``golden.json``.
"""

from __future__ import annotations

import hashlib
import json
import re
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

from harness import Child, median, repro_argv

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden.json"
#: Batteries per phase at least, so ``battery_wall_s`` is a median.
MIN_BATTERIES = 3
BATTERY_TIMEOUT_S = 170.0
#: A section starts at a rule line followed by its ``E<n>:`` title.
SECTION_RE = re.compile(r"^=+\n(E\d+): ", re.MULTILINE)


def sections(stdout: str) -> Dict[str, str]:
    """Experiment id -> its stdout section, rule line to next rule line."""
    starts = [(m.start(), m.group(1)) for m in SECTION_RE.finditer(stdout)]
    bounds = [s for s, _ in starts[1:]] + [len(stdout)]
    return {key: stdout[start:end] for (start, key), end in zip(starts, bounds)}


def digests(stdout: str) -> Dict[str, str]:
    return {key: hashlib.sha256(text.encode()).hexdigest()
            for key, text in sections(stdout).items()}


def matches(stdout: str, golden: Dict[str, str]) -> int:
    """How many golden experiments the output reproduces exactly."""
    got = digests(stdout)
    return sum(got.get(key) == digest for key, digest in golden.items())


def one_battery(workdir: Path, traced: bool) -> Tuple[float, float, str, dict]:
    """(wall s, peak RSS MB, stdout, spans) of one ``repro all``."""
    out_path = workdir / "battery.out"
    spans_path = workdir / "spans.json"
    argv = ([sys.executable, str(HERE / "battery_child.py"), str(spans_path)]
            if traced else repro_argv("all"))
    with open(out_path, "wb") as out, open(workdir / "battery.err", "wb") as err:
        child = Child(argv, stdout=out, stderr=err)
        code = child.wait(BATTERY_TIMEOUT_S)
    stdout = out_path.read_text(encoding="utf-8", errors="replace")
    spans = json.loads(spans_path.read_text()) if traced and code == 0 else {}
    if code != 0:
        stdout = ""  # a crashed battery reproduces nothing
    return child.ended - child.started, child.maxrss_mb, stdout, spans


def run(seconds: float, traced: bool,
        workdir: Path) -> Tuple[Dict[str, Tuple[float, str]], int, int]:
    """Batteries for ``seconds``, at least :data:`MIN_BATTERIES` of them.

    The battery has no inputs to vary, so it takes no seed.
    """
    golden = json.loads(GOLDEN.read_text())
    walls: Dict[bool, List[float]] = {False: [], True: []}
    rss: List[float] = []
    traced_runs: List[Tuple[float, dict]] = []
    matched = attempted = 0
    deadline = time.perf_counter() + seconds
    while True:
        # A traced run alternates untraced and traced batteries, so the
        # two see the same box and the overhead compares like with like.
        mode = traced and len(walls[True]) < len(walls[False])
        wall, peak, stdout, span = one_battery(workdir, mode)
        walls[mode].append(wall)
        rss.append(peak)
        if span:
            traced_runs.append((wall, span))
        matched += matches(stdout, golden)
        attempted += len(golden)
        done = [w for ws in walls.values() for w in ws]
        if (time.perf_counter() + median(done) > deadline and walls[traced]
                and len(done) >= MIN_BATTERIES):
            break
    failed = attempted - matched
    if not traced:
        return {
            "battery_wall_s": (median(walls[False]), "s"),
            "battery_peak_rss_mb": (median(rss), "MB"),
        }, attempted, failed
    if not traced_runs:
        raise RuntimeError("no traced battery completed")
    return layers(traced_runs) | {
        "trace.battery_overhead_pct": (
            (median(walls[True]) / median(walls[False]) - 1.0) * 100, "%"),
    }, attempted, failed


def layers(traced_runs: List[Tuple[float, dict]]) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics: medians over the (wall, spans) of traced batteries."""
    spans = [s for _, s in traced_runs]

    def med(pick) -> float:
        return median([pick(s) for s in spans])

    def sec(label):
        return lambda s: s["seconds"].get(label, 0.0)

    def cnt(label):
        return lambda s: s["counts"].get(label, 0)

    metrics = {
        "cli.import_s": (med(lambda s: s["import_s"]), "s"),
        "workloads.generate_s": (med(sec("workloads.generate")), "s"),
        "workloads.generate_calls": (med(cnt("workloads.generate")), "count"),
        "datasets.cache_hits": (med(cnt("datasets.cache_hits")), "count"),
        "datasets.cache_misses": (med(cnt("datasets.cache_misses")), "count"),
        "mtree.fit_s": (med(sec("mtree.fit")), "s"),
        "mtree.fit_calls": (med(cnt("mtree.fit")), "count"),
        "mtree.predict_s": (med(sec("mtree.predict")), "s"),
        "mtree.predict_rows": (med(cnt("mtree.predict")), "count"),
    }
    for key in ("E9", "E10", "E12", "E14", "rest"):
        metrics[f"experiments.{key}_s"] = (med(sec(f"experiments.{key}")), "s")
    unattributed = [
        wall - s["import_s"] - sum(s["seconds"].values())
        for wall, s in traced_runs
    ]
    metrics["battery.unattributed_s"] = (median(unattributed), "s")
    return metrics
