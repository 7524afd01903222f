"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload serve_b64_closed --seed 1 \\
        --seconds 50 --trace 0

Every workload is a serve phase, whose load shape the workload names,
followed by a battery phase (serial ``repro all``); each gets half of
``--seconds``.  ``--trace 0`` prints the end-to-end metrics, ``--trace
1`` the per-layer ones from a separate traced run (see README.md).  The
last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 only when every
operation's output was correct.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
import traceback
from pathlib import Path
from typing import Dict, Tuple

from harness import ROOT, SCRATCH, SRC, emit, host_stamp

WORKLOADS = ("serve_b64_closed", "serve_b1_closed", "serve_b1_open")
#: Share of ``--seconds`` the serve phase measures; the battery gets the rest.
SERVE_SHARE = 0.5


def check_declared(workload: str, traced: bool,
                   metrics: Dict[str, Tuple[float, str]], spec: dict) -> None:
    """Raise unless a declared workload printed exactly its declared metrics."""
    if workload not in {w["name"] for w in spec["workloads"]}:
        return  # run by hand: nothing declared to hold it to
    declared = {m["name"]: m["unit"]
                for m in spec["per_layer" if traced else "end_to_end"]}
    printed = {name: unit for name, (_, unit) in metrics.items()}
    if printed != declared:
        raise ValueError(
            f"metrics differ from BENCHMARK.json: missing "
            f"{sorted(set(declared) - set(printed))}, undeclared "
            f"{sorted(set(printed) - set(declared))}, unit changed "
            f"{sorted(n for n in set(declared) & set(printed) if declared[n] != printed[n])}"
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "cli.py").is_file():
        print(f"perfbench: no repro sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    sys.path.insert(0, str(SRC))
    traced = bool(args.trace)

    stamp = host_stamp()
    SCRATCH.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=SCRATCH)
    try:
        import battery
        import serve_workloads

        metrics, attempted, failed = serve_workloads.run(
            args.workload, args.seed, args.seconds * SERVE_SHARE, traced,
            Path(workdir))
        battery_metrics, battery_attempted, battery_failed = battery.run(
            args.seconds * (1.0 - SERVE_SHARE), traced, Path(workdir))
        metrics |= battery_metrics
        attempted += battery_attempted
        failed += battery_failed
        if not traced:
            metrics["success_rate"] = ((attempted - failed) / attempted, "share")
        check_declared(args.workload, traced, metrics,
                       json.loads((ROOT / "BENCHMARK.json").read_text()))
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass  # another run's directory is still there
    correct = failed == 0
    emit(metrics, attempted, failed, correct, stamp)
    if not correct:
        print(f"perfbench: {failed} of {attempted} operations were wrong or failed",
              file=sys.stderr)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
