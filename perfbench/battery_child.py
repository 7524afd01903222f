"""Run ``repro all`` with public functions wrapped in timing spans.

Usage: ``python battery_child.py SPANS.json`` (with the checkout's
``src`` on ``PYTHONPATH``).  Stdout is exactly ``repro all``'s, so the
caller checks it like an untraced run.  The spans stay in memory and
are written to SPANS.json when the battery ends.

Wrapped time is self time: a span's duration minus the part of it its
child spans cover.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

#: Experiments with a metric of their own; the rest share ``rest``.
NAMED_EXPERIMENTS = ("E9", "E10", "E12", "E14")

_child_seconds: list = []  # per open span: time covered by its children
seconds: dict = defaultdict(float)
counts: dict = defaultdict(int)


def wrap(owner, attr, label_of, count_of=None):
    original = getattr(owner, attr)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        label = label_of(args, kwargs)
        _child_seconds.append(0.0)
        start = time.perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            duration = time.perf_counter() - start
            seconds[label] += duration - _child_seconds.pop()
            if _child_seconds:
                _child_seconds[-1] += duration
            counts[label] += 1 if count_of is None else count_of(args, kwargs)

    setattr(owner, attr, wrapper)


def main(out_path: str) -> int:
    start = time.perf_counter()
    import repro.cli

    import_s = time.perf_counter() - start

    from repro.datasets.cache import SampleSetCache
    from repro.mtree.tree import ModelTree
    from repro.workloads.suite import Suite

    wrap(Suite, "generate", lambda a, k: "workloads.generate")
    wrap(ModelTree, "fit", lambda a, k: "mtree.fit")
    wrap(ModelTree, "predict", lambda a, k: "mtree.predict",
         lambda a, k: len(a[1] if len(a) > 1 else k["X"]))

    original_get = SampleSetCache.get_or_generate

    def get_or_generate(self, *args, **kwargs):
        generated = counts["workloads.generate"]
        try:
            return original_get(self, *args, **kwargs)
        finally:
            hit = counts["workloads.generate"] == generated
            counts["datasets.cache_hits" if hit else "datasets.cache_misses"] += 1

    SampleSetCache.get_or_generate = get_or_generate

    def experiment_label(args, kwargs):
        key = args[0] if args else kwargs["experiment_id"]
        return f"experiments.{key if key in NAMED_EXPERIMENTS else 'rest'}"

    wrap(repro.cli, "run_experiment", experiment_label)
    code = repro.cli.main(["all"])
    sys.stdout.flush()
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump({"import_s": import_s, "seconds": seconds, "counts": counts}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
