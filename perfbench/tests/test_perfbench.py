"""Tests of the benchmark's own rules.

Run from the checkout root: ``python -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import battery  # noqa: E402
import harness  # noqa: E402
import run  # noqa: E402
import serve_workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


# -- the percentile rule -------------------------------------------------

def test_p99_of_1000_leaves_ten_beyond():
    samples = list(range(1000, 0, -1))
    assert harness.percentile(samples, 0.99) == 990


def test_p99_refuses_a_sample_that_leaves_fewer_than_ten_beyond():
    with pytest.raises(harness.TooFewSamples):
        harness.percentile(list(range(999)), 0.99)


def test_p98_of_the_open_loop_schedule_is_supported():
    serve_seconds = SPEC["run_seconds"] * run.SERVE_SHARE
    arrivals = int(serve_workloads.SPECS["serve_b1_open"].rate * serve_seconds)
    harness.percentile(list(range(arrivals)), 0.98)
    with pytest.raises(harness.TooFewSamples):
        harness.percentile(list(range(arrivals)), 0.99)


def test_closed_loop_minimum_supports_p99():
    harness.percentile(list(range(serve_workloads.MIN_CLOSED_REQUESTS)), 0.99)


def test_median_needs_twenty_samples():
    assert harness.percentile(list(range(20)), 0.5) == 9
    with pytest.raises(harness.TooFewSamples):
        harness.percentile(list(range(19)), 0.5)


# -- the correctness gate ------------------------------------------------

def _response(predictions, model_id="m1"):
    return json.dumps({"model_id": model_id, "n": len(predictions),
                       "predictions": list(predictions)}).encode()


def test_gate_accepts_the_exact_predictions():
    expected = np.random.default_rng(0).normal(size=64) * 3 + 1
    assert serve_workloads.predictions_match(
        _response(expected.tolist()), expected, "m1")


@pytest.mark.parametrize("position", [0, 31, 63])
def test_gate_catches_one_float_perturbed_by_one_ulp(position):
    expected = np.random.default_rng(1).normal(size=64) * 3 + 1
    got = expected.copy()
    got[position] = np.nextafter(got[position], np.inf)
    assert not serve_workloads.predictions_match(
        _response(got.tolist()), expected, "m1")


def test_gate_rejects_wrong_model_short_lists_and_garbage():
    expected = np.arange(4, dtype=float)
    assert not serve_workloads.predictions_match(
        _response(expected.tolist(), "other"), expected, "m1")
    assert not serve_workloads.predictions_match(
        _response(expected[:3].tolist()), expected, "m1")
    assert not serve_workloads.predictions_match(b"{not json", expected, "m1")
    assert not serve_workloads.predictions_match(b"{}", expected, "m1")


def test_battery_gate_counts_a_section_with_one_changed_digit():
    stdout = "".join(
        f"{'=' * 72}\nE{i}: title {i}\n{'=' * 72}\nvalue 0.{i}25\n\n"
        for i in range(1, 4)
    )
    golden = battery.digests(stdout)
    assert battery.matches(stdout, golden) == 3
    assert battery.matches(stdout.replace("0.225", "0.226"), golden) == 2
    assert battery.matches("", golden) == 0


def test_golden_digests_cover_the_twenty_experiments():
    golden = json.loads(battery.GOLDEN.read_text())
    assert list(golden) == [f"E{i}" for i in range(1, 21)]


# -- metric names and the declared benchmark ----------------------------

@pytest.mark.parametrize("name", ["latency_p50_ms", "net.residual_ms_p99",
                                  "experiments.E9_s", "serve.http.responses_4xx"])
def test_metric_names_in_the_grammar(name):
    assert harness.check_metric_name(name) == name


@pytest.mark.parametrize("name", ["", "_lead", "has space", "p99{le}", "a/b",
                                  "x" * 65])
def test_metric_names_outside_the_grammar(name):
    with pytest.raises(ValueError):
        harness.check_metric_name(name)


def test_declared_metrics_obey_the_grammar_and_are_unique():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        harness.check_metric_name(metric["name"])
        assert harness.UNIT_RE.match(metric["unit"])
        assert metric["better"] in ("higher", "lower")
    assert {w["name"] for w in SPEC["workloads"]} <= set(run.WORKLOADS)


def test_declared_workloads_must_print_exactly_the_declared_metrics():
    workload = SPEC["workloads"][0]["name"]
    metrics = {m["name"]: (1.0, m["unit"]) for m in SPEC["end_to_end"]}
    run.check_declared(workload, False, metrics, SPEC)
    with pytest.raises(ValueError, match="missing"):
        run.check_declared(workload, True, metrics, SPEC)
    dropped = dict(metrics)
    dropped.pop("setup_s")
    with pytest.raises(ValueError, match="setup_s"):
        run.check_declared(workload, False, dropped, SPEC)
    wrong_unit = dict(metrics, setup_s=(1.0, "ms"))
    with pytest.raises(ValueError, match="unit changed"):
        run.check_declared(workload, False, wrong_unit, SPEC)
    run.check_declared("serve_b1_open", False, dropped, SPEC)


def test_emit_refuses_an_undeclarable_name(capsys):
    stamp = {"busy": False}
    with pytest.raises(ValueError):
        harness.emit({"bad name": (1.0, "s")}, 1, 0, True, stamp)


def test_a_directory_without_sources_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [*SPEC["command"], "--workload", SPEC["workloads"][0]["name"], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
