"""Tests of the benchmark's own code.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import metrics  # noqa: E402
import run  # noqa: E402
from probes import LAYERS, HostClock, layer_of  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def test_benchmark_json_follows_the_contract():
    doc = load_benchmark()
    assert doc["command"] == ["python3", "perfbench/run.py"]
    assert doc["paths"] == ["perfbench"]
    assert 2 <= len(doc["workloads"]) <= 8
    assert 1 <= doc["run_seconds"] <= 60
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}


def test_names_and_units_are_well_formed():
    doc = load_benchmark()
    names = [w["name"] for w in doc["workloads"]]
    for section in ("end_to_end", "per_layer"):
        for metric in doc[section]:
            names.append(metric["name"])
            assert UNIT.match(metric["unit"]), metric
            assert metric["better"] in ("lower", "higher"), metric
    for metric in doc["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
    assert all(NAME.match(name) for name in names), names
    assert len(names) == len(set(names))
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in doc["workloads"])
    assert metrics.END_TO_END["setup_s"][2] == max(
        bound for _u, _b, bound in metrics.END_TO_END.values())


def test_layer_map_follows_module_names():
    assert layer_of("repro.lfds.harris") == "generators"
    assert layer_of("repro.workloads.kvservice") == "generators"
    assert layer_of("repro.core.fastsim") == "engine"
    assert layer_of("repro.core.machine") == "memory"
    assert layer_of("repro.coherence.directory") == "memory"
    assert layer_of("repro.persistency.lrp") == "mechanism"
    assert layer_of("repro.memory.nvm") == "nvm"
    assert layer_of("repro.memory.address") == "memory"
    assert layer_of("repro.obs.fastobs") == "telemetry"
    assert layer_of("repro.common.stats") == "other"
    assert layer_of("heapq") is None
    assert set(LAYERS) >= {"generators", "engine", "memory", "mechanism",
                           "nvm", "telemetry"}


def test_spread_uses_python_quartiles():
    values = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.0, 6.0]
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    stats = metrics.spread(values)
    assert (stats["q1"], stats["q3"]) == (q1, q3)
    assert stats["iqr_over_median"] == (q3 - q1) / statistics.median(values)


def test_scaled_clock_leaves_out_its_own_reference_runs():
    start = time.perf_counter()
    clock = HostClock(start, scaled=True)
    try:
        readings = [clock.now()]
        while time.perf_counter() - start < 0.3:
            readings.append(clock.now())
        raw = clock.raw()
    finally:
        clock.stop()
    elapsed = time.perf_counter() - start
    assert clock.ticks >= 10
    assert readings == sorted(readings)
    assert 0 < raw < elapsed
    assert 0 < clock.now()
    plain = HostClock(time.perf_counter(), scaled=False)
    assert plain.ticks == 0
    assert abs(plain.now() - plain.raw()) < 1e-3


def _record(fingerprint, failed=0):
    return {"attempted": 4, "failed": failed, "failures": [],
            "fingerprint": fingerprint, "counts": {"sim.cells": 4}}


def test_verdict_fails_a_repetition_that_changes_the_fingerprint():
    assert run.verdict([_record("a"), _record("a")])["failed"] == 0
    assert run.verdict([_record("a"), _record("b")])["failed"] == 4
    assert run.verdict([_record("a", failed=1)])["failed"] == 1


def _child(*flags):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "child.py"), "--workload",
         "selftest", "--seed", "1", *flags],
        cwd=ROOT, env=run.child_env(), capture_output=True, text=True,
        timeout=120, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def traced_pair():
    return _child("--traced", "--verify"), _child()


def test_engine_shares_sum_to_the_engine_span(traced_pair):
    layers = traced_pair[0]["layers"]
    shares = [layers[f"engine.share.{layer}"] for layer in LAYERS]
    assert sum(shares) == pytest.approx(100.0)
    assert 95.0 <= layers["engine.sampled_pct"] <= 105.0
    assert layers["trace.samples"] > 50


def test_fingerprint_and_counts_are_stable(traced_pair):
    traced, plain = traced_pair
    assert traced["failed"] == plain["failed"] == 0
    assert traced["attempted"] == plain["attempted"] == 4
    assert traced["fingerprint"] == plain["fingerprint"]
    assert traced["counts"] == plain["counts"]


def test_every_per_layer_metric_is_reported(traced_pair):
    layers = traced_pair[0]["layers"]
    assert set(layers) == set(metrics.PER_LAYER) - {"trace.overhead_ratio"}
    tree = traced_pair[0]["span_tree"]
    assert tree["engine"]["parents"] == ["cell"]
    assert tree["setup"]["parents"] == ["cell"]
    assert tree["cell"]["parents"] == ["exp_run"]
    assert tree["exp_run"]["parents"] == ["workload"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig5-quick",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
