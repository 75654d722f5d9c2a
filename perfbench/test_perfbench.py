"""Tests of the benchmark itself.

Run from the root of a checkout: ``python3 -m pytest perfbench -q``.
The traced-run tests start the benchmark twice per workload and take a
few minutes; ``-k "not repeat"`` skips them.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

from tracer import DETERMINISTIC, PER_LAYER, WORKLOAD_TIMES  # noqa: E402
from workloads import WORKLOADS, make_requests  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)

#: the figures only one workload has, on its untraced DETAIL line
OWN = {
    "steady_sim": {"rtl_sweep_cps", "anvil_sweep_cps"},
    "elaborate": {"typecheck_s", "build_cold_s", "build_warm_s",
                  "cli_run_s"},
    "fork_campaign": {"faults_per_s"},
    "serve_mix": {"serve_p50_ms", "serve_p95_ms", "serve_rps"},
}


def _run(workload: str, seed: int, trace: int, seconds: int = 1,
         cwd: str = ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600)
    return proc


def _result(proc) -> dict:
    """The result line, with the DETAIL line before it as ``detail``."""
    assert proc.returncode == 0, proc.stderr[-2000:]
    *_, detail, last = proc.stdout.strip().splitlines()
    assert detail.startswith("DETAIL ")
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    result["detail"] = json.loads(detail[len("DETAIL "):])
    return result


def test_spec_names_every_workload_and_metric():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"])
            for m in SPEC["per_layer"]] == PER_LAYER
    assert set(DETERMINISTIC) <= {name for name, _u, _b in PER_LAYER}
    assert not {n for n, _u, _b in PER_LAYER} & {n for n, _u, _b
                                                 in WORKLOAD_TIMES}


def test_request_mix_shape():
    scenarios = [f"s{i}" for i in range(15)]
    reqs = make_requests(random.Random(7), scenarios, [1, 2], 4000)
    repeats = sum(r.repeat for r in reqs) / len(reqs)
    streams = sum(r.stream for r in reqs) / len(reqs)
    assert 0.2 < repeats < 0.3
    assert 0.1 < streams < 0.15
    # streamed and plain runs never share a cache key
    assert all(r.cycles % 2 == (1 if r.stream else 0) for r in reqs)
    assert all(200 <= r.cycles <= 401 for r in reqs)
    # a repeat copies a plain request at least two places earlier
    for i, r in enumerate(reqs):
        if r.repeat:
            assert any((o.scenario, o.seed, o.cycles)
                       == (r.scenario, r.seed, r.cycles)
                       and not o.stream and not o.repeat
                       for o in reqs[:i - 1])


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("steady_sim", 1, 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_untraced_run_prints_its_metrics(workload):
    result = _result(_run(workload, 2, 0))
    assert result["correct"] is True
    assert result["attempted"] >= 1
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    metrics = result["metrics"]
    assert {name: m["unit"] for name, m in metrics.items()} == units
    assert set(result["detail"]) == OWN[workload]
    for metric in (*metrics.values(), *result["detail"].values()):
        assert metric["value"] > 0


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_counters_repeat_exactly(workload):
    """Two traced runs at one seed give identical work counters and
    simulated statistics."""
    first = _result(_run(workload, 3, 1))
    second = _result(_run(workload, 3, 1))
    assert set(first["metrics"]) == {name for name, _u, _b in PER_LAYER}
    assert set(first["detail"]) == {name for name, _u, _b
                                    in WORKLOAD_TIMES}
    assert first["attempted"] == second["attempted"]
    assert first["failed"] == second["failed"]
    for name in DETERMINISTIC:
        assert first["metrics"][name] == second["metrics"][name], name
    # every layer time is spent on every workload
    for name, unit, _better in PER_LAYER:
        if unit in ("s", "ms"):
            assert first["metrics"][name]["value"] > 0, name
