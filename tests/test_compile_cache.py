"""The process-wide compile cache: one compilation per distinct process.

``compile_process`` keys each :class:`CompiledProcess` by the process's
structural digest (``Process.digest()``) and ``do_optimize``.  These
tests pin that a cached compilation is indistinguishable from a fresh
``build_process_plan``, that cold and warm builds simulate identically,
that the digest moves with every structural field it covers, and the
exact work and counter figures of repeated and concurrent builds.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading

import pytest

from repro.api import Session, SimConfig, get_registry
from repro.codegen import pysim, simfsm
from repro.codegen.simfsm import compile_process
from repro.core.fsmplan import build_process_plan
from repro.lang.channels import (
    ChannelDef,
    DynamicSync,
    LifetimeSpec,
    MessageDef,
    Side,
    StaticSync,
)
from repro.lang.process import Process
from repro.lang.terms import cycle, lit, read, recv, send, set_reg
from repro.lang.types import Logic

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PERFBENCH = os.path.join(ROOT, "perfbench")

SCENARIOS = [sc.name for sc in get_registry()]


@pytest.fixture()
def cold():
    simfsm.clear_cache()
    yield
    simfsm.clear_cache()


@pytest.fixture()
def plan_calls(monkeypatch):
    """The names of the processes ``build_process_plan`` compiles."""
    calls = []
    real = simfsm.build_process_plan

    def counting(process, do_optimize=True):
        calls.append(process.name)
        return real(process, do_optimize)

    monkeypatch.setattr(simfsm, "build_process_plan", counting)
    return calls


def _compiled_processes(scenario):
    """(process as built, CompiledProcess served) for every compile of
    one build of ``scenario``."""
    seen = []
    real = simfsm._compile

    def spy(process, do_optimize):
        out = real(process, do_optimize)
        seen.append((process, out[0]))
        return out

    simfsm._compile = spy
    try:
        get_registry().build(scenario, SimConfig())
    finally:
        simfsm._compile = real
    return seen


def _typecheck_designs():
    if PERFBENCH not in sys.path:
        sys.path.append(PERFBENCH)
    import oracles

    return [(label, factory) for label, factory, _safe
            in oracles.typecheck_designs()]


def _same_compilation(cached, process):
    fresh = build_process_plan(process, True)
    assert pysim.generate_source(cached.plan) == \
        pysim.generate_source(fresh)
    assert [repr(s) for s in cached.optimize_stats] == \
        [repr(s) for s in fresh.optimize_stats]


# ---------------------------------------------------------------------------
# memoized == fresh
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("scenario", SCENARIOS)
def test_cached_scenario_compilation_equals_fresh(cold, scenario):
    _compiled_processes(scenario)            # fills the cache
    for process, cached in _compiled_processes(scenario):
        assert cached.process is not process   # served from the cache
        _same_compilation(cached, process)


@pytest.mark.parametrize("label,factory", _typecheck_designs(),
                         ids=[label for label, _ in _typecheck_designs()])
def test_cached_design_compilation_equals_fresh(cold, label, factory):
    compile_process(factory())
    process = factory()
    cached = compile_process(process)
    assert cached.process is not process
    assert simfsm.cache_stats() == {"hits": 1, "misses": 1, "entries": 1}
    _same_compilation(cached, process)


# ---------------------------------------------------------------------------
# cold and warm builds simulate identically
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("backend", simfsm.BACKENDS)
@pytest.mark.parametrize("scenario", ["anvil_sweep", "y86_sum"])
def test_cold_and_warm_builds_are_bit_identical(scenario, backend):
    session = Session(SimConfig(cycles=300, backend=backend,
                                engine="brute"))
    simfsm.clear_cache()
    cold_run = session.run(scenario)
    warm_run = session.run(scenario)
    build = warm_run.diagnostics["build"]
    assert cold_run.diagnostics["build"] == {
        "processes": build["processes"], "reused": 0}
    assert build["reused"] == build["processes"] > 0
    assert warm_run.activity == cold_run.activity
    assert warm_run.waveform.samples == cold_run.waveform.samples
    assert warm_run.total_activity == cold_run.total_activity


@pytest.mark.parametrize("scenario", ["aes", "mmu"])
def test_rtl_only_runs_carry_no_build_report(scenario):
    result = Session(SimConfig(cycles=5)).run(scenario)
    assert "build" not in result.diagnostics


def test_cli_run_prints_the_build_line():
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "run", "anvil_streams",
         "--cycles", "20"],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": "src"}, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    assert "  build: 3 processes, 0 reused" in proc.stdout.splitlines()


# ---------------------------------------------------------------------------
# digest sensitivity
# ---------------------------------------------------------------------------
def _design(value=5, width=8, init=0, side=Side.RIGHT,
            lifetime=LifetimeSpec.until("res"), sync=None, kind="loop"):
    """A small server process; each argument is one structural field."""
    chan = ChannelDef("ch", [
        MessageDef("req", Side.RIGHT, Logic(8), lifetime,
                   right_sync=sync),
        MessageDef("res", Side.LEFT, Logic(8), LifetimeSpec.static(1)),
    ])
    p = Process("server")
    p.endpoint("host", chan, side)
    p.register("acc", width=8, init=init)
    body = (recv("host", "req")
            >> set_reg("acc", read("acc") + lit(value, width))
            >> cycle(1)
            >> send("host", "res", read("acc")))
    if kind == "loop":
        p.loop(body)
    else:
        p.recursive(body)
    return p


@pytest.mark.parametrize("change", [
    {"value": 6},
    {"width": 9},
    {"init": 1},
    {"side": Side.LEFT},
    {"lifetime": LifetimeSpec.static(2)},
    {"sync": StaticSync(2)},
    {"kind": "recursive"},
], ids=["literal value", "literal width", "register init",
        "endpoint side", "message lifetime", "sync mode", "thread kind"])
def test_each_structural_change_moves_the_digest(change):
    assert _design(**change).digest() != _design().digest()


def test_rebuilding_a_design_keeps_its_digest():
    assert _design().digest() == _design().digest()
    assert _design(sync=DynamicSync()).digest() == _design().digest()
    for _label, factory in _typecheck_designs():
        assert factory().digest() == factory().digest()


def test_shared_subterms_digest_linearly():
    # 64 levels of x = x + x: a tree of 2**64 leaves, a DAG of 65 nodes
    x = read("acc")
    for _ in range(64):
        x = x + x
    p = Process("deep")
    p.register("acc", width=8)
    p.loop(set_reg("acc", x))
    assert len(p.digest()) == 64


# ---------------------------------------------------------------------------
# exact work and counter figures
# ---------------------------------------------------------------------------
def test_five_builds_plan_each_process_once(cold, plan_calls):
    session = Session(SimConfig(backend="pycompiled"))
    processes = set()
    for seed in range(5):
        processes |= set(session.build("y86_sum", seed=seed).compile_reuse)
    assert sorted(plan_calls) == sorted(processes) == ["y86_sum_core"]
    assert simfsm.cache_stats() == {"hits": 4, "misses": 1, "entries": 1}


def test_concurrent_builds_compile_each_process_once(cold, plan_calls):
    session = Session(SimConfig(backend="pycompiled"))
    distinct = len(session.build("anvil_sweep").compile_reuse)
    simfsm.clear_cache()
    plan_calls.clear()
    errors = []

    def build():
        try:
            session.build("anvil_sweep")
        except Exception as exc:
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)         # interleave the racing builds
    try:
        threads = [threading.Thread(target=build) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=300)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors
    stats = pysim.cache_stats()
    assert stats["misses"] == stats["entries"] == distinct
    assert stats["hits"] == 7 * distinct
    # racing builds of one process wait for the first: no duplicate work
    assert len(plan_calls) == len(set(plan_calls)) == distinct
