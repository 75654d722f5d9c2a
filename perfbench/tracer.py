"""Per-layer tracing for the benchmark, kept entirely outside the program.

Two instruments feed the per-layer metrics:

* **Call patches.**  Each timed or counted entry point is wrapped, and
  the wrapper replaces the original under every name a ``repro`` module
  holds it by (``from .x import f`` copies a reference, so patching the
  defining module alone would miss those callers).  Wrappers count
  calls, sum wall time and read counters the program already keeps.
* **cProfile self time by layer.**  Each function's own time is
  credited to the layer its code object's file belongs to, including
  the generated ``<pysim:*>`` and ``<cycle-kernel:*>`` code.  Time in
  builtins is credited to the layer of the Python caller.

Work in ``process``-executor workers is traced too: the wrapper around
``repro.rtl.executors._run_chunk`` runs in the forked worker, profiles
the chunk and writes its counter deltas and layer times to a file that
:meth:`Tracer.merge_child_dumps` folds back in.
"""

from __future__ import annotations

import cProfile
import functools
import json
import os
import pstats
import sys
import threading
import time
import uuid
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional

#: cProfile layers: source file (relative to the ``repro`` package) ->
#: per-layer self-time metric
FILE_LAYERS = {
    "core/typecheck.py": "core.typecheck.self_s",
    "core/graph_builder.py": "core.graph_builder.self_s",
    "core/oracle.py": "core.oracle.self_s",
    "core/maxplus.py": "core.maxplus.self_s",
    "core/optimize.py": "core.optimize.self_s",
    "core/fsmplan.py": "core.fsmplan.self_s",
    "codegen/simfsm.py": "codegen.simfsm.self_s",
    "codegen/pysim.py": "codegen.pysim.self_s",
    "rtl/scheduler.py": "rtl.scheduler.self_s",
    "rtl/simulator.py": "rtl.simulator.self_s",
    "rtl/kernel.py": "rtl.kernel.self_s",
    "rtl/snapshot.py": "rtl.snapshot.self_s",
    "rtl/executors.py": "rtl.executors.self_s",
    "inject/campaign.py": "inject.self_s",
    "inject/faults.py": "inject.self_s",
}

#: the per-layer metrics of ``BENCHMARK.json``, with their unit and the
#: direction an optimisation should move them.  A count a workload does
#: not exercise reads 0; every time here is spent on every workload.
PER_LAYER = [
    # elaboration: type checking, planning, code generation
    ("core.graph_builder.self_s", "s", "lower"),
    ("core.oracle.self_s", "s", "lower"),
    ("core.oracle.event_le.calls", "count", "lower"),
    ("core.maxplus.self_s", "s", "lower"),
    ("core.optimize.self_s", "s", "lower"),
    ("core.optimize.events_removed", "count", "higher"),
    ("core.fsmplan.self_s", "s", "lower"),
    ("core.fsmplan.build_process_plan.calls", "count", "lower"),
    ("core.fsmplan.build_process_plan.s", "s", "lower"),
    ("codegen.pysim.self_s", "s", "lower"),
    ("codegen.pysim.generate.s", "s", "lower"),
    ("codegen.pysim.cache.hits", "count", "higher"),
    ("codegen.pysim.cache.misses", "count", "lower"),
    ("rtl.kernel.self_s", "s", "lower"),
    ("rtl.kernel.compile.s", "s", "lower"),
    ("rtl.kernel.cache.hits", "count", "higher"),
    ("rtl.kernel.cache.misses", "count", "lower"),
    # simulation
    ("codegen.simfsm.self_s", "s", "lower"),
    ("codegen.pysim.generated.self_s", "s", "lower"),
    ("rtl.kernel.generated.self_s", "s", "lower"),
    ("designs.eval_tick.self_s", "s", "lower"),
    ("rtl.simulator.self_s", "s", "lower"),
    ("rtl.sim.kernel_cycles", "count", "higher"),
    ("rtl.sim.interpreted_cycles", "count", "lower"),
    ("rtl.scheduler.self_s", "s", "lower"),
    ("rtl.scheduler.eval_count", "count", "lower"),
    ("rtl.scheduler.settle_count", "count", "lower"),
    # checkpoints and fault injection
    ("rtl.snapshot.capture.calls", "count", "lower"),
    ("rtl.snapshot.capture.bytes", "bytes", "lower"),
    ("rtl.snapshot.restore.calls", "count", "lower"),
    ("inject.campaigns_failed", "count", "lower"),
    ("inject.hist.masked", "count", "higher"),
    ("inject.hist.sdc", "count", "lower"),
    ("inject.hist.detected", "count", "lower"),
    ("inject.hist.hang", "count", "lower"),
    # the modelled Y86 pipeline (simulated, not host, statistics)
    ("y86.cycles", "count", "lower"),
    ("y86.instret", "count", "higher"),
    ("y86.cpi", "cycles/insn", "lower"),
    ("y86.loaduse_stalls", "count", "lower"),
    ("y86.mispredict_squashes", "count", "lower"),
    ("y86.ret_bubbles", "count", "lower"),
    # the server
    ("server.requests", "count", "higher"),
    ("server.result_cache.hit_ratio", "ratio", "higher"),
    ("server.coalesced", "count", "higher"),
    ("server.trace.dropped", "count", "lower"),
    # the tracing itself
    ("trace.untraced_s", "s", "lower"),
    ("trace.traced_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
]

#: layer times spent on one workload alone (0 on the others), so they
#: cannot be per-layer metrics of every workload: a traced run prints
#: them on its ``DETAIL`` line, before the result line
WORKLOAD_TIMES = [
    ("core.typecheck.self_s", "s", "lower"),
    ("rtl.snapshot.self_s", "s", "lower"),
    ("rtl.snapshot.capture.s", "s", "lower"),
    ("rtl.snapshot.restore.s", "s", "lower"),
    ("inject.self_s", "s", "lower"),
    ("inject.tail.s", "s", "lower"),
    ("rtl.executors.self_s", "s", "lower"),
    ("rtl.executors.overhead_s", "s", "lower"),
    ("server.queue_wait_ms", "ms", "lower"),
    ("server.execute_ms", "ms", "lower"),
    ("server.client_lag_ms", "ms", "lower"),
]

#: counters that must repeat exactly between two traced runs at one
#: seed (work counts and simulated statistics, never host times)
DETERMINISTIC = (
    "core.oracle.event_le.calls",
    "core.optimize.events_removed",
    "core.fsmplan.build_process_plan.calls",
    "codegen.pysim.cache.hits",
    "codegen.pysim.cache.misses",
    "rtl.kernel.cache.hits",
    "rtl.kernel.cache.misses",
    "rtl.sim.kernel_cycles",
    "rtl.sim.interpreted_cycles",
    "rtl.scheduler.eval_count",
    "rtl.scheduler.settle_count",
    "rtl.snapshot.capture.calls",
    "rtl.snapshot.capture.bytes",
    "rtl.snapshot.restore.calls",
    "inject.campaigns_failed",
    "inject.hist.masked",
    "inject.hist.sdc",
    "inject.hist.detected",
    "inject.hist.hang",
    "y86.cycles",
    "y86.instret",
    "y86.loaduse_stalls",
    "y86.mispredict_squashes",
    "y86.ret_bubbles",
    "server.requests",
)


def layer_of(filename: str) -> Optional[str]:
    """The self-time metric a code object's file belongs to."""
    if filename.startswith("<pysim:"):
        return "codegen.pysim.generated.self_s"
    if filename.startswith("<cycle-kernel:"):
        return "rtl.kernel.generated.self_s"
    path = filename.replace(os.sep, "/")
    cut = path.rfind("/repro/")
    if cut < 0:
        return None
    rel = path[cut + len("/repro/"):]
    if rel.startswith("designs/"):
        return "designs.eval_tick.self_s"
    return FILE_LAYERS.get(rel)


def layer_times(profile: cProfile.Profile) -> Dict[str, float]:
    """Self time per layer from one profile.  A builtin's time goes to
    the layer of each Python caller, split by that caller's share."""
    out: Dict[str, float] = defaultdict(float)
    for (filename, _line, _name), (_cc, _nc, tt, _ct, callers) in \
            pstats.Stats(profile).stats.items():
        if filename == "~":
            for caller, edge in callers.items():
                layer = layer_of(caller[0])
                if layer:
                    out[layer] += edge[2]
            continue
        layer = layer_of(filename)
        if layer:
            out[layer] += tt
    return dict(out)


def cache_counts() -> Dict[str, int]:
    """The program's own compile-cache counters, as metric names."""
    from repro.codegen import pysim
    from repro.rtl import kernel

    p, k = pysim.cache_stats(), kernel.cache_stats()
    return {
        "codegen.pysim.cache.hits": p["hits"],
        "codegen.pysim.cache.misses": p["misses"],
        "rtl.kernel.cache.hits": k["hits"],
        "rtl.kernel.cache.misses": k["misses"],
    }


def _repro_modules() -> Iterable[object]:
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "repro"
                                  or name.startswith("repro."))]


class Tracer:
    """Counters and timers patched into the program for one traced unit.

    ``install`` patches, ``uninstall`` restores every original.  Counts
    go through a lock because the server's worker threads share them.
    """

    def __init__(self, dump_dir: Optional[str] = None):
        self.counts: Dict[str, float] = defaultdict(int)
        self.dump_dir = dump_dir
        self.pid = os.getpid()
        self._lock = threading.Lock()
        self._undo: List[tuple] = []
        self._cache_base: Dict[str, int] = {}

    def add(self, key: str, value: float = 1) -> None:
        with self._lock:
            self.counts[key] += value

    # -- patching --------------------------------------------------------
    def _replace(self, original: Callable, wrapper: Callable) -> None:
        """Swap ``original`` for ``wrapper`` under every module-level
        name a loaded ``repro`` module binds it to."""
        for module in _repro_modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._undo.append((module, attr, original))

    def _method(self, cls, name: str, make: Callable) -> None:
        original = cls.__dict__[name]
        setattr(cls, name, functools.wraps(original)(make(original)))
        self._undo.append((cls, name, original))

    def _function(self, module, name: str, make: Callable) -> None:
        original = getattr(module, name)
        self._replace(original, functools.wraps(original)(make(original)))

    def _timed(self, prefix: str, extra: Optional[Callable] = None):
        def make(fn):
            def wrapper(*args, **kwargs):
                t0 = time.perf_counter()
                result = fn(*args, **kwargs)
                self.add(prefix + ".s", time.perf_counter() - t0)
                self.add(prefix + ".calls")
                if extra is not None:
                    extra(args, result)
                return result
            return wrapper
        return make

    def install(self) -> None:
        import repro.api  # noqa: F401  (load every patched caller)
        import repro.harness.scenarios  # noqa: F401
        import repro.server.jobs  # noqa: F401
        from repro.core import fsmplan
        from repro.core import optimize as optimize_mod
        from repro.core.oracle import TimingOracle
        from repro.codegen import pysim
        from repro.inject import campaign
        from repro.rtl import batch, executors, kernel, snapshot
        from repro.rtl.scheduler import CombScheduler
        from repro.rtl.simulator import Simulator

        self._cache_base = cache_counts()

        def counted(key):
            def make(fn):
                def wrapper(*args, **kwargs):
                    self.add(key)
                    return fn(*args, **kwargs)
                return wrapper
            return make

        def optimize_wrapper(fn):
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                self.add("core.optimize.events_removed",
                         result[2].total_removed)
                return result
            return wrapper

        def kernel_advance(fn):
            def wrapper(sim, cycles):
                done = fn(sim, cycles)
                self.add("rtl.sim.kernel_cycles", done)
                return done
            return wrapper

        def settle(fn):
            def wrapper(sch):
                evals, settles = sch.eval_count, sch.settle_count
                result = fn(sch)
                self.add("rtl.scheduler.eval_count", sch.eval_count - evals)
                self.add("rtl.scheduler.settle_count",
                         sch.settle_count - settles)
                return result
            return wrapper

        def snapshot_bytes(_args, snap):
            self.add("rtl.snapshot.capture.bytes", snap.nbytes())

        def golden_pass(fn):
            def wrapper(sim, cpu, cfg):
                result = fn(sim, cpu, cfg)
                # the sampling pass in the submitting process only; the
                # workers repeat it for every shard
                if cpu is not None and os.getpid() == self.pid:
                    self.add("y86.cycles", sim.cycle)
                    self.add("y86.instret", cpu.instret)
                    self.add("y86.loaduse_stalls", cpu.loaduse_stalls)
                    self.add("y86.mispredict_squashes",
                             cpu.mispredict_squashes)
                    self.add("y86.ret_bubbles", cpu.ret_bubbles)
                return result
            return wrapper

        def run_batch(fn):
            def wrapper(*args, **kwargs):
                t0 = time.perf_counter()
                out = fn(*args, **kwargs)
                wall = time.perf_counter() - t0
                shards = [v["elapsed"] for v in out.values()
                          if isinstance(v, dict) and "elapsed" in v]
                if shards:
                    self.add("rtl.executors.overhead_s", wall - max(shards))
                return out
            return wrapper

        self._method(TimingOracle, "event_le",
                     counted("core.oracle.event_le.calls"))
        self._function(fsmplan, "build_process_plan",
                       self._timed("core.fsmplan.build_process_plan"))
        self._function(optimize_mod, "optimize", optimize_wrapper)
        self._function(pysim, "generate_source",
                       self._timed("codegen.pysim.generate"))
        self._function(kernel, "kernel_for",
                       self._timed("rtl.kernel.compile"))
        self._method(Simulator, "_kernel_advance", kernel_advance)
        self._method(Simulator, "step",
                     counted("rtl.sim.interpreted_cycles"))
        self._method(CombScheduler, "settle", settle)
        self._function(snapshot, "capture",
                       self._timed("rtl.snapshot.capture", snapshot_bytes))
        self._function(snapshot, "restore",
                       self._timed("rtl.snapshot.restore"))
        self._function(campaign, "_run_tail", self._timed("inject.tail"))
        self._function(campaign, "_golden_pass", golden_pass)
        self._function(batch, "run_batch", run_batch)
        if self.dump_dir is not None:
            self._function(executors, "_run_chunk", self._child_chunk)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def cache_deltas(self) -> Dict[str, int]:
        now = cache_counts()
        return {k: now[k] - self._cache_base.get(k, 0) for k in now}

    def clear_caches(self) -> None:
        """Clear the compile caches mid-trace: ``clear_cache`` also zeroes
        the program's counters, so bank the counts so far first."""
        from repro.codegen import pysim
        from repro.rtl import kernel

        for key, value in self.cache_deltas().items():
            self.add(key, value)
        pysim.clear_cache()
        kernel.clear_cache()
        self._cache_base = cache_counts()

    # -- process-executor workers ------------------------------------------
    def _child_chunk(self, fn):
        def wrapper(specs):
            if os.getpid() == self.pid:
                return fn(specs)
            before = self.metrics()
            profile = cProfile.Profile()
            profile.enable()
            try:
                return fn(specs)
            finally:
                profile.disable()
                self.add_profile(profile)
                delta = {k: v - before.get(k, 0)
                         for k, v in self.metrics().items()}
                path = os.path.join(self.dump_dir,
                                    f"{os.getpid()}-{uuid.uuid4().hex}.json")
                with open(path, "w") as fh:
                    json.dump(delta, fh)
        return wrapper

    def merge(self, dump: Dict[str, float]) -> None:
        for key, value in dump.items():
            self.add(key, value)

    def merge_child_dumps(self) -> None:
        if self.dump_dir is None or not os.path.isdir(self.dump_dir):
            return
        for name in sorted(os.listdir(self.dump_dir)):
            path = os.path.join(self.dump_dir, name)
            with open(path) as fh:
                self.merge(json.load(fh))
            os.remove(path)

    def add_profile(self, profile: cProfile.Profile) -> None:
        for key, value in layer_times(profile).items():
            self.add(key, value)

    def metrics(self) -> Dict[str, float]:
        """Every counter, layer time and compile-cache delta so far."""
        out = dict(self.counts)
        for key, value in self.cache_deltas().items():
            out[key] = out.get(key, 0) + value
        return out
