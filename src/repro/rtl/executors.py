"""Declarative sweep jobs (:class:`JobSpec`) and the executors that run
them: ``serial``, ``thread`` and ``process``.

The harness tables, figures and benchmark sweeps are lists of
*independent* jobs.  Before this module they were ``(name, thunk)``
pairs -- closures over simulators, RNGs and design factories -- which
confined execution to a thread pool: CPython's GIL serializes the
CPU-bound thunks, and closures cannot cross a process boundary (they do
not pickle).  A :class:`JobSpec` removes both limits by *describing* a
job instead of capturing it: a registered job ``kind``, the scenario
registry name it targets, a frozen :class:`~repro.api.SimConfig`, and a
tuple of picklable parameters.  Workers rebuild the work from the
description, so the same spec list runs identically on any executor:

* ``serial``  -- in-process, submission order; the profiling/debugging
  reference and the timing-fidelity choice for benchmark measurement;
* ``thread``  -- the historical :class:`~concurrent.futures.ThreadPoolExecutor`
  path, kept as the compatibility reference (isolation and uniform sweep
  structure; no wall-clock speedup for GIL-bound jobs);
* ``process`` -- a :class:`~concurrent.futures.ProcessPoolExecutor` with
  chunked sharding, per-worker warm-up that pre-populates the
  ``pycompiled`` compile cache, and real multi-core speedup.

Guarantees shared by all three executors:

* **Determinism** -- results are keyed by job name in submission order;
  the output never depends on completion order, and every job owns its
  RNGs and simulators.
* **Exception propagation** -- the first failing job *in submission
  order* re-raises in the caller.  For process workers the original
  exception is re-raised where picklable, with the worker's formatted
  traceback attached via an :class:`ExecutorError` cause, so remote
  failures debug like local ones.

Job kinds are registered with :func:`job_kind`; kinds owned by heavier
modules (the harness drivers) are resolved lazily through
``_KIND_HOMES`` so workers only import what their jobs need.
"""

from __future__ import annotations

import importlib
import os
import pickle
import time
import traceback
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: the available execution strategies, validated by the config layer
EXECUTORS = ("serial", "thread", "process")

#: how many chunks each process worker should receive on average; >1 so
#: uneven job costs still balance across the pool
_CHUNKS_PER_WORKER = 4


# ---------------------------------------------------------------------------
# job descriptions
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class JobSpec:
    """One declarative, picklable sweep job.

    ``kind``
        a registered job kind (see :func:`job_kind`);
    ``name``
        the result key -- unique within one batch, submission order is
        result order;
    ``config``
        the :class:`~repro.api.SimConfig` the job runs under (may be
        ``None`` for kinds that take no simulation config);
    ``scenario``
        the scenario-registry name the job targets, when it targets one;
    ``cycles``
        cycle-count override (``None`` -> the config's default);
    ``params``
        extra kind-specific parameters as a ``(key, value)`` tuple --
        everything in it must pickle.
    """

    kind: str
    name: str
    config: object = None
    scenario: Optional[str] = None
    cycles: Optional[int] = None
    params: Tuple[Tuple[str, object], ...] = ()

    def __post_init__(self):
        if not isinstance(self.kind, str) or not self.kind:
            raise ValueError(f"JobSpec.kind must be a non-empty str, "
                             f"got {self.kind!r}")
        if not isinstance(self.name, str) or not self.name:
            raise ValueError(f"JobSpec.name must be a non-empty str, "
                             f"got {self.name!r}")
        object.__setattr__(self, "params", tuple(
            (str(k), v) for k, v in self.params))

    def param(self, key: str, default=None):
        for k, v in self.params:
            if k == key:
                return v
        return default

    @property
    def run_cycles(self) -> Optional[int]:
        """The effective cycle count: the explicit override, else the
        config's default."""
        if self.cycles is not None:
            return self.cycles
        return getattr(self.config, "cycles", None)


@dataclass
class ScenarioRun:
    """What one scenario-targeting job produced -- the picklable subset
    of a finished :class:`~repro.rtl.simulator.Simulator`'s state.

    ``sim`` carries the live simulator only when the job ran in-process
    (serial/thread executors); it is dropped at the process boundary.
    """

    scenario: str
    cycles: int
    seconds: float
    total_activity: int
    activity: Dict[Tuple[str, str], int]
    samples: Dict[str, List[int]]
    engine: str
    modules: int
    watched: int
    final_cycle: int
    trace: Optional[str] = None
    resumed_from: int = 0        # checkpoint cycle the run restored, if any
    #: :func:`repro.codegen.simfsm.fsm_report` of the finished simulator
    fsm: Optional[Dict[str, object]] = field(default=None, compare=False)
    #: :func:`repro.codegen.simfsm.build_report` of the simulator
    build: Optional[Dict[str, int]] = field(default=None, compare=False)
    sim: object = field(default=None, compare=False, repr=False)

    def __getstate__(self):
        state = self.__dict__.copy()
        state["sim"] = None          # simulators do not cross processes
        return state

    @property
    def cycles_per_second(self) -> float:
        return self.cycles / self.seconds if self.seconds > 0 else 0.0


def scenario_run_of(sim, scenario: str, cycles: int,
                    seconds: float, trace: Optional[str] = None
                    ) -> ScenarioRun:
    """Snapshot a finished simulator into a picklable :class:`ScenarioRun`."""
    from ..codegen.simfsm import build_report, fsm_report

    return ScenarioRun(
        scenario=scenario,
        cycles=cycles,
        seconds=seconds,
        total_activity=sim.total_activity(),
        activity=dict(sim.activity),
        samples={k: list(v) for k, v in sim.waveform.samples.items()},
        engine=sim.engine,
        modules=len(sim.modules),
        watched=len(sim.waveform.samples),
        final_cycle=sim.cycle,
        trace=trace,
        fsm=fsm_report(sim),
        build=build_report(sim),
        sim=sim,
    )


# ---------------------------------------------------------------------------
# job kinds
# ---------------------------------------------------------------------------
#: kind name -> handler; handlers take a JobSpec and return a picklable
#: result
JOB_KINDS: Dict[str, Callable[[JobSpec], object]] = {}

#: kinds implemented by modules this one must not import eagerly -- the
#: module registers the kind at import time; workers import on demand
_KIND_HOMES = {
    "table1_row": "repro.harness.table1",
    "table2_case": "repro.harness.table2",
    "figure": "repro.harness.figures",
    "appendix_anvil": "repro.harness.appendix_a",
    "appendix_bmc": "repro.harness.appendix_a",
    "inject_campaign": "repro.inject.campaign",
}


def job_kind(name: str):
    """Register a job-kind handler under ``name`` (decorator)."""
    def decorate(handler):
        if name in JOB_KINDS:
            raise ValueError(f"job kind {name!r} is already registered")
        JOB_KINDS[name] = handler
        return handler
    return decorate


def execute_job(spec: JobSpec):
    """Run one :class:`JobSpec` in this process and return its result."""
    handler = JOB_KINDS.get(spec.kind)
    if handler is None and spec.kind in _KIND_HOMES:
        importlib.import_module(_KIND_HOMES[spec.kind])
        handler = JOB_KINDS.get(spec.kind)
    if handler is None:
        known = ", ".join(sorted(set(JOB_KINDS) | set(_KIND_HOMES)))
        raise ValueError(
            f"unknown job kind {spec.kind!r}: known kinds are {known}"
        )
    return handler(spec)


@job_kind("run_scenario")
def _run_scenario(spec: JobSpec) -> ScenarioRun:
    """Build a registered scenario under the spec's config and run it.

    Params: optional ``resume_from`` -- a picklable
    :class:`~repro.rtl.snapshot.Snapshot` restored into the fresh
    build before running, so the job simulates only the tail from the
    snapshot's cycle (snapshots are plain data and cross the process
    pool like any other param).  With ``config.checkpoint_every`` set
    instead, the job consults and feeds the worker's process-wide
    checkpoint store exactly as :meth:`~repro.api.Session.run` does.
    """
    from ..api import get_registry
    from .simulator import run_guarded
    from .snapshot import (
        get_checkpoint_store,
        prefix_key,
        restore,
        resume_longest_prefix,
        run_with_checkpoints,
    )

    cfg = spec.config
    sim = get_registry().build(spec.scenario, cfg)
    cycles = spec.run_cycles
    snap = spec.param("resume_from")
    every = getattr(cfg, "checkpoint_every", None)
    wall = getattr(cfg, "max_wall_time", None)
    resumed = 0
    t0 = time.perf_counter()
    if snap is not None:
        restore(sim, snap)
        resumed = sim.cycle
        if cycles > sim.cycle:
            run_guarded(sim, cycles - sim.cycle, wall)
    elif every:
        store = get_checkpoint_store()
        key = prefix_key(spec.scenario, cfg, sim)
        resumed = resume_longest_prefix(sim, key, cycles, store)
        run_with_checkpoints(sim, cycles, every, store=store, key=key,
                             scenario=spec.scenario, max_wall_time=wall)
    else:
        run_guarded(sim, cycles, wall)
    elapsed = time.perf_counter() - t0
    trace = sim.waveform.render() if getattr(cfg, "trace", False) else None
    run = scenario_run_of(sim, spec.scenario, cycles, elapsed, trace)
    run.resumed_from = resumed
    return run


@job_kind("bench_scenario")
def _bench_scenario(spec: JobSpec) -> ScenarioRun:
    """Best-of-N cycles/second measurement of one scenario x config.

    Params: ``warmup`` (cycles run before timing starts) and ``repeats``
    (the run is rebuilt from scratch each repeat; the best rate wins).
    One untimed warm-up iteration runs first so one-time compile costs
    (pycompiled sources, cycle kernels) land outside every timed
    repeat -- without it, first-repeat compile time showed up as
    inflated variance on small-cycle scenarios.
    """
    from ..api import get_registry

    cfg = spec.config
    warmup = spec.param("warmup", 20)
    repeats = max(spec.param("repeats", 1), 1)
    cycles = spec.run_cycles
    sim = get_registry().build(spec.scenario, cfg)
    sim.run(warmup + cycles)                 # untimed: compile caches warm
    best_elapsed, sim = float("inf"), None
    for _ in range(repeats):
        sim = get_registry().build(spec.scenario, cfg)
        sim.run(warmup)
        t0 = time.perf_counter()
        sim.run(cycles)
        best_elapsed = min(best_elapsed, time.perf_counter() - t0)
    return scenario_run_of(sim, spec.scenario, cycles, best_elapsed)


# ---------------------------------------------------------------------------
# failure propagation
# ---------------------------------------------------------------------------
class ExecutorError(RuntimeError):
    """A job failed inside an executor.

    For process workers the original exception is re-raised in the
    caller where picklable, with an ``ExecutorError`` as its
    ``__cause__`` carrying the worker's formatted traceback; when the
    original cannot cross the process boundary the ``ExecutorError``
    itself is raised.
    """

    def __init__(self, job_name: str, message: str,
                 worker_traceback: Optional[str] = None):
        detail = f"job {job_name!r} failed: {message}"
        if worker_traceback:
            detail += f"\n--- worker traceback ---\n{worker_traceback}"
        super().__init__(detail)
        self.job_name = job_name
        self.worker_traceback = worker_traceback


def _outcome_of(spec: JobSpec):
    """Run one spec, catching failures into a picklable outcome tuple."""
    try:
        return ("ok", execute_job(spec))
    except Exception as exc:              # shipped to the caller, not lost
        tb = traceback.format_exc()
        try:
            pickle.loads(pickle.dumps(exc))
            payload = exc
        except Exception:
            payload = None
        return ("err", (payload, repr(exc), tb))


def _raise_outcome(name: str, error) -> None:
    exc, rep, tb = error
    cause = ExecutorError(name, rep, tb)
    if exc is not None:
        raise exc from cause
    raise cause


# ---------------------------------------------------------------------------
# the executors
# ---------------------------------------------------------------------------
def _job_parts(job):
    """Normalize a job -- a JobSpec or a legacy ``(name, thunk)`` pair --
    into ``(name, callable)``."""
    if isinstance(job, JobSpec):
        return job.name, (lambda spec=job: execute_job(spec))
    name, thunk = job
    return name, thunk


class SerialExecutor:
    """Submission-order in-process execution (the reference)."""

    name = "serial"

    def __init__(self, workers: int = 1):
        self.workers = 1

    def run(self, jobs: Sequence) -> Dict[str, object]:
        results = {}
        for job in jobs:
            name, thunk = _job_parts(job)
            results[name] = thunk()
        return results


class ThreadExecutor:
    """The historical thread-pool path (compatibility reference): jobs
    interleave under the GIL; expect isolation, not speedup."""

    name = "thread"

    def __init__(self, workers: int):
        self.workers = max(1, workers)

    def run(self, jobs: Sequence) -> Dict[str, object]:
        jobs = list(jobs)
        if self.workers <= 1 or len(jobs) <= 1:
            return SerialExecutor().run(jobs)
        pool = ThreadPoolExecutor(max_workers=self.workers)
        try:
            futures = [(name, pool.submit(thunk))
                       for name, thunk in map(_job_parts, jobs)]
            results = {name: fut.result() for name, fut in futures}
        except KeyboardInterrupt:
            # a deliberate stop: abandon queued work instead of letting
            # pool teardown block on it (the CLI reports and exits 130)
            pool.shutdown(wait=False, cancel_futures=True)
            raise
        except BaseException:
            pool.shutdown(wait=True, cancel_futures=True)
            raise
        pool.shutdown()
        return results


def _chunked(items: List, size: int) -> List[List]:
    return [items[i:i + size] for i in range(0, len(items), size)]


def _warm_specs(specs: Sequence[JobSpec]) -> List[Tuple[str, object]]:
    """The distinct (scenario, config) pairs worth pre-compiling in each
    worker: scenario-targeting jobs on the ``pycompiled`` backend (whose
    generated-Python compile step the warm-up can pay once up front) or
    the ``kernel`` engine (whose per-topology cycle-kernel compile the
    warm-up pays the same way)."""
    seen, warm = set(), []
    for spec in specs:
        cfg = spec.config
        if spec.scenario is None or cfg is None:
            continue
        if (getattr(cfg, "backend", "interp") != "pycompiled"
                and getattr(cfg, "engine", "levelized") != "kernel"):
            continue
        key = (spec.scenario, cfg)
        if key not in seen:
            seen.add(key)
            warm.append((spec.scenario, cfg.replace(stim=1)))
    return warm


def _worker_init(warm: List[Tuple[str, object]]) -> None:
    """Process-pool initializer: import the scenario registry and build
    each warm (scenario, config) pair at minimal stimulus depth, so the
    ``pycompiled`` source cache is hot before real jobs arrive.  Kernel-
    engine pairs additionally run two cycles: the cycle kernel compiles
    on the first multi-cycle run after the activity baseline is primed,
    and its source depends only on the topology shape -- which stimulus
    depth does not change -- so the warm build's kernel is the real
    job's cache hit."""
    import signal

    from ..api import get_registry

    # fork workers inherit the CLI's SIGTERM->KeyboardInterrupt mapping,
    # which would turn Process.terminate() into "abort this chunk, start
    # the next queued one"; pool workers must actually die on SIGTERM
    try:
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
    except (ValueError, OSError):
        pass
    registry = get_registry()
    for scenario, cfg in warm:
        try:
            sim = registry.build(scenario, cfg)
            if getattr(cfg, "engine", "levelized") == "kernel":
                sim.run(2)
        except Exception:
            pass      # the real job will surface the error attributably


def _run_chunk(specs: List[JobSpec]) -> List[Tuple[str, object]]:
    return [_outcome_of(spec) for spec in specs]


def _mp_context():
    import multiprocessing as mp

    method = os.environ.get("REPRO_MP_START")
    if method:
        return mp.get_context(method)
    if "fork" in mp.get_all_start_methods():
        # fork is the cheap path and inherits the populated scenario
        # registry; spawn/forkserver workers import it on demand instead
        return mp.get_context("fork")
    return mp.get_context()


class ProcessExecutor:
    """Chunk-sharded :class:`~concurrent.futures.ProcessPoolExecutor`
    execution of :class:`JobSpec` lists -- the only executor that buys
    wall-clock speedup for GIL-bound sweeps (given >1 core).

    Jobs must be JobSpecs (closures do not pickle).  Chunks keep IPC
    amortized; results come back keyed in submission order; the first
    failing job in submission order re-raises with its worker traceback
    (see :class:`ExecutorError`).

    A worker that dies *abnormally* (killed by a signal, OOM) poisons
    the whole pool: every unfinished future reports
    ``BrokenProcessPool``.  Finished chunks are kept and the unfinished
    ones are retried once on a fresh pool after ``retry_backoff``
    seconds -- transient deaths (an OOM-killed sibling, a container
    resize, a fault-injection campaign worker taking its hang budget
    out badly) clear on retry, while a deterministic crash fails again
    and propagates.  ``self.retries`` counts the rebuilds for tests and
    diagnostics."""

    name = "process"

    def __init__(self, workers: int, chunk_size: Optional[int] = None,
                 warmup: bool = True, mp_context=None,
                 max_retries: int = 1, retry_backoff: float = 0.25):
        self.workers = max(1, workers)
        self.chunk_size = chunk_size
        self.warmup = warmup
        self.mp_context = mp_context
        self.max_retries = max(0, max_retries)
        self.retry_backoff = max(0.0, retry_backoff)
        self.retries = 0

    def _chunk_size(self, n_jobs: int) -> int:
        if self.chunk_size is not None:
            return max(1, self.chunk_size)
        slots = self.workers * _CHUNKS_PER_WORKER
        return max(1, -(-n_jobs // slots))

    def run(self, jobs: Sequence) -> Dict[str, object]:
        jobs = list(jobs)
        bad = [j for j in jobs if not isinstance(j, JobSpec)]
        if bad:
            raise TypeError(
                f"the process executor needs picklable JobSpecs; got "
                f"{len(bad)} thunk job(s) (first: {_job_parts(bad[0])[0]!r})."
                f"  Describe the work as JobSpecs or use the serial/"
                f"thread executors."
            )
        if not jobs:
            return {}
        ctx = self.mp_context or _mp_context()
        # fork children inherit the parent's populated registry and
        # pycompiled source cache, and lazy compilation in a worker
        # touches only that worker's chunk -- pre-building every
        # scenario per worker would be pure overhead there.  The
        # warm-up pays off for spawn/forkserver workers, which start
        # cold and would otherwise recompile per first-encounter.
        warm = []
        if self.warmup and ctx.get_start_method() != "fork":
            warm = _warm_specs(jobs)
        chunks = _chunked(jobs, self._chunk_size(len(jobs)))
        results: Dict[str, object] = {}
        self.retries = 0
        pending = chunks

        def make_pool(n_chunks: int) -> ProcessPoolExecutor:
            return ProcessPoolExecutor(
                max_workers=min(self.workers, n_chunks),
                mp_context=ctx,
                initializer=_worker_init,
                initargs=(warm,),
            )

        pool = make_pool(len(pending))
        try:
            while True:
                broken: List[List[JobSpec]] = []
                cause: Optional[BaseException] = None
                futures = []
                try:
                    for chunk in pending:
                        futures.append(pool.submit(_run_chunk, chunk))
                except BrokenProcessPool as exc:
                    # the pool died mid-submission: everything not yet
                    # submitted needs the fresh pool too
                    cause = exc
                    broken.extend(pending[len(futures):])
                for chunk, fut in zip(pending, futures):
                    try:
                        payloads = fut.result()
                    except BrokenProcessPool as exc:
                        cause = cause or exc
                        broken.append(chunk)
                        continue
                    for spec, (status, payload) in zip(chunk, payloads):
                        if status == "err":
                            _raise_outcome(spec.name, payload)
                        results[spec.name] = payload
                if not broken:
                    break
                if self.retries >= self.max_retries:
                    raise ExecutorError(
                        broken[0][0].name,
                        f"worker process died abnormally (signal/OOM) "
                        f"and the retried pool died too; "
                        f"{sum(map(len, broken))} job(s) unfinished",
                    ) from cause
                self.retries += 1
                pool.shutdown(wait=False, cancel_futures=True)
                time.sleep(self.retry_backoff)
                pending = broken
                pool = make_pool(len(pending))
        except KeyboardInterrupt:
            # a deliberate stop: cancel queued chunks AND terminate the
            # workers mid-chunk. A terminal Ctrl-C delivers SIGINT to
            # the whole foreground group, but a bare signal to the
            # parent does not -- without the terminate, interpreter
            # exit blocks joining workers still grinding their chunk.
            # (snapshot first: shutdown() clears pool._processes; kill,
            # not terminate -- a still-inherited SIGTERM handler would
            # let the worker survive and pick up the next queued chunk)
            workers = dict(getattr(pool, "_processes", None) or {})
            pool.shutdown(wait=False, cancel_futures=True)
            for worker in workers.values():
                if worker.is_alive():
                    worker.kill()
            raise
        except BaseException:
            pool.shutdown(wait=True, cancel_futures=True)
            raise
        pool.shutdown()
        return results


def get_executor(name: str, workers: int = 1, **kwargs):
    """Instantiate the named executor (``serial``/``thread``/``process``)."""
    if name == "serial":
        return SerialExecutor()
    if name == "thread":
        return ThreadExecutor(workers)
    if name == "process":
        return ProcessExecutor(workers, **kwargs)
    choices = ", ".join(repr(e) for e in EXECUTORS)
    raise ValueError(
        f"unknown executor {name!r}: known executors are {choices}"
    )
