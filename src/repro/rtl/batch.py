"""Concurrent execution of independent simulations and harness jobs.

The harness tables and figures are *sweeps*: many independent designs,
each elaborated into its own :class:`~repro.rtl.simulator.Simulator` (or
its own typecheck/BMC job), with no shared state.  ``run_batch`` executes
such a job list on one of the executors from :mod:`repro.rtl.executors`
and returns results keyed by job name in submission order;
:class:`BatchSimulator` is the simulator-specific convenience wrapper.

Jobs come in two shapes:

* a declarative :class:`~repro.rtl.executors.JobSpec` -- picklable, so
  it runs on *any* executor, including the ``process`` pool that buys
  real multi-core speedup;
* a legacy ``(name, thunk)`` pair -- a closure, confined to the
  ``serial``/``thread`` executors (closures do not pickle).

Parallelism policy:

* jobs must be independent -- nothing here synchronizes shared state;
* results are deterministic: each job owns its RNGs and simulators, and
  the output ordering never depends on completion order;
* the pool size defaults to ``min(len(jobs), os.cpu_count())``; it can
  be forced serial with ``parallel=False`` or ``REPRO_PARALLEL=0`` (or
  ``false``/``no``/``off``), and forced to N workers with ``parallel=N``
  or ``REPRO_PARALLEL=N`` (the environment variable wins -- it is the
  profiling/debugging override);
* the executor defaults to ``thread`` (the compatibility reference);
  pass ``executor="process"`` -- or set ``REPRO_EXECUTOR=process`` via
  the config layer -- for multi-core sweeps of JobSpecs.

GIL caveat: the harness jobs are pure-Python and CPU-bound, so on a
standard CPython build the *thread* executor interleaves rather than
truly runs in parallel -- expect isolation and uniform sweep structure,
not wall-clock speedup.  The *process* executor is the one that scales
with cores; anything whose *result* depends on wall-clock time budgets
(the BMC harness) should stay serial.

Exceptions propagate: the first failing job (in submission order)
re-raises in the caller, with the worker traceback attached when it
crossed a process boundary.
"""

from __future__ import annotations

import os
from typing import Callable, Dict, Sequence, Tuple, Union

from .executors import JobSpec, get_executor
from .simulator import Simulator

Job = Union[Tuple[str, Callable[[], object]], JobSpec]

#: REPRO_PARALLEL values that force a serial run
_FALSY = ("0", "false", "no", "off")
#: REPRO_PARALLEL values equivalent to leaving it unset
_AUTO = ("", "true", "yes", "on", "auto")


def _env_parallel() -> Union[int, None]:
    """Parse ``REPRO_PARALLEL``: ``None`` when unset/auto, ``0`` for the
    falsy spellings (force a fully serial run), a forced worker count
    for positive integers (``1`` keeps the chosen executor with one
    worker -- a one-process pool still crosses the pickling boundary);
    any other value is a user error and raises."""
    env = os.environ.get("REPRO_PARALLEL")
    if env is None:
        return None
    text = env.strip().lower()
    if text in _AUTO:
        return None
    if text in _FALSY:
        return 0
    try:
        forced = int(text)
    except ValueError:
        forced = -1
    if forced < 1:
        raise ValueError(
            f"invalid REPRO_PARALLEL value {env!r}: use a positive "
            f"integer worker count, one of {'/'.join(_FALSY)} to force "
            f"serial, or {'/'.join(a for a in _AUTO if a)}/unset for "
            f"the default"
        )
    return forced


def _pool_size(parallel: Union[bool, int, None], n_jobs: int) -> int:
    """Resolve the worker count; 1 means run serially."""
    forced = _env_parallel()
    if forced is not None:
        return max(1, forced)
    if parallel is False:
        return 1
    if parallel is None or parallel is True:
        return max(1, min(n_jobs, os.cpu_count() or 1))
    return max(1, int(parallel))


def run_batch(jobs: Sequence[Job],
              parallel: Union[bool, int, None] = None,
              executor: str = None) -> Dict[str, object]:
    """Run a job list, returning ``{name: result}`` in submission order.

    ``jobs`` may mix :class:`~repro.rtl.executors.JobSpec` entries and
    legacy ``(name, thunk)`` pairs; the ``process`` executor accepts
    JobSpecs only.  ``parallel`` resolves the worker count exactly as
    before (``False``/``0`` serial, ``N`` forced, ``None`` auto), and
    ``REPRO_PARALLEL`` overrides it either way.
    """
    jobs = list(jobs)
    names = [j.name if isinstance(j, JobSpec) else j[0] for j in jobs]
    if len(set(names)) != len(names):
        dupes = sorted({n for n in names if names.count(n) > 1})
        raise ValueError(
            f"duplicate job name(s) {dupes!r}: results are keyed by "
            f"name, so every job in a batch needs a distinct one"
        )
    workers = _pool_size(parallel, len(jobs))
    name = executor or "thread"
    if workers <= 1 and name != "process":
        name = "serial"
    if name == "process" and (parallel is False or _env_parallel() == 0):
        name = "serial"              # the explicit serial escape hatch
    return get_executor(name, workers).run(jobs)


class BatchSimulator:
    """A set of independent simulators stepped as one sweep.

    >>> batch = BatchSimulator()
    >>> batch.add(sim_a)
    >>> batch.add(sim_b)
    >>> batch.run(1000)                    # both advance 1000 cycles
    >>> batch.total_activity()             # {'a': ..., 'b': ...}

    Simulators added through :meth:`add_scenario` carry their registry
    provenance, which is what lets :meth:`run` ship them to the
    ``process`` executor as declarative JobSpecs (directly-added sims
    are closures over live state and stay on the serial/thread path).
    """

    def __init__(self, parallel: Union[bool, int, None] = None,
                 executor: str = None):
        self.parallel = parallel
        self.executor = executor
        self.sims: Dict[str, Simulator] = {}
        self._specs: Dict[str, Tuple[str, object]] = {}

    def add(self, sim: Simulator) -> Simulator:
        if sim.name in self.sims:
            raise ValueError(f"duplicate simulator name {sim.name!r}")
        self.sims[sim.name] = sim
        return sim

    def add_scenario(self, name: str, config=None, *,
                     engine: str = None, seed: int = None, stim: int = None,
                     backend: str = None, anvil: bool = False,
                     as_name: str = None) -> Simulator:
        """Build a registered scenario straight into the batch.

        The preferred form passes a :class:`~repro.api.SimConfig`
        (``config``); lookup and elaboration go through the scenario
        registry, the same code path the benchmark sweep, the harness
        drivers and the CLI use.  The keyword arguments survive as a
        compatibility shim over the config (an explicit keyword beats
        the corresponding config field; ``config`` may also be a bare
        engine string, the old second positional argument).
        ``anvil=True`` maps a short family name to its ``anvil_*``
        registry entry.  ``as_name`` renames the simulator, so the same
        scenario can be swept under several engine x backend
        combinations in one batch."""
        from ..api import get_registry, resolve_config

        if isinstance(config, str):      # legacy positional engine
            config, engine = None, engine or config
        cfg = resolve_config(config, engine=engine, seed=seed, stim=stim,
                             backend=backend)
        if anvil and not name.startswith("anvil_"):
            name = f"anvil_{name}"
        sim = get_registry().build(name, cfg)
        if as_name:
            sim.name = as_name
        self.add(sim)
        self._specs[sim.name] = (name, cfg)
        return sim

    def __len__(self):
        return len(self.sims)

    def __getitem__(self, name: str) -> Simulator:
        return self.sims[name]

    def snapshot(self) -> Dict[str, object]:
        """Per-simulator cycle-boundary snapshots keyed by name (see
        :func:`repro.rtl.snapshot.capture`); the returned mapping is
        plain data and pickles as one checkpoint of the whole batch."""
        from .snapshot import capture

        return {name: capture(s, scenario=self._specs.get(name, ("",))[0])
                for name, s in self.sims.items()}

    def restore(self, snaps: Dict[str, object]) -> "BatchSimulator":
        """Restore a :meth:`snapshot` mapping into the batch's
        simulators (by name; a partial mapping restores a subset)."""
        from .snapshot import restore as restore_snapshot

        for name, snap in snaps.items():
            restore_snapshot(self.sims[name], snap)
        return self

    def _run_process(self, cycles: int,
                     parallel: Union[bool, int, None]) -> None:
        """Ship every scenario-provenance sim to the process pool and
        adopt the remote results into the local simulators.

        Already-advanced simulators ship a snapshot along with their
        JobSpec (``resume_from``): the worker rebuilds from provenance,
        restores the snapshot, and simulates only the tail -- the
        historical "one-shot only" restriction reduced to simulators
        that already adopted a remote run.

        Note the cost model: ``add_scenario`` already elaborated each
        simulator locally (callers may inspect or drive it before
        running), and the workers elaborate again from provenance -- so
        this path pays one redundant parent-side build per scenario.
        For pure sweeps prefer :meth:`repro.api.Session.sweep`, which
        describes jobs declaratively and never builds in the parent."""
        missing = [n for n in self.sims if n not in self._specs]
        if missing:
            raise ValueError(
                f"the process executor needs registry provenance (use "
                f"add_scenario); directly-added simulator(s) "
                f"{missing!r} cannot be described as JobSpecs"
            )
        adopted = [n for n, s in self.sims.items() if s.detached]
        if adopted:
            raise ValueError(
                f"simulator(s) {adopted!r} already adopted a remote run "
                f"and hold no local state to resume from (rebuild the "
                f"scenario to keep simulating)"
            )
        from .snapshot import capture

        specs = []
        for name, (scenario, cfg) in self._specs.items():
            sim = self.sims[name]
            params = ()
            if sim.cycle != 0:
                params = (("resume_from", capture(sim, scenario=scenario)),)
            specs.append(JobSpec(
                kind="run_scenario", name=name, scenario=scenario,
                config=cfg, cycles=sim.cycle + cycles, params=params))
        results = run_batch(specs, parallel=parallel, executor="process")
        for name, run in results.items():
            self.sims[name].adopt_remote(run.final_cycle, run.activity,
                                         run.samples,
                                         resumed_from=run.resumed_from)

    def run(self, cycles: int,
            parallel: Union[bool, int, None] = None,
            executor: str = None) -> "BatchSimulator":
        """Advance every simulator by ``cycles`` (concurrently when the
        pool allows)."""
        parallel = self.parallel if parallel is None else parallel
        executor = executor or self.executor
        if executor == "process" and self.sims:
            # workers rebuild from provenance; advanced sims ship a
            # snapshot and resume remotely (checked in _run_process)
            self._run_process(cycles, parallel)
            return self
        run_batch(
            [(name, (lambda s=s: s.run(cycles)))
             for name, s in self.sims.items()],
            parallel=parallel,
            executor=executor,
        )
        return self

    def run_until(self, predicates: Dict[str, Callable[[], bool]],
                  limit: int = 10000) -> Dict[str, int]:
        """Per-simulator ``run_until``; returns elapsed cycles by name.
        Predicates are closures over live simulators, so this always
        stays on the serial/thread path."""
        return run_batch(
            [(name, (lambda s=s, p=p: s.run_until(p, limit)))
             for name, s in self.sims.items()
             for p in (predicates[name],)],
            parallel=self.parallel,
        )

    def total_activity(self) -> Dict[str, int]:
        return {name: s.total_activity() for name, s in self.sims.items()}

    def cycles(self) -> Dict[str, int]:
        return {name: s.cycle for name, s in self.sims.items()}

    def __repr__(self):
        return f"BatchSimulator({list(self.sims)})"
