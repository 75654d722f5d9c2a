"""Two-phase cycle-based RTL simulator.

Each cycle:

1. **settle** -- evaluate combinational logic until no wire changes value
   (divergence indicates a combinational loop and raises
   :class:`~repro.errors.SimulationError`);
2. **sample** -- the waveform recorder captures the settled wire values
   (this is what the paper's waveform figures show);
3. **tick** -- every module's clock edge updates its registers.

Three settle engines are available:

* ``engine="levelized"`` (default) -- the change-driven, levelized
  scheduler of :mod:`repro.rtl.scheduler`: dependency-ordered evaluation,
  dirty-set propagation, incremental toggle accounting.
* ``engine="kernel"`` -- the levelized topology exec-compiled into a
  per-topology cycle kernel (:mod:`repro.rtl.kernel`): ``run(n)``
  executes N cycles in one generated loop with straight-line
  evaluation, fused activity accounting, columnar waveform sampling
  and no per-cycle method dispatch.  Falls back to the levelized
  per-cycle path automatically whenever the fast path cannot apply
  (monitors, ``run_until``, ``step``, unhinted modules, mid-run
  ``add``, detached simulators) -- observables are bit-identical
  either way.
* ``engine="brute"`` -- the original bounded fixpoint that re-evaluates
  every module and snapshots every wire per iteration.  Kept as the
  semantic reference: the equivalence tests pin the other engines
  against it, and ``benchmarks/bench_simulator.py`` measures the
  speedups.

The simulator also exposes an *activity* counter per wire (toggle
counts), which feeds the dynamic-power estimate of the synthesis cost
model.  Counts are keyed by ``(module name, wire name)`` so same-named
wires in different modules never merge (the seed keyed them by bare wire
name, skewing the power estimate).
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Tuple

from ..errors import SimulationError, WatchdogTimeout
from .module import Module
from .scheduler import CombScheduler
from .waveform import Waveform

#: the available settle engines, in (reference, default, fastest)
#: order; the config layer (:mod:`repro.api`) validates against this
#: tuple
ENGINES = ("brute", "levelized", "kernel")


class Simulator:
    def __init__(self, name: str = "sim", max_settle_iters: int = 64,
                 engine: str = "levelized"):
        if engine not in ENGINES:
            raise ValueError(
                f"unknown engine {engine!r} (use 'levelized', 'kernel' "
                f"or 'brute')"
            )
        self.name = name
        self.engine = engine
        self.modules: List[Module] = []
        self.cycle = 0
        self.max_settle_iters = max_settle_iters
        self.waveform = Waveform()
        self.scheduler = CombScheduler(self)
        self._monitors: List[Callable[[int], None]] = []
        # fault-injection hook (repro.inject): called with the simulator
        # after settle and before activity commit/sample/tick, i.e. at
        # the exact point where a transient upset lands on settled wires
        # or on register state about to be consumed by tick().  While
        # armed the compiled cycle-kernel fast path stands down (the
        # hook needs every cycle); it re-arms when the hook disarms.
        self._inject_hook: Optional[Callable[["Simulator"], None]] = None
        self._prev_values: Dict[int, int] = {}   # brute engine only
        self._adopted_activity: Dict[Tuple[str, str], int] = None
        # kernel engine only: the compiled cycle kernel for the current
        # (topology, watch count) pair.  None means no usable kernel --
        # either never compiled or the topology is unsupported; the
        # distinction lives in _kernel_key, which matching prevents a
        # re-plan until the topology or watch count changes
        self._kernel = None
        self._kernel_key = None
        #: process name -> whether the compile cache already held it,
        #: for every Anvil process elaborated onto this simulator
        #: (:func:`repro.codegen.simfsm.build_simulation`)
        self.compile_reuse: Dict[str, bool] = {}

    def add(self, module: Module) -> Module:
        self.modules.append(module)
        self.scheduler.invalidate()
        return module

    def watch(self, wire, label: str = ""):
        """Record a wire in the waveform output."""
        self.waveform.watch(wire, label)

    def on_cycle(self, fn: Callable[[int], None]):
        """Register a monitor callback invoked after each settle phase.

        While any monitor is registered the compiled cycle-kernel fast
        path stands down (:meth:`_kernel_advance` needs whole-run
        batches; monitors need every cycle) -- detach with
        :meth:`remove_monitor` to re-arm it."""
        self._monitors.append(fn)

    def remove_monitor(self, fn: Callable[[int], None]) -> bool:
        """Detach a monitor registered via :meth:`on_cycle`; returns
        whether it was attached."""
        try:
            self._monitors.remove(fn)
            return True
        except ValueError:
            return False

    # ------------------------------------------------------------------
    def _all_wires(self):
        for m in self.modules:
            yield from m.wires()

    def settle(self) -> int:
        """Run combinational logic to a fixpoint; returns the number of
        evaluation passes taken."""
        if self.engine == "brute":
            return self._settle_brute()
        return self.scheduler.settle()

    def _settle_brute(self):
        """The seed algorithm: full re-evaluation with dict snapshots."""
        for iteration in range(self.max_settle_iters):
            before = {id(w): w.value for w in self._all_wires()}
            for m in self.modules:
                m.eval_comb()
            after = {id(w): w.value for w in self._all_wires()}
            if before == after:
                return iteration + 1
        raise SimulationError(
            f"combinational logic did not settle in "
            f"{self.max_settle_iters} iterations at cycle {self.cycle}"
        )

    def adopt_remote(self, cycle: int,
                     activity: Dict[Tuple[str, str], int],
                     samples: Dict[str, List[int]],
                     resumed_from: int = 0) -> None:
        """Adopt the observable state of a run that happened in another
        process (the batch runner's ``process`` executor): cycle count,
        per-wire toggle counts, waveform samples.

        An already-advanced simulator may adopt only a remote run that
        *resumed from its own snapshot* (``resumed_from`` equals the
        local cycle): the remote observables then cover the local
        prefix bit-for-bit, so adoption loses nothing.

        The local module registers were never advanced (or are now
        behind the adopted run), so the simulator becomes *detached*:
        further ``run``/``step`` calls raise instead of silently mixing
        fresh local state into the adopted results.
        """
        if self.cycle != 0 and self.cycle != resumed_from:
            raise SimulationError(
                f"cannot adopt a remote run into {self.name!r}: the "
                f"local simulator advanced to cycle {self.cycle}, but "
                f"the remote run resumed from cycle {resumed_from} -- "
                f"its observables would not cover the local prefix"
            )
        self.cycle = cycle
        self._adopted_activity = dict(activity)
        self.waveform.samples = {k: list(v) for k, v in samples.items()}

    @property
    def detached(self) -> bool:
        """True once :meth:`adopt_remote` replaced local execution."""
        return self._adopted_activity is not None

    def step(self):
        """Advance one full clock cycle.

        Always the interpreted path, even under ``engine="kernel"``:
        single-cycle callers (``run_until`` predicates, test benches
        poking wires between steps, monitor-driven runs) re-dispatch
        every cycle, which is exactly the overhead the kernel exists to
        amortize -- batched cycles go through :meth:`run` instead."""
        if self.detached:
            raise SimulationError(
                f"simulator {self.name!r} adopted a remote run; its "
                f"local registers never advanced, so it cannot step "
                f"further (rebuild the scenario to keep simulating)"
            )
        self.settle()
        hook = self._inject_hook
        if hook is not None:
            hook(self)
        # toggle counting for the power model: the scheduler tracks which
        # wires changed during settle, no full snapshot needed
        if self.engine == "brute":
            self._brute_activity()
        else:
            self.scheduler.commit_activity()
        self.waveform.sample(self.cycle)
        for fn in self._monitors:
            fn(self.cycle)
        for m in self.modules:
            m.tick()
        self.cycle += 1

    def _brute_activity(self):
        """The seed's per-step toggle accounting: a full pass over every
        wire with a dict lookup per wire.  Kept verbatim (modulo the
        per-module keying fix) so benchmarks measure the seed engine's
        true cost; results land in the scheduler's counters so both
        engines report identically."""
        sch = self.scheduler
        sch.sync_registry()
        prev_values = self._prev_values
        toggles = sch._toggles
        values = sch._values
        prev_settled = sch._prev_settled
        for w, wi in sch._scan_all:
            v = w.value
            prev = prev_values.get(id(w))
            if prev is not None and prev != v:
                toggles[wi] += (prev ^ v).bit_count()
            prev_values[id(w)] = v
            values[wi] = v
            prev_settled[wi] = v

    def run(self, cycles: int):
        if self.engine != "kernel":
            for _ in range(cycles):
                self.step()
            return
        remaining = cycles
        while remaining > 0:
            remaining -= self._kernel_advance(remaining)
            if remaining > 0:
                # the fast path disengaged (monitors, unsupported
                # topology, pending scheduler state, mid-run add):
                # one interpreted cycle, then try the kernel again
                self.step()
                remaining -= 1

    def _kernel_advance(self, cycles: int) -> int:
        """Run up to ``cycles`` cycles through the compiled cycle
        kernel; returns the number actually completed (0 when the fast
        path cannot engage -- the caller falls back to :meth:`step`)."""
        if self.detached or self._monitors or self._inject_hook is not None:
            return 0
        sch = self.scheduler
        sch._ensure_built()
        if sch._needs_prime or sch._changed:
            # an unprimed activity baseline (first cycle after build)
            # or changed wires pending from a standalone settle() --
            # the interpreted commit owns those paths
            return 0
        key = (sch._topo_key, len(self.waveform._watched))
        if self._kernel_key != key:
            from .kernel import build_plan, kernel_for

            self._kernel = kernel_for(build_plan(self))
            self._kernel_key = key
        kern = self._kernel
        if kern is None:
            return 0
        # late watches: pad once here so the kernel's per-cycle sample
        # is a plain append
        for _label, _wire, series in self.waveform._watched:
            if len(series) < self.cycle:
                series.extend([0] * (self.cycle - len(series)))
        return kern.fn(self, sch, cycles)

    def snapshot(self):
        """Capture the complete cycle-boundary state (wire values,
        toggle counters, pending scheduler bookkeeping, module
        registers/latches/queues, waveform series, cycle number) as a
        picklable :class:`~repro.rtl.snapshot.Snapshot`.

        Engine-portable: a snapshot taken under any engine restores
        into any other (the equivalence suites pin the engines to
        identical boundary states), and restoring leaves the compiled
        cycle kernel's fast path armed -- its flat locals are rebound
        from the scheduler columns at every kernel entry."""
        from .snapshot import capture

        return capture(self)

    def restore(self, snap):
        """Restore a :meth:`snapshot` into this simulator (in place, or
        into a fresh deterministic rebuild of the same scenario); the
        resumed run is bit-identical to one that never stopped."""
        from .snapshot import restore

        restore(self, snap)

    def run_until(self, predicate: Callable[[], bool], limit: int = 10000):
        """Step until ``predicate()`` or the cycle limit; returns cycles
        elapsed."""
        start = self.cycle
        while not predicate():
            if self.cycle - start >= limit:
                raise SimulationError(
                    f"run_until exceeded {limit} cycles"
                )
            self.step()
        return self.cycle - start

    @property
    def activity(self) -> Dict[Tuple[str, str], int]:
        """Per-wire toggle counts keyed by ``(module name, wire name)``."""
        if self._adopted_activity is not None:
            return dict(self._adopted_activity)
        return self.scheduler.activity()

    def total_activity(self) -> int:
        if self._adopted_activity is not None:
            return sum(self._adopted_activity.values())
        return self.scheduler.total_activity()

    def __repr__(self):
        return (
            f"Simulator({self.name!r}, cycle={self.cycle}, "
            f"engine={self.engine!r})"
        )


def run_guarded(sim: Simulator, cycles: int,
                max_wall_time: Optional[float] = None,
                deadline: Optional[float] = None,
                chunk: int = 512) -> None:
    """Advance ``sim`` by ``cycles`` under a wall-clock watchdog.

    With no budget this is exactly ``sim.run(cycles)``.  With one, the
    run proceeds in ``chunk``-cycle slices and a ``time.monotonic()``
    deadline is checked between slices; exceeding it raises
    :class:`~repro.errors.WatchdogTimeout` instead of letting a hung or
    pathological simulation wedge its worker thread / queue slot.  A
    run that finishes its last slice late still succeeds -- the
    watchdog cancels pending work, it never discards completed work.

    Callers sharing one budget across several calls (the checkpointing
    runner) pass an absolute ``deadline`` instead of ``max_wall_time``.
    The slicing itself never changes observables: each slice goes
    through the normal ``run`` path, so kernel-engine runs stay on the
    fast path within every slice.
    """
    if deadline is None:
        if not max_wall_time:
            sim.run(cycles)
            return
        deadline = time.monotonic() + max_wall_time
    done = 0
    while done < cycles:
        n = min(chunk, cycles - done)
        sim.run(n)
        done += n
        if done < cycles and time.monotonic() > deadline:
            raise WatchdogTimeout(
                f"wall-clock watchdog cancelled {sim.name!r} at cycle "
                f"{sim.cycle}: {cycles - done} of {cycles} requested "
                f"cycles unsimulated when the budget expired"
            )
