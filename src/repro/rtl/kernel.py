"""Compiled per-topology cycle kernels: the ``engine="kernel"`` settle
engine.

The levelized scheduler (:mod:`repro.rtl.scheduler`) already avoids the
seed's snapshot dicts, but every cycle still pays full interpreter
overhead: a ``settle()`` call that rebinds ~15 locals and re-walks the
group list, dirty-set bookkeeping for blocks that can never be re-marked,
a separate ``commit_activity()`` pass, ``Waveform.sample()`` with its
per-signal length check, and a ``tick()`` sweep that calls into every
module -- including the ones whose ``tick`` is the base-class no-op.
For the common case -- an acyclic, fully-hinted topology whose
evaluation order is static once built -- all of that dispatch is
knowable at build time.

This module exec-compiles that knowledge into a **cycle kernel**: one
generated Python function that runs N cycles in a single loop with
everything bound to locals --

* straight-line ``eval_comb`` calls in level order for singleton groups,
  each followed by inline output-change checks against the scheduler's
  value table (recording changed wires for the activity commit);
* a bounded local re-evaluation loop only for blocks that feed
  themselves, and a local fixpoint loop only for genuine multi-module
  SCCs (with intra-group dirty flags resolved to individual locals);
* a fused incremental toggle-accounting pass over exactly the wires
  that changed this cycle (``prev -> settled``, same arithmetic as
  :meth:`~repro.rtl.scheduler.CombScheduler.commit_activity`);
* columnar waveform sampling -- one pre-bound ``series.append`` per
  watched signal, no length checks (the entry wrapper pads once);
* the tick sweep over only the modules that override ``tick``.

The kernel shares the scheduler's state tables (``_values``,
``_prev_settled``, ``_toggles``), so kernel cycles and interpreted
cycles interleave freely and bit-identically: the equivalence suite
pins ``kernel`` against both ``levelized`` and ``brute`` on waveforms,
activity counts and cycle counts.

Fast-path contract (when the kernel *disengages*)
-------------------------------------------------

:meth:`~repro.rtl.simulator.Simulator.run` asks :func:`kernel_for` for
a kernel and falls back to the levelized per-cycle path whenever the
fast path cannot apply:

* a module with undeclared ``comb_outputs()`` (the scheduler must then
  scan every wire after every evaluation -- exactly the cost the kernel
  exists to remove), reported as an unsupported plan;
* monitors registered (``on_cycle`` callbacks observe between settle
  and tick; the kernel has no per-cycle callout), checked at entry and
  per cycle;
* pending scheduler state from a standalone ``settle()`` call or an
  un-primed activity baseline (first cycle of a fresh simulator);
* ``run_until`` predicates and single ``step()`` calls -- both use the
  interpreted path, where per-cycle re-dispatch is the point;
* detached simulators (``adopt_remote``) -- ``step()`` raises as usual;
* mid-run ``Simulator.add`` -- the scheduler's invalidation flag is
  checked every kernel cycle and breaks out to a rebuild.

Like the levelized engine, the kernel assumes topology is stable while
modules evaluate: a module that adopts new wires or registers watches
*from inside* ``eval_comb``/``tick`` is only picked up at the next
``run``/``step`` entry (the levelized engine notices one settle
earlier).  No bundled module does this; ``Simulator.add`` (the
supported mutation) sets the scheduler's invalidation flag and is
caught at the next kernel cycle in both engines.

Checkpoint/restore (:mod:`repro.rtl.snapshot`) is invisible to the
kernel: snapshots capture the shared scheduler columns at a cycle
boundary, restore writes them back, and the generated entry rebinds
every flat local from those columns -- so a restored simulator
re-engages the fast path immediately, without an interpreted fallback
cycle.  :func:`fast_path_ready` makes that entry check inspectable and
the snapshot tests pin it.

Caching
-------

Generated source is a pure function of the topology *shape* -- group
structure, per-block output scan indices, intra-group reader edges,
catch-all indices, tick overrides and the watched-signal count -- so
the compile cache is keyed by the SHA-256 of the source itself.  Two
simulators of the same scenario (a harness sweep rebuilding row after
row, a process-pool worker warm-up) compile once.  :func:`cache_stats`
exposes the hit/miss counters; :func:`clear_cache` resets them
(tests).
"""

from __future__ import annotations

import hashlib
import threading
from typing import Dict, List, Optional, Tuple

from ..errors import SimulationError

__all__ = [
    "KernelPlan",
    "CycleKernel",
    "build_plan",
    "generate_source",
    "kernel_for",
    "topology_shape",
    "fast_path_ready",
    "cache_stats",
    "clear_cache",
]

class KernelPlan:
    """The structural description a cycle kernel is generated from.

    Extracted from a built :class:`~repro.rtl.scheduler.CombScheduler`:
    everything here is an index into the scheduler's module/wire tables,
    so the generated source never embeds object identities and identical
    topology shapes share one compilation.
    """

    __slots__ = ("n_modules", "steps", "catch_all", "tick_idx",
                 "n_watched", "unsupported")

    def __init__(self, n_modules: int,
                 steps: List[tuple],
                 catch_all: Tuple[int, ...],
                 tick_idx: Tuple[int, ...],
                 n_watched: int,
                 unsupported: Optional[str] = None):
        self.n_modules = n_modules
        #: evaluation steps in level order; each is one of
        #:   ("single", mi, ((wi, self_dirty), ...))
        #:   ("loop",   mi, ((wi, self_dirty), ...))
        #:   ("scc",    (mi, ...), {mi: ((wi, (in-group readers...)), ...)})
        self.steps = steps
        self.catch_all = catch_all
        self.tick_idx = tick_idx
        self.n_watched = n_watched
        #: human-readable reason the fast path cannot apply, or None
        self.unsupported = unsupported


def build_plan(sim) -> KernelPlan:
    """Extract a :class:`KernelPlan` from ``sim``'s built scheduler.

    The scheduler must already be built (``_ensure_built``); the plan
    mirrors its topology tables at that instant.
    """
    from .module import Module

    sch = sim.scheduler
    n_mod = len(sim.modules)
    n_watched = len(sim.waveform._watched)
    if sch._undeclared_writers:
        bad = [m.name for m in sim.modules if m.comb_outputs() is None]
        return KernelPlan(
            n_mod, [], (), (), n_watched,
            unsupported=(
                "module(s) without comb_outputs() hints: "
                f"{bad[:4]!r} -- the kernel needs a fully-hinted "
                f"topology (every wire's writer known at build time)"
            ),
        )

    scan_idx = [tuple(wi for _w, wi in mscan) for mscan in sch._scan]
    readers = sch._readers
    self_mark = sch._self_mark

    steps: List[tuple] = []
    for group in sch._groups:
        if len(group) == 1:
            mi = group[0]
            scan = tuple(
                (wi, self_mark[mi] and mi in readers[wi])
                for wi in scan_idx[mi]
            )
            kind = "loop" if any(sd for _wi, sd in scan) else "single"
            steps.append((kind, mi, scan))
        else:
            members = sorted(group)
            in_group = set(members)
            body = {}
            for mi in members:
                body[mi] = tuple(
                    (wi, tuple(oi for oi in readers[wi]
                               if oi in in_group
                               and (oi != mi or self_mark[mi])))
                    for wi in scan_idx[mi]
                )
            steps.append(("scc", tuple(members), body))

    tick_idx = tuple(
        mi for mi, m in enumerate(sim.modules)
        if type(m).tick is not Module.tick
    )
    catch_all = tuple(wi for _w, wi in sch._catch_all)
    return KernelPlan(n_mod, steps, catch_all, tick_idx, n_watched)


# ---------------------------------------------------------------------------
# source generation
# ---------------------------------------------------------------------------
class _Emitter:
    """Tiny indented-source builder (same shape as pysim's)."""

    def __init__(self):
        self.lines: List[str] = []
        self._indent = 1          # everything lives inside one function

    def line(self, text: str = ""):
        self.lines.append("    " * self._indent + text if text else "")

    def push(self):
        self._indent += 1

    def pop(self):
        self._indent -= 1


def _fused_wires(plan: KernelPlan) -> set:
    """Wire indices whose toggle accounting can fuse into the scan.

    A wire settles at its scan site -- so ``prev -> settled`` accounting
    can happen right there, against a local mirror of the previous
    settled value, with no changed-list and no commit pass -- iff the
    scan provably runs exactly once per cycle: the wire has exactly one
    writer, that writer is a plain singleton block, and no catch-all
    restart can re-run the pass.  Everything else (self-feeding blocks,
    SCC members, multi-writer wires, catch-all wires) may see the wire
    change several times per settle, where only the final value counts.
    """
    if plan.catch_all:
        return set()
    writers: Dict[int, int] = {}
    single_out: set = set()
    for step in plan.steps:
        if step[0] == "scc":
            for scans in step[2].values():
                for wi, _r in scans:
                    writers[wi] = writers.get(wi, 0) + 1
        else:
            for wi, _sd in step[2]:
                writers[wi] = writers.get(wi, 0) + 1
                if step[0] == "single":
                    single_out.add(wi)
    return {wi for wi in single_out if writers[wi] == 1}


def _emit_scan(em: _Emitter, wi: int, fused: set, dirty_targets=()):
    """Inline output-change check for one scanned wire.

    Both shapes compare against a local mirror of the wire's last seen
    value (``_p{wi}``) and re-read the attribute only on the rare
    change path, so the common unchanged case costs one attribute load
    and one compare.  Fused sites account toggles immediately (their
    mirror is the previous *settled* value); dynamic sites additionally
    fold into the scheduler's value table and the changed list for the
    end-of-settle commit, and re-dirty ``dirty_targets`` (the writer's
    own flag, or SCC members).
    """
    em.line(f"if _w{wi}.value != _p{wi}:")
    em.push()
    em.line(f"_x = _w{wi}.value")
    if wi in fused:
        em.line(f"toggles[{wi}] += (_p{wi} ^ _x).bit_count()")
        em.line(f"_p{wi} = _x")
        em.pop()
        return
    em.line(f"_p{wi} = _x")
    em.line(f"values[{wi}] = _x")
    em.line(f"chg_app({wi})")
    for target in dirty_targets:
        em.line(f"{target} = 1")
    em.pop()


def _emit_pass(em: _Emitter, plan: KernelPlan, fused: set) -> int:
    """One full settle pass in level order; returns the number of
    unconditional (straight-line) evaluations, for the eval counter."""
    n_plain = 0
    for step in plan.steps:
        kind = step[0]
        if kind == "single":
            _kind, mi, scan = step
            n_plain += 1
            em.line(f"_e{mi}()")
            for wi, _sd in scan:
                _emit_scan(em, wi, fused)
        elif kind == "loop":
            _kind, mi, scan = step
            em.line(f"# block {mi} feeds itself: bounded local re-eval")
            em.line("_d = 1")
            em.line("_i = 0")
            em.line("while _d:")
            em.push()
            em.line("_i += 1")
            em.line("if _i > _mx:")
            em.push()
            # the diagnostic reads sim.cycle; sync it before raising
            # (the finally block only runs after the error is built)
            em.line("sim.cycle = cyc")
            em.line(f"raise _err([{mi}])")
            em.pop()
            em.line("_d = 0")
            em.line(f"_e{mi}()")
            em.line("_ev += 1")
            for wi, sd in scan:
                _emit_scan(em, wi, fused, ("_d",) if sd else ())
            em.pop()
        else:   # scc
            _kind, members, body = step
            mlist = ", ".join(str(mi) for mi in members)
            em.line(f"# SCC [{mlist}]: local fixpoint "
                    f"(genuine combinational feedback)")
            for mi in members:
                em.line(f"_g{mi} = 1")
            anyd = " or ".join(f"_g{mi}" for mi in members)
            em.line("for _i in range(_mx):")
            em.push()
            em.line(f"if not ({anyd}):")
            em.push()
            em.line("break")
            em.pop()
            for mi in members:
                em.line(f"if _g{mi}:")
                em.push()
                em.line(f"_g{mi} = 0")
                em.line(f"_e{mi}()")
                em.line("_ev += 1")
                for wi, group_readers in body[mi]:
                    _emit_scan(em, wi, fused,
                               tuple(f"_g{oi}" for oi in group_readers))
                em.pop()
            em.pop()
            em.line("else:")
            em.push()
            em.line("sim.cycle = cyc")
            em.line(f"raise _err([{mlist}])")
            em.pop()
    return n_plain


def _emit_cycle_body(em: _Emitter, plan: KernelPlan, fused: set,
                     dynamic: bool):
    """One full simulated cycle: catch-all outer loop (when needed)
    around the settle pass, the end-of-settle activity commit, waveform
    sampling, the tick sweep, and the cycle counters."""
    if plan.catch_all:
        # wires with no declared writer can change only between kernel
        # cycles (test-bench pokes before entry, undisciplined tick
        # writes): scan them before the pass, and re-run the pass while
        # the scan keeps hitting -- the levelized engine's outer
        # settle loop, specialized
        em.line("for _p in range(_mx):")
        em.push()
        em.line("_hit = 0")
        for wi in plan.catch_all:
            em.line(f"_x = _w{wi}.value")
            em.line(f"if _x != values[{wi}]:")
            em.push()
            em.line(f"values[{wi}] = _x")
            em.line(f"chg_app({wi})")
            em.line("_hit = 1")
            em.pop()
        em.line("if _p and not _hit:")
        em.push()
        em.line("break")
        em.pop()
        n_plain = _emit_pass(em, plan, fused)
        if n_plain:
            em.line(f"_ev += {n_plain}")
        em.pop()
        em.line("else:")
        em.push()
        em.line("raise _SE(")
        em.push()
        em.line('f"combinational logic did not settle in {_mx} "')
        em.line('f"iterations at cycle {cyc}")')
        em.pop()
        em.pop()
    else:
        n_plain = _emit_pass(em, plan, fused)
        if n_plain:
            em.line(f"_ev += {n_plain}")
    if dynamic:
        # end-of-settle commit: prev -> settled for the wires that may
        # change more than once per settle (fused sites already
        # accounted themselves at their single scan point)
        em.line("for _k in chg:")
        em.push()
        em.line("_x = values[_k]")
        em.line("_p = prev[_k]")
        em.line("if _p != _x:")
        em.push()
        em.line("toggles[_k] += (_p ^ _x).bit_count()")
        em.line("prev[_k] = _x")
        em.pop()
        em.pop()
        em.line("del chg[:]")
    # columnar waveform sampling
    for i in range(plan.n_watched):
        em.line(f"_a{i}(_v{i}.value)")
    # tick sweep (only modules that override tick)
    for mi in plan.tick_idx:
        em.line(f"_t{mi}()")
    em.line("cyc += 1")
    em.line("done += 1")


def _plan_layout(plan: KernelPlan):
    """Shape analysis: evaluated module indices, the scanned wire set,
    the fused subset, and whether any dynamic (changed-list) wires
    remain."""
    scanned_set = set(plan.catch_all)
    eval_idx = []
    for step in plan.steps:
        if step[0] == "scc":
            eval_idx.extend(step[1])
            for scans in step[2].values():
                scanned_set.update(wi for wi, _r in scans)
        else:
            eval_idx.append(step[1])
            scanned_set.update(wi for wi, _sd in step[2])
    fused = _fused_wires(plan)
    dynamic = bool(scanned_set - fused)
    return eval_idx, scanned_set, fused, dynamic


def _emit_bindings(em: _Emitter, plan: KernelPlan, eval_idx,
                   scanned_set, dynamic: bool):
    """Bind the simulator's tables to flat locals: wires, value mirrors,
    eval/tick bounds, waveform appends, the changed list."""
    for mi in sorted(eval_idx):
        em.line(f"_e{mi} = mods[{mi}].eval_comb")
    for wi in sorted(scanned_set):
        em.line(f"_w{wi} = wires[{wi}]")
    for wi in sorted(scanned_set - set(plan.catch_all)):
        # local mirror of the wire's last seen value: the previous
        # settled value for fused sites, the live value table for
        # dynamic ones (values == prev at entry -- the wrapper bails on
        # pending scheduler state; dynamic sites keep values[] in
        # lockstep on their change path)
        em.line(f"_p{wi} = values[{wi}]")
    for mi in plan.tick_idx:
        em.line(f"_t{mi} = mods[{mi}].tick")
    for i in range(plan.n_watched):
        em.line(f"_a{i} = watched[{i}][2].append")
        em.line(f"_v{i} = watched[{i}][1]")
    if dynamic:
        em.line("chg = []")
        em.line("chg_app = chg.append")


def generate_source(plan: KernelPlan) -> str:
    """Deterministically render ``plan`` as a Python module defining
    ``_KERNEL(sim, sch, n) -> cycles completed``."""
    eval_idx, scanned_set, fused, dynamic = _plan_layout(plan)
    scanned = sorted(scanned_set)

    head = [
        f"# cycle kernel: {plan.n_modules} module(s), "
        f"{len(scanned)} scanned wire(s) ({len(fused)} fused), "
        f"{len(plan.catch_all)} catch-all wire(s), "
        f"{plan.n_watched} watched signal(s)",
        "def _KERNEL(sim, sch, n):",
    ]
    em = _Emitter()
    em.line("mods = sim.modules")
    em.line("wires = sch._wires")
    em.line("values = sch._values")
    em.line("prev = sch._prev_settled")
    em.line("toggles = sch._toggles")
    em.line("watched = sim.waveform._watched")
    em.line("mons = sim._monitors")
    em.line("_mx = sim.max_settle_iters")
    em.line("_err = sch._loop_error")
    _emit_bindings(em, plan, eval_idx, scanned_set, dynamic)
    em.line("cyc = sim.cycle")
    em.line("done = 0")
    em.line("_ev = 0")
    em.line("try:")
    em.push()
    em.line("while done < n:")
    em.push()
    # per-cycle guard: topology invalidation (mid-run add -- sim.add
    # sets the stale flag) and monitors registered mid-run.  Anything
    # only module code could mutate without tripping these (adopting
    # wires or adding watches from inside eval/tick) is picked up at
    # the next run/step entry instead -- see the module docstring.
    em.line("if sch._stale or mons:")
    em.push()
    em.line("break")
    em.pop()
    _emit_cycle_body(em, plan, fused, dynamic)
    em.pop()
    em.pop()
    em.line("finally:")
    em.push()
    em.line("sim.cycle = cyc")
    em.line("sch.eval_count += _ev")
    em.line("sch.settle_count += done")
    for wi in sorted(fused):
        # sync the local mirrors back so interpreted cycles, activity
        # queries and rebuild carry-over see the settled state
        em.line(f"values[{wi}] = prev[{wi}] = _p{wi}")
    em.pop()
    em.line("return done")
    return "\n".join(head + em.lines) + "\n"


# ---------------------------------------------------------------------------
# compilation + cache
# ---------------------------------------------------------------------------
class CycleKernel:
    """A compiled cycle kernel: the generated runner and its source."""

    __slots__ = ("source", "fn")

    def __init__(self, source: str, fn):
        self.source = source
        self.fn = fn


_CACHE: Dict[str, CycleKernel] = {}
_LOCK = threading.Lock()
_STATS = {"hits": 0, "misses": 0}


def _digest(source: str) -> str:
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


def kernel_for(plan: KernelPlan) -> Optional[CycleKernel]:
    """Return the compiled kernel for ``plan`` (``None`` when the plan
    is unsupported), compiling each distinct source text at most once
    (thread-safe; harness sweeps build simulators from worker
    threads)."""
    if plan.unsupported:
        return None
    source = generate_source(plan)
    key = _digest(source)
    with _LOCK:
        hit = _CACHE.get(key)
        if hit is not None:
            _STATS["hits"] += 1
            return hit
    # the profiler attributes generated code by this filename prefix
    code = compile(source, "<cycle-kernel:scalar>", "exec")
    ns: Dict[str, object] = {"_SE": SimulationError}
    exec(code, ns)
    kern = CycleKernel(source, ns["_KERNEL"])
    with _LOCK:
        winner = _CACHE.setdefault(key, kern)
        # a concurrent caller may have compiled the same source first;
        # only the insertion counts as a miss, so hits + misses always
        # equals calls and misses equals cache entries
        _STATS["misses" if winner is kern else "hits"] += 1
    return winner


def topology_shape(sim) -> Optional[str]:
    """A digest identifying ``sim``'s topology *shape*: simulators with
    equal digests generate identical kernels.  ``None`` when the shape
    has no kernel (unsupported plan).

    The digest is the SHA-256 of the kernel source (the same key the
    compile cache uses), memoized per simulator against the scheduler's
    rebuild token and the watched-signal count so repeated queries
    don't re-render the source.
    """
    sch = sim.scheduler
    sch._ensure_built()
    token = (sch._topo_key, len(sim.waveform._watched))
    cached = getattr(sim, "_shape_cache", None)
    if cached is not None and cached[0] == token:
        return cached[1]
    plan = build_plan(sim)
    digest = None if plan.unsupported else _digest(generate_source(plan))
    sim._shape_cache = (token, digest)
    return digest


def fast_path_ready(sim) -> bool:
    """Whether the compiled fast path can engage for ``sim``'s *next*
    ``run()`` call without an interpreted fallback cycle.

    This is the entry check of
    :meth:`~repro.rtl.simulator.Simulator._kernel_advance` made
    inspectable: no monitors, not detached, scheduler built with no
    pending prime or dirty set, and a supported topology.  The
    checkpoint layer (:mod:`repro.rtl.snapshot`) restores the scheduler
    columns the generated code rebinds its flat locals from at every
    entry, so a restored simulator must report ready whenever the
    snapshot's source did -- the snapshot test suite pins that
    invariant so restores never silently degrade ``engine="kernel"``
    runs to the per-cycle interpreter.
    """
    if sim.detached or sim._monitors:
        return False
    sch = sim.scheduler
    sch._ensure_built()
    if sch._needs_prime or sch._changed:
        return False
    return topology_shape(sim) is not None


def cache_stats() -> Dict[str, int]:
    """Compile-cache counters (the benchmark's cache-stats hook)."""
    with _LOCK:
        return dict(_STATS, entries=len(_CACHE))


def clear_cache():
    """Reset the source-hash cache and counters (tests)."""
    with _LOCK:
        _CACHE.clear()
        _STATS["hits"] = _STATS["misses"] = 0
