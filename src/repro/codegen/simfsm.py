"""Executable FSMs: compiled Anvil processes on the RTL simulator.

The paper's compiler lowers the event graph to an FSM with one ``current``
wire per event plus state registers for joins, cycle delays and dynamic
sends/receives (Section 6.2).  This module is the executable analogue,
split into three layers:

1. :func:`compile_process` lowers a process through
   :func:`repro.core.fsmplan.build_process_plan` into a backend-neutral
   **FSM plan** (per-thread firing order, latch/commit specs, the exact
   handshake sensitivity sets), once per distinct process: the result
   is cached under the process's structural digest
   (:meth:`repro.lang.process.Process.digest`);
2. :class:`AnvilProcessModule` owns the run-time state -- the register
   file, handshake ports, per-thread activations -- and the **reference
   interpreter** (``backend="interp"``): a list of :class:`Activation`
   objects per thread (fired/dead dicts and sets, slot dicts), walked
   event by event every settle pass, deduplicated at every edge.  It is
   the oracle the generated backend is tested against;
3. ``backend="pycompiled"`` replaces ``eval_comb``/``tick`` with the
   pair :mod:`repro.codegen.pysim` generates from the same plan.
   Threads that qualify from the plan
   (:func:`repro.codegen.pysim.fixed_state_reason`) run as fixed-state
   FSMs -- plain-int state in ``_fsm``, no activation objects at all;
   the rest (threads whose iteration can outlive its respawn, such as
   ``recursive`` ones) keep
   generated per-activation fire/commit functions driven by the same
   activation glue the interpreter uses (``_glue_eval``/``_glue_tick``).
   :attr:`AnvilProcessModule.fsm_paths` says which thread took which
   path and why.

Execution semantics (identical across backends):

* event firing is computed *combinationally* each settle iteration (the
  ``current`` wires), monotonically within a cycle;
* actions (register writes, data latching, debug prints) commit at the
  clock edge;
* ``loop`` threads respawn an activation at the loop-back anchor; a
  ``recursive`` thread respawns at its ``recurse`` event, so iterations
  overlap exactly as the language semantics prescribe.

Because the type checker has already guaranteed timing safety, the
backends need no value buffering beyond what the FSM itself has --
which is why the generated hardware carries no lifetime bookkeeping.
"""

from __future__ import annotations

import threading
from functools import partial
from types import MethodType
from typing import Dict, List, Optional, Tuple

from ..core.events import EventGraph, EventKind, SyncDir
from ..core.fsmplan import (
    CommitExpr,
    CommitFlag,
    CommitRecv,
    CommitReg,
    LatchFlag,
    LatchRecv,
    ProcessPlan,
    ThreadPlan,
    build_process_plan,
    port_reads,
    port_writes,
)
from ..errors import ContractViolationError, SimulationError
from ..lang.channels import Side
from ..lang.process import Process, System
from ..rtl.module import Module
from ..rtl.signal import Wire
from . import rexpr as rx

#: execution backends an :class:`AnvilProcessModule` can run on
BACKENDS = ("interp", "pycompiled")


class CompiledThread:
    """Legacy view of one thread's compiled graph (the SystemVerilog
    backend and the synthesis cost model consume this shape)."""

    def __init__(self, graph: EventGraph, root: int, anchor: int, kind: str,
                 cond_exprs: Dict[int, rx.RExpr]):
        self.graph = graph
        self.root = root
        self.anchor = anchor
        self.kind = kind
        self.cond_exprs = cond_exprs  # cond_id -> condition expression


class CompiledProcess:
    """A type-check-free compilation artifact: the FSM plan, ready to
    execute, plus the per-thread graph view other backends consume.

    :func:`compile_process` hands one instance to every build of a
    structurally identical process, so nothing may change it, its plan
    or its graphs once built.  ``process`` is the first of those
    processes, not necessarily the caller's.  The one late write is the
    generated-Python backend, compiled on first ``pycompiled`` use by
    :func:`repro.codegen.pysim.backend_for`."""

    def __init__(self, process: Process, plan: ProcessPlan):
        self.process = process
        self.plan = plan
        self.optimize_stats = plan.optimize_stats
        self.threads: List[CompiledThread] = [
            CompiledThread(tp.graph, 0, tp.anchor, tp.kind, tp.cond_exprs)
            for tp in plan.threads
        ]
        self.pysim = None


#: the compile cache: ``(Process.digest(), do_optimize)`` -> the compiled
#: process, shared by every build in this interpreter
_CACHE: Dict[Tuple[str, bool], CompiledProcess] = {}
#: one lock per process being compiled, so racing builds compile it once
_BUILDING: Dict[Tuple[str, bool], threading.Lock] = {}
_LOCK = threading.Lock()
_STATS = {"hits": 0, "misses": 0}


def compile_process(process: Process, do_optimize: bool = True
                    ) -> CompiledProcess:
    """Compile each thread to a single-iteration event graph + plan, at
    most once per distinct process (see :class:`CompiledProcess`)."""
    return _compile(process, do_optimize)[0]


def _compile(process: Process, do_optimize: bool
             ) -> Tuple[CompiledProcess, bool]:
    """:func:`compile_process`, plus whether the cache already held it.

    Thread-safe: a build that races another build of the same new
    process waits for it and takes its result, so each process is
    compiled once, hits + misses equals calls and misses equals
    entries."""
    key = (process.digest(), do_optimize)
    with _LOCK:
        hit = _CACHE.get(key)
        if hit is None:
            building = _BUILDING.setdefault(key, threading.Lock())
    if hit is None:
        with building:
            with _LOCK:
                hit = _CACHE.get(key)
            if hit is None:
                compiled = CompiledProcess(
                    process, build_process_plan(process, do_optimize))
                with _LOCK:
                    _CACHE[key] = compiled
                    _BUILDING.pop(key, None)
                    _STATS["misses"] += 1
                return compiled, False
    with _LOCK:
        _STATS["hits"] += 1
    return hit, True


def cache_stats() -> Dict[str, int]:
    """Compile-cache counters: lookups served from the cache (hits),
    processes compiled (misses) and cached processes (entries)."""
    with _LOCK:
        return {"hits": _STATS["hits"], "misses": _STATS["misses"],
                "entries": len(_CACHE)}


def clear_cache():
    """Empty the compile cache and zero its counters: the next build of
    every process compiles it from scratch."""
    with _LOCK:
        _CACHE.clear()
        _STATS["hits"] = 0
        _STATS["misses"] = 0


class MessagePort:
    """The wire triplet of one message on one channel instance."""

    def __init__(self, name: str, width: int):
        self.data = Wire(f"{name}.data", width)
        self.valid = Wire(f"{name}.valid", 1)
        self.ack = Wire(f"{name}.ack", 1)

    def wires(self):
        return (self.data, self.valid, self.ack)

    @property
    def fires(self) -> bool:
        return bool(self.valid.value and self.ack.value)

    def __repr__(self):
        return (
            f"MessagePort(data={self.data.value:#x} "
            f"v={self.valid.value} a={self.ack.value})"
        )


class _SlotView:
    """Committed slots with a same-cycle overlay (the hardware's bypass
    path: data latched this cycle is combinationally visible)."""

    __slots__ = ("base", "overlay")

    def __init__(self, base: Dict[int, int], overlay: Dict[int, int]):
        self.base = base
        self.overlay = overlay

    def get(self, key, default=0):
        if key in self.overlay:
            return self.overlay[key]
        return self.base.get(key, default)


class Activation:
    """One in-flight iteration of a thread."""

    __slots__ = ("start", "fired", "dead", "slots", "spawned", "retired",
                 "cache")

    def __init__(self, start: int):
        self.start = start
        self.fired: Dict[int, int] = {}  # eid -> cycle
        self.dead: set = set()
        self.slots: Dict[int, int] = {}
        self.spawned = False
        self.retired = False
        # (cycle, fired_now, dead_now, overlay) from the last settled
        # fire pass; consumed by tick() so the clock edge does not
        # recompute the fire set the settle phase already produced
        self.cache: Optional[Tuple] = None


class AnvilProcessModule(Module):
    """Run-time instance of a compiled process.

    ``backend="interp"`` walks the plan with the reference interpreter;
    ``backend="pycompiled"`` runs the ``eval_comb``/``tick`` pair
    generated by :mod:`repro.codegen.pysim`.  The two are
    observationally identical.  All run-time state lives in plain-data
    attributes (``regs``, ``cycle``, ``debug_log`` and ``_``-prefixed
    bookkeeping), so snapshots capture and restore it as is and fault
    injection sees the same sites under either backend.
    """

    MAX_ACTIVATIONS = 64
    MAX_SPAWNS_PER_CYCLE = 16
    #: per-thread fixed-state records (``pycompiled`` only; None marks a
    #: thread run by the activation glue)
    _fsm: Optional[List[Optional[tuple]]] = None

    def __init__(self, compiled: CompiledProcess, name: str = "",
                 backend: str = "interp"):
        super().__init__(name or compiled.process.name)
        if backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {backend!r} (use 'interp' or 'pycompiled')"
            )
        self.compiled = compiled
        self.plan: ProcessPlan = compiled.plan
        self.process = compiled.process
        self.backend = backend
        self.regs: Dict[str, int] = {
            r.name: r.init for r in self.process.registers.values()
        }
        # endpoint -> message -> MessagePort (shared with the counterpart)
        self.ports: Dict[str, Dict[str, MessagePort]] = {}
        self.sides: Dict[str, Side] = {}
        self.cycle = 0
        self.debug_log: List[Tuple[int, str, Optional[int]]] = []
        self.print_debug = False
        self._threads_rt: List[List[Activation]] = [
            [] for _ in self.plan.threads
        ]
        self._tentative: List[List[Activation]] = [
            [] for _ in self.plan.threads
        ]
        self._reg_writes: List[Tuple[str, int]] = []
        self._started = False
        # flat port-wire table: [data, valid, ack] per plan port, filled
        # by bind_endpoint (None until the endpoint is wired)
        self._pw: List[Optional[Wire]] = [None] * (3 * len(self.plan.ports))
        self._ready_wires: Dict[Tuple[str, str], Wire] = {}
        self._release_wires: List[Wire] = []   # handshake outputs to drop
        # per-activation fire/commit steps of the activation glue: the
        # interpreter's, or generated ones for pycompiled fallback threads
        self._fire = [partial(self._interp_fire, tp)
                      for tp in self.plan.threads]
        self._commit = [partial(self._interp_commit, tp)
                        for tp in self.plan.threads]
        if backend == "pycompiled":
            from .pysim import backend_for

            be = self._pysim = backend_for(compiled)
            for ti, (f, c) in enumerate(zip(be.fire, be.commit)):
                if f is not None:
                    self._fire[ti] = partial(f, self)
                    self._commit[ti] = partial(c, self)
            self._init_fixed_state()
            # instance attributes shadow the interpreter's methods, so
            # the schedulers and the cycle kernel call the generated
            # functions directly
            self.eval_comb = MethodType(be.eval, self)
            self.tick = MethodType(be.tick, self)

    def _init_fixed_state(self):
        be = self._pysim
        self._fsm = [lay.initial if lay is not None else None
                     for lay in be.layouts]
        self._fsx: List[Optional[list]] = [None] * len(be.layouts)
        self._fst: Optional[int] = None   # cycle of the last settle pass
        #: fixed-state threads handed to the activation glue, and why
        self._demoted: Dict[int, str] = {}

    @property
    def fsm_paths(self) -> Dict[int, Optional[str]]:
        """Per thread: None when it runs as a fixed-state FSM, else the
        reason it runs on the activation glue.  Empty under ``interp``,
        which runs no generated code."""
        if self.backend != "pycompiled":
            return {}
        out = dict(enumerate(self._pysim.paths))
        out.update(self._demoted)
        return out

    # -- wiring -----------------------------------------------------------
    def bind_endpoint(self, endpoint: str, side: Side,
                      ports: Dict[str, MessagePort]):
        self.ports[endpoint] = ports
        self.sides[endpoint] = side
        for m, p in ports.items():
            self.adopt(p.data)
            self.adopt(p.valid)
            self.adopt(p.ack)
        for pp in self.plan.ports:
            if pp.endpoint != endpoint:
                continue
            port = ports[pp.message]
            base = 3 * pp.index
            self._pw[base] = port.data
            self._pw[base + 1] = port.valid
            self._pw[base + 2] = port.ack
            self._ready_wires[pp.key] = (
                port.ack if pp.is_sender else port.valid
            )
            if pp.drives:
                self._release_wires.append(
                    port.valid if pp.is_sender else port.ack
                )

    def _ready(self, endpoint: str, message: str) -> int:
        return self._ready_wires[(endpoint, message)].value

    # -- scheduler registration --------------------------------------------
    # The compiled FSM's combinational block is exactly its handshake
    # logic, and the plan's port table records precisely which messages
    # the process synchronizes on or observes: as a sender it drives
    # valid/data and reacts to the ack, as a receiver it drives the ack
    # and reacts to valid/data, and a readiness query reads the
    # counterpart's handshake bit.  Registers, slots and activation
    # state only change at the clock edge, so they need no sensitivity
    # edges.  Wires of messages the process is bound to but never uses
    # appear in neither set -- the levelized scheduler gets the exact
    # dependency surface of the generated hardware.
    _ROLE = {"data": 0, "valid": 1, "ack": 2}

    def comb_inputs(self):
        ins = []
        for pp in self.plan.ports:
            base = 3 * pp.index
            for role in port_reads(pp):
                w = self._pw[base + self._ROLE[role]]
                if w is not None:
                    ins.append(w)
        return ins

    def comb_outputs(self):
        outs = []
        for pp in self.plan.ports:
            base = 3 * pp.index
            for role in port_writes(pp):
                w = self._pw[base + self._ROLE[role]]
                if w is not None:
                    outs.append(w)
        return outs

    # -- combinational phase ---------------------------------------------
    def eval_comb(self):
        if not self._started:
            self._start()
        # release our handshake outputs, then re-drive below
        for w in self._release_wires:
            w.value = 0
        for ti in range(len(self.plan.threads)):
            self._glue_eval(ti)

    def _start(self):
        fixed = self._fsm
        for ti in range(len(self.plan.threads)):
            if fixed is not None and fixed[ti] is not None:
                continue
            if not self._threads_rt[ti]:
                self._threads_rt[ti].append(Activation(0))
        self._started = True

    def _glue_eval(self, ti: int):
        """The settle pass of one thread's activation list."""
        self._tentative[ti] = []
        acts = [a for a in self._threads_rt[ti] if not a.retired]
        self._eval_thread(ti, self.plan.threads[ti], acts,
                          self._tentative[ti])

    def _eval_thread(self, ti: int, tp: ThreadPlan, acts: List[Activation],
                     tentative: List[Activation]):
        fire = self._fire[ti]
        queue = list(acts)
        spawns = 0
        busy_messages: set = set()
        anchor = tp.anchor
        idx = 0
        while idx < len(queue):
            act = queue[idx]
            idx += 1
            fired_now, dead_now, overlay = fire(act, busy_messages)
            act.cache = (self.cycle, fired_now, dead_now, overlay)
            anchor_fires = anchor in fired_now or anchor in act.fired
            if anchor_fires and not act.spawned:
                spawns += 1
                if spawns > self.MAX_SPAWNS_PER_CYCLE:
                    raise SimulationError(
                        f"{self.name}: zero-delay loop detected (thread "
                        f"anchored at e{anchor})"
                    )
                if len(queue) >= self.MAX_ACTIVATIONS:
                    raise SimulationError(
                        f"{self.name}: too many concurrent activations"
                    )
                child = Activation(self.cycle)
                tentative.append(child)
                queue.append(child)

    # -- the reference interpreter ----------------------------------------
    def _apply_latches(self, latches, overlay, env):
        pw = self._pw
        for latch in latches:
            t = type(latch)
            if t is LatchRecv:
                overlay[latch.target] = pw[3 * latch.port].value
            elif t is LatchFlag:
                base = 3 * latch.port
                overlay[latch.target] = (
                    1 if (pw[base + 1].value and pw[base + 2].value) else 0
                )
            else:   # LatchExpr
                overlay[latch.slot] = latch.source.eval(env)

    def _interp_fire(self, tp: ThreadPlan, act: Activation, busy: set):
        """Compute events firing *this* cycle for one activation and drive
        handshake wires for active syncs.  Pure function of settled state;
        re-run every settle iteration (permanent state only commits at the
        clock edge)."""
        now = self.cycle
        fired_now: Dict[int, int] = {}
        dead_now: set = set()
        overlay: Dict[int, int] = {}
        env = rx.REnv(self.regs, _SlotView(act.slots, overlay), self._ready)
        af = act.fired
        ad = act.dead
        af_get = af.get
        fn_get = fired_now.get
        pw = self._pw
        start = act.start

        for epl in tp.events:
            eid = epl.eid
            if eid in af or eid in ad or eid in fired_now \
                    or eid in dead_now:
                continue
            kind = epl.kind
            if kind is EventKind.ROOT:
                if start == now:
                    fired_now[eid] = now
                    if epl.latches:
                        self._apply_latches(epl.latches, overlay, env)
                continue
            preds = epl.preds
            if kind is EventKind.JOIN_ANY:
                ready = False
                alive = False
                for p in preds:
                    c = af_get(p)
                    if c is None:
                        c = fn_get(p)
                    if c is not None:
                        ready = alive = True
                        break
                    if not (p in ad or p in dead_now):
                        alive = True
                if ready:
                    fired_now[eid] = now
                    if epl.latches:
                        self._apply_latches(epl.latches, overlay, env)
                elif not alive:
                    dead_now.add(eid)
                continue
            # all other kinds require every predecessor
            dead = False
            for p in preds:
                if p in ad or p in dead_now:
                    dead = True
                    break
            if dead:
                dead_now.add(eid)
                continue
            base = start
            blocked = False
            for p in preds:
                c = af_get(p)
                if c is None:
                    c = fn_get(p)
                    if c is None:
                        blocked = True
                        break
                if c > base:
                    base = c
            if blocked:
                continue
            if kind is EventKind.DELAY:
                if base + epl.delay == now:
                    fired_now[eid] = now
                    if epl.latches:
                        self._apply_latches(epl.latches, overlay, env)
                continue
            if kind is EventKind.JOIN_ALL:
                fired_now[eid] = now
                if epl.latches:
                    self._apply_latches(epl.latches, overlay, env)
                continue
            if kind is EventKind.BRANCH:
                expr = epl.cond_expr
                cond = expr.eval(env) & 1 if expr is not None else 0
                if bool(cond) == epl.polarity:
                    fired_now[eid] = now
                    if epl.latches:
                        self._apply_latches(epl.latches, overlay, env)
                else:
                    dead_now.add(eid)
                continue
            # SYNC
            key = epl.sync_key
            if key in busy:
                continue  # an older activation owns the handshake
            busy.add(key)
            base3 = 3 * epl.port
            guard = 1 if epl.guard is None else epl.guard.eval(env) & 1
            if epl.direction is SyncDir.SEND:
                if guard:
                    pw[base3 + 1].value = 1
                    dw = pw[base3]
                    payload = (
                        epl.payload.eval(env)
                        if epl.payload is not None else 0
                    )
                    dw.value = payload & dw.mask
            else:
                if guard:
                    pw[base3 + 2].value = 1
            if epl.conditional or (pw[base3 + 1].value
                                   and pw[base3 + 2].value):
                fired_now[eid] = now
                if epl.latches:
                    self._apply_latches(epl.latches, overlay, env)
        return fired_now, dead_now, overlay

    def _interp_commit(self, tp: ThreadPlan, act: Activation,
                       fired_now: Dict[int, int], overlay: Dict[int, int]):
        act.fired.update(fired_now)
        if not fired_now:
            return
        env = rx.REnv(self.regs, _SlotView(act.slots, overlay), self._ready)
        now = self.cycle
        pw = self._pw
        slots = act.slots
        events = tp.events
        for eid in fired_now:
            for c in events[eid].commits:
                t = type(c)
                if t is CommitReg:
                    self._reg_writes.append((c.reg, c.source.eval(env)))
                elif t is CommitRecv:
                    slots[c.target] = overlay.get(
                        c.target, pw[3 * c.port].value
                    )
                elif t is CommitFlag:
                    base = 3 * c.port
                    slots[c.target] = overlay.get(
                        c.target,
                        1 if (pw[base + 1].value and pw[base + 2].value)
                        else 0,
                    )
                elif t is CommitExpr:
                    slots[c.slot] = overlay.get(
                        c.slot, c.source.eval(env)
                    )
                else:   # CommitPrint
                    value = (
                        c.source.eval(env)
                        if c.source is not None else None
                    )
                    self.debug_log.append((now, c.fmt, value))
                    if self.print_debug:
                        suffix = "" if value is None else f" {value:#x}"
                        print(f"[{now}] {self.name}: {c.fmt}{suffix}")

    # -- clock edge ---------------------------------------------------------
    def tick(self):
        for ti in range(len(self.plan.threads)):
            self._glue_tick(ti)
        for reg, value in self._reg_writes:
            dtype = self.process.registers[reg].dtype
            self.regs[reg] = dtype.mask(value)
        self._reg_writes = []
        self.cycle += 1

    def _glue_tick(self, ti: int):
        """The clock edge of one thread's activation list."""
        tp = self.plan.threads[ti]
        acts = self._threads_rt[ti]
        acts.extend(self._tentative[ti])
        self._tentative[ti] = []
        fire = self._fire[ti]
        commit = self._commit[ti]
        n_events = tp.n_events
        busy: set = set()
        for act in acts:
            if act.retired:
                continue
            cache = act.cache
            act.cache = None
            if cache is not None and cache[0] == self.cycle:
                # the settle phase already computed this activation's
                # fire set on the settled wires; reuse it
                _cyc, fired_now, dead_now, overlay = cache
            else:
                fired_now, dead_now, overlay = fire(act, busy)
            act.dead.update(dead_now)
            commit(act, fired_now, overlay)
            if tp.anchor in fired_now:
                act.spawned = True
            if len(act.fired) + len(act.dead) == n_events:
                act.retired = True
        self._threads_rt[ti] = self._dedup(
            ti, [a for a in acts if not a.retired])

    def _dedup(self, ti: int, live: List[Activation]) -> List[Activation]:
        """Activations with identical FSM state are indistinguishable
        (the generated hardware holds one copy of that state); keep
        only the oldest of each equivalence class.  This is what stops
        stalled `recursive` iterations from piling up."""
        if len(live) < 2:
            return live
        tp = self.plan.threads[ti]
        seen_states = set()
        deduped = []
        for a in live:
            dues = []
            for eid, preds, delay in tp.delays:
                if eid not in a.fired and eid not in a.dead and preds \
                        and all(p in a.fired for p in preds):
                    base = max(a.fired[p] for p in preds)
                    dues.append((eid, base + delay - self.cycle))
            key = (
                frozenset(a.fired),
                frozenset(a.dead),
                tuple(sorted(a.slots.items())),
                tuple(sorted(dues)),
                a.spawned,
            )
            if key in seen_states:
                continue
            seen_states.add(key)
            deduped.append(a)
        return deduped

    def _activation(self, ti: int, rec: tuple) -> Activation:
        """The :class:`Activation` a fixed-state record stands for."""
        lay = self._pysim.layouts[ti]
        fired, dead = rec[0], rec[1]
        n_cyc = len(lay.cycles)
        cycles = dict(zip(lay.cycles, rec[3:3 + n_cyc]))
        n = self.plan.threads[ti].n_events
        act = Activation(rec[2])
        act.fired = {e: cycles.get(e, 0) for e in range(n)
                     if fired >> e & 1}
        act.dead = {e for e in range(n) if dead >> e & 1}
        act.slots = {
            slot: value
            for slot, value, events in zip(lay.slots, rec[3 + n_cyc:],
                                           lay.slot_events)
            if fired & events
        }
        return act

    def _respawned(self, ti: int, passes: List[tuple]):
        """Clock-edge check of a fixed-state thread whose anchor fired,
        generated only where the plan cannot prove it unneeded
        (:attr:`repro.codegen.pysim.FixedLayout.pending`): every pass
        record but the last is an iteration that respawned.  One that
        has not resolved every event keeps running beside its
        successor, so the thread moves to the activation glue with the
        activations the interpreter would hold."""
        tp = self.plan.threads[ti]
        full = (1 << tp.n_events) - 1
        live = []
        for rec in passes[:-1]:
            if rec[0] | rec[1] != full:
                live.append(self._activation(ti, rec))
                live[-1].spawned = True
        if not live:
            return
        pending = next(e for e in range(tp.n_events)
                       if e not in live[0].fired and e not in live[0].dead)
        self._demoted[ti] = (
            f"demoted at cycle {self.cycle}: respawned at e{tp.anchor} "
            f"while e{pending} was unresolved")
        if passes[-1][0] | passes[-1][1] != full:
            live.append(self._activation(ti, passes[-1]))
        self._fsm[ti] = None
        self._threads_rt[ti] = self._dedup(ti, live)

    def _demote(self, ti: int, settled: Optional[int]):
        """Hand fixed-state thread ``ti`` to the activation glue, then
        run its clock edge there.

        Taken when the edge runs at another cycle than the settle pass
        did (a fault injected into ``cycle``): the interpreter then
        re-fires every activation at the new cycle, and two may outlive
        the edge.  The record becomes the activation the interpreter
        would hold; the child passes of a settle pass since the last
        edge become the fresh activations it spawned then."""
        self._demoted[ti] = (
            f"demoted at cycle {self.cycle}: clock edge ran at another "
            f"cycle than the settle pass ({settled})")
        spawned = len(self._fsx[ti]) - 1 if settled is not None else 0
        self._threads_rt[ti] = [self._activation(ti, self._fsm[ti])]
        self._tentative[ti] = [Activation(settled) for _ in range(spawned)]
        self._fsm[ti] = None
        self._glue_tick(ti)

    def reset(self):
        self.regs = {
            r.name: r.init for r in self.process.registers.values()
        }
        self._threads_rt = [[] for _ in self.plan.threads]
        self._tentative = [[] for _ in self.plan.threads]
        self._reg_writes = []
        self.cycle = 0
        self._started = False
        self.debug_log = []
        if self.backend == "pycompiled":
            self._init_fixed_state()


class ExternalEndpoint(Module):
    """Test-bench driver for the far side of an exposed channel.

    Provides queue-based ``send``/``expect_recv`` so tests and baseline
    co-simulations can interact with Anvil modules through ordinary
    valid/ack handshakes."""

    def __init__(self, name: str, channel, side: Side,
                 ports: Dict[str, MessagePort]):
        super().__init__(name)
        self.channel = channel
        self.side = side
        self.ports = ports
        for p in ports.values():
            self.adopt(p.data)
            self.adopt(p.valid)
            self.adopt(p.ack)
        self._send_queues: Dict[str, List[int]] = {}
        self._recv_enabled: Dict[str, bool] = {}
        self.received: Dict[str, List[Tuple[int, int]]] = {}
        self.sent: Dict[str, List[Tuple[int, int]]] = {}
        self.cycle = 0
        # ports and side are fixed, so split the ports by role once:
        # (message, valid, data, ack) for each port this side sends on
        # and each it receives on
        self._senders = frozenset(
            m for m in ports
            if channel.message(m).sender_side() is side)
        self._tx: Tuple[Tuple[str, Wire, Wire, Wire], ...] = tuple(
            (m, p.valid, p.data, p.ack) for m, p in ports.items()
            if m in self._senders)
        self._rx: Tuple[Tuple[str, Wire, Wire, Wire], ...] = tuple(
            (m, p.valid, p.data, p.ack) for m, p in ports.items()
            if m not in self._senders)

    def _is_sender(self, message: str) -> bool:
        if message in self._senders:
            return True
        return self.channel.message(message).sender_side() is self.side

    def send(self, message: str, value: int):
        if not self._is_sender(message):
            raise ContractViolationError(
                f"{self.name} is not the sender of {message!r}"
            )
        self._send_queues.setdefault(message, []).append(value)

    def always_receive(self, message: str, enabled: bool = True):
        if self._is_sender(message):
            raise ContractViolationError(
                f"{self.name} is the sender of {message!r}"
            )
        self._recv_enabled[message] = enabled

    def comb_inputs(self):
        return ()      # drives from queues/flags; reads no wires

    def comb_outputs(self):
        outs = []
        for _m, valid, data, _ack in self._tx:
            outs.append(valid)
            outs.append(data)
        for _m, _valid, _data, ack in self._rx:
            outs.append(ack)
        return outs

    def eval_comb(self):
        queues = self._send_queues
        for m, valid, data, _ack in self._tx:
            queue = queues.get(m)
            if queue:
                valid.value = 1
                data.value = queue[0] & data.mask
            else:
                valid.value = 0
        enabled = self._recv_enabled
        for m, _valid, _data, ack in self._rx:
            ack.value = 1 if enabled.get(m) else 0

    def tick(self):
        for m, valid, _data, ack in self._tx:
            if valid.value and ack.value:
                queue = self._send_queues.get(m)
                if queue:
                    value = queue.pop(0)
                    self.sent.setdefault(m, []).append((self.cycle, value))
        for m, valid, data, ack in self._rx:
            if valid.value and ack.value:
                self.received.setdefault(m, []).append(
                    (self.cycle, data.value)
                )
        self.cycle += 1


class SimulatedSystem:
    """A :class:`~repro.lang.process.System` elaborated onto the simulator."""

    def __init__(self, system: System, sim, modules, externals,
                 backend: str = "interp"):
        self.system = system
        self.sim = sim
        self.backend = backend
        self.modules: Dict[str, AnvilProcessModule] = modules
        self.externals: Dict[int, ExternalEndpoint] = externals

    def module(self, name: str) -> AnvilProcessModule:
        return self.modules[name]

    def external(self, chan) -> ExternalEndpoint:
        cid = chan.cid if hasattr(chan, "cid") else chan
        return self.externals[cid]


def fsm_report(sim) -> Optional[Dict[str, object]]:
    """How the compiled processes in ``sim`` execute: the number of
    threads running as fixed-state FSMs, the number on the activation
    glue, and why each of the latter is there (keyed
    ``"<module>.t<thread>"``).  None when ``sim`` runs no generated
    process (no compiled process, or only ``interp`` ones)."""
    modules = [m for m in sim.modules
               if isinstance(m, AnvilProcessModule)
               and m.backend == "pycompiled"]
    if not modules:
        return None
    fixed = 0
    reasons: Dict[str, str] = {}
    for m in modules:
        for ti, reason in m.fsm_paths.items():
            if reason is None:
                fixed += 1
            else:
                reasons[f"{m.name}.t{ti}"] = reason
    return {"fixed_state": fixed, "fallback": len(reasons),
            "reasons": reasons}


def build_report(sim) -> Optional[Dict[str, int]]:
    """How the compiled processes of ``sim`` were obtained: the number
    of distinct processes its build compiled and how many of them the
    compile cache already held.  None when ``sim`` holds no compiled
    process."""
    if not sim.compile_reuse:
        return None
    return {"processes": len(sim.compile_reuse),
            "reused": sum(sim.compile_reuse.values())}


def build_simulation(system: System, sim=None, do_optimize: bool = True,
                     backend: str = "interp",
                     engine: str = "levelized") -> SimulatedSystem:
    """Elaborate a system: compile every process, create channel wires and
    external drivers for exposed endpoints.

    ``backend`` selects the execution backend of every compiled process
    module (``"interp"`` or ``"pycompiled"``); ``engine`` the settle
    engine of the simulator created when ``sim`` is not supplied (an
    existing ``sim`` keeps its own engine).  All combinations are
    observationally identical."""
    from ..rtl.simulator import Simulator

    sim = sim or Simulator(system.name, engine=engine)
    compiled: Dict[str, CompiledProcess] = {}
    modules: Dict[str, AnvilProcessModule] = {}
    for inst in system.instances.values():
        if inst.process.name not in compiled:
            compiled[inst.process.name], reused = _compile(
                inst.process, do_optimize
            )
            sim.compile_reuse.setdefault(inst.process.name, reused)
        modules[inst.name] = AnvilProcessModule(
            compiled[inst.process.name], inst.name, backend=backend
        )
    externals: Dict[int, ExternalEndpoint] = {}
    for chan in system.channels:
        ports = {
            m.name: MessagePort(
                f"ch{chan.cid}.{m.name}", m.dtype.width
            )
            for m in chan.channel
        }
        for side in (Side.LEFT, Side.RIGHT):
            bound = chan.ends.get(side)
            if bound is not None:
                inst_name, ep_name = bound
                modules[inst_name].bind_endpoint(ep_name, side, ports)
            else:
                ext = ExternalEndpoint(
                    f"ext_ch{chan.cid}", chan.channel, side, ports
                )
                externals[chan.cid] = ext
    for m in modules.values():
        sim.add(m)
    for e in externals.values():
        sim.add(e)
    return SimulatedSystem(system, sim, modules, externals, backend=backend)
