"""Generated-Python FSM backend: compile the plan, not interpret it.

The reference interpreter in :mod:`repro.codegen.simfsm` re-walks a
process's :class:`~repro.core.fsmplan.ProcessPlan` on every settle
iteration of every cycle -- generic dispatch on event kinds, recursive
``RExpr.eval`` per expression node, a list of ``Activation`` objects per
thread.  This module removes that per-cycle interpretation: from the
plan it emits one Python module per process, ``compile()``d and
``exec``'d once per distinct plan, with every runtime expression lowered
to an inline Python expression by
:meth:`~repro.codegen.rexpr.RExpr.to_python`.  It defines two entry
points, ``_EVAL(m)`` and ``_TICK(m)``, which become the module's
``eval_comb`` and ``tick``.

Fixed-state threads
-------------------

Most threads run like the SystemVerilog FSM
(:mod:`repro.codegen.sysverilog`): one in-flight iteration whose state
is a handful of ints.  :func:`fixed_state_reason` decides from the plan
alone: a ``loop`` thread whose respawn anchor is its sink and whose
``JOIN_ANY`` events each merge the distinct arms of one ``if`` reaches
its anchor only at the end of an iteration, so the old iteration
retires at the edge where the new one starts.  Every ``loop`` thread of
the bundled designs qualifies; a ``recursive`` thread respawns before
its iteration ends and does not.

A fixed-state thread's state is the record ``(fired mask, dead mask,
start cycle, *fire cycles, *slots)`` in ``m._fsm[thread]``: the fire
cycles of the events a ``DELAY`` counts from, and the slots the thread
latches.  ``_EVAL`` unpacks it into locals, runs the settle pass with
mask tests, drives the handshake wires and leaves the pass records in
``m._fsx[thread]`` for the edge; a respawn resets the masks and runs
the same body again for the new iteration (the interpreter's
same-cycle child pass).  ``_TICK`` commits register writes and debug
prints from those records, keeps the last one as the new state and
drops the rest: the record holds nothing from an earlier iteration.
The interpreter's rules all carry over: one handshake per message per
thread and cycle (the older iteration owns it), the zero-delay-loop
error, the same-cycle slot bypass, register writes masked and applied
after every thread committed.

Fallback threads
----------------

A thread that does not qualify keeps one generated **fire** function
(the settle-pass body for one activation) and one **commit** function
(its clock-edge body), driven by the activation glue in
:mod:`repro.codegen.simfsm`; ``_EVAL``/``_TICK`` call that glue in
thread order.  The reason each thread fell back is recorded in the
source header and in :attr:`PyBackend.paths`.  Two runtime cases move a
fixed-state thread onto the same glue for the rest of the run, with
the activations the interpreter would hold: an iteration that reaches
its anchor while an event it did not need is still pending, and a
clock edge that runs at another cycle than the settle pass (a fault
injected into the module's ``cycle``).  The first can only happen
where the plan leaves an event unresolved when the anchor fires
(:attr:`FixedLayout.pending`, e.g. a response one arm of an ``if``
ignores); only those threads' edges check each respawning record.

Both backends must stay observationally identical -- same waveforms,
same toggle counts, same diagnostics; ``tests/test_pysim.py`` pins that
over randomized workloads of every Anvil-bearing scenario.

Caching
-------

Compilation is cached one level up, per process: a process's
:class:`~repro.codegen.simfsm.CompiledProcess` is keyed by its
structural digest (:meth:`~repro.lang.process.Process.digest`) and the
``do_optimize`` flag, so rebuilding a design -- a new
:class:`~repro.lang.process.Process` object from the same factory --
skips graph building, optimization, planning and source generation
alike.  :func:`backend_for` compiles the generated source once per
cached process, on its first ``pycompiled`` use.  :func:`cache_stats`
exposes that cache's hit/miss counters for the benchmark;
:func:`clear_cache` empties it.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Tuple

from ..core.events import EventKind, SyncDir
from ..core.fsmplan import (
    CommitExpr,
    CommitFlag,
    CommitPrint,
    CommitRecv,
    CommitReg,
    LatchExpr,
    LatchFlag,
    LatchRecv,
    ProcessPlan,
    ThreadPlan,
)
from ..errors import SimulationError
from .simfsm import CompiledProcess, cache_stats, clear_cache  # noqa: F401


class _Emitter:
    """Tiny indented-source builder."""

    def __init__(self):
        self.lines: List[str] = []
        self._indent = 0

    def line(self, text: str = ""):
        self.lines.append("    " * self._indent + text if text else "")

    def push(self):
        self._indent += 1

    def pop(self):
        self._indent -= 1

    def source(self) -> str:
        return "\n".join(self.lines) + "\n"


class _ExprCtx:
    """The context handed to ``RExpr.to_python``: pooled constants, fresh
    temporaries, and handshake-wire name resolution against the plan's
    port table."""

    def __init__(self, plan: ProcessPlan):
        self.plan = plan
        self.consts: Dict[object, str] = {}
        self.const_order: List[Tuple[str, object]] = []
        self._temp = 0
        self._cse_n = 0
        self.cse: Dict[int, str] = {}    # id(node) -> temp name
        self.used_ports: set = set()
        #: slots held in ``_s<n>`` locals (a fixed-state body), or None
        #: for a per-activation body reading the ``_ov``/``_sl`` dicts
        self.slot_locals: Optional[set] = None

    def sub(self, node) -> str:
        """Render a child expression -- through the active CSE table, so
        a hoisted shared node renders as its temporary's name."""
        name = self.cse.get(id(node))
        if name is not None:
            return name
        return node.to_python(self)

    def const(self, value) -> str:
        name = self.consts.get(value)
        if name is None:
            name = f"_K{len(self.consts)}"
            self.consts[value] = name
            self.const_order.append((name, value))
        return name

    def temp(self) -> str:
        self._temp += 1
        return f"_i{self._temp}"

    def slot(self, n: int) -> str:
        if self.slot_locals is None:
            return f"(_ov[{n}] if {n} in _ov else _sl.get({n}, 0))"
        # a slot no event of the thread latches always reads 0
        return f"_s{n}" if n in self.slot_locals else "0"

    def wire(self, port: int, role: str) -> str:
        self.used_ports.add(port)
        return f"_w{port}{role[0]}"      # _w3d / _w3v / _w3a

    def ready(self, endpoint: str, message: str) -> str:
        idx = self.plan.port_index[(endpoint, message)]
        pp = self.plan.ports[idx]
        role = "ack" if pp.is_sender else "valid"
        return f"{self.wire(idx, role)}.value"


def _emit_expr(em: _Emitter, ctx: _ExprCtx, expr) -> str:
    """Render ``expr`` at the current emission point, hoisting shared
    subexpression DAG nodes into local temporaries first.

    Runtime expressions are DAGs with heavy sharing (the AES round
    functions reuse xtime chains hundreds of times); inlining them as
    trees makes the generated source exponential.  Within one evaluation
    site the environment is fixed, so every shared node can be computed
    once: composite nodes referenced more than once are assigned to
    ``_eN`` locals in dependency order, and the returned expression
    refers to those names."""
    counts: Dict[int, int] = {}
    topo: List = []

    def visit(node):
        nid = id(node)
        counts[nid] = counts.get(nid, 0) + 1
        if counts[nid] > 1:
            return
        for child in node.children():
            visit(child)
        topo.append(node)

    visit(expr)
    hoisted = ctx.cse
    for node in topo:
        if counts[id(node)] >= 2 and node.children():
            rendered = node.to_python(ctx)
            ctx._cse_n += 1
            name = f"_e{ctx._cse_n}"
            em.line(f"{name} = {rendered}")
            hoisted[id(node)] = name
    out = ctx.sub(expr)
    ctx.cse = {}
    return out


def _emit_latches(em: _Emitter, ctx: _ExprCtx, latches):
    for latch in latches:
        if type(latch) is LatchRecv:
            em.line(f"_ov[{latch.target}] = "
                    f"{ctx.wire(latch.port, 'data')}.value")
        elif type(latch) is LatchFlag:
            v = ctx.wire(latch.port, "valid")
            a = ctx.wire(latch.port, "ack")
            em.line(f"_ov[{latch.target}] = "
                    f"1 if ({v}.value and {a}.value) else 0")
        else:   # LatchExpr
            rendered = _emit_expr(em, ctx, latch.source)
            em.line(f"_ov[{latch.slot}] = {rendered}")


def _gen_fire(em: _Emitter, ctx: _ExprCtx, tp: ThreadPlan):
    """The settle-pass body: a straight-line specialization of the
    interpreter's ``_fire_set`` in event order."""
    for ep in tp.events:
        eid = ep.eid
        kind = ep.kind
        em.line(f"# e{eid} {kind.value}" +
                (f" {ep.sync_key[0]}.{ep.sync_key[1]}" if ep.sync_key else ""))
        if kind is EventKind.ROOT:
            em.line(f"if {eid} not in af and _st == now:")
            em.push()
            em.line(f"fn[{eid}] = now")
            _emit_latches(em, ctx, ep.latches)
            em.pop()
            continue
        preds = ep.preds
        if kind is EventKind.JOIN_ANY:
            em.line(f"if {eid} not in af and {eid} not in ad:")
            em.push()
            fired = " or ".join(
                f"{p} in af or {p} in fn" for p in preds
            ) or "False"
            em.line(f"if {fired}:")
            em.push()
            em.line(f"fn[{eid}] = now")
            _emit_latches(em, ctx, ep.latches)
            em.pop()
            dead = " and ".join(
                f"({p} in ad or {p} in dn)" for p in preds
            ) or "True"
            em.line(f"elif {dead}:")
            em.push()
            em.line(f"dn.add({eid})")
            em.pop()
            em.pop()
            continue
        # DELAY / JOIN_ALL / BRANCH / SYNC: need every predecessor
        em.line(f"if {eid} not in af and {eid} not in ad:")
        em.push()
        pops = 1
        if preds:
            dead = " or ".join(f"{p} in ad or {p} in dn" for p in preds)
            em.line(f"if {dead}:")
            em.push()
            em.line(f"dn.add({eid})")
            em.pop()
            em.line("else:")
            em.push()
            pops += 1
            cvars = []
            for j, p in enumerate(preds):
                cv = f"_c{j}"
                cvars.append(cv)
                em.line(f"{cv} = af.get({p})")
                em.line(f"if {cv} is None:")
                em.push()
                em.line(f"{cv} = fn.get({p})")
                em.pop()
            em.line("if " + " and ".join(f"{c} is not None" for c in cvars)
                    + ":")
            em.push()
            pops += 1
            if kind is EventKind.DELAY:       # only DELAY consumes _b
                em.line("_b = _st")
                for cv in cvars:
                    em.line(f"if {cv} > _b:")
                    em.push()
                    em.line(f"_b = {cv}")
                    em.pop()
        elif kind is EventKind.DELAY:
            em.line("_b = _st")

        if kind is EventKind.DELAY:
            em.line(f"if _b + {ep.delay} == now:")
            em.push()
            em.line(f"fn[{eid}] = now")
            _emit_latches(em, ctx, ep.latches)
            em.pop()
        elif kind is EventKind.JOIN_ALL:
            em.line(f"fn[{eid}] = now")
            _emit_latches(em, ctx, ep.latches)
        elif kind is EventKind.BRANCH:
            if ep.cond_expr is not None:
                rendered = _emit_expr(em, ctx, ep.cond_expr)
                em.line(f"_x = ({rendered}) & 1")
            else:
                em.line("_x = 0")
            em.line("if _x:" if ep.polarity else "if not _x:")
            em.push()
            em.line(f"fn[{eid}] = now")
            _emit_latches(em, ctx, ep.latches)
            em.pop()
            em.line("else:")
            em.push()
            em.line(f"dn.add({eid})")
            em.pop()
        elif kind is EventKind.SYNC:
            key = repr(ep.sync_key)
            em.line(f"if {key} not in busy:")
            em.push()
            em.line(f"busy.add({key})")
            _emit_sync_drive(em, ctx, ep)
            v = ctx.wire(ep.port, "valid")
            a = ctx.wire(ep.port, "ack")
            if ep.conditional:
                em.line(f"fn[{eid}] = now")
                _emit_latches(em, ctx, ep.latches)
            else:
                em.line(f"if {v}.value and {a}.value:")
                em.push()
                em.line(f"fn[{eid}] = now")
                _emit_latches(em, ctx, ep.latches)
                em.pop()
            em.pop()
        else:  # pragma: no cover - exhaustive over EventKind
            raise AssertionError(kind)
        for _ in range(pops):
            em.pop()


def _gen_commit(em: _Emitter, ctx: _ExprCtx, tp: ThreadPlan):
    """The clock-edge body: apply the committed effects of every event in
    the settled fire set, in event order."""
    em.line("af.update(fn)")
    for ep in tp.events:
        if not ep.commits:
            continue
        em.line(f"if {ep.eid} in fn:")
        em.push()
        for c in ep.commits:
            if type(c) is CommitRecv:
                t = c.target
                em.line(f"_sl[{t}] = _ov[{t}] if {t} in _ov else "
                        f"{ctx.wire(c.port, 'data')}.value")
            elif type(c) is CommitFlag:
                t = c.target
                v = ctx.wire(c.port, "valid")
                a = ctx.wire(c.port, "ack")
                em.line(f"_sl[{t}] = _ov[{t}] if {t} in _ov else "
                        f"(1 if ({v}.value and {a}.value) else 0)")
            elif type(c) is CommitExpr:
                s = c.slot
                rendered = _emit_expr(em, ctx, c.source)
                em.line(f"_sl[{s}] = _ov[{s}] if {s} in _ov else "
                        f"({rendered})")
            else:   # CommitReg / CommitPrint
                _emit_effects(em, ctx, c)
        em.pop()


def _port_binds(ctx: _ExprCtx) -> List[str]:
    """Local bindings for the port wires the body touches: one unpack
    of the module's whole port-wire table (``_`` takes the rest)."""
    if not ctx.used_ports:
        return []
    names = []
    for pidx in range(len(ctx.plan.ports)):
        used = pidx in ctx.used_ports
        names.extend(f"_w{pidx}{r}" if used else "_" for r in "dva")
    return [f"    {', '.join(names)}, = m._pw"]


# ---------------------------------------------------------------------------
# fixed-state threads
# ---------------------------------------------------------------------------
def _pred_mask(ep) -> int:
    mask = 0
    for p in ep.preds:
        mask |= 1 << p
    return mask


def _dead_closure(tp: ThreadPlan, dead: int) -> int:
    """Events that die in the settle pass in which every event of
    ``dead`` is dead: one forward sweep in plan order suffices."""
    for ep in tp.events:
        bit = 1 << ep.eid
        if dead & bit or not ep.preds:
            continue
        pm = _pred_mask(ep)
        if ep.kind is EventKind.JOIN_ANY:
            if dead & pm == pm:
                dead |= bit
        elif dead & pm:
            dead |= bit
    return dead


def _exclusive(tp: ThreadPlan, ep, pairs) -> bool:
    """True when the predecessors of ``JOIN_ANY`` ``ep`` lie in distinct
    arms of one ``if``: the two branch events on its condition, and at
    most one predecessor among the events dying with each arm."""
    for key, (bt, bf) in pairs.items():
        if key[0] != ep.cond_id:
            continue
        arms = (_dead_closure(tp, 1 << bt), _dead_closure(tp, 1 << bf))
        used = [0, 0]
        for p in ep.preds:
            sides = [i for i in (0, 1) if arms[i] >> p & 1]
            if len(sides) != 1:
                break
            used[sides[0]] += 1
        else:
            if max(used) <= 1:
                return True
    return False


def fixed_state_reason(tp: ThreadPlan) -> Optional[str]:
    """None when ``tp`` runs as a fixed-state FSM, else why it cannot.

    A thread qualifies when it is a ``loop`` whose respawn anchor is its
    sink (every event leads to the anchor) and every ``JOIN_ANY`` merges
    the distinct arms of one ``if``.  Then the anchor fires only once
    its iteration has run to the end, which normally resolves every
    event, so the old iteration retires at the edge the new one starts.
    An event off the path that reached the anchor may still be pending
    (a response the other arm would have used).  Where the plan allows
    that (:attr:`FixedLayout.pending`), the clock edge checks for it
    and hands the thread to the activation glue if it happens."""
    if tp.kind != "loop":
        return (f"{tp.kind} thread: respawns at e{tp.anchor} before its "
                f"iteration ends")
    full = (1 << tp.n_events) - 1
    ancestors = 1 << tp.anchor
    for ep in reversed(tp.events):
        if ancestors >> ep.eid & 1:
            for p in ep.preds:
                ancestors |= 1 << p
    if ancestors != full:
        stray = next(e for e in range(tp.n_events)
                     if not ancestors >> e & 1)
        return (f"anchor e{tp.anchor} is not the sink (e{stray} does not "
                f"lead to it)")
    pairs: Dict[Tuple, Tuple[int, int]] = {}
    arms: Dict[Tuple, Dict[bool, int]] = {}
    for ep in tp.events:
        if ep.kind is EventKind.BRANCH:
            key = (ep.cond_id, ep.preds)
            arms.setdefault(key, {})[ep.polarity] = ep.eid
            if len(arms[key]) == 2:
                pairs[key] = (arms[key][True], arms[key][False])
    for ep in tp.events:
        if ep.kind is EventKind.JOIN_ANY and not _exclusive(tp, ep, pairs):
            return (f"JOIN_ANY e{ep.eid} merges "
                    + ", ".join(f"e{p}" for p in ep.preds)
                    + " outside the distinct arms of one branch")
    return None


def _pending_at_anchor(tp: ThreadPlan) -> int:
    """The events that can still be unresolved at the end of the settle
    pass in which the anchor fires, as a mask.

    Computed per event as the events certainly dead and certainly
    resolved by the end of the pass in which it fires: an event that
    needs every predecessor inherits all of theirs, a ``JOIN_ANY`` only
    what holds whichever predecessor fired.  A ``BRANCH`` that fires
    kills its sibling -- the opposite arm of the same condition on the
    same predecessors -- in the same pass, and death spreads forward
    within that pass (:func:`_dead_closure`)."""
    siblings: Dict[Tuple, int] = {}
    for ep in tp.events:
        if ep.kind is EventKind.BRANCH:
            key = (ep.cond_id, ep.preds, not ep.polarity)
            siblings[key] = siblings.get(key, 0) | (1 << ep.eid)
    sure: Dict[int, Tuple[int, int]] = {}    # eid -> (dead, resolved)
    for ep in tp.events:
        if ep.kind is EventKind.JOIN_ANY and ep.preds:
            dead = resolved = -1
            for p in ep.preds:
                dead &= sure[p][0]
                resolved &= sure[p][1]
        else:
            dead = resolved = 0
            for p in ep.preds:
                dead |= sure[p][0]
                resolved |= sure[p][1]
            if ep.kind is EventKind.BRANCH:
                dead |= siblings.get((ep.cond_id, ep.preds, ep.polarity), 0)
            dead = _dead_closure(tp, dead)
        sure[ep.eid] = (dead, resolved | dead | (1 << ep.eid))
    return ((1 << tp.n_events) - 1) & ~sure[tp.anchor][1]


def thread_paths(plan: ProcessPlan
                 ) -> Tuple[Tuple[Optional[str], ...],
                            Tuple[Optional["FixedLayout"], ...]]:
    """Per thread of ``plan``: its path (None = fixed-state, else the
    fallback reason) and its fixed-state record layout (None for a
    fallback thread)."""
    paths = tuple(fixed_state_reason(tp) for tp in plan.threads)
    layouts = tuple(FixedLayout(tp) if reason is None else None
                    for tp, reason in zip(plan.threads, paths))
    return paths, layouts


class FixedLayout:
    """Where one fixed-state thread keeps its state: the record
    ``(fired, dead, start, *cycles, *slots)`` in ``m._fsm[thread]``."""

    __slots__ = ("anchor", "pending", "cycles", "slots", "slot_events",
                 "initial")

    def __init__(self, tp: ThreadPlan):
        self.anchor = tp.anchor
        #: events an iteration may leave pending when it respawns; the
        #: clock edge checks for them only when there are any
        self.pending = _pending_at_anchor(tp)
        #: events whose fire cycle a DELAY reads
        self.cycles: Tuple[int, ...] = tuple(sorted(
            {p for _eid, preds, _delay in tp.delays for p in preds}))
        latched: Dict[int, int] = {}     # slot -> events latching it
        for ep in tp.events:
            for latch in ep.latches:
                n = latch.slot if type(latch) is LatchExpr else latch.target
                latched[n] = latched.get(n, 0) | (1 << ep.eid)
        self.slots: Tuple[int, ...] = tuple(sorted(latched))
        self.slot_events: Tuple[int, ...] = tuple(
            latched[n] for n in self.slots)
        self.initial = (0,) * (3 + len(self.cycles) + len(self.slots))

    def record(self) -> str:
        """The record as a comma-separated list of local names."""
        return ", ".join(["_f", "_d", "_st"]
                         + [f"_c{e}" for e in self.cycles]
                         + [f"_s{n}" for n in self.slots])


def _emit_fixed_fire(em: _Emitter, ctx: _ExprCtx, ep, lay: FixedLayout):
    """An event fires: set its bit, note its cycle, latch its slots."""
    em.line(f"_f |= {1 << ep.eid}")
    if ep.eid in lay.cycles:
        em.line(f"_c{ep.eid} = now")
    for latch in ep.latches:
        if type(latch) is LatchRecv:
            em.line(f"_s{latch.target} = "
                    f"{ctx.wire(latch.port, 'data')}.value")
        elif type(latch) is LatchFlag:
            v = ctx.wire(latch.port, "valid")
            a = ctx.wire(latch.port, "ack")
            em.line(f"_s{latch.target} = "
                    f"1 if ({v}.value and {a}.value) else 0")
        else:   # LatchExpr
            rendered = _emit_expr(em, ctx, latch.source)
            em.line(f"_s{latch.slot} = {rendered}")


def _gen_fixed_pass(em: _Emitter, ctx: _ExprCtx, tp: ThreadPlan,
                    lay: FixedLayout):
    """One settle pass of one activation over the state locals: the
    interpreter's firing rules with membership tests as mask tests
    (``_rs`` holds the events resolved before this pass)."""
    for ep in tp.events:
        eid = ep.eid
        bit = 1 << eid
        kind = ep.kind
        em.line(f"# e{eid} {kind.value}" +
                (f" {ep.sync_key[0]}.{ep.sync_key[1]}" if ep.sync_key else ""))
        if kind is EventKind.ROOT:
            em.line(f"if not _rs & {bit} and _st == now:")
            em.push()
            _emit_fixed_fire(em, ctx, ep, lay)
            em.pop()
            continue
        pm = _pred_mask(ep)
        em.line(f"if not _rs & {bit}:")
        em.push()
        if kind is EventKind.JOIN_ANY:
            em.line(f"if _f & {pm}:")
            em.push()
            _emit_fixed_fire(em, ctx, ep, lay)
            em.pop()
            em.line(f"elif _d & {pm} == {pm}:")
            em.push()
            em.line(f"_d |= {bit}")
            em.pop()
            em.pop()
            continue
        # DELAY / JOIN_ALL / BRANCH / SYNC: need every predecessor
        pops = 1
        if pm:
            em.line(f"if _d & {pm}:")
            em.push()
            em.line(f"_d |= {bit}")
            em.pop()
            em.line(f"elif _f & {pm} == {pm}:")
            em.push()
            pops += 1
        if kind is EventKind.DELAY:
            em.line("_b = _st")
            for p in ep.preds:
                em.line(f"if _c{p} > _b:")
                em.push()
                em.line(f"_b = _c{p}")
                em.pop()
            em.line(f"if _b + {ep.delay} == now:")
            em.push()
            _emit_fixed_fire(em, ctx, ep, lay)
            em.pop()
        elif kind is EventKind.JOIN_ALL:
            _emit_fixed_fire(em, ctx, ep, lay)
        elif kind is EventKind.BRANCH:
            if ep.cond_expr is not None:
                rendered = _emit_expr(em, ctx, ep.cond_expr)
                em.line(f"_x = ({rendered}) & 1")
            else:
                em.line("_x = 0")
            em.line("if _x:" if ep.polarity else "if not _x:")
            em.push()
            _emit_fixed_fire(em, ctx, ep, lay)
            em.pop()
            em.line("else:")
            em.push()
            em.line(f"_d |= {bit}")
            em.pop()
        elif kind is EventKind.SYNC:
            # one handshake per message per thread and cycle: the
            # first activation (or earlier event) to reach it owns it
            busy = f"_u{ep.port}"
            em.line(f"if not {busy}:")
            em.push()
            em.line(f"{busy} = 1")
            _emit_sync_drive(em, ctx, ep)
            v = ctx.wire(ep.port, "valid")
            a = ctx.wire(ep.port, "ack")
            if ep.conditional:
                _emit_fixed_fire(em, ctx, ep, lay)
            else:
                em.line(f"if {v}.value and {a}.value:")
                em.push()
                _emit_fixed_fire(em, ctx, ep, lay)
                em.pop()
            em.pop()
        else:  # pragma: no cover - exhaustive over EventKind
            raise AssertionError(kind)
        for _ in range(pops):
            em.pop()


def _emit_sync_drive(em: _Emitter, ctx: _ExprCtx, ep):
    """Drive this side of a handshake (under its guard, if any)."""
    if ep.guard is not None:
        rendered = _emit_expr(em, ctx, ep.guard)
        em.line(f"_g = ({rendered}) & 1")
        em.line("if _g:")
        em.push()
    if ep.direction is SyncDir.SEND:
        d = ctx.wire(ep.port, "data")
        em.line(f"{ctx.wire(ep.port, 'valid')}.value = 1")
        if ep.payload is not None:
            rendered = _emit_expr(em, ctx, ep.payload)
            em.line(f"{d}.value = ({rendered}) & {d}.mask")
        else:
            em.line(f"{d}.value = 0")
    else:
        em.line(f"{ctx.wire(ep.port, 'ack')}.value = 1")
    if ep.guard is not None:
        em.pop()


def _gen_fixed_eval(em: _Emitter, ctx: _ExprCtx, tp: ThreadPlan,
                    lay: FixedLayout):
    """The thread's share of ``_EVAL``: its pass, the same-cycle child
    passes while the anchor keeps firing, and the pass records the
    clock edge commits (``_X[thread]``)."""
    ti = tp.index
    rec = lay.record()
    em.line(f"# t{ti}: fixed-state, {tp.n_events} events, "
            f"anchor e{tp.anchor}")
    em.line(f"_S = _Q[{ti}]")
    em.line("if _S is None:")
    em.push()
    em.line(f"m._glue_eval({ti})")
    em.pop()
    em.line("else:")
    em.push()
    em.line(f"{rec} = _S")
    busy = sorted({ep.port for ep in tp.events
                   if ep.kind is EventKind.SYNC})
    if busy:
        em.line(" = ".join(f"_u{p}" for p in busy) + " = 0")
    em.line("_C = []")
    em.line("_k = 0")
    em.line("while 1:")
    em.push()
    em.line("_rs = _f | _d")
    _gen_fixed_pass(em, ctx, tp, lay)
    em.line(f"_C.append(({rec}))")
    em.line(f"if not _f & {1 << tp.anchor}:")
    em.push()
    em.line("break")
    em.pop()
    # the anchor fired: a fresh iteration starts now (the clock edge
    # checks that the old one retires)
    em.line("_k += 1")
    em.line("if _k > m.MAX_SPAWNS_PER_CYCLE:")
    em.push()
    em.line(f'raise _SE(f"{{m.name}}: zero-delay loop detected '
            f'(thread anchored at e{tp.anchor})")')
    em.pop()
    em.line("_f = _d = 0")
    em.line("_st = now")
    fresh = [f"_c{e}" for e in lay.cycles] + [f"_s{n}" for n in lay.slots]
    if fresh:
        em.line(" = ".join(fresh) + " = 0")
    em.pop()
    em.line(f"_X[{ti}] = _C")
    em.pop()


def _emit_effects(em: _Emitter, ctx: _ExprCtx, c):
    """Render one register-write or debug-print commit."""
    if type(c) is CommitReg:
        rendered = _emit_expr(em, ctx, c.source)
        em.line(f"_rw.append(({c.reg!r}, {rendered}))")
        return
    if c.source is not None:
        rendered = _emit_expr(em, ctx, c.source)
        em.line(f"_v = {rendered}")
    else:
        em.line("_v = None")
    em.line(f"m.debug_log.append((now, {c.fmt!r}, _v))")
    em.line("if m.print_debug:")
    em.push()
    em.line('_sfx = "" if _v is None else f" {_v:#x}"')
    em.line(f'print(f"[{{now}}] {{m.name}}: " + {c.fmt!r}'
            " + _sfx)")
    em.pop()


def _gen_fixed_tick(em: _Emitter, ctx: _ExprCtx, tp: ThreadPlan,
                    lay: FixedLayout):
    """The thread's share of ``_TICK``: commit each cached pass in
    order, then keep the last pass record as the new state.  Every
    record but the last reached the anchor; unless ``lay.pending``
    names an event such an iteration may have left unresolved, it
    retires here."""
    ti = tp.index
    rec = lay.record()
    em.line(f"# t{ti}: fixed-state")
    em.line(f"_S = _Q[{ti}]")
    em.line("if _S is None:")
    em.push()
    em.line(f"m._glue_tick({ti})")
    em.pop()
    em.line("elif _fe != now:")
    em.push()
    em.line(f"m._demote({ti}, _fe)")
    em.pop()
    em.line("else:")
    em.push()
    em.line(f"_C = _X[{ti}]")
    effects = [(ep.eid, [c for c in ep.commits
                         if type(c) is CommitReg or type(c) is CommitPrint])
               for ep in tp.events]
    effects = [(eid, cs) for eid, cs in effects if cs]
    if effects:
        # a pass's newly fired events: its mask over the state it
        # started from (the current state, then a fresh activation)
        em.line("_pf = _S[0]")
        em.line("for _P in _C:")
        em.push()
        em.line(f"{rec} = _P")
        em.line("fn = _f ^ _pf")
        em.line("_pf = 0")
        for eid, commits in effects:
            em.line(f"if fn & {1 << eid}:")
            em.push()
            for c in commits:
                _emit_effects(em, ctx, c)
            em.pop()
        em.pop()
        em.line(f"_Q[{ti}] = _P")
    else:
        em.line(f"_Q[{ti}] = _C[-1]")
    if lay.pending:
        em.line("if len(_C) > 1:")
        em.push()
        em.line(f"m._respawned({ti}, _C)")
        em.pop()
    # the pass records are scratch of this cycle only
    em.line(f"_X[{ti}] = None")
    em.pop()


def _gen_glue(em: _Emitter, tp: ThreadPlan, step: str, reason: str):
    em.line(f"# t{tp.index}: activation glue ({reason})")
    em.line(f"m._glue_{step}({tp.index})")


def _function(name: str, head: List[str], ctx: _ExprCtx,
              body: List[str], tail: List[str]) -> str:
    lines = [f"def {name}(m):"] + head + _port_binds(ctx)
    return "\n".join(lines + body + tail)


def generate_source(plan: ProcessPlan, threads=None) -> str:
    """Deterministically render ``plan`` as a Python module defining
    ``_EVAL`` and ``_TICK`` (the module's ``eval_comb``/``tick``) plus
    ``_FIRE``/``_COMMIT`` tuples with one per-activation function per
    fallback thread (``None`` for fixed-state threads).  ``threads`` is
    :func:`thread_paths` of ``plan`` when the caller already has it."""
    ctx = _ExprCtx(plan)
    paths, layouts = threads if threads is not None else thread_paths(plan)
    header = [
        f"# pysim backend for process {plan.name!r} "
        f"(optimized={plan.optimized})",
        f"# {len(plan.threads)} thread(s), {len(plan.ports)} port(s)",
    ]
    for tp, reason, lay in zip(plan.threads, paths, layouts):
        if reason is not None:
            header.append(f"# t{tp.index}: fallback: {reason}")
            continue
        pending = [f"e{e}" for e in range(tp.n_events)
                   if lay.pending >> e & 1]
        header.append(f"# t{tp.index}: fixed-state" + (
            f" (may respawn with {', '.join(pending)} pending)"
            if pending else ""))
    chunks: List[str] = []
    fire_names: List[str] = []
    commit_names: List[str] = []
    for tp, reason in zip(plan.threads, paths):
        if reason is None:
            fire_names.append("None")
            commit_names.append("None")
            continue
        # fire ---------------------------------------------------------
        em = _Emitter()
        em.push()
        ctx.used_ports = set()
        _gen_fire(em, ctx, tp)
        em.pop()
        body = em.lines
        name = f"_t{tp.index}_fire"
        fire_names.append(name)
        fn_lines = [f"def {name}(m, act, busy):",
                    "    now = m.cycle",
                    "    _r = m.regs",
                    "    _sl = act.slots",
                    "    af = act.fired",
                    "    ad = act.dead",
                    "    _st = act.start",
                    "    fn = {}",
                    "    dn = set()",
                    "    _ov = {}"]
        fn_lines.extend(_port_binds(ctx))
        fn_lines.extend(body)
        fn_lines.append("    return fn, dn, _ov")
        chunks.append("\n".join(fn_lines))
        # commit -------------------------------------------------------
        em = _Emitter()
        em.push()
        ctx.used_ports = set()
        _gen_commit(em, ctx, tp)
        em.pop()
        body = em.lines
        name = f"_t{tp.index}_commit"
        commit_names.append(name)
        fn_lines = [f"def {name}(m, act, fn, _ov):",
                    "    now = m.cycle",
                    "    _r = m.regs",
                    "    _sl = act.slots",
                    "    af = act.fired",
                    "    _rw = m._reg_writes"]
        fn_lines.extend(_port_binds(ctx))
        fn_lines.extend(body)
        chunks.append("\n".join(fn_lines))

    glue = any(reason is not None for reason in paths)
    # _EVAL -----------------------------------------------------------
    em = _Emitter()
    em.push()
    ctx.used_ports = set()
    for tp, lay, reason in zip(plan.threads, layouts, paths):
        if lay is None:
            _gen_glue(em, tp, "eval", reason)
            continue
        ctx.slot_locals = set(lay.slots)
        _gen_fixed_eval(em, ctx, tp, lay)
        ctx.slot_locals = None
    em.pop()
    head = ["    now = m.cycle", "    _r = m.regs"]
    if glue:
        head += ["    if not m._started:", "        m._start()"]
    head += ["    for _w in m._release_wires:", "        _w.value = 0",
             "    _Q = m._fsm", "    _X = m._fsx"]
    chunks.append(_function("_eval", head, ctx, em.lines,
                            ["    m._fst = now"]))
    # _TICK -----------------------------------------------------------
    em = _Emitter()
    em.push()
    ctx.used_ports = set()
    for tp, lay, reason in zip(plan.threads, layouts, paths):
        if lay is None:
            _gen_glue(em, tp, "tick", reason)
            continue
        ctx.slot_locals = set(lay.slots)
        _gen_fixed_tick(em, ctx, tp, lay)
        ctx.slot_locals = None
    em.pop()
    head = ["    now = m.cycle", "    _r = m.regs",
            "    _rw = m._reg_writes",
            "    _Q = m._fsm", "    _X = m._fsx", "    _fe = m._fst"]
    # register writes land after every thread committed, masked to
    # their register's width
    tail = ["    if _rw:",
            "        for _k, _v in _rw:",
            "            _r[_k] = _v & _RM[_k]",
            "        _rw.clear()",
            "    m._fst = None",
            "    m.cycle = now + 1"]
    chunks.append(_function("_tick", head, ctx, em.lines, tail))

    masks = {r.name: (1 << r.dtype.width) - 1
             for r in plan.process.registers.values()}
    consts = [f"{name} = {value!r}" for name, value in ctx.const_order]
    consts.append(f"_RM = {masks!r}")
    footer = [
        f"_FIRE = ({', '.join(fire_names)}{',' if fire_names else ''})",
        f"_COMMIT = ({', '.join(commit_names)}"
        f"{',' if commit_names else ''})",
        "_EVAL = _eval",
        "_TICK = _tick",
    ]
    return "\n".join(header + consts + [""] +
                     ["\n\n".join(chunks)] + [""] + footer) + "\n"


class PyBackend:
    """A compiled plan: the module's generated ``eval_comb``/``tick``,
    per-thread fire/commit functions for fallback threads, per-thread
    paths (None = fixed-state, else the fallback reason) and the
    fixed-state record layouts, plus the source they came from."""

    __slots__ = ("source", "fire", "commit", "eval", "tick", "paths",
                 "layouts")

    def __init__(self, source: str, ns: Dict[str, object], threads):
        self.source = source
        self.fire: Tuple = tuple(ns["_FIRE"])
        self.commit: Tuple = tuple(ns["_COMMIT"])
        self.eval = ns["_EVAL"]
        self.tick = ns["_TICK"]
        #: :func:`thread_paths` of the plan: per-thread paths and
        #: fixed-state record layouts
        self.paths, self.layouts = threads


_LOCK = threading.Lock()


def backend_for(compiled: CompiledProcess) -> PyBackend:
    """Return the generated backend of ``compiled``, compiling its plan
    on first use and keeping the result on ``compiled``, so every
    build that shares the cached process shares one compilation
    (thread-safe; harness sweeps build simulators from worker
    threads)."""
    backend = compiled.pysim
    if backend is not None:
        return backend
    plan = compiled.plan
    threads = thread_paths(plan)
    source = generate_source(plan, threads)
    code = compile(source, f"<pysim:{plan.name}>", "exec")
    ns: Dict[str, object] = {"_SE": SimulationError}
    exec(code, ns)
    with _LOCK:
        # a concurrent caller may have compiled it first; keep one
        if compiled.pysim is None:
            compiled.pysim = PyBackend(source, ns, threads)
        return compiled.pysim
