"""Backend-neutral FSM execution plans (the middle of the Anvil backend).

The event graph (:mod:`repro.core.events`) is the compiler's IR; executing
it needs one more lowering step.  A :class:`ProcessPlan` is that step's
output: a frozen, backend-neutral description of how a compiled process
runs cycle by cycle --

* per-thread event firing order (graphs are built in topological order,
  so plan order *is* evaluation order), with every event's predecessor
  list, delay, branch condition and handshake role pre-resolved;
* per-event **latch specs** (the combinational overlay writes: received
  data, sync success flags, latched expressions) and **commit specs**
  (the clock-edge effects: register writes, slot commits, debug prints),
  extracted once from the action lists so no backend ever runs
  ``isinstance`` over :class:`~repro.core.events.Action` objects in its
  inner loop;
* the **port table**: every ``(endpoint, message)`` pair the process
  actually synchronizes on or queries readiness of, with its
  sender/receiver role -- the exact combinational sensitivity of the
  generated FSM.  Handshake wires of messages a process is bound to but
  never uses appear nowhere in the plan, so simulation backends derive
  *precise* ``comb_inputs``/``comb_outputs`` sets instead of the
  conservative "every bound wire" hint.

Two backends consume plans today: the reference interpreter in
:mod:`repro.codegen.simfsm` and the generated-Python backend in
:mod:`repro.codegen.pysim`.  Both must remain observationally identical;
the plan is the single source of truth they share.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Tuple

from ..codegen import rexpr as rx
from .events import (
    DebugPrintAction,
    EventGraph,
    EventKind,
    RecvBindAction,
    RegWriteAction,
    SendDataAction,
    SyncDir,
    SyncFlagAction,
    SyncGuardAction,
)
from .graph_builder import GraphBuilder, LatchAction
from .optimize import optimize


# ---------------------------------------------------------------------------
# latch specs: combinational overlay writes executed when an event fires
# ---------------------------------------------------------------------------
class LatchRecv(NamedTuple):
    """overlay[target] = port.data (the bypass path of a receive)."""
    port: int
    target: int


class LatchFlag(NamedTuple):
    """overlay[target] = 1 iff the handshake transferred this cycle."""
    port: int
    target: int


class LatchExpr(NamedTuple):
    """overlay[slot] = eval(source) (let bindings, branch conditions)."""
    slot: int
    source: rx.RExpr


# ---------------------------------------------------------------------------
# commit specs: clock-edge effects of a fired event
# ---------------------------------------------------------------------------
class CommitReg(NamedTuple):
    reg: str
    source: rx.RExpr


class CommitRecv(NamedTuple):
    port: int
    target: int


class CommitFlag(NamedTuple):
    port: int
    target: int


class CommitExpr(NamedTuple):
    slot: int
    source: rx.RExpr


class CommitPrint(NamedTuple):
    fmt: str
    source: Optional[rx.RExpr]


class PortPlan:
    """One synchronized (or readiness-queried) message of the process."""

    __slots__ = ("index", "endpoint", "message", "is_sender", "width",
                 "drives")

    def __init__(self, index: int, endpoint: str, message: str,
                 is_sender: bool, width: int):
        self.index = index
        self.endpoint = endpoint
        self.message = message
        self.is_sender = is_sender
        self.width = width
        #: True once a SYNC event uses the key: the process then *drives*
        #: its handshake side (valid/data as sender, ack as receiver).
        #: Readiness-only ports observe the counterpart but drive nothing.
        self.drives = False

    @property
    def key(self) -> Tuple[str, str]:
        return (self.endpoint, self.message)

    def __repr__(self):
        role = "send" if self.is_sender else "recv"
        return f"PortPlan(#{self.index} {self.endpoint}.{self.message} {role})"


class EventPlan:
    """One event, fully resolved for execution."""

    __slots__ = ("eid", "kind", "preds", "delay", "conditional", "cond_id",
                 "polarity", "direction", "port", "sync_key", "guard",
                 "payload", "latches", "commits", "cond_expr")

    def __init__(self, eid: int, kind: EventKind, preds: Tuple[int, ...],
                 delay: int = 0, conditional: bool = False,
                 cond_id: int = -1, polarity: bool = True,
                 direction: Optional[SyncDir] = None, port: int = -1,
                 sync_key: Optional[Tuple[str, str]] = None):
        self.eid = eid
        self.kind = kind
        self.preds = preds
        self.delay = delay
        self.conditional = conditional
        self.cond_id = cond_id
        self.polarity = polarity
        self.direction = direction
        self.port = port
        self.sync_key = sync_key
        self.guard: Optional[rx.RExpr] = None      # SYNC only; last wins
        self.payload: Optional[rx.RExpr] = None    # SYNC SEND only
        self.latches: Tuple = ()
        self.commits: Tuple = ()
        self.cond_expr: Optional[rx.RExpr] = None  # BRANCH only

    def __repr__(self):
        return f"EventPlan(e{self.eid} {self.kind.value})"


class ThreadPlan:
    """One thread's executable plan."""

    __slots__ = ("index", "kind", "anchor", "events", "n_events",
                 "cond_exprs", "graph", "delays")

    def __init__(self, index: int, kind: str, anchor: int,
                 events: Tuple[EventPlan, ...],
                 cond_exprs: Dict[int, rx.RExpr], graph: EventGraph):
        self.index = index
        self.kind = kind
        self.anchor = anchor
        self.events = events
        self.n_events = len(events)
        self.cond_exprs = cond_exprs
        self.graph = graph   # kept for the SystemVerilog backend and docs
        #: DELAY events with their predecessors -- what the activation
        #: dedup in tick() needs to compute outstanding due-times
        self.delays: Tuple[Tuple[int, Tuple[int, ...], int], ...] = tuple(
            (e.eid, e.preds, e.delay)
            for e in events if e.kind is EventKind.DELAY
        )

    def __repr__(self):
        return f"ThreadPlan(t{self.index} {self.kind}, {self.n_events} events)"


class ProcessPlan:
    """Everything an execution backend needs, and nothing it must re-derive."""

    __slots__ = ("process", "name", "optimized", "threads", "ports",
                 "port_index", "optimize_stats", "_scanned_exprs")

    def __init__(self, process, optimized: bool):
        self.process = process
        self.name = process.name
        self.optimized = optimized
        self.threads: List[ThreadPlan] = []
        self.ports: List[PortPlan] = []
        self.port_index: Dict[Tuple[str, str], int] = {}
        self.optimize_stats: List = []
        # expression nodes already scanned for readiness reads -- shared
        # subexpression DAGs (e.g. AES xtime chains) must be walked as
        # DAGs, not trees, or extraction goes exponential
        self._scanned_exprs: set = set()

    # -- port registry ----------------------------------------------------
    def _port(self, endpoint: str, message: str) -> PortPlan:
        key = (endpoint, message)
        idx = self.port_index.get(key)
        if idx is not None:
            return self.ports[idx]
        ep = self.process.get_endpoint(endpoint)
        msg = ep.message(message)
        pp = PortPlan(len(self.ports), endpoint, message,
                      ep.sends(message), msg.dtype.width)
        self.port_index[key] = pp.index
        self.ports.append(pp)
        return pp

    def __repr__(self):
        return (f"ProcessPlan({self.name!r}, {len(self.threads)} threads, "
                f"{len(self.ports)} ports)")


def _collect_cond_exprs(graph: EventGraph) -> Dict[int, rx.RExpr]:
    """Map each branch condition id to the slot its latch writes (the
    slot overlay makes the latched value combinationally visible in the
    latching cycle, surviving optimizer merges)."""
    out: Dict[int, rx.RExpr] = {}
    for ev in graph.events:
        for act in ev.actions:
            if isinstance(act, LatchAction) and act.cond_id >= 0:
                out[act.cond_id] = rx.RSlot(act.slot, 1, f"c{act.cond_id}")
    return out


def _register_ready_reads(plan: ProcessPlan, expr: Optional[rx.RExpr]):
    """Readiness queries are combinational reads of the counterpart's
    handshake wire; they belong in the port table even without a sync."""
    if expr is None:
        return
    seen = plan._scanned_exprs
    stack = [expr]
    while stack:
        node = stack.pop()
        nid = id(node)
        if nid in seen:
            continue
        seen.add(nid)
        if isinstance(node, rx.RReady):
            plan._port(node.endpoint, node.message)
        stack.extend(node.children())


def _extract_event(plan: ProcessPlan, ev) -> EventPlan:
    ep = EventPlan(
        ev.eid, ev.kind, ev.preds, delay=ev.delay,
        conditional=ev.conditional, cond_id=ev.cond_id,
        polarity=ev.polarity, direction=ev.direction,
    )
    if ev.kind is EventKind.SYNC:
        pp = plan._port(ev.endpoint, ev.message)
        pp.drives = True
        ep.port = pp.index
        ep.sync_key = pp.key
    latches: List = []
    commits: List = []
    for act in ev.actions:
        if isinstance(act, RecvBindAction):
            pp = plan._port(act.endpoint, act.message)
            latches.append(LatchRecv(pp.index, act.target))
            commits.append(CommitRecv(pp.index, act.target))
        elif isinstance(act, SyncFlagAction):
            pp = plan._port(act.endpoint, act.message)
            latches.append(LatchFlag(pp.index, act.target))
            commits.append(CommitFlag(pp.index, act.target))
        elif isinstance(act, LatchAction):
            latches.append(LatchExpr(act.slot, act.source))
            commits.append(CommitExpr(act.slot, act.source))
            _register_ready_reads(plan, act.source)
        elif isinstance(act, RegWriteAction):
            commits.append(CommitReg(act.reg, act.source))
            _register_ready_reads(plan, act.source)
        elif isinstance(act, SendDataAction):
            ep.payload = act.source          # driven combinationally
            _register_ready_reads(plan, act.source)
        elif isinstance(act, SyncGuardAction):
            ep.guard = act.source
            _register_ready_reads(plan, act.source)
        elif isinstance(act, DebugPrintAction):
            commits.append(CommitPrint(act.fmt, act.source))
            _register_ready_reads(plan, act.source)
    ep.latches = tuple(latches)
    ep.commits = tuple(commits)
    return ep


def build_thread_plan(plan: ProcessPlan, thread, index: int,
                      do_optimize: bool) -> ThreadPlan:
    result = GraphBuilder(plan.process, thread).build(iterations=1)
    graph, anchor = result.graph, result.anchor
    if do_optimize:
        graph, mapping, stats = optimize(graph)
        anchor = mapping.get(anchor, anchor)
        plan.optimize_stats.append(stats)
    cond_exprs = _collect_cond_exprs(graph)
    events = []
    for ev in graph.events:
        epl = _extract_event(plan, ev)
        if ev.kind is EventKind.BRANCH:
            epl.cond_expr = cond_exprs.get(ev.cond_id)
            _register_ready_reads(plan, epl.cond_expr)
        events.append(epl)
    return ThreadPlan(index, thread.kind, anchor, tuple(events),
                      cond_exprs, graph)


def build_process_plan(process, do_optimize: bool = True) -> ProcessPlan:
    """Lower every thread of ``process`` to an executable plan.

    Uncached: both simulation backends compile through
    :func:`repro.codegen.simfsm.compile_process`, which calls this once
    per distinct process and shares the plan."""
    plan = ProcessPlan(process, do_optimize)
    for i, thread in enumerate(process.threads):
        plan.threads.append(build_thread_plan(plan, thread, i, do_optimize))
    return plan


# ---------------------------------------------------------------------------
# sensitivity: which wires of a port a backend reads/writes
# ---------------------------------------------------------------------------
def port_reads(pp: PortPlan) -> Tuple[str, ...]:
    """Wire roles ``eval_comb`` is sensitive to for this port."""
    if pp.is_sender:
        return ("ack",)
    if pp.drives:
        return ("valid", "data")
    return ("valid",)        # readiness query only


def port_writes(pp: PortPlan) -> Tuple[str, ...]:
    """Wire roles ``eval_comb`` may drive for this port."""
    if not pp.drives:
        return ()
    if pp.is_sender:
        return ("valid", "data")
    return ("ack",)
