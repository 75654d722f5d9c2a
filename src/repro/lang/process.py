"""Processes, threads and systems (Section 4.2--4.3).

A :class:`Process` is a template: registers, endpoint formal parameters and
one or more threads (``loop`` or ``recursive``).  A :class:`System` wires
process instances together through channel instances and is the unit that
the simulator executes and the compositional type check covers.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Optional, Tuple

from ..errors import ElaborationError
from .channels import ChannelDef, Side
from .terms import Term
from .types import Bundle, DataType, Logic


class Register:
    """A process-local register with an initial value."""

    def __init__(self, name: str, dtype: DataType, init: int = 0):
        self.name = name
        self.dtype = dtype
        self.init = dtype.mask(init)

    def __repr__(self):
        return f"reg {self.name} : {self.dtype!r}"


class Endpoint:
    """A formal endpoint parameter of a process: a side of some channel."""

    def __init__(self, name: str, channel: ChannelDef, side: Side):
        self.name = name
        self.channel = channel
        self.side = side

    def message(self, name: str):
        return self.channel.message(name)

    def sends(self, message: str) -> bool:
        """True iff this endpoint is the sender of ``message``."""
        return self.channel.message(message).sender_side() is self.side

    def __repr__(self):
        return f"{self.name} : {self.side.value} {self.channel.name}"


class Thread:
    """One concurrent thread of a process body."""

    LOOP = "loop"
    RECURSIVE = "recursive"

    def __init__(self, body: Term, kind: str = LOOP, name: str = ""):
        if kind not in (self.LOOP, self.RECURSIVE):
            raise ValueError(f"unknown thread kind {kind!r}")
        self.body = body
        self.kind = kind
        self.name = name

    def __repr__(self):
        return f"{self.kind}{{{self.body!r}}}"


class Process:
    """An Anvil ``proc``: the unit of compilation and type checking."""

    def __init__(self, name: str):
        self.name = name
        self.endpoints: Dict[str, Endpoint] = {}
        self.registers: Dict[str, Register] = {}
        self.threads: List[Thread] = []

    # -- declaration helpers --------------------------------------------
    def endpoint(self, name: str, channel: ChannelDef, side: Side) -> Endpoint:
        if name in self.endpoints:
            raise ElaborationError(f"duplicate endpoint {name!r} in {self.name}")
        ep = Endpoint(name, channel, side)
        self.endpoints[name] = ep
        return ep

    def register(self, name: str, dtype: Optional[DataType] = None, init: int = 0,
                 width: Optional[int] = None) -> Register:
        if name in self.registers:
            raise ElaborationError(f"duplicate register {name!r} in {self.name}")
        if dtype is None:
            dtype = Logic(width or 1)
        reg = Register(name, dtype, init)
        self.registers[name] = reg
        return reg

    def loop(self, body: Term, name: str = "") -> Thread:
        th = Thread(body, Thread.LOOP, name or f"loop{len(self.threads)}")
        self.threads.append(th)
        return th

    def recursive(self, body: Term, name: str = "") -> Thread:
        th = Thread(body, Thread.RECURSIVE, name or f"rec{len(self.threads)}")
        self.threads.append(th)
        return th

    # -- lookups ----------------------------------------------------------
    def get_endpoint(self, name: str) -> Endpoint:
        try:
            return self.endpoints[name]
        except KeyError:
            raise ElaborationError(
                f"process {self.name!r} has no endpoint {name!r}"
            ) from None

    def get_register(self, name: str) -> Register:
        try:
            return self.registers[name]
        except KeyError:
            raise ElaborationError(
                f"process {self.name!r} has no register {name!r}"
            ) from None

    def __repr__(self):
        return (
            f"proc {self.name}({', '.join(map(repr, self.endpoints.values()))})"
        )

    def digest(self) -> str:
        """SHA-256 of the process's structure: its name, endpoints with
        their channel contracts, registers, threads and every field of
        every term.  Two processes with one digest compile to the same
        plan, so the digest keys the compile cache
        (:func:`repro.codegen.simfsm.compile_process`).

        The term DAG is walked once: each node becomes one record whose
        term-valued fields name earlier records by index, so a shared
        subterm is hashed once (a flat string form of a DAG with shared
        subterms grows exponentially) and the sharing itself is part of
        the digest."""
        walk = _TermWalk()
        head = (
            self.name,
            tuple((ep.name, ep.side.value, _channel_key(ep.channel))
                  for ep in self.endpoints.values()),
            tuple((r.name, _dtype_key(r.dtype), r.init)
                  for r in self.registers.values()),
            tuple((th.kind, th.name, walk.ref(th.body))
                  for th in self.threads),
        )
        return hashlib.sha256(repr(
            (head, walk.records, walk.tables)).encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# structural keys for Process.digest
# ---------------------------------------------------------------------------
class _TermWalk:
    """Numbers the nodes of a term DAG in post-order, one plain-data
    record per node: ``[class name, field, key, field, key, ...]`` over
    every attribute of the node, with each subterm keyed ``("@", its record
    number)``.  Table entries are interned so an S-box used by sixteen
    lookups is spelled out once."""

    def __init__(self):
        self.index: Dict[int, int] = {}
        self.records: List[tuple] = []
        self.tables: Dict[tuple, int] = {}

    def ref(self, node: Term) -> Tuple[str, int]:
        number = self.index.get(id(node))
        if number is None:
            key = self._key
            record = [type(node).__name__]
            for name, value in vars(node).items():
                record += (name, key(value))
            number = self.index[id(node)] = len(self.records)
            self.records.append(record)
        return ("@", number)

    def _key(self, value):
        if isinstance(value, Term):
            return self.ref(value)
        if value is None or isinstance(value, (int, str)):
            return value
        if isinstance(value, tuple):                # a table's entries
            return ("#", self.tables.setdefault(value, len(self.tables)))
        if isinstance(value, DataType):
            return _dtype_key(value)
        if isinstance(value, dict):                 # a bundle's fields
            return tuple((k, self.ref(v)) for k, v in value.items())
        raise TypeError(
            f"Process.digest cannot key a {type(value).__name__} term field")


def _dtype_key(dtype: DataType) -> tuple:
    if isinstance(dtype, Bundle):
        return ("bundle",) + tuple(
            (name, _dtype_key(t)) for name, t in dtype.fields)
    return (type(dtype).__name__, dtype.width)


def _channel_key(channel: ChannelDef) -> tuple:
    return (channel.name,) + tuple(
        (m.name, m.direction.value, _dtype_key(m.dtype),
         m.lifetime.cycles, m.lifetime.message,
         _sync_key(m.left_sync), _sync_key(m.right_sync))
        for m in channel)


def _sync_key(mode) -> tuple:
    return (type(mode).__name__,) + tuple(sorted(vars(mode).items()))


class ProcessInstance:
    """A named instantiation of a process inside a system."""

    def __init__(self, process: Process, name: str):
        self.process = process
        self.name = name
        # endpoint name -> (channel instance id, side)
        self.bindings: Dict[str, Tuple[int, Side]] = {}

    def __repr__(self):
        return f"{self.name} : {self.process.name}"


class ChannelInstance:
    """A concrete channel created by wiring two endpoints together."""

    def __init__(self, cid: int, channel: ChannelDef):
        self.cid = cid
        self.channel = channel
        # side -> (instance name, endpoint name); either side may instead be
        # bound to an external (non-Anvil) driver.
        self.ends: Dict[Side, Tuple[str, str]] = {}

    def __repr__(self):
        return f"chan#{self.cid}:{self.channel.name}"


class System:
    """A closed (or externally-driven) composition of process instances.

    >>> sys = System("demo")
    >>> top = sys.add(top_proc)          # doctest: +SKIP
    >>> mem = sys.add(mem_proc)          # doctest: +SKIP
    >>> sys.connect(top, "mem", mem, "host")   # doctest: +SKIP
    """

    def __init__(self, name: str = "system"):
        self.name = name
        self.instances: Dict[str, ProcessInstance] = {}
        self.channels: List[ChannelInstance] = []

    def add(self, process: Process, name: str = "") -> ProcessInstance:
        name = name or process.name
        if name in self.instances:
            raise ElaborationError(f"duplicate instance name {name!r}")
        inst = ProcessInstance(process, name)
        self.instances[name] = inst
        return inst

    def connect(
        self,
        a: ProcessInstance,
        a_endpoint: str,
        b: ProcessInstance,
        b_endpoint: str,
    ) -> ChannelInstance:
        """Wire endpoint ``a.a_endpoint`` to ``b.b_endpoint``; the two must
        reference the same channel definition from opposite sides."""
        ea = a.process.get_endpoint(a_endpoint)
        eb = b.process.get_endpoint(b_endpoint)
        if ea.channel is not eb.channel and ea.channel.name != eb.channel.name:
            raise ElaborationError(
                f"channel mismatch: {ea.channel.name} vs {eb.channel.name}"
            )
        if ea.side is eb.side:
            raise ElaborationError(
                f"both endpoints claim the {ea.side.value} side of "
                f"{ea.channel.name}"
            )
        chan = ChannelInstance(len(self.channels), ea.channel)
        chan.ends[ea.side] = (a.name, a_endpoint)
        chan.ends[eb.side] = (b.name, b_endpoint)
        self.channels.append(chan)
        a.bindings[a_endpoint] = (chan.cid, ea.side)
        b.bindings[b_endpoint] = (chan.cid, eb.side)
        return chan

    def expose(self, a: ProcessInstance, a_endpoint: str) -> ChannelInstance:
        """Create a channel whose far side is external (driven by a test
        bench or a non-Anvil RTL module)."""
        ea = a.process.get_endpoint(a_endpoint)
        chan = ChannelInstance(len(self.channels), ea.channel)
        chan.ends[ea.side] = (a.name, a_endpoint)
        self.channels.append(chan)
        a.bindings[a_endpoint] = (chan.cid, ea.side)
        return chan

    def unbound_endpoints(self) -> List[Tuple[str, str]]:
        out = []
        for inst in self.instances.values():
            for ep in inst.process.endpoints.values():
                if ep.name not in inst.bindings:
                    out.append((inst.name, ep.name))
        return out

    def __repr__(self):
        return (
            f"System({self.name!r}, {len(self.instances)} instances, "
            f"{len(self.channels)} channels)"
        )
