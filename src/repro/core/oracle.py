"""The timing oracle: sound decision procedures for ``<=G`` and ``<G``.

Definition C.11 of the paper quantifies over every *timestamp function* of
the event graph.  The oracle realizes that quantification:

* handshake slack of each dynamic synchronization event becomes a fresh
  max-plus variable (see :mod:`repro.core.maxplus`);
* branch conditions are enumerated case by case -- but only the conditions
  *relevant* to the events being compared (those labelling their ancestors),
  which keeps the enumeration small;
* within one case, each event's time is an exact max-plus expression, and
  comparisons hold only if they hold in every case.

A branch case is a pair of int bitmasks ``(assigned, values)`` over a
per-graph condition index: bit ``i`` stands for the ``i``-th smallest
condition id, ``assigned`` holds the conditions the case fixes and
``values`` those of them that are true.  Each event's *cone* is the mask
of every condition its timestamp can read (branches among its ancestors,
plus the cones of the earlier same-message syncs it is serialized
behind), so a timestamp is computed once per assignment of its cone and
shared by every case that agrees there.

Dynamic event patterns ``e |> pi.m`` ("first occurrence of pi.m after e")
are resolved against the graph structurally.  We compute two bounds:

* a *lower* bound -- minimum over every occurrence of ``pi.m`` that might
  happen after ``e`` (descendants and order-incomparable events); used when
  an earlier end is the conservative direction (e.g. the expiry of a
  received value);
* an *upper* bound -- minimum over occurrences *guaranteed* to happen after
  ``e`` (structural descendants); used when a later end is the conservative
  direction (e.g. deciding that a loan has expired before a mutation).

Both directions are sound; which one a check needs is chosen by the type
checker.  This mirrors the paper's statement that the implementation uses
sound approximations of ``<=G`` and ``<G``.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .events import Event, EventGraph, EventKind
from .maxplus import MaxExpr, MinExpr
from .patterns import EndSet, EventPattern

Case = Tuple[Tuple[int, bool], ...]
#: a branch case as ``(assigned, values)`` bitmasks over the condition index
Bits = Tuple[int, int]


class OracleLimitError(Exception):
    """Raised when branch-case enumeration exceeds the configured limit."""


class TimingOracle:
    """Decides timing relations over one event graph."""

    def __init__(self, graph: EventGraph, max_cases: int = 4096):
        self.graph = graph
        self.max_cases = max_cases
        self._ts_cache: Dict[Tuple[int, int, int], MaxExpr] = {}
        self._candidates_cache: Dict[Tuple[int, str, str, bool], Tuple[int, ...]] = {}
        self._relevant_mask: Optional[int] = None
        self._cond_bits: Optional[Dict[int, int]] = None
        self._cones: List[int] = []
        self._earlier_syncs: List[Tuple[int, ...]] = []
        self._verdict_cache: Dict[tuple, bool] = {}

    # ------------------------------------------------------------------
    # condition index and cones
    # ------------------------------------------------------------------
    def _index(self) -> Dict[int, int]:
        """Bit of each branch condition (in condition-id order), and per
        event its cone mask and the earlier same-message syncs a sync is
        serialized behind.  Computed once, in topological order."""
        if self._cond_bits is not None:
            return self._cond_bits
        g = self.graph
        conds = sorted({ev.cond_id for ev in g.events
                        if ev.kind is EventKind.BRANCH})
        bits = {cond: 1 << i for i, cond in enumerate(conds)}
        cones = self._cones
        for ev in g.events:
            acc = 0
            for p in ev.preds:
                acc |= cones[p]
            earlier: Tuple[int, ...] = ()
            if ev.kind is EventKind.BRANCH:
                acc |= bits[ev.cond_id]
            elif ev.kind is EventKind.SYNC:
                earlier = tuple(other.eid for other in
                                g.sync_events(ev.endpoint, ev.message)
                                if other.eid < ev.eid)
                for other in earlier:
                    acc |= cones[other]
            cones.append(acc)
            self._earlier_syncs.append(earlier)
        self._cond_bits = bits
        return bits

    def _render(self, assigned: int, values: int) -> str:
        """A case as ``c3=1 c7=0`` (conditions in id order)."""
        return " ".join(
            f"c{cond}={1 if values & bit else 0}"
            for cond, bit in self._index().items() if assigned & bit
        ) or "(none)"

    # ------------------------------------------------------------------
    # branch-condition relevance
    # ------------------------------------------------------------------
    def _timing_relevant_mask(self) -> int:
        """Conditions that can influence *when* some event occurs.

        A condition whose two arms contain only zero-time events (``#0``
        delays, joins, zero-slack syncs) never shifts any timestamp, so it
        need not be enumerated.  ``gated(e)`` is the set of conditions that
        gate reachability of ``e``: branch arms add their condition, an
        any-join intersects (either arm reaches it), everything else
        unions over its predecessors."""
        if self._relevant_mask is not None:
            return self._relevant_mask
        bits = self._index()
        cones = self._cones
        events = self.graph.events
        # gated conditions per polarity: the join of the two arms of one
        # condition intersects to nothing, i.e. becomes unconditional again
        pos: List[int] = []
        neg: List[int] = []
        for ev in events:
            if not ev.preds:
                pos.append(0)
                neg.append(0)
                continue
            if ev.kind is EventKind.JOIN_ANY:
                p_acc, n_acc = pos[ev.preds[0]], neg[ev.preds[0]]
                for p in ev.preds[1:]:
                    p_acc &= pos[p]
                    n_acc &= neg[p]
            else:
                p_acc = n_acc = 0
                for p in ev.preds:
                    p_acc |= pos[p]
                    n_acc |= neg[p]
            if ev.kind is EventKind.BRANCH:
                if ev.polarity:
                    p_acc |= bits[ev.cond_id]
                else:
                    n_acc |= bits[ev.cond_id]
            pos.append(p_acc)
            neg.append(n_acc)
        candidates = 0
        for ev in events:
            takes_time = (
                (ev.kind is EventKind.DELAY and ev.delay > 0)
                or (ev.kind is EventKind.SYNC and ev.static_slack != 0)
            )
            if takes_time:
                candidates |= pos[ev.eid] | neg[ev.eid]
        # a candidate is only truly relevant if flipping it shifts the
        # timestamp of some event *outside* its arms (balanced branches,
        # e.g. a one-cycle register write on both sides, do not).  Events
        # whose cone excludes the candidate keep their all-transparent
        # approximation under both values, so only in-cone events are
        # recomputed and compared.
        base: List[MaxExpr] = []
        for ev in events:
            base.append(_approx_step(ev, [base[p] for p in ev.preds], False))
        relevant = 0
        for bit in bits.values():
            if not candidates & bit:
                continue
            memo_t: Dict[int, MaxExpr] = {}
            memo_f: Dict[int, MaxExpr] = {}
            for ev in events:
                if not cones[ev.eid] & bit:
                    continue
                flips = ev.kind is EventKind.BRANCH and \
                    bits[ev.cond_id] == bit
                t_true = _approx_step(
                    ev, [memo_t.get(p, base[p]) for p in ev.preds],
                    flips and not ev.polarity)
                t_false = _approx_step(
                    ev, [memo_f.get(p, base[p]) for p in ev.preds],
                    flips and ev.polarity)
                memo_t[ev.eid] = t_true
                memo_f[ev.eid] = t_false
                if not (pos[ev.eid] | neg[ev.eid]) & bit and \
                        t_true != t_false:
                    relevant |= bit
                    break
        self._relevant_mask = relevant
        return relevant

    # ------------------------------------------------------------------
    # timestamps
    # ------------------------------------------------------------------
    def ts(self, eid: int, case: Case) -> MaxExpr:
        """Max-plus timestamp of event ``eid`` under branch case ``case``,
        given as ``((cond, value), ...)``.

        ``case`` must assign every timing-relevant branch condition
        occurring among the ancestors of ``eid`` (guaranteed when callers
        build cases with :meth:`_cases`); an unassigned branch is taken.
        """
        bits = self._index()
        assigned = values = 0
        for cond, value in case:
            bit = bits.get(cond, 0)  # a condition absent here gates nothing
            assigned |= bit
            if value:
                values |= bit
        return self._ts(eid, assigned, values)

    def _ts(self, eid: int, assigned: int, values: int) -> MaxExpr:
        """:meth:`ts` on a bitmask case.  The case is projected onto the
        cone of ``eid`` first: the timestamp reads no other condition, so
        every case agreeing on the cone shares one cache entry."""
        cone = self._cones[eid]
        assigned &= cone
        values &= assigned
        key = (eid, assigned, values)
        cached = self._ts_cache.get(key)
        if cached is not None:
            return cached
        ev = self.graph[eid]
        if ev.kind is EventKind.ROOT:
            out = MaxExpr.zero()
        elif ev.kind is EventKind.DELAY:
            out = MaxExpr.maximum(
                self._ts(p, assigned, values) for p in ev.preds
            ).shifted(ev.delay)
        elif ev.kind is EventKind.SYNC:
            parts = [self._ts(p, assigned, values) for p in ev.preds]
            # Successive synchronizations of one message share a single
            # handshake resource and are serialized in program order; a
            # later sync can therefore never complete before an earlier
            # one.  (This matters for overlapped `recursive` iterations.)
            if not any(p.infinite for p in parts):
                for other in self._earlier_syncs[eid]:
                    t = self._ts(other, assigned, values)
                    if not t.infinite:
                        parts.append(t)
            base = MaxExpr.maximum(parts)
            if ev.static_slack is not None:
                out = base.shifted(ev.static_slack)
            else:
                out = base.with_var(ev.eid)
        elif ev.kind is EventKind.BRANCH:
            bit = self._cond_bits[ev.cond_id]
            taken = not assigned & bit or bool(values & bit) == ev.polarity
            if not taken:
                out = MaxExpr.inf()
            else:
                out = MaxExpr.maximum(
                    self._ts(p, assigned, values) for p in ev.preds
                )
        elif ev.kind is EventKind.JOIN_ANY:
            alts = [self._ts(p, assigned, values) for p in ev.preds]
            reachable = [a for a in alts if not a.infinite]
            if not reachable:
                out = MaxExpr.inf()
            elif len(reachable) == 1:
                out = reachable[0]
            else:
                # A join of branches where more than one side is reachable
                # can only happen when the branch condition was deemed
                # irrelevant; both sides then carry identical timestamps by
                # construction (optimization passes preserve this), so take
                # the max as a safe representative only when they agree.
                first = reachable[0]
                if all(r == first for r in reachable[1:]):
                    out = first
                else:
                    raise OracleLimitError(
                        f"join e{eid} has multiple reachable branches under "
                        f"case {self._render(assigned, values)}; condition "
                        f"set was incomplete"
                    )
        elif ev.kind is EventKind.JOIN_ALL:
            out = MaxExpr.maximum(
                self._ts(p, assigned, values) for p in ev.preds
            )
        else:  # pragma: no cover - exhaustive
            raise AssertionError(ev.kind)
        self._ts_cache[key] = out
        return out

    # ------------------------------------------------------------------
    # dynamic pattern candidates
    # ------------------------------------------------------------------
    def _candidates(
        self, base: int, endpoint: str, message: str, guaranteed: bool
    ) -> Tuple[int, ...]:
        key = (base, endpoint, message, guaranteed)
        cached = self._candidates_cache.get(key)
        if cached is not None:
            return cached
        out: List[int] = []
        for ev in self.graph.sync_events(endpoint, message):
            if ev.eid == base:
                continue
            if self.graph.is_ancestor(ev.eid, base):
                continue  # occurs before the base event
            if guaranteed and not self.graph.is_ancestor(base, ev.eid):
                continue  # not provably after the base event
            out.append(ev.eid)
        result = tuple(out)
        self._candidates_cache[key] = result
        return result

    def _pattern_alts(
        self, pattern: EventPattern, case: Bits, upper: bool
    ) -> List[MaxExpr]:
        """Alternatives (min-candidates) for an event pattern under a case."""
        base_ts = self._ts(pattern.base, *case)
        if base_ts.infinite:
            return []  # pattern base never reached: treated as vacuous
        dur = pattern.duration
        if dur.is_static:
            return [base_ts.shifted(dur.cycles)]
        cands = self._candidates(pattern.base, dur.endpoint, dur.message, upper)
        alts = []
        for c in cands:
            t = self._ts(c, *case)
            if not t.infinite:
                alts.append(t)
        return alts

    def _endset_expr(self, end: EndSet, case: Bits, upper: bool) -> MinExpr:
        """MinExpr bound for an :class:`EndSet` (infinite when eternal)."""
        return self._endset_state(end, case, upper)[0]

    def _endset_state(self, end: EndSet, case: Bits, upper: bool
                      ) -> Tuple[MinExpr, bool]:
        """Bound plus reachability: the second component is False when every
        pattern base is unreachable in this case (the interval -- and hence
        any obligation built on it -- is vacuous there)."""
        if end.is_eternal:
            return MinExpr.inf(), True
        alts: List[MaxExpr] = []
        reachable = False
        for p in end.patterns:
            if not self._ts(p.base, *case).infinite:
                reachable = True
            alts.extend(self._pattern_alts(p, case, upper))
        if not alts:
            return MinExpr.inf(), reachable
        return MinExpr(alts), reachable

    # ------------------------------------------------------------------
    # branch-case enumeration
    # ------------------------------------------------------------------
    def _involved_events(self, eids: Iterable[int], ends: Iterable[EndSet]):
        involved = set(eids)
        for end in ends:
            for p in end.patterns:
                involved.add(p.base)
                if not p.duration.is_static:
                    involved.update(
                        self._candidates(
                            p.base, p.duration.endpoint, p.duration.message, False
                        )
                    )
        return involved

    def _cases(self, eids: Iterable[int], ends: Iterable[EndSet] = ()
               ) -> List[Bits]:
        """Every branch case over the *timing-relevant* conditions in the
        cones of the involved events (others cannot shift any timestamp).
        Case ``m`` sets the ``i``-th such condition (in id order) to bit
        ``i`` of ``m``."""
        self._index()
        assigned = 0
        for eid in self._involved_events(eids, ends):
            assigned |= self._cones[eid]
        assigned &= self._timing_relevant_mask()
        n = bin(assigned).count("1")
        if 2**n > self.max_cases:
            raise OracleLimitError(
                f"{n} relevant branch conditions exceed the case limit"
            )
        values = [0]
        rest = assigned
        while rest:
            bit = rest & -rest
            rest ^= bit
            values += [v | bit for v in values]
        return [(assigned, v) for v in values]

    # ------------------------------------------------------------------
    # public comparisons
    # ------------------------------------------------------------------
    def event_le(self, a: int, b: int) -> bool:
        """``a <=G b``: in every case where ``a`` happens, ``b`` happens no
        earlier."""
        key = ("le", a, b)
        cached = self._verdict_cache.get(key)
        if cached is not None:
            return cached
        out = self._event_le(a, b)
        self._verdict_cache[key] = out
        return out

    def _event_le(self, a: int, b: int) -> bool:
        for assigned, values in self._cases((a, b)):
            ta = self._ts(a, assigned, values)
            if ta.infinite:
                continue  # vacuous in this case
            if not ta.le(self._ts(b, assigned, values)):
                return False
        return True

    def event_lt(self, a: int, b: int) -> bool:
        key = ("lt", a, b)
        cached = self._verdict_cache.get(key)
        if cached is not None:
            return cached
        out = self._event_lt(a, b)
        self._verdict_cache[key] = out
        return out

    def _event_lt(self, a: int, b: int) -> bool:
        for assigned, values in self._cases((a, b)):
            ta = self._ts(a, assigned, values)
            if ta.infinite:
                continue
            if not ta.lt(self._ts(b, assigned, values)):
                return False
        return True

    def event_le_end(self, a: int, end: EndSet, shift: int = 0) -> bool:
        """``a + shift <= earliest(end)`` in every case (value live until at
        least ``a + shift``); uses the *lower* bound of ``end``."""
        if end.is_eternal:
            return True
        key = ("lee", a, end, shift)
        cached = self._verdict_cache.get(key)
        if cached is not None:
            return cached
        out = self._event_le_end(a, end, shift)
        self._verdict_cache[key] = out
        return out

    def _event_le_end(self, a: int, end: EndSet, shift: int = 0) -> bool:
        for case in self._cases((a,), (end,)):
            ta = self._ts(a, *case)
            if ta.infinite:
                continue
            bound = self._endset_expr(end, case, upper=False)
            if not bound.ge_expr(ta.shifted(shift)):
                return False
        return True

    def end_le_event(self, end: EndSet, a: int, shift: int = 0) -> bool:
        """``earliest(end) <= a + shift`` in every case; uses the *upper*
        bound of ``end`` (sound for 'the loan expired before the mutation
        takes effect')."""
        if end.is_eternal:
            return False
        key = ("ele", end, a, shift)
        cached = self._verdict_cache.get(key)
        if cached is not None:
            return cached
        out = self._end_le_event(end, a, shift)
        self._verdict_cache[key] = out
        return out

    def _end_le_event(self, end: EndSet, a: int, shift: int = 0) -> bool:
        for case in self._cases((a,), (end,)):
            ta = self._ts(a, *case)
            if ta.infinite:
                continue
            bound, reachable = self._endset_state(end, case, upper=True)
            if not reachable:
                continue  # the interval never materializes in this case
            if not bound.le_expr(ta.shifted(shift)):
                return False
        return True

    def end_le_end(self, required: EndSet, available: EndSet) -> bool:
        """``earliest(required) <= earliest(available)``: the available
        lifetime lasts at least as long as required.  Upper bound on the
        requirement, lower bound on the availability."""
        if available.is_eternal:
            return True
        if required.is_eternal:
            return False
        key = ("e2e", required, available)
        cached = self._verdict_cache.get(key)
        if cached is not None:
            return cached
        out = self._end_le_end(required, available)
        self._verdict_cache[key] = out
        return out

    def _end_le_end(self, required: EndSet, available: EndSet) -> bool:
        for case in self._cases((), (required, available)):
            req, req_reachable = self._endset_state(required, case, upper=True)
            if not req_reachable:
                continue  # the requirement is vacuous in this case
            ava = self._endset_expr(available, case, upper=False)
            if not req.le(ava):
                return False
        return True

    def pattern_end_le_event_start(
        self, end: EndSet, start: int
    ) -> bool:
        """Disjointness helper for the Valid Message Send overlap check:
        the first window must end no later than the second begins."""
        return self.end_le_event(end, start)

    def lifetime_within(
        self,
        inner_start: int,
        inner_end: EndSet,
        outer_start: int,
        outer_end: EndSet,
    ) -> bool:
        """``[inner_start, inner_end) (subset of) [outer_start, outer_end)``
        (the paper's interval containment built from ``<=G``)."""
        if not self.event_le(outer_start, inner_start):
            return False
        return self.end_le_end(inner_end, outer_end)


def _approx_step(ev: Event, parts: Sequence[MaxExpr], cut: bool) -> MaxExpr:
    """One event of the relevance analysis' approximate timestamps, from
    its predecessors' (``parts``): every branch is transparent except a
    ``cut`` one (the fixed condition's other arm), and any-joins take the
    max over reachable sides (a sound common upper shape -- only
    *equality across the two values* of a condition is used)."""
    if ev.kind is EventKind.ROOT:
        return MaxExpr.zero()
    if ev.kind is EventKind.BRANCH:
        return MaxExpr.inf() if cut else MaxExpr.maximum(parts)
    if ev.kind is EventKind.JOIN_ANY:
        reachable = [a for a in parts if not a.infinite]
        return MaxExpr.maximum(reachable) if reachable else MaxExpr.inf()
    base = MaxExpr.maximum(parts)
    if ev.kind is EventKind.DELAY:
        return base.shifted(ev.delay)
    if ev.kind is EventKind.SYNC:
        if ev.static_slack is not None:
            return base.shifted(ev.static_slack)
        return base.with_var(ev.eid)
    return base
