"""Differential test of the timing oracle against a naive reference.

Random event graphs (nested branches, any- and all-joins, delays, static
and dynamic syncs, repeated syncs of one message) are checked query by
query: every public comparison of :class:`TimingOracle` and the
``OracleLimitError`` it raises must match :class:`Reference`.  The
reference follows the same decision procedure without any of the
oracle's sharing: it recomputes the timing-relevant conditions one
condition at a time over the whole graph, enumerates every full case of
them, and evaluates every timestamp from scratch in each case.

A mismatch fails with one ``REPLAY`` line naming the seed, the graph
shape and the failing query; ``check(seed)`` reruns exactly that graph.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.events import EventGraph, EventKind, SyncDir
from repro.core.maxplus import MaxExpr, MinExpr
from repro.core.oracle import OracleLimitError, TimingOracle
from repro.core.patterns import Duration, EndSet, EventPattern

CHANNELS = (("a", "m"), ("a", "n"), ("b", "m"))
MAX_EVENTS = 40


# ----------------------------------------------------------------------
# random graphs and queries
# ----------------------------------------------------------------------
def random_graph(rng: random.Random) -> EventGraph:
    g = EventGraph("random")
    n_conds = rng.randint(1, 5)

    def block(cur: int, depth: int) -> int:
        for _ in range(rng.randint(1, 3)):
            if len(g) > MAX_EVENTS:
                break
            r = rng.random()
            if r < 0.3:
                cur = g.add(EventKind.DELAY, (cur,),
                            delay=rng.choice((0, 1, 1, 2, 3))).eid
            elif r < 0.55:
                endpoint, message = rng.choice(CHANNELS)
                cur = g.add(EventKind.SYNC, (cur,), endpoint=endpoint,
                            message=message, direction=SyncDir.SEND,
                            static_slack=rng.choice((None, None, 0, 1, 2))
                            ).eid
            elif r < 0.8 and depth < 3:
                # conditions may repeat, also nested inside their own arm
                cond = rng.randrange(n_conds)
                arms = [
                    block(g.add(EventKind.BRANCH, (cur,), cond_id=cond,
                                polarity=pol).eid, depth + 1)
                    for pol in (True, False)
                ]
                cur = g.add(EventKind.JOIN_ANY, arms, cond_id=cond).eid
            elif r < 0.95 and depth < 3:
                arms = [block(cur, depth + 1), block(cur, depth + 1)]
                if arms[0] != arms[1]:
                    cur = g.add(EventKind.JOIN_ALL, arms).eid
            elif cur > 0:
                # a cross edge to any earlier event; rarely an unstructured
                # any-join, whose sides may both be reachable
                kind = EventKind.JOIN_ANY if rng.random() < 0.3 \
                    else EventKind.JOIN_ALL
                cur = g.add(kind, (cur, rng.randrange(cur))).eid
        return cur

    block(g.root().eid, 0)
    return g


def random_end(rng: random.Random, n: int) -> EndSet:
    patterns = []
    for _ in range(rng.randint(1, 2)):
        if rng.random() < 0.5:
            duration = Duration.static(rng.randint(0, 3))
        else:
            duration = Duration.dynamic(*rng.choice(CHANNELS))
        patterns.append(EventPattern(rng.randrange(n), duration))
    return EndSet(tuple(patterns))


def random_queries(rng: random.Random, g: EventGraph, count: int = 30):
    n = len(g)
    conds = sorted({ev.cond_id for ev in g.events
                    if ev.kind is EventKind.BRANCH})
    out = []
    for _ in range(count):
        op = rng.choice(("event_le", "event_lt", "event_le_end",
                         "end_le_event", "end_le_end", "ts"))
        if op in ("event_le", "event_lt"):
            args = (rng.randrange(n), rng.randrange(n))
        elif op == "event_le_end":
            args = (rng.randrange(n), random_end(rng, n), rng.randint(0, 1))
        elif op == "end_le_event":
            args = (random_end(rng, n), rng.randrange(n), rng.randint(0, 1))
        elif op == "end_le_end":
            args = (random_end(rng, n), random_end(rng, n))
        else:
            args = (rng.randrange(n),
                    tuple((c, rng.random() < 0.5) for c in conds))
        out.append((op, args))
    return out


def shape(g: EventGraph) -> str:
    kinds: Dict[str, int] = {}
    for ev in g.events:
        kinds[ev.kind.value] = kinds.get(ev.kind.value, 0) + 1
    conds = {ev.cond_id for ev in g.events if ev.kind is EventKind.BRANCH}
    edges = " ".join(f"e{ev.eid}[{ev.label()}]<{','.join(map(str, ev.preds))}"
                     for ev in g.events[1:])
    return (f"{len(g)} events {sorted(kinds.items())} "
            f"{len(conds)} conditions; {edges}")


# ----------------------------------------------------------------------
# the reference
# ----------------------------------------------------------------------
class Reference:
    """The oracle's decision procedure with no projection and no caching
    across cases or queries."""

    def __init__(self, graph: EventGraph, max_cases: int):
        self.graph = graph
        self.max_cases = max_cases

    # -- relevance: one condition at a time over the whole graph --------
    def relevant(self) -> set:
        g = self.graph
        gated: Dict[int, frozenset] = {}
        for ev in g.events:
            if not ev.preds:
                gated[ev.eid] = frozenset()
                continue
            sets = [gated[p] for p in ev.preds]
            if ev.kind is EventKind.JOIN_ANY:
                acc = frozenset.intersection(*sets)
            else:
                acc = frozenset().union(*sets)
            if ev.kind is EventKind.BRANCH:
                acc = acc | {(ev.cond_id, ev.polarity)}
            gated[ev.eid] = acc
        candidates = set()
        for ev in g.events:
            if (ev.kind is EventKind.DELAY and ev.delay > 0) or \
                    (ev.kind is EventKind.SYNC and ev.static_slack != 0):
                candidates.update(c for c, _pol in gated[ev.eid])
        relevant = set()
        for cond in candidates:
            for ev in g.events:
                if any(c == cond for c, _pol in gated[ev.eid]):
                    continue
                if self.approx(ev.eid, cond, True, {}) != \
                        self.approx(ev.eid, cond, False, {}):
                    relevant.add(cond)
                    break
        return relevant

    def approx(self, eid: int, cond: int, value: bool, memo) -> MaxExpr:
        if eid in memo:
            return memo[eid]
        ev = self.graph[eid]
        parts = [self.approx(p, cond, value, memo) for p in ev.preds]
        if ev.kind is EventKind.ROOT:
            out = MaxExpr.zero()
        elif ev.kind is EventKind.BRANCH:
            out = MaxExpr.inf() if ev.cond_id == cond and \
                ev.polarity != value else MaxExpr.maximum(parts)
        elif ev.kind is EventKind.JOIN_ANY:
            reachable = [a for a in parts if not a.infinite]
            out = MaxExpr.maximum(reachable) if reachable else MaxExpr.inf()
        elif ev.kind is EventKind.DELAY:
            out = MaxExpr.maximum(parts).shifted(ev.delay)
        elif ev.kind is EventKind.SYNC and ev.static_slack is not None:
            out = MaxExpr.maximum(parts).shifted(ev.static_slack)
        elif ev.kind is EventKind.SYNC:
            out = MaxExpr.maximum(parts).with_var(ev.eid)
        else:
            out = MaxExpr.maximum(parts)
        memo[eid] = out
        return out

    # -- cases -----------------------------------------------------------
    def conditions_of(self, eid: int) -> set:
        """Branch conditions among the ancestors of ``eid`` and of every
        earlier same-message sync a sync among them waits for."""
        g = self.graph
        out, stack, seen = set(), [eid], set()
        while stack:
            e = stack.pop()
            if e in seen:
                continue
            seen.add(e)
            ev = g[e]
            stack.extend(ev.preds)
            if ev.kind is EventKind.BRANCH:
                out.add(ev.cond_id)
            elif ev.kind is EventKind.SYNC:
                stack.extend(o.eid for o in g.sync_events(ev.endpoint,
                                                          ev.message)
                             if o.eid < e)
        return out

    def candidates(self, base: int, endpoint: str, message: str,
                   guaranteed: bool) -> List[int]:
        g = self.graph
        return [ev.eid for ev in g.sync_events(endpoint, message)
                if ev.eid != base and not g.is_ancestor(ev.eid, base)
                and (not guaranteed or g.is_ancestor(base, ev.eid))]

    def cases(self, eids, ends=()) -> List[dict]:
        involved = set(eids)
        for end in ends:
            for p in end.patterns:
                involved.add(p.base)
                if not p.duration.is_static:
                    involved.update(self.candidates(
                        p.base, p.duration.endpoint, p.duration.message,
                        False))
        conds = set()
        for eid in involved:
            conds |= self.conditions_of(eid)
        conds = sorted(conds & self.relevant())
        if 2 ** len(conds) > self.max_cases:
            raise OracleLimitError(
                f"{len(conds)} relevant branch conditions exceed the case "
                f"limit")
        return [{c: bool(m >> i & 1) for i, c in enumerate(conds)}
                for m in range(2 ** len(conds))]

    # -- timestamps, from scratch in every case ----------------------------
    def at(self, eid: int, case: dict, memo: dict) -> MaxExpr:
        if eid in memo:
            return memo[eid]
        ev = self.graph[eid]
        if ev.kind is EventKind.ROOT:
            out = MaxExpr.zero()
        elif ev.kind is EventKind.BRANCH:
            if case.get(ev.cond_id, ev.polarity) != ev.polarity:
                out = MaxExpr.inf()
            else:
                out = MaxExpr.maximum(self.at(p, case, memo)
                                      for p in ev.preds)
        elif ev.kind is EventKind.JOIN_ANY:
            reachable = [t for t in (self.at(p, case, memo)
                                     for p in ev.preds) if not t.infinite]
            if not reachable:
                out = MaxExpr.inf()
            elif any(r != reachable[0] for r in reachable):
                raise OracleLimitError(
                    f"join e{eid} has multiple reachable branches under "
                    f"case {case}")
            else:
                out = reachable[0]
        else:
            parts = [self.at(p, case, memo) for p in ev.preds]
            if ev.kind is EventKind.SYNC and \
                    not any(p.infinite for p in parts):
                for other in self.graph.sync_events(ev.endpoint, ev.message):
                    if other.eid < eid:
                        t = self.at(other.eid, case, memo)
                        if not t.infinite:
                            parts.append(t)
            out = MaxExpr.maximum(parts)
            if ev.kind is EventKind.DELAY:
                out = out.shifted(ev.delay)
            elif ev.kind is EventKind.SYNC:
                out = out.shifted(ev.static_slack) \
                    if ev.static_slack is not None else out.with_var(eid)
        memo[eid] = out
        return out

    def end_state(self, end: EndSet, case: dict, memo: dict, upper: bool):
        alts: List[MaxExpr] = []
        reachable = False
        for p in end.patterns:
            base = self.at(p.base, case, memo)
            if base.infinite:
                continue
            reachable = True
            dur = p.duration
            if dur.is_static:
                alts.append(base.shifted(dur.cycles))
                continue
            for c in self.candidates(p.base, dur.endpoint, dur.message,
                                     upper):
                t = self.at(c, case, memo)
                if not t.infinite:
                    alts.append(t)
        return (MinExpr(alts) if alts else MinExpr.inf()), reachable

    # -- the public comparisons -------------------------------------------
    def event_le(self, a: int, b: int) -> bool:
        return self._events(a, b, MaxExpr.le)

    def event_lt(self, a: int, b: int) -> bool:
        return self._events(a, b, MaxExpr.lt)

    def _events(self, a, b, rel) -> bool:
        for case in self.cases((a, b)):
            memo: dict = {}
            ta = self.at(a, case, memo)
            if not ta.infinite and not rel(ta, self.at(b, case, memo)):
                return False
        return True

    def event_le_end(self, a: int, end: EndSet, shift: int) -> bool:
        for case in self.cases((a,), (end,)):
            memo: dict = {}
            ta = self.at(a, case, memo)
            if ta.infinite:
                continue
            bound, _ = self.end_state(end, case, memo, upper=False)
            if not bound.ge_expr(ta.shifted(shift)):
                return False
        return True

    def end_le_event(self, end: EndSet, a: int, shift: int) -> bool:
        for case in self.cases((a,), (end,)):
            memo: dict = {}
            ta = self.at(a, case, memo)
            if ta.infinite:
                continue
            bound, reachable = self.end_state(end, case, memo, upper=True)
            if reachable and not bound.le_expr(ta.shifted(shift)):
                return False
        return True

    def end_le_end(self, required: EndSet, available: EndSet) -> bool:
        for case in self.cases((), (required, available)):
            memo: dict = {}
            req, reachable = self.end_state(required, case, memo, upper=True)
            if not reachable:
                continue
            ava, _ = self.end_state(available, case, memo, upper=False)
            if not req.le(ava):
                return False
        return True

    def ts(self, eid: int, case) -> MaxExpr:
        return self.at(eid, dict(case), {})


# ----------------------------------------------------------------------
def _outcome(fn, args) -> object:
    """The verdict or timestamp, or the limit error up to its case (the
    oracle names the case projected onto the event's cone)."""
    try:
        return fn(*args)
    except OracleLimitError as exc:
        return "OracleLimitError: " + str(exc).split(" under case")[0]


def check(seed: int) -> Optional[str]:
    """Run one random graph and its queries; the replay line of the first
    mismatch, or None."""
    rng = random.Random(seed)
    g = random_graph(rng)
    max_cases = rng.choice((4096, 4096, 8))
    oracle = TimingOracle(g, max_cases=max_cases)
    reference = Reference(g, max_cases)
    for op, args in random_queries(rng, g):
        got = _outcome(getattr(oracle, op), args)
        want = _outcome(getattr(reference, op), args)
        if got != want:
            return (f"REPLAY seed={seed} max_cases={max_cases} "
                    f"query={op}{args!r} oracle={got!r} reference={want!r} "
                    f"graph: {shape(g)}")
    return None


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_oracle_matches_naive_reference(seed):
    failure = check(seed)
    if failure:
        pytest.fail(failure, pytrace=False)


def test_generator_covers_every_feature():
    """The random graphs exercise each construct the oracle handles, and
    the queries reach both verdicts and both kinds of limit error."""
    kinds, outcomes = set(), set()
    static = dynamic = repeated = False
    for seed in range(200):
        rng = random.Random(seed)
        g = random_graph(rng)
        kinds |= {ev.kind for ev in g.events}
        syncs = [ev for ev in g.events if ev.kind is EventKind.SYNC]
        static |= any(ev.static_slack is not None for ev in syncs)
        dynamic |= any(ev.static_slack is None for ev in syncs)
        repeated |= len({ev.sync_key for ev in syncs}) < len(syncs)
        oracle = TimingOracle(g, max_cases=rng.choice((4096, 4096, 8)))
        for op, args in random_queries(rng, g):
            out = _outcome(getattr(oracle, op), args)
            outcomes.add(out if isinstance(out, (bool, str)) else "ts")
    assert kinds == set(EventKind)
    assert static and dynamic and repeated
    assert {True, False, "ts"} <= outcomes
    assert any("exceed the case limit" in str(o) for o in outcomes)
    assert any("multiple reachable" in str(o) for o in outcomes)
