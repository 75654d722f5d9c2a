"""Tests for the event graph and the ``<=G`` timing oracle."""

import pytest

from repro.core.events import EventGraph, EventKind, SyncDir
from repro.core.oracle import OracleLimitError, TimingOracle
from repro.core.patterns import Duration, EndSet


def linear_graph():
    """root -> #2 -> sync -> #1"""
    g = EventGraph("linear")
    r = g.root()
    d2 = g.add(EventKind.DELAY, (r.eid,), delay=2)
    sync = g.add(EventKind.SYNC, (d2.eid,), endpoint="ep", message="m",
                 direction=SyncDir.RECV)
    d1 = g.add(EventKind.DELAY, (sync.eid,), delay=1)
    return g, r, d2, sync, d1


class TestEventGraph:
    def test_topological_construction_enforced(self):
        g = EventGraph()
        with pytest.raises(ValueError):
            g.add(EventKind.DELAY, (3,), delay=1)

    def test_ancestors(self):
        g, r, d2, sync, d1 = linear_graph()
        assert g.ancestors(d1.eid) == {r.eid, d2.eid, sync.eid}
        assert g.is_ancestor(r.eid, d1.eid)
        assert not g.is_ancestor(d1.eid, r.eid)

    def test_sync_events_index(self):
        g, r, d2, sync, d1 = linear_graph()
        assert g.sync_events("ep", "m") == [sync]
        assert g.sync_events("ep", "other") == []

    def test_conditions_of_includes_join_preds(self):
        g = EventGraph()
        r = g.root()
        bt = g.add(EventKind.BRANCH, (r.eid,), cond_id=0, polarity=True)
        bf = g.add(EventKind.BRANCH, (r.eid,), cond_id=0, polarity=False)
        j = g.add(EventKind.JOIN_ANY, (bt.eid, bf.eid))
        tail = g.add(EventKind.DELAY, (j.eid,), delay=1)
        assert g.conditions_of([tail.eid]) == [0]

    def test_dot_rendering(self):
        g, *_ = linear_graph()
        dot = g.to_dot()
        assert "digraph" in dot and "e0 -> e1" in dot

    def test_stats(self):
        g, *_ = linear_graph()
        s = g.stats()
        assert s["total"] == 4 and s["delay"] == 2 and s["sync"] == 1


class TestOracleStatic:
    def test_fixed_delays_ordered(self):
        g, r, d2, sync, d1 = linear_graph()
        o = TimingOracle(g)
        assert o.event_le(r.eid, d2.eid)
        assert o.event_lt(r.eid, d2.eid)
        assert not o.event_le(d2.eid, r.eid)

    def test_sync_slack_is_unbounded(self):
        g, r, d2, sync, d1 = linear_graph()
        o = TimingOracle(g)
        # the sync may take arbitrarily long: no bound above it
        assert o.event_le(d2.eid, sync.eid)
        assert not o.event_le(sync.eid, d2.eid)
        # ... and anything after it stays after
        assert o.event_lt(sync.eid, d1.eid)

    def test_parallel_paths_incomparable(self):
        g = EventGraph()
        r = g.root()
        a = g.add(EventKind.SYNC, (r.eid,), endpoint="x", message="a",
                  direction=SyncDir.RECV)
        b = g.add(EventKind.SYNC, (r.eid,), endpoint="x", message="b",
                  direction=SyncDir.RECV)
        o = TimingOracle(g)
        assert not o.event_le(a.eid, b.eid)
        assert not o.event_le(b.eid, a.eid)

    def test_join_all_is_upper_bound(self):
        g = EventGraph()
        r = g.root()
        a = g.add(EventKind.SYNC, (r.eid,), endpoint="x", message="a",
                  direction=SyncDir.RECV)
        b = g.add(EventKind.DELAY, (r.eid,), delay=3)
        j = g.add(EventKind.JOIN_ALL, (a.eid, b.eid))
        o = TimingOracle(g)
        assert o.event_le(a.eid, j.eid)
        assert o.event_le(b.eid, j.eid)

    def test_same_message_syncs_serialized(self):
        """A later sync of the same message never completes earlier."""
        g = EventGraph()
        r = g.root()
        s1 = g.add(EventKind.SYNC, (r.eid,), endpoint="x", message="m",
                   direction=SyncDir.RECV)
        d = g.add(EventKind.DELAY, (r.eid,), delay=1)
        s2 = g.add(EventKind.SYNC, (d.eid,), endpoint="x", message="m",
                   direction=SyncDir.RECV)
        o = TimingOracle(g)
        assert o.event_le(s1.eid, s2.eid)


class TestOracleBranches:
    def make_branchy(self):
        g = EventGraph()
        r = g.root()
        bt = g.add(EventKind.BRANCH, (r.eid,), cond_id=0, polarity=True)
        bf = g.add(EventKind.BRANCH, (r.eid,), cond_id=0, polarity=False)
        dt = g.add(EventKind.DELAY, (bt.eid,), delay=1)
        df = g.add(EventKind.DELAY, (bf.eid,), delay=3)
        j = g.add(EventKind.JOIN_ANY, (dt.eid, df.eid))
        return g, r, dt, df, j

    def test_join_after_either_branch(self):
        g, r, dt, df, j = self.make_branchy()
        o = TimingOracle(g)
        assert o.event_le(r.eid, j.eid)
        assert o.event_lt(r.eid, j.eid)

    def test_branch_events_vacuously_ordered(self):
        g, r, dt, df, j = self.make_branchy()
        o = TimingOracle(g)
        # dt and df never co-occur: each comparison is vacuous in the case
        # where the left side is unreachable
        assert o.event_le(dt.eid, j.eid)
        assert o.event_le(df.eid, j.eid)

    def test_join_not_bounded_by_short_unconditional_delay(self):
        g, r, dt, df, j = self.make_branchy()
        d1 = g.add(EventKind.DELAY, (r.eid,), delay=1)
        o = TimingOracle(g)
        # the join can be 3 cycles after root (else-branch), so j <= root+1
        # fails, while root+1 <= j holds in both branch cases
        assert not o.event_le(j.eid, d1.eid)
        assert o.event_le(d1.eid, j.eid)

    def test_unreached_side_is_infinite(self):
        """Per Definition C.9 an unreached event has timestamp infinity, so
        any event compares <= to an event of the opposite branch."""
        g, r, dt, df, j = self.make_branchy()
        o = TimingOracle(g)
        assert o.event_le(j.eid, dt.eid)  # vacuous/infinite in else-case


class TestOraclePatterns:
    def test_static_pattern_end(self):
        g, r, d2, sync, d1 = linear_graph()
        o = TimingOracle(g)
        end = EndSet.single(r.eid, Duration.static(2))
        # [r, r+2) ends exactly when d2 occurs
        assert o.end_le_event(end, d2.eid)
        assert o.event_le_end(r.eid, end, shift=2)

    def test_dynamic_pattern_resolves_to_next_sync(self):
        g, r, d2, sync, d1 = linear_graph()
        o = TimingOracle(g)
        end = EndSet.single(r.eid, Duration.dynamic("ep", "m"))
        # the first ep.m after root is `sync`; d1 is one cycle later
        assert o.end_le_event(end, d1.eid)
        assert not o.end_le_event(end, r.eid)

    def test_dynamic_pattern_without_candidates_is_infinite(self):
        g, r, d2, sync, d1 = linear_graph()
        o = TimingOracle(g)
        end = EndSet.single(d1.eid, Duration.dynamic("ep", "m"))
        # no ep.m occurs after d1: the lifetime never ends
        assert not o.end_le_event(end, d1.eid)
        assert o.event_le_end(d1.eid, end, shift=100)

    def test_eternal_endset(self):
        g, r, *_ = linear_graph()
        o = TimingOracle(g)
        assert o.event_le_end(r.eid, EndSet.eternal(), shift=10**6)
        assert not o.end_le_event(EndSet.eternal(), r.eid)

    def test_end_le_end_static(self):
        g, r, d2, sync, d1 = linear_graph()
        o = TimingOracle(g)
        req = EndSet.single(r.eid, Duration.static(1))
        ava = EndSet.single(r.eid, Duration.static(2))
        assert o.end_le_end(req, ava)
        assert not o.end_le_end(ava, req)

    def test_lifetime_within(self):
        g, r, d2, sync, d1 = linear_graph()
        o = TimingOracle(g)
        inner = EndSet.single(d2.eid, Duration.static(1))
        outer = EndSet.single(d2.eid, Duration.static(4))
        assert o.lifetime_within(d2.eid, inner, r.eid, outer)
        assert not o.lifetime_within(r.eid, outer, d2.eid, inner)


class TestOracleProjection:
    def test_error_names_the_case_on_the_cone(self):
        """An any-join of two events that are both reachable names the
        case its timestamp was computed under, condition by condition."""
        g = EventGraph()
        r = g.root()
        other = g.add(EventKind.BRANCH, (r.eid,), cond_id=7, polarity=True)
        bt = g.add(EventKind.BRANCH, (r.eid,), cond_id=3, polarity=True)
        d1 = g.add(EventKind.DELAY, (bt.eid,), delay=1)
        d2 = g.add(EventKind.DELAY, (r.eid,), delay=2)
        j = g.add(EventKind.JOIN_ANY, (d1.eid, d2.eid))
        o = TimingOracle(g)
        with pytest.raises(OracleLimitError) as exc:
            o.ts(j.eid, ((3, True), (7, False)))
        assert str(exc.value) == (
            f"join e{j.eid} has multiple reachable branches under case "
            f"c3=1; condition set was incomplete")
        assert o.ts(other.eid, ((7, False),)).infinite

    def test_cases_agreeing_on_the_cone_share_one_timestamp(self):
        g = EventGraph()
        r = g.root()
        arms = []
        for cond in (0, 1):
            for pol, delay in ((True, 1), (False, 2)):
                b = g.add(EventKind.BRANCH, (r.eid,), cond_id=cond,
                          polarity=pol)
                arms.append(g.add(EventKind.DELAY, (b.eid,), delay=delay))
        j0 = g.add(EventKind.JOIN_ANY, (arms[0].eid, arms[1].eid))
        o = TimingOracle(g)
        for c1 in (False, True):
            assert o.ts(j0.eid, ((0, True), (1, c1))).evaluate({}) == 1
        assert o.ts(j0.eid, ((0, False),)).evaluate({}) == 2
        # j0 reads only condition 0: the three cases made two entries
        # for it (and one each for its arms and the root)
        assert sum(1 for key in o._ts_cache if key[0] == j0.eid) == 2


def test_y86_check_builds_few_distinct_timestamps(monkeypatch):
    """Work-counter gate on the timestamp cache: the ``y86_core`` check
    computes each timestamp once per assignment of the conditions in its
    cone.  A cache keyed on the full case builds 1,232,086 entries."""
    from repro import check_process
    from repro.anvil_designs.y86 import y86_core
    from repro.core import typecheck

    oracles = []

    class Counted(TimingOracle):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            oracles.append(self)

    monkeypatch.setattr(typecheck, "TimingOracle", Counted)
    assert check_process(y86_core()).ok
    assert sum(len(o._ts_cache) for o in oracles) <= 296_717
