"""Backend equivalence: the generated-Python FSM backend must be
observationally identical to the plan interpreter -- bit-identical
waveforms and activity counts, identical debug logs and register files,
identical diagnostics -- plus the plan extraction, expression lowering,
fixed-state qualification and compile-cache machinery underneath it."""

import hashlib
import pickle
import random

import pytest

from repro import Process, Side, SimConfig, System, build_simulation, get_registry
from repro.codegen import pysim
from repro.codegen import rexpr as rx
from repro.codegen.simfsm import AnvilProcessModule, compile_process, fsm_report
from repro.core.events import EventKind
from repro.core.fsmplan import (
    EventPlan,
    ThreadPlan,
    build_process_plan,
    port_reads,
    port_writes,
)
from repro.errors import ContractViolationError, SimulationError
from repro.inject.faults import Fault, enumerate_sites, run_with_fault
from repro.lang.channels import ChannelDef, LifetimeSpec, MessageDef
from repro.lang.terms import (
    cycle,
    dprint,
    if_,
    let,
    read,
    recv,
    send,
    set_reg,
    unit,
    var,
)
from repro.lang.types import Logic
from repro.rtl.snapshot import capture, restore

BACKENDS = ("interp", "pycompiled")

#: every scenario holding a compiled Anvil process: all of the registry
#: but the two RTL-only families (checked by the equivalence test below)
ANVIL_BEARING = [n for n in get_registry().names() if n not in ("aes", "mmu")]


def _build(name, **config):
    """Registry-backed scenario elaboration (the canonical code path)."""
    return get_registry().build(name, SimConfig(**config))


# ---------------------------------------------------------------------------
# expression lowering: to_python must equal eval
# ---------------------------------------------------------------------------
def _random_expr(rng, depth, width):
    """A random RExpr over two registers and two slots."""
    if depth == 0 or rng.random() < 0.25:
        return rng.choice([
            rx.RLit(rng.getrandbits(width), width),
            rx.RReg("a", width),
            rx.RReg("b", width),
            rx.RSlot(0, width),
            rx.RSlot(1, width),
        ])
    pick = rng.random()
    a = _random_expr(rng, depth - 1, width)
    b = _random_expr(rng, depth - 1, width)
    if pick < 0.55:
        op = rng.choice(["add", "sub", "mul", "and", "or", "xor", "eq",
                         "ne", "lt", "le", "gt", "ge", "concat"])
        w = width if op not in ("eq", "ne", "lt", "le", "gt", "ge") \
            else 1
        return rx.RBin(op, a, b, w)
    if pick < 0.7:
        return rx.RUn(rng.choice(["not", "neg", "redor", "redand",
                                  "redxor"]), a,
                      width if rng.random() < 0.5 else 1)
    if pick < 0.8:
        hi = rng.randrange(a.width) if a.width > 1 else 0
        lo = rng.randrange(hi + 1)
        return rx.RSlice(a, hi, lo)
    if pick < 0.9:
        return rx.RMux(_random_expr(rng, depth - 1, 1), a, b, width)
    return rx.RTable(a, [rng.getrandbits(width) for _ in range(8)], width)


class _BareCtx:
    """Context for rendering expressions outside a process plan."""

    def __init__(self):
        self._n = 0

    def sub(self, node):
        return node.to_python(self)

    def const(self, value):
        return repr(value)

    def temp(self):
        self._n += 1
        return f"_t{self._n}"

    def slot(self, n):
        return f"(_ov[{n}] if {n} in _ov else _sl.get({n}, 0))"

    def ready(self, endpoint, message):  # pragma: no cover - unused here
        raise AssertionError("no ports in this test")


class TestExprLowering:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("width", [1, 5, 16])
    def test_to_python_matches_eval_on_random_trees(self, seed, width):
        rng = random.Random(seed)
        regs = {"a": rng.getrandbits(width), "b": rng.getrandbits(width)}
        slots = {0: rng.getrandbits(width), 1: rng.getrandbits(width)}
        env = rx.REnv(regs, slots)
        namespace = {"_r": regs, "_sl": slots, "_ov": {}}
        for _ in range(40):
            expr = _random_expr(rng, 4, width)
            rendered = expr.to_python(_BareCtx())
            assert eval(rendered, dict(namespace)) == expr.eval(env), \
                rendered

    def test_overlay_shadows_committed_slots(self):
        expr = rx.RSlot(3, 8)
        rendered = expr.to_python(_BareCtx())
        assert eval(rendered, {"_sl": {3: 10}, "_ov": {3: 7}}) == 7
        assert eval(rendered, {"_sl": {3: 10}, "_ov": {}}) == 10


# ---------------------------------------------------------------------------
# plan extraction
# ---------------------------------------------------------------------------
def _echo_process():
    ch = ChannelDef("echo_ch", [
        MessageDef("req", Side.RIGHT, Logic(8), LifetimeSpec.static(1)),
        MessageDef("res", Side.LEFT, Logic(8), LifetimeSpec.static(1)),
        MessageDef("unused", Side.LEFT, Logic(4), LifetimeSpec.static(1)),
    ])
    p = Process("echo")
    p.endpoint("host", ch, Side.RIGHT)
    p.register("acc", Logic(8))
    p.loop(
        let("x", recv("host", "req"),
            var("x") >> set_reg("acc", var("x") + read("acc"))
            >> send("host", "res", read("acc")))
    )
    return p


class TestPlanExtraction:
    def test_unused_messages_absent_from_port_table(self):
        plan = build_process_plan(_echo_process())
        keys = {pp.key for pp in plan.ports}
        assert ("host", "req") in keys
        assert ("host", "res") in keys
        assert ("host", "unused") not in keys

    def test_sensitivity_roles_match_direction(self):
        plan = build_process_plan(_echo_process())
        by_key = {pp.key: pp for pp in plan.ports}
        recv_port = by_key[("host", "req")]
        send_port = by_key[("host", "res")]
        assert not recv_port.is_sender and send_port.is_sender
        assert port_reads(recv_port) == ("valid", "data")
        assert port_writes(recv_port) == ("ack",)
        assert port_reads(send_port) == ("ack",)
        assert port_writes(send_port) == ("valid", "data")

    def test_module_comb_sets_cover_only_used_messages(self):
        sys_ = System()
        inst = sys_.add(_echo_process())
        sys_.expose(inst, "host")
        ss = build_simulation(sys_)
        mod = ss.module("echo")
        names = {w.name for w in mod.comb_inputs()} | {
            w.name for w in mod.comb_outputs()
        }
        assert names == {
            "ch0.req.valid", "ch0.req.data", "ch0.req.ack",
            "ch0.res.valid", "ch0.res.data", "ch0.res.ack",
        }


# ---------------------------------------------------------------------------
# backend equivalence on the six design families
# ---------------------------------------------------------------------------
def _state_of(sim):
    anvil = [m for m in sim.modules
             if hasattr(m, "plan") and hasattr(m, "regs")]
    return (
        sim.activity,
        sim.waveform.samples,
        [(m.name, dict(m.regs), list(m.debug_log)) for m in anvil],
    )


class TestBackendEquivalence:
    @pytest.mark.parametrize("name", ANVIL_BEARING)
    @pytest.mark.parametrize("seed", [0, 11])
    def test_randomized_anvil_scenarios_bit_identical(self, name, seed):
        """pycompiled on the levelized and kernel engines against the
        interpreter on the brute-force reference engine."""
        cycles = 120 if name in ("anvil_aes", "sweep", "anvil_sweep") \
            else 300
        states = {}
        for engine, backend in (("brute", "interp"),
                                ("levelized", "pycompiled"),
                                ("kernel", "pycompiled")):
            sim = _build(name, seed=seed, stim=400, engine=engine,
                         backend=backend)
            assert (fsm_report(sim) is None) == (backend == "interp"), name
            sim.run(cycles)
            states[(engine, backend)] = _state_of(sim)
        reference = states[("brute", "interp")]
        for key, state in states.items():
            assert state == reference, key

    @pytest.mark.parametrize("name", ["streams", "pipeline"])
    def test_mixed_scenarios_bit_identical(self, name):
        """Baseline RTL + compiled twins in one simulator: waveforms and
        activity must not depend on the backend."""
        states = {}
        for backend in BACKENDS:
            sim = _build(name, seed=5, stim=300, backend=backend)
            sim.run(250)
            states[backend] = _state_of(sim)
        assert states["interp"] == states["pycompiled"]

    def test_anvil_sweep_identical_across_engine_backend_matrix(self):
        """All four engine x backend combinations agree on the sweep."""
        states = {}
        for engine in ("brute", "levelized"):
            for backend in BACKENDS:
                sim = _build("anvil_sweep", engine=engine, seed=2,
                             stim=150, backend=backend)
                sim.run(60)
                states[(engine, backend)] = _state_of(sim)
        baseline = states[("levelized", "interp")]
        for key, state in states.items():
            assert state == baseline, key

    def test_contract_violations_identical_across_backends(self):
        """Driving a channel from the wrong side raises the same
        ContractViolationError no matter the backend."""
        messages = {}
        for backend in BACKENDS:
            sys_ = System()
            inst = sys_.add(_echo_process())
            ch = sys_.expose(inst, "host")
            ss = build_simulation(sys_, backend=backend)
            ext = ss.external(ch)
            with pytest.raises(ContractViolationError) as exc:
                ext.send("res", 1)      # the process sends res, not us
            messages[backend] = str(exc.value)
            with pytest.raises(ContractViolationError):
                ext.always_receive("req")
        assert messages["interp"] == messages["pycompiled"]

    def test_debug_prints_identical(self, capsys):
        from repro.lang.terms import dprint

        logs = {}
        for backend in BACKENDS:
            ch = ChannelDef("c", [MessageDef("m", Side.RIGHT, Logic(8),
                                             LifetimeSpec.static(1))])
            p = Process("printer")
            p.endpoint("src", ch, Side.RIGHT)
            p.loop(
                let("x", recv("src", "m"),
                    var("x") >> dprint("got", var("x")))
            )
            sys_ = System()
            inst = sys_.add(p)
            c = sys_.expose(inst, "src")
            ss = build_simulation(sys_, backend=backend)
            ext = ss.external(c)
            for v in (3, 5, 250):
                ext.send("m", v)
            ss.sim.run(12)
            logs[backend] = ss.module("printer").debug_log
        assert logs["interp"] == logs["pycompiled"]
        assert [v for _c, _f, v in logs["interp"]] == [3, 5, 250]


# ---------------------------------------------------------------------------
# compile cache
# ---------------------------------------------------------------------------
class TestCompileCache:
    def test_identical_processes_share_one_compilation(self):
        pysim.clear_cache()
        from repro.anvil_designs.streams import spill_register

        for _ in range(3):
            # a fresh Process object each time -- the cache must key on
            # the process's structure, not object identity
            pysim.backend_for(compile_process(spill_register()))
        stats = pysim.cache_stats()
        assert stats["misses"] == 1
        assert stats["hits"] == 2
        assert stats["entries"] == 1

    def test_optimize_flag_changes_the_key(self):
        pysim.clear_cache()
        from repro.anvil_designs.streams import spill_register

        pysim.backend_for(compile_process(spill_register(), True))
        pysim.backend_for(compile_process(spill_register(), False))
        assert pysim.cache_stats()["entries"] == 2

    def test_generated_source_is_deterministic(self):
        from repro.anvil_designs.memory import cached_memory_process

        a = pysim.generate_source(
            build_process_plan(cached_memory_process()))
        b = pysim.generate_source(
            build_process_plan(cached_memory_process()))
        assert a == b

    def test_batch_add_scenario_backend_wiring(self):
        from repro import BatchSimulator

        batch = BatchSimulator(parallel=False)
        for backend in BACKENDS:
            batch.add_scenario("memory", anvil=True, stim=200,
                               backend=backend,
                               as_name=f"memory/{backend}")
        batch.run(100)
        acts = batch.total_activity()
        assert acts["memory/interp"] == acts["memory/pycompiled"] > 0


# ---------------------------------------------------------------------------
# fixed-state threads
# ---------------------------------------------------------------------------
def _distinct_plans():
    """One plan per distinct Anvil process over the whole registry."""
    plans = {}
    for name in get_registry().names():
        sim = _build(name, stim=1, backend="pycompiled")
        for m in sim.modules:
            if isinstance(m, AnvilProcessModule):
                plans.setdefault(m.plan.name, m.plan)
    return plans


def _skipper_process():
    """A loop whose branch can reach the anchor while the response it
    does not need is still outstanding."""
    ch = ChannelDef("mem_ch", [
        MessageDef("req", Side.RIGHT, Logic(8), LifetimeSpec.static(1)),
        MessageDef("res", Side.LEFT, Logic(8), LifetimeSpec.static(1)),
    ])
    p = Process("skipper")
    p.endpoint("mem", ch, Side.LEFT)
    p.register("acc", Logic(8))
    p.register("n", Logic(8))
    p.loop(send("mem", "req", read("n")) >> let(
        "d", recv("mem", "res"),
        if_(read("n").bits(0, 0), cycle(1) >> set_reg("n", read("n") + 1),
            set_reg("acc", var("d")) >> set_reg("n", read("n") + 1))))
    return p


class TestFixedState:
    def test_loop_threads_fixed_recursive_threads_fall_back(self):
        plans = _distinct_plans()
        assert len(plans) == 15
        paths = {(name, tp.index): (tp.kind, pysim.fixed_state_reason(tp))
                 for name, plan in plans.items() for tp in plan.threads}
        fixed = [k for k, (kind, reason) in paths.items() if reason is None]
        fallback = {k: reason for k, (kind, reason) in paths.items()
                    if reason is not None}
        assert len(fixed) == 15
        assert all(paths[k][0] == "loop" for k in fixed)
        assert sorted(fallback) == [("anvil_alu", 0), ("anvil_systolic", 0)]
        for reason in fallback.values():
            assert reason.startswith("recursive thread")
        # the plan proves that 12 of them retire every iteration at its
        # respawn; the y86 cores' dmem response (e24) is awaited by one
        # arm only, so their clock edge keeps the respawn check
        pending = {k: pysim.FixedLayout(plans[k[0]].threads[k[1]]).pending
                   for k in fixed}
        assert {k: v for k, v in pending.items() if v} == {
            (f"y86_{prog}_core", 0): 1 << 24
            for prog in ("sum", "sort", "memcpy")}
        assert pysim.FixedLayout(
            compile_process(_skipper_process()).plan.threads[0]
        ).pending == 1 << 2

    @pytest.mark.parametrize("events,anchor,reason", [
        # root -> e1 (anchor), root -> e2: e2 never reaches the anchor
        ([(EventKind.ROOT, ()), (EventKind.DELAY, (0,)),
          (EventKind.DELAY, (0,))], 1,
         "anchor e1 is not the sink (e2 does not lead to it)"),
        # a JOIN_ANY racing two delays: the loser may still be pending
        ([(EventKind.ROOT, ()), (EventKind.DELAY, (0,)),
          (EventKind.DELAY, (0,)), (EventKind.JOIN_ANY, (1, 2))], 3,
         "JOIN_ANY e3 merges e1, e2 outside the distinct arms of one "
         "branch"),
        # if/else whose arms merge: qualifies
        ([(EventKind.ROOT, ()), (EventKind.BRANCH, (0,), True),
          (EventKind.BRANCH, (0,), False), (EventKind.DELAY, (1,)),
          (EventKind.JOIN_ANY, (3, 2))], 4, None),
    ])
    def test_qualification_rule(self, events, anchor, reason):
        plans = []
        for eid, (kind, preds, *polarity) in enumerate(events):
            branchy = kind in (EventKind.BRANCH, EventKind.JOIN_ANY)
            plans.append(EventPlan(
                eid, kind, preds, delay=1, cond_id=0 if branchy else -1,
                polarity=polarity[0] if polarity else True))
        tp = ThreadPlan(0, "loop", anchor, tuple(plans), {}, None)
        assert pysim.fixed_state_reason(tp) == reason

    def test_generated_module_holds_no_activations(self):
        sim = _build("anvil_sweep", stim=200, engine="kernel",
                     backend="pycompiled")
        sim.run(200)
        for m in sim.modules:
            if not isinstance(m, AnvilProcessModule):
                continue
            for ti, reason in m.fsm_paths.items():
                if reason is None:
                    assert m._threads_rt[ti] == []
                    assert all(type(v) is int for v in m._fsm[ti])
                    # pass records are scratch of one cycle
                    assert m._fsx[ti] is None
                else:
                    assert m._fsm[ti] is None and m._threads_rt[ti]

    @pytest.mark.parametrize("name", ["anvil_sweep", "y86_sum"])
    def test_record_encodes_the_interpreters_activation(self, name):
        """At every cycle boundary a fixed-state record is exactly the
        interpreter's one live activation, projected onto the fire
        cycles DELAY events read and the latched slots: no value from
        an earlier iteration or pass lingers in the module state."""
        sims = {backend: _build(name, seed=5, stim=300, engine="kernel",
                                backend=backend) for backend in BACKENDS}
        pairs = [(a, b) for a, b in zip(sims["interp"].modules,
                                        sims["pycompiled"].modules)
                 if isinstance(a, AnvilProcessModule)]
        for _ in range(150):
            for sim in sims.values():
                sim.run(1)
            for ref, m in pairs:
                for ti, lay in enumerate(m._pysim.layouts):
                    if lay is None:
                        continue
                    (act,) = ref._threads_rt[ti]
                    fired = sum(1 << e for e in act.fired)
                    projected = (
                        (fired, sum(1 << e for e in act.dead), act.start)
                        + tuple(act.fired.get(e, 0) for e in lay.cycles)
                        + tuple(act.slots.get(n, 0) for n in lay.slots))
                    assert m._fsm[ti] == projected, (m.name, ti, sim.cycle)
                    assert m._fsx[ti] is None

    def test_fsm_diagnostics(self):
        from repro import Session

        result = Session(SimConfig(backend="pycompiled", cycles=20,
                                   stim=50)).run("anvil_pipeline")
        fsm = result.diagnostics["fsm"]
        assert fsm["fixed_state"] == 0 and fsm["fallback"] == 2
        assert set(fsm["reasons"]) == {"anvil_alu.t0", "anvil_systolic.t0"}
        result = Session(SimConfig(backend="pycompiled", cycles=20,
                                   stim=50)).run("y86_sum")
        assert result.diagnostics["fsm"] == {
            "fixed_state": 1, "fallback": 0, "reasons": {}}
        assert "fsm" not in Session(SimConfig(cycles=5)).run(
            "aes").diagnostics
        # interp runs no generated code, so there is nothing to report
        assert "fsm" not in Session(SimConfig(cycles=5)).run(
            "anvil_pipeline").diagnostics

    @pytest.mark.parametrize("name", ["anvil_sweep", "anvil_pipeline",
                                      "y86_sum"])
    def test_snapshot_restores_into_fresh_build(self, name):
        cycles, split = 160, 70
        cfg = dict(seed=3, stim=400, engine="kernel", backend="pycompiled")
        reference = _build(name, **cfg)
        reference.run(cycles)
        prefix = _build(name, **cfg)
        prefix.run(split)
        blob = pickle.dumps(capture(prefix))
        resumed = _build(name, **cfg)
        restore(resumed, pickle.loads(blob))
        resumed.run(cycles - split)
        assert _state_of(resumed) == _state_of(reference)

    def test_zero_delay_loop_error_identical(self):
        messages = {}
        for body in (unit, lambda: dprint("spin"),
                     lambda: if_(read("r"), cycle(1))):
            for backend in BACKENDS:
                p = Process("spin")
                p.register("r", Logic(8))
                p.loop(body())
                sys_ = System()
                sys_.add(p)
                ss = build_simulation(sys_, backend=backend)
                with pytest.raises(SimulationError) as exc:
                    ss.sim.run(2)
                messages.setdefault(body, set()).add(str(exc.value))
        for texts in messages.values():
            assert len(texts) == 1
            assert "zero-delay loop detected" in texts.pop()

    def test_iteration_outliving_its_respawn_moves_to_the_glue(self):
        """The anchor fires while a response is still outstanding: the
        interpreter keeps that iteration beside the new one, and so must
        the generated backend."""
        runs = {}
        for backend in BACKENDS:
            sys_ = System()
            inst = sys_.add(_skipper_process())
            ch = sys_.expose(inst, "mem")
            ss = build_simulation(sys_, backend=backend)
            ext = ss.external(ch)
            ext.always_receive("req")
            for c in range(40):
                if c in (15, 33):
                    ext.send("res", c)
                ss.sim.run(1)
            m = ss.module("skipper")
            runs[backend] = (_state_of(ss.sim), ext.sent, ext.received)
            paths = m.fsm_paths
        assert runs["interp"] == runs["pycompiled"]
        assert paths[0].startswith("demoted at cycle")
        assert "while e2 was unresolved" in paths[0]

    def test_cycle_fault_between_settle_and_edge_matches_interp(self):
        """A fault on a module's cycle counter makes its clock edge run
        at another cycle than its settle pass; the fixed-state thread
        hands over to the glue exactly as the interpreter behaves."""
        states = {}
        for backend in BACKENDS:
            sim = _build("anvil_memory", seed=2, stim=300, engine="kernel",
                         backend=backend)
            fault = Fault(kind="stuck_at_1", module="anvil_cached_memory",
                          target="cycle", cycle=40, bit=1, width=2,
                          duration=3)
            run_with_fault(sim, fault, 150)
            states[backend] = _state_of(sim)
            module = next(m for m in sim.modules
                          if m.name == "anvil_cached_memory")
        assert states["interp"] == states["pycompiled"]
        # stuck-at-1 on bits 1-2 turns cycle 40 into 46 at the edge
        assert module.fsm_paths[0].startswith("demoted at cycle 46")
        assert module.fsm_paths[0].endswith("settle pass (40)")

    def test_fault_sites_unchanged(self):
        """The fixed-state bookkeeping is private: fault injection sees
        the same 156 sites on y86_sum under either backend."""
        digests = set()
        for backend in BACKENDS:
            sim = _build("y86_sum", engine="kernel", backend=backend)
            sites = enumerate_sites(sim)
            blob = "\n".join(f"{s.module}|{s.target}|{s.width}|{s.family}"
                             for s in sites)
            digests.add((len(sites), hashlib.sha256(
                blob.encode()).hexdigest()[:16]))
        assert digests == {(156, "eb7a1bea91790bee")}
