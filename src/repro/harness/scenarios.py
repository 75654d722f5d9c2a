"""Standard simulation workloads over the paper's six design families.

Each scenario elaborates one bundled design family -- the hand-written
RTL baseline from :mod:`repro.designs` plus, where tractable, its
compiled Anvil twin from :mod:`repro.anvil_designs` -- into a single
:class:`~repro.rtl.simulator.Simulator` with seeded, randomized
stimulus.  The same builder serves three purposes:

* ``benchmarks/bench_simulator.py`` measures cycles/second of the
  levelized engine against the brute-force reference on these workloads;
* ``tests/test_scheduler.py`` asserts waveform- and activity-equivalence
  between the two engines on them;
* :class:`~repro.rtl.batch.BatchSimulator` sweeps run them concurrently.

A second, *Anvil-only* scenario set (the ``anvil_*`` registry entries)
elaborates just the compiled Anvil twins of each family under
randomized stimulus.
These are the workloads on which the FSM execution *backend* matters:
``benchmarks/bench_simulator.py`` measures the generated-Python backend
(``backend="pycompiled"``) against the plan interpreter on them, and
``tests/test_pysim.py`` pins backend equivalence over them.

Builders are deterministic in ``seed`` and never consult the engine or
backend, so two sims built with different engine/backend combinations
see identical stimulus.

Every builder registers itself with the canonical
:class:`~repro.api.ScenarioRegistry` (``repro.api.REGISTRY``), tagged
``rtl`` (mixed baseline+Anvil), ``anvil`` (compiled-only; registered
under ``anvil_*`` names) or ``sweep`` (all-in-one simulators).  The
registry is the single code path through which
:class:`~repro.rtl.batch.BatchSimulator.add_scenario`, the benchmark
sweep, the equivalence tests and the ``python -m repro`` CLI look up and
elaborate workloads.
"""

from __future__ import annotations

import random
from typing import Dict

from ..api import REGISTRY
from ..codegen.simfsm import MessagePort, build_simulation
from ..designs.aes import OP_DECRYPT, OP_ENCRYPT, AesCore, aes_pack
from ..designs.axi import (
    AxiLiteDemux,
    AxiLiteMux,
    AxiMasterDriver,
    AxiPorts,
    RegFileSlave,
)
from ..designs.memory import CachedMemory, HandshakeMemory
from ..designs.mmu import PageTableWalker, Tlb, build_page_table
from ..designs.pipeline import PipelinedAlu, SystolicArray2x2, alu_pack
from ..designs.streams import FifoBuffer, PassthroughStreamFifo, SpillRegister
from ..lang.process import System
from ..rtl.simulator import Simulator
from ..rtl.testing import PortSink, PortSource

#: stimulus depth: enough queued traffic to keep a multi-thousand-cycle
#: benchmark run busy
DEFAULT_STIM = 4000


def _pattern(rng: random.Random, p: float, length: int = 509):
    """A deterministic, periodic readiness pattern for a PortSink."""
    table = [rng.random() < p for _ in range(length)]
    return lambda cycle: table[cycle % length]


def _attach_anvil(sim: Simulator, process, stimuli: Dict[str, dict],
                  stim: int, rng: random.Random, backend: str = "interp"):
    """Elaborate one Anvil process into ``sim`` with external drivers.

    Every received message's data/valid wires are watched, so engine and
    backend equivalence checks compare real compiled-FSM waveforms, not
    just aggregate toggle counts."""
    sys_ = System()
    inst = sys_.add(process)
    chans = {ep: sys_.expose(inst, ep) for ep in list(inst.process.endpoints)}
    ss = build_simulation(sys_, sim=sim, backend=backend)
    for ep, spec in stimuli.items():
        ext = ss.external(chans[ep])
        for msg, maker in spec.get("send", {}).items():
            for _ in range(stim):
                ext.send(msg, maker(rng))
        for msg in spec.get("recv", ()):
            ext.always_receive(msg)
            port = ext.ports[msg]
            label = f"{sim.name}.{process.name}.{ep}.{msg}"
            sim.watch(port.data, f"{label}.data")
            sim.watch(port.valid, f"{label}.valid")
    return ss


# ---------------------------------------------------------------------------
# the six design families
# ---------------------------------------------------------------------------
@REGISTRY.scenario("streams", tags=("rtl",))
def scenario_streams(engine: str = "levelized", seed: int = 0,
                     stim: int = DEFAULT_STIM, sim: Simulator = None,
                     backend: str = "interp") -> Simulator:
    """Baseline stream chain (fifo -> spill -> passthrough fifo) plus the
    Anvil spill register."""
    from ..anvil_designs.streams import spill_register

    sim = sim or Simulator("streams", engine=engine)
    rng = random.Random(seed)
    a, b, c = (MessagePort(f"st.{n}", 8) for n in "abc")
    src = PortSource("st_src", a)
    src.push(*(rng.randrange(256) for _ in range(stim)))
    sim.add(src)
    sim.add(FifoBuffer("st_fifo", a, b, depth=4))
    sim.add(SpillRegister("st_spill", b, c))
    # a passthrough chain: valid/ready propagate combinationally through
    # every stage, the levelized scheduler's home turf (the seed loop
    # needs one full global iteration per stage)
    stages = [c] + [MessagePort(f"st.p{i}", 8) for i in range(4)]
    for i in range(4):
        sim.add(PassthroughStreamFifo(
            f"st_pfifo{i}", stages[i], stages[i + 1], depth=2
        ))
    d = stages[-1]
    sim.add(PortSink("st_sink", d, _pattern(rng, 0.7)))
    sim.watch(d.data, "st.out.data")
    sim.watch(d.valid, "st.out.valid")
    _attach_anvil(
        sim, spill_register(),
        {"inp": {"send": {"data": lambda r: r.randrange(256)}},
         "out": {"recv": ["data"]}},
        stim, rng, backend=backend,
    )
    return sim


@REGISTRY.scenario("memory", tags=("rtl",))
def scenario_memory(engine: str = "levelized", seed: int = 0,
                    stim: int = DEFAULT_STIM, sim: Simulator = None,
                    backend: str = "interp") -> Simulator:
    """Handshake memory and cached memory under random request streams,
    plus the Anvil fixed-latency memory."""
    from ..anvil_designs.memory import memory_process

    sim = sim or Simulator("memory", engine=engine)
    rng = random.Random(seed)
    hq, hs = MessagePort("hm.req", 8), MessagePort("hm.res", 8)
    cq, cs = MessagePort("cm.req", 8), MessagePort("cm.res", 8)
    hsrc = PortSource("hm_src", hq)
    hsrc.push(*(rng.randrange(256) for _ in range(stim)))
    csrc = PortSource("cm_src", cq)
    csrc.push(*(rng.randrange(32) for _ in range(stim)))
    sim.add(hsrc)
    sim.add(HandshakeMemory("hm_mem", hq, hs, latency=2))
    sim.add(PortSink("hm_sink", hs, _pattern(rng, 0.8)))
    sim.add(csrc)
    sim.add(CachedMemory("cm_mem", cq, cs, lines=4))
    sim.add(PortSink("cm_sink", cs, _pattern(rng, 0.8)))
    sim.watch(hs.data, "hm.res.data")
    sim.watch(cs.valid, "cm.res.valid")
    _attach_anvil(
        sim, memory_process(latency=2),
        {"host": {"send": {"req": lambda r: r.randrange(256)},
                  "recv": ["res"]}},
        stim, rng, backend=backend,
    )
    return sim


@REGISTRY.scenario("aes", tags=("rtl",))
def scenario_aes(engine: str = "levelized", seed: int = 0,
                 stim: int = DEFAULT_STIM, sim: Simulator = None,
                 backend: str = "interp") -> Simulator:
    """The AES core under a random mix of 128/256-bit encrypts and
    decrypts."""
    sim = sim or Simulator("aes", engine=engine)
    rng = random.Random(seed)
    req = MessagePort("aes.req", 386)
    res = MessagePort("aes.res", 128)
    src = PortSource("aes_src", req)
    jobs = max(stim // 16, 64)   # ~15-30 cycles of latency per job
    for _ in range(jobs):
        src.push(aes_pack(
            rng.choice((OP_ENCRYPT, OP_DECRYPT)),
            rng.getrandbits(128), rng.getrandbits(256),
            rng.choice((128, 256)),
        ))
    sim.add(src)
    sim.add(AesCore("aes_core", req, res))
    sim.add(PortSink("aes_sink", res, _pattern(rng, 0.9)))
    sim.watch(res.valid, "aes.res.valid")
    return sim


@REGISTRY.scenario("axi", tags=("rtl",))
def scenario_axi(engine: str = "levelized", seed: int = 0,
                 stim: int = DEFAULT_STIM, sim: Simulator = None,
                 backend: str = "interp") -> Simulator:
    """AXI-Lite demux (1 master -> 4 slaves) and mux (4 masters -> 1
    slave) under random read/write traffic, plus the Anvil demux."""
    from ..anvil_designs.axi import axi_demux

    sim = sim or Simulator("axi", engine=engine)
    rng = random.Random(seed)

    def load(drv: AxiMasterDriver, n: int):
        for _ in range(n):
            if rng.random() < 0.5:
                drv.write(rng.randrange(1 << 12), rng.randrange(1 << 16))
            else:
                drv.read(rng.randrange(1 << 12))

    dm = AxiPorts("dx.m")
    dslaves = [AxiPorts(f"dx.s{i}") for i in range(4)]
    ddrv = AxiMasterDriver("dx_drv", dm)
    load(ddrv, stim // 4)
    sim.add(ddrv)
    sim.add(AxiLiteDemux("dx_demux", dm, dslaves))
    for i, sp in enumerate(dslaves):
        sim.add(RegFileSlave(f"dx_rf{i}", sp))

    mmasters = [AxiPorts(f"mx.m{i}") for i in range(4)]
    ms = AxiPorts("mx.s")
    for i, mp in enumerate(mmasters):
        drv = AxiMasterDriver(f"mx_drv{i}", mp)
        load(drv, stim // 8)
        sim.add(drv)
    sim.add(AxiLiteMux("mx_mux", mmasters, ms))
    sim.add(RegFileSlave("mx_rf", ms))
    sim.watch(dm.b.valid, "axi.m.b.valid")
    sim.watch(ms.aw.valid, "axi.s.aw.valid")
    _attach_anvil(
        sim, axi_demux(),
        {"m": {"send": {"aw": lambda r: r.randrange(1 << 12),
                        "w": lambda r: r.randrange(1 << 16)},
               "recv": ["b", "r"]},
         **{f"s{i}": {"recv": ["aw", "w", "ar"]} for i in range(4)}},
        stim // 8, rng, backend=backend,
    )
    return sim


@REGISTRY.scenario("mmu", tags=("rtl",))
def scenario_mmu(engine: str = "levelized", seed: int = 0,
                 stim: int = DEFAULT_STIM, sim: Simulator = None,
                 backend: str = "interp") -> Simulator:
    """TLB + page-table walker + backing memory walking a real page
    table under a random (hit-heavy) VPN stream."""
    sim = sim or Simulator("mmu", engine=engine)
    rng = random.Random(seed)
    table = build_page_table(
        {vpn: 0x800 + vpn for vpn in range(0, 64, 3)}
    )
    hq, hs = MessagePort("mmu.hq", 12), MessagePort("mmu.hs", 16)
    tq, ts = MessagePort("mmu.tq", 12), MessagePort("mmu.ts", 16)
    mq, ms = MessagePort("mmu.mq", 16), MessagePort("mmu.ms", 16)
    src = PortSource("mmu_src", hq)
    src.push(*(rng.choice((0, 3, 6, 9, 12, 1)) for _ in range(stim)))
    sim.add(src)
    sim.add(Tlb("mmu_tlb", hq, hs, tq, ts, entries=4))
    sim.add(PageTableWalker("mmu_ptw", tq, ts, mq, ms))
    sim.add(HandshakeMemory("mmu_mem", mq, ms, latency=1,
                            contents=lambda a: table.get(a, 0)))
    sim.add(PortSink("mmu_sink", hs, _pattern(rng, 0.85)))
    sim.watch(hs.data, "mmu.res.data")
    sim.watch(tq.valid, "mmu.walk.valid")
    return sim


@REGISTRY.scenario("pipeline", tags=("rtl",))
def scenario_pipeline(engine: str = "levelized", seed: int = 0,
                      stim: int = DEFAULT_STIM, sim: Simulator = None,
                      backend: str = "interp") -> Simulator:
    """Statically pipelined ALU and systolic array at full throughput,
    plus the Anvil pipelined ALU (II=1: traffic every cycle)."""
    from ..anvil_designs.pipeline import pipelined_alu

    sim = sim or Simulator("pipeline", engine=engine)
    rng = random.Random(seed)
    ai, ao = MessagePort("alu.i", 35), MessagePort("alu.o", 16)
    si, so = MessagePort("sys.i", 16), MessagePort("sys.o", 32)
    asrc = PortSource("alu_src", ai)
    asrc.push(*(alu_pack(rng.randrange(8), rng.randrange(1 << 16),
                         rng.randrange(1 << 16)) for _ in range(stim)))
    ssrc = PortSource("sys_src", si)
    ssrc.push(*(rng.randrange(1 << 16) for _ in range(stim)))
    sim.add(asrc)
    sim.add(PipelinedAlu("alu_dut", ai, ao))
    sim.add(PortSink("alu_sink", ao))
    sim.add(ssrc)
    sim.add(SystolicArray2x2("sys_dut", si, so))
    sim.add(PortSink("sys_sink", so))
    sim.watch(ao.data, "alu.out.data")
    sim.watch(so.data, "sys.out.data")
    _attach_anvil(
        sim, pipelined_alu(),
        {"inp": {"send": {"data": lambda r: alu_pack(
            r.randrange(8), r.randrange(1 << 16), r.randrange(1 << 16))}},
         "out": {"recv": ["data"]}},
        stim, rng, backend=backend,
    )
    return sim


@REGISTRY.scenario("sweep", tags=("rtl", "sweep"))
def scenario_sweep(engine: str = "levelized", seed: int = 0,
                   stim: int = DEFAULT_STIM, sim: Simulator = None,
                   backend: str = "interp") -> Simulator:
    """All six mixed families elaborated into one simulator -- the
    'design sweep' shape the harness tables run, and the regime where
    the seed's global fixpoint loop hurts most."""
    sim = sim or Simulator("sweep", engine=engine)
    for builder in (scenario_streams, scenario_memory, scenario_aes,
                    scenario_axi, scenario_mmu, scenario_pipeline):
        builder(engine=engine, seed=seed, stim=stim, sim=sim,
                backend=backend)
    return sim


# ---------------------------------------------------------------------------
# the Anvil-only scenarios: compiled processes, no baseline RTL
# ---------------------------------------------------------------------------
@REGISTRY.scenario("anvil_streams", tags=("anvil",))
def anvil_streams(engine: str = "levelized", seed: int = 0,
                  stim: int = DEFAULT_STIM, sim: Simulator = None,
                  backend: str = "interp") -> Simulator:
    """All three compiled stream cells under random traffic with bursty
    consumers."""
    from ..anvil_designs.streams import (
        fifo_buffer,
        passthrough_stream_fifo,
        spill_register,
    )

    sim = sim or Simulator("anvil_streams", engine=engine)
    rng = random.Random(seed)
    stimuli = {"inp": {"send": {"data": lambda r: r.randrange(256)}},
               "out": {"recv": ["data"]}}
    _attach_anvil(sim, fifo_buffer(depth=4), stimuli, stim, rng,
                  backend=backend)
    _attach_anvil(sim, spill_register(), stimuli, stim, rng,
                  backend=backend)
    _attach_anvil(sim, passthrough_stream_fifo(), stimuli, stim, rng,
                  backend=backend)
    return sim


@REGISTRY.scenario("anvil_memory", tags=("anvil",))
def anvil_memory(engine: str = "levelized", seed: int = 0,
                 stim: int = DEFAULT_STIM, sim: Simulator = None,
                 backend: str = "interp") -> Simulator:
    """Fixed-latency and cached compiled memories under random requests
    (the cached one exercises branches: hit and miss paths)."""
    from ..anvil_designs.memory import cached_memory_process, memory_process

    sim = sim or Simulator("anvil_memory", engine=engine)
    rng = random.Random(seed)
    _attach_anvil(
        sim, memory_process(latency=2),
        {"host": {"send": {"req": lambda r: r.randrange(256)},
                  "recv": ["res"]}},
        stim, rng, backend=backend,
    )
    _attach_anvil(
        sim, cached_memory_process(lines=4),
        {"host": {"send": {"req": lambda r: r.randrange(32)},
                  "recv": ["res"]}},
        stim, rng, backend=backend,
    )
    return sim


@REGISTRY.scenario("anvil_aes", tags=("anvil",))
def anvil_aes(engine: str = "levelized", seed: int = 0,
              stim: int = DEFAULT_STIM, sim: Simulator = None,
              backend: str = "interp") -> Simulator:
    """The compiled AES core -- by far the largest event graph (the
    14-round key schedule and round functions are fully unrolled), the
    workload where per-event interpretation hurts most."""
    from ..anvil_designs.aes import aes_core
    from ..designs.aes import OP_DECRYPT, OP_ENCRYPT, aes_pack

    sim = sim or Simulator("anvil_aes", engine=engine)
    rng = random.Random(seed)
    jobs = max(stim // 16, 64)
    _attach_anvil(
        sim, aes_core(),
        {"host": {"send": {"req": lambda r: aes_pack(
            r.choice((OP_ENCRYPT, OP_DECRYPT)), r.getrandbits(128),
            r.getrandbits(256), r.choice((128, 256)))},
            "recv": ["res"]}},
        jobs, rng, backend=backend,
    )
    return sim


@REGISTRY.scenario("anvil_axi", tags=("anvil",))
def anvil_axi(engine: str = "levelized", seed: int = 0,
              stim: int = DEFAULT_STIM, sim: Simulator = None,
              backend: str = "interp") -> Simulator:
    """Compiled AXI-Lite demux and mux routers under random read/write
    transactions on every leg."""
    from ..anvil_designs.axi import axi_demux, axi_mux

    sim = sim or Simulator("anvil_axi", engine=engine)
    rng = random.Random(seed)
    _attach_anvil(
        sim, axi_demux(),
        {"m": {"send": {"aw": lambda r: r.randrange(1 << 12),
                        "w": lambda r: r.randrange(1 << 16)},
               "recv": ["b", "r"]},
         **{f"s{i}": {"recv": ["aw", "w", "ar"]} for i in range(4)}},
        stim // 4, rng, backend=backend,
    )
    _attach_anvil(
        sim, axi_mux(),
        {**{f"m{i}": {"send": {"aw": lambda r: r.randrange(1 << 12),
                               "w": lambda r: r.randrange(1 << 16)},
                      "recv": ["b", "r"]} for i in range(4)},
         "s": {"recv": ["aw", "w", "ar"]}},
        stim // 8, rng, backend=backend,
    )
    return sim


@REGISTRY.scenario("anvil_mmu", tags=("anvil",))
def anvil_mmu(engine: str = "levelized", seed: int = 0,
              stim: int = DEFAULT_STIM, sim: Simulator = None,
              backend: str = "interp") -> Simulator:
    """A *connected* compiled system: the TLB's ``ptw`` endpoint is wired
    to the walker's ``host`` endpoint in one Anvil ``System``; only the
    request stream and the page-table memory are external.  The walker's
    memory responses are preloaded pseudo-PTEs, so walks vary in depth
    deterministically."""
    from ..anvil_designs.mmu import ptw_process, tlb_process
    from ..designs.mmu import PTE_LEAF, PTE_VALID

    sim = sim or Simulator("anvil_mmu", engine=engine)
    rng = random.Random(seed)
    sys_ = System()
    tlb = sys_.add(tlb_process())
    ptw = sys_.add(ptw_process())
    sys_.connect(tlb, "ptw", ptw, "host")
    host_ch = sys_.expose(tlb, "host")
    mem_ch = sys_.expose(ptw, "mem")
    ss = build_simulation(sys_, sim=sim, backend=backend)
    host = ss.external(host_ch)
    host.always_receive("res")
    sim.watch(host.ports["res"].data, f"{sim.name}.anvil_tlb.host.res.data")
    sim.watch(host.ports["res"].valid,
              f"{sim.name}.anvil_tlb.host.res.valid")
    for _ in range(stim):
        host.send("req", rng.choice((0, 3, 6, 9, 12, 1)))
    mem = ss.external(mem_ch)
    mem.always_receive("req")
    for _ in range(stim):
        # random PTEs biased towards valid leaves so walks terminate
        pte = rng.randrange(1 << 12) << 4
        pte |= PTE_VALID | (PTE_LEAF if rng.random() < 0.7 else 0)
        mem.send("res", pte)
    return sim


@REGISTRY.scenario("anvil_pipeline", tags=("anvil",))
def anvil_pipeline(engine: str = "levelized", seed: int = 0,
                   stim: int = DEFAULT_STIM, sim: Simulator = None,
                   backend: str = "interp") -> Simulator:
    """Compiled pipelined ALU and systolic array at full throughput
    (II=1: every event graph iteration overlaps with its successor)."""
    from ..anvil_designs.pipeline import pipelined_alu, systolic_array

    sim = sim or Simulator("anvil_pipeline", engine=engine)
    rng = random.Random(seed)
    _attach_anvil(
        sim, pipelined_alu(),
        {"inp": {"send": {"data": lambda r: alu_pack(
            r.randrange(8), r.randrange(1 << 16), r.randrange(1 << 16))}},
         "out": {"recv": ["data"]}},
        stim, rng, backend=backend,
    )
    _attach_anvil(
        sim, systolic_array(),
        {"inp": {"send": {"data": lambda r: r.randrange(1 << 16)}},
         "out": {"recv": ["data"]}},
        stim, rng, backend=backend,
    )
    return sim


@REGISTRY.scenario("anvil_sweep", tags=("anvil", "sweep"))
def scenario_anvil_sweep(engine: str = "levelized", seed: int = 0,
                         stim: int = DEFAULT_STIM, sim: Simulator = None,
                         backend: str = "interp") -> Simulator:
    """All six compiled families in one simulator -- the backend
    benchmark's sweep shape."""
    sim = sim or Simulator("anvil_sweep", engine=engine)
    for builder in (anvil_streams, anvil_memory, anvil_aes, anvil_axi,
                    anvil_mmu, anvil_pipeline):
        builder(engine=engine, seed=seed, stim=stim, sim=sim,
                backend=backend)
    return sim


# ---------------------------------------------------------------------------
# the Y86-64 CPU workload family (tag: "cpu")
# ---------------------------------------------------------------------------


def _y86_scenario(workload: str, engine: str, seed: int, stim: int,
                  sim: Simulator, backend: str) -> Simulator:
    """One bundled Y86 program run on *both* CPU implementations.

    The RTL 5-stage pipeline executes the program directly; the compiled
    Anvil sequential core executes the same image through its typed
    imem/dmem channels against a :class:`~repro.designs.y86.Y86MemoryServer`.
    The data-array length scales with ``stim`` so sweeps shape work the
    same way they do for the other families, and the values come from
    ``seed`` alone -- engine and backend never see different programs."""
    from ..designs.y86 import Y86PipelineCpu, attach_anvil_y86
    from ..isa.assembler import assemble
    from ..isa.programs import BUNDLED

    sim = sim or Simulator(f"y86_{workload}", engine=engine)
    rng = random.Random(seed)
    n = max(4, min(stim // 250, 16))
    values = [rng.getrandbits(64) for _ in range(n)]
    prog = assemble(BUNDLED[workload](values))
    cpu = sim.add(Y86PipelineCpu(f"y86_{workload}_cpu", prog.image))
    for wire in (cpu.w_pc, cpu.instret_w, cpu.rax, cpu.halted_w):
        sim.watch(wire, f"{sim.name}.{cpu.name}.{wire.name}")
    _core, _server, host = attach_anvil_y86(
        sim, prog.image, backend=backend, name=f"y86_{workload}")
    port = host.ports["ev"]
    label = f"{sim.name}.y86_{workload}_core.host.ev"
    sim.watch(port.data, f"{label}.data")
    sim.watch(port.valid, f"{label}.valid")
    return sim


@REGISTRY.scenario("y86_sum", tags=("cpu",))
def y86_sum(engine: str = "levelized", seed: int = 0,
            stim: int = DEFAULT_STIM, sim: Simulator = None,
            backend: str = "interp") -> Simulator:
    """The CSAPP sum loop over a seeded array, on both Y86 cores."""
    return _y86_scenario("sum", engine, seed, stim, sim, backend)


@REGISTRY.scenario("y86_sort", tags=("cpu",))
def y86_sort(engine: str = "levelized", seed: int = 0,
             stim: int = DEFAULT_STIM, sim: Simulator = None,
             backend: str = "interp") -> Simulator:
    """Signed bubble sort: branch-heavy, with data-dependent control."""
    return _y86_scenario("sort", engine, seed, stim, sim, backend)


@REGISTRY.scenario("y86_memcpy", tags=("cpu",))
def y86_memcpy(engine: str = "levelized", seed: int = 0,
               stim: int = DEFAULT_STIM, sim: Simulator = None,
               backend: str = "interp") -> Simulator:
    """Copy-and-checksum: load/store pairs through the memory stage."""
    return _y86_scenario("memcpy", engine, seed, stim, sim, backend)
