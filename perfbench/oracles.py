"""Reference results every workload's outputs are checked against.

None of them comes from the configuration under test (the ``kernel``
engine with the ``pycompiled`` backend):

* simulation observables come from the ``brute`` engine -- with the
  ``interp`` plan interpreter where that is affordable;
* Y86 architectural state comes from the sequential ISA interpreter
  :mod:`repro.isa.reference`;
* type-checking verdicts are the ones the paper reports.

Everything here runs outside the timed regions.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

from common import activity_digest, oracle_config, sim_digest, wave_digest


def run_oracle(scenario: str, seed: int, cycles: int, backend: str) -> str:
    """Digest of a ``brute``-engine run of one registered scenario."""
    from repro import get_registry

    sim = get_registry().build(scenario, oracle_config(backend, seed=seed))
    sim.run(cycles)
    return sim_digest(sim)


class PrefixOracle:
    """A ``brute`` run of one (scenario, seed) to ``max_cycles`` that
    answers the digest of any shorter run from ``min_cycles`` on: the
    activity digest is taken after every cycle, the waveform is cut."""

    def __init__(self, scenario: str, seed: int, min_cycles: int,
                 max_cycles: int, backend: str = "pycompiled"):
        from repro import get_registry

        sim = get_registry().build(scenario,
                                   oracle_config(backend, seed=seed))
        sim.run(min_cycles)
        self._activity = {min_cycles: activity_digest(sim.activity)}
        for cycles in range(min_cycles + 1, max_cycles + 1):
            sim.step()
            self._activity[cycles] = activity_digest(sim.activity)
        self._samples = {k: list(v) for k, v in sim.waveform.samples.items()}
        self._waves: Dict[int, str] = {}

    def digest(self, cycles: int) -> str:
        if cycles not in self._waves:
            self._waves[cycles] = wave_digest(self._samples, cycles)
        return self._activity[cycles] + ":" + self._waves[cycles]


def y86_reference(sim) -> Tuple[int, str]:
    """(stop status, architectural digest) of the program loaded into a
    built Y86 scenario, run on the sequential ISA interpreter.  The
    digest is the one campaign golden records carry."""
    from repro.inject.campaign import _arch_digest, _halt_module
    from repro.isa.reference import ReferenceMachine

    cpu = _halt_module(sim)
    state = ReferenceMachine(cpu._image).run()
    return state.stat, _arch_digest(state)


def typecheck_designs() -> List[Tuple[str, Callable, bool]]:
    """Every in-repo design with a verdict the paper states, as
    ``(label, factory, timing-safe?)``: the ten Table 1 designs, the
    Y86 core, and Appendix A's Listing 1 child in its unsafe and fixed
    forms."""
    from repro.anvil_designs import axi, mmu, pipeline, streams
    from repro.anvil_designs.aes import aes_core
    from repro.anvil_designs.y86 import y86_core
    from repro.harness.appendix_a import listing1_child, listing1_child_safe

    return [
        ("fifo_buffer", lambda: streams.fifo_buffer(depth=4, width=32),
         True),
        ("spill_register", streams.spill_register, True),
        ("passthrough_stream_fifo", streams.passthrough_stream_fifo, True),
        ("tlb", mmu.tlb_process, True),
        ("ptw", mmu.ptw_process, True),
        ("aes_core", aes_core, True),
        ("axi_demux", axi.axi_demux, True),
        ("axi_mux", axi.axi_mux, True),
        ("pipelined_alu", pipeline.pipelined_alu, True),
        ("systolic_array", pipeline.systolic_array, True),
        ("y86_core", y86_core, True),
        ("listing1_child", listing1_child, False),
        ("listing1_child_safe", listing1_child_safe, True),
    ]


def typecheck_pairs() -> List[Tuple[str, Callable]]:
    """The Table 2 unsafe/safe pairs: each case checks both forms and
    the paper's verdict is "unsafe rejected, safe accepted"."""
    from repro.harness.table2 import (
        case_coyote_two_cycle_valid,
        case_opentitan_entropy,
    )

    return [("opentitan_entropy", case_opentitan_entropy),
            ("coyote_two_cycle_valid", case_coyote_two_cycle_valid)]
