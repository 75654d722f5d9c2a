"""Differential fuzzing for the Y86-64 execution models.

:func:`generate_program` draws a random -- but always-terminating --
Y86 program from a seeded grammar: straight-line arithmetic, forward
branches, bounded countdown loops, balanced push/pop runs, calls to
leaf subroutines, loads/stores confined to a data region, and (with
small probability) a deliberately faulting tail that exercises the
ADR/INS stop paths.  Termination is by construction: every loop is a
countdown with a dedicated counter register no block body touches, every
branch is forward, and the call graph is ``main -> leaf``.

:func:`differential_check` assembles a program, runs the sequential
reference interpreter to get the golden :class:`ArchState`, then runs
the RTL pipeline under every requested engine (and optionally the Anvil
core under every requested backend) and asserts the final architectural
state -- registers, memory, condition codes, stop status, pc, retired
count -- is identical everywhere.  A mismatch raises
:class:`DifferentialMismatch` whose message carries the seed, the model
label, the field-by-field diff, and the full assembly listing, so a
failure is reproducible from the pytest output alone.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from .assembler import AssembledProgram, assemble
from .encoding import CC_SUFFIXES, OP_NAMES
from .reference import MEM_SIZE, ArchState, ReferenceMachine

#: engines the RTL pipeline is checked under by default
DEFAULT_ENGINES = ("brute", "levelized", "kernel")

#: scratch registers the generator draws from; %r13 is the loop
#: decrement constant and %r14 the loop counter, kept out of the pool so
#: loop trips stay bounded no matter what the body does
SCRATCH_REGS = ("rax", "rcx", "rdx", "rbx", "rbp", "rsi", "rdi",
                "r8", "r9", "r10", "r11", "r12")
LOOP_ONE, LOOP_COUNTER = "r13", "r14"


class DifferentialMismatch(AssertionError):
    """Two execution models disagreed on the final architectural state."""


@dataclass(frozen=True)
class FuzzResult:
    """One fuzz case that passed everywhere."""

    seed: int
    instret: int
    stat: int
    cycles: Dict[str, int]      # model label -> cycles to halt


class _Gen:
    def __init__(self, rng: random.Random, ndata: int):
        self.rng = rng
        self.ndata = ndata
        self.label_id = 0
        self.subs: list = []    # bodies of generated leaf subroutines

    def fresh(self, stem: str) -> str:
        self.label_id += 1
        return f"{stem}{self.label_id}"

    def reg(self) -> str:
        return self.rng.choice(SCRATCH_REGS)

    def imm(self) -> int:
        return self.rng.getrandbits(self.rng.choice((8, 16, 63, 64)))

    def arith(self) -> str:
        r = self.rng
        kind = r.randrange(4)
        if kind == 0:
            return f"    irmovq ${self.imm():#x}, %{self.reg()}"
        if kind == 1:
            return f"    {r.choice(OP_NAMES)} %{self.reg()}, %{self.reg()}"
        if kind == 2:
            return f"    rrmovq %{self.reg()}, %{self.reg()}"
        cc = r.choice(CC_SUFFIXES[1:])
        return f"    cmov{cc} %{self.reg()}, %{self.reg()}"

    def block_arith(self) -> list:
        return [self.arith() for _ in range(self.rng.randint(1, 4))]

    def block_mem(self) -> list:
        r = self.rng
        ptr = self.reg()
        out = [f"    irmovq data, %{ptr}"]
        for _ in range(r.randint(1, 3)):
            disp = 8 * r.randrange(self.ndata)
            if r.random() < 0.5:
                out.append(f"    mrmovq {disp}(%{ptr}), %{self.reg()}")
            else:
                src = self.reg()
                if src == ptr:      # never clobber the live pointer
                    out.append(f"    mrmovq {disp}(%{ptr}), %{ptr}")
                    break
                out.append(f"    rmmovq %{src}, {disp}(%{ptr})")
        return out

    def block_branch(self) -> list:
        r = self.rng
        lbl = self.fresh("fwd")
        cc = r.choice(("mp",) + CC_SUFFIXES[1:])   # "jmp" or a jCC
        out = [f"    {r.choice(OP_NAMES)} %{self.reg()}, %{self.reg()}",
               f"    j{cc} {lbl}"]
        out += [self.arith() for _ in range(r.randint(1, 3))]
        out.append(f"{lbl}:")
        return out

    def block_loop(self) -> list:
        r = self.rng
        lbl = self.fresh("lp")
        out = [f"    irmovq ${r.randint(1, 4)}, %{LOOP_COUNTER}",
               f"    irmovq $1, %{LOOP_ONE}",
               f"{lbl}:"]
        out += [self.arith() for _ in range(r.randint(1, 3))]
        out += [f"    subq %{LOOP_ONE}, %{LOOP_COUNTER}",
                f"    jne {lbl}"]
        return out

    def block_pushpop(self) -> list:
        r = self.rng
        depth = r.randint(1, 3)
        out = [f"    pushq %{self.reg()}" for _ in range(depth)]
        out += [f"    popq %{self.reg()}" for _ in range(depth)]
        return out

    def block_call(self) -> list:
        r = self.rng
        if not self.subs or (len(self.subs) < 3 and r.random() < 0.5):
            name = f"leaf{len(self.subs)}"
            body = [f"{name}:"]
            body += [self.arith() for _ in range(r.randint(2, 5))]
            body.append("    ret")
            self.subs.append(body)
        else:
            name = f"leaf{r.randrange(len(self.subs))}"
        return [f"    call {name}"]

    def fault_tail(self) -> list:
        r = self.rng
        kind = r.randrange(3)
        if kind == 0:               # illegal opcode byte -> INS
            return [f"    .byte {r.choice((0xC0, 0xD5, 0xFF, 0x28)):#x}"]
        if kind == 1:               # out-of-bounds load -> ADR
            ptr = self.reg()
            return [f"    irmovq ${r.randrange(MEM_SIZE, 1 << 16):#x}, "
                    f"%{ptr}",
                    f"    mrmovq (%{ptr}), %{self.reg()}"]
        # jump past the end of memory -> fetch ADR
        return [f"    jmp {r.randrange(MEM_SIZE, 1 << 16):#x}"]


def generate_program(seed: int, mem_size: int = MEM_SIZE) -> str:
    """One random, terminating ``.ys`` program for ``seed``."""
    rng = random.Random(seed)
    ndata = rng.randint(4, 10)
    g = _Gen(rng, ndata)
    body = []
    blocks = (g.block_arith, g.block_arith, g.block_arith, g.block_mem,
              g.block_mem, g.block_branch, g.block_branch, g.block_loop,
              g.block_call, g.block_pushpop)
    for _ in range(rng.randint(3, 8)):
        body += rng.choice(blocks)()
    if rng.random() < 0.2:
        body += g.fault_tail()
    lines = [
        f"# fuzz seed {seed}",
        "    irmovq stack, %rsp",
        "    call main",
        "    halt",
        "",
        ".align 8",
        "data:",
        *[f"    .quad {rng.getrandbits(64):#x}" for _ in range(ndata)],
        "",
        "main:",
        *body,
        "    ret",
        "",
        *[line for sub in g.subs for line in sub],
        "",
        f".pos {mem_size - 8:#x}",
        "stack:",
    ]
    return "\n".join(lines) + "\n"


def _mismatch(label: str, seed: Optional[int], prog: AssembledProgram,
              expected: ArchState, got: ArchState) -> DifferentialMismatch:
    return DifferentialMismatch(
        f"model {label!r} diverged from the ISA reference"
        + (f" (fuzz seed {seed})" if seed is not None else "")
        + "\n--- state diff (reference != model) ---\n"
        + expected.diff(got)
        + "\n--- reference ---\n" + expected.summary()
        + "\n--- assembly listing ---\n" + prog.listing()
    )


def differential_check(
    source: str,
    seed: Optional[int] = None,
    engines: Sequence[str] = DEFAULT_ENGINES,
    anvil_backends: Sequence[str] = (),
    mem_size: int = MEM_SIZE,
    max_steps: int = 50_000,
) -> FuzzResult:
    """Assert every execution model agrees on ``source``'s final state.

    Returns a :class:`FuzzResult` on success; raises
    :class:`DifferentialMismatch` (with a reproduction listing) on the
    first disagreement, or ``RuntimeError`` if a model fails to halt
    within its cycle budget.
    """
    from ..designs.y86 import (
        Y86PipelineCpu,
        anvil_arch_state,
        attach_anvil_y86,
        run_to_halt,
    )
    from ..rtl.simulator import Simulator

    prog = assemble(source)
    expected = ReferenceMachine(prog.image, mem_size=mem_size).run(
        max_steps=max_steps)
    cycles: Dict[str, int] = {}
    budget = 12 * expected.instret + 300
    for engine in engines:
        label = f"rtl/{engine}"
        sim = Simulator(f"y86_fuzz_{engine}", engine=engine)
        cpu = sim.add(Y86PipelineCpu("cpu", prog.image,
                                     mem_size=mem_size))
        cycles[label] = run_to_halt(sim, cpu, max_cycles=budget)
        got = cpu.arch_state()
        if got != expected:
            raise _mismatch(label, seed, prog, expected, got)
    for backend in anvil_backends:
        label = f"anvil/{backend}"
        sim = Simulator(f"y86_fuzz_anvil_{backend}")
        core, server, _host = attach_anvil_y86(
            sim, prog.image, backend=backend, mem_size=mem_size)
        start = sim.cycle
        while not core.regs["halted"]:
            if sim.cycle - start >= budget:
                raise RuntimeError(
                    f"{label} did not halt within {budget} cycles "
                    f"(fuzz seed {seed})")
            sim.run(min(256, budget - (sim.cycle - start)))
        cycles[label] = sim.cycle - start
        got = anvil_arch_state(core, server)
        if got != expected:
            raise _mismatch(label, seed, prog, expected, got)
    return FuzzResult(seed=seed if seed is not None else -1,
                      instret=expected.instret, stat=expected.stat,
                      cycles=cycles)


def run_fuzz(
    count: int,
    seed: int = 0,
    engines: Sequence[str] = DEFAULT_ENGINES,
    anvil_every: int = 0,
    mem_size: int = MEM_SIZE,
) -> Tuple[FuzzResult, ...]:
    """Run ``count`` generated programs; program ``i`` uses the derived
    seed ``seed * 1_000_003 + i`` so any failure names a standalone
    seed.  ``anvil_every = k`` additionally runs every ``k``-th program
    through the Anvil core (interp backend); 0 disables it.
    """
    results = []
    for i in range(count):
        case_seed = seed * 1_000_003 + i
        source = generate_program(case_seed, mem_size=mem_size)
        anvil = ("interp",) if anvil_every and i % anvil_every == 0 \
            else ()
        results.append(differential_check(
            source, seed=case_seed, engines=engines,
            anvil_backends=anvil, mem_size=mem_size))
    return tuple(results)
