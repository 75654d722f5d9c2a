"""Shared pieces of the benchmark: the pinned configuration, the
operation ledger, result digests, small statistics helpers and the
clocks that time intervals in reference-host seconds."""

from __future__ import annotations

import hashlib
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Sequence

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: scratch space inside the checkout (listed in .gitignore)
TMP = os.path.join(ROOT, ".perfbench_tmp")


def clean_env() -> Dict[str, str]:
    """The environment for every child process: no ``REPRO_*`` knob (so
    CI env modes cannot leak into a measurement) and the in-tree
    package first on the path."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = SRC
    return env


def pinned(**overrides):
    """The configuration every workload measures: the compiled cycle
    kernel and the generated-Python FSM backend, every other knob
    spelled out rather than left to defaults or the environment."""
    from repro import SimConfig

    fields = dict(engine="kernel", backend="pycompiled", executor="serial",
                  jobs=None, parallel=None, batch=1, checkpoint_every=None,
                  max_wall_time=None, trace=False, stim=None)
    fields.update(overrides)
    return SimConfig(**fields)


def oracle_config(backend: str, **overrides):
    """The reference configuration outputs are checked against: the
    ``brute`` engine, never the configuration under test."""
    return pinned(engine="brute", backend=backend, **overrides)


class Ledger:
    """Counts operations and failures; prints a one-line replay for
    every failure so it can be rerun on its own.

    An operation fails when it raises or when its output differs from
    the reference.  Only the second makes the run incorrect: a raised
    error produced no output to be wrong."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.mismatched = 0
        self._lock = threading.Lock()   # the serve clients share it

    def ok(self) -> None:
        with self._lock:
            self.attempted += 1

    def fail(self, scenario: str, index: int, error: str,
             mismatch: bool = False) -> None:
        with self._lock:
            self.attempted += 1
            self.failed += 1
            self.mismatched += mismatch
        error = " ".join(str(error).split())[:300]
        print(f"REPLAY workload={self.workload} seed={self.seed} "
              f"scenario={scenario} op={index} error={error}", flush=True)

    def check(self, passed: bool, scenario: str, index: int,
              error: str) -> bool:
        if passed:
            self.ok()
        else:
            self.fail(scenario, index, error, mismatch=True)
        return passed


def _sha(material) -> str:
    text = json.dumps(material, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def activity_digest(activity: Dict) -> str:
    """Digest of per-wire toggle counts; keys may be ``(module, wire)``
    pairs or ``"module/wire"`` strings."""
    return _sha(sorted(
        ("/".join(k) if isinstance(k, tuple) else k, v)
        for k, v in activity.items() if v))


def wave_digest(samples: Dict[str, Sequence[int]],
                cycles: Optional[int] = None) -> str:
    """Digest of the sampled waveform, cut to ``cycles`` samples when
    given."""
    return _sha(sorted(
        (label, list(series if cycles is None else series[:cycles]))
        for label, series in samples.items()))


def run_digest(activity: Dict, samples: Dict[str, Sequence[int]]) -> str:
    """A digest of a run's observables: activity and waveform."""
    return activity_digest(activity) + ":" + wave_digest(samples)


def sim_digest(sim) -> str:
    return run_digest(sim.activity, sim.waveform.samples)


def result_digest(result) -> str:
    """Digest of a :class:`repro.api.RunResult` (also one rebuilt from
    the wire form)."""
    return run_digest(result.activity, result.waveform.samples)


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def geomean(values: Sequence[float]) -> float:
    return statistics.geometric_mean(values)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100)."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def peak_rss_mb() -> float:
    """Peak resident set of this process plus the largest waited-for
    child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def _python(code: str) -> None:
    subprocess.run([sys.executable, "-c", code], env=clean_env(), cwd=ROOT,
                   check=True, stdout=subprocess.DEVNULL, timeout=120)


def import_package() -> None:
    """A fresh interpreter that imports the package and populates its
    scenario registry -- the start-up every CLI invocation and server
    start pays."""
    _python("import repro; repro.get_registry(); import repro.server")


def clear_compile_caches(tracer=None) -> None:
    if tracer is not None:
        tracer.clear_caches()
        return
    from repro.codegen import pysim
    from repro.rtl import kernel

    pysim.clear_cache()
    kernel.clear_cache()


# ---------------------------------------------------------------------------
# reference-host time
# ---------------------------------------------------------------------------
def _reference_work(n: int) -> int:
    """Interpreter-bound work of the simulator's kind -- calls,
    attribute and dict traffic, small-int arithmetic -- that no change
    to the program can speed up or slow down."""

    class Cell:
        __slots__ = ("value",)

    cell = Cell()
    cell.value = 0
    table: Dict[int, int] = {}

    def mix(a: int, b: int) -> int:
        return (a * 31 + b) & 0xFFFF

    for i in range(n):
        cell.value = mix(cell.value, i)
        table[i & 255] = cell.value
    return cell.value


def calibration_sample() -> float:
    """Host seconds one fixed unit of reference work takes right now."""
    t0 = time.perf_counter()
    _reference_work(30000)
    return time.perf_counter() - t0


class Span:
    """One measured interval: ``raw`` host seconds and ``ref`` seconds
    on the reference host."""

    __slots__ = ("raw", "ref", "factor")

    def __init__(self):
        self.raw = self.ref = 0.0
        self.factor = 1.0


class Clock:
    """Times operations in reference-host seconds.

    This VM's speed drifts by a fifth and more within a minute as its
    neighbours come and go, the calibration loop as much as the
    program.  Each interval is therefore scaled by ``REF`` over the
    mean of calibration samples taken right before it, right after it
    and -- for intervals longer than ``TICK`` -- every ``TICK`` seconds
    during it, from a ``SIGALRM`` handler whose own time is left out of
    the interval.  The ratio of the program's time to the reference
    work's time, measured side by side, repeats across runs where raw
    seconds do not.  A change to the program moves the interval, never
    the calibration.

    Use it from the main thread only (signal handlers run there)."""

    #: seconds one calibration sample takes on the reference host
    REF = 0.005
    #: a calibration sample younger than this serves as the next
    #: interval's "before" sample
    FRESH = 0.05
    #: sampling period inside long intervals
    TICK = 0.25

    def __init__(self):
        self._last = self._sample()
        self._at = time.perf_counter()
        self._samples: List[float] = []
        self._stolen = 0.0

    @staticmethod
    def _sample() -> float:
        return calibration_sample()

    def _before(self) -> float:
        if time.perf_counter() - self._at > self.FRESH:
            self._last = self._sample()
        return self._last

    def _tick(self, _signum, _frame) -> None:
        t0 = time.perf_counter()
        self._samples.append(self._sample())
        self._stolen += time.perf_counter() - t0

    @contextmanager
    def measured(self, sampling: bool = True) -> Iterator[Span]:
        """``with clock.measured() as span:`` -- ``span`` is filled in on
        exit (also when the body raises).  ``sampling=False`` skips the
        in-interval samples, for intervals in which other processes keep
        both CPUs busy."""
        span = Span()
        self._samples = [self._before()]
        self._stolen = 0.0
        previous = None
        if sampling:
            previous = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, self.TICK, self.TICK)
        t0 = time.perf_counter()
        try:
            yield span
        finally:
            elapsed = time.perf_counter() - t0
            if sampling:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
            self._last = self._sample()
            self._at = time.perf_counter()
            self._samples.append(self._last)
            span.raw = elapsed - self._stolen
            span.factor = self.REF / statistics.fmean(self._samples)
            span.ref = span.raw * span.factor


#: what the reference interpreter start imports: stdlib only, so no
#: change to the program can move it
_REFERENCE_START = ("import asyncio, json, http.client, email.parser, "
                    "argparse, dataclasses, concurrent.futures, "
                    "multiprocessing, hashlib, decimal, unittest")


class ProcessClock(Clock):
    """:class:`Clock` for intervals spent mostly starting a fresh
    interpreter (the CLI, a server start): process start-up drifts with
    the host's exec and import costs, which the CPU loop does not
    track, so the calibration sample is a fresh interpreter importing a
    fixed set of standard-library modules.  No in-interval samples: a
    sample is itself a process start."""

    REF = 0.15
    FRESH = 0.5

    @staticmethod
    def _sample() -> float:
        t0 = time.perf_counter()
        _python(_REFERENCE_START)
        return time.perf_counter() - t0

    def measured(self, sampling: bool = False):
        return super().measured(sampling=False)
