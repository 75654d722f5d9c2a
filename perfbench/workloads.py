"""The four benchmark workloads.

Each workload takes its inputs from ``--seed`` alone and exposes:

* ``setup()`` -- one cold set-up, returning its time in seconds;
* ``prepare()`` -- reference results for the checks (untimed);
* ``measure(seconds)`` -- untraced, the end-to-end metrics every
  workload reports (``latency_ms``, ``throughput_per_s``) and the
  figures only this workload has (for the ``DETAIL`` line);
* ``unit(tracer)`` -- one fixed unit of work for the traced run, so its
  work counters repeat exactly at one seed; returns its wall time;
* ``close()`` -- stop anything still running.

``latency_ms`` is the median time of one operation -- with several
kinds of operation, the geometric mean over the kinds, so each kind
weighs the same however long it takes.  ``throughput_per_s`` is the
work of one pass over the kinds (cycles, verdicts and builds, faults,
requests) over that pass's time, so the costliest kind weighs most.

Every measured interval is in reference-host seconds (see
:class:`common.Clock`); only the traced units report raw wall time.
"""

from __future__ import annotations

import gc
import json
import os
import random
import re
import signal
import statistics
import subprocess
import sys
import threading
import time
from typing import Dict, List, NamedTuple, Optional, Tuple

import oracles
from common import (
    ROOT,
    TMP,
    Clock,
    Ledger,
    ProcessClock,
    clean_env,
    clear_compile_caches,
    geomean,
    import_package,
    median,
    percentile,
    pinned,
    result_digest,
    sim_digest,
)

#: a workload measures at least this many repetitions, however short
#: ``--seconds`` is
MIN_REPS = 3

#: metric name -> (value, unit)
Metrics = Dict[str, Tuple[float, str]]
#: what ``measure`` returns: the metrics every workload reports, and
#: the figures only this one has
Measured = Tuple[Metrics, Metrics]


def _registry():
    from repro import get_registry

    return get_registry()


def _error(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


# ---------------------------------------------------------------------------
# steady_sim
# ---------------------------------------------------------------------------
class SteadySim:
    """Long fixed-cycle runs of the two all-in-one sweeps, build untimed:
    the cycle kernel, the ``simfsm`` activation runtime and generated
    pysim code do nearly all the work."""

    name = "steady_sim"
    #: one checked segment: a fresh build runs SEGMENT cycles in timed
    #: chunks of CHUNK, then its digest is checked; many short samples
    #: and their median ride out the host's bursts of slowness
    SEGMENT = 1500
    CHUNK = 250
    #: (scenario, metric, backend of its brute-engine oracle): the plan
    #: interpreter is affordable on the RTL sweep only
    SWEEPS = (("sweep", "rtl_sweep_cps", "interp"),
              ("anvil_sweep", "anvil_sweep_cps", "pycompiled"))

    def __init__(self, seed: int, ledger: Ledger):
        rng = random.Random(f"{self.name}:{seed}")
        self.ledger = ledger
        self.config = pinned(seed=rng.randrange(1 << 16))
        self.clock = Clock()
        self.expected: Dict[str, str] = {}
        self.index = 0

    def setup(self) -> float:
        with self.clock.measured() as span:
            clear_compile_caches()
            for scenario, _metric, _backend in self.SWEEPS:
                _registry().build(scenario, self.config).run(2)
        return span.ref

    def prepare(self) -> None:
        for scenario, _metric, backend in self.SWEEPS:
            self.expected[scenario] = oracles.run_oracle(
                scenario, self.config.seed, self.SEGMENT, backend)

    def _segment(self, scenario: str) -> List[float]:
        """Build (untimed), run one segment in timed chunks, check it;
        the chunks' cycles/second, or nothing when the segment failed."""
        index, self.index = self.index, self.index + 1
        rates = []
        try:
            sim = _registry().build(scenario, self.config)
            for _ in range(self.SEGMENT // self.CHUNK):
                with self.clock.measured() as span:
                    sim.run(self.CHUNK)
                rates.append(self.CHUNK / span.ref)
        except Exception as exc:  # counted, never fatal
            self.ledger.fail(scenario, index, _error(exc))
            return []
        if not self.ledger.check(
                sim_digest(sim) == self.expected[scenario], scenario, index,
                "activity/waveform digest differs from the brute oracle"):
            return []
        return rates

    def measure(self, seconds: float) -> Measured:
        rates: Dict[str, List[float]] = {s: [] for s, _m, _b in self.SWEEPS}
        start = time.perf_counter()
        segments = 0
        while segments < MIN_REPS or time.perf_counter() - start < seconds:
            for scenario, _metric, _backend in self.SWEEPS:
                rates[scenario] += self._segment(scenario)
            segments += 1
        if not all(rates.values()):
            return {}, {}
        cps = {scenario: median(rates[scenario])
               for scenario, _m, _b in self.SWEEPS}
        # an operation is one chunk of each sweep
        chunk_s = [self.CHUNK / rate for rate in cps.values()]
        return ({"latency_ms": (1000 * geomean(chunk_s), "ms"),
                 "throughput_per_s": (self.CHUNK * len(chunk_s)
                                      / sum(chunk_s), "1/s")},
                {metric: (cps[scenario], "cycles/s")
                 for scenario, metric, _b in self.SWEEPS})

    def unit(self, tracer) -> float:
        t0 = time.perf_counter()
        for scenario, _metric, _backend in self.SWEEPS:
            self._segment(scenario)
        return time.perf_counter() - t0

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# elaborate
# ---------------------------------------------------------------------------
class Elaborate:
    """The compile side: a type-checking verdict for every design with a
    known verdict, cold and warm builds of every registered scenario,
    and fresh-process CLI runs."""

    name = "elaborate"
    BUILD_CYCLES = 10
    CLI_CYCLES = 200
    #: one RTL, one compiled-Anvil and one CPU scenario, each run twice
    #: per round, so every run times the same mix
    CLI_SCENARIOS = ("axi", "anvil_aes", "y86_sum")

    def __init__(self, seed: int, ledger: Ledger):
        rng = random.Random(f"{self.name}:{seed}")
        self.ledger = ledger
        self.cold_seed = rng.randrange(1 << 16)
        self.warm_seed = rng.randrange(1 << 16)
        self.scenarios = _registry().names()
        self.cli_specs = [(scenario, rng.randrange(1 << 16))
                          for scenario in self.CLI_SCENARIOS]
        self.clock = Clock()
        self.process_clock = ProcessClock()
        self.expected: Dict[Tuple[str, int, int], str] = {}
        self.index = 0

    def _next(self) -> int:
        index, self.index = self.index, self.index + 1
        return index

    def setup(self) -> float:
        with self.process_clock.measured() as start:
            import_package()
        with self.clock.measured() as span:
            for _label, factory, _safe in oracles.typecheck_designs():
                factory()
        return start.ref + span.ref

    def _oracle(self, scenario: str, seed: int, cycles: int) -> str:
        key = (scenario, seed, cycles)
        if key not in self.expected:
            self.expected[key] = oracles.run_oracle(
                scenario, seed, cycles, "interp")
        return self.expected[key]

    def prepare(self) -> None:
        for scenario in self.scenarios:
            for seed in (self.cold_seed, self.warm_seed):
                self._oracle(scenario, seed, self.BUILD_CYCLES)
        for scenario, seed in self.cli_specs:
            self._oracle(scenario, seed, self.CLI_CYCLES)

    # -- the three parts ---------------------------------------------------
    def typecheck(self) -> List[float]:
        """One verdict per design (or Table 2 pair); the time to each
        verdict that matched the paper's."""
        from repro import check_process

        times = []
        for label, factory, safe in oracles.typecheck_designs():
            index = self._next()
            try:
                with self.clock.measured() as span:
                    ok = check_process(factory()).ok
            except Exception as exc:
                self.ledger.fail(label, index, _error(exc))
                continue
            if self.ledger.check(ok == safe, label, index,
                                 f"verdict {ok}, the paper's is {safe}"):
                times.append(span.ref)
        for label, case in oracles.typecheck_pairs():
            index = self._next()
            try:
                with self.clock.measured() as span:
                    row = case()
            except Exception as exc:
                self.ledger.fail(label, index, _error(exc))
                continue
            if self.ledger.check(
                    row["unsafe_rejected"] and row["safe_accepted"], label,
                    index, f"unsafe_rejected={row['unsafe_rejected']} "
                    f"safe_accepted={row['safe_accepted']}"):
                times.append(span.ref)
        return times

    def builds(self, seed: int) -> Dict[str, float]:
        """``Session.build`` + a few cycles of every scenario; each
        scenario's build time (the cycles and the check are untimed)."""
        from repro import Session

        session = Session(pinned(seed=seed))
        times = {}
        for scenario in self.scenarios:
            index = self._next()
            try:
                with self.clock.measured() as span:
                    sim = session.build(scenario)
                sim.run(self.BUILD_CYCLES)
            except Exception as exc:
                self.ledger.fail(scenario, index, _error(exc))
                continue
            if self.ledger.check(
                    sim_digest(sim) == self._oracle(scenario, seed,
                                                    self.BUILD_CYCLES),
                    scenario, index,
                    "activity/waveform digest differs from the brute "
                    "oracle"):
                times[scenario] = span.ref
        return times

    def cli_run(self, scenario: str, seed: int) -> Optional[float]:
        """One fresh ``python -m repro run ... --json``; its time."""
        from repro import RunResult

        index = self._next()
        cmd = [sys.executable, "-m", "repro", "run", scenario,
               "--engine", "kernel", "--backend", "pycompiled",
               "--seed", str(seed),
               "--cycles", str(self.CLI_CYCLES), "--json",
               "--activity", "--samples"]
        try:
            with self.process_clock.measured() as span:
                proc = subprocess.run(cmd, env=clean_env(), cwd=ROOT,
                                      capture_output=True, text=True,
                                      timeout=120)
            if proc.returncode != 0:
                raise RuntimeError(f"exit {proc.returncode}: "
                                   f"{proc.stderr.strip()[-200:]}")
            result = RunResult.from_dict(json.loads(proc.stdout))
        except Exception as exc:
            self.ledger.fail(scenario, index, _error(exc))
            return None
        passed = self.ledger.check(
            result_digest(result) == self._oracle(scenario, seed,
                                                  self.CLI_CYCLES),
            scenario, index,
            "activity/waveform digest differs from the brute oracle")
        return span.ref if passed else None

    def _round(self, samples, tracer=None) -> None:
        """Cold builds, warm builds and the CLI runs, appended to
        ``samples``."""
        clear_compile_caches(tracer)
        for key, seed in (("cold", self.cold_seed), ("warm", self.warm_seed)):
            for scenario, elapsed in self.builds(seed).items():
                samples[key].setdefault(scenario, []).append(elapsed)
        for scenario, seed in self.cli_specs * 2:
            elapsed = self.cli_run(scenario, seed)
            if elapsed is not None:
                samples["cli"].setdefault(scenario, []).append(elapsed)

    def measure(self, seconds: float) -> Measured:
        # the type check's garbage collections scan a heap of a gigabyte
        # and more; starting from a collected heap makes their number
        # repeat from run to run
        gc.collect()
        verdicts = self.typecheck()
        # the build and CLI rounds get half the budget again: one
        # type-check pass already outlasts a short run
        samples = {"cold": {}, "warm": {}, "cli": {}}
        start = time.perf_counter()
        rounds = 0
        while rounds < MIN_REPS or time.perf_counter() - start < seconds / 2:
            self._round(samples)
            rounds += 1
        if not (verdicts and all(samples.values())):
            return {}, {}
        # each scenario's median across rounds: one slow build in one
        # round does not move a figure
        cold, warm, cli = ([median(t) for t in samples[key].values()]
                           for key in ("cold", "warm", "cli"))
        # four kinds of operation: a verdict, a cold build, a warm
        # build, a CLI run; one pass does each design and scenario once
        kinds = (verdicts, cold, warm, cli)
        return ({"latency_ms": (1000 * geomean(list(map(geomean, kinds))),
                                "ms"),
                 "throughput_per_s": (sum(map(len, kinds))
                                      / sum(map(sum, kinds)), "1/s")},
                {"typecheck_s": (sum(verdicts), "s"),
                 "build_cold_s": (sum(cold), "s"),
                 "build_warm_s": (sum(warm), "s"),
                 # the three scenarios' medians, averaged: a plain
                 # median would flip between their modes
                 "cli_run_s": (statistics.fmean(cli), "s")})

    def unit(self, tracer) -> float:
        t0 = time.perf_counter()
        self.typecheck()
        self._round({"cold": {}, "warm": {}, "cli": {}}, tracer)
        return time.perf_counter() - t0

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# fork_campaign
# ---------------------------------------------------------------------------
class ForkCampaign:
    """Seeded 25-fault injection campaigns over the Y86 programs on the
    ``process`` executor: many short forked tails, snapshot capture and
    restore, the kernel standing down under the inject hook, pool spawn
    and pickling."""

    name = "fork_campaign"
    SCENARIOS = ("y86_sum", "y86_memcpy", "y86_sort")
    FAULTS = 25
    #: campaigns per program a run measures at least: their cost
    #: follows the sampled faults, so a median needs a few of them
    MIN_CAMPAIGNS = 10

    def __init__(self, seed: int, ledger: Ledger):
        rng = random.Random(f"{self.name}:{seed}")
        self.ledger = ledger
        self.config = pinned(seed=rng.randrange(1 << 16),
                             executor="process", jobs=2, cycles=5000)
        self.plan = [(self.SCENARIOS[i % len(self.SCENARIOS)],
                      rng.randrange(1 << 20)) for i in range(300)]
        self.clock = Clock()
        self.reference: Dict[str, Tuple[int, str]] = {}
        self.index = 0

    def setup(self) -> float:
        with self.clock.measured() as span:
            clear_compile_caches()
            for scenario in self.SCENARIOS:
                _registry().build(scenario, self.config).run(2)
        return span.ref

    def prepare(self) -> None:
        for scenario in self.SCENARIOS:
            self.reference[scenario] = oracles.y86_reference(
                _registry().build(scenario, self.config))

    def _campaign(self, tracer=None):
        """One campaign; ``(scenario, seconds, result or None)``."""
        from repro import Session

        index, self.index = self.index, self.index + 1
        scenario, inject_seed = self.plan[index % len(self.plan)]
        try:
            # no in-interval samples: both workers are busy, and a
            # sample would compete with them for the two CPUs
            with self.clock.measured(sampling=False) as span:
                result = Session(self.config).inject_campaign(
                    scenario, faults=self.FAULTS, inject_seed=inject_seed)
        except Exception as exc:  # counted, never fatal
            self.ledger.fail(scenario, index,
                             f"inject_seed={inject_seed} {_error(exc)}")
            if tracer is not None:
                tracer.add("inject.campaigns_failed")
            return scenario, span.ref, None
        stat, digest = self.reference[scenario]
        golden = result["golden"]
        hist = result["histogram"]
        problems = []
        if (golden["stat"], golden["digest"]) != (stat, digest):
            problems.append("golden run differs from the ISA reference")
        if sum(hist.values()) != self.FAULTS \
                or len(result["outcomes"]) != self.FAULTS:
            problems.append(f"{sum(hist.values())} of {self.FAULTS} "
                            f"faults classified")
        if not self.ledger.check(not problems, scenario, index,
                                 f"inject_seed={inject_seed} "
                                 + "; ".join(problems)):
            return scenario, span.ref, None
        if tracer is not None:
            for outcome, count in hist.items():
                tracer.add(f"inject.hist.{outcome}", count)
        return scenario, span.ref, result

    def measure(self, seconds: float) -> Measured:
        # An operation is one campaign.  A crashed campaign is timed
        # too: the executor waits for its other shard, so it costs what
        # a completed one does, and leaving it out would tie the figures
        # to how many campaigns the seed happens to crash (the crashes
        # are reported in ``failed``).
        for _scenario in self.SCENARIOS:
            self._campaign()    # warm-up, untimed: the first is slower
        times: Dict[str, List[float]] = {s: [] for s in self.SCENARIOS}
        start = time.perf_counter()
        rounds = 0
        while rounds < self.MIN_CAMPAIGNS \
                or time.perf_counter() - start < seconds:
            # whole rounds, so every run times the same mix of programs
            for _scenario in self.SCENARIOS:
                scenario, spent, _result = self._campaign()
                times[scenario].append(spent)
            rounds += 1
        # faults classified per second of a round of the three
        # programs, each at its median campaign time: the mean over all
        # campaigns followed the few slow ones and spread twice as wide
        campaign_s = [median(t) for t in times.values()]
        rate = self.FAULTS * len(campaign_s) / sum(campaign_s)
        return ({"latency_ms": (1000 * geomean(campaign_s), "ms"),
                 "throughput_per_s": (rate, "1/s")},
                {"faults_per_s": (rate, "1/s")})

    def unit(self, tracer) -> float:
        self.index = 0
        t0 = time.perf_counter()
        for _scenario in self.SCENARIOS:
            self._campaign(tracer)
        return time.perf_counter() - t0

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# serve_mix
# ---------------------------------------------------------------------------
class Request(NamedTuple):
    scenario: str
    seed: int
    cycles: int
    stream: bool = False
    repeat: bool = False


def make_requests(rng: random.Random, scenarios: List[str],
                  seeds: List[int], count: int) -> List[Request]:
    """The request mix, in shuffled blocks of eight: two repeat an
    earlier plain request (at least two places back, so two clients
    cannot reorder the pair), one streams its trace, five are fresh.
    Scenarios are dealt from a shuffled deck, so every run sees nearly
    the same mix and only the order and the stimulus follow the seed.
    Streamed runs take odd cycle counts and plain runs even ones, so no
    two share a cache key."""
    out: List[Request] = []
    plain: List[Tuple[int, Request]] = []
    kinds: List[str] = []
    deck: List[str] = []
    for i in range(count):
        if not kinds:
            kinds = ["repeat"] * 2 + ["stream"] + ["fresh"] * 5
            rng.shuffle(kinds)
        kind = kinds.pop()
        eligible = len(plain) - (1 if plain and plain[-1][0] == i - 1 else 0)
        if kind == "repeat" and eligible:
            out.append(plain[rng.randrange(eligible)][1]._replace(
                repeat=True))
            continue
        if not deck:
            deck = list(scenarios)
            rng.shuffle(deck)
        stream = kind == "stream"
        cycles = 200 + 2 * rng.randrange(100) + (1 if stream else 0)
        out.append(Request(deck.pop(), rng.choice(seeds), cycles,
                           stream=stream))
        if not stream:
            plain.append((i, out[-1]))
    return out


_LISTENING = re.compile(r"listening on http://[^:/]+:(\d+)")


class Server:
    """One ``python -m repro serve`` subprocess on a free port."""

    def __init__(self, dump: Optional[str] = None):
        os.makedirs(TMP, exist_ok=True)
        if dump is None:
            entry = ["-m", "repro"]
        else:
            entry = [os.path.join(ROOT, "perfbench", "serve_traced.py"),
                     "--dump", dump]
        cmd = [sys.executable, *entry, "serve", "--port", "0",
               "--workers", "2", "--queue-depth", "16",
               "--engine", "kernel", "--backend", "pycompiled",
               "--executor", "serial"]
        self.log = open(os.path.join(
            TMP, f"server-{os.getpid()}-{time.monotonic_ns()}.log"), "w")
        self.proc = subprocess.Popen(cmd, env=clean_env(), cwd=ROOT,
                                     stdout=subprocess.PIPE,
                                     stderr=self.log, text=True)
        try:
            line = self.proc.stdout.readline()
            match = _LISTENING.search(line)
            if match is None:
                raise RuntimeError(f"server did not start: {line!r}")
        except BaseException:
            self.stop()
            raise
        self.port = int(match.group(1))

    def stop(self) -> None:
        """Stop the server and wait for it; its log is kept only when it
        did not shut down cleanly."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.log.close()
        if self.proc.returncode == 0:
            os.remove(self.log.name)


class ServeMix:
    """A closed loop of two client connections against the job server:
    queueing, per-request elaboration under concurrency, a shared
    result cache and WebSocket trace streaming."""

    name = "serve_mix"
    #: requests per run: at least 200, so p95 has ten samples beyond
    #: it, and RATE per second of ``--seconds`` -- a count, not a time
    #: limit, so every run at one seed serves the same requests
    MIN_REQUESTS = 200
    RATE = 30
    CLIENTS = 2
    #: requests per phase of the closed loop
    PHASE = 16

    def __init__(self, seed: int, ledger: Ledger):
        rng = random.Random(f"{self.name}:{seed}")
        self.ledger = ledger
        self.scenarios = _registry().names(exclude="sweep")
        self.seeds = [rng.randrange(1 << 16) for _ in range(2)]
        self.requests = make_requests(rng, self.scenarios, self.seeds, 6000)
        self.clock = Clock()
        self.process_clock = ProcessClock()
        self.expected: Dict[Tuple[str, int], oracles.PrefixOracle] = {}
        self.server: Optional[Server] = None

    def setup(self) -> float:
        """Start the server (stopping the previous set-up's)."""
        if self.server is not None:
            self.server.stop()
            self.server = None
        with self.process_clock.measured() as span:
            self.server = Server()
        return span.ref

    def prepare(self) -> None:
        for scenario in self.scenarios:
            for seed in self.seeds:
                self.expected[(scenario, seed)] = oracles.PrefixOracle(
                    scenario, seed, 200, 401)

    def _loop(self, port: int, count: int) -> Dict[str, object]:
        """Run the closed loop over the first ``count`` requests, in
        phases of ``PHASE`` requests.  Between phases both clients
        pause while the clock calibrates, and each phase's latencies are
        scaled by that phase's own factor."""
        from repro.server import ServerClient

        lock = threading.Lock()
        state = {"next": 0, "limit": 0, "stop": False}
        gate = threading.Barrier(self.CLIENTS + 1, timeout=300)
        done: List[tuple] = []

        def client_main():
            client = ServerClient(port=port, timeout=60)
            try:
                while True:
                    gate.wait()
                    if state["stop"]:
                        return
                    while True:
                        with lock:
                            index = state["next"]
                            if index >= state["limit"]:
                                break
                            state["next"] = index + 1
                        outcome = self._one(client, index)
                        if outcome is not None:
                            with lock:
                                done.append(outcome)
                    gate.wait()
            finally:
                client.close()

        threads = [threading.Thread(target=client_main)
                   for _ in range(self.CLIENTS)]
        for t in threads:
            t.start()
        latencies: List[float] = []
        records: List[Tuple[dict, float]] = []
        dropped = 0
        wall = spent = 0.0
        try:
            while state["next"] < count:
                state["limit"] = min(count, state["limit"] + self.PHASE)
                mark = len(done)
                with self.clock.measured(sampling=False) as span:
                    gate.wait()
                    gate.wait()
                wall += span.raw
                spent += span.ref
                for latency, record, received, lost in done[mark:]:
                    latencies.append(latency * span.factor)
                    records.append((record, received))
                    dropped += lost
        finally:
            state["stop"] = True
            try:
                gate.wait(timeout=60)
            except threading.BrokenBarrierError:
                pass
            for t in threads:
                t.join(timeout=120)
        return {"latencies": latencies, "records": records,
                "dropped": dropped, "issued": state["next"],
                "wall": wall, "seconds": spent}

    def _one(self, client, index: int) -> Optional[tuple]:
        """One request; ``(latency, job record, receipt time, stream
        frames dropped)``, or None when it failed."""
        req = self.requests[index % len(self.requests)]
        t0 = time.perf_counter()
        try:
            record = client.submit(req.scenario, cycles=req.cycles,
                                   config={"seed": req.seed},
                                   stream=req.stream)
            lost = 0
            if req.stream:
                for frame in client.stream(record["id"]):
                    if frame.get("type") == "end":
                        lost = frame.get("dropped", 0)
            if record["state"] != "done":
                record = client.wait(record["id"])
            result = client.result(record["id"])
            received = time.time()
            latency = time.perf_counter() - t0
        except Exception as exc:  # counted, never fatal
            self.ledger.fail(req.scenario, index, _error(exc))
            return None
        oracle = self.expected[(req.scenario, req.seed)]
        if not self.ledger.check(
                result_digest(result) == oracle.digest(req.cycles),
                req.scenario, index,
                f"seed={req.seed} cycles={req.cycles} digest differs from "
                f"the brute oracle"):
            return None
        return latency, record, received, lost

    def measure(self, seconds: float) -> Measured:
        server, self.server = self.server, None
        try:
            run = self._loop(server.port, max(self.MIN_REQUESTS,
                                              round(self.RATE * seconds)))
        finally:
            server.stop()
        lat = run["latencies"]
        if not lat:
            return {}, {}
        p50 = (1000 * median(lat), "ms")
        rps = (len(lat) / run["seconds"], "1/s")
        return ({"latency_ms": p50, "throughput_per_s": rps},
                {"serve_p50_ms": p50,
                 "serve_p95_ms": (1000 * percentile(lat, 95), "ms"),
                 "serve_rps": rps})

    def unit(self, tracer) -> float:
        """A fixed list of requests against a fresh server -- the traced
        server when tracing, whose counters and layer times are merged."""
        if self.server is not None:
            self.server.stop()
            self.server = None
        dump = None
        if tracer is not None:
            dump = os.path.join(TMP, f"serve-trace-{os.getpid()}.json")
        server = Server(dump)
        try:
            run = self._loop(server.port, self.MIN_REQUESTS)
            if tracer is not None:
                from repro.server import ServerClient

                with ServerClient(port=server.port) as client:
                    stats = client.stats()
        finally:
            server.stop()
        if tracer is None:
            return run["wall"]
        with open(dump) as fh:
            tracer.merge(json.load(fh))
        os.remove(dump)
        waits, execs, lags = [], [], []
        for record, received in run["records"]:
            waits.append(record["started"] - record["submitted"])
            execs.append(record["finished"] - record["started"])
            lags.append(received - record["finished"])
        cache = stats["result_cache"]
        lookups = cache["hits"] + cache["misses"]
        tracer.add("server.requests", run["issued"])
        for key, values in (("server.queue_wait_ms", waits),
                            ("server.execute_ms", execs),
                            ("server.client_lag_ms", lags)):
            tracer.add(key, 1000 * median(values) if values else 0.0)
        tracer.add("server.result_cache.hit_ratio",
                   cache["hits"] / lookups if lookups else 0.0)
        tracer.add("server.coalesced", stats["coalesced"])
        tracer.add("server.trace.dropped", run["dropped"])
        return run["wall"]

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None


WORKLOADS = {w.name: w for w in (SteadySim, Elaborate, ForkCampaign,
                                 ServeMix)}
