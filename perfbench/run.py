"""The repository benchmark: one workload, one seed, one JSON result line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload steady_sim --seed 1 --seconds 10 --trace 0

Workloads: ``steady_sim``, ``elaborate``, ``fork_campaign``, ``serve_mix``
(see ``BENCHMARK.json`` for why each was chosen).  With ``--trace 0`` the
workload measures the end-to-end metrics for about ``--seconds``
seconds; with ``--trace 1`` it runs one fixed unit of work untraced and
then traced, and reports the per-layer metrics and the tracing
overhead.  Every workload reports every metric of ``BENCHMARK.json``.
The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``.  The line before it,
``DETAIL {...}``, holds the figures only one workload has: its own
end-to-end figures (``rtl_sweep_cps``, ``typecheck_s``,
``faults_per_s``, ``serve_p95_ms``, ...) or, traced, the times of the
layers only it exercises.  A failed operation also prints a ``REPLAY``
line naming workload, seed, scenario and op.

The benchmark runs the in-tree package under ``src/``; without it the
command exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

# no REPRO_* knob may steer a measurement: scrub them before the
# package is imported (children get the same scrubbed environment)
for _key in [k for k in os.environ if k.startswith("REPRO_")]:
    del os.environ[_key]


def _load_package() -> bool:
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        return False
    sys.path[:0] = [SRC, HERE]
    import repro

    return os.path.dirname(os.path.abspath(repro.__file__)) == \
        os.path.join(SRC, "repro")


def _as_metrics(values: dict, names) -> dict:
    return {name: {"value": values.get(name, 0), "unit": unit}
            for name, unit, _better in names}


def _traced(workload):
    """The per-layer metrics and the workload-specific layer times."""
    import cProfile

    from common import TMP
    from tracer import PER_LAYER, WORKLOAD_TIMES, Tracer

    untraced = workload.unit(None)
    dump_dir = os.path.join(TMP, f"trace-{os.getpid()}")
    os.makedirs(dump_dir, exist_ok=True)
    tracer = Tracer(dump_dir)
    tracer.install()
    profile = cProfile.Profile()
    profile.enable()
    try:
        traced = workload.unit(tracer)
    finally:
        profile.disable()
        tracer.uninstall()
    tracer.add_profile(profile)
    tracer.merge_child_dumps()
    shutil.rmtree(dump_dir, ignore_errors=True)
    values = tracer.metrics()
    attempts = values.get("y86.instret", 0)
    values["y86.cpi"] = values.get("y86.cycles", 0) / attempts \
        if attempts else 0.0
    values["trace.untraced_s"] = untraced
    values["trace.traced_s"] = traced
    values["trace.overhead_s"] = traced - untraced
    values["trace.overhead_ratio"] = (traced - untraced) / untraced
    return _as_metrics(values, PER_LAYER), \
        _as_metrics(values, WORKLOAD_TIMES)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not _load_package():
        print(f"error: the repro package is not under {SRC}",
              file=sys.stderr)
        return 2

    from common import Ledger, median, peak_rss_mb
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    ledger = Ledger(args.workload, args.seed)
    workload = WORKLOADS[args.workload](args.seed, ledger)
    try:
        # set up several times and keep the median: a later change that
        # moves work into set-up shows in setup_s (a traced run reports
        # no setup_s and sets up once)
        setups = [workload.setup() for _ in range(1 if args.trace else 5)]
        workload.prepare()
        if args.trace:
            metrics, detail = _traced(workload)
        else:
            measured, own = workload.measure(args.seconds)
            workload.close()
            measured["setup_s"] = (median(setups), "s")
            measured["peak_rss_mb"] = (peak_rss_mb(), "MiB")
            metrics, detail = ({name: {"value": value, "unit": unit}
                                for name, (value, unit) in part.items()}
                               for part in (measured, own))
    finally:
        workload.close()
    print("DETAIL " + json.dumps(detail))
    print(json.dumps({
        "correct": ledger.mismatched == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
