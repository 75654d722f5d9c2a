"""Golden pin of the compile-side decisions the timing oracle drives.

For every design with a verdict the paper states (the list the benchmark
checks, ``perfbench/oracles.py``) and both Table 2 unsafe/safe pairs,
``tests/golden/typecheck_verdicts.json`` records:

* the ``check_process`` verdict, the class and full text of every error,
  and the report notes;
* for every thread, what ``optimize()`` makes of its one-iteration event
  graph: the event list, the original-to-optimized id mapping and the
  events each pass removed.

Any change to how ``<=G``/``<G`` are decided (case enumeration, caching,
relevance pruning) must leave all of it byte-identical.  Regenerate only
for an intended change of verdicts, and say why in the commit::

    PYTHONPATH=src python tests/test_typecheck_golden.py
"""

from __future__ import annotations

import json
import os
import sys
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "golden", "typecheck_verdicts.json")
PERFBENCH = os.path.join(os.path.dirname(HERE), "perfbench")


def _designs():
    if PERFBENCH not in sys.path:
        sys.path.append(PERFBENCH)
    import oracles

    return oracles.typecheck_designs(), oracles.typecheck_pairs()


def _event_row(ev) -> list:
    return [ev.eid, ev.kind.value, list(ev.preds), ev.delay, ev.endpoint,
            ev.message, ev.direction.value if ev.direction else None,
            ev.static_slack, ev.conditional, ev.cond_id, ev.polarity,
            ev.note, [repr(a) for a in ev.actions]]


def _optimized(process) -> List[dict]:
    from repro.core.graph_builder import GraphBuilder
    from repro.core.optimize import optimize

    threads = []
    for thread in process.threads:
        built = GraphBuilder(process, thread).build(iterations=1)
        graph, mapping, stats = optimize(built.graph)
        threads.append({
            "events": [_event_row(ev) for ev in graph.events],
            "mapping": sorted([k, v] for k, v in mapping.items()),
            "removed": dict(stats.removed),
        })
    return threads


def _report(report) -> dict:
    return {
        "ok": report.ok,
        "errors": [[type(e).__name__, str(e)] for e in report.errors],
        "notes": list(report.notes),
        "threads": _optimized(report.process),
    }


def snapshot() -> Dict[str, dict]:
    """The record the golden file holds, computed from the current code."""
    from repro import check_process
    from repro.harness import table2

    designs, pairs = _designs()
    out: Dict[str, dict] = {}
    for label, factory, _safe in designs:
        out[label] = _report(check_process(factory()))
    real = table2.check_process
    for label, case in pairs:
        reports = []

        def recording(process, *args, **kwargs):
            report = real(process, *args, **kwargs)
            reports.append(report)
            return report

        table2.check_process = recording
        try:
            case()
        finally:
            table2.check_process = real
        for report in reports:
            out[f"{label}/{report.process.name}"] = _report(report)
    return out


def _dump(record: Dict[str, dict]) -> str:
    return json.dumps(record, indent=1, sort_keys=True) + "\n"


def test_verdicts_and_optimizer_output_match_golden():
    with open(GOLDEN) as f:
        golden = json.load(f)
    current = json.loads(_dump(snapshot()))
    assert sorted(current) == sorted(golden)
    for label in golden:
        assert current[label] == golden[label], label


if __name__ == "__main__":
    with open(GOLDEN, "w") as f:
        f.write(_dump(snapshot()))
    print(f"wrote {GOLDEN}")
