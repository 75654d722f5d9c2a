"""``python -m repro serve`` under the benchmark's tracer.

Usage: ``python perfbench/serve_traced.py --dump PATH serve [options]``.
Everything after ``--dump PATH`` is handed to the ``repro`` CLI.  Each
job-queue worker thread and the event-loop thread is profiled; after a
clean shutdown the counters and per-layer self times are written to
``PATH`` as JSON for the benchmark to merge.
"""

from __future__ import annotations

import cProfile
import functools
import json
import os
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

from tracer import Tracer  # noqa: E402


def main(argv) -> int:
    if len(argv) < 2 or argv[0] != "--dump":
        print(__doc__, file=sys.stderr)
        return 2
    dump, rest = argv[1], argv[2:]

    import repro.__main__ as cli
    from repro.server.jobs import JobQueue

    tracer = Tracer()
    tracer.install()
    profiles = []
    lock = threading.Lock()
    original = JobQueue._worker_loop

    @functools.wraps(original)
    def worker_loop(queue):
        profile = cProfile.Profile()
        with lock:
            profiles.append(profile)
        profile.enable()
        try:
            return original(queue)
        finally:
            profile.disable()

    JobQueue._worker_loop = worker_loop
    main_profile = cProfile.Profile()
    main_profile.enable()
    try:
        code = cli.main(rest)
    finally:
        main_profile.disable()
        JobQueue._worker_loop = original
        tracer.uninstall()
    tracer.add_profile(main_profile)
    for profile in profiles:
        tracer.add_profile(profile)
    with open(dump, "w") as fh:
        json.dump(tracer.metrics(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
