"""One workload run in a fresh interpreter; prints one JSON line.

    python3 perfbench/child.py <workload> <seed> <timed|twin|traced>

``timed`` is the plain run the end-to-end metrics come from, ``twin``
arms the sanitizer (``config.validate`` or ``run_trace(check=True)``),
``traced`` wraps every layer with :class:`tracer.Tracer`. The parent
(``run.py``) sets the environment and records the launch time; this
process reports the clock reading at the timed call, so everything
before it, imports included, is set-up.
"""

from __future__ import annotations

import json
import resource
import sys
import time


def main(argv: list[str]) -> int:
    name, seed, mode = argv[1], int(argv[2]), argv[3]
    from tracer import Tracer
    from workloads import WORKLOADS, setup

    tracer = None
    if mode == "traced":
        tracer = Tracer().install()
    elif WORKLOADS[name].kind == "jobs":
        # Count profile_job misses only, so a timed run_trace that
        # profiles (and so leaks set-up work into run_s) is caught.
        tracer = Tracer().install(layers=("jobs.profile",))
    prepared = setup(name, seed, check=mode == "twin")
    report: dict = {}
    if tracer is not None:
        report["trace_setup"] = tracer.snapshot()
        tracer.reset()
    report["t_call"] = time.monotonic()
    t0 = time.perf_counter()
    result = prepared.run()
    report["run_s"] = time.perf_counter() - t0
    report["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    problems = prepared.problems(result)
    if tracer is not None:
        report["trace"] = tracer.snapshot()
        leaked = report["trace"]["counters"]["jobs.profile_misses"]
        if leaked:
            problems.append(f"run_trace profiled {leaked} job specs "
                            "(profiling leaked into run_s)")
    report["outcome"] = prepared.outcome(result)
    report["problems"] = problems
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
