"""One cold rep of one workload, in a fresh process.

Run by run.py as ``python3 perfbench/worker.py --workload W --seed S --src DIR
[--spans FILE]``.  It imports coxcat from DIR, builds the inputs, runs the
timed phase (traced when --spans is given), checks the outputs and prints
one JSON object on its last line of stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

import layers
import workloads
from tracer import Tracer


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def import_coxcat(src: str):
    """Import every coxcat module from ``src``; refuse any other copy."""
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import coxcat.cli  # noqa: F401  (imports every module of the package)

    import_s = time.perf_counter() - t0
    here = os.path.realpath(os.path.dirname(coxcat.cli.__file__))
    if here != os.path.realpath(os.path.join(src, "coxcat")):
        raise SystemExit(f"coxcat was imported from {here}, not from {src}")
    return import_s


def run_rep(workload: str, seed: int, tracer: Tracer | None = None) -> dict:
    """Prepare, time and check one rep in this process; coxcat must be importable."""
    from coxcat import models

    prepare, run, check = workloads.WORKLOADS[workload]
    cache = models.enumerate_family.cache_info
    cold = cache().currsize == 0
    state = prepare(seed)
    if tracer is None:
        timed_start = monotonic()
        out = run(state, None)
        wall = monotonic() - timed_start
    else:
        tracer.install()
        try:
            timed_start = monotonic()
            with tracer.span("bench.run"):
                out = run(state, tracer)
            wall = monotonic() - timed_start
        finally:
            tracer.uninstall()
    attempted, failed, errors = check(state, out)
    if not cold:
        errors.insert(0, "enumerate_family cache was not empty at the start of the rep")
        failed = attempted
    info = cache()
    lookups = info.hits + info.misses
    return {
        "timed_start": timed_start,
        "wall_s": wall,
        "latencies_s": out.latencies,
        "objects": out.objects,
        "attempted": attempted,
        "failed": failed,
        "errors": errors[:10],
        "cache_hit_ratio": info.hits / lookups if lookups else 0.0,
        "series_terms": out.objects if workload == "series" else 0,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--src", required=True, help="directory holding the coxcat package")
    ap.add_argument("--spans", help="trace the timed phase and write its spans here")
    args = ap.parse_args(argv)

    import_s = import_coxcat(args.src)
    tracer = Tracer(layers.GROUPS) if args.spans else None
    rep = run_rep(args.workload, args.seed, tracer)
    rep["import_s"] = import_s
    rep["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        rep["traced"] = layers.traced_metrics(tracer, rep)
        rep["self_sum_s"] = sum(tracer.layer_self)
        rep["spans_written"] = tracer.write_spans(args.spans)
    print(json.dumps(rep))
    return 0


if __name__ == "__main__":
    sys.exit(main())
