"""coxcat benchmark: cold-process workloads with per-layer tracing.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload maps --seed 1 --seconds 60 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one table each

Every rep runs in a fresh worker process (worker.py), because the caches in
coxcat (``models.enumerate_family``, ``models.type_census``,
``core._nc_list``, ``typemaps._rho_index``) would turn a repeated call in one
process into a lookup, while every CLI user pays the cold cost.  Reps repeat
until the next one would overrun ``--seconds`` (at least MIN_REPS).  Each
end-to-end time is that of the best rep (see ``summarise``); the medians over
reps go to the report file in perfbench/out/ beside them.

With ``--trace 1`` the run makes UNTRACED_REPS untraced reps and one traced
rep, prints the per-layer metrics of the traced rep and the tracing overhead,
and writes the spans to perfbench/out/.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  Host-noise
diagnostics (steal time, load average, a fixed calibration loop timed before
and after) are printed beside every run and never gated.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

import layers

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKER = os.path.join(HERE, "worker.py")

WORKLOADS = ("enumerate", "maps", "verify", "series")
MIN_REPS = 3
UNTRACED_REPS = 3  # beside the traced rep; their best wall_s is the base of trace.overhead_s
REP_TIMEOUT_S = 150.0
RUN_LIMIT_S = 150.0  # a run never starts a rep after this, whatever MIN_REPS says
CALIBRATION_LOOPS = 2_000_000

# (name, unit) of every end-to-end metric, in print order
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("objects_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


# ---------------------------------------------------------------------------
# Host-noise diagnostics (read-only, never gated)


def _steal_jiffies():
    try:
        with open("/proc/stat") as f:
            return int(f.readline().split()[8])
    except (OSError, IndexError, ValueError):
        return None


def _loadavg():
    try:
        with open("/proc/loadavg") as f:
            return [float(x) for x in f.read().split()[:3]]
    except (OSError, ValueError):
        return None


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop; drifts with host contention."""
    t0 = time.perf_counter()
    x = 0
    for i in range(CALIBRATION_LOOPS):
        x += i & 7
    return time.perf_counter() - t0


def host_snapshot() -> dict:
    return {"steal_jiffies": _steal_jiffies(), "loadavg": _loadavg(), "calibration_s": calibrate()}


def host_info() -> dict:
    model = None
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": model, "python": platform.python_version()}


def noise_report(before: dict, after: dict) -> dict:
    steal = None
    if before["steal_jiffies"] is not None and after["steal_jiffies"] is not None:
        steal = after["steal_jiffies"] - before["steal_jiffies"]
    return {
        "steal_jiffies_delta": steal,
        "loadavg_before": before["loadavg"],
        "loadavg_after": after["loadavg"],
        "calibration_s_before": before["calibration_s"],
        "calibration_s_after": after["calibration_s"],
    }


# ---------------------------------------------------------------------------
# Reps


def percentile(values, p: float) -> float:
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[max(0, math.ceil(p * len(s)) - 1)]


def run_worker(workload: str, seed: int, spans: str | None = None) -> dict:
    """One rep in a fresh process; a crash is reported as a rep with errors."""
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed), "--src", SRC]
    if spans:
        cmd += ["--spans", spans]
    env = dict(os.environ, PYTHONHASHSEED="0")
    t0 = monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"crashed": f"timed out after {REP_TIMEOUT_S:.0f} s", "duration_s": monotonic() - t0}
    duration = monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = (proc.stderr.strip().splitlines() or ["no output"])[-1]
        return {"crashed": f"exit code {proc.returncode}: {tail}", "duration_s": duration}
    try:
        rep = json.loads(lines[-1])
    except json.JSONDecodeError:
        return {"crashed": "unreadable worker output", "duration_s": duration}
    rep["setup_s"] = rep["timed_start"] - t0
    rep["duration_s"] = duration
    return rep


def summarise(reps: list[dict], reduce=min) -> dict:
    """Per-rep figures reduced over the reps that completed.

    Times take the best rep (``reduce=min``), and each call's latency its
    best rep before the percentiles are read: contention on a shared host
    only ever slows a rep, by up to half, in phases lasting seconds, and CPU
    time rises with wall time, so the least-contended rep is the steady
    estimate of the program's own cost.  Memory takes the median.
    """
    ok = [r for r in reps if "crashed" not in r]
    if not ok:
        return {}
    # Every rep makes the same calls on the same inputs, so call i of one rep
    # is call i of the next; a call's latency is reduced over the reps first.
    calls = [reduce(col) for col in zip(*(r["latencies_s"] for r in ok))]
    return {
        "setup_s": reduce(r["setup_s"] for r in ok),
        "wall_s": reduce(r["wall_s"] for r in ok),
        "objects_per_s": 1.0 / reduce(r["wall_s"] / r["objects"] if r["objects"] else math.inf for r in ok),
        "latency_p50_ms": 1e3 * percentile(calls, 0.50) if calls else 0.0,
        "latency_p99_ms": 1e3 * percentile(calls, 0.99) if calls else 0.0,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in ok),
    }


def tally(reps: list[dict]) -> tuple[int, int, list[str]]:
    """attempted, failed, errors; a crashed rep fails as many ops as a full rep."""
    full = max((r["attempted"] for r in reps if "crashed" not in r), default=1)
    attempted = failed = 0
    errors: list[str] = []
    for r in reps:
        if "crashed" in r:
            attempted += full
            failed += full
            errors.append(r["crashed"])
        else:
            attempted += r["attempted"]
            failed += r["failed"]
            errors += r["errors"]
    return attempted, failed, errors


def timed_reps(workload: str, seed: int, seconds: float) -> list[dict]:
    reps: list[dict] = []
    start = monotonic()
    while True:
        reps.append(run_worker(workload, seed))
        elapsed = monotonic() - start
        last = reps[-1]["duration_s"]
        if elapsed + last > RUN_LIMIT_S:
            break
        if len(reps) >= MIN_REPS and elapsed + last > seconds:
            break
    return reps


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    os.makedirs(OUT, exist_ok=True)
    before = host_snapshot()
    result: dict = {"workload": workload, "seed": seed, "trace": int(trace), "host": host_info()}
    if trace:
        spans = os.path.join(OUT, f"spans-{workload}-seed{seed}.tsv.gz")
        plain = [run_worker(workload, seed) for _ in range(UNTRACED_REPS)]
        traced = run_worker(workload, seed, spans)
        reps = plain + [traced]
        untraced = summarise(plain)
        metrics = {}
        if "crashed" not in traced:
            metrics = dict(traced["traced"])
            metrics["trace.wall_s"] = traced["wall_s"]
            metrics["trace.unattributed_s"] = traced["wall_s"] - traced["self_sum_s"]
            if untraced:
                metrics["trace.overhead_s"] = traced["wall_s"] - untraced["wall_s"]
        result["spans_file"] = os.path.relpath(spans, ROOT)
        result["untraced"] = untraced
    else:
        reps = timed_reps(workload, seed, seconds)
        metrics = summarise(reps)
        result["median_over_reps"] = summarise(reps, statistics.median)
    result["noise"] = noise_report(before, host_snapshot())
    attempted, failed, errors = tally(reps)
    result.update(
        reps=len(reps),
        samples=[len(r.get("latencies_s", ())) for r in reps],
        attempted=attempted,
        failed=failed,
        errors=errors[:20],
        metrics=metrics,
        rep_details=[{k: v for k, v in r.items() if k not in ("latencies_s", "traced")} for r in reps],
    )
    with open(os.path.join(OUT, f"{workload}-seed{seed}-trace{int(trace)}.json"), "w") as f:
        json.dump(result, f, indent=1)
    return result


def expected_metrics(trace: bool) -> tuple[list[tuple[str, str]], list[tuple[str, str]]]:
    """(name, unit) of the metrics printed, and of those in the final line."""
    if not trace:
        return list(END_TO_END), list(END_TO_END)
    printed = [(name, unit) for name, unit, _better, _how, _moves in layers.METRICS]
    return printed, [(m["name"], m["unit"]) for m in layers.per_layer_entries()]


def print_table(result: dict, names: list[tuple[str, str]]) -> None:
    print(f"workload {result['workload']}  seed {result['seed']}  trace {result['trace']}  "
          f"reps {result['reps']} (fresh process each)  latency samples per rep {result['samples']}")
    for name, unit in names:
        v = result["metrics"].get(name)
        print(f"  {name:42s} {'missing' if v is None else format(v, '.6g'):>14s} {unit}")
    att, fail = result["attempted"], result["failed"]
    print(f"  {'error_rate':42s} {fail / att if att else 1.0:>14.6g} ratio ({fail} failed of {att} ops)")
    for e in result["errors"][:5]:
        print(f"  error: {e}")
    n, h = result["noise"], result["host"]
    print(f"  host: nproc {h['nproc']}, {h['cpu']}, Python {h['python']}")
    print(f"  noise (not gated): steal +{n['steal_jiffies_delta']} jiffies, loadavg {n['loadavg_before']} -> "
          f"{n['loadavg_after']}, calibration loop {n['calibration_s_before']:.4f} s -> "
          f"{n['calibration_s_after']:.4f} s")


def final_line(result: dict, names: list[tuple[str, str]]) -> dict:
    return {
        "correct": result["failed"] == 0 and not result["errors"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": result["metrics"][name], "unit": unit} for name, unit in names},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="coxcat benchmark", epilog=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=60.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "coxcat", "cli.py")):
        print(f"error: no coxcat package under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    printed, listed = expected_metrics(bool(args.trace))
    chosen = WORKLOADS if args.workload == "all" else (args.workload,)
    lines = {}
    for w in chosen:
        result = run_workload(w, args.seed, args.seconds, bool(args.trace))
        print_table(result, printed)
        missing = [n for n, _ in listed if n not in result["metrics"]]
        if missing:
            print(f"error: {w}: no completed rep to measure ({', '.join(result['errors'][:3])})", file=sys.stderr)
            return 1
        lines[w] = final_line(result, listed)
    print(json.dumps(lines[chosen[0]] if len(chosen) == 1 else lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
