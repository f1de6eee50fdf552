"""The four benchmark workloads: inputs from a seed, a timed phase, an oracle.

Each workload has three parts:

* ``prepare(seed)`` builds the inputs (counted in set-up time);
* ``run(state, tracer)`` is the timed phase; it records one latency sample
  per call into coxcat and keeps every output;
* ``check(state, out)`` compares the outputs with oracles the benchmark owns
  and returns ``(attempted, failed, errors)``.

An op is one (family, n) call for ``enumerate``, one map call for ``maps``,
one verification check for ``verify`` and one series identity for ``series``.
No oracle calls the code it checks.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
import re
import time

import oracles

clock = time.perf_counter


class Outcome:
    """Outputs and per-call latencies of one timed phase."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.latencies: list[float] = []
        self.outputs: dict = {}
        self.errors: list[str] = []
        self.objects = 0

    def call(self, fn, *args):
        """Time one call into coxcat; an exception is recorded, not raised."""
        if self.tracer is not None:
            self.tracer.op += 1
        t0 = clock()
        try:
            return fn(*args)
        except Exception as e:  # a failing op is counted, the run goes on
            self.errors.append(f"{getattr(fn, '__name__', fn)}: {type(e).__name__}: {e}")
            return None
        finally:
            self.latencies.append(clock() - t0)


# ---------------------------------------------------------------------------
# enumerate: cold enumeration of every family


ENUM_SIZES = {"nc_a": 11, "nn_a": 11, "pi_b": 6, "nc_b": 6, "nn_b": 6, "nn_c": 6, "nc_d": 6, "nn_d": 6}
ENUM_SAMPLE = 25


def enumerate_prepare(seed: int) -> dict:
    order = sorted(ENUM_SIZES)
    random.Random(seed).shuffle(order)
    return {"seed": seed, "order": order}


def enumerate_run(state: dict, tracer) -> Outcome:
    from coxcat import models

    out = Outcome(tracer)
    for fam in state["order"]:
        items = out.call(models.enumerate_family, fam, ENUM_SIZES[fam])
        out.outputs[fam] = items
        out.objects += len(items) if items is not None else 0
    return out


def enumerate_check(state: dict, out: Outcome):
    from coxcat.core import pattern_free

    errors = list(out.errors)
    failed = 0
    rng = random.Random(state["seed"] + 1)
    for fam in state["order"]:
        n = ENUM_SIZES[fam]
        items = out.outputs.get(fam)
        problem = None
        if items is None:
            problem = "no output"
        elif len(items) != oracles.family_count(fam, n):
            problem = f"{len(items)} members, expected {oracles.family_count(fam, n)}"
        elif any(items[i].blocks >= items[i + 1].blocks for i in range(len(items) - 1)):
            problem = "output is not sorted and duplicate-free"
        else:
            for p in rng.sample(list(items), min(ENUM_SAMPLE, len(items))):
                if p.n != n or not oracles.in_family(fam, p.blocks, n, pattern_free):
                    problem = f"{p.blocks} is not a member"
                    break
        if problem:
            failed += 1
            errors.append(f"{fam} n={n}: {problem}")
    return len(state["order"]), failed, errors


# ---------------------------------------------------------------------------
# maps: validated round trips on large random objects

MAPS_N = range(8, 49)
# Each size in MAPS_N occurs this often among the pairs and among the
# triples, so that seeds differ in the objects drawn, not in their sizes.
MAPS_PER_SIZE = 3


def maps_inputs(seed: int) -> list[dict]:
    """Marked pairs and triples as JSON objects, from the seed alone."""
    rng = random.Random(seed)
    pair_sizes = list(MAPS_N) * MAPS_PER_SIZE
    triple_sizes = list(pair_sizes)
    rng.shuffle(pair_sizes)
    rng.shuffle(triple_sizes)
    out = []
    for n_pair, n_triple in zip(pair_sizes, triple_sizes):
        pair = oracles.random_marked(rng, n_pair)
        triple = oracles.random_marked(rng, n_triple)
        triple["epsilon"] = rng.choice((-1, 0, 1)) if triple["marked"] else 0
        out.append({"pair": pair, "triple": triple})
    return out


def maps_prepare(seed: int) -> dict:
    from coxcat import interpret, jsonio as J

    inputs = maps_inputs(seed)
    for item in inputs:
        p = interpret.phi_nc_b_inverse(J.marked_pair_from_obj(item["pair"]))
        item["b"] = J.signed_partition_to_obj(p)
        q = interpret.phi_nc_d_inverse(J.marked_triple_from_obj(item["triple"]))
        item["d"] = J.signed_partition_to_obj(q)
    return {"seed": seed, "inputs": inputs}


def _round_trip(out: Outcome, fwd, inv, x, dump_fwd, parse_fwd, dump_back):
    """fwd, serialise, parse, inv, serialise: returns (forward obj, back obj)."""
    y = out.call(fwd, x)
    if y is None:
        out.errors.append(f"{inv.__name__}: not attempted, the forward map failed")
        return None, None
    y_obj = dump_fwd(y)
    z = out.call(inv, parse_fwd(y_obj))
    return y_obj, (dump_back(z) if z is not None else None)


def maps_run(state: dict, tracer) -> Outcome:
    from coxcat import encode, interpret, jsonio as J, typemaps

    def composed(direction, fam):
        # looked up per call, so a rebinding of typemaps.nc_to_nn is seen
        def f(p):
            return getattr(typemaps, direction)(fam, p)

        f.__name__ = f"{direction}_{fam.lower()}"
        return f

    out = Outcome(tracer)
    results = out.outputs["trips"] = []
    signed_in, signed_out = J.signed_partition_from_obj, J.signed_partition_to_obj
    set_in, set_out = J.set_partition_from_obj, J.set_partition_to_obj
    pair_in, pair_out = J.marked_pair_from_obj, J.marked_pair_to_obj
    triple_in, triple_out = J.marked_triple_from_obj, J.marked_triple_to_obj
    for item in state["inputs"]:
        p, q = signed_in(item["b"]), signed_in(item["d"])
        m, t = pair_in(item["pair"]), triple_in(item["triple"])
        sigma = set_in(item["pair"]["sigma"])
        # name: (forward, inverse, input, dump forward, parse forward, dump inverse)
        trips = {
            "nc_nn_B": (composed("nc_to_nn", "B"), composed("nn_to_nc", "B"), p, signed_out, signed_in, signed_out),
            "nc_nn_C": (composed("nc_to_nn", "C"), composed("nn_to_nc", "C"), p, signed_out, signed_in, signed_out),
            "psi_b": (encode.psi_b, encode.psi_b_inverse, p, J.b_pair_to_obj, J.b_pair_from_obj, signed_out),
            "phi_nc_b": (interpret.phi_nc_b, interpret.phi_nc_b_inverse, p, pair_out, pair_in, signed_out),
            "g_map": (encode.g_map, encode.g_map_inverse, m, J.path_to_obj, J.path_from_obj, pair_out),
            "f_map": (encode.f_map, encode.f_map_inverse, m, J.tableau_to_obj, J.tableau_from_obj, pair_out),
            "xi": (typemaps.xi, typemaps.xi, sigma, set_out, set_in, set_out),
            "rho": (typemaps.rho, typemaps.rho_inverse, sigma, set_out, set_in, set_out),
            "nc_nn_D": (composed("nc_to_nn", "D"), composed("nn_to_nc", "D"), q, signed_out, signed_in, signed_out),
            "psi_d": (encode.psi_d, encode.psi_d_inverse, q, J.d_pair_to_obj, J.d_pair_from_obj, signed_out),
            "phi_nc_d": (interpret.phi_nc_d, interpret.phi_nc_d_inverse, q, triple_out, triple_in, signed_out),
            "kappa": (encode.kappa, encode.kappa_inverse, t, pair_out, pair_in, triple_out),
        }
        results.append({name: _round_trip(out, *args) for name, args in trips.items()})
    out.objects = len(out.latencies)
    return out


# Which input object each round trip must reproduce.
_TRIP_SOURCE = {
    "nc_nn_B": "b", "nc_nn_C": "b", "psi_b": "b", "phi_nc_b": "b", "g_map": "pair", "f_map": "pair",
    "xi": "sigma", "rho": "sigma", "nc_nn_D": "d", "psi_d": "d", "phi_nc_d": "d", "kappa": "triple",
}


def maps_check(state: dict, out: Outcome):
    """Two ops per round trip; a failed check fails both."""
    errors = list(out.errors)
    failed = 0
    attempted = 0
    for i, (item, trips) in enumerate(zip(state["inputs"], out.outputs["trips"])):
        source = dict(item, sigma=item["pair"]["sigma"])
        for name, (fwd_obj, back_obj) in trips.items():
            attempted += 2
            src = source[_TRIP_SOURCE[name]]
            problem = None
            if fwd_obj is None or back_obj is None:
                problem = "a call failed"
            elif back_obj != src:
                problem = "round trip does not return the input"
            elif name.startswith("nc_nn") and (
                oracles.signed_type(fwd_obj["blocks"]) != oracles.signed_type(src["blocks"])
            ):
                problem = "signed type not preserved"
            elif name == "phi_nc_b" and fwd_obj != item["pair"]:
                problem = "forward image is not the generating marked pair"
            elif name == "phi_nc_d" and fwd_obj != item["triple"]:
                problem = "forward image is not the generating marked triple"
            elif name == "xi" and oracles.block_sizes(fwd_obj["blocks"]) != oracles.block_sizes(src["blocks"]):
                problem = "xi does not preserve the block sizes"
            elif name == "rho" and not oracles.rho_image_ok(src["blocks"], fwd_obj["blocks"]):
                problem = "rho image is not nonnesting with the same block maxima and sizes"
            if problem:
                failed += 2
                errors.append(f"input {i} {name}: {problem}")
    return attempted, failed, errors


# ---------------------------------------------------------------------------
# verify: the end-to-end verification run

VERIFY_MAX_N = 5
VERIFY_SUITES = ("core", "encode", "interpret", "models", "series", "signed", "typemaps")
VERIFY_ARGV = ["verify", "--max-n", str(VERIFY_MAX_N), "--suite", "all", "--jobs", "1"]
_SUITE_LINE = re.compile(r"^(\w+): (pass|FAIL) \((\d+) checks\)$")


def verify_prepare(seed: int) -> dict:
    return {"seed": seed}


def verify_run(state: dict, tracer) -> Outcome:
    from coxcat import cli

    out = Outcome(tracer)
    buf, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
        out.outputs["rc"] = out.call(cli.main, VERIFY_ARGV)
    out.outputs["stdout"] = buf.getvalue()
    out.outputs["stderr"] = err.getvalue()
    out.objects = sum(int(m.group(3)) for m in map(_SUITE_LINE.match, buf.getvalue().splitlines()) if m)
    return out


def verify_check(state: dict, out: Outcome):
    errors = list(out.errors)
    lines = out.outputs["stdout"].splitlines()
    suites = {}
    for line in lines:
        m = _SUITE_LINE.match(line)
        if m:
            suites[m.group(1)] = (m.group(2), int(m.group(3)))
    attempted = sum(k for _, k in suites.values())
    failed = sum(1 for line in lines if line.startswith("  FAIL"))
    if out.outputs["rc"] != 0:
        errors.append(f"exit code {out.outputs['rc']}: {out.outputs['stderr'].strip()[:200]}")
    for name, (status, k) in suites.items():
        if status != "pass":
            errors.append(f"suite {name} reads {status}")
    if set(suites) != set(VERIFY_SUITES):
        errors.append(f"suites reported: {sorted(suites)}")
    if errors and not failed:
        failed = max(attempted, 1)
    return max(attempted, 1), min(failed, max(attempted, 1)), errors


# ---------------------------------------------------------------------------
# series: exact Fraction arithmetic

SERIES_ORDER = 28


def series_prepare(seed: int) -> dict:
    return {"seed": seed}


def series_run(state: dict, tracer) -> Outcome:
    from coxcat import series

    out = Outcome(tracer)
    o = SERIES_ORDER
    out.outputs["closed"] = out.call(series.series_f_closed, o)
    out.outputs["factored"] = out.call(series.series_f_factored, o)
    for which in "CBA":
        out.outputs[which] = out.call(series.series, which, o)
    out.objects = sum(sum(len(p) for p in s.coeffs) for s in out.outputs.values() if s is not None)
    return out


def series_check(state: dict, out: Outcome):
    o = SERIES_ORDER
    cat = [math.comb(2 * n, n) // (n + 1) for n in range(o + 1)]
    res = out.outputs

    def coeffs(key):
        s = res.get(key)
        return None if s is None else [{k: v for k, v in p.items() if v} for p in s.coeffs]

    closed, factored = coeffs("closed"), coeffs("factored")
    c, b, a = coeffs("C"), coeffs("B"), coeffs("A")
    identities = {
        "closed and factored routes agree": closed is not None and closed == factored,
        "coefficients are symmetric under x <-> y": closed is not None
        and all(p.get((j, i)) == v for p in closed for (i, j), v in p.items()),
        "F(1, 1, z) is the Catalan series": closed is not None and [sum(p.values()) for p in closed] == cat,
        "C is the Catalan series": c is not None and [sum(p.values()) for p in c] == cat,
        "B counts connected partitions, Catalan(n - 1)": b is not None
        and [sum(p.values()) for p in b] == [0] + cat[:-1],
        "A(1, z) is the Catalan series": a is not None and [sum(p.values()) for p in a] == cat,
    }
    errors = list(out.errors) + [name for name, ok in identities.items() if not ok]
    return len(identities), sum(1 for ok in identities.values() if not ok), errors


WORKLOADS = {
    "enumerate": (enumerate_prepare, enumerate_run, enumerate_check),
    "maps": (maps_prepare, maps_run, maps_check),
    "verify": (verify_prepare, verify_run, verify_check),
    "series": (series_prepare, series_run, series_check),
}
