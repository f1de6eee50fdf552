"""Per-layer metrics of the traced run, and the end-to-end metric each should move.

Layers are the coxcat modules; ``cli`` covers ``cli``, ``jsonio`` and
``render``.  Every metric here is computed from the tracer's counters (see
tracer.py), except the few the worker measures itself (``cli.import_s``,
``series.terms``, ``models.enumerate_family.cache_hit_ratio``) and the
``trace.*`` figures the runner derives from a traced and an untraced rep.
"""

from __future__ import annotations

from tracer import LAYERS

SUITES = ("core", "signed", "models", "interpret", "typemaps", "series", "encode")

# Metric groups: a group's busy time counts the time at least one of its
# callables is running, and its entries count calls made from outside it.
GROUPS = {
    "core.enum": ("core.partitions", "core.noncrossing_partitions", "core.nonnesting_partitions"),
    "core.membership": ("core.noncrossing_wrt", "core.nonnesting_wrt"),
    "core.from_blocks": ("core.SetPartition.from_blocks",),
    "core.special_blocks": ("core.special_blocks", "core.nonnested_blocks", "core.nonaligned_blocks"),
    "signed.from_blocks": ("signed.SignedPartition.from_blocks",),
    "signed.compose_triple": ("signed.compose_triple",),
    "signed.enum": ("signed.enumerate_signed",),
    "models.is_member": ("models.is_member",),
    "models.validate_marked": ("models.validate_marked",),
    "models.marked_pairs": ("models.marked_pairs", "models.marked_triples"),
    "interpret.forward": (
        "interpret.phi_nc_b", "interpret.phi_nn_b", "interpret.phi_nn_c", "interpret.phi_nc_d", "interpret.phi_nn_d",
    ),
    "interpret.inverse": (
        "interpret.phi_nc_b_inverse", "interpret.phi_nn_b_inverse", "interpret.phi_nn_c_inverse",
        "interpret.phi_nc_d_inverse", "interpret.phi_nn_d_inverse",
    ),
    "typemaps.xi": ("typemaps.xi",),
    "typemaps.rho": ("typemaps.rho", "typemaps.rho_inverse"),
    "typemaps.decompose": ("typemaps.decompose",),
    "typemaps.nc_to_nn": ("typemaps.nc_to_nn",),
    "typemaps.nn_to_nc": ("typemaps.nn_to_nc",),
    "encode.psi": ("encode.psi_b", "encode.psi_b_inverse", "encode.psi_d", "encode.psi_d_inverse"),
    "encode.tableau_validate": ("encode.tableau_validate",),
    "encode.dyck": ("encode.nc_to_dyck", "encode.dyck_to_nc"),
    "series.mul": ("series.Series.__mul__",),
    "series.inverse": ("series.Series.inverse",),
    "cli.jsonio.parse": tuple(
        "jsonio." + f for f in (
            "set_partition_from_obj", "signed_partition_from_obj", "partition_from_obj", "marked_pair_from_obj",
            "marked_triple_from_obj", "path_from_obj", "tableau_from_obj", "b_pair_from_obj", "d_pair_from_obj",
        )
    ),
    "cli.jsonio.dump": tuple(
        "jsonio." + f for f in (
            "set_partition_to_obj", "signed_partition_to_obj", "marked_pair_to_obj", "marked_triple_to_obj",
            "path_to_obj", "tableau_to_obj", "b_pair_to_obj", "d_pair_to_obj",
        )
    ),
}
GROUPS.update({f"verify.{s}": (f"verify.suite_{s}",) for s in SUITES})

# (metric, unit, better, how it is computed, end-to-end metrics it should move)
_SPECIFIC = [
    ("core.enum.us_per_item", "us", "lower", ("per_item", "core.enum"),
     "enumerate wall_s/objects_per_s; verify wall_s; not maps or series"),
    ("core.enum.items", "count", "lower", ("items", "core.enum"), "enumerate wall_s"),
    ("core.membership.us_per_call", "us", "lower", ("per_call", "core.membership"),
     "maps latency_p99_ms (large k); enumerate wall_s; verify wall_s"),
    ("core.from_blocks.us_per_call", "us", "lower", ("per_call", "core.from_blocks"),
     "maps latency_p99_ms; enumerate wall_s; verify wall_s"),
    ("core.special_blocks.us_per_call", "us", "lower", ("per_call", "core.special_blocks"),
     "maps latency_p99_ms; enumerate wall_s; verify wall_s"),
    ("signed.from_blocks.us_per_call", "us", "lower", ("per_call", "signed.from_blocks"),
     "enumerate wall_s; maps objects_per_s; verify wall_s"),
    ("signed.compose_triple.us_per_call", "us", "lower", ("per_call", "signed.compose_triple"),
     "enumerate wall_s; verify wall_s"),
    ("signed.enum.us_per_item", "us", "lower", ("per_item", "signed.enum"), "enumerate wall_s; verify wall_s"),
    ("models.is_member.us_per_call", "us", "lower", ("per_call", "models.is_member"),
     "enumerate wall_s; maps latency_p50_ms; verify wall_s"),
    ("models.is_member.accept_ratio", "ratio", "higher", ("accept", "models.is_member"),
     "enumerate wall_s (filter waste)"),
    ("models.validate_marked.us_per_call", "us", "lower", ("per_call", "models.validate_marked"),
     "maps latency_p50_ms; verify wall_s"),
    ("models.marked_pairs.us_per_item", "us", "lower", ("per_item", "models.marked_pairs"), "verify wall_s"),
    ("models.enumerate_family.cache_hit_ratio", "ratio", "higher", ("worker", "cache_hit_ratio"),
     "verify wall_s; enumerate peak_rss_mb"),
    ("interpret.forward.us_per_call", "us", "lower", ("per_call", "interpret.forward"),
     "maps objects_per_s; verify wall_s; enumerate through D membership"),
    ("interpret.inverse.us_per_call", "us", "lower", ("per_call", "interpret.inverse"),
     "maps objects_per_s; verify wall_s; enumerate through D membership"),
    ("typemaps.xi.us_per_call", "us", "lower", ("per_call", "typemaps.xi"), "maps latency_p50_ms; verify wall_s"),
    ("typemaps.rho.us_per_call", "us", "lower", ("per_call", "typemaps.rho"), "maps latency_p50_ms; verify wall_s"),
    ("typemaps.decompose.calls", "count", "lower", ("calls", "typemaps.decompose"),
     "maps latency_p50_ms; verify wall_s"),
    ("typemaps.nc_to_nn.us_per_call", "us", "lower", ("per_call", "typemaps.nc_to_nn"),
     "maps latency_p50_ms; verify wall_s"),
    ("typemaps.nn_to_nc.us_per_call", "us", "lower", ("per_call", "typemaps.nn_to_nc"),
     "maps latency_p50_ms; verify wall_s"),
    ("encode.psi.us_per_call", "us", "lower", ("per_call", "encode.psi"), "maps latency_p99_ms"),
    ("encode.tableau_validate.us_per_call", "us", "lower", ("per_call", "encode.tableau_validate"),
     "maps latency_p99_ms"),
    ("encode.dyck.us_per_call", "us", "lower", ("per_call", "encode.dyck"), "maps latency_p99_ms"),
    ("series.mul.calls", "count", "lower", ("calls", "series.mul"), "series wall_s"),
    ("series.mul.us_per_call", "us", "lower", ("per_call", "series.mul"), "series wall_s"),
    ("series.inverse.us_per_call", "us", "lower", ("per_call", "series.inverse"), "series wall_s"),
    ("series.terms", "count", "higher", ("worker", "series_terms"), "series objects_per_s"),
] + [
    (f"verify.{s}.wall_s", "s", "lower", ("busy", f"verify.{s}"), "verify wall_s") for s in SUITES
] + [
    ("cli.import_s", "s", "lower", ("worker", "import_s"), "setup_s (all workloads)"),
    ("cli.jsonio.parse_us_per_obj", "us", "lower", ("per_call", "cli.jsonio.parse"), "maps objects_per_s"),
    ("cli.jsonio.dump_us_per_obj", "us", "lower", ("per_call", "cli.jsonio.dump"), "maps objects_per_s"),
    ("trace.overhead_s", "s", "lower", ("runner", "overhead_s"), "none: traced wall_s minus the best untraced wall_s"),
    ("trace.wall_s", "s", "lower", ("runner", "traced_wall_s"), "none: wall_s of the traced rep"),
    ("trace.unattributed_s", "s", "lower", ("runner", "unattributed_s"),
     "none: traced wall_s minus the sum of self times"),
    ("trace.spans", "count", "lower", ("trace", "spans"), "none: spans recorded in the traced rep"),
]

_PER_LAYER = [
    (f"{layer}.{field}", unit, "lower", (field, layer), f"every workload that runs {layer}")
    for layer in LAYERS
    for field, unit in (("calls", "count"), ("busy_s", "s"), ("self_s", "s"), ("failures", "count"))
]

METRICS = _PER_LAYER + _SPECIFIC

# Times of work that a gated workload (maps or verify) never does: maps runs
# no series, verify suite or enumeration generator, and verify no jsonio.
# They read 0 on every traced run of that workload, so they are printed and
# kept in the report file but not listed in BENCHMARK.json.
UNLISTED = frozenset(
    ["series.busy_s", "series.self_s", "verify.busy_s", "verify.self_s"]
    + ["core.enum.us_per_item", "signed.compose_triple.us_per_call", "signed.enum.us_per_item"]
    + ["models.marked_pairs.us_per_item", "series.mul.us_per_call", "series.inverse.us_per_call"]
    + ["cli.jsonio.parse_us_per_obj", "cli.jsonio.dump_us_per_obj"]
    + [f"verify.{s}.wall_s" for s in SUITES]
)


def per_layer_entries() -> list[dict]:
    """The ``per_layer`` list of BENCHMARK.json: every metric not in UNLISTED."""
    return [
        {"name": name, "unit": unit, "better": better}
        for name, unit, better, _how, _moves in METRICS
        if name not in UNLISTED
    ]


def traced_metrics(tracer, worker: dict) -> dict[str, float]:
    """Every metric above that the worker can compute (all but ``runner`` ones)."""
    layers = tracer.layer_summary()
    out: dict[str, float] = {}
    for name, _unit, _better, (kind, key), _moves in METRICS:
        if kind in ("calls", "busy_s", "self_s", "failures") and key in layers:
            out[name] = layers[key][kind]
            continue
        if kind == "worker":
            out[name] = worker[key]
            continue
        if kind == "trace":
            out[name] = tracer.next_span
            continue
        if kind == "runner":
            continue
        c = tracer.counter("group:" + key)
        if kind == "per_call":
            out[name] = 1e6 * c["busy_s"] / c["entries"] if c["entries"] else 0.0
        elif kind == "per_item":
            out[name] = 1e6 * c["busy_s"] / c["items"] if c["items"] else 0.0
        elif kind == "items":
            out[name] = c["items"]
        elif kind == "calls":
            out[name] = c["calls"]
        elif kind == "accept":
            out[name] = c["accepted"] / c["calls"] if c["calls"] else 0.0
        elif kind == "busy":
            out[name] = c["busy_s"]
        else:
            raise ValueError(f"unknown metric kind {kind!r}")
    return out
