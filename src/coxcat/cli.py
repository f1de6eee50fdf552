"""Command-line interface: enumerate, count, map, series, verify, render."""

from __future__ import annotations

import argparse
import json
import sys

from . import encode, jsonio, models, render, series as series_mod, typemaps, verify
from .core import InternalInvariantError, ValidationError
from .interpret import (
    phi_nc_b,
    phi_nc_b_inverse,
    phi_nc_d,
    phi_nc_d_inverse,
    phi_nn_b,
    phi_nn_b_inverse,
    phi_nn_c,
    phi_nn_c_inverse,
    phi_nn_d,
    phi_nn_d_inverse,
)


def _read_input(path: str):
    text = sys.stdin.read() if path == "-" else open(path).read()
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise ValidationError(f"bad JSON input: {e}") from None


J = jsonio

# name -> (parse input, apply, serialize output)
MAPS = {
    "rho": (J.set_partition_from_obj, typemaps.rho, J.set_partition_to_obj),
    "rho_inverse": (J.set_partition_from_obj, typemaps.rho_inverse, J.set_partition_to_obj),
    "xi": (J.set_partition_from_obj, typemaps.xi, J.set_partition_to_obj),
    "rho_bar": (J.marked_pair_from_obj, typemaps.rho_bar, J.marked_pair_to_obj),
    "rho_bar_inverse": (J.marked_pair_from_obj, typemaps.rho_bar_inverse, J.marked_pair_to_obj),
    "xi_bar": (J.marked_pair_from_obj, typemaps.xi_bar, J.marked_pair_to_obj),
    "xi_bar_inverse": (J.marked_pair_from_obj, typemaps.xi_bar_inverse, J.marked_pair_to_obj),
    "iota_b": (J.marked_pair_from_obj, typemaps.iota_b, J.marked_pair_to_obj),
    "iota_b_inverse": (J.marked_pair_from_obj, typemaps.iota_b_inverse, J.marked_pair_to_obj),
    "iota_d": (J.marked_triple_from_obj, typemaps.iota_d, J.marked_triple_to_obj),
    "iota_d_inverse": (J.marked_triple_from_obj, typemaps.iota_d_inverse, J.marked_triple_to_obj),
    "phi_nc_b": (J.signed_partition_from_obj, phi_nc_b, J.marked_pair_to_obj),
    "phi_nc_b_inverse": (J.marked_pair_from_obj, phi_nc_b_inverse, J.signed_partition_to_obj),
    "phi_nc_d": (J.signed_partition_from_obj, phi_nc_d, J.marked_triple_to_obj),
    "phi_nc_d_inverse": (J.marked_triple_from_obj, phi_nc_d_inverse, J.signed_partition_to_obj),
    "phi_nn_b": (J.signed_partition_from_obj, phi_nn_b, J.marked_pair_to_obj),
    "phi_nn_b_inverse": (J.marked_pair_from_obj, phi_nn_b_inverse, J.signed_partition_to_obj),
    "phi_nn_c": (J.signed_partition_from_obj, phi_nn_c, J.marked_pair_to_obj),
    "phi_nn_c_inverse": (J.marked_pair_from_obj, phi_nn_c_inverse, J.signed_partition_to_obj),
    "phi_nn_d": (J.signed_partition_from_obj, phi_nn_d, J.marked_triple_to_obj),
    "phi_nn_d_inverse": (J.marked_triple_from_obj, phi_nn_d_inverse, J.signed_partition_to_obj),
    "psi_b": (J.signed_partition_from_obj, encode.psi_b, J.b_pair_to_obj),
    "psi_b_inverse": (J.b_pair_from_obj, encode.psi_b_inverse, J.signed_partition_to_obj),
    "psi_d": (J.signed_partition_from_obj, encode.psi_d, J.d_pair_to_obj),
    "psi_d_inverse": (J.d_pair_from_obj, encode.psi_d_inverse, J.signed_partition_to_obj),
    "kappa": (J.marked_triple_from_obj, encode.kappa, J.marked_pair_to_obj),
    "kappa_inverse": (J.marked_pair_from_obj, encode.kappa_inverse, J.marked_triple_to_obj),
    "nc_to_dyck": (J.set_partition_from_obj, encode.nc_to_dyck, J.path_to_obj),
    "nc_to_dyck_inverse": (J.path_from_obj, encode.dyck_to_nc, J.set_partition_to_obj),
    "g_map": (J.marked_pair_from_obj, encode.g_map, J.path_to_obj),
    "g_map_inverse": (J.path_from_obj, encode.g_map_inverse, J.marked_pair_to_obj),
    "f_map": (J.marked_pair_from_obj, encode.f_map, J.tableau_to_obj),
    "f_map_inverse": (J.tableau_from_obj, encode.f_map_inverse, J.marked_pair_to_obj),
    "nc_to_nn_b": (J.signed_partition_from_obj, lambda p: typemaps.nc_to_nn("B", p), J.signed_partition_to_obj),
    "nc_to_nn_c": (J.signed_partition_from_obj, lambda p: typemaps.nc_to_nn("C", p), J.signed_partition_to_obj),
    "nc_to_nn_d": (J.signed_partition_from_obj, lambda p: typemaps.nc_to_nn("D", p), J.signed_partition_to_obj),
    "nn_to_nc_b": (J.signed_partition_from_obj, lambda p: typemaps.nn_to_nc("B", p), J.signed_partition_to_obj),
    "nn_to_nc_c": (J.signed_partition_from_obj, lambda p: typemaps.nn_to_nc("C", p), J.signed_partition_to_obj),
    "nn_to_nc_d": (J.signed_partition_from_obj, lambda p: typemaps.nn_to_nc("D", p), J.signed_partition_to_obj),
}


def cmd_enumerate(args) -> int:
    items = models.enumerate_family(args.family, args.n)
    if args.count_only:
        print(len(items))
        return 0
    to_obj = (
        J.set_partition_to_obj if args.family in models.UNSIGNED_FAMILIES else J.signed_partition_to_obj
    )
    for p in items:
        print(json.dumps(to_obj(p)))
    return 0


def cmd_count(args) -> int:
    if args.type is not None:
        try:
            lam = tuple(int(x) for x in args.type.split(",") if x)
        except ValueError:
            raise ValidationError(f"--type must be comma-separated integers, not {args.type!r}") from None
        fam = {f: t for t, f in models.TYPE_FAMILIES.items()}.get(args.family)
        if fam is None:
            raise ValidationError("type counting applies to nc_a, nc_b and nc_d")
        print(models.count_by_type(fam, args.n, lam))
    else:
        print(models.count_family(args.family, args.n))
    return 0


def cmd_map(args) -> int:
    parse, fn, dump = MAPS[args.name]
    obj = _read_input(args.input)
    print(json.dumps(dump(fn(parse(obj)))))
    return 0


def cmd_series(args) -> int:
    if args.cross_check is not None:
        report = series_mod.cross_check(args.cross_check)
        for e in report.entries:
            print(f"z^{e.n}: {'ok' if e.ok else 'MISMATCH'} {series_mod.poly_str(e.expected)}")
        if not report.ok:
            raise InternalInvariantError("series cross-check failed")
        return 0
    s = series_mod.series(args.which, args.order)
    for k, p in enumerate(s.coeffs):
        print(f"z^{k}: {series_mod.poly_str(p)}")
    return 0


def cmd_verify(args) -> int:
    names = None if args.suite == "all" else [args.suite]
    checks = verify.run_suites(max_n=args.max_n, names=names, jobs=args.jobs)
    by_suite: dict[str, list] = {}
    for c in checks:
        by_suite.setdefault(c.suite, []).append(c)
    failed = False
    for suite, group in sorted(by_suite.items()):
        ok = all(c.ok for c in group)
        failed = failed or not ok
        print(f"{suite}: {'pass' if ok else 'FAIL'} ({len(group)} checks)")
        for c in group:
            if not c.ok:
                print(f"  FAIL {c.name} {c.detail}")
    if failed:
        raise InternalInvariantError("verification failed")
    return 0


def cmd_render(args) -> int:
    obj = _read_input(args.input)
    if args.mode == "arcs":
        print(render.render_arcs(J.partition_from_obj(obj)))
    elif args.mode == "path":
        print(render.render_path(J.path_from_obj(obj)))
    else:
        print(render.render_tableau(J.tableau_from_obj(obj)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="coxcat", description="Noncrossing and nonnesting partitions of classical types")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="list the members of a family")
    p.add_argument("--family", required=True, choices=models.FAMILIES)
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--count-only", action="store_true")
    p.set_defaults(fn=cmd_enumerate)

    p = sub.add_parser("count", help="closed-form cardinalities and type counts")
    p.add_argument("--family", required=True, choices=models.FAMILIES)
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--type", help="comma-separated block sizes, e.g. 2,2,1")
    p.set_defaults(fn=cmd_count)

    p = sub.add_parser("map", help="apply a bijection to a JSON object")
    p.add_argument("--name", required=True, choices=sorted(MAPS))
    p.add_argument("--input", default="-", help="path to a JSON file, or - for stdin")
    p.set_defaults(fn=cmd_map)

    p = sub.add_parser("series", help="print exact series coefficients")
    p.add_argument("--which", default="F", choices=["C", "B", "A", "F"])
    p.add_argument("--order", type=int, default=None, help="truncation order (default from COXCAT_TRUNC_ORDER or 12)")
    p.add_argument("--cross-check", type=int, default=None, metavar="N", help="compare against enumeration up to z^N")
    p.set_defaults(fn=cmd_series)

    p = sub.add_parser("verify", help="run the exhaustive verification suites")
    p.add_argument("--max-n", type=int, default=6)
    p.add_argument("--suite", default="all", choices=["all"] + sorted(verify.SUITES))
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("render", help="draw an object as plain text")
    p.add_argument("--mode", required=True, choices=["arcs", "path", "tableau"])
    p.add_argument("--input", default="-")
    p.set_defaults(fn=cmd_render)
    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ValidationError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except InternalInvariantError as e:
        print(f"invariant violation: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
