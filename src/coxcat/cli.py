"""Command-line interface: enumerate, count, map, series, verify, render."""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import jsonio, maps, models, render, series as series_mod, verify
from .core import InternalInvariantError, ValidationError


def _read_input(path: str):
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path) as f:
                text = f.read()
    except (OSError, UnicodeDecodeError) as e:
        raise ValidationError(f"cannot read {path}: {getattr(e, 'strerror', None) or e}") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise ValidationError(f"bad JSON input: {e}") from None


J = jsonio


def _map_entry(fn, source: str, target: str) -> tuple:
    return getattr(J, f"{maps.DOMAINS[source][0]}_from_obj"), fn, getattr(J, f"{maps.DOMAINS[target][0]}_to_obj")


# name -> (parse input, apply, serialize output), both directions of every pair in the map table
MAPS = {}
for _row in maps.PAIRS:
    MAPS[_row.name] = _map_entry(_row.forward, _row.source, _row.target)
    MAPS[_row.inverse_name] = _map_entry(_row.inverse, _row.target, _row.source)


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


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error is bad input: one error line, exit 1 (subparsers share the class)
        self.exit(1, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="coxcat", description="Noncrossing and nonnesting partitions of classical types")
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
    p.add_argument("--order", type=int, default=series_mod.DEFAULT_ORDER, help="truncation order (default 12)")
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
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout (`| head`): the output ends here, and the
        # flush at exit goes to the null device instead of raising again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 0
    except ValidationError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except InternalInvariantError as e:
        print(f"invariant violation: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
