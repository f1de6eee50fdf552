import hashlib
import io
import json
import multiprocessing
import os
import shlex
import subprocess
import sys
from fractions import Fraction

import pytest

import coxcat
from conftest import FIG2
from coxcat import series as series_mod, verify
from coxcat.cli import MAPS, main
from coxcat.core import ValidationError
from coxcat.jsonio import partition_from_obj, signed_partition_from_obj, signed_partition_to_obj
from coxcat.maps import MAP
from coxcat.models import enumerate_family
from coxcat.render import render_arcs


def run_cli(capsys, args, stdin=None, monkeypatch=None):
    if stdin is not None:
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    try:
        code = main(args)
    except SystemExit as e:  # argparse ends a usage error inside parse_args
        code = e.code
    out = capsys.readouterr()
    return code, out.out, out.err


def test_enumerate_count_only(capsys):
    code, out, _ = run_cli(capsys, ["enumerate", "--family", "nc_b", "--n", "3", "--count-only"])
    assert code == 0 and out.strip() == "20"


def test_enumerate_lists_json(capsys):
    code, out, _ = run_cli(capsys, ["enumerate", "--family", "nc_a", "--n", "3"])
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert code == 0 and len(lines) == 5
    assert lines[0] == {"n": 3, "blocks": [[1], [2], [3]]}


# The CLI's failure contract, one row per case: (command line, stdin, the
# one line it prints on stderr).  Each exits 1 with empty stdout.  A line that
# ends in ": " is a prefix, used where json, argparse or the OS word the rest.
# The unreadable-input rows name paths relative to this directory.  The rows
# with an n below a family's least rank come first, in their own list.
OUT_OF_DOMAIN_N = [
    ("count --family nc_b --n -1", "", "error: n must be >= 0"),
    ("count --family nc_a --n -1", "", "error: n must be >= 0"),
    ("count --family nc_d --n 0", "", "error: n must be >= 1"),
    ("count --family nn_d --n 0", "", "error: n must be >= 1"),
    ("enumerate --family nc_b --n -2", "", "error: n must be >= 0"),
    ("enumerate --family pi_b --n -1", "", "error: n must be >= 0"),
    ("enumerate --family nc_a --n -1 --count-only", "", "error: n must be >= 0"),
    ("enumerate --family nc_d --n 0", "", "error: n must be >= 1"),
    ("enumerate --family nn_d --n 0 --count-only", "", "error: n must be >= 1"),
    ("count --family nc_d --n 0 --type ''", "", "error: n must be >= 1"),
    ("count --family nc_a --n -1 --type ''", "", "error: n must be >= 0"),
]

BAD_INPUT = [
    # usage errors, from argparse
    ("count --family nc_a --n abc", "", "error: argument --n: invalid int value: 'abc'"),
    ("verify --suite nope", "", "error: argument --suite: invalid choice: "),
    ("count --family nc_a --n 3 --type -1,4", "", "error: argument --type: expected one argument"),
    ("count --n 3", "", "error: the following arguments are required: --family"),
    # count --type
    ("count --family nc_b --n 3 --type 2,x", "", "error: --type must be comma-separated integers, not '2,x'"),
    ("count --family nn_b --n 3 --type 1", "", "error: type counting applies to nc_a, nc_b and nc_d"),
    # verify's bounds, checked before any check runs
    ("verify --max-n 1 --max-n 0", "", "error: max_n must be >= 1"),
    ("verify --max-n 1 --max-n -2 --suite core", "", "error: max_n must be >= 1"),
    ("verify --max-n 1 --jobs 0", "", "error: jobs must be >= 1"),
    ("verify --max-n 1 --jobs -3", "", "error: jobs must be >= 1"),
    # series' bound
    ("series --order -1", "", "error: order must be >= 0"),
    # input that cannot be read, or is not JSON
    ("map --name rho --input absent.json", "", "error: cannot read absent.json: "),
    ("map --name rho --input .", "", "error: cannot read .: "),
    ("render --mode arcs --input absent.json", "", "error: cannot read absent.json: "),
    ("render --mode arcs --input .", "", "error: cannot read .: "),
    ("map --name xi --input -", "{", "error: bad JSON input: "),
    # JSON of the wrong shape or type
    ("map --name rho --input -", "[]", "error: expected a JSON object"),
    ("map --name rho --input -", "{}", "error: missing key 'blocks'"),
    ("map --name rho --input -", '{"blocks": 5}', "error: blocks must be a list of lists of integers, got 5"),
    ("map --name rho --input -", '{"blocks": [[1, "a"]]}', 'error: each of blocks must be a list of integers, got [1, "a"]'),
    ("map --name rho --input -", '{"blocks": [[true]]}', "error: each of blocks must be a list of integers, got [true]"),
    ("map --name rho --input -", '{"blocks": [1, 2]}', "error: each of blocks must be a list of integers, got 1"),
    ("map --name rho --input -", '{"n": "2", "blocks": [[1], [2]]}', 'error: n must be an integer, got "2"'),
    ("map --name phi_nc_b --input -", '{"blocks": [[1, -1.0]]}',
     "error: each of blocks must be a list of integers, got [1, -1.0]"),
    ("map --name phi_nc_b_inverse --input -", '{"sigma": {"blocks": [[1]]}, "marked": [[1, "a"]]}',
     'error: each of marked must be a list of integers, got [1, "a"]'),
    ("map --name phi_nc_d_inverse --input -", '{"sigma": {"blocks": [[1]]}, "marked": [[1]], "epsilon": true}',
     "error: epsilon must be -1, 0 or 1"),
    ("map --name nc_to_dyck_inverse --input -", '{"steps": 5}', "error: steps must be a string of N and E"),
    ("map --name nc_to_dyck_inverse --input -", '{"steps": ["N", "E"]}', "error: steps must be a string of N and E"),
    ("map --name psi_d_inverse --input -", '{"sigma": {"blocks": [[1, 2]]}, "x": {"int": "1"}}',
     'error: bad x slot {"int": "1"}'),
    ("map --name psi_b_inverse --input -", '{"sigma": {"blocks": [[1, 2]]}, "x": "edge"}', 'error: bad x slot "edge"'),
    ("map --name f_map_inverse --input -", '{"south": [1], "east": ["2"], "ones": []}',
     'error: east must be a list of integers, got ["2"]'),
    ("map --name f_map_inverse --input -", '{"south":[1],"east":[2],"ones":[[1,2,3]]}',
     "error: each of ones must be a [row, column] pair"),
    # a negative n in JSON
    ("map --name xi --input -", '{"n": -1, "blocks": []}', "error: n must be >= 0"),
    ("map --name xi --input -", '{"n": -2, "blocks": []}', "error: n must be >= 0"),
    ("map --name rho --input -", '{"n": -2, "blocks": []}', "error: n must be >= 0"),
    ("map --name phi_nc_b --input -", '{"n": -2, "blocks": []}', "error: n must be >= 0"),
    ("map --name nc_to_nn_b --input -", '{"n": -2, "blocks": []}', "error: n must be >= 0"),
    # an oversized n or element: the element count is compared before any array is allocated
    ("map --name rho --input -", '{"n": 100000000000000000000, "blocks": [[1]]}',
     "error: blocks do not partition [100000000000000000000]: [(1,)]"),
    ("map --name rho --input -", '{"blocks": [[100000000000000000000]]}',
     "error: blocks do not partition [100000000000000000000]: [(100000000000000000000,)]"),
    ("map --name nc_to_nn_b --input -", '{"blocks": [[1, -100000000000000000000]]}',
     "error: blocks do not partition [+-100000000000000000000]"),
    # the readers' own checks: the maps build paths, tableaux and pairs with the
    # trusted constructors, so these texts are the only check
    ("map --name g_map_inverse --input -", '{"steps": "NX"}', "error: steps must be N or E"),
    ("map --name g_map_inverse --input -", '{"steps": "NNE"}', "error: need equally many N and E steps"),
    ("map --name f_map_inverse --input -", '{"south": [1], "east": [2], "ones": [[2, 1]]}',
     "error: cell (2,1) is not in the diagram"),
    ("map --name f_map_inverse --input -", '{"south": [1, 2], "east": [2], "ones": []}',
     "error: south and east labels must split 1..n"),
    ("map --name xi_bar --input -", '{"sigma": {"n": 2, "blocks": [[1], [2]]}, "marked": [[]]}',
     "error: marked blocks must be distinct blocks of the partition"),
    ("map --name phi_nc_b_inverse --input -", '{"sigma": {"n": 2, "blocks": [[1], [2]]}, "marked": [[]]}',
     "error: marked blocks must be distinct blocks of the partition"),
    ("map --name phi_nc_d_inverse --input -", '{"sigma": {"n": 2, "blocks": [[1], [2]]}, "marked": [[]], "epsilon": 1}',
     "error: marked blocks must be distinct blocks of the partition"),
    ("map --name psi_b_inverse --input -", '{"sigma": {"n": 2, "blocks": [[1, 2]]}, "x": {"edge": [1, 3]}}',
     "error: ('edge', (1, 3)) is not a slot of the partition"),
    ("map --name psi_d_inverse --input -", '{"sigma": {"n": 1, "blocks": [[1]]}, "x": {"int": 3}}',
     "error: ('int', 3) is not a slot of the partition"),
    # outside a map's domain (tests/test_maps.py::test_domain_guard pins every guard's text)
    ("map --name rho --input -", '{"n":4,"blocks":[[1,3],[2,4]]}', "error: not a noncrossing partition"),
    ("map --name kappa_inverse --input -", '{"sigma": {"n": 0, "blocks": []}, "marked": []}',
     "error: not a restricted marked noncrossing pair"),
    ("map --name nc_to_dyck_inverse --input -", '{"steps": "ENNE"}', "error: not a Dyck path"),
]


@pytest.mark.parametrize("command,stdin,line", BAD_INPUT,
                         ids=[c + (f" < {s}" if s else "") for c, s, _ in BAD_INPUT])
def test_bad_input(capsys, monkeypatch, command, stdin, line):
    monkeypatch.chdir(os.path.dirname(__file__))
    code, out, err = run_cli(capsys, shlex.split(command), stdin, monkeypatch)
    # one line: an uncaught exception would escape main, and a traceback spans lines
    assert (code, out, err.count("\n")) == (1, "", 1) and err.endswith("\n")
    assert err.startswith(line) if line.endswith(": ") else err == line + "\n"


@pytest.mark.parametrize("args", OUT_OF_DOMAIN_N)
def test_out_of_domain_n_exit_code(capsys, monkeypatch, args):
    test_bad_input(capsys, monkeypatch, *args)


def test_count_empty_type_at_n0(capsys):
    code, out, _ = run_cli(capsys, ["count", "--family", "nc_a", "--n", "0", "--type", ""])
    assert code == 0 and out.strip() == "1"


def test_count_with_type(capsys):
    code, out, _ = run_cli(capsys, ["count", "--family", "nc_d", "--n", "3", "--type", "3"])
    assert code == 0 and out.strip() == "4"
    code, out, _ = run_cli(capsys, ["count", "--family", "pi_b", "--n", "6"])
    assert code == 0 and out.strip() == "4088"


SERIES_GOLDEN = {
    "F": (2, ["z^0: 1", "z^1: xy", "z^2: xy + x^2y^2"]),
    "C": (3, ["z^0: 1", "z^1: 1", "z^2: 2", "z^3: 5"]),
    "B": (3, ["z^0: 0", "z^1: 1", "z^2: 1", "z^3: 2"]),
    "A": (3, ["z^0: 1", "z^1: x", "z^2: x + x^2", "z^3: 2*x + 2*x^2 + x^3"]),
}


# sha256 of the stdout of `coxcat series --which W --order 20` (21 lines),
# as the Fraction kernel printed it
SERIES_ORDER_20_SHA256 = {
    "C": "52a695cdc0fcbe94152309c29589d27f5beb196f10b8f931ef078d34857cf347",
    "B": "023a6512013b0be7551afa359e4f06a747aadfdab5a8c34bc7ac58a7b5a362d2",
    "A": "266dd4ba7426fd371a1007442174172c442b8f7c818f157ace4a46feb501a7c9",
    "F": "f57237bfefbd3a1ddf429a0b76929e7684ac4060a6c8dd29cd65f1888fe705a4",
}


def test_series_command(capsys):
    for which, (order, want) in SERIES_GOLDEN.items():
        code, out, _ = run_cli(capsys, ["series", "--which", which, "--order", str(order)])
        assert (which, code, out.splitlines()) == (which, 0, want)
    # without --order the series runs to z^12
    code, out, _ = run_cli(capsys, ["series", "--which", "C"])
    assert code == 0 and out.splitlines()[-1] == "z^12: 208012" and len(out.splitlines()) == 13


@pytest.mark.parametrize("which", SERIES_ORDER_20_SHA256)
def test_series_command_at_order_20(capsys, which):
    code, out, _ = run_cli(capsys, ["series", "--which", which, "--order", "20"])
    assert (code, len(out.splitlines())) == (0, 21)
    assert hashlib.sha256(out.encode()).hexdigest() == SERIES_ORDER_20_SHA256[which]


def test_a_failed_series_identity_exits_2(capsys, monkeypatch):
    real = series_mod.sqrt_one_minus_4z

    def off(order):  # -5/3 at z^1 leaves a fraction in the closed form of F
        s = real(order)
        return series_mod.Series(s.order, (s.coeffs[0], {(0, 0): Fraction(-5, 3)}) + s.coeffs[2:])

    monkeypatch.setattr(series_mod, "sqrt_one_minus_4z", off)
    code, out, err = run_cli(capsys, ["series", "--order", "3"])
    assert (code, out, err) == (2, "", "invariant violation: coefficients did not normalize to integer polynomials\n")


def test_series_cross_check(capsys):
    code, out, _ = run_cli(capsys, ["series", "--cross-check", "3"])
    assert code == 0 and "MISMATCH" not in out


def test_verify_command(capsys):
    code, out, _ = run_cli(capsys, ["verify", "--max-n", "2", "--suite", "core"])
    assert code == 0
    assert out.startswith("core: pass")


def test_verify_passes_below_the_d_branch_rank(capsys):
    # the four type-D clause branches first all occur at n = 3
    code, out, _ = run_cli(capsys, ["verify", "--max-n", "2", "--suite", "all"])
    # one line per suite, each counting that suite's registry entries
    counts = {suite: sum(e.suite == suite for e in verify.CHECKS) for suite in verify.SUITES}
    assert code == 0 and out == "".join(f"{suite}: pass ({counts[suite]} checks)\n" for suite in sorted(verify.SUITES))


def test_verify_reports_a_fault_inside_a_suite_as_a_failed_check(capsys, monkeypatch, jobs="1"):
    import coxcat.encode
    from coxcat.core import ValidationError

    def broken(family, m):
        raise ValidationError("merge broke")

    monkeypatch.setattr(coxcat.encode, "_pairs", broken)
    code, out, _ = run_cli(capsys, ["verify", "--max-n", "3", "--suite", "encode", "--jobs", jobs])
    assert code == 2
    assert "  FAIL pair encoding of the B family is bijective with its type clause n=1: ValidationError: merge broke" in out


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork", reason="only a forked worker sees the monkeypatch")
def test_verify_reports_a_fault_inside_a_worker_as_a_failed_check(capsys, monkeypatch):
    test_verify_reports_a_fault_inside_a_suite_as_a_failed_check(capsys, monkeypatch, jobs="2")


def test_verify_sharded_by_check_prints_what_a_serial_run_prints(capsys):
    args = ["verify", "--max-n", "3", "--suite", "all"]
    serial = run_cli(capsys, args + ["--jobs", "1"])
    sharded = run_cli(capsys, args + ["--jobs", "2"])
    assert serial[0] == 0 and sharded == serial


def test_render_arcs_golden(capsys, monkeypatch):
    for stdin, want in [
        ('{"blocks":[[1,2]]}', ".-.\n1 2\n"),
        ('{"n":2,"blocks":[[1,-2],[-1,2]]}', ".------.\n  .-.\n1 2 -1 -2\n"),  # signed: the order 1..n, -1..-n
    ]:
        assert run_cli(capsys, ["render", "--mode", "arcs", "--input", "-"], stdin, monkeypatch) == (0, want, "")


def test_render_arcs_fig2_golden():
    text = render_arcs(FIG2)
    assert text == "\n".join(
        [
            ".-----.-----------.",
            "  .-.   .-.-.---.",
            "1 2 3 4 5 6 7 8 9 10",
        ]
    )


def test_render_path_golden(capsys, monkeypatch):
    code, out, _ = run_cli(
        capsys,
        ["render", "--mode", "path", "--input", "-"],
        stdin='{"steps":"NNEE"}',
        monkeypatch=monkeypatch,
    )
    assert code == 0
    assert out == "o o o\no . .\no . .\n"


def test_render_tableau_golden(capsys, monkeypatch):
    # the filling of Fig. 10 (tests/test_encode.py::test_f_map_fig10)
    stdin = '{"south": [3, 5, 8, 10], "east": [1, 2, 4, 6, 7, 9], "ones": [[-4, 4], [-4, 7], [-4, 9], [-1, 1], [-1, 2], [5, 6]]}'
    code, out, _ = run_cli(capsys, ["render", "--mode", "tableau", "--input", "-"], stdin, monkeypatch)
    assert code == 0 and out == "\n".join(
        [
            "    9 7 6 4 2 1",
            "-9 | 0",
            "-7 | 0 0",
            "-6 | 0 0 0",
            "-4 | 1 1 0 1",
            "-2 | 0 0 0 0 0",
            "-1 | 0 0 0 0 1 1",
            " 3 | 0 0 0 0",
            " 5 | 0 0 1",
            " 8 | 0",
            "10 |",
            "",
        ]
    )


def test_json_roundtrips_exhaustive_small():
    # pi_b is not a domain of the map table; test_maps.py::test_json_round_trip covers those
    for p in enumerate_family("pi_b", 3):
        assert signed_partition_from_obj(signed_partition_to_obj(p)) == p
        assert partition_from_obj(signed_partition_to_obj(p)) == p


# One input per map name and the output the CLI prints for it.  Each input
# tells its map apart from every other map with the same input and output
# kinds: those fail on it or print something else, so a name wired to the
# wrong pair fails here.
MAP_GOLDEN = {
    "f_map": ('{"sigma":{"n":2,"blocks":[[1,2]]},"marked":[]}', '{"south":[1],"east":[2],"ones":[[1,2]]}'),
    "f_map_inverse": ('{"south":[1,2],"east":[],"ones":[]}', '{"sigma":{"n":2,"blocks":[[1],[2]]},"marked":[]}'),
    "g_map": ('{"sigma":{"n":2,"blocks":[[1,2]]},"marked":[]}', '{"steps":"NNEE"}'),
    "g_map_inverse": ('{"steps":"NNEE"}', '{"sigma":{"n":2,"blocks":[[1,2]]},"marked":[]}'),
    "iota_b": ('{"sigma":{"n":6,"blocks":[[1],[2],[3,4],[5],[6]]},"marked":[[1],[2],[3,4],[5],[6]]}',
               '{"sigma":{"n":6,"blocks":[[1,2],[3],[4],[5],[6]]},"marked":[[1,2],[3],[4],[5],[6]]}'),
    "iota_b_inverse": ('{"sigma":{"n":6,"blocks":[[1],[2],[3,4],[5],[6]]},"marked":[[1],[2],[3,4],[5],[6]]}',
                       '{"sigma":{"n":6,"blocks":[[1],[2,3],[4],[5],[6]]},"marked":[[1],[2,3],[4],[5],[6]]}'),
    "iota_d": ('{"sigma":{"n":5,"blocks":[[1],[2],[3,4],[5]]},"marked":[[1],[2],[3,4],[5]],"epsilon":1}',
               '{"sigma":{"n":5,"blocks":[[1],[2,3],[4],[5]]},"marked":[[1],[2,3],[4],[5]],"epsilon":1}'),
    "iota_d_inverse": ('{"sigma":{"n":5,"blocks":[[1],[2],[3,4],[5]]},"marked":[[1],[2],[3,4],[5]],"epsilon":1}',
                       '{"sigma":{"n":5,"blocks":[[1,2],[3],[4],[5]]},"marked":[[1,2],[3],[4],[5]],"epsilon":1}'),
    "kappa": ('{"sigma":{"n":2,"blocks":[[1,2]]},"marked":[],"epsilon":0}',
              '{"sigma":{"n":3,"blocks":[[1,2],[3]]},"marked":[]}'),
    "kappa_inverse": ('{"sigma":{"n":2,"blocks":[[1,2]]},"marked":[]}',
                      '{"sigma":{"n":1,"blocks":[[1]]},"marked":[[1]],"epsilon":-1}'),
    "nc_to_dyck": ('{"n":2,"blocks":[[1,2]]}', '{"steps":"NNEE"}'),
    "nc_to_dyck_inverse": ('{"steps":"NNEE"}', '{"n":2,"blocks":[[1,2]]}'),
    "nc_to_nn_b": ('{"n":3,"blocks":[[-3,1],[-1,3],[-2,2]]}', '{"n":3,"blocks":[[-1,1],[-3,2],[-2,3]]}'),
    "nc_to_nn_c": ('{"n":4,"blocks":[[-4,-3,1],[-1,3,4],[-2,2]]}', '{"n":4,"blocks":[[-2,1,4],[-4,-1,2],[-3,3]]}'),
    "nc_to_nn_d": ('{"n":4,"blocks":[[-4,-3,-2,1],[-1,2,3,4]]}', '{"n":4,"blocks":[[-2,1,3,4],[-4,-3,-1,2]]}'),
    "nn_to_nc_b": ('{"n":3,"blocks":[[-1,1],[-3,2],[-2,3]]}', '{"n":3,"blocks":[[-3,1],[-1,3],[-2,2]]}'),
    "nn_to_nc_c": ('{"n":4,"blocks":[[-3,-1,1,3],[-4,2],[-2,4]]}', '{"n":4,"blocks":[[-4,1],[-1,4],[-3,-2,2,3]]}'),
    "nn_to_nc_d": ('{"n":4,"blocks":[[-4,-2,1,3],[-3,-1,2,4]]}', '{"n":4,"blocks":[[-3,-2,1,4],[-4,-1,2,3]]}'),
    "phi_nc_b": ('{"n":3,"blocks":[[-3,-2,1],[-1,2,3]]}',
                 '{"sigma":{"n":3,"blocks":[[1],[2,3]]},"marked":[[1],[2,3]]}'),
    "phi_nc_b_inverse": ('{"sigma":{"n":4,"blocks":[[1,4],[2,3]]},"marked":[]}',
                         '{"n":4,"blocks":[[1,4],[-4,-1],[2,3],[-3,-2]]}'),
    "phi_nc_d": ('{"n":4,"blocks":[[-4,-3,-2,1],[-1,2,3,4]]}',
                 '{"sigma":{"n":3,"blocks":[[1],[2,3]]},"marked":[[1],[2,3]],"epsilon":-1}'),
    "phi_nc_d_inverse": ('{"sigma":{"n":4,"blocks":[[1,4],[2,3]]},"marked":[],"epsilon":0}',
                         '{"n":5,"blocks":[[1,4],[-4,-1],[2,3],[-3,-2],[5],[-5]]}'),
    "phi_nn_b": ('{"n":3,"blocks":[[-1,1],[-3,2],[-2,3]]}',
                 '{"sigma":{"n":3,"blocks":[[1],[2],[3]]},"marked":[[1],[2],[3]]}'),
    "phi_nn_b_inverse": ('{"sigma":{"n":3,"blocks":[[1],[2],[3]]},"marked":[[1],[2],[3]]}',
                         '{"n":3,"blocks":[[-1,1],[-3,2],[-2,3]]}'),
    "phi_nn_c": ('{"n":4,"blocks":[[-3,-1,1,3],[-4,2],[-2,4]]}',
                 '{"sigma":{"n":4,"blocks":[[1,3],[2],[4]]},"marked":[[2],[1,3],[4]]}'),
    "phi_nn_c_inverse": ('{"sigma":{"n":4,"blocks":[[1,3],[2],[4]]},"marked":[[2],[1,3],[4]]}',
                         '{"n":4,"blocks":[[-3,-1,1,3],[-4,2],[-2,4]]}'),
    "phi_nn_d": ('{"n":4,"blocks":[[-4,-2,1,3],[-3,-1,2,4]]}',
                 '{"sigma":{"n":3,"blocks":[[1,3],[2]]},"marked":[[2],[1,3]],"epsilon":1}'),
    "phi_nn_d_inverse": ('{"sigma":{"n":4,"blocks":[[1,3],[2,4]]},"marked":[],"epsilon":0}',
                         '{"n":5,"blocks":[[1,3],[-3,-1],[2,4],[-4,-2],[5],[-5]]}'),
    "psi_b": ('{"n":2,"blocks":[[-2,-1,1,2]]}', '{"sigma":{"n":2,"blocks":[[1,2]]},"x":{"block":[1,2]}}'),
    "psi_b_inverse": ('{"sigma":{"n":2,"blocks":[[1,2]]},"x":null}', '{"n":2,"blocks":[[1,2],[-2,-1]]}'),
    "psi_d": ('{"n":2,"blocks":[[-2,-1,1,2]]}', '{"sigma":{"n":1,"blocks":[[1]]},"x":{"block":[1]}}'),
    "psi_d_inverse": ('{"sigma":{"n":2,"blocks":[[1,2]]},"x":null}', '{"n":3,"blocks":[[1,2],[-2,-1],[3],[-3]]}'),
    "rho": ('{"n":4,"blocks":[[1,4],[2,3]]}', '{"n":4,"blocks":[[1,3],[2,4]]}'),
    "rho_bar": ('{"sigma":{"n":4,"blocks":[[1,4],[2,3]]},"marked":[]}',
                '{"sigma":{"n":4,"blocks":[[1,3],[2,4]]},"marked":[]}'),
    "rho_bar_inverse": ('{"sigma":{"n":4,"blocks":[[1,3],[2,4]]},"marked":[]}',
                        '{"sigma":{"n":4,"blocks":[[1,4],[2,3]]},"marked":[]}'),
    "rho_inverse": ('{"n":4,"blocks":[[1,3],[2,4]]}', '{"n":4,"blocks":[[1,4],[2,3]]}'),
    "xi": ('{"n":3,"blocks":[[1],[2,3]]}', '{"n":3,"blocks":[[1,3],[2]]}'),
    "xi_bar": ('{"sigma":{"n":3,"blocks":[[1],[2,3]]},"marked":[[1]]}',
               '{"sigma":{"n":3,"blocks":[[1,3],[2]]},"marked":[[2]]}'),
    "xi_bar_inverse": ('{"sigma":{"n":3,"blocks":[[1,3],[2]]},"marked":[[2]]}',
                       '{"sigma":{"n":3,"blocks":[[1],[2,3]]},"marked":[[1]]}'),
}


def test_map_registry_covers_documented_names():
    assert len(MAP_GOLDEN) == 39
    assert sorted(MAPS) == sorted(MAP_GOLDEN)


@pytest.mark.parametrize("name", sorted(MAP_GOLDEN))
def test_map_golden(capsys, monkeypatch, name):
    given, want = MAP_GOLDEN[name]
    code, out, err = run_cli(capsys, ["map", "--name", name, "--input", "-"], stdin=given, monkeypatch=monkeypatch)
    assert (code, out, err) == (0, json.dumps(json.loads(want)) + "\n", "")


# Members of large rank (xi at n = 40, the composed maps at rank 30, the
# encode maps at rank 20) and their pinned images; each maps to its image and
# back, byte for byte.
LARGE_GOLDEN = {
    "f_map": (
        '{"sigma": {"n": 20, "blocks": [[1, 2, 7], [3, 5], [4], [6], [8, 9], [10, 11], [12, 15, 20], [13, 14], [16, 17], [18, 19]]}, "marked": [[1, 2, 7], [10, 11], [12, 15, 20]]}',
        '{"south": [3, 4, 6, 8, 13, 16, 18], "east": [1, 2, 5, 7, 9, 10, 11, 12, 14, 15, 17, 19, 20], "ones": [[-12, 12], [-12, 15], [-12, 20], [-10, 10], [-10, 11], [-1, 1], [-1, 2], [-1, 7], [3, 5], [8, 9], [13, 14], [16, 17], [18, 19]]}',
    ),
    "g_map": (
        '{"sigma": {"n": 20, "blocks": [[1, 2, 7], [3, 5], [4], [6], [8, 9], [10, 11], [12, 15, 20], [13, 14], [16, 17], [18, 19]]}, "marked": [[1, 2, 7], [10, 11], [12, 15, 20]]}',
        '{"steps": "EENEEEENNNENNNNNEEEENNEEEENNNEEENNEENNNN"}',
    ),
    "kappa": (
        '{"sigma": {"n": 19, "blocks": [[1], [2, 3, 4, 5, 6], [7, 19], [8], [9, 10, 17, 18], [11, 16], [12, 13], [14, 15]]}, "marked": [[1], [2, 3, 4, 5, 6], [7, 19]], "epsilon": -1}',
        '{"sigma": {"n": 20, "blocks": [[1], [2, 3, 4, 5, 6], [7, 19, 20], [8], [9, 10, 17, 18], [11, 16], [12, 13], [14, 15]]}, "marked": [[1], [2, 3, 4, 5, 6]]}',
    ),
    "nc_to_nn_b": (
        '{"n": 30, "blocks": [[-30, -27, -3, 1], [-1, 3, 27, 30], [-2, 2], [4, 24], [-24, -4], [5, 6, 7, 23], [-23, -7, -6, -5], [8, 13, 20, 21, 22], [-22, -21, -20, -13, -8], [9, 10], [-10, -9], [11], [-11], [12], [-12], [14, 19], [-19, -14], [15], [-15], [16, 18], [-18, -16], [17], [-17], [25], [-25], [26], [-26], [28, 29], [-29, -28]]}',
        '{"n": 30, "blocks": [[1, 2], [-2, -1], [3, 4, 7, 14, 22], [-22, -14, -7, -4, -3], [5, 8, 16, 23], [-23, -16, -8, -5], [6, 10], [-10, -6], [9, 18], [-18, -9], [11], [-11], [12], [-12], [13, 19], [-19, -13], [15], [-15], [17], [-17], [20, 24], [-24, -20], [-29, 21, 27, 30], [-30, -27, -21, 29], [25], [-25], [26], [-26], [-28, 28]]}',
    ),
    "nc_to_nn_d": (
        '{"n": 30, "blocks": [[1, 3, 4], [-4, -3, -1], [2], [-2], [5], [-5], [-29, 6], [-6, 29], [7, 10], [-10, -7], [8, 9], [-9, -8], [11], [-11], [12, 30], [-30, -12], [13, 14, 26, 27], [-27, -26, -14, -13], [15, 25], [-25, -15], [16], [-16], [17, 22], [-22, -17], [18], [-18], [19, 21], [-21, -19], [20], [-20], [23], [-23], [24], [-24], [28], [-28]]}',
        '{"n": 30, "blocks": [[1, 9], [-9, -1], [2, 10], [-10, -2], [3, 13], [-13, -3], [4], [-4], [5, 15, 20, 27], [-27, -20, -15, -5], [6], [-6], [7, 16], [-16, -7], [8], [-8], [11], [-11], [12], [-12], [14, 17, 21], [-21, -17, -14], [18, 24], [-24, -18], [19], [-19], [22], [-22], [23, 30], [-30, -23], [25], [-25], [-29, 26], [-26, 29], [28], [-28]]}',
    ),
    "xi": (
        '{"n": 40, "blocks": [[1, 2, 4, 11, 12], [3], [5, 10], [6], [7, 9], [8], [13], [14], [15, 16, 18, 19, 22, 23, 24, 25], [17], [20], [21], [26, 27, 28, 40], [29, 32], [30, 31], [33], [34, 38], [35], [36, 37], [39]]}',
        '{"n": 40, "blocks": [[1, 3], [2], [4, 10], [5, 8], [6, 7], [9], [11], [12, 13, 14, 40], [15, 16, 18, 19, 22, 23, 24, 39], [17], [20], [21], [25, 26, 28, 35, 36], [27], [29, 34], [30], [31, 33], [32], [37], [38]]}',
    ),
}


@pytest.mark.parametrize("name", sorted(LARGE_GOLDEN))
def test_large_golden_maps_back(capsys, monkeypatch, name):
    given, image = LARGE_GOLDEN[name]
    assert run_cli(capsys, ["map", "--name", name, "--input", "-"], given, monkeypatch) == (0, image + "\n", "")
    back = ["map", "--name", MAP[name].inverse_name, "--input", "-"]
    assert run_cli(capsys, back, image, monkeypatch) == (0, given + "\n", "")


def test_closed_stdout_ends_the_output_quietly():
    # 58,786 lines fill the pipe, so the script is still writing when the reader goes away
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(coxcat.__file__))}
    proc = subprocess.Popen([sys.executable, "-m", "coxcat.cli", "enumerate", "--family", "nc_a", "--n", "11"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    first = proc.stdout.readline()
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert (proc.returncode, err) == (0, b"")
    assert json.loads(first) == {"n": 11, "blocks": [[x] for x in range(1, 12)]}


def test_run_suites_rejects_an_unknown_suite():
    with pytest.raises(ValidationError, match="^unknown suite 'nope'$"):
        verify.run_suites(names=["nope"])


@pytest.mark.parametrize("kwargs, text", [
    ({"max_n": 2.5}, "max_n must be an integer"),
    ({"max_n": "3"}, "max_n must be an integer"),
    ({"jobs": 2.5}, "jobs must be an integer"),
    ({"jobs": "2"}, "jobs must be an integer"),
], ids=["max_n=2.5", 'max_n="3"', "jobs=2.5", 'jobs="2"'])
def test_run_suites_rejects_non_integer_bounds_before_any_check(monkeypatch, kwargs, text):
    def no_check(entry, max_n):
        raise AssertionError(f"{entry.name} ran")

    monkeypatch.setattr(verify, "run_check", no_check)
    with pytest.raises(ValidationError, match=f"^{text}$"):
        verify.run_suites(**kwargs)


def test_a_suite_is_the_registry_entries_that_share_its_name():
    for suite in verify.SUITES:
        want = sorted(e.name for e in verify.CHECKS if e.suite == suite)
        assert [(c.suite, c.name) for c in verify.run_suites(max_n=1, names=[suite])] == [(suite, n) for n in want]
    core = sorted(e.name for e in verify.CHECKS if e.suite == "core")
    assert [c.name for c in verify.run_suites(max_n=1, names=["core", "core"])] == core
