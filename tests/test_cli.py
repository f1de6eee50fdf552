import json
import os
import subprocess
import sys

import pytest

import coxcat
from coxcat.cli import main
from coxcat.core import SetPartition
from coxcat.encode import LatticePath, ShiftedTableau, f_map
from coxcat.jsonio import (
    b_pair_from_obj,
    b_pair_to_obj,
    d_pair_from_obj,
    d_pair_to_obj,
    marked_pair_from_obj,
    marked_pair_to_obj,
    marked_triple_from_obj,
    marked_triple_to_obj,
    partition_from_obj,
    path_from_obj,
    path_to_obj,
    set_partition_from_obj,
    set_partition_to_obj,
    signed_partition_from_obj,
    signed_partition_to_obj,
    tableau_from_obj,
    tableau_to_obj,
)
from coxcat.models import MarkedPair, MarkedTriple, enumerate_family
from coxcat.render import render_arcs, render_path, render_tableau
from coxcat.signed import SignedPartition

sp = SetPartition.from_blocks


def run_cli(capsys, args, stdin=None, monkeypatch=None):
    if stdin is not None:
        import io, sys

        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code = main(args)
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


def test_map_rho(capsys, monkeypatch):
    code, out, _ = run_cli(
        capsys,
        ["map", "--name", "rho", "--input", "-"],
        stdin='{"n":4,"blocks":[[1,4],[2,3]]}',
        monkeypatch=monkeypatch,
    )
    assert code == 0
    assert json.loads(out) == {"n": 4, "blocks": [[1, 3], [2, 4]]}


def test_map_validation_error_exit_code(capsys, monkeypatch):
    code, _, err = run_cli(
        capsys,
        ["map", "--name", "rho", "--input", "-"],
        stdin='{"n":4,"blocks":[[1,3],[2,4]]}',
        monkeypatch=monkeypatch,
    )
    assert code == 1 and "error" in err


def test_map_bad_json(capsys, monkeypatch):
    code, _, err = run_cli(capsys, ["map", "--name", "xi", "--input", "-"], stdin="{", monkeypatch=monkeypatch)
    assert code == 1 and "JSON" in err


@pytest.mark.parametrize(
    "args",
    [
        ["count", "--family", "nc_b", "--n", "-1"],
        ["count", "--family", "nc_a", "--n", "-1"],
        ["count", "--family", "nc_d", "--n", "0"],
        ["count", "--family", "nn_d", "--n", "0"],
        ["enumerate", "--family", "nc_b", "--n", "-2"],
        ["enumerate", "--family", "pi_b", "--n", "-1"],
        ["enumerate", "--family", "nc_a", "--n", "-1", "--count-only"],
        ["enumerate", "--family", "nc_d", "--n", "0"],
        ["enumerate", "--family", "nn_d", "--n", "0", "--count-only"],
        ["count", "--family", "nc_d", "--n", "0", "--type", ""],
    ],
)
def test_out_of_domain_n_exit_code(capsys, args):
    code, out, err = run_cli(capsys, args)
    assert code == 1 and out == "" and err.startswith("error: n must be >=")


@pytest.mark.parametrize(
    "name,payload",
    [
        ("rho", '{"blocks": [[1, "a"]]}'),
        ("rho", '{"blocks": [[true]]}'),
        ("rho", '{"blocks": [1, 2]}'),
        ("rho", '{"n": "2", "blocks": [[1], [2]]}'),
        ("phi_nc_b", '{"blocks": [[1, -1.0]]}'),
        ("phi_nc_b_inverse", '{"sigma": {"blocks": [[1]]}, "marked": [[1, "a"]]}'),
        ("phi_nc_d_inverse", '{"sigma": {"blocks": [[1]]}, "marked": [[1]], "epsilon": true}'),
        ("nc_to_dyck_inverse", '{"steps": 5}'),
        ("nc_to_dyck_inverse", '{"steps": ["N", "E"]}'),
        ("psi_d_inverse", '{"sigma": {"blocks": [[1, 2]]}, "x": {"int": "1"}}'),
        ("psi_b_inverse", '{"sigma": {"blocks": [[1, 2]]}, "x": "edge"}'),
        ("f_map_inverse", '{"south": [1], "east": ["2"], "ones": []}'),
    ],
)
def test_map_rejects_mistyped_json(capsys, monkeypatch, name, payload):
    code, out, err = run_cli(capsys, ["map", "--name", name, "--input", "-"], stdin=payload, monkeypatch=monkeypatch)
    assert code == 1 and out == "" and err.startswith("error:")


@pytest.mark.parametrize(
    "args",
    [
        ["count", "--family", "nc_d", "--n", "0", "--type", ""],
        ["count", "--family", "nc_b", "--n", "3", "--type", "2,x"],
    ],
)
def test_count_bad_type_exits_without_traceback(args):
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(coxcat.__file__))}
    proc = subprocess.run([sys.executable, "-m", "coxcat.cli", *args], capture_output=True, text=True, env=env)
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr


def test_count_empty_type_at_n0(capsys):
    code, out, _ = run_cli(capsys, ["count", "--family", "nc_a", "--n", "0", "--type", ""])
    assert code == 0 and out.strip() == "1"


def test_count_with_type(capsys):
    code, out, _ = run_cli(capsys, ["count", "--family", "nc_d", "--n", "3", "--type", "3"])
    assert code == 0 and out.strip() == "4"
    code, out, _ = run_cli(capsys, ["count", "--family", "pi_b", "--n", "6"])
    assert code == 0 and out.strip() == "4088"


def test_series_command(capsys):
    code, out, _ = run_cli(capsys, ["series", "--which", "F", "--order", "2"])
    assert code == 0
    assert out.splitlines() == ["z^0: 1", "z^1: xy", "z^2: xy + x^2y^2"]


def test_series_cross_check(capsys):
    code, out, _ = run_cli(capsys, ["series", "--cross-check", "3"])
    assert code == 0 and "MISMATCH" not in out


def test_verify_command(capsys):
    code, out, _ = run_cli(capsys, ["verify", "--max-n", "2", "--suite", "core"])
    assert code == 0
    assert out.startswith("core: pass")


def test_render_arcs_golden(capsys, monkeypatch):
    code, out, _ = run_cli(
        capsys,
        ["render", "--mode", "arcs", "--input", "-"],
        stdin='{"blocks":[[1,2]]}',
        monkeypatch=monkeypatch,
    )
    assert code == 0 and out == ".-.\n1 2\n"


def test_render_arcs_fig2_golden():
    text = render_arcs(sp([[1, 4, 10], [2, 3], [5, 6, 7, 9], [8]]))
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


def test_render_tableau_golden():
    t = f_map(MarkedPair.make(sp([[1, 2], [3], [4, 7, 9], [5, 6], [8], [10]]), [(1, 2), (4, 7, 9)]))
    assert render_tableau(t) == "\n".join(
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
        ]
    )


def test_json_roundtrips_exhaustive_small():
    for p in enumerate_family("nc_a", 4):
        assert set_partition_from_obj(set_partition_to_obj(p)) == p
    for p in enumerate_family("pi_b", 3):
        assert signed_partition_from_obj(signed_partition_to_obj(p)) == p
        assert partition_from_obj(signed_partition_to_obj(p)) == p
    from coxcat.models import marked_pairs, marked_triples
    from coxcat.encode import b_pairs, d_pairs, lattice_paths

    for m in marked_pairs(4, "nc_nn"):
        assert marked_pair_from_obj(marked_pair_to_obj(m)) == m
        t = f_map(m, check=False)
        assert tableau_from_obj(tableau_to_obj(t)) == t
    for t in marked_triples(3, "nc_nn_pm"):
        assert marked_triple_from_obj(marked_triple_to_obj(t)) == t
    for bp in b_pairs(3):
        assert b_pair_from_obj(b_pair_to_obj(bp)) == bp
    for dp in d_pairs(3):
        assert d_pair_from_obj(d_pair_to_obj(dp)) == dp
    for path in lattice_paths(3):
        assert path_from_obj(path_to_obj(path)) == path


def test_map_registry_covers_documented_names():
    from coxcat.cli import MAPS

    for name in (
        "rho", "xi", "phi_nc_b", "phi_nn_d_inverse", "psi_b", "psi_d",
        "kappa", "nc_to_dyck", "g_map", "f_map", "nc_to_nn_b", "nn_to_nc_d",
    ):
        assert name in MAPS
