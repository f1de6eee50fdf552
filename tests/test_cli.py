import json
import multiprocessing
import os
import subprocess
import sys

import pytest

import coxcat
from conftest import FIG2
from coxcat import verify
from coxcat.cli import MAPS, main
from coxcat.core import SetPartition, ValidationError
from coxcat.encode import f_map
from coxcat.jsonio import partition_from_obj, signed_partition_from_obj, signed_partition_to_obj
from coxcat.models import MarkedPair, enumerate_family
from coxcat.render import render_arcs, render_tableau

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
        ["count", "--family", "nc_a", "--n", "-1", "--type", ""],
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


def _script_env() -> dict:
    return {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(coxcat.__file__))}


@pytest.mark.parametrize(
    "args",
    [
        ["count", "--family", "nc_d", "--n", "0", "--type", ""],
        ["count", "--family", "nc_b", "--n", "3", "--type", "2,x"],
    ],
)
def test_count_bad_type_exits_without_traceback(args):
    proc = subprocess.run([sys.executable, "-m", "coxcat.cli", *args], capture_output=True, text=True, env=_script_env())
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr


@pytest.mark.parametrize("args,message", [
    ("count --family nc_a --n abc", "argument --n: invalid int value: 'abc'"),
    ("verify --suite nope", "argument --suite: invalid choice: 'nope'"),
    ("count --family nc_a --n 3 --type -1,4", "argument --type: expected one argument"),
    ("count --n 3", "the following arguments are required: --family"),
])
def test_usage_error_exits_1_with_one_error_line(capsys, args, message):
    with pytest.raises(SystemExit, match="^1$"):
        main(args.split())
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith(f"error: {message}") and out.err.count("\n") == 1


@pytest.mark.parametrize("name", ["xi", "rho", "phi_nc_b", "nc_to_nn_b"])
def test_map_negative_n_exits_without_traceback(name):
    proc = subprocess.run([sys.executable, "-m", "coxcat.cli", "map", "--name", name, "--input", "-"],
                          input='{"n": -2, "blocks": []}', capture_output=True, text=True, env=_script_env())
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", "error: n must be >= 0\n")


def test_kappa_inverse_rejects_the_rank_0_pair(capsys, monkeypatch):
    stdin = '{"sigma": {"n": 0, "blocks": []}, "marked": []}'
    code, out, err = run_cli(capsys, ["map", "--name", "kappa_inverse", "--input", "-"], stdin, monkeypatch)
    assert (code, out, err) == (1, "", "error: not a restricted marked noncrossing pair\n")


# the maps build paths and tableaux with the trusted constructors, so these reader texts are the only check
@pytest.mark.parametrize("name,stdin,message", [
    ("g_map_inverse", '{"steps": "NX"}', "steps must be N or E"),
    ("g_map_inverse", '{"steps": "NNE"}', "need equally many N and E steps"),
    ("f_map_inverse", '{"south": [1], "east": [2], "ones": [[2, 1]]}', "cell (2,1) is not in the diagram"),
    ("f_map_inverse", '{"south": [1, 2], "east": [2], "ones": []}', "south and east labels must split 1..n"),
])
def test_map_reader_error_text(capsys, monkeypatch, name, stdin, message):
    code, out, err = run_cli(capsys, ["map", "--name", name, "--input", "-"], stdin, monkeypatch)
    assert (code, out, err) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("name,epsilon", [("xi_bar", None), ("phi_nc_b_inverse", None), ("phi_nc_d_inverse", 1)])
def test_map_empty_marked_block_exits_without_traceback(name, epsilon):
    obj = {"sigma": {"n": 2, "blocks": [[1], [2]]}, "marked": [[]]}
    if epsilon is not None:
        obj["epsilon"] = epsilon
    proc = subprocess.run([sys.executable, "-m", "coxcat.cli", "map", "--name", name, "--input", "-"],
                          input=json.dumps(obj), capture_output=True, text=True, env=_script_env())
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == "error: marked blocks must be distinct blocks of the partition\n"


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


def test_verify_passes_below_the_d_branch_rank(capsys):
    # the four type-D clause branches first all occur at n = 3
    code, out, _ = run_cli(capsys, ["verify", "--max-n", "2", "--suite", "all"])
    assert code == 0 and "FAIL" not in out


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


@pytest.mark.parametrize("args,message", [
    (["--max-n", "0"], "max_n must be >= 1"),
    (["--max-n", "-2", "--suite", "core"], "max_n must be >= 1"),
    (["--jobs", "0"], "jobs must be >= 1"),
    (["--jobs", "-3"], "jobs must be >= 1"),
])
def test_verify_rejects_a_bad_domain_before_running(capsys, args, message):
    code, out, err = run_cli(capsys, ["verify", "--max-n", "1", *args])
    assert code == 1 and out == ""
    assert err.strip() == f"error: {message}"


def test_verify_sharded_by_check_prints_what_a_serial_run_prints(capsys):
    args = ["verify", "--max-n", "3", "--suite", "all"]
    serial = run_cli(capsys, args + ["--jobs", "1"])
    sharded = run_cli(capsys, args + ["--jobs", "2"])
    assert serial[0] == 0 and sharded == serial


def test_render_arcs_golden(capsys, monkeypatch):
    code, out, _ = run_cli(
        capsys,
        ["render", "--mode", "arcs", "--input", "-"],
        stdin='{"blocks":[[1,2]]}',
        monkeypatch=monkeypatch,
    )
    assert code == 0 and out == ".-.\n1 2\n"


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


@pytest.mark.parametrize("command", [["map", "--name", "rho"], ["render", "--mode", "arcs"]], ids=["map", "render"])
@pytest.mark.parametrize("where", ["missing", "directory"])
def test_unreadable_input_exits_without_traceback(tmp_path, command, where):
    path = tmp_path / "absent.json" if where == "missing" else tmp_path
    proc = subprocess.run([sys.executable, "-m", "coxcat.cli", *command, "--input", str(path)],
                          capture_output=True, text=True, env=_script_env())
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith(f"error: cannot read {path}") and "Traceback" not in proc.stderr


def test_closed_stdout_ends_the_output_quietly():
    # 58,786 lines fill the pipe, so the script is still writing when the reader goes away
    proc = subprocess.Popen([sys.executable, "-m", "coxcat.cli", "enumerate", "--family", "nc_a", "--n", "11"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_script_env())
    first = proc.stdout.readline()
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert (proc.returncode, err) == (0, b"")
    assert json.loads(first) == {"n": 11, "blocks": [[x] for x in range(1, 12)]}


def test_bad_truncation_order_names_the_variable(capsys, monkeypatch):
    monkeypatch.setenv("COXCAT_TRUNC_ORDER", "abc")
    code, out, err = run_cli(capsys, ["series"])
    assert code == 1 and out == ""
    assert err == "error: COXCAT_TRUNC_ORDER must be an integer, not 'abc'\n"


def test_run_suites_rejects_an_unknown_suite():
    with pytest.raises(ValidationError, match="^unknown suite 'nope'$"):
        verify.run_suites(names=["nope"])


def test_a_suite_is_the_registry_entries_that_share_its_name():
    for suite in verify.SUITES:
        want = sorted(e.name for e in verify.CHECKS if e.suite == suite)
        assert [(c.suite, c.name) for c in verify.run_suites(max_n=1, names=[suite])] == [(suite, n) for n in want]
    core = sorted(e.name for e in verify.CHECKS if e.suite == "core")
    assert [c.name for c in verify.run_suites(max_n=1, names=["core", "core"])] == core
