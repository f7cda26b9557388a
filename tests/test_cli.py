import json
import os
import subprocess
import sys
from pathlib import Path

import pytest


SRC = Path(__file__).resolve().parents[1] / "src"


def _env(cache_dir):
    # Sparse on purpose, so the cache and stdout stay hermetic; src goes
    # first so the child runs this checkout whether or not it is installed.
    pythonpath = filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
    return {
        "GBK_CACHE_DIR": str(cache_dir),
        "PATH": "/usr/bin:/bin",
        "PYTHONPATH": os.pathsep.join(pythonpath),
    }


def run_cli(args, tmp_path, check=False, cache_dir=None):
    proc = subprocess.run(
        [sys.executable, "-m", "grassbott", *args],
        capture_output=True,
        text=True,
        env=_env(cache_dir or tmp_path / "cache"),
    )
    if check and proc.returncode != 0:
        raise AssertionError(proc.stderr)
    return proc


def test_bott_subcommand(tmp_path):
    proc = run_cli(
        ["bott", "twist(dual(wedge(3,sym(3,Q))),2)", "--grass", "2,5"], tmp_path
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"3": "1"}


def test_rank_dual_decompose(tmp_path):
    proc = run_cli(["rank", "sym(3,Q)", "--grass", "2,5"], tmp_path, check=True)
    assert json.loads(proc.stdout) == {"rank": "4"}
    proc = run_cli(["dual", "irr[3,0]", "--grass", "2,5"], tmp_path, check=True)
    assert json.loads(proc.stdout)["weights"] == {"2,5:[0,-3|0,0,0]": "1"}
    proc = run_cli(["decompose", "Theta", "--grass", "2,5"], tmp_path, check=True)
    assert json.loads(proc.stdout)["weights"] == {"2,5:[1,0|0,0,-1]": "1"}


def test_koszul_subcommand(tmp_path):
    proc = run_cli(
        [
            "koszul",
            "--E", "O(2)",
            "--F", "sym(3,Q)",
            "--target", "ideal",
            "--degree", "1",
            "--grass", "2,5",
        ],
        tmp_path,
        check=True,
    )
    assert json.loads(proc.stdout) == {"kind": "exact", "dim": "1"}


def test_check_exit_codes(tmp_path):
    proc = run_cli(["check", "thm2", "--F", "sym(4,Q)", "--grass", "1,4"], tmp_path)
    assert proc.returncode == 1
    report = json.loads(proc.stdout)
    assert any(w["group"] == "5.1b" for w in report["witnesses"])
    proc = run_cli(["check", "thm2", "--F", "sym(3,Q)", "--grass", "1,4"], tmp_path)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["verdict"] == "pass"


def test_check_thm3_list_argument(tmp_path):
    proc = run_cli(
        ["check", "thm3", "--F", "sym(2,Q),O(1)", "--grass", "2,6"], tmp_path
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["verdict"] == "pass"


def test_warning_is_one_stderr_line(tmp_path):
    proc = run_cli(["check", "thm3", "--F", "sym(2,Q)", "--grass", "2,5"], tmp_path)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["verdict"] == "pass"
    assert proc.stderr == (
        "warning: dim X = 3, the four-fold statement is stated for dim X = 4\n"
    )


def test_unusable_cache_dir_is_one_warning_line(tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    args = ["rank", "sym(3,Q)", "--grass", "2,5"]
    proc = run_cli(args, tmp_path, cache_dir=blocker / "sub")
    bare = run_cli(args + ["--no-cache"], tmp_path)
    assert proc.returncode == bare.returncode == 0
    assert proc.stdout == bare.stdout
    (line,) = proc.stderr.splitlines()
    assert proc.stderr == line + "\n"
    assert line.startswith(f"warning: cache disabled: cannot create {blocker / 'sub'} (")


def test_undecodable_cache_value_is_one_warning_line(tmp_path):
    # an entry that parses as JSON but whose value does not load is a
    # corrupt entry: a miss, recomputed and overwritten
    args = ["rank", "sym(2,Q)", "--grass", "2,5"]
    run_cli(args, tmp_path, check=True)
    for path in (tmp_path / "cache").glob("*.json"):
        entry = json.loads(path.read_text())
        if entry["operation"] == "evaluate" and entry["key"] == "2,5|sym(2,Q)":
            break
    else:
        raise AssertionError("no evaluate entry for sym(2,Q)")
    weights = entry["value"]["weights"]
    weights[next(iter(weights))] = "x"
    path.write_text(json.dumps(entry))
    proc = run_cli(args, tmp_path)
    bare = run_cli(args + ["--no-cache"], tmp_path)
    assert proc.returncode == bare.returncode == 0
    assert proc.stdout == bare.stdout
    (line,) = proc.stderr.splitlines()
    assert proc.stderr == line + "\n"
    assert line.startswith("warning: corrupt cache entry ")
    assert " ignored (" in line
    again = run_cli(args, tmp_path)
    assert again.stdout == bare.stdout and again.stderr == ""


def test_cli_import_leaves_out_logging_threads_and_dataclasses(tmp_path):
    code = (
        "import sys, grassbott.cli; "
        "print(sorted({'logging', 'concurrent.futures', 'dataclasses', 'inspect'}"
        " & set(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=_env(tmp_path / "cache"),
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


def test_euler_hilbert_screen(tmp_path):
    proc = run_cli(["euler", "--E", "O(0)", "--F", "O(4)", "--grass", "1,4"], tmp_path, check=True)
    assert json.loads(proc.stdout) == {"euler": "2"}
    proc = run_cli(["hilbert", "--F", "O(4)", "--range", "0..1", "--grass", "1,4"], tmp_path, check=True)
    assert json.loads(proc.stdout) == {
        "values": [{"r": 0, "chi": "2"}, {"r": 1, "chi": "4"}]
    }
    proc = run_cli(["screen", "--F", "irr[3,0]", "--grass", "2,5"], tmp_path, check=True)
    data = json.loads(proc.stdout)
    assert data["is_fano"] is False and data["det_coefficient"] == "6"


def test_enumerate_subcommand(tmp_path):
    proc = run_cli(["enumerate", "--lemma54", "--k", "5"], tmp_path, check=True)
    rows = [json.loads(line) for line in proc.stdout.splitlines()]
    assert {
        "beta": [1, 1, 1, 0, 0],
        "family": "ro5",
        "n_min": 7,
        "n_max": 10,
    } in rows


def test_crossval_exit_codes(tmp_path):
    proc = run_cli(["crossval", "--beta", "3,0", "--grass", "2,5"], tmp_path)
    assert proc.returncode == 1
    assert json.loads(proc.stdout)["consistent"] is False
    proc = run_cli(["crossval", "--beta", "1,1", "--grass", "2,5"], tmp_path)
    assert proc.returncode == 0


def test_parse_error_exit_code(tmp_path):
    proc = run_cli(["bott", "wedge(", "--grass", "2,5"], tmp_path)
    assert proc.returncode == 2
    assert "error" in proc.stderr
    proc = run_cli(["bott", "irr[1,2,3]", "--grass", "2,5"], tmp_path)
    assert proc.returncode == 2
    proc = run_cli(["bott", "Q"], tmp_path)  # missing --grass
    assert proc.returncode == 2


def test_usage_error_exit_code(tmp_path):
    for args in (["nonsense"], ["bott", "Q", "--grass", "2,5", "--jobs", "2"]):
        proc = run_cli(args, tmp_path)
        assert proc.returncode == 2


def test_cache_flag_outputs_identical(tmp_path):
    # screen prints the summands of F, so F with several summands (a
    # power, a tensor product, a direct sum) shows whether a
    # decomposition read back from the store prints like a freshly
    # computed one
    for args in (
        ["bott", "tensor(Theta,wedge(2,dual(sym(2,Q))))", "--grass", "2,5"],
        ["screen", "--F", "wedge(3,irr[2,1,0])", "--grass", "3,6"],
        ["screen", "--F", "tensor(Q,Q)", "--grass", "2,6"],
        ["screen", "--F", "sum(sym(2,Q),O(1))", "--grass", "2,6"],
    ):
        cold = run_cli(args, tmp_path)
        warm = run_cli(args, tmp_path)  # second run reads the store
        off = run_cli([*args, "--no-cache"], tmp_path)
        assert cold.returncode == 0
        assert cold.stdout == warm.stdout == off.stdout
    assert (tmp_path / "cache").exists()


def test_table_format_same_numbers(tmp_path):
    args = ["bott", "twist(dual(wedge(3,sym(3,Q))),2)", "--grass", "2,5"]
    data = json.loads(run_cli(args, tmp_path).stdout)
    table = run_cli([*args, "--format", "table"], tmp_path).stdout
    for p, d in data.items():
        assert f"H^{p} = {d}" in table


def test_koszul_dump_table(tmp_path):
    proc = run_cli(
        [
            "koszul", "--E", "O(2)", "--F", "sym(3,Q)",
            "--target", "ideal", "--degree", "1", "--grass", "2,5",
            "--dump-table",
        ],
        tmp_path,
        check=True,
    )
    data = json.loads(proc.stdout)
    assert data["verdict"] == {"kind": "exact", "dim": "1"}
    assert {"q": 3, "p": 3, "dim": "1"} in data["table"]["cells"]


def test_screen_accepts_sums(tmp_path):
    proc = run_cli(
        ["screen", "--F", "sym(2,Q),O(1)", "--grass", "2,6"], tmp_path, check=True
    )
    data = json.loads(proc.stdout)
    assert data["is_fano"] is True and data["dim_X"] == 4
    assert data["det_coefficient"] == "4"


def test_hilbert_bad_range_is_usage_error(tmp_path):
    proc = run_cli(["hilbert", "--F", "O(4)", "--range", "2..1", "--grass", "1,4"], tmp_path)
    assert proc.returncode == 2
    proc = run_cli(["hilbert", "--F", "O(4)", "--range", "x", "--grass", "1,4"], tmp_path)
    assert proc.returncode == 2


def test_report_json_roundtrips(tmp_path):
    proc = run_cli(["check", "thm1", "--F", "sym(3,Q)", "--grass", "2,5"], tmp_path)
    assert proc.returncode == 1
    data = json.loads(proc.stdout)
    assert json.loads(json.dumps(data)) == data
    assert data["theorem"] == "1"
    assert data["instance"]["F"] == "sym(3,Q)"
