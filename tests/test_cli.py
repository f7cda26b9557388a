import contextlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from grassbott.cli import build_parser

SRC = Path(__file__).resolve().parents[1] / "src"
COMMANDS = (
    "rank", "dual", "decompose", "bott", "koszul", "euler", "hilbert",
    "check", "screen", "enumerate", "crossval",
)


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


@pytest.mark.parametrize("module", ["grassbott.cli", "grassbott"])
def test_import_leaves_out_openssl_and_decimal(module):
    # -S keeps site hooks (.pth files) from importing anything first
    code = (
        f"import sys; sys.path.insert(0, {str(SRC)!r}); import {module}; "
        "print(sorted({'hashlib', '_hashlib', 'fractions', 'decimal', 'tempfile', 'pathlib'}"
        " & set(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True,
        text=True,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


def test_broken_pipe_exits_141_without_traceback(tmp_path):
    # the reader is gone before the command writes; thm1's report is
    # written while it runs, rank's only by the final flush, and a help
    # text by the flush before argparse's exit.  _env leaves out
    # PYTHONUNBUFFERED: with it set, argparse's own write of the help
    # fails, is swallowed, and the process exits 0.
    for args in (
        ["check", "thm1", "--F", "sym(3,Q)", "--grass", "2,5", "--no-cache"],
        ["rank", "Q", "--grass", "2,5", "--no-cache"],
        ["--help"],
        ["check", "--help"],
    ):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "grassbott", *args],
                stdout=write_end,
                stderr=subprocess.PIPE,
                text=True,
                env=_env(tmp_path / "cache"),
            )
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (141, "")


def _help(parser, argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), pytest.raises(SystemExit):
        parser.parse_args(argv)
    return out.getvalue()


def test_one_command_parser_matches_full_parser():
    full = build_parser()
    for name in COMMANDS:
        alone = build_parser(name)
        assert _help(alone, [name, "--help"]) == _help(full, [name, "--help"])
        # printed with an "unrecognized arguments" error
        assert alone.format_usage() == full.format_usage()


def test_help_and_unknown_command_name_every_command(tmp_path):
    proc = run_cli(["--help"], tmp_path)
    assert proc.returncode == 0
    assert re.findall(r"^    (\w+)  ", proc.stdout, re.M) == list(COMMANDS)
    proc = run_cli(["nonsense"], tmp_path)
    assert proc.returncode == 2
    choices = re.search(r"invalid choice: 'nonsense' \(choose from (.*)\)$", proc.stderr, re.M)
    assert [c.strip("'") for c in choices.group(1).split(", ")] == list(COMMANDS)


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


def test_expression_list_is_parsed_as_one_text(tmp_path):
    # offsets count from the start of the whole --F text, and an empty
    # item is a parse error
    for args, error in (
        (
            ["check", "thm3", "--F", "Q, wedge(2,Q", "--grass", "2,6"],
            "error: expected ')', found end of input (at byte 12)\n",
        ),
        (
            ["screen", "--F", "", "--grass", "2,5"],
            "error: expected an expression, found end of input (at byte 0)\n",
        ),
        (
            ["screen", "--F", "Q,,O(1)", "--grass", "2,5"],
            "error: expected an expression, found ',' (at byte 2)\n",
        ),
    ):
        proc = run_cli(args, tmp_path)
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", error), args


def test_non_dominant_irr_is_one_error_line(tmp_path):
    proc = run_cli(["crossval", "--beta", "0,1", "--grass", "2,5"], tmp_path)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        2, "", "error: non-dominant summand 2,5:[0,1|0,0,0]\n"
    )


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


# --format table stdout and exit code of the README commands and of
# koszul --dump-table, byte for byte
TABLE_GOLDENS = (
    ("bott twist(dual(wedge(3,sym(3,Q))),2) --grass 2,5", 0, "H^3 = 1\n"),
    ("rank sym(3,Q) --grass 2,5", 0, "rank: 4\n"),
    ("dual irr[3,0] --grass 2,5", 0, "2,5:[0,-3|0,0,0]  x1\n"),
    (
        "decompose tensor(Theta,wedge(2,dual(sym(2,Q)))) --grass 2,5",
        0,
        (
            "2,5:[-1,-2|0,0,-1]  x1\n"
            "2,5:[0,-3|0,0,-1]  x1\n"
        ),
    ),
    (
        "koszul --E O(2) --F sym(3,Q) --target ideal --degree 1 --grass 2,5",
        0,
        "verdict: {'kind': 'exact', 'dim': '1'}\n",
    ),
    ("euler --E O(0) --F O(4) --grass 1,4", 0, "chi: 2\n"),
    (
        "hilbert --F O(4) --range 0..3 --grass 1,4",
        0,
        (
            "r=0: chi=2\n"
            "r=1: chi=4\n"
            "r=2: chi=10\n"
            "r=3: chi=20\n"
        ),
    ),
    ("euler --E O(0) --F sym(3,Q) --grass 2,4", 0, "chi: 27\n"),
    ("euler --E O(0) --F sym(5,Q) --grass 2,5", 0, "chi: 2875\n"),
    ("euler --E O(0) --F Theta --grass 2,4", 0, "chi: 6\n"),
    (
        "check thm1 --F sym(3,Q) --grass 2,5",
        1,
        (
            "theorem 1 on Gr(2,5), F = sym(3,Q)\n"
            "verdict: not-applicable\n"
            "ambient projective dimension: 9\n"
            "projectively normal: False\n"
            "h0(O_X): 1\n"
            "witness [thm1] p=3, r=2: dim 1\n"
            "note: H^1 of the twisted ideal sheaf at r=2 is 1\n"
        ),
    ),
    (
        "check thm2 --F sym(4,Q) --grass 1,4",
        1,
        (
            "theorem 2 on Gr(1,4), F = sym(4,Q)\n"
            "verdict: not-applicable\n"
            "ambient projective dimension: 3\n"
            "witness [5.1b] p=1: dim 1\n"
        ),
    ),
    (
        "check thm3 --F sym(2,Q),O(1) --grass 2,6",
        0,
        (
            "theorem 3 on Gr(2,6), F = sum(sym(2,Q),O(1))\n"
            "verdict: pass\n"
            "ambient projective dimension: 14\n"
        ),
    ),
    (
        "screen --F irr[3,0] --grass 2,5",
        0,
        (
            "det_coefficient: 6\n"
            "dim_X: 2\n"
            "excluded: None\n"
            "grass: 2,5\n"
            "is_fano: False\n"
            "positive_dimension: True\n"
            "rank: 4\n"
            "summands: [[3, 0]]\n"
        ),
    ),
    (
        "enumerate --lemma54 --k 5",
        0,
        (
            "ro1: beta=(1, 1, 1, 1, 1) n in [6,10]\n"
            "ro1: beta=(2, 2, 2, 2, 2) n in [6,10]\n"
            "ro1: beta=(3, 3, 3, 3, 3) n in [6,10]\n"
            "ro1: beta=(4, 4, 4, 4, 4) n in [6,10]\n"
            "ro1: beta=(5, 5, 5, 5, 5) n in [6,10]\n"
            "ro1: beta=(6, 6, 6, 6, 6) n in [7,10]\n"
            "ro1: beta=(7, 7, 7, 7, 7) n in [8,10]\n"
            "ro1: beta=(8, 8, 8, 8, 8) n in [9,10]\n"
            "ro1: beta=(9, 9, 9, 9, 9) n in [10,10]\n"
            "ro2: beta=(2, 1, 1, 1, 1) n in [7,10]\n"
            "ro3: beta=(2, 2, 2, 2, 1) n in [10,10]\n"
            "ro4: beta=(1, 1, 1, 1, 0) n in [6,10]\n"
            "ro5: beta=(1, 1, 1, 0, 0) n in [7,10]\n"
        ),
    ),
    (
        "crossval --beta 3,0 --grass 2,5",
        1,
        (
            "match: 5.1b failure (wedge p=1) <-> system b/b'\n"
            "MISMATCH: scan failure thm1 (p=3, r=2, dim=1) has no system-4.1 witness as displayed; "
            "weight (6, 3) satisfies the chain except the Fano-range line b_1 <= n-1 = 4\n"
            "MISMATCH: scan failure 5.1a (p=3, dim=75) has no system-a witness as displayed; "
            "weight (5, 1) satisfies the chain except the Fano-range line\n"
            "MISMATCH: scan failure 5.1b (wedge p=2, dim=45) has no system-b/b' witness as displayed; "
            "weight (5, 1) satisfies system b except the Fano-range line\n"
            "consistent: False\n"
        ),
    ),
    (
        "koszul --E O(2) --F sym(3,Q) --target ideal --degree 1 --grass 2,5 --dump-table",
        0,
        (
            "cell q=0 p=0: 50\n"
            "cell q=3 p=3: 1\n"
            "verdict: exact {'kind': 'exact', 'dim': '1'}\n"
        ),
    ),
)


@pytest.mark.parametrize("argv, code, stdout", TABLE_GOLDENS, ids=[g[0] for g in TABLE_GOLDENS])
def test_table_format_golden(argv, code, stdout, tmp_path):
    proc = run_cli([*argv.split(), "--format", "table"], tmp_path)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, stdout, "")


def _readme_cli_examples():
    """The ``grassbott`` lines of the sh block under ``## CLI`` in
    README.md, as (argv, parsed ``# -> ...`` comment or None); the
    comment sits on the command's line or on the line after it."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("\n```", 1)[0]
    examples = []
    for line in block.splitlines():
        if line.startswith("grassbott "):
            examples.append((shlex.split(line, comments=True)[1:], None))
        if "# -> " in line:
            argv, _ = examples[-1]
            examples[-1] = (argv, json.loads(line.partition("# -> ")[2]))
    return examples


def test_readme_cli_examples_are_table_goldens(tmp_path):
    goldens = {tuple(g[0].split()) for g in TABLE_GOLDENS}
    examples = _readme_cli_examples()
    assert examples and any(output is not None for _, output in examples)
    for argv, output in examples:
        assert tuple(argv) in goldens, argv
        if output is not None:
            proc = run_cli([*argv, "--format", "json"], tmp_path)
            assert json.loads(proc.stdout) == output, argv


def test_missing_grass_is_one_error_line(tmp_path):
    for args in (
        ["rank", "Q"],
        ["dual", "Q"],
        ["decompose", "Q"],
        ["bott", "Q"],
        ["koszul", "--E", "O(0)", "--F", "Q", "--target", "ideal", "--degree", "0"],
        ["euler", "--E", "O(0)", "--F", "Q"],
        ["hilbert", "--F", "Q", "--range", "0..1"],
        ["check", "thm1", "--F", "Q"],
        ["screen", "--F", "Q"],
        ["crossval", "--beta", "1,1"],
    ):
        proc = run_cli(args, tmp_path)
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            2, "", "error: this command needs --grass k,n\n"
        ), args


def _store_entries(cache_dir):
    return {
        (entry["operation"], entry["key"])
        for entry in (json.loads(p.read_text()) for p in cache_dir.glob("*.json"))
    }


def test_cohomology_query_stores_profile_not_its_decomposition(tmp_path):
    # a Koszul column is stored as a cohomology profile only; the
    # decompositions of its children stay in the store for other commands
    args = ["euler", "--E", "O(0)", "--F", "sym(3,Q)", "--grass", "2,4"]
    cold = run_cli(args, tmp_path, check=True)
    entries = _store_entries(tmp_path / "cache")
    for q in range(5):
        key = f"2,4|tensor(O(0),wedge({q},dual(sym(3,Q))))"
        assert ("cohomology", key) in entries
        assert ("evaluate", key) not in entries
        assert ("evaluate", f"2,4|wedge({q},dual(sym(3,Q)))") in entries
    warm = run_cli(args, tmp_path, check=True)
    assert warm.stdout == cold.stdout == '{"euler": "27"}\n'

    # the deformation groups are the q = p cells of the columns of E = F
    # and E = Theta, stored the same way; a vanishing group is never
    # decomposed
    cache = tmp_path / "thm2-pass"
    args = ["check", "thm2", "--F", "sym(2,Q)", "--grass", "2,5"]
    cold = run_cli(args, tmp_path, check=True, cache_dir=cache)
    assert json.loads(cold.stdout)["witnesses"] == []
    entries = _store_entries(cache)
    for e, ps in (("sym(2,Q)", range(1, 4)), ("Theta", range(4))):
        for p in ps:
            key = f"2,5|tensor({e},wedge({p},dual(sym(2,Q))))"
            assert ("cohomology", key) in entries, key
            assert ("evaluate", key) not in entries, key
    assert run_cli(args, tmp_path, check=True, cache_dir=cache).stdout == cold.stdout

    # a nonzero group is decomposed for its witness weights, and only it
    cache = tmp_path / "thm2-fail"
    args = ["check", "thm2", "--F", "sym(4,Q)", "--grass", "1,4"]
    runs = [run_cli(args, tmp_path, cache_dir=cache) for _ in range(2)]
    runs.append(run_cli([*args, "--no-cache"], tmp_path, cache_dir=cache))
    witnesses = json.loads(runs[0].stdout)["witnesses"]
    assert [(w["group"], w["p"]) for w in witnesses] == [("5.1b", 1)]
    assert {(r.returncode, r.stdout, r.stderr) for r in runs} == {(1, runs[0].stdout, "")}
    tensors = {
        key for op, key in _store_entries(cache) if op == "evaluate" and "|tensor(" in key
    }
    assert tensors == {"1,4|tensor(Theta,wedge(1,dual(sym(4,Q))))"}


def test_check_thm2_is_warning_free_at_rank_equal_to_dimension(tmp_path):
    # rank F = dim Gr(2,4): the scan reads Koszul tables of F but draws no
    # verdict from them, so nothing may reach stderr
    proc = run_cli(["check", "thm2", "--F", "sym(3,Q)", "--grass", "2,4"], tmp_path)
    assert (proc.returncode, proc.stderr) == (1, "")


def test_euler_and_hilbert_refuse_a_non_generated_section_bundle(tmp_path):
    # O(-1) has no nonzero section: as with koszul, there is no zero locus
    error = "error: summand 1,4:[-1|0,0,0] of F is not globally generated\n"
    for args in (
        ["koszul", "--E", "O(0)", "--F", "O(-1)", "--target", "ideal", "--degree", "0"],
        ["euler", "--E", "O(0)", "--F", "O(-1)"],
        ["hilbert", "--F", "O(-1)", "--range", "0..2"],
    ):
        proc = run_cli([*args, "--grass", "1,4"], tmp_path)
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", error), args


def test_rank_warning_only_where_a_verdict_is_drawn(tmp_path):
    # rank sym(3,Q) = dim Gr(2,4) = 4: the koszul verdict warns once; the
    # Euler characteristic reads the same table and claims nothing about
    # the dimension of X (check thm2 is covered above)
    warning = (
        "warning: rank(F) = 4 >= dim Gr = 4: the zero locus is empty or "
        "zero-dimensional\n"
    )
    cases = (
        (["koszul", "--E", "O(0)", "--F", "sym(3,Q)", "--target", "restriction",
          "--degree", "0"], 0, warning),
        (["euler", "--E", "O(0)", "--F", "sym(3,Q)"], 0, ""),
    )
    for args, code, stderr in cases:
        proc = run_cli([*args, "--grass", "2,4"], tmp_path)
        assert (proc.returncode, proc.stderr) == (code, stderr), args


def _limit_address_space():
    import resource

    limit = 1 << 30
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


@pytest.mark.parametrize("theorem", ["thm1", "thm2", "thm3"])
def test_check_refuses_rank_above_dimension_before_any_scan(theorem, tmp_path):
    # rank irr[4,2,1,0] = 140 > dim Gr(4,8) = 16; the scans on this F ran
    # for minutes and past 680 MB, so the child gets 1 GB and 30 s
    proc = subprocess.run(
        [sys.executable, "-m", "grassbott", "check", theorem,
         "--F", "irr[4,2,1,0]", "--grass", "4,8"],
        capture_output=True,
        text=True,
        env=_env(tmp_path / "cache"),
        preexec_fn=_limit_address_space,
        timeout=30,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        2,
        "",
        "error: rank F = 140 > dim Gr(4,8) = 16: the zero locus of a general "
        "section is empty\n",
    )


@pytest.mark.parametrize(
    "theorem,f",
    [("thm1", "O(0)"), ("thm2", "sum(Q,O(0))"), ("thm3", "Q,O(0)")],
)
def test_check_refuses_a_trivial_summand(theorem, f, tmp_path):
    # a general section of O + F' has a nonzero constant component, so its
    # zero locus is empty
    proc = run_cli(["check", theorem, "--F", f, "--grass", "2,5"], tmp_path)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        2,
        "",
        "error: F has a trivial summand O: the zero locus of a general section "
        "is empty\n",
    )
