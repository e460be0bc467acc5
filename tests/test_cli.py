"""CLI tests: exit codes, CSV byte-stability, and JSON mirrors."""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import pqbernstein
from pqbernstein import cli
from pqbernstein.convergence import THEOREMS
from pqbernstein.functions import CORPUS

# the child interpreter imports the same package as this test process
SRC = str(Path(pqbernstein.__file__).resolve().parent.parent)

# argv tails (after the program name) for a fast representative run of
# every subcommand; small degrees keep the whole module quick
SUBCOMMANDS = {
    "pq": ["pq", "--n", "6", "--p", "0.9", "--q", "0.6"],
    "eval": [
        "eval", "--f", "x^2+y^2", "--n", "5", "--m", "5",
        "--p1", "0.9", "--q1", "0.6", "--p2", "0.9", "--q2", "0.6",
        "--grid", "5",
    ],
    "moments": ["moments", "--n", "8", "--p", "0.9", "--q", "0.6"],
    "central-moments": ["central-moments", "--n", "8", "--p", "0.9", "--q", "0.6"],
    "korovkin": [
        "korovkin", "--f", "quad", "--schedule", "i", "--degrees", "4,8", "--grid", "11",
    ],
    "certify": [
        "certify", "--theorem", "complete-modulus", "--f", "quad",
        "--schedule", "i", "--degrees", "4", "--grid", "11",
    ],
    "voronovskaja": [
        "voronovskaja", "--f", "quad", "--schedule", "i",
        "--point", "0.5,0.5", "--degrees", "16,32",
    ],
    "selftest": ["selftest", "--seed", "0"],
}


def run_cli(args, **kw):
    env = {**os.environ, "PYTHONPATH": SRC}
    return subprocess.run(
        [sys.executable, "-m", "pqbernstein.cli", *args],
        capture_output=True,
        text=True,
        env=env,
        **kw,
    )


@pytest.mark.parametrize("name", sorted(SUBCOMMANDS))
def test_subcommand_succeeds_and_emits_csv(name):
    res = run_cli(SUBCOMMANDS[name])
    assert res.returncode == 0, res.stderr
    lines = res.stdout.split("\n")
    header = lines[0]
    assert "," in header
    # rectangular CSV: every data row has the header's column count
    ncols = header.count(",") + 1
    for line in lines[1:]:
        if line:
            assert line.count(",") >= ncols - 1


@pytest.mark.parametrize("name", sorted(SUBCOMMANDS))
def test_csv_byte_stable_across_runs(name):
    first = run_cli(SUBCOMMANDS[name])
    second = run_cli(SUBCOMMANDS[name])
    assert first.returncode == second.returncode == 0
    assert first.stdout.encode() == second.stdout.encode()


@pytest.mark.parametrize("name", sorted(SUBCOMMANDS))
def test_json_mirror_matches_csv(name):
    csv_res = run_cli(SUBCOMMANDS[name])
    json_res = run_cli([*SUBCOMMANDS[name], "--json"])
    assert json_res.returncode == 0, json_res.stderr
    doc = json.loads(json_res.stdout)
    assert doc["schema_version"] == 1
    assert doc["command"] == name
    header = csv_res.stdout.split("\n", 1)[0].split(",")
    assert doc["columns"] == header
    n_csv_rows = len([l for l in csv_res.stdout.split("\n")[1:] if l])
    assert len(doc["rows"]) == n_csv_rows


def test_out_file_written(tmp_path):
    out = tmp_path / "table.csv"
    res = run_cli([*SUBCOMMANDS["pq"], "--out", str(out)])
    assert res.returncode == 0
    inline = run_cli(SUBCOMMANDS["pq"]).stdout
    assert out.read_text() == inline


class TestExitCodes:
    def test_usage_error_is_2(self):
        for argv in (
            ["pq", "--n", "6", "--p", "0.5", "--q", "0.9"],
            ["pq", "--n", "-3", "--p", "0.9", "--q", "0.5"],
            ["korovkin", "--f", "no_such_function"],
            ["eval", "--f", "x +", "--n", "4", "--m", "4"],
            ["eval", "--f", "1/x", "--n", "4", "--m", "4"],
            ["eval", "--f", "sqrt(x-0.5)", "--n", "4", "--m", "4"],
            ["eval", "--f", "exp(1000*x)", "--n", "4", "--m", "4", "--grid", "2"],
            ["eval", "--f", "x", "--n", "4", "--m", "4", "--grid", "-1"],
            # finite at every node, infinite on the output lattice at x = 0.5
            ["eval", "--f", "exp(1e5*(0.01-abs(x-0.5)))", "--n", "4", "--m", "4", "--grid", "2"],
            ["voronovskaja", "--f", "exp(800*x)", "--point", "0.9,0.5", "--degrees", "16,32"],
            ["certify", "--f", "quad", "--grid", "0", "--degrees", "4", "--schedule", "i"],
            ["certify", "--f", "quad", "--grid", "1", "--degrees", "4", "--schedule", "i"],
            ["voronovskaja", "--f", "vee"],
            ["voronovskaja", "--f", "lip_half"],
            ["central-moments", "--n", "0", "--p", "0.9", "--q", "0.6"],
            ["central-moments", "--n", "-2", "--p", "0.9", "--q", "0.6"],
            ["nonsense"],
        ):
            res = run_cli(argv)
            assert res.returncode == 2, argv
            assert "Traceback" not in res.stderr, argv
            if argv != ["nonsense"]:  # argparse prints its usage first
                # one line: no traceback and no numpy warnings
                assert res.stderr.startswith("error: "), (argv, res.stderr)
                assert res.stderr.count("\n") == 1, (argv, res.stderr)

    def test_hypothesis_violation_is_2(self):
        res = run_cli(
            ["certify", "--theorem", "c1", "--f", "vee", "--schedule", "i", "--degrees", "4"]
        )
        assert res.returncode == 2
        assert "c1" in res.stderr

    def test_full_certify_run_passes(self):
        res = run_cli(
            ["certify", "--theorem", "all", "--f", "quad", "--schedule", "i", "--degrees", "4,8"]
        )
        assert res.returncode == 0, res.stderr
        assert "False" not in res.stdout.split("\n")[0]


# --- random argv through main() ----------------------------------------------

_BAD = ["0", "-2", "nan", "inf", "-inf", "abc", "", "1e-300"]


def _mix(valid, bad):
    """Mostly valid values; one draw in four from the bad ones."""
    return st.integers(0, 3).flatmap(lambda i: st.sampled_from(bad) if i == 3 else valid)


def _int(lo, hi):
    return _mix(st.integers(lo, hi).map(str), ["0", "-2", "nan", "abc", ""])


def _pair(pflag, qflag):
    """--p/--q style options: a valid pair 0 < q < p <= 1, or bad values."""
    valid = st.tuples(st.floats(0.3, 1.0), st.floats(0.2, 0.98)).map(
        lambda pr: (f"{pr[0]:.4f}", f"{pr[0] * pr[1]:.4f}")
    )
    bad = st.one_of(
        st.tuples(st.sampled_from(_BAD + ["0.5", "1.5"]), st.sampled_from(_BAD + ["0.9"])),
        st.just(("1e-300", "1e-301")),  # valid, but p^n underflows on the float path
    )
    return st.one_of(valid, valid, valid, bad).map(lambda pq: [pflag, pq[0], qflag, pq[1]])


def _opt(flag, values):
    return values.map(lambda v: [flag, v])


_FN = _opt("--f", _mix(
    st.sampled_from(sorted(CORPUS) + ["x^2+y^2", "sin(pi*x)*y", "x", "1", "abs(x-0.5)"]),
    ["1/x", "sqrt(x-0.5)", "exp(1000*x)", "x +", "max(x,", "foo(x)", "x^^2", "(x", ""],
))
_DEGREES = _opt("--degrees", _mix(
    st.lists(st.integers(2, 24), min_size=2, max_size=3, unique=True).map(
        lambda ds: ",".join(map(str, sorted(ds)))
    ),
    ["", ",", "a,b", "4,,8", "nan", "0,8", "-2", "1,4", "8,4", "16"],
))
_POINT = _opt("--point", _mix(
    st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)).map(lambda xy: f"{xy[0]:.4f},{xy[1]:.4f}"),
    ["0.5", "a,b", "1.5,0.5", "nan,0.5", "0.5,inf", "-0.1,0.2", ""],
))
_SCHEDULE = _opt("--schedule", st.sampled_from(["i", "ii", "iii", "iv", ""]))
_GRID = _opt("--grid", _int(10, 14))
_N = _opt("--n", _int(1, 24))
_PQ = _pair("--p", "--q")

# per subcommand: (argv-fragment strategy, required)
_OPTIONS = {
    "pq": [(_N, True), (_PQ, True)],
    "eval": [
        (_FN, True), (_N, True), (_opt("--m", _int(1, 24)), True),
        (_pair("--p1", "--q1"), False), (_pair("--p2", "--q2"), False), (_GRID, False),
    ],
    "moments": [(_N, True), (_PQ, True)],
    "central-moments": [(_N, True), (_PQ, True)],
    "korovkin": [(_FN, True), (_SCHEDULE, False), (_DEGREES, True), (_GRID, True)],
    "certify": [
        (_opt("--theorem", st.sampled_from([*THEOREMS, "all", "nope"])), False),
        (_FN, True),
        (_opt("--schedule", st.sampled_from(["i", "ii", "iii", "all", "iv"])), False),
        (_DEGREES, True),
        (_GRID, True),
    ],
    "voronovskaja": [(_FN, True), (_SCHEDULE, False), (_POINT, False), (_DEGREES, True)],
    "selftest": [(_opt("--seed", _mix(st.integers(0, 10**6).map(str), _BAD)), False)],
}


@st.composite
def _argv(draw, command):
    """argv of one subcommand with each option present (required ones 9
    times in 10) and drawn from small valid sizes or bad values."""
    argv = [command]
    for fragment, required in _OPTIONS[command]:
        if draw(st.integers(0, 9)) < 9 if required else draw(st.booleans()):
            argv += draw(fragment)
    if draw(st.booleans()):
        argv.append("--json")
    return argv


@pytest.mark.parametrize("command", sorted(_OPTIONS))
def test_main_exits_0_1_or_2_on_random_argv(command):
    """Nothing escapes main: the exit code is 0, 1 or 2, and a 2 that is
    not argparse's comes with exactly one stderr line 'error: ...'.  About
    100 argv in all: 13 per subcommand, 3 for the slow selftest."""

    @given(argv=_argv(command))
    @settings(
        max_examples=3 if command == "selftest" else 13, derandomize=True, database=None,
        deadline=None, suppress_health_check=[HealthCheck.too_slow],
    )
    def check(argv):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code, from_argparse = cli.main(argv), False
            except SystemExit as exc:
                code, from_argparse = exc.code, True
        assert code in (0, 1, 2), (argv, code)
        if code == 2 and not from_argparse:
            text = err.getvalue()
            assert text.startswith("error: ") and text.count("\n") == 1, (argv, text)

    check()
