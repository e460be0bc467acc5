"""CLI tests: exit codes, CSV byte-stability, and JSON mirrors."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pqbernstein

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
            ["voronovskaja", "--f", "exp(800*x)", "--point", "0.9,0.5", "--degrees", "16,32"],
            ["certify", "--f", "quad", "--grid", "0", "--degrees", "4", "--schedule", "i"],
            ["certify", "--f", "quad", "--grid", "1", "--degrees", "4", "--schedule", "i"],
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
