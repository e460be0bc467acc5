"""CLI tests: exit codes, CSV byte-stability, and JSON mirrors."""

import argparse
import contextlib
import csv
import io
import json
import math
import os
import signal
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import pqbernstein
from pqbernstein import cli, convergence
from pqbernstein.bivariate import BiParams, _eval_grid, bi_apply_grid
from pqbernstein.convergence import THEOREMS
from pqbernstein.functions import CORPUS, resolve_function
from pqbernstein.pq_core import (
    PQPair,
    bracket_values,
    log_factorials,
    pq_binomials,
    pq_factorials,
    pq_integer,
)

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


def run_cli(args, env=None, **kw):
    """A fresh ``python -m pqbernstein.cli`` child, for tests whose subject
    is the process itself; every other test runs main in-process (_run_main)."""
    env = {**os.environ, **(env or {}), "PYTHONPATH": SRC}
    return subprocess.run(
        [sys.executable, "-m", "pqbernstein.cli", *args],
        capture_output=True,
        text=True,
        env=env,
        **kw,
    )


def _run_main(argv) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of main(argv) in this process, where an
    argparse error is its SystemExit code.  pytest turns any RuntimeWarning
    into an error, so a numpy warning fails the caller."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _main_stdout(argv) -> str:
    code, out, err = _run_main(argv)
    assert code == 0, err
    return out


@pytest.mark.parametrize("name", sorted(SUBCOMMANDS))
def test_subcommand_succeeds_and_emits_csv(name):
    header, *rows = csv.reader(io.StringIO(_main_stdout(SUBCOMMANDS[name])))
    assert len(header) > 1
    # rectangular CSV: every data row has the header's column count
    for row in rows:
        assert len(row) == len(header), row


@pytest.mark.parametrize("name", sorted(SUBCOMMANDS))
def test_csv_byte_stable_across_runs(name):
    # two runs in one process: module state left by the first run (a cache,
    # a global) must not move the second run's bytes
    first = _main_stdout(SUBCOMMANDS[name])
    second = _main_stdout(SUBCOMMANDS[name])
    assert first.encode() == second.encode()


@pytest.mark.parametrize("name", sorted(SUBCOMMANDS))
def test_json_mirror_matches_csv(name):
    out = _main_stdout(SUBCOMMANDS[name])
    doc = json.loads(_main_stdout([*SUBCOMMANDS[name], "--json"]))
    assert doc["schema_version"] == 1
    assert doc["command"] == name
    header, *rows = csv.reader(io.StringIO(out))
    assert doc["columns"] == header
    assert len(doc["rows"]) == len(rows)
    for json_row, csv_row in zip(doc["rows"], rows):
        assert [cli._fmt(v) for v in json_row] == csv_row


def test_voronovskaja_bytes_do_not_depend_on_the_blas_thread_count():
    argv = ["voronovskaja", "--f", "ripple", "--degrees", "16,64,256,1024", "--point", "0.3,0.6"]
    outs = []
    for threads in ("1", "2"):
        res = run_cli(argv, env={"OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads})
        assert res.returncode == 0, res.stderr
        outs.append(res.stdout)
    assert outs[0] == outs[1]


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs per-thread CPU times")
def test_blas_helper_threads_do_not_spin_after_the_cli_loads():
    # a spinning OpenBLAS helper burns about 0.1 s of CPU once numpy loads;
    # the sleep gives it the time to do so
    code = (
        "import os, time, pqbernstein.cli\n"
        "time.sleep(0.3)\n"
        "helpers = [t for t in os.listdir('/proc/self/task') if t != str(os.getpid())]\n"
        "stats = [open(f'/proc/self/task/{t}/stat').read().rsplit(')', 1)[1].split() for t in helpers]\n"
        "print(sum(int(s[11]) + int(s[12]) for s in stats) / os.sysconf('SC_CLK_TCK'))"
    )
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_THREAD_TIMEOUT"}
    res = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**env, "PYTHONPATH": SRC},
        check=True,
    )
    assert float(res.stdout) < 0.03


def test_out_file_written(tmp_path):
    out = tmp_path / "table.csv"
    _main_stdout([*SUBCOMMANDS["pq"], "--out", str(out)])
    inline = _main_stdout(SUBCOMMANDS["pq"])
    assert out.read_text() == inline


def _reference_csv(columns, rows) -> str:
    """A table through csv.writer with _fmt on every cell, the route of
    list tables."""
    fh = io.StringIO()
    w = csv.writer(fh, lineterminator="\n")
    w.writerow(columns)
    for row in rows:
        w.writerow([cli._fmt(v) for v in row])
    return fh.getvalue()


@pytest.fixture
def forks(monkeypatch):
    """The pids of the children that os.fork makes in this process during
    the test."""
    pids = []
    fork = os.fork

    def recording_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    return pids


def _assert_reaped(pids):
    for pid in pids:  # a child still running, or exited but unreaped, is still ours
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


class TestFloatTableBytes:
    """eval writes its grid one x-line at a time, each coordinate formatted
    once; the bytes must be those of the per-cell route."""

    # x = 0 and y = 0 give exact zeros, f = -x*y prints -0 there, and Bf
    # misses f by about 1e-17 inside, printed in exponent form; --grid 0
    # is the one-point grid
    CASES = [("-x*y", 9, 11, 7), ("ripple", 5, 7, 0)]
    ARGV = ["eval", "--f=-x*y", "--n", "9", "--m", "11", "--grid", "7"]
    COLUMNS = ["x", "y", "f", "Bf", "abs_err"]

    @staticmethod
    def _eval_case(f, n, m, grid):
        """(argv, rows): eval's argv and its table as lists, row by row."""
        argv = ["eval", f"--f={f}", "--n", str(n), "--m", str(m), "--grid", str(grid)]
        fn = resolve_function(f).fn
        params = BiParams(PQPair(0.95, 0.9), PQPair(0.95, 0.9), n, m)
        xs = np.linspace(0.0, 1.0, grid + 1)
        B = bi_apply_grid(fn, params, xs, xs)
        F = _eval_grid(fn, xs, xs)
        return argv, [
            [x, y, fv, bv, abs(bv - fv)]
            for x, frow, brow in zip(xs.tolist(), F.tolist(), B.tolist())
            for y, fv, bv in zip(xs.tolist(), frow, brow)
        ]

    @staticmethod
    def _special_grids():
        """(columns, grid, rows): grids whose value planes hold the special
        finite doubles, with rows the same table as lists, x outer."""
        values = [
            0.0, -0.0, 5e-324, -5e-324, -2.2250738585072014e-308,
            2.225073858507201e-308,  # the largest subnormal
            1e16, 1.7976931348623157e308, -1.7976931348623157e308, 1e-300,
            0.1, 1 / 3, 123456789012345678.0, -1e-17,
        ]
        V = np.array(values + [1.0]).reshape(3, 5)
        xs, ys = np.array([0.0, 0.1, 1.0]), np.array([0.0, 1 / 3, 0.5, 0.7, 1.0])
        grids = [
            cli.Grid(xs, ys, (V, -V)),  # len(xs) != len(ys)
            cli.Grid(xs[:1], ys[:1], (V[:1, :1],)),  # one point
            cli.Grid(xs[:0], ys, (V[:0],)),  # no rows: no x
            cli.Grid(xs, ys[:0], (V[:, :0],)),  # no rows: no y
        ]
        for g in grids:
            columns = ["x", "y"] + [f"v{k}" for k in range(len(g.planes))]
            rows = [
                [x, y, *(float(p[i, j]) for p in g.planes)]
                for i, x in enumerate(g.xs.tolist())
                for j, y in enumerate(g.ys.tolist())
            ]
            assert len(g) == len(rows)
            yield columns, g, rows

    def test_eval_csv_equals_list_route(self):
        for case in self.CASES:
            argv, rows = self._eval_case(*case)
            assert _main_stdout(argv) == _reference_csv(self.COLUMNS, rows), argv
        cells = [line.split(",") for line in _main_stdout(self.ARGV).splitlines()[1:]]
        assert any("e-17" in c[4] for c in cells)
        assert any(c[4] == "0" for c in cells)
        assert any(c[2] == "-0" for c in cells)

    def test_eval_json_rows_equal_csv_cells(self):
        text = _main_stdout(self.ARGV)
        cells = [[float(v) for v in line.split(",")] for line in text.splitlines()[1:]]
        doc = json.loads(_main_stdout([*self.ARGV, "--json"]))
        assert doc["rows"] == cells
        assert len(cells) == 64

    def test_json_equals_json_dump(self):
        # eval's --json document, and special doubles through the grid
        # writer, are byte for byte json.dump(doc, fh, indent=2) of the rows
        # as lists
        for case in self.CASES:
            argv, rows = self._eval_case(*case)
            doc = {"schema_version": 1, "command": "eval", "columns": self.COLUMNS, "rows": rows}
            assert _main_stdout([*argv, "--json"]) == json.dumps(doc, indent=2) + "\n", argv
        for columns, grid, rows in self._special_grids():
            fh, ref = io.StringIO(), io.StringIO()
            cli._write(fh, argparse.Namespace(json=True), columns, grid, "t")
            doc = {"schema_version": 1, "command": "t", "columns": columns, "rows": rows}
            json.dump(doc, ref, indent=2)
            assert fh.getvalue() == ref.getvalue() + "\n", (grid.xs.size, grid.ys.size)

    def test_special_doubles(self):
        for columns, grid, rows in self._special_grids():
            fh = io.StringIO()
            cli._write(fh, argparse.Namespace(json=False), columns, grid, "t")
            assert fh.getvalue() == _reference_csv(columns, rows), (grid.xs.size, grid.ys.size)

    def test_non_finite_cell_is_rejected_before_any_byte(self, tmp_path, capsys):
        # every table leaves through _emit: a nan or infinite float cell
        # raises, naming the command, the column and the row or point,
        # before stdout or an existing --out file sees a byte
        out = tmp_path / "table.txt"
        xs, ys = np.array([0.0, 0.5]), np.array([0.0, 0.25, 1.0])
        for bad in (math.nan, math.inf, -math.inf):
            F, V = np.zeros((2, 3)), np.zeros((2, 3))
            V[1, 2] = bad
            for columns, table, where in (
                (["x", "y", "f", "err"], cli.Grid(xs, ys, (F, V)), "at x, y = (0.5, 1.0)"),
                (["name", "k", "err"], [["a", 1, 0.5], ["b", 2, bad]], "in row 2"),
            ):
                for dest, as_json in ((d, j) for d in ("-", str(out)) for j in (False, True)):
                    out.write_text("before\n")
                    with pytest.raises(ValueError) as exc:
                        cli._emit(argparse.Namespace(json=as_json, out=dest), columns, table, "t")
                    assert str(exc.value) == f"t: err is not finite {where}: {bad}"
                    assert capsys.readouterr().out == ""
                    assert out.read_text() == "before\n"

    def test_out_file_equals_stdout(self, tmp_path):
        argv = ["eval", "--f", "ripple", "--n", "30", "--m", "30", "--grid", "400"]
        for fmt in ([], ["--json"]):
            out = tmp_path / "eval.txt"
            with contextlib.redirect_stdout(io.StringIO()) as echo:
                assert cli.main([*argv, *fmt, "--out", str(out)]) == 0
            assert echo.getvalue() == ""
            text = _main_stdout([*argv, *fmt])
            assert out.read_bytes() == text.encode(), fmt
        assert text.count("\n    [") == 401 * 401

    def test_chunked_writer_bytes_equal_one_writer(self, monkeypatch, forks):
        # the grid writer forks a child for each chunk of x-lines after the
        # first; 401 x-lines hold up to 6 chunks of at least 64
        argv = ["eval", "--f", "ripple", "--n", "30", "--m", "30", "--grid", "400"]
        formats = ([], ["--json"])
        monkeypatch.setattr(cli, "_cpus", lambda: 1)
        one = [_main_stdout([*argv, *fmt]) for fmt in formats]
        assert forks == []
        for cpus in (2, 3, 5):
            monkeypatch.setattr(cli, "_cpus", lambda: cpus)
            del forks[:]
            assert [_main_stdout([*argv, *fmt]) for fmt in formats] == one, cpus
            assert len(forks) == len(formats) * (cpus - 1), cpus
            _assert_reaped(forks)

    def test_chunked_writer_special_doubles(self, monkeypatch, forks):
        # chunks of one x-line, so that even the special grids split; the
        # 3-line grid has fewer x-lines than 5 CPUs and splits in 3
        monkeypatch.setattr(cli, "_MIN_CHUNK_LINES", 1)
        for columns, grid, _ in self._special_grids():
            for as_json in (False, True):
                args = argparse.Namespace(json=as_json)
                monkeypatch.setattr(cli, "_cpus", lambda: 1)
                one = io.StringIO()
                cli._write(one, args, columns, grid, "t")
                for cpus in (2, 3, 5):
                    monkeypatch.setattr(cli, "_cpus", lambda: cpus)
                    del forks[:]
                    fh = io.StringIO()
                    cli._write(fh, args, columns, grid, "t")
                    assert fh.getvalue() == one.getvalue(), (grid.xs.size, as_json, cpus)
                    if len(grid):
                        assert len(forks) == min(cpus, grid.xs.size) - 1, (grid.xs.size, cpus)
                    _assert_reaped(forks)

    def test_eval_bytes_do_not_depend_on_the_cpu_count(self):
        # certify's sweep forks across the CPUs too; its argv exits 1 with
        # a FAIL line on stderr
        cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
        if len(cpus) < 2:
            pytest.skip("one CPU: eval and certify fork no child, so there is nothing to compare")
        # one BLAS thread on both sides: OpenBLAS would otherwise follow the
        # affinity, and its thread count moves the bytes of the grid product
        env = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
        for argv, code in (
            (["eval", "--f", "ripple", "--n", "30", "--m", "30", "--grid", "400"], 0),
            (TestCertifyProcesses.FAIL_ARGV, 1),
        ):
            for fmt in ([], ["--json"]):
                pinned = run_cli(
                    [*argv, *fmt], env=env, preexec_fn=lambda: os.sched_setaffinity(0, {cpus[0]})
                )
                free = run_cli([*argv, *fmt], env=env)
                assert pinned.returncode == free.returncode == code, (pinned.stderr, free.stderr)
                assert (pinned.stdout, pinned.stderr) == (free.stdout, free.stderr), (argv, fmt)


class TestGridWriterProcesses:
    """Every path out of eval's grid writer reaps every child it forked,
    and a failure is one line on stderr with exit code 2."""

    ARGV = ["eval", "--f", "ripple", "--n", "30", "--m", "30", "--grid", "400"]

    def test_broken_pipe_leaves_no_process(self):
        proc = subprocess.Popen(
            [sys.executable, "-m", "pqbernstein.cli", *self.ARGV],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env={**os.environ, "PYTHONPATH": SRC},
            start_new_session=True,
        )
        try:
            assert proc.stdout.readline() == "x,y,f,Bf,abs_err\n"
            proc.stdout.close()
            assert proc.wait(timeout=120) == 2
            # before stderr is drained: a child left running would hold it open
            with pytest.raises(ProcessLookupError):
                os.killpg(proc.pid, 0)
            err = proc.stderr.read()
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
            proc.stderr.close()
        assert err == "i/o error: [Errno 32] Broken pipe\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_failed_child_is_one_io_error_line(self, monkeypatch, capfd, forks):
        # every child's temporary file is full: the first child exits 1
        monkeypatch.setattr(cli, "_cpus", lambda: 3)
        monkeypatch.setattr(
            tempfile, "TemporaryFile", lambda *a, **kw: open("/dev/full", "w+", encoding="utf-8")
        )
        assert cli.main(self.ARGV) == 2
        err = capfd.readouterr().err
        assert err == f"i/o error: grid writer process {forks[0]} exited with status 1\n"
        assert len(forks) == 2
        _assert_reaped(forks)

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_unwritable_out_reaps_every_child(self, monkeypatch, capfd, forks):
        monkeypatch.setattr(cli, "_cpus", lambda: 3)
        assert cli.main([*self.ARGV, "--out", "/dev/full"]) == 2
        assert capfd.readouterr().err == "i/o error: [Errno 28] No space left on device\n"
        assert len(forks) == 2
        _assert_reaped(forks)

    def test_interrupted_first_chunk_reaps_every_child(self, monkeypatch, forks):
        # a broken pipe is the subprocess test above; an interrupt is not
        # caught by main and leaves through the same finally
        class InterruptedOut(io.StringIO):
            def write(self, text):
                if self.tell():  # the header goes through; the first x-line is interrupted
                    raise KeyboardInterrupt
                return super().write(text)

        monkeypatch.setattr(cli, "_cpus", lambda: 3)
        with contextlib.redirect_stdout(InterruptedOut()), pytest.raises(KeyboardInterrupt):
            cli.main(self.ARGV)
        assert len(forks) == 2
        _assert_reaped(forks)


class TestCertifyProcesses:
    """certify sweeps contiguous chunks of its functions, each after the
    first in a forked child: stdout, stderr and the exit code are those of
    one process, and every path out reaps every child."""

    # every theorem, so the chunks' rows must be merged theorem-major
    ALL_ARGV = ["certify", "--schedule", "i", "--degrees", "4", "--grid", "10"]
    # const1's rows FAIL (exit 1 and a stderr line); vee and lip_half,
    # in the last chunks, are skipped rows
    FAIL_ARGV = ["certify", "--theorem", "c1", "--schedule", "all", "--degrees", "128,256",
                 "--grid", "10"]

    @staticmethod
    def _one_cpu(monkeypatch, argv):
        monkeypatch.setattr(cli, "_cpus", lambda: 1)
        return _run_main(argv)

    def test_bytes_do_not_depend_on_the_cpu_count(self, monkeypatch, forks):
        for argv, code in ((self.ALL_ARGV, 0), (self.FAIL_ARGV, 1)):
            for fmt in ([], ["--json"]):
                one = self._one_cpu(monkeypatch, [*argv, *fmt])
                assert one[0] == code and forks == [], (argv, one[2])
                for cpus in (2, 3, 8, 9):
                    monkeypatch.setattr(cli, "_cpus", lambda: cpus)
                    assert _run_main([*argv, *fmt]) == one, (argv, fmt, cpus)
                    assert len(forks) == min(cpus, len(CORPUS)) - 1, (argv, fmt, cpus)
                    _assert_reaped(forks)
                    del forks[:]
        assert one[2].startswith("certificate FAILED: c1 f=const1 ") and one[2].count("\n") == 1

    def test_interrupted_first_chunk_reaps_every_child(self, monkeypatch, forks):
        sweep, parent = cli.certification_sweep, os.getpid()

        def interrupted(*args):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            return sweep(*args)

        monkeypatch.setattr(cli, "certification_sweep", interrupted)
        monkeypatch.setattr(cli, "_cpus", lambda: 3)
        with pytest.raises(KeyboardInterrupt):
            _run_main(self.FAIL_ARGV)
        assert len(forks) == 2
        _assert_reaped(forks)

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_failed_child_chunk_runs_again_here(self, monkeypatch, forks):
        # every child's temporary file is full: each child exits 1, and this
        # process sweeps all three chunks itself
        one = self._one_cpu(monkeypatch, self.FAIL_ARGV)
        sweep, parent, sweeps = cli.certification_sweep, os.getpid(), []

        def counted(*args):
            if os.getpid() == parent:
                sweeps.append([tf.name for tf in args[1]])
            return sweep(*args)

        monkeypatch.setattr(cli, "certification_sweep", counted)
        monkeypatch.setattr(tempfile, "TemporaryFile", lambda *a, **kw: open("/dev/full", "w+b"))
        monkeypatch.setattr(cli, "_cpus", lambda: 3)
        assert _run_main(self.FAIL_ARGV) == one
        assert sum(sweeps, []) == list(CORPUS) and len(sweeps) == 3
        assert len(forks) == 2
        _assert_reaped(forks)

    def test_grid_error_is_one_line(self, monkeypatch, forks):
        # the first chunk raises here, before any child is reaped
        argv = ["certify", "--grid", "9"]
        one = self._one_cpu(monkeypatch, argv)
        assert one == (2, "", "error: grid resolution must be >= 11 points per axis, got 10\n")
        monkeypatch.setattr(cli, "_cpus", lambda: 2)
        assert _run_main(argv) == one
        assert len(forks) == 1
        _assert_reaped(forks)

    def test_warnings_are_those_of_one_process(self, monkeypatch):
        # a child's warning fails the child, so its chunk runs again here and
        # its warnings come in function order, each shown as one process would
        gap = convergence._gap

        def warning_gap(tf, params, grid):
            warnings.warn(f"gap of {tf.name} at n = {params.n}", UserWarning)
            return gap(tf, params, grid)

        monkeypatch.setattr(convergence, "_gap", warning_gap)
        runs = []
        for cpus in (1, 3):
            monkeypatch.setattr(cli, "_cpus", lambda: cpus)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                runs.append((_run_main(self.FAIL_ARGV), [str(w.message) for w in caught]))
        assert runs[0] == runs[1]
        assert len(runs[0][1]) == 6 * 3 * 2  # vee and lip_half are skipped

    def test_children_sweep_after_a_multithreaded_blas_product(self, monkeypatch, forks):
        # the children call BLAS (bi_apply_grid) after this process has run
        # a product on BLAS's threads
        one = self._one_cpu(monkeypatch, self.FAIL_ARGV)
        _main_stdout(["eval", "--f", "ripple", "--n", "700", "--m", "700", "--grid", "400"])
        monkeypatch.setattr(cli, "_cpus", lambda: 2)

        def stuck(signum, frame):
            raise TimeoutError("the forked sweep did not finish in 60 s")

        handler = signal.signal(signal.SIGALRM, stuck)
        signal.alarm(60)
        try:
            assert _run_main(self.FAIL_ARGV) == one
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, handler)
        assert len(forks) == 1
        _assert_reaped(forks)


class TestPqTable:
    """pq builds one bracket table and one log-factorial table per run; its
    rows must be the per-k values."""

    @staticmethod
    def _per_k_rows(n, pq):
        # the literal per-k formulas: [k]! as the product [1][2]...[k], and
        # exp(k(n-k) log p + lf[n] - lf[k] - lf[n-k]) for the binomial
        lf = log_factorials(n, pq)
        facts, binoms = pq_factorials(n, pq), pq_binomials(n, pq)
        rows = []
        for k in range(n + 1):
            fact = 1.0
            for v in bracket_values(k, pq)[1:]:
                fact *= v
            binom = (
                math.exp(k * (n - k) * math.log(pq.p) + lf[n] - lf[k] - lf[n - k])
                if 0 < k < n
                else 1.0
            )
            assert fact == facts[k] and binom == binoms[k]
            rows.append([k, pq_integer(k, pq), fact, binom])
        return rows

    @pytest.mark.parametrize("n", [0, 1, 56, 300])
    def test_rows_equal_per_k_calls(self, n):
        for p, q in ((1.0, 0.7), (0.9, 0.6)) if n < 300 else ((1.0, 0.7), (0.999, 0.9)):
            argv = ["pq", "--n", str(n), "--p", str(p), "--q", str(q), "--json"]
            rows = json.loads(_main_stdout(argv))["rows"]
            expected = self._per_k_rows(n, PQPair(p, q))
            assert [[float(v).hex() for v in r] for r in rows] == [
                [float(v).hex() for v in r] for r in expected
            ]


def test_selftest_discrepancies_name_their_first_witness():
    # each display form is evaluated against the exact oracle; at p = 1 the
    # e3 form agrees (p^{n-1} = p^{n-2}), and (n, m) = (1, 1) gives no t^2 witness
    rows, ok = cli._selftest_rows(0)
    detail = {name: d for name, status, d in rows if status == "documented-discrepancy"}
    assert ok and {name: d.rsplit("; ", 1)[1] for name, d in detail.items()} == {
        "uni-moment-e3-alt-form": "first witness at n=2 p=3/4 q=1/2 x=1/4",
        "uni-moment-e4-alt-form": "first witness at n=2 p=1 q=1/2 x=1/4",
        "bivariate-t2-denominator": "first witness at n=2 m=3 p2=1 q2=1/2 y=1/4",
    }


class TestExitCodes:
    def test_usage_error_is_2(self):
        bad_degrees = (
            ["korovkin", "--f", "quad", "--degrees", "0"],
            ["certify", "--degrees", "4,x"],
            # below the schedules' lowest degree, 2
            ["korovkin", "--f", "quad", "--degrees", "1"],
            ["voronovskaja", "--f", "quad", "--degrees", "1,16"],
            ["certify", "--degrees", "2,1"],
        )
        bad_points = tuple(
            ["voronovskaja", "--f", "quad", "--point", point]
            for point in ("inf,0.5", "nan,0.5", "0.5,-inf", "1.5,0.5", "0.5,-0.1", "0.5", "a,b")
        )
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
            # f finite at every node, B f overflowing on the lattice
            ["eval", "--f", "1.7976931348623157e308", "--n", "20", "--m", "20", "--grid", "4"],
            ["korovkin", "--f", "1.7976931348623157e308*x", "--degrees", "8,16"],
            ["certify", "--f", "1.7976931348623157e308", "--theorem", "complete-modulus",
             "--schedule", "i", "--degrees", "16", "--grid", "10"],
            # B f and f finite, |B f - f| (and certify's modulus ladder) overflowing
            ["eval", "--f", "1.7e308*cos(40*x)", "--n", "4", "--m", "4", "--grid", "10"],
            ["korovkin", "--f", "1.7e308*cos(40*x)", "--degrees", "4,8"],
            ["certify", "--f", "1.7e308*cos(40*x)", "--theorem", "complete-modulus",
             "--schedule", "i", "--degrees", "4", "--grid", "10"],
            *bad_degrees,
            *bad_points,
            ["nonsense"],
        ):
            code, out, err = _run_main(argv)
            assert code == 2, argv
            assert out == "", (argv, out)
            assert "Traceback" not in err, argv
            if argv != ["nonsense"]:  # argparse prints its usage first
                # one line: no traceback and no numpy warnings
                assert err.startswith("error: "), (argv, err)
                assert err.count("\n") == 1, (argv, err)
            if argv in bad_degrees:  # the line names the option
                assert "--degrees" in err, (argv, err)
            if argv in bad_points:
                assert "--point" in err, (argv, err)
        # valid pairs whose printed raw-pair values leave the double range:
        # the one line names the options, the column and the quantity
        tiny = ["--p", "1e-300", "--q", "1e-301"]
        for argv, quantity in (
            (["pq", "--n", "8", *tiny], "[3]_{p,q} underflows to 0"),
            # no bracket underflows, but products of brackets and p-powers do
            (
                ["pq", "--n", "60", "--p", "0.01", "--q", "0.005"],
                "binomial_60_k underflows to 0 at k = 3",
            ),
            (
                ["pq", "--n", "300", "--p", "0.97", "--q", "0.6"],
                "pq_factorial underflows to 0 at k = 256",
            ),
            (["pq", "--n", "400", "--p", "1", "--q", "0.99"], "pq_factorial overflows at k = 186"),
            (["central-moments", "--n", "1", *tiny], "display_A_form: p^-4 overflows"),
            (
                ["central-moments", "--n", "1", "--p", "1e-80", "--q", "1e-81"],
                "display_A_form: p^-4 overflows",
            ),
            (
                ["central-moments", "--n", "6", "--p", "1e-80", "--q", "1e-81"],
                "display_A_form: [6]_{p,q}^3 underflows to 0",
            ),
            (
                ["central-moments", "--n", "512", "--p", "0.5", "--q", "0.4"],
                "display_A_form: [512]_{p,q}^3 underflows to 0",
            ),
        ):
            code, _, err = _run_main(argv)
            assert code == 2, argv
            assert err == f"error: --p/--q: {quantity} on the float path\n", argv

    def test_moments_of_extreme_pairs_compute(self):
        # the moments are ratios homogeneous in (p,q), evaluated at (1, q/p),
        # so pairs whose [n]_{p,q}^3 underflows still give every row.  At
        # n = 512 the oracle column, the float basis summed by fsum, is off
        # by up to 1.4e-12 at x = 0.95: its e_0 row, whose closed value is
        # exactly 1, shows the basis's partition-of-unity residual 1.23e-12.
        for argv, bound in (
            (["moments", "--n", "512", "--p", "0.5", "--q", "0.4"], 2e-12),
            (["moments", "--n", "8", "--p", "1e-300", "--q", "1e-301"], 1e-12),
            (["moments", "--n", "2", "--p", "1e-120", "--q", "1e-121"], 1e-12),
        ):
            rows = list(csv.reader(io.StringIO(_main_stdout(argv))))[1:]
            assert len(rows) == 5 * 21, argv
            for i, x, closed, oracle, abs_diff, rel_diff in rows:
                # a moment lies in [0, 1]; its coefficient sum may round up
                assert 0.0 <= float(closed) <= 1.0 + 1e-15, (argv, i, x, closed)
                assert float(rel_diff) <= bound, (argv, i, x, rel_diff)
                if i == "0":
                    assert closed == "1", (argv, x, closed)

    def test_voronovskaja_degrees_checked_before_any_rung(self, monkeypatch, capsys):
        def no_trace(*args):
            raise AssertionError("the degree ladder ran")

        monkeypatch.setattr(cli, "voronovskaja_trace", no_trace)
        for degrees in ("2048,1024", "1024", "64,64"):
            assert cli.main(["voronovskaja", "--f", "quad", "--degrees", degrees]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: --degrees "), (degrees, err)
            assert err.count("\n") == 1, (degrees, err)

    def test_hypothesis_violation_is_2(self):
        res = run_cli(
            ["certify", "--theorem", "c1", "--f", "vee", "--schedule", "i", "--degrees", "4"]
        )
        assert res.returncode == 2
        assert "c1" in res.stderr

    def test_skipped_hypothesis_rows_fill_their_columns(self):
        out = _main_stdout(["certify", "--f", "vee", "--schedule", "i", "--degrees", "4"])
        header, *rows = csv.reader(io.StringIO(out))
        assert all(len(r) == len(header) for r in rows)
        skips = [dict(zip(header, r)) for r in rows if "skipped-hypothesis" in r]
        assert sorted(row["theorem"] for row in skips) == ["c1", "lipschitz"]
        empty = set(header) - {"theorem", "function", "status", "notes"}
        for row in skips:
            assert row["function"] == "vee" and row["status"] == "skipped-hypothesis"
            assert row["notes"].startswith("hypothesis '") and " violated: vee " in row["notes"]
            assert all(row[column] == "" for column in empty)

    def test_full_certify_run_passes(self):
        out = _main_stdout(
            ["certify", "--theorem", "all", "--f", "quad", "--schedule", "i", "--degrees", "4,8"]
        )
        assert "False" not in out.split("\n")[0]


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
        # valid pairs whose raw-pair values can leave the double range
        st.sampled_from([("1e-300", "1e-301"), ("1e-80", "1e-81")]),
    )
    return st.one_of(valid, valid, valid, bad).map(lambda pq: [pflag, pq[0], qflag, pq[1]])


def _opt(flag, values):
    return values.map(lambda v: [flag, v])


_FN = _opt("--f", _mix(
    st.sampled_from(sorted(CORPUS) + ["x^2+y^2", "sin(pi*x)*y", "x", "1", "abs(x-0.5)"]),
    [
        "1/x", "sqrt(x-0.5)", "exp(1000*x)", "x +", "max(x,", "foo(x)", "x^^2", "(x", "",
        "1.7e308*cos(40*x)",  # finite f and B f, overflowing |B f - f|
    ],
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


def _valid_raw_pair(argv) -> bool:
    """True when argv sets --n >= 1 and a pair 0 < q < p <= 1 by --p/--q
    (argparse keeps an option's last value)."""
    opts = {flag: value for flag, value in zip(argv, argv[1:]) if flag in ("--n", "--p", "--q")}
    try:
        n, p, q = int(opts["--n"]), float(opts["--p"]), float(opts["--q"])
    except (KeyError, ValueError):
        return False
    return n >= 1 and 0 < q < p <= 1


def _no_json_constant(name):
    raise AssertionError(f"a table printed the JSON constant {name}")


@pytest.mark.parametrize("command", sorted(_OPTIONS))
def test_main_exits_0_1_or_2_on_random_argv(command):
    """Nothing escapes main: the exit code is 0, 1 or 2, and a 2 that is
    not argparse's comes with exactly one stderr line 'error: ...'.  A
    table printed with 0 or 1 has no nan or infinite cell.  A
    valid --n and --p/--q pair exits 2 only for a raw-pair value out of
    the double range, with the line naming --p/--q, and never in
    ``moments``.  About 100 argv in all: 13 per subcommand, 3 for the
    slow selftest."""

    @given(argv=_argv(command))
    @settings(
        max_examples=3 if command == "selftest" else 13, derandomize=True, database=None,
        deadline=None, suppress_health_check=[HealthCheck.too_slow],
    )
    def check(argv):
        code, out, text = _run_main(argv)
        assert code in (0, 1, 2), (argv, code)
        if code in (0, 1) and "--json" in argv:
            json.loads(out, parse_constant=_no_json_constant)
        elif code in (0, 1):
            cells = {cell for row in csv.reader(io.StringIO(out)) for cell in row}
            assert not cells & {"nan", "inf", "-inf"}, (argv, out)
        if code == 2 and not text.startswith("usage: "):  # argparse prints its usage first
            assert text.startswith("error: ") and text.count("\n") == 1, (argv, text)
            if command in ("pq", "moments", "central-moments") and _valid_raw_pair(argv):
                assert command != "moments", (argv, text)
                assert text.startswith("error: --p/--q: "), (argv, text)
                assert text.endswith(" on the float path\n"), (argv, text)

    check()
