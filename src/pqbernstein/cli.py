"""Command-line front end: experiments in, CSV or JSON out.

One subcommand per analysis surface: ``pq`` (calculus primitives),
``eval``, ``moments``, ``central-moments``, ``korovkin``, ``certify``,
``voronovskaja`` and ``selftest``.  Every subcommand supports ``--json``
(same data as one JSON document with a schema-version field) and
``--out`` (default stdout).  Floats are printed with 17 significant
digits so output round-trips exactly; summation orders are fixed, so
output is byte-stable across runs for a fixed configuration (``selftest``
also takes ``--seed``).  Two commands run across the process's CPUs, in
contiguous chunks, each chunk after the first in a forked child
(``_in_forks``): ``eval`` formats its grid in chunks of x-lines, and no
process holds more than one x-line of text; ``certify`` sweeps its
functions in chunks, and a chunk whose child fails runs again in the
parent.  The bytes, errors and exit codes do not depend on the CPU count.

Exit codes: 0 success, 1 bound-certificate or selftest failure,
2 usage/validation error, including arithmetic the float path cannot
carry out for the given parameters and a table value outside the double
range: no table is printed with a nan or infinite cell.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import pickle
import random
import shutil
import signal
import sys
import tempfile
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

# OpenBLAS's helper threads spin for 2^28 cycles (about 0.1 s of a CPU)
# after they start and after each threaded product before they sleep.  The
# CLI's threaded products are few and large, so helpers that sleep at once
# cost no wall time, and no process spends that CPU time on a second CPU.
# OpenBLAS reads this when numpy loads it; a value already set is kept.
os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "4")
import numpy as np

from . import __version__
from .bivariate import (
    _N_MIN,
    KOROVKIN_EXPONENTS,
    BiParams,
    SCHEDULES,
    _eval_grid,
    _require_finite,
    bi_apply_exact,
    bi_apply_grid,
    bi_moment_closed,
    korovkin_experiment,
)
from .convergence import THEOREMS, certification_sweep
from .functions import CORPUS, monomial_1d, monomial_2d, resolve_function
from .pq_core import (
    FloatRangeError,
    PQPair,
    bracket_values,
    pq_binomial_expansion_check,
    pq_binomials,
    pq_factorials,
    pq_integer,
)
from .univariate import (
    _moment_terms,
    basis_row,
    central_moment4_display,
    uni_apply,
    uni_central_moment,
    uni_moment_closed,
)
from .voronovskaja import (
    DEFAULT_DEGREES,
    richardson_extrapolate,
    voronovskaja_trace,
)

SCHEMA_VERSION = 1

# the fewest x-lines a chunk of the grid writer holds: a shorter chunk
# would cost about as much to fork and copy as it saves
_MIN_CHUNK_LINES = 64


@dataclass(frozen=True)
class Grid:
    """A table with one row (x, y, *values) per x in ``xs`` and y in ``ys``,
    x outer; value plane k holds column k + 2, one row of it per x."""

    xs: np.ndarray
    ys: np.ndarray
    planes: tuple[np.ndarray, ...]

    def __len__(self) -> int:
        return self.xs.size * self.ys.size


def _fmt(v) -> str:
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def _emit(args, columns: list[str], rows: list[list] | Grid, command: str) -> None:
    """Write one table as CSV or JSON to ``--out``; before it is opened, a
    float cell that is not finite raises ValueError naming its column and row."""
    if isinstance(rows, Grid):
        for column, plane in zip(columns[2:], rows.planes):
            _require_finite(plane, rows.xs, rows.ys, f"{command}: {column} is not finite at x, y =")
    else:
        for k, row in enumerate(rows, 1):
            for column, v in zip(columns, row):
                if isinstance(v, float) and not math.isfinite(v):
                    raise ValueError(f"{command}: {column} is not finite in row {k}: {v}")
    if args.out == "-":
        _write(sys.stdout, args, columns, rows, command)
    else:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            _write(fh, args, columns, rows, command)


def _write(fh, args, columns, rows, command) -> None:
    if args.json:
        doc = {"schema_version": SCHEMA_VERSION, "command": command, "columns": columns}
        if isinstance(rows, Grid):  # the bytes of the json.dump below, one x-line per write
            fh.write(json.dumps(doc, indent=2)[:-2] + ',\n  "rows": [')  # [:-2] drops "\n}"
            if len(rows):
                _write_grid(fh, rows, as_json=True)
                fh.write("\n  ")
            fh.write("]\n}")
        else:
            json.dump({**doc, "rows": rows}, fh, indent=2)
        fh.write("\n")
        return
    w = csv.writer(fh, lineterminator="\n")
    w.writerow(columns)
    if isinstance(rows, Grid):
        _write_grid(fh, rows, as_json=False)
    else:
        for row in rows:
            w.writerow([_fmt(v) for v in row])


def _cpus() -> int:
    """The CPUs this process may run on; 1 where it cannot fork or ask."""
    if hasattr(os, "fork") and hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return 1


def _in_forks(size: int, min_chunk: int, work, collect, **file_args) -> None:
    """Split ``range(size)`` into contiguous chunks, one per CPU but none
    shorter than ``min_chunk``, and run ``work(lo, hi, out)`` on each.

    Each chunk after the first runs in a forked child, with ``out`` an
    unlinked temporary file opened with ``file_args``; the child flushes
    it and exits with status 0, or 1 if ``work`` raised.  This process
    runs the first chunk with ``out`` None, then reaps the children in
    order and calls ``collect(lo, hi, pid, status, out)`` for each, with
    ``out`` rewound.  However this returns or raises, every child has
    been reaped: one still running is killed first.
    """
    chunks = max(1, min(_cpus(), size // min_chunk))
    ends = [size * k // chunks for k in range(chunks + 1)]
    pids, files = [], []  # the children not yet reaped; every child's file
    try:
        for lo, hi in zip(ends[1:], ends[2:]):
            files.append(tempfile.TemporaryFile(**file_args))
            pid = os.fork()
            if pid == 0:  # the child leaves here: no atexit, no parent buffer, no traceback
                status = 1
                try:
                    work(lo, hi, files[-1])
                    files[-1].flush()
                    status = 0
                finally:
                    os._exit(status)
            pids.append(pid)
        work(ends[0], ends[1], None)
        for lo, hi, out in zip(ends[1:], ends[2:], files):
            pid = pids[0]
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del pids[0]
            out.seek(0)
            collect(lo, hi, pid, status, out)
    finally:
        for pid in pids:  # left only when this process failed first
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for out in files:
            out.close()


def _write_grid(fh, grid: Grid, as_json: bool) -> None:
    """Write the rows of ``grid``, one x-line per write, as CSV rows or as
    the rows of ``json.dump(..., indent=2)``.

    Each coordinate is formatted once: the y cells before the first
    x-line, and each x into the row template of its x-line.  A CSV cell
    is "%.17g", which prints every finite double (-0 too) as _fmt does
    and never a comma, quote or newline, so no cell needs quoting.
    A JSON cell is float.__repr__ ("%r"), as json writes it.

    The x-lines are formatted in chunks of at least _MIN_CHUNK_LINES
    across the CPUs (_in_forks): this process writes the first chunk to
    ``fh``, and copies each child's file to ``fh`` in order.  One chunk
    is the same loop with no child, so the bytes do not depend on the
    CPU count, and no process holds more than one x-line of text.
    """
    fmt, sep = ("%r", ",") if as_json else ("%.17g", "")
    cells = ["{}", "%s"] + [fmt] * len(grid.planes)
    if as_json:
        row = "\n    [\n      " + ",\n      ".join(cells) + "\n    ]"
    else:
        row = ",".join(cells) + "\n"
    ystr = [fmt % y for y in grid.ys.tolist()]
    xs = grid.xs.tolist()

    def write_lines(out, lo: int, hi: int) -> None:
        for i in range(lo, hi):
            values = zip(ystr, *(plane[i].tolist() for plane in grid.planes))
            text = sep.join(map(row.format(fmt % xs[i]).__mod__, values))
            out.write(sep + text if i else text)  # a chunk after the first starts with sep

    def copy_out(lo: int, hi: int, pid: int, status: int, chunk) -> None:
        if status:
            raise OSError(f"grid writer process {pid} exited with status {status}")
        shutil.copyfileobj(chunk, fh)

    _in_forks(
        len(xs),
        _MIN_CHUNK_LINES,
        lambda lo, hi, out: write_lines(fh if out is None else out, lo, hi),
        copy_out,
        mode="w+",
        encoding="utf-8",
        newline="",
    )


def _degrees(text: str) -> list[int]:
    """The degrees of a schedule-based command; every schedule starts at _N_MIN."""
    bad = ValueError(f"--degrees must be a comma-separated list of integers >= {_N_MIN}, got {text!r}")
    try:
        ds = [int(t) for t in text.split(",") if t.strip()]
    except ValueError:
        raise bad from None
    if not ds or any(d < _N_MIN for d in ds):
        raise bad
    return ds


# --- subcommands --------------------------------------------------------------


def cmd_pq(args) -> int:
    if args.n < 0:
        raise ValueError(f"--n must be a nonnegative integer, got {args.n}")
    pq = PQPair(args.p, args.q)
    columns = ["k", "pq_integer", "pq_factorial", f"binomial_{args.n}_k"]
    rows = [
        [k, pq_integer(k, pq), fact, binom]
        for k, (fact, binom) in enumerate(zip(pq_factorials(args.n, pq), pq_binomials(args.n, pq)))
    ]
    for row in rows:
        for name, v in zip(columns[2:], row[2:]):
            if not 0 < v < math.inf:
                what = "underflows to 0" if v == 0 else "overflows"
                raise FloatRangeError(f"{name} {what} at k = {row[0]}")
    _emit(args, columns, rows, "pq")
    return 0


def cmd_eval(args) -> int:
    if args.grid < 0:
        raise ValueError(f"--grid must be a nonnegative integer, got {args.grid}")
    tf = resolve_function(args.f)
    params = BiParams(PQPair(args.p1, args.q1), PQPair(args.p2, args.q2), args.n, args.m)
    xs = np.linspace(0.0, 1.0, args.grid + 1)
    B = bi_apply_grid(tf.fn, params, xs, xs)
    F = _eval_grid(tf.fn, xs, xs)
    with np.errstate(over="ignore"):  # an overflow gives inf, which _emit rejects
        E = np.abs(B - F)
    _emit(args, ["x", "y", "f", "Bf", "abs_err"], Grid(xs, xs, (F, B, E)), "eval")
    return 0


def cmd_moments(args) -> int:
    pq = PQPair(args.p, args.q)
    xs = np.linspace(0.0, 1.0, 21)
    rows = []
    for i in range(5):
        f = monomial_1d(i)
        for x in xs:
            closed = uni_moment_closed(i, args.n, float(x), pq)
            oracle = uni_apply(f, args.n, float(x), pq)
            diff = abs(closed - oracle)
            rel = diff / abs(oracle) if oracle else 0.0
            rows.append([i, float(x), closed, oracle, diff, rel])
    _emit(args, ["i", "x", "closed", "oracle", "abs_diff", "rel_diff"], rows, "moments")
    return 0


def cmd_central_moments(args) -> int:
    pq = PQPair(args.p, args.q)
    rows = []
    for r in (2, 4):
        for x in np.linspace(0.0, 1.0, 21).tolist():
            closed = uni_central_moment(r, args.n, x, pq)
            oracle = uni_apply(lambda t: (t - x) ** r, args.n, x, pq)
            display = central_moment4_display(args.n, x, pq) if r == 4 else ""
            rows.append([r, x, closed, oracle, abs(closed - oracle), display])
    _emit(
        args,
        ["r", "x", "closed", "oracle", "abs_diff", "display_A_form"],
        rows,
        "central-moments",
    )
    return 0


def cmd_korovkin(args) -> int:
    tf = resolve_function(args.f)
    table = korovkin_experiment(tf.fn, SCHEDULES[args.schedule], _degrees(args.degrees), args.grid)
    tests = list(table[0].test_errors)  # e00, e10, e01, e11, e20, e02
    rows = [[r.n, r.n, r.sup_error, *r.test_errors.values()] for r in table]
    _emit(args, ["n", "m", "sup_error", *tests], rows, "korovkin")
    return 0


def cmd_certify(args) -> int:
    theorems = list(THEOREMS) if args.theorem == "all" else [args.theorem]
    if args.f == "all":
        functions = list(CORPUS.values())
    else:
        functions = [resolve_function(args.f)]
    sched_names = sorted(SCHEDULES) if args.schedule == "all" else [args.schedule]
    schedules = [SCHEDULES[s] for s in sched_names]
    degrees = _degrees(args.degrees)
    parts = []  # (certs, skipped) of each chunk of functions, in order

    def sweep(lo: int, hi: int):
        return certification_sweep(theorems, functions[lo:hi], schedules, degrees, args.grid)

    def work(lo: int, hi: int, out) -> None:
        if out is None:
            parts.append(sweep(lo, hi))
        else:  # a warning fails the child, so that this process prints it in order
            warnings.simplefilter("error")
            pickle.dump(sweep(lo, hi), out)

    def collect(lo: int, hi: int, pid: int, status: int, out) -> None:
        # a failed child's chunk runs again here: its error, if any, is the
        # one a single process raises, since every earlier chunk passed
        parts.append(sweep(lo, hi) if status else pickle.load(out))

    _in_forks(len(functions), 1, work, collect)
    # sorted() is stable, and the chunks are in function order, so this is
    # certification_sweep's theorem, function, schedule, degree order
    rank = {theorem: k for k, theorem in enumerate(theorems)}
    certs = sorted((c for part in parts for c in part[0]), key=lambda c: rank[c.theorem_id])
    skipped = sorted((s for part in parts for s in part[1]), key=lambda s: rank[s[0]])
    # a single explicitly requested theorem/function combination that fails
    # its hypothesis is a usage error, not a sweep skip
    if skipped and args.theorem != "all" and args.f != "all":
        raise ValueError(f"{skipped[0][0]}: {skipped[0][2]}")
    table = (  # certify's columns in order, each with its cell for one certificate
        ("theorem", lambda c: c.theorem_id),
        ("function", lambda c: c.f_name),
        ("schedule", lambda c: c.schedule),
        ("n", lambda c: c.n),
        ("m", lambda c: c.m),
        ("status", lambda c: "pass" if c.passed else "FAIL"),
        ("lhs_sup", lambda c: c.lhs),
        ("rhs_uniform", lambda c: c.rhs),
        ("rhs_conservative", lambda c: c.rhs_conservative),
        ("margin", lambda c: c.margin),
        ("pointwise_ok", lambda c: int(c.pointwise_ok)),
        ("pointwise_ok_conservative", lambda c: int(c.passed)),
        ("notes", lambda c: c.notes),
    )
    rows = [[cell(c) for _, cell in table] for c in certs]
    for theorem, fname, reason in skipped:
        cells = dict(theorem=theorem, function=fname, status="skipped-hypothesis", notes=reason)
        rows.append([cells.get(column, "") for column, _ in table])
    _emit(args, [column for column, _ in table], rows, "certify")
    failures = [c for c in certs if not c.passed]
    if failures:
        c = failures[0]
        print(
            f"certificate FAILED: {c.theorem_id} f={c.f_name} schedule={c.schedule} "
            f"n={c.n} m={c.m} lhs={c.lhs:.6g} rhs={c.rhs_conservative:.6g}",
            file=sys.stderr,
        )
        return 1
    return 0


def cmd_voronovskaja(args) -> int:
    tf = resolve_function(args.f)
    sched = SCHEDULES[args.schedule]
    bad = ValueError(f"--point must be 'x,y' with x and y in [0, 1], got {args.point!r}")
    try:
        x, y = (float(t) for t in args.point.split(","))
    except ValueError:
        raise bad from None
    if not (0 <= x <= 1 and 0 <= y <= 1):  # nan fails this too
        raise bad
    degrees = _degrees(args.degrees)
    # the trace and its Richardson row need two or more increasing degrees
    if len(degrees) < 2 or degrees != sorted(set(degrees)):
        raise ValueError(
            f"--degrees must be two or more strictly increasing degrees, got {args.degrees!r}"
        )
    trace = voronovskaja_trace(tf, sched, (x, y), degrees)
    rows = [
        [n, v, trace.predicted_limit, e]
        for n, v, e in zip(trace.degrees, trace.scaled_values, trace.errors)
    ]
    rows.append(["richardson", richardson_extrapolate(trace), trace.predicted_limit, ""])
    _emit(args, ["n", "scaled_value", "predicted_limit", "abs_err"], rows, "voronovskaja")
    return 0


def _selftest_rows(seed: int) -> tuple[list[list], bool]:
    rng = random.Random(seed)
    rows = []
    ok = True

    def add(name: str, passed: bool, detail: str = "", informational: bool = False):
        nonlocal ok
        status = "pass" if passed else ("documented-discrepancy" if informational else "FAIL")
        if not passed and not informational:
            ok = False
        rows.append([name, status, detail])

    pqs = [
        PQPair(Fraction(1), Fraction(1, 2)),
        PQPair(Fraction(3, 4), Fraction(1, 2)),
        PQPair(Fraction(9, 10), Fraction(3, 5)),
    ]
    xs = [Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1)]

    def discrepancy(name: str, witness: str | None, detail: str):
        """A display form checked against the oracle: its first witness, if any."""
        detail += f"; first witness at {witness}" if witness else ""
        add(name, witness is None, detail, informational=True)

    def poly(coeffs, x):  # sum_j c_j x^j, j = 1..len(coeffs)
        return sum(c * x ** (j + 1) for j, c in enumerate(coeffs))

    # exact univariate moments against the brute-force operator, and the
    # alternative display forms of e3 (p^{n-1} in place of p^{n-2} in the
    # x^2 coefficient) and e4 (q^3 in place of q^2 in the x^2 coefficient)
    all_eq = True
    witness3 = witness4 = None
    for pq in pqs:
        p, q = pq.p, pq.q
        for n in range(1, 7):
            alt3 = _moment_terms(3, n, pq)
            alt3[1] *= p
            alt4 = _moment_terms(4, n, pq)
            alt4[1] *= (3 * p**2 + 3 * q * p + q**3) / (3 * p**2 + 3 * q * p + q**2)
            for x in xs:
                oracle = [uni_apply(monomial_1d(i), n, x, pq) for i in range(5)]
                all_eq &= oracle == [uni_moment_closed(i, n, x, pq) for i in range(5)]
                at = f"n={n} p={p} q={q} x={x}"
                if witness3 is None and poly(alt3, x) != oracle[3]:
                    witness3 = at
                if witness4 is None and poly(alt4, x) != oracle[4]:
                    witness4 = at
    add("uni-moments-exact-closed-form", all_eq, "e0..e4 strict rational equality")
    discrepancy(
        "uni-moment-e3-alt-form",
        witness3,
        "an alternative display form uses p^{n-1} where the oracle-confirmed "
        "coefficient has p^{n-2}",
    )
    discrepancy(
        "uni-moment-e4-alt-form",
        witness4,
        "an alternative display form has q^3 in the x^2 coefficient where the "
        "oracle-confirmed coefficient has q^2",
    )

    # bivariate moment identities, exact, and the t^2 display form with
    # [n]_{p2,q2} in place of the denominator [m]_{p2,q2}
    all_eq = True
    witness = None
    for pq in pqs:
        for n, m in [(1, 1), (2, 3), (4, 2), (5, 5)]:
            params = BiParams(pq, pq, n, m)
            br = bracket_values(max(n, m), pq)
            display = [c * br[m] / br[n] for c in _moment_terms(2, m, pq)]
            for x in xs[1:4]:
                for y in xs[1:4]:
                    oracle = {
                        e: bi_apply_exact(monomial_2d(*e), params, x, y) for e in KOROVKIN_EXPONENTS
                    }
                    all_eq &= all(bi_moment_closed(*e, params, x, y) == oracle[e] for e in oracle)
                    if witness is None and poly(display, y) != oracle[0, 2]:
                        witness = f"n={n} m={m} p2={pq.p} q2={pq.q} y={y}"
    add("bivariate-moments-exact", all_eq, "six identities, t^2 with the [m] denominator")
    discrepancy(
        "bivariate-t2-denominator",
        witness,
        "a circulating t^2 display shows [n]_{p2,q2}; the oracle confirms [m]_{p2,q2}",
    )

    # float partition of unity
    worst = max(
        abs(math.fsum(row) - 1.0)
        for n in (5, 20, 60, 100)
        for pq in [PQPair(1.0, 0.5), PQPair(0.75, 0.5), PQPair(0.9, 0.6)]
        for row in basis_row(n, np.linspace(0, 1, 101), pq)
    )
    add("partition-of-unity", worst <= 1e-12, f"worst |sum-1| = {worst:.3g}")

    # positivity / monotonicity on random dominated pairs
    pq = PQPair(0.9, 0.6)
    n = 12
    good = True
    for _ in range(20):
        fvals = [rng.random() for _ in range(n + 1)]
        gvals = [fv + rng.random() for fv in fvals]
        f = lambda t, fv=fvals: np.interp(t, np.linspace(0, 1, n + 1), fv)
        g = lambda t, gv=gvals: np.interp(t, np.linspace(0, 1, n + 1), gv)
        x = rng.random()
        bf = uni_apply(f, n, x, pq)
        bg = uni_apply(g, n, x, pq)
        good &= bf >= -1e-15 and bf <= bg + 1e-12
    add("positivity-monotonicity-random", good, f"seed={seed}")

    # binomial expansion identity
    good = all(
        pq_binomial_expansion_check(nn, Fraction(1), Fraction(-1), Fraction(1), Fraction(1), pqs[2])
        for nn in range(9)
    )
    add("binomial-expansion-exact", good)
    return rows, ok


def cmd_selftest(args) -> int:
    rows, ok = _selftest_rows(args.seed)
    _emit(args, ["check", "status", "detail"], rows, "selftest")
    if args.out != "-":
        for name, status, _ in rows:
            print(f"{status:>24}  {name}")
    return 0 if ok else 1


# --- argument wiring ----------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="pqbern",
        description="Two-parameter Bernstein operator experiments "
        "(CSV/JSON reporting).",
    )
    ap.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--out", default="-", help="output path ('-' = stdout)")
        sp.add_argument("--json", action="store_true", help="emit JSON instead of CSV")

    sp = sub.add_parser("pq", help="(p,q)-integer/factorial/binomial table")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--q", type=float, required=True)
    common(sp)
    sp.set_defaults(fn=cmd_pq)

    sp = sub.add_parser("eval", help="evaluate the bivariate operator on a grid")
    sp.add_argument("--f", required=True, help="corpus name or expression in x,y")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--p1", type=float, default=0.95)
    sp.add_argument("--q1", type=float, default=0.9)
    sp.add_argument("--p2", type=float, default=0.95)
    sp.add_argument("--q2", type=float, default=0.9)
    sp.add_argument("--grid", type=int, default=10)
    common(sp)
    sp.set_defaults(fn=cmd_eval)

    sp = sub.add_parser("moments", help="closed-form vs brute-force moments e0..e4")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--q", type=float, required=True)
    common(sp)
    sp.set_defaults(fn=cmd_moments)

    sp = sub.add_parser("central-moments", help="central moments r=2,4 with diagnostics")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--q", type=float, required=True)
    common(sp)
    sp.set_defaults(fn=cmd_central_moments)

    sp = sub.add_parser("korovkin", help="sup-error table along a parameter schedule")
    sp.add_argument("--f", required=True)
    sp.add_argument("--schedule", default="i", choices=sorted(SCHEDULES))
    sp.add_argument("--degrees", default="8,16,32,64")
    sp.add_argument("--grid", type=int, default=50)
    common(sp)
    sp.set_defaults(fn=cmd_korovkin)

    sp = sub.add_parser("certify", help="error-bound certificates")
    sp.add_argument("--theorem", default="all", choices=list(THEOREMS) + ["all"])
    sp.add_argument("--f", default="all")
    sp.add_argument("--schedule", default="all", choices=sorted(SCHEDULES) + ["all"])
    sp.add_argument("--degrees", default="4,8,16,32")
    sp.add_argument("--grid", type=int, default=50)
    common(sp)
    sp.set_defaults(fn=cmd_certify)

    sp = sub.add_parser("voronovskaja", help="scaled-error asymptotic trace")
    sp.add_argument("--f", required=True)
    sp.add_argument("--schedule", default="i", choices=sorted(SCHEDULES))
    sp.add_argument("--point", default="0.5,0.5")
    sp.add_argument("--degrees", default=",".join(str(d) for d in DEFAULT_DEGREES))
    common(sp)
    sp.set_defaults(fn=cmd_voronovskaja)

    sp = sub.add_parser("selftest", help="run the identity/property suite")
    sp.add_argument("--seed", type=int, default=0, help="seed of the random positivity checks")
    common(sp)
    sp.set_defaults(fn=cmd_selftest)

    return ap


def main(argv: Sequence[str] | None = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except FloatRangeError as exc:
        # raised only where a printed raw-pair value leaves the double range:
        # pq's pq_factorial and binomial columns and central-moments'
        # display_A_form column
        print(f"error: --p/--q: {exc} on the float path", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError) as exc:  # parse, hypothesis and domain errors too
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
