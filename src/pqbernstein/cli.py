"""Command-line front end: experiments in, CSV or JSON out.

One subcommand per analysis surface: ``pq`` (calculus primitives),
``eval``, ``moments``, ``central-moments``, ``korovkin``, ``certify``,
``voronovskaja`` and ``selftest``.  Every subcommand supports ``--json``
(same data as one JSON document with a schema-version field) and
``--out`` (default stdout).  Floats are printed with 17 significant
digits so output round-trips exactly; summation orders are fixed, so
output is byte-stable across runs for a fixed configuration (``selftest``
also takes ``--seed``).

Exit codes: 0 success, 1 bound-certificate or selftest failure,
2 usage/validation error, including arithmetic the float path cannot
carry out for the given parameters.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import random
import sys
from fractions import Fraction
from typing import Sequence

import numpy as np

from . import __version__
from .bivariate import (
    BiParams,
    SCHEDULES,
    _eval_grid,
    bi_apply_exact,
    bi_apply_grid,
    bi_moment_closed,
    korovkin_experiment,
)
from .convergence import THEOREMS, certification_sweep
from .functions import CORPUS, monomial_1d, monomial_2d, resolve_function
from .pq_core import (
    PQPair,
    bracket_values,
    pq_binomial,
    pq_binomial_expansion_check,
    pq_factorial,
    pq_integer,
)
from .univariate import (
    basis_row,
    central_moment4_display,
    uni_apply,
    uni_central_moment,
    uni_moment_closed,
)
from .voronovskaja import (
    DEFAULT_DEGREES,
    central_moment_brute,
    richardson_extrapolate,
    voronovskaja_trace,
    scaled_central_moment_limit_check,
)

SCHEMA_VERSION = 1


def _fmt(v) -> str:
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def _emit(args, columns: list[str], rows: list[list], command: str) -> None:
    if args.out == "-":
        _write(sys.stdout, args, columns, rows, command)
    else:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            _write(fh, args, columns, rows, command)


def _write(fh, args, columns, rows, command) -> None:
    if args.json:
        doc = {
            "schema_version": SCHEMA_VERSION,
            "command": command,
            "columns": columns,
            "rows": rows,
        }
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    else:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(columns)
        for row in rows:
            w.writerow([_fmt(v) for v in row])


def _pqpair(p: float, q: float) -> PQPair:
    return PQPair(p, q)


def _schedule(name: str):
    if name not in SCHEDULES:
        raise ValueError(f"unknown schedule {name!r}; choose from {sorted(SCHEDULES)}")
    return SCHEDULES[name]


def _degrees(text: str) -> list[int]:
    try:
        ds = [int(t) for t in text.split(",") if t.strip()]
    except ValueError:
        raise ValueError(f"bad degree list {text!r}") from None
    if not ds or any(d < 1 for d in ds):
        raise ValueError(f"bad degree list {text!r}")
    return ds


# --- subcommands --------------------------------------------------------------


def cmd_pq(args) -> int:
    if args.n < 0:
        raise ValueError(f"--n must be a nonnegative integer, got {args.n}")
    pq = _pqpair(args.p, args.q)
    rows = []
    for k in range(args.n + 1):
        rows.append(
            [k, pq_integer(k, pq), pq_factorial(k, pq), pq_binomial(args.n, k, pq)]
        )
    _emit(args, ["k", "pq_integer", "pq_factorial", f"binomial_{args.n}_k"], rows, "pq")
    return 0


def cmd_eval(args) -> int:
    if args.grid < 0:
        raise ValueError(f"--grid must be a nonnegative integer, got {args.grid}")
    tf = resolve_function(args.f)
    params = BiParams(_pqpair(args.p1, args.q1), _pqpair(args.p2, args.q2), args.n, args.m)
    xs = np.linspace(0.0, 1.0, args.grid + 1)
    B = bi_apply_grid(tf.fn, params, xs, xs)
    F = _eval_grid(tf.fn, xs, xs)
    lattice = xs.tolist()
    rows = [
        [x, y, fv, bv, abs(bv - fv)]
        for x, frow, brow in zip(lattice, F.tolist(), B.tolist())
        for y, fv, bv in zip(lattice, frow, brow)
    ]
    _emit(args, ["x", "y", "f", "Bf", "abs_err"], rows, "eval")
    return 0


def cmd_moments(args) -> int:
    pq = _pqpair(args.p, args.q)
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
    pq = _pqpair(args.p, args.q)
    xs = np.linspace(0.0, 1.0, 21)
    rows = []
    for r in (2, 4):
        for x in xs:
            closed = uni_central_moment(r, args.n, float(x), pq)
            oracle = central_moment_brute(r, args.n, float(x), pq)
            display = central_moment4_display(args.n, float(x), pq) if r == 4 else ""
            rows.append([r, float(x), closed, oracle, abs(closed - oracle), display])
    _emit(
        args,
        ["r", "x", "closed", "oracle", "abs_diff", "display_A_form"],
        rows,
        "central-moments",
    )
    return 0


def cmd_korovkin(args) -> int:
    tf = resolve_function(args.f)
    sched = _schedule(args.schedule)
    degrees = [(d, d) for d in _degrees(args.degrees)]
    table = korovkin_experiment(tf.fn, sched, sched, degrees, args.grid)
    rows = [
        [
            r.n,
            r.m,
            r.sup_error,
            r.test_errors["e00"],
            r.test_errors["e10"],
            r.test_errors["e01"],
            r.test_errors["e11"],
            r.test_errors["e20"],
            r.test_errors["e02"],
            r.warn,
        ]
        for r in table
    ]
    _emit(
        args,
        ["n", "m", "sup_error", "e00", "e10", "e01", "e11", "e20", "e02", "warn"],
        rows,
        "korovkin",
    )
    return 0


def cmd_certify(args) -> int:
    theorems = list(THEOREMS) if args.theorem == "all" else [args.theorem]
    if args.f == "all":
        functions = list(CORPUS.values())
    else:
        functions = [resolve_function(args.f)]
    sched_names = sorted(SCHEDULES) if args.schedule == "all" else [args.schedule]
    schedules = [_schedule(s) for s in sched_names]
    certs, skipped = certification_sweep(
        theorems, functions, schedules, _degrees(args.degrees), args.grid
    )
    # a single explicitly requested theorem/function combination that fails
    # its hypothesis is a usage error, not a sweep skip
    if skipped and args.theorem != "all" and args.f != "all":
        raise ValueError(f"{skipped[0][0]}: {skipped[0][2]}")
    rows = []
    for c in certs:
        rows.append(
            [
                c.theorem_id,
                c.f_name,
                c.schedule,
                c.n,
                c.m,
                "pass" if c.passed else "FAIL",
                c.lhs,
                c.rhs,
                c.rhs_conservative,
                c.margin,
                int(c.pointwise_ok),
                int(c.pointwise_ok_conservative),
                c.notes,
            ]
        )
    for theorem, fname, reason in skipped:
        rows.append([theorem, fname, "", "", "", "skipped-hypothesis", "", "", "", "", "", "", reason])
    _emit(
        args,
        [
            "theorem",
            "function",
            "schedule",
            "n",
            "m",
            "status",
            "lhs_sup",
            "rhs_uniform",
            "rhs_conservative",
            "margin",
            "pointwise_ok",
            "pointwise_ok_conservative",
            "notes",
        ],
        rows,
        "certify",
    )
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
    sched = _schedule(args.schedule)
    try:
        x, y = (float(t) for t in args.point.split(","))
    except ValueError:
        raise ValueError(f"bad point {args.point!r}; expected 'x,y'") from None
    degrees = _degrees(args.degrees)
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

    # exact univariate moments against the brute-force operator
    all_eq = True
    stmt_e3_differs = False
    stmt_e4_differs = False
    for pq in pqs:
        for n in range(1, 7):
            for x in xs:
                for i in range(5):
                    closed = uni_moment_closed(i, n, x, pq)
                    oracle = uni_apply(monomial_1d(i), n, x, pq)
                    all_eq &= closed == oracle
                # alternative display form of e3 (p^{n-1} in the x^2 coefficient)
                br = bracket_values(n, pq)
                N = br[n]
                b1 = br[n - 1] if n >= 1 else Fraction(0)
                b2 = br[n - 2] if n >= 2 else Fraction(0)
                p, q = pq.p, pq.q
                stmt3 = (
                    p ** (2 * n - 2) / N**2 * x
                    + p ** (n - 1) * (2 * p + q) * q * b1 / N**2 * x**2
                    + q**3 * b1 * b2 / N**2 * x**3
                )
                if stmt3 != uni_apply(monomial_1d(3), n, x, pq):
                    stmt_e3_differs = True
                stmt4_coeff2 = q * (3 * p**2 + 3 * q * p + q**3)  # alt form: q^3
                proof_coeff2 = q * (3 * p**2 + 3 * q * p + q**2)
                if stmt4_coeff2 != proof_coeff2:
                    stmt_e4_differs = True
    add("uni-moments-exact-closed-form", all_eq, "e0..e4 strict rational equality")
    add(
        "uni-moment-e3-alt-form",
        not stmt_e3_differs,
        "an alternative display form uses p^{n-1} where the oracle-confirmed "
        "coefficient has p^{n-2}",
        informational=True,
    )
    add(
        "uni-moment-e4-alt-form",
        not stmt_e4_differs,
        "an alternative display form has q^3 in the x^2 coefficient where the "
        "oracle-confirmed coefficient has q^2",
        informational=True,
    )

    # bivariate moment identities, exact
    all_eq = True
    for pq in pqs:
        for n, m in [(1, 1), (2, 3), (4, 2), (5, 5)]:
            params = BiParams(pq, pq, n, m)
            for x in xs[1:4]:
                for y in xs[1:4]:
                    for which in ("1", "s", "t", "st", "s2", "t2"):
                        closed = bi_moment_closed(which, params, x, y)
                        oracle = bi_apply_exact(monomial_2d(which), params, x, y)
                        all_eq &= closed == oracle
    add("bivariate-moments-exact", all_eq, "six identities, t^2 with the [m] denominator")
    add(
        "bivariate-t2-denominator",
        False,
        "a circulating t^2 display shows [n]_{p2,q2}; the oracle confirms [m]_{p2,q2}",
        informational=True,
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
    except (ValueError, ArithmeticError) as exc:  # parse, hypothesis and domain errors too
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
