"""Acceptance gate: eight criteria, each reporting one pass/fail line.

Tolerances and scopes are pinned; run with ``pytest -v tests/test_acceptance.py``
(add ``-s`` to see the per-criterion lines on success).
"""

import json
import math
import time
from fractions import Fraction

import pytest

from test_cli import SUBCOMMANDS, run_cli
from test_expressions import INVALID_CASES, VALID_CASES

from pqbernstein.bivariate import (
    SCHEDULES,
    BiParams,
    bi_apply_exact,
    bi_central_moment2,
    bi_moment_closed,
    korovkin_experiment,
)
from pqbernstein.convergence import THEOREMS, certification_sweep
from pqbernstein.expressions import ParseError, parse_expr
from pqbernstein.functions import CORPUS
from pqbernstein.pq_core import PQPair
from pqbernstein.univariate import uni_apply, uni_moment_closed
from pqbernstein.voronovskaja import (
    richardson_extrapolate,
    scaled_central_moment_limit_check,
    voronovskaja_trace,
)

PAIRS = [
    PQPair(Fraction(1), Fraction(1, 2)),
    PQPair(Fraction(3, 4), Fraction(1, 2)),
    PQPair(Fraction(9, 10), Fraction(3, 5)),
]
X_POINTS = [Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1)]

# regression fixture: sup-error of the quad corpus function at n=m=64,
# schedule (i), 51x51 grid, recorded on the first verified run
QUAD_SUP_ERROR_64 = 0.0078727404076376351


def _report(num: int, desc: str, ok: bool) -> None:
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} - {desc}", flush=True)
    assert ok, f"criterion {num} failed: {desc}"


def test_criterion_1_univariate_moment_identities():
    t0 = time.monotonic()
    ok = True
    for pq in PAIRS:
        for n in range(1, 13):
            for x in X_POINTS:
                for i in range(5):
                    oracle = uni_apply(lambda t, i=i: t**i, n, x, pq)
                    if uni_moment_closed(i, n, x, pq) != oracle:
                        ok = False
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 10.0
    # the fourth-moment alternative-display discrepancy must be documented by
    # the selftest report
    res = run_cli(["selftest"])
    ok = ok and res.returncode == 0 and "documented-discrepancy" in res.stdout
    _report(
        1,
        f"uni moments e0..e4 strict rational equality, n<=12 ({elapsed:.1f}s)",
        ok,
    )


def test_criterion_2_bivariate_moment_identities():
    t0 = time.monotonic()
    ok = True
    monomials = {
        "1": lambda s, t: Fraction(1),
        "s": lambda s, t: s,
        "t": lambda s, t: t,
        "st": lambda s, t: s * t,
        "s2": lambda s, t: s * s,
        "t2": lambda s, t: t * t,
    }
    xy = [(Fraction(1, 4), Fraction(1, 2)), (Fraction(3, 4), Fraction(1, 4))]
    for pq in PAIRS:
        for n in range(1, 11):
            for m in range(1, 11):
                params = BiParams(pq1=pq, pq2=pq, n=n, m=m)
                for x, y in xy:
                    for which, f in monomials.items():
                        if bi_moment_closed(which, params, x, y) != bi_apply_exact(
                            f, params, x, y
                        ):
                            ok = False
                    mu_x = bi_apply_exact(lambda s, t: (s - x) ** 2, params, x, y)
                    mu_y = bi_apply_exact(lambda s, t: (t - y) ** 2, params, x, y)
                    if bi_central_moment2("x", params, x, y) != mu_x:
                        ok = False
                    if bi_central_moment2("y", params, x, y) != mu_y:
                        ok = False
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 30.0
    _report(2, f"bivariate moment lemma strict equality, n,m<=10 ({elapsed:.1f}s)", ok)


def test_criterion_3_partition_of_unity_and_positivity():
    import numpy as np

    from pqbernstein.univariate import basis_row

    pq = PQPair(0.9, 0.6)
    worst_sum = 0.0
    worst_neg = 0.0
    for n in (1, 2, 5, 10, 25, 50, 75, 100):
        for x in np.linspace(0.0, 1.0, 101):
            row = basis_row(n, float(x), pq)
            worst_sum = max(worst_sum, abs(math.fsum(row) - 1.0))
            worst_neg = min(worst_neg, float(row.min()))
    ok = worst_sum <= 1e-12 and worst_neg >= -1e-15
    _report(
        3,
        f"partition of unity |sum-1|<={worst_sum:.2e}, min weight {worst_neg:.2e}",
        ok,
    )


def test_criterion_4_korovkin_convergence():
    t0 = time.monotonic()
    sched = SCHEDULES["i"]
    degrees = [(n, n) for n in (8, 16, 32, 64)]
    quad_rows = korovkin_experiment(CORPUS["quad"].fn, sched, sched, degrees, grid=50)
    ripple_rows = korovkin_experiment(
        CORPUS["ripple"].fn, sched, sched, degrees, grid=50
    )
    ok = True
    for rows in (quad_rows, ripple_rows):
        errs = [r.sup_error for r in rows]
        if not all(errs[i + 1] < errs[i] for i in range(len(errs) - 1)):
            ok = False
    final = quad_rows[-1].sup_error
    ok = ok and final <= 0.02
    ok = ok and final == pytest.approx(QUAD_SUP_ERROR_64, rel=1e-9)
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 120.0
    _report(4, f"Korovkin sup-errors strictly decrease; quad@64 = {final:.6g}", ok)


def test_criterion_5_bound_certification():
    certs, skipped = certification_sweep(
        THEOREMS,
        list(CORPUS.values()),
        [SCHEDULES[k] for k in ("i", "ii", "iii")],
        [4, 8, 16, 32],
    )
    failures = [c for c in certs if not c.passed]
    ok = not failures and {c.theorem_id for c in certs} == set(THEOREMS)
    detail = (
        f"{len(certs)} certificates pass, {len(skipped)} hypothesis skips"
        if ok
        else f"first failure: {failures[0].theorem_id}/{failures[0].f_name}"
    )
    _report(5, detail, ok)


def test_criterion_6_voronovskaja_lemma_limits():
    t0 = time.monotonic()
    sched = SCHEDULES["i"]
    worst2 = worst4 = 0.0
    for x in (0.25, 0.5, 0.75):
        tr2 = scaled_central_moment_limit_check(2, sched, x, degrees=(2048,))
        tr4 = scaled_central_moment_limit_check(4, sched, x, degrees=(2048,))
        worst2 = max(worst2, tr2.errors[0])
        worst4 = max(worst4, tr4.errors[0])
    elapsed = time.monotonic() - t0
    ok = worst2 <= 5e-3 and worst4 <= 5e-2 and elapsed < 60.0
    _report(
        6,
        f"scaled moments at n=2048: order-2 err {worst2:.2e} (<=5e-3), "
        f"order-4 err {worst4:.2e} (<=5e-2)",
        ok,
    )


def test_criterion_7_voronovskaja_theorem_richardson():
    sched = SCHEDULES["i"]
    trace = voronovskaja_trace(CORPUS["quad"], sched, (0.5, 0.5), degrees=(1024, 2048))
    extrap = richardson_extrapolate(trace)
    target = 0.5 * math.exp(-1.0)
    rel_err = abs(extrap - target) / target
    ok = rel_err <= 2e-2
    _report(7, f"Richardson extrapolation rel err {rel_err:.2e} (<=2e-2)", ok)


def test_criterion_8_parser_golden_suite_and_byte_stability():
    ok = len(VALID_CASES) + len(INVALID_CASES) == 30
    for source, dump in VALID_CASES:
        if parse_expr(source).dump() != dump:
            ok = False
    for source, offset, text in INVALID_CASES:
        try:
            parse_expr(source)
            ok = False
        except ParseError as exc:
            if exc.offset != offset or str(exc) != text:
                ok = False
    stable = True
    for name, argv in sorted(SUBCOMMANDS.items()):
        a = run_cli(argv)
        b = run_cli(argv)
        if a.returncode != 0 or a.stdout.encode() != b.stdout.encode():
            stable = False
    ok = ok and stable
    _report(8, "30-case parser golden suite; byte-stable CSV for every subcommand", ok)
