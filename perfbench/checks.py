"""Output checks against routes independent of the timed float path.

``check(inv, rc, stdout, root)`` returns a list of problems (empty when
the invocation is correct).  Checks run outside every timed interval, as

    python3 perfbench/checks.py ROOT JOBS.json

which prints, for each job ``{"inv", "rc", "stdout"}`` (``stdout`` a file
path), the list of problems found, as one JSON list.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

EPS = 2.0**-52

# The schedules' p_n rules, restated here so the check does not read them
# from the program under test.
P_RULES = {
    "i": lambda n: n / (n + 1),
    "ii": lambda n: math.exp(-1 / n),
    "iii": lambda n: 1.0,
}
Q_RULES = {
    "i": lambda n: 1 - 1 / n,
    "ii": lambda n: math.exp(-2 / n),
    "iii": lambda n: 1 - 1 / n,
}

# rows of eval output compared against the per-point compensated route
EVAL_SAMPLE_ROWS = 3


def _rows(text: str) -> tuple[list[str], list[list[str]]]:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows:
        raise ValueError("empty output")
    return rows[0], rows[1:]


def _finite_cells(rows, columns) -> list[str]:
    bad = []
    for row in rows:
        for i in columns:
            cell = row[i]
            if cell == "":
                continue
            try:
                v = float(cell)
            except ValueError:
                bad.append(f"non-numeric cell {cell!r}")
                continue
            if not math.isfinite(v):
                bad.append(f"non-finite cell {cell!r}")
    return bad[:3]


def _bracket(n: int, p: float, q: float) -> float:
    """[n]_{p,q} by the recurrence [i] = p[i-1] + q^(i-1)."""
    acc, qpow = 0.0, 1.0
    for _ in range(n):
        acc = p * acc + qpow
        qpow *= q
    return acc


def check_certify(inv, text):
    head, rows = _rows(text)
    problems = _finite_cells(rows, (3, 4, 6, 7, 8, 9, 10, 11))
    status = [r[head.index("status")] for r in rows]
    if "FAIL" in status:
        problems.append("certificate FAIL row")
    if "pass" not in status:
        problems.append("no passing certificate")
    return problems


def check_voronovskaja(inv, text):
    """Each scaled value [n](Bf - f) for quad equals the closed form
    p_n^(n-1) ((x - x^2) + (y - y^2)).  The log-domain basis weights carry
    a relative error growing like n^2 eps (measured up to 0.34 n^2 eps),
    so the check allows 4 n^2 eps [n] |f(x,y)|."""
    head, rows = _rows(text)
    problems = _finite_cells(rows, range(1, 4))
    x, y, s = inv["x"], inv["y"], inv["schedule"]
    f_at = x * x + y * y
    ladder = [r for r in rows if r[0] != "richardson"]
    if len(ladder) != len(rows) - 1 or not ladder:
        problems.append("missing ladder or richardson row")
    for r in ladder:
        n, value = int(r[0]), float(r[1])
        p = P_RULES[s](n)
        closed = p ** (n - 1) * ((x - x * x) + (y - y * y))
        tol = 4 * n * n * EPS * _bracket(n, p, Q_RULES[s](n)) * f_at
        if not abs(value - closed) <= tol:
            problems.append(f"n={n}: scaled value {value!r} vs closed form {closed!r}")
    return problems


def _eval_formula(inv, x, y):
    return inv["a"] * np.sin(np.pi * x) * np.sin(np.pi * y) + inv["c"] * x * y


def check_eval(inv, text):
    """The f column against numpy, and a seeded sample of Bf against the
    per-point compensated sum ``bivariate.bi_apply``.  The BLAS route
    W1^T F W2 differs from the compensated one by at most
    gamma_(n+m+2) sum|w1 w2 F| <= gamma_(n+m+2) max|F| (weights >= 0 and
    summing to 1), with gamma_k = k eps/2 / (1 - k eps/2), plus a few ulps
    for the two routes' evaluations of f at the nodes."""
    from pqbernstein.bivariate import BiParams, bi_apply
    from pqbernstein.pq_core import PQPair

    head, rows = _rows(text)
    if head != ["x", "y", "f", "Bf", "abs_err"]:
        return [f"unexpected header {head}"]
    g = inv["grid"]
    if len(rows) != (g + 1) ** 2:
        return [f"{len(rows)} rows, expected {(g + 1) ** 2}"]
    data = np.array(rows, dtype=float)
    if not np.all(np.isfinite(data)):
        return ["non-finite cell"]
    problems = []
    xs = np.linspace(0.0, 1.0, g + 1)
    if not (np.array_equal(data[:, 0], np.repeat(xs, g + 1))
            and np.array_equal(data[:, 1], np.tile(xs, g + 1))):
        problems.append("x,y columns are not the grid")
    fmax = abs(inv["a"]) + abs(inv["c"])
    f_ref = _eval_formula(inv, data[:, 0], data[:, 1])
    worst_f = float(np.max(np.abs(data[:, 2] - f_ref)))
    if worst_f > 8 * EPS * fmax:
        problems.append(f"f column differs from numpy by {worst_f:.3g}")
    if not np.array_equal(data[:, 4], np.abs(data[:, 3] - data[:, 2])):
        problems.append("abs_err column is not |Bf - f|")
    n, m = inv["n"], inv["m"]
    params = BiParams(PQPair(inv["p1"], inv["q1"]), PQPair(inv["p2"], inv["q2"]), n, m)
    k = (n + m + 2) * EPS / 2
    tol = (k / (1 - k) + 8 * EPS) * fmax
    rng = random.Random(repr(inv["argv"]))
    for i in rng.sample(range(len(rows)), EVAL_SAMPLE_ROWS):
        x, y, bf = data[i, 0], data[i, 1], data[i, 3]
        ref = bi_apply(lambda s, t: _eval_formula(inv, s, t), params, float(x), float(y))
        if not abs(bf - ref) <= tol:
            problems.append(f"Bf({x},{y}) = {bf!r}, compensated route {ref!r}")
    return problems


def check_pq(inv, text):
    """[k]_{p,q} against the exact rational sum of p^(k-1-i) q^i."""
    head, rows = _rows(text)
    problems = _finite_cells(rows, range(1, 4))
    p, q = Fraction(inv["p"]), Fraction(inv["q"])
    for r in rows:
        k, value = int(r[0]), float(r[1])
        exact = sum(p ** (k - 1 - i) * q**i for i in range(k))
        if abs(Fraction(value) - exact) > 4 * EPS * exact:
            problems.append(f"[{k}] = {value!r}, exact {float(exact)!r}")
    return problems


def _column_at_most(text, column, limit):
    head, rows = _rows(text)
    problems = _finite_cells(rows, range(len(head)))
    col = head.index(column)
    worst = max(float(r[col]) for r in rows)
    if not worst <= limit:
        problems.append(f"{column} reaches {worst:.3g} > {limit:g}")
    return problems


def check_korovkin(inv, text):
    head, rows = _rows(text)
    problems = _finite_cells(rows, range(9))
    sup = [float(r[head.index("sup_error")]) for r in rows]
    if not all(b < a for a, b in zip(sup, sup[1:])):
        problems.append(f"sup_error does not strictly decrease: {sup}")
    return problems


def check_selftest(inv, text):
    head, rows = _rows(text)
    return [f"selftest {r[0]} FAIL" for r in rows if r[1] == "FAIL"]


CHECKS = {
    "certify": check_certify,
    "voronovskaja": check_voronovskaja,
    "eval": check_eval,
    "pq": check_pq,
    "moments": lambda inv, text: _column_at_most(text, "rel_diff", 1e-12),
    "central-moments": lambda inv, text: _column_at_most(text, "abs_diff", 1e-12),
    "korovkin": check_korovkin,
    "selftest": check_selftest,
}


def check(inv: dict, rc: int, stdout: str, root: Path) -> list[str]:
    """Problems with one invocation's result; [] when it is correct."""
    if rc != 0:
        return [f"exit code {rc}"]
    try:
        text = (root / inv["out"]).read_text(encoding="utf-8") if "out" in inv else stdout
        return CHECKS[inv["kind"]](inv, text)
    except (OSError, ValueError, IndexError, KeyError) as exc:
        return [f"unreadable output: {exc!r}"]


def main(root: str, jobs_path: str) -> None:
    root = Path(root)
    sys.path.insert(0, str(root / "src"))
    jobs = json.loads(Path(jobs_path).read_text())
    print(json.dumps([
        check(j["inv"], j["rc"], Path(j["stdout"]).read_text(encoding="utf-8"), root)
        for j in jobs
    ]))


if __name__ == "__main__":
    main(*sys.argv[1:])
