"""Seeded workload generator: one benchmark seed in, ``pqbern`` argv out.

The seed only moves inputs of about equal cost (degree-ladder offset,
point, ``p,q`` pairs, schedule, expression coefficients); the program
itself never sees the seed except where a subcommand takes one
(``selftest``).  Each invocation carries the parameters its output check
needs.
"""

from __future__ import annotations

import random

WORKLOADS = ("certify-sweep", "voronovskaja-ladder", "eval-grid", "short-commands")

SCHEDULES = ("i", "ii", "iii")


def _pq(rng: random.Random, p_lo: float, r_lo: float, r_hi: float) -> tuple[str, str]:
    """A valid (p, q) pair, 0 < q < p <= 1, printed to four decimals."""
    p = round(rng.uniform(p_lo, 1.0), 4)
    q = round(p * rng.uniform(r_lo, r_hi), 4)
    return f"{p:.4f}", f"{q:.4f}"


def _certify_sweep(rng, tiny):
    # The whole default sweep (all theorems x corpus x schedules); the
    # seed shifts the degree ladder 4,8,16,32 by -1..+2.
    offset = rng.randint(-1, 2)
    ladder = (4, 8) if tiny else (4, 8, 16, 32)
    argv = ["certify", "--degrees", ",".join(str(d + offset) for d in ladder)]
    if tiny:
        argv += ["--f", "const1", "--grid", "10"]
    return [{"kind": "certify", "argv": argv}]


def _voronovskaja_ladder(rng, tiny):
    # One ladder per schedule at one seeded interior point.  All three
    # schedules run in every run because at a fixed point the schedule
    # alone moves the cost by up to 30%.  The cost follows y (the inner
    # fsum runs over the y-weights): y stays in [0.5, 0.75], where the
    # three-schedule total varies by about 8%; from y = 0.5 down to 0.3
    # it falls by almost half.  Per-invocation times stay in the report.
    x = round(rng.uniform(0.25, 0.75), 4)
    y = round(rng.uniform(0.5, 0.75), 4)
    out = []
    for s in SCHEDULES:
        argv = ["voronovskaja", "--f", "quad", "--schedule", s, "--point", f"{x},{y}"]
        if tiny:
            argv += ["--degrees", "16,32,64"]
        out.append({"kind": "voronovskaja", "argv": argv, "schedule": s, "x": x, "y": y})
    return out


def _eval_grid(rng, tiny, outdir):
    a = round(rng.uniform(0.5, 2.0), 4)
    c = round(rng.uniform(0.25, 1.5), 4)
    expr = f"{a:.4f}*sin(pi*x)*sin(pi*y) + {c:.4f}*x*y"
    p1, q1 = _pq(rng, 0.9, 0.9, 0.97)
    p2, q2 = _pq(rng, 0.9, 0.9, 0.97)
    n, grid = (20, 10) if tiny else (700, 400)
    out = f"{outdir}/eval.csv"
    argv = [
        "eval", "--f", expr, "--n", str(n), "--m", str(n), "--grid", str(grid),
        "--p1", p1, "--q1", q1, "--p2", p2, "--q2", q2, "--out", out,
    ]
    return [{
        "kind": "eval", "argv": argv, "out": out, "a": a, "c": c, "n": n, "m": n,
        "grid": grid, "p1": float(p1), "q1": float(q1), "p2": float(p2), "q2": float(q2),
    }]


def _short_commands(rng, tiny, seed):
    p, q = _pq(rng, 0.8, 0.5, 0.95)
    schedule = rng.choice(SCHEDULES)
    n_pq, n_mom, n_cm = (8, 6, 32) if tiny else (56, 24, 512)
    korovkin = ["korovkin", "--f", "ripple", "--schedule", schedule]
    if tiny:
        korovkin += ["--degrees", "8,16", "--grid", "10"]
    pqargs = ["--p", p, "--q", q]
    return [
        {"kind": "pq", "argv": ["pq", "--n", str(n_pq), *pqargs], "p": float(p), "q": float(q)},
        {"kind": "moments", "argv": ["moments", "--n", str(n_mom), *pqargs]},
        {"kind": "central-moments", "argv": ["central-moments", "--n", str(n_cm), *pqargs]},
        {"kind": "korovkin", "argv": korovkin},
        {"kind": "selftest", "argv": ["selftest", "--seed", str(seed)]},
    ]


def make(name: str, seed: int, outdir: str, tiny: bool = False) -> list[dict]:
    """The invocations of one run of workload ``name`` (same seed, same
    invocations).  ``outdir`` is where file outputs go, relative to the
    repository root; ``tiny`` shrinks every size for a smoke test."""
    rng = random.Random(f"{name}:{seed}")
    if name == "certify-sweep":
        return _certify_sweep(rng, tiny)
    if name == "voronovskaja-ladder":
        return _voronovskaja_ladder(rng, tiny)
    if name == "eval-grid":
        return _eval_grid(rng, tiny, outdir)
    if name == "short-commands":
        return _short_commands(rng, tiny, seed)
    raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
