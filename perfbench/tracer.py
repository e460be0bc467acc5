"""Span tracer for the pqbernstein layers, installed from outside the package.

``Tracer.install()`` wraps the public functions and methods of each
module, plus every target-function callable, and rebinds each wrapper in
every ``pqbernstein`` module that bound the original, so calls through
any import path are seen.  Each target object is wrapped exactly once and
the wrapper is reused, so the ``id(f)``-keyed modulus and K-surrogate
caches see the same keys for the life of a function as an untraced run.

A span is ``(name, start, end, parent, invocation, extra)``; spans stay
in memory until ``write()``.  ``layer_metrics()`` turns them into the
per-layer metrics; a self time is a span's duration minus its children's.
"""

from __future__ import annotations

import dataclasses
import functools
import gzip
import inspect
import json
import sys
import time
from collections import defaultdict

import numpy as np

# modules whose public functions (their ``__all__``) are traced
_MODULES = ("pq_core", "univariate", "bivariate", "convergence", "voronovskaja", "expressions")
_CALLABLE_FIELDS = ("fn", "fx", "fy", "fxx", "fyy")
# spans that make up the modulus-of-continuity ladder
_MODULUS = ("convergence.modulus_table", "convergence.complete_modulus",
            "convergence.partial_modulus", "convergence.ModulusTable.omega",
            "convergence.ModulusTable.omega_partial")


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.invocation = -1
        self._wrapped: dict[int, tuple[object, object]] = {}
        self._wrappers: set = set()

    # --- wrapping -----------------------------------------------------------

    def wrap(self, fn, name, pre=None, post=None):
        """A span-recording wrapper around ``fn``, made once per object
        (a wrapper passed in is returned as it is).

        ``pre(args)`` computes the span's extra value before the call, and
        ``post(extra)`` may replace it after the call; both run outside the
        span's interval.
        """
        if fn in self._wrappers:
            return fn
        hit = self._wrapped.get(id(fn))
        if hit is not None and hit[0] is fn:
            return hit[1]
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            extra = pre(args) if pre else None
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                if post:
                    extra = post(extra)
                spans[sid] = (name, t0, t1, parent, self.invocation, extra)

        functools.update_wrapper(wrapper, fn)
        # the original stays referenced, so its id is never reused
        self._wrapped[id(fn)] = (fn, wrapper)
        self._wrappers.add(wrapper)
        return wrapper

    def wrap_target(self, tf, name):
        """A copy of a TargetFunction2D whose callables record spans."""
        return dataclasses.replace(tf, **{
            f: self.wrap(getattr(tf, f), name, pre=_points)
            for f in _CALLABLE_FIELDS if getattr(tf, f) is not None
        })

    def install(self):
        """Wrap and rebind everything traced.  A name the package no longer
        has is skipped, so its metrics read 0 instead of failing the run."""
        # importing cli loads every module of the package
        from pqbernstein import cli, convergence, functions, pq_core

        modules = [m for k, m in sys.modules.items()
                   if k == "pqbernstein" or k.startswith("pqbernstein.")]

        def rebind(orig, wrapper):
            for m in modules:
                for k, v in list(vars(m).items()):
                    if v is orig:
                        setattr(m, k, wrapper)

        def exact(args):
            return any(isinstance(a, pq_core.PQPair) and a.is_exact for a in args)

        def cache_growth(cache):
            if cache is None:
                return {}
            return dict(pre=lambda args: len(cache), post=lambda before: len(cache) - before)

        hooks = {
            "bivariate.bi_apply": dict(pre=_terms),
            "bivariate.bi_apply_grid": dict(pre=_gemm_flops),
            "convergence.modulus_table": cache_growth(getattr(convergence, "_TABLE_CACHE", None)),
            "convergence.k_surrogate": cache_growth(getattr(convergence, "_K_CACHE", None)),
            "cli.emit": dict(pre=lambda args: len(args[2])),
        }
        targets = [(sys.modules[f"pqbernstein.{m}"], a, f"{m}.{a}")
                   for m in _MODULES for a in getattr(sys.modules[f"pqbernstein.{m}"], "__all__", ())]
        targets += [(convergence, "modulus_table", "convergence.modulus_table"), (cli, "_emit", "cli.emit")]
        targets += [(cli, a, "cli.cmd") for a in vars(cli) if a.startswith("cmd_")]
        for owner, attr, span in targets:
            orig = getattr(owner, attr, None)
            if inspect.isfunction(orig):
                hook = dict(pre=exact) if span.startswith("pq_core.") else hooks.get(span, {})
                rebind(orig, self.wrap(orig, span, **hook))
        table = getattr(convergence, "ModulusTable", None)
        for meth in ("omega", "omega_partial"):
            if inspect.isfunction(getattr(table, meth, None)):
                span = f"convergence.ModulusTable.{meth}"
                setattr(table, meth, self.wrap(getattr(table, meth), span))

        from_expression = getattr(functions, "from_expression", None)
        if from_expression is not None:
            def traced_from_expression(*args, **kwargs):
                return self.wrap_target(from_expression(*args, **kwargs), "expressions.eval")

            rebind(from_expression, traced_from_expression)
        corpus = getattr(functions, "CORPUS", {})
        for key, tf in list(corpus.items()):
            corpus[key] = self.wrap_target(tf, "functions.fn")

    # --- output -------------------------------------------------------------

    def write(self, path):
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for sid, (name, t0, t1, parent, inv, extra) in enumerate(self.spans):
                fh.write(json.dumps([sid, name, t0, t1, parent, inv, extra]) + "\n")

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics from the recorded spans (no import or cli byte
        counts; the caller adds those)."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, t0, t1, parent, _, _ in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        calls = defaultdict(int)
        self_s = defaultdict(float)
        extra = defaultdict(int)
        scalar = defaultdict(int)
        for sid, (name, t0, t1, parent, _, x) in enumerate(spans):
            calls[name] += 1
            self_s[name] += t1 - t0 - child[sid]
            if isinstance(x, tuple):  # callables: (points, scalar call)
                extra[name] += x[0]
                scalar[name] += x[1]
            elif x is not None:
                extra[name] += x

        def inclusive(*names):
            # outermost spans only, so nested spans are not counted twice
            total = 0.0
            for name, t0, t1, parent, _, _ in spans:
                if name in names and not _inside(spans, parent, names):
                    total += t1 - t0
            return total

        def layer(table, prefix):
            return sum(v for k, v in table.items() if k.split(".")[0] == prefix)

        mod_calls = calls["convergence.modulus_table"]
        mod_builds = extra["convergence.modulus_table"]
        bi_self = self_s["bivariate.bi_apply"]
        return {
            "cli.self_s": self_s["cli.cmd"],
            "cli.emit_s": inclusive("cli.emit"),
            "cli.out_rows": extra["cli.emit"],
            "expressions.parse.calls": calls["expressions.parse_expr"],
            "expressions.parse_s": inclusive("expressions.parse_expr"),
            "expressions.eval.calls": calls["expressions.eval"],
            "expressions.eval.scalar_calls": scalar["expressions.eval"],
            "expressions.eval_s": inclusive("expressions.eval"),
            "functions.fn.calls": calls["functions.fn"],
            "functions.fn.scalar_calls": scalar["functions.fn"],
            "functions.fn.points": extra["functions.fn"],
            "functions.fn_s": inclusive("functions.fn"),
            "pq_core.calls": layer(calls, "pq_core"),
            "pq_core.self_s": layer(self_s, "pq_core"),
            "pq_core.exact_calls": layer(extra, "pq_core"),
            "univariate.basis_row.calls": calls["univariate.basis_row"],
            "univariate.basis_row.self_s": self_s["univariate.basis_row"],
            "univariate.basis_row_exact.self_s": self_s["univariate.basis_row_exact"],
            "univariate.nodes.calls": calls["univariate.nodes"],
            "univariate.self_s": layer(self_s, "univariate"),
            "bivariate.bi_apply.calls": calls["bivariate.bi_apply"],
            "bivariate.bi_apply.terms": extra["bivariate.bi_apply"],
            "bivariate.bi_apply.self_s": bi_self,
            "bivariate.bi_apply.terms_per_s": extra["bivariate.bi_apply"] / bi_self if bi_self else 0.0,
            "bivariate.bi_apply_grid.calls": calls["bivariate.bi_apply_grid"],
            "bivariate.bi_apply_grid.flops": extra["bivariate.bi_apply_grid"],
            "bivariate.bi_apply_grid.self_s": self_s["bivariate.bi_apply_grid"],
            "bivariate.bi_apply_exact.self_s": self_s["bivariate.bi_apply_exact"],
            "convergence.certify_bound.calls": calls["convergence.certify_bound"],
            "convergence.certify_bound.self_s": self_s["convergence.certify_bound"],
            "convergence.verify_lipschitz.calls": calls["convergence.verify_lipschitz"],
            "convergence.verify_lipschitz_s": inclusive("convergence.verify_lipschitz"),
            "convergence.modulus.calls": mod_calls,
            "convergence.modulus.builds": mod_builds,
            "convergence.modulus.hit_ratio": (mod_calls - mod_builds) / mod_calls if mod_calls else 0.0,
            "convergence.modulus_s": inclusive(*_MODULUS),
            "convergence.k_surrogate.calls": calls["convergence.k_surrogate"],
            "convergence.k_surrogate.builds": extra["convergence.k_surrogate"],
            "convergence.k_surrogate_s": inclusive("convergence.k_surrogate"),
            "voronovskaja.trace.calls": calls["voronovskaja.voronovskaja_trace"],
            "voronovskaja.self_s": layer(self_s, "voronovskaja"),
        }


def _inside(spans, sid, names) -> bool:
    while sid >= 0:
        if spans[sid][0] in names:
            return True
        sid = spans[sid][3]
    return False


def _points(args):
    """(points evaluated, 1 if every argument is a scalar) for a callable."""
    return int(np.broadcast(*args).size), int(all(np.ndim(a) == 0 for a in args))


def _terms(args):
    params = args[1]
    return (params.n + 1) * (params.m + 1)


def _gemm_flops(args):
    """Multiply-adds of (W1^T F) W2, counted as 2 flops each, from shapes."""
    params, gx, gy = args[1], len(args[2]), len(args[3])
    n1, m1 = params.n + 1, params.m + 1
    return 2 * gx * n1 * m1 + 2 * gx * m1 * gy
