"""Run a workload's invocations through ``pqbernstein.cli.main`` in this
interpreter, with or without the span tracer.

    python3 perfbench/inproc.py {plain|traced} SPEC.json RESULT.json

SPEC holds the repository root, an output directory and the invocations.
Each invocation's stdout goes to ``<outdir>/<mode>-<k>.stdout``.  RESULT
records per-invocation exit code, wall time, output digest and cache
sizes, and for the traced mode the per-layer metrics; the traced mode
also writes its spans to ``<outdir>/spans.jsonl.gz``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import time
import traceback
from pathlib import Path


def main(mode: str, spec_path: str, result_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    root = Path(spec["root"])
    outdir = root / spec["outdir"]
    sys.path.insert(0, str(root / "src"))
    from pqbernstein import cli, convergence

    tracer = None
    if mode == "traced":
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    elif mode != "plain":
        raise SystemExit(f"unknown mode {mode!r}")

    results = []
    for k, inv in enumerate(spec["invocations"]):
        if tracer:
            tracer.invocation = k
        if "out" in inv:
            (root / inv["out"]).unlink(missing_ok=True)
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        error = None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli.main(inv["argv"])
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # a crash is a failed invocation, not a failed benchmark
                rc, error = 1, traceback.format_exc()
        wall = time.perf_counter() - t0
        text = out.getvalue().encode("utf-8")
        (outdir / f"{mode}-{k}.stdout").write_bytes(text)
        if "out" in inv and (root / inv["out"]).is_file():
            text += (root / inv["out"]).read_bytes()
        results.append({
            "rc": rc,
            "error": error,
            "wall_s": wall,
            "digest": hashlib.sha256(text).hexdigest(),
            "out_bytes": len(text),
            "modulus_tables": len(getattr(convergence, "_TABLE_CACHE", ())),
            "k_surrogates": len(getattr(convergence, "_K_CACHE", ())),
        })

    doc = {"mode": mode, "wall_s": sum(r["wall_s"] for r in results), "invocations": results}
    if tracer:
        metrics = tracer.layer_metrics()
        metrics["cli.out_bytes"] = sum(r["out_bytes"] for r in results)
        doc["metrics"] = metrics
        tracer.write(outdir / "spans.jsonl.gz")
    Path(result_path).write_text(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
