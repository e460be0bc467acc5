"""pqbernstein benchmark: timed ``pqbern`` runs, output checks, traced layers.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--tiny]

Run from the repository root.  NAME is one of the workloads in
``workloads.py`` or ``all``.  Load model: closed loop, one client; one
``pqbern`` process at a time, each started after the previous one exits.
BLAS keeps its default thread count, which the report records.

``--trace 0`` measures the end-to-end metrics from untraced subprocess
runs: ``setup_s`` (median of several ``pqbern --version``), then whole
runs of the workload, repeated while the next run fits in S seconds,
reporting the median run's ``wall_s``, ``cpu_s`` and ``peak_rss_mb``.

``--trace 1`` measures the per-layer metrics: ``python -X importtime``
for the import layer, then one run of the same invocations in-process,
once plain and once traced, each in a fresh interpreter (see
``inproc.py``); S is not used.

Every invocation's output is checked (``checks.py``) outside the timed
intervals; a failed check, an unexpected exit code or, when tracing, a
traced output that differs from the plain one counts as a failed
invocation.  Human-readable lines and a JSON report (provenance, argv,
every sample) go to stdout; the last line is ``{"correct", "attempted",
"failed", "metrics"}``.  Program outputs and the traced run's spans are
left in ``.perfbench/<workload>/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import workloads  # noqa: E402

ENTRY = "import sys; from pqbernstein.cli import main; sys.exit(main())"
SETUP_REPEATS = 5
IMPORT_REPEATS = 3
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}


def _env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def spawn(args: list[str], stdout_path: Path, env: dict) -> dict:
    """One child process, spawn to exit, with its rusage."""
    with open(stdout_path, "wb") as out, open(stdout_path.with_suffix(".stderr"), "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], cwd=ROOT, env=env, stdout=out, stderr=err)
        _, status, ru = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "rc": proc.returncode,
        "wall_s": wall,
        "cpu_s": ru.ru_utime + ru.ru_stime,
        "rss_mb": ru.ru_maxrss / 1024.0,
    }


def pqbern(argv: list[str], stdout_path: Path, env: dict) -> dict:
    return spawn(["-c", ENTRY, *argv], stdout_path, env)


def check_all(jobs: list[tuple[dict, int, Path]], outdir: Path, env: dict) -> list[list[str]]:
    """Problems of each (invocation, exit code, stdout path), from
    ``checks.py`` in its own process: this process stays small, because a
    child's max-RSS also counts the RSS of the process that spawned it."""
    path = outdir / "checks.json"
    path.write_text(json.dumps([{"inv": i, "rc": rc, "stdout": str(p)} for i, rc, p in jobs]))
    ran = spawn([str(HERE / "checks.py"), str(ROOT), str(path)], outdir / "checks.out", env)
    if ran["rc"] != 0:
        return [["output check crashed; see checks.stderr"] for _ in jobs]
    return json.loads((outdir / "checks.out").read_text())


def measure_e2e(invs, outdir: Path, seconds: float, report: dict) -> tuple[dict, int, int]:
    env = _env()
    pqbern(["--version"], outdir / "warmup.stdout", env)  # byte-compiles the package
    setup = [pqbern(["--version"], outdir / "version.stdout", env)["wall_s"]
             for _ in range(SETUP_REPEATS)]
    runs, attempted, failed, measured = [], 0, 0, 0.0
    while True:
        for inv in invs:
            if "out" in inv:
                (ROOT / inv["out"]).unlink(missing_ok=True)
        t0 = time.perf_counter()
        done = [pqbern(inv["argv"], outdir / f"run-{k}.stdout", env) for k, inv in enumerate(invs)]
        wall = time.perf_counter() - t0
        jobs = [(inv, d["rc"], outdir / f"run-{k}.stdout") for k, (inv, d) in enumerate(zip(invs, done))]
        for d, problems in zip(done, check_all(jobs, outdir, env)):
            d["problems"] = problems
            failed += bool(problems)
        attempted += len(invs)
        runs.append({
            "wall_s": wall,
            "cpu_s": sum(d["cpu_s"] for d in done),
            "peak_rss_mb": max(d["rss_mb"] for d in done),
            "invocations": done,
        })
        measured += wall
        if measured + wall > seconds:
            break
    report["setup_samples_s"] = setup
    report["runs"] = runs
    metrics = {
        "wall_s": statistics.median(r["wall_s"] for r in runs),
        "setup_s": statistics.median(setup),
        "cpu_s": statistics.median(r["cpu_s"] for r in runs),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
    }
    report["samples"] = {"runs": len(runs), "setup": len(setup)}
    return metrics, attempted, failed


def import_times(outdir: Path, env: dict) -> dict:
    """import.* from ``-X importtime``: cumulative time of the package,
    and of numpy and of scipy wherever they are first imported."""
    spawn(["-c", "import pqbernstein.cli"], outdir / "warmup.stdout", env)
    samples = []
    for _ in range(IMPORT_REPEATS):
        path = outdir / "importtime.stdout"
        spawn(["-X", "importtime", "-c", "import pqbernstein.cli"], path, env)
        samples.append(_parse_importtime(path.with_suffix(".stderr").read_text()))
    return {k: statistics.median(s[k] for s in samples) for k in samples[0]}


def _parse_importtime(text: str) -> dict:
    # lines are "import time: self | cumulative | <indent>name", children
    # before their parent; read in reverse, a parent precedes its children
    entries = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cum, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip())) // 2
        entries.append((depth, name.strip(), int(cum) * 1e-6))
    total = numpy_s = scipy_s = 0.0
    stack: list[str] = []
    for depth, name, cum in reversed(entries):
        del stack[depth:]
        top = name.split(".")[0]
        outer = {s.split(".")[0] for s in stack}
        if name.startswith("pqbernstein") and "pqbernstein" not in outer:
            total += cum
        if top == "numpy" and "numpy" not in outer:
            numpy_s += cum
        if top == "scipy" and "scipy" not in outer:
            scipy_s += cum
        stack.append(name)
    return {"import.total_s": total, "import.numpy_s": numpy_s, "import.scipy_s": scipy_s}


def measure_layers(invs, outdir: Path, rel_outdir: str, report: dict) -> tuple[dict, int, int]:
    env = _env()
    metrics = import_times(outdir, env)
    spec_path = outdir / "spec.json"
    spec_path.write_text(json.dumps({"root": str(ROOT), "outdir": rel_outdir, "invocations": invs}))
    docs = {}
    for mode in ("plain", "traced"):
        result = outdir / f"{mode}.json"
        ran = spawn([str(HERE / "inproc.py"), mode, str(spec_path), str(result)],
                    outdir / f"{mode}.log", env)
        if ran["rc"] != 0:
            raise RuntimeError(f"in-process {mode} run exited {ran['rc']}; see {outdir}")
        docs[mode] = json.loads(result.read_text())
    plain, traced = docs["plain"], docs["traced"]
    failed = 0
    jobs = [(inv, t["rc"], outdir / f"traced-{k}.stdout") for k, (inv, t) in enumerate(zip(invs, traced["invocations"]))]
    for p, t, problems in zip(plain["invocations"], traced["invocations"], check_all(jobs, outdir, env)):
        t["problems"] = problems
        same_caches = (p["modulus_tables"], p["k_surrogates"]) == (t["modulus_tables"], t["k_surrogates"])
        if p["digest"] != t["digest"]:
            t["problems"].append("traced output differs from untraced output")
        if not same_caches:
            t["problems"].append("traced cache builds differ from untraced")
        failed += bool(t["problems"])
    metrics.update(traced["metrics"])
    metrics["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    report["inproc"] = {"plain": plain, "traced": traced}
    report["spans"] = f"{rel_outdir}/spans.jsonl.gz"
    return metrics, len(invs), failed


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool):
    rel_outdir = f".perfbench/{name}"
    outdir = ROOT / rel_outdir
    shutil.rmtree(outdir, ignore_errors=True)
    outdir.mkdir(parents=True)
    invs = workloads.make(name, seed, rel_outdir, tiny)
    prov = outdir / "provenance.json"
    spawn([str(HERE / "provenance.py"), str(seed)], prov, _env())
    report = {"workload": name, "trace": int(trace), "tiny": tiny,
              "provenance": json.loads(prov.read_text()), "argv": [inv["argv"] for inv in invs]}
    if trace:
        metrics, attempted, failed = measure_layers(invs, outdir, rel_outdir, report)
    else:
        metrics, attempted, failed = measure_e2e(invs, outdir, seconds, report)
    kind = "per_layer" if trace else "end_to_end"
    names = [m["name"] for m in SPEC[kind]]
    missing = sorted(set(names) - set(metrics))
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    report["error_rate"] = failed / attempted
    return {k: metrics[k] for k in names}, attempted, failed, report


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="tiny sizes, for the smoke test")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "pqbernstein" / "cli.py").is_file():
        print(f"error: no pqbernstein source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    total, attempted, failed = {}, 0, 0
    for name in names:
        metrics, a, f, report = run_workload(name, args.seed, args.seconds, bool(args.trace), args.tiny)
        attempted += a
        failed += f
        print(json.dumps(report))
        samples = report.get("samples", {})
        for k, v in metrics.items():
            n = samples.get("setup" if k == "setup_s" else "runs")
            print(f"{name}  {k} = {v:.6g} {UNITS[k]}" + (f"  (median of {n})" if n else ""))
        print(f"{name}  error_rate = {f}/{a}")
        for k, v in metrics.items():
            total[k if len(names) == 1 else f"{name}/{k}"] = {"value": v, "unit": UNITS[k]}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": total}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
