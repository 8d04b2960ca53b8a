"""lrdmd benchmark: one closed-loop client drives one workload for a fixed time.

    python3 perfbench/run.py --workload scale-lib --seed 1 --seconds 45 --trace 0

It runs the lrdmd sources under ``src/`` of the checkout that holds this
file, in process.  The last line of standard output is one JSON object
``{correct, attempted, failed, metrics}``; the metrics are the end-to-end
metrics of BENCHMARK.json with ``--trace 0`` and its per-layer metrics with
``--trace 1``.  The line before it is a JSON record of the environment,
every operation latency and the failures.  Both are also written, with the
trace spans, under ``.perfbench-out/`` in the checkout.
"""

import os

BLAS_THREADS = 1
# Pinned before numpy is first imported: OpenBLAS reads these at load time,
# and threaded BLAS changes small-matrix timings by two orders of magnitude.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import ctypes
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"

DEFAULT_SEED = 1
#: Seed kept out of tuning; a change that claims a gain confirms it here.
HELD_OUT_SEED = 8191
SETUP_REPS = 5
PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)

# Operation kind -> (latency metric, unit, scale applied to seconds per op or per step).
LATENCIES = {
    "generate": ("generate_s", "s", 1.0),
    "sweep": ("sweep_s", "s", 1.0),
    "fit": ("fit_s", "s", 1.0),
    "simulate": ("simulate_s", "s", 1.0),
    "verify": ("verify_s", "s", 1.0),
    "solve": ("solve_s", "s", 1.0),
    "baseline": ("baseline_s", "s", 1.0),
    "sim_step.spectral": ("sim_step_us.spectral", "us", 1e6),
    "sim_step.reduced": ("sim_step_us.reduced", "us", 1e6),
    "sim_step.factored": ("sim_step_us.factored", "us", 1e6),
}


def _openblas_threads(np) -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded, if it can be found."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*.so*")):
        handle = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_sha() -> str | None:
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "blas_threads": _openblas_threads(np),
        "blas_threads_pinned": BLAS_THREADS,
        "blas": blas.get("openblas configuration") or f"{blas.get('name')} {blas.get('version')}",
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "git_sha": _git_sha(),
    }


def setup_seconds() -> float:
    """Wall time of a fresh interpreter that imports lrdmd.cli and exits."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    t0 = perf_counter()
    # No timeout: with one, Popen.wait polls in steps of up to 50 ms.
    subprocess.run([sys.executable, "-c", "import lrdmd.cli"], cwd=ROOT, env=env, check=True)
    return perf_counter() - t0


def summarize(values: list[float], unit: str) -> dict:
    """Median, the highest percentile with at least ten samples beyond it, and the count."""
    import numpy as np

    out = {"unit": unit, "median": statistics.median(values), "count": len(values)}
    for p in PERCENTILES:
        if len(values) * (1.0 - p / 100.0) >= 10:
            out[f"p{p:g}"] = float(np.percentile(values, p))
            break
    return out


def best_pass_s(logs) -> float:
    """Pass time composed of each operation's fastest run: the sum, over the
    positions of a pass, of the least time any pass took for that operation."""
    best: dict[tuple[int, str], float] = {}
    for log in logs:
        for i, op in enumerate(log.ops):
            best[i, op.kind] = min(best.get((i, op.kind), op.seconds), op.seconds)
    return sum(best.values())


def run(args, spec) -> int:
    import lrdmd

    if Path(lrdmd.__file__).resolve().parent != (SRC / "lrdmd").resolve():
        print(f"perfbench: lrdmd imported from {lrdmd.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    from tracing import Tracer
    from workloads import WORKLOADS, PassLog

    env = environment()
    if env["blas_threads"] not in (None, BLAS_THREADS):
        # A run on another thread count is not comparable: flag it and give no result.
        print(json.dumps({"workload": args.workload, "seed": args.seed, "env": env, "flag": "blas_threads_mismatch"}))
        print(f"perfbench: OpenBLAS runs {env['blas_threads']} threads, expected {BLAS_THREADS}", file=sys.stderr)
        return 3

    workdir = OUT_DIR / f"work-{args.workload}-{os.getpid()}"
    tracer = Tracer() if args.trace else None
    passes = []  # (run_s, traced, PassLog)
    setup: list[float] = []
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        start = perf_counter()

        def measured() -> float:
            """Time spent in passes so far; set-up samples do not count."""
            return perf_counter() - start - sum(setup)

        while True:
            # Set-up samples are spread over the run, between passes, so that
            # they see the same machine load as the passes.
            while len(setup) < SETUP_REPS and measured() >= len(setup) * args.seconds / SETUP_REPS:
                setup.append(setup_seconds())
            # In a traced run, untraced and traced passes alternate, for the overhead.
            traced = tracer is not None and len(passes) % 2 == 1
            log = PassLog(tracer if traced else None)
            if traced:
                with tracer.installed():
                    run_s = workload.run_pass(log)
            else:
                run_s = workload.run_pass(log)
            passes.append((run_s, traced, log))
            if measured() >= args.seconds and (tracer is None or len(passes) >= 2):
                break
        setup.extend(setup_seconds() for _ in range(SETUP_REPS - len(setup)))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ops = [op for _, _, log in passes for op in log.ops]
    failures = [msg for op in ops for msg in op.failures]
    failed = sum(1 for op in ops if op.failures)
    untraced = [run_s for run_s, traced, _ in passes if not traced]
    untraced_best = best_pass_s(log for _, traced, log in passes if not traced)
    per_kind: dict[str, list[float]] = {}
    for _, traced, log in passes:
        if not traced:
            for op in log.ops:
                per_kind.setdefault(op.kind, []).append(op.seconds / (op.steps or 1))
    latencies = {}
    for kind, values in per_kind.items():
        name, unit, scale = LATENCIES[kind]
        latencies[name] = summarize([v * scale for v in values], unit)

    if tracer is None:
        values = {
            "setup_s": statistics.median(setup),
            "run_s": untraced_best,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        wanted = spec["end_to_end"]
    else:
        values = tracer.layer_metrics([r for r, traced, _ in passes if traced])
        values["trace.run_s"] = best_pass_s(log for _, traced, log in passes if traced)
        values["trace.overhead_s"] = values["trace.run_s"] - untraced_best
        wanted = spec["per_layer"]
    if set(values) != {m["name"] for m in wanted}:
        print(f"perfbench: metrics {sorted(values)} do not match BENCHMARK.json", file=sys.stderr)
        return 2
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": env,
        "passes": len(passes),
        "setup_s": setup,
        "run_s": summarize(untraced, "s") | {"best_pass": untraced_best, "all": untraced},
        "latencies": latencies,
        "error_rate": failed / len(ops),
        "failures": failures[:50],
    }
    result = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps({"record": record, "result": result}, indent=1) + "\n")
    if tracer is not None:
        tracer.dump(OUT_DIR / f"{stem}-spans.json")
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED, help=f"input seed (default {DEFAULT_SEED}; held out: {HELD_OUT_SEED})")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"], help="measuring time; passes are never cut short")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: traced run reporting per-layer metrics")
    args = parser.parse_args(argv)
    if not (SRC / "lrdmd" / "__init__.py").is_file():
        print(f"perfbench: no lrdmd sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    return run(args, spec)


if __name__ == "__main__":
    sys.exit(main())
