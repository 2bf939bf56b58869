"""fddkit benchmark: one workload per process, a closed loop with one caller.

    python3 perfbench/run.py --workload diagnose --seed 1 --trace 0

--workload is paper_seed, diagnose, archive_track, or all (each workload
in its own child process). Run from anywhere: the library is imported
from ``src/`` beside this directory, never from an installed copy.

Set-up is a cold import of fddkit in a fresh interpreter plus the
workload's own preparation; each is repeated and the medians are added.
The run then repeats the workload's operations for --seconds and for at
least one full pass over the operation pool, checking every output. With
--trace 1 it then runs one more pass with spans recorded around every
public fddkit function and reports the per-layer figures instead of the
end-to-end ones. The last line of stdout is the JSON result; the line
before it records the environment. The exit code is 1 when any output
check fails.
"""

import argparse
import json
import os
import pickle
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
# Set-up is timed at least this many times and for at least this many
# seconds, so that a cheap set-up gets enough repeats for a steady median.
SETUP_REPS, SETUP_MIN_S = 3, 3.0
IMPORT_REPS, IMPORT_MIN_S = 5, 2.0
SEED_RANGE = 100_000
# The models are tiny (d_h = 12 to 52), so extra BLAS threads only add
# contention; one thread also keeps runs steady on a shared machine.
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def nproc():
    return len(os.sched_getaffinity(0))


def import_library():
    """Import fddkit from this checkout's src/, or exit 1."""
    for var in BLAS_VARS:
        os.environ[var] = str(min(BLAS_THREADS, nproc()))
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    try:
        import fddkit
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import fddkit from {src}: {exc}")
    if not Path(fddkit.__file__).resolve().is_relative_to(src):
        sys.exit(f"perfbench: fddkit resolves to {fddkit.__file__}, "
                 f"not to {src}")


def cold_import_s():
    """Seconds a fresh interpreter takes to import fddkit: the part of
    set-up that a run in this process has already paid once."""
    code = ("import time; t = time.perf_counter(); import fddkit; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    child = subprocess.run([sys.executable, "-c", code], env=env,
                           capture_output=True, text=True, check=True)
    return float(child.stdout)


def repeated(fn, reps, min_s):
    """Durations of fn() over at least reps calls and min_s seconds."""
    times = []
    until = time.perf_counter() + min_s
    while len(times) < reps or time.perf_counter() < until:
        times.append(fn())
    return times


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def environment(args):
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "blas_threads": int(os.environ[BLAS_VARS[0]]),
            "nproc": nproc(), "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace}


def same(a, b):
    """Bitwise equality of two operation outputs."""
    return pickle.dumps(a) == pickle.dumps(b)


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] \
        if len(values) > 1 else values[0]


def run_workload(args):
    import tracing
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]()
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    problems = []
    try:
        pool = None

        def prepare():
            nonlocal pool
            start = time.perf_counter()
            pool = workload.setup(args.seed, workdir)
            return time.perf_counter() - start
        prepare_s = repeated(prepare, SETUP_REPS, SETUP_MIN_S)
        import_s = repeated(cold_import_s, IMPORT_REPS, IMPORT_MIN_S)

        # Closed loop over the pool: at least one full pass, and until
        # --seconds have gone by. Repeats must reproduce the first pass.
        first, latency = [], []
        attempted = failed = 0
        deadline = time.perf_counter() + args.seconds
        while len(first) < len(pool) or time.perf_counter() < deadline:
            k = attempted % len(pool)
            attempted += 1
            start = time.perf_counter()
            try:
                out = workload.run(pool[k])
            except Exception as exc:  # counted, reported, run continues
                failed += 1
                problems.append(f"op {k}: {type(exc).__name__}: {exc}")
                if k == len(first):
                    break           # the first pass cannot complete
                continue
            elapsed = time.perf_counter() - start
            latency.append(elapsed)
            bad = workload.check(pool[k], out)
            if k == len(first):
                first.append(out)
            elif not same(out, first[k]):
                bad.append("differs from the first pass on the same input")
            if bad:
                failed += 1
                problems.extend(f"op {k}: {p}" for p in bad)

        quality = workload.quality(first) if len(first) == len(pool) else {}
        metrics = {
            "setup_s": (statistics.median(import_s)
                        + statistics.median(prepare_s)),
            "op_p50_ms": 1e3 * statistics.median(latency),
            "op_p90_ms": 1e3 * percentile(latency, 90),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "avg_fdr": quality.get("avg_fdr"),
        }

        if args.trace and quality:
            # Each traced operation follows an untraced one on the same
            # input, so the overhead compares runs moments apart.
            tracer = tracing.Tracer()
            plain_s = traced_s = 0.0
            traced_out = []
            for k, x in enumerate(pool):
                start = time.perf_counter()
                plain = workload.run(x)
                plain_s += time.perf_counter() - start
                tracer.op = k
                tracer.install()
                try:
                    start = time.perf_counter()
                    traced = workload.run(x)
                    traced_s += time.perf_counter() - start
                finally:
                    tracer.uninstall()
                attempted += 2
                traced_out.append(traced)
                for what, out in (("untraced", plain), ("traced", traced)):
                    if not same(out, first[k]):
                        failed += 1
                        problems.append(f"op {k}: {what} repeat differs")
            if workload.quality(traced_out) != quality:
                problems.append("traced quality differs from untraced")
            metrics = tracing.layer_metrics(tracer.spans, len(pool))
            metrics["trace.overhead_share"] = traced_s / plain_s - 1.0
            metrics.update({f"quality.{k}": v for k, v in quality.items()
                            if k != "avg_fdr"})
            tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {}
    for m in declared_metrics(args.trace):
        value = metrics.get(m["name"])
        if value is None:
            problems.append(f"metric {m['name']} was not measured")
            continue
        result[m["name"]] = {"value": value, "unit": m["unit"]}
    for p in problems:
        print(f"perfbench: {p}", file=sys.stderr)
    ok = not problems and failed == 0
    print(json.dumps({"environment": environment(args)}))
    print(json.dumps({"correct": ok, "attempted": attempted,
                      "failed": failed, "metrics": result}))
    return 0 if ok else 1


def run_all(args):
    """Each workload in its own process, so peak RSS is its own."""
    from workloads import WORKLOADS
    code = 0
    for name in WORKLOADS:
        child = subprocess.run(
            [sys.executable, __file__, "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], check=False)
        code = max(code, child.returncode)
    return code


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # Any integer is a valid seed; the workloads use it modulo
    # SEED_RANGE, which keeps every plant seed they derive from it in
    # range and the diagnose records clear of the training splits.
    args.seed %= SEED_RANGE
    import_library()
    from workloads import WORKLOADS
    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)} "
                     "or all")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
