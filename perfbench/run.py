#!/usr/bin/env python3
"""lottalora benchmark: fixed work, drift-calibrated CPU timing.

    python3 perfbench/run.py --workload train-static --seed 1 --seconds 20 --trace 0

Runs from the root of a checkout and imports ``lottalora`` from its
``src/``.  One process, one thread (BLAS/OMP pinned to 1), one closed-loop
client, glibc's allocator thresholds pinned (``pin_malloc``), no huge
pages for numpy arrays.  The op
count depends only on ``--seconds`` (never on how fast the ops run), and
``ship`` runs whole 22-family cycles.  Every timing is process CPU time
scaled by ``REF_NOMINAL_MS / ref_ms``, where ``ref_ms`` is the mean of the
reference-kernel slices timed just before and just after the op or set-up
pass (see ``calib.py``).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` wraps the
program's public functions with span recorders, alternates traced and
untraced ops (whole cycles on ``ship``) and prints the per-layer metrics.
The last line of standard output is one JSON object; the full result,
with the environment and sample counts, goes to ``perfbench/out/``.
"""

from __future__ import annotations

import os
import sys
import time

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"  # before numpy loads BLAS
# Whether numpy's madvise(MADV_HUGEPAGE) gets huge pages depends on what the
# host has free at that moment; it moved peak_rss_mb by 4-6 MB between
# identical runs, and op times not at all.
os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

if not os.path.isfile(os.path.join(SRC, "lottalora", "__init__.py")):
    sys.exit(f"perfbench: no lottalora sources under {SRC}; run from the root of a checkout")
sys.path.insert(0, SRC)

import argparse  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import tracemalloc  # noqa: E402

import numpy as np  # noqa: E402

import lottalora as L  # noqa: E402

if os.path.dirname(os.path.abspath(L.__file__)) != os.path.join(SRC, "lottalora"):
    sys.exit(f"perfbench: imported lottalora from {L.__file__}, not from {SRC}")

import calib  # noqa: E402
import golden  # noqa: E402
import trace  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

IMPORT_CPU_S = time.process_time()  # interpreter start + imports

SETUP_REPS = 3
MIN_OPS = 100  # p90 then has at least ten samples above it
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3  # mallopt parameters, <malloc.h>


def pin_malloc() -> str:
    """Fix glibc's mmap and trim thresholds, which turns off their dynamic
    adjustment.

    Left dynamic, the thresholds drift with the exact order of earlier
    frees, and that order changes with the data and the hash seed.  A
    process then either reuses heap memory for the large numpy temporaries
    of scaffold regeneration or maps and faults them in afresh on every
    op: train-resample ops then spend 15-20% of their CPU time in the kernel
    and take 15-25% longer.  Pinned, every run reuses heap memory, which is
    the state the dynamic thresholds aim for.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except AttributeError:
        return "default (no mallopt)"
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    # the mmap threshold at its 32 MiB ceiling, a trim threshold never reached
    if mallopt(M_MMAP_THRESHOLD, 32 << 20) and mallopt(M_TRIM_THRESHOLD, (1 << 31) - 1):
        return "mmap_threshold=32MiB trim_threshold=2GiB"
    return "default (mallopt refused)"


def proc_stat_cpu() -> tuple[int, int]:
    """(steal, total) jiffies from the aggregate line of /proc/stat."""
    with open("/proc/stat", encoding="ascii") as fh:
        fields = [int(v) for v in fh.readline().split()[1:]]
    return fields[7], sum(fields[:8])


def anon_rss_mb() -> float:
    """Resident anonymous memory of this process, in MB (a diagnostic).

    File-backed pages (the shared libraries) are left out: how many of them
    are resident depends on the host's page cache.  Even so the figure is
    bimodal: whether a large temporary fits a hole in the heap or extends
    it depends on every earlier allocation, down to the length of the
    checkout's path and of the seed's digits, and it moved the peak by
    6 MB between otherwise identical runs.  ``peak_alloc_mb`` is the
    memory metric.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("RssAnon:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no RssAnon in /proc/self/status")


def peak_alloc_mb(factory, seed: int) -> tuple[float, bool]:
    """Peak memory allocated through Python and numpy while a fresh
    workload is built and runs one op, in MB, and whether that op passed
    its checks.

    ``tracemalloc`` sees every Python object and numpy buffer, so the
    figure is the sum of live allocations at their peak: the workload's
    data and artifacts plus the op's temporaries.  Unlike the resident set
    it does not depend on how the heap happens to be fragmented.  Memory
    live before the pass is not counted.  The pass is untimed.
    """
    gc.collect()
    tracemalloc.start()
    try:
        ok, _ = factory(seed).op(0)
        return tracemalloc.get_traced_memory()[1] / 2**20, ok
    finally:
        tracemalloc.stop()


def git_rev() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="ascii") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:]), encoding="ascii") as fh:
            return fh.read().strip()
    except OSError:
        return "unknown"


def environment() -> dict:
    cfg = np.show_config(mode="dicts")
    blas = cfg.get("Build Dependencies", {}).get("blas", {})
    flags = []
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("flags"):
                    flags = sorted(f for f in line.split(":", 1)[1].split()
                                   if f.startswith(("avx", "sse", "fma", "amx", "f16c")))
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "numpy_simd": cfg.get("SIMD Extensions", {}),
        "cpu_simd_flags": flags,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "numpy_madvise_hugepage": os.environ["NUMPY_MADVISE_HUGEPAGE"],
        "cpus_usable": len(os.sched_getaffinity(0)),
        "algorithm_id": L.ALGORITHM_ID,
        "git_rev": git_rev(),
    }


def op_count(cycle: int, nominal_ms: float, seconds: float, smoke: bool) -> int:
    """Fixed work: whole cycles sized from ``--seconds`` at the nominal op cost."""
    if smoke:
        return 2 * cycle
    cycles = max(math.ceil(MIN_OPS / cycle), round(seconds * 1000.0 / (nominal_ms * cycle)))
    return cycles * cycle


def metric_specs(trace_on: bool) -> list[dict]:
    with open(BENCHMARK_JSON, encoding="utf-8") as fh:
        bench = json.load(fh)
    return bench["per_layer" if trace_on else "end_to_end"]


def cpu_split() -> tuple[float, float]:
    """(user, system) CPU seconds of this process so far."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime, usage.ru_stime


def run(workload: str, seed: int, seconds: float, trace_on: bool, smoke: bool) -> dict:
    factory, nominal_ms, slices = WORKLOADS[workload]
    malloc = pin_malloc()
    stat0 = proc_stat_cpu()
    ref = calib.Reference()
    setup_cal, op_cal = calib.Calibration(ref, 3), calib.Calibration(ref, slices)
    tracer = trace.Tracer() if trace_on else None
    if tracer:
        tracer.install()

    attempted = failed = 0
    failures: list[str] = []
    setup_cpu_s, rss_mb = [], []
    for _ in range(1 if smoke else SETUP_REPS):
        gc.collect()
        setup_cal.sample()
        start = time.process_time()
        n_golden, bad = golden.check(L)
        wl = factory(seed)
        warm_ok, _ = wl.op(0)
        setup_cpu_s.append(time.process_time() - start)
        rss_mb.append(anon_rss_mb())
        attempted += n_golden + 1
        failed += len(bad) + (not warm_ok)
        failures += [f"golden {name}" for name in bad] + ([] if warm_ok else ["warm-up op"])
    setup_cal.sample()
    gc.collect()
    gc.freeze()

    n_ops = op_count(wl.cycle, nominal_ms, seconds, smoke)
    op_ms, op_index, traced_ms, op_split, rows_total = [], [], [], [], 0
    for i in range(n_ops):
        traced = tracer is not None and (i // wl.cycle) % 2 == 0
        if traced:
            tracer.install()
        elif tracer:
            tracer.uninstall()
        gc.collect()
        op_cal.sample()
        if traced:
            tracer.begin_op(i)
        u0, s0 = cpu_split()
        start = time.process_time_ns()
        try:
            ok, rows = wl.op(i)
            error = "check failed"
        except Exception as err:  # a failing op is counted, the run goes on
            ok, rows, error = False, 0, repr(err)
        elapsed = (time.process_time_ns() - start) / 1e6
        u1, s1 = cpu_split()
        rss_mb.append(anon_rss_mb())
        if traced:
            tracer.end_op()
            traced_ms.append(elapsed)
        else:
            op_ms.append(elapsed)
            op_index.append(i)
            op_split.append((u1 - u0, s1 - s0))
            rows_total += rows
        attempted += 1
        if not ok:
            failed += 1
            failures.append(f"op {i}: {error}")
    op_cal.sample()
    if tracer:
        tracer.uninstall()
    else:
        alloc_mb, alloc_ok = peak_alloc_mb(factory, seed)
        attempted += 1
        failed += not alloc_ok
        failures += [] if alloc_ok else ["op under tracemalloc"]
    stat1 = proc_stat_cpu()

    cal = [t * op_cal.scale(i) for t, i in zip(op_ms, op_index)]
    d_total = stat1[1] - stat0[1]
    run_info = {
        "calib.ref_ms_p50": op_cal.ref_ms(),
        "raw.op_cpu_ms_p50": float(np.percentile(op_ms, 50)),
        "raw.op_cpu_ms_p90": float(np.percentile(op_ms, 90)),
        "raw.sys_frac": sum(s for _, s in op_split) / sum(u + s for u, s in op_split),
        "env.steal_frac": (stat1[0] - stat0[0]) / d_total if d_total else 0.0,
        "raw.peak_rss_mb": max(rss_mb),
    }
    counts = {"ops": len(op_ms), "ref_slices": len(op_cal.slices_ms), "setup_reps": len(setup_cpu_s)}
    if tracer:
        ns_to_ms = {i: op_cal.scale(i) / 1e6 for i in range(n_ops)}
        ns_to_ms[trace.SETUP] = calib.REF_NOMINAL_MS / setup_cal.ref_ms() / 1e6
        metrics = trace.per_layer_metrics(tracer, len(setup_cpu_s), ns_to_ms, L.FAMILY_NAMES)
        metrics.update(run_info)
        metrics["trace.overhead_frac"] = statistics.fmean(traced_ms) / statistics.fmean(op_ms) - 1.0
        counts["traced_ops"] = len(traced_ms)
    else:
        metrics = {
            "op_ms_p50": float(np.percentile(cal, 50)),
            "op_ms_p90": float(np.percentile(cal, 90)),
            "samples_per_s": rows_total / (sum(cal) / 1e3),
            "setup_s": statistics.median([(IMPORT_CPU_S + t) * setup_cal.scale(j) for j, t in enumerate(setup_cpu_s)]),
            "peak_alloc_mb": alloc_mb,
            "ops_ok_frac": (attempted - failed) / attempted,
            "artifact_bytes": wl.artifact_bytes,
        }
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace_on), "smoke": smoke,
        "attempted": attempted, "failed": failed, "failures": failures,
        "metrics": metrics, "run": run_info, "counts": counts, "env": {**environment(), "malloc": malloc},
        "setup_cpu_s": setup_cpu_s, "import_cpu_s": IMPORT_CPU_S,
        "samples": {"op_cpu_ms": op_ms, "traced_op_cpu_ms": traced_ms, "op_user_sys_s": op_split,
                    "ref_ms": op_cal.slices_ms, "setup_ref_ms": setup_cal.slices_ms},
        "tracer": tracer,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="two cycles, one set-up pass")
    args = parser.parse_args(argv)

    result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    tracer = result.pop("tracer")
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    if tracer:
        tracer.write(stem + ".spans.json.gz")

    metrics = result["metrics"]
    counts = result["counts"]
    specs = metric_specs(bool(args.trace))
    n_ops = counts["traced_ops"] if args.trace else counts["ops"]
    print(f"{args.workload} seed={args.seed} trace={args.trace}: {counts} "
          f"attempted={result['attempted']} failed={result['failed']}")
    for name, value in result["run"].items():
        print(f"  {name:<34} {value:14.6f}")
    for spec in specs:
        print(f"  {spec['name']:<34} {metrics[spec['name']]:14.6f} {spec['unit']:<8} n={n_ops}")
    for line in result["failures"]:
        print(f"  FAILED {line}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {s["name"]: {"value": metrics[s["name"]], "unit": s["unit"]} for s in specs},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
