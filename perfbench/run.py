"""emogen benchmark: one seeded workload per run, metrics as JSON on stdout.

    python3 perfbench/run.py --workload {train,generate,corpus} --seed N \
        --seconds S --trace {0,1} [--size {full,tiny}]

Run from the root of a source checkout; the package is imported from its
`src/` directory. Each run is a closed loop in one process with
`OPENBLAS_NUM_THREADS=1`. The last stdout line is the result object
{"correct", "attempted", "failed", "metrics"}; the line before it is a
report with the environment stamp, the workload's own metric names, the
output checks and the failure counts.

--trace 0 sets up several times (median is `setup_s`), then runs
operations until `--seconds` have passed, and reports the end-to-end
metrics. Their times are calibrated against a reference kernel run
between operations (calibration.py); the raw figures are on the report
line. --trace 1 sets up once under the tracer, then for `--seconds`
runs each operation twice, once untraced and once traced, and reports the
per-layer metrics of the traced runs and the tracing overhead.
`--size tiny` shrinks every input for the smoke tests; its numbers mean
nothing.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPS = 5


def keep_freed_memory() -> bool:
    """Keep memory that numpy frees inside the process for the next operation.

    By default glibc returns large blocks to the kernel and the next
    allocation faults them in again. On a virtual machine each such fault
    can cost host time that changes with the host's load, which made the
    same training run take anywhere from 1x to 2x as long. Raising the mmap
    and trim thresholds keeps those blocks in the heap.
    """
    try:
        libc = ctypes.CDLL("libc.so.6")
    except OSError:
        return False
    m_trim_threshold, m_mmap_threshold = -1, -3
    return bool(libc.mallopt(m_mmap_threshold, 1 << 25) and libc.mallopt(m_trim_threshold, 1 << 30))


def pin_to_one_cpu() -> int | None:
    """Run on the highest-numbered CPU this process may use.

    One BLAS thread and one Python thread need one CPU; staying on it keeps
    caches warm, and on the 2-vCPU machine this was sized on the last CPU
    was the steadier one. Returns the CPU, or None where affinity is not
    supported.
    """
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


IMPORT_PROBE = ("import time; t = time.perf_counter(); import emogen.cli; "
                "print(time.perf_counter() - t)")


def import_seconds() -> float:
    """Seconds to import the package in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return float(subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                                capture_output=True, text=True, timeout=120,
                                check=True).stdout)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("train", "generate", "corpus"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    return parser.parse_args(argv)


def run_ops(workload, state, seconds: float, calibrator) -> list:
    """Operations 0, 1, ... until `seconds` pass and `min_ops` are done.

    After each operation the reference kernel catches up to its share of
    the time spent in operations so far.
    """
    clock = time.perf_counter
    records = []
    deadline = clock() + seconds
    busy_s = 0.0
    i = 0
    while i < workload.min_ops() or clock() < deadline:
        t0 = clock()
        record = workload.op(state, i)
        record.seconds = clock() - t0
        records.append(record)
        busy_s += record.seconds
        calibrator.keep_up(i, busy_s)
        i += 1
    return records


def run_paired(workload, state, seconds: float, tracer) -> tuple[list, float, float]:
    """Each operation twice, untraced and traced, alternating which goes first.

    Pairing the two runs of one operation keeps drift in the machine's
    speed out of the overhead figure. Returns the untraced records and the
    untraced and traced seconds.
    """
    clock = time.perf_counter
    records = []
    untraced_s = traced_s = 0.0
    deadline = clock() + seconds
    i = 0
    while i < workload.min_ops() or clock() < deadline:
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            if traced:
                tracer.op = i
                tracer.install()
            t0 = clock()
            record = workload.op(state, i)
            record.seconds = clock() - t0
            if traced:
                tracer.restore()
                traced_s += record.seconds
            else:
                untraced_s += record.seconds
                records.append(record)
        i += 1
    return records, untraced_s, traced_s


def environment(args, config: dict) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    sources = sorted((ROOT / "src" / "emogen").rglob("*.py"))
    digest = hashlib.sha256()
    for path in sources:
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    git_sha = None
    if (ROOT / ".git").exists():
        try:
            git_sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                     text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            git_sha = None
    return {
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(), "git_sha": git_sha, "source_sha": digest.hexdigest()[:16],
        "seed": args.seed, "workload": args.workload, "size": args.size,
        "seconds": args.seconds, "trace": args.trace,
        "config_hash": hashlib.sha256(json.dumps(config, sort_keys=True).encode()).hexdigest()[:16],
    }


def summarize(workload, records, calibrator) -> tuple[dict, dict]:
    """Gated metrics and the workload's own named figures.

    Throughput is the run's units over the run's seconds in operations of
    the work kind, scaled by the whole run's kernel time. Operation time is
    the median over operations of the op kind, each scaled by the kernel
    runs just before and after it.
    """
    work = [r for r in records if r.kind == workload.work_kind]
    ops = [(i, r.seconds) for i, r in enumerate(records) if r.kind == workload.op_kind]
    raw_rate = sum(r.units for r in work) / sum(r.seconds for r in work)
    work_per_s = raw_rate / calibrator.scale()
    op_s = statistics.median(secs * calibrator.scale_around(i) for i, secs in ops)
    raw_op_s = statistics.median(secs for _, secs in ops)
    name, rate = workload.name, f"{workload.work_unit}_per_s"
    kernel_s = [s for _, s in calibrator.calls]
    named = {
        f"{name}.{rate}": (work_per_s, "1/s"),
        f"{name}.{rate}.raw": (raw_rate, "1/s"),
        f"{name}.{workload.op_name}.p50": (op_s, "s"),
        f"{name}.{workload.op_name}.p50.raw": (raw_op_s, "s"),
        f"{name}.{workload.op_name}.samples": (len(ops), "count"),
        "calibration.kernel_s.mean": (statistics.fmean(kernel_s), "s"),
        "calibration.kernel_calls": (len(kernel_s), "count"),
    }
    return {"work_per_s": (work_per_s, "1/s"), "op_s": (op_s, "s")}, named


def outcome_counts(records) -> dict:
    counts = {"attempted": len(records), "rejected": 0, "untyped": 0, "failed": 0}
    for record in records:
        if record.outcome != "ok":
            counts[record.outcome] += 1
    return counts


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "emogen" / "__init__.py").is_file():
        print(f"no emogen sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before numpy is first imported
    os.environ["OMP_NUM_THREADS"] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    cpu = pin_to_one_cpu()
    malloc_tuned = keep_freed_memory()
    reps = 1 if args.size == "tiny" else SETUP_REPS
    import calibration
    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload](tiny=args.size == "tiny")
    scratch = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    # a terminated run still removes its scratch files on the way out
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        if args.trace:
            setup_tracer = tracing.Tracer()
            scratch.mkdir(parents=True, exist_ok=True)
            with setup_tracer:
                state = workload.setup(args.seed, scratch)
            gc.collect()
            window = tracing.Tracer()
            records, untraced_s, traced_s = run_paired(workload, state, args.seconds, window)
            metrics = tracing.layer_metrics(setup_tracer, window, traced_s, untraced_s)
            named = {}
        else:
            setup_cal = calibration.Calibrator()
            import_times, setup_times = [], []
            for _ in range(reps):
                setup_cal.burst()
                import_times.append(import_seconds())
                shutil.rmtree(scratch, ignore_errors=True)
                scratch.mkdir(parents=True)
                state = None
                gc.collect()
                t0 = time.perf_counter()
                state = workload.setup(args.seed, scratch)
                setup_times.append(time.perf_counter() - t0)
            setup_cal.burst()
            gc.collect()
            calibrator = calibration.Calibrator()
            records = run_ops(workload, state, args.seconds, calibrator)
            metrics, named = summarize(workload, records, calibrator)
            import_s = statistics.median(import_times)
            raw_setup_s = import_s + statistics.median(setup_times)
            metrics["setup_s"] = (raw_setup_s * setup_cal.scale(), "s")
            metrics["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
            named.update(setup_s=metrics["setup_s"], setup_raw_s=(raw_setup_s, "s"),
                         import_raw_s=(import_s, "s"),
                         peak_rss_mb=metrics["peak_rss_mb"])
        checks = workload.check(state, records)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass

    counts = outcome_counts(records)
    counts["failed_frac"] = counts["failed"] / counts["attempted"]
    if args.trace:
        metrics["bench.failed_frac"] = (counts["failed_frac"], "ratio")
        metrics["bench.rejected"] = (counts["rejected"], "count")
        metrics["bench.untyped_rejected"] = (counts["untyped"], "count")
    stamp = dict(environment(args, workload.config()), cpu=cpu, malloc_tuned=malloc_tuned)
    report = {"environment": stamp, "checks": checks, "counts": counts,
              "named_metrics": {k: {"value": v, "unit": u} for k, (v, u) in named.items()}}
    for name, passed in checks.items():
        if not passed:
            print(f"check failed: {name}", file=sys.stderr)
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": all(checks.values()),
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
