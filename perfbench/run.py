"""Benchmark runner for wwae.

Usage:
    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The runner builds the workload's
inputs from the seed, then starts measured processes (perfbench/child.py)
one after another, each doing the same fixed work, until S seconds have
passed. It checks what every process wrote and prints, as its last line,
one JSON object with `correct`, `attempted`, `failed` and `metrics`.

With --trace 0 the metrics are the end-to-end ones, medians over the
processes. With --trace 1 untraced and traced processes alternate; the
traced ones give per-layer self times and counts, and the difference of
the two kinds' operation medians is the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path
from statistics import median, quantiles

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
WORK = ROOT / ".perfbench_work"
TIME_LIMIT = 150.0  # start no process that could end past this many seconds

PER_OP = (
    "nn.adam_step", "nn.flatten_params", "nn.unflatten_params", "models.train_step",
    "spectral.eigh", "spectral.sqrtm_psd", "spectral.grad_trace_sqrtm",
    "spectral.batch_stats", "spectral.batch_stats_backward",
    "divergences.gaussian_w2", "divergences.gaussian_w2_grad",
    "divergences.mmd_imq", "divergences.mmd_imq_grad_y",
    "nn.mlp_forward", "nn.mlp_backward",
    "models.loss_and_grads", "models.draw_step_noise", "data.batches",
    "gradcheck.check_model_grads",
    "checkpoint.load_checkpoint", "data.load_idx", "metrics.pixel_pca_features",
    "metrics.fid", "metrics.latent_report", "models.generate", "models.reconstruct",
    "images.write_pgm", "images.tile_grid", "images.write_latent_csv", "cli.main",
)
CALLS_PER_OP = ("spectral.eigh", "nn.mlp_forward")
PER_RUN = ("data.load_dataset", "config.load_config", "checkpoint.save_checkpoint")


def blas_threads() -> str:
    """OpenBLAS's thread count, read from the library NumPy loaded."""
    import ctypes

    import numpy  # noqa: F401  (loads the BLAS library)

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return "unknown"
    for lib in libs:
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return str(fn())
    return "unknown"


def run_process(workload, run_dir: Path, traced: bool, timeout: float) -> dict:
    """Start one measured process, time it from outside and check its output."""
    spec = workload.spec(run_dir)
    spec.update(
        mode=workload.mode,
        trace=traced,
        result=str(run_dir / "result.json"),
        alloc_probe=list(range(1, workload.warmup)) if traced else [],
    )
    spec_path = run_dir / "spec.json"
    spec_path.write_text(json.dumps(spec))
    with open(run_dir / "stdout.txt", "wb") as out, open(run_dir / "stderr.txt", "wb") as err:
        started = time.monotonic_ns()
        proc = subprocess.Popen(
            [sys.executable, str(CHILD), str(spec_path)],
            stdout=out,
            stderr=err,
            cwd=ROOT,
        )
        watchdog = threading.Timer(timeout, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        ended = time.monotonic_ns()
        proc.returncode = os.waitstatus_to_exitcode(status)

    stdout = (run_dir / "stdout.txt").read_text()
    record = {"traced": traced, "failed": [], "wrong": [], "op_ns": []}
    result_path = run_dir / "result.json"
    if proc.returncode not in workload.checked_exit_codes or not result_path.is_file():
        tail = (run_dir / "stderr.txt").read_text().strip().splitlines()[-1:]
        record["failed"].append(f"exit code {proc.returncode} {tail}")
        return record
    result = json.loads(result_path.read_text())
    ops = result["ops"]
    if result["op_errors"] or len(ops) != workload.ops_per_process:
        record["failed"].append(f"{len(ops)} operations, {result['op_errors']} raised")
        return record
    try:
        record["wrong"] = workload.check(run_dir, stdout)
    except Exception as exc:  # output the check cannot read is wrong output
        record["wrong"] = [f"check raised {exc!r}"]
    if proc.returncode != 0:
        record["failed"].append(f"exit code {proc.returncode}")
        return record
    record.update(
        setup_s=(ops[0][0] - started) / 1e9,
        run_s=(ended - started) / 1e9,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        op_ns=[end - start for start, end in ops[workload.warmup :]],
        spans=result.get("spans"),
        alloc_peaks=result["alloc_peaks"],
    )
    return record


def measure(workload, work: Path, seed: int, seconds: float, trace: bool) -> list[dict]:
    begun = time.monotonic()
    workload.prepare(work, seed)
    records = []
    start = time.monotonic()
    while True:
        run_dir = work / f"p{len(records):03d}"
        run_dir.mkdir()
        traced = trace and len(records) % 2 == 1
        timeout = max(10.0, 170.0 - (time.monotonic() - begun))
        t0 = time.monotonic()
        records.append(run_process(workload, run_dir, traced, timeout))
        last = time.monotonic() - t0
        shutil.rmtree(run_dir)
        now = time.monotonic()
        enough = now - start >= seconds and (not trace or len(records) >= 2)
        if enough or now - begun + last > TIME_LIMIT:
            return records


def per_layer(workload, records: list[dict]) -> tuple[dict, bool]:
    stats = tracing.SpanStats()
    traced = [r for r in records if r["traced"] and "spans" in r]
    for r in traced:
        stats.add_process(r["spans"], workload.warmup)
    for error in sorted(set(stats.errors)):
        print(f"trace: {error}", file=sys.stderr)
    untraced_ns = [ns for r in records if not r["traced"] for ns in r["op_ns"]]
    traced_ns = [ns for r in traced for ns in r["op_ns"]]
    peaks = [p for r in traced for p in r["alloc_peaks"]]
    metrics = {}
    for name in PER_OP:
        metrics[f"{name}.ms_per_op"] = (stats.ms_per_op(name), "ms")
    for name in CALLS_PER_OP:
        metrics[f"{name}.calls_per_op"] = (stats.calls_per_op(name), "count")
    for name in PER_RUN:
        metrics[f"{name}.ms_per_run"] = (stats.ms_per_run(name), "ms")
    metrics["models.train_step.peak_alloc_kib"] = (
        median(peaks) / 1024.0 if peaks and workload.mode == "train" else 0.0,
        "KiB",
    )
    overhead = median(traced_ns) - median(untraced_ns) if traced_ns and untraced_ns else 0.0
    metrics["trace.overhead_ms_per_op"] = (overhead / 1e6, "ms")
    print(f"trace: {stats.processes} traced processes, {stats.cycles} cycles", file=sys.stderr)
    return metrics, not stats.errors


def end_to_end(records: list[dict]) -> dict:
    done = [r for r in records if r["op_ns"]]
    op_ns = sorted(ns for r in done for ns in r["op_ns"])
    if not op_ns:
        return {}
    p90 = quantiles(op_ns, n=10)[-1] if len(op_ns) >= 2 else op_ns[0]
    print(f"op_ms median={median(op_ns) / 1e6:.4f} p90={p90 / 1e6:.4f} samples={len(op_ns)} processes={len(done)}")
    return {
        "setup_s": (median(r["setup_s"] for r in done), "s"),
        "op_ms": (median(op_ns) / 1e6, "ms"),
        "run_s": (median(r["run_s"] for r in done), "s"),
        "peak_rss_mb": (median(r["peak_rss_mb"] for r in done), "MiB"),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "wwae" / "cli.py").is_file():
        print(f"error: no wwae sources under {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be non-negative", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    print(
        f"machine: nproc={os.cpu_count()} python={platform.python_version()} "
        f"numpy={__import__('numpy').__version__} blas_threads={blas_threads()}"
    )

    # One name per workload, not per seed or process: path lengths end up in
    # the program's heap, and a heap layout that shifts between runs shifts
    # step times with it.
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)  # left by a killed run
    work.mkdir(parents=True)
    try:
        records = measure(workload, work, args.seed, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still uses it

    failed_records = [r for r in records if r["failed"] or r["wrong"]]
    for r in failed_records:
        print(f"failed: {r['failed'] + r['wrong']}", file=sys.stderr)
    correct = not any(r["wrong"] for r in records)
    if args.trace:
        metrics, consistent = per_layer(workload, records)
        correct = correct and consistent
    else:
        metrics = end_to_end(records)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": len(records) * workload.ops_per_process,
                "failed": len(failed_records) * workload.ops_per_process,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
