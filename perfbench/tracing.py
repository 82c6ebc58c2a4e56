"""Span recording for the measured process and self-time analysis for the runner.

The measured process wraps public functions of the wwae modules at the
names their callers look up and records one span per call: the function,
its start, its end and the enclosing span. Spans stay in memory and are
written out when the process ends. All times are integer nanoseconds from
time.monotonic_ns, the clock the runner also uses to stamp process starts,
so sums of self times are exact.
"""

from __future__ import annotations

import functools
import time
import tracemalloc
from bisect import bisect_left
from statistics import median

# (module, attribute, span name). A function is wrapped where its callers
# look it up: divergences imports sqrtm_psd and grad_trace_sqrtm by name,
# and cli imports the checkpoint and config loaders by name, so those are
# wrapped in the importing module but reported under their home module.
TRACED = (
    ("cli", "main", "cli.main"),
    ("cli", "load_config", "config.load_config"),
    ("cli", "load_checkpoint", "checkpoint.load_checkpoint"),
    ("cli", "save_checkpoint", "checkpoint.save_checkpoint"),
    ("data", "load_dataset", "data.load_dataset"),
    ("data", "load_idx", "data.load_idx"),
    ("models", "train_step", "models.train_step"),
    ("models", "loss_and_grads", "models.loss_and_grads"),
    ("models", "draw_step_noise", "models.draw_step_noise"),
    ("models", "generate", "models.generate"),
    ("models", "reconstruct", "models.reconstruct"),
    ("nn", "mlp_forward", "nn.mlp_forward"),
    ("nn", "mlp_backward", "nn.mlp_backward"),
    ("nn", "adam_step", "nn.adam_step"),
    ("nn", "flatten_params", "nn.flatten_params"),
    ("nn", "unflatten_params", "nn.unflatten_params"),
    ("spectral", "eigh", "spectral.eigh"),
    ("spectral", "batch_stats", "spectral.batch_stats"),
    ("spectral", "batch_stats_backward", "spectral.batch_stats_backward"),
    ("divergences", "sqrtm_psd", "spectral.sqrtm_psd"),
    ("divergences", "grad_trace_sqrtm", "spectral.grad_trace_sqrtm"),
    ("divergences", "gaussian_w2", "divergences.gaussian_w2"),
    ("divergences", "gaussian_w2_grad", "divergences.gaussian_w2_grad"),
    ("divergences", "mmd_imq", "divergences.mmd_imq"),
    ("divergences", "mmd_imq_grad_y", "divergences.mmd_imq_grad_y"),
    ("gradcheck", "check_model_grads", "gradcheck.check_model_grads"),
    ("metrics", "pixel_pca_features", "metrics.pixel_pca_features"),
    ("metrics", "fid", "metrics.fid"),
    ("metrics", "latent_report", "metrics.latent_report"),
    ("images", "write_pgm", "images.write_pgm"),
    ("images", "tile_grid", "images.tile_grid"),
    ("images", "write_latent_csv", "images.write_latent_csv"),
)
# data.batches returns a generator that cli advances once per training
# step; the span covers each draw, not the call that creates the stream.
BATCHES = ("data", "batches", "data.batches")
ROUND = "bench.round"  # an eval_image operation; not a program function

# Share of per-cycle values dropped at each end before averaging, so that
# work done every few dozen steps (in-run desk-FID, sample grids) stays out
# of the per-operation figures.
TRIM = 0.1


class Tracer:
    """In-memory spans, stored as parallel lists to keep recording cheap."""

    def __init__(self, record_layers: bool, alloc_probe: frozenset = frozenset()):
        self.record_layers = record_layers
        self.alloc_probe = alloc_probe  # operation indices run under tracemalloc
        self.name_ids: dict[str, int] = {}
        self.names: list[int] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.stack: list[int] = []
        self.ops: list[int] = []  # span index of each operation
        self.op_errors = 0
        self.alloc_peaks: list[int] = []

    def _open(self, name: str) -> int:
        nid = self.name_ids.setdefault(name, len(self.name_ids))
        idx = len(self.starts)
        self.names.append(nid)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.starts.append(0)
        self.ends.append(0)
        self.stack.append(idx)
        return idx

    def wrap(self, fn, name: str):
        """Record a span around every call of fn."""
        nid = self.name_ids.setdefault(name, len(self.name_ids))
        names, starts, ends = self.names, self.starts, self.ends
        parents, stack, clock = self.parents, self.stack, time.monotonic_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            starts.append(0)
            ends.append(0)
            stack.append(idx)
            starts[idx] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def wrap_op(self, fn, name: str):
        """Record fn as the workload's operation: a span, an error count and,
        for the operation indices in alloc_probe, a tracemalloc peak."""

        @functools.wraps(fn)
        def op(*args, **kwargs):
            probe = len(self.ops) in self.alloc_probe
            if probe:
                tracemalloc.start()
            idx = self._open(name)
            self.ops.append(idx)
            self.starts[idx] = time.monotonic_ns()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                self.op_errors += 1
                raise
            finally:
                self.ends[idx] = time.monotonic_ns()
                self.stack.pop()
                if probe:
                    self.alloc_peaks.append(tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()

        return op

    def wrap_stream(self, make_stream, name: str):
        """Wrap a function returning an iterator so each draw is a span."""
        tracer = self

        class _Stream:
            def __init__(self, it):
                self._next = tracer.wrap(it.__next__, name)

            def __iter__(self):
                return self

            def __next__(self):
                return self._next()

        @functools.wraps(make_stream)
        def wrapped(*args, **kwargs):
            return _Stream(make_stream(*args, **kwargs))

        return wrapped

    def result(self) -> dict:
        out = {
            "ops": [[self.starts[i], self.ends[i]] for i in self.ops],
            "op_errors": self.op_errors,
            "alloc_peaks": self.alloc_peaks,
        }
        if self.record_layers:
            by_id = sorted(self.name_ids, key=self.name_ids.get)
            out["spans"] = {
                "names": by_id,
                "name": self.names,
                "start": self.starts,
                "end": self.ends,
                "parent": self.parents,
                "ops": self.ops,
            }
        return out


def _trimmed_mean(values: list[float]) -> float:
    if not values:
        return 0.0
    values = sorted(values)
    cut = int(len(values) * TRIM)
    kept = values[cut : len(values) - cut]
    return sum(kept) / len(kept)


class SpanStats:
    """Self times and call counts per function, split by operation cycle.

    A cycle is the interval from the end of one operation to the end of the
    next, so it holds one operation and whatever its caller did since the
    previous one (the batch draw in training, the parameter rebuild per
    probe in gradcheck). Cycles of warm-up operations are skipped. A span's
    self time is its duration minus that of its direct children; spans nest,
    so no self-time segment crosses a cycle boundary. Nesting is the one
    thing checked: once spans nest, the self times inside an operation add
    up to its duration by construction.
    """

    def __init__(self) -> None:
        self.cycle_self: dict[str, list[int]] = {}
        self.cycle_calls: dict[str, list[int]] = {}
        self.run_self: dict[str, list[int]] = {}
        self.cycles = 0
        self.processes = 0
        self.errors: list[str] = []

    def add_process(self, spans: dict, warmup: int) -> None:
        names = [spans["names"][i] for i in spans["name"]]
        start, end, parent = spans["start"], spans["end"], spans["parent"]
        ops = spans["ops"]
        n = len(start)
        op_ends = [end[i] for i in ops]
        if warmup < 1:
            raise ValueError("the first cycle needs a warm-up operation before it")
        n_cyc = max(len(ops) - warmup, 0)
        base = self.cycles

        children: list[list[int]] = [[] for _ in range(n)]
        for i in range(n):
            if parent[i] >= 0:
                children[parent[i]].append(i)

        proc_self: dict[str, int] = {}
        cyc_self: dict[str, list[int]] = {}
        cyc_calls: dict[str, list[int]] = {}

        def cycle_of(t: int) -> int:
            k = bisect_left(op_ends, t)
            return k - warmup if warmup <= k < len(ops) else -1

        for i in range(n):
            name = names[i]
            kids = children[i]
            edges = [start[i]]
            for c in kids:
                if start[c] < edges[-1] or end[c] > end[i]:
                    self.errors.append(f"span {name} does not contain its children")
                edges.append(start[c])
                edges.append(end[c])
            edges.append(end[i])
            own = 0
            per = cyc_self.setdefault(name, [0] * n_cyc)
            for a, b in zip(edges[0::2], edges[1::2]):
                own += b - a
                k = cycle_of(b)
                if k >= 0:
                    per[k] += b - a
            proc_self[name] = proc_self.get(name, 0) + own
            k = cycle_of(start[i])
            calls = cyc_calls.setdefault(name, [0] * n_cyc)
            if k >= 0:
                calls[k] += 1

        for name in set(self.cycle_self) | set(cyc_self):
            self.cycle_self.setdefault(name, [0] * base).extend(
                cyc_self.get(name, [0] * n_cyc)
            )
            self.cycle_calls.setdefault(name, [0] * base).extend(
                cyc_calls.get(name, [0] * n_cyc)
            )
        for name in set(self.run_self) | set(proc_self):
            self.run_self.setdefault(name, [0] * self.processes).append(
                proc_self.get(name, 0)
            )
        self.cycles += n_cyc
        self.processes += 1

    def ms_per_op(self, name: str) -> float:
        return _trimmed_mean(self.cycle_self.get(name, [])) / 1e6

    def calls_per_op(self, name: str) -> float:
        return _trimmed_mean(self.cycle_calls.get(name, []))

    def ms_per_run(self, name: str) -> float:
        values = self.run_self.get(name)
        return median(values) / 1e6 if values else 0.0
