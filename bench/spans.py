"""Span tracing from outside the program, for the benchmark's traced run.

Each traced function is replaced, for the duration of a ``with`` block, by a
wrapper that records one span (name, parent span, start, end) and optionally
a computed work figure (FLOPs or bytes) derived from the argument shapes.
Functions are wrapped where their callers look them up: ``transfer`` imports
``generate_task_datasets``, ``adam_step``, ``gd_step`` and ``params_axpy``
by name, and ``evaluate`` does the same for ``collect``, ``draw_combos`` and
``adam_step``, so those module attributes are patched alongside the defining
module's own. Spans stay in memory until :meth:`Tracer.write_jsonl`.

A span's self time is its duration minus the durations of its direct child
spans. The layer of a span is the prefix of its name before the first dot.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
from time import perf_counter

from csitransfer import channel, evaluate, net, optim, store, transfer

LAYERS = ("channel", "net", "optim", "transfer", "evaluate", "store")

# Computed work, labelled as such: counted from layer sizes and batch shapes
# as the kernels in net.py and optim.py are written, ignoring elementwise
# operations and temporaries.


def _layer_sizes(params) -> list[int]:
    return [w.size for w in params.weights]


def loss_and_grad_gflop(params, batch) -> float:
    """Forward (1 matmul per layer) plus reverse (weight gradient per layer,
    delta propagation for every layer but the first), 2 FLOPs per MAC."""
    io = _layer_sizes(params)
    return len(batch) * (4 * sum(io) + 2 * sum(io[1:])) / 1e9


def forward_param_jvp_gflop(params, direction, batch) -> float:
    """Forward with tangents (3 matmuls per layer), reverse with tangents
    (2 per layer for the HVP blocks, 3 more for every layer but the first)."""
    io = _layer_sizes(params)
    return len(batch) * (10 * sum(io) + 6 * sum(io[1:])) / 1e9


def adam_step_mb(state, params, grads, gamma) -> float:
    """Reads parameters, gradient and both moments; writes parameters and
    both moments: 7 float64 arrays of the parameter count."""
    return 7 * 8 * sum(w.size + b.size for w, b in zip(params.weights, params.biases)) / 1e6


def _dataset_file_bytes(path, *args, **kwargs) -> float:
    return float(os.path.getsize(path)) if os.path.exists(path) else 0.0


# (span name, modules whose attribute is patched, attribute, work function).
# The first module is the defining one; the rest are by-name import sites.
PATCHES = (
    ("channel.channel_response", (channel,), "channel_response", None),
    ("channel.add_awgn", (channel,), "add_awgn", None),
    ("channel.lmmse_estimate", (channel,), "lmmse_estimate", None),
    ("channel.make_sample_pair", (channel,), "make_sample_pair", None),
    ("channel.collect", (channel, evaluate), "collect", None),
    ("channel.draw_combos", (channel, evaluate), "draw_combos", None),
    ("channel.generate_task_datasets", (channel, transfer), "generate_task_datasets", None),
    ("channel.sample_environment", (channel, evaluate), "sample_environment", None),
    ("net.loss_and_grad", (net,), "loss_and_grad", loss_and_grad_gflop),
    ("net.forward_param_jvp", (net,), "forward_param_jvp", forward_param_jvp_gflop),
    ("net.forward_batch", (net,), "forward_batch", None),
    ("net.mse_loss", (net,), "mse_loss", None),
    ("net.params_axpy", (net, transfer), "params_axpy", None),
    ("net.init_params", (net,), "init_params", None),
    ("optim.adam_step", (optim, transfer, evaluate), "adam_step", adam_step_mb),
    ("optim.gd_step", (optim, transfer), "gd_step", None),
    ("transfer.meta_train", (transfer,), "meta_train", None),
    ("transfer.meta_step", (transfer,), "_meta_batch_eval", None),
    ("transfer.inner_adapt", (transfer,), "inner_adapt", None),
    ("transfer.support_query", (transfer,), "_support_query", None),
    ("transfer.train_no_transfer", (transfer,), "train_no_transfer", None),
    ("transfer.adapt_snapshots", (transfer,), "adapt_snapshots", None),
    ("transfer.direct_adapt", (transfer,), "direct_adapt", None),
    ("transfer.meta_adapt", (transfer,), "meta_adapt", None),
    ("evaluate.run_three_way", (evaluate,), "run_three_way", None),
    ("evaluate.train_pair", (evaluate,), "train_pair", None),
    ("evaluate.adaption_side_points", (evaluate,), "_adaption_side_points", None),
    ("evaluate.target_data", (evaluate,), "_target_data", None),
    ("evaluate.collect_adaption", (evaluate,), "_collect_adaption", None),
    ("evaluate.test_model", (evaluate,), "test_model", None),
    ("store.write_dataset", (store,), "write_dataset", None),
    ("store.read_dataset", (store,), "read_dataset", _dataset_file_bytes),
)

# Methods are patched on their class.
METHOD_PATCHES = (
    ("channel.cov_at", channel.EnvCovariance, "at"),
    ("channel.cov_init", channel.EnvCovariance, "__init__"),
)


class Tracer:
    """Records nested spans of the patched functions while active."""

    def __init__(self):
        # Each span: [name, parent index or -1, start, end, work].
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, work=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, stack[-1] if stack else -1, 0.0, 0.0,
                          work(*args, **kwargs) if work else 0.0])
            stack.append(idx)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                span = spans[idx]
                span[2], span[3] = t0, t1
        return traced

    def _patch(self, owner, attr, wrapper):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def __enter__(self) -> "Tracer":
        try:
            for name, modules, attr, work in PATCHES:
                original = getattr(modules[0], attr)
                for module in modules:
                    if getattr(module, attr) is not original:
                        raise RuntimeError(f"{module.__name__}.{attr} is not "
                                           f"{modules[0].__name__}.{attr}")
                    self._patch(module, attr, self._wrap(name, original, work))
            for name, cls, attr in METHOD_PATCHES:
                self._patch(cls, attr, self._wrap(name, getattr(cls, attr)))
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False

    def write_jsonl(self, path: str):
        with open(path, "w") as f:
            for name, parent, start, end, work in self.spans:
                f.write(json.dumps({"name": name, "parent": parent, "start": start,
                                    "end": end, "work": work}) + "\n")

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, inclusive durations, self time and work."""
        child_time = [0.0] * len(self.spans)
        for name, parent, start, end, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict] = {}
        for i, (name, _, start, end, work) in enumerate(self.spans):
            s = out.setdefault(name, {"calls": 0, "self_s": 0.0, "work": 0.0,
                                      "durations": []})
            s["calls"] += 1
            s["self_s"] += (end - start) - child_time[i]
            s["work"] += work
            s["durations"].append(end - start)
        return out


# Per-layer metrics read from one span name: (metric, span, field, unit).
# ``self_s`` excludes child spans, ``p50_ms`` is the median inclusive
# duration and ``work`` sums the computed work over calls.
SPAN_METRICS = (
    ("channel.channel_response.calls", "channel.channel_response", "calls", "count"),
    ("channel.channel_response.self_s", "channel.channel_response", "self_s", "s"),
    ("channel.cov_at.calls", "channel.cov_at", "calls", "count"),
    ("channel.cov_at.self_s", "channel.cov_at", "self_s", "s"),
    ("channel.make_sample_pair.calls", "channel.make_sample_pair", "calls", "count"),
    ("channel.make_sample_pair.self_s", "channel.make_sample_pair", "self_s", "s"),
    ("channel.lmmse_estimate.self_s", "channel.lmmse_estimate", "self_s", "s"),
    ("channel.draw_combos.self_s", "channel.draw_combos", "self_s", "s"),
    ("channel.task_ms.p50", "channel.generate_task_datasets", "p50_ms", "ms"),
    ("net.loss_and_grad.calls", "net.loss_and_grad", "calls", "count"),
    ("net.loss_and_grad.self_s", "net.loss_and_grad", "self_s", "s"),
    ("net.loss_and_grad.gflop", "net.loss_and_grad", "work", "GFLOP"),
    ("net.forward_param_jvp.calls", "net.forward_param_jvp", "calls", "count"),
    ("net.forward_param_jvp.self_s", "net.forward_param_jvp", "self_s", "s"),
    ("net.forward_param_jvp.gflop", "net.forward_param_jvp", "work", "GFLOP"),
    ("net.forward_batch.self_s", "net.forward_batch", "self_s", "s"),
    ("evaluate.test_model.self_s", "evaluate.test_model", "self_s", "s"),
    ("optim.adam_step.calls", "optim.adam_step", "calls", "count"),
    ("optim.adam_step.self_s", "optim.adam_step", "self_s", "s"),
    ("optim.adam_step.mb_moved", "optim.adam_step", "work", "MB"),
    ("optim.gd_step.calls", "optim.gd_step", "calls", "count"),
    ("optim.gd_step.self_s", "optim.gd_step", "self_s", "s"),
    ("transfer.meta_step_ms.p50", "transfer.meta_step", "p50_ms", "ms"),
    ("transfer.inner_adapt.self_s", "transfer.inner_adapt", "self_s", "s"),
    ("store.bytes", "store.read_dataset", "work", "B"),
)

STAGES = ("training", "adaption", "testing")

# Metrics derived from several spans, or filled in by run.py from the
# operations' results and timings.
DERIVED_UNITS = {
    "channel.cov_builds_per_pair": "builds/pair",
    "net.loss_and_grad.gflop_per_s": "GFLOP/s",
    "transfer.adapt_ms.p50": "ms",
    "store.write_mb_per_s": "MB/s",
    "store.read_mb_per_s": "MB/s",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    **{f"{layer}.share": "ratio" for layer in LAYERS},
    **{f"evaluate.stage_s.{stage}": "s" for stage in STAGES},
    "trace.overhead_frac": "ratio",
    "trace.ops": "count",
    "trace.wall_s": "s",
}

# Every per-layer metric the traced run reports, with its unit.
PER_LAYER_UNITS = {metric: unit for metric, _, _, unit in SPAN_METRICS} | DERIVED_UNITS


def _median_ms(durations: list[float]) -> float:
    return 1e3 * statistics.median(durations) if durations else 0.0


def layer_metrics(summary: dict[str, dict], traced_wall_s: float) -> dict[str, float]:
    """The per-layer metrics that follow from a trace summary.

    A span the workload never reaches reports zero.
    """
    empty = {"calls": 0, "self_s": 0.0, "work": 0.0, "durations": []}
    m: dict[str, float] = {}
    for metric, span, field, _ in SPAN_METRICS:
        s = summary.get(span, empty)
        m[metric] = _median_ms(s["durations"]) if field == "p50_ms" else s[field]

    pairs = m["channel.make_sample_pair.calls"]
    m["channel.cov_builds_per_pair"] = m["channel.cov_at.calls"] / pairs if pairs else 0.0
    lg_s = m["net.loss_and_grad.self_s"]
    m["net.loss_and_grad.gflop_per_s"] = m["net.loss_and_grad.gflop"] / lg_s if lg_s else 0.0
    m["transfer.adapt_ms.p50"] = _median_ms(
        summary.get("transfer.direct_adapt", empty)["durations"]
        + summary.get("transfer.meta_adapt", empty)["durations"])
    for direction in ("write", "read"):
        busy_s = sum(summary.get(f"store.{direction}_dataset", empty)["durations"])
        m[f"store.{direction}_mb_per_s"] = m["store.bytes"] / 1e6 / busy_s if busy_s else 0.0
    for layer in LAYERS:
        self_s = sum(s["self_s"] for name, s in summary.items()
                     if name.split(".", 1)[0] == layer)
        m[f"{layer}.self_s"] = self_s
        m[f"{layer}.share"] = self_s / traced_wall_s if traced_wall_s > 0 else 0.0
    return m
