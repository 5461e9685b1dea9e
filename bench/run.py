"""Benchmark harness for csitransfer.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--quick]

Run from a checkout of the repository; the program is imported from its
``src/`` directory. Workloads are ``meta_m64``, ``three_way_m16`` and
``collect_lmmse_m64`` (see README.md for why each exists).

A run times operations for ``--seconds`` with tracing off, setting the
workload up again before each one, and reports the end-to-end metrics
from the fast end of the samples (see ``fast_end``): ``setup_s`` is the
10th percentile of the set-up times and ``ops_per_s`` the 90th percentile
of the per-operation rates. With ``--trace 1`` it then runs the first few
operations again with every layer wrapped in spans and reports the
per-layer metrics instead (see spans.py); the spans are written to
``.bench_out/trace-<workload>-seed<N>.jsonl``.

Standard output ends with two JSON lines: a report (host record, the
workload's own named results, gate failures) and the result object
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# Set-up is repeated before every timed operation, until this much set-up
# time has accumulated, so that its samples spread over the whole run: on a
# shared host, millisecond-scale timings drift in phases lasting longer
# than a burst of back-to-back repeats.
SETUP_SLICE_S = 0.03
MIN_OPS = 3
# Operations rerun under tracing: enough for a median of the traced time
# and few enough that the traced pass stays short.
TRACE_OPS = {"meta_m64": 2, "three_way_m16": 2, "collect_lmmse_m64": 4}

E2E_UNITS = {"setup_s": "s", "ops_per_s": "op/s", "peak_rss_mb": "MB"}

# Host probe, a diagnostic only: a fixed ray-sum loop of small numpy calls,
# the benchmark's own code, so no change to the program can move it. It runs
# before every operation and once after the last; its samples go on the
# report line, and a run whose median probe exceeds SLOW_PROBE_S is flagged
# as falling in one of the host's slow periods. No metric is scaled by it.
SLOW_PROBE_S = 0.0125  # 1.25x its 10 ms on a quiet 2-vCPU Xeon at 2.0 GHz

# Results of operation 0 per workload and seed, recorded by
# record_reference.py. A change may move them only at rounding level: the
# vectorised and batched kernels planned for the program agree with the
# current ones to about 1e-10.
REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")
REFERENCE_RTOL = 1e-6


def _import_program():
    """Import csitransfer from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "csitransfer", "__init__.py")):
        raise SystemExit(f"error: no csitransfer package under {SRC}; "
                         f"run the benchmark from a checkout of the repository")
    sys.path.insert(0, SRC)
    import csitransfer
    if not os.path.abspath(csitransfer.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: csitransfer was imported from {csitransfer.__file__}, "
                         f"not from {SRC}")


def _git_commit() -> str | None:
    import subprocess

    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return None
    return lines[1]


def _source_digest() -> str:
    import hashlib

    h = hashlib.sha256()
    pkg = os.path.join(SRC, "csitransfer")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as f:
                h.update(name.encode() + b"\0" + f.read())
    return h.hexdigest()


def host_record(seed: int) -> dict:
    import platform

    import numpy as np

    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: deps.get("blas", {}).get(k) for k in ("name", "version", "openblas configuration")},
        "lapack": {k: deps.get("lapack", {}).get(k) for k in ("name", "version")},
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "seed": seed,
    }


def host_probe_s() -> float:
    """Wall time of the host probe (see SLOW_PROBE_S)."""
    import math
    from time import perf_counter

    import numpy as np

    rng = np.random.default_rng(2024)
    doas, phases = rng.uniform(-0.5, 0.5, 25), rng.uniform(0.0, 2 * math.pi, 25)
    amplitudes, delays = rng.rayleigh(1.0, 25), rng.uniform(0.0, 2e-9, 25)
    antennas = np.arange(64)
    t0 = perf_counter()
    for k in range(200):
        f = 1e9 + k * 5e6
        gains = amplitudes * np.exp(1j * (phases - 2.0 * math.pi * f * delays))
        varpi = 2.0 * math.pi * 0.075 * f / 299_792_458.0
        gains @ np.exp(-1j * varpi * np.outer(np.sin(doas), antennas))
    return perf_counter() - t0


def fast_end(values: list[float], better: str) -> float:
    """The decile at the better end of ``values`` (the 10th percentile of
    times, the 90th of rates), interpolated between samples.

    A shared host switches between a fast and a slow state, at times every
    few seconds and at others for minutes, and every layer of the program
    runs up to about 1.8x slower in the slow state. How much of a run falls
    in it varies from run to run, so a run's median jumps between the two
    speeds. Host load only ever slows an operation, so the fast end of a
    run's own samples is the program's time on the quiet host, for a parent
    and a change alike; nothing is scaled.
    """
    import statistics

    if len(values) < 2:
        return values[0]
    cuts = statistics.quantiles(values, n=10, method="inclusive")
    return cuts[0] if better == "lower" else cuts[-1]


def _setup_slice(wl, samples: list[float]):
    """Set the workload up until SETUP_SLICE_S has accumulated (at least once)."""
    from time import perf_counter

    spent = 0.0
    while spent < SETUP_SLICE_S:
        t0 = perf_counter()
        wl.setup()
        samples.append(perf_counter() - t0)
        spent += samples[-1]


def _run_ops(wl, indices, deadline=None, before=None):
    """Run and time operations in order; with a deadline, stop once it has
    passed and at least MIN_OPS have run. ``before`` runs, untimed, ahead
    of each operation. An operation that raises counts all its gated work
    as failed."""
    import traceback
    from time import perf_counter

    from workloads import OpResult

    out = []
    for i in indices:
        if deadline is not None and len(out) >= MIN_OPS and perf_counter() >= deadline:
            break
        if before is not None:
            before()
        t0 = perf_counter()
        try:
            res = wl.op(i)
        except Exception as exc:  # a failing operation is reported, not fatal
            traceback.print_exc(file=sys.stderr)
            res = OpResult(units=0, attempted=wl.attempted_per_op)
            res.fail(f"operation raised {type(exc).__name__}: {exc}", wl.attempted_per_op)
        out.append((i, perf_counter() - t0, res))
    return out


def reference_mismatch(quality: dict, expected: dict) -> bool:
    """Whether recorded results differ beyond rounding (or are missing)."""
    return set(quality) != set(expected) or any(
        not abs(quality[k] - v) <= REFERENCE_RTOL * max(1.0, abs(v))
        for k, v in expected.items())


def main(argv=None) -> int:
    import statistics

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(TRACE_OPS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="tiny problem sizes, for the harness self-test")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    _import_program()
    import gc
    import json
    import resource
    import tempfile
    from time import perf_counter

    import spans
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.seed, quick=args.quick)
    setup_times: list[float] = []
    probes: list[float] = []  # one before each operation, one after the last

    def before_op():
        _setup_slice(wl, setup_times)
        probes.append(host_probe_s())

    with tempfile.TemporaryDirectory(prefix=".bench_tmp-", dir=ROOT) as workdir:
        wl.workdir = workdir
        gc.collect()
        ops = _run_ops(wl, range(wl.max_ops), perf_counter() + args.seconds, before_op)
        probes.append(host_probe_s())
        traced_ops, tracer = [], None
        if args.trace:
            tracer = spans.Tracer()
            with tracer:
                traced_ops = _run_ops(wl, range(min(TRACE_OPS[wl.name], wl.max_ops)))

    if not args.quick:
        with open(REFERENCE_PATH) as f:
            expected = json.load(f).get(wl.name, {}).get(str(args.seed))
        first = ops[0][2]
        if expected is not None and not first.failed and reference_mismatch(first.quality, expected):
            first.fail(f"results {first.quality} differ from the recorded {expected} "
                       f"for seed {args.seed}", first.attempted)
    for i, _, res in traced_ops:
        if i < len(ops) and not res.failed and res.quality != ops[i][2].quality:
            res.fail(f"traced results {res.quality} differ from untraced "
                     f"{ops[i][2].quality}", res.attempted)

    all_ops = ops + traced_ops
    attempted = sum(res.attempted for _, _, res in all_ops)
    failed = sum(res.failed for _, _, res in all_ops)
    gate_failures = [f"op {i}: {g}" for i, _, res in all_ops for g in res.gate_failures]
    # Wrong output never reports a speed: rates use passing operations only.
    passing = [(dt, res) for _, dt, res in ops if not res.failed]
    rate = fast_end([res.units / dt for dt, res in passing], "higher") if passing else 0.0
    op_s = [dt for dt, _ in passing]
    report = {
        "workload": wl.name,
        "seconds": args.seconds,
        "quick": args.quick,
        "host": host_record(args.seed),
        "ops": len(ops),
        "op_s": {"p50": statistics.median(op_s) if op_s else None,
                 "all": [dt for _, dt, _ in ops]},
        wl.headline: rate if wl.headline.endswith("_per_s") else (1.0 / rate if rate else None),
        "setup_s_samples": setup_times,
        "probe_s_samples": probes,
        "slow_period": statistics.median(probes) > SLOW_PROBE_S,
        "failed_frac": failed / attempted if attempted else None,
        "quality": ops[0][2].quality,
        "gate_failures": gate_failures,
    }

    if args.trace:
        traced_wall = sum(dt for _, dt, _ in traced_ops)
        metrics = spans.layer_metrics(tracer.summary(), traced_wall)
        for stage in spans.STAGES:
            metrics[f"evaluate.stage_s.{stage}"] = sum(
                res.stage_s.get(stage, 0.0) for _, _, res in traced_ops)
        # Against every untraced operation: they do the same work, and the
        # first few also carry the warm-up.
        metrics["trace.overhead_frac"] = (
            statistics.median([dt for _, dt, _ in traced_ops])
            / statistics.median([dt for _, dt, _ in ops]) - 1.0)
        metrics["trace.ops"] = len(traced_ops)
        metrics["trace.wall_s"] = traced_wall
        units = spans.PER_LAYER_UNITS
        out_dir = os.path.join(ROOT, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        spans_path = os.path.join(out_dir, f"trace-{wl.name}-seed{args.seed}.jsonl")
        tracer.write_jsonl(spans_path)
        report["spans"] = os.path.relpath(spans_path, ROOT)
    else:
        metrics = {
            "setup_s": fast_end(setup_times, "lower"),
            "ops_per_s": rate,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = E2E_UNITS

    for g in gate_failures:
        print(f"gate failed: {g}", file=sys.stderr)
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": not gate_failures and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    # Pin BLAS and OpenMP pools to one thread before numpy is first imported.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.exit(main())
