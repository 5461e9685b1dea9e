"""NMSE metric, per-algorithm testing, and the comparative sweep harness.

``run_three_way`` reproduces the comparison experiments at desk scale: it
trains the classical and the meta-learned networks on the same source
environments, then adapts and tests both (plus the never-adapted baseline)
on held-out target environments, optionally sweeping one variable:

* adaption-side variables (``g_ad``, ``n_ad``, ``snr_db``) reuse the
  trained networks across the grid;
* training-side variables (``delta_f``, ``m``) retrain per grid point.

Prediction error is always measured against the clean downlink channel,
never against a noisy estimate of it: a test set carries its own clean
labels. A target's draws are one :class:`channel.ComboSet`, which also
owns the target's LMMSE covariance, so every collection for the target
shares one.

Training forks and joins its own lanes (:func:`transfer.first_visits`,
:func:`transfer.meta_train`) before any target starts. Targets draw only
from their own streams, so they then run one per item on the lanes of
:func:`lanes.fork_map`, bit-identically to a serial run; the ``adaption``
and ``testing`` stage times are still per-target times, summed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from . import lanes, net, transfer
# bench/spans.py wraps adam_step where this module looks it up and refuses to
# start if it is missing, so it stays imported by name although nothing here
# calls it.
from .optim import adam_step  # noqa: F401
from .channel import (
    NOISE_LMMSE,
    ROLE_ADAPTION,
    ROLE_TEST,
    ComboSet,
    Environment,
    NoiseSpec,
    TaskDataset,
    collect,
    draw_combos,
    real_to_complex,
    sample_environment,
)
from .seeding import STREAM_BATCH, STREAM_TARGET_DATA, stream
from .transfer import TrainConfig, TrainedModel

ALGO_NO_TRANSFER = "no-transfer"
ALGO_DIRECT = "direct-transfer"
ALGO_META = "meta-learning"
ALGORITHMS = (ALGO_NO_TRANSFER, ALGO_DIRECT, ALGO_META)

SWEEP_VARIABLES = ("g_ad", "n_ad", "delta_f", "m", "snr_db", "none")
_ADAPTION_SIDE = ("g_ad", "n_ad", "snr_db", "none")


def nmse(h_true: np.ndarray, h_hat: np.ndarray) -> float:
    """Normalised squared error of one channel estimate."""
    h_true = np.asarray(h_true)
    h_hat = np.asarray(h_hat)
    if h_true.shape != h_hat.shape:
        raise ValueError(f"shape mismatch: {h_true.shape} vs {h_hat.shape}")
    denom = float(np.vdot(h_true, h_true).real)
    if denom == 0.0:
        raise ValueError("true channel is zero; NMSE is undefined")
    diff = h_true - h_hat
    return float(np.vdot(diff, diff).real) / denom


def test_model(model: TrainedModel, d_te: TaskDataset) -> float:
    """Mean NMSE of the model's downlink predictions on one test set,
    against its clean downlinks."""
    if len(d_te) == 0:
        raise ValueError("test set is empty")
    clean = d_te.clean_downlinks()
    h_hat = real_to_complex(net.forward_batch(model.params, d_te.xs))
    return float(np.mean([nmse(clean[i], h_hat[i]) for i in range(len(d_te))]))


@dataclass
class NmseResult:
    """Per-target NMSEs of one algorithm, with linear and dB means."""

    algorithm: str
    per_target: list[float]

    def __post_init__(self):
        if not self.per_target:
            raise ValueError("result needs at least one target NMSE")
        if any(x < 0 for x in self.per_target):
            raise ValueError("NMSE values must be nonnegative")

    @property
    def mean_linear(self) -> float:
        return float(np.mean(self.per_target))

    @property
    def mean_db(self) -> float:
        return float(10.0 * np.log10(self.mean_linear))


@dataclass
class SweepPoint:
    """Results of the three algorithms at one grid value.

    ``baselines`` holds the pre-adaption (zero gradsteps) NMSE of the two
    transfer algorithms' starting parameters on the same test sets.
    """

    value: object
    results: dict[str, NmseResult]
    baselines: dict[str, NmseResult]


@dataclass
class SweepReport:
    """A sweep's points and stage times in seconds: ``training`` in the
    caller, on ``meta_lanes`` lanes for the meta step
    (:func:`transfer.meta_lanes`), and ``adaption`` and ``testing`` per
    target, summed across the ``workers`` lanes that ran the targets."""

    variable: str
    grid: list
    points: list[SweepPoint]
    config: dict
    wall_clock: dict[str, float] = field(default_factory=dict)
    workers: int = 1
    meta_lanes: int = 1

    def __post_init__(self):
        if len(self.points) != len(self.grid):
            raise ValueError("one result point per grid value required")


def _apply_variable(cfg: TrainConfig, variable: str, value) -> TrainConfig:
    """``cfg`` with the training-side variable (``delta_f`` or ``m``) at ``value``."""
    gen = cfg.gen
    if variable == "delta_f":
        return replace(cfg, gen=replace(gen, delta_f=float(value)))
    return replace(cfg, gen=replace(gen, array=replace(gen.array, m=int(value))))


def source_environments(cfg: TrainConfig) -> list[Environment]:
    return [sample_environment(i, cfg.gen, cfg.seed) for i in range(cfg.k_s)]


def target_environments(cfg: TrainConfig) -> list[Environment]:
    return [sample_environment(cfg.k_s + k, cfg.gen, cfg.seed) for k in range(cfg.k_t)]


def train_pair(cfg: TrainConfig) -> tuple[TrainedModel, TrainedModel]:
    """Train the classical and the meta networks on the same sources.

    The pooled training data is each source task's support and query pairs
    (first visit), so both algorithms see the same sample budget: pooled
    training reads :func:`transfer.first_visits` as rows, and the
    meta-learner reads its tasks there instead of generating them again.
    """
    envs = source_environments(cfg)
    xs, ys, _ = transfer.first_visits(envs, cfg)
    nt = transfer.train_no_transfer(xs.reshape(-1, xs.shape[2]), ys.reshape(-1, ys.shape[2]),
                                    cfg, stream(cfg.seed, STREAM_BATCH, 0))
    mt = transfer.meta_train(envs, cfg, stream(cfg.seed, STREAM_BATCH, 1), (xs, ys))
    return nt, mt


def _target_data(env: Environment, cfg: TrainConfig,
                 n_ad_max: int) -> tuple[ComboSet, TaskDataset]:
    """Draw one target's users and disjoint adaption/test combinations, and
    collect the test set under the run's collection noise."""
    gen = cfg.gen
    combos = draw_combos(env, [(ROLE_ADAPTION, n_ad_max), (ROLE_TEST, cfg.n_te)],
                         cfg.u, (gen.f_min, gen.f_max),
                         stream(env.seed, STREAM_TARGET_DATA, 0), gen.delay_max)
    test_set = collect(combos, ROLE_TEST, gen.delta_f, gen.array, gen.noise,
                       stream(env.seed, STREAM_TARGET_DATA, 1))
    return combos, test_set


def _collect_adaption(combos: ComboSet, cfg: TrainConfig, noise: NoiseSpec,
                      stream_tag: int, limit: int | None = None) -> TaskDataset:
    return collect(combos, ROLE_ADAPTION, cfg.gen.delta_f, cfg.gen.array, noise,
                   stream(combos.env.seed, STREAM_TARGET_DATA, 2 + stream_tag), limit=limit)


def run_three_way(cfg: TrainConfig, sweep: tuple[str, Sequence] | None = None) -> SweepReport:
    """Train, adapt, and test all three algorithms, optionally over a sweep."""
    variable, grid = ("none", [None]) if sweep is None else (sweep[0], list(sweep[1]))
    if variable not in SWEEP_VARIABLES:
        raise ValueError(f"unknown sweep variable {variable!r}, "
                         f"expected one of {SWEEP_VARIABLES}")
    if not grid:
        raise ValueError("sweep grid is empty")
    if len(set(grid)) != len(grid):
        raise ValueError(f"sweep grid {grid} repeats a value")
    if variable == "n_ad" and min(grid) < 1:
        raise ValueError("adaption sample counts must be positive")
    if variable == "g_ad" and min(grid) < 0:
        raise ValueError("adaption step counts must be nonnegative")
    clock = {"training": 0.0, "adaption": 0.0, "testing": 0.0}
    meta_lanes = transfer.meta_lanes(cfg)

    # One trained pair serves an adaption-side grid; a training-side value retrains.
    runs = ([(cfg, variable, grid)] if variable in _ADAPTION_SIDE
            else [(_apply_variable(cfg, variable, v), "none", [None]) for v in grid])
    points = []
    for cfg_run, variable_run, grid_run in runs:
        t0 = time.perf_counter()
        nt, mt = train_pair(cfg_run)
        clock["training"] += time.perf_counter() - t0
        run_points, workers = _adaption_side_points(cfg_run, nt, mt, variable_run, grid_run,
                                                    clock)
        points += run_points
    points = [replace(point, value=value) for point, value in zip(points, grid)]

    return SweepReport(variable=variable, grid=grid, points=points,
                       config=cfg.snapshot(), wall_clock=clock, workers=workers,
                       meta_lanes=meta_lanes)


def _adaption_side_points(cfg: TrainConfig, nt: TrainedModel, mt: TrainedModel, variable: str,
                          grid: list, clock: dict) -> tuple[list[SweepPoint], int]:
    """The grid's points over every target, and the lanes the targets ran on."""
    envs = target_environments(cfg)
    targets, ran = lanes.fork_map(lambda k: _run_target(envs[k], cfg, nt, mt, variable, grid),
                                  len(envs), lanes.lane_count(len(envs)))

    per_point = [{algo: [] for algo in ALGORITHMS} for _ in grid]
    base_dt, base_mt = [], []
    for nmse_nt, nmse_mt, scores, times in targets:
        base_dt.append(nmse_nt)  # direct transfer starts from the trained network
        base_mt.append(nmse_mt)
        for results, (nmse_dt, nmse_ma) in zip(per_point, scores):
            results[ALGO_NO_TRANSFER].append(nmse_nt)
            results[ALGO_DIRECT].append(nmse_dt)
            results[ALGO_META].append(nmse_ma)
        for stage, seconds in times.items():
            clock[stage] += seconds

    baselines = {ALGO_DIRECT: NmseResult(ALGO_DIRECT, base_dt),
                 ALGO_META: NmseResult(ALGO_META, base_mt)}
    return [SweepPoint(value=v, results={a: NmseResult(a, r) for a, r in results.items()},
                       baselines=baselines) for v, results in zip(grid, per_point)], ran


def _run_target(env: Environment, cfg: TrainConfig, nt: TrainedModel, mt: TrainedModel,
                variable: str, grid: list) -> tuple:
    """Adapt both networks to one target at every grid value and test them.
    Returns floats only: the NMSEs of ``nt`` and ``mt`` as trained, one
    (direct, meta) NMSE pair per grid value, and this target's stage times."""
    n_ad_max = max(int(v) for v in grid) if variable == "n_ad" else cfg.n_ad
    combos, d_te = _target_data(env, cfg, n_ad_max)

    adaption_s = 0.0
    # (direct, meta) adapted networks, one pair per grid value.
    if variable == "g_ad":
        d_ad = _collect_adaption(combos, cfg, cfg.gen.noise, 0)
        marks = [int(v) for v in grid]
        t0 = time.perf_counter()
        snaps_dt = transfer.adapt_snapshots(nt, d_ad, cfg, transfer.RULE_ADAM, marks)
        snaps_mt = transfer.adapt_snapshots(mt, d_ad, cfg, transfer.RULE_GD, marks)
        adaption_s += time.perf_counter() - t0
        adapted = [(snaps_dt[g], snaps_mt[g]) for g in marks]
    else:
        adapted = []
        for i, v in enumerate(grid):
            if variable == "snr_db":
                noise = replace(cfg.gen.noise, snr_db=float(v), mode=NOISE_LMMSE)
                d_ad = _collect_adaption(combos, cfg, noise, i)
            else:
                limit = int(v) if variable == "n_ad" else None
                d_ad = _collect_adaption(combos, cfg, cfg.gen.noise, 0, limit=limit)
            t0 = time.perf_counter()
            adapted.append((transfer.direct_adapt(nt, d_ad, cfg),
                            transfer.meta_adapt(mt, d_ad, cfg)))
            adaption_s += time.perf_counter() - t0

    t0 = time.perf_counter()
    nmse_nt, nmse_mt = test_model(nt, d_te), test_model(mt, d_te)
    scores = [(test_model(a_dt, d_te), test_model(a_mt, d_te)) for a_dt, a_mt in adapted]
    return nmse_nt, nmse_mt, scores, {"adaption": adaption_s,
                                      "testing": time.perf_counter() - t0}
