"""NMSE metric, per-algorithm testing, and the comparative sweep harness.

``run_three_way`` reproduces the comparison experiments at desk scale: it
trains the classical and the meta-learned networks on the same source
environments, then adapts and tests both (plus the never-adapted baseline)
on held-out target environments, optionally sweeping one variable:

* adaption-side variables (``g_ad``, ``n_ad``, ``snr_db``) reuse the
  trained networks across the grid;
* training-side variables (``delta_f``, ``m``) retrain per grid point.

Prediction error is always measured against the clean downlink channel,
never against a noisy estimate of it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from . import net, transfer
# bench/spans.py wraps adam_step where this module looks it up and refuses to
# start if it is missing, so it stays imported by name although the width
# probe steps in place with adam_update.
from .optim import AdamState, adam_step, adam_update  # noqa: F401
from .channel import (
    NOISE_LMMSE,
    ROLE_ADAPTION,
    ROLE_TEST,
    ROLE_TRAIN_SUPPORT,
    EnvCovariance,
    Environment,
    NoiseSpec,
    TaskDataset,
    collect,
    draw_combos,
    generate_task_dataset,
    real_to_complex,
    sample_environment,
    with_array,
)
from .seeding import STREAM_BATCH, STREAM_PROBE, STREAM_TARGET_DATA, stream
from .transfer import TrainConfig, TrainedModel

ALGO_NO_TRANSFER = "no-transfer"
ALGO_DIRECT = "direct-transfer"
ALGO_META = "meta-learning"
ALGORITHMS = (ALGO_NO_TRANSFER, ALGO_DIRECT, ALGO_META)

SWEEP_VARIABLES = ("g_ad", "n_ad", "delta_f", "m", "snr_db", "none")
_ADAPTION_SIDE = ("g_ad", "n_ad", "snr_db", "none")

PROBE_PAIRS = 200


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


def test_model(model: TrainedModel, d_te: TaskDataset,
               clean_labels: Sequence[np.ndarray]) -> float:
    """Mean NMSE of the model's downlink predictions on one test set."""
    if len(d_te) == 0:
        raise ValueError("test set is empty")
    if len(clean_labels) != len(d_te):
        raise ValueError(f"{len(clean_labels)} labels for {len(d_te)} test pairs")
    preds = net.forward_batch(model.params, d_te.xs())
    h_hat = real_to_complex(preds)
    return float(np.mean([nmse(clean_labels[i], h_hat[i]) for i in range(len(d_te))]))


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
    variable: str
    grid: list
    points: list[SweepPoint]
    config: dict
    wall_clock: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        if len(self.points) != len(self.grid):
            raise ValueError("one result point per grid value required")


def _apply_variable(cfg: TrainConfig, variable: str, value) -> TrainConfig:
    if variable in ("none", "g_ad", "n_ad", "snr_db") or value is None:
        return cfg
    if variable == "delta_f":
        return replace(cfg, gen=replace(cfg.gen, delta_f=float(value)))
    if variable == "m":
        return replace(cfg, gen=with_array(cfg.gen, int(value)))
    raise ValueError(f"unknown sweep variable {variable!r}")


def source_environments(cfg: TrainConfig) -> list[Environment]:
    return [sample_environment(i, cfg.gen, cfg.seed) for i in range(cfg.k_s)]


def target_environments(cfg: TrainConfig) -> list[Environment]:
    return [sample_environment(cfg.k_s + k, cfg.gen, cfg.seed) for k in range(cfg.k_t)]


def train_pair(cfg: TrainConfig) -> tuple[TrainedModel, TrainedModel]:
    """Train the classical and the meta networks on the same sources.

    The pooled training data is each source task's support and query pairs
    (first visit), so both algorithms see the same sample budget; the
    meta-learner takes those first-visit sets as they are instead of
    generating them again.
    """
    envs = source_environments(cfg)
    first_visit = [transfer._support_query(env, cfg, 0) for env in envs]
    sources = [d for pair in first_visit for d in pair]
    nt = transfer.train_no_transfer(sources, cfg, stream(cfg.seed, STREAM_BATCH, 0))
    mt = transfer.meta_train(envs, cfg, stream(cfg.seed, STREAM_BATCH, 1), first_visit)
    return nt, mt


@dataclass
class _TargetData:
    """One target's draws; ``cov`` is its LMMSE covariance, built on the
    first LMMSE collection and shared by every later one."""

    env: Environment
    combos: object
    test_set: TaskDataset
    clean: np.ndarray
    cov: EnvCovariance | None = None


def _covariance(env: Environment, cfg: TrainConfig, noise: NoiseSpec,
                cov: EnvCovariance | None) -> EnvCovariance | None:
    """``cov``, or the environment's covariance if it is needed and missing."""
    if noise.mode != NOISE_LMMSE or cov is not None:
        return cov
    return EnvCovariance(env, cfg.gen.array, delay_max=cfg.gen.delay_max)


def _target_data(env: Environment, cfg: TrainConfig, n_ad_max: int) -> _TargetData:
    """Draw one target's users and disjoint adaption/test combinations, and
    collect the test set under the run's collection noise."""
    gen = cfg.gen
    combos = draw_combos(env, [(ROLE_ADAPTION, n_ad_max), (ROLE_TEST, cfg.n_te)],
                         cfg.u, (gen.f_min, gen.f_max),
                         stream(env.seed, STREAM_TARGET_DATA, 0), gen.delay_max)
    cov = _covariance(env, cfg, gen.noise, None)
    test_set = collect(combos, ROLE_TEST, gen.delta_f, gen.array, gen.noise,
                       stream(env.seed, STREAM_TARGET_DATA, 1), cov=cov,
                       delay_max=gen.delay_max)
    return _TargetData(env=env, combos=combos, test_set=test_set,
                       clean=test_set.clean_downlinks(), cov=cov)


def _collect_adaption(data: _TargetData, cfg: TrainConfig, noise: NoiseSpec,
                      stream_tag: int, limit: int | None = None) -> TaskDataset:
    data.cov = _covariance(data.env, cfg, noise, data.cov)
    return collect(data.combos, ROLE_ADAPTION, cfg.gen.delta_f, cfg.gen.array, noise,
                   stream(data.env.seed, STREAM_TARGET_DATA, 2 + stream_tag),
                   cov=data.cov, limit=limit, delay_max=cfg.gen.delay_max)


def run_three_way(cfg: TrainConfig, sweep: tuple[str, Sequence] | None = None) -> SweepReport:
    """Train, adapt, and test all three algorithms, optionally over a sweep."""
    variable, grid = ("none", [None]) if sweep is None else (sweep[0], list(sweep[1]))
    if variable not in SWEEP_VARIABLES:
        raise ValueError(f"unknown sweep variable {variable!r}, "
                         f"expected one of {SWEEP_VARIABLES}")
    if not grid:
        raise ValueError("sweep grid is empty")
    clock = {"training": 0.0, "adaption": 0.0, "testing": 0.0}

    if variable in _ADAPTION_SIDE:
        t0 = time.perf_counter()
        nt, mt = train_pair(cfg)
        clock["training"] += time.perf_counter() - t0
        points = _adaption_side_points(cfg, nt, mt, variable, grid, clock)
    else:
        points = []
        for value in grid:
            cfgp = _apply_variable(cfg, variable, value)
            t0 = time.perf_counter()
            nt, mt = train_pair(cfgp)
            clock["training"] += time.perf_counter() - t0
            point = _adaption_side_points(cfgp, nt, mt, "none", [None], clock)[0]
            points.append(SweepPoint(value=value, results=point.results,
                                     baselines=point.baselines))

    return SweepReport(variable=variable, grid=grid, points=points,
                       config=cfg.snapshot(), wall_clock=clock)


def _adaption_side_points(cfg: TrainConfig, nt: TrainedModel, mt: TrainedModel,
                          variable: str, grid: list, clock: dict) -> list[SweepPoint]:
    n_ad_max = max(int(v) for v in grid) if variable == "n_ad" else cfg.n_ad
    if variable == "n_ad" and min(int(v) for v in grid) < 1:
        raise ValueError("adaption sample counts must be positive")

    per_value_nt = {v: [] for v in grid}
    per_value_dt = {v: [] for v in grid}
    per_value_mt = {v: [] for v in grid}
    base_dt, base_mt = [], []

    for env in target_environments(cfg):
        data = _target_data(env, cfg, max(n_ad_max, 1))

        t0 = time.perf_counter()
        nmse_nt = test_model(nt, data.test_set, data.clean)
        base_dt.append(nmse_nt)  # direct transfer starts from the trained network
        base_mt.append(test_model(mt, data.test_set, data.clean))
        clock["testing"] += time.perf_counter() - t0

        if variable == "g_ad":
            d_ad = _collect_adaption(data, cfg, cfg.gen.noise, 0)
            marks = [int(v) for v in grid]
            t0 = time.perf_counter()
            snaps_dt = transfer.adapt_snapshots(nt, d_ad, cfg, cfg.direct_adapt_rule, marks)
            snaps_mt = transfer.adapt_snapshots(mt, d_ad, cfg, cfg.meta_adapt_rule, marks)
            clock["adaption"] += time.perf_counter() - t0
            for v in grid:
                per_value_nt[v].append(nmse_nt)
                t0 = time.perf_counter()
                per_value_dt[v].append(test_model(snaps_dt[int(v)], data.test_set, data.clean))
                per_value_mt[v].append(test_model(snaps_mt[int(v)], data.test_set, data.clean))
                clock["testing"] += time.perf_counter() - t0
        else:
            for i, v in enumerate(grid):
                if variable == "snr_db":
                    noise = replace(cfg.gen.noise, snr_db=float(v), mode=NOISE_LMMSE)
                    d_ad = _collect_adaption(data, cfg, noise, i)
                elif variable == "n_ad":
                    d_ad = _collect_adaption(data, cfg, cfg.gen.noise, 0, limit=int(v))
                else:
                    d_ad = _collect_adaption(data, cfg, cfg.gen.noise, 0)
                t0 = time.perf_counter()
                adapted_dt = transfer.direct_adapt(nt, d_ad, cfg)
                adapted_mt = transfer.meta_adapt(mt, d_ad, cfg)
                clock["adaption"] += time.perf_counter() - t0
                per_value_nt[v].append(nmse_nt)
                t0 = time.perf_counter()
                per_value_dt[v].append(test_model(adapted_dt, data.test_set, data.clean))
                per_value_mt[v].append(test_model(adapted_mt, data.test_set, data.clean))
                clock["testing"] += time.perf_counter() - t0

    baselines = {ALGO_DIRECT: NmseResult(ALGO_DIRECT, base_dt),
                 ALGO_META: NmseResult(ALGO_META, base_mt)}
    return [SweepPoint(
        value=v,
        results={ALGO_NO_TRANSFER: NmseResult(ALGO_NO_TRANSFER, per_value_nt[v]),
                 ALGO_DIRECT: NmseResult(ALGO_DIRECT, per_value_dt[v]),
                 ALGO_META: NmseResult(ALGO_META, per_value_mt[v])},
        baselines=baselines) for v in grid]


def proposition_probe(widths: Sequence[int], cfg: TrainConfig) -> dict[int, float]:
    """Converged training loss of single-hidden-layer networks versus width.

    Empirical echo of the approximation guarantee: on one clean
    environment's mapping task, wider networks should fit at least as well.
    """
    widths = list(widths)
    if any(b <= a for a, b in zip(widths, widths[1:])) or not widths:
        raise ValueError(f"widths must be strictly increasing, got {widths}")
    gen = cfg.gen
    env = sample_environment(0, gen, cfg.seed)
    data = generate_task_dataset(env, ROLE_TRAIN_SUPPORT, PROBE_PAIRS, cfg.u,
                                 (gen.f_min, gen.f_max), gen.delta_f, gen.array,
                                 NoiseSpec(mode="clean"),
                                 stream(cfg.seed, STREAM_PROBE), gen.delay_max)
    batch = net.Batch(data.xs(), data.ys())

    out: dict[int, float] = {}
    for width in widths:
        spec = net.LayerSpec.fnn(gen.array.m, (width,))
        params = net.init_params(spec, stream(cfg.seed, STREAM_PROBE, width),
                                 fan=cfg.init_fan)
        state = AdamState.init(params)
        run = net.Workspace(params, batch.xs, batch.ys)
        history = []
        for _ in range(cfg.max_steps):
            history.append(run.loss_and_grad())
            adam_update(state, params, run.grads, cfg.gamma, run.work)
            if transfer._converged(history, cfg.convergence_window, cfg.convergence_tol):
                break
        window = min(len(history), cfg.convergence_window)
        out[width] = float(np.mean(history[-window:]))
    return out
