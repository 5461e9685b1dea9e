"""The benchmark's workloads: inputs made from a seed, one timed operation,
and the correctness gates each operation must pass.

Every workload calls the public API through module attributes
(``transfer.meta_train``, ``evaluate.run_three_way``,
``channel.generate_task_datasets``, ``store.write_dataset``) so that the
traced run sees the calls. An operation returns an :class:`OpResult`; a gate
that fails marks the operation's units of work failed and names itself, and
a failed operation's time is left out of every rate.

Why each workload exists, and which layers it stresses, is in README.md.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, replace

import numpy as np

from csitransfer import channel, evaluate, store, transfer
from csitransfer.channel import (
    CLEAN_SPEC,
    NOISE_LMMSE,
    ROLE_ADAPTION,
    ROLE_TEST,
    ArrayConfig,
    GeneratorConfig,
    NoiseSpec,
)
from csitransfer.transfer import TrainConfig


def op_seed(seed: int, i: int) -> int:
    """Seed of the i-th operation of a run, derived from the run's seed."""
    return int(np.random.SeedSequence([seed, i]).generate_state(1)[0])


@dataclass
class OpResult:
    """Outcome of one timed operation.

    ``units`` is the operation's work in the workload's rate unit (meta
    steps, pairs or runs); ``attempted``/``failed`` count the gated
    sub-operations (meta steps, adaptions, collected tasks, round trips).
    """

    units: float
    attempted: int
    failed: int = 0
    gate_failures: list[str] = field(default_factory=list)
    quality: dict[str, float] = field(default_factory=dict)
    stage_s: dict[str, float] = field(default_factory=dict)

    def fail(self, gate: str, count: int):
        self.gate_failures.append(gate)
        self.failed = min(self.attempted, self.failed + count)


def _finite_params(params) -> bool:
    return all(np.all(np.isfinite(a)) for a in params.weights + params.biases)


class MetaTrain:
    """Exact-mode ``meta_train`` at paper scale with the ``csitransfer
    meta-train`` defaults, clean support/query sets regenerated per visit.

    One operation is one ``meta_train`` call of ``steps`` meta steps, far
    below ``2 * convergence_window``, so the stopping rule cannot end it
    early. Operations differ in their task-selection generator.
    """

    name = "meta_m64"
    headline = "meta_steps_per_s"  # units per second
    max_ops = 10_000

    def __init__(self, seed: int, quick: bool = False):
        self.seed = seed
        if quick:
            gen = GeneratorConfig(array=ArrayConfig(m=4), users=4, noise=CLEAN_SPEC)
            self.cfg = TrainConfig(k_s=12, k_t=1, k_b=4, n_tr=6, u=4, v=8, hidden=(8, 8),
                                   max_steps=2, seed=seed, gen=gen)
        else:
            gen = GeneratorConfig(array=ArrayConfig(m=64), users=25, noise=CLEAN_SPEC)
            self.cfg = TrainConfig(k_s=1500, k_t=1, k_b=80, g_tr=3, n_tr=20, u=25,
                                   hidden=(128, 128), max_steps=3, seed=seed, gen=gen)
        self.attempted_per_op = self.cfg.max_steps
        self.envs = None

    def setup(self):
        self.envs = evaluate.source_environments(self.cfg)

    def op(self, i: int) -> OpResult:
        cfg = self.cfg
        res = OpResult(units=cfg.max_steps, attempted=self.attempted_per_op)
        model = transfer.meta_train(self.envs, cfg, np.random.default_rng([self.seed, i]))
        history = model.loss_history
        if len(history) != cfg.max_steps:
            res.fail(f"meta_train took {len(history)} steps, expected {cfg.max_steps}",
                     cfg.max_steps)
        if not all(math.isfinite(x) for x in history):
            res.fail("meta loss is not finite", cfg.max_steps)
        if not _finite_params(model.params):
            res.fail("meta-trained parameters are not finite", cfg.max_steps)
        if model.derivative_order != cfg.g_tr + 1:
            res.fail(f"derivative_order {model.derivative_order} != g_tr+1 "
                     f"({cfg.g_tr + 1})", cfg.max_steps)
        res.quality = {"meta_loss_final": float(history[-1])}
        return res


class ThreeWay:
    """``run_three_way`` at ``TrainConfig.desk_profile`` (the ``csitransfer
    sweep`` defaults) with ``g_ad=1000`` and both training stages capped at
    ``max_steps``, so the per-target adaptions (Adam for direct transfer,
    GD for meta) carry the run. One operation is one call; each call uses
    its own derived seed, so no two calls share environments or data.
    """

    name = "three_way_m16"
    headline = "three_way_s"  # seconds per operation
    max_ops = 64  # configurations built in set-up

    def __init__(self, seed: int, quick: bool = False):
        self.seed = seed
        self.quick = quick
        self.attempted_per_op = 2 * self.profile().k_t  # adaptions
        self.configs = None

    def profile(self) -> TrainConfig:
        if self.quick:
            gen = GeneratorConfig(array=ArrayConfig(m=4), users=4)
            return TrainConfig.desk_profile(k_s=8, k_t=2, k_b=4, n_tr=6, u=4, v=8,
                                            g_ad=20, max_steps=2, hidden=(8, 8), gen=gen)
        return TrainConfig.desk_profile(k_t=2, g_ad=1000, max_steps=2)

    def setup(self):
        # run_three_way takes only a configuration and draws its environments
        # inside the call, so set-up is building each call's configuration.
        base = self.profile()
        self.configs = [replace(base, seed=op_seed(self.seed, i)) for i in range(self.max_ops)]

    def op(self, i: int) -> OpResult:
        cfg = self.configs[i]
        k_t = cfg.k_t
        res = OpResult(units=1, attempted=self.attempted_per_op)
        report = evaluate.run_three_way(cfg)
        results = report.points[0].results
        for algo in evaluate.ALGORITHMS:
            values = results[algo].per_target if algo in results else []
            if len(values) != k_t:
                res.fail(f"{algo} has {len(values)} results, expected k_t={k_t}", 2 * k_t)
            bad = sum(1 for x in values if not (math.isfinite(x) and x > 0))
            if bad:
                res.fail(f"{algo}: {bad} NMSE values not finite and positive", bad)
        if not res.gate_failures:
            res.quality = {
                "nmse_db.no_transfer": results[evaluate.ALGO_NO_TRANSFER].mean_db,
                "nmse_db.direct": results[evaluate.ALGO_DIRECT].mean_db,
                "nmse_db.meta": results[evaluate.ALGO_META].mean_db,
            }
        res.stage_s = dict(report.wall_clock)
        return res


class CollectLmmse:
    """LMMSE collection at paper scale with the ``csitransfer gen`` defaults
    (M=64, 25 users, SNR 20 dB, pilot 64), drawing the adaption and test
    roles of one environment together, then a ``store`` round trip of both
    datasets. One operation is one environment; environments are prebuilt
    in set-up and none is visited twice.
    """

    name = "collect_lmmse_m64"
    headline = "pairs_per_s"  # units per second
    max_ops = 512  # environments prebuilt in set-up

    def __init__(self, seed: int, quick: bool = False):
        self.seed = seed
        m, users, self.pairs = (8, 4, 4) if quick else (64, 25, 10)
        self.noise = NoiseSpec(snr_db=20.0, pilot_len=64, mode=NOISE_LMMSE)
        self.gen = GeneratorConfig(array=ArrayConfig(m=m), users=users, noise=self.noise)
        self.attempted_per_op = 3  # two collected tasks and one round trip
        self.workdir = None  # set by the harness before the first operation
        self.envs = None

    def setup(self):
        self.envs = [channel.sample_environment(i, self.gen, self.seed)
                     for i in range(self.max_ops)]

    @property
    def awgn_level_db(self) -> float:
        """NMSE of the raw noisy observation: -(snr_db) - 10 log10(pilot_len)."""
        return -self.noise.snr_db - 10.0 * math.log10(self.noise.pilot_len)

    def op(self, i: int) -> OpResult:
        gen = self.gen
        res = OpResult(units=2 * self.pairs, attempted=self.attempted_per_op)
        datasets = channel.generate_task_datasets(
            self.envs[i], [(ROLE_ADAPTION, self.pairs), (ROLE_TEST, self.pairs)],
            gen.users, (gen.f_min, gen.f_max), gen.delta_f, gen.array, gen.noise,
            np.random.default_rng([self.seed, i]), gen.delay_max)
        for d in datasets:
            if not all(np.all(np.isfinite(a)) for p in d.pairs for a in (p.x, p.y, p.y_clean)):
                res.fail(f"{d.role} pairs are not finite", 1)
        if datasets[0].keys() & datasets[1].keys():
            res.fail("adaption and test keys overlap", 2)

        path = os.path.join(self.workdir, f"env{i}.bin")
        store.write_dataset(path, datasets, gen.noise, gen.delta_f)
        back = store.read_dataset(path).datasets
        os.unlink(path)
        os.unlink(path + ".meta.json")
        if not _bit_exact(datasets, back):
            res.fail("store round trip is not bit-exact", 1)

        num = sum(float(np.sum((p.y - p.y_clean) ** 2)) for d in datasets for p in d.pairs)
        den = sum(float(np.sum(p.y_clean ** 2)) for d in datasets for p in d.pairs)
        nmse_db = 10.0 * math.log10(num / den) if num > 0 and den > 0 else math.nan
        if not nmse_db < self.awgn_level_db:
            res.fail(f"LMMSE NMSE {nmse_db:.2f} dB is not below the raw AWGN level "
                     f"{self.awgn_level_db:.2f} dB", 2)
        res.quality = {"lmmse_nmse_db": nmse_db}
        return res


def _bit_exact(written, read) -> bool:
    if len(written) != len(read):
        return False
    for a, b in zip(written, read):
        if (a.env_id, a.role, len(a.pairs)) != (b.env_id, b.role, len(b.pairs)):
            return False
        for p, q in zip(a.pairs, b.pairs):
            if (p.f_up, p.user_index) != (q.f_up, q.user_index):
                return False
            for u, v in ((p.x, q.x), (p.y, q.y), (p.y_clean, q.y_clean)):
                if np.asarray(u, dtype="<f8").tobytes() != v.tobytes():
                    return False
    return True


WORKLOADS = {w.name: w for w in (MetaTrain, ThreeWay, CollectLmmse)}
