"""The benchmark's hooks into the program stay valid.

``bench/spans.py`` wraps channel, net, optim, transfer, evaluate and store
functions by attribute name, and requires by-name import sites (for
example ``evaluate.collect``) to be the very objects it wraps; the
benchmark workloads read ``TaskDataset`` and ``SamplePair`` fields. A
refactor that renames or re-imports one of them fails here rather than in
the traced benchmark run. A quick traced run of each workload checks that
the harness still completes with every gate passing.
"""

import importlib.util
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from csitransfer import channel, evaluate, lanes, transfer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPANS_PATH = os.path.join(ROOT, "bench", "spans.py")


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_and_restores_every_hook():
    spans = load_spans()
    originals = [(owner, attr, getattr(owner, attr))
                 for _, modules, attr, _ in spans.PATCHES for owner in modules]
    originals += [(cls, attr, getattr(cls, attr)) for _, cls, attr in spans.METHOD_PATCHES]
    gen = channel.GeneratorConfig(array=channel.ArrayConfig(m=4), users=3,
                                  noise=channel.NoiseSpec(mode=channel.NOISE_LMMSE))
    env = channel.sample_environment(0, gen, 1)

    tracer = spans.Tracer()
    with tracer:  # entering checks that each import site is the defining object
        datasets = channel.generate_task_datasets(
            env, [(channel.ROLE_ADAPTION, 3), (channel.ROLE_TEST, 2)], gen.users,
            (gen.f_min, gen.f_max), gen.delta_f, gen.array, gen.noise,
            np.random.default_rng(2), gen.delay_max)
        # generate_task_datasets collects its roles in one collect_sets call,
        # so collect, a hook of its own, is called here.
        combos = channel.draw_combos(env, [(channel.ROLE_TEST, 2)], gen.users,
                                     (gen.f_min, gen.f_max), np.random.default_rng(3))
        channel.collect(combos, channel.ROLE_TEST, gen.delta_f, gen.array, gen.noise,
                        np.random.default_rng(4))

    assert all(getattr(owner, attr) is fn for owner, attr, fn in originals)

    summary = tracer.summary()
    for name in ("channel.generate_task_datasets", "channel.draw_combos",
                 "channel.collect", "channel.cov_at", "channel.lmmse_estimate"):
        assert summary[name]["calls"] > 0, name
    metrics = spans.layer_metrics(summary, traced_wall_s=1.0)
    assert set(metrics) <= set(spans.PER_LAYER_UNITS)

    assert [len(d) for d in datasets] == [3, 2]
    assert not datasets[0].keys() & datasets[1].keys()
    for d in datasets:
        for p in d.pairs:
            assert p.x.shape == p.y.shape == p.y_clean.shape == (2 * gen.array.m,)
            assert gen.f_min <= p.f_up <= gen.f_max
            assert 0 <= p.user_index < gen.users


def test_pairs_are_views_of_the_dataset_rows():
    """The store round-trip gate corrupts ``pairs[0].x`` in place and must
    see the change through the dataset."""
    gen = channel.GeneratorConfig(array=channel.ArrayConfig(m=4), users=3)
    env = channel.sample_environment(0, gen, 1)
    (d,) = channel.generate_task_datasets(env, [(channel.ROLE_TEST, 3)], gen.users,
                                          (gen.f_min, gen.f_max), gen.delta_f, gen.array,
                                          gen.noise, np.random.default_rng(0))
    before = d.xs[0, 0]
    d.pairs[0].x[0] += 1e-12
    assert d.xs[0, 0] == before + 1e-12
    assert d.pairs[0].x[0] == d.xs[0, 0]


def test_traced_meta_train_counts_one_generation_per_task():
    """Task generation stays per task: a traced ``meta_train`` records one
    ``channel.draw_combos`` per regenerated task. The regenerated tasks are
    collected block by block, not through ``transfer.support_query`` and
    ``channel.generate_task_datasets``."""
    spans = load_spans()
    gen = channel.GeneratorConfig(array=channel.ArrayConfig(m=4), users=4)
    cfg = transfer.TrainConfig(k_s=6, k_b=3, n_tr=6, u=4, v=8, hidden=(8,), max_steps=4,
                               gen=gen)
    envs = evaluate.source_environments(cfg)
    tracer = spans.Tracer()
    with tracer:
        transfer.meta_train(envs, cfg, np.random.default_rng(5))
    summary = tracer.summary()
    assert summary["channel.draw_combos"]["calls"] == cfg.k_b * cfg.max_steps
    for name in ("transfer.support_query", "channel.generate_task_datasets"):
        assert name not in summary, name


def test_traced_three_way_reaches_adam_and_every_adaption(monkeypatch):
    """The benchmark's reach check for ``three_way_m16``: the meta-learner's
    outer steps go through ``optim.adam_step``, and each target runs one
    adaption per transfer algorithm through ``transfer.adapt_snapshots``.
    Targets run in this process here, where the tracer sees them."""
    monkeypatch.setattr(lanes, "usable_cpus", lambda: 1)
    spans = load_spans()
    gen = channel.GeneratorConfig(array=channel.ArrayConfig(m=4), users=4)
    cfg = transfer.TrainConfig.desk_profile(k_s=8, k_t=2, k_b=4, n_tr=6, u=4, v=8, g_ad=5,
                                            max_steps=2, hidden=(8, 8), gen=gen)
    tracer = spans.Tracer()
    with tracer:
        evaluate.run_three_way(cfg)
    summary = tracer.summary()
    assert summary["optim.adam_step"]["calls"] > 0
    assert summary["transfer.adapt_snapshots"]["calls"] == 2 * cfg.k_t


@pytest.mark.parametrize("workload", ["meta_m64", "three_way_m16", "collect_lmmse_m64"])
def test_quick_traced_benchmark_run_completes(workload):
    """The harness runs each workload end to end at tiny sizes, traced, with
    every correctness gate passing. Only completion is checked here; the
    harness's own tests (``python3 -m pytest bench``) check its metrics."""
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "bench", "run.py"), "--workload", workload,
         "--quick", "--seconds", "0.2", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stdout
