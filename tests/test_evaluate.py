"""Metric and harness tests: NMSE, testing stages, sweep mechanics."""

import collections

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csitransfer import channel as ch
from csitransfer import evaluate, net, optim, transfer
from csitransfer.seeding import STREAM_BATCH, STREAM_PROBE, stream
from csitransfer.transfer import TrainConfig

RNG = np.random.default_rng


def tiny_cfg(**overrides):
    base = dict(
        k_s=12, k_t=3, k_b=3, u=5, n_tr=8, n_ad=8, n_te=6, v=16,
        g_tr=1, g_ad=10, max_steps=40, seed=0, hidden=(16,),
        gen=ch.GeneratorConfig(array=ch.ArrayConfig(m=4), users=5),
    )
    base.update(overrides)
    return TrainConfig(**base)


# ---------------------------------------------------------------------------
# nmse


def test_nmse_exact_prediction():
    h = RNG(0).normal(size=4) + 1j * RNG(1).normal(size=4)
    assert evaluate.nmse(h, h) == 0.0


def test_nmse_zero_prediction_is_one():
    h = RNG(2).normal(size=4) + 1j * RNG(3).normal(size=4)
    assert evaluate.nmse(h, np.zeros_like(h)) == pytest.approx(1.0, rel=1e-15)


def test_nmse_double_prediction_is_one():
    h = RNG(4).normal(size=4) + 1j * RNG(5).normal(size=4)
    assert evaluate.nmse(h, 2 * h) == pytest.approx(1.0, rel=1e-15)


def test_nmse_zero_truth_rejected():
    with pytest.raises(ValueError):
        evaluate.nmse(np.zeros(4, dtype=complex), np.ones(4, dtype=complex))


@settings(max_examples=30, deadline=None)
@given(st.floats(min_value=1e-6, max_value=1e6, allow_nan=False),
       st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_nmse_scale_invariant(s, seed):
    rng = RNG(seed)
    h = rng.normal(size=5) + 1j * rng.normal(size=5)
    hh = rng.normal(size=5) + 1j * rng.normal(size=5)
    a = evaluate.nmse(h, hh)
    b = evaluate.nmse(s * h, s * hh)
    assert b == pytest.approx(a, rel=1e-9)


# ---------------------------------------------------------------------------
# test_model


def _zero_model(m, hidden=(8,)):
    spec = net.LayerSpec.fnn(m, hidden)
    params = net.NetParams(
        [np.zeros((spec.sizes[l + 1], spec.sizes[l])) for l in range(spec.n_layers)],
        [np.zeros(spec.sizes[l + 1]) for l in range(spec.n_layers)])
    return transfer.TrainedModel(params=params, provenance="no-transfer",
                                 config=None, loss_history=[1.0])


def _clean_test_set(cfg, env_id=50):
    env = ch.sample_environment(env_id, cfg.gen, cfg.seed)
    return ch.generate_task_datasets(env, [("test", cfg.n_te)], cfg.u,
                                     (cfg.gen.f_min, cfg.gen.f_max), cfg.gen.delta_f,
                                     cfg.gen.array, ch.NoiseSpec(mode="clean"), RNG(1))[0]


def test_zero_output_model_has_unit_nmse():
    cfg = tiny_cfg()
    d_te = _clean_test_set(cfg)
    got = evaluate.test_model(_zero_model(4), d_te)
    assert got == pytest.approx(1.0, rel=1e-12)


def test_identity_task_converged_model_low_nmse(monkeypatch):
    """A network trained to reproduce its input nails a zero-offset task."""
    monkeypatch.setattr(transfer, "CONVERGENCE_WINDOW", 3000)  # disable early stop
    cfg = tiny_cfg(hidden=(), gen=ch.GeneratorConfig(
        array=ch.ArrayConfig(m=4), users=5, delta_f=0.0))
    rng = RNG(2)
    xs = rng.normal(size=(64, 8))
    sources = [ch.TaskDataset(0, "train-support", xs=xs, ys=xs.copy(), y_clean=xs.copy(),
                              f_up=np.full(64, 1e9), f_down=np.full(64, 1e9),
                              user_index=np.zeros(64, dtype=int))]
    model = transfer.train_no_transfer(
        sources, tiny_cfg(hidden=(), v=32, max_steps=3000, gamma=1e-2), RNG(3))
    env = ch.sample_environment(50, cfg.gen, cfg.seed)
    (d_te,) = ch.generate_task_datasets(env, [("test", 6)], 5, (1e9, 3e9), 0.0,
                                        cfg.gen.array, ch.NoiseSpec(mode="clean"), RNG(4))
    got = evaluate.test_model(model, d_te)
    assert got < 1e-4


def test_model_scores_lmmse_test_set_against_clean_labels():
    """Under LMMSE collection the labels are noisy estimates; the NMSE is
    taken against the clean downlinks all the same."""
    cfg = tiny_cfg()
    env = ch.sample_environment(50, cfg.gen, cfg.seed)
    noise = ch.NoiseSpec(snr_db=-10.0, pilot_len=1, mode=ch.NOISE_LMMSE)
    (d_te,) = ch.generate_task_datasets(env, [("test", 6)], 5, (1e9, 3e9), 120e6,
                                        cfg.gen.array, noise, RNG(4))
    model = transfer.TrainedModel(params=transfer.init_network(cfg), provenance="no-transfer",
                                  config=None, loss_history=[1.0])
    h_hat = ch.real_to_complex(net.forward_batch(model.params, d_te.xs))

    def mean_nmse(labels):
        h = ch.real_to_complex(labels)
        return float(np.mean([evaluate.nmse(h[i], h_hat[i]) for i in range(len(d_te))]))

    got = evaluate.test_model(model, d_te)
    assert got == mean_nmse(d_te.y_clean)
    assert got != mean_nmse(d_te.ys)


def test_mean_equals_mean_of_parts():
    cfg = tiny_cfg()
    per_target = [evaluate.test_model(_zero_model(4), d)
                  for d in (_clean_test_set(cfg, 50), _clean_test_set(cfg, 51))]
    result = evaluate.NmseResult("no-transfer", per_target)
    assert result.mean_linear == pytest.approx(np.mean(per_target), rel=1e-12)
    assert result.mean_db == pytest.approx(10 * np.log10(result.mean_linear), rel=1e-12)


# ---------------------------------------------------------------------------
# run_three_way mechanics


def test_three_way_single_point():
    cfg = tiny_cfg()
    report = evaluate.run_three_way(cfg)
    assert report.variable == "none" and report.grid == [None]
    point = report.points[0]
    assert set(point.results) == set(evaluate.ALGORITHMS)
    for result in point.results.values():
        assert len(result.per_target) == cfg.k_t
        assert result.mean_linear > 0
    assert set(point.baselines) == {"direct-transfer", "meta-learning"}
    assert report.wall_clock["training"] > 0


def test_three_way_rejects_unknown_variable():
    with pytest.raises(ValueError):
        evaluate.run_three_way(tiny_cfg(), ("bandwidth", [1, 2]))


@pytest.mark.parametrize("sweep", [("g_ad", [3, 3]), ("snr_db", [10.0, 10]),
                                   ("n_ad", [2, 2]), ("delta_f", [1e8, 1e8])])
def test_three_way_rejects_repeated_grid_value(sweep):
    """A repeated value would merge two points' per-target lists into one."""
    with pytest.raises(ValueError, match="repeats"):
        evaluate.run_three_way(tiny_cfg(), sweep)


def test_g_ad_zero_equals_baseline():
    cfg = tiny_cfg()
    report = evaluate.run_three_way(cfg, ("g_ad", [0, 10]))
    zero_point = report.points[0]
    assert zero_point.value == 0
    for algo in ("direct-transfer", "meta-learning"):
        assert zero_point.results[algo].per_target == \
            zero_point.baselines[algo].per_target
    # no-transfer ignores the adaption data entirely
    assert report.points[0].results["no-transfer"].per_target == \
        report.points[1].results["no-transfer"].per_target


def test_n_ad_sweep_uses_nested_subsets():
    cfg = tiny_cfg()
    report = evaluate.run_three_way(cfg, ("n_ad", [2, 6]))
    assert [p.value for p in report.points] == [2, 6]
    for point in report.points:
        for algo, result in point.results.items():
            assert len(result.per_target) == cfg.k_t


def test_snr_sweep_runs():
    cfg = tiny_cfg(n_ad=4, n_te=4, k_t=2, g_ad=5)
    report = evaluate.run_three_way(cfg, ("snr_db", [-10.0, 20.0]))
    assert len(report.points) == 2


def test_lmmse_sweep_builds_each_target_covariance_once(monkeypatch):
    gen = ch.GeneratorConfig(array=ch.ArrayConfig(m=4), users=4,
                             noise=ch.NoiseSpec(mode=ch.NOISE_LMMSE))
    cfg = tiny_cfg(k_s=4, k_t=2, k_b=2, u=4, n_tr=4, n_ad=3, n_te=3, v=8,
                   g_ad=3, max_steps=2, hidden=(8,), gen=gen)
    sweep = ("snr_db", [0.0, 10.0, 20.0])
    targets = [cfg.k_s + k for k in range(cfg.k_t)]
    builds = collections.Counter()
    init = ch.EnvCovariance.__init__

    def counting_init(self, env, *args, **kwargs):
        builds[env.id] += 1
        init(self, env, *args, **kwargs)

    monkeypatch.setattr(ch.EnvCovariance, "__init__", counting_init)

    # Reference: every collection builds its own covariance, so each target
    # builds one for its test set and one per SNR.
    collect = evaluate.collect

    def collect_with_fresh_covariance(combos, *args, **kwargs):
        combos.cov = None
        return collect(combos, *args, **kwargs)

    monkeypatch.setattr(evaluate, "collect", collect_with_fresh_covariance)
    reference = evaluate.run_three_way(cfg, sweep)
    assert [builds[t] for t in targets] == [4] * cfg.k_t
    monkeypatch.setattr(evaluate, "collect", collect)

    builds.clear()
    report = evaluate.run_three_way(cfg, sweep)
    assert [builds[t] for t in targets] == [1] * cfg.k_t
    for point, ref in zip(report.points, reference.points):
        for algo in evaluate.ALGORITHMS:
            assert point.results[algo].per_target == ref.results[algo].per_target
        for algo in point.baselines:
            assert point.baselines[algo].per_target == ref.baselines[algo].per_target


@pytest.mark.parametrize("max_steps, fixed", [(1, False), (4, False), (4, True)])
def test_train_pair_builds_each_first_visit_task_once(monkeypatch, max_steps, fixed):
    cfg = tiny_cfg(k_s=6, k_b=4, max_steps=max_steps, fixed_task_data=fixed)
    envs = evaluate.source_environments(cfg)
    reference = transfer.meta_train(envs, cfg, stream(cfg.seed, STREAM_BATCH, 1))

    builds = collections.Counter()
    support_query = transfer._support_query

    def counting(env, cfg, visit):
        builds[env.id, visit] += 1
        return support_query(env, cfg, visit)

    # Every generated task draws its combinations once, whether it is built
    # through _support_query or regenerated in a block of the meta step.
    draws = collections.Counter()
    draw_combos = ch.draw_combos

    def counting_draws(env, *args, **kwargs):
        draws[env.id] += 1
        return draw_combos(env, *args, **kwargs)

    monkeypatch.setattr(transfer, "_support_query", counting)
    monkeypatch.setattr(ch, "draw_combos", counting_draws)
    _, mt = evaluate.train_pair(cfg)
    assert max(builds.values()) == 1
    assert sorted(env for env, visit in builds if visit == 0) == list(range(cfg.k_s))
    if max_steps == 1 or fixed:
        assert sum(builds.values()) == sum(draws.values()) == cfg.k_s
    else:
        assert sum(draws.values()) > cfg.k_s  # later visits are still generated
    assert np.array_equal(mt.params.flat, reference.params.flat)
    assert mt.loss_history == reference.loss_history


def test_training_side_sweep_retrains():
    cfg = tiny_cfg(k_t=2, max_steps=10, g_ad=2)
    report = evaluate.run_three_way(cfg, ("m", [2, 4]))
    assert [p.value for p in report.points] == [2, 4]
    for point in report.points:
        for result in point.results.values():
            assert len(result.per_target) == 2


# ---------------------------------------------------------------------------
# width probe

PROBE_PAIRS = 200


def proposition_probe(widths, cfg):
    """Converged training loss of single-hidden-layer networks versus width.

    Empirical echo of the approximation guarantee: on one clean
    environment's mapping task, wider networks should fit at least as well.
    """
    widths = list(widths)
    if any(b <= a for a, b in zip(widths, widths[1:])) or not widths:
        raise ValueError(f"widths must be strictly increasing, got {widths}")
    gen = cfg.gen
    env = ch.sample_environment(0, gen, cfg.seed)
    (data,) = ch.generate_task_datasets(env, [(ch.ROLE_TRAIN_SUPPORT, PROBE_PAIRS)], cfg.u,
                                        (gen.f_min, gen.f_max), gen.delta_f, gen.array,
                                        ch.NoiseSpec(mode="clean"),
                                        stream(cfg.seed, STREAM_PROBE), gen.delay_max)
    out = {}
    for width in widths:
        spec = net.LayerSpec.fnn(gen.array.m, (width,))
        params = net.init_params(spec, stream(cfg.seed, STREAM_PROBE, width))
        state = optim.AdamState.init(params)
        run = net.Workspace(params, data.xs, data.ys)
        history = []
        for _ in range(cfg.max_steps):
            history.append(run.loss_and_grad())
            optim.adam_update(state, params, run.grads, cfg.gamma, run.work)
            if transfer._converged(history):
                break
        window = min(len(history), transfer.CONVERGENCE_WINDOW)
        out[width] = float(np.mean(history[-window:]))
    return out


def test_width_probe_single_row():
    cfg = tiny_cfg(max_steps=50)
    out = proposition_probe([8], cfg)
    assert list(out) == [8]
    assert out[8] > 0


def test_width_probe_rejects_non_increasing():
    cfg = tiny_cfg()
    with pytest.raises(ValueError):
        proposition_probe([8, 8], cfg)
    with pytest.raises(ValueError):
        proposition_probe([32, 8], cfg)
    with pytest.raises(ValueError):
        proposition_probe([], cfg)


def test_width_probe_wider_fits_better(monkeypatch):
    monkeypatch.setattr(transfer, "CONVERGENCE_TOL", 0.001)
    cfg = tiny_cfg(max_steps=4000)
    out = proposition_probe([4, 64], cfg)
    assert out[64] <= out[4] * 1.05
