"""Metric and harness tests: NMSE, testing stages, sweep mechanics."""

import collections
import multiprocessing
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csitransfer import channel as ch
from csitransfer import evaluate, lanes, net, optim, transfer
from csitransfer.seeding import STREAM_BATCH, stream
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
    model = transfer.train_no_transfer(
        xs, xs.copy(), tiny_cfg(hidden=(), v=32, max_steps=3000, gamma=1e-2), RNG(3))
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


@pytest.mark.parametrize("sweep, message", [
    (("n_ad", [0, 5]), "adaption sample counts must be positive"),
    (("g_ad", [-1, 5]), "adaption step counts must be nonnegative")])
def test_three_way_rejects_bad_adaption_grid_before_training(sweep, message, monkeypatch):
    """A grid value that no target can adapt with is reported before either
    network trains, not after."""
    calls = []
    monkeypatch.setattr(evaluate, "train_pair", lambda cfg: calls.append(cfg))
    with pytest.raises(ValueError, match=message):
        evaluate.run_three_way(tiny_cfg(), sweep)
    assert calls == []


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
    monkeypatch.setattr(lanes, "usable_cpus", lambda: 1)  # count in this process

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
    """Every generated task draws its combinations once. ``train_pair``
    draws each source's first visit once, for both algorithms; the meta
    step draws only the later visits (none under fixed task data)."""
    cfg = tiny_cfg(k_s=6, k_b=4, max_steps=max_steps, fixed_task_data=fixed)
    envs = evaluate.source_environments(cfg)
    reference = transfer.meta_train(envs, cfg, stream(cfg.seed, STREAM_BATCH, 1))
    rng = stream(cfg.seed, STREAM_BATCH, 1)
    picks = collections.Counter(int(i) for _ in range(max_steps)
                                for i in rng.choice(cfg.k_s, size=cfg.k_b, replace=False))
    want = {i: 1 if fixed else max(picks[i], 1) for i in range(cfg.k_s)}

    draws = collections.Counter()
    draw_combos = ch.draw_combos

    def counting_draws(env, *args, **kwargs):
        draws[env.id] += 1
        return draw_combos(env, *args, **kwargs)

    monkeypatch.setattr(ch, "draw_combos", counting_draws)
    _, mt = evaluate.train_pair(cfg)
    assert dict(draws) == want
    if max_steps > 1 and not fixed:
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
# target workers

LMMSE_GEN = ch.GeneratorConfig(array=ch.ArrayConfig(m=4), users=5,
                               noise=ch.NoiseSpec(mode=ch.NOISE_LMMSE))


def _per_target(report):
    """Every per-target list of a report, by grid value, kind and algorithm."""
    return {(point.value, kind, algo): r.per_target
            for point in report.points
            for kind, results in (("result", point.results), ("baseline", point.baselines))
            for algo, r in results.items()}


@pytest.mark.parametrize("sweep, gen", [
    (None, None),
    (("g_ad", [0, 4, 10]), None),
    (("n_ad", [2, 6]), None),
    (("snr_db", [0.0, 20.0]), LMMSE_GEN),
    (("m", [2, 4]), None),
])
def test_target_workers_give_bit_identical_results(monkeypatch, sweep, gen):
    """Three targets on three worker processes reproduce the in-process run
    exactly: every per-target NMSE and baseline, in target order."""
    cfg = tiny_cfg(max_steps=10, **({"gen": gen} if gen else {}))
    assert cfg.k_t == 3
    runs = {}
    for cpus in (1, 3):
        monkeypatch.setattr(lanes, "usable_cpus", lambda: cpus)
        report = evaluate.run_three_way(cfg, sweep)
        assert report.workers == cpus
        assert multiprocessing.active_children() == []
        assert set(report.wall_clock) == {"training", "adaption", "testing"}
        assert report.wall_clock["adaption"] > 0 and report.wall_clock["testing"] > 0
        runs[cpus] = {key: [x.hex() for x in values]
                      for key, values in _per_target(report).items()}
    assert runs[3] == runs[1]


def test_worker_count_is_capped_by_targets(monkeypatch):
    monkeypatch.setattr(lanes, "usable_cpus", lambda: 3)
    assert evaluate.run_three_way(tiny_cfg(k_t=2, max_steps=4, g_ad=2)).workers == 2
    assert evaluate.run_three_way(tiny_cfg(k_t=1, max_steps=4, g_ad=2)).workers == 1


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow on the way to inf
def test_diverging_target_raises_its_non_finite_loss_in_the_caller(monkeypatch):
    """One target's adaption data is scaled until its GD adaption diverges.
    The worker's ``NonFiniteLoss`` reaches the caller with the stage, step
    and loss of the in-process run, and no worker outlives it."""
    cfg = tiny_cfg(max_steps=10, g_ad=50)
    collect_adaption = evaluate._collect_adaption

    def scaled(combos, *args, **kwargs):
        d = collect_adaption(combos, *args, **kwargs)
        if combos.env.id == cfg.k_s + 1:
            d.xs *= 100.0
            d.ys *= 100.0
        return d

    monkeypatch.setattr(evaluate, "_collect_adaption", scaled)
    errors = {}
    for cpus in (1, 3):
        monkeypatch.setattr(lanes, "usable_cpus", lambda: cpus)
        with pytest.raises(transfer.NonFiniteLoss) as err:
            evaluate.run_three_way(cfg)
        assert multiprocessing.active_children() == []
        errors[cpus] = err.value
    assert errors[1].__cause__ is None and errors[3].__cause__ is not None  # worker traceback
    assert errors[1].stage == "adaption (gd)" and errors[1].step > 0
    assert (errors[3].stage, errors[3].step, errors[3].loss) == \
        (errors[1].stage, errors[1].step, errors[1].loss)
    assert str(errors[3]) == str(errors[1])


def test_src_imports_no_process_pool():
    """Every stage forks through ``csitransfer.lanes``: nothing in the
    package uses ``concurrent.futures`` or its process pool."""
    src = os.path.dirname(evaluate.__file__)
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name)) as f:
                text = f.read()
            assert "concurrent.futures" not in text and "ProcessPoolExecutor" not in text, name


def test_one_cpu_run_forks_nothing(monkeypatch):
    """On one usable CPU, a sweep under LMMSE noise, whose first visits,
    meta steps, targets and collections would fork on more, forks nothing."""
    def no_fork():
        raise AssertionError("a process was forked")

    monkeypatch.setattr(lanes, "usable_cpus", lambda: 1)
    monkeypatch.setattr(os, "fork", no_fork)
    cfg = tiny_cfg(k_s=8, k_t=2, k_b=5, max_steps=1, g_ad=1, gen=LMMSE_GEN)
    assert transfer.meta_lanes(cfg) == 1
    assert ch.collection_lanes(10 ** 6, 10 ** 6, LMMSE_GEN.noise) == 1
    assert evaluate.run_three_way(cfg).workers == 1


# ---------------------------------------------------------------------------
# width probe

PROBE_PAIRS = 200
# The probe's substream id: retired in csitransfer.seeding, so no stream of the
# program draws from it.
STREAM_PROBE = 7


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
