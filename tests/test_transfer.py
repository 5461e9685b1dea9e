"""Training-regime tests: pooled training, fine-tuning, meta-learning."""

import itertools
import math
import multiprocessing
import os
import pickle
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from csitransfer import channel as ch
from csitransfer import lanes, net, optim, transfer
from csitransfer.net import Batch
from csitransfer.seeding import STREAM_BATCH, stream
from csitransfer.transfer import TrainConfig

RNG = np.random.default_rng


def tiny_cfg(**overrides):
    base = dict(
        k_s=12, k_t=4, k_b=3, u=5, n_tr=8, n_ad=8, n_te=8, v=16,
        g_tr=2, g_ad=20, max_steps=60, seed=0, hidden=(16,),
        gen=ch.GeneratorConfig(array=ch.ArrayConfig(m=4), users=5),
    )
    base.update(overrides)
    return TrainConfig(**base)


def identity_sources(m=2, n=64, seed=0):
    """A task whose labels equal its inputs (fittable by a linear net)."""
    rng = RNG(seed)
    xs = rng.normal(size=(n, 2 * m))
    return [ch.TaskDataset(0, "train-support", xs=xs, ys=xs.copy(), y_clean=xs.copy(),
                           f_up=np.full(n, 1e9), f_down=np.full(n, 1e9),
                           user_index=np.zeros(n, dtype=int))]


def pooled(sources):
    """The rows of ``sources`` pooled as ``train_no_transfer`` takes them."""
    return np.concatenate([d.xs for d in sources]), np.concatenate([d.ys for d in sources])


def quadratic_batch(target):
    """Batch whose full-batch loss is (w - target)^2 + b^2 for a 1x1 linear net."""
    xs = np.array([[1.0], [-1.0]])
    ys = np.array([[target], [-target]])
    return Batch(xs, ys)


def scalar_net(w):
    return net.NetParams([np.array([[float(w)]])], [np.zeros(1)])


def gradient(params, batch):
    """The exact gradient of the batch loss."""
    return net.loss_and_grad(params, batch)[1]


def task_blocks(tasks):
    """(support, query) pairs of any sizes as meta-step blocks: consecutive
    runs of at most ``_TASK_BLOCK`` tasks with equal support sizes and equal
    query sizes, stacked (B, n, width) arrays ``(support xs, support ys,
    query xs, query ys)``."""
    for _, run in itertools.groupby(tasks, key=lambda t: (len(t[0]), len(t[1]))):
        run = list(run)
        for i in range(0, len(run), transfer._TASK_BLOCK):
            block = run[i:i + transfer._TASK_BLOCK]
            yield (np.stack([s.xs for s, _ in block]), np.stack([s.ys for s, _ in block]),
                   np.stack([q.xs for _, q in block]), np.stack([q.ys for _, q in block]))


def meta_gradient(omega, tasks, g_tr, beta, mode):
    """Gradient of the summed post-adaption query loss wrt omega."""
    return transfer._meta_batch_eval(omega, task_blocks(tasks), g_tr, beta, mode)[1]


def norm(p):
    return float(np.linalg.norm(p.flat))


# ---------------------------------------------------------------------------
# config validation


def test_config_validation():
    with pytest.raises(ValueError):
        tiny_cfg(k_b=20)  # k_b > k_s
    with pytest.raises(ValueError):
        tiny_cfg(gamma=0.0)
    with pytest.raises(ValueError):
        tiny_cfg(meta_mode="third-order")
    cfg = tiny_cfg(n_tr=9)
    assert cfg.n_support == 4 and cfg.n_query == 5


@pytest.mark.parametrize("n_tr", [0, 1])
def test_config_needs_a_support_and_a_query_sample(n_tr):
    with pytest.raises(ValueError, match=f"n_tr must be >= 2 to split each source task "
                                         f"into support and query samples, got {n_tr}"):
        tiny_cfg(n_tr=n_tr)
    cfg = tiny_cfg(n_tr=2)
    assert cfg.n_support == cfg.n_query == 1


def test_gradient_order_accounting():
    """Exact meta-training records order g_tr + 1; first-order meta-training,
    meta-training without inner steps, pooled training and both adaption
    rules record order 1."""
    cfg = tiny_cfg(g_tr=3, max_steps=1, gen=ch.GeneratorConfig(array=ch.ArrayConfig(m=2)))
    envs = [ch.sample_environment(i, cfg.gen, cfg.seed) for i in range(cfg.k_s)]

    def meta_order(**overrides):
        return transfer.meta_train(envs, replace(cfg, **overrides), RNG(0)).derivative_order

    mt = transfer.meta_train(envs, cfg, RNG(0))
    assert mt.derivative_order == 4
    assert meta_order(meta_mode="first-order") == 1
    assert meta_order(g_tr=0) == 1
    nt = transfer.train_no_transfer(*pooled(identity_sources()), cfg, RNG(0))
    assert nt.derivative_order == 1
    d_ad = identity_sources(n=4)[0]
    assert transfer.direct_adapt(nt, d_ad, cfg).derivative_order == 1
    assert transfer.meta_adapt(mt, d_ad, cfg).derivative_order == 1


# ---------------------------------------------------------------------------
# no-transfer training


def test_no_transfer_fits_identity_task():
    sources = identity_sources()
    cfg = tiny_cfg(hidden=(), v=32, max_steps=2000, gamma=1e-2,
                   gen=ch.GeneratorConfig(array=ch.ArrayConfig(m=2), users=5))
    model = transfer.train_no_transfer(*pooled(sources), cfg, stream(0, STREAM_BATCH))
    assert model.provenance == "no-transfer"
    assert model.loss_history[-1] < 1e-6
    assert model.derivative_order == 1


def test_no_transfer_zero_steps_returns_initialization():
    sources = identity_sources()
    cfg = tiny_cfg(hidden=(), v=16, max_steps=0,
                   gen=ch.GeneratorConfig(array=ch.ArrayConfig(m=2), users=5))
    model = transfer.train_no_transfer(*pooled(sources), cfg, stream(0, STREAM_BATCH))
    init = transfer.init_network(cfg)
    assert len(model.loss_history) == 1
    assert np.array_equal(model.params.weights[0], init.weights[0])


def test_no_transfer_bit_identical_given_seed():
    sources = identity_sources()
    cfg = tiny_cfg(hidden=(8,), v=16, max_steps=40,
                   gen=ch.GeneratorConfig(array=ch.ArrayConfig(m=2), users=5))
    m1 = transfer.train_no_transfer(*pooled(sources), cfg, stream(0, STREAM_BATCH))
    m2 = transfer.train_no_transfer(*pooled(sources), cfg, stream(0, STREAM_BATCH))
    for a, b in zip(m1.params.weights, m2.params.weights):
        assert np.array_equal(a, b)
    assert m1.loss_history == m2.loss_history


def test_no_transfer_bit_equal_to_written_out_minibatch_loop():
    """Each step gathers its minibatch rows into the run's input buffers;
    the result equals a loop over fresh per-layer arrays bit for bit."""
    sources = identity_sources() + identity_sources(seed=1)
    cfg = tiny_cfg(hidden=(8, 6), v=16, max_steps=30, gamma=1e-2,
                   gen=ch.GeneratorConfig(array=ch.ArrayConfig(m=2), users=5))
    model = transfer.train_no_transfer(*pooled(sources), cfg, stream(0, STREAM_BATCH))

    xs = np.concatenate([d.xs for d in sources])
    ys = np.concatenate([d.ys for d in sources])
    init = transfer.init_network(cfg)
    n_layers = len(init.weights)
    ps = [a.copy() for a in init.weights + init.biases]
    m = [np.zeros_like(a) for a in ps]
    v = [np.zeros_like(a) for a in ps]
    rng = stream(0, STREAM_BATCH)
    # The step-0 loss streams the pool in chunks of v rows: the row-weighted
    # mean of the chunk losses, summed exactly.
    chunks = [(xs[i:i + cfg.v], ys[i:i + cfg.v]) for i in range(0, len(xs), cfg.v)]
    history = [math.fsum(per_layer_loss_and_grad(ps[:n_layers], ps[n_layers:], x, y)[0]
                         * len(x) for x, y in chunks) / len(xs)]
    for t in range(1, cfg.max_steps + 1):
        idx = rng.choice(len(xs), size=cfg.v, replace=False)
        loss, gw, gb = per_layer_loss_and_grad(ps[:n_layers], ps[n_layers:], xs[idx], ys[idx])
        ps, m, v = per_layer_adam(m, v, t, ps, gw + gb, cfg.gamma)
        history.append(loss)
    assert model.loss_history == history
    got = model.params
    assert all(np.array_equal(a, b) for a, b in zip(got.weights + got.biases, ps))


def _desk_pool_cfg(**overrides):
    """Pooled training at desk width: M=16, hidden 128,128, batches of 128."""
    return tiny_cfg(hidden=(128, 128), v=128,
                    gen=ch.GeneratorConfig(array=ch.ArrayConfig(m=16), users=5), **overrides)


@pytest.mark.parametrize("n", [512, 500])
def test_no_transfer_streamed_step0_loss_matches_full_pool_loss(n):
    """The step-0 loss, streamed through the minibatch workspace (with a
    short tail when v does not divide the pool), equals the loss of one
    pass over the pool to rounding."""
    sources = identity_sources(m=16, n=n)
    cfg = _desk_pool_cfg(max_steps=0)
    model = transfer.train_no_transfer(*pooled(sources), cfg, stream(0, STREAM_BATCH))
    want = net.mse_loss(transfer.init_network(cfg), Batch(sources[0].xs, sources[0].ys))
    assert model.loss_history[0] == pytest.approx(want, rel=1e-14, abs=0)


def test_no_transfer_memory_does_not_grow_with_pool_activations():
    """Nothing grows with the pool: the pooled rows (2 MB at 4,000 rows,
    15 MB at 30,000) are read where they lie, and one forward pass over all
    4,000 rows would add its activation, mask and delta buffers and take
    the traced peak past 20 MB."""
    cfg = _desk_pool_cfg(max_steps=2)
    for n in (4000, 30000):
        xs, ys = pooled(identity_sources(m=16, n=n))
        tracemalloc.start()
        try:
            transfer.train_no_transfer(xs, ys, cfg, stream(0, STREAM_BATCH))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3e6, n


def test_no_transfer_rejects_empty_or_small_pool():
    cfg = tiny_cfg(v=500)
    with pytest.raises(ValueError, match="empty"):
        transfer.train_no_transfer(np.empty((0, 4)), np.empty((0, 4)), cfg, RNG(0))
    with pytest.raises(ValueError, match="cannot fill batches of 500"):
        transfer.train_no_transfer(*pooled(identity_sources(n=10)), cfg, RNG(0))
    xs, ys = pooled(identity_sources(n=600))
    for bad in ((xs.reshape(6, 100, 4), ys.reshape(6, 100, 4)), (xs, ys[:, :2])):
        with pytest.raises(ValueError, match="two 2-D arrays of one shape"):
            transfer.train_no_transfer(*bad, cfg, RNG(0))
    cfg_ok = tiny_cfg(v=500, max_steps=1,
                      gen=ch.GeneratorConfig(array=ch.ArrayConfig(m=2), users=5),
                      hidden=())
    transfer.train_no_transfer(*pooled(identity_sources(n=500)), cfg_ok, RNG(0))


# ---------------------------------------------------------------------------
# adaption stages


def _fitted_base(cfg, provenance="no-transfer"):
    params = transfer.init_network(cfg)
    return transfer.TrainedModel(params=params, provenance=provenance,
                                 config=None, loss_history=[1.0])


def _clean_target_sets(cfg, env_id=100, seed=5):
    env = ch.sample_environment(env_id, cfg.gen, seed)
    ad, te = ch.generate_task_datasets(
        env, [("adaption", cfg.n_ad), ("test", cfg.n_te)], cfg.u,
        (cfg.gen.f_min, cfg.gen.f_max), cfg.gen.delta_f, cfg.gen.array,
        ch.NoiseSpec(mode="clean"), RNG(seed))
    return ad, te


def test_direct_adapt_zero_steps_keeps_base():
    cfg = tiny_cfg(g_ad=0)
    base = _fitted_base(cfg)
    d_ad, _ = _clean_target_sets(cfg)
    out = transfer.direct_adapt(base, d_ad, cfg)
    assert out.provenance == "adapted"
    for a, b in zip(out.params.weights, base.params.weights):
        assert np.array_equal(a, b)


def test_gd_adaption_loss_monotone_for_small_rate():
    cfg = tiny_cfg()
    base = _fitted_base(cfg)
    d_ad, _ = _clean_target_sets(cfg)
    beta = 1e-6
    for _ in range(6):  # safeguard halving
        out = transfer.adapt_snapshots(base, d_ad, tiny_cfg(beta=beta), "gd", [50])[50]
        diffs = np.diff(out.loss_history)
        if np.all(diffs <= 1e-12):
            return
        beta /= 2
    pytest.fail("GD adaption loss not monotone even after halving the rate")


def test_adaption_always_starts_from_stage_output():
    cfg = tiny_cfg(g_ad=5)
    base = _fitted_base(cfg)
    ad1, _ = _clean_target_sets(cfg, env_id=100)
    ad2, _ = _clean_target_sets(cfg, env_id=101, seed=6)
    m1 = transfer.adapt_snapshots(base, ad1, cfg, "adam", [0, 5])
    m2 = transfer.adapt_snapshots(base, ad2, cfg, "adam", [0, 5])
    for a, b in zip(m1[0].params.weights, m2[0].params.weights):
        assert np.array_equal(a, b)  # both trajectories start at the base
    assert not np.array_equal(m1[5].params.weights[0], m2[5].params.weights[0])
    for a, b in zip(base.params.weights, m1[0].params.weights):
        assert np.array_equal(a, b)


def test_direct_adapt_requires_trained_base():
    cfg = tiny_cfg()
    adapted = _fitted_base(cfg, provenance="adapted")
    d_ad, _ = _clean_target_sets(cfg)
    with pytest.raises(ValueError):
        transfer.direct_adapt(adapted, d_ad, cfg)
    with pytest.raises(ValueError):
        transfer.meta_adapt(_fitted_base(cfg, "no-transfer"), d_ad, cfg)


def test_meta_adapt_equals_manual_gd_steps():
    cfg = tiny_cfg(g_ad=4, beta=1e-5)
    base = _fitted_base(cfg, provenance="meta")
    d_ad, _ = _clean_target_sets(cfg)
    out = transfer.meta_adapt(base, d_ad, cfg)
    params = base.params.copy()
    batch = Batch(d_ad.xs, d_ad.ys)
    for _ in range(4):
        params = optim.gd_step(params, gradient(params, batch), cfg.beta)
    for a, b in zip(out.params.weights, params.weights):
        assert np.array_equal(a, b)


def per_layer_loss_and_grad(ws, bs, xs, ys):
    """Loss and per-layer weight and bias gradients, one fresh array per
    expression."""
    acts, pres, a = [xs], [], xs
    for l, (w, b) in enumerate(zip(ws, bs)):
        z = a @ w.T + b
        pres.append(z)
        a = np.maximum(z, 0.0) if l < len(ws) - 1 else z
        acts.append(a)
    diff = a - ys
    loss = float(np.sum(diff * diff) / len(xs))
    gw, gb = [None] * len(ws), [None] * len(ws)
    delta = 2.0 / len(xs) * diff
    for l in range(len(ws) - 1, -1, -1):
        gw[l], gb[l] = delta.T @ acts[l], delta.sum(axis=0)
        if l > 0:
            delta = (delta @ ws[l]) * (pres[l - 1] > 0)
    return loss, gw, gb


def per_layer_adam(m, v, t, ps, gs, rate, textbook=False):
    """One Adam step over lists of arrays. The optimizer's form folds both
    bias corrections into the step size and epsilon; ``textbook`` divides
    each moment by its correction instead."""
    m = [0.9 * ms + (1.0 - 0.9) * g for ms, g in zip(m, gs)]
    v = [0.999 * vs + (1.0 - 0.999) * g * g for vs, g in zip(v, gs)]
    bc1, bc2 = 1.0 - 0.9 ** t, 1.0 - 0.999 ** t
    if textbook:
        ps = [p - rate * (ms / bc1) / (np.sqrt(vs / bc2) + 1e-8)
              for p, ms, vs in zip(ps, m, v)]
    else:
        alpha, eps_hat = rate * np.sqrt(bc2) / bc1, 1e-8 * np.sqrt(bc2)
        ps = [p - alpha * (ms / (np.sqrt(vs) + eps_hat)) for p, ms, vs in zip(ps, m, v)]
    return ps, m, v


def per_layer_adaption(params, batch, rule, beta, steps, textbook=False):
    """Full-batch adaption as a loop over lists of per-layer arrays, one
    fresh array per expression: the parameter iterates and step losses."""
    ws, bs = [w.copy() for w in params.weights], [b.copy() for b in params.biases]
    m = [np.zeros_like(a) for a in ws + bs]
    v = [np.zeros_like(a) for a in ws + bs]
    iterates, losses = [ws + bs], []
    for t in range(1, steps + 1):
        loss, gw, gb = per_layer_loss_and_grad(ws, bs, batch.xs, batch.ys)
        losses.append(loss)
        ps, gs = ws + bs, gw + gb
        if rule == "gd":
            ps = [p - beta * g for p, g in zip(ps, gs)]
        else:
            ps, m, v = per_layer_adam(m, v, t, ps, gs, beta, textbook)
        ws, bs = ps[:len(ws)], ps[len(ws):]
        iterates.append(ps)
    return iterates, losses


@pytest.mark.parametrize("rule", ["adam", "gd"])
def test_adapt_snapshots_bit_equal_to_per_layer_loop(rule):
    cfg = tiny_cfg(beta=3e-3)
    rng = RNG(12)
    spec = net.LayerSpec.fnn(3, (9, 7))
    params = net.init_params(spec, rng)
    for b in params.biases:
        b[...] = 0.1 * rng.normal(size=b.shape)
    base = transfer.TrainedModel(params=params, provenance="meta", config=None,
                                 loss_history=[0.0])
    batch = Batch(rng.normal(size=(10, 6)), rng.normal(size=(10, 6)))
    marks = [0, 1, 17, 50]
    snaps = transfer.adapt_snapshots(base, batch, cfg, rule, marks)
    iterates, losses = per_layer_adaption(params, batch, rule, cfg.beta, 50)
    assert losses[-1] < losses[0]
    for g in marks:
        got = snaps[g].params
        assert all(np.array_equal(a, b)
                   for a, b in zip(got.weights + got.biases, iterates[g]))
        assert snaps[g].loss_history[:g] == losses[:g]


def test_folded_adam_adaption_tracks_textbook_formula():
    """Folding Adam's bias corrections into the step size changes an
    adaption only by rounding: after 1,000 steps the parameters and every
    step's loss are within 1e-14 (relative) of the textbook update's."""
    cfg = tiny_cfg(beta=1e-3)
    rng = RNG(13)
    params = net.init_params(net.LayerSpec.fnn(3, (9, 7)), rng)
    base = transfer.TrainedModel(params=params, provenance="no-transfer", config=None,
                                 loss_history=[0.0])
    batch = Batch(rng.normal(size=(10, 6)), rng.normal(size=(10, 6)))
    got = transfer.adapt_snapshots(base, batch, cfg, "adam", [1000])[1000]
    iterates, losses = per_layer_adaption(params, batch, "adam", cfg.beta, 1000,
                                          textbook=True)
    want = np.concatenate([a.ravel() for a in iterates[1000]])
    assert losses[-1] < 0.5 * losses[0]
    assert np.max(np.abs(got.params.flat - want)) <= 1e-14 * np.max(np.abs(want))
    history = np.array(got.loss_history[:1000])
    assert np.max(np.abs(history - losses)) <= 1e-14 * max(losses)


def test_adapt_snapshots_never_alias_the_run(monkeypatch):
    """The run steps one set of buffers in place; each snapshot is its own
    copy, and the base model is left untouched."""
    runs = []

    class Recorded(net.Workspace):
        def __init__(self, *args):
            super().__init__(*args)
            runs.append(self)

    monkeypatch.setattr(net, "Workspace", Recorded)
    cfg = tiny_cfg(beta=1e-3)
    base = _fitted_base(cfg)
    before = base.params.flat.copy()
    d_ad, _ = _clean_target_sets(cfg)
    snaps = transfer.adapt_snapshots(base, d_ad, cfg, "adam", [0, 3, 7])
    (run,) = runs
    buffers = [run.params.flat, run.grads.flat, run.work, run.xs, run.ys,
               *run.acts, *run.deltas]
    flats = [base.params.flat] + [snap.params.flat for snap in snaps.values()]
    for i, a in enumerate(flats):
        assert not any(np.shares_memory(a, b) for b in buffers + flats[i + 1:])
    assert np.array_equal(base.params.flat, before)
    assert np.array_equal(snaps[7].params.flat, run.params.flat)
    assert not np.array_equal(snaps[3].params.flat, snaps[7].params.flat)


def test_adapt_snapshots_rejects_unknown_rule():
    cfg = tiny_cfg()
    d_ad, _ = _clean_target_sets(cfg)
    with pytest.raises(ValueError, match="unknown adaption rule 'adamw'"):
        transfer.adapt_snapshots(_fitted_base(cfg), d_ad, cfg, "adamw", [1])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow on the way to inf
def test_diverging_adam_adaption_stops_at_first_non_finite_loss():
    cfg = tiny_cfg(beta=1e100, g_ad=100)
    base = _fitted_base(cfg)
    d_ad, _ = _clean_target_sets(cfg)
    batch = Batch(d_ad.xs, d_ad.ys)
    params, state = base.params.copy(), optim.AdamState.init(base.params)
    for updates in range(cfg.g_ad):
        if not np.isfinite(net.mse_loss(params, batch)):
            break
        params, state = optim.adam_step(state, params, gradient(params, batch), cfg.beta)
    assert 0 < updates < cfg.g_ad - 1

    with pytest.raises(transfer.NonFiniteLoss) as err:
        transfer.adapt_snapshots(base, d_ad, cfg, "adam", [cfg.g_ad])
    assert err.value.stage == "adaption (adam)"
    assert err.value.step == updates


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow on the way to inf
def test_diverging_gd_adaption_stops_at_first_non_finite_loss():
    cfg = tiny_cfg(beta=1.0, g_ad=2000)
    base = _fitted_base(cfg)
    d_ad, _ = _clean_target_sets(cfg)
    batch = Batch(d_ad.xs, d_ad.ys)
    params, updates = base.params.copy(), 0
    while np.isfinite(net.mse_loss(params, batch)):
        params = optim.gd_step(params, gradient(params, batch), cfg.beta)
        updates += 1
    assert 0 < updates < cfg.g_ad

    with pytest.raises(transfer.NonFiniteLoss) as err:
        transfer.adapt_snapshots(base, d_ad, cfg, "gd", [cfg.g_ad])
    assert err.value.stage == "adaption (gd)"
    assert err.value.step == updates
    assert f"at step {updates}:" in str(err.value)
    # The last mark before the divergence still completes.
    snaps = transfer.adapt_snapshots(base, d_ad, cfg, "gd", [updates - 1])
    assert np.isfinite(snaps[updates - 1].loss_history).all()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_diverging_meta_train_names_its_step():
    cfg = tiny_cfg(beta=1.0, gamma=100.0, g_tr=3, max_steps=20)
    envs = [ch.sample_environment(i, cfg.gen, cfg.seed) for i in range(cfg.k_s)]
    with pytest.raises(transfer.NonFiniteLoss) as err:
        transfer.meta_train(envs, cfg, stream(cfg.seed, STREAM_BATCH, 1))
    assert err.value.stage == "meta-training"
    step = err.value.step
    assert 0 < step < cfg.max_steps
    # The same run capped at that many steps stays finite throughout.
    capped = transfer.meta_train(envs, replace(cfg, max_steps=step),
                                 stream(cfg.seed, STREAM_BATCH, 1))
    assert len(capped.loss_history) == step


def test_non_finite_loss_survives_pickling():
    """A worker process sends its divergence back pickled."""
    for loss in (math.inf, math.nan):
        err = pickle.loads(pickle.dumps(transfer.NonFiniteLoss("adaption (gd)", 7, loss)))
        assert type(err) is transfer.NonFiniteLoss
        assert (err.stage, err.step) == ("adaption (gd)", 7)
        assert repr(err.loss) == repr(loss)
        assert str(err) == f"adaption (gd) diverged at step 7: the loss is {loss}"


def test_empty_adaption_set_rejected():
    cfg = tiny_cfg()
    base = _fitted_base(cfg)
    empty = Batch(np.empty((0, 8)), np.empty((0, 8)))
    with pytest.raises(ValueError):
        transfer.direct_adapt(base, empty, cfg)


# ---------------------------------------------------------------------------
# inner loop


def test_inner_adapt_zero_steps():
    omega = scalar_net(1.0)
    out, iterates = transfer.inner_adapt(omega, quadratic_batch(3.0), 0, 1e-2)
    assert iterates == []
    assert np.array_equal(out.weights[0], omega.weights[0])


def test_inner_adapt_quadratic_closed_form():
    w, a, beta = 1.5, 3.0, 0.01
    out, _ = transfer.inner_adapt(scalar_net(w), quadratic_batch(a), 1, beta)
    assert out.weights[0][0, 0] == pytest.approx(w - 2 * beta * (w - a), abs=1e-15)
    assert out.biases[0][0] == 0.0


def test_inner_adapt_matches_manual_composition():
    spec = net.LayerSpec.fnn(2, (6,))
    rng = RNG(0)
    omega = net.init_params(spec, rng)
    batch = Batch(rng.normal(size=(5, 4)), rng.normal(size=(5, 4)))
    out, iterates = transfer.inner_adapt(omega, batch, 3, 1e-3)
    manual = omega.copy()
    for _ in range(3):
        manual = optim.gd_step(manual, gradient(manual, batch), 1e-3)
    assert len(iterates) == 3
    for a, b in zip(out.weights, manual.weights):
        assert np.array_equal(a, b)


def test_inner_adapt_empty_support_hard_error():
    omega = scalar_net(1.0)
    empty = Batch(np.empty((0, 1)), np.empty((0, 1)))
    with pytest.raises(ValueError):
        transfer.inner_adapt(omega, empty, 1, 1e-2)


# ---------------------------------------------------------------------------
# meta-gradient


def test_meta_gradient_no_inner_steps_is_query_gradient_sum():
    spec = net.LayerSpec.fnn(2, (6,))
    rng = RNG(1)
    omega = net.init_params(spec, rng)
    tasks = [(Batch(rng.normal(size=(4, 4)), rng.normal(size=(4, 4))),
              Batch(rng.normal(size=(4, 4)), rng.normal(size=(4, 4))))
             for _ in range(3)]
    expected = net.zeros_like_params(omega)
    for _, que in tasks:
        expected = net.params_axpy(1.0, gradient(omega, que), expected)
    for mode in ("exact", "first-order"):
        got = meta_gradient(omega, tasks, 0, 1e-3, mode)
        assert np.allclose(got.weights[0], expected.weights[0], atol=0)
        assert np.allclose(got.biases[1], expected.biases[1], atol=0)


def test_meta_gradient_quadratic_toy_closed_forms():
    w, a, b, beta = 1.5, 3.0, -1.0, 0.01
    omega = scalar_net(w)
    tasks = [(quadratic_batch(a), quadratic_batch(b))]
    w_prime = w - 2 * beta * (w - a)
    exact = meta_gradient(omega, tasks, 1, beta, "exact")
    first = meta_gradient(omega, tasks, 1, beta, "first-order")
    assert exact.weights[0][0, 0] == pytest.approx(2 * (w_prime - b) * (1 - 2 * beta),
                                                   rel=1e-12)
    assert first.weights[0][0, 0] == pytest.approx(2 * (w_prime - b), rel=1e-12)


@pytest.mark.parametrize("g_tr", [1, 2, 3])
def test_meta_gradient_exact_matches_finite_differences(g_tr):
    spec = net.LayerSpec.fnn(2, (4, 8))
    rng = RNG(2 + g_tr)
    omega = net.init_params(spec, rng)
    tasks = [(Batch(rng.normal(size=(4, 4)), rng.normal(size=(4, 4))),
              Batch(rng.normal(size=(4, 4)), rng.normal(size=(4, 4))))
             for _ in range(2)]
    beta = 1e-3
    grad = meta_gradient(omega, tasks, g_tr, beta, "exact")

    def meta_loss(p):
        total = 0.0
        for sup, que in tasks:
            adapted, _ = transfer.inner_adapt(p, sup, g_tr, beta)
            total += net.mse_loss(adapted, que)
        return total

    # Central-difference step near the f64 optimum for loss values O(1);
    # smaller steps push roundoff above the 1e-5 tolerance.
    eps = 2e-5
    worst = 0.0
    for _ in range(50):
        li = int(rng.integers(0, len(omega.weights)))
        wm = omega.weights[li]
        idx = (int(rng.integers(0, wm.shape[0])), int(rng.integers(0, wm.shape[1])))
        p_plus, p_minus = omega.copy(), omega.copy()
        p_plus.weights[li][idx] += eps
        p_minus.weights[li][idx] -= eps
        fd = (meta_loss(p_plus) - meta_loss(p_minus)) / (2 * eps)
        an = grad.weights[li][idx]
        worst = max(worst, abs(fd - an) / max(abs(fd), abs(an), 1e-10))
    assert worst < 1e-5


def test_first_order_approaches_exact_as_beta_vanishes():
    spec = net.LayerSpec.fnn(2, (4, 8))
    rng = RNG(9)
    omega = net.init_params(spec, rng)
    tasks = [(Batch(rng.normal(size=(4, 4)), rng.normal(size=(4, 4))),
              Batch(rng.normal(size=(4, 4)), rng.normal(size=(4, 4))))]

    def rel_gap(beta):
        exact = meta_gradient(omega, tasks, 1, beta, "exact")
        fo = meta_gradient(omega, tasks, 1, beta, "first-order")
        diff = exact.like(exact.flat - fo.flat)
        return norm(diff) / norm(exact)

    assert rel_gap(1e-8) < 0.05
    assert rel_gap(1e-3) > 1e-10  # the two modes genuinely differ here


def per_task_meta_oracle(omega, tasks, g_tr, beta, mode):
    """The meta step as a loop over tasks with dense weights: ``inner_adapt``,
    the query ``loss_and_grad``, then reverse ``forward_param_jvp`` steps."""
    total_loss = 0.0
    total_grad = net.zeros_like_params(omega)
    for sup, que in tasks:
        adapted, iterates = transfer.inner_adapt(omega, sup, g_tr, beta)
        loss, v = net.loss_and_grad(adapted, que)
        total_loss += loss
        if mode == "exact":
            for iterate in reversed(iterates):
                v = net.params_axpy(-beta, net.forward_param_jvp(iterate, v, sup), v)
        total_grad = net.params_axpy(1.0, v, total_grad)
    return total_loss, total_grad


def random_meta_problem(m, hidden, sizes, seed):
    """Network with nonzero biases and one (support, query) task per size pair."""
    rng = RNG(seed)
    omega = net.init_params(net.LayerSpec.fnn(m, hidden), rng)
    for b in omega.biases:
        b[...] = 0.1 * rng.normal(size=b.shape)
    tasks = [(Batch(rng.normal(size=(n_s, 2 * m)), rng.normal(size=(n_s, 2 * m))),
              Batch(rng.normal(size=(n_q, 2 * m)), rng.normal(size=(n_q, 2 * m))))
             for n_s, n_q in sizes]
    return omega, tasks


def assert_matches_oracle(omega, tasks, g_tr, beta, mode, rtol=1e-10):
    loss, grad = transfer._meta_batch_eval(omega, task_blocks(tasks), g_tr, beta, mode)
    want_loss, want = per_task_meta_oracle(omega, tasks, g_tr, beta, mode)
    assert abs(loss - want_loss) <= rtol * abs(want_loss)
    scale = np.max(np.abs(want.flat))
    assert np.max(np.abs(grad.flat - want.flat)) <= rtol * scale


@pytest.mark.parametrize("m", [1, 4, 16])
@pytest.mark.parametrize("hidden", [(6,), (8, 5), (7, 9, 4)])
def test_meta_batch_eval_matches_per_task_oracle(m, hidden):
    for n_tasks in (1, 3, 4, 5, 9):  # full and partial blocks of _TASK_BLOCK = 4
        for g_tr in (0, 1, 3):
            omega, tasks = random_meta_problem(m, hidden, [(4, 5)] * n_tasks,
                                               seed=100 * m + 10 * n_tasks + g_tr)
            for mode in ("exact", "first-order"):
                assert_matches_oracle(omega, tasks, g_tr, 1e-2, mode)


def test_meta_batch_eval_blocks_split_on_task_sizes():
    sizes = [(4, 5), (4, 5), (6, 5), (6, 5), (6, 5), (6, 5), (6, 5), (6, 3), (4, 5)]
    omega, tasks = random_meta_problem(2, (6, 5), sizes, seed=7)
    blocks = list(task_blocks(tasks))
    assert [b[0].shape[:2] for b in blocks] == [(2, 4), (4, 6), (1, 6), (1, 6), (1, 4)]
    assert [b[2].shape[1] for b in blocks] == [5, 5, 5, 3, 5]
    for g_tr in (0, 1, 3):
        for mode in ("exact", "first-order"):
            assert_matches_oracle(omega, tasks, g_tr, 1e-2, mode)


def test_meta_batch_eval_rejects_bad_input():
    omega, tasks = random_meta_problem(2, (6,), [(4, 5)] * 2, seed=8)
    with pytest.raises(ValueError, match="empty"):
        transfer._meta_batch_eval(omega, task_blocks([]), 1, 1e-2, "exact")
    with pytest.raises(ValueError, match="mode"):
        transfer._meta_batch_eval(omega, task_blocks(tasks), 1, 1e-2,
                                  "second-order")
    empty = Batch(np.empty((0, 4)), np.empty((0, 4)))
    with pytest.raises(ValueError, match="support"):
        transfer._meta_batch_eval(
            omega, task_blocks([tasks[0], (empty, tasks[1][1])]), 1, 1e-2, "exact")
    loss, _ = transfer._meta_batch_eval(omega, task_blocks([(empty, tasks[1][1])]),
                                        0, 1e-2, "exact")
    assert loss == pytest.approx(net.mse_loss(omega, tasks[1][1]), rel=1e-12)


# ---------------------------------------------------------------------------
# meta training


def test_meta_train_bit_identical_given_seed():
    cfg = tiny_cfg(max_steps=5)
    envs = [ch.sample_environment(i, cfg.gen, cfg.seed) for i in range(cfg.k_s)]
    m1 = transfer.meta_train(envs, cfg, stream(cfg.seed, STREAM_BATCH, 1))
    m2 = transfer.meta_train(envs, cfg, stream(cfg.seed, STREAM_BATCH, 1))
    for a, b in zip(m1.params.weights, m2.params.weights):
        assert np.array_equal(a, b)
    assert m1.loss_history == m2.loss_history
    assert m1.derivative_order == cfg.g_tr + 1


def test_meta_train_degenerate_is_query_adam():
    """k_b=1 with no inner steps reduces to Adam on the query losses."""
    cfg = tiny_cfg(k_b=1, g_tr=0, max_steps=4, fixed_task_data=True)
    envs = [ch.sample_environment(i, cfg.gen, cfg.seed) for i in range(cfg.k_s)]
    model = transfer.meta_train(envs, cfg, stream(cfg.seed, STREAM_BATCH, 1))

    # direct construction with the same streams
    rng = stream(cfg.seed, STREAM_BATCH, 1)
    params = transfer.init_network(cfg)
    state = optim.AdamState.init(params)
    cache = {}
    for _ in range(4):
        chosen = int(rng.choice(len(envs), size=1, replace=False)[0])
        env = envs[chosen]
        if env.id not in cache:
            cache[env.id] = transfer._support_query(env, cfg, 0)
        _, que = cache[env.id]
        grads = gradient(params, Batch(que.xs, que.ys))
        params, state = optim.adam_step(state, params, grads, cfg.gamma)
    for a, b in zip(model.params.weights, params.weights):
        assert np.array_equal(a, b)


def per_task_meta_train(envs, cfg, rng):
    """``meta_train`` written out task by task: every task's sets from
    ``_support_query`` (visit 0 throughout under fixed task data), the batch
    through ``task_blocks``, then the outer ``adam_step``."""
    params = transfer.init_network(cfg)
    state = optim.AdamState.init(params)
    visits, history = {}, []
    for _ in range(cfg.max_steps):
        tasks = []
        for i in sorted(int(j) for j in rng.choice(len(envs), size=cfg.k_b, replace=False)):
            visit = 0 if cfg.fixed_task_data else visits.get(i, 0)
            visits[i] = visit + 1
            tasks.append(transfer._support_query(envs[i], cfg, visit))
        loss, grad = transfer._meta_batch_eval(params, task_blocks(tasks), cfg.g_tr,
                                               cfg.beta, cfg.meta_mode)
        params, state = optim.adam_step(state, params, grad, cfg.gamma)
        history.append(loss)
    return params, history


@pytest.mark.parametrize("k_b", [1, 5, 9])
@pytest.mark.parametrize("meta_mode", ["exact", "first-order"])
@pytest.mark.parametrize("noise", ["clean", "awgn", "lmmse"])
def test_block_streamed_meta_train_equals_per_task_loop(noise, meta_mode, k_b):
    """Streaming the meta batch block by block, with each block's tasks
    collected together, changes no bit of the weights or the losses: with
    every task regenerated, with first visits passed in (blocks that mix
    stored and regenerated tasks), and with fixed task data, with and
    without first visits (a store filled as tasks are first visited)."""
    gen = ch.GeneratorConfig(array=ch.ArrayConfig(m=4), users=5,
                             noise=ch.NoiseSpec(snr_db=10.0, pilot_len=4, mode=noise))
    cfg = tiny_cfg(k_b=k_b, n_tr=3, max_steps=2, hidden=(8,), meta_mode=meta_mode, gen=gen)
    envs = [ch.sample_environment(i, gen, cfg.seed) for i in range(cfg.k_s)]
    first_visit = transfer.first_visits(envs, cfg)[:2]
    for fixed, given in ((False, None), (False, first_visit), (True, None), (True, first_visit)):
        c = replace(cfg, fixed_task_data=fixed)
        model = transfer.meta_train(envs, c, stream(c.seed, STREAM_BATCH, 1), given)
        params, history = per_task_meta_train(envs, c, stream(c.seed, STREAM_BATCH, 1))
        assert np.array_equal(model.params.flat, params.flat)
        assert model.loss_history == history


def test_meta_train_rejects_malformed_first_visits():
    """A passed ``first_visit`` must have the stacked shape of
    ``first_visits``: one 4+4-row task per source environment."""
    cfg = tiny_cfg(max_steps=1)
    envs = [ch.sample_environment(i, cfg.gen, cfg.seed) for i in range(cfg.k_s)]
    xs, ys, _ = transfer.first_visits(envs, cfg)
    for bad in ((xs[1:], ys[1:]), (xs, ys[:, :6]), (xs[:, :6], ys[:, :6]), (xs,),
                (xs.reshape(-1, 8), ys.reshape(-1, 8)), (xs[..., :4], ys[..., :4])):
        with pytest.raises(ValueError, match="first_visit .* 4\\+4 rows"):
            transfer.meta_train(envs, cfg, RNG(0), bad)


def test_streamed_blocks_without_a_store_view_the_collected_rows(monkeypatch):
    """With no row store, a block's support and query arrays are views of
    the collector's rows, cut at n_support: nothing is copied."""
    cfg = tiny_cfg(n_tr=7)
    envs = [ch.sample_environment(i, cfg.gen, cfg.seed) for i in range(5)]
    collected = []
    collect_sets = ch.collect_sets

    def recording(*args, **kwargs):
        collected.append(collect_sets(*args, **kwargs))
        return collected[-1]

    monkeypatch.setattr(ch, "collect_sets", recording)
    blocks = [transfer._load_block(block, envs, cfg, None)
              for block in transfer._plan_blocks([(i, 1) for i in range(5)], None, set())]
    assert [b[0].shape[:2] for b in blocks] == [(4, 3), (1, 3)]
    for block, (xs, ys, *_) in zip(blocks, collected):
        for a, rows in zip(block, (xs, ys, xs, ys)):
            assert np.shares_memory(a, rows)
        assert np.array_equal(block[0], xs.reshape(-1, 7, 8)[:, :3])
        assert np.array_equal(block[3], ys.reshape(-1, 7, 8)[:, 3:])


@pytest.mark.parametrize("noise", ["clean", "awgn", "lmmse"])
def test_first_visits_match_per_task_support_query(noise):
    """``first_visits`` holds, per environment, exactly the rows
    ``_support_query`` collects at visit 0: support, then query (odd n_tr,
    a full and a partial block of environments)."""
    gen = ch.GeneratorConfig(array=ch.ArrayConfig(m=4), users=5,
                             noise=ch.NoiseSpec(snr_db=10.0, pilot_len=4, mode=noise))
    cfg = tiny_cfg(k_s=6, n_tr=7, gen=gen)
    envs = [ch.sample_environment(i, gen, cfg.seed) for i in range(cfg.k_s)]
    xs, ys, _ = transfer.first_visits(envs, cfg)
    assert xs.shape == ys.shape == (6, 7, 8)
    for env, x, y in zip(envs, xs, ys):
        sup, que = transfer._support_query(env, cfg, 0)
        assert np.array_equal(x, np.concatenate([sup.xs, que.xs]))
        assert np.array_equal(y, np.concatenate([sup.ys, que.ys]))


def test_fixed_task_data_draws_only_visited_environments(monkeypatch):
    """Under fixed task data without first visits, an environment's task
    is drawn when it is first visited, and only then: 3 steps of one task
    draw combinations for at most 3 environments, each once."""
    cfg = tiny_cfg(k_b=1, max_steps=3, fixed_task_data=True)
    envs = [ch.sample_environment(i, cfg.gen, cfg.seed) for i in range(cfg.k_s)]
    drawn = []
    draw_combos = ch.draw_combos
    monkeypatch.setattr(ch, "draw_combos",
                        lambda env, *a, **k: drawn.append(env.id) or draw_combos(env, *a, **k))
    transfer.meta_train(envs, cfg, RNG(0))
    assert 1 <= len(drawn) <= 3
    assert len(set(drawn)) == len(drawn)


def test_meta_train_step_memory_does_not_grow_with_the_meta_batch():
    """Regenerated task data lives one block at a time, so a step at
    k_b=40 peaks within 1.25x of a step at k_b=8."""
    def step_peak(k_b):
        gen = ch.GeneratorConfig(array=ch.ArrayConfig(m=16), users=25)
        cfg = TrainConfig(k_s=40, k_b=k_b, n_tr=20, u=25, g_tr=3, hidden=(32, 32),
                          max_steps=1, gen=gen)
        envs = [ch.sample_environment(i, gen, cfg.seed) for i in range(cfg.k_s)]
        tracemalloc.start()
        try:
            transfer.meta_train(envs, cfg, RNG(0))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert step_peak(40) <= 1.25 * step_peak(8)


def test_meta_train_loss_decreases_on_small_run(monkeypatch):
    monkeypatch.setattr(transfer, "CONVERGENCE_WINDOW", 1000)  # disable early stop
    cfg = tiny_cfg(k_s=30, k_b=5, g_tr=2, max_steps=400, n_tr=8)
    envs = [ch.sample_environment(i, cfg.gen, cfg.seed) for i in range(cfg.k_s)]
    model = transfer.meta_train(envs, cfg, stream(cfg.seed, STREAM_BATCH, 1))
    h = model.loss_history
    assert len(h) == 400
    assert np.mean(h[-100:]) < np.mean(h[:100])


def test_meta_train_requires_enough_sources():
    cfg = tiny_cfg(k_b=3)
    envs = [ch.sample_environment(i, cfg.gen, cfg.seed) for i in range(2)]
    with pytest.raises(ValueError):
        transfer.meta_train(envs, cfg, RNG(0))


# ---------------------------------------------------------------------------
# meta-step lanes


def lane_cfg(**overrides):
    """9 tasks per step make blocks of 4, 4 and 1. 16 sources over 3 steps
    revisit some, so a step mixes stored and regenerated tasks, and a task
    stored by one lane is read by another in a later step."""
    return tiny_cfg(**{"k_s": 16, "k_b": 9, "n_tr": 3, "max_steps": 3, "hidden": (8,),
                       **overrides})


@pytest.mark.parametrize("meta_mode", ["exact", "first-order"])
@pytest.mark.parametrize("noise", ["clean", "lmmse"])
def test_meta_train_lanes_give_bit_identical_runs(monkeypatch, noise, meta_mode):
    """1, 2 and 3 lanes give the same weights and losses, bit for bit: with
    every task regenerated, with first visits passed in, and with lazy fixed
    task data (the lanes fill one shared row store). Every forked lane has
    exited when ``meta_train`` returns."""
    gen = ch.GeneratorConfig(array=ch.ArrayConfig(m=4), users=5,
                             noise=ch.NoiseSpec(snr_db=10.0, pilot_len=4, mode=noise))
    cfg = lane_cfg(meta_mode=meta_mode, gen=gen)
    envs = [ch.sample_environment(i, gen, cfg.seed) for i in range(cfg.k_s)]
    first_visit = transfer.first_visits(envs, cfg)[:2]
    for fixed, given in ((False, None), (False, first_visit), (True, None)):
        c = replace(cfg, fixed_task_data=fixed)
        runs = []
        for cpus in (1, 2, 3):
            monkeypatch.setattr(lanes, "usable_cpus", lambda: cpus)
            assert transfer.meta_lanes(c) == cpus
            model = transfer.meta_train(envs, c, stream(c.seed, STREAM_BATCH, 1), given)
            assert multiprocessing.active_children() == []
            runs.append((model.params.flat.tobytes(), [x.hex() for x in model.loss_history]))
        assert runs[1] == runs[0] and runs[2] == runs[0], (fixed, given is not None)


def test_meta_step_of_one_block_starts_no_process(monkeypatch):
    """Lanes are capped by the blocks of a step: a step of one block forks
    nothing, however many CPUs there are, and neither does a run of no step."""
    def no_fork():
        raise AssertionError("a process was forked")

    monkeypatch.setattr(lanes, "usable_cpus", lambda: 4)
    monkeypatch.setattr(os, "fork", no_fork)
    cfg = lane_cfg(k_b=transfer._TASK_BLOCK)
    envs = [ch.sample_environment(i, cfg.gen, cfg.seed) for i in range(cfg.k_s)]
    assert transfer.meta_lanes(cfg) == 1
    assert len(transfer.meta_train(envs, cfg, RNG(0)).loss_history) == cfg.max_steps
    assert transfer.meta_lanes(replace(cfg, k_b=9, max_steps=0)) == 1
    transfer.meta_train(envs, replace(cfg, k_b=9, max_steps=0), RNG(0))


def test_daemonic_process_runs_one_lane(monkeypatch):
    """A daemonic process may start no children, so its meta steps run on
    one lane and fork nothing."""
    def no_fork():
        raise AssertionError("a process was forked")

    monkeypatch.setitem(multiprocessing.current_process()._config, "daemon", True)
    monkeypatch.setattr(os, "fork", no_fork)
    cfg = lane_cfg()
    envs = [ch.sample_environment(i, cfg.gen, cfg.seed) for i in range(cfg.k_s)]
    assert lanes.usable_cpus() == 1 and transfer.meta_lanes(cfg) == 1
    assert len(transfer.meta_train(envs, cfg, RNG(0)).loss_history) == cfg.max_steps


def test_error_in_a_forked_lane_reaches_the_caller(monkeypatch):
    """A ``ValueError`` raised in a block that a forked lane runs is raised
    by ``meta_train`` with its type and message, and no lane outlives it."""
    caller = os.getpid()
    meta_block = transfer._meta_block

    def failing_in_lanes(*args, **kwargs):
        if os.getpid() != caller:
            raise ValueError("block failed in a lane")
        return meta_block(*args, **kwargs)

    monkeypatch.setattr(transfer, "_meta_block", failing_in_lanes)
    monkeypatch.setattr(lanes, "usable_cpus", lambda: 3)
    cfg = lane_cfg()
    envs = [ch.sample_environment(i, cfg.gen, cfg.seed) for i in range(cfg.k_s)]
    with pytest.raises(ValueError, match="^block failed in a lane$"):
        transfer.meta_train(envs, cfg, RNG(0))
    assert multiprocessing.active_children() == []


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_diverging_meta_train_names_its_step_on_every_lane_count(monkeypatch):
    """A run that diverges raises ``NonFiniteLoss`` at the same step, with
    the same message, on 1, 2 and 3 lanes, and no lane outlives it."""
    cfg = lane_cfg(n_tr=5, beta=0.3, gamma=100.0, g_tr=3, max_steps=20)
    envs = [ch.sample_environment(i, cfg.gen, cfg.seed) for i in range(cfg.k_s)]
    errors = []
    for cpus in (1, 2, 3):
        monkeypatch.setattr(lanes, "usable_cpus", lambda: cpus)
        with pytest.raises(transfer.NonFiniteLoss) as err:
            transfer.meta_train(envs, cfg, stream(cfg.seed, STREAM_BATCH, 1))
        assert multiprocessing.active_children() == []
        errors.append((err.value.stage, err.value.step, str(err.value)))
    assert errors[0][0] == "meta-training" and 0 < errors[0][1] < cfg.max_steps
    assert errors[1] == errors[0] and errors[2] == errors[0]


def test_support_query_disjoint():
    cfg = tiny_cfg()
    env = ch.sample_environment(0, cfg.gen, cfg.seed)
    sup, que = transfer._support_query(env, cfg, 0)
    assert len(sup) == cfg.n_support and len(que) == cfg.n_query
    assert not (sup.keys() & que.keys())
    # a later visit regenerates different data
    sup2, _ = transfer._support_query(env, cfg, 1)
    assert sup.keys() != sup2.keys()


# ---------------------------------------------------------------------------
# Taylor diagnostic


def taylor_residual(omega, sup, que, beta):
    """How far the one-step meta objective is from its linearisation.

    exact  = L_que(omega - beta * grad L_sup(omega))
    approx = L_que(omega) - beta * <grad L_sup(omega), grad L_que(omega)>

    The gap shrinks quadratically in beta; its sign tracks the curvature of
    the query loss along the support gradient.
    """
    g_sup = gradient(omega, sup)
    loss_que, g_que = net.loss_and_grad(omega, que)
    stepped = optim.gd_step(omega, g_sup, beta) if beta > 0 else omega
    exact = net.mse_loss(stepped, que)
    approx = loss_que - beta * net.params_dot(g_sup, g_que)
    return exact, approx, abs(exact - approx)


def test_taylor_residual_zero_beta():
    rng = RNG(11)
    spec = net.LayerSpec.fnn(2, (6,))
    omega = net.init_params(spec, rng)
    sup = Batch(rng.normal(size=(4, 4)), rng.normal(size=(4, 4)))
    que = Batch(rng.normal(size=(4, 4)), rng.normal(size=(4, 4)))
    exact, approx, residual = taylor_residual(omega, sup, que, 0.0)
    assert residual == 0.0
    assert exact == approx


def test_taylor_residual_quadratic_closed_form():
    """For a linear net the loss is exactly quadratic, so the residual is the
    second-order term: beta^2 * (1/V) sum_v ||G x_v + g||^2 with (G, g) the
    support gradient."""
    rng = RNG(12)
    omega = net.NetParams([rng.normal(size=(3, 3))], [rng.normal(size=3)])
    sup = Batch(rng.normal(size=(5, 3)), rng.normal(size=(5, 3)))
    que = Batch(rng.normal(size=(6, 3)), rng.normal(size=(6, 3)))
    beta = 0.01
    _, _, residual = taylor_residual(omega, sup, que, beta)
    g_sup = gradient(omega, sup)
    expected = beta ** 2 * np.mean(
        np.sum((que.xs @ g_sup.weights[0].T + g_sup.biases[0]) ** 2, axis=1))
    assert residual == pytest.approx(expected, rel=1e-9)


def test_taylor_residual_quadratic_scaling():
    rng = RNG(13)
    spec = net.LayerSpec.fnn(2, (8, 8))
    omega = net.init_params(spec, rng)
    sup = Batch(rng.normal(size=(5, 4)), rng.normal(size=(5, 4)))
    que = Batch(rng.normal(size=(5, 4)), rng.normal(size=(5, 4)))
    beta = 1e-3
    _, _, r_full = taylor_residual(omega, sup, que, beta)
    _, _, r_half = taylor_residual(omega, sup, que, beta / 2)
    assert 0.15 <= r_half / r_full <= 0.35
