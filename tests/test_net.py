"""Network tests: init statistics, forward/backward oracles, HVP checks."""

import pickle

import numpy as np
import pytest
from scipy import stats

from csitransfer import channel as ch
from csitransfer import net, optim

RNG = np.random.default_rng


def random_params(spec, seed=0, scale=0.5):
    rng = RNG(seed)
    return net.NetParams(
        [rng.normal(scale=scale, size=(spec.sizes[l + 1], spec.sizes[l]))
         for l in range(spec.n_layers)],
        [rng.normal(scale=scale, size=spec.sizes[l + 1])
         for l in range(spec.n_layers)])


def random_batch(spec, n, seed=1):
    rng = RNG(seed)
    return net.Batch(rng.normal(size=(n, spec.sizes[0])),
                     rng.normal(size=(n, spec.sizes[-1])))


def flat_index_probe(params, rng, count):
    """Random (is_weight, layer, index) coordinates spread over the tree."""
    probes = []
    for _ in range(count):
        li = int(rng.integers(0, len(params.weights)))
        if rng.uniform() < 0.8:
            w = params.weights[li]
            probes.append(("w", li, (int(rng.integers(0, w.shape[0])),
                                     int(rng.integers(0, w.shape[1])))))
        else:
            b = params.biases[li]
            probes.append(("b", li, int(rng.integers(0, b.shape[0]))))
    return probes


def perturbed(params, probe, eps):
    kind, li, idx = probe
    out = params.copy()
    (out.weights if kind == "w" else out.biases)[li][idx] += eps
    return out


def probe_value(tree, probe):
    kind, li, idx = probe
    return (tree.weights if kind == "w" else tree.biases)[li][idx]


# ---------------------------------------------------------------------------
# LayerSpec / init


def test_layer_spec_validation():
    with pytest.raises(ValueError):
        net.LayerSpec(sizes=(4,), activations=())
    with pytest.raises(ValueError):
        net.LayerSpec(sizes=(4, 8, 6), activations=("relu", "linear"))  # in != out
    with pytest.raises(ValueError):
        net.LayerSpec(sizes=(4, 8, 4), activations=("linear", "linear"))
    with pytest.raises(ValueError):
        net.LayerSpec(sizes=(4, 8, 4), activations=("relu", "relu"))
    spec = net.LayerSpec.fnn(2, (8,))
    assert spec.sizes == (4, 8, 4)
    assert spec.activations == ("relu", "linear")


def test_init_truncated_normal_variance():
    # Oracle: variance of a standard normal truncated at +-2 sigma is
    # 0.7737... (its square root is the often-quoted ~0.88 std factor).
    trunc_var = stats.truncnorm(-2, 2).var()
    assert trunc_var == pytest.approx(0.7737, abs=1e-4)
    spec = net.LayerSpec(sizes=(10000, 4, 10000), activations=("relu", "linear"))
    params = net.init_params(spec, RNG(5))
    w = params.weights[0]  # fan-in 10000 -> sigma^2 = 1e-4
    assert w.shape == (4, 10000)
    emp = w.var()
    assert 0.6 * 1e-4 <= emp <= 1.0 * 1e-4  # clearly reduced vs the raw sigma^2
    assert emp == pytest.approx(trunc_var * 1e-4, rel=0.05)


def test_init_respects_truncation_bound():
    spec = net.LayerSpec(sizes=(100, 50, 100), activations=("relu", "linear"))
    params = net.init_params(spec, RNG(6))
    for l, w in enumerate(params.weights):
        sigma = 1.0 / np.sqrt(w.shape[1])
        assert np.all(np.abs(w) <= 2 * sigma + 1e-15)
    assert all(np.all(b == 0) for b in params.biases)


def test_init_deterministic():
    spec = net.LayerSpec.fnn(4)
    a = net.init_params(spec, RNG(7))
    b = net.init_params(spec, RNG(7))
    for wa, wb in zip(a.weights, b.weights):
        assert np.array_equal(wa, wb)


# ---------------------------------------------------------------------------
# forward


def forward(params, x):
    """The network's output on one input vector."""
    return net.forward_batch(params, x)[0]


def test_forward_zero_params_outputs_zero():
    spec = net.LayerSpec.fnn(3, (8,))
    params = net.NetParams([np.zeros((8, 6)), np.zeros((6, 8))],
                           [np.zeros(8), np.zeros(6)])
    y = forward(params, np.ones(6))
    assert np.array_equal(y, np.zeros(6))


def test_forward_identity_network():
    params = net.NetParams([np.eye(4)], [np.zeros(4)])
    x = RNG(9).normal(size=4)
    assert np.array_equal(forward(params, x), x)


def test_forward_matches_scalar_oracle():
    spec = net.LayerSpec.fnn(2, (5, 7))
    params = random_params(spec, seed=10)
    x = RNG(11).normal(size=4)
    got = forward(params, x)

    a = x.copy()
    for l in range(3):
        z = np.array([float(params.weights[l][i] @ a + params.biases[l][i])
                      for i in range(params.weights[l].shape[0])])
        a = np.maximum(z, 0.0) if l < 2 else z
    assert np.max(np.abs(got - a)) < 1e-12


def test_forward_shape_mismatch():
    params = net.NetParams([np.eye(4)], [np.zeros(4)])
    with pytest.raises(ValueError):
        forward(params, np.ones(5))


def test_forward_positive_homogeneity_without_biases():
    spec = net.LayerSpec.fnn(3, (16, 16))
    params = random_params(spec, seed=12)
    params = net.NetParams(params.weights, [np.zeros_like(b) for b in params.biases])
    x = RNG(13).normal(size=6)
    y1 = forward(params, x)
    y2 = forward(params, 3.7 * x)
    assert np.allclose(y2, 3.7 * y1, rtol=1e-12, atol=1e-12)


# ---------------------------------------------------------------------------
# loss


def test_loss_zero_at_exact_fit():
    params = net.NetParams([np.eye(4)], [np.zeros(4)])
    xs = RNG(14).normal(size=(6, 4))
    assert net.mse_loss(params, net.Batch(xs, xs)) == 0.0


def test_loss_three_four_five():
    spec = net.LayerSpec.fnn(2, (8,))
    params = net.NetParams([np.zeros((8, 4)), np.zeros((4, 8))],
                           [np.zeros(8), np.zeros(4)])
    batch = net.Batch(np.ones((1, 4)), -np.array([[3.0, 4.0, 0.0, 0.0]]))
    assert net.mse_loss(params, batch) == 25.0


def test_loss_matches_scalar_accumulation():
    spec = net.LayerSpec.fnn(2, (6,))
    params = random_params(spec, seed=15)
    batch = random_batch(spec, 7, seed=16)
    got = net.mse_loss(params, batch)
    total = 0.0
    for v in range(7):
        y = forward(params, batch.xs[v])
        for i in range(4):
            total += (y[i] - batch.ys[v, i]) ** 2
    assert got == pytest.approx(total / 7, rel=1e-12)


def test_loss_empty_batch_rejected():
    spec = net.LayerSpec.fnn(2, (6,))
    params = random_params(spec)
    with pytest.raises(ValueError):
        net.mse_loss(params, net.Batch(np.empty((0, 4)), np.empty((0, 4))))


# ---------------------------------------------------------------------------
# backward


def gradient(params, batch):
    """The exact gradient of the batch loss."""
    return net.loss_and_grad(params, batch)[1]


def norm(p):
    return float(np.linalg.norm(p.flat))


def test_backward_zero_at_global_minimum():
    params = net.NetParams([np.eye(4)], [np.zeros(4)])
    xs = RNG(17).normal(size=(5, 4))
    grads = gradient(params, net.Batch(xs, xs))
    assert norm(grads) == 0.0


def test_backward_linear_closed_form():
    rng = RNG(18)
    w = rng.normal(size=(3, 3))
    b = rng.normal(size=3)
    params = net.NetParams([w], [b])
    x = rng.normal(size=3)
    y = rng.normal(size=3)
    grads = gradient(params, net.Batch(x[None, :], y[None, :]))
    resid = w @ x + b - y
    assert np.allclose(grads.weights[0], 2 * np.outer(resid, x), atol=1e-12)
    assert np.allclose(grads.biases[0], 2 * resid, atol=1e-12)


@pytest.mark.parametrize("seed", range(5))
def test_backward_matches_finite_differences(seed):
    spec = net.LayerSpec.fnn(2, (8, 8))
    params = random_params(spec, seed=seed, scale=0.6)
    batch = random_batch(spec, 6, seed=seed + 100)
    grads = gradient(params, batch)
    rng = RNG(seed + 200)
    eps = 1e-5
    for probe in flat_index_probe(params, rng, 100):
        fd = (net.mse_loss(perturbed(params, probe, eps), batch)
              - net.mse_loss(perturbed(params, probe, -eps), batch)) / (2 * eps)
        an = probe_value(grads, probe)
        assert abs(fd - an) / max(abs(fd), abs(an), 1e-10) < 1e-6


def test_task_dataset_goes_where_a_batch_goes():
    """The network reads a task dataset's rows as they are: loss and
    gradient on it are bit-equal to those on a Batch of its arrays."""
    gcfg = ch.GeneratorConfig(array=ch.ArrayConfig(m=2), users=4)
    env = ch.sample_environment(0, gcfg, 1)
    (d,) = ch.generate_task_datasets(env, [("train-support", 6)], gcfg.users,
                                     (gcfg.f_min, gcfg.f_max), gcfg.delta_f, gcfg.array,
                                     ch.NoiseSpec(mode="awgn"), RNG(2))
    params = random_params(net.LayerSpec.fnn(2, (8, 8)), seed=3)
    loss_d, grad_d = net.loss_and_grad(params, d)
    loss_b, grad_b = net.loss_and_grad(params, net.Batch(d.xs, d.ys))
    assert loss_d == loss_b
    assert grad_d.flat.tobytes() == grad_b.flat.tobytes()


def test_backward_affine_in_labels_for_linear_net():
    rng = RNG(19)
    params = net.NetParams([rng.normal(size=(3, 3))], [rng.normal(size=3)])
    xs = rng.normal(size=(4, 3))
    y1, y2 = rng.normal(size=(4, 3)), rng.normal(size=(4, 3))
    g = lambda ys: gradient(params, net.Batch(xs, ys))
    ga, gb = g(y1), g(y2)
    gmid = g(0.5 * y1 + 0.5 * y2)
    mixed = ga.like(0.5 * ga.flat + 0.5 * gb.flat)
    assert np.allclose(gmid.weights[0], mixed.weights[0], atol=1e-12)
    assert np.allclose(gmid.biases[0], mixed.biases[0], atol=1e-12)


# ---------------------------------------------------------------------------
# forward_param_jvp (Hessian-vector products)


def test_jvp_zero_direction():
    spec = net.LayerSpec.fnn(2, (6,))
    params = random_params(spec, seed=20)
    batch = random_batch(spec, 5, seed=21)
    out = net.forward_param_jvp(params, net.zeros_like_params(params), batch)
    assert norm(out) == 0.0


def test_jvp_constant_for_quadratic_loss():
    """A linear net has a constant Hessian: the HVP does not depend on the
    base point along a zero-curvature shift."""
    rng = RNG(22)
    params = net.NetParams([rng.normal(size=(3, 3))], [rng.normal(size=3)])
    batch = net.Batch(rng.normal(size=(5, 3)), rng.normal(size=(5, 3)))
    d = net.NetParams([rng.normal(size=(3, 3))], [rng.normal(size=3)])
    shift = net.NetParams([rng.normal(size=(3, 3))], [rng.normal(size=3)])
    h1 = net.forward_param_jvp(params, d, batch)
    h2 = net.forward_param_jvp(net.params_axpy(1.0, shift, params), d, batch)
    assert np.allclose(h1.weights[0], h2.weights[0], atol=1e-10)
    assert np.allclose(h1.biases[0], h2.biases[0], atol=1e-10)


def test_jvp_matches_finite_difference_of_gradients():
    spec = net.LayerSpec.fnn(2, (8, 8))
    params = random_params(spec, seed=23, scale=0.6)
    batch = random_batch(spec, 6, seed=24)
    rng = RNG(25)
    d = params.like(rng.normal(size=params.flat.shape))
    hvp = net.forward_param_jvp(params, d, batch)
    eps = 1e-4
    gp = gradient(net.params_axpy(eps, d, params), batch)
    gm = gradient(net.params_axpy(-eps, d, params), batch)
    fd = gp.like((gp.flat - gm.flat) / (2 * eps))
    num = float(np.linalg.norm(hvp.flat - fd.flat))
    assert num / norm(fd) < 1e-5


def test_jvp_shape_mismatch_rejected():
    spec = net.LayerSpec.fnn(2, (8,))
    params = random_params(spec, seed=26)
    bad = net.NetParams([np.zeros((3, 4)), np.zeros((4, 3))], [np.zeros(3), np.zeros(4)])
    with pytest.raises(ValueError):
        net.forward_param_jvp(params, bad, random_batch(spec, 3, seed=27))


@pytest.mark.parametrize("seed", range(3))
def test_hvp_symmetry(seed):
    spec = net.LayerSpec.fnn(2, (8, 6))
    params = random_params(spec, seed=seed + 30, scale=0.6)
    batch = random_batch(spec, 5, seed=seed + 40)
    rng = RNG(seed + 50)
    d1 = params.like(rng.normal(size=params.flat.shape))
    d2 = params.like(rng.normal(size=params.flat.shape))
    s1 = net.params_dot(d2, net.forward_param_jvp(params, d1, batch))
    s2 = net.params_dot(d1, net.forward_param_jvp(params, d2, batch))
    assert abs(s1 - s2) / max(abs(s1), abs(s2)) < 1e-8


# ---------------------------------------------------------------------------
# Flat parameter buffer


def per_layer_loss_and_grad(weights, biases, xs, ys):
    """The reverse sweep with one fresh array per layer gradient."""
    n_layers = len(weights)
    acts, pres, a = [xs], [], xs
    for l, (w, b) in enumerate(zip(weights, biases)):
        z = a @ w.T + b
        pres.append(z)
        a = np.maximum(z, 0.0) if l < n_layers - 1 else z
        acts.append(a)
    diff = a - ys
    loss = float(np.sum(diff * diff) / len(xs))
    g_weights, g_biases = [None] * n_layers, [None] * n_layers
    delta = 2.0 / len(xs) * diff
    for l in range(n_layers - 1, -1, -1):
        g_weights[l] = delta.T @ acts[l]
        g_biases[l] = delta.sum(axis=0)
        if l > 0:
            delta = (delta @ weights[l]) * (pres[l - 1] > 0)
    return loss, g_weights, g_biases


def test_params_views_alias_one_flat_buffer():
    spec = net.LayerSpec.fnn(3, (5, 4))
    params = random_params(spec, seed=60)
    assert params.flat.dtype == np.float64 and params.flat.flags.c_contiguous
    assert params.flat.size == sum(w.size + b.size
                                   for w, b in zip(params.weights, params.biases))
    for a in params.weights + params.biases:
        assert np.shares_memory(a, params.flat)
    params.weights[1][2, 3] = 7.5
    params.biases[2][0] = -1.25
    assert 7.5 in params.flat and -1.25 in params.flat


def test_params_constructor_copies_its_inputs():
    rng = RNG(61)
    ws, bs = [rng.normal(size=(4, 3)), rng.normal(size=(3, 4))], [np.zeros(4), np.ones(3)]
    params = net.NetParams(ws, bs)
    ws[0][0, 0] += 1.0
    bs[1][:] = 5.0
    assert params.weights[0][0, 0] == ws[0][0, 0] - 1.0
    assert np.all(params.biases[1] == 1.0)
    assert not any(np.shares_memory(a, b) for a in ws + bs
                   for b in params.weights + params.biases)


def test_params_views_cannot_be_replaced():
    spec = net.LayerSpec.fnn(2, (6,))
    params = random_params(spec, seed=62)
    with pytest.raises(AttributeError):
        params.biases = [np.zeros_like(b) for b in params.biases]
    with pytest.raises(TypeError):
        params.weights[0] = np.zeros_like(params.weights[0])
    assert all(np.shares_memory(a, params.flat) for a in params.weights + params.biases)


def test_params_copy_is_independent():
    spec = net.LayerSpec.fnn(2, (6, 5))
    params = random_params(spec, seed=63)
    before = params.flat.copy()
    dup = params.copy()
    assert not np.shares_memory(dup.flat, params.flat)
    dup.weights[0][:] = 0.0
    dup.biases[-1][:] = 3.0
    assert np.array_equal(params.flat, before)
    params.flat[:] = 1.0
    assert np.all(dup.weights[0] == 0.0)


def test_unpickled_params_step_in_place_like_the_original():
    """A pickled copy rebinds its views to its own buffer, so an in-place
    step on ``flat`` reaches its forward pass as it does the original's."""
    spec = net.LayerSpec.fnn(3, (8, 5))
    params = random_params(spec, seed=74)
    batch = random_batch(spec, 9, seed=75)
    dup = pickle.loads(pickle.dumps(params))
    assert np.array_equal(dup.flat, params.flat) and not np.shares_memory(dup.flat, params.flat)
    assert all(np.shares_memory(a, dup.flat) for a in dup.weights + dup.biases)
    losses = []
    for p in (params, dup):
        ws = net.Workspace(p, batch.xs, batch.ys)
        ws.loss_and_grad()
        optim.gd_update(p, ws.grads, 0.1, ws.work)
        losses.append(ws.loss())
    assert losses[0] == losses[1]
    assert np.array_equal(dup.flat, params.flat)


def test_ravel_order_is_weights_then_biases():
    """The flat buffer holds every weight row-major, then every bias."""
    spec = net.LayerSpec.fnn(2, (6, 5))
    params = random_params(spec, seed=64)
    want = np.concatenate([a.ravel() for a in list(params.weights) + list(params.biases)])
    assert np.array_equal(params.flat, want)


def test_vector_ops_bit_equal_to_per_array_formulas():
    spec = net.LayerSpec.fnn(3, (7, 5))
    a, b = random_params(spec, seed=65), random_params(spec, seed=66)
    pairs = list(zip(a.weights + a.biases, b.weights + b.biases))
    axpy = net.params_axpy(-0.3, a, b)
    assert all(np.array_equal(got, y + -0.3 * x)
               for got, (x, y) in zip(axpy.weights + axpy.biases, pairs))
    into = b.copy()
    assert net.params_axpy(-0.3, a, into, out=into) is into
    assert np.array_equal(into.flat, axpy.flat)
    dot = 0.0
    for x, y in pairs:
        dot += float(np.sum(x * y))
    assert net.params_dot(a, b) == dot
    zeros = net.zeros_like_params(a)
    assert not np.shares_memory(zeros.flat, a.flat) and not np.any(zeros.flat)


@pytest.mark.parametrize("hidden", [(6,), (8, 5), (7, 9, 4)])
def test_loss_and_grad_bit_equal_to_per_layer_formulas(hidden):
    spec = net.LayerSpec.fnn(3, hidden)
    params = random_params(spec, seed=67)
    batch = random_batch(spec, 11, seed=68)
    loss, grads = net.loss_and_grad(params, batch)
    want_loss, want_w, want_b = per_layer_loss_and_grad(
        params.weights, params.biases, batch.xs, batch.ys)
    assert loss == want_loss
    assert all(np.array_equal(g, w) for g, w in zip(grads.weights, want_w))
    assert all(np.array_equal(g, w) for g, w in zip(grads.biases, want_b))
    assert all(np.shares_memory(g, grads.flat) for g in grads.weights + grads.biases)


def test_workspace_reuses_its_buffers_and_reads_params_afresh():
    """A run updates its parameters and input rows in place between calls;
    every call sees both and matches the per-layer formulas bit for bit,
    in the same gradient buffer."""
    spec = net.LayerSpec.fnn(3, (8, 5))
    params = random_params(spec, seed=69)
    batch = random_batch(spec, 9, seed=70)
    ws = net.Workspace(params, batch.xs.copy(), batch.ys.copy())
    grads = ws.grads.flat
    rng = RNG(71)
    for _ in range(3):
        want_loss, want_w, want_b = per_layer_loss_and_grad(
            params.weights, params.biases, ws.xs, ws.ys)
        assert ws.loss() == want_loss
        assert ws.loss_and_grad() == want_loss
        assert ws.grads.flat is grads
        assert all(np.array_equal(g, w) for g, w in zip(ws.grads.weights, want_w))
        assert all(np.array_equal(g, w) for g, w in zip(ws.grads.biases, want_b))
        assert np.array_equal(ws.forward(), net.forward_batch(params, ws.xs))
        params.flat *= 0.9
        ws.xs[...] = rng.normal(size=ws.xs.shape)
    with pytest.raises(ValueError, match="input width"):
        net.Workspace(params, np.ones((2, 5)))


def test_forward_only_workspace_holds_activations_only():
    """Without labels a workspace allocates the activations alone, predicts
    as a full one does, and refuses to score or differentiate."""
    spec = net.LayerSpec.fnn(3, (8, 5))
    params = random_params(spec, seed=72)
    batch = random_batch(spec, 9, seed=73)
    ws = net.Workspace(params, batch.xs)
    assert [a.shape for a in ws.acts] == [(9, 6), (9, 8), (9, 5), (9, 6)]
    assert not any(hasattr(ws, name) for name in ("masks", "deltas", "grads", "work"))
    assert np.array_equal(ws.forward(), net.Workspace(params, batch.xs, batch.ys).forward())
    for call in (ws.loss, ws.loss_and_grad):
        with pytest.raises(ValueError, match="forward-only workspace has no labels"):
            call()
