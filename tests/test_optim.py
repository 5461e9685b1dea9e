"""Optimizer tests against elementwise and scalar reimplementation oracles."""

import math

import numpy as np
import pytest

from csitransfer import net, optim


def scalar_params(w):
    return net.NetParams([np.array([[float(w)]])], [np.zeros(1)])


def scalar_grads(g):
    return net.NetParams([np.array([[float(g)]])], [np.zeros(1)])


def w_of(params):
    return float(params.weights[0][0, 0])


class ScalarAdamOracle:
    """Independent scalar reimplementation straight from the update rule."""

    def __init__(self, rho1=0.9, rho2=0.999, eps=1e-8):
        self.m = 0.0
        self.v = 0.0
        self.t = 0
        self.rho1, self.rho2, self.eps = rho1, rho2, eps

    def step(self, w, g, gamma):
        self.t += 1
        self.m = self.rho1 * self.m + (1 - self.rho1) * g
        self.v = self.rho2 * self.v + (1 - self.rho2) * g * g
        m_hat = self.m / (1 - self.rho1 ** self.t)
        v_hat = self.v / (1 - self.rho2 ** self.t)
        return w - gamma * m_hat / (math.sqrt(v_hat) + self.eps)


# ---------------------------------------------------------------------------
# gd_step


def test_gd_scalar_example():
    out = optim.gd_step(scalar_params(1.0), scalar_grads(2.0), 0.1)
    assert w_of(out) == pytest.approx(0.8, abs=1e-15)


def test_gd_zero_gradient_is_identity():
    p = scalar_params(3.0)
    out = optim.gd_step(p, scalar_grads(0.0), 0.5)
    assert w_of(out) == 3.0


def test_gd_matches_elementwise_oracle_exactly():
    rng = np.random.default_rng(0)
    p = net.NetParams([rng.normal(size=(4, 3))], [rng.normal(size=4)])
    g = net.NetParams([rng.normal(size=(4, 3))], [rng.normal(size=4)])
    beta = 0.017
    out = optim.gd_step(p, g, beta)
    # same operation order -> bitwise identical
    assert np.array_equal(out.weights[0], p.weights[0] - beta * g.weights[0])
    assert np.array_equal(out.biases[0], p.biases[0] - beta * g.biases[0])


def test_gd_rejects_bad_arguments():
    p = scalar_params(1.0)
    with pytest.raises(ValueError):
        optim.gd_step(p, scalar_grads(1.0), 0.0)
    bad = net.NetParams([np.zeros((2, 2))], [np.zeros(2)])
    with pytest.raises(ValueError):
        optim.gd_step(p, bad, 0.1)


# ---------------------------------------------------------------------------
# adam_step


def test_adam_first_step_bias_corrected():
    p = scalar_params(0.0)
    state = optim.AdamState.init(p)
    out, state = optim.adam_step(state, p, scalar_grads(1.0), 1e-3)
    # first step: m_hat = g, v_hat = g^2 -> update = -gamma * g / (|g| + eps)
    assert w_of(out) == pytest.approx(-1e-3 / (1 + 1e-8), abs=1e-18)
    assert state.t == 1


def test_adam_zero_gradient_keeps_params():
    p = scalar_params(2.0)
    state = optim.AdamState.init(p)
    out, _ = optim.adam_step(state, p, scalar_grads(0.0), 1e-3)
    assert w_of(out) == 2.0


def test_adam_trajectory_matches_scalar_oracle():
    gamma = 0.1
    p = scalar_params(1.0)
    state = optim.AdamState.init(p)
    oracle = ScalarAdamOracle()
    w_oracle = 1.0
    for _ in range(100):
        g = 2.0 * w_of(p)  # gradient of w^2
        p, state = optim.adam_step(state, p, scalar_grads(g), gamma)
        w_oracle = oracle.step(w_oracle, 2.0 * w_oracle, gamma)
        assert w_of(p) == pytest.approx(w_oracle, abs=1e-12)
    assert abs(w_of(p)) < 0.05


def test_adam_update_magnitude_bounded():
    rng = np.random.default_rng(1)
    p = net.NetParams([rng.normal(size=(3, 3))], [rng.normal(size=3)])
    state = optim.AdamState.init(p)
    gamma = 1e-2
    for _ in range(200):
        g = net.NetParams([rng.normal(size=(3, 3)) * 10.0 ** float(rng.integers(-3, 3))],
                          [rng.normal(size=3)])
        new_p, state = optim.adam_step(state, p, g, gamma)
        delta = np.max(np.abs(new_p.weights[0] - p.weights[0]))
        assert delta <= 3 * gamma + 1e-15
        p = new_p


def test_adam_sign_agreement_for_constant_gradient():
    rng = np.random.default_rng(2)
    p = net.NetParams([rng.normal(size=(3, 3))], [rng.normal(size=3)])
    g = net.NetParams([rng.normal(size=(3, 3))], [rng.normal(size=3)])
    state = optim.AdamState.init(p)
    for t in range(1, 11):
        new_p, state = optim.adam_step(state, p, g, 1e-3)
        if t >= 5:
            delta_w = new_p.weights[0] - p.weights[0]
            assert np.all(np.sign(delta_w) == -np.sign(g.weights[0]))
            delta_b = new_p.biases[0] - p.biases[0]
            assert np.all(np.sign(delta_b) == -np.sign(g.biases[0]))
        p = new_p


def test_adam_bit_deterministic():
    rng = np.random.default_rng(3)
    p = net.NetParams([rng.normal(size=(4, 4))], [rng.normal(size=4)])
    g = net.NetParams([rng.normal(size=(4, 4))], [rng.normal(size=4)])
    s0 = optim.AdamState.init(p)
    a1, sa = optim.adam_step(s0, p, g, 1e-3)
    b1, sb = optim.adam_step(optim.AdamState.init(p), p, g, 1e-3)
    assert np.array_equal(a1.weights[0], b1.weights[0])
    assert np.array_equal(sa.m.weights[0], sb.m.weights[0])
    assert sa.t == sb.t == 1


def test_adam_state_moments_nonnegative_v():
    rng = np.random.default_rng(4)
    p = net.NetParams([rng.normal(size=(3, 3))], [rng.normal(size=3)])
    state = optim.AdamState.init(p)
    for _ in range(50):
        g = net.NetParams([rng.normal(size=(3, 3))], [rng.normal(size=3)])
        p, state = optim.adam_step(state, p, g, 1e-3)
        assert np.all(state.v.weights[0] >= 0)
    assert state.t == 50


# ---------------------------------------------------------------------------
# Flat-buffer updates against the per-array formulas


def per_array_adam(m, v, t, params, grads, gamma, rho1=0.9, rho2=0.999, eps=1e-8):
    """One Adam step over lists of arrays, one fresh array per expression,
    with both bias corrections folded into the step size and epsilon."""
    m = [rho1 * ms + (1.0 - rho1) * g for ms, g in zip(m, grads)]
    v = [rho2 * vs + (1.0 - rho2) * g * g for vs, g in zip(v, grads)]
    root_c2 = math.sqrt(1.0 - rho2 ** t)
    alpha, eps_hat = gamma * root_c2 / (1.0 - rho1 ** t), eps * root_c2
    params = [p - alpha * (ms / (np.sqrt(vs) + eps_hat))
              for p, ms, vs in zip(params, m, v)]
    return params, m, v


def two_layer(rng, n_in=4, n_hidden=5):
    return net.NetParams(
        [rng.normal(size=(n_hidden, n_in)), rng.normal(size=(n_in, n_hidden))],
        [rng.normal(size=n_hidden), rng.normal(size=n_in)])


def arrays(p):
    return list(p.weights + p.biases)


@pytest.mark.parametrize("n_in, n_hidden", [(4, 5), (120, 150)])
def test_adam_bit_equal_to_per_array_formulas(n_in, n_hidden):
    rng = np.random.default_rng(5)
    p = two_layer(rng, n_in, n_hidden)
    state = optim.AdamState.init(p)
    want = arrays(p)
    m = [np.zeros_like(a) for a in want]
    v = [np.zeros_like(a) for a in want]
    for t in range(1, 31):
        g = two_layer(rng, n_in, n_hidden)
        g.flat[:] *= 10.0 ** float(rng.integers(-4, 3))
        p, state = optim.adam_step(state, p, g, 3e-2)
        want, m, v = per_array_adam(m, v, t, want, arrays(g), 3e-2)
        assert all(np.array_equal(a, b) for a, b in zip(arrays(p), want))
        assert all(np.array_equal(a, b) for a, b in zip(arrays(state.m), m))
        assert all(np.array_equal(a, b) for a, b in zip(arrays(state.v), v))


def test_adam_advances_its_state_in_place():
    rng = np.random.default_rng(6)
    p, g = two_layer(rng), two_layer(rng)
    p_before, g_before = p.ravel(), g.ravel()
    state = optim.AdamState.init(p)
    m_buf, v_buf = state.m.flat, state.v.flat
    new_p, returned = optim.adam_step(state, p, g, 1e-3)
    assert returned is state and state.t == 1
    assert state.m.flat is m_buf and state.v.flat is v_buf
    assert np.array_equal(m_buf, (1.0 - 0.9) * g.flat) and np.any(v_buf)
    # pure in the parameters: inputs untouched, result a fresh buffer
    assert np.array_equal(p.ravel(), p_before) and np.array_equal(g.ravel(), g_before)
    assert not np.shares_memory(new_p.flat, p.flat)
    _, again = optim.adam_step(state, new_p, g, 1e-3)
    assert again is state and state.t == 2


def test_gd_leaves_its_inputs_untouched():
    rng = np.random.default_rng(7)
    p, g = two_layer(rng), two_layer(rng)
    p_before, g_before = p.ravel(), g.ravel()
    out = optim.gd_step(p, g, 0.25)
    assert np.array_equal(p.ravel(), p_before) and np.array_equal(g.ravel(), g_before)
    assert not np.shares_memory(out.flat, p.flat) and not np.shares_memory(out.flat, g.flat)
    assert all(np.array_equal(a, b - 0.25 * c)
               for a, b, c in zip(arrays(out), arrays(p), arrays(g)))


def test_in_place_updates_equal_the_pure_steps():
    """The in-place forms write the pure steps' bits into the parameters;
    GD may take the gradient buffer itself as its scratch."""
    rng = np.random.default_rng(8)
    p = two_layer(rng)
    state, pure_state = optim.AdamState.init(p), optim.AdamState.init(p)
    pure, live, work = p, p.copy(), np.empty_like(p.flat)
    for _ in range(5):
        g = two_layer(rng)
        pure, _ = optim.adam_step(pure_state, pure, g, 1e-2)
        optim.adam_update(state, live, g, 1e-2, work)
        assert np.array_equal(live.flat, pure.flat)
        assert np.array_equal(state.v.flat, pure_state.v.flat) and state.t == pure_state.t
    want = optim.gd_step(live, g, 0.25)
    optim.gd_update(live, g, 0.25, g.flat)
    assert np.array_equal(live.flat, want.flat)
