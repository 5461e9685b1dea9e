"""Channel simulator tests: manifold, ray sums, noise pipeline, datasets."""

import math
import pickle
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from csitransfer import channel as ch
from csitransfer import lanes, transfer
from csitransfer.seeding import STREAM_COVARIANCE, STREAM_ENV, STREAM_TASK_DATA, stream

RNG = np.random.default_rng


def make_env(as_lower=-0.1, as_upper=0.1, env_id=0, seed=123):
    return ch.Environment(id=env_id, as_lower=as_lower, as_upper=as_upper, seed=seed)


# ---------------------------------------------------------------------------
# Oracles: one user's draws and the array manifold


def sample_user(env, rng, delay_max=ch.DEFAULT_DELAY_MAX):
    """One user's rays, drawn with numpy's own uniform and Rayleigh calls."""
    return _oracle_users(env, rng, 1, delay_max)[0]


def oracle_varpi(f):
    """2 pi d f / c at carrier ``f``, for the spacing d = c / 4e9 (half a
    wavelength at 2 GHz) and c = 299,792,458 m/s."""
    return 2.0 * math.pi * (299_792_458.0 / 4.0e9) * f / 299_792_458.0


def array_manifold(theta, f, cfg):
    """Steering vector of the array toward ``theta`` at carrier ``f``: entry
    m is exp(-j (2 pi d f / c) m sin theta)."""
    return np.exp(-1j * oracle_varpi(f) * np.arange(cfg.m) * math.sin(theta))


def unit_ray(theta):
    """One ray of unit amplitude, zero phase and zero delay toward
    ``theta``, whose channel is the array manifold."""
    return ch.UserRays(doas=np.array([theta]), amplitudes=np.array([1.0]),
                       phases=np.array([0.0]), delays=np.array([0.0]))


# ---------------------------------------------------------------------------
# the array manifold, as the channel of a unit ray


def test_manifold_broadside_is_all_ones():
    cfg = ch.ArrayConfig(m=4)
    assert np.allclose(ch.channel_response(unit_ray(0.0), 2e9, cfg), np.ones(4), atol=0)


def test_manifold_endfire_half_wavelength():
    f = 2e9
    cfg = ch.ArrayConfig(m=2)  # half a wavelength apart at f
    v = ch.channel_response(unit_ray(math.pi / 2), f, cfg)
    assert np.allclose(v, [1.0, -1.0], atol=1e-12)


def test_manifold_matches_scalar_oracle():
    theta, f = 0.3, 2e9
    cfg = ch.ArrayConfig(m=8)
    got = ch.channel_response(unit_ray(theta), f, cfg)
    varpi = oracle_varpi(f)
    for m in range(8):
        expected = complex(math.cos(-varpi * m * math.sin(theta)),
                           math.sin(-varpi * m * math.sin(theta)))
        assert got[m] == pytest.approx(expected, rel=1e-14)


def test_manifold_rejects_bad_arguments():
    cfg = ch.ArrayConfig(m=4)
    with pytest.raises(ValueError, match="carrier"):
        ch.channel_response(unit_ray(0.0), 0.0, cfg)
    with pytest.raises(ValueError, match="carrier"):
        ch.channel_response(unit_ray(0.0), -1e9, cfg)
    with pytest.raises(ValueError, match="ray doas must be finite"):
        ch.channel_response(unit_ray(math.nan), 2e9, cfg)
    with pytest.raises(ValueError, match="ray delays must be finite"):
        ch.channel_response(replace(unit_ray(0.0), delays=np.array([math.inf])), 2e9, cfg)


# ---------------------------------------------------------------------------
# sample_environment


def test_environment_deterministic():
    gcfg = ch.GeneratorConfig()
    assert ch.sample_environment(3, gcfg, 11) == ch.sample_environment(3, gcfg, 11)
    assert ch.sample_environment(3, gcfg, 11) != ch.sample_environment(4, gcfg, 11)
    assert ch.sample_environment(3, gcfg, 11) != ch.sample_environment(3, gcfg, 12)


@pytest.mark.parametrize("master_seed", [0, 7, 12345, 2**40 + 3])
def test_environment_equals_two_sequence_oracle(master_seed):
    """One hashed seed sequence gives what building it twice gave: the
    generator's draws from one copy and the stored seed from the other."""
    gcfg = ch.GeneratorConfig()
    for env_id in (0, 1, 59, 1499):
        key = dict(entropy=master_seed, spawn_key=(STREAM_ENV, env_id))
        rng = np.random.default_rng(np.random.SeedSequence(**key))
        width = rng.uniform(0.05, 0.2)
        center = rng.uniform(-math.pi / 2 + width / 2, math.pi / 2 - width / 2)
        want = ch.Environment(
            id=env_id, as_lower=center - width / 2, as_upper=center + width / 2,
            seed=int(np.random.SeedSequence(**key).generate_state(1, np.uint64)[0]))
        assert ch.sample_environment(env_id, gcfg, master_seed) == want


def test_environment_width_mean_matches_uniform_law():
    gcfg = ch.GeneratorConfig()
    widths = np.array([ch.sample_environment(i, gcfg, 99).as_upper
                       - ch.sample_environment(i, gcfg, 99).as_lower
                       for i in range(1000)])
    se = (0.15 / math.sqrt(12)) / math.sqrt(len(widths))
    assert abs(widths.mean() - 0.125) < 3 * se


# ---------------------------------------------------------------------------
# user draws


def test_user_degenerate_angle_spread():
    env = make_env(as_lower=0.2, as_upper=0.2 + 1e-9)
    user = sample_user(env, RNG(0))
    assert np.all(np.abs(user.doas - 0.2) <= 1e-9)


def test_user_zero_amplitude_gives_zero_channel():
    user = ch.UserRays(doas=np.array([0.05]), amplitudes=np.array([0.0]),
                       phases=np.array([1.0]), delays=np.array([1e-9]))
    for f in (1e9, 2.2e9):
        h = ch.channel_response(user, f, ch.ArrayConfig(m=6))
        assert np.all(h == 0)


def test_user_doa_distribution_kolmogorov_smirnov():
    env = make_env(as_lower=-0.3, as_upper=0.1)
    rng = RNG(42)
    doas = np.concatenate([sample_user(env, rng).doas for _ in range(400)])
    n = doas.size
    assert n == 10000
    stat = stats.kstest(doas, stats.uniform(loc=-0.3, scale=0.4).cdf).statistic
    critical_5pct = 1.36 / math.sqrt(n)
    assert stat < critical_5pct


def test_user_delays_within_bound():
    env = make_env()
    user = sample_user(env, RNG(1), delay_max=3e-9)
    assert np.all((user.delays >= 0) & (user.delays <= 3e-9))


# ---------------------------------------------------------------------------
# channel_response


def test_single_unit_ray_equals_manifold():
    cfg = ch.ArrayConfig(m=5)
    theta = 0.4
    h = ch.channel_response(unit_ray(theta), 1.7e9, cfg)
    assert np.allclose(h, array_manifold(theta, 1.7e9, cfg), atol=1e-14)


def test_opposite_phases_cancel():
    cfg = ch.ArrayConfig(m=4)
    user = ch.UserRays(doas=np.array([0.2, 0.2]),
                       amplitudes=np.array([1.0, 1.0]),
                       phases=np.array([0.0, math.pi]),
                       delays=np.array([1e-9, 1e-9]))
    h = ch.channel_response(user, 2e9, cfg)
    assert np.max(np.abs(h)) < 1e-12


def test_response_matches_double_loop_oracle():
    cfg = ch.ArrayConfig(m=16)
    user = sample_user(make_env(), RNG(3))
    f = 2.4e9
    got = ch.channel_response(user, f, cfg)
    varpi = oracle_varpi(f)
    expected = np.zeros(cfg.m, dtype=complex)
    for p in range(25):
        gain = user.amplitudes[p] * np.exp(
            1j * (user.phases[p] - 2 * math.pi * f * user.delays[p]))
        for m in range(cfg.m):
            expected[m] += gain * np.exp(-1j * varpi * m * math.sin(user.doas[p]))
    assert np.max(np.abs(got - expected)) / np.max(np.abs(expected)) < 1e-12


def test_response_homogeneous_in_amplitudes():
    cfg = ch.ArrayConfig(m=8)
    user = sample_user(make_env(), RNG(4))
    scaled = ch.UserRays(doas=user.doas, amplitudes=2.5 * user.amplitudes,
                         phases=user.phases, delays=user.delays)
    h1 = ch.channel_response(user, 1.3e9, cfg)
    h2 = ch.channel_response(scaled, 1.3e9, cfg)
    assert np.max(np.abs(h2 - 2.5 * h1)) <= 1e-12 * np.max(np.abs(h2))


def test_response_triangle_inequality_bound():
    cfg = ch.ArrayConfig(m=12)
    for seed in range(5):
        user = sample_user(make_env(), RNG(seed))
        for f in (1e9, 2e9, 3e9):
            h = ch.channel_response(user, f, cfg)
            bound = math.sqrt(cfg.m) * user.amplitudes.sum()
            assert np.linalg.norm(h) <= bound * (1 + 1e-12)


@pytest.mark.parametrize("m", [1, 5, 64])
@pytest.mark.parametrize("rows", [1, 49, 50, 51, 160])
def test_ray_sum_slices_change_no_bit(rows, m):
    """The kernel runs its rows in slices of ``_POOL_BLOCK``: each row of a
    batch, at its own carrier, equals bit for bit the same row summed
    alone, and leading batch axes keep their shape."""
    cfg = ch.ArrayConfig(m=m)
    rng = RNG(1000 * m + rows)
    sin_doas = np.sin(rng.uniform(-1.5, 1.5, size=(rows, 25)))
    gains = rng.normal(size=(rows, 25)) + 1j * rng.normal(size=(rows, 25))
    f = rng.uniform(1e9, 3e9, size=(rows, 1))
    got = ch._ray_sum(sin_doas, gains, f, cfg)
    assert got.shape == (rows, m)
    for i in range(rows):
        assert np.array_equal(got[i], ch._ray_sum(sin_doas[i], gains[i], f[i, 0], cfg))
    stacked = ch._ray_sum(sin_doas[None], gains[None], f[None], cfg)
    assert stacked.shape == (1, rows, m) and np.array_equal(stacked[0], got)


# ---------------------------------------------------------------------------
# real/complex isomorphism


def test_stacking_definition():
    v = ch.complex_to_real(np.array([3 + 4j, 1 - 1j]))
    assert np.array_equal(v, [3.0, 1.0, 4.0, -1.0])


def test_zero_maps_to_zero():
    assert np.array_equal(ch.complex_to_real(np.zeros(3, dtype=complex)), np.zeros(6))


@settings(max_examples=50, deadline=None)
@given(st.lists(st.complex_numbers(allow_nan=False, allow_infinity=False,
                                   max_magnitude=1e100), min_size=1, max_size=32))
def test_roundtrip_is_identity(zs):
    z = np.array(zs, dtype=complex)
    assert np.array_equal(ch.real_to_complex(ch.complex_to_real(z)), z)


def test_odd_length_rejected():
    with pytest.raises(ValueError):
        ch.real_to_complex(np.zeros(5))


# ---------------------------------------------------------------------------
# noise pipeline


def test_awgn_vanishes_at_high_snr():
    h = ch.channel_response(sample_user(make_env(), RNG(5)), 2e9, ch.ArrayConfig(m=8))
    out = ch.add_awgn(h, 300.0, 64, RNG(6))
    assert np.max(np.abs(out - h)) / np.max(np.abs(h)) < 1e-10


@pytest.mark.parametrize("mode", [ch.NOISE_AWGN, ch.NOISE_LMMSE])
def test_infinite_snr_collects_the_noiseless_limit(mode, monkeypatch):
    """At snr_db=+inf the noise variance is 0, so noisy collection gives the
    clean channels: labels bit-equal to the clean labels, and inputs
    bit-equal to those of a clean collection of the same draws. LMMSE
    builds no covariance for it, as each estimate is its observation."""
    monkeypatch.setattr(lanes, "usable_cpus", lambda: 1)  # every estimate in the caller
    at, calls = ch.EnvCovariance.at, []
    monkeypatch.setattr(ch.EnvCovariance, "at",
                        lambda self, f: calls.append(f) or at(self, f))
    gen = _default_gen(m=4, users=5)
    env = ch.sample_environment(3, gen, 11)
    roles = [(ch.ROLE_ADAPTION, 6), (ch.ROLE_TEST, 5)]

    def collect(noise):
        return ch.generate_task_datasets(env, roles, gen.users, (gen.f_min, gen.f_max),
                                         gen.delta_f, gen.array, noise, RNG(12))

    clean = collect(ch.NoiseSpec(mode=ch.NOISE_CLEAN))
    for got, want in zip(collect(ch.NoiseSpec(snr_db=math.inf, mode=mode)), clean):
        assert got.ys.tobytes() == got.y_clean.tobytes() == want.ys.tobytes()
        assert got.xs.tobytes() == want.xs.tobytes()
    assert calls == []


def test_awgn_empirical_snr():
    cfg = ch.ArrayConfig(m=8)
    h = ch.channel_response(sample_user(make_env(), RNG(7)), 2e9, cfg)
    rng = RNG(8)
    sig = float(np.vdot(h, h).real)
    noise_power = np.mean([np.sum(np.abs(ch.add_awgn(h, 20.0, 1, rng) - h) ** 2)
                           for _ in range(10_000)])
    snr_emp = 10 * math.log10(sig / noise_power)
    assert abs(snr_emp - 20.0) < 0.2


def test_awgn_pilot_gain():
    cfg = ch.ArrayConfig(m=8)
    h = ch.channel_response(sample_user(make_env(), RNG(9)), 2e9, cfg)
    rng = RNG(10)
    p1 = np.mean([np.sum(np.abs(ch.add_awgn(h, 20.0, 1, rng) - h) ** 2)
                  for _ in range(10_000)])
    p64 = np.mean([np.sum(np.abs(ch.add_awgn(h, 20.0, 64, rng) - h) ** 2)
                   for _ in range(10_000)])
    assert p64 / p1 == pytest.approx(1 / 64, rel=0.05)


def test_lmmse_noiseless_identity():
    y = RNG(11).normal(size=4) + 1j * RNG(12).normal(size=4)
    r = np.eye(4)
    assert np.array_equal(ch.lmmse_estimate(y, r, 0.0), y)


def test_lmmse_identity_covariance_shrinks():
    y = RNG(13).normal(size=4) + 1j * RNG(14).normal(size=4)
    s = 0.3
    est = ch.lmmse_estimate(y, np.eye(4), s)
    assert np.allclose(est, y / (1 + s), atol=1e-14)


def test_lmmse_matches_dense_inverse_oracle():
    rng = RNG(15)
    a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    r = a @ a.conj().T / 6
    y = rng.normal(size=6) + 1j * rng.normal(size=6)
    got = ch.lmmse_estimate(y, r, 0.1)
    expected = r @ np.linalg.inv(r + 0.1 * np.eye(6)) @ y
    assert np.max(np.abs(got - expected)) < 1e-10


def test_lmmse_rejects_non_hermitian():
    r = np.eye(3)
    r[0, 1] = 1e-6
    with pytest.raises(ValueError, match="Hermitian"):
        ch.lmmse_estimate(np.ones(3, dtype=complex), r, 0.1)


def test_lmmse_beats_raw_observation():
    """Estimator optimality: LMMSE MSE below raw-observation MSE on matched draws."""
    cfg = ch.ArrayConfig(m=8)
    env = ch.sample_environment(3, ch.GeneratorConfig(array=cfg), 5)
    cov = ch.EnvCovariance(env, cfg, 120e6)
    rng = RNG(16)
    mse_raw, mse_lmmse = [], []
    for _ in range(1000):
        user = sample_user(env, rng)
        h = ch.channel_response(user, 2e9, cfg)
        if np.vdot(h, h).real == 0:
            continue
        y = ch.add_awgn(h, 0.0, 1, rng)
        sigma2 = ch.noise_variance(h, 0.0, 1)
        est = ch.lmmse_estimate(y, cov.at(2e9)[0], sigma2)
        mse_raw.append(np.sum(np.abs(y - h) ** 2))
        mse_lmmse.append(np.sum(np.abs(est - h) ** 2))
    assert np.mean(mse_lmmse) < np.mean(mse_raw)


@pytest.mark.parametrize("f", [0.0, -1e9, float("nan")])
def test_covariance_rejects_bad_carrier(f):
    cov = ch.EnvCovariance(make_env(), ch.ArrayConfig(m=4), 120e6)
    with pytest.raises(ValueError, match="carrier"):
        cov.at(f)


def _eye_covariance(cov, f):
    """The covariance at ``f`` as built link by link before pairs: the whole
    pool's gains at once, a ray sum per block, and the ridge as
    ``r + c * np.eye(m)``."""
    gains = ch._ray_gains(cov._rays, f)
    n, m = gains.shape[0], cov.cfg.m
    r = np.zeros((m, m), dtype=complex)
    for i in range(0, n, ch._POOL_BLOCK):
        h = ch._ray_sum(cov._sin_doas[i:i + ch._POOL_BLOCK], gains[i:i + ch._POOL_BLOCK],
                        f, cov.cfg)
        r += h.T @ h.conj()
    r /= n
    return r + ch._RIDGE * (np.trace(r).real / m) * np.eye(m)


@pytest.mark.parametrize("m", [4, 16, 64])
def test_pair_covariances_match_single_carrier_ones(m):
    """One pass gives a link pair's covariances: the uplink's has the bits
    of the covariance at f alone, and the downlink's, built from the
    uplink's rays times the duplex offsets, is the uplink covariance at
    f + delta_f of a covariance built for another offset, to 1e-12
    relative."""
    cfg = ch.ArrayConfig(m=m)
    env = ch.sample_environment(4, ch.GeneratorConfig(array=cfg), 9)
    cov, other = ch.EnvCovariance(env, cfg, 120e6), ch.EnvCovariance(env, cfg, -35e6)
    for f in (1.0e9, 1.83e9, 2.97e9):
        up, down = cov.at(f)
        assert np.array_equal(up, _eye_covariance(cov, f))
        single = other.at(f + 120e6)[0]
        assert np.max(np.abs(down - single)) <= 1e-12 * np.max(np.abs(single))


def test_covariance_does_not_change_after_it_is_built():
    """Evaluating a covariance at two carriers leaves every attribute with
    the bytes that construction gave it, so a lane forked at any time
    inherits the same state."""
    cfg = ch.ArrayConfig(m=8)
    cov = ch.EnvCovariance(ch.sample_environment(2, ch.GeneratorConfig(array=cfg), 3), cfg,
                           delta_f=120e6)
    built = pickle.dumps(vars(cov))
    first = cov.at(1.4e9)
    assert not np.array_equal(cov.at(2.6e9), first)
    assert pickle.dumps(vars(cov)) == built


def test_diagonal_loads_equal_the_eye_forms():
    """The ridge of :meth:`EnvCovariance.at` and the sigma^2 load of
    :func:`lmmse_estimate` go onto the diagonal in place, with the bits of
    adding ``c * np.eye(m)``."""
    cfg = ch.ArrayConfig(m=16)
    cov = ch.EnvCovariance(ch.sample_environment(2, ch.GeneratorConfig(array=cfg), 3), cfg,
                           120e6)
    for f in (1.2e9, 2.5e9):
        assert np.array_equal(cov.at(f)[0], _eye_covariance(cov, f))
    rng = RNG(19)
    r = cov.at(1.2e9)[0]
    y = rng.normal(size=(3, 16)) + 1j * rng.normal(size=(3, 16))
    for sigma2 in (0.3, np.float64(2.7e-3)):
        want = r @ np.linalg.solve(r + sigma2 * np.eye(16), y[0])
        assert np.array_equal(ch.lmmse_estimate(y[0], r, sigma2), want)
    real = np.eye(4) * 2.0
    assert np.array_equal(ch.lmmse_estimate(np.ones(4), real, 0.5),
                          real @ np.linalg.solve(real + 0.5 * np.eye(4), np.ones(4)))


def test_lmmse_collection_builds_one_covariance_pass_per_pair(monkeypatch):
    """An LMMSE collection calls :meth:`EnvCovariance.at` once per pair, on
    one lane, and gives the same bits on one lane and on two."""
    gen = ch.GeneratorConfig(array=ch.ArrayConfig(m=8), users=5,
                             noise=ch.NoiseSpec(mode=ch.NOISE_LMMSE))
    env = ch.sample_environment(1, gen, 4)
    role_counts = [(ch.ROLE_ADAPTION, 12), (ch.ROLE_TEST, 9)]

    def run():
        datasets = ch.generate_task_datasets(env, role_counts, gen.users, (gen.f_min, gen.f_max),
                                             gen.delta_f, gen.array, gen.noise, RNG(6))
        return [[float(v).hex() for v in a.ravel()] for d in datasets
                for a in (d.xs, d.ys, d.y_clean, d.f_up)]

    calls = []
    at = ch.EnvCovariance.at

    def counted(self, f):
        calls.append(self.delta_f)
        return at(self, f)

    monkeypatch.setattr(ch.lanes, "usable_cpus", lambda: 1)
    monkeypatch.setattr(ch.EnvCovariance, "at", counted)
    one_lane = run()
    assert calls == [gen.delta_f] * 21
    monkeypatch.setattr(ch.EnvCovariance, "at", at)
    monkeypatch.setattr(ch.lanes, "usable_cpus", lambda: 2)
    assert ch.collection_lanes(42, 21, gen.noise) == 2
    assert run() == one_lane


def test_sample_pair_clean_matches_exact_channels():
    cfg = ch.ArrayConfig(m=8)
    env = make_env()
    user = sample_user(env, RNG(17))
    pair = ch.make_sample_pair(user, 1.5e9, 120e6, cfg, ch.NoiseSpec(mode="clean"),
                               RNG(18))
    assert np.array_equal(pair.x, ch.complex_to_real(ch.channel_response(user, 1.5e9, cfg)))
    assert np.array_equal(pair.y, ch.complex_to_real(ch.channel_response(user, 1.62e9, cfg)))
    assert np.array_equal(pair.y, pair.y_clean)
    assert pair.f_up == 1.5e9


def test_sample_pair_zero_offset_clean_x_equals_y():
    cfg = ch.ArrayConfig(m=4)
    user = sample_user(make_env(), RNG(19))
    pair = ch.make_sample_pair(user, 2e9, 0.0, cfg, ch.NoiseSpec(mode="clean"), RNG(20))
    assert np.array_equal(pair.x, pair.y)


def test_sample_pair_lmmse_needs_the_covariance_of_its_array():
    user = sample_user(make_env(), RNG(22))
    lmmse = ch.NoiseSpec(mode="lmmse")
    cov = ch.EnvCovariance(make_env(), ch.ArrayConfig(m=8), 120e6)
    for given, m, delta_f in ((None, 8, 120e6), (cov, 4, 120e6), (cov, 8, 60e6)):
        with pytest.raises(ValueError, match="covariance of this array and delta_f"):
            ch.make_sample_pair(user, 2e9, delta_f, ch.ArrayConfig(m=m), lmmse, RNG(23), given)
    pair = ch.make_sample_pair(user, 2e9, 120e6, ch.ArrayConfig(m=8), lmmse, RNG(23), cov)
    assert pair.x.shape == (16,)


def test_sample_pair_lmmse_beats_awgn():
    """Per-sample estimate error under LMMSE stays below the raw noisy one."""
    cfg = ch.ArrayConfig(m=8)
    env = ch.sample_environment(4, ch.GeneratorConfig(array=cfg), 6)
    cov = ch.EnvCovariance(env, cfg, 120e6)
    rng = RNG(21)
    err_awgn, err_lmmse = [], []
    spec_awgn = ch.NoiseSpec(snr_db=20.0, pilot_len=64, mode="awgn")
    spec_lmmse = ch.NoiseSpec(snr_db=20.0, pilot_len=64, mode="lmmse")
    for i in range(1000):
        user = sample_user(env, rng)
        f_up = rng.uniform(1e9, 3e9)
        state = rng.bit_generator.state
        pa = ch.make_sample_pair(user, f_up, 120e6, cfg, spec_awgn, rng, cov=cov)
        rng.bit_generator.state = state
        pl = ch.make_sample_pair(user, f_up, 120e6, cfg, spec_lmmse, rng, cov=cov)
        h_clean = ch.real_to_complex(pa.y_clean)
        denom = np.sum(np.abs(h_clean) ** 2)
        err_awgn.append(np.sum(np.abs(ch.real_to_complex(pa.y) - h_clean) ** 2) / denom)
        err_lmmse.append(np.sum(np.abs(ch.real_to_complex(pl.y) - h_clean) ** 2) / denom)
    assert np.mean(err_lmmse) < np.mean(err_awgn)


# ---------------------------------------------------------------------------
# dataset generation


def _default_gen(m=8, users=25):
    return ch.GeneratorConfig(array=ch.ArrayConfig(m=m), users=users)


def test_roles_disjoint_keys():
    gcfg = _default_gen()
    env = ch.sample_environment(0, gcfg, 42)
    ad, te = ch.generate_task_datasets(
        env, [("adaption", 20), ("test", 20)], gcfg.users,
        (gcfg.f_min, gcfg.f_max), gcfg.delta_f, gcfg.array,
        ch.NoiseSpec(mode="clean"), RNG(22))
    assert len(ad) == 20 and len(te) == 20
    assert not (ad.keys() & te.keys())


def test_degenerate_single_combo_dataset():
    gcfg = ch.GeneratorConfig(array=ch.ArrayConfig(m=4), users=1,
                              f_min=2e9, f_max=2e9, delta_f=0.0)
    env = ch.sample_environment(0, gcfg, 1)
    (ds,) = ch.generate_task_datasets(env, [("test", 5)], 1, (2e9, 2e9), 0.0, gcfg.array,
                                      ch.NoiseSpec(mode="clean"), RNG(23))
    first = ds.pairs[0]
    for p in ds.pairs:
        assert np.array_equal(p.x, first.x)
        assert np.array_equal(p.x, p.y)


def test_degenerate_disjoint_roles_impossible():
    gcfg = ch.GeneratorConfig(array=ch.ArrayConfig(m=4), users=1,
                              f_min=2e9, f_max=2e9, delta_f=0.0)
    env = ch.sample_environment(0, gcfg, 1)
    with pytest.raises(ValueError, match="distinct"):
        ch.generate_task_datasets(env, [("adaption", 1), ("test", 1)], 1,
                                  (2e9, 2e9), 0.0, gcfg.array,
                                  ch.NoiseSpec(mode="clean"), RNG(24))


def test_stock_configuration_sizes():
    gcfg = _default_gen(users=25)
    env = ch.sample_environment(7, gcfg, 0)
    (ds,) = ch.generate_task_datasets(env, [("train-support", 20)], 25,
                                      (gcfg.f_min, gcfg.f_max), gcfg.delta_f,
                                      gcfg.array, ch.NoiseSpec(mode="clean"), RNG(25))
    assert len(ds) == 20
    assert all(0 <= p.user_index < 25 for p in ds.pairs)


def test_combo_set_owns_one_covariance_per_array():
    """The first LMMSE collection builds the combination set's covariance,
    later collections reuse it, and collecting under another array or
    another duplex offset is an error that names both."""
    gcfg = _default_gen(m=4, users=4)
    env = ch.sample_environment(3, gcfg, 5)
    combos = ch.draw_combos(env, [("adaption", 3), ("test", 3)], gcfg.users,
                            (gcfg.f_min, gcfg.f_max), RNG(30), gcfg.delay_max)
    lmmse = ch.NoiseSpec(mode="lmmse")
    assert combos.cov is None
    ch.collect(combos, "test", gcfg.delta_f, gcfg.array, lmmse, RNG(31))
    cov = combos.cov
    assert cov is not None and (cov.cfg, cov.delta_f) == (gcfg.array, gcfg.delta_f)
    ch.collect(combos, "adaption", gcfg.delta_f, gcfg.array, lmmse, RNG(32))
    assert combos.cov is cov
    with pytest.raises(ValueError, match="collected under"):
        ch.collect(combos, "adaption", gcfg.delta_f, ch.ArrayConfig(m=8), lmmse, RNG(33))
    with pytest.raises(ValueError, match=r"at delta_f=120000000\.0, not .* at delta_f=60000000"):
        ch.collect(combos, "adaption", 60e6, gcfg.array, lmmse, RNG(33))
    assert combos.cov is cov


def test_generation_bit_identical():
    gcfg = _default_gen()
    env = ch.sample_environment(2, gcfg, 9)
    make = lambda: ch.generate_task_datasets(
        env, [("adaption", 10), ("test", 10)], gcfg.users,
        (gcfg.f_min, gcfg.f_max), gcfg.delta_f, gcfg.array,
        ch.NoiseSpec(snr_db=20, pilot_len=64, mode="lmmse"),
        np.random.default_rng(np.random.SeedSequence(77)))
    a, b = make(), make()
    for da, db in zip(a, b):
        for pa, pb in zip(da.pairs, db.pairs):
            assert pa.f_up == pb.f_up and pa.user_index == pb.user_index
            assert np.array_equal(pa.x, pb.x) and np.array_equal(pa.y, pb.y)
            assert np.array_equal(pa.y_clean, pb.y_clean)


@pytest.mark.parametrize("mode", ["awgn", "lmmse"])
def test_generation_in_one_call_matches_per_role_collection(mode):
    """``generate_task_datasets`` collects every role in one ``collect_sets``
    call, with the bits of collecting role by role from one generator: one
    noise block in role order, one covariance for all roles."""
    gcfg = _default_gen(m=8, users=5)
    env = ch.sample_environment(4, gcfg, 2)
    roles = [("adaption", 6), ("test", 4), ("train-support", 3)]
    noise = ch.NoiseSpec(snr_db=10.0, pilot_len=4, mode=mode)
    got = ch.generate_task_datasets(env, roles, gcfg.users, (gcfg.f_min, gcfg.f_max),
                                    gcfg.delta_f, gcfg.array, noise, RNG(8))
    rng = RNG(8)
    combos = ch.draw_combos(env, roles, gcfg.users, (gcfg.f_min, gcfg.f_max), rng)
    want = [ch.collect(combos, role, gcfg.delta_f, gcfg.array, noise, rng) for role, _ in roles]
    assert [(d.env_id, d.role, len(d)) for d in got] == [(d.env_id, d.role, len(d)) for d in want]
    for g, w in zip(got, want):
        for column in ("xs", "ys", "y_clean", "f_up", "user_index"):
            assert [float(x).hex() for x in np.ravel(getattr(g, column))] == \
                [float(x).hex() for x in np.ravel(getattr(w, column))], (g.role, column)


def test_bad_role_and_counts_rejected():
    gcfg = _default_gen()
    env = ch.sample_environment(0, gcfg, 0)
    with pytest.raises(ValueError):
        ch.generate_task_datasets(env, [("bogus", 5)], 4, (1e9, 3e9), 120e6,
                                  gcfg.array, ch.NoiseSpec(mode="clean"), RNG(26))
    with pytest.raises(ValueError):
        ch.generate_task_datasets(env, [("test", 0)], 4, (1e9, 3e9), 120e6,
                                  gcfg.array, ch.NoiseSpec(mode="clean"), RNG(27))


def _dataset(role="test", **overrides):
    """Three pairs of four antennas, with any column replaced."""
    rng = RNG(0)
    columns = dict(xs=rng.normal(size=(3, 8)), ys=rng.normal(size=(3, 8)),
                   y_clean=rng.normal(size=(3, 8)), f_up=np.full(3, 2e9),
                   user_index=np.arange(3))
    columns.update(overrides)
    return ch.TaskDataset(0, role, **columns)


def test_task_dataset_holds_arrays_without_copying():
    xs = RNG(1).normal(size=(3, 8))
    d = _dataset(xs=xs)
    assert d.xs is xs and len(d) == 3
    assert d.keys() == {(0, 2e9), (1, 2e9), (2, 2e9)}
    p = d.pairs[1]
    assert (p.user_index, p.f_up) == (1, 2e9)
    assert isinstance(p.user_index, int) and isinstance(p.f_up, float)
    p.y[0] = 7.0  # pairs are views of the rows
    assert d.ys[1, 0] == 7.0
    assert np.array_equal(d.clean_downlinks(), ch.real_to_complex(d.y_clean))


@pytest.mark.parametrize("overrides,match", [
    (dict(ys=np.zeros((2, 8))), "ys has shape"),
    (dict(y_clean=np.zeros((4, 8))), "y_clean has shape"),
    (dict(f_up=np.zeros(2)), "f_up has shape"),
    (dict(user_index=np.zeros(4, dtype=int)), "user_index has shape"),
    (dict(xs=np.zeros((3, 7)), ys=np.zeros((3, 7)), y_clean=np.zeros((3, 7))),
     "even width"),
    (dict(ys=np.zeros((3, 6))), "ys has shape"),
    (dict(xs=np.zeros(8)), "xs must be an"),
    (dict(role="bogus"), "unknown role"),
])
def test_task_dataset_rejects_bad_shapes(overrides, match):
    with pytest.raises(ValueError, match=match) as info:
        _dataset(**overrides)
    assert "\n" not in str(info.value)


# ---------------------------------------------------------------------------
# batched collection against the per-pair generator


def _oracle_response(user, f, cfg):
    """One user's ray sum over the full (P, M) np.exp manifold."""
    gains = user.amplitudes * np.exp(1j * (user.phases - 2.0 * math.pi * f * user.delays))
    manifold = np.exp(-1j * oracle_varpi(f) * np.outer(np.sin(user.doas), np.arange(cfg.m)))
    return gains @ manifold


def _oracle_covariance(pool, f, cfg, ridge=1e-6):
    h = np.array([_oracle_response(u, f, cfg) for u in pool])
    n, m = h.shape
    r = h.T @ h.conj() / n
    return r + ridge * (np.trace(r).real / m) * np.eye(m)


def _oracle_users(env, rng, u, delay_max=ch.DEFAULT_DELAY_MAX):
    """``u`` users drawn one at a time, four generator calls each: 25 rays
    of Rayleigh scale 30 / sqrt(2 * 25), per-entry RMS amplitude 30."""
    p = 25
    return [ch.UserRays(doas=rng.uniform(env.as_lower, env.as_upper, size=p),
                        amplitudes=30.0 / math.sqrt(50.0) * rng.rayleigh(1.0, size=p),
                        phases=rng.uniform(0.0, 2.0 * math.pi, size=p),
                        delays=rng.uniform(0.0, delay_max, size=p))
            for _ in range(u)]


def _oracle_combos(role_counts, u, f_range, rng):
    """Per role, (user, uplink frequency) draws until it holds its count,
    redrawing keys that an earlier role holds."""
    taken, by_role = set(), {}
    for role, n in role_counts:
        combos = []
        while len(combos) < n:
            key = (int(rng.integers(0, u)), float(rng.uniform(*f_range)))
            if key not in taken:
                combos.append(key)
        taken |= set(combos)
        by_role[role] = combos
    return by_role


def _assert_rays_equal(stacked, users):
    for name in ("doas", "amplitudes", "phases", "delays"):
        assert np.array_equal(getattr(stacked, name),
                              np.stack([getattr(u, name) for u in users])), name


def _recording(make_stream, made):
    """``make_stream`` that also records each generator it returns."""
    def wrapped(*args):
        rng = make_stream(*args)
        made.append(rng)
        return rng
    return wrapped


def _oracle_generate(env, role_counts, u, f_range, delta_f, cfg, noise, rng):
    """Per-pair generation: users drawn one at a time, then each link
    synthesised, noised and estimated on its own, uplink before downlink,
    with a fresh covariance per link. Returns the users, the covariance pool
    and per role a list of (user_index, f_up, x, y, y_clean)."""
    users = _oracle_users(env, rng, u)
    by_role = _oracle_combos(role_counts, u, f_range, rng)
    pool = _oracle_users(env, stream(env.seed, STREAM_COVARIANCE), 200)

    def estimate(h, f):
        if noise.mode == "clean":
            return h
        sigma2 = (float(np.vdot(h, h).real) / len(h)
                  / (10.0 ** (noise.snr_db / 10.0) * noise.pilot_len))
        n = rng.normal(0.0, 1.0, size=h.shape) + 1j * rng.normal(0.0, 1.0, size=h.shape)
        y = h + math.sqrt(sigma2 / 2.0) * n
        if noise.mode == "awgn":
            return y
        return ch.lmmse_estimate(y, _oracle_covariance(pool, f, cfg), sigma2)

    def real(z):
        return np.concatenate([z.real, z.imag])

    out = []
    for role, _ in role_counts:
        pairs = []
        for uid, f_up in by_role[role]:
            user = users[uid]
            f_down = f_up + delta_f
            h_up = _oracle_response(user, f_up, cfg)
            h_down = _oracle_response(user, f_down, cfg)
            pairs.append((uid, f_up, real(estimate(h_up, f_up)),
                          real(estimate(h_down, f_down)), real(h_down)))
        out.append(pairs)
    return users, pool, out


@pytest.mark.parametrize("mode,rtol", [("clean", 1e-12), ("awgn", 1e-12), ("lmmse", 1e-10)])
@pytest.mark.parametrize("m", [1, 2, 5, 16, 64])
def test_generation_matches_per_pair_oracle(m, mode, rtol, monkeypatch):
    """Batched collection reproduces the per-pair generator at rounding
    level and leaves the generator in the same state (non-square M cuts
    the factorised q*q antenna grid). The stacked user draws of the
    combination set and of the covariance pool, and the keys, frequencies
    and user indices, equal the one-user-at-a-time draws exactly."""
    gcfg = _default_gen(m=m, users=6)
    env = ch.sample_environment(5, gcfg, 31)
    role_counts = [("adaption", 4), ("test", 3)]
    f_range = (gcfg.f_min, gcfg.f_max)
    args = (env, role_counts, gcfg.users, f_range, gcfg.delta_f, gcfg.array,
            ch.NoiseSpec(snr_db=10.0, pilot_len=4, mode=mode))
    pool_streams = []
    monkeypatch.setattr(ch, "stream", _recording(ch.stream, pool_streams))
    rng, oracle_rng = RNG(41), RNG(41)
    got = ch.generate_task_datasets(*args, rng)
    users, pool, expected = _oracle_generate(*args, oracle_rng)
    assert rng.bit_generator.state == oracle_rng.bit_generator.state

    combos = ch.draw_combos(env, role_counts, gcfg.users, f_range, RNG(41))
    _assert_rays_equal(combos.users, users)
    if mode == "lmmse":
        oracle_pool_rng = stream(env.seed, STREAM_COVARIANCE)
        _oracle_users(env, oracle_pool_rng, 200)
        assert [g.bit_generator.state for g in pool_streams] == \
            [oracle_pool_rng.bit_generator.state]
    _assert_rays_equal(ch.EnvCovariance(env, gcfg.array, gcfg.delta_f)._rays, pool)

    for ds, pairs in zip(got, expected):
        assert [(p.user_index, p.f_up) for p in ds.pairs] == \
            [(uid, f_up) for uid, f_up, *_ in pairs]
        assert np.array_equal(ds.user_index, [uid for uid, *_ in pairs])
        assert np.array_equal(ds.f_up, [f_up for _, f_up, *_ in pairs])
        for p, (_, _, x, y, y_clean) in zip(ds.pairs, pairs):
            for a, b in ((p.x, x), (p.y, y), (p.y_clean, y_clean)):
                assert np.max(np.abs(a - b)) <= rtol * np.max(np.abs(b))


@pytest.mark.parametrize("mode", ch.NOISE_MODES)
def test_collect_sets_joins_rows_set_by_set_then_role_by_role(mode):
    """``collect_sets`` over 3 sets and both training roles returns, column
    by column, the per-set, per-role ``collect`` calls concatenated set by
    set. Set s draws its noise from ``rngs[s]`` role after role, so each
    set's calls share a fresh generator of that set's stream."""
    gen = _default_gen(m=8, users=5)
    noise = ch.NoiseSpec(snr_db=10.0, pilot_len=4, mode=mode)
    roles = [(ch.ROLE_TRAIN_SUPPORT, 3), (ch.ROLE_TRAIN_QUERY, 4)]
    sets = [ch.draw_combos(ch.sample_environment(s, gen, 7), roles, gen.users,
                           (gen.f_min, gen.f_max), stream(7, STREAM_TASK_DATA, s))
            for s in range(3)]
    got = ch.collect_sets(sets, [role for role, _ in roles], gen.delta_f, gen.array, noise,
                          [stream(9, STREAM_TASK_DATA, s) for s in range(3)])
    expected = []
    for s, combos in enumerate(sets):
        rng = stream(9, STREAM_TASK_DATA, s)
        expected += [ch.collect(combos, role, gen.delta_f, gen.array, noise, rng)
                     for role, _ in roles]
    names = ("xs", "ys", "y_clean", "f_up", "user_index")
    assert len(got) == len(names)
    for name, column in zip(names, got):
        assert len(column) == 3 * 7, name
        assert np.array_equal(column, np.concatenate([getattr(d, name) for d in expected])), name


@pytest.mark.parametrize("mode", ["clean", "awgn", "lmmse"])
def test_support_query_matches_per_user_oracle(mode, monkeypatch):
    """``transfer._support_query`` equals, bit for bit, users drawn one at a
    time and pairs collected one at a time through ``make_sample_pair``,
    and leaves its generator where that per-pair order leaves it."""
    gen = ch.GeneratorConfig(array=ch.ArrayConfig(m=8), users=5,
                             noise=ch.NoiseSpec(snr_db=10.0, pilot_len=4, mode=mode))
    cfg = transfer.TrainConfig(k_s=3, k_b=1, n_tr=7, u=5, gen=gen)
    env = ch.sample_environment(2, gen, 13)
    made = []
    monkeypatch.setattr(transfer, "stream", _recording(transfer.stream, made))
    got = transfer._support_query(env, cfg, 4)

    rng = stream(env.seed, STREAM_TASK_DATA, 4)
    users = _oracle_users(env, rng, cfg.u)
    role_counts = [(ch.ROLE_TRAIN_SUPPORT, cfg.n_support),
                   (ch.ROLE_TRAIN_QUERY, cfg.n_query)]
    by_role = _oracle_combos(role_counts, cfg.u, (gen.f_min, gen.f_max), rng)
    cov = ch.EnvCovariance(env, gen.array, gen.delta_f) if mode == "lmmse" else None
    for ds, (role, _) in zip(got, role_counts):
        pairs = [ch.make_sample_pair(users[uid], f_up, gen.delta_f, gen.array, gen.noise,
                                     rng, cov, uid) for uid, f_up in by_role[role]]
        assert ds.role == role and ds.env_id == env.id
        columns = {"x": ds.xs, "y": ds.ys, "y_clean": ds.y_clean, "f_up": ds.f_up,
                   "user_index": ds.user_index}
        for name, column in columns.items():
            assert np.array_equal(column, [getattr(p, name) for p in pairs]), name
        # A clean dataset keeps its label once.
        assert np.shares_memory(ds.ys, ds.y_clean) == (mode == "clean")
    assert [g.bit_generator.state for g in made] == [rng.bit_generator.state]
