"""Synthetic multipath channel simulator and task-dataset generation.

A user's propagation state is a finite set of rays, each with a direction
of arrival inside the environment's angle spread, an attenuation amplitude,
a phase shift, and a delay. Uplink and downlink channels at any carrier
frequency follow deterministically from the same rays, which is what makes
the uplink-to-downlink regression problem well posed: a sample pair is the
real-stacked channel at ``f_up`` and at ``f_up + delta_f``.

Every channel is a ray sum over the array manifold, and every ray sum goes
through one kernel, :func:`_ray_sum`, over a leading batch of users or
links with a carrier per row. It factorises the steering vector: with
q = ceil(sqrt(M)) and antenna index m = q*a + b, the entry
exp(-j varpi m sin theta) equals w^a z^b for z = exp(-j varpi sin theta)
and w = z^q, so a ray costs one complex exponential and the sum over rays
is one stacked matrix product. A single channel is the batch-of-one case;
a dataset role builds all its uplinks and downlinks in one call; and the
LMMSE prior keeps its user pool as stacked ray arrays, so each covariance
takes a few batched ray sums over blocks of the pool and their Hermitian
products.

Users are drawn the same way, stacked: :func:`_draw_users` fills one
``(users, P)`` set of ray arrays with a few generator calls per user, in
the order that drawing the users one by one would take, and a role's links
gather their rays from it by index. A :class:`TaskDataset` is a struct of
arrays, one row per sample pair, so the training code reads its inputs and
labels without copying; :class:`SamplePair` survives as a row view.

Noisy data collection is modelled as an additive complex Gaussian
observation (pilot processing gain folded into the noise variance) followed
by an optional LMMSE estimate against the environment's channel covariance.
A role's noise is drawn as one block that consumes the generator in the
same order as drawing it pair by pair, uplink before downlink.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .seeding import STREAM_COVARIANCE, STREAM_ENV, stream, stream_and_seed

SPEED_OF_LIGHT = 299_792_458.0

# Half wavelength at 2 GHz; the physical array spacing is fixed across
# carrier frequencies.
DEFAULT_SPACING = SPEED_OF_LIGHT / (2 * 2.0e9)

# Largest excess path delay in seconds. Small enough that the per-ray
# downlink rotation 2*pi*delta_f*tau stays below one cycle at the default
# 120 MHz offset (otherwise uplink and downlink decorrelate completely and
# no predictor can do better than outputting zero), yet large enough that
# the channel keeps wrapping in phase as f sweeps 1..3 GHz.
DEFAULT_DELAY_MAX = 2.0e-9

# Per-entry RMS channel amplitude the default ray statistics are normalised
# to. The absolute scale is arbitrary physically; it is chosen so that
# plain gradient-descent adaption at the stock learning rates makes visible
# progress on desk-scale runs (loss curvature grows with the square of this
# number while Adam's effective step does not depend on it).
DEFAULT_ENTRY_AMPLITUDE = 30.0

ROLE_TRAIN_SUPPORT = "train-support"
ROLE_TRAIN_QUERY = "train-query"
ROLE_ADAPTION = "adaption"
ROLE_TEST = "test"
ROLES = (ROLE_TRAIN_SUPPORT, ROLE_TRAIN_QUERY, ROLE_ADAPTION, ROLE_TEST)

NOISE_CLEAN = "clean"
NOISE_AWGN = "awgn"
NOISE_LMMSE = "lmmse"
NOISE_MODES = (NOISE_CLEAN, NOISE_AWGN, NOISE_LMMSE)


@dataclass(frozen=True)
class ArrayConfig:
    """Uniform linear array at the base station."""

    m: int = 64
    d: float = DEFAULT_SPACING
    c: float = SPEED_OF_LIGHT

    def __post_init__(self):
        if self.m < 1:
            raise ValueError(f"antenna count must be >= 1, got {self.m}")
        if not (self.d > 0 and math.isfinite(self.d)):
            raise ValueError(f"antenna spacing must be positive, got {self.d}")


@dataclass(frozen=True)
class Environment:
    """One propagation region: a bounded angle-spread interval plus ray statistics."""

    id: int
    as_lower: float
    as_upper: float
    ray_count: int
    amplitude_scale: float
    seed: int

    def __post_init__(self):
        if not (-math.pi / 2 <= self.as_lower < self.as_upper <= math.pi / 2):
            raise ValueError(
                f"angle spread bounds must satisfy -pi/2 <= lower < upper <= pi/2, "
                f"got [{self.as_lower}, {self.as_upper}]")
        if self.ray_count < 1:
            raise ValueError(f"ray count must be >= 1, got {self.ray_count}")
        if self.amplitude_scale < 0:
            raise ValueError("amplitude scale must be nonnegative")


@dataclass(frozen=True)
class UserRays:
    """Discretized propagation state of one user (``(P,)`` ray arrays) or of
    several users of one environment (``(users, P)`` arrays, one row each)."""

    env_id: int
    doas: np.ndarray
    amplitudes: np.ndarray
    phases: np.ndarray
    delays: np.ndarray

    def __post_init__(self):
        n = len(self.doas)
        if not (len(self.amplitudes) == len(self.phases) == len(self.delays) == n):
            raise ValueError("ray arrays must have equal length")


@dataclass(frozen=True)
class NoiseSpec:
    """How sample pairs are collected: clean, raw noisy, or LMMSE-estimated."""

    snr_db: float = 20.0
    pilot_len: int = 64
    mode: str = NOISE_LMMSE

    def __post_init__(self):
        if self.pilot_len < 1:
            raise ValueError(f"pilot length must be >= 1, got {self.pilot_len}")
        if self.mode not in NOISE_MODES:
            raise ValueError(f"unknown noise mode {self.mode!r}, expected one of {NOISE_MODES}")


CLEAN_SPEC = NoiseSpec(mode=NOISE_CLEAN)


@dataclass(frozen=True)
class SamplePair:
    """One (uplink, downlink) training pair in real-stacked form.

    ``y_clean`` keeps the noiseless downlink label so that prediction error
    can always be measured against ground truth, whatever the collection
    noise was. ``user_index`` identifies which of the drawn users produced
    the pair (used to enforce disjointness between dataset roles).
    """

    x: np.ndarray
    y: np.ndarray
    f_up: float
    f_down: float
    y_clean: np.ndarray
    user_index: int

    def key(self) -> tuple[int, float]:
        return (self.user_index, self.f_up)


class TaskDataset:
    """Sample pairs of one environment under one role tag, as arrays.

    Row i of ``xs``, ``ys`` and ``y_clean`` (each ``(N, 2M)`` real-stacked)
    and entry i of ``f_up``, ``f_down`` and ``user_index`` (each ``(N,)``)
    describe pair i. :meth:`xs` and :meth:`ys` return the stored arrays
    without copying; :attr:`pairs` views the rows as :class:`SamplePair`.
    """

    def __init__(self, env_id: int, role: str, xs: np.ndarray, ys: np.ndarray,
                 y_clean: np.ndarray, f_up: np.ndarray, f_down: np.ndarray,
                 user_index: np.ndarray):
        if role not in ROLES:
            raise ValueError(f"unknown role {role!r}, expected one of {ROLES}")
        self.env_id = env_id
        self.role = role
        self._xs, self._ys, self.y_clean, self.f_up, self.f_down = (
            np.asarray(a, dtype=np.float64) for a in (xs, ys, y_clean, f_up, f_down))
        self.user_index = np.asarray(user_index, dtype=np.int64)
        if self._xs.ndim != 2:
            raise ValueError(f"xs must be an (N, 2M) array, got shape {self._xs.shape}")
        n, width = self._xs.shape
        if width == 0 or width % 2:
            raise ValueError(f"real-stacked rows must have a positive even width, "
                             f"got {width}")
        for name, a, shape in (("ys", self._ys, (n, width)),
                               ("y_clean", self.y_clean, (n, width)),
                               ("f_up", self.f_up, (n,)), ("f_down", self.f_down, (n,)),
                               ("user_index", self.user_index, (n,))):
            if a.shape != shape:
                raise ValueError(f"{name} has shape {a.shape}, expected {shape}")

    def __len__(self) -> int:
        return len(self.f_up)

    def xs(self) -> np.ndarray:
        return self._xs

    def ys(self) -> np.ndarray:
        return self._ys

    @property
    def pairs(self) -> tuple[SamplePair, ...]:
        """The pairs as :class:`SamplePair` objects whose arrays are views of
        this dataset's rows."""
        return tuple(SamplePair(x=x, y=y, f_up=f_up, f_down=f_down, y_clean=yc,
                                user_index=uid)
                     for x, y, yc, f_up, f_down, uid in zip(
                         self._xs, self._ys, self.y_clean, self.f_up.tolist(),
                         self.f_down.tolist(), self.user_index.tolist()))

    def clean_downlinks(self) -> np.ndarray:
        """Complex clean downlinks, one row per pair."""
        return real_to_complex(self.y_clean)

    def keys(self) -> set[tuple[int, float]]:
        return set(zip(self.user_index.tolist(), self.f_up.tolist()))


@dataclass(frozen=True)
class GeneratorConfig:
    """Everything needed to synthesise environments and their datasets."""

    array: ArrayConfig = field(default_factory=ArrayConfig)
    ray_count: int = 25
    as_width_min: float = 0.05
    as_width_max: float = 0.2
    amplitude_scale: float | None = None  # None: normalise per-entry power
    delay_max: float = DEFAULT_DELAY_MAX
    f_min: float = 1.0e9
    f_max: float = 3.0e9
    delta_f: float = 120.0e6
    users: int = 25
    noise: NoiseSpec = CLEAN_SPEC

    def __post_init__(self):
        if self.ray_count < 1:
            raise ValueError("ray count must be >= 1")
        if not (0 < self.as_width_min <= self.as_width_max <= math.pi):
            raise ValueError(
                f"invalid angle-spread width range [{self.as_width_min}, {self.as_width_max}]")
        if not (0 < self.f_min <= self.f_max):
            raise ValueError("frequency range must satisfy 0 < f_min <= f_max")
        if self.f_min + self.delta_f <= 0:
            raise ValueError("downlink frequency must stay positive")
        if self.delay_max < 0:
            raise ValueError("delay_max must be nonnegative")
        if self.users < 1:
            raise ValueError("users per environment must be >= 1")

    def resolved_amplitude_scale(self) -> float:
        """Rayleigh scale per ray; defaults to unit-normalised entry power.

        With P rays of Rayleigh(sigma) amplitude and uniform phases the
        expected squared magnitude of one channel entry is 2*sigma^2*P, so
        sigma = A/sqrt(2P) gives per-entry RMS amplitude A.
        """
        if self.amplitude_scale is not None:
            return self.amplitude_scale
        return DEFAULT_ENTRY_AMPLITUDE / math.sqrt(2.0 * self.ray_count)


def _check_carrier(f: float):
    if not (f > 0 and math.isfinite(f)):
        raise ValueError(f"carrier frequency must be positive, got {f}")


def array_manifold(theta: float, f: float, cfg: ArrayConfig) -> np.ndarray:
    """Steering vector of the ULA toward direction ``theta`` at carrier ``f``.

    Entry m equals exp(-j * (2 pi d f / c) * m * sin theta); entry 0 is 1.
    """
    if not math.isfinite(theta):
        raise ValueError(f"direction of arrival must be finite, got {theta}")
    _check_carrier(f)
    varpi = 2.0 * math.pi * cfg.d * f / cfg.c
    m = np.arange(cfg.m)
    return np.exp(-1j * varpi * m * math.sin(theta))


def sample_environment(env_id: int, gcfg: GeneratorConfig, master_seed: int) -> Environment:
    """Draw one environment, deterministically from (env_id, master_seed).

    The angle-spread width is uniform in the configured range and the
    interval centre is uniform over the positions where the interval still
    fits inside [-pi/2, pi/2].
    """
    if gcfg.as_width_min > gcfg.as_width_max:
        raise ValueError("empty angle-spread width range")
    rng, seed = stream_and_seed(master_seed, STREAM_ENV, env_id)
    width = rng.uniform(gcfg.as_width_min, gcfg.as_width_max)
    half = width / 2.0
    center = rng.uniform(-math.pi / 2 + half, math.pi / 2 - half)
    return Environment(
        id=env_id,
        as_lower=center - half,
        as_upper=center + half,
        ray_count=gcfg.ray_count,
        amplitude_scale=gcfg.resolved_amplitude_scale(),
        seed=seed,
    )


def _draw_users(env: Environment, rng: np.random.Generator, u: int,
                delay_max: float = DEFAULT_DELAY_MAX) -> UserRays:
    """Draw ``u`` users' rays inside the environment's angle spread, stacked
    as ``(u, P)`` arrays.

    Directions are uniform over the spread, amplitudes Rayleigh with the
    environment's scale, phases uniform on [0, 2 pi), delays uniform on
    [0, delay_max]. The generator is consumed user by user exactly as by
    ``rng.uniform``, ``rng.rayleigh``, ``rng.uniform``, ``rng.uniform``
    (P draws each) per user, in three calls: P doubles for the directions,
    P standard exponentials, and 2P doubles for the phases and delays. numpy
    draws a uniform on [lo, hi) as lo + (hi - lo) * U and a Rayleigh(1)
    variate as sqrt(2 E), and the same operations on the stacked draws give
    the same bits.
    """
    p = env.ray_count
    doas, expo, phase_delay = np.empty((u, p)), np.empty((u, p)), np.empty((u, 2 * p))
    for i in range(u):
        rng.random(out=doas[i])
        rng.standard_exponential(out=expo[i])
        rng.random(out=phase_delay[i])
    doas *= env.as_upper - env.as_lower
    doas += env.as_lower
    return UserRays(env_id=env.id, doas=doas,
                    amplitudes=env.amplitude_scale * np.sqrt(2.0 * expo),
                    phases=(2.0 * math.pi) * phase_delay[:, :p],
                    delays=delay_max * phase_delay[:, p:])


def sample_user(env: Environment, rng: np.random.Generator,
                delay_max: float = DEFAULT_DELAY_MAX) -> UserRays:
    """Draw one user's rays: the one-user case of :func:`_draw_users`."""
    rays = _draw_users(env, rng, 1, delay_max)
    return UserRays(env_id=env.id, doas=rays.doas[0], amplitudes=rays.amplitudes[0],
                    phases=rays.phases[0], delays=rays.delays[0])


def _ray_gains(rays: UserRays, f) -> np.ndarray:
    """Complex ray gains |alpha_p| exp(j phi_p - j 2 pi f tau_p); ``f``
    broadcasts against the ray arrays."""
    return rays.amplitudes * np.exp(1j * (rays.phases - 2.0 * math.pi * f * rays.delays))


def _ray_sum(sin_doas: np.ndarray, gains: np.ndarray, f, cfg: ArrayConfig) -> np.ndarray:
    """Ray sums over the array manifold: h[..., m] = sum_p gains[..., p] *
    exp(-j varpi(f) m sin_doas[..., p]), with varpi(f) = 2 pi d f / c.

    The ray arrays are ``(..., P)`` over any leading batch of users or links;
    ``f`` broadcasts against them, so each row may have its own carrier.
    Writing the antenna index as m = q*a + b with q = ceil(sqrt(M)), the
    steering entry of ray p factorises into w_p^a z_p^b with
    z_p = exp(-j varpi sin theta_p) and w_p = z_p^q. So each ray needs one
    complex exponential, the two q-long power tables come from repeated
    multiplication, and the sum over rays is one stacked (q, P) x (P, q)
    product; the q*q grid is cut back to the first M antennas.
    """
    q = math.isqrt(cfg.m - 1) + 1
    varpi = 2.0 * math.pi * cfg.d * f / cfg.c
    z = np.exp(-1j * varpi * sin_doas)
    low = np.empty((q,) + z.shape, dtype=complex)  # low[b] = z^b
    low[0] = 1.0
    for b in range(1, q):
        np.multiply(low[b - 1], z, out=low[b])
    w = low[-1] * z
    high = np.empty_like(low)  # high[a] = gains * w^a
    high[0] = gains
    for a in range(1, q):
        np.multiply(high[a - 1], w, out=high[a])
    last = low.ndim - 1
    lead = tuple(range(1, last))  # the batch axes
    grid = high.transpose(lead + (0, last)) @ low.transpose(lead + (last, 0))  # [..., a, b]
    return np.ascontiguousarray(grid.reshape(grid.shape[:-2] + (q * q,))[..., :cfg.m])


def channel_response(user: UserRays, f: float, cfg: ArrayConfig) -> np.ndarray:
    """Channel vector at carrier ``f``: the ray sum over the array manifold.

    h(f) = sum_p |alpha_p| * exp(-j 2 pi f tau_p + j phi_p) * a(theta_p)
    """
    _check_carrier(f)
    return _ray_sum(np.sin(user.doas), _ray_gains(user, f), f, cfg)


def complex_to_real(z: np.ndarray) -> np.ndarray:
    """Real-stacked image of a complex vector, row-wise: [Re(z); Im(z)]."""
    z = np.asarray(z)
    return np.concatenate([z.real, z.imag], axis=-1).astype(np.float64, copy=False)


def real_to_complex(v: np.ndarray) -> np.ndarray:
    """Inverse of :func:`complex_to_real`."""
    v = np.asarray(v, dtype=np.float64)
    if v.shape[-1] % 2 != 0:
        raise ValueError(f"real-stacked vector must have even length, got {v.shape[-1]}")
    m = v.shape[-1] // 2
    return v[..., :m] + 1j * v[..., m:]


def noise_variance(h: np.ndarray, snr_db: float, pilot_len: int) -> np.ndarray:
    """Per-entry complex noise variance for a given observation SNR, one
    value per channel vector (the last axis of ``h``).

    The pilot length divides the variance, modelling coherent processing
    gain over the pilot sequence.
    """
    if pilot_len < 1:
        raise ValueError(f"pilot length must be >= 1, got {pilot_len}")
    m = h.shape[-1]
    signal_power = np.sum(h.real ** 2 + h.imag ** 2, axis=-1) / m
    return signal_power / (10.0 ** (snr_db / 10.0) * pilot_len)


def add_awgn(h: np.ndarray, snr_db: float, pilot_len: int,
             rng: np.random.Generator) -> np.ndarray:
    """Observation h + n with circular complex Gaussian n, row-wise.

    Each channel vector draws its real noise parts, then its imaginary
    ones, so a stack of vectors consumes the generator exactly as one call
    per vector in row order would.
    """
    scale = np.sqrt(noise_variance(h, snr_db, pilot_len) / 2.0)[..., None]
    n = rng.normal(0.0, 1.0, size=h.shape[:-1] + (2, h.shape[-1]))
    return h + scale * (n[..., 0, :] + 1j * n[..., 1, :])


def lmmse_estimate(y: np.ndarray, r: np.ndarray, sigma2: float) -> np.ndarray:
    """LMMSE channel estimate R (R + sigma^2 I)^-1 y.

    ``r`` must be Hermitian (checked to 1e-9 absolute asymmetry). For
    sigma2 = 0 the estimate is the observation itself.
    """
    r = np.asarray(r)
    if r.ndim != 2 or r.shape[0] != r.shape[1] or r.shape[0] != y.shape[-1]:
        raise ValueError(f"covariance shape {r.shape} does not match observation "
                         f"length {y.shape[-1]}")
    if sigma2 < 0:
        raise ValueError("noise variance must be nonnegative")
    asym = float(np.max(np.abs(r - r.conj().T)))
    if asym > 1e-9:
        raise ValueError(f"covariance is not Hermitian (max asymmetry {asym:.3e})")
    if sigma2 == 0.0:
        return np.array(y, copy=True)
    a = r + sigma2 * np.eye(r.shape[0])
    return r @ np.linalg.solve(a, y)


# Users of the covariance pool per ray-sum call. The kernel's two power
# tables hold 2*q*P complex entries per user (0.3 MB for 50 users of 25 rays
# at M=64, 1.3 MB for the whole default pool of 200), so blocks keep the
# transient memory near that of one covariance.
_POOL_BLOCK = 50


class EnvCovariance:
    """Regularised sample covariance of clean channels for one environment.

    Built once per environment from a fixed pool of users drawn from the
    environment's own seed, so the LMMSE prior does not depend on which
    dataset is being generated. The pool is kept as stacked ``(users, P)``
    ray arrays with the sines of the directions precomputed. The covariance
    depends on the carrier, so :meth:`at` evaluates it per frequency on
    demand: batched ray sums over blocks of the pool (see :func:`_ray_sum`)
    and their summed Hermitian products.
    """

    def __init__(self, env: Environment, cfg: ArrayConfig, n_samples: int = 200,
                 delay_max: float = DEFAULT_DELAY_MAX, ridge: float = 1e-6):
        self._rays = _draw_users(env, stream(env.seed, STREAM_COVARIANCE), n_samples,
                                 delay_max)
        self._sin_doas = np.sin(self._rays.doas)
        self._cfg = cfg
        self._ridge = ridge

    def at(self, f: float) -> np.ndarray:
        _check_carrier(f)
        gains = _ray_gains(self._rays, f)
        n, m = gains.shape[0], self._cfg.m
        r = np.zeros((m, m), dtype=complex)
        for i in range(0, n, _POOL_BLOCK):
            h = _ray_sum(self._sin_doas[i:i + _POOL_BLOCK], gains[i:i + _POOL_BLOCK], f,
                         self._cfg)
            r += h.T @ h.conj()
        r /= n
        return r + self._ridge * (np.trace(r).real / m) * np.eye(m)


def _collect_pairs(rays: UserRays, uids: np.ndarray, f_up: np.ndarray, delta_f: float,
                   cfg: ArrayConfig, noise: NoiseSpec, rng: np.random.Generator,
                   cov: EnvCovariance | None) -> tuple[np.ndarray, ...]:
    """Collect pair i from user ``uids[i]`` (a row of the stacked ``rays``)
    at ``f_up[i]`` and ``f_up[i] + delta_f``.

    All 2N links go through one batched ray sum and one AWGN draw shaped
    (N, 2 links, 2 parts, M), which consumes the generator in pair order,
    uplink before downlink. LMMSE then runs one estimate per link against
    the environment covariance at that link's carrier. Returns the arrays
    of :class:`TaskDataset` in its constructor order, from ``xs`` on.
    """
    if noise.mode == NOISE_LMMSE and cov is None:
        raise ValueError("LMMSE noise mode requires an environment covariance model")
    f = np.stack([f_up, f_up + delta_f], axis=1)  # (N, 2 links)
    bad = ~((f > 0) & np.isfinite(f)).all(axis=1)
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"frequencies must be positive, got f_up={f[i, 0]}, "
                         f"f_down={f[i, 1]}")
    # Row 2i + link holds the rays of pair i's user.
    rows = np.repeat(uids, 2)
    links = UserRays(env_id=rays.env_id, doas=rays.doas[rows],
                     amplitudes=rays.amplitudes[rows], phases=rays.phases[rows],
                     delays=rays.delays[rows])
    f_links = f.reshape(-1, 1)
    h = _ray_sum(np.sin(links.doas), _ray_gains(links, f_links), f_links,
                 cfg).reshape(f.shape + (cfg.m,))
    est = h
    if noise.mode != NOISE_CLEAN:
        est = add_awgn(h, noise.snr_db, noise.pilot_len, rng)
    if noise.mode == NOISE_LMMSE:
        sigma2 = noise_variance(h, noise.snr_db, noise.pilot_len)
        for link in np.ndindex(f.shape):
            est[link] = lmmse_estimate(est[link], cov.at(f[link]), sigma2[link])
    x, y, y_clean = (complex_to_real(a) for a in (est[:, 0], est[:, 1], h[:, 1]))
    return x, y, y_clean, f[:, 0], f[:, 1], uids


def make_sample_pair(user: UserRays, f_up: float, delta_f: float, cfg: ArrayConfig,
                     noise: NoiseSpec, rng: np.random.Generator,
                     cov: EnvCovariance | None = None,
                     user_index: int = 0) -> SamplePair:
    """Collect one (uplink, downlink) pair at ``f_up`` and ``f_up + delta_f``.

    Both links go through the same estimation pipeline with independent
    noise draws; the clean downlink is kept alongside as the ground-truth
    label.
    """
    rays = UserRays(env_id=user.env_id, doas=user.doas[None],
                    amplitudes=user.amplitudes[None], phases=user.phases[None],
                    delays=user.delays[None])
    x, y, y_clean, f_ups, f_downs, _ = _collect_pairs(
        rays, np.zeros(1, dtype=np.int64), np.array([f_up], dtype=float), delta_f, cfg,
        noise, rng, cov)
    return SamplePair(x=x[0], y=y[0], f_up=float(f_ups[0]), f_down=float(f_downs[0]),
                      y_clean=y_clean[0], user_index=user_index)


@dataclass
class ComboSet:
    """A user pool and per-role (user, uplink frequency) assignments.

    Drawing combinations is separated from collecting the samples so that
    the same combinations can be re-collected under different noise
    specifications (the SNR sweep does exactly that), keeping role
    disjointness intact.
    """

    env: Environment
    users: UserRays  # (u, P) ray arrays, row ``uid`` for user ``uid``
    by_role: dict[str, list[tuple[int, float]]]


def draw_combos(env: Environment, role_counts: Sequence[tuple[str, int]], u: int,
                f_range: tuple[float, float], rng: np.random.Generator,
                delay_max: float = DEFAULT_DELAY_MAX) -> ComboSet:
    """Draw ``u`` users once, then disjoint per-role combination lists.

    A combination whose key is already taken by another role is redrawn;
    repeats within one role are allowed (they only occur for degenerate
    frequency ranges). If the environment cannot supply enough distinct
    keys for the requested disjoint roles, this is an error rather than a
    silent overlap.
    """
    if u < 1:
        raise ValueError("user count must be >= 1")
    seen_roles = set()
    for role, n in role_counts:
        if role not in ROLES:
            raise ValueError(f"unknown role {role!r}")
        if role in seen_roles:
            raise ValueError(f"role {role!r} requested twice")
        seen_roles.add(role)
        if n < 1:
            raise ValueError(f"pair count for role {role!r} must be >= 1, got {n}")
    f_lo, f_hi = float(f_range[0]), float(f_range[1])
    if not (0 < f_lo <= f_hi):
        raise ValueError(f"invalid frequency range [{f_lo}, {f_hi}]")
    f_span = f_hi - f_lo

    users = _draw_users(env, rng, u, delay_max)
    total = sum(n for _, n in role_counts)
    max_attempts = 1000 * total
    attempts = 0
    taken: set[tuple[int, float]] = set()
    by_role: dict[str, list[tuple[int, float]]] = {}
    for role, n in role_counts:
        own: set[tuple[int, float]] = set()
        combos: list[tuple[int, float]] = []
        while len(combos) < n:
            attempts += 1
            if attempts > max_attempts:
                raise ValueError(
                    f"cannot draw {total} combinations across disjoint roles: the "
                    f"environment only yields {len(taken)} distinct (user, frequency) keys")
            uid = int(rng.integers(0, u))
            f_up = f_lo + f_span * rng.random()  # rng.uniform(f_lo, f_hi), drawn faster
            key = (uid, f_up)
            if key in taken:
                continue
            own.add(key)
            combos.append(key)
        taken |= own
        by_role[role] = combos
    return ComboSet(env=env, users=users, by_role=by_role)


def collect(combo_set: ComboSet, role: str, delta_f: float, cfg: ArrayConfig,
            noise: NoiseSpec, rng: np.random.Generator,
            cov: EnvCovariance | None = None, limit: int | None = None,
            delay_max: float = DEFAULT_DELAY_MAX) -> TaskDataset:
    """Collect the sample pairs for one role of a drawn combination set.

    ``limit`` truncates to the first combinations (nested subsets share
    their prefix exactly, which keeps sample-count sweeps paired).
    """
    combos = combo_set.by_role[role]
    if limit is not None:
        combos = combos[:limit]
    if noise.mode == NOISE_LMMSE and cov is None:
        cov = EnvCovariance(combo_set.env, cfg, delay_max=delay_max)
    uids = np.array([uid for uid, _ in combos], dtype=np.int64)
    f_up = np.array([f for _, f in combos], dtype=float)
    return TaskDataset(combo_set.env.id, role, *_collect_pairs(
        combo_set.users, uids, f_up, delta_f, cfg, noise, rng, cov))


def generate_task_datasets(env: Environment, role_counts: Sequence[tuple[str, int]],
                           u: int, f_range: tuple[float, float], delta_f: float,
                           cfg: ArrayConfig, noise: NoiseSpec,
                           rng: np.random.Generator,
                           delay_max: float = DEFAULT_DELAY_MAX) -> list[TaskDataset]:
    """Generate datasets for several roles of one environment at once.

    Roles drawn together are disjoint in their (user, uplink frequency)
    keys; see :func:`draw_combos`.
    """
    combo_set = draw_combos(env, role_counts, u, f_range, rng, delay_max)
    cov = (EnvCovariance(env, cfg, delay_max=delay_max)
           if noise.mode == NOISE_LMMSE else None)
    return [collect(combo_set, role, delta_f, cfg, noise, rng, cov=cov,
                    delay_max=delay_max)
            for role, _ in role_counts]


def generate_task_dataset(env: Environment, role: str, n_pairs: int, u: int,
                          f_range: tuple[float, float], delta_f: float,
                          cfg: ArrayConfig, noise: NoiseSpec,
                          rng: np.random.Generator,
                          delay_max: float = DEFAULT_DELAY_MAX) -> TaskDataset:
    """Single-role convenience wrapper around :func:`generate_task_datasets`."""
    return generate_task_datasets(env, [(role, n_pairs)], u, f_range, delta_f,
                                  cfg, noise, rng, delay_max)[0]


def with_array(gcfg: GeneratorConfig, m: int) -> GeneratorConfig:
    """Copy of the generator config with a different antenna count."""
    return replace(gcfg, array=replace(gcfg.array, m=m))
