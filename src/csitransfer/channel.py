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
:func:`collect_sets` builds all links of several combination sets in one
call, into one set of rows; and the LMMSE prior keeps its user pool as
stacked ray arrays, so each covariance takes a few batched ray sums over
blocks of the pool and their Hermitian products.

Users are drawn the same way, stacked: :func:`_draw_users` fills one
``(users, P)`` set of ray arrays with a few generator calls per user, in
the order that drawing the users one by one would take, and a role's links
gather their rays from it by index. A :class:`TaskDataset` is a struct of
arrays, one row per sample pair, that every layer reads as it is: it goes
wherever a ``net.Batch`` goes, and testing scores against its own clean
labels. :class:`SamplePair` survives as a row view.

Noisy data collection is modelled as an additive complex Gaussian
observation (pilot processing gain folded into the noise variance) followed
by an optional LMMSE estimate against the environment's channel covariance,
which the collected :class:`ComboSet` builds once and owns. A set's noise
is drawn as one block that consumes its generator in the same order as
drawing it pair by pair, uplink before downlink. The per-link LMMSE
estimates (a covariance at the link's carrier and a solve each) dominate
an LMMSE collection, so :func:`collect_sets` runs them on forked lanes
(:mod:`csitransfer.lanes`) once the covariances and noise are drawn.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import lanes
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

# Rays per user, and the range of an environment's angle-spread width in
# radians.
RAY_COUNT = 25
AS_WIDTH_MIN = 0.05
AS_WIDTH_MAX = 0.2

_RAY_FIELDS = ("doas", "amplitudes", "phases", "delays")

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


class TaskDataset:
    """Sample pairs of one environment under one role tag, as arrays.

    Row i of ``xs``, ``ys`` and ``y_clean`` (each ``(N, 2M)`` real-stacked)
    and entry i of ``f_up``, ``f_down`` and ``user_index`` (each ``(N,)``)
    describe pair i. Every array is a plain attribute, so the dataset goes
    wherever a ``net.Batch`` goes; :attr:`pairs` views the rows as
    :class:`SamplePair`.

    A dataset collected or read under clean noise keeps one label array:
    ``ys`` and ``y_clean`` are the same object. The arrays are read-only
    by contract, so a caller that wants to change them copies them first.
    """

    def __init__(self, env_id: int, role: str, xs: np.ndarray, ys: np.ndarray,
                 y_clean: np.ndarray, f_up: np.ndarray, f_down: np.ndarray,
                 user_index: np.ndarray):
        if role not in ROLES:
            raise ValueError(f"unknown role {role!r}, expected one of {ROLES}")
        self.env_id = env_id
        self.role = role
        self.xs, self.ys, self.y_clean, self.f_up, self.f_down = (
            np.asarray(a, dtype=np.float64) for a in (xs, ys, y_clean, f_up, f_down))
        self.user_index = np.asarray(user_index, dtype=np.int64)
        if self.xs.ndim != 2:
            raise ValueError(f"xs must be an (N, 2M) array, got shape {self.xs.shape}")
        n, width = self.xs.shape
        if width == 0 or width % 2:
            raise ValueError(f"real-stacked rows must have a positive even width, "
                             f"got {width}")
        for name, a, shape in (("ys", self.ys, (n, width)),
                               ("y_clean", self.y_clean, (n, width)),
                               ("f_up", self.f_up, (n,)), ("f_down", self.f_down, (n,)),
                               ("user_index", self.user_index, (n,))):
            if a.shape != shape:
                raise ValueError(f"{name} has shape {a.shape}, expected {shape}")

    def __len__(self) -> int:
        return len(self.f_up)

    @property
    def pairs(self) -> tuple[SamplePair, ...]:
        """The pairs as :class:`SamplePair` objects whose arrays are views of
        this dataset's rows."""
        return tuple(SamplePair(x=x, y=y, f_up=f_up, f_down=f_down, y_clean=yc,
                                user_index=uid)
                     for x, y, yc, f_up, f_down, uid in zip(
                         self.xs, self.ys, self.y_clean, self.f_up.tolist(),
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
    delay_max: float = DEFAULT_DELAY_MAX
    f_min: float = 1.0e9
    f_max: float = 3.0e9
    delta_f: float = 120.0e6
    users: int = 25
    noise: NoiseSpec = CLEAN_SPEC

    def __post_init__(self):
        if not (0 < self.f_min <= self.f_max):
            raise ValueError("frequency range must satisfy 0 < f_min <= f_max")
        if self.f_min + self.delta_f <= 0:
            raise ValueError("downlink frequency must stay positive")
        if self.delay_max < 0:
            raise ValueError("delay_max must be nonnegative")
        if self.users < 1:
            raise ValueError("users per environment must be >= 1")


def _check_carrier(f: float):
    if not (f > 0 and math.isfinite(f)):
        raise ValueError(f"carrier frequency must be positive, got {f}")


def sample_environment(env_id: int, gcfg: GeneratorConfig, master_seed: int) -> Environment:
    """Draw one environment, deterministically from (env_id, master_seed).

    The angle-spread width is uniform on [AS_WIDTH_MIN, AS_WIDTH_MAX] and the
    interval centre is uniform over the positions where the interval still
    fits inside [-pi/2, pi/2]. With P = RAY_COUNT rays of Rayleigh(sigma)
    amplitude and uniform phase, an entry's expected squared magnitude is
    2*sigma^2*P, so sigma = A/sqrt(2P) gives per-entry RMS amplitude
    A = DEFAULT_ENTRY_AMPLITUDE. No field of ``gcfg`` changes the result.
    """
    rng, seed = stream_and_seed(master_seed, STREAM_ENV, env_id)
    width = rng.uniform(AS_WIDTH_MIN, AS_WIDTH_MAX)
    half = width / 2.0
    center = rng.uniform(-math.pi / 2 + half, math.pi / 2 - half)
    return Environment(
        id=env_id,
        as_lower=center - half,
        as_upper=center + half,
        ray_count=RAY_COUNT,
        amplitude_scale=DEFAULT_ENTRY_AMPLITUDE / math.sqrt(2.0 * RAY_COUNT),
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
    product; the q*q grid is cut back to the first M antennas. Rows run in
    slices of ``_POOL_BLOCK``, which bound the tables and change no bit.
    """
    q = math.isqrt(cfg.m - 1) + 1
    varpi = 2.0 * math.pi * cfg.d * f / cfg.c
    z = np.exp(-1j * varpi * sin_doas)
    z, row_gains = z.reshape(-1, z.shape[-1]), gains.reshape(-1, z.shape[-1])
    parts = []
    for i in range(0, max(len(z), 1), _POOL_BLOCK):  # an empty batch is one empty slice
        zi = z[i:i + _POOL_BLOCK]
        low = np.empty((q,) + zi.shape, dtype=complex)  # low[b] = z^b
        low[0] = 1.0
        for b in range(1, q):
            np.multiply(low[b - 1], zi, out=low[b])
        w = low[-1] * zi
        high = np.empty_like(low)  # high[a] = gains * w^a
        high[0] = row_gains[i:i + _POOL_BLOCK]
        for a in range(1, q):
            np.multiply(high[a - 1], w, out=high[a])
        grid = high.transpose(1, 0, 2) @ low.transpose(1, 2, 0)  # [row, a, b]
        parts.append(grid.reshape(len(zi), q * q)[:, :cfg.m])
    h = np.ascontiguousarray(parts[0]) if len(parts) == 1 else np.concatenate(parts)
    return h.reshape(gains.shape[:-1] + (cfg.m,))


def channel_response(user: UserRays, f: float, cfg: ArrayConfig) -> np.ndarray:
    """Channel vector at carrier ``f``: the ray sum over the array manifold.

    h(f) = sum_p |alpha_p| * exp(-j 2 pi f tau_p + j phi_p) * a(theta_p)
    """
    _check_carrier(f)
    for name in _RAY_FIELDS:
        if not np.isfinite(getattr(user, name)).all():
            raise ValueError(f"ray {name} must be finite")
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


# Users in an environment's covariance pool, and the ridge added to the
# sample covariance relative to its mean diagonal. Both fix the bits of every
# LMMSE dataset.
_POOL_USERS = 200
_RIDGE = 1e-6

# Ray sums (an LMMSE link counts its covariance's pool) below which a
# collection forks no lane: a fork and join costs about 2 ms, and 4,000 ray
# sums (20 LMMSE links, or 4,000 clean ones with their draws) 10-40 ms.
_LANE_MIN_RAY_SUMS = 4000

# Rows per slice of _ray_sum and pool users per Hermitian product of a
# covariance. The kernel's two power tables hold 2*q*P complex entries per
# row (0.3 MB for 50 rows of 25 rays at M=64), so slices keep its transient
# memory near that of one covariance however many links a call sums.
_POOL_BLOCK = 50


class EnvCovariance:
    """Regularised sample covariance of clean channels for one environment.

    Built once per environment from a fixed pool of users drawn from the
    environment's own seed, so the LMMSE prior does not depend on which
    dataset is being generated. The pool is kept as stacked ``(users, P)``
    ray arrays with the sines of the directions precomputed. The covariance
    depends on the carrier, so :meth:`at` evaluates it per frequency on
    demand: batched ray sums over blocks of the pool (see :func:`_ray_sum`)
    and their summed Hermitian products. ``cfg`` is the array it was built for.
    """

    def __init__(self, env: Environment, cfg: ArrayConfig,
                 delay_max: float = DEFAULT_DELAY_MAX):
        self._rays = _draw_users(env, stream(env.seed, STREAM_COVARIANCE), _POOL_USERS,
                                 delay_max)
        self._sin_doas = np.sin(self._rays.doas)
        self.cfg = cfg

    def at(self, f: float) -> np.ndarray:
        _check_carrier(f)
        gains = _ray_gains(self._rays, f)
        n, m = gains.shape[0], self.cfg.m
        r = np.zeros((m, m), dtype=complex)
        for i in range(0, n, _POOL_BLOCK):
            h = _ray_sum(self._sin_doas[i:i + _POOL_BLOCK], gains[i:i + _POOL_BLOCK], f,
                         self.cfg)
            r += h.T @ h.conj()
        r /= n
        return r + _RIDGE * (np.trace(r).real / m) * np.eye(m)


def make_sample_pair(user: UserRays, f_up: float, delta_f: float, cfg: ArrayConfig,
                     noise: NoiseSpec, rng: np.random.Generator,
                     cov: EnvCovariance | None = None,
                     user_index: int = 0) -> SamplePair:
    """Collect one (uplink, downlink) pair at ``f_up`` and ``f_up + delta_f``.

    Both links go through the same estimation pipeline with independent
    noise draws; the clean downlink is kept alongside as the ground-truth
    label.
    """
    if noise.mode == NOISE_LMMSE and (cov is None or cov.cfg != cfg):
        raise ValueError("LMMSE noise mode requires the environment covariance of this array")
    rays = UserRays(user.env_id, *(getattr(user, a)[None] for a in _RAY_FIELDS))
    # No environment: the covariance, the only thing drawn from it, is given.
    combo_set = ComboSet(env=None, users=rays, by_role={ROLE_TEST: [(0, f_up)]}, cov=cov)
    arrays = collect_sets([combo_set], [ROLE_TEST], delta_f, cfg, noise, [rng])
    x, y, y_clean, up, down, _ = (a[0] for a in arrays)
    return SamplePair(x, y, float(up), float(down), y_clean, user_index)


@dataclass
class ComboSet:
    """A user pool, per-role (user, uplink frequency) assignments, and the
    environment's LMMSE prior.

    Drawing combinations is separated from collecting the samples so that
    the same combinations can be re-collected under different noise
    specifications (the SNR sweep does exactly that), keeping role
    disjointness intact. ``cov`` is built by :meth:`covariance` on the
    first LMMSE collection, with the users' ``delay_max``, and reused.
    """

    env: Environment
    users: UserRays  # (u, P) ray arrays, row ``uid`` for user ``uid``
    by_role: dict[str, list[tuple[int, float]]]
    delay_max: float = DEFAULT_DELAY_MAX
    cov: EnvCovariance | None = None

    def covariance(self, cfg: ArrayConfig) -> EnvCovariance:
        """The environment's covariance for array ``cfg``, built on first use.

        One combination set serves one array: asking for another is an error.
        """
        if self.cov is None:
            self.cov = EnvCovariance(self.env, cfg, delay_max=self.delay_max)
        elif self.cov.cfg != cfg:
            raise ValueError(f"environment {self.env.id}: combinations collected under "
                             f"{self.cov.cfg}, not {cfg}")
        return self.cov


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
    return ComboSet(env=env, users=users, by_role=by_role, delay_max=delay_max)


def collect_sets(combo_sets: Sequence[ComboSet], roles: Sequence[str], delta_f: float,
                 cfg: ArrayConfig, noise: NoiseSpec, rngs: Sequence[np.random.Generator],
                 limit: int | None = None) -> tuple[np.ndarray, ...]:
    """Collect the same roles of several drawn combination sets at once.

    Each set gives the first ``limit`` combinations of each role (all when
    None), as many as every other set; a pair is user ``uid`` at ``f_up``
    and ``f_up + delta_f``. All links go through one batched ray sum. Set s
    draws its noise from ``rngs[s]`` as one AWGN block (pairs, 2 links, 2
    parts, M), roles in the order given, as pair-by-pair collection would;
    LMMSE estimates each link against the set's :meth:`ComboSet.covariance`,
    a link per item of :func:`lanes.fork_map` (:func:`collection_lanes`).

    Returns the arrays of :class:`TaskDataset`, ``xs`` to ``user_index``:
    rows ``(S*n, 2M)`` and columns ``(S*n,)``, set by set and within a set
    role by role. Under clean noise ``y_clean`` is ``ys`` itself.
    """
    keys = np.concatenate([np.array([cs.by_role[role][:limit] for cs in combo_sets],
                                    dtype=float).reshape(len(combo_sets), -1, 2)
                           for role in roles], axis=1)  # (S, n, [uid, f_up])
    uids = keys[..., 0].astype(np.int64)
    f = np.stack([keys[..., 1], keys[..., 1] + delta_f], axis=-1)  # (S, n, 2 links)
    bad = ~((f > 0) & np.isfinite(f)).all(axis=-1)
    if bad.any():
        raise ValueError("frequencies must be positive, got f_up={}, f_down={}".format(*f[bad][0]))
    # Row 2i + link of set s holds the rays of its pair i's user.
    rows = np.repeat(uids, 2, axis=1)
    links = UserRays(-1, *(np.concatenate([getattr(cs.users, a)[r]
                                           for cs, r in zip(combo_sets, rows)])
                           for a in _RAY_FIELDS))
    f_links = f.reshape(-1, 1)
    h = _ray_sum(np.sin(links.doas), _ray_gains(links, f_links), f_links,
                 cfg).reshape(f.shape + (cfg.m,))
    del links, rows  # so the outputs, which outlive the call, reuse the rays' memory
    est = h
    if noise.mode != NOISE_CLEAN:
        est = np.stack([add_awgn(h_s, noise.snr_db, noise.pilot_len, rng)
                        for h_s, rng in zip(h, rngs)])
    if noise.mode == NOISE_LMMSE:
        sigma2 = noise_variance(h, noise.snr_db, noise.pilot_len)
        covs = [cs.covariance(cfg) for cs in combo_sets]  # built and kept in the caller
        links = list(np.ndindex(f.shape))
        count = collection_lanes(len(links), len(links), noise)
        if count > 1:  # the lanes write their estimates where the caller reads them
            est, private = lanes.shared_empty(est.shape, complex), est
            est[...] = private

        def estimate(k):
            link = links[k]
            est[link] = lmmse_estimate(est[link], covs[link[0]].at(f[link]), sigma2[link])

        lanes.fork_map(estimate, len(links), count)
    xs, ys = (complex_to_real(est[:, :, link].reshape(-1, cfg.m)) for link in (0, 1))
    f = f.reshape(-1, 2)
    return (xs, ys, ys if noise.mode == NOISE_CLEAN else
            complex_to_real(h[:, :, 1].reshape(-1, cfg.m)), f[:, 0], f[:, 1], uids.reshape(-1))


def collection_lanes(links: int, items: int, noise: NoiseSpec) -> int:
    """Lanes for collecting ``links`` links in ``items`` items: one unless
    their ray sums reach ``_LANE_MIN_RAY_SUMS``."""
    ray_sums = links * (1 + _POOL_USERS if noise.mode == NOISE_LMMSE else 1)
    return lanes.lane_count(items, ray_sums >= _LANE_MIN_RAY_SUMS)


def collect(combo_set: ComboSet, role: str, delta_f: float, cfg: ArrayConfig,
            noise: NoiseSpec, rng: np.random.Generator,
            limit: int | None = None) -> TaskDataset:
    """Collect the sample pairs for one role of a drawn combination set.

    LMMSE collection estimates against the combination set's own covariance
    (:meth:`ComboSet.covariance`). ``limit`` truncates to the first
    combinations (nested subsets share their prefix exactly, which keeps
    sample-count sweeps paired). The one-set case of :func:`collect_sets`.
    """
    return TaskDataset(combo_set.env.id, role,
                       *collect_sets([combo_set], [role], delta_f, cfg, noise, [rng], limit))


def generate_task_datasets(env: Environment, role_counts: Sequence[tuple[str, int]],
                           u: int, f_range: tuple[float, float], delta_f: float,
                           cfg: ArrayConfig, noise: NoiseSpec,
                           rng: np.random.Generator,
                           delay_max: float = DEFAULT_DELAY_MAX) -> list[TaskDataset]:
    """Generate datasets for several roles of one environment at once.

    Roles drawn together are disjoint in their (user, uplink frequency)
    keys (see :func:`draw_combos`) and collected in one :func:`collect_sets`
    call, with one covariance and the bits of collecting them one by one.
    """
    combo_set = draw_combos(env, role_counts, u, f_range, rng, delay_max)
    arrays = collect_sets([combo_set], [role for role, _ in role_counts], delta_f, cfg, noise,
                          [rng])
    out, lo = [], 0
    for role, n in role_counts:
        xs, ys, y_clean, *rest = (a[lo:lo + n] for a in arrays)
        out.append(TaskDataset(env.id, role, xs, ys, ys if arrays[2] is arrays[1] else y_clean,
                               *rest))
        lo += n
    return out
