"""Plain gradient descent and Adam over flat parameter buffers.

Each rule comes in two forms. The in-place updates, :func:`gd_update` and
:func:`adam_update`, overwrite the parameters and take a caller-owned
scratch buffer of the parameter size (a :class:`~csitransfer.net.Workspace`
owns one per run), so a training loop allocates nothing per step. The pure
steps, :func:`gd_step` and :func:`adam_step`, are thin wrappers that run the
same update on a fresh copy: they never mutate the parameters or gradients
passed in, and give the same bits as the in-place form.

Adam folds both bias corrections into its step size (Kingma & Ba, arXiv
1412.6980, section 2): with ``c1 = 1 - rho1^t`` and ``c2 = 1 - rho2^t``,

    params <- params - alpha_t * m / (sqrt(v) + eps_hat),
    alpha_t = gamma * sqrt(c2) / c1,  eps_hat = eps * sqrt(c2),

which is the textbook ``gamma * (m / c1) / (sqrt(v / c2) + eps)`` with one
array division where the textbook form has three. The two orders differ by
rounding only. Over 1,000 adaption steps of the M=16 and M=64 prediction
networks on 20 rows, the parameters stayed within 4.1e-15 of their largest
entry, and every step's loss within 4.1e-16 relative at rate 1e-6 (within
2e-16 of the largest loss at rate 1e-3, where the losses fall towards
zero); the tests bound both at 1e-14. The moment updates are unchanged,
operation for operation.

An :class:`AdamState` is owned by the run that created it: both forms
update its moments in place and advance its step counter. Each training or
adaption stage constructs its own Adam state; moments are never carried
across stages, and the state holds no scratch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .net import NetParams, _check_same_shape, zeros_like_params

RHO1_DEFAULT = 0.9
RHO2_DEFAULT = 0.999
EPS_DEFAULT = 1e-8


@dataclass
class AdamState:
    """First/second gradient moments, step counter, and hyperparameters.

    ``m`` and ``v`` are updated in place by :func:`adam_update`.
    """

    m: NetParams
    v: NetParams
    t: int = 0
    rho1: float = RHO1_DEFAULT
    rho2: float = RHO2_DEFAULT
    eps: float = EPS_DEFAULT

    @classmethod
    def init(cls, params: NetParams, rho1: float = RHO1_DEFAULT,
             rho2: float = RHO2_DEFAULT, eps: float = EPS_DEFAULT) -> "AdamState":
        return cls(m=zeros_like_params(params), v=zeros_like_params(params),
                   t=0, rho1=rho1, rho2=rho2, eps=eps)


def gd_update(params: NetParams, grads: NetParams, beta: float, work: np.ndarray):
    """params <- params - beta * grads, in place. ``work`` is overwritten
    and may be ``grads.flat`` when the gradient is not needed afterwards."""
    if beta <= 0:
        raise ValueError(f"learning rate must be positive, got {beta}")
    _check_same_shape(params, grads)
    np.multiply(grads.flat, beta, out=work)
    np.subtract(params.flat, work, out=params.flat)


def gd_step(params: NetParams, grads: NetParams, beta: float) -> NetParams:
    """One plain gradient-descent step, params - beta * grads, as a fresh tree."""
    out = params.copy()
    gd_update(out, grads, beta, np.empty_like(out.flat))
    return out


def adam_update(state: AdamState, params: NetParams, grads: NetParams, gamma: float,
                work: np.ndarray):
    """One Adam step, in place on ``params`` and ``state``.

    m <- rho1 m + (1-rho1) g;  v <- rho2 v + (1-rho2) g^2;
    params <- params - alpha_t * m / (sqrt(v) + eps_hat), with the bias
    corrections folded into alpha_t and eps_hat (module docstring).

    ``work`` (parameter-sized, not ``grads.flat``) is overwritten; the
    gradients are only read.
    """
    if gamma <= 0:
        raise ValueError(f"learning rate must be positive, got {gamma}")
    _check_same_shape(params, grads)
    _check_same_shape(params, state.m)
    m, v, g = state.m.flat, state.v.flat, grads.flat
    state.t += 1
    m *= state.rho1
    np.multiply(1.0 - state.rho1, g, out=work)
    m += work
    v *= state.rho2
    np.multiply(1.0 - state.rho2, g, out=work)
    work *= g
    v += work
    root_c2 = math.sqrt(1.0 - state.rho2 ** state.t)
    alpha = gamma * root_c2 / (1.0 - state.rho1 ** state.t)
    np.sqrt(v, out=work)
    work += state.eps * root_c2
    np.divide(m, work, out=work)
    work *= alpha
    np.subtract(params.flat, work, out=params.flat)


def adam_step(state: AdamState, params: NetParams, grads: NetParams,
              gamma: float) -> tuple[NetParams, AdamState]:
    """One Adam step (:func:`adam_update`) on a fresh copy of the parameters.

    The moments are updated in place and ``state`` itself is returned with
    its step counter advanced; ``params`` and ``grads`` are left untouched.
    """
    out = params.copy()
    adam_update(state, out, grads, gamma, np.empty_like(out.flat))
    return out, state
