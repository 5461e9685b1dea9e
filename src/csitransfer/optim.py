"""Plain gradient descent and Adam over flat parameter buffers.

Both updates are pure in the parameters: they return a fresh parameter tree
and never mutate the parameters or gradients passed in, so identical inputs
give bit-identical outputs. Each works on the whole ``NetParams.flat``
buffer at once: ``gd_step`` allocates only the returned buffer, and
``adam_step`` that and a scratch of at most ``_CHUNK`` elements.

An :class:`AdamState` is owned by the run that created it: ``adam_step``
updates its moments in place and returns the same object, advanced by one
step. Each training or adaption stage constructs its own Adam state;
moments are never carried across stages.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .net import NetParams, _check_same_shape, zeros_like_params

RHO1_DEFAULT = 0.9
RHO2_DEFAULT = 0.999
EPS_DEFAULT = 1e-8

# Elements per chunk of Adam's parameter update, whose numerator goes through
# a scratch array of this many float64s: 128,000 bytes, under the 128 KiB at
# which glibc's allocator maps fresh pages for a request (and unmaps them on
# release), so the scratch is reused from the heap step after step. A
# scratch the size of the parameters would either fault in fresh pages
# every step or, kept in the state, add a parameter-sized buffer to every
# run's memory.
_CHUNK = 16_000


@dataclass
class AdamState:
    """First/second gradient moments, step counter, and hyperparameters.

    ``m`` and ``v`` are updated in place by :func:`adam_step`.
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


def gd_step(params: NetParams, grads: NetParams, beta: float) -> NetParams:
    """One plain gradient-descent step: params - beta * grads."""
    if beta <= 0:
        raise ValueError(f"learning rate must be positive, got {beta}")
    _check_same_shape(params, grads)
    out = beta * grads.flat
    np.subtract(params.flat, out, out=out)
    return params.like(out)


def adam_step(state: AdamState, params: NetParams, grads: NetParams,
              gamma: float) -> tuple[NetParams, AdamState]:
    """One Adam step with bias-corrected moments.

    m <- rho1 m + (1-rho1) g;  v <- rho2 v + (1-rho2) g^2;
    params <- params - gamma * m_hat / (sqrt(v_hat) + eps).

    The moments are updated in place and ``state`` itself is returned with
    its step counter advanced; the parameters come back as a fresh tree.
    Every operation is applied in the order the formulas are written, so
    the result equals the per-array expressions bit for bit.
    """
    if gamma <= 0:
        raise ValueError(f"learning rate must be positive, got {gamma}")
    _check_same_shape(params, grads)
    _check_same_shape(params, state.m)
    m, v, g = state.m.flat, state.v.flat, grads.flat
    out = np.empty_like(m)
    state.t += 1
    m *= state.rho1
    np.multiply(1.0 - state.rho1, g, out=out)
    m += out
    v *= state.rho2
    np.multiply(1.0 - state.rho2, g, out=out)
    out *= g
    v += out
    bc1 = 1.0 - state.rho1 ** state.t
    bc2 = 1.0 - state.rho2 ** state.t
    # out holds the denominator, then each chunk's update and result.
    np.divide(v, bc2, out=out)
    np.sqrt(out, out=out)
    out += state.eps
    num = np.empty(min(_CHUNK, out.size))
    for start in range(0, out.size, _CHUNK):
        chunk = slice(start, start + _CHUNK)
        den = out[chunk]
        part = num[:den.size]
        np.divide(m[chunk], bc1, out=part)
        part *= gamma
        np.divide(part, den, out=den)
        np.subtract(params.flat[chunk], den, out=den)
    return params.like(out), state
