"""Fully-connected network with hand-written exact derivatives.

The forward map is a cascade of affine layers, ReLU on hidden layers and
identity on the output. The loss over a batch is the per-sample sum of
squared errors averaged over the batch. Besides plain reverse-mode
gradients the module provides the directional derivative of the gradient
map (a Hessian-vector product, computed forward-over-reverse), which is
what lets the meta-learner differentiate exactly through its own
gradient-descent steps.

Parameters, gradients and Hessian-vector products are :class:`NetParams`:
one contiguous float64 buffer with per-layer weight and bias views, which
the kernels fill layer by layer in place.

Every dense forward pass and gradient sweep runs on a :class:`Workspace`,
the in-place engine of the training loops: it owns one run's activation,
delta and gradient buffers, sized from the layer shapes and the row count,
and reads the parameters afresh at each call, so a loop that steps them in
place allocates nothing per step. The functional :func:`forward_batch`,
:func:`mse_loss` and :func:`loss_and_grad` run the same code on a fresh
workspace. The meta step's Hessian-vector and block kernels are separate.

All math is 64-bit. ReLU's subgradient at zero is fixed to zero so results
are bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

RELU = "relu"
LINEAR = "linear"


@dataclass(frozen=True)
class LayerSpec:
    """Layer widths and activation tags; hidden layers ReLU, output linear."""

    sizes: tuple[int, ...]
    activations: tuple[str, ...]

    def __post_init__(self):
        if len(self.sizes) < 2:
            raise ValueError("a network needs at least an input and an output layer")
        if any(n < 1 for n in self.sizes):
            raise ValueError(f"layer widths must be positive, got {self.sizes}")
        if len(self.activations) != len(self.sizes) - 1:
            raise ValueError("need one activation tag per non-input layer")
        if self.sizes[0] != self.sizes[-1]:
            raise ValueError("input and output widths must match (both are 2M)")
        for act in self.activations[:-1]:
            if act != RELU:
                raise ValueError(f"hidden activations must be {RELU!r}, got {act!r}")
        if self.activations[-1] != LINEAR:
            raise ValueError(f"output activation must be {LINEAR!r}")

    @classmethod
    def fnn(cls, m: int, hidden: Iterable[int] = (128, 128)) -> "LayerSpec":
        """Standard prediction network: 2M -> hidden... -> 2M."""
        hidden = tuple(hidden)
        sizes = (2 * m, *hidden, 2 * m)
        activations = (RELU,) * len(hidden) + (LINEAR,)
        return cls(sizes=sizes, activations=activations)

    @property
    def n_layers(self) -> int:
        return len(self.sizes) - 1


class NetParams:
    """Per-layer weight matrices (n_l x n_{l-1}) and bias vectors (n_l).

    The parameters live in one contiguous float64 buffer, ``flat``: every
    weight row-major, layer by layer, then every bias. ``weights`` and
    ``biases`` are read-only tuples of views into it, so writing through a
    view writes the buffer, and whole-parameter arithmetic (optimizer steps,
    axpy, dot products) is one vector operation on ``flat``. The
    constructor copies its inputs into a fresh buffer.
    """

    __slots__ = ("flat", "_weights", "_biases")

    def __init__(self, weights: Sequence[np.ndarray], biases: Sequence[np.ndarray]):
        if len(weights) != len(biases):
            raise ValueError("need one bias vector per weight matrix")
        for i, (w, b) in enumerate(zip(weights, biases)):
            if w.ndim != 2 or b.ndim != 1 or w.shape[0] != b.shape[0]:
                raise ValueError(f"layer {i}: weight {w.shape} and bias {b.shape} mismatch")
            if i > 0 and w.shape[1] != weights[i - 1].shape[0]:
                raise ValueError(f"layer {i}: input width {w.shape[1]} does not chain "
                                 f"with previous output {weights[i - 1].shape[0]}")
        self._bind(np.empty(sum(w.size + b.size for w, b in zip(weights, biases))),
                   [w.shape for w in weights])
        for view, a in zip(self._weights + self._biases, [*weights, *biases]):
            view[...] = a

    def _bind(self, flat: np.ndarray, shapes: Sequence[tuple[int, int]]):
        """Take ``flat`` as the buffer and cut the per-layer views from it."""
        self.flat = flat
        weights, biases, at = [], [], 0
        for n_out, n_in in shapes:
            weights.append(flat[at:at + n_out * n_in].reshape(n_out, n_in))
            at += n_out * n_in
        for n_out, _ in shapes:
            biases.append(flat[at:at + n_out])
            at += n_out
        self._weights, self._biases = tuple(weights), tuple(biases)

    @property
    def weights(self) -> tuple[np.ndarray, ...]:
        return self._weights

    @property
    def biases(self) -> tuple[np.ndarray, ...]:
        return self._biases

    def __getstate__(self):  # the buffer and the shapes; loading cuts the views again
        return self.flat, [w.shape for w in self._weights]

    def __setstate__(self, state):
        self._bind(*state)

    def like(self, flat: np.ndarray) -> "NetParams":
        """Parameters with this layout over the buffer ``flat`` (not copied)."""
        out = NetParams.__new__(NetParams)
        out._bind(flat, [w.shape for w in self._weights])
        return out

    def layer_spec(self) -> LayerSpec:
        sizes = (self.weights[0].shape[1],) + tuple(w.shape[0] for w in self.weights)
        return LayerSpec(sizes=sizes, activations=(RELU,) * (len(sizes) - 2) + (LINEAR,))

    def copy(self) -> "NetParams":
        return self.like(self.flat.copy())


@dataclass
class Batch:
    """Input/label matrices, one row per sample.

    Every function that takes a batch reads only ``len(batch)``, ``xs`` and
    ``ys``, so a ``channel.TaskDataset`` goes in its place as it is.
    """

    xs: np.ndarray
    ys: np.ndarray

    def __post_init__(self):
        self.xs = np.atleast_2d(np.asarray(self.xs, dtype=np.float64))
        self.ys = np.atleast_2d(np.asarray(self.ys, dtype=np.float64))
        if self.xs.shape[0] != self.ys.shape[0]:
            raise ValueError(f"batch has {self.xs.shape[0]} inputs but "
                             f"{self.ys.shape[0]} labels")

    def __len__(self) -> int:
        return self.xs.shape[0]


def zeros_like_params(p: NetParams) -> NetParams:
    return p.like(np.zeros_like(p.flat))


def params_axpy(alpha: float, x: NetParams, y: NetParams,
                out: NetParams | None = None) -> NetParams:
    """y + alpha * x, elementwise, as a new tree or written into ``out``."""
    if out is None:
        return y.like(y.flat + alpha * x.flat)
    np.add(y.flat, alpha * x.flat, out=out.flat)
    return out


def params_dot(a: NetParams, b: NetParams) -> float:
    """Sum of the elementwise products. One product over ``flat``, summed
    per layer array and then across arrays in buffer order, which keeps the
    rounding of a sum taken array by array."""
    prod = a.like(a.flat * b.flat)
    return sum(float(np.sum(x)) for x in prod.weights + prod.biases)


def _check_same_shape(a: NetParams, b: NetParams):
    """Equal layouts; the weight shapes fix the bias shapes."""
    for wa, wb in zip(a.weights, b.weights):
        if wa.shape != wb.shape:
            raise ValueError(f"weight shape mismatch: {wa.shape} vs {wb.shape}")
    if len(a.weights) != len(b.weights):
        raise ValueError("layer count mismatch")


def _truncated_normal(rng: np.random.Generator, sigma: float, shape) -> np.ndarray:
    """Normal(0, sigma^2) restricted to two standard deviations, by rejection."""
    out = rng.normal(0.0, 1.0, size=shape)
    bad = np.abs(out) > 2.0
    while np.any(bad):
        out[bad] = rng.normal(0.0, 1.0, size=int(bad.sum()))
        bad = np.abs(out) > 2.0
    return sigma * out


def init_params(spec: LayerSpec, rng: np.random.Generator) -> NetParams:
    """Truncated-normal weights with variance 1/fan-in, zero biases."""
    weights, biases = [], []
    for l in range(spec.n_layers):
        n_in, n_out = spec.sizes[l], spec.sizes[l + 1]
        sigma = 1.0 / np.sqrt(n_in)
        weights.append(_truncated_normal(rng, sigma, (n_out, n_in)))
        biases.append(np.zeros(n_out))
    return NetParams(weights, biases)


class Workspace:
    """The in-place engine of every dense training loop: one network's
    forward pass and gradient sweep over a fixed set of rows.

    ``params`` is read afresh at every call, so a loop that updates it in
    place (the ``*_update`` functions of :mod:`csitransfer.optim`) trains
    through the workspace. ``xs`` and ``ys`` are the input and label rows,
    held by reference: a minibatch loop gathers each batch into them. Every
    other buffer is sized once, from the layer shapes and the row count:
    per layer the activations (ReLU applied in place), the ReLU masks
    (activation > 0) and the deltas, plus the gradient ``grads`` (in
    ``params``' layout) and ``work``, a parameter-sized scratch for the
    optimizer updates. A call allocates nothing, and each call overwrites
    what the last one left in the buffers.

    A workspace built without labels is forward-only: it holds the
    activations alone, and :meth:`loss` and :meth:`loss_and_grad` refuse.
    """

    def __init__(self, params: NetParams, xs: np.ndarray, ys: np.ndarray | None = None):
        if xs.shape[1] != params.weights[0].shape[1]:
            raise ValueError(f"input width {xs.shape[1]} does not match first layer "
                             f"({params.weights[0].shape[1]})")
        rows = xs.shape[0]
        self.params, self.xs, self.ys = params, xs, ys
        # acts[l] is layer l's input and acts[-1] the output.
        self.acts = [xs, *(np.empty((rows, w.shape[0])) for w in params.weights)]
        if ys is None:
            return
        self.masks = [np.empty(a.shape, dtype=bool) for a in self.acts[1:-1]]
        self.deltas = [np.empty_like(a) for a in self.acts[1:]]
        self.grads = params.like(np.empty_like(params.flat))
        self.work = np.empty_like(params.flat)

    def forward(self) -> np.ndarray:
        """The network's output on ``xs`` (a view of a buffer the next call
        overwrites)."""
        a = self.xs
        last = len(self.params.weights) - 1
        for l, (w, b) in enumerate(zip(self.params.weights, self.params.biases)):
            a = np.matmul(a, w.T, out=self.acts[l + 1])
            a += b
            if l < last:
                np.maximum(a, 0.0, out=a)
        return a

    def loss(self) -> float:
        """Per-sample sum of squared errors on the rows, averaged over them.
        Leaves the residual ``output - ys`` in the output layer's delta."""
        if self.ys is None:
            raise ValueError("a forward-only workspace has no labels to score")
        out = self.forward()
        diff = np.subtract(out, self.ys, out=self.deltas[-1])
        np.multiply(diff, diff, out=out)
        return float(out.sum() / len(self.xs))

    def loss_and_grad(self) -> float:
        """The loss, with its exact gradient written into ``grads`` by one
        reverse sweep."""
        loss = self.loss()
        weights, grads = self.params.weights, self.grads
        delta = self.deltas[-1]
        delta *= 2.0 / len(self.xs)  # output layer is linear
        for l in range(len(weights) - 1, -1, -1):
            np.matmul(delta.T, self.acts[l], out=grads.weights[l])
            delta.sum(axis=0, out=grads.biases[l])
            if l > 0:
                below = np.matmul(delta, weights[l], out=self.deltas[l - 1])
                below *= np.greater(self.acts[l], 0.0, out=self.masks[l - 1])
                delta = below
        return loss


def forward_batch(params: NetParams, xs: np.ndarray) -> np.ndarray:
    """Batched prediction, one output row per input row."""
    return Workspace(params, np.atleast_2d(np.asarray(xs, dtype=np.float64))).forward()


def mse_loss(params: NetParams, batch: Batch) -> float:
    """Per-sample sum of squared errors, averaged over the batch."""
    if len(batch) == 0:
        raise ValueError("batch must be nonempty")
    return Workspace(params, batch.xs, batch.ys).loss()


def loss_and_grad(params: NetParams, batch: Batch) -> tuple[float, NetParams]:
    """Loss and its exact gradient in one reverse sweep, on a fresh
    :class:`Workspace` whose gradient buffer the caller then owns."""
    if len(batch) == 0:
        raise ValueError("batch must be nonempty")
    ws = Workspace(params, batch.xs, batch.ys)
    return ws.loss_and_grad(), ws.grads


def forward_param_jvp(params: NetParams, direction: NetParams, batch: Batch) -> NetParams:
    """Directional derivative of the gradient map along ``direction``.

    Equivalently the Hessian-vector product of the batch loss. Tangents are
    pushed through the forward pass and then through the reverse sweep, so
    the result is exact up to rounding (the ReLU masks are constants of the
    linearisation, matching the zero subgradient convention).
    """
    _check_same_shape(params, direction)
    if len(batch) == 0:
        raise ValueError("batch must be nonempty")
    v = len(batch)
    n_layers = len(params.weights)

    # Forward sweep with tangents.
    acts = [batch.xs]
    tacts = [np.zeros_like(batch.xs)]
    masks = []
    a, ta = batch.xs, np.zeros_like(batch.xs)
    for l in range(n_layers):
        z = a @ params.weights[l].T + params.biases[l]
        tz = ta @ params.weights[l].T + a @ direction.weights[l].T + direction.biases[l]
        if l < n_layers - 1:
            mask = z > 0
            a, ta = z * mask, tz * mask
        else:
            mask = None
            a, ta = z, tz
        masks.append(mask)
        acts.append(a)
        tacts.append(ta)

    # Reverse sweep carrying (value, tangent) of each delta.
    out = params.like(np.empty_like(params.flat))
    delta = 2.0 / v * (acts[-1] - batch.ys)
    tdelta = 2.0 / v * tacts[-1]
    for l in range(n_layers - 1, -1, -1):
        hw = out.weights[l]
        np.matmul(tdelta.T, acts[l], out=hw)
        hw += delta.T @ tacts[l]
        tdelta.sum(axis=0, out=out.biases[l])
        if l > 0:
            g = delta @ params.weights[l]
            tg = tdelta @ params.weights[l] + delta @ direction.weights[l]
            delta = g * masks[l - 1]
            tdelta = tg * masks[l - 1]
    return out


# ---------------------------------------------------------------------------
# Block kernels of the meta step.
#
# A block stacks B tasks whose batches have equal sizes, as (B, n, width)
# arrays. Task weights are never formed: each task's layer weight is a base
# matrix shared by the block (omega, or zero for a direction) plus a
# low-rank term, so every product is one GEMM of the base against all B*n
# rows of the block plus two thin batched products against the factors.


@dataclass
class BlockTerms:
    """Per-task parameters of a block of B tasks, as low-rank weight terms.

    Task t's layer-l weight is ``base + scale * p[l][t].T @ q[l][t]`` over
    the first ``rank[l]`` rows, with ``p[l]`` shaped (B, rows, n_l) and
    ``q[l]`` (B, rows, n_{l-1}); its bias is ``biases[l][t]``. Rows past
    the rank are room to append to. An inner-loop iterate has base omega
    and ``scale = -beta``, with rows the support deltas (p) and layer
    inputs (q) of the steps taken; a direction in parameter space has base
    zero and scale 1.
    """

    p: list[np.ndarray]
    q: list[np.ndarray]
    biases: list[np.ndarray]
    rank: list[int]
    scale: float = 1.0

    @classmethod
    def empty(cls, omega: NetParams, n_tasks: int, rows: Sequence[int],
              scale: float = 1.0) -> "BlockTerms":
        """Rank-zero terms with room for ``rows[l]`` rows in layer l and each
        task's biases set to omega's."""
        return cls(p=[np.empty((n_tasks, r, w.shape[0])) for w, r in zip(omega.weights, rows)],
                   q=[np.empty((n_tasks, r, w.shape[1])) for w, r in zip(omega.weights, rows)],
                   biases=[np.repeat(b[None], n_tasks, axis=0) for b in omega.biases],
                   rank=[0] * len(rows), scale=scale)

    def live(self, l: int) -> tuple[np.ndarray, np.ndarray]:
        """Layer l's factors over the rows in use (views)."""
        return self.p[l][:, :self.rank[l]], self.q[l][:, :self.rank[l]]

    def append(self, l: int, p_rows: np.ndarray, q_rows: np.ndarray, p_scale: float = 1.0):
        """Add ``p_scale * p_rows.T @ q_rows`` to each task's layer-l term."""
        r, k = self.rank[l], p_rows.shape[1]
        np.multiply(p_rows, p_scale, out=self.p[l][:, r:r + k])
        self.q[l][:, r:r + k] = q_rows
        self.rank[l] = r + k

    def head(self, r: int) -> "BlockTerms":
        """The terms of the first ``r`` rows of every layer (views; the
        biases are shared, not copied)."""
        return BlockTerms(self.p, self.q, self.biases, [r] * len(self.p), self.scale)

    def tape(self, start: int, stop: int) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Rows ``start:stop`` of every layer as (q rows, p rows): for an
        iterate, the layer inputs and deltas of the step that added them."""
        return [q[:, start:stop] for q in self.q], [p[:, start:stop] for p in self.p]


def _block_matmul(x: np.ndarray, w: np.ndarray | None, left: np.ndarray,
                  right: np.ndarray, scale: float) -> np.ndarray:
    """``x[t] @ (w + scale * left[t].T @ right[t])`` for every task t.

    ``x`` is (B, n, k), the shared ``w`` (k, m) or None for zero, ``left``
    (B, r, k) and ``right`` (B, r, m).
    """
    b, n, k = x.shape
    shared = None if w is None else (x.reshape(b * n, k) @ w).reshape(b, n, -1)
    if left.shape[1] == 0:
        return shared
    thin = x @ left.transpose(0, 2, 1)
    if scale != 1.0:
        thin *= scale
    out = thin @ right
    if shared is not None:
        out += shared
    return out


def _forward(x: np.ndarray, w: np.ndarray | None, terms: BlockTerms, l: int) -> np.ndarray:
    """Layer l's linear map (no bias) of a block's rows: ``x @ W_t.T``."""
    p, q = terms.live(l)
    return _block_matmul(x, None if w is None else w.T, q, p, terms.scale)


def _reverse(d: np.ndarray, w: np.ndarray | None, terms: BlockTerms, l: int) -> np.ndarray:
    """Layer l's transposed map of a block's deltas: ``d @ W_t``."""
    p, q = terms.live(l)
    return _block_matmul(d, w, p, q, terms.scale)


def block_loss_and_grad_terms(omega: NetParams, terms: BlockTerms, xs: np.ndarray,
                              ys: np.ndarray):
    """Per-task loss and gradient factors of a block at ``omega + terms``.

    Returns ``(losses, acts, deltas)``: ``losses`` is (B,), ``acts[l]`` the
    input of layer l and ``deltas[l]`` its output delta, each (B, n, width).
    Task t's gradient of layer l is ``deltas[l][t].T @ acts[l][t]`` for the
    weight and ``deltas[l][t].sum(0)`` for the bias. Hidden ReLU masks are
    ``acts[l + 1] > 0``, so the pair is the whole tape of the sweep.
    """
    n_layers = len(omega.weights)
    n = xs.shape[1]
    acts = [xs]
    a = xs
    for l in range(n_layers):
        a = _forward(a, omega.weights[l], terms, l)
        a += terms.biases[l][:, None, :]
        if l < n_layers - 1:
            a = np.maximum(a, 0.0)
            acts.append(a)
    diff = a - ys
    losses = np.sum(diff * diff, axis=(1, 2)) / n
    deltas = [None] * n_layers
    delta = 2.0 / n * diff  # output layer is linear
    for l in range(n_layers - 1, -1, -1):
        deltas[l] = delta
        if l > 0:
            delta = _reverse(delta, omega.weights[l], terms, l) * (acts[l] > 0)
    return losses, acts, deltas


def block_gradients(omega: NetParams, acts: list[np.ndarray], deltas: list[np.ndarray],
                    hvp_rows: int = 0) -> BlockTerms:
    """The per-task gradients of a sweep of :func:`block_loss_and_grad_terms`
    as a direction, with room for :func:`block_hvp_axpy` calls on support
    batches of ``hvp_rows`` rows in total."""
    n = acts[0].shape[1]
    rows = [n + (hvp_rows if l == 0 else 2 * hvp_rows) for l in range(len(acts))]
    v = BlockTerms.empty(omega, acts[0].shape[0], rows)
    for l, (a, d) in enumerate(zip(acts, deltas)):
        v.append(l, d, a)
        v.biases[l] = d.sum(axis=1)
    return v


def block_hvp_axpy(alpha: float, omega: NetParams, terms: BlockTerms,
                   acts: list[np.ndarray], deltas: list[np.ndarray], direction: BlockTerms):
    """``direction += alpha * H direction`` per task, in place, where H is the
    Hessian of each task's loss at ``omega + terms``.

    ``acts`` and ``deltas`` are the tape of :func:`block_loss_and_grad_terms`
    at that point. This is :func:`forward_param_jvp` with every weight kept
    as factors: the product's layer l appends rows ``alpha * [tdelta,
    delta]`` against ``[act, tact]`` to the direction (only ``alpha *
    tdelta`` against the input for the first layer, whose input has no
    tangent).
    """
    n_layers = len(omega.weights)
    n = acts[0].shape[1]

    # Forward sweep of the tangents; the masks are the next activations > 0.
    tacts = [None]
    for l in range(n_layers):
        tz = _forward(acts[l], None, direction, l)
        if l > 0:
            tz += _forward(tacts[l], omega.weights[l], terms, l)
        tz += direction.biases[l][:, None, :]
        if l < n_layers - 1:
            tz *= acts[l + 1] > 0
        tacts.append(tz)

    # Reverse sweep; a layer's new rows are appended once its old ones are read.
    tdelta = 2.0 / n * tacts[-1]
    for l in range(n_layers - 1, -1, -1):
        direction.biases[l] += alpha * tdelta.sum(axis=1)
        if l == 0:
            direction.append(0, tdelta, acts[0], alpha)
            break
        tg = _reverse(tdelta, omega.weights[l], terms, l)
        tg += _reverse(deltas[l], None, direction, l)
        direction.append(l, tdelta, acts[l], alpha)
        direction.append(l, deltas[l], tacts[l], alpha)
        tdelta = tg * (acts[l] > 0)


def block_sum(omega: NetParams, direction: BlockTerms) -> NetParams:
    """The sum over a block's tasks of their directions (base zero, scale 1),
    one product of the stacked factors per layer, in omega's layout."""
    out = omega.like(np.empty_like(omega.flat))
    for l in range(len(direction.p)):
        p, q = direction.live(l)
        np.matmul(p.reshape(-1, p.shape[2]).T, q.reshape(-1, q.shape[2]), out=out.weights[l])
        direction.biases[l].sum(axis=0, out=out.biases[l])
    return out
