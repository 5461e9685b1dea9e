"""The three training regimes for downlink channel prediction.

* classical training on the pooled source data (no transfer),
* fine-tuning that trained network per target environment (direct transfer),
* meta-learning an initialization through alternating inner-task
  gradient-descent updates and across-task Adam updates, adapted per target
  with plain gradient descent.

Pooled training and every adaption run are dense training loops: each
owns one :class:`net.Workspace` and steps its parameters in place with
:func:`optim.adam_update` or :func:`optim.gd_update`. A minibatch is
gathered into the workspace's input rows; an adaption snapshot is a copy.
GD adaption is bit-identical to the pure ``gd_step`` loop; Adam differs
from the textbook bias correction by rounding only (see :mod:`optim`).
Source tasks are kept once, as the stacked rows of :func:`first_visits`,
collected block by block on the lanes of :func:`lanes.fork_map`: pooled
training and the meta step read them there. Under ``fixed_task_data``,
``meta_train`` collects them so, once and up front, when none are passed.
Adaption reads a target's dataset rows as they are.

The meta-gradient is available in two modes: ``exact`` differentiates
through the unrolled inner loop (reverse accumulation with Hessian-vector
products at every recorded iterate), ``first-order`` treats the inner-loop
Jacobian as the identity.

The meta step runs over blocks of tasks with the block kernels of
:mod:`csitransfer.net` and never forms a task's weights; ``meta_train``
regenerates a batch block by block. A block's tasks are rows in the layout
of :func:`first_visits`, support first, and the kernels read views of them.
Each inner GD step adds a term of rank at most the support size to the
shared omega (the step's support deltas against its layer inputs), so a
task's iterates are omega plus factors, and the factors double as the tape
of the reverse pass. The meta-gradient direction is kept the same way: it
starts as the query deltas against the query inputs and every reverse step
appends the rows of its Hessian-vector product. Every dense product is then
one GEMM of the shared weights against all rows of the block plus thin
per-task products against the factors.

A task's inner steps and meta-gradient depend only on omega and its own
data, so ``meta_train`` runs each step's blocks on a map of
:func:`lanes.open_map` on :func:`meta_lanes` lanes, forked once per call.
A step's job is its block list alone; the lanes read ``g_tr``, ``beta``
and the meta mode from the config, omega from one shared slot that the
caller writes each step, and the first visits, which no process writes
once the lanes are open. :func:`_meta_batch_eval` adds the blocks' losses
and flat gradients in block order, the step's one summation, so every
lane count gives the same bits.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Sequence

import numpy as np

from . import channel, lanes, net
from .channel import (
    ROLE_TRAIN_QUERY,
    ROLE_TRAIN_SUPPORT,
    ArrayConfig,
    Environment,
    GeneratorConfig,
    TaskDataset,
    generate_task_datasets,
)
# bench/spans.py wraps params_axpy, adam_step and gd_step where this module
# looks them up and refuses to start if one is missing, so they stay imported
# by name; the dense training loops step in place with the *_update forms.
from .net import NetParams, params_axpy
from .optim import AdamState, adam_step, adam_update, gd_step, gd_update
from .seeding import STREAM_NET_INIT, STREAM_TASK_DATA, stream

PROVENANCE_NO_TRANSFER = "no-transfer"
PROVENANCE_META = "meta"
PROVENANCE_ADAPTED = "adapted"

META_EXACT = "exact"
META_FIRST_ORDER = "first-order"

RULE_ADAM = "adam"
RULE_GD = "gd"

# Tasks per block of the meta step. A block's shared-weight products cover
# B*n rows, so a block of 4 runs them far faster than one task at a time,
# but the block's factors and tape grow with B: in the exact step at M=64
# (hidden 128,128, 10-row batches) a block of 8 ran no faster than a block
# of 4 and took 2.5 MB more at peak; a block of 80 took 50 MB more. A meta
# batch's regenerated data, too, lives one block at a time.
_TASK_BLOCK = 4

# Moving-average stopping rule of both training stages (see _converged).
CONVERGENCE_WINDOW = 200
CONVERGENCE_TOL = 0.005


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters of the three algorithms plus data-generation config.

    Field names follow the symbols the command-line flags use: ``gamma`` is
    the across-task/Adam rate, ``beta`` the inner-task/adaption rate,
    ``k_s``/``k_t``/``k_b`` the source/target/meta-batch task counts,
    ``g_tr``/``g_ad`` the inner-loop and adaption gradient-step counts,
    ``n_tr``/``n_ad``/``n_te`` per-task sample counts, ``u`` users per
    environment, ``v`` the training batch size.
    """

    gamma: float = 1e-3
    beta: float = 1e-6
    v: int = 128
    k_s: int = 1500
    k_t: int = 800
    k_b: int = 80
    g_tr: int = 3
    g_ad: int = 1000
    n_tr: int = 20
    n_ad: int = 20
    n_te: int = 20
    u: int = 25
    max_steps: int = 20000
    meta_mode: str = META_EXACT
    seed: int = 0
    gen: GeneratorConfig = field(default_factory=GeneratorConfig)
    hidden: tuple[int, ...] = (128, 128)
    # Regenerate support/query per visit when False; when True, every task is
    # its first visit, collected once, up front, on lanes (first_visits).
    fixed_task_data: bool = False

    def __post_init__(self):
        for name in ("gamma", "beta", "v", "k_s", "k_t", "k_b", "n_ad", "n_te", "u"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and positive, got {getattr(self, name)}")
        if self.n_tr < 2:
            raise ValueError(f"n_tr must be >= 2 to split each source task into support "
                             f"and query samples, got {self.n_tr}")
        for name in ("g_tr", "g_ad", "max_steps"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative, got {getattr(self, name)}")
        if self.k_b > self.k_s:
            raise ValueError(f"meta batch k_b={self.k_b} cannot exceed k_s={self.k_s}")
        if self.meta_mode not in (META_EXACT, META_FIRST_ORDER):
            raise ValueError(f"unknown meta mode {self.meta_mode!r}")

    @property
    def n_support(self) -> int:
        """Support half of each source task's samples (equal split)."""
        return self.n_tr // 2

    @property
    def n_query(self) -> int:
        return self.n_tr - self.n_tr // 2

    def layer_spec(self) -> net.LayerSpec:
        return net.LayerSpec.fnn(self.gen.array.m, self.hidden)

    def snapshot(self) -> dict:
        """JSON-friendly copy of every field (for manifests and digests)."""
        d = asdict(self)
        d["gen"]["noise"]["pilot_len"] = int(d["gen"]["noise"]["pilot_len"])
        return d

    @classmethod
    def desk_profile(cls, **overrides) -> "TrainConfig":
        """Reduced profile that runs the full three-way comparison in minutes."""
        base = dict(
            k_s=200, k_t=50, u=10, max_steps=20000,
            gen=GeneratorConfig(array=ArrayConfig(m=16), users=10),
        )
        base.update(overrides)
        return cls(**base)


class NonFiniteLoss(ValueError):
    """A stage's loss became non-finite: the run diverged.

    ``step`` counts the parameter updates the stage had applied when the
    non-finite loss was evaluated, so step 0 is the stage's starting point.
    """

    def __init__(self, stage: str, step: int, loss: float):
        super().__init__(f"{stage} diverged at step {step}: the loss is {loss}")
        self.stage = stage
        self.step = step
        self.loss = loss

    def __reduce__(self):  # rebuilt from its fields, as a lane sends it
        return type(self), (self.stage, self.step, self.loss)


def _check_finite(stage: str, step: int, loss: float) -> float:
    if not math.isfinite(loss):
        raise NonFiniteLoss(stage, step, loss)
    return loss


@dataclass
class TrainedModel:
    """Network parameters plus where they came from.

    ``derivative_order`` records the highest derivative order the producing
    stage actually computed (meta training in exact mode differentiates
    through ``g_tr`` gradient steps, hence order ``g_tr + 1``; every other
    training or adaption stage is first-order).
    """

    params: NetParams
    provenance: str
    config: dict | None
    loss_history: list[float]
    derivative_order: int = 1

    def __post_init__(self):
        if not all(math.isfinite(x) for x in self.loss_history):
            raise ValueError("loss history contains non-finite values")


def _converged(history: list[float]) -> bool:
    """Moving-average stopping rule: the last ``CONVERGENCE_WINDOW`` losses
    improved on the window before them by less than ``CONVERGENCE_TOL``
    (relative)."""
    window = CONVERGENCE_WINDOW
    if len(history) < 2 * window:
        return False
    prev = float(np.mean(history[-2 * window:-window]))
    cur = float(np.mean(history[-window:]))
    if prev <= 0:
        return True
    return (prev - cur) / prev < CONVERGENCE_TOL


def _pooled_loss(run: net.Workspace, xs: np.ndarray, ys: np.ndarray) -> float:
    """The loss over every row of ``xs`` and ``ys``, streamed through the
    rows of ``run``: the row-weighted mean of the per-chunk losses, summed
    exactly. A tail shorter than ``run`` gets one small workspace of its
    own, so no buffer grows with the pool."""
    v, n = len(run.xs), len(xs)
    full = n - n % v
    sums = []
    for i in range(0, full, v):
        np.copyto(run.xs, xs[i:i + v])
        np.copyto(run.ys, ys[i:i + v])
        sums.append(run.loss() * v)
    if full < n:
        sums.append(net.Workspace(run.params, xs[full:], ys[full:]).loss() * (n - full))
    return math.fsum(sums) / n


def train_no_transfer(xs: np.ndarray, ys: np.ndarray, cfg: TrainConfig,
                      rng: np.random.Generator) -> TrainedModel:
    """Classical training on pooled rows (one pair per row of ``xs`` and
    ``ys``): minibatch Adam until the loss converges or the step cap.

    Initialization comes from the config's network-init substream; the
    passed generator drives batch selection only. The pool is copied
    nowhere: minibatches and the streamed step-0 loss go through the
    workspace's rows, so no buffer grows with the pool. A non-finite loss
    raises :class:`NonFiniteLoss` at the step where it occurs; numpy's
    overflow warnings on the way there are silenced.
    """
    if xs.ndim != 2 or ys.shape != xs.shape:
        raise ValueError(f"pool must be two 2-D arrays of one shape, got {xs.shape}, {ys.shape}")
    n_pool = xs.shape[0]
    if n_pool == 0:
        raise ValueError("source pool is empty")
    if n_pool < cfg.v:
        raise ValueError(
            f"pool of {n_pool} pairs cannot fill batches of {cfg.v} without replacement")

    params = init_network(cfg)
    state = AdamState.init(params)
    run = net.Workspace(params, np.empty((cfg.v, xs.shape[1])), np.empty((cfg.v, ys.shape[1])))
    with np.errstate(over="ignore", invalid="ignore"):
        history = [_check_finite("training", 0, _pooled_loss(run, xs, ys))]
        for step in range(cfg.max_steps):
            idx = rng.choice(n_pool, size=cfg.v, replace=False)
            np.take(xs, idx, axis=0, out=run.xs)
            np.take(ys, idx, axis=0, out=run.ys)
            loss = _check_finite("training", step, run.loss_and_grad())
            adam_update(state, params, run.grads, cfg.gamma, run.work)
            history.append(loss)
            if _converged(history[1:]):
                break
    return TrainedModel(params=params, provenance=PROVENANCE_NO_TRANSFER,
                        config=cfg.snapshot(), loss_history=history)


def adapt_snapshots(base: TrainedModel, d_ad, cfg: TrainConfig, rule: str,
                    step_marks: Sequence[int]) -> dict[int, TrainedModel]:
    """Full-batch adaption capturing the parameters at selected step counts.

    The trajectory of a shorter adaption run is exactly the prefix of a
    longer one (both rules are deterministic), so one pass serves a whole
    grid of gradient-step budgets. The run steps one copy of the base
    parameters in place on a :class:`net.Workspace`; each snapshot is a copy.
    A non-finite loss raises :class:`NonFiniteLoss` at the first step where
    it occurs; numpy's overflow warnings on the way there are silenced.
    """
    if rule not in (RULE_ADAM, RULE_GD):
        raise ValueError(f"unknown adaption rule {rule!r}, expected 'adam' or 'gd'")
    marks = sorted(set(int(g) for g in step_marks))
    if not marks or marks[0] < 0:
        raise ValueError(f"step marks must be nonnegative, got {step_marks}")
    if len(d_ad) == 0:
        raise ValueError("adaption set is empty")
    params = base.params.copy()
    run = net.Workspace(params, d_ad.xs, d_ad.ys)
    # history[g] is the loss after g adaption steps.
    history: list[float] = []
    state = AdamState.init(params) if rule == RULE_ADAM else None
    out: dict[int, TrainedModel] = {}
    mark_set = set(marks)
    stage = f"adaption ({rule})"

    def snap(step):
        loss = _check_finite(stage, step, run.loss())
        out[step] = TrainedModel(
            params=params.copy(), provenance=PROVENANCE_ADAPTED, config=base.config,
            loss_history=history[:step] + [loss])

    with np.errstate(over="ignore", invalid="ignore"):
        if 0 in mark_set:
            snap(0)
        for step in range(1, marks[-1] + 1):
            history.append(_check_finite(stage, step - 1, run.loss_and_grad()))
            if rule == RULE_ADAM:
                adam_update(state, params, run.grads, cfg.beta, run.work)
            else:
                gd_update(params, run.grads, cfg.beta, run.work)
            if step in mark_set:
                snap(step)
    return out


def direct_adapt(base: TrainedModel, d_ad, cfg: TrainConfig) -> TrainedModel:
    """Fine-tune a trained network with Adam on one target's adaption set.

    Always starts from the stage-output parameters, never from a previous
    target's adapted copy.
    """
    if base.provenance not in (PROVENANCE_NO_TRANSFER, PROVENANCE_META):
        raise ValueError(f"can only adapt a trained base model, got {base.provenance!r}")
    return adapt_snapshots(base, d_ad, cfg, RULE_ADAM, [cfg.g_ad])[cfg.g_ad]


def meta_adapt(base: TrainedModel, d_ad, cfg: TrainConfig) -> TrainedModel:
    """Plain-GD adaption of the meta-trained initialization."""
    if base.provenance != PROVENANCE_META:
        raise ValueError(f"meta_adapt requires a meta-trained base, got {base.provenance!r}")
    return adapt_snapshots(base, d_ad, cfg, RULE_GD, [cfg.g_ad])[cfg.g_ad]


def inner_adapt(omega: NetParams, d_sup, g_tr: int,
                beta: float) -> tuple[NetParams, list[NetParams]]:
    """Task-specific copy after ``g_tr`` full-batch gradient-descent steps.

    Returns the adapted parameters and the iterates the steps were taken
    from (needed to differentiate through the unrolled loop).
    """
    if g_tr < 0:
        raise ValueError("gradient step count must be nonnegative")
    if len(d_sup) == 0 and g_tr > 0:
        raise ValueError("support set is empty but inner updates were requested")
    params = omega.copy()
    iterates = []
    for _ in range(g_tr):
        iterates.append(params)
        params = gd_step(params, net.loss_and_grad(params, d_sup)[1], beta)
    return params, iterates


def _meta_batch_eval(omega: NetParams, results) -> tuple[float, NetParams]:
    """Summed query loss of a meta batch and its gradient wrt omega: the
    sum of ``results``, the blocks' ``(loss, flat gradient)`` pairs of
    :func:`_meta_block`, added in block order."""
    total_loss, count = 0.0, 0
    total_grad = net.zeros_like_params(omega)
    for count, (loss, grad) in enumerate(results, 1):
        total_loss += loss
        params_axpy(1.0, omega.like(grad), total_grad, out=total_grad)
    if not count:
        raise ValueError("meta batch is empty")
    return total_loss, total_grad


def _meta_block(omega: NetParams, block, g_tr: int, beta: float,
                exact: bool) -> tuple[float, np.ndarray]:
    """The summed query loss of one block of tasks, support xs, ys and
    query xs, ys, and the sum of their meta-gradients as a flat buffer in
    omega's layout.

    No task's weights are ever formed. After j inner steps a task's layer
    weight is ``omega - beta * sum_{i<j} delta_i.T @ act_i``: factors whose
    rows are the support deltas and layer inputs of the steps taken, with
    the biases kept per task. Those rows are also the tape of the reverse
    pass; the ReLU masks are the next layer's inputs > 0. The direction v
    starts as the query gradient at the adapted weights, query deltas
    against query inputs. In exact mode each reverse step
    v <- v - beta * H_sup(omega_j) v appends the rows
    ``-beta * [tdelta, delta]`` against ``[act, tact]``
    (:func:`net.block_hvp_axpy`); first-order mode and ``g_tr = 0`` stop at
    the query gradient. The block's gradient is one product of its stacked
    factors per layer.
    """
    sup_xs, sup_ys, que_xs, que_ys = block
    if sup_xs.shape[1] == 0 and g_tr > 0:
        raise ValueError("support set is empty but inner updates were requested")
    if que_xs.shape[1] == 0:
        raise ValueError("query set is empty")
    n_sup, n_layers = sup_xs.shape[1], len(omega.weights)
    inner = net.BlockTerms.empty(omega, len(sup_xs), [g_tr * n_sup] * n_layers, -beta)
    for _ in range(g_tr):
        _, acts, deltas = net.block_loss_and_grad_terms(omega, inner, sup_xs, sup_ys)
        for l, (a, d) in enumerate(zip(acts, deltas)):
            inner.append(l, d, a)
            inner.biases[l] -= beta * d.sum(axis=1)
    losses, acts, deltas = net.block_loss_and_grad_terms(omega, inner, que_xs, que_ys)
    v = net.block_gradients(omega, acts, deltas, g_tr * n_sup if exact else 0)
    if exact:
        # Reverse accumulation through omega_{j+1} = omega_j - beta * grad_sup:
        # the transposed step Jacobian is I - beta * H_sup(omega_j).
        for j in reversed(range(g_tr)):
            acts, deltas = inner.tape(j * n_sup, (j + 1) * n_sup)
            net.block_hvp_axpy(-beta, omega, inner.head(j * n_sup), acts, deltas, v)
    return float(np.sum(losses)), net.block_sum(omega, v).flat


def _support_query(env: Environment, cfg: TrainConfig, visit: int) -> tuple[TaskDataset, TaskDataset]:
    rng = stream(env.seed, STREAM_TASK_DATA, visit)
    sup, que = generate_task_datasets(
        env,
        [(ROLE_TRAIN_SUPPORT, cfg.n_support), (ROLE_TRAIN_QUERY, cfg.n_query)],
        cfg.u, (cfg.gen.f_min, cfg.gen.f_max), cfg.gen.delta_f,
        cfg.gen.array, cfg.gen.noise, rng, cfg.gen.delay_max)
    return sup, que


def _regenerate(tasks, cfg: TrainConfig) -> tuple[np.ndarray, np.ndarray]:
    """Tasks ``(env, visit)`` collected together as :func:`_support_query`
    would, as the collector's arrays ``(xs, ys)`` viewed (B, n_tr, 2M): per
    task its support rows, then its query rows."""
    roles = [(ROLE_TRAIN_SUPPORT, cfg.n_support), (ROLE_TRAIN_QUERY, cfg.n_query)]
    rngs = [stream(env.seed, STREAM_TASK_DATA, visit) for env, visit in tasks]
    sets = [channel.draw_combos(env, roles, cfg.u, (cfg.gen.f_min, cfg.gen.f_max), rng,
                                cfg.gen.delay_max) for (env, _), rng in zip(tasks, rngs)]
    xs, ys = channel.collect_sets(sets, [role for role, _ in roles], cfg.gen.delta_f,
                                  cfg.gen.array, cfg.gen.noise, rngs)[:2]
    return xs.reshape(len(sets), cfg.n_tr, -1), ys.reshape(len(sets), cfg.n_tr, -1)


def first_visits(envs: Sequence[Environment],
                 cfg: TrainConfig) -> tuple[np.ndarray, np.ndarray]:
    """Every source environment's first visit as stacked arrays ``(xs, ys)``,
    each (len(envs), n_tr, 2M): per environment its support rows, then its
    query rows, as :func:`_support_query` collects them at visit 0, a block
    of tasks per item of :func:`lanes.fork_map`."""
    shape = (len(envs), cfg.n_tr, 2 * cfg.gen.array.m)
    starts = range(0, len(envs), _TASK_BLOCK)
    count = channel.collection_lanes(len(envs) * cfg.n_tr * 2, len(starts), cfg.gen.noise)
    xs, ys = lanes.shared_empty(shape), lanes.shared_empty(shape)  # forked lanes write them

    def collect(j):
        b = starts[j]
        xs[b:b + _TASK_BLOCK], ys[b:b + _TASK_BLOCK] = _regenerate(
            [(env, 0) for env in envs[b:b + _TASK_BLOCK]], cfg)

    lanes.fork_map(collect, len(starts), count)
    return xs, ys


def _load_block(block, envs: Sequence[Environment], cfg: TrainConfig, rows):
    """A block of distinct tasks ``(i, visit)`` as support xs, ys and query
    xs, ys, cut from the task rows. A task is read from the first visits
    ``rows`` (the arrays of :func:`first_visits`) exactly when they are
    given and its visit is 0; the others are regenerated together
    (:func:`_regenerate`). Without ``rows``, the task rows are the
    collector's arrays."""
    n = cfg.n_support
    fresh = [(i, visit) for i, visit in block if rows is None or visit]
    drawn = _regenerate([(envs[i], visit) for i, visit in fresh], cfg) if fresh else rows
    if rows is not None:
        at = {i: j for j, (i, _) in enumerate(fresh)}
        drawn = [np.stack([a[at[i]] if i in at else first[i] for i, _ in block])
                 for first, a in zip(rows, drawn)]
    xs, ys = drawn
    return xs[:, :n], ys[:, :n], xs[:, n:], ys[:, n:]


def meta_lanes(cfg: TrainConfig) -> int:
    """The lanes planned for ``cfg``'s meta steps (a failed fork leaves
    fewer): one per usable CPU, at most one per block of a step, and one
    for a run of no step."""
    return lanes.lane_count(-(-cfg.k_b // _TASK_BLOCK), cfg.max_steps > 0)


def meta_train(source_envs: Sequence[Environment], cfg: TrainConfig,
               rng: np.random.Generator,
               first_visit: tuple[np.ndarray, np.ndarray] | None = None) -> TrainedModel:
    """Alternating inner-task and across-task updates until convergence.

    Each time step draws ``k_b`` tasks, regenerates their support/query
    sets (visit 0 throughout under ``fixed_task_data``), computes the meta
    gradient and applies one Adam step at rate ``gamma``. The batch runs in
    blocks of ``_TASK_BLOCK`` tasks, block k on lane k mod L of one
    :func:`lanes.open_map` map on L = :func:`meta_lanes` lanes, each lane
    loading its blocks (:func:`_load_block`) and running them
    (:func:`_meta_block`); one lane forks nothing. First visits are read from
    ``first_visit`` (the arrays of :func:`first_visits`) when given; under
    ``fixed_task_data`` without them, every source's first visit is
    collected by :func:`first_visits` before the lanes open, so a run of
    few steps collects more than it visits. Initialization comes from the
    config's network-init substream; the passed generator drives task
    selection only. A non-finite meta loss raises :class:`NonFiniteLoss` at
    its step; the first failing block's error is raised here; overflow
    warnings are silenced. Every forked lane has exited when this returns
    or raises.
    """
    n_envs = len(source_envs)
    if n_envs < cfg.k_b:
        raise ValueError(f"need at least k_b={cfg.k_b} source environments, got {n_envs}")
    shape = (n_envs, cfg.n_tr, 2 * cfg.gen.array.m)
    if first_visit is not None and [np.shape(a) for a in first_visit] != [shape, shape]:
        raise ValueError(f"first_visit must be two arrays (xs, ys) of shape {shape}: one "
                         f"task of {cfg.n_support}+{cfg.n_query} rows per environment")
    if first_visit is None and cfg.fixed_task_data and cfg.max_steps:
        first_visit = first_visits(source_envs, cfg)
    params = init_network(cfg)
    state = AdamState.init(params)
    visits = np.zeros(n_envs, dtype=int)
    history: list[float] = []

    omega = params.like(lanes.shared_empty(params.flat.shape))  # each step's, read by every lane
    exact = cfg.meta_mode == META_EXACT

    def block(blocks, k):
        return _meta_block(omega, _load_block(blocks[k], source_envs, cfg, first_visit),
                           cfg.g_tr, cfg.beta, exact)

    with np.errstate(over="ignore", invalid="ignore"), \
            lanes.open_map(block, meta_lanes(cfg), omega.flat.size) as (run, _):
        for step in range(cfg.max_steps):
            chosen = sorted(int(j) for j in rng.choice(n_envs, size=cfg.k_b, replace=False))
            blocks = [[(i, int(visits[i])) for i in chosen[b:b + _TASK_BLOCK]]
                      for b in range(0, cfg.k_b, _TASK_BLOCK)]
            visits[chosen] += not cfg.fixed_task_data  # fixed data: visit 0 throughout
            np.copyto(omega.flat, params.flat)
            loss, grad = _meta_batch_eval(omega, run(blocks, len(blocks)))
            _check_finite("meta-training", step, loss)
            params, state = adam_step(state, params, grad, cfg.gamma)
            history.append(loss)
            if _converged(history):
                break
    return TrainedModel(params=params, provenance=PROVENANCE_META,
                        config=cfg.snapshot(), loss_history=history if history else [0.0],
                        derivative_order=cfg.g_tr + 1 if exact and cfg.g_tr else 1)


def init_network(cfg: TrainConfig) -> NetParams:
    """Fresh parameters from the run's network-init substream."""
    return net.init_params(cfg.layer_spec(), stream(cfg.seed, STREAM_NET_INIT))
