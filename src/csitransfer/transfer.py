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
Training data is read from :class:`channel.TaskDataset` rows as they are;
wherever a task dataset goes, a ``net.Batch`` goes too.

The meta-gradient is available in two modes: ``exact`` differentiates
through the unrolled inner loop (reverse accumulation with Hessian-vector
products at every recorded iterate), ``first-order`` treats the inner-loop
Jacobian as the identity.

The meta step runs over blocks of tasks with the block kernels of
:mod:`csitransfer.net` and never forms a task's weights; ``meta_train``
regenerates a batch block by block, into the arrays those kernels read.
Each inner GD step adds a term of rank at most the support size to the
shared omega (the step's support deltas against its layer inputs), so a
task's iterates are omega plus factors, and the factors double as the tape
of the reverse pass. The meta-gradient direction is kept the same way: it
starts as the query deltas against the query inputs and every reverse step
appends the rows of its Hessian-vector product. Every dense product is then
one GEMM of the shared weights against all rows of the block plus thin
per-task products against the factors.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass, field
from typing import Sequence

import numpy as np

from . import channel, net
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
# of 4 and held 2.5 MB more at peak; a block of 80 held 50 MB more. A meta
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
    fixed_task_data: bool = False  # regenerate support/query per visit when False

    def __post_init__(self):
        for name in ("v", "k_s", "k_t", "k_b", "n_tr", "n_ad", "n_te", "u"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        for name in ("g_tr", "g_ad", "max_steps"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative, got {getattr(self, name)}")
        if self.k_b > self.k_s:
            raise ValueError(f"meta batch k_b={self.k_b} cannot exceed k_s={self.k_s}")
        if self.gamma <= 0 or self.beta <= 0:
            raise ValueError("learning rates must be positive")
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

    def __reduce__(self):  # rebuilt from its fields, as a worker process sends it
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


def train_no_transfer(sources: Sequence[TaskDataset], cfg: TrainConfig,
                      rng: np.random.Generator) -> TrainedModel:
    """Classical training: pool every source pair, minibatch Adam until the
    loss converges or the step cap is reached.

    Initialization comes from the config's network-init substream; the
    passed generator drives batch selection only. The step-0 loss over the
    whole pool streams through the minibatch workspace, so the run's
    buffers other than the pool itself do not grow with the pool. A
    non-finite loss raises :class:`NonFiniteLoss` at the step where it
    occurs; numpy's overflow warnings on the way there are silenced.
    """
    xs = np.concatenate([d.xs for d in sources]) if sources else np.empty((0, 0))
    ys = np.concatenate([d.ys for d in sources]) if sources else np.empty((0, 0))
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


def _task_blocks(tasks):
    """Consecutive runs of at most ``_TASK_BLOCK`` tasks with equal support
    sizes and equal query sizes, as stacked (B, n, width) arrays
    ``(support xs, support ys, query xs, query ys)``, stacked from the
    tasks' own arrays one block at a time."""
    for _, run in itertools.groupby(tasks, key=lambda t: (len(t[0]), len(t[1]))):
        run = list(run)
        for i in range(0, len(run), _TASK_BLOCK):
            block = run[i:i + _TASK_BLOCK]
            yield (np.stack([s.xs for s, _ in block]), np.stack([s.ys for s, _ in block]),
                   np.stack([q.xs for _, q in block]), np.stack([q.ys for _, q in block]))


def _meta_batch_eval(omega: NetParams, blocks, g_tr: int, beta: float,
                     mode: str) -> tuple[float, NetParams]:
    """Summed query loss of the adapted copies and its gradient wrt omega.

    ``blocks`` yields :func:`_task_blocks` blocks one at a time and no task's
    weights are ever formed. After j inner steps a task's layer weight is
    ``omega - beta * sum_{i<j} delta_i.T @ act_i``: factors whose rows are
    the support deltas and layer inputs of the steps taken, with the biases
    kept per task. Those rows are also the tape of the reverse pass; the
    ReLU masks are the next layer's inputs > 0. The direction v starts as
    the query gradient at the adapted weights, query deltas against query
    inputs. In exact mode each reverse step v <- v - beta * H_sup(omega_j) v
    appends the rows ``-beta * [tdelta, delta]`` against ``[act, tact]``
    (:func:`net.block_hvp_axpy`); first-order mode and ``g_tr = 0`` stop at
    the query gradient. A block's gradient is one product of its stacked
    factors per layer.
    """
    if mode not in (META_EXACT, META_FIRST_ORDER):
        raise ValueError(f"unknown meta mode {mode!r}")
    total_loss, count = 0.0, 0
    total_grad = net.zeros_like_params(omega)
    for count, block in enumerate(blocks, 1):
        if block[0].shape[1] == 0 and g_tr > 0:
            raise ValueError("support set is empty but inner updates were requested")
        if block[2].shape[1] == 0:
            raise ValueError("query set is empty")
        losses, grad = _meta_block(omega, block, g_tr, beta, mode == META_EXACT)
        total_loss += float(np.sum(losses))
        params_axpy(1.0, grad, total_grad, out=total_grad)
    if not count:
        raise ValueError("meta batch is empty")
    return total_loss, total_grad


def _meta_block(omega: NetParams, block, g_tr: int, beta: float,
                exact: bool) -> tuple[np.ndarray, NetParams]:
    """Per-task query losses of one block of :func:`_task_blocks` and the
    sum of the tasks' meta-gradients."""
    sup_xs, sup_ys, que_xs, que_ys = block
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
    return losses, net.block_sum(omega, v)


def _support_query(env: Environment, cfg: TrainConfig, visit: int) -> tuple[TaskDataset, TaskDataset]:
    rng = stream(env.seed, STREAM_TASK_DATA, visit)
    sup, que = generate_task_datasets(
        env,
        [(ROLE_TRAIN_SUPPORT, cfg.n_support), (ROLE_TRAIN_QUERY, cfg.n_query)],
        cfg.u, (cfg.gen.f_min, cfg.gen.f_max), cfg.gen.delta_f,
        cfg.gen.array, cfg.gen.noise, rng, cfg.gen.delay_max)
    return sup, que


def _streamed_blocks(tasks, cfg: TrainConfig):
    """A meta batch of equal-size tasks as :func:`_task_blocks` blocks, built
    one at a time. A task is its (support, query) datasets or the
    (environment, visit) to regenerate as :func:`_support_query` would; a
    block's regenerated tasks are collected together straight into its
    stacked arrays (:func:`channel.collect_sets`)."""
    roles = [(ROLE_TRAIN_SUPPORT, cfg.n_support), (ROLE_TRAIN_QUERY, cfg.n_query)]
    for b in range(0, len(tasks), _TASK_BLOCK):
        block = tasks[b:b + _TASK_BLOCK]
        todo = [t for t in block if isinstance(t[0], Environment)]
        if not todo:
            yield from _task_blocks(block)
            continue
        rngs = [stream(env.seed, STREAM_TASK_DATA, visit) for env, visit in todo]
        sets = [channel.draw_combos(env, roles, cfg.u, (cfg.gen.f_min, cfg.gen.f_max), rng,
                                    cfg.gen.delay_max) for (env, _), rng in zip(todo, rngs)]
        sup, que = channel.collect_sets(sets, [role for role, _ in roles], cfg.gen.delta_f,
                                        cfg.gen.array, cfg.gen.noise, rngs)
        sup_xs, sup_ys, que_xs, que_ys = (a.reshape(len(sets), -1, a.shape[1])
                                          for a in (sup[0], sup[1], que[0], que[1]))
        if len(todo) < len(block):
            drawn = zip(sup_xs, sup_ys, que_xs, que_ys)
            rows = [next(drawn) if isinstance(s, Environment) else (s.xs, s.ys, q.xs, q.ys)
                    for s, q in block]
            sup_xs, sup_ys, que_xs, que_ys = (np.stack(c) for c in zip(*rows))
        yield sup_xs, sup_ys, que_xs, que_ys


def meta_train(source_envs: Sequence[Environment], cfg: TrainConfig,
               rng: np.random.Generator,
               first_visit: Sequence[tuple[TaskDataset, TaskDataset]] | None = None
               ) -> TrainedModel:
    """Alternating inner-task and across-task updates until convergence.

    Each time step draws ``k_b`` tasks, regenerates their support/query
    sets (cached instead when ``fixed_task_data``), computes the meta
    gradient and applies one Adam step at rate ``gamma``; regenerated sets
    stream through the step block by block (:func:`_streamed_blocks`).
    Initialization comes from the config's network-init substream; the
    passed generator drives task selection only. ``first_visit[i]``, when
    given, must be ``_support_query(source_envs[i], cfg, 0)``: the sets of
    an environment's first visit, which are then taken from it instead of
    being generated again. A non-finite meta loss raises
    :class:`NonFiniteLoss` at the step where it occurs; numpy's overflow
    warnings on the way there are silenced.
    """
    if len(source_envs) < cfg.k_b:
        raise ValueError(f"need at least k_b={cfg.k_b} source environments, "
                         f"got {len(source_envs)}")
    if first_visit is not None and (len(first_visit) != len(source_envs) or any(
            (len(s), len(q)) != (cfg.n_support, cfg.n_query) or s.keys() & q.keys()
            for s, q in first_visit)):
        raise ValueError("first_visit must hold, per source environment, a disjoint "
                         f"support/query pair of {cfg.n_support}+{cfg.n_query} pairs")
    params = init_network(cfg)
    state = AdamState.init(params)
    visits: dict[int, int] = {}
    cache: dict[int, tuple[TaskDataset, TaskDataset]] = {}
    history: list[float] = []

    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(cfg.max_steps):
            chosen = rng.choice(len(source_envs), size=cfg.k_b, replace=False)
            tasks = []
            for i in sorted(int(j) for j in chosen):
                env = source_envs[i]
                visit = 0 if cfg.fixed_task_data else visits.get(env.id, 0)
                visits[env.id] = visit + 1
                if visit == 0 and first_visit is not None:
                    tasks.append(first_visit[i])
                elif cfg.fixed_task_data:
                    if env.id not in cache:
                        cache[env.id] = _support_query(env, cfg, 0)
                    tasks.append(cache[env.id])
                else:
                    tasks.append((env, visit))
            loss, grad = _meta_batch_eval(params, _streamed_blocks(tasks, cfg), cfg.g_tr,
                                          cfg.beta, cfg.meta_mode)
            _check_finite("meta-training", step, loss)
            params, state = adam_step(state, params, grad, cfg.gamma)
            history.append(loss)
            if _converged(history):
                break
    exact = cfg.meta_mode == META_EXACT and cfg.g_tr > 0
    return TrainedModel(params=params, provenance=PROVENANCE_META,
                        config=cfg.snapshot(), loss_history=history if history else [0.0],
                        derivative_order=cfg.g_tr + 1 if exact else 1)


def init_network(cfg: TrainConfig) -> NetParams:
    """Fresh parameters from the run's network-init substream."""
    return net.init_params(cfg.layer_spec(), stream(cfg.seed, STREAM_NET_INIT))
