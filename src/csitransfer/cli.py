"""Reproducible command-line entry points.

Every subcommand resolves its flags into a plain config dictionary, runs,
and writes a JSON manifest next to its primary output recording the
subcommand, the resolved config, the master seed, build information,
timestamps, the process's peak resident memory (``peak_rss_mb``, in MiB),
that of its largest finished child process (``peak_rss_children_mb``: the
forked lanes of :mod:`csitransfer.lanes`, 0 when none ran) and the produced
files. A ``gen`` or ``train`` manifest also records ``lanes``, the lanes
that its map over environments (``gen``) or blocks of first visits
(``train``) actually ran on, 1 for ``train --sources`` (a map of one item
runs in the caller, whose LMMSE estimates may still split across lanes),
and a ``meta-train`` manifest ``meta_lanes``, those its meta steps ran on
(:func:`transfer.meta_lanes`).
``rerun MANIFEST`` re-executes the recorded subcommand with the recorded
config and ignores every other field; all outputs are then byte-identical
(timestamps and peak memory live only in the manifest), except the stage
wall-clock times in a sweep's ``.report.json``. That record also holds
``workers``, the lanes the sweep's targets ran on, and ``meta_lanes``,
those its meta steps ran on; its adaption and testing times are per-target
times summed across the targets. The recorded values go through the
subcommand's own option declarations, so a malformed one is a one-line
error, and no environment variable overrides them.

Flags can be overridden through environment variables with the ``CSIT_``
prefix. ``sweep`` shares its options with ``gen``, ``train`` and
``meta-train`` but defaults to the desk profile (``SWEEP_DESK_DEFAULTS``).
Exit codes: 0 success, 1 runtime or verification failure, 2 usage error.

Heavy imports happen inside the commands so that ``--threads`` can cap the
linear-algebra thread pools before they are initialised.
"""

from __future__ import annotations

import csv
import json
import os
import resource
import subprocess
from datetime import datetime, timezone

import click

ROLE_CHOICES = ("train-support", "train-query", "adaption", "test")
NOISE_CHOICES = ("clean", "awgn", "lmmse")
SWEEP_CHOICES = ("g-ad", "n-ad", "delta-f", "m", "snr-db", "none")


def _utcnow() -> str:
    return datetime.now(timezone.utc).isoformat()


def _build_info() -> dict:
    from . import __version__

    git = "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                             capture_output=True, text=True, timeout=5,
                             cwd=os.path.dirname(os.path.abspath(__file__)))
        if out.returncode == 0:
            git = out.stdout.strip()
    except OSError:
        pass
    return {"version": __version__, "git": git}


def _write_manifest(subcommand: str, opts: dict, outputs: list[str], record: dict,
                    started: str):
    manifest = {
        "subcommand": subcommand,
        "config": opts,
        "master_seed": opts.get("seed"),
        # Linux reports ru_maxrss in KiB. Children are read before git runs as one.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "peak_rss_children_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
        "build": _build_info(),
        "started_at": started,
        "finished_at": _utcnow(),
        "outputs": outputs,
        **record,
    }
    path = opts["out"] + ".manifest.json"
    with open(path, "w") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
    return path


def _write_csv(path: str, header: list[str], rows: list[list]):
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        w.writerows(rows)


def _parse_hidden(text: str) -> tuple[int, ...]:
    try:
        widths = tuple(int(t) for t in text.split(",") if t.strip())
    except ValueError:
        raise click.UsageError(f"--hidden expects comma-separated integers, got {text!r}")
    if not widths or any(w < 1 for w in widths):
        raise click.UsageError(f"--hidden widths must be positive, got {text!r}")
    return widths


def _parse_grid(text: str, variable: str) -> list:
    try:
        values = [float(t) for t in text.split(",") if t.strip()]
    except ValueError:
        raise click.UsageError(f"--grid expects comma-separated numbers, got {text!r}")
    if variable == "none":
        return [None]
    if not values:
        raise click.UsageError("--grid must contain at least one value")
    if variable in ("g-ad", "n-ad", "m"):
        if not all(v.is_integer() for v in values):
            raise click.UsageError(f"--grid for --variable {variable} expects integers, "
                                   f"got {text!r}")
        return [int(v) for v in values]
    return values


def _noise_spec(opts: dict):
    from .channel import NoiseSpec

    return NoiseSpec(snr_db=opts["snr_db"], pilot_len=opts["pilot_len"],
                     mode=opts["noise_mode"])


def _generator_config(opts: dict):
    from .channel import ArrayConfig, GeneratorConfig

    return GeneratorConfig(
        array=ArrayConfig(m=opts["antennas"]),
        delta_f=opts["delta_f_hz"],
        f_min=opts["f_min_hz"],
        f_max=opts["f_max_hz"],
        users=opts["users"],
        noise=_noise_spec(opts),
    )


def _train_config(opts: dict):
    from .transfer import TrainConfig

    return TrainConfig(
        gamma=opts["gamma"], beta=opts["beta"], v=opts["v"],
        k_s=opts["k_s"], k_t=opts.get("k_t", 1), k_b=opts.get("k_b", 1),
        g_tr=opts.get("g_tr", 3), g_ad=opts.get("g_ad", 1000),
        n_tr=opts["n_tr"], n_ad=opts.get("n_ad", 20), n_te=opts.get("n_te", 20),
        u=opts["users"], max_steps=opts["max_steps"],
        meta_mode=opts.get("meta_mode", "exact"), seed=opts["seed"],
        gen=_generator_config(opts), hidden=_parse_hidden(opts["hidden"]),
        fixed_task_data=opts.get("fixed_task_data", False),
    )


# ---------------------------------------------------------------------------
# Command implementations (plain dict in; output paths and the manifest's
# extra fields out; rerunnable).


def _impl_gen(opts: dict) -> tuple[list[str], dict]:
    import numpy as np

    from . import lanes, store
    from .channel import TaskDataset, collection_lanes, generate_task_datasets, sample_environment
    from .seeding import STREAM_CLI_GEN, stream

    gcfg = _generator_config(opts)
    role, envs, pairs, first = opts["role"], opts["envs"], opts["pairs"], opts["first_env_id"]
    count = collection_lanes(envs * pairs * 2, envs, gcfg.noise)
    empty = lanes.shared_empty if count > 1 else np.empty
    wide, rows = (envs, pairs, 2 * gcfg.array.m), (envs, pairs)
    ys = empty(wide)  # xs, ys, y_clean (ys itself under clean noise), f_up, f_down, user_index
    columns = [empty(wide), ys, ys if gcfg.noise.mode == "clean" else empty(wide),
               empty(rows), empty(rows), empty(rows, np.int64)]

    def collect(k):  # environment first + k, into row k of every column
        env = sample_environment(first + k, gcfg, opts["seed"])
        (d,) = generate_task_datasets(
            env, [(role, pairs)], gcfg.users, (gcfg.f_min, gcfg.f_max), gcfg.delta_f,
            gcfg.array, gcfg.noise, stream(env.seed, STREAM_CLI_GEN, ROLE_CHOICES.index(role)),
            gcfg.delay_max)
        for column, a in zip(columns, (d.xs, d.ys, d.y_clean, d.f_up, d.f_down, d.user_index)):
            column[k] = a

    ran = lanes.fork_map(collect, envs, count)[1]
    datasets = [TaskDataset(first + k, role, *(column[k] for column in columns))
                for k in range(envs)]
    store.write_dataset(opts["out"], datasets, gcfg.noise, gcfg.delta_f)
    return [opts["out"], opts["out"] + ".meta.json"], {"lanes": ran}


def _write_model(path: str, model) -> list[str]:
    """Write a trained model's checkpoint, sidecar and per-step loss CSV."""
    from . import store

    store.write_checkpoint(path, model)
    _write_csv(path + ".loss.csv", ["step", "loss"],
               [[i, repr(x)] for i, x in enumerate(model.loss_history)])
    return [path, path + ".meta.json", path + ".loss.csv"]


def _impl_train(opts: dict) -> tuple[list[str], dict]:
    import numpy as np

    from . import store
    from .evaluate import source_environments
    from .seeding import STREAM_BATCH, stream
    from .transfer import first_visits, train_no_transfer

    cfg = _train_config(opts)
    m, ran = cfg.gen.array.m, 1
    if opts.get("sources"):
        pool = []
        for path in opts["sources"]:
            blob = store.read_dataset(path)
            if blob.m != m:
                raise click.ClickException(
                    f"{path} carries {blob.m} antennas but --antennas is {m}")
            pool.extend(blob.datasets)
        xs, ys = (np.concatenate([getattr(d, a) for d in pool]) for a in ("xs", "ys"))
    else:
        xs, ys, ran = first_visits(source_environments(cfg), cfg)
        xs, ys = xs.reshape(-1, 2 * m), ys.reshape(-1, 2 * m)
    model = train_no_transfer(xs, ys, cfg, stream(cfg.seed, STREAM_BATCH, 0))
    return _write_model(opts["out"], model), {"lanes": ran}


def _impl_meta_train(opts: dict) -> tuple[list[str], dict]:
    from .evaluate import source_environments
    from .seeding import STREAM_BATCH, stream
    from .transfer import meta_lanes, meta_train

    cfg = _train_config(opts)
    model = meta_train(source_environments(cfg), cfg, stream(cfg.seed, STREAM_BATCH, 1))
    return _write_model(opts["out"], model), {"meta_lanes": meta_lanes(cfg)}


def _load_adaption_set(opts: dict):
    from . import store

    blob = store.read_dataset(opts["data"])
    candidates = [d for d in blob.datasets if d.role == "adaption"] or blob.datasets
    return blob, candidates[0]


def _check_m(model, file_m: int):
    model_m = model.params.weights[0].shape[1] // 2
    if model_m != file_m:
        raise click.ClickException(
            f"checkpoint expects {model_m} antennas but the dataset file "
            f"carries {file_m}")


def _impl_adapt(opts: dict) -> tuple[list[str], dict]:
    from . import store
    from .transfer import (PROVENANCE_META, RULE_ADAM, RULE_GD, TrainConfig,
                           adapt_snapshots)

    model = store.read_checkpoint(opts["checkpoint"])
    blob, d_ad = _load_adaption_set(opts)
    _check_m(model, blob.m)
    rule = opts["rule"]
    if rule == "auto":
        rule = RULE_GD if model.provenance == PROVENANCE_META else RULE_ADAM
    cfg = TrainConfig(beta=opts["beta"], g_ad=opts["g_ad"], seed=opts["seed"])
    adapted = adapt_snapshots(model, d_ad, cfg, rule, [opts["g_ad"]])[opts["g_ad"]]
    return _write_model(opts["out"], adapted), {}


def _impl_eval(opts: dict) -> tuple[list[str], dict]:
    from . import store
    from .evaluate import NmseResult, test_model

    model = store.read_checkpoint(opts["checkpoint"])
    blob = store.read_dataset(opts["data"])
    _check_m(model, blob.m)
    if not blob.has_clean:
        raise click.ClickException(
            f"{opts['data']} stores no clean labels; NMSE is measured against "
            f"the clean downlink channel")
    per_target = [test_model(model, d) for d in blob.datasets]
    result = NmseResult(model.provenance, per_target)
    _write_csv(opts["out"],
               ["sweep_value", "algorithm", "nmse_linear", "nmse_db",
                "k_targets", "seed"],
               [["", result.algorithm, repr(result.mean_linear),
                 repr(result.mean_db), len(per_target), opts["seed"]]])
    return [opts["out"]], {}


def sweep_report_rows(report, seed: int) -> list[list]:
    """Flatten a sweep report into the standard CSV rows."""
    rows = []
    for point in report.points:
        value = "" if point.value is None else point.value
        for algo in ("no-transfer", "direct-transfer", "meta-learning"):
            r = point.results[algo]
            rows.append([value, algo, repr(r.mean_linear), repr(r.mean_db),
                         len(r.per_target), seed])
    return rows


def sweep_report_record(report) -> dict:
    """What a sweep measured beyond its CSV rows: the stage wall-clock
    times in seconds and, per grid point, the pre-adaption NMSE of each
    transfer algorithm's starting network on every target."""
    return {
        "variable": report.variable,
        "wall_clock": report.wall_clock,
        "workers": report.workers,
        "meta_lanes": report.meta_lanes,
        "points": [{"value": point.value,
                    "baselines": {algo: {"per_target": r.per_target,
                                         "nmse_linear": r.mean_linear,
                                         "nmse_db": r.mean_db}
                                  for algo, r in point.baselines.items()}}
                   for point in report.points],
    }


def _impl_sweep(opts: dict) -> tuple[list[str], dict]:
    from .evaluate import run_three_way

    cfg = _train_config(opts)
    variable = opts["variable"].replace("-", "_")
    grid = _parse_grid(opts["grid"], opts["variable"])
    sweep = None if variable == "none" else (variable, grid)
    report = run_three_way(cfg, sweep)
    _write_csv(opts["out"],
               ["sweep_value", "algorithm", "nmse_linear", "nmse_db",
                "k_targets", "seed"],
               sweep_report_rows(report, opts["seed"]))
    report_path = opts["out"] + ".report.json"
    with open(report_path, "w") as f:
        json.dump(sweep_report_record(report), f, indent=2, sort_keys=True)
    return [opts["out"], report_path], {}


def _impl_gradcheck(opts: dict) -> tuple[list[str], dict]:
    from . import net, transfer
    from .seeding import (STREAM_GRADCHECK_BACKWARD, STREAM_GRADCHECK_HVP,
                          STREAM_GRADCHECK_META, stream)

    probes = opts["probe_count"]
    seed = opts["seed"]
    failures = []

    def report(name, err, tol):
        status = "pass" if err < tol else "FAIL"
        click.echo(f"{name}: max relative error {err:.3e} (tolerance {tol:.0e}) {status}")
        if err >= tol:
            failures.append(name)

    # Gradient vs central finite differences on the default prediction net.
    spec = net.LayerSpec.fnn(opts["antennas"], _parse_hidden(opts["hidden"]))
    worst = 0.0
    for s in range(5):
        rng = stream(seed, STREAM_GRADCHECK_BACKWARD, s)
        params = net.init_params(spec, rng)
        batch = net.Batch(rng.normal(size=(8, spec.sizes[0])),
                          rng.normal(size=(8, spec.sizes[0])))
        grads = net.loss_and_grad(params, batch)[1]
        for _ in range(probes // 5 + 1):
            li = int(rng.integers(0, len(params.weights)))
            w = params.weights[li]
            idx = (int(rng.integers(0, w.shape[0])), int(rng.integers(0, w.shape[1])))
            # A step of 1e-5 leaves a rounding floor near 2e-6 relative on small
            # entries when the loss is O(40) (M=16, hidden 128,128); 1e-4 keeps
            # both rounding and truncation far below the tolerance.
            eps = 1e-4
            p2, p3 = params.copy(), params.copy()
            p2.weights[li][idx] += eps
            p3.weights[li][idx] -= eps
            fd = (net.mse_loss(p2, batch) - net.mse_loss(p3, batch)) / (2 * eps)
            an = grads.weights[li][idx]
            worst = max(worst, abs(fd - an) / max(abs(fd), abs(an), 1e-10))
    report("backward-vs-finite-differences", worst, 1e-6)

    # Hessian symmetry through the forward-over-reverse product.
    worst = 0.0
    for s in range(5):
        rng = stream(seed, STREAM_GRADCHECK_HVP, s)
        params = net.init_params(spec, rng)
        batch = net.Batch(rng.normal(size=(8, spec.sizes[0])),
                          rng.normal(size=(8, spec.sizes[0])))
        d1 = params.like(rng.normal(size=params.flat.shape))
        d2 = params.like(rng.normal(size=params.flat.shape))
        s1 = net.params_dot(d2, net.forward_param_jvp(params, d1, batch))
        s2 = net.params_dot(d1, net.forward_param_jvp(params, d2, batch))
        worst = max(worst, abs(s1 - s2) / max(abs(s1), abs(s2), 1e-12))
    report("hvp-symmetry", worst, 1e-8)

    # Exact meta-gradient vs finite differences of the composed objective.
    small = net.LayerSpec.fnn(2, (4, 8))
    worst = 0.0
    for g_tr in (1, 2, 3):
        rng = stream(seed, STREAM_GRADCHECK_META, g_tr)
        params = net.init_params(small, rng)
        # Two tasks, each drawn as support xs, ys, then query xs, ys; one block.
        block = [a.copy() for a in rng.normal(size=(2, 4, 4, 4)).swapaxes(0, 1)]
        tasks = [(net.Batch(block[0][t], block[1][t]), net.Batch(block[2][t], block[3][t]))
                 for t in range(2)]
        beta = 1e-3
        mg = transfer._meta_batch_eval(params, [block], g_tr, beta, "exact")[1]

        def meta_loss(p):
            total = 0.0
            for sup, que in tasks:
                adapted, _ = transfer.inner_adapt(p, sup, g_tr, beta)
                total += net.mse_loss(adapted, que)
            return total

        for _ in range(max(probes // 10, 5)):
            li = int(rng.integers(0, len(params.weights)))
            w = params.weights[li]
            idx = (int(rng.integers(0, w.shape[0])), int(rng.integers(0, w.shape[1])))
            eps = 2e-5  # near the f64 central-difference optimum at this loss scale
            p2, p3 = params.copy(), params.copy()
            p2.weights[li][idx] += eps
            p3.weights[li][idx] -= eps
            fd = (meta_loss(p2) - meta_loss(p3)) / (2 * eps)
            an = mg.weights[li][idx]
            worst = max(worst, abs(fd - an) / max(abs(fd), abs(an), 1e-10))
    report("meta-gradient-vs-finite-differences", worst, 1e-5)

    if failures:
        raise click.ClickException("gradient checks failed: " + ", ".join(failures))
    return [], {}


_IMPLS = {
    "gen": _impl_gen,
    "train": _impl_train,
    "meta-train": _impl_meta_train,
    "adapt": _impl_adapt,
    "eval": _impl_eval,
    "sweep": _impl_sweep,
    "gradcheck": _impl_gradcheck,
}


def _execute(subcommand: str, opts: dict):
    from .store import FormatError

    started = _utcnow()
    try:
        outputs, record = _IMPLS[subcommand](opts)
    except (FormatError, ValueError) as exc:  # bad input or option values, divergence
        raise click.ClickException(str(exc)) from None
    if "out" in opts:
        manifest = _write_manifest(subcommand, opts, outputs, record, started)
        click.echo(f"wrote {', '.join(outputs)} (manifest: {manifest})")


# ---------------------------------------------------------------------------
# Click wiring.


@click.group()
@click.option("--threads", type=int, default=0, show_default=True,
              help="Cap linear-algebra thread pools (0 keeps library defaults). "
                   "Results do not depend on this value.")
def cli(threads: int):
    """Downlink-channel prediction experiments: generate, train, adapt,
    evaluate, sweep, verify."""
    if threads > 0:
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ[var] = str(threads)


def _option_set(*options):
    """One decorator that applies ``options`` in the order listed."""
    def apply(fn):
        for option in reversed(options):
            fn = option(fn)
        return fn
    return apply


_gen_options = _option_set(
    click.option("--users", type=click.IntRange(min=1), default=25, show_default=True,
                 help="Users drawn per environment."),
    click.option("--antennas", type=click.IntRange(min=1), default=64, show_default=True),
    click.option("--delta-f-hz", type=float, default=120e6, show_default=True,
                 help="Downlink minus uplink frequency."),
    click.option("--f-min-hz", type=float, default=1e9, show_default=True),
    click.option("--f-max-hz", type=float, default=3e9, show_default=True),
    click.option("--snr-db", type=float, default=20.0, show_default=True),
    click.option("--pilot-len", type=click.IntRange(min=1), default=64, show_default=True),
    click.option("--noise-mode", type=click.Choice(NOISE_CHOICES), default="lmmse",
                 show_default=True),
    click.option("--seed", type=int, default=0, show_default=True),
)

_train_options = _option_set(
    click.option("--gamma", type=float, default=1e-3, show_default=True,
                 help="Across-task / Adam learning rate."),
    click.option("--beta", type=float, default=1e-6, show_default=True,
                 help="Inner-task / adaption learning rate."),
    click.option("--v", type=click.IntRange(min=1), default=128, show_default=True,
                 help="Training batch size."),
    click.option("--k-s", type=click.IntRange(min=1), default=1500, show_default=True,
                 help="Source task count."),
    click.option("--n-tr", type=click.IntRange(min=1), default=20, show_default=True,
                 help="Samples per source task."),
    click.option("--max-steps", type=click.IntRange(min=0), default=20000,
                 show_default=True),
    click.option("--hidden", type=str, default="128,128", show_default=True,
                 help="Comma-separated hidden-layer widths."),
)

_meta_options = _option_set(
    click.option("--g-tr", type=click.IntRange(min=0), default=3, show_default=True,
                 help="Inner-task gradient steps."),
    click.option("--k-b", type=click.IntRange(min=1), default=80, show_default=True,
                 help="Tasks per across-task update."),
    click.option("--meta-mode", type=click.Choice(["exact", "first-order"]),
                 default="exact", show_default=True),
)

# TrainConfig.desk_profile with clean collection: small enough that `sweep`
# runs the full three-way comparison in minutes on one CPU.
SWEEP_DESK_DEFAULTS = {"users": 10, "antennas": 16, "noise_mode": "clean", "k_s": 200}


@cli.command()
@click.option("--envs", type=click.IntRange(min=1), default=1, show_default=True)
@click.option("--first-env-id", type=int, default=0, show_default=True)
@click.option("--role", type=click.Choice(ROLE_CHOICES), default="test",
              show_default=True)
@click.option("--pairs", type=click.IntRange(min=1), default=20, show_default=True)
@_gen_options
@click.option("--out", type=click.Path(), required=True)
def gen(**opts):
    """Generate task datasets and write them to a binary file."""
    _execute("gen", opts)


@cli.command()
@click.option("--sources", type=click.Path(exists=True), multiple=True,
              help="Dataset file(s) to pool; omit to generate from the flags.")
@_gen_options
@_train_options
@click.option("--out", type=click.Path(), required=True)
def train(**opts):
    """Classical training on the pooled source data."""
    opts["sources"] = list(opts["sources"])
    _execute("train", opts)


@cli.command("meta-train")
@_gen_options
@_train_options
@_meta_options
@click.option("--fixed-task-data", is_flag=True, default=False,
              help="Freeze each task's support/query sets instead of "
                   "regenerating them per visit.")
@click.option("--out", type=click.Path(), required=True)
def meta_train_cmd(**opts):
    """Meta-training with inner-task and across-task updates."""
    _execute("meta-train", opts)


@cli.command()
@click.option("--checkpoint", type=click.Path(exists=True), required=True)
@click.option("--data", type=click.Path(exists=True), required=True,
              help="Dataset file holding the adaption set.")
@click.option("--g-ad", type=click.IntRange(min=0), default=1000, show_default=True)
@click.option("--beta", type=float, default=1e-6, show_default=True)
@click.option("--rule", type=click.Choice(["auto", "adam", "gd"]), default="auto",
              show_default=True, help="auto: Adam for a classically trained "
                                      "base, plain GD for a meta-trained one.")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", type=click.Path(), required=True)
def adapt(**opts):
    """Fine-tune a checkpoint on one target's adaption set."""
    _execute("adapt", opts)


@cli.command("eval")
@click.option("--checkpoint", type=click.Path(exists=True), required=True)
@click.option("--data", type=click.Path(exists=True), required=True,
              help="Test dataset file (must carry clean labels).")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", type=click.Path(), required=True)
def eval_cmd(**opts):
    """NMSE of a checkpoint against clean downlink channels."""
    _execute("eval", opts)


@cli.command(context_settings={"default_map": SWEEP_DESK_DEFAULTS})
@click.option("--variable", type=click.Choice(SWEEP_CHOICES), default="none",
              show_default=True)
@click.option("--grid", type=str, default="", help="Comma-separated grid values.")
@click.option("--k-t", type=click.IntRange(min=1), default=50, show_default=True)
@click.option("--g-ad", type=click.IntRange(min=0), default=1000, show_default=True)
@click.option("--n-ad", type=click.IntRange(min=1), default=20, show_default=True)
@click.option("--n-te", type=click.IntRange(min=1), default=20, show_default=True)
@_meta_options
@_gen_options
@_train_options
@click.option("--out", type=click.Path(), required=True)
def sweep(**opts):
    """Three-way comparison at desk scale, optionally sweeping one variable."""
    if opts["variable"] != "none" and not opts["grid"]:
        raise click.UsageError("--grid is required unless --variable none")
    _execute("sweep", opts)


@cli.command()
@click.option("--probe-count", type=click.IntRange(min=1), default=100,
              show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--antennas", type=click.IntRange(min=1), default=16, show_default=True)
@click.option("--hidden", type=str, default="128,128", show_default=True)
def gradcheck(**opts):
    """Verify gradients, Hessian products, and the exact meta-gradient."""
    _execute("gradcheck", opts)


def _recorded_command_line(cmd: click.Command, config: dict) -> list[str]:
    """The flags that give each of ``cmd``'s parameters its recorded value.
    A null value is left out, so it reads as the default."""
    args = []
    for p in cmd.params:
        value = config[p.name]
        if p.is_flag:
            if value is True:
                args.append(p.opts[0])
        elif value is not None:
            for item in value if p.multiple and isinstance(value, list) else [value]:
                args.append(f"{p.opts[0]}={item}")
    return args


@cli.command()
@click.argument("manifest", type=click.Path(exists=True))
def rerun(manifest):
    """Re-execute a recorded run; outputs are byte-identical."""
    with open(manifest) as f:
        try:
            recorded = json.load(f)
        except json.JSONDecodeError as exc:
            raise click.ClickException(f"{manifest} is not valid JSON: {exc}") from None
    if not isinstance(recorded, dict):
        raise click.ClickException(f"{manifest} does not hold a JSON object")
    sub = recorded.get("subcommand")
    if sub not in _IMPLS:
        raise click.ClickException(f"manifest names unknown subcommand {sub!r}")
    config = recorded.get("config")
    if not isinstance(config, dict):
        raise click.ClickException(f"{manifest} has no 'config' object")
    cmd = cli.commands[sub]
    missing = [p.name for p in cmd.params if p.name not in config]
    if missing:
        raise click.ClickException(f"{manifest} config lacks {', '.join(missing)}")
    # The subcommand's own declarations check every recorded value. The
    # context has no parent, so no CSIT_* variable overrides one.
    try:
        ctx = cmd.make_context(sub, _recorded_command_line(cmd, config))
    except click.UsageError as exc:
        raise click.ClickException(f"{manifest}: {exc.format_message()}") from None
    for p in cmd.params:
        parsed = ctx.params[p.name]
        if (list(parsed) if p.multiple else parsed) != config[p.name]:
            raise click.ClickException(
                f"{manifest}: config field {p.name!r} holds {config[p.name]!r}, "
                f"which {p.opts[0]} reads as {parsed!r}")
    with ctx:
        cmd.invoke(ctx)


def main():
    cli(auto_envvar_prefix="CSIT")


if __name__ == "__main__":
    main()
