"""Write ``tests/golden.json``: the exact outputs of small fixed runs.

Run from the repository root::

    PYTHONPATH=src python tests/make_golden.py

Every case runs at M=4 antennas and records its numbers as ``float.hex``.
The training cases train a tiny network (hidden layers 8,8) and record its
parameters (``params.flat``) and loss history. They cover
``evaluate.train_pair`` with fixed and regenerated meta-learning tasks
under clean and LMMSE noise (and with first-order meta-gradients on
regenerated clean tasks), and the checkpoints of ``csitransfer train``
(generated sources and ``--sources``) and ``csitransfer meta-train`` (with
and without ``--fixed-task-data``, and with ``--meta-mode first-order``).
The ``gen`` cases record the columns of ``csitransfer gen`` files under
clean, AWGN and LMMSE noise. The ``three_way`` cases record
``evaluate.run_three_way``'s per-target NMSEs and baselines for no sweep,
an ``n_ad`` sweep (whose smaller values collect a prefix of the adaption
combinations) and an ``snr_db`` sweep under LMMSE, and the parameters and
loss history of every model adapted on the way (Adam for direct transfer,
GD for meta-learning), by target, rule and call.
``test_golden.py`` recomputes each case with :data:`CASES` and compares.

The record also names the numpy version and BLAS build it was computed on.
Regenerate it only for a change that means to move these numbers, and say
which values moved, why and by how much.
"""

from __future__ import annotations

import collections
import glob
import json
import os
import tempfile

import numpy as np
from click.testing import CliRunner

from csitransfer import channel as ch
from csitransfer import evaluate, store, transfer
from csitransfer.cli import cli
from csitransfer.transfer import TrainConfig

RECORD = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")

TINY_GEN = ("--antennas", 4, "--users", 4, "--seed", 2)
TINY_TRAIN = ("--k-s", 12, "--n-tr", 7, "--v", 16, "--max-steps", 6, "--hidden", "8,8",
              "--gamma", 1e-2)
TINY_META = ("--k-b", 9, "--g-tr", 2, "--beta", 1e-2)


def build() -> dict:
    """The numpy version and BLAS build that the numbers depend on."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}"}


def _hexes(values) -> list[str]:
    return [float(x).hex() for x in np.ravel(values)]


def _model(model) -> dict:
    return {"params": _hexes(model.params.flat), "loss": _hexes(model.loss_history)}


def _train_pair(noise: str, fixed: bool, mode: str = "exact"):
    def case() -> dict:
        gen = ch.GeneratorConfig(array=ch.ArrayConfig(m=4), users=4,
                                 noise=ch.NoiseSpec(mode=noise))
        # 9 tasks per meta batch make blocks of 4, 4 and 1, whose gradients
        # are summed in order; 12 sources over 4 steps revisit some, so
        # regenerated runs mix stored and regenerated tasks in one block.
        cfg = TrainConfig(k_s=12, k_b=9, n_tr=7, u=4, v=16, g_tr=2, beta=1e-2, gamma=1e-2,
                          hidden=(8, 8), max_steps=4, seed=3, fixed_task_data=fixed,
                          meta_mode=mode, gen=gen)
        nt, mt = evaluate.train_pair(cfg)
        return {"no_transfer": _model(nt), "meta": _model(mt)}
    return case


def _gen(noise: str):
    def case() -> dict:
        with tempfile.TemporaryDirectory() as tmp:
            out = os.path.join(tmp, "data.bin")
            res = CliRunner().invoke(cli, [str(a) for a in (
                "gen", "--envs", 2, "--pairs", 5, "--role", "adaption", "--noise-mode", noise,
                *TINY_GEN, "--out", out)])
            assert res.exit_code == 0, res.output
            datasets = store.read_dataset(out).datasets
        return {f"env-{d.env_id}": {"x": _hexes(d.xs), "y": _hexes(d.ys),
                                    "y_clean": _hexes(d.y_clean), "f_up": _hexes(d.f_up),
                                    "user_index": _hexes(d.user_index)} for d in datasets}
    return case


def _recording(adapt, folder: str):
    """``adapt`` (``transfer.adapt_snapshots``), also writing every model it
    returns to a file in ``folder``, named by target, rule, call and step:
    targets may run in other processes, which return only NMSEs."""
    calls = collections.Counter()

    def recorded(base, d_ad, cfg, rule, step_marks):
        out = adapt(base, d_ad, cfg, rule, step_marks)
        key = f"target-{d_ad.env_id}/{rule}"
        calls[key] += 1  # a target's calls run in one process, in grid order
        for step, model in out.items():
            name = f"{key}/call-{calls[key]}/step-{step}".replace("/", "~")
            with open(os.path.join(folder, name + ".json"), "w") as f:
                json.dump(_model(model), f)
        return out
    return recorded


def _three_way(sweep, noise: str = ch.NOISE_CLEAN):
    def case() -> dict:
        gen = ch.GeneratorConfig(array=ch.ArrayConfig(m=4), users=4,
                                 noise=ch.NoiseSpec(mode=noise))
        cfg = TrainConfig(k_s=4, k_t=2, k_b=2, n_tr=4, n_ad=6, n_te=4, u=4, v=8, g_tr=1,
                          g_ad=5, hidden=(8, 8), max_steps=3, seed=5, gen=gen)
        adapt = transfer.adapt_snapshots
        with tempfile.TemporaryDirectory() as tmp:
            transfer.adapt_snapshots = _recording(adapt, tmp)
            try:
                report = evaluate.run_three_way(cfg, sweep)
            finally:
                transfer.adapt_snapshots = adapt
            adapted = {}
            for path in sorted(glob.glob(os.path.join(tmp, "*.json"))):
                with open(path) as f:
                    name = os.path.basename(path)[:-len(".json")].replace("~", "/")
                    adapted[f"adapted/{name}"] = json.load(f)
        out = {"baselines": {algo: _hexes(r.per_target)
                             for algo, r in report.points[0].baselines.items()}}
        out.update({f"value-{p.value}": {algo: _hexes(r.per_target)
                                         for algo, r in p.results.items()}
                    for p in report.points})
        out.update(adapted)
        return out
    return case


def _cli(command: str, *args, sources: bool = False):
    def case() -> dict:
        runner = CliRunner()
        with tempfile.TemporaryDirectory() as tmp:
            extra = ()
            if sources:
                data = os.path.join(tmp, "sources.bin")
                res = runner.invoke(cli, [str(a) for a in (
                    "gen", "--envs", 3, "--pairs", 8, "--role", "train-support",
                    "--noise-mode", "awgn", *TINY_GEN, "--out", data)])
                assert res.exit_code == 0, res.output
                extra = ("--sources", data)
            out = os.path.join(tmp, "model.ck")
            res = runner.invoke(cli, [str(a) for a in (command, *args, *extra,
                                                       "--out", out)])
            assert res.exit_code == 0, res.output
            model = store.read_checkpoint(out)
            with open(out + ".loss.csv") as f:
                model.loss_history = [float(row.split(",")[1]) for row in f.readlines()[1:]]
            return {"checkpoint": _model(model)}
    return case


CASES = {
    f"train_pair/{noise}/{'fixed' if fixed else 'regenerated'}": _train_pair(noise, fixed)
    for noise in (ch.NOISE_CLEAN, ch.NOISE_LMMSE) for fixed in (False, True)
}
CASES["train_pair/clean/regenerated/first-order"] = _train_pair(ch.NOISE_CLEAN, False,
                                                                "first-order")
CASES.update({
    "cli/train": _cli("train", *TINY_GEN, "--noise-mode", "clean", *TINY_TRAIN),
    "cli/train-sources": _cli("train", *TINY_GEN, "--noise-mode", "awgn", *TINY_TRAIN,
                              sources=True),
    "cli/meta-train": _cli("meta-train", *TINY_GEN, "--noise-mode", "clean", *TINY_TRAIN,
                           *TINY_META),
    "cli/meta-train-first-order": _cli("meta-train", *TINY_GEN, "--noise-mode", "clean",
                                       *TINY_TRAIN, *TINY_META, "--meta-mode", "first-order"),
    "cli/meta-train-fixed": _cli("meta-train", *TINY_GEN, "--noise-mode", "lmmse",
                                 *TINY_TRAIN, *TINY_META, "--fixed-task-data"),
})
CASES.update({f"gen/{noise}": _gen(noise) for noise in ch.NOISE_MODES})
CASES.update({
    "three_way/none": _three_way(None),
    "three_way/n_ad": _three_way(("n_ad", [2, 4])),
    "three_way/snr_db": _three_way(("snr_db", [0.0, 20.0]), ch.NOISE_LMMSE),
})


def main():
    cases = {name: case() for name, case in CASES.items()}
    with open(RECORD, "w") as f:  # one line per case
        f.write('{"build": %s,\n "cases": {\n' % json.dumps(build()))
        f.write(",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in cases.items()))
        f.write("\n}}\n")
    print(f"wrote {len(cases)} cases to {RECORD}")


if __name__ == "__main__":
    main()
