"""A census of the settable fields of the records and configs, and of the
parameters of the functions that draw and collect datasets.

This is a change detector by design, as the CLI's ``PARAMETERS`` table is
for options: a change that adds, removes, renames or reorders a field, or
changes its default, updates the table here and says so in CHANGES.md.
"""

import dataclasses
import inspect

import pytest

from csitransfer import channel as ch
from csitransfer import evaluate, net, store, transfer

REQUIRED = object()  # a field without a default

FIELDS = {
    ch.ArrayConfig: {"m": 64},
    ch.GeneratorConfig: {"array": ch.ArrayConfig(), "delay_max": 2.0e-9, "f_min": 1.0e9,
                         "f_max": 3.0e9, "delta_f": 120.0e6, "users": 25,
                         "noise": ch.NoiseSpec(mode="clean")},
    ch.NoiseSpec: {"snr_db": 20.0, "pilot_len": 64, "mode": "lmmse"},
    # u must equal gen.users, the count every draw reads, until ROADMAP item
    # A deletes it (bench/workloads.py constructs TrainConfig(u=...)).
    transfer.TrainConfig: {"gamma": 1e-3, "beta": 1e-6, "v": 128, "k_s": 1500, "k_t": 800,
                           "k_b": 80, "g_tr": 3, "g_ad": 1000, "n_tr": 20, "n_ad": 20,
                           "n_te": 20, "u": 25, "max_steps": 20000, "meta_mode": "exact",
                           "seed": 0, "gen": ch.GeneratorConfig(), "hidden": (128, 128),
                           "fixed_task_data": False},
    evaluate.SweepReport: {"variable": REQUIRED, "points": REQUIRED, "wall_clock": {},
                           "workers": 1, "meta_lanes": 1},
    evaluate.SweepPoint: {"value": REQUIRED, "results": REQUIRED, "baselines": REQUIRED},
    evaluate.NmseResult: {"algorithm": REQUIRED, "per_target": REQUIRED},
    transfer.TrainedModel: {"params": REQUIRED, "provenance": REQUIRED, "config": REQUIRED,
                            "loss_history": REQUIRED, "derivative_order": 1},
    store.DatasetFile: {"datasets": REQUIRED, "m": REQUIRED, "delta_f": REQUIRED,
                        "noise": REQUIRED},
    ch.SamplePair: {"x": REQUIRED, "y": REQUIRED, "f_up": REQUIRED, "y_clean": REQUIRED,
                    "user_index": REQUIRED},
    ch.UserRays: {"doas": REQUIRED, "amplitudes": REQUIRED, "phases": REQUIRED,
                  "delays": REQUIRED},
    ch.Environment: {"id": REQUIRED, "as_lower": REQUIRED, "as_upper": REQUIRED,
                     "seed": REQUIRED},
    net.LayerSpec: {"sizes": REQUIRED},
    ch.ComboSet: {"env": REQUIRED, "gen": REQUIRED, "users": REQUIRED, "by_role": REQUIRED,
                  "cov": None},
}

TASK_DATASET_PARAMETERS = ("env_id", "role", "xs", "ys", "y_clean", "f_up", "user_index")

# The parameters of the functions that draw and collect, in order, with
# their defaults.
PARAMETERS = {
    ch.draw_combos: {"env": REQUIRED, "role_counts": REQUIRED, "gen": REQUIRED,
                     "rng": REQUIRED},
    ch.collect: {"combo_set": REQUIRED, "role": REQUIRED, "noise": REQUIRED, "rng": REQUIRED,
                 "limit": None},
    ch.collect_sets: {"combo_sets": REQUIRED, "roles": REQUIRED, "noise": REQUIRED,
                      "rngs": REQUIRED, "limit": None},
    ch.EnvCovariance.__init__: {"self": REQUIRED, "env": REQUIRED, "gen": REQUIRED},
    # bench/workloads.py calls it positionally with these nine arguments
    # until ROADMAP item A, when it can take a GeneratorConfig.
    ch.generate_task_datasets: {"env": REQUIRED, "role_counts": REQUIRED, "u": REQUIRED,
                                "f_range": REQUIRED, "delta_f": REQUIRED, "cfg": REQUIRED,
                                "noise": REQUIRED, "rng": REQUIRED, "delay_max": 2.0e-9},
}


def _fields(cls) -> dict:
    """Each field of the dataclass ``cls`` in order, with its default."""
    out = {}
    for f in dataclasses.fields(cls):
        if f.default is not dataclasses.MISSING:
            out[f.name] = f.default
        elif f.default_factory is not dataclasses.MISSING:
            out[f.name] = f.default_factory()
        else:
            out[f.name] = REQUIRED
    return out


@pytest.mark.parametrize("cls", list(FIELDS), ids=lambda cls: cls.__name__)
def test_record_keeps_its_fields_and_defaults(cls):
    got, want = _fields(cls), FIELDS[cls]
    assert list(got) == list(want)
    for name, default in want.items():
        assert got[name] == default and type(got[name]) is type(default), name


@pytest.mark.parametrize("fn", list(PARAMETERS), ids=lambda fn: fn.__qualname__)
def test_function_keeps_its_parameters(fn):
    got = {p.name: REQUIRED if p.default is inspect.Parameter.empty else p.default
           for p in inspect.signature(fn).parameters.values()}
    assert list(got) == list(PARAMETERS[fn])
    for name, default in PARAMETERS[fn].items():
        assert got[name] == default and type(got[name]) is type(default), name


def test_task_dataset_keeps_its_constructor_parameters():
    params = list(inspect.signature(ch.TaskDataset).parameters.values())
    assert tuple(p.name for p in params) == TASK_DATASET_PARAMETERS
    assert all(p.default is inspect.Parameter.empty for p in params)
