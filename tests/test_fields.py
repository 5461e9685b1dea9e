"""A census of the settable fields of the records and configs.

This is a change detector by design, as the CLI's ``PARAMETERS`` table is
for options: a change that adds, removes, renames or reorders a field, or
changes its default, updates the table here and says so in CHANGES.md.
"""

import dataclasses
import inspect

import pytest

from csitransfer import channel as ch
from csitransfer import evaluate, net, transfer

REQUIRED = object()  # a field without a default

FIELDS = {
    ch.ArrayConfig: {"m": 64},
    ch.GeneratorConfig: {"array": ch.ArrayConfig(), "delay_max": 2.0e-9, "f_min": 1.0e9,
                         "f_max": 3.0e9, "delta_f": 120.0e6, "users": 25,
                         "noise": ch.NoiseSpec(mode="clean")},
    ch.NoiseSpec: {"snr_db": 20.0, "pilot_len": 64, "mode": "lmmse"},
    transfer.TrainConfig: {"gamma": 1e-3, "beta": 1e-6, "v": 128, "k_s": 1500, "k_t": 800,
                           "k_b": 80, "g_tr": 3, "g_ad": 1000, "n_tr": 20, "n_ad": 20,
                           "n_te": 20, "u": 25, "max_steps": 20000, "meta_mode": "exact",
                           "seed": 0, "gen": ch.GeneratorConfig(), "hidden": (128, 128),
                           "fixed_task_data": False},
    evaluate.SweepReport: {"variable": REQUIRED, "points": REQUIRED, "wall_clock": {},
                           "workers": 1, "meta_lanes": 1},
    ch.SamplePair: {"x": REQUIRED, "y": REQUIRED, "f_up": REQUIRED, "y_clean": REQUIRED,
                    "user_index": REQUIRED},
    ch.UserRays: {"doas": REQUIRED, "amplitudes": REQUIRED, "phases": REQUIRED,
                  "delays": REQUIRED},
    ch.Environment: {"id": REQUIRED, "as_lower": REQUIRED, "as_upper": REQUIRED,
                     "seed": REQUIRED},
    net.LayerSpec: {"sizes": REQUIRED},
}

TASK_DATASET_PARAMETERS = ("env_id", "role", "xs", "ys", "y_clean", "f_up", "user_index")


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


def test_task_dataset_keeps_its_constructor_parameters():
    params = list(inspect.signature(ch.TaskDataset).parameters.values())
    assert tuple(p.name for p in params) == TASK_DATASET_PARAMETERS
    assert all(p.default is inspect.Parameter.empty for p in params)
