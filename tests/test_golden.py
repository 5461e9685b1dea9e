"""The seed contract: small fixed runs reproduce ``golden.json``.

``make_golden.py`` wrote the record and says how to regenerate it. On the
numpy version and BLAS build the record names, every recorded number must
come back bit for bit. On another build, rounding inside BLAS may differ,
so the numbers are compared at rtol 1e-10 and the test warns that it did.
"""

import json
import warnings

import numpy as np
import pytest

import make_golden

with open(make_golden.RECORD) as _f:
    RECORD = json.load(_f)


def test_record_covers_every_case():
    assert set(RECORD["cases"]) == set(make_golden.CASES)


@pytest.mark.parametrize("name", sorted(make_golden.CASES))
def test_case_reproduces_the_record(name):
    got, want = make_golden.CASES[name](), RECORD["cases"][name]
    assert got.keys() == want.keys()
    exact = RECORD["build"] == make_golden.build()
    if not exact:
        warnings.warn(f"golden record built on {RECORD['build']}, running on "
                      f"{make_golden.build()}: comparing at rtol 1e-10, not bit for bit")
    for model, arrays in want.items():
        assert got[model].keys() == arrays.keys()
        for key, values in arrays.items():
            label = f"{name} {model} {key}"
            if exact:
                assert got[model][key] == values, label
            else:
                np.testing.assert_allclose([float.fromhex(x) for x in got[model][key]],
                                           [float.fromhex(x) for x in values],
                                           rtol=1e-10, atol=0, err_msg=label)
