"""Schema of the benchmark pair files (``BENCH_*.json`` at the repository
root): each names exactly the workloads of ``BENCHMARK.json`` and holds,
for the parent and the change, one value per pair of every end-to-end
metric. No timing is checked."""

import glob
import json
import math
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCHMARK = json.load(f)
PAIR_FILES = sorted(glob.glob(os.path.join(ROOT, "BENCH_*.json")))


def test_pair_files_exist():
    assert PAIR_FILES


@pytest.mark.parametrize("path", PAIR_FILES, ids=os.path.basename)
def test_pair_file_holds_every_metric_per_pair(path):
    with open(path) as f:
        record = json.load(f)
    workloads = record["workloads"]
    assert sorted(workloads) == sorted(w["name"] for w in BENCHMARK["workloads"])
    metrics = [m["name"] for m in BENCHMARK["end_to_end"]]
    for name, workload in workloads.items():
        pairs = workload["pairs"]
        assert type(pairs) is int and pairs > 0, name
        for side in ("parent", "change"):
            by_pair = workload[side]["by_pair"]
            for metric in metrics:
                values = by_pair[metric]
                assert len(values) == pairs, (name, side, metric)
                assert all(isinstance(v, (int, float)) and math.isfinite(v)
                           for v in values), (name, side, metric)
            assert type(workload[side]["all_correct"]) is bool, (name, side)
