"""Self-test of the benchmark harness at tiny problem sizes.

    python3 -m pytest bench

Each workload runs in a second or two with ``--quick``. The tests check the
result-line contract, that every metric named in BENCHMARK.json is emitted
with its unit, that the correctness gates pass on the current code and
catch wrong output, and that traced counts repeat exactly at one seed.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
import run  # noqa: E402  (its imports of numpy and the program are lazy)

with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    SPEC = json.load(_f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
E2E_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
# Per-layer metrics that are counts of work, not times: they must repeat.
EXACT_UNITS = ("count", "GFLOP", "MB", "B", "builds/pair")


def run_bench(workload, trace, seed=3, cwd=ROOT, script=os.path.join(BENCH, "run.py")):
    return subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", str(seed),
         "--seconds", "0.2", "--trace", str(trace), "--quick"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def parse(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


def check_result(result, units):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == units
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_end_to_end_metrics(workload):
    report, result = parse(run_bench(workload, trace=0))
    check_result(result, E2E_UNITS)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert report["gate_failures"] == [] and report["failed_frac"] == 0.0
    assert report["quality"]
    host = report["host"]
    assert host["seed"] == 3 and host["cpu_count"] == os.cpu_count()
    assert host["thread_env"]["OPENBLAS_NUM_THREADS"] == "1"
    assert host["numpy"] and host["python"] and host["source_sha256"]
    assert isinstance(report["slow_period"], bool)



# Layers each workload exists to measure (traced value > 0) and layers it
# must not reach (traced value 0).
REACHED = {
    "meta_m64": ({"net.forward_param_jvp.calls"}, {"store.bytes"}),
    "three_way_m16": ({"optim.adam_step.calls", "evaluate.stage_s.adaption"}, set()),
    "collect_lmmse_m64": ({"channel.cov_builds_per_pair", "store.bytes"},
                          {"net.loss_and_grad.calls"}),
}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    first_report, first = parse(run_bench(workload, trace=1))
    second_report, second = parse(run_bench(workload, trace=1))
    for result in (first, second):
        check_result(result, PER_LAYER_UNITS)
    for name, unit in PER_LAYER_UNITS.items():
        if unit in EXACT_UNITS:
            assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    assert first_report["quality"] == second_report["quality"]
    assert os.path.isfile(os.path.join(ROOT, first_report["spans"]))
    nonzero, zero = REACHED[workload]
    assert all(first["metrics"][name]["value"] > 0 for name in nonzero)
    assert all(first["metrics"][name]["value"] == 0 for name in zero)


def test_fails_without_the_program(tmp_path):
    """In a directory holding only the benchmark, it exits non-zero and
    prints no result."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(WORKLOADS[0], trace=0, cwd=tmp_path,
                     script=str(tmp_path / "bench" / "run.py"))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_fast_end_takes_the_better_decile():
    times = [float(t) for t in range(1, 12)]  # 1..11 s
    assert run.fast_end(times, "lower") == 2.0
    assert run.fast_end([1.0 / t for t in times], "higher") == 0.5
    assert run.fast_end([3.0], "lower") == 3.0


def _corrupt_round_trip(monkeypatch):
    from csitransfer import store

    read = store.read_dataset

    def corrupted(path):
        blob = read(path)
        blob.datasets[0].pairs[0].x[0] += 1e-12
        return blob

    monkeypatch.setattr(store, "read_dataset", corrupted)


def _wrong_derivative_order(monkeypatch):
    from csitransfer import transfer

    meta_train = transfer.meta_train

    def wrong(*args, **kwargs):
        model = meta_train(*args, **kwargs)
        model.derivative_order = 1
        return model

    monkeypatch.setattr(transfer, "meta_train", wrong)


def _missing_target(monkeypatch):
    from csitransfer import evaluate

    run_three_way = evaluate.run_three_way

    def short(*args, **kwargs):
        report = run_three_way(*args, **kwargs)
        report.points[0].results[evaluate.ALGO_META].per_target.pop()
        return report

    monkeypatch.setattr(evaluate, "run_three_way", short)


@pytest.mark.parametrize("workload,corrupt,gate", [
    ("collect_lmmse_m64", _corrupt_round_trip, "round trip"),
    ("meta_m64", _wrong_derivative_order, "derivative_order"),
    ("three_way_m16", _missing_target, "expected k_t"),
])
def test_gates_reject_wrong_output(workload, corrupt, gate, monkeypatch, capsys):
    """A gate that fails names itself, counts its work failed and leaves the
    operation out of the rate."""
    run._import_program()
    corrupt(monkeypatch)
    assert run.main(["--workload", workload, "--seconds", "0.1", "--quick"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    report, result = json.loads(lines[-2])["report"], json.loads(lines[-1])
    assert result["correct"] is False
    assert result["failed"] > 0
    assert any(gate in g for g in report["gate_failures"])
    assert result["metrics"]["ops_per_s"]["value"] == 0.0


def test_reference_gate_rejects_changed_results(tmp_path, monkeypatch, capsys):
    """A full-size run whose operation 0 no longer reproduces the recorded
    results for its seed fails its gate."""
    with open(run.REFERENCE_PATH) as f:
        recorded = json.load(f)["collect_lmmse_m64"]["0"]
    assert not run.reference_mismatch(dict(recorded), recorded)
    changed = {k: v * (1 + 10 * run.REFERENCE_RTOL) for k, v in recorded.items()}
    path = tmp_path / "reference.json"
    path.write_text(json.dumps({"collect_lmmse_m64": {"0": changed}}))
    monkeypatch.setattr(run, "REFERENCE_PATH", str(path))
    assert run.main(["--workload", "collect_lmmse_m64", "--seconds", "0"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    report, result = json.loads(lines[-2])["report"], json.loads(lines[-1])
    assert result["correct"] is False
    assert any("differ from the recorded" in g for g in report["gate_failures"])
