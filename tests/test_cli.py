"""Command-line tests: flags, exit codes, manifests, reproducibility."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest
from click.testing import CliRunner

from csitransfer import lanes, net, store, transfer
from csitransfer.cli import _train_config, cli

RUNNER = CliRunner()
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_cli(*args):
    return RUNNER.invoke(cli, [str(a) for a in args], catch_exceptions=False)


TINY_GEN = ("--antennas", 4, "--users", 4, "--noise-mode", "clean")
TINY_TRAIN = ("--k-s", 8, "--n-tr", 8, "--v", 16, "--max-steps", 10,
              "--hidden", "8")


def test_gen_writes_dataset_and_manifest(tmp_path):
    out = str(tmp_path / "d.bin")
    res = run_cli("gen", "--envs", 2, "--pairs", 5, *TINY_GEN, "--out", out)
    assert res.exit_code == 0
    blob = store.read_dataset(out)
    assert blob.m == 4 and len(blob.datasets) == 2
    manifest = json.load(open(out + ".manifest.json"))
    assert manifest["subcommand"] == "gen"
    assert manifest["config"]["pairs"] == 5
    assert manifest["outputs"][0] == out
    assert manifest["peak_rss_mb"] > 0
    assert manifest["peak_rss_children_mb"] >= 0
    assert json.load(open(out + ".meta.json"))["has_clean"] is True


def test_gen_zero_pairs_is_usage_error(tmp_path):
    res = RUNNER.invoke(cli, ["gen", "--pairs", "0", "--out", str(tmp_path / "x")])
    assert res.exit_code == 2


def test_gen_same_seed_byte_identical(tmp_path):
    a, b = str(tmp_path / "a.bin"), str(tmp_path / "b.bin")
    for out in (a, b):
        assert run_cli("gen", "--envs", 1, "--pairs", 4, "--seed", 9, *TINY_GEN,
                       "--out", out).exit_code == 0
    assert open(a, "rb").read() == open(b, "rb").read()


def test_rerun_from_manifest_byte_identical(tmp_path):
    out = str(tmp_path / "d.bin")
    assert run_cli("gen", "--envs", 1, "--pairs", 4, "--seed", 3, *TINY_GEN,
                   "--out", out).exit_code == 0
    original = open(out, "rb").read()
    os.unlink(out)
    res = run_cli("rerun", out + ".manifest.json")
    assert res.exit_code == 0
    assert open(out, "rb").read() == original


def test_train_zero_steps_equals_initialization(tmp_path):
    out = str(tmp_path / "c.ck")
    res = run_cli("train", *TINY_GEN, *TINY_TRAIN, "--max-steps", 0,
                  "--seed", 4, "--out", out)
    assert res.exit_code == 0
    model = store.read_checkpoint(out)
    assert model.provenance == "no-transfer"
    from csitransfer.channel import ArrayConfig, GeneratorConfig

    cfg = transfer.TrainConfig(
        seed=4, hidden=(8,), k_s=8, k_t=1, k_b=1, n_tr=8, v=16, max_steps=0,
        gen=GeneratorConfig(array=ArrayConfig(m=4), users=4))
    init = transfer.init_network(cfg)
    for a, b in zip(model.params.weights, init.weights):
        assert np.array_equal(a, b)
    loss_csv = open(out + ".loss.csv").read().splitlines()
    assert loss_csv[0] == "step,loss"
    assert len(loss_csv) == 2  # header + initial loss


def test_meta_train_both_modes_record_mode(tmp_path):
    for mode in ("exact", "first-order"):
        out = str(tmp_path / f"{mode}.ck")
        res = run_cli("meta-train", *TINY_GEN, *TINY_TRAIN, "--k-b", 2,
                      "--g-tr", 1, "--max-steps", 3, "--out", out)
        assert res.exit_code == 0 if mode == "exact" else True
    res = run_cli("meta-train", *TINY_GEN, *TINY_TRAIN, "--k-b", 2, "--g-tr", 1,
                  "--max-steps", 3, "--meta-mode", "first-order",
                  "--out", str(tmp_path / "fo.ck"))
    assert res.exit_code == 0
    manifest = json.load(open(str(tmp_path / "fo.ck") + ".manifest.json"))
    assert manifest["config"]["meta_mode"] == "first-order"
    model = store.read_checkpoint(str(tmp_path / "fo.ck"))
    assert model.provenance == "meta"
    assert model.derivative_order == 1
    exact = store.read_checkpoint(str(tmp_path / "exact.ck"))
    assert exact.derivative_order == 2  # g_tr=1 exact mode


def test_adapt_and_eval_roundtrip(tmp_path):
    ck = str(tmp_path / "base.ck")
    assert run_cli("train", *TINY_GEN, *TINY_TRAIN, "--seed", 1,
                   "--out", ck).exit_code == 0
    ad = str(tmp_path / "ad.bin")
    assert run_cli("gen", "--envs", 1, "--first-env-id", 100, "--role", "adaption",
                   "--pairs", 6, "--seed", 1, *TINY_GEN, "--out", ad).exit_code == 0
    out = str(tmp_path / "adapted.ck")
    res = run_cli("adapt", "--checkpoint", ck, "--data", ad, "--g-ad", 5,
                  "--beta", 1e-6, "--out", out)
    assert res.exit_code == 0
    adapted = store.read_checkpoint(out)
    assert adapted.provenance == "adapted"

    te = str(tmp_path / "te.bin")
    assert run_cli("gen", "--envs", 2, "--first-env-id", 200, "--role", "test",
                   "--pairs", 5, "--seed", 2, *TINY_GEN, "--out", te).exit_code == 0
    csv_out = str(tmp_path / "nmse.csv")
    res = run_cli("eval", "--checkpoint", out, "--data", te, "--out", csv_out)
    assert res.exit_code == 0
    lines = open(csv_out).read().splitlines()
    assert lines[0] == "sweep_value,algorithm,nmse_linear,nmse_db,k_targets,seed"
    assert len(lines) == 2
    assert ",adapted," in lines[1]
    assert ",2," in lines[1]  # two targets


def _zero_checkpoint_and_test_set(tmp_path):
    """Paths of a 4-antenna all-zero checkpoint and a 4-pair test dataset."""
    spec = net.LayerSpec.fnn(4, (8,))
    zero = transfer.TrainedModel(
        params=net.NetParams(
            [np.zeros((spec.sizes[l + 1], spec.sizes[l])) for l in range(2)],
            [np.zeros(spec.sizes[l + 1]) for l in range(2)]),
        provenance="no-transfer", config=None, loss_history=[])
    ck = str(tmp_path / "zero.ck")
    store.write_checkpoint(ck, zero)
    te = str(tmp_path / "te.bin")
    assert run_cli("gen", "--envs", 1, "--role", "test", "--pairs", 4,
                   *TINY_GEN, "--out", te).exit_code == 0
    return ck, te


def test_eval_zero_output_checkpoint_unit_nmse(tmp_path):
    ck, te = _zero_checkpoint_and_test_set(tmp_path)
    out = str(tmp_path / "n.csv")
    assert run_cli("eval", "--checkpoint", ck, "--data", te, "--out", out).exit_code == 0
    row = open(out).read().splitlines()[1].split(",")
    assert float(row[2]) == pytest.approx(1.0, rel=1e-12)


def test_adapt_antenna_mismatch_names_both(tmp_path):
    ck = str(tmp_path / "c.ck")
    assert run_cli("train", *TINY_GEN, *TINY_TRAIN, "--out", ck).exit_code == 0
    ad = str(tmp_path / "ad8.bin")
    assert run_cli("gen", "--envs", 1, "--role", "adaption", "--pairs", 4,
                   "--antennas", 8, "--users", 4, "--noise-mode", "clean",
                   "--out", ad).exit_code == 0
    res = RUNNER.invoke(cli, ["adapt", "--checkpoint", ck, "--data", ad,
                              "--out", str(tmp_path / "x.ck")])
    assert res.exit_code == 1
    assert "4" in res.output and "8" in res.output


def test_train_sources_antenna_mismatch_names_the_file(tmp_path):
    """Each ``--sources`` file must carry ``--antennas`` antennas: a file that
    does not, alone or beside a matching one, is a one-line error naming it."""
    files = {}
    for m in (4, 8):
        files[m] = str(tmp_path / f"s{m}.bin")
        assert run_cli("gen", "--envs", 2, "--role", "train-support", "--pairs", 10,
                       "--antennas", m, "--users", 4, "--noise-mode", "clean",
                       "--out", files[m]).exit_code == 0
    out = str(tmp_path / "c.ck")
    res = run_cli("train", *TINY_GEN, *TINY_TRAIN, "--antennas", 8, "--sources", files[4],
                  "--out", out)
    assert_one_line_error(res, f"{files[4]} carries 4 antennas but --antennas is 8")
    res = run_cli("train", *TINY_GEN, *TINY_TRAIN, "--sources", files[4],
                  "--sources", files[8], "--out", out)
    assert_one_line_error(res, f"{files[8]} carries 8 antennas but --antennas is 4")
    assert not os.path.exists(out)


def assert_one_line_error(res, fragment):
    assert res.exit_code == 1
    assert "Traceback" not in res.output
    lines = res.output.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("Error: "), res.output
    assert fragment in lines[0]


def _truncate(path):
    data = open(path, "rb").read()
    open(path, "wb").write(data[:len(data) // 2])


def test_eval_truncated_dataset_one_line_error(tmp_path):
    ck, te = _zero_checkpoint_and_test_set(tmp_path)
    _truncate(te)
    res = run_cli("eval", "--checkpoint", ck, "--data", te, "--out", tmp_path / "n.csv")
    assert_one_line_error(res, "truncated")


def test_eval_truncated_checkpoint_one_line_error(tmp_path):
    ck, te = _zero_checkpoint_and_test_set(tmp_path)
    _truncate(ck)
    res = run_cli("eval", "--checkpoint", ck, "--data", te, "--out", tmp_path / "n.csv")
    assert_one_line_error(res, "truncated")


def test_eval_bad_magic_one_line_error(tmp_path):
    ck, te = _zero_checkpoint_and_test_set(tmp_path)
    data = open(te, "rb").read()
    open(te, "wb").write(b"XXXX" + data[4:])
    res = run_cli("eval", "--checkpoint", ck, "--data", te, "--out", tmp_path / "n.csv")
    assert_one_line_error(res, "bad magic")


def test_rerun_incomplete_manifest_one_line_error(tmp_path):
    out = str(tmp_path / "d.bin")
    assert run_cli("gen", "--envs", 1, "--pairs", 4, *TINY_GEN, "--out", out).exit_code == 0
    path = out + ".manifest.json"
    manifest = json.load(open(path))
    del manifest["config"]["antennas"]
    json.dump(manifest, open(path, "w"))
    assert_one_line_error(run_cli("rerun", path), "antennas")
    del manifest["config"]
    json.dump(manifest, open(path, "w"))
    assert_one_line_error(run_cli("rerun", path), "config")


@pytest.mark.parametrize("field, value, message", [
    ("pairs", "two", "'--pairs': 'two' is not a valid integer"),
    ("antennas", None, "'antennas' holds None"),
    ("out", 5, "'out' holds 5"),
], ids=["pairs", "antennas", "out"])
def test_rerun_malformed_config_one_line_error(tmp_path, field, value, message):
    """A recorded value that the subcommand's own option would not record
    (wrong type, null, or not a path string) is a one-line error."""
    out = str(tmp_path / "d.bin")
    assert run_cli("gen", "--envs", 1, "--pairs", 4, *TINY_GEN, "--out", out).exit_code == 0
    path = out + ".manifest.json"
    manifest = json.load(open(path))
    manifest["config"][field] = value
    json.dump(manifest, open(path, "w"))
    assert_one_line_error(run_cli("rerun", path), message)


def test_rerun_restores_flags_and_repeated_options(tmp_path):
    """``--fixed-task-data`` and repeated ``--sources`` rerun as recorded."""
    sources = []
    for i in range(2):
        sources += ["--sources", str(tmp_path / f"s{i}.bin")]
        assert run_cli("gen", "--envs", 2, "--first-env-id", 2 * i, "--pairs", 8, *TINY_GEN,
                       "--out", sources[-1]).exit_code == 0
    runs = [("train", sources, "sources", sources[1::2]),
            ("meta-train", ["--fixed-task-data", "--k-b", 2], "fixed_task_data", True)]
    for sub, extra, field, recorded in runs:
        out = str(tmp_path / f"{sub}.ck")
        assert run_cli(sub, *TINY_GEN, *TINY_TRAIN, *extra, "--out", out).exit_code == 0
        original = open(out, "rb").read()
        os.unlink(out)
        assert run_cli("rerun", out + ".manifest.json").exit_code == 0
        assert open(out, "rb").read() == original
        assert json.load(open(out + ".manifest.json"))["config"][field] == recorded


def test_rerun_ignores_environment_overrides(tmp_path):
    out = str(tmp_path / "d.bin")
    assert run_cli("gen", "--envs", 1, "--pairs", 4, "--seed", 3, *TINY_GEN,
                   "--out", out).exit_code == 0
    original = open(out, "rb").read()
    os.unlink(out)
    res = RUNNER.invoke(cli, ["rerun", out + ".manifest.json"],
                        env={"CSIT_GEN_SEED": "123", "CSIT_GEN_PAIRS": "9"},
                        auto_envvar_prefix="CSIT", catch_exceptions=False)
    assert res.exit_code == 0
    assert open(out, "rb").read() == original
    assert json.load(open(out + ".manifest.json"))["config"]["seed"] == 3


def test_eval_refuses_noisy_file_without_clean_labels(tmp_path):
    """A clean file is accepted (its labels are clean); a file of another
    noise mode that stores no clean labels is refused."""
    ck, te = _zero_checkpoint_and_test_set(tmp_path)
    out = tmp_path / "n.csv"
    assert run_cli("eval", "--checkpoint", ck, "--data", te, "--out", out).exit_code == 0
    data = bytearray(open(te, "rb").read())
    assert data[37] == 0  # clean: the labels are stored once
    data[36] = 1  # the header's noise mode byte: awgn
    open(te, "wb").write(bytes(data))
    res = run_cli("eval", "--checkpoint", ck, "--data", te, "--out", out)
    assert_one_line_error(res, "stores no clean labels")


def test_adapt_divergence_one_line_error(tmp_path):
    ck = str(tmp_path / "base.ck")
    assert run_cli("train", *TINY_GEN, *TINY_TRAIN, "--out", ck).exit_code == 0
    ad = str(tmp_path / "ad.bin")
    assert run_cli("gen", "--envs", 1, "--first-env-id", 100, "--role", "adaption",
                   "--pairs", 6, *TINY_GEN, "--out", ad).exit_code == 0
    args = ["adapt", "--checkpoint", ck, "--data", ad, "--rule", "gd",
            "--beta", "1.0", "--g-ad", "2000", "--out", str(tmp_path / "x.ck")]
    res = run_cli(*args)
    assert_one_line_error(res, "adaption (gd) diverged at step")
    assert not os.path.exists(tmp_path / "x.ck")
    # The real stderr of the command: numpy's overflow warnings stay silent.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "csitransfer.cli", *args],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 1
    assert "RuntimeWarning" not in proc.stderr
    assert proc.stderr.strip().splitlines() == [
        line for line in res.output.strip().splitlines()]


def test_single_sample_source_tasks_one_line_error(tmp_path):
    """A source task of one sample has no support/query split: both training
    commands say so in the config's own words, before any work."""
    for command in ("train", "meta-train"):
        res = run_cli(command, *TINY_GEN, *TINY_TRAIN, "--n-tr", 1, "--out", tmp_path / "m.ck")
        assert_one_line_error(res, "n_tr must be >= 2 to split each source task into "
                                   "support and query samples, got 1")
        assert not os.path.exists(tmp_path / "m.ck")


def test_bad_option_value_one_line_error(tmp_path):
    res = run_cli("meta-train", *TINY_GEN, "--k-s", 10, "--k-b", 20,
                  "--out", tmp_path / "m.ck")
    assert_one_line_error(res, "k_b=20 cannot exceed k_s=10")
    assert not os.path.exists(tmp_path / "m.ck")


def test_sweep_g_ad_emits_three_rows_per_point(tmp_path):
    out = str(tmp_path / "sweep.csv")
    res = run_cli("sweep", "--variable", "g-ad", "--grid", "0,2,4",
                  "--k-s", 6, "--k-t", 2, "--k-b", 2, "--users", 4,
                  "--antennas", 4, "--n-tr", 8, "--n-ad", 6, "--n-te", 4,
                  "--v", 16, "--max-steps", 5, "--hidden", "8", "--g-tr", 1,
                  "--out", out)
    assert res.exit_code == 0
    lines = open(out).read().splitlines()
    assert len(lines) == 1 + 9  # header + 3 algorithms x 3 grid points
    manifest = json.load(open(out + ".manifest.json"))
    assert manifest["config"]["variable"] == "g-ad"


def test_sweep_writes_stage_times_and_baselines(tmp_path):
    """``<out>.report.json`` holds the stage wall-clock times and the
    pre-adaption baselines; at g_ad=0 the adapted networks are the
    starting ones, so their CSV means equal the baselines."""
    out = str(tmp_path / "sweep.csv")
    res = run_cli("sweep", "--variable", "g-ad", "--grid", "0,3",
                  "--k-s", 4, "--k-t", 2, "--k-b", 2, "--users", 3,
                  "--antennas", 2, "--n-tr", 4, "--n-ad", 4, "--n-te", 3,
                  "--v", 8, "--max-steps", 2, "--hidden", "4", "--g-tr", 1,
                  "--out", out)
    assert res.exit_code == 0
    report_path = out + ".report.json"
    manifest = json.load(open(out + ".manifest.json"))
    assert manifest["outputs"] == [out, report_path]
    record = json.load(open(report_path))
    assert record["variable"] == "g_ad"
    assert set(record["wall_clock"]) == {"training", "adaption", "testing"}
    assert all(t >= 0 for t in record["wall_clock"].values())
    assert record["workers"] == min(2, lanes.usable_cpus())
    assert [p["value"] for p in record["points"]] == [0, 3]
    rows = [line.split(",") for line in open(out).read().splitlines()[1:]]
    for point in record["points"]:
        baselines = point["baselines"]
        assert set(baselines) == {"direct-transfer", "meta-learning"}
        for algo, b in baselines.items():
            assert len(b["per_target"]) == 2
            assert b["nmse_linear"] == float(np.mean(b["per_target"]))
            at_zero = [r for r in rows if r[0] == "0" and r[1] == algo]
            assert float(at_zero[0][2]) == b["nmse_linear"]


def test_sweep_manifest_records_its_workers_peak_memory(tmp_path):
    """Run as its own process, a sweep's manifest reports the peak memory of
    its target workers, and 0 when its targets ran in-process."""
    out = str(tmp_path / "sweep.csv")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    args = ["sweep", "--k-s", "4", "--k-t", "2", "--k-b", "2", "--users", "3",
            "--antennas", "2", "--n-tr", "4", "--n-ad", "4", "--n-te", "3", "--v", "8",
            "--max-steps", "2", "--g-ad", "3", "--hidden", "4", "--g-tr", "1", "--out", out]
    proc = subprocess.run([sys.executable, "-m", "csitransfer.cli", *args],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    with open(out + ".manifest.json") as f:
        manifest = json.load(f)
    with open(out + ".report.json") as f:
        workers = json.load(f)["workers"]
    assert workers == min(2, lanes.usable_cpus())
    assert manifest["peak_rss_mb"] > 0
    assert (manifest["peak_rss_children_mb"] > 0) == (workers > 1)


def test_train_manifest_records_its_lanes(tmp_path, monkeypatch):
    """``train`` records the lanes that collected its first visits (8
    sources make 2 blocks, so 3 CPUs give 2 lanes), and 1 for ``--sources``,
    which collects nothing; its checkpoint does not depend on them."""
    lmmse = (*TINY_GEN[:-1], "lmmse")
    written = {}
    for cpus in (1, 3):
        monkeypatch.setattr(lanes, "usable_cpus", lambda: cpus)
        ck = str(tmp_path / f"train{cpus}.ck")
        assert run_cli("train", *lmmse, *TINY_TRAIN, "--out", ck).exit_code == 0
        assert json.load(open(ck + ".manifest.json"))["lanes"] == min(cpus, 2)
        written[cpus] = open(ck, "rb").read()
    assert written[3] == written[1]
    data, ck = str(tmp_path / "data.bin"), str(tmp_path / "sources.ck")
    assert run_cli("gen", *TINY_GEN, "--envs", 2, "--pairs", 8, "--out", data).exit_code == 0
    assert run_cli("train", *TINY_GEN, *TINY_TRAIN, "--sources", data,
                   "--out", ck).exit_code == 0
    assert json.load(open(ck + ".manifest.json"))["lanes"] == 1


def test_meta_lanes_are_recorded_and_change_no_output(tmp_path, monkeypatch):
    """``meta-train``'s manifest and a sweep's report record the meta step's
    lanes. On 1 lane or on 2 (5 tasks per step make 2 blocks, so 3 CPUs
    give 2 lanes), the checkpoint, its sidecar, the loss CSV and the sweep
    CSV are byte-identical."""
    files = {}
    for cpus in (1, 3):
        monkeypatch.setattr(lanes, "usable_cpus", lambda: cpus)
        ck, csv = str(tmp_path / f"meta{cpus}.ck"), str(tmp_path / f"sweep{cpus}.csv")
        assert run_cli("meta-train", *TINY_GEN, *TINY_TRAIN, "--k-b", 5, "--g-tr", 1,
                       "--max-steps", 3, "--out", ck).exit_code == 0
        assert run_cli("sweep", "--k-s", 6, "--k-t", 1, "--k-b", 5, "--users", 3,
                       "--antennas", 2, "--n-tr", 4, "--n-ad", 4, "--n-te", 3, "--v", 8,
                       "--max-steps", 2, "--g-ad", 3, "--hidden", "4", "--g-tr", 1,
                       "--out", csv).exit_code == 0
        meta_lanes = min(cpus, 2)
        assert json.load(open(ck + ".manifest.json"))["meta_lanes"] == meta_lanes
        assert json.load(open(csv + ".report.json"))["meta_lanes"] == meta_lanes
        files[cpus] = [open(path, "rb").read()
                       for path in (ck, ck + ".meta.json", ck + ".loss.csv", csv)]
    assert files[3] == files[1]


def test_sweep_requires_grid(tmp_path):
    res = RUNNER.invoke(cli, ["sweep", "--variable", "g-ad",
                              "--out", str(tmp_path / "x.csv")])
    assert res.exit_code == 2


@pytest.mark.parametrize("variable", ["g-ad", "n-ad", "m"])
def test_sweep_fractional_integer_grid_is_usage_error(tmp_path, variable):
    res = RUNNER.invoke(cli, ["sweep", "--variable", variable, "--grid", "2,2.5",
                              "--out", str(tmp_path / "x.csv")])
    assert res.exit_code == 2
    assert "expects integers" in res.output
    assert not os.path.exists(tmp_path / "x.csv")


@pytest.mark.parametrize("variable, grid", [("g-ad", "3,3"), ("snr-db", "10,10.0"),
                                            ("n-ad", "2,2")])
def test_sweep_repeated_grid_value_one_line_error(tmp_path, variable, grid):
    res = run_cli("sweep", "--variable", variable, "--grid", grid,
                  "--out", tmp_path / "x.csv")
    assert_one_line_error(res, "repeats a value")
    assert not os.path.exists(tmp_path / "x.csv")


def test_gradcheck_pass_and_determinism():
    r1 = run_cli("gradcheck", "--probe-count", 20, "--antennas", 4,
                 "--hidden", "8,8", "--seed", 5)
    r2 = run_cli("gradcheck", "--probe-count", 20, "--antennas", 4,
                 "--hidden", "8,8", "--seed", 5)
    assert r1.exit_code == 0
    assert r1.output == r2.output
    assert "pass" in r1.output


def test_gradcheck_passes_at_its_defaults():
    res = run_cli("gradcheck")
    assert res.exit_code == 0, res.output
    assert res.output.count(" pass") == 3


def test_gradcheck_zero_probes_usage_error():
    res = RUNNER.invoke(cli, ["gradcheck", "--probe-count", "0"])
    assert res.exit_code == 2


def test_thread_count_does_not_change_results(tmp_path):
    """Generation through training is bit-identical across BLAS thread counts."""
    outputs = []
    for threads in ("1", "4"):
        out = str(tmp_path / f"t{threads}.ck")
        env = dict(os.environ)
        env["OPENBLAS_NUM_THREADS"] = threads
        env["OMP_NUM_THREADS"] = threads
        cmd = [sys.executable, "-m", "csitransfer.cli", "train",
               "--antennas", "4", "--users", "4", "--noise-mode", "clean",
               "--k-s", "8", "--n-tr", "8", "--v", "16", "--max-steps", "15",
               "--hidden", "16", "--seed", "7", "--out", out]
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        outputs.append(open(out, "rb").read())
    assert outputs[0] == outputs[1]


def test_env_var_override(tmp_path):
    out = str(tmp_path / "env.bin")
    res = RUNNER.invoke(cli, ["gen", "--envs", "1", "--pairs", "3",
                              "--antennas", "4", "--users", "4",
                              "--noise-mode", "clean", "--out", out],
                        env={"CSIT_GEN_SEED": "123"},
                        auto_envvar_prefix="CSIT", catch_exceptions=False)
    assert res.exit_code == 0
    manifest = json.load(open(out + ".manifest.json"))
    assert manifest["config"]["seed"] == 123


# ---------------------------------------------------------------------------
# The rerun contract: `rerun` rejects a manifest that lacks a parameter, so
# every subcommand keeps its parameter names, and the defaults they resolve
# to, across releases.

REQUIRED = object()
_GEN = {"users": 25, "antennas": 64, "delta_f_hz": 120e6, "f_min_hz": 1e9, "f_max_hz": 3e9,
        "snr_db": 20.0, "pilot_len": 64, "noise_mode": "lmmse", "seed": 0}
_TRAIN = {"gamma": 1e-3, "beta": 1e-6, "v": 128, "k_s": 1500, "n_tr": 20,
          "max_steps": 20000, "hidden": "128,128"}
_META = {"g_tr": 3, "k_b": 80, "meta_mode": "exact"}
PARAMETERS = {
    "gen": {"envs": 1, "first_env_id": 0, "role": "test", "pairs": 20, **_GEN,
            "out": REQUIRED},
    "train": {"sources": (), **_GEN, **_TRAIN, "out": REQUIRED},
    "meta-train": {**_GEN, **_TRAIN, **_META, "fixed_task_data": False, "out": REQUIRED},
    "adapt": {"checkpoint": REQUIRED, "data": REQUIRED, "g_ad": 1000, "beta": 1e-6,
              "rule": "auto", "seed": 0, "out": REQUIRED},
    "eval": {"checkpoint": REQUIRED, "data": REQUIRED, "seed": 0, "out": REQUIRED},
    "sweep": {"variable": "none", "grid": "", "k_t": 50, "g_ad": 1000, "n_ad": 20,
              "n_te": 20, **_META, **_GEN, **_TRAIN,
              "users": 10, "antennas": 16, "noise_mode": "clean", "k_s": 200,
              "out": REQUIRED},
    "gradcheck": {"probe_count": 100, "seed": 0, "antennas": 16, "hidden": "128,128"},
}


@pytest.mark.parametrize("name", sorted(PARAMETERS))
def test_subcommand_keeps_its_parameters_and_defaults(name):
    cmd = cli.commands[name]
    want = PARAMETERS[name]
    required = [k for k, v in want.items() if v is REQUIRED]
    assert sorted(p.name for p in cmd.params if p.required) == sorted(required)
    args = [f"--{k.replace('_', '-')}={__file__}" for k in required]
    resolved = cmd.make_context(name, args).params
    assert sorted(resolved) == sorted(want)
    for k, v in want.items():
        if v is not REQUIRED:
            assert resolved[k] == v and type(resolved[k]) is type(v), k


def test_sweep_defaults_are_the_desk_profile(monkeypatch):
    """Flags unset, `sweep` runs TrainConfig.desk_profile() with clean
    collection; its help shows those defaults, and CSIT_* variables still
    override them."""
    resolved = cli.commands["sweep"].make_context("sweep", ["--out=x"]).params
    desk = transfer.TrainConfig.desk_profile()
    assert desk.gen.noise.mode == "clean"
    assert _train_config(resolved) == desk
    help_text = " ".join(run_cli("sweep", "--help").output.split())
    entries = {entry.split()[0]: entry for entry in help_text.split(" --")[1:]}
    for flag, shown in (("antennas", "16"), ("users", "10"), ("k-s", "200"),
                        ("noise-mode", "clean")):
        assert f"[default: {shown}" in entries[flag], entries[flag]
    monkeypatch.setenv("CSIT_SWEEP_ANTENNAS", "8")
    ctx = cli.commands["sweep"].make_context("sweep", ["--out=x"],
                                             auto_envvar_prefix="CSIT_SWEEP")
    assert ctx.params["antennas"] == 8


def test_rerun_of_a_sweep_manifest_reproduces_the_csv(tmp_path):
    """A manifest holding exactly the sweep's recorded parameter set reruns
    to the CSV that the same flags write."""
    tiny = {"variable": "g-ad", "grid": "0,3", "k_s": 4, "k_t": 2, "k_b": 2, "users": 3,
            "antennas": 2, "n_tr": 4, "n_ad": 4, "n_te": 3, "v": 8, "max_steps": 2,
            "hidden": "4", "g_tr": 1}
    direct = str(tmp_path / "direct.csv")
    flags = [a for k, v in tiny.items() for a in (f"--{k.replace('_', '-')}", v)]
    assert run_cli("sweep", *flags, "--out", direct).exit_code == 0
    rerun = str(tmp_path / "rerun.csv")
    config = {**PARAMETERS["sweep"], **tiny, "out": rerun}
    path = str(tmp_path / "sweep.manifest.json")
    json.dump({"subcommand": "sweep", "config": config}, open(path, "w"))
    assert run_cli("rerun", path).exit_code == 0
    assert open(rerun, "rb").read() == open(direct, "rb").read()
