"""Command-line tests: flags, exit codes, manifests, reproducibility."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest
from click.testing import CliRunner

from csitransfer import net, store, transfer
from csitransfer.cli import cli

RUNNER = CliRunner()


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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow on the way to inf
def test_adapt_divergence_one_line_error(tmp_path):
    ck = str(tmp_path / "base.ck")
    assert run_cli("train", *TINY_GEN, *TINY_TRAIN, "--out", ck).exit_code == 0
    ad = str(tmp_path / "ad.bin")
    assert run_cli("gen", "--envs", 1, "--first-env-id", 100, "--role", "adaption",
                   "--pairs", 6, *TINY_GEN, "--out", ad).exit_code == 0
    res = run_cli("adapt", "--checkpoint", ck, "--data", ad, "--rule", "gd",
                  "--beta", 1.0, "--g-ad", 2000, "--out", tmp_path / "x.ck")
    assert_one_line_error(res, "adaption (gd) diverged at step")
    assert not os.path.exists(tmp_path / "x.ck")


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


def test_sweep_requires_grid(tmp_path):
    res = RUNNER.invoke(cli, ["sweep", "--variable", "g-ad",
                              "--out", str(tmp_path / "x.csv")])
    assert res.exit_code == 2


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
