"""The fork map and the stages on it: the same bits on every lane count,
errors in item order, failed forks, and no lane inside a lane."""

import contextlib
import json
import os
import time
from dataclasses import replace

import numpy as np
import pytest
from click.testing import CliRunner

from csitransfer import channel as ch
from csitransfer import evaluate, lanes, transfer
from csitransfer.cli import cli
from csitransfer.seeding import STREAM_BATCH, stream
from csitransfer.transfer import TrainConfig

LMMSE = ch.NoiseSpec(snr_db=10.0, pilot_len=4, mode=ch.NOISE_LMMSE)
GEN = ch.GeneratorConfig(array=ch.ArrayConfig(m=4), users=5, noise=LMMSE)
CFG = TrainConfig(k_s=9, k_t=2, k_b=9, n_tr=5, n_ad=4, n_te=3, u=5, v=8, g_tr=1, g_ad=2,
                  hidden=(8,), max_steps=2, seed=4, gen=GEN)


def collect_sets():
    """Three environments' adaption and test roles, 42 LMMSE links."""
    envs = [ch.sample_environment(i, GEN, 1) for i in range(3)]
    sets = [ch.draw_combos(env, [(ch.ROLE_ADAPTION, 4), (ch.ROLE_TEST, 3)], 5, (1e9, 3e9),
                           np.random.default_rng(i)) for i, env in enumerate(envs)]
    return ch.collect_sets(sets, [ch.ROLE_ADAPTION, ch.ROLE_TEST], GEN.delta_f, GEN.array,
                           LMMSE, [np.random.default_rng(10 + i) for i in range(3)])


def gen_file(tmp_path, name):
    """The bytes of a ``gen`` file of 5 LMMSE environments, and its lanes."""
    out = str(tmp_path / name)
    res = CliRunner().invoke(cli, [str(a) for a in (
        "gen", "--envs", 5, "--pairs", 6, "--role", "adaption", "--antennas", 4, "--users", 4,
        "--seed", 3, "--out", out)])
    assert res.exit_code == 0, res.output
    with open(out, "rb") as f, open(out + ".manifest.json") as manifest:
        return f.read(), json.load(manifest)["lanes"]


def stage_outputs(tmp_path, name):
    """Every stage that collects on the map: its outputs as bytes, and the
    lanes its map ran on."""
    envs = evaluate.source_environments(CFG)
    xs, ys, ran = transfer.first_visits(envs, CFG)
    data, gen_lanes = gen_file(tmp_path, name)
    return [xs.tobytes(), ys.tobytes(), data] + [a.tobytes() for a in collect_sets()], \
        (ran, gen_lanes)


def test_stages_give_the_same_bits_on_every_lane_count(monkeypatch, tmp_path):
    """``first_visits``, ``gen`` and an LMMSE ``collect_sets`` give the same
    bytes on 1, 2 and 3 lanes, and record the lanes they ran on."""
    runs = {}
    for cpus in (1, 2, 3):
        monkeypatch.setattr(lanes, "usable_cpus", lambda: cpus)
        assert ch.collection_lanes(42, 42, LMMSE) == cpus  # 42 LMMSE links pay for lanes
        runs[cpus], ran = stage_outputs(tmp_path, f"gen{cpus}.bin")
        assert ran == (cpus, cpus)  # 9 sources make 3 blocks; 5 environments
    assert runs[2] == runs[1] and runs[3] == runs[1]


def test_failed_fork_leaves_the_items_to_the_caller(monkeypatch, tmp_path):
    """When ``os.fork`` fails, every stage runs its items in the caller,
    with the bits of a one-lane run, and records one lane."""
    monkeypatch.setattr(lanes, "usable_cpus", lambda: 1)
    want, _ = stage_outputs(tmp_path, "serial.bin")

    def failing_fork():
        raise OSError("no more processes")

    monkeypatch.setattr(lanes, "usable_cpus", lambda: 2)
    monkeypatch.setattr(os, "fork", failing_fork)
    got, ran = stage_outputs(tmp_path, "failed.bin")
    assert got == want and ran == (1, 1)


def test_fork_failing_after_one_lane_runs_on_the_lanes_that_forked(monkeypatch):
    """Planned 3 lanes, of which the second fork fails: items of lanes 0
    and 2 run in the caller, those of lane 1 in the one forked lane."""
    fork, calls = os.fork, []

    def second_fails():
        calls.append(None)
        if len(calls) == 2:
            raise OSError("no more processes")
        return fork()

    monkeypatch.setattr(os, "fork", second_fails)
    out = lanes.shared_empty((7,), np.int64)

    def item(k):
        out[k] = os.getpid()
        return k * k

    results, ran = lanes.fork_map(item, 7, 3)
    assert results == [k * k for k in range(7)] and ran == 2
    forked = {k for k in range(7) if out[k] != os.getpid()}
    assert forked == {1, 4}


@pytest.mark.parametrize("count", [1, 2, 3])
def test_first_failing_item_is_raised_at_every_lane_count(count):
    """Item 2 fails at once and item 1 after a while: the map raises item
    1's error, with its type and message, on any number of lanes, as a
    serial loop would, and joins every lane."""
    def item(k):
        if k == 1:
            time.sleep(0.05)
            raise KeyError("item 1")
        if k == 2:
            raise ValueError("item 2")
        return k

    with pytest.raises(KeyError, match="item 1"):
        lanes.fork_map(item, 6, count)
    assert lanes.fork_map(lambda k: 2 * k, 5, count) == ([0, 2, 4, 6, 8], count)


def test_error_that_cannot_be_pickled_reaches_the_caller():
    class Local(Exception):  # a local class does not pickle
        pass

    def item(k):
        if k == 1:
            raise Local("item 1 failed")

    with pytest.raises(RuntimeError, match="^Local: item 1 failed$") as err:
        lanes.fork_map(item, 2, 2)
    assert "Traceback" in str(err.value.__cause__)  # the lane's traceback


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_lanes_never_nest(monkeypatch):
    """A two-lane LMMSE ``meta_train`` and a two-worker LMMSE sweep open
    lanes, but never inside a lane, nor while the caller has lanes open:
    a lane's collections, and those of lane 0 while the others run, are
    made inline."""
    caller, open_lanes, depth, opened = os.getpid(), lanes.open_lanes, [0], []

    @contextlib.contextmanager
    def checked(count, serve):
        if count > 1:
            assert os.getpid() == caller, "a lane opened lanes"
            assert not depth[0], "lanes opened while lanes were open"
            opened.append(count)
        depth[0] += count > 1
        try:
            with open_lanes(count, serve) as ends:
                yield ends
        finally:
            depth[0] -= count > 1

    monkeypatch.setattr(lanes, "open_lanes", checked)
    monkeypatch.setattr(lanes, "usable_cpus", lambda: 2)
    envs = evaluate.source_environments(CFG)
    assert transfer.meta_lanes(CFG) == 2
    transfer.meta_train(envs, CFG, stream(CFG.seed, STREAM_BATCH, 1))
    assert opened == [2]
    report = evaluate.run_three_way(replace(CFG, k_b=4), ("snr_db", [0.0, 20.0]))
    assert report.workers == 2 and report.meta_lanes == 1
    # first_visits, the targets, and collections of the one-lane meta steps
    assert len(opened) >= 3 and set(opened) == {2}
