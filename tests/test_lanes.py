"""The fork map and the stages on it: the same bits on every lane count,
errors in item order, failed forks, and no lane inside a lane."""

import ast
import contextlib
import json
import multiprocessing
import os
import time
from dataclasses import replace

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from csitransfer import channel as ch
from csitransfer import evaluate, lanes, store, transfer
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
    most lanes that ``first_visits`` and ``gen`` ran on."""
    envs = evaluate.source_environments(CFG)
    lanes.peak_lanes = 1
    xs, ys = transfer.first_visits(envs, CFG)
    ran = lanes.peak_lanes
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


@pytest.mark.parametrize("noise", ["clean", "lmmse"])
def test_gen_keeps_its_bytes_and_one_clean_label_array_on_every_lane_count(
        monkeypatch, tmp_path, noise):
    """With every collection forking, ``gen`` writes the same bytes on 1
    and 2 lanes, and under clean noise every dataset it writes keeps one
    label array, ``ys is y_clean``, as ``TaskDataset`` promises."""
    monkeypatch.setattr(ch, "_LANE_MIN_RAY_SUMS", 0)
    write_dataset, written = store.write_dataset, []
    monkeypatch.setattr(store, "write_dataset",
                        lambda path, datasets, *a: written.append(datasets)
                        or write_dataset(path, datasets, *a))
    files = []
    for cpus in (1, 2):
        monkeypatch.setattr(lanes, "usable_cpus", lambda: cpus)
        out = str(tmp_path / f"{noise}{cpus}.bin")
        res = CliRunner().invoke(cli, [str(a) for a in (
            "gen", "--envs", 3, "--pairs", 5, "--antennas", 4, "--users", 4,
            "--noise-mode", noise, "--out", out)])
        assert res.exit_code == 0, res.output
        with open(out, "rb") as f, open(out + ".manifest.json") as manifest:
            files.append(f.read())
            assert json.load(manifest)["lanes"] == cpus
    assert files[1] == files[0]
    assert [len(datasets) for datasets in written] == [3, 3]
    for d in (d for datasets in written for d in datasets):
        assert (d.ys is d.y_clean) == (noise == "clean")


def test_clean_collections_fork_from_1334_links(monkeypatch):
    """A clean link counts 3 ray sums against the 4,000 from which a
    collection forks: clean first visits of 64 tasks at n_tr=20 (2,560
    links) run on 2 lanes, those of 32 tasks on one."""
    monkeypatch.setattr(lanes, "usable_cpus", lambda: 2)
    assert [ch.collection_lanes(links, 16, ch.NoiseSpec(mode=ch.NOISE_CLEAN))
            for links in (2560, 1334, 1333, 1280)] == [2, 2, 1, 1]


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


def fork_failing_at(count):
    """``os.fork`` whose ``count``-th call raises ``OSError``."""
    fork, calls = os.fork, []

    def drawn_fork():
        calls.append(None)
        if len(calls) == count:
            raise OSError("no more processes")
        return fork()

    return drawn_fork


def test_fork_failing_after_one_lane_runs_on_the_lanes_that_forked(monkeypatch):
    """Planned 3 lanes, of which the second fork fails: the map runs on the
    2 lanes that forked, item k on lane k mod 2, so the odd items run in
    the one forked lane."""
    monkeypatch.setattr(os, "fork", fork_failing_at(2))
    out = lanes.shared_empty((7,), np.int64)

    def item(k):
        out[k] = os.getpid()
        return k * k

    results, ran = lanes.fork_map(item, 7, 3)
    assert results == [k * k for k in range(7)] and ran == 2
    forked = {k for k in range(7) if out[k] != os.getpid()}
    assert forked == {1, 3, 5}


def test_ring_of_a_map_whose_fork_failed(monkeypatch):
    """Planned 3 lanes with ring slots, of which the second fork fails: job
    after job, the forked lane's arrays come back through its two slots
    in turn, as the values it made."""
    def item(job, k):
        return k, np.full(2, job * 100.0 + k)

    monkeypatch.setattr(os, "fork", fork_failing_at(2))
    with lanes.open_map(item, 3, 2) as (run, ran):
        assert ran == 2
        for job in range(3):
            assert [(k, a.tolist()) for k, a in run(job, 7)] == \
                [(k, [job * 100.0 + k] * 2) for k in range(7)]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(planned=st.integers(1, 3), count=st.integers(0, 9),
       failing=st.sets(st.integers(0, 8), max_size=3), fork_fails_at=st.integers(1, 3))
def test_fork_map_equals_the_serial_loop(planned, count, failing, fork_fails_at):
    """``fork_map`` gives what ``[fn(k) for k in range(count)]`` gives: the
    results and the lanes that forked, or the first failing item's error
    with its type and message, whichever lane ran it, also when the fork
    of a drawn lane fails. No child is left after any example."""
    def fn(k):
        if k in failing:
            raise (KeyError if k % 2 else ValueError)(f"item {k}")
        return k * k - 3

    try:
        want = [fn(k) for k in range(count)]
    except Exception as exc:
        want = exc
    fork, os.fork = os.fork, fork_failing_at(fork_fails_at)
    try:
        got = lanes.fork_map(fn, count, planned)
    except Exception as exc:
        got = exc
    finally:
        os.fork = fork
    if isinstance(want, Exception):
        assert (type(got), str(got)) == (type(want), str(want))
    else:
        assert got == (want, min(planned, fork_fails_at))
    with pytest.raises(ChildProcessError):  # no child, live or unreaped
        os.waitpid(-1, os.WNOHANG)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(planned=st.integers(1, 3), ring=st.booleans(),
       jobs=st.lists(st.tuples(st.integers(0, 9), st.sets(st.integers(0, 8), max_size=2)),
                     min_size=1, max_size=4),
       abandon=st.none() | st.tuples(st.integers(0, 3), st.integers(0, 8)))
def test_open_map_equals_the_serial_model(planned, ring, jobs, abandon):
    """One ``open_map`` runs its jobs as a serial loop over each job's
    items would: the values, and with ``slot_size`` the arrays, in item
    order; or the first failing item's error with its type and message,
    an error that does not pickle coming from a forked lane as a
    ``RuntimeError`` naming it; or, for a job run while the last one has
    unread items, the one-line ``RuntimeError`` that refuses it. A job
    none of whose items was asked for never ran, and the next one runs.
    Every lane is joined after every example."""
    class Local(Exception):  # a local class does not pickle
        pass

    def fn(job, k):
        if job < len(jobs) and k in jobs[job][1]:
            raise (Local if k % 2 else KeyError)(f"item {k}")
        value = job * 100 + k
        return (value, np.full(3, float(value))) if ring else value

    def reads(job):  # the items of ``job`` that the caller reads
        n = jobs[job][0]
        return min(abandon[1], n) if abandon and abandon[0] % len(jobs) == job else n

    seen, want = [], None  # the serial model: what the caller reads, and how it ends
    for job, (n, failing) in enumerate(jobs):
        k = min([k for k in failing if k < reads(job)], default=None)
        seen += [job * 100 + i for i in range(reads(job) if k is None else k)]
        if k is not None:
            forked = k % planned and k % 2
            want = (RuntimeError, f"Local: item {k}") if forked else \
                (Local if k % 2 else KeyError, f"item {k}" if k % 2 else f"'item {k}'")
            break
        if 0 < reads(job) < n:
            want = (RuntimeError, f"a job was run with {n - reads(job)} items of the last one unread")
            break
        if reads(job) < n:  # then a new job of one item
            seen.append(len(jobs) * 100)
            break

    def read(items):
        result = next(items)
        if ring:  # the array is valid until the next result is asked for
            assert result[1].tolist() == [float(result[0])] * 3
            return result[0]
        return result

    got = []
    try:
        with lanes.open_map(fn, planned, 3 if ring else 0) as (run, ran):
            assert ran == planned
            for job, (n, _) in enumerate(jobs):
                items = run(job, n, last=job == len(jobs) - 1 and reads(job) == n)
                for _ in range(reads(job)):
                    got.append(read(items))
                if reads(job) < n:
                    got.append(read(run(len(jobs), 1)))
                    break
    except Exception as exc:
        assert want is not None and (type(exc), str(exc)) == want
    else:
        assert want is None
    assert got == seen
    with pytest.raises(ChildProcessError):  # no child, live or unreaped
        os.waitpid(-1, os.WNOHANG)


def test_daemonic_process_forks_its_lanes(monkeypatch):
    """A daemonic ``multiprocessing`` process may fork: a map there runs
    on its lanes, returns in item order and leaves no child."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    ctx = multiprocessing.get_context("fork")
    reader, writer = ctx.Pipe(duplex=False)

    def body():
        results, ran = lanes.fork_map(lambda k: (k, os.getpid()), 4, lanes.lane_count(4))
        try:
            left = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            left = None
        writer.send((results, ran, left))

    process = ctx.Process(target=body, daemon=True)
    process.start()
    assert reader.poll(30), "the daemonic process sent nothing"
    results, ran, left = reader.recv()
    process.join(30)
    assert not process.is_alive() and process.exitcode == 0
    assert ran == 2 and left is None
    assert [k for k, _ in results] == [0, 1, 2, 3] and len({pid for _, pid in results}) == 2


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


def test_error_outside_an_item_reaches_the_caller():
    """A forked lane's result that does not pickle fails after its item
    ran: the caller raises that error at the item, with its type and
    message and the lane's traceback as its cause."""
    with pytest.raises(AttributeError, match="^Can't pickle local object") as err:
        lanes.fork_map(lambda k: (lambda: k), 2, 2)
    assert "Traceback" in str(err.value.__cause__)


def test_map_stays_open_across_jobs_and_rings_its_arrays():
    """One map runs job after job on the same lanes. A forked lane's array
    comes back through its two ring slots in turn, as the value it made,
    and lane 0's arrays come as they are."""
    def item(job, k):
        return os.getpid(), np.full(3, job * 100.0 + k)

    with lanes.open_map(item, 2, 3) as (run, ran):
        assert ran == 2
        pids = set()
        for job in range(3):
            for k, (pid, array) in enumerate(run(job, 7)):
                assert array.tolist() == [job * 100.0 + k] * 3
                pids.add(pid)
        assert list(run(9, 0)) == []
    assert len(pids) == 2


def test_job_run_before_the_last_is_read_is_refused(no_child_process_left):
    """A job whose items were all read, the generator left unfinished, lets
    the next job run. A caller that reads 1 of job a's 4 items and then runs
    job b gets a ``RuntimeError`` before job b reaches the lanes, not job
    a's items among job b's, and leaving the map joins every lane."""
    with pytest.raises(RuntimeError, match="^a job was run with 3 items of the last one unread$"):
        with lanes.open_map(lambda job, k: (job, k), 2) as (run, ran):
            assert ran == 2
            first = run("first", 2)
            assert [next(first), next(first)] == [("first", 0), ("first", 1)]
            assert next(run("a", 4)) == ("a", 0)
            list(run("b", 4))


def test_one_job_map_lanes_exit_after_their_last_item(monkeypatch):
    """The forked lane of a one-job map exits after its last item, before
    the caller's last item returns, so the join at the end waits on no
    lane's exit. ``os.waitid`` with ``WNOWAIT`` sees the exit and leaves
    the lane to that join."""
    pids, fork, caller = [], os.fork, os.getpid()

    def recording_fork():
        pid = fork()
        pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    exited = []

    def item(k):
        if k == 2 and os.getpid() == caller:  # lane 1 ran item 1, its only one
            deadline = time.monotonic() + 5.0
            while not exited and time.monotonic() < deadline:
                if os.waitid(os.P_PID, pids[0], os.WEXITED | os.WNOHANG | os.WNOWAIT):
                    exited.append(k)
                time.sleep(0.002)
        return k

    assert lanes.fork_map(item, 3, 2) == ([0, 1, 2], 2)
    assert exited == [2]


def test_lane_that_failed_takes_a_late_slot_message():
    """A forked lane fails at its second item while the caller still uses
    its first array: the caller then frees that slot, and raises the
    lane's error at its item, not a broken pipe."""
    def item(job, k):
        if k == 3:
            raise KeyError("item 3")
        return k, np.zeros(2)

    with pytest.raises(KeyError, match="item 3"):
        with lanes.open_map(item, 2, 2) as (run, _):
            for k, _ in run(None, 8):
                if k == 1:
                    time.sleep(0.2)  # the lane fails meanwhile


def test_only_lanes_forks():
    """No module but ``csitransfer.lanes`` imports ``pickle``, ``mmap`` or
    ``signal``, or calls ``os.fork`` or ``os.pipe``, read from each
    module's syntax tree."""
    src = os.path.dirname(lanes.__file__)
    for name in sorted(os.listdir(src)):
        if not name.endswith(".py") or name == "lanes.py":
            continue
        with open(os.path.join(src, name)) as f:
            tree = ast.parse(f.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                used = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):  # a relative import has no module
                used = [f"{node.module}.{a.name}" for a in node.names] if node.module else []
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                    and isinstance(node.func.value, ast.Name):
                used = [f"{node.func.value.id}.{node.func.attr}"]
            else:
                continue
            for used_name in used:
                assert used_name.split(".")[0] not in ("pickle", "mmap", "signal") \
                    and used_name not in ("os.fork", "os.pipe"), (name, node.lineno, used_name)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_lanes_never_nest(monkeypatch):
    """A two-lane LMMSE ``meta_train`` and a two-worker LMMSE sweep open
    lanes, but never inside a lane, nor while the caller has lanes open:
    a lane's collections, and those of lane 0 while the others run, are
    made inline."""
    caller, open_map, depth, opened = os.getpid(), lanes.open_map, [0], []

    @contextlib.contextmanager
    def checked(fn, count, slot_size=0):
        if count > 1:
            assert os.getpid() == caller, "a lane opened lanes"
            assert not depth[0], "lanes opened while lanes were open"
            opened.append(count)
        depth[0] += count > 1
        try:
            with open_map(fn, count, slot_size) as opened_map:
                yield opened_map
        finally:
            depth[0] -= count > 1

    monkeypatch.setattr(lanes, "open_map", checked)
    monkeypatch.setattr(lanes, "usable_cpus", lambda: 2)
    envs = evaluate.source_environments(CFG)
    assert transfer.meta_lanes(CFG) == 2
    transfer.meta_train(envs, CFG, stream(CFG.seed, STREAM_BATCH, 1))
    assert opened == [2]
    report = evaluate.run_three_way(replace(CFG, k_b=4), ("snr_db", [0.0, 20.0]))
    assert report.workers == 2 and report.meta_lanes == 1
    # first_visits, the targets, and collections of the one-lane meta steps
    assert len(opened) >= 3 and set(opened) == {2}
