"""Forked lanes: the one way the program runs a stage's items in parallel.

:func:`open_map` opens a map that runs item k of each job it is given on
lane k mod L, with L the lanes that forked (at most :func:`lane_count`);
:func:`fork_map` is a map of one job, whose forked lanes exit after their
last item.
Lane 0 is the caller; the others are processes forked once per map, which
inherit what the caller built. A forked lane's result comes back one of
three ways: a value, pickled through its pipe; an array, through two ring
slots of its own used in turn (``slot_size``); or rows written into an
array in an anonymous shared mapping that the data's owner allocates
before the fork (:func:`shared_empty`). Results come back in item order,
and lane 0 runs its next item before it takes the forked lanes' results
but raises its error only at that item's turn, so the error raised is the
first failing item's, with its type and message, at every lane count.
A map opened inside a lane, or while the caller has lanes open, runs
inline: lanes never nest. Items that draw only from their own streams give
the same bits on any number of lanes.
"""

from __future__ import annotations

import contextlib
import math
import mmap
import os
import pickle
import signal

import numpy as np

_busy = False  # in a forked lane, or in a caller while its lanes are open
peak_lanes = 1  # the most lanes an open_map call ran, the caller included, since set to 1


def usable_cpus() -> int:
    """CPUs this process may run lanes on: 1 where ``os.sched_getaffinity``
    is missing."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def lane_count(items: int, pays: bool = True) -> int:
    """One lane per usable CPU and at most one per item; one inside a lane,
    while lanes are open, or where the work does not pay for a fork."""
    return max(1, min(usable_cpus(), items)) if pays and not _busy else 1


def shared_empty(shape: tuple[int, ...], dtype=float) -> np.ndarray:
    """An array in an anonymous shared mapping, which forked lanes write."""
    size, dtype = math.prod(shape), np.dtype(dtype)
    buffer = mmap.mmap(-1, max(size * dtype.itemsize, 1))
    return np.frombuffer(buffer, dtype=dtype, count=size).reshape(shape)


def _send(writer, message):
    writer.write(pickle.dumps(message, pickle.HIGHEST_PROTOCOL))  # whole, or nothing
    writer.flush()


def _send_error(writer, exc: Exception):
    """Send a lane's error and its traceback, the error's cause in the
    caller; one that does not pickle goes as a ``RuntimeError``."""
    import traceback

    text = "".join(traceback.format_exception(exc))
    try:
        pickle.dumps(exc)
    except Exception:
        exc = RuntimeError(f"{type(exc).__name__}: {exc}")
    _send(writer, (False, (exc, text)))


def _receive(reader, what: str):
    """The value of a lane's next reply ``(True, value)``. A sent error is
    raised; a lane that exited owing ``what`` raises ``RuntimeError``."""
    try:
        ok, value = pickle.load(reader)
    except (EOFError, pickle.UnpicklingError):
        raise RuntimeError(f"a lane exited before {what}") from None
    if not ok:
        raise value[0] from RuntimeError(f"raised in a lane:\n{value[1]}")
    return value


def _serve(fn, lane: int, down, up, ring):
    """A forked lane's loop: each job's items k = lane mod ``lanes`` in
    order, ``lanes`` the count sent with the job, with ``ring`` the j-th
    item's array into slot j % 2 once the caller has freed it. It ends
    after the items of a job sent as the last, when the caller closes the
    pipe, or raises an item's error."""
    last = False
    while not last:
        try:
            job, n, lanes, last = pickle.load(down)
        except EOFError:
            return
        for j, k in enumerate(range(lane, n, lanes)):
            result = fn(job, k)
            if ring is not None:
                if j >= 2:
                    pickle.load(down)  # the slot is free
                result, array = result
                np.copyto(ring[j % 2], array)
            _send(up, (True, result))


@contextlib.contextmanager
def open_map(fn, lanes: int, slot_size: int = 0):
    """A map of ``fn(job, k)`` on ``lanes`` lanes, open for the block. It
    gives ``(run, ran)``: ``ran`` counts the lanes that forked, the caller
    included, and ``run(job, n)`` yields ``fn(job, k)`` for k < n in item
    order, item k on lane k mod ``ran``; ``run(job, n, last=True)`` sends
    the last job, after whose items the forked lanes exit. A job started
    before the last one's items were all read raises ``RuntimeError``, as
    the lanes would still be on the old job. A fork that fails with
    ``OSError`` ends the forking, and the map runs on the lanes that
    forked. With ``slot_size``, results are pairs ``(value, array)`` of
    that many floats, and a forked lane's array comes as a view of its ring
    slot, valid until the next result is asked for.
    A forked lane ignores SIGINT and holds no other lane's pipe ends; its
    error, raised by ``fn`` or on the way to the caller, is raised at its
    next item, and a lane lost on the way (killed, say) is a ``RuntimeError``
    at the item it owed. An error ends the map: leaving the block joins every
    lane, which an error stops first."""
    global _busy, peak_lanes
    busy, _busy = _busy, _busy or lanes > 1
    rings = shared_empty((lanes - 1, 2, slot_size)) if slot_size and lanes > 1 else None
    pids, ends, failed = [], [], True
    try:
        for lane in range(1, lanes):
            (down_r, down_w), (up_r, up_w) = (
                (os.fdopen(r, "rb"), os.fdopen(w, "wb")) for r, w in (os.pipe(), os.pipe()))
            try:
                pid = os.fork()
            except OSError:
                for f in (down_r, down_w, up_r, up_w):
                    f.close()
                break
            if pid == 0:
                try:
                    signal.signal(signal.SIGINT, signal.SIG_IGN)
                    for f in [f for pair in ends for f in pair] + [down_w, up_r]:
                        f.close()
                    ring = None if rings is None else rings[lane - 1]
                    _serve(fn, lane, down_r, up_w, ring)
                except Exception as exc:  # also from outside fn, such as a result that does not pickle
                    _send_error(up_w, exc)  # the caller raises it at the lane's next item
                    down_r.read()  # until the caller closes the pipe, which may free a slot first
                finally:
                    os._exit(0)
            pids.append(pid)
            down_r.close()
            up_w.close()
            ends.append((down_w, up_r))
        lanes = 1 + len(ends)  # from here on the lanes that forked, the caller included
        peak_lanes = max(peak_lanes, lanes)
        unread = 0  # items of the last job not yet yielded

        def own(job, k):
            try:
                return True, fn(job, k)
            except Exception as exc:  # raised at item k's turn
                return False, exc

        def run(job, n: int, last: bool = False):
            nonlocal unread
            if unread:
                raise RuntimeError(f"a job was run with {unread} items of the last one unread")
            unread = n
            for down, _ in ends:
                _send(down, (job, n, lanes, last))
            ahead = own(job, 0) if n else None
            for k in range(0, n, lanes):
                ok, value = ahead
                if not ok:
                    raise value
                unread -= 1
                yield value
                ahead = own(job, k + lanes) if k + lanes < n else None
                for lane in range(1, min(lanes, n - k)):
                    unread -= 1
                    down, up = ends[lane - 1]
                    value = _receive(up, f"item {k + lane}")
                    yield value if rings is None else (value, rings[lane - 1][k // lanes % 2])
                    if rings is not None and k + lane + 2 * lanes < n:
                        with contextlib.suppress(BrokenPipeError):  # a lost lane fails at its item
                            _send(down, None)  # the slot is free again

        yield run, lanes
        failed = False
    finally:
        _busy = busy
        for f in (f for pair in ends for f in pair):
            with contextlib.suppress(BrokenPipeError):  # a lost lane's unsent message
                f.close()
        for pid in pids:
            if failed:
                os.kill(pid, signal.SIGTERM)
            os.waitpid(pid, 0)


def fork_map(fn, count: int, lanes: int) -> tuple[list, int]:
    """``[fn(k) for k in range(count)]`` on ``lanes`` lanes, and the lanes
    that ran: a map of one job (:func:`open_map`), whose forked lanes exit
    after their last item."""
    with open_map(lambda _, k: fn(k), lanes) as (run, ran):
        return list(run(None, count, last=True)), ran
