"""Forked lanes: the one way the program runs a stage's items in parallel.

:func:`fork_map` runs item k of n on lane k mod L (:func:`lane_count`).
Lane 0 is the caller; the others are processes forked once per call, which
inherit what the caller built and write array outputs into an anonymous
shared mapping made before the fork (:func:`shared_empty`), so only small
results cross their pipes. Results come back in item order, so the error
raised is the first failing item's, with its type and message, at every
lane count. A call inside a lane, or while the caller has lanes open, runs
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
import sys

import numpy as np

_busy = False  # in a forked lane, or in a caller while its lanes are open


def usable_cpus() -> int:
    """CPUs this process may run lanes on: 1 where ``os.sched_getaffinity``
    is missing and in a daemonic ``multiprocessing`` process."""
    mp = sys.modules.get("multiprocessing")  # a process that never imported it is no daemon
    if mp is not None and mp.current_process().daemon:
        return 1
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


def send(writer, message):
    pickle.dump(message, writer, pickle.HIGHEST_PROTOCOL)
    writer.flush()


def send_error(writer, exc: Exception):
    """Send a lane's error and its traceback, the error's cause in the
    caller; one that does not pickle goes as a ``RuntimeError``."""
    import traceback

    text = "".join(traceback.format_exception(exc))
    try:
        pickle.dumps(exc)
    except Exception:
        exc = RuntimeError(f"{type(exc).__name__}: {exc}")
    send(writer, (False, (exc, text)))


def receive(reader, what: str):
    """The value of a lane's next reply ``(True, value)``. A sent error is
    raised; a lane that exited owing ``what`` raises ``RuntimeError``."""
    try:
        ok, value = pickle.load(reader)
    except (EOFError, pickle.UnpicklingError):
        raise RuntimeError(f"a lane exited before {what}") from None
    if not ok:
        raise value[0] from RuntimeError(f"raised in a lane:\n{value[1]}")
    return value


@contextlib.contextmanager
def open_lanes(count: int, serve):
    """Fork lanes 1..count-1, lane j running ``serve(j, down, up)`` on its
    pipes from and to the caller, and give the caller's ends ``(down, up)``
    of those that forked; a fork that fails with ``OSError`` ends the
    forking. A lane ignores SIGINT and holds no other lane's pipe ends.
    Leaving the block joins every lane, which an error stops first."""
    global _busy
    if count <= 1:
        yield []
        return
    pids, ends, failed, _busy = [], [], True, True
    try:
        for lane in range(1, count):
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
                    serve(lane, down_r, up_w)
                finally:
                    os._exit(0)
            pids.append(pid)
            down_r.close()
            up_w.close()
            ends.append((down_w, up_r))
        yield ends
        failed = False
    finally:
        _busy = False
        for f in (f for pair in ends for f in pair):
            f.close()
        for pid in pids:
            if failed:
                os.kill(pid, signal.SIGTERM)
            os.waitpid(pid, 0)


def fork_map(fn, count: int, lanes: int) -> tuple[list, int]:
    """``[fn(k) for k in range(count)]`` on ``lanes`` lanes, and the lanes
    that ran: a failed fork leaves its lane's items to the caller."""
    def serve(lane, _, up):
        for k in range(lane, count, lanes):
            try:
                reply = True, fn(k)
            except Exception as exc:  # the caller raises it at item k
                return send_error(up, exc)
            send(up, reply)

    with open_lanes(lanes, serve) as ends:
        ran = 1 + len(ends)
        return [receive(ends[k % lanes - 1][1], f"item {k}") if 0 < k % lanes < ran
                else fn(k) for k in range(count)], ran
