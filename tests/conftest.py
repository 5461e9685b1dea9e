"""Suite-wide checks."""

import multiprocessing
import os

import pytest


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail any test that leaves a child process, live or unreaped: every
    lane that ``csitransfer.lanes`` forks must have been joined when the
    call that forked it returns or raises, or it outlives the call and
    holds its memory. ``multiprocessing``'s children are killed here; a
    forked lane is found by ``os.waitpid``, which also reaps it if it has
    exited."""
    yield
    alive = multiprocessing.active_children()
    for child in alive:
        child.kill()
        child.join()
    try:
        left = os.waitpid(-1, os.WNOHANG)[0]  # 0: a child is still running
    except ChildProcessError:  # no child at all
        left = None
    if alive or left is not None:
        pytest.fail(f"test left child processes: {alive or ['unreaped' if left else 'running']}")
