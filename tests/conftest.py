"""Suite-wide checks."""

import multiprocessing

import pytest


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail any test that leaves a live child process: ``run_three_way``'s
    target workers must all have exited when it returns or raises, or they
    outlive the run and hold its memory."""
    yield
    alive = multiprocessing.active_children()
    if alive:
        for child in alive:
            child.kill()
            child.join()
        pytest.fail(f"test left child processes alive: {alive}")
