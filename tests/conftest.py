"""Suite-wide checks: no test may leave a child process behind."""

from __future__ import annotations

import os

import pytest


@pytest.fixture(autouse=True)
def no_child_left_behind():
    """Fail a test that leaves a child of this process unreaped, running
    or a zombie: every process a run forks must be reaped before the run
    returns or raises, which is what a benchmark's process check sees."""
    yield
    try:
        pid, status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:  # no child at all
        return
    pytest.fail(f"the test left a child process behind (pid {pid or 'still running'}, "
                f"status {status})")
