import os

import pytest
from hypothesis import settings

# No per-example deadline: on a loaded machine numpy calls can exceed
# hypothesis's 200 ms default and fail a correct property.
settings.register_profile("ifpca", deadline=None)
settings.load_profile("ifpca")


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Every child process a test starts, the loader's forked workers
    included, is reaped by the time the test ends."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"a child process ({pid or 'still running'}) outlived the test")
