import os

import pytest


@pytest.fixture(autouse=True)
def _no_child_left():
    # the grid pass and `dynstc run` may fork; every child they made is
    # reaped by the time they return or raise
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
