"""Fixtures shared by every test module."""

import gc

import pytest


@pytest.fixture(autouse=True)
def _unfrozen_heap():
    """Unfreeze the heap after each test.

    cli.main freezes the heap on return, so that a CLI process's exit
    skips collecting it.  A test process calls main hundreds of times;
    unfrozen, what each test leaves stays collectable and the suite's
    memory does not grow with every frozen run.
    """
    yield
    gc.unfreeze()
