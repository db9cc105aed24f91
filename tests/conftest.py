"""Refuse to test a different tree than PYTHONPATH names.

`pyproject.toml` puts this checkout's `src` on the path ahead of
PYTHONPATH, so `PYTHONPATH=/other/tree/src pytest` would silently test
this checkout.  The run stops instead when the first PYTHONPATH entry
that holds a `bijacobsthal` package is not the one imported here.
"""

import os

import pytest


def pytest_configure(config):
    import bijacobsthal

    imported = os.path.realpath(bijacobsthal.__file__)
    for entry in filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep)):
        named = os.path.join(entry, "bijacobsthal", "__init__.py")
        if os.path.isfile(named):
            if os.path.realpath(named) != imported:
                raise pytest.UsageError(
                    f"PYTHONPATH names {os.path.realpath(named)}, but the tests "
                    f"imported {imported}; run pytest from that tree instead")
            return
