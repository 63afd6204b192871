"""Every name a ``repro`` package lists in ``__all__`` resolves.

Importing a package does not check its ``__all__``: ``repro.server`` and
``repro.cluster`` load some entries on first access through a module
``__getattr__``, and a stale entry only fails when someone reaches for it.
"""

import importlib
import pkgutil

import pytest

import repro

PACKAGES = ["repro"] + sorted(
    info.name for info in pkgutil.walk_packages(repro.__path__, "repro.")
    if info.ispkg)


@pytest.mark.parametrize("package", PACKAGES)
def test_every_listed_name_resolves(package):
    module = importlib.import_module(package)
    missing = [name for name in getattr(module, "__all__", ())
               if not hasattr(module, name)]
    assert missing == []


def test_the_lazy_entries_are_listed():
    """The module ``__getattr__`` entries are among the names checked."""
    import repro.cluster
    import repro.server

    assert "ThreadedServer" in repro.server.__all__
    assert "ThreadedClusterRouter" in repro.cluster.__all__
