"""Every name a ``repro`` package lists in ``__all__`` resolves.

Importing a package does not check its ``__all__``: ``repro``,
``repro.service``, ``repro.server`` and ``repro.cluster`` load their
entries on first access through a module ``__getattr__``, and a stale
entry only fails when someone reaches for it.
"""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = str(Path(__file__).resolve().parent.parent / "src")

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


LAZY_PACKAGES = ["repro.cluster", "repro.server", "repro.service"]


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_every_listed_name_has_one_home_and_resolves_to_it(package):
    module = importlib.import_module(package)
    homes = {name: home for home, names in module._HOMES.items() for name in names}
    assert sorted(homes) == sorted(module.__all__)
    for name, home in homes.items():
        assert getattr(module, name) is getattr(importlib.import_module(home), name)


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_importing_a_package_loads_none_of_its_modules(package):
    """A process loads only the modules whose names it uses: a router
    never runs the local service, a server never a loop thread."""
    probe = (f"import sys, {package}; print(sorted(name for name in sys.modules "
             f"if name.startswith('{package}.')))")
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.stdout.strip() == "[]", done.stderr
