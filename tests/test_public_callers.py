"""Every public definition in ``src/repro`` has a caller in the program.

An AST name scan: each public top-level function and class of a
``src/repro`` module, and each public method of such a class, must be named
somewhere in ``src/``, ``examples/`` or ``benchmarks/`` other than its own
``def`` line.  A name its own module calls has a caller; a package
``__init__`` re-export or ``__all__`` entry is not one.  Tests do not count,
so a helper that only its own test calls fails here.

The scan matches names, not bindings, so it errs towards "used": a method
called ``update`` is never reported.  It is a floor, not a proof.

``KEPT`` lists the definitions that tests use as references or helpers for
other code, each with its reason.  An entry that gains a program caller or
goes away must leave the list.
"""

from __future__ import annotations

import ast
import functools
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"
PROGRAM_DIRS = (ROOT / "src", ROOT / "examples", ROOT / "benchmarks")

#: Definitions with no program caller that stay, and why.
KEPT = {
    "repro/core/dyadic.py::DyadicDomain.interval_of":
        "scalar node -> interval map; tests/helpers.py and the dyadic tests "
        "check the vectorised covers against it",
    "repro/core/dyadic.py::DyadicDomain.leaf_id":
        "scalar leaf lookup; tests/helpers.py builds reference counters from it",
    "repro/core/dyadic.py::DyadicDomain.point_cover":
        "scalar point cover; the reference for point_covers and the update "
        "kernels in tests/helpers.py and test_core_atomic.py",
    "repro/core/estimator.py::SketchEstimator.side_bank":
        "a side's bank by name; the xi-aliasing and program tests read "
        "counters through it",
    "repro/core/hashing.py::FourWiseFamilyBank.from_coefficients":
        "rebuilds a family from stored seeds; tests/helpers.py and the "
        "cover-table tests build reference families with it",
    "repro/core/hashing.py::FourWiseFamilyBank.signs_for_family":
        "one family's signs; test_core_atomic.py checks the counters "
        "against these sums",
    "repro/geometry/boxset.py::BoxSet.from_intervals":
        "builds 1-d test inputs from pairs (property, query and self-join tests)",
    "repro/geometry/boxset.py::BoxSet.side_lengths":
        "the data-generator tests check extents with it",
    "repro/geometry/boxset.py::BoxSet.min_coordinate":
        "the data-generator tests check bounds with it",
    "repro/geometry/boxset.py::BoxSet.max_coordinate":
        "the data-generator tests check bounds with it",
    "repro/geometry/predicates.py::overlap_matrix":
        "brute-force reference the exact joins and the engine are counted "
        "against (test_exact_joins.py, test_property_based.py)",
    "repro/geometry/predicates.py::containment_matrix":
        "brute-force reference for the exact containment join (test_exact_joins.py)",
    "repro/geometry/predicates.py::pairwise_linf_distances":
        "brute-force reference for the exact epsilon join (test_exact_joins.py)",
    "repro/cluster/manager.py::ClusterManager.replace_worker":
        "the library call that swaps a failed group member; test_cluster.py "
        "races it against live ingest to check the write gate it shares "
        "with bootstrap_replica",
    "repro/service/service.py::EstimationService.tenant_update":
        "called as getattr(service, f'tenant_{verb}') by the server's "
        "tenant verb, which a name scan cannot see",
}


def _names_used(path: Path) -> set[str]:
    """Every identifier a file names, re-exports and ``__all__`` aside."""
    is_init = path.name == "__init__.py"
    used = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif is_init:
            continue
        elif isinstance(node, ast.alias):
            used.add(node.name.rpartition(".")[2])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            used.add(node.value)
    return used


def _public_definitions(path: Path) -> list[str]:
    """``name`` or ``Class.method`` for each public definition of a module."""
    found = []
    for node in ast.parse(path.read_text(), str(path)).body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) \
                or node.name.startswith("_"):
            continue
        found.append(node.name)
        if isinstance(node, ast.ClassDef):
            found.extend(f"{node.name}.{item.name}" for item in node.body
                         if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                         and not item.name.startswith("_"))
    return found


def orphans(files: list[Path], package: Path) -> set[str]:
    """``module::definition`` for each public definition of ``package`` that
    no file in ``files`` names."""
    used = set().union(*map(_names_used, files))
    return {
        f"{path.relative_to(package.parent).as_posix()}::{definition}"
        for path in files if path.is_relative_to(package)
        for definition in _public_definitions(path)
        if definition.rpartition(".")[2] not in used
    }


@functools.cache
def _program_orphans() -> frozenset[str]:
    return frozenset(orphans(sorted(path for directory in PROGRAM_DIRS
                                    for path in directory.rglob("*.py")), PACKAGE))


def test_every_public_definition_has_a_caller_in_the_program():
    assert sorted(_program_orphans() - KEPT.keys()) == []


def test_every_kept_definition_still_lacks_a_caller():
    """A kept name that gained a caller, or was deleted, leaves ``KEPT``."""
    assert sorted(KEPT.keys() - _program_orphans()) == []


def test_the_scan_reports_a_new_orphan(tmp_path):
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("from pkg.mod import used, unused\n"
                                         "__all__ = ['used', 'unused']\n")
    (package / "mod.py").write_text(
        "def used():\n    return Box().size()\n\n"
        "def unused():\n    pass\n\n"
        "class Box:\n"
        "    def size(self):\n        return 0\n\n"
        "    def extra(self):\n        return 1\n")
    (tmp_path / "example.py").write_text("from pkg.mod import used\nused()\n")
    files = sorted(tmp_path.rglob("*.py"))
    assert orphans(files, package) == {"pkg/mod.py::unused", "pkg/mod.py::Box.extra"}
