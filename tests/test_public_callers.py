"""Every public definition in ``src/repro`` has a caller, and every
defaulted parameter of one has a call that passes it.

The one rule: only program code — ``src/``, ``benchmarks/`` and
``examples/`` (``PROGRAM_DIRS``) — counts as a caller.  Tests do not, so
a definition or an option that only tests reach is reported.

The definition scan is an AST name scan: each public top-level function
and class of a ``src/repro`` module, and each public method of such a
class, must be named by an identifier or attribute somewhere in the
program other than its own ``def`` line.  A name its own module calls has
a caller; a package ``__init__`` re-export or ``__all__`` entry is not
one, and neither is a string constant that spells the name.

The parameter scan reads every call in the program.  A defaulted
parameter of a public function, method or constructor is live when a
call passes it by keyword or by position, splats ``*`` / ``**`` into it,
or forwards a live parameter of the calling function (``f(x=x)``,
followed transitively; ``super().__init__`` reaches the base class), or
when the function or class is passed, stored or returned as a value (a
``FIGURES`` table, ``run_in_executor``, a class a registry builds with
``**options``).  A package ``__getattr__`` that returns a class only
re-exports it.  Any other defaulted parameter is an option nothing sets:
fold it into its default.

Both scans match names, not bindings, so they err towards "used": a
method called ``update`` is never reported, and a keyword one ``update``
takes is live for every ``update``.  They are a floor, not a proof.

``KEPT`` lists the definitions and parameters that stay without a
program caller — references other tests check against, the console
script's ``argv`` — and ``REACHED_BY_GETATTR`` the functions a call
reaches through ``getattr``, each with its reason.  An entry that is no
longer needed must leave its list.
"""

from __future__ import annotations

import ast
import functools
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"
#: The directories whose code counts as a caller.
PROGRAM_DIRS = ("src", "benchmarks", "examples")

#: Definitions (``module::name``) and parameters (``module::name(parameter)``)
#: with no program caller that stay, and why.
KEPT = {
    "repro/cli.py::main(argv)":
        "the console script calls main() and argparse reads sys.argv; tests "
        "and the documented `python -c` driver pass the verb's argv",
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
    "repro/geometry/predicates.py::overlap_matrix":
        "brute-force reference the exact joins and the engine are counted "
        "against (test_exact_joins.py, test_property_based.py)",
    "repro/geometry/predicates.py::overlap_matrix(closed)":
        "the closed-rule reference the exact joins' closed counts are checked "
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


def program_files(root: Path) -> list[Path]:
    """The Python files under ``root``'s :data:`PROGRAM_DIRS`."""
    return sorted(path for directory in PROGRAM_DIRS
                  for path in (root / directory).rglob("*.py"))


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
    return frozenset(orphans(program_files(ROOT), PACKAGE))


def test_every_public_definition_has_a_caller_in_the_program():
    assert sorted(_program_orphans() - KEPT.keys()) == []


def test_every_kept_entry_still_lacks_a_caller():
    """A kept name or parameter that gained a caller, or was deleted,
    leaves ``KEPT``."""
    dead = {name for name, live in program_parameters().items() if not live}
    assert sorted(KEPT.keys() - _program_orphans() - dead) == []


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


def test_a_name_spelled_only_in_a_string_has_no_caller(tmp_path):
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "mod.py").write_text(
        "KINDS = ('insert', 'delete')\n\n"
        "class Sketch:\n"
        "    def insert(self):\n        pass\n\n"
        "    def delete(self):\n        pass\n\n"
        "def update(sketch, kind):\n    return sketch.insert()\n")
    (tmp_path / "example.py").write_text(
        "from pkg.mod import Sketch, update\nupdate(Sketch(), 'delete')\n")
    files = sorted(tmp_path.rglob("*.py"))
    assert orphans(files, package) == {"pkg/mod.py::Sketch.delete"}


# -- the parameter scan ---------------------------------------------------------

#: Functions reached through ``getattr``, which a name scan cannot follow:
#: each of their defaulted parameters counts as passed.
REACHED_BY_GETATTR = {
    "repro/service/service.py::EstimationService.tenant_update":
        "the server's tenant verb calls getattr(service, f'tenant_{verb}') "
        "with the request's changes splatted in",
}


@dataclass(frozen=True)
class _Function:
    """One ``def``, as a call binds its arguments."""

    key: str                        # "module::Qualified.name"
    name: str
    public: bool
    positional: tuple[str, ...]     # what positional arguments bind, self dropped
    defaulted: frozenset[str]
    bound: frozenset[str]           # names its body rebinds


def _bound_names(statements, *, definitions: bool) -> frozenset[str]:
    """Names the statements assign, and with ``definitions`` the names of
    the functions and classes defined among them."""
    names = set()
    for statement in statements:
        if not definitions and isinstance(
                statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        for node in ast.walk(statement):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                names.add(node.id)
            elif definitions and isinstance(
                    node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.add(node.name)
    return frozenset(names)


def _passed_values(node: ast.AST) -> list[ast.AST]:
    """The children ``node`` passes on, stores or returns as values."""
    if isinstance(node, ast.Call):
        values = node.args + [keyword.value for keyword in node.keywords]
    elif isinstance(node, (ast.List, ast.Tuple, ast.Set)):
        values = node.elts
    elif isinstance(node, ast.Dict):
        values = node.values
    elif isinstance(node, ast.Lambda):
        values = [node.body]
    elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.Return, ast.Yield,
                           ast.NamedExpr)):
        values = [node.value]
    else:
        return []
    return [value.value if isinstance(value, ast.Starred) else value
            for value in values if value is not None]


class _FileScan(ast.NodeVisitor):
    """The definitions, calls and function values of one file."""

    def __init__(self, path: Path, package: Path) -> None:
        tree = ast.parse(path.read_text(), str(path))
        self.public_module = path.is_relative_to(package)
        base = package.parent if self.public_module else package.parent.parent
        self.module = path.relative_to(base).as_posix()
        self.defined: list[_Function] = []
        #: (class name, base class names, its own ``__init__`` or None)
        self.classes: list[tuple[str, list[str], _Function | None]] = []
        #: (call, enclosing scopes innermost first, enclosing class's bases)
        self.calls: list[tuple[ast.Call, list, list[str]]] = []
        self.values: set[str] = set()
        self.data_attributes: set[str] = set()
        self._passed = {id(value) for node in ast.walk(tree)
                        for value in _passed_values(node)}
        self._module_bound = _bound_names(tree.body, definitions=False)
        self._is_init = path.name == "__init__.py"
        self._stack: list[ast.AST] = []
        self._defs: dict[int, _Function] = {}
        self.visit(tree)

    def _scopes(self) -> list[tuple[set[str], frozenset[str], _Function | None]]:
        """(parameters, rebound names, function) of each enclosing function."""
        scopes = []
        for node in reversed(self._stack):
            if isinstance(node, ast.ClassDef):
                continue
            args = node.args
            parameters = {arg.arg for arg in args.posonlyargs + args.args + args.kwonlyargs}
            parameters |= {arg.arg for arg in (args.vararg, args.kwarg) if arg}
            function = self._defs.get(id(node))
            scopes.append((parameters, function.bound if function else frozenset(),
                           function))
        return scopes

    def _reexport(self) -> bool:
        """Inside a package ``__getattr__``, which hands out what it returns
        as a re-export, not as a value a caller builds."""
        return self._is_init and any(isinstance(node, ast.FunctionDef)
                                     and node.name == "__getattr__" for node in self._stack)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        for child in node.bases + node.keywords + node.decorator_list:
            self.visit(child)
        self._stack.append(node)
        for statement in node.body:
            if isinstance(statement, ast.AnnAssign) and isinstance(statement.target, ast.Name):
                self.data_attributes.add(statement.target.id)
            elif isinstance(statement, ast.Assign):
                self.data_attributes.update(target.id for target in statement.targets
                                            if isinstance(target, ast.Name))
            self.visit(statement)
        self._stack.pop()
        bases = [base.id if isinstance(base, ast.Name) else base.attr
                 for base in node.bases if isinstance(base, (ast.Name, ast.Attribute))]
        init = next((self._defs[id(item)] for item in node.body
                     if isinstance(item, ast.FunctionDef) and item.name == "__init__"), None)
        self.classes.append((node.name, bases, init))

    def visit_FunctionDef(self, node) -> None:
        owner = self._stack[-1] if self._stack else None
        method = isinstance(owner, ast.ClassDef)
        static = any(isinstance(decorator, ast.Name) and decorator.id == "staticmethod"
                     for decorator in node.decorator_list)
        args = node.args
        ordered = [arg.arg for arg in args.posonlyargs + args.args]
        defaulted = set(ordered[len(ordered) - len(args.defaults):])
        defaulted |= {arg.arg for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                      if default is not None}
        top_level = owner is None or (method and len(self._stack) == 1
                                      and not owner.name.startswith("_"))
        qualified = ".".join([item.name for item in self._stack
                              if not isinstance(item, ast.Lambda)] + [node.name])
        function = _Function(
            key=f"{self.module}::{qualified}",
            name=node.name,
            public=self.public_module and top_level and (
                not node.name.startswith("_") or (method and node.name == "__init__")),
            positional=tuple(ordered[1 if method and not static else 0:]),
            defaulted=frozenset(defaulted),
            bound=_bound_names(node.body, definitions=True),
        )
        self._defs[id(node)] = function
        self.defined.append(function)
        for child in node.decorator_list + args.defaults + args.kw_defaults:
            if child is not None:
                self.visit(child)
        self._stack.append(node)
        for statement in node.body:
            self.visit(statement)
        self._stack.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._stack.append(node)
        self.visit(node.body)
        self._stack.pop()

    def visit_Call(self, node: ast.Call) -> None:
        owner = next((item for item in reversed(self._stack)
                      if isinstance(item, ast.ClassDef)), None)
        bases = [base.id for base in owner.bases if isinstance(base, ast.Name)] \
            if owner is not None else []
        self.calls.append((node, self._scopes(), bases))
        self.generic_visit(node)

    def visit_Name(self, node: ast.Name) -> None:
        if id(node) in self._passed and not self._reexport() \
                and node.id not in self._module_bound and not any(
                    node.id in parameters or node.id in bound
                    for parameters, bound, _ in self._scopes()):
            self.values.add(node.id)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if not isinstance(node.ctx, ast.Load):
            self.data_attributes.add(node.attr)
        elif id(node) in self._passed and not self._reexport():
            self.values.add(node.attr)
        self.visit(node.value)


def _forwarded(value: ast.AST, scopes) -> tuple[str, str] | None:
    """The enclosing function's (key, parameter) a passed value forwards
    unchanged, or None when the value is set outright."""
    if isinstance(value, ast.Name):
        for parameters, bound, function in scopes:
            if value.id in parameters:
                if function is None or value.id in bound \
                        or value.id not in function.defaulted:
                    return None
                return function.key, value.id
            if value.id in bound:
                return None
    return None


def _bindings(call: ast.Call, target: _Function, scopes):
    """(parameter, forwarded-from) for each parameter of ``target`` that
    ``call`` passes (see :func:`_forwarded`)."""
    for position, arg in enumerate(call.args):
        if isinstance(arg, ast.Starred):
            yield from ((parameter, None) for parameter in target.positional[position:])
            break
        if position < len(target.positional):
            yield target.positional[position], _forwarded(arg, scopes)
    for keyword in call.keywords:
        if keyword.arg is None:
            yield from ((parameter, None) for parameter in target.defaulted)
        else:
            yield keyword.arg, _forwarded(keyword.value, scopes)


def parameter_liveness(files: list[Path], package: Path,
                       reached=REACHED_BY_GETATTR) -> dict[str, bool]:
    """``module::Function(parameter)`` -> live, for each defaulted parameter
    of a public definition of ``package``, judged by the calls in ``files``."""
    scans = [_FileScan(path, package) for path in files]
    every = [function for scan in scans for function in scan.defined]
    by_name: dict[str, list[_Function]] = defaultdict(list)
    for function in every:
        if function.name != "__init__":
            by_name[function.name].append(function)
    classes: dict[str, list[tuple[list[str], _Function | None]]] = defaultdict(list)
    for scan in scans:
        for name, bases, init in scan.classes:
            classes[name].append((bases, init))
    values = set().union(*(scan.values for scan in scans))
    data_attributes = set().union(*(scan.data_attributes for scan in scans))

    def constructors(name, seen=()) -> list[_Function]:
        """The ``__init__`` a call of each class called ``name`` runs: its
        own, else the first one its base classes run."""
        found = []
        for bases, init in classes.get(name, []) if name not in seen else []:
            found += [init] if init else next(
                filter(None, (constructors(base, seen + (name,)) for base in bases)), [])
        return found

    live = {(function.key, parameter) for function in every if function.key in reached
            for parameter in function.defaulted}
    forwards: dict[tuple[str, str], set[tuple[str, str]]] = defaultdict(set)
    for scan in scans:
        for call, scopes, bases in scan.calls:
            func = call.func
            if isinstance(func, ast.Attribute) and func.attr == "__init__":
                is_super = isinstance(func.value, ast.Call) and \
                    isinstance(func.value.func, ast.Name) and func.value.func.id == "super"
                targets = constructors(bases[0]) if is_super and bases else []
            else:
                name = func.id if isinstance(func, ast.Name) else \
                    func.attr if isinstance(func, ast.Attribute) else None
                targets = by_name.get(name, []) + constructors(name)
            for target in targets:
                for parameter, source in _bindings(call, target, scopes):
                    if parameter in target.defaulted:
                        if source is None:
                            live.add((target.key, parameter))
                        else:
                            forwards[source].add((target.key, parameter))
    for name in values - data_attributes:
        live.update((function.key, parameter)
                    for function in by_name.get(name, []) + constructors(name)
                    for parameter in function.defaulted)
    frontier = list(live)
    while frontier:
        for passed in forwards.pop(frontier.pop(), ()):
            if passed not in live:
                live.add(passed)
                frontier.append(passed)
    return {f"{function.key}({parameter})": (function.key, parameter) in live
            for function in every if function.public for parameter in function.defaulted}


@functools.cache
def program_parameters(reached=tuple(REACHED_BY_GETATTR)) -> dict[str, bool]:
    """:func:`parameter_liveness` over the repository."""
    return parameter_liveness(program_files(ROOT), PACKAGE, reached)


def test_every_defaulted_parameter_is_passed_by_some_call():
    assert sorted(name for name, live in program_parameters().items()
                  if not live and name not in KEPT) == []


def test_every_getattr_entry_is_still_needed():
    """Without its entry, each function reached through ``getattr`` would
    have a parameter reported."""
    unseeded = program_parameters(reached=())
    for key in REACHED_BY_GETATTR:
        assert any(name.startswith(key + "(") and not live
                   for name, live in unseeded.items()), key


def test_the_scan_follows_each_way_a_parameter_is_passed(tmp_path):
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "mod.py").write_text(
        "def keyword(*, a=1, dead=2):\n    pass\n\n"
        "def positional(x, b=1, dead=2):\n    pass\n\n"
        "def splatted(c=1, *, d=2):\n    pass\n\n"
        "def outer(e=None, dead=None):\n    middle(e=e, dead=dead)\n\n"
        "def middle(e=None, dead=None):\n    keyword(a=e)\n    inner(e=e, dead=dead)\n\n"
        "def inner(e=None, dead=None):\n    pass\n\n"
        "def as_value(f=1):\n    pass\n\n"
        "def shadowed(dead=1):\n    pass\n\n"
        "TABLE = {'f': as_value}\n\n"
        "class Base:\n"
        "    def __init__(self, g=1, dead=2):\n        pass\n\n"
        "class Child(Base):\n"
        "    def __init__(self, g=1, dead=2):\n"
        "        super().__init__(g=g, dead=dead)\n\n"
        "    def method(self, h=1):\n        pass\n")
    (tmp_path / "caller.py").write_text(
        "from pkg.mod import *\n\n"
        "def fixture():\n"
        "    def shadowed():\n        pass\n"
        "    return shadowed\n\n"
        "keyword(a=0)\npositional(0, 1)\nsplatted(*[], **{})\n"
        "outer(e=3)\nChild(g=4).method(5)\n")
    liveness = parameter_liveness(sorted(tmp_path.rglob("*.py")), package, reached=())
    assert sorted(name for name, live in liveness.items() if not live) == [
        "pkg/mod.py::Base.__init__(dead)",
        "pkg/mod.py::Child.__init__(dead)",
        "pkg/mod.py::inner(dead)",
        "pkg/mod.py::keyword(dead)",
        "pkg/mod.py::middle(dead)",
        "pkg/mod.py::outer(dead)",
        "pkg/mod.py::positional(dead)",
        "pkg/mod.py::shadowed(dead)",
    ]
    assert len(liveness) == 19


def test_a_class_a_registry_builds_keeps_its_constructor_parameters(tmp_path):
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "mod.py").write_text(
        "class Estimator:\n"
        "    def __init__(self, size, *, seed=0):\n        pass\n\n"
        "class Unlisted:\n"
        "    def __init__(self, size, *, dead=0):\n        pass\n\n"
        "FAMILIES = {'range': Estimator}\n\n"
        "def build(family, size, **options):\n"
        "    Unlisted(size)\n"
        "    return FAMILIES[family](size, **options)\n")
    (tmp_path / "caller.py").write_text("from pkg.mod import build\nbuild('range', 4)\n")
    liveness = parameter_liveness(sorted(tmp_path.rglob("*.py")), package, reached=())
    assert liveness == {"pkg/mod.py::Estimator.__init__(seed)": True,
                        "pkg/mod.py::Unlisted.__init__(dead)": False}


def test_a_package_getattr_only_re_exports_what_it_returns(tmp_path):
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text(
        "def __getattr__(name):\n"
        "    from pkg.mod import Runner, helper\n"
        "    return {'Runner': Runner, 'helper': helper}[name]\n")
    (package / "mod.py").write_text(
        "class Runner:\n"
        "    def __init__(self, *, dead=0):\n        pass\n\n"
        "def helper(dead=0):\n    pass\n")
    (tmp_path / "caller.py").write_text("import pkg\npkg.Runner()\npkg.helper()\n")
    liveness = parameter_liveness(sorted(tmp_path.rglob("*.py")), package, reached=())
    assert liveness == {"pkg/mod.py::Runner.__init__(dead)": False,
                        "pkg/mod.py::helper(dead)": False}


def test_a_call_only_tests_make_keeps_no_parameter_live(tmp_path):
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "mod.py").write_text("def scan(data, *, chunk=512):\n    pass\n")
    for directory, call in (("examples", "scan([])"), ("tests", "scan([], chunk=8)")):
        (tmp_path / directory).mkdir()
        (tmp_path / directory / "use.py").write_text(f"from pkg.mod import scan\n{call}\n")
    files = program_files(tmp_path)
    assert [path.relative_to(tmp_path).as_posix() for path in files] == [
        "examples/use.py", "src/pkg/mod.py"]
    assert parameter_liveness(files, package, reached=()) == {
        "pkg/mod.py::scan(chunk)": False}
