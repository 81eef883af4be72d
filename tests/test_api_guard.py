"""Guards on the package surface: the functions the benchmark's tracer
wraps by name still exist and are still called by the package, no public
function takes a `threads` argument (the engine is serial; only the CLI
records a thread count), no numpy generator is used outside the per-site
reference `BernoulliMask.__contains__` (every other draw goes through
`lattice.philox_uniforms`), only the key rule `disorder._uniforms` and
`BernoulliMask.indicator` call that kernel, no module but `fracmoment`
draws a potential (`.potential(` or `sample_potential(`), no module
imports a name it never uses, every public module-level function and
class is read by package code or named, with its reason, in
`UNREAD_BY_SRC`, and every public class member likewise or in
`MEMBERS_UNREAD_BY_SRC`."""

from __future__ import annotations

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import trimlab

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"
SRC = Path(trimlab.__file__).resolve().parent


def _explicit_spans() -> list[tuple[str, str, str]]:
    """EXPLICIT_SPANS of perfbench/layers.py, read without importing it."""
    for node in ast.parse(LAYERS.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            getattr(target, "id", None) == "EXPLICIT_SPANS" for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no EXPLICIT_SPANS in {LAYERS}")


def test_tracer_targets_exist_and_are_callable():
    spans = _explicit_spans()
    assert spans
    missing = [
        f"{module}.{attr}"
        for module, attr, _ in spans
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert missing == []


def _call_name(node: ast.Call) -> str | None:
    """The name a call calls, as `f(...)` or `obj.f(...)`."""
    return getattr(node.func, "id", getattr(node.func, "attr", None))


def _called_names(tree: ast.AST) -> set[str]:
    """The name of every function a call in tree calls."""
    return {_call_name(node) for node in ast.walk(tree) if isinstance(node, ast.Call)}


def test_tracer_targets_are_called_by_the_package():
    # a target that is defined but never called times nothing: its span
    # would read 0 while the work it named runs elsewhere
    called = set().union(
        *(_called_names(ast.parse(path.read_text())) for path in SRC.glob("*.py"))
    )
    idle = [
        f"{module}.{attr}" for module, attr, _ in _explicit_spans() if attr not in called
    ]
    assert idle == []


def test_called_name_guard_sees_every_form():
    source = (
        "import m\n"
        "def defined_only(): pass\n"
        "def f(g):\n"
        "    m.by_attribute(plain(), g)\n"
        "    return [nested(x) for x in g]\n"
    )
    assert _called_names(ast.parse(source)) == {"by_attribute", "plain", "nested"}


def _public_functions():
    """(qualified name, function) of every public function and public
    method defined in the package."""
    for info in pkgutil.iter_modules(trimlab.__path__):
        module = importlib.import_module(f"trimlab.{info.name}")
        for name, obj in vars(module).items():
            defined_here = getattr(obj, "__module__", None) == module.__name__
            if name.startswith("_") or not defined_here:
                continue
            if inspect.isfunction(obj):
                yield f"{module.__name__}.{name}", obj
            elif inspect.isclass(obj):
                for attr, fn in vars(obj).items():
                    if inspect.isfunction(fn) and not attr.startswith("_"):
                        yield f"{module.__name__}.{name}.{attr}", fn


def test_no_public_function_takes_threads():
    functions = dict(_public_functions())
    assert "trimlab.fracmoment.mc_map" in functions
    takes_threads = [
        name
        for name, fn in functions.items()
        if "threads" in inspect.signature(fn).parameters
    ]
    assert takes_threads == []


def _scoped_hits(tree: ast.AST, hit) -> list[tuple[str, int]]:
    """(enclosing qualified name, line) of every node of tree for which
    hit(node) holds."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if hit(node):
            found.append((scope, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, "")
    return found


def _is_numpy_random(node: ast.AST) -> bool:
    """Whether node is an `np.random` or `numpy.random` attribute or an
    import of numpy.random."""
    if isinstance(node, ast.Import):
        return any(a.name.split(".")[:2] == ["numpy", "random"] for a in node.names)
    if isinstance(node, ast.ImportFrom):
        module = (node.module or "").split(".")
        return module[:2] == ["numpy", "random"] or (
            module == ["numpy"] and any(a.name == "random" for a in node.names)
        )
    return (
        isinstance(node, ast.Attribute)
        and node.attr == "random"
        and getattr(node.value, "id", None) in ("np", "numpy")
    )


def _callers(tree: ast.AST, name: str) -> list[tuple[str, int]]:
    """(enclosing qualified name, line) of every call of `name(...)` or
    `obj.name(...)` in tree."""
    return _scoped_hits(
        tree, lambda node: isinstance(node, ast.Call) and _call_name(node) == name
    )


def test_numpy_random_is_used_only_by_the_bernoulli_reference():
    uses = {
        path.name: _scoped_hits(ast.parse(path.read_text()), _is_numpy_random)
        for path in sorted(SRC.glob("*.py"))
    }
    assert {scope for scope, _ in uses.pop("lattice.py")} == {
        "BernoulliMask.__contains__"
    }
    assert {name: found for name, found in uses.items() if found} == {}


def test_numpy_random_guard_sees_every_form():
    source = (
        "import numpy.random\n"
        "from numpy import random\n"
        "from numpy.random import default_rng\n"
        "def f():\n"
        "    return np.random.default_rng(0)\n"
        "class C:\n"
        "    def g(self):\n"
        "        return numpy.random.Philox\n"
    )
    uses = _scoped_hits(ast.parse(source), _is_numpy_random)
    assert uses == [("", 1), ("", 2), ("", 3), ("f", 5), ("C.g", 8)]


def test_only_the_key_rule_and_the_bernoulli_mask_call_the_kernel():
    # disorder._uniforms builds every potential, trial and pair key; a
    # second caller would key its streams by a rule of its own
    callers = {
        (path.stem, scope)
        for path in sorted(SRC.glob("*.py"))
        for scope, _ in _callers(ast.parse(path.read_text()), "philox_uniforms")
    }
    assert callers == {("disorder", "_uniforms"), ("lattice", "BernoulliMask.indicator")}


def test_caller_guard_sees_every_form():
    source = (
        "def f(k):\n"
        "    return philox_uniforms(k, 0, 1)\n"
        "class C:\n"
        "    def g(self):\n"
        "        return lattice.philox_uniforms(1, 0, [philox_uniforms(2, 0, 1)])\n"
        "h = [philox_uniforms, g(philox_uniforms(3, 0, 1))]\n"
    )
    assert _callers(ast.parse(source), "philox_uniforms") == [
        ("f", 2), ("C.g", 5), ("C.g", 5), ("", 6),
    ]


def _attribute_calls(tree: ast.AST, attr: str) -> list[int]:
    """Line of every call `obj.attr(...)` in tree, in order."""
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == attr
    )


def test_only_fracmoment_draws_potentials():
    # fracmoment._stacks draws every chunk, and EnsembleSpec.realization
    # and the kernel identity one sample each: a draw anywhere else builds
    # realizations past the one chunk stream
    calls = {
        path.name: _attribute_calls(ast.parse(path.read_text()), "potential")
        for path in sorted(SRC.glob("*.py"))
        if path.name != "fracmoment.py"
    }
    assert {name: lines for name, lines in calls.items() if lines} == {}
    drawers = [
        path.name
        for path in sorted(SRC.glob("*.py"))
        if _callers(ast.parse(path.read_text()), "sample_potential")
    ]
    assert drawers == ["fracmoment.py"]


def test_potential_call_guard_sees_every_form():
    source = (
        "def f(ens, idx):\n"
        "    v = ens.potential(idx)\n"
        "    w = self.spec.ens.potential(0)\n"
        "    return [make().potential(i) for i in idx], potential(1), ens.potential\n"
    )
    assert _attribute_calls(ast.parse(source), "potential") == [2, 3, 4]


def _unused_imports(tree: ast.AST) -> list[tuple[str, int]]:
    """(bound name, line) of every import in tree whose name is never
    read; `from __future__` imports bind nothing to read."""
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.asname or a.name.split(".")[0] for a in node.names]
            bound += [(name, node.lineno) for name in names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names = [a.asname or a.name for a in node.names]
            bound += [(name, node.lineno) for name in names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((name, line) for name, line in bound if name not in used)


def test_no_module_imports_a_name_it_never_uses():
    paths = [*SRC.glob("*.py"), *Path(__file__).resolve().parent.glob("*.py")]
    unused = {
        f"{path.parent.name}/{path.name}": _unused_imports(ast.parse(path.read_text()))
        for path in sorted(paths)
    }
    assert {name: found for name, found in unused.items() if found} == {}


def test_unused_import_guard_sees_every_form():
    source = (
        "from __future__ import annotations\n"
        "import math\n"
        "import numpy as np\n"
        "import os.path\n"
        "from dataclasses import dataclass, field\n"
        "from typing import Sequence as Seq\n"
        "def f(x: Seq) -> float:\n"
        "    return np.pi * os.path.sep.count(x)\n"
        "@dataclass\n"
        "class C:\n"
        "    pass\n"
    )
    assert _unused_imports(ast.parse(source)) == [("field", 5), ("math", 2)]


#: public module-level names that no code of the package reads, each with
#: why it stays; a name leaves this table once package code reads it
AWAITS_READER = "a paper condition awaiting its reader, the conditions table"
UNREAD_BY_SRC = {
    "anomalous.assumption_scan": AWAITS_READER,
    "disorder.regularity_check": AWAITS_READER,
    "fracmoment.loc1_threshold": AWAITS_READER,
    "fracmoment.chi_resolvent_inequalities": AWAITS_READER,
    "disorder.decoupling_ratio": (
        "not a duplicate of decoupling_pair_ratio: it enforces q >= 2s/(1-s) "
        "and integrates in another order"
    ),
    "fracmoment.am_contraction_check": "acceptance criterion 4",
    "spectral.combes_thomas_rate": "acceptance criterion 3",
    "operators.trimmed_restriction": "acceptance criterion 1",
    "dynamics.pmoment_probe": "acceptance criterion 6",
    "dynamics.laplace_moment_check": "acceptance criterion 7",
    "fracmoment.g_scaling_exponent": "acceptance criterion 8",
    "fracmoment.wegner_uniform_bound_probe": (
        "test convenience: the stacked eigen route's engine test reads it"
    ),
    "dynamics.moment_Mp": "test convenience: one M_p(x, t) as a float",
    "lattice.make_box": "test convenience: a box from dim, lo and hi",
    "lattice.components_of_complement": (
        "test convenience: the components of Gamma^c in a window"
    ),
}


def _unread_public_names(sources: dict[str, str]) -> list[str]:
    """"module.name" of each public module-level function and class of the
    modules in sources (module name -> source) that no code reads outside
    its own definition: neither its own module nor a sibling module, under
    the name a relative `from .module import name` binds."""
    trees = {module: ast.parse(source) for module, source in sources.items()}

    def loads(tree, skip=None) -> set[str]:
        inside = {id(n) for n in ast.walk(skip)} if skip else set()
        return {
            n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and id(n) not in inside
        }

    def bound(tree, module, name) -> set[str]:
        return {
            alias.asname or alias.name
            for imp in ast.walk(tree)
            if isinstance(imp, ast.ImportFrom) and imp.level == 1 and imp.module == module
            for alias in imp.names
            if alias.name == name
        }

    read_in = {module: loads(tree) for module, tree in trees.items()}
    unread = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("_"):
                continue
            read = node.name in loads(tree, node) or any(
                bound(other, module, node.name) & read_in[name]
                for name, other in trees.items()
                if name != module
            )
            if not read:
                unread.append(f"{module}.{node.name}")
    return sorted(unread)


def test_every_public_name_is_read_by_the_package_or_listed():
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert _unread_public_names(sources) == sorted(UNREAD_BY_SRC)


def test_unread_name_guard_sees_every_form():
    sources = {
        "a": (
            "def used_here(): pass\n"
            "def recursive(n):\n"
            "    return recursive(n - 1)\n"
            "def imported(): pass\n"
            "def imported_as(): pass\n"
            "def imported_unread(): pass\n"
            "class Annotated: pass\n"
            "class Shadowed: pass\n"
            "def _private(): pass\n"
            "x = used_here()\n"
        ),
        "b": (
            "from .a import Annotated, imported, imported_unread\n"
            "from .a import imported_as as alias\n"
            "def f(y: Annotated):\n"
            "    return imported() + alias()\n"
            "Shadowed = 1\n"
            "print(Shadowed)\n"
        ),
    }
    assert _unread_public_names(sources) == [
        "a.Shadowed", "a.imported_unread", "a.recursive", "b.f",
    ]


#: public class members that no code of the package reads, each with why
#: it stays; a member leaves this table once package code reads its name
MEMBERS_UNREAD_BY_SRC = {
    **dict.fromkeys(
        [
            "lattice.SublatticeMask.period",
            "lattice.Gamma1Mask.period",
            "lattice.Gamma2Mask.period",
            "lattice.PeriodicCellMask.period",
        ],
        "awaits its reader, the strip localisation lengths, whose strip "
        "width is a multiple of the mask's period",
    ),
    **dict.fromkeys(
        [
            "disorder.Uniform.regularity_C",
            "disorder.BernoulliMixture.regularity_C",
            "disorder.TruncatedCauchy.regularity_C",
            "disorder.DisorderSpec.moment_Mq",
        ],
        f"{AWAITS_READER}, which reads regularity_check against them",
    ),
    **dict.fromkeys(
        [
            "lattice.InsulationReport.witness",
            "lattice.InsulationReport.witness_distance",
            "lattice.InsulationReport.possibly_infinite",
        ],
        f"{AWAITS_READER}, which must not rest on the insulation flag alone",
    ),
    "anomalous.PeriodicEigenfunction.max_mask_value": "acceptance criterion 5",
}


def _unread_members(sources: dict[str, str]) -> list[str]:
    """"module.Class.member" of each public method, property, class
    attribute and dataclass field of the classes in sources (module name
    -> source) whose name no attribute access `obj.member` in any of them
    reads.  Like `_called_names`, the match is by name only."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = {
        node.attr
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
    }
    unread = []
    for module, tree in trees.items():
        for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
            for node in cls.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    names = [node.name]
                elif isinstance(node, ast.Assign):
                    names = [t.id for t in node.targets if isinstance(t, ast.Name)]
                elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                    names = [node.target.id]
                else:
                    continue
                unread += [
                    f"{module}.{cls.name}.{name}"
                    for name in names
                    if not name.startswith("_") and name not in read
                ]
    return sorted(unread)


def test_every_public_member_is_read_by_the_package_or_listed():
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert _unread_members(sources) == sorted(MEMBERS_UNREAD_BY_SRC)


def test_unread_member_guard_sees_every_form():
    sources = {
        "a": (
            "import functools\n"
            "from dataclasses import dataclass\n"
            "@dataclass\n"
            "class C:\n"
            "    field_read: int\n"
            "    field_unread: int = 0\n"
            "    attr_read = 1\n"
            "    attr_unread = 2\n"
            "    _private_attr: int = 3\n"
            "    def method_read(self): pass\n"
            "    def method_unread(self): pass\n"
            "    def _private(self): pass\n"
            "    @property\n"
            "    def prop_read(self): return self.field_read\n"
            "    @property\n"
            "    def prop_unread(self): pass\n"
            "    @functools.cached_property\n"
            "    def cached_read(self): pass\n"
            "    @functools.cached_property\n"
            "    def cached_unread(self): pass\n"
            "def method_unread(): pass\n"
        ),
        "b": (
            "from .a import C\n"
            "def f(c: C):\n"
            "    c.method_read()\n"
            "    return c.attr_read + c.prop_read + c.cached_read\n"
        ),
    }
    assert _unread_members(sources) == [
        "a.C.attr_unread", "a.C.cached_unread", "a.C.field_unread",
        "a.C.method_unread", "a.C.prop_unread",
    ]
