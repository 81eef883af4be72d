"""Guards on the package surface: the functions the benchmark's tracer
wraps by name still exist, and no public function takes a `threads`
argument (the engine is serial; only the CLI records a thread count)."""

from __future__ import annotations

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import trimlab

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


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
