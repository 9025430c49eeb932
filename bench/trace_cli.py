"""Run one eulertop command with spans around its cross-module calls.

    PYTHONPATH=src python bench/trace_cli.py SPANS_FILE COMMAND_ID LOCAL_IMPORTS [arguments...]

Behaves like ``PYTHONPATH=src python -m eulertop.cli [arguments...]`` (same output, same
exit code) and, when the command ends, writes its spans and counters to
SPANS_FILE as JSON.  Which callables get a span follows the package's
import graph, not a list of names:

- every function one eulertop module binds from another is wrapped at the
  importing module;
- every function reached through a function-local import is wrapped at the
  module that defines it, so the import picks up the wrapper.  LOCAL_IMPORTS
  is the JSON list ``local_imports(src/eulertop)`` returns; the benchmark
  scans the sources once per run rather than once per command.

A span's name is ``<defining module>.<qualname>`` and its layer is the
defining module.  Classes are not wrapped: constructing one counts towards
the caller.  Two callables are counted rather than spanned:
``scipy.integrate.solve_ivp`` adds each result's ``nfev`` to
``<layer>.rhs_evals`` of the innermost open span, and the integrand passed
to ``periods.tanh_sinh`` adds one to ``periods.tanh_sinh.nodes`` per node.
"""

from __future__ import annotations

import ast
import functools
import importlib.abc
import json
import sys
import time
from pathlib import Path

PACKAGE = "eulertop"
LAYERS = ("cli", "core", "special", "periods", "dynamics", "monodromy")
ROOT_SPAN = 0  # the process span, recorded by the parent around the child


class Tracer:
    """In-memory spans and counters of one command."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (id, parent id, name, layer, t0, t1)
        self.stack: list[tuple[int, str]] = [(ROOT_SPAN, "cli")]
        self.counters: dict[str, int] = {}
        self.wrapped: list[str] = []
        self._next_id = ROOT_SPAN + 1

    def count(self, key: str, n: int) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def record(self, name: str, layer: str, t0: float, t1: float, parent: int) -> None:
        self.spans.append((self._next_id, parent, name, layer, t0, t1))
        self._next_id += 1

    def span(self, fn):
        layer = fn.__module__.rpartition(".")[2]
        name = f"{layer}.{fn.__qualname__}"
        self.wrapped.append(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = self.stack[-1][0]
            self.stack.append((sid, layer))
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                self.stack.pop()
                self.spans.append((sid, parent, name, layer, t0, t1))

        return wrapper

    def counting_solve_ivp(self, solve_ivp):
        @functools.wraps(solve_ivp)
        def wrapper(*args, **kwargs):
            sol = solve_ivp(*args, **kwargs)
            self.count(f"{self.stack[-1][1]}.rhs_evals", int(sol.nfev))
            return sol

        return wrapper

    def counting_tanh_sinh(self, tanh_sinh):
        key = f"{tanh_sinh.__module__.rpartition('.')[2]}.{tanh_sinh.__name__}.nodes"
        self.wrapped.append(key[: -len(".nodes")])

        @functools.wraps(tanh_sinh)
        def wrapper(g, *args, **kwargs):
            def counted(*gargs):
                self.count(key, 1)
                return g(*gargs)

            return tanh_sinh(counted, *args, **kwargs)

        return wrapper

    def dump(self, path: str, command_id: int) -> None:
        Path(path).write_text(json.dumps({
            "command_id": command_id,
            "spans": self.spans,
            "counters": self.counters,
            "wrapped": sorted(set(self.wrapped)),
        }))


class PatchOnImport(importlib.abc.MetaPathFinder):
    """Apply ``patch`` to module ``name`` right after it is first executed.

    This reaches a module whether eulertop imports it at start-up or lazily
    inside a function, without importing it any earlier than eulertop does.
    """

    def __init__(self, name: str, patch) -> None:
        self.name = name
        self.patch = patch

    def find_spec(self, fullname, path, target=None):
        if fullname != self.name:
            return None
        for finder in sys.meta_path:
            if finder is self or not hasattr(finder, "find_spec"):
                continue
            spec = finder.find_spec(fullname, path, target)
            if spec is not None:
                break
        else:
            return None
        exec_module = spec.loader.exec_module
        patch = self.patch

        def exec_and_patch(module):
            exec_module(module)
            patch(module)

        spec.loader.exec_module = exec_and_patch
        return spec


def _is_function(obj) -> bool:
    return callable(obj) and not isinstance(obj, type) and hasattr(obj, "__qualname__")


def local_imports(package_dir: Path) -> list[tuple[str, str]]:
    """(defining module, name) for each function-local ``from`` import in the package."""
    found = set()
    for source in sorted(package_dir.glob("*.py")):
        tree = ast.parse(source.read_text(encoding="utf-8"))
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(func):
                if not isinstance(node, ast.ImportFrom):
                    continue
                if node.level == 1 and node.module:
                    target = f"{PACKAGE}.{node.module}"
                elif node.level == 0 and (node.module or "").startswith(PACKAGE + "."):
                    target = node.module
                else:
                    continue
                found.update((target, alias.name) for alias in node.names)
    return sorted(found)


def instrument(tracer: Tracer, local: list) -> None:
    modules = {
        name: sys.modules[f"{PACKAGE}.{name}"] for name in LAYERS if f"{PACKAGE}.{name}" in sys.modules
    }
    package_names = {m.__name__ for m in modules.values()}
    # Collect every binding before changing any, so each wrapper wraps the
    # original function exactly once.
    bindings = {}
    for module in modules.values():
        for attr, obj in vars(module).items():
            owner = getattr(obj, "__module__", None)
            if _is_function(obj) and owner in package_names and owner != module.__name__:
                bindings[module.__name__, attr] = (module, obj)
    for target, attr in local:
        owner = sys.modules.get(target)
        obj = getattr(owner, attr, None)
        if owner is not None and _is_function(obj) and obj.__module__ == target:
            bindings[target, attr] = (owner, obj)
    for (_, attr), (module, obj) in bindings.items():
        setattr(module, attr, tracer.span(obj))
    periods = modules.get("periods")
    if periods is not None and _is_function(getattr(periods, "tanh_sinh", None)):
        periods.tanh_sinh = tracer.counting_tanh_sinh(periods.tanh_sinh)


def main() -> int:
    spans_file, command_id, local, argv = sys.argv[1], int(sys.argv[2]), json.loads(sys.argv[3]), sys.argv[4:]
    tracer = Tracer()

    def patch_integrate(module) -> None:
        module.solve_ivp = tracer.counting_solve_ivp(module.solve_ivp)

    sys.meta_path.insert(0, PatchOnImport("scipy.integrate", patch_integrate))
    sys.argv = [sys.argv[0], *argv]
    t0 = time.perf_counter()
    import eulertop.cli as cli

    tracer.record("cli.import", "cli", t0, time.perf_counter(), ROOT_SPAN)
    instrument(tracer, local)
    try:
        return cli.main(argv)
    finally:
        tracer.dump(spans_file, command_id)


if __name__ == "__main__":
    sys.exit(main())
