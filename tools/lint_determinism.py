#!/usr/bin/env python3
"""Determinism lint: forbid nondeterminism sources inside ``src/repro``.

The simulator's contract (PR 1) is bit-identical runs for identical seeds.
That contract is easy to break silently — one ``random.random()`` in a code
path, one ``hash()``-derived seed (salted per process via PYTHONHASHSEED),
one ``os.environ`` read changing behaviour between machines.  This linter
walks the AST of every file under ``src/repro`` and rejects:

``unseeded-random``
    Calls of module-level ``random.*`` functions (``random.random()``,
    ``random.choice()``, ...).  Constructing an explicitly seeded
    ``random.Random(seed)`` instance is fine — all randomness must flow
    through such instances (or :func:`repro.sim.rng.make_rng`).
``wall-clock``
    ``time.time()`` / ``time.time_ns()`` and ``datetime`` ``now()`` /
    ``utcnow()`` / ``today()``.  Simulated time comes from the event loop;
    ``time.perf_counter()`` stays allowed because it measures *host*
    compute cost, which is reported but never fed back into the model.
``hash-builtin``
    The ``hash()`` builtin.  Its output for strings is salted per process,
    so seeds or orderings derived from it differ across runs.
``env-dependent``
    ``os.environ`` / ``os.getenv`` reads.  Behaviour must be a function of
    explicit arguments, not of ambient environment.
``module-counter``
    An ``itertools.count(...)`` created outside a function body: a
    sequence shared by every deployment in the process, so an id would
    depend on what ran before.  Ids come from the deployment's
    ``sim.ids`` allocator instead.
``global-rebind``
    Any ``global`` statement: module-level state rebound at run time
    leaks between deployments the same way.
``class-counter``
    An augmented assignment to an attribute of a class defined in the
    same module (``Bundle._next_serial += 1``): a class attribute is one
    value for the whole process, so a counter kept there numbers every
    deployment's objects in one sequence.

``src/repro/sim/rng.py`` is allowlisted wholesale: it is the one sanctioned
wrapper around the ``random`` module.  Individual lines elsewhere can be
exempted with a ``# determinism: allow`` comment, which this linter treats
as an audited, deliberate exception.

Usage::

    python tools/lint_determinism.py [ROOT ...]

with ``src/repro`` as the default root.  Exits 1 when violations exist.
The module is importable (``check_file``, ``lint_paths``) for tests.
"""

from __future__ import annotations

import ast
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

__all__ = ["LintViolation", "check_file", "check_source", "lint_paths", "main"]

#: Files (relative to the scanned root) that wrap ``random`` on purpose.
ALLOWED_FILES = frozenset({Path("sim/rng.py")})

#: Marker comment that exempts a single line.
ALLOW_MARKER = "# determinism: allow"

_RANDOM_MODULE_ALLOWED = frozenset({"Random", "SystemRandom"})
_TIME_BANNED = frozenset({"time", "time_ns"})
_DATETIME_BANNED = frozenset({"now", "utcnow", "today", "fromtimestamp"})


@dataclass(frozen=True)
class LintViolation:
    """One banned construct at one source location."""

    path: str
    line: int
    rule: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


class _Visitor(ast.NodeVisitor):
    def __init__(
        self, path: str, source_lines: list[str], classes: frozenset[str]
    ) -> None:
        self.path = path
        self.source_lines = source_lines
        # names of the classes the module defines (any nesting level)
        self._classes = classes
        self.violations: list[LintViolation] = []
        # names bound to the itertools module / to itertools.count
        self._itertools = {"itertools"}
        self._count: set[str] = set()
        self._function_depth = 0

    # ------------------------------------------------------------------
    def _allowed(self, node: ast.AST) -> bool:
        line = getattr(node, "lineno", 0)
        if not 1 <= line <= len(self.source_lines):
            return False
        return ALLOW_MARKER in self.source_lines[line - 1]

    def _flag(self, node: ast.AST, rule: str, message: str) -> None:
        if not self._allowed(node):
            self.violations.append(
                LintViolation(self.path, node.lineno, rule, message)
            )

    # ------------------------------------------------------------------
    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.name == "itertools":
                self._itertools.add(alias.asname or alias.name)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "itertools":
            for alias in node.names:
                if alias.name == "count":
                    self._count.add(alias.asname or alias.name)

    def _in_function(self, node: ast.AST) -> None:
        self._function_depth += 1
        self.generic_visit(node)
        self._function_depth -= 1

    visit_FunctionDef = visit_AsyncFunctionDef = visit_Lambda = _in_function

    def visit_Global(self, node: ast.Global) -> None:
        self._flag(
            node,
            "global-rebind",
            f"global {', '.join(node.names)} rebinds module state shared "
            f"by every deployment; keep it on an object the caller owns",
        )

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        target = node.target
        if (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id in self._classes
        ):
            self._flag(
                node,
                "class-counter",
                f"{target.value.id}.{target.attr} is class state shared by "
                f"every deployment in the process; keep the count on an "
                f"object the deployment owns",
            )
        self.generic_visit(node)

    def _is_count(self, func: ast.expr) -> bool:
        if isinstance(func, ast.Name):
            return func.id in self._count
        return (
            isinstance(func, ast.Attribute)
            and func.attr == "count"
            and isinstance(func.value, ast.Name)
            and func.value.id in self._itertools
        )

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if self._function_depth == 0 and self._is_count(func):
            self._flag(
                node,
                "module-counter",
                "itertools.count() outside a function is one sequence "
                "for the whole process; mint ids from the deployment's "
                "sim.ids allocator",
            )
        if isinstance(func, ast.Attribute) and isinstance(
            func.value, ast.Name
        ):
            module, attr = func.value.id, func.attr
            if (
                module == "random"
                and attr not in _RANDOM_MODULE_ALLOWED
            ):
                self._flag(
                    node,
                    "unseeded-random",
                    f"random.{attr}() uses the shared unseeded RNG; "
                    f"thread an explicit random.Random(seed) instead",
                )
            elif module == "time" and attr in _TIME_BANNED:
                self._flag(
                    node,
                    "wall-clock",
                    f"time.{attr}() reads the wall clock; use the "
                    f"simulator's clock (sim.now) or time.perf_counter() "
                    f"for host-cost measurement",
                )
            elif module in {"datetime", "date"} and attr in _DATETIME_BANNED:
                self._flag(
                    node,
                    "wall-clock",
                    f"{module}.{attr}() reads the wall clock",
                )
            elif module == "os" and attr == "getenv":
                self._flag(
                    node,
                    "env-dependent",
                    "os.getenv() makes behaviour depend on the ambient "
                    "environment; accept an explicit argument instead",
                )
        elif isinstance(func, ast.Attribute) and isinstance(
            func.value, ast.Attribute
        ):
            # datetime.datetime.now() / datetime.date.today()
            inner = func.value
            if (
                isinstance(inner.value, ast.Name)
                and inner.value.id == "datetime"
                and func.attr in _DATETIME_BANNED
            ):
                self._flag(
                    node,
                    "wall-clock",
                    f"datetime.{inner.attr}.{func.attr}() reads the wall "
                    f"clock",
                )
        elif isinstance(func, ast.Name) and func.id == "hash":
            self._flag(
                node,
                "hash-builtin",
                "hash() is salted per process (PYTHONHASHSEED); derive "
                "seeds/orderings from zlib.crc32 or explicit keys",
            )
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if (
            isinstance(node.value, ast.Name)
            and node.value.id == "os"
            and node.attr == "environ"
        ):
            self._flag(
                node,
                "env-dependent",
                "os.environ makes behaviour depend on the ambient "
                "environment; accept an explicit argument instead",
            )
        self.generic_visit(node)


def check_source(source: str, path: str = "<string>") -> list[LintViolation]:
    """Lint one source string; ``path`` is used for reporting only."""
    tree = ast.parse(source, filename=path)
    classes = frozenset(
        node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
    )
    visitor = _Visitor(path, source.splitlines(), classes)
    visitor.visit(tree)
    return sorted(visitor.violations, key=lambda v: (v.line, v.rule))


def check_file(path: Path) -> list[LintViolation]:
    return check_source(path.read_text(encoding="utf-8"), str(path))


def _python_files(root: Path) -> Iterator[Path]:
    if root.is_file():
        yield root
        return
    yield from sorted(root.rglob("*.py"))


def lint_paths(roots: Iterable[Path]) -> list[LintViolation]:
    violations: list[LintViolation] = []
    for root in roots:
        root = Path(root)
        for path in _python_files(root):
            relative = path.relative_to(root) if root.is_dir() else path
            if relative in ALLOWED_FILES:
                continue
            violations.extend(check_file(path))
    return violations


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    roots = [Path(arg) for arg in argv] or [Path("src/repro")]
    missing = [root for root in roots if not root.exists()]
    if missing:
        for root in missing:
            print(f"error: no such path: {root}", file=sys.stderr)
        return 2
    violations = lint_paths(roots)
    for violation in violations:
        print(violation)
    if violations:
        print(
            f"determinism lint: {len(violations)} violation(s)",
            file=sys.stderr,
        )
        return 1
    print(f"determinism lint: OK ({', '.join(str(r) for r in roots)})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
