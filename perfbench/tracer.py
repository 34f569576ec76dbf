"""Span tracer for the benchmark's traced run.

Spans are recorded from the benchmark's own code: :func:`install` replaces
the public functions named in :mod:`layers` with timing wrappers at class
(or module) level, and :func:`restore` puts the originals back.  The
program under test is never edited.

Every span has a name, a start, an end, a parent and the id of the
workload operation that was running when it opened.  Raw spans are kept in
memory up to :data:`RAW_CAP`; beyond it only the per ``(name, parent)``
aggregate grows, so workloads with millions of calls stay bounded.  A
span's self time is its duration minus the part of it that its child spans
cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import pkgutil
import sys
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any

_MISSING = object()

#: Raw spans kept for the written trace; the aggregate is never capped.
RAW_CAP = 50_000


class Tracer:
    """In-memory span store with incremental self-time aggregation.

    Spans nest strictly (the program is single-threaded), so the part of
    a span its children cover is the sum of their durations.
    """

    def __init__(self) -> None:
        self.active = False
        self.op_id = 0
        # (name, parent name) -> [calls, total seconds, self seconds]
        self.agg: dict[tuple[str, str | None], list] = {}
        # [name, start, end, parent raw index, op id]
        self.raw: list[list] = []
        # name -> [observations, sum] of a per-call size probe
        self.probes: dict[str, list] = {}
        self._stack: list[list] = []

    # ------------------------------------------------------------------
    def enter(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else None
        index = -1
        start = perf_counter()
        if len(self.raw) < RAW_CAP:
            index = len(self.raw)
            self.raw.append(
                [name, start, start,
                 parent[3] if parent is not None else -1, self.op_id]
            )
        # frame: [name, start, covered by children, raw index]
        frame = [name, start, 0.0, index]
        self._stack.append(frame)
        return frame

    def exit(self, frame: list) -> None:
        end = perf_counter()
        if self._stack.pop() is not frame:
            raise RuntimeError(f"span {frame[0]!r} closed out of order")
        name, start, covered, index = frame
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += duration
        if index >= 0:
            self.raw[index][2] = end
        key = (name, parent[0] if parent is not None else None)
        row = self.agg.get(key)
        if row is None:
            row = self.agg[key] = [0, 0.0, 0.0]
        row[0] += 1
        row[1] += duration
        row[2] += duration - covered

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def probe(self, name: str, value: float) -> None:
        row = self.probes.get(name)
        if row is None:
            row = self.probes[name] = [0, 0.0]
        row[0] += 1
        row[1] += value

    # ------------------------------------------------------------------
    def by_name(self) -> dict[str, tuple[int, float, float]]:
        """``name -> (calls, total seconds, self seconds)`` over parents."""
        out: dict[str, list] = {}
        for (name, _parent), (calls, total, own) in self.agg.items():
            row = out.setdefault(name, [0, 0.0, 0.0])
            row[0] += calls
            row[1] += total
            row[2] += own
        return {name: (row[0], row[1], row[2]) for name, row in out.items()}

    def write(self, path: Path) -> None:
        """Write the aggregate and the raw spans as JSON."""
        path.parent.mkdir(parents=True, exist_ok=True)
        document = {
            "aggregate": [
                {"name": name, "parent": parent, "calls": calls,
                 "total_s": total, "self_s": own}
                for (name, parent), (calls, total, own) in sorted(
                    self.agg.items(), key=lambda kv: (kv[0][0], str(kv[0][1]))
                )
            ],
            "span_fields": ["name", "start", "end", "parent", "op_id"],
            "raw_cap": RAW_CAP,
            "spans": self.raw,
        }
        path.write_text(json.dumps(document, separators=(",", ":")))


class _Span:
    __slots__ = ("_tracer", "_name", "_frame")

    def __init__(self, tracer: Tracer, name: str) -> None:
        self._tracer = tracer
        self._name = name

    def __enter__(self) -> _Span:
        self._frame = self._tracer.enter(self._name)
        return self

    def __exit__(self, *exc: Any) -> None:
        self._tracer.exit(self._frame)


# ----------------------------------------------------------------------
# wrapping
# ----------------------------------------------------------------------
def _wrap(
    tracer: Tracer,
    name: str,
    fn: Callable,
    probe: Callable[..., float] | None,
) -> Callable:
    enter, exit_ = tracer.enter, tracer.exit

    if probe is None:
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            frame = enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_(frame)
    else:
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            frame = enter(name)
            try:
                # inside the span, so the probe's cost is charged here and
                # not to the caller
                tracer.probe(name, probe(*args, **kwargs))
                return fn(*args, **kwargs)
            finally:
                exit_(frame)

    return functools.update_wrapper(wrapper, fn)


@dataclass
class Installed:
    """What :func:`install` replaced, so :func:`restore` can undo it."""

    # (owner, attribute, value before this patch or _MISSING), in order
    patches: list[tuple[Any, str, Any]] = field(default_factory=list)

    def originals_back(self) -> bool:
        """True iff every patched attribute holds its original again."""
        first: dict[tuple[int, str], tuple[Any, str, Any]] = {}
        for owner, attr, original in self.patches:
            first.setdefault((id(owner), attr), (owner, attr, original))
        return all(
            vars(owner).get(attr, _MISSING) is original
            for owner, attr, original in first.values()
        )


def install(tracer: Tracer, targets) -> Installed:
    """Wrap every :class:`layers.Target` for ``tracer``.

    A method is replaced in its class's ``__dict__``.  A module-level
    function is replaced in every ``repro`` module that bound it by name,
    and inside any module-level tuple that lists it (the verifier's check
    table).  Every ``repro`` module is imported first, because a module
    imported later would bind the unwrapped function and its calls would
    silently go missing from the trace.
    """
    package = importlib.import_module("repro")
    for info in pkgutil.walk_packages(package.__path__, "repro."):
        if not info.name.endswith(".__main__"):  # that one runs the CLI
            importlib.import_module(info.name)
    installed = Installed()
    for target in targets:
        module = importlib.import_module(target.module)
        if target.cls is not None:
            owner = getattr(module, target.cls)
            fn = getattr(owner, target.attr)
            installed.patches.append(
                (owner, target.attr, vars(owner).get(target.attr, _MISSING))
            )
            setattr(owner, target.attr,
                    _wrap(tracer, target.name, fn, target.probe))
            continue
        fn = getattr(module, target.attr)
        wrapper = _wrap(tracer, target.name, fn, target.probe)
        for mod_name, mod in sorted(sys.modules.items()):
            if mod is None or not mod_name.startswith("repro"):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    installed.patches.append((mod, attr, value))
                    setattr(mod, attr, wrapper)
                elif isinstance(value, tuple) and _lists(value, fn):
                    installed.patches.append((mod, attr, value))
                    setattr(mod, attr, _swap(value, fn, wrapper))
        if getattr(module, target.attr) is not wrapper:
            raise RuntimeError(f"{target.name}: {target.attr} not rebound")
    return installed


def _lists(value: tuple, fn: Callable) -> bool:
    return any(
        item is fn or (isinstance(item, tuple) and _lists(item, fn))
        for item in value
    )


def _swap(value: tuple, fn: Callable, wrapper: Callable) -> tuple:
    return tuple(
        wrapper if item is fn
        else _swap(item, fn, wrapper) if isinstance(item, tuple)
        else item
        for item in value
    )


def restore(installed: Installed) -> None:
    """Undo :func:`install`, newest patch first."""
    for owner, attr, original in reversed(installed.patches):
        if original is _MISSING:
            delattr(owner, attr)
        else:
            setattr(owner, attr, original)
