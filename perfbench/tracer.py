"""In-memory span recording, self-time arithmetic and attach points.

A traced run records one span per call at each layer boundary: its name,
start, end, the span that was open when it began (its parent), the run id,
and optional attributes such as the model block. Spans stay in memory and
are written out when the run ends.

Attach points are functions or methods of the program, named from outside
(``dmst.model._layer_norm``). The benchmark wraps them for the length of a
run and restores them afterwards; an attach point the program no longer
has is reported as missing instead of failing the run.
"""

from __future__ import annotations

import importlib
import sys
import time
from typing import Callable, Iterable


class Span:
    __slots__ = ("name", "start", "end", "parent", "attrs")

    def __init__(self, name: str, start: float, end: float, parent: int, attrs: dict | None):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.attrs = attrs

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans; parent is the index of the enclosing span or -1."""

    def __init__(self, run_id: str, clock: Callable[[], float] = time.perf_counter):
        self.run_id = run_id
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def open(self, name: str, attrs: dict | None = None) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, self.clock(), float("nan"), parent, attrs))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        if not self._stack or self._stack[-1] != idx:
            raise RuntimeError(f"span {self.spans[idx].name!r} closed out of order")
        self._stack.pop()
        self.spans[idx].end = self.clock()

    def record(self, name: str, start: float, end: float, attrs: dict | None = None) -> None:
        """Add a finished leaf span under the span open now."""
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, start, end, parent, attrs))

    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict, attrs: dict | None = None):
        """Run ``fn`` inside a span of its own."""
        idx = self.open(name, attrs)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(idx)

    def to_records(self) -> list[dict]:
        return [
            {
                "name": s.name,
                "start": s.start,
                "end": s.end,
                "parent": s.parent,
                "run_id": self.run_id,
                **({"attrs": s.attrs} if s.attrs else {}),
            }
            for s in self.spans
        ]


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return [
        s.duration - _covered(children.get(i, []), s.start, s.end)
        for i, s in enumerate(spans)
    ]


PACKAGE = "dmst"


class Attachments:
    """Wraps named functions of the package and puts the originals back."""

    def __init__(self):
        self.missing: list[str] = []
        self._undo: list[tuple[object, str, object]] = []

    @staticmethod
    def _modules() -> Iterable:
        for name, mod in list(sys.modules.items()):
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + ".")):
                yield mod

    def function(self, target: str, make_wrapper: Callable, everywhere: bool = True) -> bool:
        """Wrap ``module.attr``; with ``everywhere`` also rebind every name
        in the package that refers to the same function (``from x import f``).
        """
        module_name, _, attr = target.rpartition(".")
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            module = None
        original = getattr(module, attr, None) if module is not None else None
        if not callable(original):
            self.missing.append(target)
            return False
        wrapper = make_wrapper(original)
        homes = self._modules() if everywhere else [module]
        for mod in homes:
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, name, original))
                    setattr(mod, name, wrapper)
        return True

    def method(self, target: str, make_wrapper: Callable) -> bool:
        """Wrap ``module.Class.method`` on the class itself."""
        owner_name, _, attr = target.rpartition(".")
        module_name, _, cls_name = owner_name.rpartition(".")
        try:
            cls = getattr(importlib.import_module(module_name), cls_name, None)
        except ImportError:
            cls = None
        original = vars(cls).get(attr) if isinstance(cls, type) else None
        if not callable(original):
            self.missing.append(target)
            return False
        self._undo.append((cls, attr, original))
        setattr(cls, attr, make_wrapper(original))
        return True

    def restore(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)
