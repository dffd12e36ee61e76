"""Span tracer that times calls into a package's functions from outside.

A ``Tracer`` replaces each target function with a timing wrapper at every
place the function is reachable: its home module, every module that
imported it by name, or its class for methods. ``uninstall`` puts every
original object back. Spans are kept in memory as parallel lists
(function, parent span, request, start, end) and summarised after the run.

Self time of a span is its duration minus the durations of its direct
child spans; calls are single-threaded and nested, so children never
overlap.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass
from types import ModuleType
from typing import Callable, Iterable, Sequence

WRAPPED_MARK = "_perfbench_original"


@dataclass(frozen=True)
class Target:
    """One function to trace: ``label`` names it in the metrics."""

    label: str
    home: ModuleType
    qualname: str  # "func" or "Class.method"


def _resolve(target: Target):
    """(owner, attribute name, raw attribute) of a target in its home module."""

    parts = target.qualname.split(".")
    owner = target.home
    for part in parts[:-1]:
        owner = getattr(owner, part)
    name = parts[-1]
    raw = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
    return owner, name, raw


class Tracer:
    """Install timing wrappers, record spans, restore the originals."""

    def __init__(
        self,
        targets: Sequence[Target],
        modules: Iterable[ModuleType],
        flop_counters: dict[str, Callable] | None = None,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self.targets = list(targets)
        self.modules = list(modules)
        self.labels = [t.label for t in self.targets]
        self.flop_counters = flop_counters or {}
        self.clock = clock
        self.flops = 0
        self.request = 0
        self.span_fn: list[int] = []
        self.span_parent: list[int] = []
        self.span_request: list[int] = []
        self.span_start: list[float] = []
        self.span_end: list[float] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer is already installed")
        for fid, target in enumerate(self.targets):
            owner, name, raw = _resolve(target)
            if isinstance(owner, type):
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(fid, raw.__func__))
                else:
                    wrapped = self._wrap(fid, raw)
                self._patch(owner, name, wrapped)
                continue
            wrapped = self._wrap(fid, raw)
            for module in self.modules:
                for attr, value in list(vars(module).items()):
                    if value is raw:
                        self._patch(module, attr, wrapped)

    def _patch(self, owner, attr: str, wrapped) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def leftover_wrappers(self) -> list[str]:
        """Names of any wrapper still reachable from the traced modules."""

        found = []
        for module in self.modules:
            for attr, value in vars(module).items():
                if hasattr(value, WRAPPED_MARK):
                    found.append(f"{module.__name__}.{attr}")
                if isinstance(value, type) and value.__module__ == module.__name__:
                    for name, member in vars(value).items():
                        func = getattr(member, "__func__", member)
                        if hasattr(func, WRAPPED_MARK):
                            found.append(f"{module.__name__}.{attr}.{name}")
        return found

    # -- recording ----------------------------------------------------------

    def _wrap(self, fid: int, fn: Callable) -> Callable:
        count_flops = self.flop_counters.get(self.labels[fid])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if count_flops is not None:
                self.flops += count_flops(*args, **kwargs)
            idx = len(self.span_fn)
            self.span_fn.append(fid)
            self.span_parent.append(self._stack[-1] if self._stack else -1)
            self.span_request.append(self.request)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
            self._stack.append(idx)
            start = self.clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = self.clock()
                self._stack.pop()
                self.span_start[idx] = start
                self.span_end[idx] = end

        setattr(wrapper, WRAPPED_MARK, fn)
        return wrapper

    # -- summaries ----------------------------------------------------------

    def summary(self, request: int | None = None) -> dict[str, dict[str, float]]:
        """Per label: ``calls``, ``total_s`` and ``self_s`` (optionally one request)."""

        n = len(self.labels)
        calls = [0] * n
        total = [0.0] * n
        child = [0.0] * n
        for i, fid in enumerate(self.span_fn):
            if request is not None and self.span_request[i] != request:
                continue
            dur = self.span_end[i] - self.span_start[i]
            calls[fid] += 1
            total[fid] += dur
            parent = self.span_parent[i]
            if parent >= 0:
                child[self.span_fn[parent]] += dur
        return {
            label: {"calls": calls[f], "total_s": total[f],
                    "self_s": total[f] - child[f]}
            for f, label in enumerate(self.labels)
        }

    def child_time(self, parent_label: str, request: int | None = None) -> dict[str, float]:
        """Time spent in each label's spans directly under ``parent_label`` spans."""

        pid = self.labels.index(parent_label)
        out: dict[str, float] = {}
        for i, fid in enumerate(self.span_fn):
            parent = self.span_parent[i]
            if parent < 0 or self.span_fn[parent] != pid:
                continue
            if request is not None and self.span_request[i] != request:
                continue
            label = self.labels[fid]
            out[label] = out.get(label, 0.0) + self.span_end[i] - self.span_start[i]
        return out

    def save(self, path) -> None:
        """Write every recorded span to an ``.npz`` file."""

        import numpy as np

        np.savez(
            path,
            labels=np.array(self.labels),
            fn=np.array(self.span_fn, dtype=np.int32),
            parent=np.array(self.span_parent, dtype=np.int64),
            request=np.array(self.span_request, dtype=np.int32),
            start=np.array(self.span_start),
            end=np.array(self.span_end),
        )
