"""Conversion between config dataclasses and plain YAML/JSON data, and the
one reader of npz artifacts.

The dataclasses are the only description of the config format: ``from_plain``
follows their type hints, and every error names the dotted field path.
"""

from __future__ import annotations

import dataclasses
import types
import typing
import zipfile
from contextlib import contextmanager
from functools import cache
from typing import Iterator

import numpy as np

from .errors import ConfigurationError, DependencyError

# What numpy raises for a file or a member it cannot read as an array.
_UNREADABLE = (OSError, EOFError, ValueError, zipfile.BadZipFile)


def to_plain(value):
    """Dataclasses as dicts and tuples as lists, recursively."""

    if dataclasses.is_dataclass(value):
        return {f.name: to_plain(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if isinstance(value, (tuple, list)):
        return [to_plain(v) for v in value]
    return value


@cache
def _schema(cls: type) -> tuple[dict[str, object], frozenset[str]]:
    """A dataclass's field types and the names of its fields without a default."""

    hints = typing.get_type_hints(cls)
    fields = [f for f in dataclasses.fields(cls) if f.init]
    required = frozenset(f.name for f in fields if f.default is dataclasses.MISSING
                         and f.default_factory is dataclasses.MISSING)
    return {f.name: hints[f.name] for f in fields}, required


def from_plain(tp, value, where: str = ""):
    """A ``tp`` built from plain data: dataclasses, ``tuple[X, ...]``, fixed
    tuples, ``X | None``, ``str``, ``int`` and ``float`` (which also takes
    an int). A value of another type, or an unknown or missing key, raises
    ``ConfigurationError`` naming ``where``."""

    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin in (typing.Union, types.UnionType):
        if value is None and type(None) in args:
            return None
        (tp,) = [a for a in args if a is not type(None)]
        return from_plain(tp, value, where)
    if origin is tuple:
        if not isinstance(value, (list, tuple)):
            raise ConfigurationError(f"{where}: expected a list, got {value!r}")
        if args[-1] is Ellipsis:
            args = args[:1] * len(value)
        elif len(value) != len(args):
            raise ConfigurationError(
                f"{where}: expected {len(args)} items, got {len(value)}")
        return tuple(from_plain(t, v, f"{where}[{i}]")
                     for i, (t, v) in enumerate(zip(args, value)))
    if dataclasses.is_dataclass(tp):
        return _build(tp, value, where)
    if tp is float and type(value) is int:
        return float(value)
    if type(value) is not tp:
        raise ConfigurationError(
            f"{where}: expected {tp.__name__}, got {type(value).__name__} {value!r}")
    return value


def _build(cls: type, value, where: str):
    name = where or "the config"
    if not isinstance(value, dict):
        raise ConfigurationError(f"{name}: expected a mapping, got {value!r}")
    fields, required = _schema(cls)
    for problem, keys in (("unknown", set(value) - set(fields)),
                          ("missing", required - set(value))):
        if keys:
            raise ConfigurationError(f"{problem} key(s) {sorted(keys, key=str)} in {name}")
    kwargs = {k: from_plain(fields[k], v, f"{where}.{k}" if where else str(k))
              for k, v in value.items()}
    try:
        return cls(**kwargs)
    except ConfigurationError as exc:  # a section's own check
        if not where:
            raise
        raise ConfigurationError(f"{where}: {exc}") from exc


class NpzMembers:
    """The members of an open npz file. Reading a missing or unreadable
    member raises ``DependencyError`` naming the file and the member."""

    def __init__(self, path, data) -> None:
        self.path = path
        self.files = data.files
        self._data = data

    def __contains__(self, name: str) -> bool:
        return name in self._data

    def __getitem__(self, name: str) -> np.ndarray:
        try:
            return self._data[name]
        except KeyError:
            raise DependencyError(f"{self.path} has no member {name!r}") from None
        except _UNREADABLE as exc:
            raise DependencyError(
                f"{self.path}: cannot read member {name!r}: {exc}") from exc


@contextmanager
def read_npz(path) -> Iterator[NpzMembers]:
    """``np.load(path)`` without pickles, as the members of an npz archive.

    A file that is missing or not an npz archive raises ``DependencyError``
    naming it, as does reading a member that is missing or unreadable.
    """

    try:
        data = np.load(path, allow_pickle=False)
    except _UNREADABLE as exc:
        raise DependencyError(f"{path} is not a readable npz archive: {exc}") from exc
    if not isinstance(data, np.lib.npyio.NpzFile):
        raise DependencyError(f"{path} is not an npz archive")
    with data:
        yield NpzMembers(path, data)
