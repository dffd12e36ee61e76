"""Conversion between config dataclasses and plain YAML/JSON data, the one
writer and reader of versioned npz artifacts, and atomic file writes.

The dataclasses are the only description of the config format: ``from_plain``
follows their type hints, and every error names the dotted field path.
"""

from __future__ import annotations

import dataclasses
import os
import types
import typing
import zipfile
from contextlib import contextmanager
from functools import cache
from pathlib import Path
from typing import IO, Iterator

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


class NpzMembers(dict):
    """The members of an npz file, by name; reading a missing member raises
    ``DependencyError`` naming the file and the member."""

    def __init__(self, path, members: dict[str, np.ndarray]) -> None:
        super().__init__(members)
        self.path = path

    def __missing__(self, name: str):
        raise DependencyError(f"{self.path} has no member {name!r}")

    def array(self, name: str, shape: tuple[int | None, ...],
              kinds: str = "iuf") -> np.ndarray:
        """The member ``name``, which must have ``shape`` (None: any length
        on that axis) and a dtype of one of the numpy ``kinds``; otherwise
        ``DependencyError`` naming the file and the member."""

        found = self[name]
        if (found.ndim != len(shape) or found.dtype.kind not in kinds
                or any(n not in (None, m) for n, m in zip(shape, found.shape))):
            expected = ", ".join("n" if n is None else str(n) for n in shape)
            raise DependencyError(
                f"{self.path}: {name} is a {found.dtype} array of shape "
                f"{found.shape}, expected ({expected}) of kind {kinds!r}")
        return found

    def columns(self, ranks: dict[str, int]) -> int:
        """The row count shared by the numeric columns ``ranks`` (member
        name -> rank); a column of another rank or kind, or columns of
        unequal row counts, raise ``DependencyError`` naming the file."""

        rows = {name: len(self.array(name, (None,) * rank))
                for name, rank in ranks.items()}
        if len(set(rows.values())) > 1:
            raise DependencyError(f"{self.path} has columns of unequal length: {rows}")
        return rows[next(iter(ranks))]


@contextmanager
def atomic_open(path, mode: str = "w", **kwargs) -> Iterator[IO]:
    """``open`` on a ``.tmp`` sibling of ``path`` that replaces ``path`` when
    the block ends. If the block raises, the sibling is removed and a file
    already at ``path`` is left as it was."""

    tmp = Path(f"{path}.tmp")
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def copy_file(src, dst) -> None:
    """Copy the bytes of ``src`` to ``dst`` through ``atomic_open``."""

    with open(src, "rb") as fh, atomic_open(dst, "wb") as out:
        out.write(fh.read())


def write_npz(path, version: int, members: dict[str, np.ndarray]) -> None:
    """Write ``path`` (no ``.npz`` is appended) as an npz archive whose
    members are ``version`` and then ``members`` in order."""

    with atomic_open(path, "wb") as fh:
        np.savez(fh, allow_pickle=False, version=np.array(version), **members)


def read_npz(path, version: int) -> NpzMembers:
    """Every member of the npz archive at ``path``, read without pickles.

    A file that is missing or not an npz archive, a member that cannot be
    read, and a ``version`` member that is missing or is not the integer
    ``version`` raise ``DependencyError`` naming the file.
    """

    try:
        data = np.load(path, allow_pickle=False)
        if not isinstance(data, np.lib.npyio.NpzFile):
            raise DependencyError(f"{path} is not an npz archive")
        with data:
            members = NpzMembers(path, {name: data[name] for name in data.files})
    except FileNotFoundError as exc:
        raise DependencyError(f"missing {path}") from exc
    except _UNREADABLE as exc:
        raise DependencyError(f"{path} is not a readable npz archive: {exc}") from exc
    found = members["version"]
    if found.shape or found.dtype.kind not in "iu" or found != version:
        raise DependencyError(
            f"{path} is version {found.tolist()!r}, expected version {version}")
    return members
