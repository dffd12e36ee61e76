"""CSV files written a column at a time.

``write_csv`` writes the bytes that ``csv.writer`` (excel dialect) writes
for the same rows of Python values: ``repr`` of each float, ``str`` of
every other value, and ``\\r\\n`` after each line. Each block of rows is
formatted column by column, with one ``repr`` per distinct value, and
joined by hand. The values written here are numbers and plain names, so
no field needs quoting.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .codec import atomic_open

LINE_END = "\r\n"


def column_text(values: np.ndarray) -> list[str]:
    """The csv text of each value of a 1-D column.

    Distinct values are formatted once each. Floats are told apart by
    their bits, not by equality, so ``-0.0`` and ``0.0`` keep their own
    text.
    """

    values = np.asarray(values)
    if values.dtype.kind == "f":
        bits = np.ascontiguousarray(values, dtype=np.float64).view(np.int64)
        distinct, inverse = np.unique(bits, return_inverse=True)
        text = list(map(repr, distinct.view(np.float64).tolist()))
    else:
        distinct, inverse = np.unique(values, return_inverse=True)
        text = list(map(str, distinct.tolist()))
    return np.array(text, dtype=object)[inverse].tolist()


def rows_text(columns: Sequence[np.ndarray | list[str]]) -> str:
    """The csv lines of the rows of equal-length columns: 1-D arrays of
    values, or lists of text already formatted; columns of unequal length
    raise ``ValueError``."""

    texts = [c if isinstance(c, list) else column_text(c) for c in columns]
    text = LINE_END.join(map(",".join, zip(*texts, strict=True)))
    return text + LINE_END if text else text


def write_csv(
    path, header: Sequence[str], blocks: Iterable[Sequence[np.ndarray | list[str]]]
) -> None:
    """Write the header line, then the rows of each block of columns in
    turn; only one block's text is held at a time. The file appears under
    ``path`` only once every block is written."""

    with atomic_open(path, "w", newline="") as fh:
        fh.write(",".join(header) + LINE_END)
        for columns in blocks:
            fh.write(rows_text(columns))
