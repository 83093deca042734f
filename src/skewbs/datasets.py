"""Bundled data and file loading.

The bundled dataset is the 28-household time-budget sample: minutes per
day spent on meals (first column) and on personal care (second column).
The printed source mixes two unit conventions, so values of 400 or more
are tenths of a minute; the canonicalized form divides those by 10,
which is the only reading under which the published column summaries
hold. ``raw=True`` preserves the printed values.
"""

from __future__ import annotations

import numpy as np

from .estimation import SampleMatrix

__all__ = ["VOLLE_PAIRS", "volle_sample", "load_table", "load_sample"]

VOLLE_PAIRS = (
    (115, 175), (100, 115), (130, 160), (115, 180), (119, 143), (100, 150),
    (960, 132), (150, 115), (142, 870), (180, 125), (152, 122), (174, 119),
    (140, 100), (147, 840), (105, 700), (950, 600), (130, 600), (105, 800),
    (117, 650), (850, 400), (102, 450), (100, 960), (920, 640), (128, 860),
    (102, 122), (107, 730), (860, 580), (940, 580),
)


def _canonicalize(values: np.ndarray) -> np.ndarray:
    # values >= 400 carry a spurious factor of 10
    return np.where(values >= 400.0, values / 10.0, values)


def volle_sample(raw: bool = False) -> SampleMatrix:
    """The bundled dataset, canonicalized unless raw is set."""
    data = np.array(VOLLE_PAIRS, dtype=float)
    if not raw:
        data = _canonicalize(data)
    return SampleMatrix(data)


def load_table(path, columns=None) -> np.ndarray:
    """Read a numeric table from a CSV or whitespace-delimited file.

    Lines starting with '#' and blank lines are skipped; one optional
    header row of column names is allowed. ``columns`` selects columns
    by zero-based index or by header name. Parse failures raise with
    the 1-based line number.
    """
    rows = []
    header = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            parts = [p for p in text.replace(",", " ").split() if p]
            try:
                rows.append([float(p) for p in parts])
            except ValueError:
                if header is None and not rows:
                    header = parts
                    continue
                raise ValueError(f"line {lineno}: could not parse {text!r}")
    if not rows:
        raise ValueError("no data rows found")
    width = len(rows[0])
    for i, row in enumerate(rows):
        if len(row) != width:
            raise ValueError(f"row {i + 1} has {len(row)} fields, expected {width}")
    return _select_columns(np.array(rows, dtype=float), columns, header)


def _select_columns(data: np.ndarray, columns, header=None) -> np.ndarray:
    """Columns of data by zero-based index or by header name, each at most once."""
    if columns is None:
        return data
    idx = []
    for c in columns:
        if isinstance(c, str):
            if header is None or c not in header:
                raise ValueError(f"unknown column name {c!r}")
            idx.append(header.index(c))
        else:
            if not 0 <= int(c) < data.shape[1]:
                raise ValueError(f"column index {c} out of range")
            idx.append(int(c))
        if idx[-1] in idx[:-1]:
            raise ValueError(f"column {c!r} selected more than once")
    return data[:, idx]


def load_sample(source, columns=None, raw: bool = False) -> SampleMatrix:
    """Load a SampleMatrix from a path, or the bundled set for "volle".

    Nonpositive entries are rejected with the offending row and column.
    """
    if isinstance(source, str) and source.lower() == "volle":
        sample = volle_sample(raw=raw)
        if columns is None:
            return sample
        return SampleMatrix(_select_columns(sample.data, columns))
    data = load_table(source, columns=columns)
    bad = np.argwhere(~(data > 0.0) | ~np.isfinite(data))
    if bad.size:
        r, c = bad[0]
        raise ValueError(
            f"nonpositive or non-finite value at row {r + 1}, column {c + 1}"
        )
    return SampleMatrix(data)
