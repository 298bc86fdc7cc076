"""CSV serialization of cohorts.

One row per patient: id, age_years, los_days, total_cost, tbsa_pct,
theatre_visits, site_01_area..site_27_area, site_01_depth..site_27_depth,
then any extra feature columns. Empty cell = missing; UTF-8; "." decimal
separator. Floats are written with Python's shortest round-trip repr and
theatre_visits as an integer, so a write/read/write cycle is byte-identical.

Extra-column kinds are inferred on read: a column is numeric when every
non-empty cell parses as a float, else categorical. Categorical values must
therefore not all look like numbers (true for everything this package emits).

Numeric cells are checked as they are parsed: every one must be finite, the
core and site-area columns must be non-negative and tbsa_pct at most 100;
depth cells must name a depth level. A bad cell raises InvalidArgument naming
the row id and the column. Parsing and writing work a column at a time.
"""

from __future__ import annotations

import csv
import hashlib
import io
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .domain import CORE_NUMERIC_FIELDS, DEPTH_LEVELS, MISSING_DEPTH, N_SITES, Dataset
from .errors import InvalidArgument

_CORE_COLUMNS = ("id", *CORE_NUMERIC_FIELDS)
_AREA_COLUMNS = tuple(f"site_{i + 1:02d}_area" for i in range(N_SITES))
_DEPTH_COLUMNS = tuple(f"site_{i + 1:02d}_depth" for i in range(N_SITES))
_HEADER = _CORE_COLUMNS + _AREA_COLUMNS + _DEPTH_COLUMNS
_MAX = sys.float_info.max
_BOUNDS = {"tbsa_pct": (0.0, 100.0)}  # other core numerics and site areas: [0, max]
_DEPTH_CODE = {"": MISSING_DEPTH, **{d.value: i for i, d in enumerate(DEPTH_LEVELS)}}
_DEPTH_CELLS = np.array([d.value for d in DEPTH_LEVELS] + [""], dtype=object)  # code -1 -> ""


def _float_cells(col: np.ndarray) -> list[str]:
    """Cells of a float column; nan (missing) is written as the empty cell.
    Each distinct bit pattern is formatted once."""
    bits, idx = np.unique(col.view(np.int64), return_inverse=True)
    cells = np.array([repr(v) for v in bits.view(np.float64).tolist()], dtype=object)
    cells[np.isnan(bits.view(np.float64))] = ""
    return cells[idx].tolist()


def cohort_csv_text(ds: Dataset) -> str:
    """Render a dataset as CSV text (used for files and for hashing)."""
    columns = [ds.ids.tolist()]
    columns += [_float_cells(col) for col in ds.numerics[:-1]]
    columns.append(["" if v != v else str(int(v)) for v in ds.numerics[-1].tolist()])
    columns += [_float_cells(col) for col in ds.site_areas]
    columns += [_DEPTH_CELLS[codes].tolist() for codes in ds.site_depths]
    for col in ds.extras.values():
        if col.dtype == np.float64:
            columns.append(_float_cells(col))
        else:
            columns.append(["" if v is None else v for v in col.tolist()])
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_HEADER + tuple(ds.extras))
    writer.writerows(zip(*columns))
    return buf.getvalue()


def write_cohort_csv(ds: Dataset, path: str | Path) -> None:
    Path(path).write_text(cohort_csv_text(ds), encoding="utf-8")


def read_cohort_csv(path: str | Path) -> Dataset:
    """Parse a cohort CSV back into a Dataset (inverse of write_cohort_csv)."""
    text = Path(path).read_text(encoding="utf-8")
    return parse_cohort_csv(text)


@dataclass
class _Column:
    """One parsed column: its values and the first row whose cell is bad
    (``len(cells)`` when none is), with the error for that cell."""

    values: np.ndarray
    bad_row: int
    error: str = ""
    all_numbers: bool = True


def _numeric_column(cells, lo: float, hi: float) -> _Column:
    """Parse a numeric column; every non-empty cell must be a number in
    [lo, hi], which also rejects nan and the infinities. Each distinct cell
    is parsed and checked once."""
    values = dict.fromkeys(cells)  # distinct cells, in order of first appearance
    errors = {}
    for cell in values:
        try:
            value = float(cell) if cell else np.nan
        except ValueError:
            errors[cell] = f"{cell!r} is not a number"
            continue
        values[cell] = value
        if cell and not lo <= value <= hi:
            errors[cell] = f"{cell!r} is not in [{lo:g}, {hi:g}]"
    if not errors:
        column = np.fromiter(map(values.__getitem__, cells), np.float64, len(cells))
        return _Column(column, len(cells))
    first = next(iter(errors))
    all_numbers = not any(v is None for v in values.values())
    return _Column(np.empty(0), cells.index(first), errors[first], all_numbers)


def _depth_column(cells) -> _Column:
    codes = {cell: _DEPTH_CODE.get(cell) for cell in dict.fromkeys(cells)}
    bad = next((cell for cell, code in codes.items() if code is None), None)
    if bad is not None:
        return _Column(np.empty(0), cells.index(bad), f"{bad!r} is not a depth level")
    return _Column(np.fromiter(map(codes.__getitem__, cells), np.int8, len(cells)), len(cells))


def parse_cohort_csv(text: str) -> Dataset:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows:
        raise InvalidArgument("cohort CSV is empty (header row required)")
    header = rows[0]
    if header[: len(_HEADER)] != list(_HEADER):
        raise InvalidArgument(
            "cohort CSV header does not start with the expected core/site columns"
        )
    extra_names = header[len(_HEADER):]
    body = rows[1:]
    # Rows are checked in file order: a row of the wrong length is reported
    # unless a bad cell comes before it, so only the rows above it are parsed.
    ragged = next((r for r, row in enumerate(body) if len(row) != len(header)), None)
    cells = list(zip(*body[:ragged])) or [()] * len(header)

    core = {name: _numeric_column(cells[j + 1], *_BOUNDS.get(name, (0.0, _MAX)))
            for j, name in enumerate(CORE_NUMERIC_FIELDS)}
    areas = [_numeric_column(cells[len(_CORE_COLUMNS) + i], 0.0, _MAX) for i in range(N_SITES)]
    depths = [_depth_column(cells[len(_CORE_COLUMNS) + N_SITES + i]) for i in range(N_SITES)]
    # Within a row, cells are checked site by site (area, then depth), then
    # theatre_visits, the numeric extras, age, LOS, cost and TBSA.
    checks = [pair for i in range(N_SITES) for pair in (
        (_AREA_COLUMNS[i], areas[i]), (_DEPTH_COLUMNS[i], depths[i]))]
    checks.append(("theatre_visits", core["theatre_visits"]))
    extras = {}
    for j, name in enumerate(extra_names):
        col = cells[len(_HEADER) + j]
        parsed = _numeric_column(col, -_MAX, _MAX)
        if parsed.all_numbers:
            checks.append((name, parsed))
            extras[name] = parsed.values
        else:  # some cell is not a number: categorical
            extras[name] = np.array([c if c else None for c in col], dtype=object)
    checks += [(name, core[name]) for name in ("age_years", "los_days", "total_cost", "tbsa_pct")]

    column, bad = min(checks, key=lambda check: check[1].bad_row)
    n = len(body) if ragged is None else ragged
    if bad.bad_row < n:
        raise InvalidArgument(
            f"row id {body[bad.bad_row][0]!r}, column {column!r}: {bad.error}"
        )
    if ragged is not None:
        row = body[ragged]
        raise InvalidArgument(
            f"row for id {row[0] if row else ''!r} has {len(row)} cells, header has {len(header)}"
        )

    numerics = np.stack([core[name].values for name in CORE_NUMERIC_FIELDS])
    numerics[-1] = np.trunc(numerics[-1])  # theatre_visits counts whole visits
    return Dataset(
        ids=np.array(cells[0], dtype=object),
        numerics=numerics,
        site_areas=np.stack([c.values for c in areas]),
        site_depths=np.stack([c.values for c in depths]),
        extras=extras,
    )


def dataset_sha256(ds: Dataset) -> str:
    """Content hash of a dataset's canonical CSV form."""
    return hashlib.sha256(cohort_csv_text(ds).encode("utf-8")).hexdigest()
