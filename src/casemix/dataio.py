"""CSV serialization of cohorts.

One row per patient: id, age_years, los_days, total_cost, tbsa_pct,
theatre_visits, site_01_area..site_27_area, site_01_depth..site_27_depth,
then any extra feature columns. Empty cell = missing; UTF-8; "." decimal
separator. Floats are written with Python's shortest round-trip repr so a
write/read/write cycle is byte-identical.

Extra-column kinds are inferred on read: a column is numeric when every
non-empty cell parses as a float, else categorical. Categorical values must
therefore not all look like numbers (true for everything this package emits).

Numeric cells are checked as they are parsed: every one must be finite, the
core and site-area columns must be non-negative and tbsa_pct at most 100. A
bad cell raises InvalidArgument naming the row id and the column.
"""

from __future__ import annotations

import csv
import hashlib
import io
import sys
from pathlib import Path

from .domain import (
    CATEGORICAL,
    N_SITES,
    NUMERIC,
    SITE_CODES,
    BurnSiteEntry,
    Dataset,
    Depth,
    PatientRecord,
)
from .errors import InvalidArgument

_CORE_COLUMNS = ("id", "age_years", "los_days", "total_cost", "tbsa_pct", "theatre_visits")
_AREA_COLUMNS = tuple(f"site_{i + 1:02d}_area" for i in range(N_SITES))
_DEPTH_COLUMNS = tuple(f"site_{i + 1:02d}_depth" for i in range(N_SITES))
_MAX = sys.float_info.max


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, Depth):
        return value.value
    if isinstance(value, bool):
        raise InvalidArgument("boolean cell values are not part of the schema")
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _parse_float(cell: str, column: str, lo: float = -_MAX, hi: float = _MAX) -> float | None:
    """An empty cell is missing; anything else must be a number in
    [lo, hi], which also rejects nan and the infinities."""
    if cell == "":
        return None
    try:
        value = float(cell)
    except ValueError:
        raise InvalidArgument(f"column {column!r}: {cell!r} is not a number") from None
    if lo <= value <= hi:
        return value
    raise InvalidArgument(f"column {column!r}: {cell!r} is not in [{lo:g}, {hi:g}]")


def cohort_csv_text(ds: Dataset) -> str:
    """Render a dataset as CSV text (used for files and for hashing)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    header = list(_CORE_COLUMNS) + list(_AREA_COLUMNS) + list(_DEPTH_COLUMNS) + list(
        ds.extra_schema
    )
    writer.writerow(header)
    for rec in ds.records:
        if len(rec.burn_sites) != N_SITES:
            raise InvalidArgument(f"record {rec.id}: expected {N_SITES} burn sites")
        row = [
            rec.id,
            _fmt(rec.age_years),
            _fmt(rec.los_days),
            _fmt(rec.total_cost),
            _fmt(rec.tbsa_pct),
            _fmt(rec.theatre_visits),
        ]
        row += [_fmt(s.area_pct) for s in rec.burn_sites]
        row += [_fmt(s.depth) for s in rec.burn_sites]
        row += [_fmt(rec.extra_features.get(name)) for name in ds.extra_schema]
        writer.writerow(row)
    return buf.getvalue()


def write_cohort_csv(ds: Dataset, path: str | Path) -> None:
    Path(path).write_text(cohort_csv_text(ds), encoding="utf-8")


def read_cohort_csv(path: str | Path) -> Dataset:
    """Parse a cohort CSV back into a Dataset (inverse of write_cohort_csv)."""
    text = Path(path).read_text(encoding="utf-8")
    return parse_cohort_csv(text)


def parse_cohort_csv(text: str) -> Dataset:
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise InvalidArgument("cohort CSV is empty (header row required)")
    expected = list(_CORE_COLUMNS) + list(_AREA_COLUMNS) + list(_DEPTH_COLUMNS)
    if header[: len(expected)] != expected:
        raise InvalidArgument(
            "cohort CSV header does not start with the expected core/site columns"
        )
    extra_names = header[len(expected):]
    rows = list(reader)

    # Kind inference per extra column: numeric iff all non-empty cells parse
    # (a column with no observed values defaults to numeric).
    extra_kinds: dict[str, str] = {}
    for j, name in enumerate(extra_names):
        col = len(expected) + j
        kind = NUMERIC
        for row in rows:
            cell = row[col]
            if cell == "":
                continue
            try:
                float(cell)
            except ValueError:
                kind = CATEGORICAL
                break
        extra_kinds[name] = kind

    records = []
    for row in rows:
        if len(row) != len(header):
            raise InvalidArgument(
                f"row for id {row[0]!r} has {len(row)} cells, header has {len(header)}"
            )
        try:
            sites = []
            for i in range(N_SITES):
                area = _parse_float(row[6 + i], _AREA_COLUMNS[i], 0.0)
                depth_cell = row[6 + N_SITES + i]
                depth = None if depth_cell == "" else Depth(depth_cell)
                sites.append(BurnSiteEntry(SITE_CODES[i], area, depth))
            theatre = _parse_float(row[5], "theatre_visits", 0.0)
            extras: dict[str, float | str | None] = {}
            for j, name in enumerate(extra_names):
                cell = row[len(expected) + j]
                if cell == "":
                    extras[name] = None
                elif extra_kinds[name] == NUMERIC:
                    extras[name] = _parse_float(cell, name)
                else:
                    extras[name] = cell
            records.append(
                PatientRecord(
                    id=row[0],
                    age_years=_parse_float(row[1], "age_years", 0.0),
                    los_days=_parse_float(row[2], "los_days", 0.0),
                    total_cost=_parse_float(row[3], "total_cost", 0.0),
                    tbsa_pct=_parse_float(row[4], "tbsa_pct", 0.0, 100.0),
                    theatre_visits=None if theatre is None else int(theatre),
                    burn_sites=tuple(sites),
                    extra_features=extras,
                )
            )
        except InvalidArgument as e:
            raise InvalidArgument(f"row id {row[0]!r}, {e}") from None
    return Dataset(records=tuple(records), extra_schema=extra_kinds)


def dataset_sha256(ds: Dataset) -> str:
    """Content hash of a dataset's canonical CSV form."""
    return hashlib.sha256(cohort_csv_text(ds).encode("utf-8")).hexdigest()
