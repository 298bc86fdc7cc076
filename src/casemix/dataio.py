"""CSV serialization of cohorts.

One row per patient: id, age_years, los_days, total_cost, tbsa_pct,
theatre_visits, site_01_area..site_27_area, site_01_depth..site_27_depth,
then any extra feature columns, each named once. Empty cell = missing;
UTF-8; "." decimal separator. Floats are written with Python's shortest
round-trip repr and theatre_visits as an integer, so a write/read/write
cycle is byte-identical.

An extra column the generator declares numeric (``cohort.EXTRA_SCHEMA``,
e.g. ventilation_days) is numeric, so a cell in it that is not a number is a
bad cell. The kind of any other extra column is inferred on read: it is
numeric when every non-empty cell parses as a float, else categorical.
Categorical values must therefore not all look like numbers (true for
everything this package emits).

Reading streams the file: rows are taken a fixed chunk at a time and each
column is kept as int32 codes over its distinct cells, in order of first
appearance, so no more than one chunk of rows is held as cell strings. Once
the last row is read, each distinct cell is parsed and checked once and a
column's values are its parsed cells indexed by its codes. Writing streams
too: rows are formatted a fixed block at a time, a column slice at a time, and
written to the output before the next block, so no more than one block of
rows is held as cell strings and the text is never held whole.

Numeric cells must be finite, the core and site-area columns non-negative
and tbsa_pct at most 100; depth cells must name a depth level; no two rows
share an id. A bad cell, or an id an earlier row holds, raises
InvalidArgument naming the row id and the column, a header naming a
column twice one naming that column, a row of the wrong length one naming
its id, and a row the csv module cannot read (a cell over its field size
limit) one naming the line. A message quotes no more than the first 40
characters of a cell, id or column name. The whole file is decoded before
any of these is raised; a byte that is not UTF-8 raises InvalidArgument
naming its line and its offset in the file.
"""

from __future__ import annotations

import csv
import hashlib
import re
import sys
from collections import Counter, deque
from dataclasses import dataclass
from itertools import islice
from pathlib import Path

import numpy as np

from .cohort import EXTRA_SCHEMA
from .domain import (
    CORE_NUMERIC_FIELDS,
    DEPTH_LEVELS,
    MISSING_DEPTH,
    N_SITES,
    NUMERIC,
    SITE_AREA_FIELDS,
    SITE_DEPTH_FIELDS,
    Dataset,
)
from .errors import InvalidArgument

_CORE_COLUMNS = ("id", *CORE_NUMERIC_FIELDS)
_HEADER = _CORE_COLUMNS + SITE_AREA_FIELDS + SITE_DEPTH_FIELDS
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


#: Rows formatted as cell strings at once when writing.
_WRITE_ROWS = 1024
#: Characters that make ``csv.writer`` quote a cell, or may (``\r``).
_SPECIAL = re.compile('[,"\r\n]')


def cohort_csv_text(ds: Dataset, out) -> None:
    """Write a dataset as CSV text to ``out``, anything with ``.write(str)``
    (a text file, or the hashing sink of ``dataset_sha256``), as
    ``csv.writer`` writes it. Each block of rows is joined with ``","`` and
    written at once, unless one of its id or categorical cells holds a
    character csv may quote; then ``csv.writer`` writes that block.
    Categorical values are strings."""
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(_HEADER + tuple(ds.extras))
    for start in range(0, len(ds), _WRITE_ROWS):
        rows = slice(start, start + _WRITE_ROWS)
        columns = [ds.ids[rows].tolist()]
        quotable = columns[:]  # the columns whose cells csv may quote
        columns += [_float_cells(col[rows]) for col in ds.numerics[:-1]]
        columns.append(["" if v != v else str(int(v)) for v in ds.numerics[-1, rows].tolist()])
        columns += [_float_cells(col[rows]) for col in ds.site_areas]
        columns += [_DEPTH_CELLS[codes[rows]].tolist() for codes in ds.site_depths]
        for col in ds.extras.values():
            if col.dtype == np.float64:
                columns.append(_float_cells(col[rows]))
            else:
                columns.append(["" if v is None else v for v in col[rows].tolist()])
                quotable.append(columns[-1])
        if _SPECIAL.search("".join(cell for cells in quotable for cell in cells)):
            writer.writerows(zip(*columns))
        else:
            out.write("\n".join(map(",".join, zip(*columns))) + "\n")


def read_cohort_csv(path: str | Path) -> Dataset:
    """Parse a cohort CSV file into a Dataset; reading the text
    ``cohort_csv_text`` wrote gives back an equal Dataset."""
    with open(path, encoding="utf-8") as fh:  # newlines translated as by read_text
        try:
            return _parse_lines(fh)
        except UnicodeDecodeError:
            pass
    # The file is decoded in blocks, and the codec counts its position from
    # the start of a block: decode the whole file again to place the byte.
    data = Path(path).read_bytes()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as e:
        line = data.count(b"\n", 0, e.start) + 1
        raise InvalidArgument(f"cohort CSV line {line}, byte {e.start}: {e}") from None
    raise InvalidArgument("cohort CSV changed while it was read")


#: Rows held as cell strings at once; the rest of the file is held as codes.
_CHUNK_ROWS = 256


class _Codes(dict):
    """A column's distinct cells, in order of first appearance, to their codes."""

    def __missing__(self, cell: str) -> int:
        self[cell] = code = len(self)
        return code


@dataclass
class _Column:
    """One parsed column: its values and the first row whose cell is bad
    (``len(values)`` when none is), with the error for that cell."""

    values: np.ndarray
    bad_row: int
    error: str = ""
    all_numbers: bool = True


def _column(table: np.ndarray, codes: np.ndarray, bad: int | None, error: str = "",
            all_numbers: bool = True) -> _Column:
    """The column ``table[codes]``; ``bad`` is the first code whose cell is
    bad, so its first row is the column's first bad row."""
    bad_row = len(codes) if bad is None else int(np.argmax(codes == bad))
    return _Column(table[codes], bad_row, error, all_numbers)


#: Characters of a cell that an error message quotes, so that a cell as long
#: as the rest of the file (an unclosed quote) does not make the message as long.
_QUOTED_CHARS = 40


def quoted(cell: str) -> str:
    """``repr`` of ``cell``, a cell, id or column name of the file, cut to
    its first ``_QUOTED_CHARS`` characters."""
    if len(cell) <= _QUOTED_CHARS:
        return repr(cell)
    return f"{cell[:_QUOTED_CHARS]!r}... ({len(cell)} characters)"


def _numeric_column(cells: list[str], codes: np.ndarray, lo: float, hi: float) -> _Column:
    """Parse a numeric column; every non-empty cell must be a number in
    [lo, hi], which also rejects nan and the infinities. Each distinct cell
    is parsed and checked once."""
    values, bad, error, all_numbers = [], None, "", True
    for code, cell in enumerate(cells):
        try:
            value = float(cell) if cell else np.nan
        except ValueError:
            value, all_numbers = np.nan, False
            message = f"{quoted(cell)} is not a number"
        else:
            message = (f"{quoted(cell)} is not in [{lo:g}, {hi:g}]"
                       if cell and not lo <= value <= hi else "")
        values.append(value)
        if message and bad is None:
            bad, error = code, message
    return _column(np.array(values, dtype=np.float64), codes, bad, error, all_numbers)


def _depth_column(cells: list[str], codes: np.ndarray) -> _Column:
    bad = next((code for code, cell in enumerate(cells) if cell not in _DEPTH_CODE), None)
    table = np.array([_DEPTH_CODE.get(cell, MISSING_DEPTH) for cell in cells], dtype=np.int8)
    return _column(table, codes, bad,
                   "" if bad is None else f"{quoted(cells[bad])} is not a depth level")


def _parse_lines(lines) -> Dataset:
    # The whole file is read before any other error is raised, so that an
    # undecodable byte or an unreadable row anywhere is reported first.
    reader = csv.reader(lines)
    try:
        header = next(reader, None)
        if header is None:
            raise InvalidArgument("cohort CSV is empty (header row required)")
        if header[: len(_HEADER)] != list(_HEADER):
            deque(reader, maxlen=0)
            raise InvalidArgument(
                "cohort CSV header does not start with the expected core/site columns"
            )
        counts = Counter(header)
        repeated = next((name for name in header if counts[name] > 1), None)
        if repeated is not None:
            deque(reader, maxlen=0)
            raise InvalidArgument(f"cohort CSV header names column {quoted(repeated)} twice")
        tables = [_Codes() for _ in header]
        codes = [[np.empty(0, np.int32)] for _ in header]  # per column, one array per chunk
        # Rows are checked in file order: a row of the wrong length is
        # reported unless a bad cell comes before it, so only the rows above
        # it are coded.
        ragged = None
        for chunk in iter(lambda: list(islice(reader, _CHUNK_ROWS)), []):
            cut = next((r for r, row in enumerate(chunk) if len(row) != len(header)), len(chunk))
            for table, column, cells in zip(tables, codes, zip(*chunk[:cut])):
                column.append(np.fromiter(map(table.__getitem__, cells), np.int32, cut))
            if cut < len(chunk):
                ragged = chunk[cut]
                deque(reader, maxlen=0)
    except csv.Error as e:
        raise InvalidArgument(f"cohort CSV line {reader.line_num}: {e}") from None
    cells = [list(table) for table in tables]
    del tables  # frees one int object per distinct cell before the columns are built
    codes = [np.concatenate(column) for column in codes]

    core = {name: _numeric_column(cells[j + 1], codes[j + 1], *_BOUNDS.get(name, (0.0, _MAX)))
            for j, name in enumerate(CORE_NUMERIC_FIELDS)}
    areas = [_numeric_column(cells[j], codes[j], 0.0, _MAX)
             for j in range(len(_CORE_COLUMNS), len(_CORE_COLUMNS) + N_SITES)]
    depths = [_depth_column(cells[j], codes[j])
              for j in range(len(_CORE_COLUMNS) + N_SITES, len(_HEADER))]
    # Within a row, cells are checked site by site (area, then depth), then
    # theatre_visits, the numeric extras, age, LOS, cost, TBSA and the id.
    checks = [pair for i in range(N_SITES) for pair in (
        (SITE_AREA_FIELDS[i], areas[i]), (SITE_DEPTH_FIELDS[i], depths[i]))]
    checks.append(("theatre_visits", core["theatre_visits"]))
    extras = {}
    for j, name in enumerate(header[len(_HEADER):], start=len(_HEADER)):
        parsed = _numeric_column(cells[j], codes[j], -_MAX, _MAX)
        if parsed.all_numbers or EXTRA_SCHEMA.get(name) == NUMERIC:
            checks.append((name, parsed))
            extras[name] = parsed.values
        else:  # some cell is not a number, and no declared kind: categorical
            extras[name] = np.array([c if c else None for c in cells[j]], dtype=object)[codes[j]]
    checks += [(name, core[name]) for name in ("age_years", "los_days", "total_cost", "tbsa_pct")]

    ids = np.array(cells[0], dtype=object)[codes[0]]
    # Ids are coded in order of first appearance, so the first row whose
    # code is not its row number is the first to repeat an earlier row's id.
    repeats = codes[0] != np.arange(len(ids))
    checks.append(("id", _Column(ids, int(repeats.argmax()) if repeats.any() else len(ids),
                                 "repeats an earlier row's id")))
    column, bad = min(checks, key=lambda check: check[1].bad_row)
    if bad.bad_row < len(ids):
        raise InvalidArgument(
            f"row id {quoted(ids[bad.bad_row])}, column {quoted(column)}: {bad.error}")
    if ragged is not None:
        raise InvalidArgument(
            f"row for id {quoted(ragged[0] if ragged else '')} has {len(ragged)} cells, "
            f"header has {len(header)}"
        )

    numerics = np.stack([core[name].values for name in CORE_NUMERIC_FIELDS])
    numerics[-1] = np.trunc(numerics[-1])  # theatre_visits counts whole visits
    return Dataset(
        ids=ids,
        numerics=numerics,
        site_areas=np.stack([c.values for c in areas]),
        site_depths=np.stack([c.values for c in depths]),
        extras=extras,
    )


class _Sha256Sink:
    """A ``.write(str)`` target that hashes the UTF-8 bytes of what it is given."""

    def __init__(self):
        self.hash = hashlib.sha256()

    def write(self, text: str) -> None:
        self.hash.update(text.encode("utf-8"))


def dataset_sha256(ds: Dataset) -> str:
    """Content hash of a dataset's canonical CSV form."""
    sink = _Sha256Sink()
    cohort_csv_text(ds, sink)
    return sink.hash.hexdigest()
