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

Reading streams the file a fixed chunk of rows at a time, so no more than
one chunk is held as cell strings. A column of known kind (not an extra
whose kind is inferred) whose first chunk repeats no cell, such as the id,
is parsed and checked a chunk at a time. Any other column is kept as codes
over its distinct cells, in order of first appearance and in the narrowest
unsigned type that holds them; once the last row is read, each distinct
cell is parsed and checked once. Each column is then built into its row of
the dataset's arrays, and its codes and cells are released. Writing streams
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
from functools import partial
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

_HEADER = ("id", *CORE_NUMERIC_FIELDS) + SITE_AREA_FIELDS + SITE_DEPTH_FIELDS
_MAX = sys.float_info.max
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
class _Parsed:
    """Cells parsed in order, and the index of the first bad one (``None``
    when none is) with its error; for a whole column, that index is a row."""

    values: np.ndarray
    bad: int | None = None
    error: str = ""
    all_numbers: bool = True


#: Characters of a cell that an error message quotes, so that a cell as long
#: as the rest of the file (an unclosed quote) does not make the message as long.
_QUOTED_CHARS = 40


def quoted(cell: str) -> str:
    """``repr`` of ``cell``, a cell, id or column name of the file, cut to
    its first ``_QUOTED_CHARS`` characters."""
    if len(cell) <= _QUOTED_CHARS:
        return repr(cell)
    return f"{cell[:_QUOTED_CHARS]!r}... ({len(cell)} characters)"


def _numeric_cells(cells, lo: float, hi: float) -> _Parsed:
    """Parse numeric cells; every non-empty cell must be a number in
    [lo, hi], which also rejects nan and the infinities."""
    values, bad, error, all_numbers = [], None, "", True
    for i, cell in enumerate(cells):
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
            bad, error = i, message
    return _Parsed(np.array(values, dtype=np.float64), bad, error, all_numbers)


def _depth_cells(cells) -> _Parsed:
    bad = next((i for i, cell in enumerate(cells) if cell not in _DEPTH_CODE), None)
    return _Parsed(np.array([_DEPTH_CODE.get(cell, MISSING_DEPTH) for cell in cells], np.int8),
                   bad, "" if bad is None else f"{quoted(cells[bad])} is not a depth level")


def _inferred_cells(cells) -> _Parsed:
    """An extra column of no declared kind: numeric when every non-empty
    cell is a number, else categorical."""
    parsed = _numeric_cells(cells, -_MAX, _MAX)
    if parsed.all_numbers:
        return parsed
    return _Parsed(np.array([cell if cell else None for cell in cells], dtype=object))


#: The parse of each column of known kind. Numeric cells must lie in
#: [0, max], tbsa_pct's in [0, 100] and a declared numeric extra's in [-max, max].
_PARSE = {
    "id": lambda cells: _Parsed(np.array(cells, dtype=object)),
    **dict.fromkeys(SITE_DEPTH_FIELDS, _depth_cells),
    **dict.fromkeys(CORE_NUMERIC_FIELDS + SITE_AREA_FIELDS, partial(_numeric_cells, lo=0.0, hi=_MAX)),
    "tbsa_pct": partial(_numeric_cells, lo=0.0, hi=100.0),
    **{name: partial(_numeric_cells, lo=-_MAX, hi=_MAX)
       for name, kind in EXTRA_SCHEMA.items() if kind == NUMERIC},
}


class _ColumnReader:
    """One column, read a chunk at a time: parsed as it is read if its kind
    is known and its first chunk repeats no cell, else held as codes over its
    distinct cells, each parsed once at the end."""

    def __init__(self, name: str):
        self.parse, self.direct = _PARSE.get(name, _inferred_cells), name in _PARSE
        self.table, self.chunks, self.rows, self.bad, self.error = _Codes(), [], 0, None, ""

    def add(self, cells: tuple[str, ...]) -> None:
        if not self.rows:
            self.direct = self.direct and len(set(cells)) == len(cells)
        if self.direct:
            parsed = self.parse(cells)
            if parsed.bad is not None and self.bad is None:
                self.bad, self.error = self.rows + parsed.bad, parsed.error
            self.chunks.append(parsed.values)
        else:
            width = np.min_scalar_type(len(self.table) + len(cells))  # holds every code
            self.chunks.append(np.fromiter(map(self.table.__getitem__, cells), width, len(cells)))
        self.rows += len(cells)

    def build(self, out: np.ndarray | None = None) -> _Parsed:
        """The column, written into ``out`` when given; what it held is released."""
        chunks, self.chunks = self.chunks, None
        if self.direct and chunks:
            return _Parsed(np.concatenate(chunks, out=out), self.bad, self.error)
        codes = np.concatenate(chunks or [np.empty(0, np.uint8)])
        del chunks
        parsed, self.table = self.parse(list(self.table)), None
        bad = None if parsed.bad is None else int(np.argmax(codes == parsed.bad))
        return _Parsed(parsed.values.take(codes, out=out, mode="clip"), bad, parsed.error)


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
        readers = {name: _ColumnReader(name) for name in header}
        # Rows are checked in file order: a row of the wrong length is
        # reported unless a bad cell comes before it, so only the rows above
        # it are read into the columns.
        ragged = None
        for chunk in iter(lambda: list(islice(reader, _CHUNK_ROWS)), []):
            cut = next((r for r, row in enumerate(chunk) if len(row) != len(header)), len(chunk))
            for column, cells in zip(readers.values(), zip(*chunk[:cut])):
                column.add(cells)
            if cut < len(chunk):
                ragged = chunk[cut]
                deque(reader, maxlen=0)
    except csv.Error as e:
        raise InvalidArgument(f"cohort CSV line {reader.line_num}: {e}") from None

    n = readers["id"].rows  # each column is built into its row of the dataset's arrays
    numerics = np.empty((len(CORE_NUMERIC_FIELDS), n))
    site_areas, site_depths = np.empty((N_SITES, n)), np.empty((N_SITES, n), np.int8)
    rows = dict(zip(_HEADER[1:], [*numerics, *site_areas, *site_depths]))
    columns = {name: column.build(rows.get(name)) for name, column in readers.items()}
    ids = columns["id"].values
    seen = set()  # the first row whose id an earlier row holds, if any
    repeat = next((row for row, cell in enumerate(ids.tolist()) if cell in seen or seen.add(cell)),
                  None)
    columns["id"] = _Parsed(ids, repeat, "repeats an earlier row's id")
    # Within a row, cells are checked site by site (area, then depth), then
    # theatre_visits, the numeric extras, age, LOS, cost, TBSA and the id.
    order = [name for site in zip(SITE_AREA_FIELDS, SITE_DEPTH_FIELDS) for name in site]
    order += ["theatre_visits", *header[len(_HEADER):], "age_years", "los_days", "total_cost",
              "tbsa_pct", "id"]
    first = min(order, key=lambda name: n if columns[name].bad is None else columns[name].bad)
    if columns[first].bad is not None:
        raise InvalidArgument(f"row id {quoted(ids[columns[first].bad])}, "
                              f"column {quoted(first)}: {columns[first].error}")
    if ragged is not None:
        raise InvalidArgument(
            f"row for id {quoted(ragged[0] if ragged else '')} has {len(ragged)} cells, "
            f"header has {len(header)}"
        )

    np.trunc(numerics[-1], out=numerics[-1])  # theatre_visits counts whole visits
    return Dataset(ids, numerics, site_areas, site_depths,
                   {name: columns[name].values for name in header[len(_HEADER):]})


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
