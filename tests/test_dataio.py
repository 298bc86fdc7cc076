import csv
import hashlib
import io
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from casemix import dataio
from casemix.cohort import CohortConfig, generate_cohort, inject_missingness
from casemix.dataio import dataset_sha256, read_cohort_csv
from casemix.domain import DEPTH_LEVELS, MISSING_DEPTH, N_SITES, Dataset
from casemix.errors import InvalidArgument
from tests.helpers import (
    Discard,
    csv_text,
    parse_cohort_csv,
    random_dataset,
    traced_peak,
    write_cohort_csv,
)
from tests.records import records_of


def test_round_trip_bit_exact(tmp_path, small_cohort):
    path = tmp_path / "cohort.csv"
    write_cohort_csv(small_cohort, path)
    ds2 = read_cohort_csv(path)
    assert csv_text(ds2) == path.read_text(encoding="utf-8")
    assert records_of(ds2) == records_of(small_cohort)
    assert ds2.extra_schema == small_cohort.extra_schema


def test_round_trip_with_missingness(tmp_path):
    ds = generate_cohort(CohortConfig(n=120, seed=3))
    ds = inject_missingness(ds, rate=0.5, seed=9)
    path = tmp_path / "cohort.csv"
    write_cohort_csv(ds, path)
    ds2 = read_cohort_csv(path)
    assert records_of(ds2) == records_of(ds)
    # second write is byte-identical (serialization is canonical)
    assert csv_text(ds2) == path.read_text(encoding="utf-8")


def test_hash_is_content_hash(small_cohort):
    h1 = dataset_sha256(small_cohort)
    h2 = dataset_sha256(read_cohort_sha_roundtrip(small_cohort))
    assert h1 == h2


def read_cohort_sha_roundtrip(ds):
    return parse_cohort_csv(csv_text(ds))


def test_empty_text_rejected():
    with pytest.raises(InvalidArgument):
        parse_cohort_csv("")


def test_wrong_header_rejected():
    with pytest.raises(InvalidArgument):
        parse_cohort_csv("id,age\nX,1\n")


def test_ragged_row_rejected(small_cohort):
    text = csv_text(small_cohort)
    lines = text.splitlines()
    lines[1] = lines[1] + ",extra_cell"
    with pytest.raises(InvalidArgument):
        parse_cohort_csv("\n".join(lines) + "\n")


def test_kind_inference(small_cohort):
    ds = parse_cohort_csv(csv_text(small_cohort))
    assert ds.extra_schema["ventilation_days"] == "numeric"
    assert ds.extra_schema["sex"] == "categorical"


def test_header_only_gives_empty_dataset(small_cohort):
    header = csv_text(small_cohort).splitlines()[0]
    ds = parse_cohort_csv(header + "\n")
    assert len(ds) == 0


def with_cell(ds, record_index, column, value) -> str:
    """The dataset's CSV text with one cell replaced."""
    rows = list(csv.reader(io.StringIO(csv_text(ds))))
    rows[record_index + 1][rows[0].index(column)] = value
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


@pytest.mark.parametrize(
    "column,value",
    [
        ("los_days", "nan"),
        ("los_days", "-1"),
        ("total_cost", "-0.5"),
        ("age_years", "inf"),
        ("tbsa_pct", "250"),
        ("tbsa_pct", "-1"),
        ("tbsa_pct", "NaN"),
        ("theatre_visits", "nan"),
        ("theatre_visits", "-2"),
        ("site_03_area", "-0.25"),
        ("site_03_area", "inf"),
        ("los_days", "abc"),
        ("ventilation_days", "nan"),
    ],
)
def test_bad_numeric_cell_names_row_and_column(small_cohort, column, value):
    text = with_cell(small_cohort, 3, column, value)
    with pytest.raises(InvalidArgument) as err:
        parse_cohort_csv(text)
    assert repr(small_cohort.ids[3]) in str(err.value)
    assert repr(column) in str(err.value)


@pytest.mark.parametrize("column,value", [("tbsa_pct", "100"), ("tbsa_pct", "0"), ("los_days", "0")])
def test_domain_boundary_cells_accepted(small_cohort, column, value):
    ds = parse_cohort_csv(with_cell(small_cohort, 3, column, value))
    assert getattr(records_of(ds)[3], column) == float(value)


# ---------------------------------------------------------------------------
# Round trip and bad cells on random cohort files
# ---------------------------------------------------------------------------

_AREAS = [f"site_{i + 1:02d}_area" for i in range(N_SITES)]
_DEPTHS = [f"site_{i + 1:02d}_depth" for i in range(N_SITES)]
_HEADER = ["id", "age_years", "los_days", "total_cost", "tbsa_pct", "theatre_visits"] + _AREAS + _DEPTHS
_EDGE_FLOATS = (0.0, -0.0, 5e-324, 1.7976931348623157e308)
_CATEGORICAL_CELLS = ("", "a", "none", "x1", "12", "1e5", "-3", "0.5")


def _float_cells(hi: float, lo: float = 0.0):
    """Cells of a float column in canonical form (repr), or empty."""
    value = st.sampled_from([v for v in _EDGE_FLOATS if lo <= v <= hi]) | st.floats(
        lo, hi, allow_nan=False, allow_infinity=False
    )
    return st.just("") | value.map(repr)


def _is_number(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


@st.composite
def cohort_files(draw, min_rows=0):
    """(CSV text, the text the writer gives back for it). The cells are
    canonical except for theatre_visits, which may hold "3.7" or "1e300";
    categorical extras hold some cells that look numeric."""
    n = draw(st.integers(min_rows, 5))
    n_numeric, n_categorical = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    header = _HEADER + [f"num{j}" for j in range(n_numeric)] + [f"cat{j}" for j in range(n_categorical)]
    big = 1.7976931348623157e308
    columns = [draw(st.lists(st.text('ab01,"- ', min_size=1, max_size=4), min_size=n, max_size=n,
                             unique=True))]  # ids
    canonical = [columns[0]]
    for hi in (big, big, big, 100.0):  # age, LOS, cost, TBSA
        columns.append([draw(_float_cells(hi)) for _ in range(n)])
        canonical.append(columns[-1])
    theatre = st.just("") | st.integers(0, 10**6).map(str) | st.sampled_from(["3.7", "1e300", "-0.0"])
    columns.append([draw(theatre) for _ in range(n)])
    canonical.append([c and str(int(float(c))) for c in columns[-1]])
    for _ in _AREAS:
        columns.append([draw(_float_cells(big)) for _ in range(n)])
        canonical.append(columns[-1])
    depth = st.sampled_from(["", "none", "superficial", "partial", "full"])
    for _ in _DEPTHS:
        columns.append([draw(depth) for _ in range(n)])
        canonical.append(columns[-1])
    for _ in range(n_numeric):
        columns.append([draw(_float_cells(big, -big)) for _ in range(n)])
        canonical.append(columns[-1])
    for _ in range(n_categorical):
        cells = [draw(st.sampled_from(_CATEGORICAL_CELLS)) for _ in range(n)]
        if n and all(_is_number(c) for c in cells if c):
            cells[draw(st.integers(0, n - 1))] = "a"  # keep the column categorical
        columns.append(cells)
        canonical.append(cells)

    def render(cols) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(zip(*cols))
        return buf.getvalue()

    return render(columns), render(canonical)


@settings(max_examples=60, deadline=None)
@given(cohort_files())
def test_random_cohort_round_trip(case):
    text, canonical = case
    assert csv_text(parse_cohort_csv(text)) == canonical
    assert csv_text(parse_cohort_csv(canonical)) == canonical


def _bad_cells(header: list[str]) -> list[tuple[str, str]]:
    """(column, value) pairs, each of which makes one cell bad."""
    bad = []
    for column in header[1:6] + _AREAS:
        bad += [(column, v) for v in ("nan", "inf", "-1", "abc", "1e400")]
    bad.append(("tbsa_pct", "250"))
    bad += [(column, v) for column in _DEPTHS for v in ("deep", "FULL")]
    bad += [(column, v) for column in header if column.startswith("num") for v in ("nan", "-inf")]
    return bad


@settings(max_examples=60, deadline=None)
@given(cohort_files(min_rows=1), st.data())
def test_single_bad_cell_names_row_and_column(case, data):
    rows = list(csv.reader(io.StringIO(case[0])))
    header = rows[0]
    row = data.draw(st.integers(1, len(rows) - 1))
    column, value = data.draw(st.sampled_from(_bad_cells(header)))
    rows[row][header.index(column)] = value
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    with pytest.raises(InvalidArgument) as err:
        parse_cohort_csv(buf.getvalue())
    assert f"row id {rows[row][0]!r}, column {column!r}:" in str(err.value)


def test_repeated_id_names_row_and_column_in_row_order(small_cohort):
    rows = list(csv.reader(io.StringIO(csv_text(small_cohort))))
    header = rows[0]
    rows[3][0] = rows[1][0]  # the third record takes the first one's id
    rows[4][0] = rows[2][0]
    rows[5][header.index("los_days")] = "-1"  # a bad cell in a later row comes after

    def parse():
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(rows)
        return parse_cohort_csv(buf.getvalue())

    with pytest.raises(InvalidArgument) as err:
        parse()
    assert str(err.value) == f"row id {rows[1][0]!r}, column 'id': repeats an earlier row's id"
    rows[3][header.index("tbsa_pct")] = "250"  # the row's own cells are checked first
    with pytest.raises(InvalidArgument, match=f"row id {rows[1][0]!r}, column 'tbsa_pct'"):
        parse()


def test_ragged_row_reported_after_earlier_bad_cell(small_cohort):
    rows = list(csv.reader(io.StringIO(csv_text(small_cohort))))
    rows[3] = rows[3][:10]  # too short, extras missing
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    with pytest.raises(InvalidArgument, match=f"row for id {rows[3][0]!r} has 10 cells"):
        parse_cohort_csv(buf.getvalue())
    rows[2][rows[0].index("los_days")] = "-1"  # a bad cell in an earlier row wins
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    with pytest.raises(InvalidArgument, match=f"row id {rows[2][0]!r}, column 'los_days'"):
        parse_cohort_csv(buf.getvalue())


def test_blank_line_is_a_ragged_row(small_cohort):
    with pytest.raises(InvalidArgument, match="has 0 cells"):
        parse_cohort_csv(csv_text(small_cohort) + "\n")


@pytest.mark.parametrize("edit", ["open_quote", "repeated_id", "number", "depth"])
def test_error_quotes_the_head_of_a_cell(edit):
    """A message quotes no more than a cell's first characters, so its
    length does not grow with the cell, nor with the file: a row that opens
    a quote and never closes it holds the rest of the file in one cell."""
    for n in (20, 200):
        rows = list(csv.reader(io.StringIO(csv_text(random_dataset(n, seed=1)))))
        long = "x" * 100 * n
        if edit == "repeated_id":
            rows[2][0] = rows[3][0] = long
        elif edit != "open_quote":
            rows[3][rows[0].index({"number": "los_days", "depth": "site_01_depth"}[edit])] = long
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(rows)
        lines = buf.getvalue().splitlines(keepends=True)
        if edit == "open_quote":
            lines[4] = '"' + lines[4]
        with pytest.raises(InvalidArgument) as err:
            parse_cohort_csv("".join(lines))
        assert "characters)" in str(err.value) and len(str(err.value)) <= 200


# ---------------------------------------------------------------------------
# Reading from files
# ---------------------------------------------------------------------------

def test_crlf_file_reads_like_lf(tmp_path, small_cohort):
    """Newlines are translated on read, also inside quoted cells."""
    text = with_cell(small_cohort, 2, "sex", "two\nlines")
    lf, crlf = tmp_path / "lf.csv", tmp_path / "crlf.csv"
    lf.write_bytes(text.encode("utf-8"))
    crlf.write_bytes(text.replace("\n", "\r\n").encode("utf-8"))
    ds = read_cohort_csv(lf)
    assert ds.extras["sex"][2] == "two\nlines"
    assert read_cohort_csv(crlf) == ds
    assert csv_text(read_cohort_csv(crlf)) == text


def test_read_peak_memory_bounded_by_file_size(tmp_path):
    """Reading holds a bounded chunk of rows plus each column's distinct
    cells, not every cell of the file at once."""
    path = tmp_path / "cohort.csv"
    write_cohort_csv(generate_cohort(CohortConfig(n=5000, seed=11)), path)
    assert traced_peak(read_cohort_csv, path) < 10 * path.stat().st_size


# ---------------------------------------------------------------------------
# Streamed writing: the block size never shows in the text
# ---------------------------------------------------------------------------

_WRITE_SIZES = (0, 1, dataio._WRITE_ROWS - 1, dataio._WRITE_ROWS, dataio._WRITE_ROWS + 1,
                2 * dataio._WRITE_ROWS + 1)


@st.composite
def pooled_datasets(draw):
    """Datasets of the sizes around the write block, whose cells come from
    small per-kind pools that Hypothesis draws: nan among the floats,
    missing depths, None among the categories. Ids are unique."""
    n = draw(st.sampled_from(_WRITE_SIZES))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def column(values, shape, dtype):
        cells = np.empty(len(values), dtype=dtype)
        cells[:] = values
        return cells[rng.integers(0, len(cells), shape)]

    def pool(values):
        return draw(st.lists(values, min_size=2, max_size=4))

    floats = st.sampled_from([np.nan, 0.0, -0.0, 5e-324]) | st.floats(0, 1e300, allow_nan=False)
    numerics = column(pool(floats), (5, n), np.float64)
    numerics[-1] = column(pool(st.integers(0, 10**6).map(float) | st.just(np.nan)), n, np.float64)
    extras = {f"num{j}": column(pool(floats | st.floats(-1e300, 0)), n, np.float64)
              for j in range(draw(st.integers(0, 2)))}
    extras.update({f"cat{j}": column(pool(st.none() | st.text('ab,"\n ', max_size=3)), n, object)
                   for j in range(draw(st.integers(0, 2)))})
    return Dataset(
        ids=np.array([f"{cell}{i}" for i, cell in enumerate(
            column(pool(st.text('ab,"\n ', max_size=3)), n, object))], dtype=object),
        numerics=numerics,
        site_areas=column(pool(floats), (N_SITES, n), np.float64),
        site_depths=column(pool(st.integers(MISSING_DEPTH, len(DEPTH_LEVELS) - 1)), (N_SITES, n),
                           np.int8),
        extras=extras,
    )


@settings(max_examples=40, deadline=None)
@given(pooled_datasets(), st.data())
def test_written_rows_split_anywhere(ds, data):
    """The rows written for ``ds`` are those written for its first k records
    followed by those written for the rest, wherever the blocks fall, and
    the hash is the hash of that text."""
    k = data.draw(st.integers(0, len(ds)))
    text, header = csv_text(ds), csv_text(ds.take([]))
    parts = [csv_text(ds.take(range(0, k))), csv_text(ds.take(range(k, len(ds))))]
    assert all(part.startswith(header) for part in parts)
    lines = text.split("\n")
    expected = (header + "".join(part[len(header):] for part in parts)).split("\n")
    assert len(lines) == len(expected)
    for line, expected_line in zip(lines, expected):  # a diff of the first bad row, not of the text
        assert line == expected_line
    assert dataset_sha256(ds) == hashlib.sha256(text.encode("utf-8")).hexdigest()


def _csv_writer_text(ds: Dataset) -> str:
    """The cohort CSV text for ``ds``, every row written by ``csv.writer``."""
    def number(v):
        return "" if v != v else repr(v)

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_HEADER + list(ds.extras))
    for i in range(len(ds)):
        theatre = ds.numerics[-1, i]
        writer.writerow([
            ds.ids[i], *map(number, ds.numerics[:-1, i].tolist()),
            "" if theatre != theatre else str(int(theatre)),
            *map(number, ds.site_areas[:, i].tolist()),
            *("" if code == MISSING_DEPTH else DEPTH_LEVELS[code].value
              for code in ds.site_depths[:, i].tolist()),
            *(number(float(col[i])) if col.dtype == np.float64 else col[i] or ""
              for col in ds.extras.values()),
        ])
    return buf.getvalue()


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_rows_written_as_csv_writer_writes_them(data):
    """Blocks of rows are joined with "," unless an id or categorical cell
    of the block holds a character csv may quote. Either way the text is
    what csv.writer writes, which on Python 3.11 quotes "\\n" but not "\\r"."""
    n = data.draw(st.integers(0, 9))
    cell = st.text(alphabet='ab ,"\r\n', max_size=3)
    base = random_dataset(n, data.draw(st.integers(0, 2**32 - 1)))
    ds = Dataset(
        np.array([data.draw(cell) + str(i) for i in range(n)], dtype=object),
        base.numerics, base.site_areas, base.site_depths,
        {"ventilation_days": base.extras["ventilation_days"],
         "sex": np.array([data.draw(st.none() | cell) for _ in range(n)], dtype=object)},
    )
    with mock.patch.object(dataio, "_WRITE_ROWS", data.draw(st.integers(1, 4))):
        assert csv_text(ds) == _csv_writer_text(ds)


def test_write_peak_memory_does_not_grow_with_rows():
    """Writing holds one block of rows as cell strings, so ten times the
    rows peaks at about the same memory; holding every cell would take
    about ten times as much."""
    def peak(n):
        return traced_peak(dataio.cohort_csv_text, random_dataset(n, 1), Discard())

    assert peak(20000) <= 1.5 * peak(2000)


# ---------------------------------------------------------------------------
# Chunked reading: the chunk size never shows in the result
# ---------------------------------------------------------------------------

_CHUNK_SIZES = (1, 2, 3, dataio._CHUNK_ROWS)


def _parse_outcomes(text: str) -> list:
    """For each chunk size, the parsed dataset with its canonical text, or
    the error message."""
    outcomes = []
    for size in _CHUNK_SIZES:
        with mock.patch.object(dataio, "_CHUNK_ROWS", size):
            try:
                ds = parse_cohort_csv(text)
            except InvalidArgument as err:
                outcomes.append(str(err))
            else:
                outcomes.append((ds, csv_text(ds)))
    return outcomes


def _render(rows) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


@settings(max_examples=80, deadline=None)
@given(cohort_files(), st.data())
def test_chunk_size_does_not_change_result(case, data):
    rows = list(csv.reader(io.StringIO(case[0])))
    header = rows[0]
    if len(rows) > 1:
        row = st.integers(1, len(rows) - 1)
        for _ in range(data.draw(st.integers(0, 2))):
            column, value = data.draw(st.sampled_from(_bad_cells(header)))
            rows[data.draw(row)][header.index(column)] = value
        for _ in range(data.draw(st.integers(0, 2))):  # rows cut short or one cell too long
            r, width = data.draw(row), data.draw(st.integers(0, len(header) + 1))
            rows[r] = (rows[r] + ["x"])[:width]
    outcomes = _parse_outcomes(_render(rows))
    assert all(outcome == outcomes[0] for outcome in outcomes[1:])


def test_numeric_looking_extra_with_late_word_stays_categorical(small_cohort):
    """A column's kind is decided over every row, not over the first chunk:
    "nan" in row 1 is a category, not a bad number."""
    rows = list(csv.reader(io.StringIO(csv_text(small_cohort))))
    column = rows[0].index("ventilation_days")
    rows[1][column], rows[8][column] = "nan", "abc"
    outcomes = _parse_outcomes(_render(rows))
    assert all(outcome == outcomes[0] for outcome in outcomes[1:])
    ds = outcomes[0][0]
    assert ds.extra_schema["ventilation_days"] == "categorical"
    assert ds.extras["ventilation_days"][0] == "nan" and ds.extras["ventilation_days"][7] == "abc"


def test_bad_cell_in_earlier_chunk_beats_later_ragged_row(small_cohort):
    rows = list(csv.reader(io.StringIO(csv_text(small_cohort))))
    rows[2][rows[0].index("los_days")] = "-1"
    rows[9] = rows[9][:10]
    outcomes = _parse_outcomes(_render(rows))
    assert outcomes == [f"row id {rows[2][0]!r}, column 'los_days': '-1' is not in [0, 1.79769e+308]"] * 4


@pytest.mark.parametrize("newline", [b"\n", b"\r\n"])
def test_undecodable_byte_names_line_and_file_offset(tmp_path, small_cohort, newline):
    """The reader decodes in blocks, so the codec's own position counts from
    the start of a block; the error names the file's line and byte offset."""
    lines = csv_text(small_cohort).encode("utf-8").split(b"\n")[:-1]
    lines[-1] = lines[-1][:40] + b"\xff" + lines[-1][40:]
    data = newline.join(lines) + newline
    offset = data.index(b"\xff")
    assert offset > 8192
    path = tmp_path / "bad.csv"
    path.write_bytes(data)
    with pytest.raises(InvalidArgument) as err:
        read_cohort_csv(path)
    message = str(err.value)
    assert f"line {len(lines)}, byte {offset}:" in message
    assert "'utf-8' codec can't decode byte 0xff" in message
