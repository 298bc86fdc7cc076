import csv
import io
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from casemix import dataio
from casemix.cohort import CohortConfig, generate_cohort, inject_missingness
from casemix.dataio import (
    cohort_csv_text,
    dataset_sha256,
    parse_cohort_csv,
    read_cohort_csv,
    write_cohort_csv,
)
from casemix.domain import N_SITES
from casemix.errors import InvalidArgument


def test_round_trip_bit_exact(tmp_path, small_cohort):
    path = tmp_path / "cohort.csv"
    write_cohort_csv(small_cohort, path)
    ds2 = read_cohort_csv(path)
    assert cohort_csv_text(ds2) == path.read_text(encoding="utf-8")
    assert ds2.records == small_cohort.records
    assert ds2.extra_schema == small_cohort.extra_schema


def test_round_trip_with_missingness(tmp_path):
    ds = generate_cohort(CohortConfig(n=120, seed=3))
    ds = inject_missingness(ds, rate=0.5, seed=9)
    path = tmp_path / "cohort.csv"
    write_cohort_csv(ds, path)
    ds2 = read_cohort_csv(path)
    assert ds2.records == ds.records
    # second write is byte-identical (serialization is canonical)
    assert cohort_csv_text(ds2) == path.read_text(encoding="utf-8")


def test_hash_is_content_hash(small_cohort):
    h1 = dataset_sha256(small_cohort)
    h2 = dataset_sha256(read_cohort_sha_roundtrip(small_cohort))
    assert h1 == h2


def read_cohort_sha_roundtrip(ds):
    return parse_cohort_csv(cohort_csv_text(ds))


def test_empty_text_rejected():
    with pytest.raises(InvalidArgument):
        parse_cohort_csv("")


def test_wrong_header_rejected():
    with pytest.raises(InvalidArgument):
        parse_cohort_csv("id,age\nX,1\n")


def test_ragged_row_rejected(small_cohort):
    text = cohort_csv_text(small_cohort)
    lines = text.splitlines()
    lines[1] = lines[1] + ",extra_cell"
    with pytest.raises(InvalidArgument):
        parse_cohort_csv("\n".join(lines) + "\n")


def test_kind_inference(small_cohort):
    ds = parse_cohort_csv(cohort_csv_text(small_cohort))
    assert ds.extra_schema["ventilation_days"] == "numeric"
    assert ds.extra_schema["sex"] == "categorical"


def test_header_only_gives_empty_dataset(small_cohort):
    header = cohort_csv_text(small_cohort).splitlines()[0]
    ds = parse_cohort_csv(header + "\n")
    assert len(ds.records) == 0


def with_cell(ds, record_index, column, value) -> str:
    """The dataset's CSV text with one cell replaced."""
    rows = list(csv.reader(io.StringIO(cohort_csv_text(ds))))
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
    assert repr(small_cohort.records[3].id) in str(err.value)
    assert repr(column) in str(err.value)


@pytest.mark.parametrize("column,value", [("tbsa_pct", "100"), ("tbsa_pct", "0"), ("los_days", "0")])
def test_domain_boundary_cells_accepted(small_cohort, column, value):
    ds = parse_cohort_csv(with_cell(small_cohort, 3, column, value))
    assert getattr(ds.records[3], column) == float(value)


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
    columns = [[draw(st.text('ab01,"- ', min_size=1, max_size=4)) for _ in range(n)]]
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
    assert cohort_csv_text(parse_cohort_csv(text)) == canonical
    assert cohort_csv_text(parse_cohort_csv(canonical)) == canonical


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


def test_ragged_row_reported_after_earlier_bad_cell(small_cohort):
    rows = list(csv.reader(io.StringIO(cohort_csv_text(small_cohort))))
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
        parse_cohort_csv(cohort_csv_text(small_cohort) + "\n")


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
    assert cohort_csv_text(read_cohort_csv(crlf)) == text


def test_read_peak_memory_bounded_by_file_size(tmp_path):
    """Reading holds a bounded chunk of rows plus each column's distinct
    cells, not every cell of the file at once."""
    path = tmp_path / "cohort.csv"
    write_cohort_csv(generate_cohort(CohortConfig(n=5000, seed=11)), path)
    tracemalloc.start()
    try:
        read_cohort_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * path.stat().st_size


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
                outcomes.append((ds, cohort_csv_text(ds)))
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
    rows = list(csv.reader(io.StringIO(cohort_csv_text(small_cohort))))
    column = rows[0].index("ventilation_days")
    rows[1][column], rows[8][column] = "nan", "abc"
    outcomes = _parse_outcomes(_render(rows))
    assert all(outcome == outcomes[0] for outcome in outcomes[1:])
    ds = outcomes[0][0]
    assert ds.extra_schema["ventilation_days"] == "categorical"
    assert ds.extras["ventilation_days"][0] == "nan" and ds.extras["ventilation_days"][7] == "abc"


def test_bad_cell_in_earlier_chunk_beats_later_ragged_row(small_cohort):
    rows = list(csv.reader(io.StringIO(cohort_csv_text(small_cohort))))
    rows[2][rows[0].index("los_days")] = "-1"
    rows[9] = rows[9][:10]
    outcomes = _parse_outcomes(_render(rows))
    assert outcomes == [f"row id {rows[2][0]!r}, column 'los_days': '-1' is not in [0, 1.79769e+308]"] * 4


@pytest.mark.parametrize("newline", [b"\n", b"\r\n"])
def test_undecodable_byte_names_line_and_file_offset(tmp_path, small_cohort, newline):
    """The reader decodes in blocks, so the codec's own position counts from
    the start of a block; the error names the file's line and byte offset."""
    lines = cohort_csv_text(small_cohort).encode("utf-8").split(b"\n")[:-1]
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
