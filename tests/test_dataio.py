import csv
import io

import pytest

from casemix.cohort import CohortConfig, generate_cohort, inject_missingness
from casemix.dataio import (
    cohort_csv_text,
    dataset_sha256,
    parse_cohort_csv,
    read_cohort_csv,
    write_cohort_csv,
)
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
