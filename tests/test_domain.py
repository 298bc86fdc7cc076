import numpy as np
import pytest
from hypothesis import given, strategies as st

from casemix.domain import (
    SITE_CODES,
    CostMatrix,
    Dataset,
    Depth,
    linear_cost_matrix,
)
from casemix.errors import InvalidArgument
from tests.helpers import cost, csv_text, parse_cohort_csv, zero_one_cost_matrix
from tests.records import BurnSiteEntry, dataset_of, make_record, records_of


def read_back(*records, schema=None) -> Dataset:
    """The records written as a cohort CSV and parsed again."""
    return parse_cohort_csv(csv_text(dataset_of(*records, schema=schema)))


class TestValidateRecord:
    """A record's invariants are checked by the CSV reader, column by column."""

    def test_valid_record_ok(self):
        rec = make_record(tbsa=12.0)
        assert records_of(read_back(rec)) == (rec,)

    def test_wrong_site_count(self):
        lines = csv_text(dataset_of(make_record())).splitlines()
        header = lines[0].replace(",site_27_area", "").replace(",site_27_depth", "")
        with pytest.raises(InvalidArgument, match="expected core/site columns"):
            parse_cohort_csv(header + "\n")

    def test_tbsa_out_of_range(self):
        with pytest.raises(InvalidArgument, match="'tbsa_pct'"):
            read_back(make_record(tbsa_pct=101.0))

    def test_negative_fields_flagged(self):
        for field, value in (("los_days", -1.0), ("total_cost", -5.0)):
            with pytest.raises(InvalidArgument, match=f"'{field}'.*not in"):
                read_back(make_record(**{field: value}))

    def test_missing_fields_skip_range_checks(self):
        rec = make_record(los_days=None, tbsa_pct=None, theatre_visits=None)
        assert records_of(read_back(rec)) == (rec,)

    def test_extra_feature_schema(self):
        rec = make_record(extra_features={"sex": "F", "visits": 2.0})
        schema = {"sex": "categorical", "visits": "numeric"}
        assert read_back(rec, schema=schema).extra_schema == schema
        bad = make_record(extra_features={"visits": float("inf")})
        with pytest.raises(InvalidArgument, match="'visits'"):
            read_back(bad, schema={"visits": "numeric"})

    def test_site_sum_check_is_opt_in(self):
        """Site areas need not sum to tbsa_pct in a cohort file; only the
        generator guarantees it (test_cohort)."""
        rec = make_record(tbsa=12.0, tbsa_pct=30.0)
        assert records_of(read_back(rec)) == (rec,)


class TestCostMatrix:
    def test_linear_entries(self):
        m = linear_cost_matrix(13)
        assert m.k == 13
        assert m.entries[5][5] == 0.0
        assert cost(m, 1, 3) == 2.0
        assert cost(m, 6, 6) == 0.0

    def test_k2_is_zero_one(self):
        assert np.array_equal(linear_cost_matrix(2).entries, [[0, 1], [1, 0]])

    def test_k_too_small(self):
        with pytest.raises(InvalidArgument):
            linear_cost_matrix(1)

    def test_zero_diagonal_enforced(self):
        with pytest.raises(InvalidArgument):
            CostMatrix(np.array([[1.0, 0.0], [0.0, 0.0]]))

    def test_negative_entries_rejected(self):
        with pytest.raises(InvalidArgument):
            CostMatrix(np.array([[0.0, -1.0], [1.0, 0.0]]))

    def test_non_square_rejected(self):
        with pytest.raises(InvalidArgument):
            CostMatrix(np.zeros((2, 3)))

    def test_zero_one(self):
        m = zero_one_cost_matrix(4)
        assert cost(m, 2, 2) == 0.0
        assert cost(m, 1, 4) == 1.0

    @given(st.integers(min_value=2, max_value=40))
    def test_linear_symmetric_triangle(self, k):
        m = linear_cost_matrix(k).entries
        assert np.array_equal(m, m.T)
        # triangle inequality over ranks: |i-j| <= |i-l| + |l-j|
        for i in range(k):
            for j in range(k):
                assert np.all(m[i, j] <= m[i, :] + m[:, j])


class TestDataset:
    def test_bad_schema_kind(self):
        """An extra column is float64 (numeric) or object (categorical)."""
        ds = dataset_of(make_record())
        with pytest.raises(InvalidArgument, match="extra feature 'x'"):
            Dataset(ds.ids, ds.numerics, ds.site_areas, ds.site_depths, {"x": np.ones(1, bool)})

    def test_factor_values_missing_as_nan(self):
        ds = dataset_of(make_record(los_days=None), make_record(los_days=2.0))
        vals = ds.factor_values("los_days")
        assert np.isnan(vals[0]) and vals[1] == 2.0

    def test_factor_values_unknown(self):
        with pytest.raises(InvalidArgument):
            dataset_of().factor_values("height")

    def test_records_round_trip(self):
        sites = list(make_record().burn_sites)
        sites[4] = BurnSiteEntry(SITE_CODES[4], None, Depth.FULL)
        sites[5] = BurnSiteEntry(SITE_CODES[5], -0.0, None)
        records = (
            make_record(id="a", extra_features={"sex": "F", "visits": 2.0}),
            make_record(id="b", los_days=None, theatre_visits=None, burn_sites=tuple(sites),
                        extra_features={"sex": None, "visits": None}),
        )
        ds = dataset_of(*records, schema={"sex": "categorical", "visits": "numeric"})
        assert records_of(ds) == records
        assert dataset_of(*records_of(ds), schema=ds.extra_schema) == ds
        assert repr(records_of(ds)[1].burn_sites[5].area_pct) == "-0.0"
        assert ds.site_depths[5, 1] == -1 and np.isnan(ds.site_areas[4, 1])

    def test_take(self):
        records = [make_record(id=str(i), los_days=float(i)) for i in range(5)]
        ds = dataset_of(*records)
        sub = ds.take([4, 0, 4])
        assert sub.ids.tolist() == ["4", "0", "4"]
        assert records_of(sub) == (records[4], records[0], records[4])
        assert len(ds.take([])) == 0

    def test_columns_read_only(self):
        ds = dataset_of(make_record())
        with pytest.raises(ValueError):
            ds.site_areas[0, 0] = 1.0

    def test_wrong_sites_count_rejected(self):
        ds = dataset_of(make_record())
        with pytest.raises(InvalidArgument, match="expected"):
            Dataset(ds.ids, ds.numerics, ds.site_areas[1:], ds.site_depths)
