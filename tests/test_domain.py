import numpy as np
import pytest
from hypothesis import given, strategies as st

from casemix.domain import (
    N_SITES,
    SITE_CODES,
    BurnSiteEntry,
    CostMatrix,
    Dataset,
    Depth,
    PatientRecord,
    linear_cost_matrix,
    validate_record,
    zero_one_cost_matrix,
)
from casemix.errors import InvalidArgument


def make_record(tbsa=12.0, n_sites=N_SITES, **overrides):
    sites = []
    for i in range(n_sites):
        area = tbsa if i == 0 else 0.0
        depth = Depth.PARTIAL if i == 0 else Depth.NONE
        sites.append(BurnSiteEntry(SITE_CODES[i % N_SITES], area, depth))
    fields = dict(
        id="X1",
        age_years=4.0,
        los_days=3.0,
        total_cost=1500.0,
        tbsa_pct=tbsa,
        theatre_visits=1,
        burn_sites=tuple(sites),
        extra_features={},
    )
    fields.update(overrides)
    return PatientRecord(**fields)


class TestValidateRecord:
    def test_valid_record_ok(self):
        assert validate_record(make_record(tbsa=12.0), {}) == []

    def test_wrong_site_count(self):
        violations = validate_record(make_record(n_sites=26), {})
        assert any("burn_sites count" in v for v in violations)

    def test_tbsa_out_of_range(self):
        violations = validate_record(make_record(tbsa_pct=101.0), {})
        assert any("tbsa range" in v for v in violations)

    def test_negative_fields_flagged(self):
        violations = validate_record(make_record(los_days=-1.0, total_cost=-5.0), {})
        assert len([v for v in violations if "negative" in v]) == 2

    def test_missing_fields_skip_range_checks(self):
        rec = make_record(los_days=None, tbsa_pct=None, theatre_visits=None)
        assert validate_record(rec, {}) == []

    def test_extra_feature_schema(self):
        rec = make_record(extra_features={"sex": "F", "visits": 2.0})
        schema = {"sex": "categorical", "visits": "numeric"}
        assert validate_record(rec, schema) == []
        bad = validate_record(make_record(extra_features={"sex": 1.0}), {"sex": "categorical"})
        assert any("expected categorical" in v for v in bad)
        missing = validate_record(make_record(extra_features={}), {"sex": "categorical"})
        assert any("extra feature missing" in v for v in missing)

    def test_site_sum_check_is_opt_in(self):
        rec = make_record(tbsa=12.0, tbsa_pct=30.0)
        assert validate_record(rec, {}) == []
        violations = validate_record(rec, {}, check_site_sum=True)
        assert any("site areas sum" in v for v in violations)


class TestCostMatrix:
    def test_linear_entries(self):
        m = linear_cost_matrix(13)
        assert m.k == 13
        assert m.entries[5][5] == 0.0
        assert m.cost(1, 3) == 2.0
        assert m.cost(6, 6) == 0.0

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
        assert m.cost(2, 2) == 0.0
        assert m.cost(1, 4) == 1.0

    @given(st.integers(min_value=2, max_value=40))
    def test_linear_symmetric_triangle(self, k):
        m = linear_cost_matrix(k).entries
        assert np.array_equal(m, m.T)
        # triangle inequality over ranks: |i-j| <= |i-l| + |l-j|
        for i in range(k):
            for j in range(k):
                assert np.all(m[i, j] <= m[i, :] + m[:, j])


class TestDataset:
    def test_label_length_checked(self):
        rec = make_record()
        with pytest.raises(InvalidArgument):
            Dataset.from_records((rec,), labels=(1, 2))

    def test_bad_schema_kind(self):
        with pytest.raises(InvalidArgument):
            Dataset.from_records((), {"x": "boolean"})

    def test_factor_values_missing_as_nan(self):
        ds = Dataset.from_records((make_record(los_days=None), make_record(los_days=2.0)))
        vals = ds.factor_values("los_days")
        assert np.isnan(vals[0]) and vals[1] == 2.0

    def test_factor_values_unknown(self):
        with pytest.raises(InvalidArgument):
            Dataset.from_records(()).factor_values("height")

    def test_records_round_trip(self):
        sites = list(make_record().burn_sites)
        sites[4] = BurnSiteEntry(SITE_CODES[4], None, Depth.FULL)
        sites[5] = BurnSiteEntry(SITE_CODES[5], -0.0, None)
        records = (
            make_record(id="a", extra_features={"sex": "F", "visits": 2.0}),
            make_record(id="b", los_days=None, theatre_visits=None, burn_sites=tuple(sites),
                        extra_features={"sex": None, "visits": None}),
        )
        ds = Dataset.from_records(records, {"sex": "categorical", "visits": "numeric"})
        assert ds.records == records
        assert Dataset.from_records(ds.records, ds.extra_schema) == ds
        assert repr(ds.records[1].burn_sites[5].area_pct) == "-0.0"
        assert ds.site_depths[5, 1] == -1 and np.isnan(ds.site_areas[4, 1])

    def test_records_share_equal_site_entries(self):
        ds = Dataset.from_records([make_record(id=str(i)) for i in range(3)])
        first, second = ds.records[0].burn_sites, ds.records[1].burn_sites
        assert all(a is b for a, b in zip(first, second))

    def test_take(self):
        records = [make_record(id=str(i), los_days=float(i)) for i in range(5)]
        ds = Dataset.from_records(records, labels=(1, 2, 3, 4, 5))
        sub = ds.take([4, 0, 4])
        assert sub.ids.tolist() == ["4", "0", "4"]
        assert sub.labels == (5, 1, 5)
        assert sub.records == (records[4], records[0], records[4])
        assert len(ds.take([])) == 0

    def test_columns_read_only(self):
        ds = Dataset.from_records([make_record()])
        with pytest.raises(ValueError):
            ds.site_areas[0, 0] = 1.0

    def test_wrong_sites_count_rejected(self):
        with pytest.raises(InvalidArgument):
            Dataset.from_records([make_record(n_sites=26)])
