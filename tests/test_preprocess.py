import numpy as np
import pytest
from hypothesis import given, strategies as st

from casemix.cohort import CohortConfig, generate_cohort, inject_missingness
from casemix.domain import Depth
from casemix.errors import InvalidArgument
from casemix.preprocess import (
    count_missing_cells,
    drop_irrelevant_variables,
    impute_zeros,
    log1p_factor,
    preprocess,
    remove_outliers,
    remove_unclassifiable,
)
from tests.records import dataset_of, make_record


class TestImputeZeros:
    def test_no_missing_is_identity(self, small_cohort):
        clean = impute_zeros(small_cohort)
        assert impute_zeros(clean) == clean

    def test_missing_numeric_becomes_zero(self):
        ds = dataset_of(make_record(los_days=None, theatre_visits=None))
        out = impute_zeros(ds)
        assert out.records[0].los_days == 0.0
        assert out.records[0].theatre_visits == 0

    def test_missing_depth_becomes_none_level(self):
        rec = make_record()
        sites = list(rec.burn_sites)
        sites[3] = sites[3].__class__(sites[3].site_code, None, None)
        ds = dataset_of(make_record(burn_sites=tuple(sites)))
        out = impute_zeros(ds)
        assert out.records[0].burn_sites[3].area_pct == 0.0
        assert out.records[0].burn_sites[3].depth is Depth.NONE

    def test_missing_categorical_extra(self):
        ds = dataset_of(
            make_record(extra_features={"sex": None, "visits": None}),
            schema={"sex": "categorical", "visits": "numeric"},
        )
        out = impute_zeros(ds)
        assert out.records[0].extra_features == {"sex": "none", "visits": 0.0}

    def test_inverse_of_injection(self, small_cohort):
        blanked = inject_missingness(small_cohort, 1.0, seed=3)
        assert impute_zeros(blanked) == impute_zeros(small_cohort)


class TestRemoveOutliers:
    def test_strict_boundaries(self):
        kept_rec = make_record(id="keep", los_days=360.0, total_cost=1_000_000.0)
        dropped_los = make_record(id="los", los_days=361.0)
        dropped_cost = make_record(id="cost", total_cost=1_000_000.01)
        ds = dataset_of(kept_rec, dropped_los, dropped_cost)
        out, report = remove_outliers(ds)
        assert [r.id for r in out.records] == ["keep"]
        assert report.outliers_removed == 2
        assert report.outliers_by_reason == {"los_gt_360": 1, "cost_gt_1m": 1}
        assert report.reconciles()

    def test_double_reason_counted_once_in_total(self):
        ds = dataset_of(make_record(los_days=400.0, total_cost=2e6))
        out, report = remove_outliers(ds)
        assert len(out.records) == 0
        assert report.outliers_removed == 1
        assert report.outliers_by_reason == {"los_gt_360": 1, "cost_gt_1m": 1}


class TestRemoveUnclassifiable:
    def test_all_zero_dropped(self):
        rec = make_record(tbsa=0.0, tbsa_pct=0.0)
        sites = tuple(s.__class__(s.site_code, 0.0, Depth.NONE) for s in rec.burn_sites)
        ds = dataset_of(make_record(burn_sites=sites, tbsa_pct=0.0))
        out, report = remove_unclassifiable(ds)
        assert len(out.records) == 0
        assert report.unclassifiable_removed == 1

    def test_single_area_keeps(self):
        rec = make_record()
        sites = list(rec.burn_sites)
        sites = [s.__class__(s.site_code, 0.0, Depth.NONE) for s in sites]
        sites[5] = sites[5].__class__(sites[5].site_code, 0.5, Depth.NONE)
        out, _ = remove_unclassifiable(dataset_of(make_record(burn_sites=tuple(sites))))
        assert len(out.records) == 1

    def test_depth_alone_keeps(self):
        rec = make_record()
        sites = [s.__class__(s.site_code, 0.0, Depth.NONE) for s in rec.burn_sites]
        sites[2] = sites[2].__class__(sites[2].site_code, 0.0, Depth.PARTIAL)
        out, _ = remove_unclassifiable(dataset_of(make_record(burn_sites=tuple(sites))))
        assert len(out.records) == 1


class TestDropIrrelevantVariables:
    def test_constant_dropped(self):
        recs = [make_record(id=str(i), extra_features={"c": "yes", "v": float(i)}) for i in range(5)]
        ds = dataset_of(*recs, schema={"c": "categorical", "v": "numeric"})
        out, report = drop_irrelevant_variables(ds)
        assert report.variables_dropped == {"c": "constant"}
        assert list(out.extra_schema) == ["v"]

    def test_high_missingness_dropped(self):
        recs = [
            make_record(id=str(i), extra_features={"m": None if i < 7 else 1.0, "v": float(i)})
            for i in range(10)
        ]
        ds = dataset_of(*recs, schema={"m": "numeric", "v": "numeric"})
        out, report = drop_irrelevant_variables(ds, missing_threshold=0.6)
        assert "m" in report.variables_dropped
        assert report.variables_dropped["m"].startswith("missing_fraction")

    def test_duplicate_second_dropped(self):
        recs = [
            make_record(id=str(i), extra_features={"a": float(i), "b": float(i)})
            for i in range(4)
        ]
        ds = dataset_of(*recs, schema={"a": "numeric", "b": "numeric"})
        out, report = drop_irrelevant_variables(ds)
        assert report.variables_dropped == {"b": "duplicate_of:a"}
        assert list(out.extra_schema) == ["a"]

    def test_admin_fields_dropped(self):
        recs = [make_record(id=str(i), extra_features={"yr": 2003.0 + i}) for i in range(3)]
        ds = dataset_of(*recs, schema={"yr": "numeric"})
        _, report = drop_irrelevant_variables(ds, admin_fields=("yr",))
        assert report.variables_dropped == {"yr": "administrative"}


class TestLog1p:
    def test_zero_maps_to_zero(self):
        assert log1p_factor([0.0])[0] == 0.0

    def test_analytic_point(self):
        assert log1p_factor([np.e - 1])[0] == pytest.approx(1.0, abs=1e-12)

    def test_negative_rejected(self):
        with pytest.raises(InvalidArgument):
            log1p_factor([-1.0])

    @given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=2, max_size=50))
    def test_monotone_preserves_ranking(self, values):
        arr = np.sort(np.asarray(values, dtype=np.float64))
        out = log1p_factor(arr)
        diffs = np.diff(out)
        assert np.all(diffs >= 0)
        # strict where inputs are meaningfully separated (float log1p can
        # collapse adjacent representable values)
        separated = np.diff(arr) > 1e-6 * (1.0 + arr[:-1])
        assert np.all(diffs[separated] > 0)


class TestFullPipeline:
    def test_idempotent(self):
        ds = generate_cohort(CohortConfig(n=400, seed=21))
        ds = inject_missingness(ds, 0.4, seed=2)
        once, report1 = preprocess(ds)
        twice, report2 = preprocess(once)
        assert twice == once
        assert report2.rows_in == report2.rows_out
        assert report2.outliers_removed == 0
        assert report2.unclassifiable_removed == 0
        assert report2.variables_dropped == {}

    def test_reconciliation(self):
        ds = generate_cohort(CohortConfig(n=500, seed=13))
        _, report = preprocess(ds)
        assert report.reconciles()
        assert report.rows_out == report.rows_in - report.outliers_removed - report.unclassifiable_removed

    def test_counts_imputed_cells(self):
        ds = generate_cohort(CohortConfig(n=200, seed=13))
        blanked = inject_missingness(ds, 0.5, seed=2)
        expected = count_missing_cells(blanked)
        _, report = preprocess(blanked)
        assert report.cells_imputed == expected > 0

    def test_missingness_assessed_before_imputation(self):
        # A column that is 90% missing must be dropped for missingness even
        # though imputation would later fill it.
        recs = [
            make_record(id=str(i), extra_features={"gap": None if i < 9 else 1.0, "ok": "a" if i % 2 else "b"})
            for i in range(10)
        ]
        ds = dataset_of(*recs, schema={"gap": "numeric", "ok": "categorical"})
        out, report = preprocess(ds)
        assert "gap" in report.variables_dropped
        assert "ok" in out.extra_schema
