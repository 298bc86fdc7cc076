import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import casemix.preprocess as preprocess_module
from casemix.cohort import CohortConfig, generate_cohort, inject_missingness
from casemix.domain import DEPTH_LEVELS, MISSING_DEPTH, N_SITES, Dataset, Depth
from casemix.errors import InvalidArgument
from casemix.hrg import no_burn_recorded
from casemix.preprocess import (
    COST_OUTLIER,
    LOS_OUTLIER,
    PreprocessReport,
    count_missing_cells,
    impute_zeros,
    log1p_factor,
    preprocess,
)
from tests.helpers import array_bytes, blanked_cohort, traced_peak
from tests.records import dataset_of, make_record, records_of


class TestImputeZeros:
    def test_no_missing_is_identity(self, small_cohort):
        clean = impute_zeros(small_cohort)
        assert impute_zeros(clean) == clean

    def test_missing_numeric_becomes_zero(self):
        ds = dataset_of(make_record(los_days=None, theatre_visits=None))
        out = impute_zeros(ds)
        assert records_of(out)[0].los_days == 0.0
        assert records_of(out)[0].theatre_visits == 0

    def test_missing_depth_becomes_none_level(self):
        rec = make_record()
        sites = list(rec.burn_sites)
        sites[3] = sites[3].__class__(sites[3].site_code, None, None)
        ds = dataset_of(make_record(burn_sites=tuple(sites)))
        out = impute_zeros(ds)
        assert records_of(out)[0].burn_sites[3].area_pct == 0.0
        assert records_of(out)[0].burn_sites[3].depth is Depth.NONE

    def test_missing_categorical_extra(self):
        ds = dataset_of(
            make_record(extra_features={"sex": None, "visits": None}),
            schema={"sex": "categorical", "visits": "numeric"},
        )
        out = impute_zeros(ds)
        assert records_of(out)[0].extra_features == {"sex": "none", "visits": 0.0}

    def test_inverse_of_injection(self, small_cohort):
        blanked = inject_missingness(small_cohort, 1.0, seed=3)
        assert impute_zeros(blanked) == impute_zeros(small_cohort)


def _no_burn(**overrides):
    """A record with no burn area and no burn depth at any site."""
    sites = tuple(s.__class__(s.site_code, 0.0, Depth.NONE) for s in make_record().burn_sites)
    return make_record(burn_sites=sites, tbsa_pct=0.0, **overrides)


class TestRemoveOutliers:
    def test_strict_boundaries(self):
        kept_rec = make_record(id="keep", los_days=360.0, total_cost=1_000_000.0)
        dropped_los = make_record(id="los", los_days=361.0)
        dropped_cost = make_record(id="cost", total_cost=1_000_000.01)
        ds = dataset_of(kept_rec, dropped_los, dropped_cost)
        out, report = preprocess(ds)
        assert out.ids.tolist() == ["keep"]
        assert report.outliers_removed == 2
        assert report.outliers_by_reason == {"los_gt_360": 1, "cost_gt_1m": 1}
        assert report.reconciles()

    def test_double_reason_counted_once_in_total(self):
        ds = dataset_of(make_record(los_days=400.0, total_cost=2e6))
        out, report = preprocess(ds)
        assert len(out.ids) == 0
        assert report.outliers_removed == 1
        assert report.outliers_by_reason == {"los_gt_360": 1, "cost_gt_1m": 1}

    def test_unclassifiable_outlier_counted_as_unclassifiable_only(self):
        ds = dataset_of(_no_burn(id="gone", los_days=400.0), make_record(id="keep"))
        out, report = preprocess(ds)
        assert out.ids.tolist() == ["keep"]
        assert report.unclassifiable_removed == 1
        assert report.outliers_removed == 0
        assert report.outliers_by_reason == {"los_gt_360": 0, "cost_gt_1m": 0}

    def test_one_row_selection(self, monkeypatch):
        """The kept rows are selected once, in the copy that imputation
        fills; a clean dataset is neither selected nor copied."""
        calls = []
        take, impute = Dataset.take, preprocess_module.impute_zeros
        monkeypatch.setattr(Dataset, "take", lambda self, idx: calls.append(idx) or take(self, idx))
        monkeypatch.setattr(preprocess_module, "impute_zeros",
                            lambda ds, rows=None: calls.append(rows) or impute(ds, rows))
        ds = dataset_of(
            make_record(id="keep"), _no_burn(id="none"), make_record(id="los", los_days=400.0)
        )
        out, _ = preprocess(ds)
        assert out.ids.tolist() == ["keep"]
        assert len(calls) == 1 and calls[0].tolist() == [0]
        preprocess(out)
        assert len(calls) == 1


class TestRemoveUnclassifiable:
    def test_all_zero_dropped(self):
        out, report = preprocess(dataset_of(_no_burn()))
        assert len(out.ids) == 0
        assert report.unclassifiable_removed == 1

    def test_single_area_keeps(self):
        rec = make_record()
        sites = list(rec.burn_sites)
        sites = [s.__class__(s.site_code, 0.0, Depth.NONE) for s in sites]
        sites[5] = sites[5].__class__(sites[5].site_code, 0.5, Depth.NONE)
        out, _ = preprocess(dataset_of(make_record(burn_sites=tuple(sites))))
        assert len(out.ids) == 1

    def test_depth_alone_keeps(self):
        rec = make_record()
        sites = [s.__class__(s.site_code, 0.0, Depth.NONE) for s in rec.burn_sites]
        sites[2] = sites[2].__class__(sites[2].site_code, 0.0, Depth.PARTIAL)
        out, _ = preprocess(dataset_of(make_record(burn_sites=tuple(sites))))
        assert len(out.ids) == 1


class TestDropIrrelevantVariables:
    def test_constant_dropped(self):
        recs = [make_record(id=str(i), extra_features={"c": "yes", "v": float(i)}) for i in range(5)]
        ds = dataset_of(*recs, schema={"c": "categorical", "v": "numeric"})
        out, report = preprocess(ds)
        assert report.variables_dropped == {"c": "constant"}
        assert list(out.extra_schema) == ["v"]

    def test_high_missingness_dropped(self):
        recs = [
            make_record(id=str(i), extra_features={"m": None if i < 7 else 1.0, "v": float(i)})
            for i in range(10)
        ]
        ds = dataset_of(*recs, schema={"m": "numeric", "v": "numeric"})
        out, report = preprocess(ds, missing_threshold=0.6)
        assert "m" in report.variables_dropped
        assert report.variables_dropped["m"].startswith("missing_fraction")
        assert report.variables_dropped["m"] == "missing_fraction 0.700 > 0.6"

    def test_duplicate_second_dropped(self):
        recs = [
            make_record(id=str(i), extra_features={"a": float(i), "b": float(i)})
            for i in range(4)
        ]
        ds = dataset_of(*recs, schema={"a": "numeric", "b": "numeric"})
        out, report = preprocess(ds)
        assert report.variables_dropped == {"b": "duplicate_of:a"}
        assert list(out.extra_schema) == ["a"]

    def test_admin_fields_dropped(self):
        recs = [make_record(id=str(i), extra_features={"yr": 2003.0 + i}) for i in range(3)]
        ds = dataset_of(*recs, schema={"yr": "numeric"})
        _, report = preprocess(ds, admin_fields=("yr",))
        assert report.variables_dropped == {"yr": "administrative"}

    def test_constant_only_on_surviving_rows(self):
        recs = [make_record(id=str(i), extra_features={"c": "a", "v": float(i)}) for i in range(3)]
        recs.append(make_record(id="cost", total_cost=2e6, extra_features={"c": "b", "v": 9.0}))
        ds = dataset_of(*recs, schema={"c": "categorical", "v": "numeric"})
        out, report = preprocess(ds)
        assert report.variables_dropped == {"c": "constant"}
        assert list(out.extra_schema) == ["v"]

    def test_duplicate_only_on_surviving_rows(self):
        recs = [make_record(id=str(i), extra_features={"a": float(i), "b": float(i)}) for i in range(3)]
        recs.append(_no_burn(id="none", extra_features={"a": 3.0, "b": 7.0}))
        ds = dataset_of(*recs, schema={"a": "numeric", "b": "numeric"})
        out, report = preprocess(ds)
        assert report.variables_dropped == {"b": "duplicate_of:a"}
        assert out.ids.tolist() == ["0", "1", "2"]

    def test_no_constant_check_without_rows(self):
        # With no surviving rows no column is constant, and empty columns
        # are equal whatever their kind, so each is a duplicate of the first.
        ds = dataset_of(
            _no_burn(extra_features={"a": 1.0, "b": "x"}),
            schema={"a": "numeric", "b": "categorical"},
        )
        out, report = preprocess(ds)
        assert len(out.ids) == 0
        assert report.variables_dropped == {"b": "duplicate_of:a"}


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


def test_peak_memory_one_copy_of_kept_rows():
    """The kept rows are copied once and imputed in that copy."""
    ds = blanked_cohort(5000)
    assert traced_peak(preprocess, ds) < 1.25 * array_bytes(ds)


def _impute_then_select(ds: Dataset) -> tuple[Dataset, PreprocessReport]:
    """``preprocess`` at its default settings, the other way round: every
    row is imputed, and rows are chosen on the imputed values."""
    n, dropped = len(ds), {}
    for name, col in ds.extras.items():
        missing = int((np.isnan(col) if col.dtype == np.float64 else np.equal(col, None)).sum())
        if n and missing / n > 0.6:
            dropped[name] = f"missing_fraction {missing / n:.3f} > 0.6"
    ds = Dataset(ds.ids, ds.numerics, ds.site_areas, ds.site_depths,
                 {name: col for name, col in ds.extras.items() if name not in dropped})
    cells = count_missing_cells(ds)
    ds = impute_zeros(ds)
    unclassifiable = no_burn_recorded(ds)
    los_out = ~unclassifiable & (ds.factor_values("los_days") > LOS_OUTLIER)
    cost_out = ~unclassifiable & (ds.factor_values("total_cost") > COST_OUTLIER)
    ds = ds.take(np.flatnonzero(~(unclassifiable | los_out | cost_out)))
    seen = []
    for name, col in ds.extras.items():
        first = next((s for s in seen if ds.extras[s].tolist() == col.tolist()), None)
        if len(ds) and (col == col[0]).all():
            dropped[name] = "constant"
        elif first is not None:
            dropped[name] = f"duplicate_of:{first}"
        else:
            seen.append(name)
    ds = Dataset(ds.ids, ds.numerics, ds.site_areas, ds.site_depths,
                 {name: col for name, col in ds.extras.items() if name not in dropped})
    return ds, PreprocessReport(
        rows_in=n, rows_out=len(ds), outliers_removed=int((los_out | cost_out).sum()),
        outliers_by_reason={"los_gt_360": int(los_out.sum()), "cost_gt_1m": int(cost_out.sum())},
        unclassifiable_removed=int(unclassifiable.sum()), variables_dropped=dropped,
        cells_imputed=cells,
    )


@st.composite
def gappy_datasets(draw):
    """Up to 12 records whose LOS and cost may be missing or beyond the
    outlier thresholds, and whose sites are blank (area 0, depth none) or
    missing, except at the burned records' burned sites; with a numeric and
    a categorical extra, each with missing cells."""
    n = draw(st.integers(0, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    numerics = rng.choice([np.nan, 0.0, 7.5, LOS_OUTLIER, 361.0, COST_OUTLIER, 2e6], (5, n))
    numerics[-1] = rng.choice([np.nan, 0.0, 2.0], n)
    burn = (rng.random(n) < draw(st.floats(0, 1))) & (rng.random((N_SITES, n)) < 0.3)
    unburned = rng.choice([DEPTH_LEVELS.index(Depth.NONE), MISSING_DEPTH], (N_SITES, n))
    return Dataset(
        np.array([f"R{i}" for i in range(n)], dtype=object), numerics,
        np.where(burn, 4.5, rng.choice([0.0, np.nan], (N_SITES, n))),
        np.where(burn, DEPTH_LEVELS.index(Depth.PARTIAL), unburned).astype(np.int8),
        {"visits": rng.choice([np.nan, 1.0, 2.0], n),
         "sex": np.array(["F", "M", None], dtype=object)[rng.integers(0, 3, n)]},
    )


@settings(deadline=None)
@given(gappy_datasets())
def test_selecting_before_imputing_changes_nothing(ds):
    """Rows chosen on the values before imputation are the rows chosen on
    the imputed values: the datasets and reports are equal."""
    out, report = preprocess(ds)
    expected, expected_report = _impute_then_select(ds)
    assert out == expected
    assert report == expected_report
