"""Cohort cleaning: variable pruning, zero-imputation, exclusions, log transform.

The full pipeline runs in a fixed order:

1. drop extra columns that are administrative or mostly missing (missingness
   must be assessed before imputation hides it),
2. impute zeros (missing numeric -> 0, missing categorical -> "none"),
3. remove unclassifiable records (no burn area or depth at any site),
4. remove outliers (LOS > 360 or cost > 1,000,000, strict),
5. drop extra columns that are constant or duplicates on the surviving rows.

Running the composition a second time is the identity.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .domain import CATEGORICAL_FILL, DEPTH_LEVELS, MISSING_DEPTH, Dataset, Depth, same_values
from .errors import InvalidArgument
from .hrg import no_burn_recorded

#: Outlier thresholds: a record above either is excluded.
LOS_OUTLIER = 360.0
COST_OUTLIER = 1_000_000.0

DEFAULT_MISSING_THRESHOLD = 0.6
DEFAULT_ADMIN_FIELDS = ("admission_year",)

_ALL_CRITERIA = ("administrative", "missing", "constant", "duplicate")
NO_BURN = DEPTH_LEVELS.index(Depth.NONE)


@dataclass
class PreprocessReport:
    """Row/column accounting for one preprocessing pass.

    Invariant: rows_out == rows_in - outliers_removed - unclassifiable_removed.
    """

    rows_in: int = 0
    rows_out: int = 0
    outliers_removed: int = 0
    outliers_by_reason: dict[str, int] = field(default_factory=dict)
    unclassifiable_removed: int = 0
    variables_dropped: dict[str, str] = field(default_factory=dict)
    cells_imputed: int = 0

    def reconciles(self) -> bool:
        return self.rows_out == self.rows_in - self.outliers_removed - self.unclassifiable_removed

    def to_dict(self) -> dict:
        return {
            "rows_in": self.rows_in,
            "rows_out": self.rows_out,
            "outliers_removed": self.outliers_removed,
            "outliers_by_reason": dict(self.outliers_by_reason),
            "unclassifiable_removed": self.unclassifiable_removed,
            "variables_dropped": dict(self.variables_dropped),
            "cells_imputed": self.cells_imputed,
        }


def _missing(col: np.ndarray) -> np.ndarray:
    """Missing cells of an extra-feature column."""
    return np.isnan(col) if col.dtype == np.float64 else np.equal(col, None)


def count_missing_cells(ds: Dataset) -> int:
    return int(
        np.isnan(ds.numerics).sum()
        + np.isnan(ds.site_areas).sum()
        + (ds.site_depths == MISSING_DEPTH).sum()
        + sum(_missing(col).sum() for col in ds.extras.values())
    )


def impute_zeros(ds: Dataset) -> Dataset:
    """Replace every missing numeric cell with 0 and every missing
    categorical cell with the designated "none" level."""
    extras = {}
    for name, col in ds.extras.items():
        fill = 0.0 if col.dtype == np.float64 else CATEGORICAL_FILL
        extras[name] = np.where(_missing(col), fill, col).astype(col.dtype)
    return Dataset(
        ids=ds.ids,
        numerics=np.where(np.isnan(ds.numerics), 0.0, ds.numerics),
        site_areas=np.where(np.isnan(ds.site_areas), 0.0, ds.site_areas),
        site_depths=np.where(ds.site_depths == MISSING_DEPTH, NO_BURN, ds.site_depths).astype(np.int8),
        extras=extras,
    )


def _keep(ds: Dataset, keep: np.ndarray) -> Dataset:
    return ds if keep.all() else ds.take(np.flatnonzero(keep))


def remove_unclassifiable(ds: Dataset) -> tuple[Dataset, PreprocessReport]:
    """Drop records with no burn area and no burn depth at any of the 27
    sites (``hrg.no_burn_recorded``)."""
    out = _keep(ds, ~no_burn_recorded(ds))
    report = PreprocessReport(
        rows_in=len(ds),
        rows_out=len(out),
        unclassifiable_removed=len(ds) - len(out),
    )
    return out, report


def remove_outliers(ds: Dataset) -> tuple[Dataset, PreprocessReport]:
    """Drop records with LOS > 360 or cost > 1,000,000 (strict inequalities;
    boundary values are kept)."""
    los_out = ds.factor_values("los_days") > LOS_OUTLIER
    cost_out = ds.factor_values("total_cost") > COST_OUTLIER
    out = _keep(ds, ~(los_out | cost_out))
    report = PreprocessReport(
        rows_in=len(ds),
        rows_out=len(out),
        outliers_removed=len(ds) - len(out),
        outliers_by_reason={"los_gt_360": int(los_out.sum()), "cost_gt_1m": int(cost_out.sum())},
    )
    return out, report


def _distinct_count(col: np.ndarray) -> int:
    """Number of distinct values, missing counted as one value."""
    missing = _missing(col)
    present = col[~missing]
    distinct = len(np.unique(present)) if col.dtype == np.float64 else len(set(present.tolist()))
    return distinct + bool(missing.any())


def _same_column(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal cell for cell; a numeric and a categorical column are equal only
    when every cell of both is missing."""
    if a.dtype != b.dtype:
        return bool(_missing(a).all() and _missing(b).all())
    return same_values(a, b)


def drop_irrelevant_variables(
    ds: Dataset,
    missing_threshold: float = DEFAULT_MISSING_THRESHOLD,
    admin_fields: tuple[str, ...] = DEFAULT_ADMIN_FIELDS,
    criteria: tuple[str, ...] = _ALL_CRITERIA,
) -> tuple[Dataset, PreprocessReport]:
    """Remove extra-feature columns that are administrative, mostly missing,
    constant, or exact duplicates of an earlier column (first seen kept).

    Criteria are applied in that order and can be restricted via ``criteria``
    (the full pipeline assesses missingness before imputation and
    constants/duplicates after row exclusions).
    """
    n = len(ds)
    dropped: dict[str, str] = {}
    if "administrative" in criteria:
        for name in ds.extras:
            if name in admin_fields:
                dropped[name] = "administrative"
    if "missing" in criteria and n > 0:
        for name, col in ds.extras.items():
            if name in dropped:
                continue
            miss = int(_missing(col).sum())
            if miss / n > missing_threshold:
                dropped[name] = f"missing_fraction {miss / n:.3f} > {missing_threshold}"
    if "constant" in criteria and n > 0:
        for name, col in ds.extras.items():
            if name not in dropped and _distinct_count(col) <= 1:
                dropped[name] = "constant"
    if "duplicate" in criteria:
        seen: list[str] = []
        for name, col in ds.extras.items():
            if name in dropped:
                continue
            first = next((s for s in seen if _same_column(ds.extras[s], col)), None)
            if first is None:
                seen.append(name)
            else:
                dropped[name] = f"duplicate_of:{first}"
    out = ds
    if dropped:
        extras = {name: col for name, col in ds.extras.items() if name not in dropped}
        out = Dataset(ds.ids, ds.numerics, ds.site_areas, ds.site_depths, extras)
    report = PreprocessReport(rows_in=n, rows_out=n, variables_dropped=dropped)
    return out, report


def log1p_factor(values) -> np.ndarray:
    """Elementwise log(1 + x); strictly monotone, defined at 0 so
    zero-imputed factors stay in the domain."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.size and np.nanmin(arr) < 0:
        raise InvalidArgument("log1p_factor requires non-negative values")
    return np.log1p(arr)


def preprocess(
    ds: Dataset,
    missing_threshold: float = DEFAULT_MISSING_THRESHOLD,
    admin_fields: tuple[str, ...] = DEFAULT_ADMIN_FIELDS,
) -> tuple[Dataset, PreprocessReport]:
    """Full cleaning pass in the fixed order documented in the module docstring."""
    rows_in = len(ds)
    ds1, rep_pre = drop_irrelevant_variables(
        ds, missing_threshold, admin_fields, criteria=("administrative", "missing")
    )
    cells = count_missing_cells(ds1)
    ds2 = impute_zeros(ds1)
    ds3, rep_uncls = remove_unclassifiable(ds2)
    ds4, rep_out = remove_outliers(ds3)
    ds5, rep_post = drop_irrelevant_variables(
        ds4, missing_threshold, admin_fields, criteria=("constant", "duplicate")
    )
    report = PreprocessReport(
        rows_in=rows_in,
        rows_out=len(ds5),
        outliers_removed=rep_out.outliers_removed,
        outliers_by_reason=rep_out.outliers_by_reason,
        unclassifiable_removed=rep_uncls.unclassifiable_removed,
        variables_dropped={**rep_pre.variables_dropped, **rep_post.variables_dropped},
        cells_imputed=cells,
    )
    assert report.reconciles(), "preprocess row accounting failed to reconcile"
    return ds5, report
