"""Cohort cleaning: variable pruning, zero-imputation, exclusions, log transform.

``preprocess`` is one pass of five steps, in this order:

1. drop extra columns that are administrative or mostly missing (missingness
   must be assessed before imputation hides it),
2. choose the unclassifiable records (no burn area or depth at any site)
   and, among the rest, the outliers (LOS > 360 or cost > 1,000,000, strict)
   on the values before imputation, which chooses the rows imputation would:
   a missing cell is unrecorded, and no outlier, either way,
3. count the missing cells and impute zeros (missing numeric -> 0, missing
   categorical -> "none") into one copy of the other rows,
4. drop extra columns that are constant or duplicates on the surviving rows,
5. report the rows and columns removed and the cells imputed.

Running it a second time is the identity.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .domain import CATEGORICAL_FILL, DEPTH_LEVELS, MISSING_DEPTH, Dataset, Depth, same_values
from .errors import InvalidArgument
from .hrg import no_burn_recorded

#: Outlier thresholds: a record above either is excluded.
LOS_OUTLIER = 360.0
COST_OUTLIER = 1_000_000.0

DEFAULT_MISSING_THRESHOLD = 0.6
DEFAULT_ADMIN_FIELDS = ("admission_year",)

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
        return asdict(self)


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


def impute_zeros(ds: Dataset, rows: np.ndarray | None = None) -> Dataset:
    """The records at ``rows`` (integer positions; every record when None),
    with every missing numeric cell set to 0 and every missing categorical
    cell to the designated "none" level. Each column is copied once, as it
    is selected, and filled in that copy."""
    def filled(col: np.ndarray, missing, fill) -> np.ndarray:
        col = col.copy() if rows is None else col[..., rows]
        col[missing(col)] = fill
        return col

    return Dataset(
        ids=ds.ids if rows is None else ds.ids[rows],
        numerics=filled(ds.numerics, np.isnan, 0.0),
        site_areas=filled(ds.site_areas, np.isnan, 0.0),
        site_depths=filled(ds.site_depths, lambda col: col == MISSING_DEPTH, NO_BURN),
        extras={name: filled(col, _missing, 0.0 if col.dtype == np.float64 else CATEGORICAL_FILL)
                for name, col in ds.extras.items()},
    )


def log1p_factor(values) -> np.ndarray:
    """Elementwise log(1 + x); strictly monotone, defined at 0 so
    zero-imputed factors stay in the domain."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.size and np.nanmin(arr) < 0:
        raise InvalidArgument("log1p_factor requires non-negative values")
    return np.log1p(arr)


def _same_column(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal cell for cell. Columns with no rows are equal whatever their kind."""
    return len(a) == 0 or same_values(a, b)


def _without(ds: Dataset, names) -> Dataset:
    """``ds`` without the extra columns in ``names``; ``ds`` itself if none is there."""
    extras = {name: col for name, col in ds.extras.items() if name not in names}
    if len(extras) == len(ds.extras):
        return ds
    return Dataset(ds.ids, ds.numerics, ds.site_areas, ds.site_depths, extras)


def preprocess(
    ds: Dataset,
    missing_threshold: float = DEFAULT_MISSING_THRESHOLD,
    admin_fields: tuple[str, ...] = DEFAULT_ADMIN_FIELDS,
) -> tuple[Dataset, PreprocessReport]:
    """Full cleaning pass in the fixed order documented in the module docstring."""
    n = len(ds)
    dropped: dict[str, str] = {}
    for name, col in ds.extras.items():
        if name in admin_fields:
            dropped[name] = "administrative"
        elif n and (frac := int(_missing(col).sum()) / n) > missing_threshold:
            dropped[name] = f"missing_fraction {frac:.3f} > {missing_threshold}"
    ds = _without(ds, dropped)

    # Outliers are counted only among the classifiable rows.
    unclassifiable = no_burn_recorded(ds)
    los_out = ~unclassifiable & (ds.factor_values("los_days") > LOS_OUTLIER)
    cost_out = ~unclassifiable & (ds.factor_values("total_cost") > COST_OUTLIER)
    keep = ~(unclassifiable | los_out | cost_out)
    cells = count_missing_cells(ds)
    if not keep.all() or cells:
        ds = impute_zeros(ds, None if keep.all() else np.flatnonzero(keep))

    # Constants and duplicates are judged on the surviving, imputed rows.
    seen: list[str] = []
    for name, col in ds.extras.items():
        if len(ds) and (col == col[0]).all():
            dropped[name] = "constant"
            continue
        first = next((s for s in seen if _same_column(ds.extras[s], col)), None)
        if first is None:
            seen.append(name)
        else:
            dropped[name] = f"duplicate_of:{first}"
    ds = _without(ds, dropped)

    report = PreprocessReport(
        rows_in=n,
        rows_out=len(ds),
        outliers_removed=int((los_out | cost_out).sum()),
        outliers_by_reason={"los_gt_360": int(los_out.sum()), "cost_gt_1m": int(cost_out.sum())},
        unclassifiable_removed=int(unclassifiable.sum()),
        variables_dropped=dropped,
        cells_imputed=cells,
    )
    assert report.reconciles(), "preprocess row accounting failed to reconcile"
    return ds, report
