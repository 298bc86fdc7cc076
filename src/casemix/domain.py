"""Core domain types: datasets, patient records, and misclassification cost matrices.

Ranked class labels are plain integers in ``[1, k]`` throughout the package,
with rank 1 the least severe/costly group and rank ``k`` the most severe/costly.

A ``Dataset`` is a column store; each record is one position in its columns:

- ``ids``: object array of record ids;
- ``numerics``: float64, one row per field of ``CORE_NUMERIC_FIELDS``;
- ``site_areas``: float64, one row per site of ``SITE_CODES``;
- ``site_depths``: int8 codes into ``DEPTH_LEVELS``, one row per site;
- ``extras``: one array per extra feature, in schema order: float64 for
  numeric features, object (str) for categorical ones.

Missing cells are nan in float columns, ``MISSING_DEPTH`` (-1) in depth
codes and None in categorical columns, never a value a column can hold, so
zero-imputation is an explicit, auditable transform. Datasets are built
column by column (the CSV reader, the generator); ``Dataset.records`` gives
the rows back as a tuple of ``PatientRecord``s (missing = None), built on
first access only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

import numpy as np

from .errors import InvalidArgument

#: Anatomical burn-site labels for the 27 recorded sites. The exact site list
#: is configuration, not clinical truth; only the count is load-bearing.
SITE_CODES: tuple[str, ...] = (
    "head", "face", "neck", "chest", "abdomen", "upper_back", "lower_back",
    "buttocks", "perineum", "genitalia", "left_shoulder", "right_shoulder",
    "left_upper_arm", "right_upper_arm", "left_forearm", "right_forearm",
    "left_hand", "right_hand", "left_hip", "right_hip", "left_thigh",
    "right_thigh", "left_lower_leg", "right_lower_leg", "left_foot",
    "right_foot", "airway",
)

N_SITES = len(SITE_CODES)

CORE_NUMERIC_FIELDS = ("age_years", "los_days", "total_cost", "tbsa_pct", "theatre_visits")

#: The three resource/severity factors that drive target engineering.
FACTOR_FIELDS = ("los_days", "total_cost", "tbsa_pct")

NUMERIC = "numeric"
CATEGORICAL = "categorical"

#: Fill level used when a missing categorical cell is imputed.
CATEGORICAL_FILL = "none"


def check_int(what: str, value) -> int:
    """``value`` unchanged if it is an int as JSON gives one. A bool or a
    float, even 13.0, is refused: counts and ranks are never truncated."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise InvalidArgument(f"{what} must be an integer, got {value!r}")
    return value


def check_seed(what: str, value) -> None:
    """Every seed keys a numpy ``SeedSequence``, which takes non-negative
    integers only."""
    if check_int(what, value) < 0:
        raise InvalidArgument(f"{what} must be a non-negative integer, got {value!r}")


class Depth(str, Enum):
    """Recorded burn depth at one site; NONE means no burn at that site."""

    NONE = "none"
    SUPERFICIAL = "superficial"
    PARTIAL = "partial"
    FULL = "full"


#: Depth levels in code order: ``Dataset.site_depths`` holds indices into it.
DEPTH_LEVELS: tuple[Depth, ...] = (Depth.NONE, Depth.SUPERFICIAL, Depth.PARTIAL, Depth.FULL)
MISSING_DEPTH = -1


@dataclass(frozen=True)
class BurnSiteEntry:
    """Burned area and depth at one of the 27 anatomical sites.

    ``area_pct`` / ``depth`` are None when the cell is missing (not yet
    imputed); ``Depth.NONE`` is the explicit "no burn here" value.
    """

    site_code: str
    area_pct: float | None
    depth: Depth | None


@dataclass(frozen=True)
class PatientRecord:
    """One burn-care episode.

    All numeric fields may be None (missing). ``extra_features`` holds any
    additional columns keyed by feature name; numeric extras are floats,
    categorical extras are strings.
    """

    id: str
    age_years: float | None
    los_days: float | None
    total_cost: float | None
    tbsa_pct: float | None
    theatre_visits: int | None
    burn_sites: tuple[BurnSiteEntry, ...]
    extra_features: dict[str, float | str | None] = field(default_factory=dict)


@dataclass(frozen=True, eq=False)
class Dataset:
    """Ordered, immutable column store of burn-care episodes (layout in the
    module docstring). The arrays are made read-only on construction."""

    ids: np.ndarray
    numerics: np.ndarray
    site_areas: np.ndarray
    site_depths: np.ndarray
    extras: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        n = len(self.ids)
        shapes = (
            (self.ids, (n,), object),
            (self.numerics, (len(CORE_NUMERIC_FIELDS), n), np.float64),
            (self.site_areas, (N_SITES, n), np.float64),
            (self.site_depths, (N_SITES, n), np.int8),
        )
        for arr, shape, dtype in shapes:
            if arr.shape != shape or arr.dtype != dtype:
                raise InvalidArgument(
                    f"dataset column of shape {arr.shape} and dtype {arr.dtype}, "
                    f"expected {shape} and {np.dtype(dtype)}"
                )
        for name, col in self.extras.items():
            if col.shape != (n,) or col.dtype not in (np.float64, object):
                raise InvalidArgument(f"extra feature {name!r}: bad column {col.shape} {col.dtype}")
        for arr in (self.ids, self.numerics, self.site_areas, self.site_depths,
                    *self.extras.values()):
            arr.setflags(write=False)

    @property
    def extra_schema(self) -> dict[str, str]:
        """Extra feature name -> "numeric" or "categorical", in column order."""
        return {
            name: NUMERIC if col.dtype == np.float64 else CATEGORICAL
            for name, col in self.extras.items()
        }

    def __len__(self) -> int:
        return len(self.ids)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return (
            self.extra_schema == other.extra_schema
            and self.ids.tolist() == other.ids.tolist()
            and np.array_equal(self.numerics, other.numerics, equal_nan=True)
            and np.array_equal(self.site_areas, other.site_areas, equal_nan=True)
            and np.array_equal(self.site_depths, other.site_depths)
            and all(same_values(col, other.extras[name]) for name, col in self.extras.items())
        )

    def take(self, indices) -> "Dataset":
        """The records at ``indices`` (integer positions), in that order."""
        idx = np.asarray(indices, dtype=np.intp)
        return Dataset(
            ids=self.ids[idx],
            numerics=self.numerics[:, idx],
            site_areas=self.site_areas[:, idx],
            site_depths=self.site_depths[:, idx],
            extras={name: col[idx] for name, col in self.extras.items()},
        )

    def factor_values(self, factor: str) -> np.ndarray:
        """Read-only column of one core numeric field (missing = nan)."""
        if factor not in CORE_NUMERIC_FIELDS:
            raise InvalidArgument(f"unknown factor {factor!r}")
        return self.numerics[CORE_NUMERIC_FIELDS.index(factor)]

    @cached_property
    def records(self) -> tuple[PatientRecord, ...]:
        """The rows as ``PatientRecord``s (missing = None), built on first
        access. Equal (area, depth) cells share one ``BurnSiteEntry``."""
        core = [_none_for_nan(col) for col in self.numerics]
        core[-1] = [None if v is None else int(v) for v in core[-1]]  # theatre_visits
        site_columns = [
            _site_entries(i, self.site_areas[i], self.site_depths[i]) for i in range(N_SITES)
        ]
        names = tuple(self.extras)
        extra_columns = [
            _none_for_nan(col) if col.dtype == np.float64 else col.tolist()
            for col in self.extras.values()
        ]
        extra_rows = zip(*extra_columns) if names else ((),) * len(self)
        return tuple(
            PatientRecord(rid, age, los, cost, tbsa, theatre, sites, dict(zip(names, extra)))
            for rid, age, los, cost, tbsa, theatre, sites, extra in zip(
                self.ids.tolist(), *core, zip(*site_columns), extra_rows
            )
        )


def _object_array(values) -> np.ndarray:
    values = list(values)
    out = np.empty(len(values), dtype=object)
    out[:] = values
    return out


def _none_for_nan(col: np.ndarray) -> list:
    out = col.astype(object)
    out[np.isnan(col)] = None
    return out.tolist()


def _site_entries(site: int, areas: np.ndarray, depths: np.ndarray) -> list[BurnSiteEntry]:
    """One site's column of entries; cells with the same area bits and depth
    code share an entry (-0.0 and 0.0 stay apart)."""
    area_keys, area_idx = np.unique(areas.view(np.int64), return_inverse=True)
    keys, idx = np.unique(area_idx * 5 + (depths.astype(np.int64) + 1), return_inverse=True)
    area_values = _none_for_nan(area_keys.view(np.float64))
    levels = (None, *DEPTH_LEVELS)
    entries = _object_array(
        BurnSiteEntry(SITE_CODES[site], area_values[k // 5], levels[k % 5]) for k in keys.tolist()
    )
    return entries[idx].tolist()


def same_values(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal feature columns: same kind and values, missing cells equal."""
    if a.dtype != b.dtype:
        return False
    if a.dtype == object:
        return a.tolist() == b.tolist()
    return np.array_equal(a, b, equal_nan=True)


@dataclass(frozen=True)
class CostMatrix:
    """K x K misclassification penalty; entry [i][j] is the cost of
    predicting rank j+1 when the true rank is i+1 (zero diagonal)."""

    entries: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.entries, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise InvalidArgument(f"cost matrix must be square, got shape {arr.shape}")
        if arr.shape[0] < 1:
            raise InvalidArgument("cost matrix must have at least one class")
        if np.any(arr < 0):
            raise InvalidArgument("cost matrix entries must be non-negative")
        if np.any(np.diagonal(arr) != 0.0):
            raise InvalidArgument("cost matrix diagonal must be zero")
        object.__setattr__(self, "entries", arr)

    @property
    def k(self) -> int:
        return self.entries.shape[0]

    def cost(self, true_rank: int, pred_rank: int) -> float:
        """Penalty for predicting ``pred_rank`` when the truth is ``true_rank``."""
        return float(self.entries[true_rank - 1, pred_rank - 1])


def linear_cost_matrix(k: int) -> CostMatrix:
    """Default penalty: cost grows linearly with class distance, |i - j|."""
    if k < 2:
        raise InvalidArgument(f"linear cost matrix needs k >= 2, got {k}")
    idx = np.arange(k)
    return CostMatrix(np.abs(np.subtract.outer(idx, idx)).astype(np.float64))


def zero_one_cost_matrix(k: int) -> CostMatrix:
    """Plain misclassification loss: 1 off the diagonal, 0 on it."""
    if k < 2:
        raise InvalidArgument(f"zero-one cost matrix needs k >= 2, got {k}")
    return CostMatrix(np.ones((k, k)) - np.eye(k))
