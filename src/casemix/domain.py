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

``DEPTH_LEVELS`` is sorted by value (full, none, partial, superficial), the
order in which a feature table lists any categorical column's levels, so a
depth code is already the model's level code for that depth. Site columns
are named ``SITE_AREA_FIELDS`` and ``SITE_DEPTH_FIELDS`` (``site_01_area``,
``site_01_depth``, ...) in the cohort CSV and in the feature table alike.

Missing cells are nan in float columns, ``MISSING_DEPTH`` (-1) in depth
codes and None in categorical columns, never a value a column can hold, so
zero-imputation is an explicit, auditable transform. Datasets are built
column by column (the CSV reader, the generator); ``Dataset.records`` gives
the rows back as a tuple of ``PatientRecord``s (missing = None), built on
first access only.

Each config section (cohort, missingness, pipeline, its seeds and tree
params) is a frozen dataclass whose fields are ``declared``: annotation and
bounds. Its ``__post_init__`` calls ``check_fields`` and then checks only
the rules that span fields; ``from_json`` reads it from a JSON object.
"""

from __future__ import annotations

import json
import operator
import sys
import typing
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from enum import Enum
from functools import cached_property
from pathlib import Path

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

#: Column names of the site areas and depths, in site order.
SITE_AREA_FIELDS = tuple(f"site_{i + 1:02d}_area" for i in range(N_SITES))
SITE_DEPTH_FIELDS = tuple(f"site_{i + 1:02d}_depth" for i in range(N_SITES))

CORE_NUMERIC_FIELDS = ("age_years", "los_days", "total_cost", "tbsa_pct", "theatre_visits")

#: The three resource/severity factors that drive target engineering.
FACTOR_FIELDS = ("los_days", "total_cost", "tbsa_pct")

NUMERIC = "numeric"
CATEGORICAL = "categorical"

#: Fill level used when a missing categorical cell is imputed.
CATEGORICAL_FILL = "none"


#: The bounds a config field may declare: the ``operator`` function that
#: tests each, and its symbol in messages.
_BOUNDS = {"ge": ">=", "gt": ">", "le": "<=", "lt": "<"}
#: How a message names a value of each annotation; a nested config's is
#: named by its class.
_KIND_NAMES = {int: "an integer", float: "a finite number", bool: "true or false",
               str: "a string", tuple[str, ...]: "a list of strings",
               tuple[float, float, float]: "a list of 3 finite numbers"}


def parse_json(text: str, what: str) -> dict:
    """The JSON object ``text``, the one JSON parser of every input, which
    errors call ``what``. Bad syntax, nesting past Python's recursion limit
    and a document that is not an object raise InvalidArgument."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise InvalidArgument(
            f"{what}: JSON parse error at line {e.lineno} column {e.colno}: {e.msg}") from None
    except RecursionError:
        raise InvalidArgument(f"{what} nests too deeply") from None
    if not isinstance(doc, dict):
        raise InvalidArgument(f"{what} must be a JSON object")
    return doc


def read_json(path: str | Path, what: str) -> dict:
    """``parse_json`` of the file at ``path``, which errors call ``what`` and
    the path; a missing file, or one that is not UTF-8, raises InvalidArgument."""
    what, path = f"{what} {path}", Path(path)
    if not path.is_file():
        raise InvalidArgument(f"{what} not found")
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise InvalidArgument(f"{what} is not UTF-8: {e}") from None
    return parse_json(text, what)


def declared(default=MISSING, *, required: bool = False, **bounds):
    """A config dataclass field. Its annotation is its JSON kind: int,
    float, bool, a tuple of one of these or of str (a JSON list), or a
    nested config dataclass (a JSON object). ``bounds`` are any of ``ge``,
    ``gt``, ``le`` and ``lt``. A JSON document must name the field when it
    has no default or is ``required``."""
    return field(default=default, metadata=dict(bounds, required=required))


def _as_kind(kind, value):
    """``value`` as a field annotated ``kind`` holds it (a float field a
    float, a list a tuple), or None if it is not one as JSON gives it. A
    bool is not a number, though Python counts it as an int; a string is
    neither a bool ("no" would turn a switch on) nor a list (a lone name
    would split into its characters). A float is finite: Python's JSON reader
    reads NaN, which fails every bound, and Infinity, which ``json.dumps``
    writes back as a token other JSON readers refuse."""
    if getattr(kind, "__origin__", None) is tuple:
        item, *rest = kind.__args__
        if not isinstance(value, (list, tuple)) or (
                rest != [Ellipsis] and len(value) != len(rest) + 1):
            return None
        items = tuple(_as_kind(item, v) for v in value)
        return None if None in items else items
    if kind is float:
        number = isinstance(value, (int, float)) and not isinstance(value, bool)
        return float(value) if number and abs(value) <= sys.float_info.max else None
    if not isinstance(value, kind) or kind is int and isinstance(value, bool):
        return None
    return value


def check_value(name: str, kind, value, **bounds):
    """``value`` as ``_as_kind`` gives it, if it fits a field ``name`` of
    annotation ``kind`` declared with ``bounds``; else InvalidArgument. A
    bool or a float, even 13.0, is not an integer: counts, ranks and seeds
    are never truncated."""
    kept = _as_kind(kind, value)
    if kept is None or not all(getattr(operator, op)(kept, b) for op, b in bounds.items()):
        wanted = [_KIND_NAMES.get(kind, f"a {kind.__name__}")]
        wanted += [f"{_BOUNDS[op]} {bound}" for op, bound in bounds.items()]
        raise InvalidArgument(f"{name} must be {', '.join(wanted)}, got {value!r}")
    return kept


def check_fields(config) -> None:
    """Check every field of the config dataclass instance ``config`` against
    its annotation and declared bounds, and store it as ``check_value`` gives it."""
    kinds = typing.get_type_hints(type(config))
    for f in fields(config):
        bounds = {op: f.metadata[op] for op in _BOUNDS if op in f.metadata}
        kept = check_value(f.name, kinds[f.name], getattr(config, f.name), **bounds)
        object.__setattr__(config, f.name, kept)


def from_json(cls, doc, what: str):
    """The config dataclass ``cls`` read from the JSON object ``doc``, which
    errors call ``what``. Each key must be a field, each required field must
    be named, and a nested config is read from its own object, which errors
    call by its key."""
    if not isinstance(doc, dict):
        raise InvalidArgument(f"{what} must be a JSON object, got {doc!r}")
    kinds = typing.get_type_hints(cls)
    for key in doc:
        if key not in kinds:
            raise InvalidArgument(f"unknown {what} key {key!r}")
    for f in fields(cls):
        if f.name not in doc and (f.default is MISSING or f.metadata.get("required")):
            raise InvalidArgument(f"missing {what} key {f.name!r}")
    kwargs = {key: from_json(kinds[key], value, key) if is_dataclass(kinds[key]) else value
              for key, value in doc.items()}
    try:
        return cls(**kwargs)
    except InvalidArgument as e:
        raise InvalidArgument(f"{what}: {e}") from None


class Depth(str, Enum):
    """Recorded burn depth at one site; NONE means no burn at that site."""

    NONE = "none"
    SUPERFICIAL = "superficial"
    PARTIAL = "partial"
    FULL = "full"


#: Depth levels in code order, sorted by value: ``Dataset.site_depths``
#: holds indices into it, and so do a feature table's depth columns.
DEPTH_LEVELS: tuple[Depth, ...] = tuple(sorted(Depth, key=lambda d: d.value))
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


def linear_cost_matrix(k: int) -> CostMatrix:
    """Default penalty: cost grows linearly with class distance, |i - j|."""
    if k < 2:
        raise InvalidArgument(f"linear cost matrix needs k >= 2, got {k}")
    idx = np.arange(k)
    return CostMatrix(np.abs(np.subtract.outer(idx, idx)).astype(np.float64))

