"""Test-only record view of a dataset: ``PatientRecord``s, datasets built
from them (``dataset_of``) and the rows of a dataset given back as them
(``records_of``). The package holds a cohort as columns only; tests state
their cases record by record."""

from dataclasses import dataclass, field

import numpy as np

from casemix.domain import (
    CORE_NUMERIC_FIELDS,
    DEPTH_LEVELS,
    MISSING_DEPTH,
    N_SITES,
    NUMERIC,
    SITE_CODES,
    Dataset,
    Depth,
)

_DEPTH_CODE = {None: MISSING_DEPTH, **{d: i for i, d in enumerate(DEPTH_LEVELS)}}


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


def make_record(tbsa=12.0, n_sites=N_SITES, **overrides) -> PatientRecord:
    """A complete record burned (``tbsa``, partial depth) at its first site only."""
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


def dataset_of(*records, schema=None) -> Dataset:
    """Columns of ``records``, whose burn sites are taken in ``SITE_CODES``
    order. ``schema`` maps each extra feature kept to "numeric" or
    "categorical"."""
    n = len(records)

    def floats(values) -> np.ndarray:
        return np.array([np.nan if v is None else float(v) for v in values], dtype=np.float64)

    def objects(values) -> np.ndarray:
        out = np.empty(n, dtype=object)
        out[:] = list(values)
        return out

    sites = [s for r in records for s in r.burn_sites]
    return Dataset(
        ids=objects(r.id for r in records),
        numerics=np.stack([floats(getattr(r, f) for r in records) for f in CORE_NUMERIC_FIELDS]),
        site_areas=floats(s.area_pct for s in sites).reshape(n, N_SITES).T.copy(),
        site_depths=np.array(
            [_DEPTH_CODE[s.depth] for s in sites], dtype=np.int8
        ).reshape(n, N_SITES).T.copy(),
        extras={
            name: (floats if kind == NUMERIC else objects)(r.extra_features.get(name) for r in records)
            for name, kind in (schema or {}).items()
        },
    )


def records_of(ds: Dataset) -> tuple[PatientRecord, ...]:
    """The rows of ``ds`` as records, missing cells as None; ``dataset_of``
    of them, under ``ds.extra_schema``, equals ``ds``."""
    def value(v):
        return None if v != v else v  # nan is missing; None and strings equal themselves

    depth_levels = {MISSING_DEPTH: None, **{i: d for i, d in enumerate(DEPTH_LEVELS)}}
    extras = [[value(v) for v in col.tolist()] for col in ds.extras.values()]
    records = []
    for i, (rid, core, areas, depths) in enumerate(zip(
            ds.ids.tolist(), ds.numerics.T.tolist(), ds.site_areas.T.tolist(),
            ds.site_depths.T.tolist())):
        age, los, cost, tbsa, theatre = map(value, core)
        sites = tuple(BurnSiteEntry(code, value(area), depth_levels[depth])
                      for code, area, depth in zip(SITE_CODES, areas, depths))
        records.append(PatientRecord(
            rid, age, los, cost, tbsa, None if theatre is None else int(theatre), sites,
            {name: col[i] for name, col in zip(ds.extras, extras)}))
    return tuple(records)
