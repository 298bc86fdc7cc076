"""Test-only builders of datasets from ``PatientRecord``s. The package builds
its datasets column by column; tests state their cases record by record."""

import numpy as np

from casemix.domain import (
    CORE_NUMERIC_FIELDS,
    DEPTH_LEVELS,
    MISSING_DEPTH,
    N_SITES,
    NUMERIC,
    SITE_CODES,
    BurnSiteEntry,
    Dataset,
    Depth,
    PatientRecord,
)

_DEPTH_CODE = {None: MISSING_DEPTH, **{d: i for i, d in enumerate(DEPTH_LEVELS)}}


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
