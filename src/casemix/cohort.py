"""Deterministic synthetic burn cohort generator.

Stands in for the proprietary patient extract: produces records whose
log(LOS), log(cost) and log(TBSA) are positively correlated, with a severity
mixture that leaves minority classes for oversampling to fix, plus injected
outliers and unclassifiable (no recorded burn) episodes.

Randomness is a counter-based generator (Philox; Salmon et al. 2011) with
one stream per (seed, record index, field tag), so generation is
order-independent: any record can be produced in isolation. A stream
draws exactly what
``Generator(Philox(SeedSequence(seed, spawn_key=(index, tag))))`` draws.
Rather than build those three objects per stream, ``_stream_keys`` derives
the Philox keys of every record of a range and tag at once, mirroring
``SeedSequence.generate_state`` in numpy, and ``_streams`` rewinds one
reused generator to each key in turn. Draws take the cheapest calls that
match numpy's bit for bit: ``random()`` for ``uniform()``, ``_uniform`` for
``uniform(a, b)`` and ``_dirichlet`` for ``dirichlet``, each of which
leaves the stream where numpy's call would. Seeds must be non-negative
integers, of any size. The marginal distributions are admitted fiction;
only the correlation structure and the injected edge cases are
load-bearing.

``generate_cohort`` splits the records into one contiguous range per CPU
and draws the ranges in forked workers (``parallel.map_ordered``). Each
worker writes its records in place into one shared anonymous memory buffer
that holds every output column, categorical extras as codes, so nothing is
copied back. It draws a block of 1,024 records and then stores the block
with a few bulk assignments, not with numpy stores per record.
``inject_missingness`` splits the records the same way: each worker marks
the cells its records blank in a shared mask, and the parent blanks them.
Both results are byte-identical for any number of workers.
"""

from __future__ import annotations

import math
import mmap
from bisect import bisect_right
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import parallel
from .domain import (
    CATEGORICAL,
    CATEGORICAL_FILL,
    CORE_NUMERIC_FIELDS,
    DEPTH_LEVELS,
    MISSING_DEPTH,
    N_SITES,
    NUMERIC,
    Dataset,
    Depth,
    check_int,
    check_seed,
    is_number,
)
from .errors import InvalidArgument
from .preprocess import COST_OUTLIER, LOS_OUTLIER

# Field tags for RNG keying. Values are stable identifiers; do not reorder.
_TAG_SEVERITY = 0
_TAG_TBSA = 1
_TAG_SITES = 2
_TAG_LOS = 3
_TAG_COST = 4
_TAG_THEATRE = 5
_TAG_EXTRAS = 6
_TAG_SPECIAL = 7
_TAG_MISSING = 8

# SeedSequence's pool size and hash constants (numpy/random/bit_generator.pyx).
_POOL_SIZE = 4
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715

_MECHANISMS = ("scald", "flame", "contact", "chemical", "electrical")

#: The levels of each extra column, in schema order; numeric columns have
#: none. A record draws a categorical value as its code, an index into them.
_EXTRA_LEVELS: dict[str, tuple[str, ...] | None] = {
    "sex": ("F", "M"),
    "burn_mechanism": _MECHANISMS,
    "inhalation_injury": ("no", "yes"),
    "ventilation_days": None,
    "skin_graft": ("no", "yes"),
    "admission_year": None,
    "care_setting": ("specialist",),
}

EXTRA_SCHEMA: dict[str, str] = {
    name: NUMERIC if levels is None else CATEGORICAL for name, levels in _EXTRA_LEVELS.items()
}
_MECHANISM_P = (
    (0.62, 0.10, 0.18, 0.06, 0.04),  # minor
    (0.45, 0.32, 0.13, 0.06, 0.04),  # moderate
    (0.20, 0.62, 0.08, 0.06, 0.04),  # major
)
_DEPTH_P = (
    (0.72, 0.26, 0.02),  # minor: superficial / partial / full
    (0.40, 0.50, 0.10),
    (0.18, 0.52, 0.30),
)
_INHALATION_P = (0.01, 0.05, 0.30)


@dataclass(frozen=True)
class CohortConfig:
    """Generator knobs; all randomness flows from ``seed``."""

    n: int
    seed: int
    severity_weights: tuple[float, float, float] = (0.6, 0.3, 0.1)
    los_noise: float = 0.5
    cost_noise: float = 0.45
    outlier_rate: float = 0.01
    unclassifiable_rate: float = 0.02

    def __post_init__(self):
        check_int("cohort size", self.n)
        check_seed("cohort seed", self.seed)
        for name in ("los_noise", "cost_noise", "outlier_rate", "unclassifiable_rate"):
            if not is_number(getattr(self, name)):
                raise InvalidArgument(f"{name} must be a number, got {getattr(self, name)!r}")
        # Each record's streams are keyed by its index as one 32-bit word.
        if not 1 <= self.n <= 2**32:
            raise InvalidArgument(f"cohort size must be in [1, 2**32], got {self.n}")
        if len(self.severity_weights) != 3 or not all(
            is_number(w) and w >= 0 for w in self.severity_weights
        ):
            raise InvalidArgument("severity_weights must be three non-negative numbers")
        if abs(sum(self.severity_weights) - 1.0) > 1e-9:
            raise InvalidArgument("severity_weights must sum to 1")
        # A NaN noise scale fails both comparisons and is refused too.
        if not (0 < self.los_noise < math.inf and 0 < self.cost_noise < math.inf):
            raise InvalidArgument("noise scales must be finite and positive")
        for name in ("outlier_rate", "unclassifiable_rate"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise InvalidArgument(f"{name} must be in [0, 1], got {v}")
        if self.outlier_rate + self.unclassifiable_rate > 1.0:
            raise InvalidArgument("outlier_rate + unclassifiable_rate must be <= 1")

    @classmethod
    def from_dict(cls, d: dict) -> "CohortConfig":
        kwargs = dict(d)
        try:
            if "severity_weights" in kwargs:
                kwargs["severity_weights"] = tuple(kwargs["severity_weights"])
            return cls(**kwargs)
        except (TypeError, ValueError) as e:
            raise InvalidArgument(f"bad cohort config: {e}")


def _stream_keys(seed: int, indices: np.ndarray, tag: int) -> np.ndarray:
    """Philox keys of the streams (seed, index, tag) for each of ``indices``
    (each below 2**32, so a single 32-bit word), as an (n, 2) uint64 array
    whose row j equals ``SeedSequence(entropy=seed, spawn_key=(indices[j],
    tag)).generate_state(2, np.uint64)``.

    The entropy is the seed's little-endian 32-bit words, zero-padded to the
    pool size, then the index and the tag. Words are Python ints or, from the
    index on, uint64 arrays over all indices; every product is masked back to
    32 bits."""
    words = []
    while seed:
        words.append(seed & _MASK32)
        seed >>= 32
    words += [0] * (_POOL_SIZE - len(words))
    entropy = [*words, np.asarray(indices, dtype=np.uint64), tag]

    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    def mix(x, y):
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return result ^ result >> 16

    pool = [hashmix(word) for word in entropy[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):  # every pool word mixes into every other
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:  # seed words past the pool, index, tag
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))

    state, hash_const = [], _INIT_B
    for word in pool:
        word = word ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        word = word * hash_const & _MASK32
        state.append(word ^ word >> 16)
    return np.stack([state[0] | state[1] << 32, state[2] | state[3] << 32], axis=1)


def _streams(seed: int, n: int, tags, start: int = 0) -> Callable[[int, int], np.random.Generator]:
    """``stream(index, tag)``: a generator that draws what stream (seed,
    index, tag) draws, for start <= index < n and tag in ``tags``. Every
    call returns the same generator, rewound to counter 0 under that
    stream's key with nothing buffered, so each stream must be fully drawn
    before the next call."""
    keys = {tag: _stream_keys(seed, np.arange(start, n), tag) for tag in tags}
    bit_generator = np.random.Philox(0)
    generator = np.random.Generator(bit_generator)
    # A fresh Philox's state: counter 0, buffer_pos 4 (empty), has_uint32 0.
    # Its arrays are held as lists of ints, which the state setter reads
    # about three times faster; only the key row being set is converted.
    state = bit_generator.state
    state["state"]["counter"] = state["state"]["counter"].tolist()
    state["buffer"] = state["buffer"].tolist()

    def stream(index: int, tag: int) -> np.random.Generator:
        state["state"]["key"] = keys[tag][index - start].tolist()
        bit_generator.state = state
        return generator

    return stream


def _cdf(p) -> list[float]:
    """Cumulative table for ``_choice``, computed as ``Generator.choice`` does."""
    cdf = np.cumsum(np.asarray(p, dtype=np.float64))
    cdf /= cdf[-1]
    return cdf.tolist()


def _choice(cdf: list[float], g: np.random.Generator) -> int:
    """The draw ``g.choice(len(p), p=p)`` makes for ``cdf = _cdf(p)``: same
    index, same generator state after it."""
    return bisect_right(cdf, g.random())


def _uniform(low: float, high: float, g: np.random.Generator) -> float:
    """The draw ``g.uniform(low, high)`` makes, as numpy computes it."""
    return low + (high - low) * g.random()


def _dirichlet(k: int, g: np.random.Generator) -> list[float]:
    """The draw ``g.dirichlet(np.full(k, 1.5))`` makes, as numpy computes it:
    k gamma draws, each times the reciprocal of their sum. The sum runs left
    to right, as numpy's does; ``sum()`` is compensated from Python 3.12 and
    ``np.sum`` is pairwise, so neither matches."""
    draws = g.standard_gamma(1.5, k).tolist()
    total = 0.0
    for x in draws:
        total += x
    scale = 1.0 / total
    return [x * scale for x in draws]


_MECHANISM_CDF = tuple(_cdf(p) for p in _MECHANISM_P)
_DEPTH_CDF = tuple(_cdf(p) for p in _DEPTH_P)
_BURN_DEPTH_CODES = tuple(DEPTH_LEVELS.index(d) for d in (Depth.SUPERFICIAL, Depth.PARTIAL, Depth.FULL))
_FULL = DEPTH_LEVELS.index(Depth.FULL)
_NONE = DEPTH_LEVELS.index(Depth.NONE)


def _draw_tbsa(severity: int, g: np.random.Generator) -> float:
    if severity == 0:
        raw = 0.1 + g.gamma(2.0, 0.7)
    elif severity == 1:
        raw = 3.0 + g.gamma(2.5, 2.0)
    else:
        raw = 12.0 + g.gamma(2.2, 8.0)
    return min(raw, 92.0)


def _draw_sites(severity: int, tbsa: float, g: np.random.Generator):
    """Burned sites in site order: (site indices, areas, depth codes)."""
    n_sites = 1 + int(g.poisson(0.35 + 0.09 * tbsa))
    n_sites = min(n_sites, N_SITES)
    chosen = sorted(int(i) for i in g.choice(N_SITES, size=n_sites, replace=False))
    areas = [round(p * tbsa, 2) for p in _dirichlet(n_sites, g)]
    if sum(areas) == 0.0:
        areas[0] = max(round(tbsa, 2), 0.01)
    depths = [_BURN_DEPTH_CODES[_choice(_DEPTH_CDF[severity], g)] for _ in chosen]
    return chosen, areas, depths


def _generate_record(config: CohortConfig, index: int, severity_cdf: list[float], stream):
    """One record's cells: (core numerics, burned sites, extra values with
    categorical ones as codes into ``_EXTRA_LEVELS``)."""
    severity = _choice(severity_cdf, stream(index, _TAG_SEVERITY))
    tbsa_raw = _draw_tbsa(severity, stream(index, _TAG_TBSA))
    sites = _draw_sites(severity, tbsa_raw, stream(index, _TAG_SITES))
    tbsa = sum(sites[1])

    g_los = stream(index, _TAG_LOS)
    if severity == 0 and g_los.random() < 0.35:
        los = 0.0  # day attendance, no overnight stay
    else:
        mu = 0.4 + 1.05 * math.log1p(tbsa)
        los = round(max(math.expm1(g_los.normal(mu, config.los_noise)), 0.0), 1)
        # Natural LOS/cost are truncated at the outlier thresholds, so every
        # record beyond them was injected: the injection rate is observable.
        los = min(los, LOS_OUTLIER)

    theatre = int(stream(index, _TAG_THEATRE).poisson(0.15 + 0.22 * tbsa))

    g_cost = stream(index, _TAG_COST)
    mu_c = (
        5.8
        + 0.45 * math.log1p(tbsa)
        + 0.5 * math.log1p(los)
        + 0.4 * math.log1p(theatre)
    )
    cost = round(math.exp(g_cost.normal(mu_c, config.cost_noise)), 2)
    cost = min(cost, COST_OUTLIER)

    g = stream(index, _TAG_EXTRAS)
    sex = 0 if g.random() < 0.5 else 1  # F, M
    mechanism = _choice(_MECHANISM_CDF[severity], g)
    inhalation = 1 if g.random() < _INHALATION_P[severity] else 0  # yes, no
    if severity == 2 and g.random() < 0.45:
        ventilation = round(float(g.gamma(2.0, max(tbsa / 12.0, 0.5))), 1)
    elif severity == 1 and g.random() < 0.06:
        ventilation = round(float(g.gamma(1.5, 1.0)), 1)
    else:
        ventilation = 0.0
    full_area = sum(a for a, d in zip(sites[1], sites[2]) if d == _FULL)
    graft = 1 if g.random() < 1.0 - math.exp(-full_area / 6.0) else 0  # yes, no
    year = 2003 + int(g.integers(0, 17))
    age = round(_uniform(0.1, 15.9, g), 1)

    g_special = stream(index, _TAG_SPECIAL)
    u = g_special.random()
    if u < config.outlier_rate:
        if g_special.random() < 0.5:
            los = round(361.0 + float(g_special.gamma(2.0, 60.0)), 1)
        else:
            cost = round(1_000_001.0 + float(g_special.gamma(2.0, 300_000.0)), 2)
    elif u < config.outlier_rate + config.unclassifiable_rate:
        # Episode with no recorded burn: ineligible for burn-tariff grouping.
        sites = ([], [], [])
        tbsa = 0.0
        los = round(_uniform(0.0, 0.4, g_special), 1)
        cost = round(_uniform(50.0, 400.0, g_special), 2)
        theatre = 0
        ventilation, inhalation, graft = 0.0, 0, 0

    extras = (sex, mechanism, inhalation, ventilation, graft, float(year), 0)
    return (age, los, cost, tbsa, theatre), sites, extras


#: Records drawn before their cells are stored (generation), or whose
#: draws are held at once (missingness).
_BLOCK = 1024


def _ranges(n: int) -> list[range]:
    """Records 0..n-1 as one contiguous range per CPU, for ``map_ordered``."""
    parts = parallel.worker_count(n)
    return [range(n * p // parts, n * (p + 1) // parts) for p in range(parts)]


def generate_cohort(config: CohortConfig) -> Dataset:
    """Generate ``config.n`` records deterministically from ``config.seed``."""
    n = config.n
    # Every output column lives in one shared anonymous mapping, allocated
    # before the workers fork, so each writes its records where the parent
    # reads them. A site is unburned until a record sets it: area zero (the
    # mapping starts zeroed) and depth NONE.
    float_rows = len(CORE_NUMERIC_FIELDS) + N_SITES + len(_EXTRA_LEVELS)
    buffer = mmap.mmap(-1, n * (8 * float_rows + N_SITES))
    floats = np.frombuffer(buffer, np.float64, float_rows * n).reshape(float_rows, n)
    site_depths = np.frombuffer(buffer, np.int8, N_SITES * n, floats.nbytes).reshape(N_SITES, n)
    site_depths.fill(_NONE)
    numerics, site_areas, extras = np.split(floats, [len(CORE_NUMERIC_FIELDS), -len(_EXTRA_LEVELS)])
    severity_cdf = _cdf(config.severity_weights)

    def fill(records: range) -> None:
        stream = _streams(config.seed, records.stop, range(_TAG_SEVERITY, _TAG_SPECIAL + 1),
                          start=records.start)
        for start in range(records.start, records.stop, _BLOCK):
            block = slice(start, min(start + _BLOCK, records.stop))
            core, extra, site_rows, site_cols, areas, depths = [], [], [], [], [], []
            for i in range(block.start, block.stop):
                values, (chosen, record_areas, record_depths), extra_values = _generate_record(
                    config, i, severity_cdf, stream
                )
                core.append(values)
                extra.append(extra_values)
                site_rows += chosen
                site_cols += [i] * len(chosen)
                areas += record_areas
                depths += record_depths
            numerics[:, block] = np.array(core, dtype=np.float64).T
            extras[:, block] = np.array(extra, dtype=np.float64).T
            sites = np.array(site_rows, dtype=np.intp), np.array(site_cols, dtype=np.intp)
            site_areas[sites] = areas
            site_depths[sites] = depths

    parallel.map_ordered(fill, _ranges(n))
    return Dataset(
        ids=np.array([f"P{i:06d}" for i in range(n)], dtype=object),
        numerics=numerics,
        site_areas=site_areas,
        site_depths=site_depths,
        extras={
            name: col if levels is None else np.array(levels, dtype=object)[col.astype(np.intp)]
            for (name, levels), col in zip(_EXTRA_LEVELS.items(), extras)
        },
    )


def _eligible_cells(ds: Dataset) -> np.ndarray:
    """(records, cells) mask of the cells that may be blanked: those whose
    value is the zero/none the imputation step would restore (fields are left
    empty when the value is zero or not applicable). Cells run in each
    record's order: LOS, cost, TBSA, theatre visits, each site's area and
    depth, then the extras in schema order."""
    columns = [ds.numerics[CORE_NUMERIC_FIELDS.index(name)] == 0.0
               for name in ("los_days", "total_cost", "tbsa_pct", "theatre_visits")]
    for areas, depths in zip(ds.site_areas, ds.site_depths):
        columns += [areas == 0.0, depths == _NONE]
    for col in ds.extras.values():
        columns.append(col == 0.0 if col.dtype == np.float64 else col == CATEGORICAL_FILL)
    return np.stack(columns, axis=1)


def inject_missingness(ds: Dataset, rate: float, seed: int) -> Dataset:
    """Blank a fraction of eligible cells (those holding zero/none values),
    deterministically per seed. rate=0 is the identity; rate=1 blanks every
    eligible cell. Record i draws one uniform per eligible cell, in cell
    order, from its own stream."""
    if not 0.0 <= rate <= 1.0:
        raise InvalidArgument(f"missingness rate must be in [0, 1], got {rate}")
    check_seed("missingness seed", seed)
    if rate == 0.0:
        return ds
    eligible = _eligible_cells(ds)
    counts = eligible.sum(axis=1).tolist()
    # Workers mark the cells to blank in one shared anonymous mapping, as
    # generate_cohort's do; the parent blanks them.
    blank = np.frombuffer(mmap.mmap(-1, max(eligible.size, 1)), np.bool_, eligible.size)
    blank = blank.reshape(eligible.shape)

    def draw(records: range) -> None:
        stream = _streams(seed, records.stop, (_TAG_MISSING,), start=records.start)
        for start in range(records.start, records.stop, _BLOCK):
            stop = min(start + _BLOCK, records.stop)
            draws = [stream(i, _TAG_MISSING).random(counts[i])
                     for i in range(start, stop) if counts[i]]
            if draws:
                blank[start:stop][eligible[start:stop]] = np.concatenate(draws) < rate

    parallel.map_ordered(draw, _ranges(len(ds)))
    del eligible  # freed before the result is built
    blank = blank.T  # one row per cell

    numerics = ds.numerics.copy()
    for row, name in enumerate(("los_days", "total_cost", "tbsa_pct", "theatre_visits")):
        numerics[CORE_NUMERIC_FIELDS.index(name), blank[row]] = np.nan
    site_areas = np.where(blank[4:4 + 2 * N_SITES:2], np.nan, ds.site_areas)
    site_depths = np.where(blank[5:4 + 2 * N_SITES:2], MISSING_DEPTH, ds.site_depths).astype(np.int8)
    extras = {}
    for row, (name, col) in enumerate(ds.extras.items(), start=4 + 2 * N_SITES):
        extras[name] = col.copy()
        extras[name][blank[row]] = np.nan if col.dtype == np.float64 else None
    return Dataset(ds.ids, numerics, site_areas, site_depths, extras)
