import dataclasses
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from casemix import cohort, parallel
from casemix.cohort import (
    _DEPTH_P,
    _MECHANISM_P,
    EXTRA_SCHEMA,
    CohortConfig,
    _cdf,
    _choice,
    _dirichlet,
    _stream_keys,
    _streams,
    _uniform,
    generate_cohort,
    inject_missingness,
)
from casemix.domain import Depth
from casemix.errors import InvalidArgument
from casemix.preprocess import COST_OUTLIER, LOS_OUTLIER
from tests.helpers import csv_text, parse_cohort_csv, random_dataset, traced_peak

# Observed once on the fixed generator constants (n=5000, seed=42) and pinned
# as a regression; the hard requirement is only >= 0.5.
PINNED_LOS_TBSA_CORR = 0.8342

#: sha256 of the cohort CSV text for (n, seed, (missingness rate, seed) or
#: None), recorded while every stream still built its own SeedSequence,
#: Philox and Generator. How the streams are derived must not move a byte.
PINNED_COHORT_CSV = [
    ((2000, 2**32 - 1, (0.3, 2**40)),
     "197572b4522d929f6e0130ff835d5d9841a55e11be9cb84a6588abd8d9ec3933"),
    ((500, 2**64 + 5, None),
     "072b1a204de843ddd4cca0ce995e8c05b8aa6ee51e3e6cb7aff7c0286aeb2cd4"),
    ((5000, 42, (0.2, 7)),
     "43deea685e4dce60edcae2c31b10fdb23a54104df204938379b9a2abe5173a55"),
]


class TestConfig:
    def test_n_zero_rejected(self):
        with pytest.raises(InvalidArgument):
            CohortConfig(n=0, seed=1)

    def test_n_bounded_by_32_bit_record_index(self):
        """A record's streams are keyed by its index as one 32-bit word."""
        assert CohortConfig(n=2**32, seed=1).n == 2**32
        for n in (2**32 + 1, 10**20):
            with pytest.raises(InvalidArgument, match="n must be an integer, >= 1, <= 4294967296"):
                CohortConfig(n=n, seed=1)

    def test_weights_must_sum_to_one(self):
        with pytest.raises(InvalidArgument):
            CohortConfig(n=10, seed=1, severity_weights=(0.5, 0.5, 0.5))

    def test_scales_positive(self):
        with pytest.raises(InvalidArgument):
            CohortConfig(n=10, seed=1, los_noise=0.0)

    def test_rates_in_range(self):
        with pytest.raises(InvalidArgument):
            CohortConfig(n=10, seed=1, outlier_rate=1.5)

    def test_dict_round_trip(self):
        cfg = CohortConfig(n=10, seed=1, outlier_rate=0.05)
        assert CohortConfig.from_dict(dataclasses.asdict(cfg)) == cfg

    @pytest.mark.parametrize("seed", [-1, -(2**70), 1.5, True, "3"])
    def test_seed_must_be_non_negative_integer(self, seed):
        with pytest.raises(InvalidArgument):
            CohortConfig(n=10, seed=seed)

    def test_from_dict_bad_key(self):
        with pytest.raises(InvalidArgument):
            CohortConfig.from_dict({"n": 5, "seed": 1, "banana": 2})

    @pytest.mark.parametrize("field", ["los_noise", "cost_noise", "outlier_rate",
                                       "unclassifiable_rate"])
    @pytest.mark.parametrize("value", [True, False])
    def test_bool_is_not_a_number(self, field, value):
        """``isinstance(True, int)`` holds, so a JSON boolean would pass as
        1 or 0 if only the type were checked."""
        with pytest.raises(InvalidArgument, match=field):
            CohortConfig.from_dict({"n": 5, "seed": 1, field: value})

    @pytest.mark.parametrize("weights", [[True, False, False], [0.5, 0.5, False]])
    def test_bool_severity_weights_rejected(self, weights):
        with pytest.raises(InvalidArgument, match="severity_weights"):
            CohortConfig.from_dict({"n": 5, "seed": 1, "severity_weights": weights})


class TestGenerate:
    def test_deterministic(self):
        a = generate_cohort(CohortConfig(n=80, seed=11))
        b = generate_cohort(CohortConfig(n=80, seed=11))
        assert a == b

    def test_different_seeds_differ(self):
        a = generate_cohort(CohortConfig(n=80, seed=11))
        b = generate_cohort(CohortConfig(n=80, seed=12))
        assert a != b

    def test_prefix_stability(self):
        # RNG is keyed per record, so the first records of a longer cohort
        # match a shorter one exactly.
        a = generate_cohort(CohortConfig(n=30, seed=5))
        b = generate_cohort(CohortConfig(n=60, seed=5))
        assert a.records == b.records[:30]

    def test_all_records_valid(self, small_cohort):
        """Every cell is present and in its domain, and each record's site
        areas sum to its tbsa_pct."""
        ds = small_cohort
        assert (ds.numerics >= 0).all() and (ds.site_areas >= 0).all() and (ds.site_depths >= 0).all()
        tbsa = ds.factor_values("tbsa_pct")
        assert (tbsa <= 100).all()
        assert np.abs(ds.site_areas.sum(axis=0) - tbsa).max() <= 1e-6
        assert ds.extra_schema == EXTRA_SCHEMA

    def test_log_correlation_pinned(self):
        ds = generate_cohort(CohortConfig(n=5000, seed=42))
        corr = float(
            np.corrcoef(
                np.log1p(ds.factor_values("los_days")),
                np.log1p(ds.factor_values("tbsa_pct")),
            )[0, 1]
        )
        assert corr >= 0.5
        assert corr == pytest.approx(PINNED_LOS_TBSA_CORR, abs=0.05)

    def test_outlier_count_within_binomial_band(self):
        n, rate = 5000, 0.01
        ds = generate_cohort(CohortConfig(n=n, seed=42, outlier_rate=rate))
        los = ds.factor_values("los_days")
        cost = ds.factor_values("total_cost")
        observed = int(((los > LOS_OUTLIER) | (cost > COST_OUTLIER)).sum())
        band = 4 * math.sqrt(n * rate * (1 - rate))
        assert abs(observed - n * rate) <= band

    def test_unclassifiable_fraction(self):
        ds = generate_cohort(CohortConfig(n=2000, seed=9, unclassifiable_rate=0.1))
        zeros = sum(
            1
            for r in ds.records
            if all(s.area_pct == 0.0 for s in r.burn_sites)
            and all(s.depth is Depth.NONE for s in r.burn_sites)
        )
        assert abs(zeros - 200) <= 4 * math.sqrt(2000 * 0.1 * 0.9)

    @pytest.mark.parametrize("noise", ["los_noise", "cost_noise"])
    @pytest.mark.parametrize("scale", [1000.0, 1e308])
    def test_wide_noise_truncated_at_outlier_thresholds(self, noise, scale):
        """Any finite noise scale above 0 is valid: a log-scale draw past an
        outlier threshold is truncated to it rather than overflowing."""
        ds = generate_cohort(CohortConfig.from_dict({"n": 50, "seed": 1, noise: scale}))
        values = ds.factor_values("los_days" if noise == "los_noise" else "total_cost")
        bound = LOS_OUTLIER if noise == "los_noise" else COST_OUTLIER
        assert (values >= 0).all() and (values <= bound).all() and (values == bound).any()

    @pytest.mark.parametrize("config,digest", PINNED_COHORT_CSV)
    def test_csv_bytes_pinned(self, config, digest):
        n, seed, missingness = config
        ds = generate_cohort(CohortConfig(n=n, seed=seed))
        if missingness is not None:
            ds = inject_missingness(ds, *missingness)
        assert hashlib.sha256(csv_text(ds).encode("utf-8")).hexdigest() == digest

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(1, 120),
        st.integers(0, 2**130),
        st.floats(0.0, 1.0),
        st.integers(0, 2**64),
    )
    def test_csv_round_trip_bit_identical(self, n, seed, rate, m_seed):
        """Parsing the CSV of a generated cohort gives back the generated
        columns bit for bit, so `casemix all` may use the generated
        dataset in place of parsing the file it wrote."""
        ds = inject_missingness(generate_cohort(CohortConfig(n=n, seed=seed)), rate, m_seed)
        parsed = parse_cohort_csv(csv_text(ds))
        assert parsed.ids.tolist() == ds.ids.tolist()
        for name in ("numerics", "site_areas", "site_depths"):
            ours, theirs = getattr(ds, name), getattr(parsed, name)
            assert theirs.dtype == ours.dtype and theirs.tobytes() == ours.tobytes(), name
        assert list(parsed.extras) == list(ds.extras)
        for name, col in ds.extras.items():
            assert parsed.extras[name].dtype == col.dtype, name
            if col.dtype == np.float64:
                assert parsed.extras[name].tobytes() == col.tobytes(), name
            else:
                assert parsed.extras[name].tolist() == col.tolist(), name

    @pytest.mark.parametrize("n", [1023, 1024, 1025])
    def test_ranges_around_one_block(self, n, monkeypatch):
        """A worker stores its records a block at a time; a range just
        below, at and just above one block is stored as one record at a
        time would store it."""
        assert cohort._BLOCK == 1024
        monkeypatch.setattr(parallel, "cpu_count", lambda: 1)  # one range of n records
        config = CohortConfig(n=n, seed=11, outlier_rate=0.1, unclassifiable_rate=0.1)
        ds = generate_cohort(config)
        monkeypatch.setattr(cohort, "_BLOCK", 1)
        assert ds == generate_cohort(config)
        assert csv_text(ds) == csv_text(generate_cohort(config))

    def test_non_outlier_values_truncated(self):
        ds = generate_cohort(CohortConfig(n=2000, seed=9, outlier_rate=0.0))
        assert ds.factor_values("los_days").max() <= LOS_OUTLIER
        assert ds.factor_values("total_cost").max() <= COST_OUTLIER


class TestInjectMissingness:
    def test_rate_zero_identity(self, small_cohort):
        assert inject_missingness(small_cohort, 0.0, seed=1) == small_cohort

    def test_rate_one_blanks_every_eligible_cell(self, small_cohort):
        out = inject_missingness(small_cohort, 1.0, seed=1)
        for rec in out.records:
            assert rec.los_days != 0.0 or rec.los_days is None
            for site in rec.burn_sites:
                assert site.area_pct != 0.0  # zeros all became None
                assert site.depth is not Depth.NONE

    def test_deterministic(self, small_cohort):
        a = inject_missingness(small_cohort, 0.3, seed=4)
        b = inject_missingness(small_cohort, 0.3, seed=4)
        assert a == b
        c = inject_missingness(small_cohort, 0.3, seed=5)
        assert a != c

    def test_rate_out_of_range(self, small_cohort):
        with pytest.raises(InvalidArgument):
            inject_missingness(small_cohort, 1.5, seed=1)

    @pytest.mark.parametrize("rate", [0.0, 0.3])
    @pytest.mark.parametrize("seed", [-1, 2.0, None])
    def test_seed_must_be_non_negative_integer(self, small_cohort, rate, seed):
        with pytest.raises(InvalidArgument):
            inject_missingness(small_cohort, rate, seed=seed)

    @pytest.mark.parametrize("block", [1, 7])
    def test_block_size_does_not_change_result(self, small_cohort, monkeypatch, block):
        expected = inject_missingness(small_cohort, 0.3, seed=4)
        monkeypatch.setattr(cohort, "_BLOCK", block)
        assert inject_missingness(small_cohort, 0.3, seed=4) == expected

    def test_peak_memory_near_result_size(self):
        """Draws are held a block of records at a time, so beyond the
        arrays it returns, a 20k-record call allocates at most 4 MiB."""
        ds = random_dataset(20000, 1)
        peak = traced_peak(inject_missingness, ds, 0.2, 7)
        out = inject_missingness(ds, 0.2, seed=7)
        result = sum(arr.nbytes for arr in (out.numerics, out.site_areas, out.site_depths,
                                            *out.extras.values()))
        assert peak <= result + 4 * 2**20

    def test_only_zero_cells_eligible(self, small_cohort):
        out = inject_missingness(small_cohort, 1.0, seed=1)
        for before, after in zip(small_cohort.records, out.records):
            if before.los_days not in (0.0, None):
                assert after.los_days == before.los_days
            if before.tbsa_pct not in (0.0, None):
                assert after.tbsa_pct == before.tbsa_pct


def philox(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed))


def assert_choice_matches_generator(p, seed: int, draws: int = 50):
    """``_choice`` draws what ``Generator.choice(len(p), p=p)`` draws and
    leaves the generator in the same state."""
    ours, numpy_gen = philox(seed), philox(seed)
    cdf = _cdf(p)
    for _ in range(draws):
        assert _choice(cdf, ours) == int(numpy_gen.choice(len(p), p=np.asarray(p)))
    raw = ours.bit_generator.random_raw(8), numpy_gen.bit_generator.random_raw(8)
    assert np.array_equal(*raw)


class TestChoice:
    @pytest.mark.parametrize(
        "p",
        [*_MECHANISM_P, *_DEPTH_P, (0.6, 0.3, 0.1), (0.5, 0.0, 0.5), (0.0, 0.0, 1.0), (1.0, 0.0, 0.0)],
    )
    def test_packaged_tables(self, p):
        for seed in range(20):
            assert_choice_matches_generator(p, seed)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.integers(0, 1000), min_size=3, max_size=3).filter(lambda w: sum(w) > 0),
        st.integers(0, 2**32 - 1),
    )
    def test_random_severity_weights(self, raw, seed):
        weights = tuple(w / sum(raw) for w in raw)
        assert abs(sum(weights) - 1.0) <= 1e-9  # a valid CohortConfig.severity_weights
        assert_choice_matches_generator(weights, seed)


def seed_sequence_generator(seed: int, index: int, tag: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(index, tag))
    return np.random.Generator(np.random.Philox(ss))


class TestStreams:
    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(0, 2**256 - 1),
        st.lists(st.one_of(st.sampled_from([0, 1, 2**32 - 1]), st.integers(0, 2**32 - 1)),
                 min_size=1, max_size=12),
        st.integers(0, 8),
    )
    def test_keys_match_seed_sequence(self, seed, indices, tag):
        keys = _stream_keys(seed, np.array(indices, dtype=np.uint64), tag)
        assert keys.dtype == np.uint64 and keys.shape == (len(indices), 2)
        for index, key in zip(indices, keys):
            expected = np.random.SeedSequence(entropy=seed, spawn_key=(index, tag)).generate_state(
                2, np.uint64
            )
            assert key.tolist() == expected.tolist()

    @pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**64 + 5, 2**200 + 99])
    def test_keys_for_every_record_and_tag(self, seed):
        for tag in range(9):
            keys = _stream_keys(seed, np.arange(40), tag)
            for index in range(40):
                expected = np.random.SeedSequence(entropy=seed, spawn_key=(index, tag))
                assert keys[index].tolist() == expected.generate_state(2, np.uint64).tolist()

    DRAWS = {
        "random": lambda g: g.random(),
        "uniform": lambda g: [g.uniform(), g.uniform(0.1, 15.9), *g.uniform(size=5)],
        "normal": lambda g: g.normal(1.3, 0.5),
        "gamma": lambda g: [g.gamma(2.0, 0.7), g.gamma(2.2, 8.0)],
        "poisson": lambda g: [g.poisson(0.35), g.poisson(7.5)],
        "dirichlet": lambda g: g.dirichlet(np.full(4, 1.5)).tolist(),
        "choice": lambda g: g.choice(27, size=6, replace=False).tolist(),
        "integers": lambda g: [g.integers(0, 17), g.integers(0, 17)],
    }

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(0, 2**128),
        st.integers(0, 2**32 - 1),
        st.integers(0, 8),
        st.integers(1, 27),
        st.floats(-1e6, 1e6),
        st.floats(0.0, 1e6),
        st.integers(0, 40),
    )
    def test_generator_draws_match_numpy_calls(self, seed, index, tag, k, low, width, m):
        """The calls the generator makes in place of numpy's uniform and
        dirichlet draw the same values and leave the stream in the same
        state."""
        ours = _streams(seed, index + 1, (tag,), start=index)(index, tag)
        fresh = seed_sequence_generator(seed, index, tag)
        high = low + width
        assert ours.random() == fresh.uniform()
        assert _uniform(low, high, ours) == fresh.uniform(low, high)
        assert ours.random(m).tolist() == fresh.uniform(size=m).tolist()
        assert _dirichlet(k, ours) == fresh.dirichlet(np.full(k, 1.5)).tolist()
        assert ours.bit_generator.state["has_uint32"] == fresh.bit_generator.state["has_uint32"]
        assert ours.bit_generator.random_raw(6).tolist() == fresh.bit_generator.random_raw(6).tolist()

    @pytest.mark.parametrize("kind", sorted(DRAWS))
    def test_rewound_generator_draws_as_fresh_one(self, kind):
        seed, draw = 2**40 + 3, self.DRAWS[kind]
        stream = _streams(seed, 10, (2, 5))
        for index, tag in [(0, 2), (9, 5), (4, 2), (4, 5)]:
            # a 32-bit draw leaves the upper half of a 64-bit output buffered
            leftover = stream(3, 5)
            leftover.integers(0, 17)
            assert leftover.bit_generator.state["has_uint32"] == 1
            ours, fresh = stream(index, tag), seed_sequence_generator(seed, index, tag)
            assert draw(ours) == draw(fresh)
            assert ours.bit_generator.random_raw(6).tolist() == fresh.bit_generator.random_raw(6).tolist()
