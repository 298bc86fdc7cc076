import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from casemix.cohort import (
    _DEPTH_P,
    _MECHANISM_P,
    COST_OUTLIER_THRESHOLD,
    LOS_OUTLIER_THRESHOLD,
    CohortConfig,
    _cdf,
    _choice,
    generate_cohort,
    inject_missingness,
)
from casemix.domain import Depth, validate_record
from casemix.errors import InvalidArgument

# Observed once on the fixed generator constants (n=5000, seed=42) and pinned
# as a regression; the hard requirement is only >= 0.5.
PINNED_LOS_TBSA_CORR = 0.8342


class TestConfig:
    def test_n_zero_rejected(self):
        with pytest.raises(InvalidArgument):
            CohortConfig(n=0, seed=1)

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
        assert CohortConfig.from_dict(cfg.to_dict()) == cfg

    def test_from_dict_bad_key(self):
        with pytest.raises(InvalidArgument):
            CohortConfig.from_dict({"n": 5, "seed": 1, "banana": 2})


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
        for rec in small_cohort.records:
            assert validate_record(rec, small_cohort.extra_schema, check_site_sum=True) == []

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
        observed = int(((los > LOS_OUTLIER_THRESHOLD) | (cost > COST_OUTLIER_THRESHOLD)).sum())
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

    def test_non_outlier_values_truncated(self):
        ds = generate_cohort(CohortConfig(n=2000, seed=9, outlier_rate=0.0))
        assert ds.factor_values("los_days").max() <= LOS_OUTLIER_THRESHOLD
        assert ds.factor_values("total_cost").max() <= COST_OUTLIER_THRESHOLD


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
