import math

import numpy as np
import pytest

from casemix.domain import linear_cost_matrix
from casemix.errors import InvalidArgument
from casemix.evaluate import (
    boxplot_stats,
    compare_groupings,
    confusion,
    intra_group_variance,
    merge_diagnostic,
)
from tests.records import dataset_of, make_record


class TestIntraGroupVariance:
    def test_identical_values_zero(self):
        report = intra_group_variance([5.0, 5.0, 5.0], [1, 1, 1])
        assert report.per_group[1].variance == 0.0

    def test_sample_variance_on_log_scale(self):
        # log1p(values) = {1, 3} -> sample variance 2
        values = [math.expm1(1.0), math.expm1(3.0)]
        report = intra_group_variance(values, [1, 1])
        assert report.per_group[1].variance == pytest.approx(2.0)

    def test_unweighted_mean(self):
        # group 1: identical (variance 0); group 2: log-values {1, 3} (variance 2)
        values = [1.0, 1.0, math.expm1(1.0), math.expm1(3.0)]
        report = intra_group_variance(values, [1, 1, 2, 2])
        assert report.mean_variance == pytest.approx(1.0)

    def test_singletons_flagged_and_excluded(self):
        values = [1.0, 2.0, 3.0]
        report = intra_group_variance(values, [1, 2, 2])
        assert report.small_groups == (1,)
        assert report.per_group[1].variance == 0.0
        assert report.mean_variance == report.per_group[2].variance

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(3)
        values = rng.gamma(2, 10, size=100)
        groups = rng.integers(1, 5, size=100)
        a = intra_group_variance(values, groups)
        b = intra_group_variance(values, groups + 10)
        assert a.mean_variance == b.mean_variance
        assert [a.per_group[g].variance for g in sorted(a.per_group)] == [
            b.per_group[g].variance for g in sorted(b.per_group)
        ]

    def test_length_mismatch(self):
        with pytest.raises(InvalidArgument):
            intra_group_variance([1.0], [1, 2])


class TestConfusion:
    def test_perfect_predictions(self):
        loss = linear_cost_matrix(13)
        t = np.arange(1, 14)
        summary = confusion(t, t, loss)
        assert summary.accuracy == 1.0
        assert summary.total_loss == 0.0
        assert summary.max_distance == 0
        assert np.trace(summary.matrix) == 13

    def test_single_adjacent_error(self):
        loss = linear_cost_matrix(13)
        t = np.array([8, 5]); p = np.array([9, 5])
        summary = confusion(t, p, loss)
        assert summary.total_loss == 1.0
        assert summary.max_distance == 1
        assert summary.matrix[7, 8] == 1

    def test_hundred_cases_max_distance_three(self):
        loss = linear_cost_matrix(13)
        t = np.full(100, 8); p = np.full(100, 8); p[0] = 11
        summary = confusion(t, p, loss)
        assert summary.max_distance == 3
        assert summary.accuracy == pytest.approx(0.99)
        assert summary.distance_histogram == {0: 99, 3: 1}

    def test_row_sums_are_true_counts(self):
        rng = np.random.default_rng(5)
        loss = linear_cost_matrix(6)
        t = rng.integers(1, 7, size=400); p = rng.integers(1, 7, size=400)
        summary = confusion(t, p, loss)
        for c in range(1, 7):
            assert summary.matrix[c - 1].sum() == (t == c).sum()
        assert summary.matrix.sum() == 400

    def test_permutation_invariance_of_total_loss(self):
        # relabeling classes and permuting the loss matrix identically leaves
        # the total penalty unchanged
        rng = np.random.default_rng(6)
        k = 5
        entries = rng.uniform(0, 4, size=(k, k)); np.fill_diagonal(entries, 0)
        from casemix.domain import CostMatrix

        loss = CostMatrix(entries)
        t = rng.integers(1, k + 1, size=200); p = rng.integers(1, k + 1, size=200)
        perm = rng.permutation(k)          # old 0-based rank -> new 0-based rank
        inv = np.argsort(perm)
        t2 = perm[t - 1] + 1; p2 = perm[p - 1] + 1
        loss_perm = CostMatrix(entries[np.ix_(inv, inv)])
        assert confusion(t, p, loss).total_loss == pytest.approx(
            confusion(t2, p2, loss_perm).total_loss
        )

    def test_out_of_range_rejected(self):
        with pytest.raises(InvalidArgument):
            confusion([0], [1], linear_cost_matrix(3))


class TestBoxplotStats:
    def test_odd_length_quartiles(self):
        stats = boxplot_stats([1.0, 2.0, 3.0, 4.0, 5.0], [1] * 5)
        s = stats[1]
        assert (s.min, s.q1, s.median, s.q3, s.max, s.n) == (1.0, 2.0, 3.0, 4.0, 5.0, 5)

    def test_single_value_group(self):
        s = boxplot_stats([7.0], [3])[3]
        assert s.min == s.q1 == s.median == s.q3 == s.max == 7.0
        assert s.n == 1

    def test_conservation_across_groups(self):
        rng = np.random.default_rng(2)
        values = rng.normal(size=50)
        groups = np.array([1] * 20 + [2] * 30)
        stats = boxplot_stats(values, groups)
        assert stats[1].n + stats[2].n == 50

    def test_ordering_invariant(self):
        rng = np.random.default_rng(8)
        values = rng.gamma(2, 5, size=200)
        groups = rng.integers(1, 6, size=200)
        for s in boxplot_stats(values, groups).values():
            assert s.min <= s.q1 <= s.median <= s.q3 <= s.max


def two_group_dataset():
    """40 records in two severity blocks; values increase with the index so a
    positional refinement genuinely tightens every factor."""
    records = []
    for i in range(40):
        j = i % 20
        los = 1.0 + 0.4 * j if i < 20 else 30.0 + 3.0 * j
        cost = 500.0 + 80.0 * j if i < 20 else 20000.0 + 2000.0 * j
        tbsa = 1.0 + 0.15 * j if i < 20 else 25.0 + 1.5 * j
        records.append(
            make_record(id=str(i), los_days=los, total_cost=cost, tbsa_pct=tbsa, tbsa=tbsa)
        )
    return dataset_of(*records)


class TestCompareGroupings:
    def test_identical_labelings_ratio_one(self):
        ds = two_group_dataset()
        labels = np.array([1] * 20 + [2] * 20)
        comp = compare_groupings(ds, labels, labels)
        for factor in ("los_days", "total_cost", "tbsa_pct"):
            assert comp.factors[factor].ratio == pytest.approx(1.0)
        assert not comp.dt_wins_all  # equal is not strictly lower

    def test_singleton_dt_groups_flagged_infinite(self):
        ds = two_group_dataset()
        dt = np.arange(1, 41)  # every record its own group
        hrg = np.array([1] * 20 + [2] * 20)
        comp = compare_groupings(ds, dt, hrg)
        for factor in ("los_days", "total_cost", "tbsa_pct"):
            assert math.isinf(comp.factors[factor].ratio)
            assert comp.factors[factor].to_dict()["ratio_infinite"] is True

    def test_tighter_grouping_wins(self):
        ds = two_group_dataset()
        fine = np.array(([1] * 10 + [2] * 10) + ([3] * 10 + [4] * 10))
        coarse = np.array([1] * 20 + [2] * 20)
        comp = compare_groupings(ds, fine, coarse)
        assert comp.dt_wins_all

    def test_rank_monotonicity_diagnostic(self):
        ds = two_group_dataset()
        labels = np.array([1] * 20 + [2] * 20)
        comp = compare_groupings(ds, labels, labels)
        assert comp.rank_monotone["dt"]["los_days"] is True
        reversed_labels = 3 - labels
        comp2 = compare_groupings(ds, reversed_labels, labels)
        assert comp2.rank_monotone["dt"]["los_days"] is False

    def test_length_mismatch(self):
        ds = two_group_dataset()
        with pytest.raises(InvalidArgument):
            compare_groupings(ds, np.array([1]), np.array([1] * 40))


class TestMergeDiagnostic:
    def test_adjacent_confusion_flagged(self):
        loss = linear_cost_matrix(13)
        t = np.concatenate([np.full(20, 8), np.full(20, 9), np.full(20, 3)])
        p = np.concatenate([np.full(12, 8), np.full(8, 9), np.full(20, 9), np.full(20, 3)])
        summary = confusion(t, p, loss)
        flagged = merge_diagnostic(summary, threshold=0.2)
        assert any(c["ranks"] == [8, 9] for c in flagged)
        assert not any(c["ranks"] == [3, 4] for c in flagged)

    def test_no_errors_no_candidates(self):
        loss = linear_cost_matrix(5)
        t = np.arange(1, 6)
        assert merge_diagnostic(confusion(t, t, loss)) == []


class TestRefinementProperty:
    def test_separated_cluster_refinement_lowers_variance(self):
        # Two well-separated value clusters inside one group: splitting the
        # group at the gap cannot increase either side's variance.
        rng = np.random.default_rng(11)
        low = rng.uniform(1.0, 2.0, size=30)
        high = rng.uniform(200.0, 260.0, size=30)
        values = np.concatenate([low, high])
        coarse = np.ones(60, dtype=int)
        fine = np.array([1] * 30 + [2] * 30)
        whole = intra_group_variance(values, coarse).per_group[1].variance
        split = intra_group_variance(values, fine)
        assert split.per_group[1].variance <= whole
        assert split.per_group[2].variance <= whole
