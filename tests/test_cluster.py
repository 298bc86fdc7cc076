import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from casemix.cluster import KMeansResult, cluster_factor, kmeans, rank_clusters
from casemix.errors import InvalidArgument


def brute_force_partition_optimum(values, k):
    """Minimum total within-group squared deviation over all partitions of
    the values into exactly k non-empty groups (canonical enumeration)."""
    n = len(values)
    best = [float("inf")]
    assign = [0] * n

    def rec(i, maxg):
        if i == n:
            if maxg + 1 == k:
                total = 0.0
                for g in range(k):
                    member = [values[j] for j in range(n) if assign[j] == g]
                    mean = sum(member) / len(member)
                    total += sum((x - mean) ** 2 for x in member)
                best[0] = min(best[0], total)
            return
        for g in range(min(maxg + 1, k - 1) + 1):
            assign[i] = g
            rec(i + 1, max(maxg, g))

    rec(0, -1)
    return best[0]


def assert_contiguous_intervals(values, assignments):
    order = np.argsort(values, kind="stable")
    runs = []
    for c in assignments[order]:
        if not runs or runs[-1] != c:
            runs.append(int(c))
    assert len(set(runs)) == len(runs), f"clusters not contiguous: {runs}"


class TestKMeans:
    def test_separable_two_clusters(self):
        pts = np.array([0.0, 0.0, 10.0, 10.0]).reshape(-1, 1)
        res = kmeans(pts, 2)
        assert res.inertia == 0.0
        assert sorted(res.centers.ravel().tolist()) == [0.0, 10.0]

    def test_k1_center_is_mean(self):
        pts = np.array([1.0, 2.0, 4.0, 9.0]).reshape(-1, 1)
        res = kmeans(pts, 1)
        assert res.centers[0, 0] == pytest.approx(4.0)
        assert res.inertia == pytest.approx(float(((pts - 4.0) ** 2).sum()))

    def test_empty_input_rejected(self):
        with pytest.raises(InvalidArgument):
            kmeans(np.empty((0, 1)), 1)

    def test_k_exceeding_distinct_points_rejected(self):
        with pytest.raises(InvalidArgument):
            kmeans(np.array([1.0, 1.0, 1.0]).reshape(-1, 1), 2)

    @pytest.mark.parametrize("values, k", [
        ([0.0] * 11 + [1.0710966831671191e-280], 2),
        ([0.0] * 5 + [5e-324] * 3 + [1e4] * 4, 3),
        ([0.0, 5e-324, 1e-300, 1e-10, 1.0] * 3, 5),
    ])
    def test_distinct_points_with_underflowing_gaps(self, values, k):
        # Squared gaps between these points underflow to zero; they must
        # still be told apart into k clusters.
        arr = np.asarray(values)
        res = kmeans(arr.reshape(-1, 1), k)
        assert len(np.unique(res.assignments)) == k
        # k distinct values and k clusters: each value is its own cluster.
        for v in np.unique(arr):
            assert len(np.unique(res.assignments[arr == v])) == 1

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        pts = rng.normal(size=100)
        a = kmeans(pts, 4)
        b = kmeans(pts.reshape(-1, 1), 4)
        assert np.array_equal(a.assignments, b.assignments)
        assert np.array_equal(a.centers, b.centers)
        assert a.inertia == b.inertia

    def test_assignment_is_nearest_center(self):
        rng = np.random.default_rng(5)
        pts = rng.normal(size=(60, 1))
        res = kmeans(pts, 3)
        d2 = ((pts[:, None, :] - res.centers[None, :, :]) ** 2).sum(-1)
        assert np.array_equal(res.assignments, np.argmin(d2, axis=1))
        assert res.inertia == pytest.approx(float(d2.min(axis=1).sum()))

    def test_brute_force_optimality_small_instances(self):
        rng = np.random.default_rng(20250811)
        for trial in range(100):
            n = int(rng.integers(2, 9))
            k = int(rng.integers(1, min(n, 3) + 1))
            vals = np.round(rng.uniform(0, 10, size=n), 3)
            while len(np.unique(vals)) < k:
                vals = np.round(rng.uniform(0, 10, size=n), 3)
            res = kmeans(vals.reshape(-1, 1), k)
            opt = brute_force_partition_optimum(list(vals), k)
            assert abs(res.inertia - opt) <= 1e-9, f"trial {trial}: {res.inertia} vs {opt}"
            assert_contiguous_intervals(vals, res.assignments)

    def test_1d_clusters_are_intervals(self):
        rng = np.random.default_rng(12)
        vals = rng.gamma(2.0, 3.0, size=500)
        res = kmeans(vals.reshape(-1, 1), 13)
        assert_contiguous_intervals(vals, res.assignments)

    def test_multidimensional_points_rejected(self):
        with pytest.raises(InvalidArgument):
            kmeans(np.zeros((6, 2)), 2)

    @settings(deadline=None, max_examples=300)
    @given(st.data())
    def test_matches_brute_force_optimum(self, data):
        values = data.draw(st.lists(
            st.one_of(
                st.sampled_from([0.0, 5e-324, 1e-323, 1.0710966831671191e-280, 1e-300,
                                 1e-10, 1.0, 2.5, 1e150, 1.5e150, 3e150]),
                st.floats(-10, 10).map(lambda v: round(v, 1)),
                st.floats(1e149, 1e151),
            ),
            min_size=1, max_size=8,
        ))
        arr = np.asarray(values)
        k = data.draw(st.integers(1, len(np.unique(arr))))
        res = kmeans(arr, k)
        opt = brute_force_partition_optimum(values, k)
        # Both are exact up to rounding: the solver's DP to the resolution of
        # its sums over the spread, and each side's means to an ulp of the
        # largest magnitude.
        spread = float(arr.max() - arr.min())
        ulp = np.finfo(np.float64).eps * float(np.abs(arr).max())
        assert abs(res.inertia - opt) <= 1e-9 * spread**2 + 8 * len(arr) * ulp * (spread + ulp)
        # Exactly k non-empty clusters, contiguous and numbered in value order.
        assert np.array_equal(np.unique(res.assignments), np.arange(k))
        assert np.all(np.diff(res.assignments[np.argsort(arr, kind="stable")]) >= 0)
        # Every point is nearest its own center.
        dist = np.abs(arr[:, None] - res.centers.ravel()[None, :])
        assert np.all(dist[np.arange(len(arr)), res.assignments] <= dist.min(axis=1))


class TestRankClusters:
    def make_result(self, assignments, k):
        return KMeansResult(
            assignments=np.asarray(assignments),
            centers=np.zeros((k, 1)),
            inertia=0.0,
        )

    def test_sorted_by_mean(self):
        # cluster means: id0 -> 5.2, id1 -> 0.1, id2 -> 2.3
        res = self.make_result([0, 1, 2], k=3)
        ranks = rank_clusters(res, [5.2, 0.1, 2.3])
        assert ranks == {0: 3, 1: 1, 2: 2}

    def test_k1(self):
        res = self.make_result([0, 0], k=1)
        assert rank_clusters(res, [3.0, 4.0]) == {0: 1}

    def test_tie_breaks_to_lower_id(self):
        res = self.make_result([0, 1], k=2)
        assert rank_clusters(res, [2.0, 2.0]) == {0: 1, 1: 2}

    def test_bijection(self):
        rng = np.random.default_rng(2)
        vals = rng.normal(size=300)
        res = kmeans(vals.reshape(-1, 1), 7)
        ranks = rank_clusters(res, vals)
        assert sorted(ranks.values()) == list(range(1, 8))

    def test_length_mismatch(self):
        res = self.make_result([0, 1], k=2)
        with pytest.raises(InvalidArgument):
            rank_clusters(res, [1.0])


class TestClusterFactor:
    def test_constant_k1(self):
        out = cluster_factor(np.full(20, 3.3), k=1)
        assert np.all(out == 1)

    def test_separable(self):
        values = np.array([0.0] * 50 + [100.0] * 50)
        out = cluster_factor(values, k=2)
        assert np.all(out[:50] == 1) and np.all(out[50:] == 2)

    def test_negative_rejected(self):
        with pytest.raises(InvalidArgument):
            cluster_factor(np.array([-1.0, 2.0]), k=2)

    @settings(deadline=None, max_examples=30)
    @given(
        st.lists(st.floats(min_value=0, max_value=1e4), min_size=12, max_size=60),
        st.integers(min_value=2, max_value=5),
    )
    def test_ranks_monotone_in_values(self, values, k):
        arr = np.asarray(values)
        if len(np.unique(np.log1p(arr))) < k:
            return
        ranks = cluster_factor(arr, k=k)
        order = np.argsort(arr, kind="stable")
        sorted_ranks = ranks[order]
        assert np.all(np.diff(sorted_ranks) >= 0)
