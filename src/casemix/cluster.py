"""Exact 1-D k-means and severity ranking of clusters.

Every clustering here is one-dimensional, where an optimal k-means partition
is a set of contiguous runs of the sorted values. ``kmeans`` finds one by
dynamic programming over the sorted distinct values and their counts
(Wang & Song 2011, *Ckmeans.1d.dp*, R Journal 3(2); Groenlund et al. 2017,
arXiv:1701.07204). Row r of the table holds, for each prefix of the distinct
values, the least within-cluster sum of squares over r + 1 clusters. The
leftmost best start of the last cluster does not decrease as the prefix
grows, so each row is solved by divide-and-conquer, one recursion level per
numpy pass. Ties go to the leftmost start and cluster ids follow value
order, so the result depends on the input alone.

Segment costs come from prefix sums of the values centred on their mean and
scaled by an exact power of two, so no square overflows. A cost difference
below the resolution of those sums (a squared gap that underflows, or
structure far finer than the spread of the whole input) cannot steer the
table, so each pair of neighbouring clusters is then solved again on its own
values, which resolves their boundary at their own scale. ``inertia`` is
computed again from the final partition on the original values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgument
from .preprocess import log1p_factor


@dataclass(frozen=True)
class KMeansResult:
    assignments: np.ndarray  # (n,) int cluster ids in [0, k), in value order
    centers: np.ndarray      # (k, 1), ascending
    inertia: float

    @property
    def k(self) -> int:
        return self.centers.shape[0]


def _as_values(points) -> np.ndarray:
    x = np.asarray(points, dtype=np.float64)
    if x.ndim == 2 and x.shape[1] == 1:
        x = x[:, 0]
    if x.ndim != 1:
        raise InvalidArgument(f"kmeans takes 1-D values, got points of shape {x.shape}")
    if x.size == 0:
        raise InvalidArgument("points must be non-empty")
    if not np.isfinite(x).all():
        raise InvalidArgument("points must be finite")
    return x


def _optimal_starts(y: np.ndarray, w: np.ndarray, k: int) -> np.ndarray:
    """First index of each cluster in an optimal partition of the sorted
    distinct values ``y`` with weights ``w`` into k contiguous runs."""
    m = len(y)
    p1 = np.concatenate(([0.0], np.cumsum(w * y)))
    p2 = np.concatenate(([0.0], np.cumsum(w * y * y)))
    pw = np.concatenate(([0.0], np.cumsum(w)))

    def cost(i, j):  # sum of squares of the run i..j (inclusive)
        s1 = p1[j + 1] - p1[i]
        return np.maximum(p2[j + 1] - p2[i] - s1 * s1 / (pw[j + 1] - pw[i]), 0.0)

    best = cost(np.zeros(m, dtype=np.int64), np.arange(m))
    arg = np.zeros((k, m), dtype=np.int64)
    for r in range(1, k):
        # Row r is needed for prefixes ending at r..m-k+r, the last row only
        # for the whole input. A subproblem solves the prefixes ending at
        # jlo..jhi, whose last cluster starts within ilo..ihi.
        row = np.full(m, np.inf)
        jhi = np.array([m - k + r])
        jlo = jhi if r == k - 1 else np.array([r])
        ilo, ihi = np.array([r]), jhi
        while jlo.size:
            mid = (jlo + jhi) // 2
            sizes = np.minimum(ihi, mid) - ilo + 1
            offsets = np.cumsum(sizes) - sizes
            i = np.arange(sizes.sum()) - np.repeat(offsets - ilo, sizes)
            total = best[i - 1] + cost(i, np.repeat(mid, sizes))
            low = np.minimum.reduceat(total, offsets)
            at_low = np.where(total == np.repeat(low, sizes), np.arange(total.size), total.size)
            opt = i[np.minimum.reduceat(at_low, offsets)]
            row[mid], arg[r, mid] = low, opt
            left, right = jlo < mid, mid < jhi
            jlo, jhi, ilo, ihi = (
                np.concatenate((jlo[left], mid[right] + 1)),
                np.concatenate((mid[left] - 1, jhi[right])),
                np.concatenate((ilo[left], opt[right])),
                np.concatenate((opt[left], ihi[right])),
            )
        best = row
    starts = np.zeros(k, dtype=np.int64)
    end = m - 1
    for r in range(k - 1, 0, -1):
        starts[r] = arg[r, end]
        end = starts[r] - 1
    return starts


def _refine_pairs(v: np.ndarray, w: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Solve each pair of neighbouring clusters again on its own values,
    centred and scaled afresh, until a sweep leaves a partition already
    seen. This settles boundaries that differences finer than the whole
    input's resolution decide, and never empties a cluster."""
    bounds = np.append(starts, len(v))
    seen = set()
    while bounds.tobytes() not in seen:
        seen.add(bounds.tobytes())
        for j in range(len(starts) - 1):
            lo, hi = bounds[j], bounds[j + 2]
            bounds[j + 1] = lo + _optimal_starts(_scaled(v[lo:hi], w[lo:hi]), w[lo:hi], 2)[1]
    return bounds[:-1]


def _scaled(v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``v`` centred on its weighted mean, then scaled by a power of two
    (exact) so that the largest magnitude lies in [0.5, 1)."""
    y = v - np.dot(w, v) / w.sum()
    top = np.abs(y).max()
    return np.ldexp(y, -int(np.frexp(top)[1])) if top > 0 else y


def kmeans(points, k: int) -> KMeansResult:
    """Optimal k-means of 1-D values: k non-empty clusters with the least
    within-cluster sum of squares. Accepts shape (n,) or (n, 1); cluster
    ids follow value order."""
    x = _as_values(points)
    if k < 1:
        raise InvalidArgument(f"k must be >= 1, got {k}")
    v, inverse, counts = np.unique(x, return_inverse=True, return_counts=True)
    if k > len(v):
        raise InvalidArgument(f"k={k} exceeds {len(v)} distinct points")
    w = counts.astype(np.float64)
    starts = _refine_pairs(v, w, _optimal_starts(_scaled(v, w), w, k))
    centers = np.add.reduceat(w * v, starts) / np.add.reduceat(w, starts)
    labels = np.repeat(np.arange(k), np.diff(np.append(starts, len(v))))
    assignments = labels[inverse.reshape(-1)]
    diff = x - centers[assignments]
    return KMeansResult(assignments, centers.reshape(-1, 1), float(np.dot(diff, diff)))


def rank_clusters(result: KMeansResult, severity_values) -> dict[int, int]:
    """Map cluster id -> rank: rank 1 = lowest mean severity, rank k =
    highest; equal means break toward the lower cluster id."""
    sev = np.asarray(severity_values, dtype=np.float64)
    if sev.shape[0] != result.assignments.shape[0]:
        raise InvalidArgument(
            f"severity length {sev.shape[0]} != assignments length {result.assignments.shape[0]}"
        )
    k = result.k
    means = np.array([sev[result.assignments == j].mean() for j in range(k)])
    order = np.argsort(means, kind="stable")
    return {int(cluster): rank + 1 for rank, cluster in enumerate(order)}


def cluster_factor(values, k: int) -> np.ndarray:
    """Engineer ranked classes for one factor: log1p transform, then 1-D
    k-means. Cluster ids follow value order, so rank = id + 1 (rank 1 =
    lowest). Returns per-record ranks."""
    return kmeans(log1p_factor(values), k).assignments + 1
