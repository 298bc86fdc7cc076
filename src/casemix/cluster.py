"""Deterministic k-means and severity ranking of clusters.

Lloyd's algorithm with k-means++ seeding, best of ``restarts`` runs by
inertia, ties broken toward the lower restart index. Empty clusters are
repaired by reseeding the empty center at the point farthest from its
assigned center, so exactly k clusters always come back. All math is
sequential numpy, so identical inputs and seed give bit-identical results.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgument
from .preprocess import log1p_factor

DEFAULT_RESTARTS = 10
DEFAULT_MAX_ITER = 300


@dataclass(frozen=True)
class KMeansResult:
    assignments: np.ndarray  # (n,) int cluster ids in [0, k)
    centers: np.ndarray      # (k, d)
    inertia: float
    iterations: int
    seed: int
    inertia_history: tuple[float, ...] = ()

    @property
    def k(self) -> int:
        return self.centers.shape[0]

    def to_dict(self) -> dict:
        """JSON-ready form for pipeline checkpointing."""
        return {
            "assignments": [int(a) for a in self.assignments],
            "centers": self.centers.tolist(),
            "inertia": self.inertia,
            "iterations": self.iterations,
            "seed": self.seed,
            "inertia_history": list(self.inertia_history),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "KMeansResult":
        return cls(
            assignments=np.asarray(d["assignments"], dtype=np.int64),
            centers=np.asarray(d["centers"], dtype=np.float64),
            inertia=float(d["inertia"]),
            iterations=int(d["iterations"]),
            seed=int(d["seed"]),
            inertia_history=tuple(d["inertia_history"]),
        )


def _as_points(points) -> np.ndarray:
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts.reshape(-1, 1)
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise InvalidArgument("points must be a non-empty list of equal-length vectors")
    return pts


def _sq_dists(pts: np.ndarray, centers: np.ndarray) -> np.ndarray:
    diff = pts[:, None, :] - centers[None, :, :]
    return np.einsum("nkd,nkd->nk", diff, diff)


def _kpp_init(pts: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = pts.shape[0]
    centers = np.empty((k, pts.shape[1]))
    first = int(rng.integers(n))
    centers[0] = pts[first]
    d2 = ((pts - centers[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total > 0:
            idx = int(rng.choice(n, p=d2 / total))
        else:
            # Every squared gap underflowed: draw among the points that
            # differ from all chosen centers (there are some, as k <= the
            # number of distinct points).
            on_center = (pts[:, None, :] == centers[None, :j, :]).all(axis=2).any(axis=1)
            free = np.flatnonzero(~on_center)
            if free.size == 0:
                raise InvalidArgument("k exceeds the number of distinct points")
            idx = int(free[rng.integers(free.size)])
        centers[j] = pts[idx]
        d2 = np.minimum(d2, ((pts - centers[j]) ** 2).sum(axis=1))
    return centers


def _nearest(pts: np.ndarray, centers: np.ndarray):
    """Nearest center per point, ties -> lowest id, and the squared
    distance to it. A tie at a subnormal or zero distance may only be the
    squares underflowing, so those rows are compared again on their
    differences scaled by a power of two, which is exact."""
    d2 = _sq_dists(pts, centers)
    rows = np.arange(len(pts))
    assign = np.argmin(d2, axis=1)
    best = d2[rows, assign]
    tied = ((d2 == best[:, None]).sum(axis=1) > 1) & (best < np.finfo(np.float64).tiny)
    for i in np.flatnonzero(tied):
        cand = np.flatnonzero(d2[i] == best[i])
        while cand.size > 1:
            diff = pts[i] - centers[cand]
            top = np.abs(diff).max()
            if top == 0:
                break
            diff = np.ldexp(diff, -np.frexp(top)[1])
            s2 = np.einsum("kd,kd->k", diff, diff)
            keep = cand[s2 == s2.min()]
            if keep.size == cand.size:
                break
            cand = keep
        assign[i] = cand[0]
    return assign, d2[rows, assign]


def _assign_with_repair(pts: np.ndarray, centers: np.ndarray):
    """Nearest-center assignment (ties -> lowest id) with empty-cluster
    repair: an empty center is moved to the point farthest from its current
    center, then everything is reassigned."""
    k = centers.shape[0]
    while True:
        assign, dist = _nearest(pts, centers)
        present = np.bincount(assign, minlength=k)
        empties = np.flatnonzero(present == 0)
        if empties.size == 0:
            return assign, centers
        worst = int(np.argmax(dist))
        if dist[worst] == 0:
            # All squared gaps underflowed; take the first point that is
            # not on its center (there is one, as k <= distinct points).
            worst = int(np.flatnonzero((pts != centers[assign]).any(axis=1))[0])
        centers = centers.copy()
        centers[int(empties[0])] = pts[worst]


def _lloyd(pts: np.ndarray, k: int, max_iter: int, rng: np.random.Generator):
    centers = _kpp_init(pts, k, rng)
    assign, centers = _assign_with_repair(pts, centers)
    history = [_inertia(pts, centers, assign)]
    iterations = 0
    while iterations < max_iter:
        new_centers = np.empty_like(centers)
        for j in range(k):
            new_centers[j] = pts[assign == j].mean(axis=0)
        new_assign, new_centers = _assign_with_repair(pts, new_centers)
        iterations += 1
        history.append(_inertia(pts, new_centers, new_assign))
        stable = np.array_equal(new_assign, assign)
        assign, centers = new_assign, new_centers
        if stable:
            break
    return assign, centers, history, iterations


def _inertia(pts: np.ndarray, centers: np.ndarray, assign: np.ndarray) -> float:
    diff = pts - centers[assign]
    return float(np.einsum("nd,nd->", diff, diff))


def kmeans(
    points,
    k: int,
    restarts: int = DEFAULT_RESTARTS,
    max_iter: int = DEFAULT_MAX_ITER,
    seed: int = 0,
) -> KMeansResult:
    """Best-of-restarts Lloyd's k-means, deterministic given ``seed``."""
    pts = _as_points(points)
    if k < 1:
        raise InvalidArgument(f"k must be >= 1, got {k}")
    n_distinct = len(np.unique(pts, axis=0))
    if k > n_distinct:
        raise InvalidArgument(f"k={k} exceeds {n_distinct} distinct points")
    if restarts < 1:
        raise InvalidArgument("restarts must be >= 1")
    best = None
    for r in range(restarts):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(r,)))
        assign, centers, history, iterations = _lloyd(pts, k, max_iter, rng)
        inertia = history[-1]
        if best is None or inertia < best.inertia:
            best = KMeansResult(
                assignments=assign,
                centers=centers,
                inertia=inertia,
                iterations=iterations,
                seed=seed,
                inertia_history=tuple(history),
            )
    return best


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


def cluster_factor(values, k: int, seed: int, restarts: int = DEFAULT_RESTARTS) -> np.ndarray:
    """Engineer ranked classes for one factor: log1p transform, 1-D k-means,
    then rank clusters by mean transformed value. Returns per-record ranks."""
    logs = log1p_factor(values)
    result = kmeans(logs.reshape(-1, 1), k, restarts=restarts, seed=seed)
    ranks = rank_clusters(result, logs)
    return np.array([ranks[int(c)] for c in result.assignments], dtype=np.int64)
