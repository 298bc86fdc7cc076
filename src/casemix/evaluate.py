"""Grouping quality metrics: intra-group variance, ordinal confusion,
boxplot summaries, and the decision-tree vs HRG comparison verdict.

Variances are computed on the log1p scale (the scale the groups were
engineered on); the headline statistic is the unweighted mean of per-group
sample variances over groups with at least two members, with a size-weighted
mean reported alongside for transparency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .domain import FACTOR_FIELDS, CostMatrix, Dataset
from .errors import InvalidArgument
from .preprocess import log1p_factor


@dataclass
class GroupVariance:
    n: int
    variance: float


@dataclass
class VarianceReport:
    per_group: dict[int, GroupVariance]
    mean_variance: float
    weighted_mean_variance: float
    small_groups: tuple[int, ...]  # groups of size <= 1, excluded from the means

    def to_dict(self) -> dict:
        return {
            "per_group": {
                str(g): {"n": gv.n, "variance": gv.variance} for g, gv in self.per_group.items()
            },
            "mean_variance": self.mean_variance,
            "weighted_mean_variance": self.weighted_mean_variance,
            "small_groups": list(self.small_groups),
        }


def intra_group_variance(values, groups) -> VarianceReport:
    """Per-group sample variance (n-1 denominator) of log1p(values)."""
    vals = np.asarray(values, dtype=np.float64)
    labels = np.asarray(groups)
    if vals.shape != labels.shape:
        raise InvalidArgument("values and groups must align")
    logs = log1p_factor(vals)
    per_group: dict[int, GroupVariance] = {}
    small = []
    for g in np.unique(labels):
        member = logs[labels == g]
        key = int(g)
        if member.size <= 1:
            per_group[key] = GroupVariance(n=int(member.size), variance=0.0)
            small.append(key)
        elif np.all(member == member[0]):
            per_group[key] = GroupVariance(n=int(member.size), variance=0.0)
        else:
            per_group[key] = GroupVariance(
                n=int(member.size), variance=float(member.var(ddof=1))
            )
    eligible = [gv for gv in per_group.values() if gv.n >= 2]
    if eligible:
        mean = float(np.mean([gv.variance for gv in eligible]))
        total_n = sum(gv.n for gv in eligible)
        weighted = float(sum(gv.variance * gv.n for gv in eligible) / total_n)
    else:
        mean = 0.0
        weighted = 0.0
    return VarianceReport(per_group, mean, weighted, tuple(small))


@dataclass
class ConfusionSummary:
    matrix: np.ndarray  # (k, k), rows = true rank, columns = predicted rank
    k: int
    accuracy: float
    total_loss: float
    max_distance: int
    distance_histogram: dict[int, int]

    def to_dict(self) -> dict:
        return {
            "matrix": self.matrix.astype(int).tolist(),
            "k": self.k,
            "accuracy": self.accuracy,
            "total_loss": self.total_loss,
            "max_distance": self.max_distance,
            "distance_histogram": {str(d): c for d, c in sorted(self.distance_histogram.items())},
        }


def confusion(true_labels, pred_labels, loss: CostMatrix) -> ConfusionSummary:
    """Ordinal confusion matrix with total penalty under ``loss`` and the
    distribution of |true - predicted| distances."""
    t = np.asarray(true_labels, dtype=np.int64)
    p = np.asarray(pred_labels, dtype=np.int64)
    if t.shape != p.shape:
        raise InvalidArgument("label vectors must align")
    k = loss.k
    if t.size and (t.min() < 1 or t.max() > k or p.min() < 1 or p.max() > k):
        raise InvalidArgument(f"labels must lie in [1, {k}]")
    matrix = np.zeros((k, k), dtype=np.int64)
    np.add.at(matrix, (t - 1, p - 1), 1)
    n = t.size
    accuracy = float(np.trace(matrix) / n) if n else 0.0
    total_loss = float(loss.entries[t - 1, p - 1].sum())
    distances = np.abs(t - p)
    errors = distances[distances > 0]
    hist = {int(d): int((distances == d).sum()) for d in np.unique(distances)}
    return ConfusionSummary(
        matrix=matrix,
        k=k,
        accuracy=accuracy,
        total_loss=total_loss,
        max_distance=int(errors.max()) if errors.size else 0,
        distance_histogram=hist,
    )


@dataclass
class BoxStats:
    min: float
    q1: float
    median: float
    q3: float
    max: float
    n: int


def boxplot_stats(values, groups) -> dict[int, BoxStats]:
    """Five-number summary per group; quartiles use linear interpolation
    between order statistics. Empty groups are simply absent."""
    vals = np.asarray(values, dtype=np.float64)
    labels = np.asarray(groups)
    if vals.shape != labels.shape:
        raise InvalidArgument("values and groups must align")
    out: dict[int, BoxStats] = {}
    for g in np.unique(labels):
        member = vals[labels == g]
        q1, med, q3 = np.percentile(member, [25, 50, 75], method="linear")
        out[int(g)] = BoxStats(
            min=float(member.min()), q1=float(q1), median=float(med), q3=float(q3),
            max=float(member.max()), n=int(member.size),
        )
    return out


@dataclass
class FactorComparison:
    dt: VarianceReport
    hrg: VarianceReport
    ratio: float  # HRG mean variance / DT mean variance; inf when DT is 0
    dt_lower: bool

    def to_dict(self) -> dict:
        return {
            "dt": self.dt.to_dict(),
            "hrg": self.hrg.to_dict(),
            "ratio": None if math.isinf(self.ratio) else self.ratio,
            "ratio_infinite": math.isinf(self.ratio),
            "dt_lower": self.dt_lower,
        }


@dataclass
class GroupingComparison:
    factors: dict[str, FactorComparison]
    dt_wins_all: bool
    # grouping name -> factor -> mean raw factor value per ascending rank
    rank_means: dict[str, dict[str, list[float]]]
    rank_monotone: dict[str, dict[str, bool]]
    merge_candidates: list[dict] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "factors": {f: c.to_dict() for f, c in self.factors.items()},
            "dt_wins_all": self.dt_wins_all,
            "rank_means": self.rank_means,
            "rank_monotone": self.rank_monotone,
            "merge_candidates": self.merge_candidates,
        }


def _rank_means(values: np.ndarray, labels: np.ndarray) -> tuple[list[float], bool]:
    ranks = sorted(int(g) for g in np.unique(labels))
    means = [float(values[labels == g].mean()) for g in ranks]
    monotone = all(b >= a for a, b in zip(means, means[1:]))
    return means, monotone


def merge_diagnostic(summary: ConfusionSummary, threshold: float = 0.2) -> list[dict]:
    """Adjacent class pairs confused above ``threshold`` (fraction of a
    class's cases predicted as its neighbour); candidates for merging."""
    out = []
    m = summary.matrix.astype(np.float64)
    row_totals = m.sum(axis=1)
    for r in range(summary.k - 1):
        rate_up = m[r, r + 1] / row_totals[r] if row_totals[r] else 0.0
        rate_down = m[r + 1, r] / row_totals[r + 1] if row_totals[r + 1] else 0.0
        if max(rate_up, rate_down) > threshold:
            out.append(
                {
                    "ranks": [r + 1, r + 2],
                    "rate_low_as_high": rate_up,
                    "rate_high_as_low": rate_down,
                }
            )
    return out


def compare_groupings(ds: Dataset, dt_labels, hrg_labels) -> GroupingComparison:
    """Head-to-head homogeneity comparison of two labelings of the same
    records across LOS, cost and TBSA. ``merge_candidates`` is left empty
    for the caller, which holds the confusion matrix, to fill."""
    dt = np.asarray(dt_labels)
    hrg = np.asarray(hrg_labels)
    if not (len(ds) == dt.shape[0] == hrg.shape[0]):
        raise InvalidArgument("labelings must align with the dataset")
    factors: dict[str, FactorComparison] = {}
    rank_means: dict[str, dict[str, list[float]]] = {"dt": {}, "hrg": {}}
    rank_monotone: dict[str, dict[str, bool]] = {"dt": {}, "hrg": {}}
    for factor in FACTOR_FIELDS:
        values = ds.factor_values(factor)
        dt_report = intra_group_variance(values, dt)
        hrg_report = intra_group_variance(values, hrg)
        if dt_report.mean_variance > 0:
            ratio = hrg_report.mean_variance / dt_report.mean_variance
        else:
            ratio = math.inf if hrg_report.mean_variance > 0 else 1.0
        factors[factor] = FactorComparison(
            dt=dt_report,
            hrg=hrg_report,
            ratio=ratio,
            dt_lower=dt_report.mean_variance < hrg_report.mean_variance,
        )
        for name, labels in (("dt", dt), ("hrg", hrg)):
            means, mono = _rank_means(values, labels)
            rank_means[name][factor] = means
            rank_monotone[name][factor] = mono
    return GroupingComparison(
        factors=factors,
        dt_wins_all=all(c.dt_lower for c in factors.values()),
        rank_means=rank_means,
        rank_monotone=rank_monotone,
    )
