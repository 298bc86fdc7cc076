"""Cost-sensitive CART over mixed numeric/categorical features.

Cost sensitivity enters twice: split quality is the generalized Gini
impurity I = sum(L[i][j] * p_i * p_j) under an arbitrary zero-diagonal loss
matrix, and each leaf is labeled with the rank minimizing expected
misclassification cost. Pruning is weakest-link cost-complexity with the
same expected-cost risk functional.

Criterion: for a node of n rows with class counts c, n*I = Q/n with
Q = c^T L c, so a split's decrease n*I(P) - n_L*I(L) - n_R*I(R) is scored as
Q_P/n - Q_L/n_L - Q_R/n_R, the form of scikit-learn's Gini
``proxy_impurity_improvement``. With integer counts and an integer loss
matrix, as both production matrices are, every Q is an exact integer in
float64 while n^2 * max(L) < 2^53 (n up to about 2.7e7 at k=13), whatever
the BLAS or einsum summation order; only the three divisions, their sum
and the final difference round.

Growth stop: a node whose own leaf risk min(c @ L) is below the pruning
threshold (cp times the root's leaf risk) is not searched. Were it split,
its weakest-link g <= own / (leaves - 1) would stay below the threshold, so
pruning would always collapse it (Breiman et al. 1984, ch. 3); the pruned
tree is the same, with fewer nodes grown.

Layout: a fitted ``DecisionTree`` is a set of parallel per-node arrays in
preorder, the layout of rpart's ``frame`` table and scikit-learn's ``Tree``.
The left child of internal node i is node i + 1 and its right child is
``right[i]``, so every subtree is a contiguous index range and every walk
is a loop over indices or an explicit stack; nothing here recurses.

Encoding: ``build_tree`` encodes every column once (``EncodedTable``). A
numeric column becomes int32 value-rank codes plus its sorted distinct
values, so a threshold is still the exact midpoint (a+b)/2 of two adjacent
observed values; a categorical column becomes int32 level codes in
sorted-string order. The row order of each numeric column is sorted once
and partitioned stably in place whenever a node splits (SLIQ's presorted
attribute lists), so each node scans its rows already in value order;
categorical columns are scanned from one class histogram per node. The
columns are grouped by scan class into at most three spans (numeric,
categorical with few levels, categorical with many), and each node scans
each span in one pass unless the node is too large for its working arrays.

Determinism contract: within a column, numeric thresholds are scanned
ascending and categorical subsets in canonical order. Of equal decreases,
the split on the lower schema index wins, and within one column the first
candidate: the split a single scan over all candidates in schema order
would keep. Candidates with the same child class counts score exactly the
same decrease, since their Q terms are exact. Identical inputs always
produce identical trees.

Routing: a row goes left when its value < threshold (categorical: when its
level is in the split's left set). ``predict`` routes new rows the same way;
a missing value goes to the child that saw more training rows, and a level
the tree never saw goes right.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
import time
from dataclasses import asdict, dataclass, field
from typing import NamedTuple

import numpy as np

from .domain import CATEGORICAL, NUMERIC, CostMatrix, check_int
from .errors import InvalidArgument, TreeFormatError

TREE_FORMAT_VERSION = "1"

#: Categorical features with more levels than this use the ordered scan
#: (levels sorted by mean label rank, prefix subsets) instead of an
#: exhaustive subset scan.
MAX_EXHAUSTIVE_LEVELS = 10

#: A scan at one node takes as many of its span's columns as fit in
#: _BLOCK_CELLS row entries, at least one; so a node of fewer rows than
#: _BLOCK_CELLS / (columns of a kind) scans each kind in one pass. Candidate
#: splits reach _impurity_terms in chunks of _CHUNK. Together these bound the
#: per-node working arrays whatever the number of rows and columns.
_BLOCK_CELLS = 32768
_CHUNK = 1024

#: Deepest tree allowed, in split levels: rpart's ``maxdepth`` contract.
#: ``TreeParams`` and ``deserialize_tree`` reject anything deeper.
MAX_DEPTH = 30


@dataclass(frozen=True)
class TreeParams:
    min_split: int = 20
    min_leaf: int = 7
    max_depth: int = 30
    cp: float = 0.01

    def __post_init__(self):
        for name in ("min_split", "min_leaf", "max_depth"):
            check_int(name, getattr(self, name))
        if self.min_leaf < 1:
            raise InvalidArgument(f"min_leaf must be >= 1, got {self.min_leaf}")
        if self.min_split < 2 * self.min_leaf:
            raise InvalidArgument(
                f"min_split ({self.min_split}) must be >= 2 * min_leaf ({self.min_leaf})"
            )
        if not 1 <= self.max_depth <= MAX_DEPTH:
            raise InvalidArgument(
                f"max_depth must be in [1, {MAX_DEPTH}], got {self.max_depth}"
            )
        # json.loads reads NaN, and a NaN cp makes every comparison with the
        # pruning threshold false; a bool or a numeric string is refused,
        # not coerced.
        cp = self.cp
        if not isinstance(cp, numbers.Real) or isinstance(cp, bool) or math.isnan(cp):
            raise InvalidArgument(f"cp must be a number, got {cp!r}")
        if cp < 0:
            raise InvalidArgument(f"cp must be >= 0, got {cp}")
        object.__setattr__(self, "cp", float(cp))

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "TreeParams":
        return cls(
            min_split=d["min_split"],
            min_leaf=d["min_leaf"],
            max_depth=d["max_depth"],
            cp=d["cp"],
        )


@dataclass(frozen=True)
class FeatureTable:
    """Column store the tree trains on: float64 arrays for numeric features
    (nan = missing), object arrays of str/None for categorical."""

    names: tuple[str, ...]
    kinds: tuple[str, ...]
    columns: tuple[np.ndarray, ...]

    def __post_init__(self):
        if not (len(self.names) == len(self.kinds) == len(self.columns)):
            raise InvalidArgument("names, kinds and columns must align")
        lengths = {len(c) for c in self.columns}
        if len(lengths) > 1:
            raise InvalidArgument("all columns must have the same length")

    @property
    def n_rows(self) -> int:
        return len(self.columns[0]) if self.columns else 0

    def column(self, name: str) -> np.ndarray:
        return self.columns[self.names.index(name)]

    def kind(self, name: str) -> str:
        return self.kinds[self.names.index(name)]

    def take(self, indices) -> "FeatureTable":
        idx = np.asarray(indices)
        return FeatureTable(self.names, self.kinds, tuple(c[idx] for c in self.columns))

    def select(self, names) -> "FeatureTable":
        keep = [self.names.index(n) for n in names]
        return FeatureTable(
            tuple(self.names[i] for i in keep),
            tuple(self.kinds[i] for i in keep),
            tuple(self.columns[i] for i in keep),
        )

    @classmethod
    def from_items(cls, items) -> "FeatureTable":
        """Build from an iterable of (name, kind, values)."""
        names, kinds, cols = [], [], []
        for name, kind, values in items:
            names.append(name)
            kinds.append(kind)
            if kind == NUMERIC:
                cols.append(np.asarray(values, dtype=np.float64))
            else:
                cols.append(np.asarray(list(values), dtype=object))
        return cls(tuple(names), tuple(kinds), tuple(cols))


class _Node(NamedTuple):
    """One node's fields while a tree is grown or read. A leaf keeps the
    split fields' defaults, an internal node those of label and cost."""

    n: int
    counts: np.ndarray
    feature: int = -1
    threshold: float = math.nan
    left_set: int = 0
    right: int = -1
    impurity: float = math.nan
    decrease: float = math.nan
    label: int = 0
    expected_cost: float = math.nan


def _node_arrays(nodes: list[_Node]) -> dict[str, np.ndarray]:
    """Nodes in preorder as the DecisionTree node arrays, one per field.
    ``left_set`` holds Python ints, wide enough for any number of levels."""
    columns = zip(_Node._fields, zip(*nodes))
    return {name: np.array(c, dtype=object if name == "left_set" else None) for name, c in columns}


@dataclass
class DecisionTree:
    """A fitted tree as parallel arrays over its nodes in preorder. Node 0
    is the root; internal node i splits on schema feature ``feature[i]``
    (-1 marks a leaf) and has its left child at i + 1, its right child at
    ``right[i]``. A numeric split sends a value left when it is below
    ``threshold[i]``, a categorical one when the value's bit is set in
    ``left_set[i]``, a bitmask over that feature's ``feature_levels``.
    Fields a node does not use hold their ``_Node`` default."""

    feature: np.ndarray
    threshold: np.ndarray
    left_set: np.ndarray
    right: np.ndarray
    n: np.ndarray
    counts: np.ndarray
    impurity: np.ndarray
    decrease: np.ndarray
    label: np.ndarray
    expected_cost: np.ndarray
    params: TreeParams
    k: int
    feature_names: tuple[str, ...]
    feature_kinds: tuple[str, ...]
    feature_levels: dict[str, tuple[str, ...]] = field(default_factory=dict)
    n_rows: int = 0
    depth: int = 0
    leaf_count: int = 0
    # Build counters and wall time; not part of the serialized model.
    nodes_grown: int = 0
    candidates_scanned: int = 0
    prune_steps: int = 0
    build_s: float = 0.0


# ---------------------------------------------------------------------------
# Impurity and leaf labeling
# ---------------------------------------------------------------------------

def gini_loss_impurity(class_counts, loss: CostMatrix) -> float:
    """Generalized Gini: sum over class pairs of loss[i][j] * p_i * p_j.
    Reduces to 1 - sum(p^2) under 0-1 loss."""
    counts = np.asarray(class_counts, dtype=np.float64)
    n = counts.sum()
    if n <= 0:
        raise InvalidArgument("class counts must not be all zero")
    p = counts / n
    return float(p @ loss.entries @ p)


def leaf_label(class_counts, loss: CostMatrix) -> tuple[int, float]:
    """Rank minimizing expected misclassification cost (ties -> lowest rank)
    and that minimum expected cost per case."""
    counts = np.asarray(class_counts, dtype=np.float64)
    n = counts.sum()
    if n <= 0:
        raise InvalidArgument("class counts must not be all zero")
    costs = counts @ loss.entries  # costs[j] = sum_i counts[i] * L[i][j]
    j = int(np.argmin(costs))
    return j + 1, float(costs[j] / n)


# ---------------------------------------------------------------------------
# Split search
# ---------------------------------------------------------------------------

@dataclass
class Split:
    feature: str
    threshold: float  # nan for a categorical split
    categories: tuple[str, ...] | None
    decrease: float
    left_mask: np.ndarray
    left_set: int = 0  # categorical: bitmask of ``categories`` over the levels


def _impurity_terms(counts_left: np.ndarray, totals: np.ndarray, L: np.ndarray):
    """Weighted child impurities n_L*I(L) + n_R*I(R) = Q_L/n_L + Q_R/n_R
    for a batch of candidate left-count matrices, where Q = c^T L c of a
    child's class counts c takes one matmul. Every child holds a row, so no
    n is 0. With integer counts and integer L each Q is an exact integer
    while n^2 * max(L) < 2^53, in any summation order."""
    counts_right = totals - counts_left
    q_left = np.einsum("mi,mi->m", counts_left @ L, counts_left)
    q_right = np.einsum("mi,mi->m", counts_right @ L, counts_right)
    return q_left / counts_left.sum(axis=1) + q_right / counts_right.sum(axis=1)


class EncodedTable:
    """A FeatureTable and its labels encoded once for growing one tree.

    Numeric column j: ``num_codes[j]`` are int32 ranks into ``values[j]``,
    its sorted distinct values. Categorical column j: ``cat_codes[j]`` are
    int32 indices into ``levels[j]``, its levels in sorted-string order.
    ``rows`` lists every row id with each node's rows contiguous and
    ascending; ``order[j]`` holds the same segments sorted by numeric column
    j. Growing partitions both stably in place when a node splits.
    ``spans`` holds one ``_Span`` for each scan class that has columns.
    """

    def __init__(self, table: FeatureTable, labels, k: int):
        y = np.asarray(labels, dtype=np.int64)
        if table.n_rows == 0 or len(table.names) == 0:
            raise InvalidArgument("training data must be non-empty")
        if len(y) != table.n_rows:
            raise InvalidArgument("labels must align with the feature table")
        if y.min() < 1 or y.max() > k:
            raise InvalidArgument(f"labels must lie in [1, {k}]")
        self.k = k
        self.y0 = y - 1
        self.names = table.names
        self.num_names, self.values, num_codes = [], [], []
        self.cat_names, self.levels, cat_codes = [], [], []
        members = {_NumericScan: [], _SubsetScan: [], _LevelScan: []}
        for schema, (name, kind, col) in enumerate(zip(table.names, table.kinds, table.columns)):
            if kind == NUMERIC:
                if np.isnan(col).any():
                    raise InvalidArgument(f"training column {name!r} contains missing values")
                values, codes = np.unique(col, return_inverse=True)
                members[_NumericScan].append((len(self.num_names), schema))
                self.num_names.append(name)
                self.values.append(values)
                num_codes.append(codes.astype(np.int32))
            else:
                if np.equal(col, None).any():
                    raise InvalidArgument(f"training column {name!r} contains missing values")
                strings = list(map(str, col.tolist()))
                levels = sorted(set(strings))
                index = {level: c for c, level in enumerate(levels)}
                few = len(levels) <= MAX_EXHAUSTIVE_LEVELS
                members[_SubsetScan if few else _LevelScan].append((len(self.cat_names), schema))
                self.cat_names.append(name)
                self.levels.append(tuple(levels))
                cat_codes.append(np.fromiter(map(index.__getitem__, strings), np.int32, len(strings)))
        self.spans = [_Span(scan, *np.array(m, dtype=np.intp).T) for scan, m in members.items() if m]
        n = table.n_rows
        self.num_codes = np.array(num_codes, dtype=np.int32).reshape(-1, n)
        self.cat_codes = np.array(cat_codes, dtype=np.int32).reshape(-1, n)
        self.n_levels = np.array([len(levels) for levels in self.levels], dtype=np.intp)
        self.order = np.empty_like(self.num_codes)
        for j, codes in enumerate(self.num_codes):
            self.order[j] = np.argsort(codes, kind="stable")
        self.rows = np.arange(n, dtype=np.int32)
        self.goes_left = np.zeros(n, dtype=bool)
        self.candidates_scanned = 0

    def categorical_split(self, j: int, chosen, rows: np.ndarray, decrease: float) -> Split:
        """The split sending categorical column j's levels ``chosen`` left."""
        member = np.zeros(len(self.levels[j]), dtype=bool)
        member[list(chosen)] = True
        left_set = sum(1 << int(c) for c in chosen)
        return Split(self.cat_names[j], math.nan, _level_names(self.levels[j], left_set), decrease,
                     member[self.cat_codes[j, rows]], left_set)


class _Span(NamedTuple):
    """The columns that one scan class handles, in schema order: ``columns``
    index that kind's encoded arrays and ``schema`` holds their schema
    indices."""

    scan: type
    columns: np.ndarray
    schema: np.ndarray


def _block_width(n: int) -> int:
    return max(1, _BLOCK_CELLS // n)


class _NumericScan:
    """Cut candidates of the numeric columns ``cols`` at one node. The
    node's rows arrive in value order, so a cut after sorted position p is a
    candidate when the code changes there and both sides keep min_leaf
    rows; the left class counts of every cut come from one bincount over
    the runs of equal codes, accumulated across runs."""

    def __init__(self, enc: EncodedTable, cols: np.ndarray, start: int, end: int,
                 counts: np.ndarray, min_leaf: int):
        n = end - start
        seg = enc.order[cols, start:end]
        codes = enc.num_codes.take(seg + cols[:, None] * len(enc.rows))
        new_run = np.ones(codes.shape, dtype=bool)
        np.not_equal(codes[:, 1:], codes[:, :-1], out=new_run[:, 1:])
        self.feature, cut = np.nonzero(new_run[:, min_leaf:n - min_leaf + 1])
        self.pos = cut + (min_leaf - 1)  # last sorted position that goes left
        self.size = len(self.pos)
        self.enc, self.cols, self.codes, self.counts = enc, cols, codes, counts
        if self.size:
            k = enc.k
            run = np.cumsum(new_run) - 1  # run id over the flattened block
            self.cum = np.bincount(
                run * k + enc.y0.take(seg.ravel()), minlength=(int(run[-1]) + 1) * k
            ).reshape(-1, k)
            np.cumsum(self.cum, axis=0, out=self.cum)
            self.run = run[self.feature * n + self.pos]

    def counts_left(self, lo: int, hi: int) -> np.ndarray:
        # Runs accumulate across the block's columns, and each column's runs
        # hold the node's rows once, so drop the earlier columns' totals.
        earlier = self.feature[lo:hi, None] * self.counts
        return self.cum[self.run[lo:hi]] - earlier

    def split(self, i: int, rows: np.ndarray, decrease: float) -> Split:
        f, p = self.feature[i], self.pos[i]
        j = self.cols[f]
        values = self.enc.values[j]
        threshold = float((values[self.codes[f, p]] + values[self.codes[f, p + 1]]) / 2.0)
        left_mask = self.enc.num_codes[j, rows] < np.searchsorted(values, threshold)
        return Split(self.enc.num_names[j], threshold, None, decrease, left_mask)


@functools.lru_cache(maxsize=None)
def _subset_bits(n_levels: int) -> np.ndarray:
    """Membership rows of the level subsets with bitmasks 1 .. 2**n_levels - 2,
    in ascending bitmask order."""
    masks = range(1, 2 ** n_levels - 1)
    bits = np.array([[(m >> b) & 1 for b in range(n_levels)] for m in masks], dtype=np.float64)
    bits = bits.reshape(len(masks), n_levels)  # also when there is no subset
    bits.setflags(write=False)
    return bits


def _bits_of(mask: int):
    return [b for b in range(mask.bit_length()) if (mask >> b) & 1]


class _SubsetScan:
    """Subset candidates of the categorical columns ``cols`` at one node,
    each with at most MAX_EXHAUSTIVE_LEVELS levels. A column's candidates
    are the subsets of the levels present at the node that hold the first
    present level (complements split the same way) but not all of them, in
    ascending bitmask order. Spreading a subset of the present levels out
    to the bits of all the column's levels keeps that order, so every
    column is scanned over the widest column's level width at once and
    absent levels are then masked out."""

    def __init__(self, enc: EncodedTable, cols: np.ndarray, rows: np.ndarray,
                 y: np.ndarray, min_leaf: int):
        k, n, m = enc.k, len(rows), len(cols)
        width = int(enc.n_levels[cols].max())
        column_base = np.arange(m)[:, None] * width
        hist = np.bincount(
            ((enc.cat_codes.take(rows + cols[:, None] * len(enc.rows)) + column_base) * k + y).ravel(),
            minlength=m * width * k,
        ).reshape(m, width, k)
        level_n = hist.sum(axis=2)  # (column, level)
        present = (level_n > 0) @ (1 << np.arange(width))  # bitmask per column
        bits = _subset_bits(width)
        left = bits @ hist.astype(np.float64)  # (column, mask, class)
        n_left = level_n @ bits.T
        masks = np.arange(1, 2 ** width - 1)
        ok = (
            ((masks & ~present[:, None]) == 0)  # only present levels
            & ((masks & (present & -present)[:, None]) != 0)  # the first present level
            & (masks != present[:, None])  # not all of them
            & (n_left >= min_leaf) & (n - n_left >= min_leaf)
        )
        self.feature, c = np.nonzero(ok)
        self.masks = masks[c]
        self.left = left[self.feature, c]
        self.size = len(self.masks)
        self.enc, self.cols = enc, cols

    def counts_left(self, lo: int, hi: int) -> np.ndarray:
        return self.left[lo:hi]

    def split(self, i: int, rows: np.ndarray, decrease: float) -> Split:
        chosen = _bits_of(int(self.masks[i]))
        return self.enc.categorical_split(self.cols[self.feature[i]], chosen, rows, decrease)


class _LevelScan:
    """Candidates of the categorical columns ``cols`` with more than
    MAX_EXHAUSTIVE_LEVELS levels, one column at a time over the levels
    present at the node. Up to MAX_EXHAUSTIVE_LEVELS present levels every
    subset is a candidate, as in _SubsetScan; beyond that, the prefixes of
    the levels ordered by mean label rank (ties by level name)."""

    def __init__(self, enc: EncodedTable, cols: np.ndarray, rows: np.ndarray,
                 y: np.ndarray, min_leaf: int):
        k, n = enc.k, len(rows)
        self.enc, self.parts, features, lefts = enc, {}, [], []
        self.size = 0
        for f, j in enumerate(cols.tolist()):
            hist = np.bincount(
                enc.cat_codes[j, rows] * k + y, minlength=len(enc.levels[j]) * k
            ).reshape(-1, k)
            present = np.flatnonzero(hist.any(axis=1))
            if len(present) < 2:
                continue
            level_counts = hist[present].astype(np.float64)
            if len(present) <= MAX_EXHAUSTIVE_LEVELS:
                order = None
                left = _subset_bits(len(present))[::2] @ level_counts  # odd bitmasks
            else:
                mean_rank = level_counts @ (np.arange(k) + 1.0) / level_counts.sum(axis=1)
                names = [enc.levels[j][c] for c in present]
                order = sorted(range(len(present)), key=lambda c: (mean_rank[c], names[c]))
                left = np.cumsum(level_counts[order], axis=0)[:-1]
            n_left = left.sum(axis=1)
            keep = np.flatnonzero((n_left >= min_leaf) & (n - n_left >= min_leaf))
            if keep.size == 0:
                continue
            self.parts[f] = (j, present, order, keep, self.size)
            features.append(np.full(keep.size, f))
            lefts.append(left[keep])
            self.size += keep.size
        if lefts:
            self.feature, self.left = np.concatenate(features), np.concatenate(lefts)

    def counts_left(self, lo: int, hi: int) -> np.ndarray:
        return self.left[lo:hi]

    def split(self, i: int, rows: np.ndarray, decrease: float) -> Split:
        j, present, order, keep, first = self.parts[self.feature[i]]
        c = int(keep[i - first])
        if order is None:
            chosen = [present[b] for b in _bits_of(2 * c + 1)]
        else:
            chosen = [present[t] for t in order[:c + 1]]
        return self.enc.categorical_split(j, chosen, rows, decrease)


def best_split(enc: EncodedTable, start: int, end: int, counts: np.ndarray, parent_q: float,
               loss: CostMatrix, params: TreeParams) -> Split | None:
    """Exhaustive scan over features and candidate splits of the node whose
    rows are ``enc.rows[start:end]``, with float64 class ``counts`` and
    ``parent_q`` = counts^T L counts; returns the split maximizing
    n*I(parent) - n_L*I(left) - n_R*I(right) = Q_P/n - Q_L/n_L - Q_R/n_R,
    or None when the node is below min_split or no candidate has a strictly
    positive decrease. Of equal maxima it returns the one on the lowest
    schema index, and within one column the first candidate. The split's
    left_mask is aligned with ``enc.rows[start:end]``."""
    n = end - start
    if n < params.min_split:
        return None
    rows = enc.rows[start:end]
    y = enc.y0[rows]
    parent_term = parent_q / n
    width = _block_width(n)
    best_decrease, best_feature, best = 0.0, -1, None
    for span in enc.spans:
        for a in range(0, len(span.columns), width):
            cols = span.columns[a:a + width]
            if span.scan is _NumericScan:
                scan = _NumericScan(enc, cols, start, end, counts, params.min_leaf)
            else:
                scan = span.scan(enc, cols, rows, y, params.min_leaf)
            enc.candidates_scanned += scan.size
            # A span's candidates arrive in schema order, thresholds
            # ascending and subsets in canonical order, so argmax finds the
            # lowest schema index of a chunk's maxima; across chunks and
            # spans, an equal decrease wins only on a lower schema index.
            for lo in range(0, scan.size, _CHUNK):
                counts_left = scan.counts_left(lo, lo + _CHUNK)
                decreases = parent_term - _impurity_terms(counts_left, counts, loss.entries)
                i = int(np.argmax(decreases))
                decrease = float(decreases[i])
                if not (decrease > 0.0 and decrease >= best_decrease):
                    continue
                feature = int(span.schema[a + scan.feature[lo + i]])
                if decrease > best_decrease or feature < best_feature:
                    best_decrease, best_feature, best = decrease, feature, (scan, lo + i)
    if best is None:
        return None
    scan, i = best
    return scan.split(i, rows, best_decrease)


# ---------------------------------------------------------------------------
# Growing and pruning
# ---------------------------------------------------------------------------

def _partition(enc: EncodedTable, start: int, end: int, left_mask: np.ndarray) -> int:
    """Split a node's segment of ``rows`` and of every presorted order
    stably in place, left rows first; returns where the right child starts."""
    rows = enc.rows[start:end]
    n_left = int(np.count_nonzero(left_mask))
    n_right = len(rows) - n_left
    enc.goes_left[rows] = left_mask
    rows[:] = np.concatenate((rows[left_mask], rows[~left_mask]))
    width = _block_width(len(rows))
    for a in range(0, len(enc.order), width):
        seg = enc.order[a:a + width, start:end]
        fl = enc.goes_left.take(seg)
        seg[:] = np.concatenate(
            (seg[fl].reshape(len(seg), n_left), seg[~fl].reshape(len(seg), n_right)), axis=1
        )
    return start + n_left


def _grow(enc: EncodedTable, loss: CostMatrix, params: TreeParams) -> list[_Node]:
    """Recursive partitioning with an explicit stack, depth-first and left
    child first, so nodes arrive in preorder. A node whose own leaf risk is
    below the pruning threshold stays a leaf: pruning would collapse it."""
    nodes: list[_Node] = []
    root_risk = float((np.bincount(enc.y0, minlength=enc.k) @ loss.entries).min())
    stop = _prune_threshold(params.cp, root_risk)
    stack = [(0, len(enc.rows), 0, -1)]  # (start, end, depth, parent of a right child)
    while stack:
        start, end, depth, parent = stack.pop()
        if parent >= 0:
            nodes[parent] = nodes[parent]._replace(right=len(nodes))
        counts = np.bincount(enc.y0[enc.rows[start:end]], minlength=enc.k).astype(np.float64)
        impurity = gini_loss_impurity(counts, loss)
        costs = counts @ loss.entries  # costs[j]: the node's risk as a leaf of rank j + 1
        node = {"n": end - start, "counts": counts}
        split = None
        if (depth < params.max_depth and end - start >= params.min_split and impurity != 0.0
                and costs.min() >= stop):
            split = best_split(enc, start, end, counts, float(costs @ counts), loss, params)
        if split is None:
            node["label"], node["expected_cost"] = leaf_label(counts, loss)
        else:
            node.update(feature=enc.names.index(split.feature), threshold=split.threshold,
                        left_set=split.left_set, impurity=impurity, decrease=split.decrease)
            mid = _partition(enc, start, end, split.left_mask)
            stack += [(mid, end, depth + 1, len(nodes)), (start, mid, depth + 1, -1)]
        nodes.append(_Node(**node))
    return nodes


def _prune_threshold(cp: float, root_risk: float) -> float:
    """The g below which weakest-link pruning collapses a node: cp times the
    root's single-leaf risk, and above every g when cp is infinite."""
    return math.inf if math.isinf(cp) else cp * root_risk


def _prune(tree: DecisionTree, loss: CostMatrix, cp: float) -> int:
    """Weakest-link cost-complexity pruning: repeatedly collapse the internal
    node with the smallest risk reduction per extra leaf, g, while g falls
    below cp times the root's single-leaf risk; ties go to the first node in
    preorder. A collapse changes only the risk, leaf count and g of the
    node's ancestors, so only they are updated. The nodes below collapsed
    ones are dropped from the arrays at the end. Returns the number of
    collapses."""
    m = len(tree.n)
    inner = np.flatnonzero(tree.feature >= 0)
    right = tree.right
    parent = np.full(m, -1)
    parent[inner + 1] = parent[right[inner]] = inner
    size = [1] * m
    for i in range(m - 1, 0, -1):
        size[parent[i]] += size[i]
    own = [float((counts @ loss.entries).min()) for counts in tree.counts]
    risk, leaves = list(own), [1] * m
    g = np.full(m, np.inf)

    def update(i):
        risk[i] = risk[i + 1] + risk[right[i]]
        leaves[i] = leaves[i + 1] + leaves[right[i]]
        g[i] = max((own[i] - risk[i]) / (leaves[i] - 1), 0.0)

    for i in inner[::-1].tolist():
        update(i)
    threshold = _prune_threshold(cp, own[0])
    keep = np.ones(m, dtype=bool)
    steps = 0
    while g[(i := int(np.argmin(g)))] < threshold:
        steps += 1
        g[i:i + size[i]] = np.inf
        keep[i + 1:i + size[i]] = False
        risk[i], leaves[i] = own[i], 1
        for name in ("feature", "threshold", "left_set", "impurity", "decrease"):
            getattr(tree, name)[i] = _Node._field_defaults[name]
        tree.label[i], tree.expected_cost[i] = leaf_label(tree.counts[i], loss)
        up = parent[i]
        while up >= 0:
            update(up)
            up = parent[up]
    index = np.cumsum(keep) - 1
    tree.right = np.where(tree.feature >= 0, index[tree.right], -1)
    for name in _Node._fields:
        setattr(tree, name, getattr(tree, name)[keep])
    return steps


def build_tree(table: FeatureTable, labels, loss: CostMatrix, params: TreeParams) -> DecisionTree:
    """Encode the columns once, grow by recursive partitioning, then apply
    cost-complexity pruning."""
    start = time.perf_counter()
    enc = EncodedTable(table, labels, loss.k)
    nodes = _grow(enc, loss, params)
    tree = DecisionTree(
        **_node_arrays(nodes), params=params, k=loss.k, feature_names=table.names,
        feature_kinds=table.kinds, feature_levels=dict(zip(enc.cat_names, enc.levels)),
        n_rows=table.n_rows, nodes_grown=len(nodes), candidates_scanned=enc.candidates_scanned,
    )
    tree.prune_steps = _prune(tree, loss, params.cp)
    tree.depth, tree.leaf_count = _depth_and_leaves(tree)
    tree.build_s = time.perf_counter() - start
    return tree


def _depth_and_leaves(tree: DecisionTree) -> tuple[int, int]:
    """The tree's depth in split levels and its number of leaves."""
    depth = np.zeros(len(tree.n), dtype=np.int64)  # split levels above each node
    for i in np.flatnonzero(tree.feature >= 0):
        depth[i + 1] = depth[tree.right[i]] = depth[i] + 1
    return int(depth.max()), int(np.count_nonzero(tree.feature < 0))


# ---------------------------------------------------------------------------
# Prediction
# ---------------------------------------------------------------------------

def _level_codes(col: np.ndarray, levels) -> np.ndarray:
    """Each value's index in ``levels``, len(levels) for a level not among
    them and -1 for a missing value."""
    col = np.asarray(col, dtype=object)
    codes = np.where(np.equal(col, None), -1, len(levels))
    for b, level in enumerate(levels):
        codes[col == level] = b
    return codes


def _level_names(levels, left_set) -> tuple[str, ...]:
    return tuple(levels[b] for b in _bits_of(int(left_set)))


def predict(tree: DecisionTree, table: FeatureTable) -> np.ndarray:
    """Vectorized prediction, node by node with an explicit stack: each
    internal node splits all the rows that reach it at once. A missing value
    goes to the child that saw more training rows, an unseen level right."""
    used = set(tree.feature[tree.feature >= 0].tolist())
    columns = {}  # what splits read: numeric values, or level codes (-1 = missing)
    for j, (name, kind) in enumerate(zip(tree.feature_names, tree.feature_kinds)):
        if name not in table.names:
            raise InvalidArgument(f"feature {name!r} missing from prediction data")
        if table.kind(name) != kind:
            raise InvalidArgument(f"feature {name!r} kind mismatch")
        if j in used and kind == NUMERIC:
            columns[j] = table.column(name).astype(np.float64)
        elif j in used:
            columns[j] = _level_codes(table.column(name), tree.feature_levels[name])
    out = np.empty(table.n_rows, dtype=np.int64)
    stack = [(0, np.arange(table.n_rows))]
    while stack:
        i, rows = stack.pop()
        j = int(tree.feature[i])
        if j < 0:
            out[rows] = tree.label[i]
            continue
        value = columns[j][rows]
        if tree.feature_kinds[j] == NUMERIC:
            missing, go_left = np.isnan(value), value < tree.threshold[i]
        else:
            # Codes past the left set's bits (unseen levels, and -1) stay False.
            member = np.zeros(len(tree.feature_levels[tree.feature_names[j]]) + 1, dtype=bool)
            member[_bits_of(int(tree.left_set[i]))] = True
            missing, go_left = value < 0, member[value]
        go_left |= missing & (tree.n[i + 1] >= tree.n[tree.right[i]])
        stack += [(int(tree.right[i]), rows[~go_left]), (i + 1, rows[go_left])]
    return out


# ---------------------------------------------------------------------------
# Importance and rule extraction
# ---------------------------------------------------------------------------

def variable_importance(tree: DecisionTree) -> list[tuple[str, float]]:
    """Total impurity decrease credited to each feature, descending; unused
    features are omitted."""
    inner = tree.feature >= 0  # bincount adds the decreases in preorder
    scores = np.bincount(tree.feature[inner], tree.decrease[inner], len(tree.feature_names))
    used = sorted(set(tree.feature[inner].tolist()), key=lambda j: (-scores[j], j))
    return [(tree.feature_names[j], float(scores[j])) for j in used]


@dataclass(frozen=True)
class RuleCondition:
    feature: str
    kind: str
    lo: float = -math.inf        # numeric: lo <= value
    hi: float = math.inf         # numeric: value < hi
    categories: tuple[str, ...] | None = None  # categorical: value in categories

    def render(self) -> str:
        if self.kind == NUMERIC:
            if self.lo == -math.inf:
                return f"{self.feature} < {self.hi:g}"
            if self.hi == math.inf:
                return f"{self.feature} >= {self.lo:g}"
            return f"{self.lo:g} <= {self.feature} < {self.hi:g}"
        if len(self.categories) == 1:
            return f"{self.feature} = {self.categories[0]}"
        return f"{self.feature} in {{{', '.join(self.categories)}}}"


@dataclass(frozen=True)
class LeafRule:
    conditions: tuple[RuleCondition, ...]
    label: int
    support: int
    expected_cost: float

    @property
    def condition_text(self) -> str:
        return " AND ".join(c.render() for c in self.conditions) if self.conditions else "always"

    def render(self) -> str:
        return (f"{self.condition_text} -> class {self.label} "
                f"(n={self.support}, cost={self.expected_cost:.4f})")


def extract_rules(tree: DecisionTree) -> list[LeafRule]:
    """One rule per leaf, in preorder: the root-to-leaf conditions with
    redundant bounds on the same feature merged to the tightest. Rules
    partition the space of complete records over the training feature
    levels."""
    rules: list[LeafRule] = []
    # (node, numeric (lo, hi) bounds and allowed-level bitmasks by schema index)
    stack: list[tuple[int, dict, dict]] = [(0, {}, {})]
    while stack:
        i, bounds, cats = stack.pop()
        j = int(tree.feature[i])
        if j >= 0:
            if tree.feature_kinds[j] == NUMERIC:
                t = float(tree.threshold[i])
                lo, hi = bounds.get(j, (-math.inf, math.inf))
                stack.append((int(tree.right[i]), {**bounds, j: (max(lo, t), hi)}, cats))
                stack.append((i + 1, {**bounds, j: (lo, min(hi, t))}, cats))
            else:
                allowed = cats.get(j, (1 << len(tree.feature_levels[tree.feature_names[j]])) - 1)
                chosen = int(tree.left_set[i])
                stack.append((int(tree.right[i]), bounds, {**cats, j: allowed & ~chosen}))
                stack.append((i + 1, bounds, {**cats, j: allowed & chosen}))
            continue
        conditions = []
        for f in sorted(bounds.keys() | cats.keys()):
            name = tree.feature_names[f]
            if f in bounds:
                conditions.append(RuleCondition(name, NUMERIC, *bounds[f]))
            else:
                categories = _level_names(tree.feature_levels[name], cats[f])
                conditions.append(RuleCondition(name, CATEGORICAL, categories=categories))
        rules.append(LeafRule(tuple(conditions), int(tree.label[i]), int(tree.n[i]),
                              float(tree.expected_cost[i])))
    return rules


def classify_with_rules(rules: list[LeafRule], table: FeatureTable) -> np.ndarray:
    """Apply extracted rules as a standalone classifier to complete records.
    Raises if any record matches zero or multiple rules (the rules of a valid
    tree partition the complete-record space)."""
    columns = {}  # each feature's values, or its levels and level codes, encoded once
    for cond in (cond for rule in rules for cond in rule.conditions):
        if cond.feature not in columns:
            col = table.column(cond.feature)
            if cond.kind == NUMERIC:
                columns[cond.feature] = col.astype(np.float64)
            else:
                levels = sorted(set(col.tolist()) - {None})
                columns[cond.feature] = levels, _level_codes(col, levels)
    n = table.n_rows
    out = np.zeros(n, dtype=np.int64)
    matched = np.zeros(n, dtype=np.int64)
    for rule in rules:
        mask = np.ones(n, dtype=bool)
        for cond in rule.conditions:
            if cond.kind == NUMERIC:
                vals = columns[cond.feature]
                mask &= (vals >= cond.lo) & (vals < cond.hi)
            else:
                levels, codes = columns[cond.feature]
                # The appended entry, code -1, is that of a missing value.
                mask &= np.append(np.isin(levels, cond.categories), False)[codes]
        out[mask] = rule.label
        matched += mask
    if not np.all(matched == 1):
        bad = int(np.flatnonzero(matched != 1)[0])
        raise InvalidArgument(f"record {bad} matched {int(matched[bad])} rules, expected 1")
    return out


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def _root_to_dict(tree: DecisionTree) -> dict:
    """The nested node dicts of a model document, built bottom-up in
    reverse preorder so that both children exist before their parent."""
    done: dict[int, dict] = {}
    for i in range(len(tree.n) - 1, -1, -1):
        j = int(tree.feature[i])
        n, counts = int(tree.n[i]), [int(c) for c in tree.counts[i]]
        if j < 0:
            done[i] = {"type": "leaf", "label": int(tree.label[i]), "n": n, "counts": counts,
                       "expected_cost": float(tree.expected_cost[i])}
            continue
        name, kind = tree.feature_names[j], tree.feature_kinds[j]
        d = done[i] = {
            "type": "internal", "feature": name, "kind": kind, "n": n, "counts": counts,
            "impurity": float(tree.impurity[i]), "decrease": float(tree.decrease[i]),
            "left": done.pop(i + 1), "right": done.pop(int(tree.right[i])),
        }
        if kind == NUMERIC:
            d["threshold"] = float(tree.threshold[i])
        else:
            d["categories"] = list(_level_names(tree.feature_levels[name], tree.left_set[i]))
    return done[0]


def serialize_tree(tree: DecisionTree) -> str:
    doc = {
        "version": TREE_FORMAT_VERSION,
        "k": tree.k,
        "params": tree.params.to_dict(),
        "schema": [
            {"name": n, "kind": kd} for n, kd in zip(tree.feature_names, tree.feature_kinds)
        ],
        "levels": {name: list(lv) for name, lv in tree.feature_levels.items()},
        "summary": {"n": tree.n_rows, "depth": tree.depth, "leaf_count": tree.leaf_count},
        "root": _root_to_dict(tree),
    }
    return json.dumps(doc, indent=2) + "\n"


def _nodes_from_dict(root, k: int, names, kinds, levels) -> list[_Node]:
    """A model document's nested node dicts as nodes in preorder, walked
    with an explicit stack; every node is checked against the document's
    schema and levels."""
    nodes: list[_Node] = []
    stack = [(root, "root", 0, -1)]  # (node dict, path, depth, parent of a right child)
    while stack:
        d, path, depth, parent = stack.pop()
        if depth > MAX_DEPTH:
            raise TreeFormatError(f"{path}: node deeper than {MAX_DEPTH} split levels")
        if parent >= 0:
            nodes[parent] = nodes[parent]._replace(right=len(nodes))
        try:
            node_type = d["type"]
            node = {"n": int(d["n"]), "counts": np.asarray(d["counts"], dtype=np.float64)}
            if node["counts"].shape != (k,):
                raise TreeFormatError(f"{path}: counts must list {k} class counts")
            if node_type == "leaf":
                node.update(label=int(d["label"]), expected_cost=float(d["expected_cost"]))
            elif node_type == "internal":
                name, kind = d["feature"], d["kind"]
                if name not in names or kind != kinds[names.index(name)]:
                    raise TreeFormatError(f"{path}: no {kind} feature {name!r} in the schema")
                node.update(feature=names.index(name), impurity=float(d["impurity"]),
                            decrease=float(d["decrease"]))
                if kind == NUMERIC:
                    node["threshold"] = float(d["threshold"])
                else:
                    if not set(d["categories"]) <= set(levels[name]):
                        raise TreeFormatError(f"{path}: categories outside the levels of {name!r}")
                    node["left_set"] = sum(1 << levels[name].index(c) for c in set(d["categories"]))
                stack += [(d["right"], path + ".right", depth + 1, len(nodes)),
                          (d["left"], path + ".left", depth + 1, -1)]
            else:
                raise TreeFormatError(f"{path}: unknown node type {node_type!r}")
        except KeyError as e:
            raise TreeFormatError(f"{path}: missing field {e}")
        except (TypeError, ValueError) as e:
            raise TreeFormatError(f"{path}: {e}")
        nodes.append(_Node(**node))
    return nodes


def deserialize_tree(text: str) -> DecisionTree:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise TreeFormatError(f"tree JSON parse error at line {e.lineno} column {e.colno}: {e.msg}")
    except RecursionError:
        raise TreeFormatError(f"tree JSON nests too deeply (trees have at most {MAX_DEPTH} levels)")
    if not isinstance(doc, dict):
        raise TreeFormatError("tree document must be a JSON object")
    version = doc.get("version")
    if version != TREE_FORMAT_VERSION:
        raise TreeFormatError(
            f"unsupported tree format version {version!r}, expected {TREE_FORMAT_VERSION!r}"
        )
    try:
        k = int(doc["k"])
        names = tuple(str(c["name"]) for c in doc["schema"])
        kinds = tuple(str(c["kind"]) for c in doc["schema"])
        levels, root, summary = doc["levels"], doc["root"], doc["summary"]
        meta = dict(params=TreeParams.from_dict(doc["params"]), n_rows=int(summary["n"]),
                    depth=int(summary["depth"]), leaf_count=int(summary["leaf_count"]))
    except KeyError as e:
        raise TreeFormatError(f"tree document missing field {e}")
    except (TypeError, ValueError, InvalidArgument) as e:
        raise TreeFormatError(f"tree document malformed: {e}")
    # Each feature named once, as numeric or categorical; levels as
    # build_tree records them: distinct strings in sorted order.
    if len(set(names)) != len(names) or not set(kinds) <= {NUMERIC, CATEGORICAL}:
        raise TreeFormatError("schema must name each feature once, as numeric or categorical")
    categorical = {name for name, kind in zip(names, kinds) if kind == CATEGORICAL}
    if not isinstance(levels, dict) or set(levels) != categorical:
        raise TreeFormatError("levels must be an object giving each categorical feature's levels")
    for name, lv in levels.items():
        if not (isinstance(lv, list) and all(isinstance(v, str) for v in lv)
                and lv == sorted(set(lv))):
            raise TreeFormatError(f"levels of {name!r} must be distinct strings in sorted order")
    nodes = _nodes_from_dict(root, k, names, kinds, levels)
    tree = DecisionTree(**_node_arrays(nodes), k=k, feature_names=names, feature_kinds=kinds,
                        feature_levels={name: tuple(lv) for name, lv in levels.items()}, **meta)
    # The summary is written back as read, so it must describe the nodes.
    actual = (int(tree.n[0]), *_depth_and_leaves(tree))
    if (tree.n_rows, tree.depth, tree.leaf_count) != actual:
        raise TreeFormatError(
            "summary must match the nodes: n {}, depth {}, leaf_count {}".format(*actual)
        )
    return tree
