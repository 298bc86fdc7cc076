"""Cost-sensitive CART over mixed numeric/categorical features.

Cost sensitivity enters twice: split quality is the generalized Gini
impurity I = sum(L[i][j] * p_i * p_j) under an arbitrary zero-diagonal loss
matrix, and each leaf is labeled with the rank minimizing expected
misclassification cost. Pruning is cost-complexity pruning with the same
expected-cost risk functional.

Criterion: for a node of n rows with class counts c, n*I = Q/n with
Q = c^T L c, so a split's decrease n*I(P) - n_L*I(L) - n_R*I(R) is scored as
Q_P/n - Q_L/n_L - Q_R/n_R, the form of scikit-learn's Gini
``proxy_impurity_improvement``. With integer counts and an integer loss
matrix, as both production matrices are, every Q is an exact integer in
float64 while n^2 * max(L) < 2^53 (n up to about 2.7e7 at k=13), whatever
the BLAS or einsum summation order; only the three divisions, their sum
and the final difference round.

Growth budget: growth searches only the nodes that pruning could keep,
passing cp down the tree as a complexity budget, as rpart's partition.c
does. With alpha = cp times the root's leaf risk and own a node's leaf risk
min(c @ L), a subtree at its best pruning scores S = own + alpha as a leaf
and S = min(own + alpha, S_left + S_right) once split (Breiman et al. 1984,
ch. 3). Each node carries a budget M, the root's infinite, and is searched
only when min(own + alpha, M) >= 2 * alpha, since any split subtree scores
at least 2 * alpha; this implies own >= alpha. The comparison allows a
margin of 1e-9 times the root risk, so that rounding in S can only add
searches. The left child's budget is min(own + alpha, M) minus
min(own_right + alpha, 2 * alpha), the least S the right subtree can score;
once the left subtree is done, the right child's budget is
min(own + alpha, M) - S_left. Each subtree is pruned as growth completes
it, bottom-up as in rpart: its children's subtrees already pruned, a node
collapses to a leaf when g = max((own - risk) / (leaves - 1), 0) < alpha,
with risk and leaves its pruned subtree's. Weakest-link pruning with the
same strict test stops at this tree too, the largest minimizer of risk +
alpha * leaves; under an integer loss matrix every risk is exact, so the
two agree bit for bit.

Layout: a fitted ``DecisionTree`` is a set of parallel per-node arrays in
preorder, the layout of rpart's ``frame`` table and scikit-learn's ``Tree``.
The left child of internal node i is node i + 1 and its right child is
``right[i]``, so every subtree is a contiguous index range and every walk
is a loop over indices or an explicit stack; nothing here recurses.

Encoding: a ``FeatureTable`` holds each categorical column as int32 codes
into its sorted levels, made once by ``FeatureTable.from_items`` (site
depths arrive as codes already, ``DEPTH_LEVELS`` being sorted);
``predict`` maps a table's levels onto the model's. ``build_tree`` encodes
every column for one tree (``EncodedTable``). A numeric column becomes int32
value-rank codes plus its sorted distinct values, so a threshold is still
the exact midpoint (a+b)/2 of two adjacent observed values; a categorical
column becomes int32 indices into the levels present in the training rows,
in the same order. Both kinds share one code matrix in schema order. A
node is its own ascending array of row ids, and a split hands each child the
rows its mask selects. A node's numeric scan gathers its codes and sorts the
keys code * k + label along each column, so the rows arrive in value order;
categorical columns are scanned from one class histogram per node, each
by the levels present at that node: every subset of them when there are at
most MAX_EXHAUSTIVE_LEVELS, else the prefixes of them ordered by mean label
rank. Each node scans the numeric columns, then the categorical ones, each
kind in one pass unless the node is too large for its working arrays.

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
import sys
import time
from dataclasses import asdict, dataclass, field
from typing import NamedTuple

import numpy as np

from .domain import CATEGORICAL, NUMERIC, CostMatrix, check_int, is_number
from .errors import InvalidArgument, TreeFormatError

TREE_FORMAT_VERSION = "1"

#: A categorical column with more levels than this present at a node is
#: scanned there in order (levels sorted by mean label rank, prefix subsets)
#: instead of over every subset.
MAX_EXHAUSTIVE_LEVELS = 10

#: A scan at one node takes as many columns of one kind as fit in
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
        # json.loads reads NaN and Infinity. A NaN cp makes every comparison
        # with the pruning threshold false, and json.dumps writes an infinite
        # one as the non-standard token Infinity; any cp above 1 already
        # prunes to one leaf. A bool or a numeric string is refused, not
        # coerced.
        cp = self.cp
        if not isinstance(cp, numbers.Real) or isinstance(cp, bool) or cp != cp:  # NaN
            raise InvalidArgument(f"cp must be a number, got {cp!r}")
        if cp < 0:
            raise InvalidArgument(f"cp must be >= 0, got {cp}")
        if not cp <= sys.float_info.max:
            raise InvalidArgument(f"cp must be finite, got {cp}")
        object.__setattr__(self, "cp", float(cp))

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "TreeParams":
        """Exactly the four fields; an unknown key, such as a misspelt one,
        is refused rather than dropped."""
        keys = ("min_split", "min_leaf", "max_depth", "cp")
        if not isinstance(d, dict):
            raise InvalidArgument(f"tree params must be a JSON object, got {d!r}")
        unknown = sorted(d.keys() - set(keys))
        if unknown:
            raise InvalidArgument(f"unknown tree params key {unknown[0]!r}")
        return cls(*(d[key] for key in keys))


@dataclass(frozen=True)
class FeatureTable:
    """Column store the tree trains on. A numeric column is float64 (nan =
    missing). A categorical column is int32 codes into ``levels[name]``, that
    feature's level strings in sorted order, with -1 for missing.
    ``from_items`` is the one place where values become level codes."""

    names: tuple[str, ...]
    kinds: tuple[str, ...]
    columns: tuple[np.ndarray, ...]
    levels: dict[str, tuple[str, ...]]

    def __post_init__(self):
        if not (len(self.names) == len(self.kinds) == len(self.columns)):
            raise InvalidArgument("names, kinds and columns must align")
        lengths = {len(c) for c in self.columns}
        if len(lengths) > 1:
            raise InvalidArgument("all columns must have the same length")
        categorical = [name for name, kind in zip(self.names, self.kinds) if kind == CATEGORICAL]
        if sorted(self.levels) != sorted(categorical):
            raise InvalidArgument("levels must name exactly the categorical columns")
        for name in categorical:
            levels, codes = self.levels[name], self.column(name)
            if not all(isinstance(v, str) for v in levels) or list(levels) != sorted(set(levels)):
                raise InvalidArgument(f"levels of {name!r} must be sorted distinct strings")
            if codes.dtype != np.int32 or not np.all((codes >= -1) & (codes < len(levels))):
                raise InvalidArgument(f"column {name!r} must be int32 codes in [-1, {len(levels)})")

    @property
    def n_rows(self) -> int:
        return len(self.columns[0]) if self.columns else 0

    def column(self, name: str) -> np.ndarray:
        return self.columns[self.names.index(name)]

    def kind(self, name: str) -> str:
        return self.kinds[self.names.index(name)]

    def take(self, indices) -> "FeatureTable":
        idx = np.asarray(indices)
        return FeatureTable(self.names, self.kinds, tuple(c[idx] for c in self.columns),
                            self.levels)

    def select(self, names) -> "FeatureTable":
        keep = [self.names.index(n) for n in names]
        names = tuple(self.names[i] for i in keep)
        return FeatureTable(
            names,
            tuple(self.kinds[i] for i in keep),
            tuple(self.columns[i] for i in keep),
            {n: levels for n, levels in self.levels.items() if n in names},
        )

    @classmethod
    def from_items(cls, items) -> "FeatureTable":
        """Build from an iterable of (name, kind, values). A categorical
        value's level is its ``str``; None is missing."""
        names, kinds, cols, levels = [], [], [], {}
        for name, kind, values in items:
            names.append(name)
            kinds.append(kind)
            if kind == NUMERIC:
                cols.append(np.asarray(values, dtype=np.float64))
            else:
                strings = [None if v is None else str(v) for v in values]
                levels[name] = tuple(sorted(set(strings) - {None}))
                index = {None: -1} | {level: c for c, level in enumerate(levels[name])}
                cols.append(np.fromiter(map(index.__getitem__, strings), np.int32, len(strings)))
        return cls(tuple(names), tuple(kinds), tuple(cols), levels)


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

    ``codes`` holds one int32 row per column, in schema order, and one entry
    per training row. Numeric column j's codes are ranks into ``values[j]``,
    its sorted distinct values; categorical column j's are indices into
    ``levels[j]``, the table's levels that these rows hold, still in sorted
    order. Each list holds None at the other kind's columns, and
    ``numeric`` and ``categorical`` hold each kind's schema indices. No node
    state lives here: a node is its own array of row ids, which index these
    codes and ``y0``.
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
        self.n = table.n_rows
        self.codes = np.empty((len(table.names), self.n), dtype=np.int32)
        self.values, self.levels = [], []
        for j, (name, kind, col) in enumerate(zip(table.names, table.kinds, table.columns)):
            if (np.isnan(col) if kind == NUMERIC else col < 0).any():
                raise InvalidArgument(f"training column {name!r} contains missing values")
            values, self.codes[j] = np.unique(col, return_inverse=True)
            numeric = kind == NUMERIC
            self.values.append(values if numeric else None)
            self.levels.append(None if numeric else  # values: codes of the levels present
                               tuple(table.levels[name][c] for c in values.tolist()))
        kinds = np.array(table.kinds)
        self.numeric = np.flatnonzero(kinds == NUMERIC)
        self.categorical = np.flatnonzero(kinds == CATEGORICAL)
        self.n_levels = np.array([len(lv or ()) for lv in self.levels], dtype=np.intp)
        self.candidates_scanned = 0


class _NumericScan:
    """Cut candidates at one node of the numeric columns ``cols``, given as
    schema indices. Each column's keys code * k + label over the node's rows
    are sorted, so a cut after sorted position p is a candidate when the
    code changes there and both sides keep min_leaf rows; the left class
    counts of every cut come from one bincount over the runs of equal codes,
    accumulated across runs. A run's counts are summed before any cut, so
    the order of the labels within a run does not matter."""

    def __init__(self, enc: EncodedTable, cols: np.ndarray, rows: np.ndarray,
                 y: np.ndarray, counts: np.ndarray, min_leaf: int):
        k, n = enc.k, len(rows)
        keys = enc.codes.take(rows + cols[:, None] * enc.n).astype(np.int64) * k + y
        keys.sort(axis=1)
        codes = keys // k
        new_run = np.ones(codes.shape, dtype=bool)
        np.not_equal(codes[:, 1:], codes[:, :-1], out=new_run[:, 1:])
        self.feature, cut = np.nonzero(new_run[:, min_leaf:n - min_leaf + 1])
        self.pos = cut + (min_leaf - 1)  # last sorted position that goes left
        self.size = len(self.pos)
        self.enc, self.cols, self.codes, self.counts = enc, cols, codes, counts
        if self.size:
            run = np.cumsum(new_run) - 1  # run id over the flattened block
            self.cum = np.bincount(
                run * k + keys.ravel() % k, minlength=(int(run[-1]) + 1) * k
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
        left_mask = self.enc.codes[j, rows] < np.searchsorted(values, threshold)
        return Split(self.enc.names[j], threshold, None, decrease, left_mask)


@functools.lru_cache(maxsize=None)
def _subset_bits(width: int) -> np.ndarray:
    """Membership rows over ``width`` slots of the odd bitmasks 1, 3, ..,
    2**width - 3: the subsets that hold slot 0 but not every slot, in
    ascending bitmask order."""
    masks = range(1, 2 ** width - 1, 2)
    bits = np.array([[(m >> b) & 1 for b in range(width)] for m in masks], dtype=np.float64)
    bits = bits.reshape(len(masks), width)  # also when there is no subset
    bits.setflags(write=False)
    return bits


def _bits_of(mask: int):
    return [b for b in range(mask.bit_length()) if (mask >> b) & 1]


class _CategoricalScan:
    """Candidates of the categorical columns ``cols`` at one node, chosen
    per column by the p levels present there. Up to MAX_EXHAUSTIVE_LEVELS
    they are the subsets of those levels that hold the first but not all
    of them, in ascending bitmask order; beyond that, the prefixes of the
    levels ordered by mean label rank (ties by level name). One class
    histogram over the block's levels, laid end to end, serves every
    column. Compacting a column's present levels into slots 0 .. p-1 keeps
    the bitmask order, so the subsets of every column are scored at once
    over the widest column's slots. A candidate's key is its slot bitmask,
    or for a prefix its length."""

    def __init__(self, enc: EncodedTable, cols: np.ndarray, rows: np.ndarray,
                 y: np.ndarray, counts: np.ndarray, min_leaf: int):
        k, n, m = enc.k, len(rows), len(cols)
        n_levels = enc.n_levels[cols]
        start = np.cumsum(n_levels) - n_levels  # each column's first level on the flat axis
        hist = np.bincount(
            ((enc.codes.take(rows + cols[:, None] * enc.n) + start[:, None]) * k + y).ravel(),
            minlength=int(n_levels.sum()) * k,
        ).reshape(-1, k)
        flat = np.flatnonzero(hist.any(axis=1))  # the present levels, column by column
        column = np.repeat(np.arange(m), n_levels)[flat]
        present = np.bincount(column, minlength=m)
        base = np.cumsum(present) - present  # each column's first entry in flat
        slots = flat - start[column]  # column f's level codes, in slot order: slots[column == f]
        few = np.flatnonzero(present <= MAX_EXHAUSTIVE_LEVELS)
        width = int(present[few].max(initial=0))
        compact = np.zeros((m, width, k))
        on = present[column] <= MAX_EXHAUSTIVE_LEVELS
        compact[column[on], (np.arange(len(flat)) - base[column])[on]] = hist[flat[on]]
        masks = np.arange(1, 2 ** width - 1, 2)
        left = _subset_bits(width) @ compact[few]  # (column, mask, class)
        n_left = left.sum(axis=2)
        f, c = np.nonzero((masks < (1 << present[few, None]) - 1)  # only present slots
                          & (n_left >= min_leaf) & (n - n_left >= min_leaf))
        features, keys, lefts = [few[f]], [masks[c]], [left[f, c]]
        for f in np.flatnonzero(present > MAX_EXHAUSTIVE_LEVELS).tolist():
            at = column == f
            level_counts = hist[flat[at]].astype(np.float64)
            mean_rank = level_counts @ (np.arange(k) + 1.0) / level_counts.sum(axis=1)
            order = np.argsort(mean_rank, kind="stable")  # slots ascend, as level names do
            slots[at] = slots[at][order]
            left = np.cumsum(level_counts[order], axis=0)[:-1]
            n_left = left.sum(axis=1)
            keep = np.flatnonzero((n_left >= min_leaf) & (n - n_left >= min_leaf))
            features.append(np.full(keep.size, f))
            keys.append(keep + 1)
            lefts.append(left[keep])
        order = np.argsort(np.concatenate(features), kind="stable")  # back into schema order
        self.feature = np.concatenate(features)[order]
        self.keys, self.left = np.concatenate(keys)[order], np.concatenate(lefts)[order]
        self.size = len(order)
        self.enc, self.cols, self.slots, self.column = enc, cols, slots, column

    def counts_left(self, lo: int, hi: int) -> np.ndarray:
        return self.left[lo:hi]

    def split(self, i: int, rows: np.ndarray, decrease: float) -> Split:
        f, key = self.feature[i], int(self.keys[i])
        j, slots = self.cols[f], self.slots[self.column == f]
        chosen = slots[:key] if len(slots) > MAX_EXHAUSTIVE_LEVELS else slots[_bits_of(key)]
        member = np.zeros(len(self.enc.levels[j]), dtype=bool)
        member[chosen] = True
        left_set = sum(1 << int(c) for c in chosen)
        return Split(self.enc.names[j], math.nan, _level_names(self.enc.levels[j], left_set),
                     decrease, member[self.enc.codes[j, rows]], left_set)


def best_split(enc: EncodedTable, rows: np.ndarray, counts: np.ndarray, parent_q: float,
               loss: CostMatrix, params: TreeParams) -> Split | None:
    """Exhaustive scan over features and candidate splits of the node whose
    row ids are ``rows``, with float64 class ``counts`` and ``parent_q`` =
    counts^T L counts; returns the split maximizing
    n*I(parent) - n_L*I(left) - n_R*I(right) = Q_P/n - Q_L/n_L - Q_R/n_R,
    or None when the node is below min_split or no candidate has a strictly
    positive decrease. Of equal maxima it returns the one on the lowest
    schema index, and within one column the first candidate. The split's
    left_mask is aligned with ``rows``."""
    n = len(rows)
    if n < params.min_split:
        return None
    y = enc.y0[rows]
    parent_term = parent_q / n
    width = max(1, _BLOCK_CELLS // n)
    best_decrease, best_feature, best = 0.0, -1, None
    for scan_class, columns in ((_NumericScan, enc.numeric), (_CategoricalScan, enc.categorical)):
        for a in range(0, len(columns), width):
            scan = scan_class(enc, columns[a:a + width], rows, y, counts, params.min_leaf)
            enc.candidates_scanned += scan.size
            # A scan's candidates arrive in schema order, thresholds
            # ascending and subsets in canonical order, so argmax finds the
            # lowest schema index of a chunk's maxima; across chunks and
            # kinds, an equal decrease wins only on a lower schema index.
            for lo in range(0, scan.size, _CHUNK):
                counts_left = scan.counts_left(lo, lo + _CHUNK)
                decreases = parent_term - _impurity_terms(counts_left, counts, loss.entries)
                i = int(np.argmax(decreases))
                decrease = float(decreases[i])
                if not (decrease > 0.0 and decrease >= best_decrease):
                    continue
                feature = int(scan.cols[scan.feature[lo + i]])
                if decrease > best_decrease or feature < best_feature:
                    best_decrease, best_feature, best = decrease, feature, (scan, lo + i)
    if best is None:
        return None
    scan, i = best
    return scan.split(i, rows, best_decrease)


# ---------------------------------------------------------------------------
# Growing and pruning
# ---------------------------------------------------------------------------

def _grow(enc: EncodedTable, loss: CostMatrix, params: TreeParams) -> tuple[list[_Node], int, int]:
    """Recursive partitioning with an explicit stack, depth-first and left
    child first, so nodes arrive in preorder. Each node on the stack is its
    own ascending array of row ids with its class counts, and carries the
    budget M of the module docstring: the left child's is cap - min(own_right
    + alpha, 2 * alpha) with cap = min(own + alpha, M), the right child's
    cap - S_left. A node p's subtree is done when its right subtree is; p's
    risk and leaves are then its children's sums, over subtrees already
    pruned, and p collapses to a leaf when g = max((own[p] - risk[p]) /
    (leaves[p] - 1), 0) < alpha. In preorder p's subtree is then the tail of
    each per-node list, so the collapse truncates them there. Returns the
    nodes, the number grown and the number of collapses."""
    nodes: list[_Node] = []
    counts = np.bincount(enc.y0, minlength=enc.k).astype(np.float64)
    root_risk = float((counts @ loss.entries).min())
    alpha = params.cp * root_risk
    margin = 1e-9 * root_risk
    own: list[float] = []  # per node: its risk as a leaf
    risk: list[float] = []  # per node: its pruned subtree's risk, once done
    leaves: list[int] = []  # per node: its pruned subtree's leaf count, once done
    cap: list[float] = []  # per node: min(own + alpha, M)
    score: list[float] = []  # per node: own + alpha, then S once its subtree is done
    up: list[int] = []  # per node: its parent if it is a right child, else -1
    grown = collapses = 0
    # (rows, class counts, depth, parent of a right child, budget of a left child)
    stack = [(np.arange(enc.n), counts, 0, -1, math.inf)]
    while stack:
        rows, counts, depth, parent, budget = stack.pop()
        i = len(nodes)
        grown += 1
        if parent >= 0:
            nodes[parent] = nodes[parent]._replace(right=i)
            budget = cap[parent] - score[parent + 1]
        impurity = gini_loss_impurity(counts, loss)
        costs = counts @ loss.entries  # costs[j]: the node's risk as a leaf of rank j + 1
        own.append(float(costs.min()))
        risk.append(own[i])
        leaves.append(1)
        score.append(own[i] + alpha)
        cap.append(min(score[i], budget))
        up.append(parent)
        split = None
        if (depth < params.max_depth and len(rows) >= params.min_split and impurity != 0.0
                and cap[i] - alpha >= alpha - margin):  # false when alpha overflows to inf
            split = best_split(enc, rows, counts, float(costs @ counts), loss, params)
        if split is not None:
            nodes.append(_Node(len(rows), counts, feature=enc.names.index(split.feature),
                               threshold=split.threshold, left_set=split.left_set,
                               impurity=impurity, decrease=split.decrease))
            left = split.left_mask
            counts_left = np.bincount(enc.y0[rows[left]], minlength=enc.k).astype(np.float64)
            counts_right = counts - counts_left
            right_score = min(float((counts_right @ loss.entries).min()) + alpha, 2.0 * alpha)
            stack += [(rows[~left], counts_right, depth + 1, i, math.nan),
                      (rows[left], counts_left, depth + 1, -1, cap[i] - right_score)]
            continue
        label, cost = leaf_label(counts, loss)
        nodes.append(_Node(len(rows), counts, label=label, expected_cost=cost))
        done = i
        while up[done] >= 0:  # a right subtree is done, and so is its parent's
            p = up[done]
            score[p] = min(score[p], score[p + 1] + score[done])
            risk[p] = risk[p + 1] + risk[done]
            leaves[p] = leaves[p + 1] + leaves[done]
            if max((own[p] - risk[p]) / (leaves[p] - 1), 0.0) < alpha:
                collapses += 1
                label, cost = leaf_label(nodes[p].counts, loss)
                nodes[p] = _Node(nodes[p].n, nodes[p].counts, label=label, expected_cost=cost)
                for per_node in (nodes, own, risk, leaves, cap, score, up):
                    del per_node[p + 1:]
                risk[p], leaves[p] = own[p], 1
            done = p
    return nodes, grown, collapses


def build_tree(table: FeatureTable, labels, loss: CostMatrix, params: TreeParams) -> DecisionTree:
    """Encode the columns once, then grow by recursive partitioning with
    cost-complexity pruning."""
    start = time.perf_counter()
    enc = EncodedTable(table, labels, loss.k)
    nodes, grown, collapses = _grow(enc, loss, params)
    tree = DecisionTree(
        **_node_arrays(nodes), params=params, k=loss.k, feature_names=table.names,
        feature_kinds=table.kinds,
        feature_levels={enc.names[j]: enc.levels[j] for j in enc.categorical},
        n_rows=table.n_rows, nodes_grown=grown, candidates_scanned=enc.candidates_scanned,
        prune_steps=collapses,
    )
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
            # The table's codes as the model's: a level the model never saw
            # becomes len(levels), and the appended entry keeps -1 missing.
            index = {level: b for b, level in enumerate(tree.feature_levels[name])}
            lookup = [index.get(level, len(index)) for level in table.levels[name]]
            columns[j] = np.array(lookup + [-1], dtype=np.intp)[table.column(name)]
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
    n = table.n_rows
    out = np.zeros(n, dtype=np.int64)
    matched = np.zeros(n, dtype=np.int64)
    for rule in rules:
        mask = np.ones(n, dtype=bool)
        for cond in rule.conditions:
            col = table.column(cond.feature)
            if cond.kind == NUMERIC:
                mask &= (col >= cond.lo) & (col < cond.hi)
            else:
                # The appended entry, code -1, is that of a missing value.
                levels = table.levels[cond.feature]
                mask &= np.append(np.isin(levels, cond.categories), False)[col]
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


def _count(what: str, value) -> int:
    """A model document's count: a JSON integer in [0, 2**53]."""
    if not 0 <= check_int(what, value) <= 2**53:
        raise InvalidArgument(f"{what} {value} is not in [0, 2**53]")
    return value


def _number(what: str, value, finite: bool = False) -> float:
    """A model document's ``value`` as a float: a JSON number in float
    range, and finite where ``finite`` is set. No string or bool is read."""
    try:
        x = float(value) if is_number(value) else None
    except OverflowError:  # an int beyond float range
        x = None
    if x is None or finite and not math.isfinite(x):
        kind = "finite JSON number" if finite else "JSON number"
        raise InvalidArgument(f"{what} must be a {kind}, got {value!r}")
    return x


def _nodes_from_dict(root, k: int, names, kinds, levels) -> list[_Node]:
    """A model document's nested node dicts as nodes in preorder, walked
    with an explicit stack; every node is checked against the document's
    schema and levels. ``n``, ``counts`` and ``label`` must be JSON integers,
    counts and ``n`` in [0, 2**53] (float64 holds them exactly), ``n`` the
    sum of the counts and a label a rank in [1, k]. A threshold must be a
    finite JSON number, impurity, decrease and expected cost JSON numbers."""
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
            n, counts = _count("n", d["n"]), d["counts"]
            if not (isinstance(counts, list) and len(counts) == k):
                raise TreeFormatError(f"{path}: counts must list {k} class counts")
            if n != sum(_count("a class count", c) for c in counts):
                raise TreeFormatError(f"{path}: n {n} is not the sum of its counts")
            node = {"n": n, "counts": np.array(counts, dtype=np.float64)}
            if node_type == "leaf":
                label = check_int("label", d["label"])
                if not 1 <= label <= k:
                    raise TreeFormatError(f"{path}: label {label} is not a rank in [1, {k}]")
                node.update(label=label, expected_cost=_number("expected_cost", d["expected_cost"]))
            elif node_type == "internal":
                name, kind = d["feature"], d["kind"]
                if name not in names or kind != kinds[names.index(name)]:
                    raise TreeFormatError(f"{path}: no {kind} feature {name!r} in the schema")
                node.update(feature=names.index(name), impurity=_number("impurity", d["impurity"]),
                            decrease=_number("decrease", d["decrease"]))
                if kind == NUMERIC:
                    node["threshold"] = _number("threshold", d["threshold"], finite=True)
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
        except (TypeError, ValueError, InvalidArgument) as e:
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
        k = check_int("k", doc["k"])
        names = tuple(str(c["name"]) for c in doc["schema"])
        kinds = tuple(str(c["kind"]) for c in doc["schema"])
        levels, root, summary = doc["levels"], doc["root"], doc["summary"]
        meta = dict(params=TreeParams.from_dict(doc["params"]),
                    n_rows=_count("summary n", summary["n"]),
                    depth=check_int("summary depth", summary["depth"]),
                    leaf_count=check_int("summary leaf_count", summary["leaf_count"]))
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
