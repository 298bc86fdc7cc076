"""Cost-sensitive CART over mixed numeric/categorical features.

Cost sensitivity enters twice: split quality is the generalized Gini
impurity sum(L[i][j] * p_i * p_j) under an arbitrary zero-diagonal loss
matrix, and each leaf is labeled with the rank minimizing expected
misclassification cost. Pruning is weakest-link cost-complexity with the
same expected-cost risk functional.

Encoding: ``build_tree`` encodes every column once (``EncodedTable``). A
numeric column becomes int32 value-rank codes plus its sorted distinct
values, so a threshold is still the exact midpoint (a+b)/2 of two adjacent
observed values; a categorical column becomes int32 level codes in
sorted-string order. The row order of each numeric column is sorted once
and partitioned stably in place whenever a node splits (SLIQ's presorted
attribute lists), so each node scans its rows already in value order;
categorical columns are scanned from one class histogram per node.

Determinism contract: candidate splits are scanned in schema order, numeric
thresholds ascending, categorical subsets in canonical order; ties keep the
first candidate. Identical inputs always produce identical trees.

Routing: a training row goes left when its value < threshold (categorical:
when its level is in the split's subset), the same rule ``predict`` applies
to new rows.
"""

from __future__ import annotations

import bisect
import functools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .domain import CATEGORICAL, NUMERIC, CostMatrix
from .errors import InvalidArgument, TreeFormatError

TREE_FORMAT_VERSION = "1"

#: Categorical features with more levels than this use the ordered scan
#: (levels sorted by mean label rank, prefix subsets) instead of an
#: exhaustive subset scan.
MAX_EXHAUSTIVE_LEVELS = 10

#: Columns scanned together at one node: at most _BLOCK, and fewer on large
#: nodes so that a block spans at most _BLOCK_CELLS row entries. Candidate
#: splits reach _impurity_terms in chunks of _CHUNK. Together these bound the
#: per-node working arrays whatever the number of rows and columns.
_BLOCK = 8
_BLOCK_CELLS = 32768
_CHUNK = 1024

#: Deepest tree allowed, in split levels, as rpart's ``maxdepth``. Tree walks
#: and the JSON (de)serializers recurse, so the bound keeps them far below
#: the interpreter's recursion limit.
MAX_DEPTH = 30


@dataclass(frozen=True)
class TreeParams:
    min_split: int = 20
    min_leaf: int = 7
    max_depth: int = 30
    cp: float = 0.01

    def __post_init__(self):
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
        if self.cp < 0:
            raise InvalidArgument(f"cp must be >= 0, got {self.cp}")

    def to_dict(self) -> dict:
        return {
            "min_split": self.min_split,
            "min_leaf": self.min_leaf,
            "max_depth": self.max_depth,
            "cp": self.cp,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "TreeParams":
        return cls(
            min_split=int(d["min_split"]),
            min_leaf=int(d["min_leaf"]),
            max_depth=int(d["max_depth"]),
            cp=float(d["cp"]),
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


@dataclass
class Leaf:
    label: int
    n: int
    class_counts: np.ndarray
    expected_cost: float


@dataclass
class Internal:
    feature: str
    kind: str
    threshold: float | None           # numeric: go left if value < threshold
    categories: tuple[str, ...] | None  # categorical: go left if member
    left: "Node"
    right: "Node"
    n: int
    class_counts: np.ndarray
    impurity: float
    decrease: float


Node = Leaf | Internal


@dataclass
class DecisionTree:
    root: Node
    params: TreeParams
    k: int
    feature_names: tuple[str, ...]
    feature_kinds: tuple[str, ...]
    feature_levels: dict[str, tuple[str, ...]] = field(default_factory=dict)
    n_rows: int = 0
    depth: int = 0
    leaf_count: int = 0
    # Build counters; not part of the serialized model.
    nodes_grown: int = 0
    candidates_scanned: int = 0
    prune_steps: int = 0


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
    kind: str
    threshold: float | None
    categories: tuple[str, ...] | None
    decrease: float
    left_mask: np.ndarray


def _impurity_terms(counts_left: np.ndarray, totals: np.ndarray, L: np.ndarray):
    """Weighted child impurities n_L*I(L) + n_R*I(R) for a batch of
    candidate left-count matrices."""
    counts_right = totals[None, :] - counts_left
    n_left = counts_left.sum(axis=1)
    n_right = counts_right.sum(axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        pl = counts_left / n_left[:, None]
        pr = counts_right / n_right[:, None]
    il = np.einsum("mi,ij,mj->m", pl, L, pl)
    ir = np.einsum("mi,ij,mj->m", pr, L, pr)
    return n_left * il + n_right * ir


class EncodedTable:
    """A FeatureTable and its labels encoded once for growing one tree.

    Numeric column j: ``num_codes[j]`` are int32 ranks into ``values[j]``,
    its sorted distinct values. Categorical column j: ``cat_codes[j]`` are
    int32 indices into ``levels[j]``, its levels in sorted-string order.
    ``rows`` lists every row id with each node's rows contiguous and
    ascending; ``order[j]`` holds the same segments sorted by numeric column
    j. Growing partitions both stably in place when a node splits.
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
        self.num_names, self.values, num_codes = [], [], []
        self.cat_names, self.levels, cat_codes = [], [], []
        #: (scan class, first, stop) for each maximal run of features in
        #: schema order that one scan class handles; first and stop index
        #: that kind's columns.
        self.spans: list[tuple[type, int, int]] = []
        for name, kind, col in zip(table.names, table.kinds, table.columns):
            if kind == NUMERIC:
                if np.isnan(col).any():
                    raise InvalidArgument(f"training column {name!r} contains missing values")
                values, codes = np.unique(col, return_inverse=True)
                self.num_names.append(name)
                self.values.append(values)
                num_codes.append(codes.astype(np.int32))
                scan, position = _NumericScan, len(self.num_names)
            else:
                if any(v is None for v in col):
                    raise InvalidArgument(f"training column {name!r} contains missing values")
                levels, codes = np.unique(col.astype("U"), return_inverse=True)
                self.cat_names.append(name)
                self.levels.append(tuple(str(level) for level in levels))
                cat_codes.append(codes.astype(np.int32))
                few = len(levels) <= MAX_EXHAUSTIVE_LEVELS
                scan, position = (_SubsetScan if few else _LevelScan), len(self.cat_names)
            if self.spans and self.spans[-1][0] is scan:
                self.spans[-1] = (scan, self.spans[-1][1], position)
            else:
                self.spans.append((scan, position - 1, position))
        n = table.n_rows
        self.num_codes = np.array(num_codes, dtype=np.int32).reshape(-1, n)
        self.cat_codes = np.array(cat_codes, dtype=np.int32).reshape(-1, n)
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
        categories = tuple(sorted(self.levels[j][c] for c in chosen))
        return Split(self.cat_names[j], CATEGORICAL, None, categories, decrease,
                     member[self.cat_codes[j, rows]])


def _block_width(n: int) -> int:
    return min(_BLOCK, max(1, _BLOCK_CELLS // n))


class _NumericScan:
    """Cut candidates of numeric columns a..b-1 at one node. The node's
    rows arrive in value order, so a cut after sorted position p is a
    candidate when the code changes there and both sides keep min_leaf
    rows; the left class counts of every cut come from one bincount over
    the runs of equal codes, accumulated across runs."""

    def __init__(self, enc: EncodedTable, a: int, b: int, start: int, end: int,
                 counts: np.ndarray, min_leaf: int):
        n = end - start
        seg = enc.order[a:b, start:end]
        codes = np.take_along_axis(enc.num_codes[a:b], seg, axis=1)
        new_run = np.ones(codes.shape, dtype=bool)
        np.not_equal(codes[:, 1:], codes[:, :-1], out=new_run[:, 1:])
        self.feature, cut = np.nonzero(new_run[:, min_leaf:n - min_leaf + 1])
        self.pos = cut + (min_leaf - 1)  # last sorted position that goes left
        self.size = len(self.pos)
        self.enc, self.a, self.codes, self.counts = enc, a, codes, counts
        if self.size:
            k = enc.k
            run = np.cumsum(new_run) - 1  # run id over the flattened block
            self.cum = np.bincount(
                run * k + enc.y0[seg].ravel(), minlength=(int(run[-1]) + 1) * k
            ).reshape(-1, k)
            np.cumsum(self.cum, axis=0, out=self.cum)
            self.run = run[self.feature * n + self.pos]

    def counts_left(self, lo: int, hi: int) -> np.ndarray:
        # Runs accumulate across the block's columns, and each column's runs
        # hold the node's rows once, so drop the earlier columns' totals.
        earlier = self.feature[lo:hi, None] * self.counts
        return (self.cum[self.run[lo:hi]] - earlier).astype(np.float64)

    def split(self, i: int, rows: np.ndarray, decrease: float) -> Split:
        f, p = self.feature[i], self.pos[i]
        j = self.a + f
        values = self.enc.values[j]
        threshold = float((values[self.codes[f, p]] + values[self.codes[f, p + 1]]) / 2.0)
        left_mask = self.enc.num_codes[j, rows] < np.searchsorted(values, threshold)
        return Split(self.enc.num_names[j], NUMERIC, threshold, None, decrease, left_mask)


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
    """Subset candidates of categorical columns a..b-1 at one node, each
    with at most MAX_EXHAUSTIVE_LEVELS levels. A column's candidates are the
    subsets of the levels present at the node that hold the first present
    level (complements split the same way) but not all of them, in ascending
    bitmask order. Spreading a subset of the present levels out to the
    bits of all the column's levels keeps that order, so every column is
    scanned over its full level width at once and absent levels are then
    masked out."""

    def __init__(self, enc: EncodedTable, a: int, b: int, rows: np.ndarray,
                 y: np.ndarray, min_leaf: int):
        k, n = enc.k, len(rows)
        width = max(len(levels) for levels in enc.levels[a:b])
        column_base = np.arange(b - a)[:, None] * width
        hist = np.bincount(
            ((enc.cat_codes[a:b, rows] + column_base) * k + y).ravel(),
            minlength=(b - a) * width * k,
        ).reshape(b - a, width, k)
        present = hist.any(axis=2) @ (1 << np.arange(width))  # bitmask per column
        masks = np.arange(1, 2 ** width - 1)
        left = _subset_bits(width) @ hist.astype(np.float64)  # (column, mask, class)
        n_left = left.sum(axis=2)
        ok = (
            ((masks & ~present[:, None]) == 0)  # only present levels
            & ((masks & (present & -present)[:, None]) != 0)  # the first present level
            & (masks != present[:, None])  # not all of them
            & (n_left >= min_leaf) & (n - n_left >= min_leaf)
        )
        self.feature, m = np.nonzero(ok)
        self.masks = masks[m]
        self.left = left[self.feature, m]
        self.size = len(self.masks)
        self.enc, self.a = enc, a

    def counts_left(self, lo: int, hi: int) -> np.ndarray:
        return self.left[lo:hi]

    def split(self, i: int, rows: np.ndarray, decrease: float) -> Split:
        chosen = _bits_of(int(self.masks[i]))
        return self.enc.categorical_split(self.a + self.feature[i], chosen, rows, decrease)


class _LevelScan:
    """Candidates of categorical columns a..b-1 with more than
    MAX_EXHAUSTIVE_LEVELS levels, one column at a time over the levels
    present at the node. Up to MAX_EXHAUSTIVE_LEVELS present levels every
    subset is a candidate, as in _SubsetScan; beyond that, the prefixes of
    the levels ordered by mean label rank (ties by level name)."""

    def __init__(self, enc: EncodedTable, a: int, b: int, rows: np.ndarray,
                 y: np.ndarray, min_leaf: int):
        k, n = enc.k, len(rows)
        self.enc, self.starts, self.parts, lefts = enc, [], [], []
        self.size = 0
        for j in range(a, b):
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
            self.starts.append(self.size)
            self.parts.append((j, present, order, keep))
            lefts.append(left[keep])
            self.size += keep.size
        self.left = np.concatenate(lefts) if lefts else None

    def counts_left(self, lo: int, hi: int) -> np.ndarray:
        return self.left[lo:hi]

    def split(self, i: int, rows: np.ndarray, decrease: float) -> Split:
        part = bisect.bisect_right(self.starts, i) - 1
        j, present, order, keep = self.parts[part]
        c = int(keep[i - self.starts[part]])
        if order is None:
            chosen = [present[b] for b in _bits_of(2 * c + 1)]
        else:
            chosen = [present[t] for t in order[:c + 1]]
        return self.enc.categorical_split(j, chosen, rows, decrease)


def best_split(enc: EncodedTable, start: int, end: int, loss: CostMatrix,
               params: TreeParams) -> Split | None:
    """Exhaustive scan over features and candidate splits of the node whose
    rows are ``enc.rows[start:end]``; returns the split maximizing
    n*I(parent) - n_L*I(left) - n_R*I(right), or None when the node is
    below min_split or no candidate has a strictly positive decrease. The
    split's left_mask is aligned with ``enc.rows[start:end]``."""
    n = end - start
    if n < params.min_split:
        return None
    rows = enc.rows[start:end]
    y = enc.y0[rows]
    counts = np.bincount(y, minlength=enc.k)
    totals = counts.astype(np.float64)
    parent_term = n * gini_loss_impurity(totals, loss)
    width = _block_width(n)
    best_decrease, best = 0.0, None
    for scan_class, first, stop in enc.spans:
        for a in range(first, stop, width):
            b = min(a + width, stop)
            if scan_class is _NumericScan:
                scan = _NumericScan(enc, a, b, start, end, counts, params.min_leaf)
            else:
                scan = scan_class(enc, a, b, rows, y, params.min_leaf)
            enc.candidates_scanned += scan.size
            # Candidates arrive in schema order, thresholds ascending and
            # subsets in canonical order: keep the first maximum.
            for lo in range(0, scan.size, _CHUNK):
                counts_left = scan.counts_left(lo, lo + _CHUNK)
                decreases = parent_term - _impurity_terms(counts_left, totals, loss.entries)
                i = int(np.argmax(decreases))
                if decreases[i] > best_decrease:
                    best_decrease, best = float(decreases[i]), (scan, lo + i)
    if best is None:
        return None
    scan, i = best
    return scan.split(i, rows, best_decrease)


# ---------------------------------------------------------------------------
# Growing and pruning
# ---------------------------------------------------------------------------

def _make_leaf(counts: np.ndarray, loss: CostMatrix) -> Leaf:
    label, expected = leaf_label(counts, loss)
    return Leaf(label=label, n=int(counts.sum()), class_counts=counts.copy(), expected_cost=expected)


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
        fl = enc.goes_left[seg]
        seg[:] = np.concatenate(
            (seg[fl].reshape(len(seg), n_left), seg[~fl].reshape(len(seg), n_right)), axis=1
        )
    return start + n_left


def _grow(enc: EncodedTable, loss: CostMatrix, params: TreeParams) -> tuple[Node, int]:
    """Recursive partitioning, depth-first and left child first, with an
    explicit stack; returns the root and the number of nodes grown."""
    root = None
    grown = 0
    stack = [(0, len(enc.rows), 0, None, None)]
    while stack:
        start, end, depth, parent, side = stack.pop()
        counts = np.bincount(enc.y0[enc.rows[start:end]], minlength=enc.k).astype(np.float64)
        impurity = gini_loss_impurity(counts, loss)
        split = None
        if depth < params.max_depth and end - start >= params.min_split and impurity != 0.0:
            split = best_split(enc, start, end, loss, params)
        if split is None:
            node = _make_leaf(counts, loss)
        else:
            node = Internal(
                feature=split.feature,
                kind=split.kind,
                threshold=split.threshold,
                categories=split.categories,
                left=None,
                right=None,
                n=end - start,
                class_counts=counts,
                impurity=impurity,
                decrease=split.decrease,
            )
            mid = _partition(enc, start, end, split.left_mask)
            stack.append((mid, end, depth + 1, node, "right"))
            stack.append((start, mid, depth + 1, node, "left"))
        grown += 1
        if parent is None:
            root = node
        else:
            setattr(parent, side, node)
    return root, grown


def _leaf_risk(counts: np.ndarray, loss: CostMatrix) -> float:
    return float((counts @ loss.entries).min())


def _prune(root: Node, loss: CostMatrix, cp: float) -> tuple[Node, int]:
    """Weakest-link cost-complexity pruning: repeatedly collapse the internal
    node with the smallest risk reduction per extra leaf, g, while g falls
    below cp times the root's single-leaf risk; ties go to the first node in
    preorder. A collapse changes only the risk, leaf count and g of the
    node's ancestors, so only they are updated. Returns the pruned root and
    the number of collapses."""
    nodes, parent, stack = [], [], [(root, -1)]
    while stack:
        node, up = stack.pop()
        parent.append(up)
        nodes.append(node)
        if isinstance(node, Internal):
            here = len(nodes) - 1
            stack.append((node.right, here))
            stack.append((node.left, here))
    m = len(nodes)
    size = [1] * m
    for i in range(m - 1, 0, -1):
        size[parent[i]] += size[i]
    own = [_leaf_risk(node.class_counts, loss) for node in nodes]
    risk, leaves = list(own), [1] * m
    g = np.full(m, np.inf)

    def update(i):
        left = i + 1
        right = left + size[left]
        risk[i] = risk[left] + risk[right]
        leaves[i] = leaves[left] + leaves[right]
        g[i] = max((own[i] - risk[i]) / (leaves[i] - 1), 0.0)

    for i in range(m - 1, -1, -1):
        if isinstance(nodes[i], Internal):
            update(i)
    threshold = math.inf if math.isinf(cp) else cp * own[0]
    steps = 0
    while True:
        i = int(np.argmin(g))
        if not g[i] < threshold:
            break
        collapsed = _make_leaf(nodes[i].class_counts, loss)
        steps += 1
        if i == 0:
            return collapsed, steps
        up = parent[i]
        setattr(nodes[up], "left" if up + 1 == i else "right", collapsed)
        g[i:i + size[i]] = np.inf
        risk[i], leaves[i] = own[i], 1
        while up >= 0:
            update(up)
            up = parent[up]
    return root, steps


def _summary(node: Node) -> tuple[int, int]:
    """(depth in split levels: a lone leaf is depth 0, leaf count)."""
    if isinstance(node, Leaf):
        return 0, 1
    dl, ll = _summary(node.left)
    dr, lr = _summary(node.right)
    return 1 + max(dl, dr), ll + lr


def build_tree(table: FeatureTable, labels, loss: CostMatrix, params: TreeParams) -> DecisionTree:
    """Encode the columns once, grow by recursive partitioning, then apply
    cost-complexity pruning."""
    enc = EncodedTable(table, labels, loss.k)
    root, grown = _grow(enc, loss, params)
    root, steps = _prune(root, loss, params.cp)
    tree = DecisionTree(
        root=root,
        params=params,
        k=loss.k,
        feature_names=table.names,
        feature_kinds=table.kinds,
        feature_levels=dict(zip(enc.cat_names, enc.levels)),
        n_rows=table.n_rows,
        nodes_grown=grown,
        candidates_scanned=enc.candidates_scanned,
        prune_steps=steps,
    )
    tree.depth, tree.leaf_count = _summary(tree.root)
    return tree


# ---------------------------------------------------------------------------
# Prediction
# ---------------------------------------------------------------------------

def _majority_side(node: Internal) -> Node:
    return node.left if node.left.n >= node.right.n else node.right


def predict(tree: DecisionTree, table: FeatureTable) -> np.ndarray:
    """Vectorized prediction; missing values route to the larger child."""
    for name, kind in zip(tree.feature_names, tree.feature_kinds):
        if name not in table.names:
            raise InvalidArgument(f"feature {name!r} missing from prediction data")
        if table.kind(name) != kind:
            raise InvalidArgument(f"feature {name!r} kind mismatch")
    out = np.empty(table.n_rows, dtype=np.int64)

    def route(node: Node, idx: np.ndarray):
        if isinstance(node, Leaf):
            out[idx] = node.label
            return
        col = table.column(node.feature)[idx]
        if node.kind == NUMERIC:
            vals = col.astype(np.float64)
            missing = np.isnan(vals)
            go_left = ~missing & (vals < node.threshold)
        else:
            missing = np.array([v is None for v in col], dtype=bool)
            cat_set = set(node.categories)
            go_left = np.array(
                [(v in cat_set) if v is not None else False for v in col], dtype=bool
            )
        major_left = _majority_side(node) is node.left
        left_sel = go_left | (missing & major_left)
        route(node.left, idx[left_sel])
        route(node.right, idx[~left_sel])

    route(tree.root, np.arange(table.n_rows))
    return out


# ---------------------------------------------------------------------------
# Importance and rule extraction
# ---------------------------------------------------------------------------

def variable_importance(tree: DecisionTree) -> list[tuple[str, float]]:
    """Total impurity decrease credited to each feature, descending; unused
    features are omitted."""
    scores: dict[str, float] = {}

    def walk(node: Node):
        if isinstance(node, Internal):
            scores[node.feature] = scores.get(node.feature, 0.0) + node.decrease
            walk(node.left)
            walk(node.right)

    walk(tree.root)
    order = {name: i for i, name in enumerate(tree.feature_names)}
    return sorted(scores.items(), key=lambda kv: (-kv[1], order[kv[0]]))


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

    def render(self) -> str:
        cond = " AND ".join(c.render() for c in self.conditions) if self.conditions else "always"
        return f"{cond} -> class {self.label} (n={self.support}, cost={self.expected_cost:.4f})"


def extract_rules(tree: DecisionTree) -> list[LeafRule]:
    """One rule per leaf: the root-to-leaf conditions with redundant bounds
    on the same feature merged to the tightest. Rules partition the space of
    complete records over the training feature levels."""
    rules: list[LeafRule] = []
    order = {name: i for i, name in enumerate(tree.feature_names)}

    def walk(node: Node, bounds: dict, cats: dict):
        if isinstance(node, Leaf):
            conditions = []
            for name in sorted(set(bounds) | set(cats), key=order.get):
                if name in bounds:
                    lo, hi = bounds[name]
                    conditions.append(RuleCondition(name, NUMERIC, lo=lo, hi=hi))
                else:
                    conditions.append(
                        RuleCondition(name, CATEGORICAL, categories=tuple(sorted(cats[name])))
                    )
            rules.append(
                LeafRule(tuple(conditions), node.label, node.n, node.expected_cost)
            )
            return
        if node.kind == NUMERIC:
            lo, hi = bounds.get(node.feature, (-math.inf, math.inf))
            left_bounds = {**bounds, node.feature: (lo, min(hi, node.threshold))}
            right_bounds = {**bounds, node.feature: (max(lo, node.threshold), hi)}
            walk(node.left, left_bounds, cats)
            walk(node.right, right_bounds, cats)
        else:
            allowed = cats.get(node.feature, frozenset(tree.feature_levels[node.feature]))
            split_set = frozenset(node.categories)
            walk(node.left, bounds, {**cats, node.feature: allowed & split_set})
            walk(node.right, bounds, {**cats, node.feature: allowed - split_set})

    walk(tree.root, {}, {})
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
                vals = col.astype(np.float64)
                mask &= (vals >= cond.lo) & (vals < cond.hi)
            else:
                allowed = set(cond.categories)
                mask &= np.array([v in allowed for v in col], dtype=bool)
        out[mask] = rule.label
        matched += mask
    if not np.all(matched == 1):
        bad = int(np.flatnonzero(matched != 1)[0])
        raise InvalidArgument(f"record {bad} matched {int(matched[bad])} rules, expected 1")
    return out


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def _node_to_dict(node: Node) -> dict:
    if isinstance(node, Leaf):
        return {
            "type": "leaf",
            "label": node.label,
            "n": node.n,
            "counts": [int(c) for c in node.class_counts],
            "expected_cost": node.expected_cost,
        }
    d = {
        "type": "internal",
        "feature": node.feature,
        "kind": node.kind,
        "n": node.n,
        "counts": [int(c) for c in node.class_counts],
        "impurity": node.impurity,
        "decrease": node.decrease,
        "left": _node_to_dict(node.left),
        "right": _node_to_dict(node.right),
    }
    if node.kind == NUMERIC:
        d["threshold"] = node.threshold
    else:
        d["categories"] = list(node.categories)
    return d


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
        "root": _node_to_dict(tree.root),
    }
    return json.dumps(doc, indent=2) + "\n"


def _node_from_dict(d: dict, k: int, path: str, depth: int = 0) -> Node:
    if depth > MAX_DEPTH:
        raise TreeFormatError(f"{path}: node deeper than {MAX_DEPTH} split levels")
    try:
        node_type = d["type"]
        counts = np.asarray(d["counts"], dtype=np.float64)
        if len(counts) != k:
            raise TreeFormatError(f"{path}: counts length {len(counts)} != k {k}")
        if node_type == "leaf":
            return Leaf(
                label=int(d["label"]),
                n=int(d["n"]),
                class_counts=counts,
                expected_cost=float(d["expected_cost"]),
            )
        if node_type == "internal":
            kind = d["kind"]
            return Internal(
                feature=str(d["feature"]),
                kind=kind,
                threshold=float(d["threshold"]) if kind == NUMERIC else None,
                categories=tuple(d["categories"]) if kind != NUMERIC else None,
                left=_node_from_dict(d["left"], k, path + ".left", depth + 1),
                right=_node_from_dict(d["right"], k, path + ".right", depth + 1),
                n=int(d["n"]),
                class_counts=counts,
                impurity=float(d["impurity"]),
                decrease=float(d["decrease"]),
            )
        raise TreeFormatError(f"{path}: unknown node type {node_type!r}")
    except KeyError as e:
        raise TreeFormatError(f"{path}: missing field {e}")
    except (TypeError, ValueError) as e:
        raise TreeFormatError(f"{path}: {e}")


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
        schema = doc["schema"]
        names = tuple(str(c["name"]) for c in schema)
        kinds = tuple(str(c["kind"]) for c in schema)
        levels = {name: tuple(lv) for name, lv in doc["levels"].items()}
        params = TreeParams.from_dict(doc["params"])
        summary = doc["summary"]
        tree = DecisionTree(
            root=_node_from_dict(doc["root"], k, "root"),
            params=params,
            k=k,
            feature_names=names,
            feature_kinds=kinds,
            feature_levels=levels,
            n_rows=int(summary["n"]),
            depth=int(summary["depth"]),
            leaf_count=int(summary["leaf_count"]),
        )
    except KeyError as e:
        raise TreeFormatError(f"tree document missing field {e}")
    except (TypeError, ValueError, InvalidArgument) as e:
        raise TreeFormatError(f"tree document malformed: {e}")
    return tree
