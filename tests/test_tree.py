import ast
import hashlib
import json
import math
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import casemix.tree
from casemix.cohort import CohortConfig, generate_cohort, inject_missingness
from casemix.domain import CostMatrix, linear_cost_matrix, zero_one_cost_matrix
from casemix.errors import InvalidArgument, TreeFormatError
from casemix.pipeline import PipelineConfig, run_pipeline
from casemix.tree import (
    DecisionTree,
    EncodedTable,
    FeatureTable,
    MAX_DEPTH,
    TreeParams,
    best_split,
    build_tree,
    classify_with_rules,
    deserialize_tree,
    extract_rules,
    gini_loss_impurity,
    leaf_label,
    predict,
    serialize_tree,
    variable_importance,
)

UNRESTRICTED = TreeParams(min_split=2, min_leaf=1, max_depth=30, cp=0.0)


def search(table: FeatureTable, labels, loss: CostMatrix, params: TreeParams):
    """best_split at the root node of a freshly encoded table."""
    enc = EncodedTable(table, labels, loss.k)
    counts = np.bincount(enc.y0, minlength=loss.k).astype(np.float64)
    parent_q = float(counts @ loss.entries @ counts)
    return best_split(enc, 0, table.n_rows, counts, parent_q, loss, params)


def numeric_table(**columns) -> FeatureTable:
    return FeatureTable.from_items([(n, "numeric", v) for n, v in columns.items()])


def brute_force_leaf_label(counts, loss: CostMatrix):
    best_k, best_cost = None, None
    for k in range(1, loss.k + 1):
        cost = sum(counts[i] * loss.entries[i, k - 1] for i in range(loss.k))
        if best_cost is None or cost < best_cost:
            best_k, best_cost = k, cost
    return best_k, best_cost / sum(counts)


def brute_force_gini(counts, loss: CostMatrix):
    n = sum(counts)
    total = 0.0
    for i in range(loss.k):
        for j in range(loss.k):
            if i != j:
                total += loss.entries[i, j] * (counts[i] / n) * (counts[j] / n)
    return total


def model_root(tree: DecisionTree) -> dict:
    """The tree's root node as nested dicts, read from its serialized form."""
    return json.loads(serialize_tree(tree))["root"]


def preorder(node: dict):
    stack = [node]
    while stack:
        nd = stack.pop()
        yield nd
        if nd["type"] == "internal":
            stack.extend((nd["right"], nd["left"]))


def exact_q_over_n(counts, L) -> Fraction:
    """Q/n = n*I for integer class counts c and an integer loss matrix L,
    with Q = c^T L c, in rational arithmetic."""
    c = [int(v) for v in counts]
    q = sum(c[i] * int(L[i][j]) * c[j] for i in range(len(c)) for j in range(len(c)))
    return Fraction(q, sum(c))


def tree_risk(tree: DecisionTree, loss: CostMatrix) -> float:
    """Total expected misclassification cost of the tree's leaf labeling."""
    return sum(
        float(np.asarray(nd["counts"]) @ loss.entries[:, nd["label"] - 1])
        for nd in preorder(model_root(tree)) if nd["type"] == "leaf"
    )


class TestGiniLossImpurity:
    def test_pure_node_zero(self):
        assert gini_loss_impurity([10, 0, 0], linear_cost_matrix(3)) == 0.0

    def test_two_class_half(self):
        assert gini_loss_impurity([1, 1], zero_one_cost_matrix(2)) == pytest.approx(0.5)

    def test_hand_computed_linear(self):
        # counts [1,0,1], linear 3-class: 2 * (0.5 * 0.5 * 2) = 1.0
        assert gini_loss_impurity([1, 0, 1], linear_cost_matrix(3)) == pytest.approx(1.0)

    def test_all_zero_rejected(self):
        with pytest.raises(InvalidArgument):
            gini_loss_impurity([0, 0], zero_one_cost_matrix(2))

    def test_matches_brute_force(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            k = int(rng.integers(2, 7))
            counts = rng.integers(0, 15, size=k)
            if counts.sum() == 0:
                counts[0] = 1
            entries = rng.uniform(0, 5, size=(k, k))
            np.fill_diagonal(entries, 0.0)
            loss = CostMatrix(entries)
            assert gini_loss_impurity(counts, loss) == pytest.approx(
                brute_force_gini(counts, loss), abs=1e-12
            )

    def test_zero_one_reduces_to_standard_gini(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            k = int(rng.integers(2, 8))
            counts = rng.integers(0, 20, size=k)
            if counts.sum() == 0:
                counts[1] = 3
            p = counts / counts.sum()
            expected = 1.0 - float((p**2).sum())
            got = gini_loss_impurity(counts, zero_one_cost_matrix(k))
            assert abs(got - expected) <= 1e-12


class TestLeafLabel:
    def test_pure(self):
        assert leaf_label([10, 0, 0], linear_cost_matrix(3)) == (1, 0.0)

    def test_cost_sensitivity_vs_majority(self):
        # [3,1,3]: linear loss picks the middle class, 0-1 loss the first.
        label_lin, cost_lin = leaf_label([3, 1, 3], linear_cost_matrix(3))
        assert label_lin == 2 and cost_lin == pytest.approx(6 / 7)
        label_01, _ = leaf_label([3, 1, 3], zero_one_cost_matrix(3))
        assert label_01 == 1

    def test_tie_breaks_low_rank(self):
        assert leaf_label([5, 5], zero_one_cost_matrix(2))[0] == 1

    def test_matches_brute_force(self):
        rng = np.random.default_rng(31)
        for _ in range(300):
            k = int(rng.integers(2, 7))
            counts = rng.integers(0, 12, size=k)
            if counts.sum() == 0:
                counts[-1] = 2
            entries = rng.integers(0, 6, size=(k, k)).astype(float)
            np.fill_diagonal(entries, 0.0)
            loss = CostMatrix(entries)
            label, cost = leaf_label(counts, loss)
            b_label, b_cost = brute_force_leaf_label(counts, loss)
            assert label == b_label
            assert cost == pytest.approx(b_cost)


class TestBestSplit:
    def test_single_class_no_split(self):
        table = numeric_table(x=[1.0, 2.0, 3.0, 4.0])
        assert search(table, [2, 2, 2, 2], zero_one_cost_matrix(3), UNRESTRICTED) is None

    def test_hand_enumerated_threshold(self):
        table = numeric_table(x=[1.0, 2.0, 3.0, 4.0])
        split = search(table, [1, 1, 2, 2], zero_one_cost_matrix(2), UNRESTRICTED)
        assert split.feature == "x"
        assert split.threshold == pytest.approx(2.5)
        # decrease equals the full parent impurity term: 4 * 0.5
        assert split.decrease == pytest.approx(2.0)

    def test_informative_feature_wins_under_linear_loss(self):
        # feature a splits {1,3 | 1,3} (useless), feature b splits {1,1 | 3,3}
        table = numeric_table(a=[0.0, 0.0, 1.0, 1.0], b=[0.0, 1.0, 0.0, 1.0])
        labels = [1, 3, 1, 3]
        loss = linear_cost_matrix(3)
        split = search(table, labels, loss, UNRESTRICTED)
        assert split.feature == "b"
        # brute force the two decreases
        parent = 4 * gini_loss_impurity([2, 0, 2], loss)
        decrease_b = parent - 0.0
        assert split.decrease == pytest.approx(decrease_b)

    def test_min_leaf_respected(self):
        table = numeric_table(x=[1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        labels = [1, 1, 1, 1, 1, 2]
        loss = zero_one_cost_matrix(2)
        # unrestricted, the best split isolates the lone 2 at 5.5
        free = search(table, labels, loss, TreeParams(min_split=2, min_leaf=1, max_depth=5, cp=0.0))
        assert free.threshold == pytest.approx(5.5)
        # min_leaf=3 forbids that; only the 3|3 split at 3.5 remains legal
        constrained = search(
            table, labels, loss, TreeParams(min_split=6, min_leaf=3, max_depth=5, cp=0.0)
        )
        assert constrained.threshold == pytest.approx(3.5)
        assert constrained.left_mask.sum() == 3

    def test_tie_breaks_first_feature(self):
        table = numeric_table(b=[0.0, 0.0, 1.0, 1.0], a=[0.0, 0.0, 1.0, 1.0])
        split = search(table, [1, 1, 2, 2], zero_one_cost_matrix(2), UNRESTRICTED)
        assert split.feature == "b"  # schema order, not alphabetical

    def test_categorical_subset_scan(self):
        table = FeatureTable.from_items(
            [("color", "categorical", ["red", "red", "blue", "green", "green", "blue"])]
        )
        labels = [1, 1, 2, 2, 2, 2]
        split = search(table, labels, zero_one_cost_matrix(2), UNRESTRICTED)
        assert split.categories == ("red",) or set(split.categories) == {"blue", "green"}
        assert split.decrease == pytest.approx(6 * gini_loss_impurity([2, 4], zero_one_cost_matrix(2)))

    def test_below_min_split_returns_none(self):
        table = numeric_table(x=[1.0, 2.0])
        params = TreeParams(min_split=4, min_leaf=1, max_depth=5, cp=0.0)
        assert search(table, [1, 2], zero_one_cost_matrix(2), params) is None


class TestBuildTree:
    def test_single_label_single_leaf(self):
        table = numeric_table(x=[1.0, 2.0, 3.0])
        tree = build_tree(table, [2, 2, 2], zero_one_cost_matrix(3), UNRESTRICTED)
        root = model_root(tree)
        assert root["type"] == "leaf"
        assert root["label"] == 2

    def test_xor_style_depth_two(self):
        # unbalanced XOR: quadrant counts 3/1/3/1 give the greedy scan a
        # strictly positive first split, then two pure splits.
        f1 = [0.0] * 4 + [1.0] * 4
        f2 = [0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0]
        labels = [1, 1, 1, 2, 2, 2, 2, 1]
        table = numeric_table(f1=f1, f2=f2)
        tree = build_tree(table, labels, zero_one_cost_matrix(2), UNRESTRICTED)
        assert tree.depth == 2  # two split levels
        assert tree.leaf_count == 4
        assert np.array_equal(predict(tree, table), labels)
        leaves = [r for r in extract_rules(tree)]
        assert all(r.expected_cost == 0.0 for r in leaves)

    def test_max_depth_bounds_split_levels(self):
        rng = np.random.default_rng(13)
        table = numeric_table(x=rng.normal(size=200).tolist())
        labels = rng.integers(1, 5, size=200)
        for max_depth in (1, 2, 4):
            params = TreeParams(min_split=2, min_leaf=1, max_depth=max_depth, cp=0.0)
            tree = build_tree(table, labels, linear_cost_matrix(4), params)
            assert tree.depth <= max_depth
        tree = build_tree(table, labels, linear_cost_matrix(4),
                          TreeParams(min_split=2, min_leaf=1, max_depth=1, cp=0.0))
        assert tree.depth == 1 and tree.leaf_count == 2

    def test_infinite_cp_collapses_to_root_leaf(self):
        rng = np.random.default_rng(4)
        table = numeric_table(x=rng.normal(size=50).tolist())
        labels = rng.integers(1, 4, size=50)
        params = TreeParams(min_split=2, min_leaf=1, max_depth=30, cp=math.inf)
        tree = build_tree(table, labels, linear_cost_matrix(3), params)
        root = model_root(tree)
        assert root["type"] == "leaf"
        counts = np.bincount(labels - 1, minlength=3)
        assert root["label"] == leaf_label(counts, linear_cost_matrix(3))[0]

    def test_memorizes_training_data(self):
        rng = np.random.default_rng(9)
        table = numeric_table(
            x=rng.normal(size=40).tolist(), y=rng.normal(size=40).tolist()
        )
        labels = rng.integers(1, 5, size=40)
        tree = build_tree(table, labels, linear_cost_matrix(4), UNRESTRICTED)
        assert np.array_equal(predict(tree, table), labels)

    def test_empty_rejected(self):
        with pytest.raises(InvalidArgument):
            build_tree(numeric_table(x=[]), [], zero_one_cost_matrix(2), UNRESTRICTED)

    def test_labels_out_of_range(self):
        with pytest.raises(InvalidArgument):
            build_tree(numeric_table(x=[1.0]), [4], zero_one_cost_matrix(3), UNRESTRICTED)

    def test_missing_training_values_rejected(self):
        with pytest.raises(InvalidArgument):
            build_tree(
                numeric_table(x=[1.0, np.nan]), [1, 2], zero_one_cost_matrix(2), UNRESTRICTED
            )

    def test_every_split_decrease_positive(self):
        rng = np.random.default_rng(14)
        table = numeric_table(x=rng.normal(size=80).tolist(), z=rng.normal(size=80).tolist())
        labels = rng.integers(1, 4, size=80)
        tree = build_tree(table, labels, linear_cost_matrix(3), UNRESTRICTED)
        for node in preorder(model_root(tree)):
            if node["type"] == "internal":
                assert node["decrease"] > 0.0
                assert node["left"]["n"] + node["right"]["n"] == node["n"]

    def test_risk_ordering_full_vs_pruned_vs_root(self):
        rng = np.random.default_rng(19)
        loss = linear_cost_matrix(4)
        table = numeric_table(x=rng.normal(size=120).tolist(), y=rng.normal(size=120).tolist())
        labels = rng.integers(1, 5, size=120)
        full = build_tree(table, labels, loss, TreeParams(min_split=4, min_leaf=2, max_depth=20, cp=0.0))
        pruned = build_tree(table, labels, loss, TreeParams(min_split=4, min_leaf=2, max_depth=20, cp=0.05))
        counts = np.bincount(labels - 1, minlength=4).astype(float)
        root_risk = float((counts @ loss.entries).min())
        assert tree_risk(full, loss) <= tree_risk(pruned, loss) + 1e-9
        assert tree_risk(pruned, loss) <= root_risk + 1e-9

    def test_leaf_count_non_increasing_in_cp(self):
        rng = np.random.default_rng(29)
        loss = linear_cost_matrix(5)
        table = numeric_table(x=rng.normal(size=150).tolist(), y=rng.normal(size=150).tolist())
        labels = np.clip(
            (2.5 + 1.2 * np.asarray(table.column("x")) + rng.normal(0, 0.8, 150)).round(), 1, 5
        ).astype(int)
        leaf_counts = []
        for cp in (0.0, 0.001, 0.01, 0.05, 0.2, math.inf):
            params = TreeParams(min_split=4, min_leaf=2, max_depth=20, cp=cp)
            leaf_counts.append(build_tree(table, labels, loss, params).leaf_count)
        assert leaf_counts == sorted(leaf_counts, reverse=True)
        assert leaf_counts[-1] == 1

    def test_many_level_categorical_ordered_scan(self):
        # 15 levels force the ordered-prefix scan; levels are constructed so
        # the optimal split is a prefix of the mean-rank ordering.
        rng = np.random.default_rng(61)
        levels = [f"lvl{i:02d}" for i in range(15)]
        codes = rng.integers(0, 15, size=600)
        col = [levels[c] for c in codes]
        labels = np.where(codes < 8, 1, 3)
        table = FeatureTable.from_items([("cat", "categorical", col)])
        loss = linear_cost_matrix(3)
        split = search(table, labels, loss, UNRESTRICTED)
        assert split is not None
        assert set(split.categories) == {f"lvl{i:02d}" for i in range(8)} or set(
            split.categories
        ) == {f"lvl{i:02d}" for i in range(8, 15)}
        # the split is pure, so the decrease equals the parent impurity term
        counts = np.bincount(labels - 1, minlength=3)
        assert split.decrease == pytest.approx(600 * gini_loss_impurity(counts, loss))

    def test_pruned_leaves_are_collapses_of_full_tree_nodes(self):
        rng = np.random.default_rng(71)
        table = numeric_table(x=rng.normal(size=200).tolist(), y=rng.normal(size=200).tolist())
        labels = np.clip(
            (2.0 + 1.5 * np.asarray(table.column("x")) + rng.normal(0, 1.0, 200)).round(), 1, 4
        ).astype(int)
        loss = linear_cost_matrix(4)
        full = build_tree(table, labels, loss, TreeParams(min_split=4, min_leaf=2, max_depth=20, cp=0.0))
        pruned = build_tree(table, labels, loss, TreeParams(min_split=4, min_leaf=2, max_depth=20, cp=0.02))

        def signatures(node, path=()):
            yield path, tuple(node["counts"])
            if node["type"] == "internal":
                yield from signatures(node["left"], path + ("L",))
                yield from signatures(node["right"], path + ("R",))

        full_sigs = dict(signatures(model_root(full)))
        for path, counts in signatures(model_root(pruned)):
            assert full_sigs.get(path) == counts  # same node, possibly collapsed below

    def test_monotone_transform_invariance_on_training_points(self):
        rng = np.random.default_rng(33)
        x = rng.normal(size=100)
        z = rng.uniform(0, 5, size=100)
        labels = rng.integers(1, 4, size=100)
        params = TreeParams(min_split=6, min_leaf=3, max_depth=12, cp=0.0)
        loss = linear_cost_matrix(3)
        t1 = build_tree(numeric_table(x=x.tolist(), z=z.tolist()), labels, loss, params)
        t2 = build_tree(
            numeric_table(x=(x**3).tolist(), z=np.expm1(z).tolist()), labels, loss, params
        )
        p1 = predict(t1, numeric_table(x=x.tolist(), z=z.tolist()))
        p2 = predict(t2, numeric_table(x=(x**3).tolist(), z=np.expm1(z).tolist()))
        assert np.array_equal(p1, p2)


def hand_built_tree():
    """Numeric split on x at 5, left child split on x at 3; categorical split
    on c for the right branch. Read from a hand-written model document to
    pin routing semantics."""

    def leaf(label, n):
        return {"type": "leaf", "label": label, "n": n, "counts": [0, 0, 0], "expected_cost": 0.0}

    def internal(feature, kind, n, impurity, decrease, left, right, **split):
        return {"type": "internal", "feature": feature, "kind": kind, "n": n, "counts": [0, 0, 0],
                "impurity": impurity, "decrease": decrease, "left": left, "right": right, **split}

    root = internal(
        "x", "numeric", 12, 0.6, 2.0, threshold=5.0,
        left=internal("x", "numeric", 8, 0.5, 1.0, leaf(1, 6), leaf(2, 2), threshold=3.0),
        right=internal("c", "categorical", 4, 0.5, 1.0, leaf(2, 1), leaf(3, 3),
                       categories=["a", "b"]),
    )
    return deserialize_tree(json.dumps({
        "version": "1", "k": 3, "params": UNRESTRICTED.to_dict(),
        "schema": [{"name": "x", "kind": "numeric"}, {"name": "c", "kind": "categorical"}],
        "levels": {"c": ["a", "b", "z"]},
        "summary": {"n": 12, "depth": 2, "leaf_count": 4},
        "root": root,
    }))


def predict_one(tree: DecisionTree, x, c) -> int:
    """predict on a one-row table; None (or nan) is a missing value."""
    table = FeatureTable.from_items([("x", "numeric", [x]), ("c", "categorical", [c])])
    return int(predict(tree, table)[0])


class TestPredict:
    def test_routing(self):
        tree = hand_built_tree()
        assert predict_one(tree, 1.0, "a") == 1
        assert predict_one(tree, 4.0, "a") == 2
        assert predict_one(tree, 9.0, "a") == 2
        assert predict_one(tree, 9.0, "z") == 3
        assert predict_one(tree, 9.0, "never seen") == 3  # unseen levels go right

    def test_missing_routes_to_larger_child(self):
        tree = hand_built_tree()
        # at root, left (n=8) >= right (n=4); inside left, leaf n=6 >= 2
        assert predict_one(tree, None, "a") == 1
        assert predict_one(tree, float("nan"), "a") == 1
        # right branch: missing categorical goes to larger child (n=3 leaf)
        assert predict_one(tree, 9.0, None) == 3

    def test_bulk_matches_single(self):
        tree = hand_built_tree()
        table = FeatureTable.from_items(
            [
                ("x", "numeric", [1.0, 4.0, 9.0, 9.0, np.nan]),
                ("c", "categorical", ["a", "b", "b", "z", "a"]),
            ]
        )
        out = predict(tree, table)
        singles = [predict_one(tree, x, c) for x, c in zip(table.column("x"), table.column("c"))]
        assert out.tolist() == singles

    def test_schema_mismatch_rejected(self):
        tree = hand_built_tree()
        with pytest.raises(InvalidArgument):
            predict(tree, numeric_table(x=[1.0]))


class TestImportanceAndRules:
    def test_single_leaf_empty_importance(self):
        table = numeric_table(x=[1.0, 2.0])
        tree = build_tree(table, [1, 1], zero_one_cost_matrix(2), UNRESTRICTED)
        assert variable_importance(tree) == []
        rules = extract_rules(tree)
        assert len(rules) == 1 and rules[0].conditions == ()

    def test_one_split_importance(self):
        table = numeric_table(x=[1.0, 2.0, 3.0, 4.0])
        tree = build_tree(table, [1, 1, 2, 2], zero_one_cost_matrix(2), UNRESTRICTED)
        imp = variable_importance(tree)
        assert len(imp) == 1
        assert imp[0][0] == "x"
        assert imp[0][1] == pytest.approx(2.0)

    def test_redundant_bounds_merged(self):
        tree = hand_built_tree()
        rules = extract_rules(tree)
        by_label = {r.label: r for r in rules if len(r.conditions) == 1}
        cond = by_label[1].conditions[0]
        assert (cond.lo, cond.hi) == (-math.inf, 3.0)  # x<5 then x<3 merged to x<3
        cond2 = by_label[2].conditions[0]
        assert (cond2.lo, cond2.hi) == (3.0, 5.0)

    def test_rules_partition_and_reproduce_predict(self):
        rng = np.random.default_rng(41)
        table = FeatureTable.from_items(
            [
                ("x", "numeric", rng.normal(size=200).tolist()),
                ("c", "categorical", rng.choice(["a", "b", "c"], size=200).tolist()),
            ]
        )
        labels = rng.integers(1, 5, size=200)
        tree = build_tree(table, labels, linear_cost_matrix(4),
                          TreeParams(min_split=4, min_leaf=2, max_depth=15, cp=0.0))
        rules = extract_rules(tree)
        assert sum(r.support for r in rules) == 200
        probe = FeatureTable.from_items(
            [
                ("x", "numeric", rng.uniform(-4, 4, size=1000).tolist()),
                ("c", "categorical", rng.choice(["a", "b", "c"], size=1000).tolist()),
            ]
        )
        assert np.array_equal(classify_with_rules(rules, probe), predict(tree, probe))

    def test_rules_classify_empty_table(self):
        # A categorical condition over no rows used to build a float mask and
        # fail on `&=` with a bitwise_and TypeError.
        rules = extract_rules(hand_built_tree())
        empty = FeatureTable.from_items([("x", "numeric", []), ("c", "categorical", [])])
        out = classify_with_rules(rules, empty)
        assert out.dtype == np.int64 and out.shape == (0,)

    def test_rule_rendering(self):
        tree = hand_built_tree()
        text = [r.render() for r in extract_rules(tree)]
        assert any("x < 3" in t and "class 1" in t for t in text)
        assert any("c in {a, b}" in t or "c = " in t for t in text)


class TestSerialization:
    def build(self):
        rng = np.random.default_rng(51)
        table = FeatureTable.from_items(
            [
                ("x", "numeric", rng.normal(size=120).tolist()),
                ("c", "categorical", rng.choice(["u", "v", "w"], size=120).tolist()),
            ]
        )
        labels = rng.integers(1, 4, size=120)
        return (
            build_tree(table, labels, linear_cost_matrix(3),
                       TreeParams(min_split=6, min_leaf=3, max_depth=10, cp=0.001)),
            table,
        )

    def test_round_trip_predicts_identically(self):
        tree, _ = self.build()
        clone = deserialize_tree(serialize_tree(tree))
        rng = np.random.default_rng(52)
        probe = FeatureTable.from_items(
            [
                ("x", "numeric", rng.uniform(-5, 5, size=1000).tolist()),
                ("c", "categorical", rng.choice(["u", "v", "w", "other"], size=1000).tolist()),
            ]
        )
        assert np.array_equal(predict(clone, probe), predict(tree, probe))
        assert serialize_tree(clone) == serialize_tree(tree)

    def test_left_sets_wider_than_a_machine_word(self):
        # 64 levels, the odd ones left: the split's bitmask sets bit 63, past
        # any signed 64-bit integer, and spans more bits than a float holds.
        rng = np.random.default_rng(53)
        codes = rng.integers(0, 64, size=2000)
        table = FeatureTable.from_items([("c", "categorical", [f"l{c:02d}" for c in codes])])
        labels = 2 - codes % 2
        tree = build_tree(table, labels, linear_cost_matrix(2), UNRESTRICTED)
        text = serialize_tree(tree)
        assert serialize_tree(deserialize_tree(text)) == text
        assert np.array_equal(predict(deserialize_tree(text), table), labels)
        assert np.array_equal(classify_with_rules(extract_rules(tree), table), labels)

    def test_truncated_document(self):
        tree, _ = self.build()
        text = serialize_tree(tree)
        with pytest.raises(TreeFormatError, match="parse error"):
            deserialize_tree(text[: len(text) // 2])

    def test_version_mismatch(self):
        tree, _ = self.build()
        doc = json.loads(serialize_tree(tree))
        doc["version"] = "99"
        with pytest.raises(TreeFormatError, match="version"):
            deserialize_tree(json.dumps(doc))

    def test_missing_field_reports_path(self):
        tree, _ = self.build()
        doc = json.loads(serialize_tree(tree))
        del doc["root"]["counts"]
        with pytest.raises(TreeFormatError, match="root"):
            deserialize_tree(json.dumps(doc))

    def chain_document(self, depth: int) -> str:
        """A model whose leftmost leaf sits ``depth`` split levels deep."""
        tree, _ = self.build()
        doc = json.loads(serialize_tree(tree))
        leaf = doc["root"]
        while leaf["type"] == "internal":
            leaf = leaf["left"]
        node = leaf
        for _ in range(depth):
            node = dict(doc["root"], left=node, right=leaf)
        doc["root"] = node
        doc["summary"].update(depth=depth, leaf_count=depth + 1)
        return json.dumps(doc)

    def test_depth_cap(self):
        assert model_root(deserialize_tree(self.chain_document(MAX_DEPTH)))["n"] > 0
        with pytest.raises(TreeFormatError, match="deeper than 30"):
            deserialize_tree(self.chain_document(MAX_DEPTH + 1))

    def test_max_depth_param_over_cap_rejected(self):
        tree, _ = self.build()
        doc = json.loads(serialize_tree(tree))
        doc["params"]["max_depth"] = MAX_DEPTH + 1
        with pytest.raises(TreeFormatError, match="max_depth"):
            deserialize_tree(json.dumps(doc))

    @pytest.mark.parametrize("field, delta", [("n", 1), ("depth", 1), ("depth", -1),
                                              ("leaf_count", 1), ("leaf_count", -1)])
    def test_summary_at_odds_with_the_nodes_rejected(self, field, delta):
        tree, _ = self.build()
        doc = json.loads(serialize_tree(tree))
        doc["summary"][field] += delta
        with pytest.raises(TreeFormatError, match="summary must match the nodes"):
            deserialize_tree(json.dumps(doc))

    def test_nesting_past_the_recursion_limit_rejected(self):
        text = '{"version": "1", "root": ' + '{"left": ' * 5000 + "{}" + "}" * 5001
        with pytest.raises(TreeFormatError, match="nests too deeply"):
            deserialize_tree(text)


class TestParams:
    def test_min_split_vs_min_leaf(self):
        with pytest.raises(InvalidArgument):
            TreeParams(min_split=5, min_leaf=3)

    def test_negative_cp(self):
        with pytest.raises(InvalidArgument):
            TreeParams(cp=-0.1)

    @pytest.mark.parametrize("value", [math.nan, True, False, "0.5", None, [0.5]])
    def test_cp_must_be_a_number(self, value):
        """json.loads reads NaN, which compares false with every threshold."""
        doc = dict(TreeParams().to_dict(), cp=value)
        with pytest.raises(InvalidArgument, match="cp must be a number"):
            TreeParams.from_dict(doc)
        with pytest.raises(InvalidArgument, match="cp must be a number"):
            TreeParams(cp=value)

    def test_cp_kept_as_float(self):
        assert TreeParams(cp=0).to_dict()["cp"] == 0.0
        assert isinstance(TreeParams.from_dict(dict(TreeParams().to_dict(), cp=1)).cp, float)
        assert TreeParams(cp=math.inf).cp == math.inf

    def test_max_depth_capped(self):
        assert TreeParams(max_depth=MAX_DEPTH).max_depth == 30
        with pytest.raises(InvalidArgument):
            TreeParams(max_depth=MAX_DEPTH + 1)

    @pytest.mark.parametrize("field, value", [
        ("min_split", 20.9), ("min_split", 20.0), ("min_leaf", True), ("min_leaf", 7.0),
        ("max_depth", 12.5), ("max_depth", False), ("min_split", "20"),
    ])
    def test_non_integer_fields_rejected(self, field, value):
        """from_dict refuses a float or bool rather than truncating it."""
        doc = dict(TreeParams().to_dict(), **{field: value})
        with pytest.raises(InvalidArgument, match=f"{field} must be an integer"):
            TreeParams.from_dict(doc)
        with pytest.raises(InvalidArgument, match=f"{field} must be an integer"):
            TreeParams(**doc)

    @given(st.integers(min_value=1, max_value=10), st.integers(min_value=2, max_value=40))
    def test_valid_combinations(self, min_leaf, extra):
        params = TreeParams(min_split=2 * min_leaf + extra, min_leaf=min_leaf)
        assert params.min_split >= 2 * params.min_leaf


# ---------------------------------------------------------------------------
# Growth routing, pinned trees and the pruning reference
# ---------------------------------------------------------------------------

def assert_predict_reproduces_node_counts(tree: DecisionTree, table: FeatureTable, labels, k):
    """Relabel each leaf with its own id, route the training table through
    predict, and check every node's n and class counts against the rows
    that reach it; every split must send rows both ways."""
    doc = json.loads(serialize_tree(tree))
    leaves = [nd for nd in preorder(doc["root"]) if nd["type"] == "leaf"]
    for i, leaf in enumerate(leaves):
        leaf["label"] = i + 1
    reached = predict(deserialize_tree(json.dumps(doc)), table)
    y0 = np.asarray(labels) - 1

    def leaf_ids(nd):
        return [leaf["label"] for leaf in preorder(nd) if leaf["type"] == "leaf"]

    for nd in preorder(doc["root"]):
        rows = np.isin(reached, leaf_ids(nd))
        assert nd["n"] == rows.sum()
        assert np.array_equal(nd["counts"], np.bincount(y0[rows], minlength=k))
        if nd["type"] == "internal":
            assert nd["left"]["n"] > 0 and nd["right"]["n"] > 0


@st.composite
def mixed_training_sets(draw):
    """Numeric columns with repeated values, categoricals with few (<= 4) and
    many (> 10) levels, and oversampling-style duplicated rows. A copy of
    one numeric and one categorical column, and ``x`` again as a categorical
    of at most 7 levels, make exact ties within a kind and across kinds."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(4, 80))
    k = draw(st.integers(2, 5))
    steps = draw(st.integers(1, 6))
    x = rng.integers(0, steps + 1, size=n) * 0.25
    z = np.round(rng.normal(size=n), draw(st.integers(0, 3)))
    few = np.array(["a", "b", "c", "d"])[rng.integers(0, draw(st.integers(1, 4)), size=n)]
    n_many = draw(st.integers(11, 16))
    many = np.array([f"l{i:02d}" for i in range(n_many)])[rng.integers(0, n_many, size=n)]
    signal = x + (few == "a") + rng.normal(0, draw(st.sampled_from([0.1, 1.0])), size=n)
    labels = np.clip(np.floor(signal * k / (signal.max() + 1e-9)) + 1, 1, k).astype(int)
    rows = np.concatenate([np.arange(n), rng.integers(0, n, size=draw(st.integers(0, n)))])
    table = FeatureTable.from_items(
        [
            ("x_level", "categorical", [str(v) for v in x[rows]]),
            ("x", "numeric", x[rows].tolist()),
            ("few", "categorical", few[rows].tolist()),
            ("z", "numeric", z[rows].tolist()),
            ("many", "categorical", many[rows].tolist()),
            ("z_copy", "numeric", z[rows].tolist()),
            ("few_copy", "categorical", few[rows].tolist()),
        ]
    )
    min_leaf = draw(st.integers(1, 3))
    params = TreeParams(
        min_split=2 * min_leaf + draw(st.integers(0, 4)),
        min_leaf=min_leaf,
        max_depth=draw(st.integers(1, 12)),
        cp=draw(st.sampled_from([0.0, 0.01, 0.1])),
    )
    return table, labels[rows], k, params


class TestGrowthRouting:
    @settings(deadline=None, max_examples=60)
    @given(mixed_training_sets())
    def test_predict_reproduces_every_node(self, case):
        table, labels, k, params = case
        tree = build_tree(table, labels, linear_cost_matrix(k), params)
        assert_predict_reproduces_node_counts(tree, table, labels, k)
        text = serialize_tree(tree)
        assert serialize_tree(deserialize_tree(text)) == text
        assert np.array_equal(classify_with_rules(extract_rules(tree), table), predict(tree, table))


class TestSplitChoice:
    """The split search scans each kind of column in its own pass; the
    split it returns is still the first maximum in schema order."""

    @settings(deadline=None, max_examples=80)
    @given(mixed_training_sets())
    def test_first_maximum_over_one_column_searches(self, case):
        table, labels, k, params = case
        loss = linear_cost_matrix(k)
        expected = None
        for name in table.names:
            split = search(table.select([name]), labels, loss, params)
            if split is not None and (expected is None or split.decrease > expected.decrease):
                expected = split
        split = search(table, labels, loss, params)
        if expected is None:
            assert split is None
            return
        assert split.feature == expected.feature
        assert np.float64(split.decrease).tobytes() == np.float64(expected.decrease).tobytes()
        assert np.float64(split.threshold).tobytes() == np.float64(expected.threshold).tobytes()
        assert (split.categories, split.left_set) == (expected.categories, expected.left_set)
        assert np.array_equal(split.left_mask, expected.left_mask)

    @settings(deadline=None, max_examples=60)
    @given(mixed_training_sets(), st.data())
    def test_decreases_match_exact_arithmetic(self, case, data):
        """Under a random integer loss matrix, every candidate's decrease is
        its exact rational value to 1e-12 of the parent's n*I, the size of
        the terms that cancel, and the chosen split's exact decrease is the
        exact maximum to the same tolerance."""
        table, labels, k, params = case
        draws = data.draw(st.lists(st.integers(0, 50), min_size=k * k, max_size=k * k))
        entries = np.array(draws, dtype=np.float64).reshape(k, k)
        np.fill_diagonal(entries, 0.0)
        loss = CostMatrix(entries)
        y0 = np.asarray(labels) - 1
        totals = np.bincount(y0, minlength=k)
        parent = exact_q_over_n(totals, entries)
        tolerance = Fraction(1e-12) * parent

        def exact(counts_left):
            return parent - exact_q_over_n(counts_left, entries) - exact_q_over_n(
                totals - counts_left, entries)

        scored = []
        impurity_terms = casemix.tree._impurity_terms

        def recording(counts_left, node_totals, L):
            terms = impurity_terms(counts_left, node_totals, L)
            scored.extend(zip(counts_left.astype(np.int64), terms))
            return terms

        with mock.patch.object(casemix.tree, "_impurity_terms", recording):
            split = search(table, labels, loss, params)
        parent_term = float(totals @ entries @ totals) / len(y0)  # as best_split scores
        exact_all = []
        for counts_left, terms in scored:
            exact_all.append(exact(counts_left))
            assert abs(Fraction(parent_term - terms) - exact_all[-1]) <= tolerance
        if split is None:
            assert max(exact_all, default=0) <= tolerance
            return
        chosen = exact(np.bincount(y0[split.left_mask], minlength=k))
        assert abs(Fraction(split.decrease) - chosen) <= tolerance
        assert max(exact_all) - chosen <= tolerance

    @pytest.mark.parametrize("block_cells, chunk", [(1, 1), (7, 3), (301, 13), (5, 1024)])
    def test_scan_sizes_do_not_change_the_tree(self, monkeypatch, block_cells, chunk):
        rng = np.random.default_rng(block_cells)
        n, k = 160, 5
        x = rng.integers(0, 9, size=n) * 0.5
        few = rng.choice(["p", "q", "r", "s"], size=n)
        many = rng.choice([f"l{i:02d}" for i in range(13)], size=n)
        labels = np.clip(np.round(x / 4 * k + rng.normal(0, 1.0, n)), 1, k).astype(int)
        table = FeatureTable.from_items([
            ("x_level", "categorical", [str(v) for v in x]),
            ("x", "numeric", x.tolist()), ("few", "categorical", few.tolist()),
            ("z", "numeric", rng.normal(size=n).round(1).tolist()),
            ("many", "categorical", many.tolist()),
            ("x_copy", "numeric", x.tolist()),
        ])
        loss, params = linear_cost_matrix(k), TreeParams(min_split=4, min_leaf=2, cp=0.0)

        def grown():
            tree = build_tree(table, labels, loss, params)
            return serialize_tree(tree), tree.nodes_grown, tree.candidates_scanned, tree.prune_steps

        default = grown()
        monkeypatch.setattr(casemix.tree, "_BLOCK_CELLS", block_cells)
        monkeypatch.setattr(casemix.tree, "_CHUNK", chunk)
        assert grown() == default


#: sha256 of serialize_tree for the pinned small run below, on the exact
#: 1-D k-means labels and the exact integer split criterion; any change to
#: split search, tie-breaks or pruning shows here.
GOLDEN_TREE_SHA256 = {
    "los_days": "76f9f1e8a164c24b7605d6f8f43a265dca091e62fa44fe4140ce4ead4fa50a46",
    "total_cost": "66964a37197f800da91f9981347c191bc999c6956db6e17cb8adbf0563638653",
    "tbsa_pct": "5dcc4059d4194d1833d07dc83bb9eeea81389664268c386de9ae7d6449ecbb6a",
    "final": "df56e6707fa5a3fde8217d63aa821a60c38be29ea5270e4b7d82b94f563024e2",
}

#: structure_sha256 of the same trees, recorded before the split criterion
#: took its exact integer form: that change moved only the low bits of
#: ``decrease``, and no change to how a decrease is computed may move more.
GOLDEN_TREE_STRUCTURE = {
    "los_days": "7a93b8ad16ac19d5a36208bd72807833a08b54eec71160e2d8d7b8cbdb1f4e2c",
    "total_cost": "bd84d357b568c9fcc35159249560071f68a1fdf0af8af53ea5a4cb00530c7ae0",
    "tbsa_pct": "905e1186a39db7312c72c7a8d792ea47b9c74ebdf75a2bd7a20f6615d4b23294",
    "final": "a2c9befd652f271e1f59668a9e9b6cf555b5748e70421cca6c1fa637da3a1692",
}

#: (nodes_grown, candidates_scanned, prune_steps) of each tree of that run.
GOLDEN_TREE_COUNTERS = {
    "los_days": (255, 33829, 36),
    "total_cost": (253, 27741, 44),
    "tbsa_pct": (213, 42153, 16),
    "final": (209, 16294, 25),
}


def structure_sha256(model_text: str) -> str:
    """sha256 of a model document with every node's ``decrease`` removed:
    its splits, thresholds, level sets, counts, impurities and labels."""
    doc = json.loads(model_text)
    for nd in preorder(doc["root"]):
        nd.pop("decrease", None)
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode("utf-8")).hexdigest()


def test_golden_trees_small_run():
    ds = inject_missingness(generate_cohort(CohortConfig(n=1500, seed=11)), 0.2, 7)
    result = run_pipeline(ds, PipelineConfig())
    trees = {**result.factor_trees, "final": result.final_tree}
    digests = {
        name: hashlib.sha256(serialize_tree(tree).encode("utf-8")).hexdigest()
        for name, tree in trees.items()
    }
    structure = {name: structure_sha256(serialize_tree(tree)) for name, tree in trees.items()}
    assert structure == GOLDEN_TREE_STRUCTURE
    assert digests == GOLDEN_TREE_SHA256
    counters = {
        name: (tree.nodes_grown, tree.candidates_scanned, tree.prune_steps)
        for name, tree in trees.items()
    }
    assert counters == GOLDEN_TREE_COUNTERS


def reference_prune(root: dict, loss: CostMatrix, cp: float) -> tuple[dict, int]:
    """Weakest-link pruning of a serialized tree's nested ``root`` dict that
    re-walks the whole tree before every collapse; returns the pruned root
    and the number of collapses."""

    def leaf_risk(nd):
        return float((np.asarray(nd["counts"], dtype=float) @ loss.entries).min())

    def links(root):
        found = []
        counter = [0]

        def walk(nd, parent, side):
            idx = counter[0]
            counter[0] += 1
            if nd["type"] == "leaf":
                return leaf_risk(nd), 1
            rl, cl = walk(nd["left"], nd, "left")
            rr, cr = walk(nd["right"], nd, "right")
            g = max((leaf_risk(nd) - (rl + rr)) / (cl + cr - 1), 0.0)
            found.append((g, idx, nd, parent, side))
            return rl + rr, cl + cr

        walk(root, None, None)
        return found

    threshold = math.inf if math.isinf(cp) else cp * leaf_risk(root)
    steps = 0
    while root["type"] == "internal":
        g, _, node, parent, side = min(links(root), key=lambda t: (t[0], t[1]))
        if not g < threshold:
            break
        label, expected = leaf_label(node["counts"], loss)
        collapsed = {"type": "leaf", "label": label, "n": node["n"], "counts": node["counts"],
                     "expected_cost": expected}
        if parent is None:
            root = collapsed
        else:
            parent[side] = collapsed
        steps += 1
    return root, steps


class TestBuildCounters:
    def test_hand_counted_small_tree(self):
        # root: 3 cuts scanned on x; both children are pure leaves
        tree = build_tree(numeric_table(x=[1.0, 2.0, 3.0, 4.0]), [1, 1, 2, 2],
                          zero_one_cost_matrix(2), UNRESTRICTED)
        assert (tree.nodes_grown, tree.candidates_scanned, tree.prune_steps) == (3, 3, 0)

    def test_counters_stay_out_of_the_model(self):
        tree = build_tree(numeric_table(x=[1.0, 2.0, 3.0, 4.0]), [1, 1, 2, 2],
                          zero_one_cost_matrix(2), UNRESTRICTED)
        clone = deserialize_tree(serialize_tree(tree))
        assert (clone.nodes_grown, clone.candidates_scanned, clone.prune_steps) == (0, 0, 0)
        assert serialize_tree(clone) == serialize_tree(tree)


class TestPruningReference:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_rewalking_pruner(self, seed):
        rng = np.random.default_rng(seed)
        n = 300
        k = int(rng.integers(3, 7))
        x = rng.integers(0, 12, size=n).astype(float)
        z = rng.normal(size=n)
        c = rng.choice(["p", "q", "r"], size=n)
        labels = np.clip(np.round(x / 12 * k + rng.normal(0, 1.0, n)), 1, k).astype(int)
        table = FeatureTable.from_items(
            [("x", "numeric", x.tolist()), ("z", "numeric", z.tolist()),
             ("c", "categorical", c.tolist())]
        )
        loss = linear_cost_matrix(k)
        grow = dict(min_split=4, min_leaf=2, max_depth=20)
        full = build_tree(table, labels, loss, TreeParams(cp=0.0, **grow))
        for cp in (0.001, 0.01, 0.03, 0.1, 0.5, math.inf):
            pruned = build_tree(table, labels, loss, TreeParams(cp=cp, **grow))
            ref_root, ref_steps = reference_prune(model_root(full), loss, cp)
            # Growth stops below the pruning threshold, so fewer nodes are
            # grown and collapsed than in the full tree, to the same result.
            assert pruned.nodes_grown <= full.nodes_grown
            assert model_root(pruned) == ref_root


def test_no_function_in_the_tree_module_calls_itself():
    """Tree walks are loops over node indices or explicit stacks. A function
    that calls itself by name would bring back recursion, and with it the
    interpreter's recursion limit."""
    path = Path(casemix.tree.__file__)
    calls_itself = []
    for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(fn):
            if not isinstance(node, ast.Call):
                continue
            callee = node.func  # f(...), or self.f(...) / cls.f(...) in a method
            if isinstance(callee, ast.Attribute) and isinstance(callee.value, ast.Name) \
                    and callee.value.id in ("self", "cls"):
                name = callee.attr
            else:
                name = getattr(callee, "id", None)
            if name == fn.name:
                calls_itself.append(f"{fn.name} at line {node.lineno}")
    assert calls_itself == []
