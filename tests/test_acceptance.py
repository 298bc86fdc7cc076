"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL
line. Run with `pytest tests/test_acceptance.py -v -s`.

Criterion-level tolerances are pinned here; the pinned run is the n=5000,
seed=42 synthetic cohort under the default pipeline config (see conftest).
"""

import collections
import functools
import hashlib
import json
import math

import numpy as np

from casemix.cli import EXIT_OK, main
from casemix.domain import (
    N_SITES,
    SITE_CODES,
    BurnSiteEntry,
    CostMatrix,
    Depth,
    PatientRecord,
    linear_cost_matrix,
    zero_one_cost_matrix,
)
from casemix.cluster import cluster_factor, kmeans
from casemix.pipeline import dataset_to_table
from casemix.preprocess import preprocess
from casemix.tree import (
    classify_with_rules,
    extract_rules,
    gini_loss_impurity,
    leaf_label,
    predict,
    variable_importance,
    FeatureTable,
)
from tests.records import dataset_of

FACTORS = ("los_days", "total_cost", "tbsa_pct")


def report(criterion: int, name: str, ok: bool) -> bool:
    print(f"ACCEPTANCE {criterion:2d} {'PASS' if ok else 'FAIL'} - {name}")
    return ok


# ---------------------------------------------------------------------------
# 1. Homogeneity win
# ---------------------------------------------------------------------------

def test_criterion_1_homogeneity_win(pinned_run):
    wins_train = pinned_run.comparison_train.dt_wins_all
    wins_test = pinned_run.comparison_test.dt_wins_all
    cost_ratio_train = pinned_run.comparison_train.factors["total_cost"].ratio
    cost_ratio_test = pinned_run.comparison_test.factors["total_cost"].ratio
    runtime_ok = pinned_run.elapsed_s <= 60.0
    ok = (
        wins_train and wins_test
        and cost_ratio_train >= 1.5 and cost_ratio_test >= 1.5
        and runtime_ok
    )
    report(1, "DT groups strictly more homogeneous than HRG on all three factors "
              f"(cost ratio train {cost_ratio_train:.2f} / test {cost_ratio_test:.2f}, "
              f"runtime {pinned_run.elapsed_s:.1f}s)", ok)
    assert wins_train and wins_test
    assert cost_ratio_train >= 1.5
    assert cost_ratio_test >= 1.5
    assert runtime_ok


# ---------------------------------------------------------------------------
# 2. Penalty proximity
# ---------------------------------------------------------------------------

def test_criterion_2_penalty_proximity(pinned_run):
    hist = pinned_run.confusion_test.distance_histogram
    errors = sum(v for d, v in hist.items() if d > 0)
    within3 = sum(v for d, v in hist.items() if 0 < d <= 3)
    frac = within3 / errors if errors else 1.0
    lin, zo = pinned_run.mean_dist_linear, pinned_run.mean_dist_zero_one
    ok = frac >= 0.99 and lin <= zo
    report(2, f"misclassifications within 3 ranks ({frac:.4f} >= 0.99) and linear-loss "
              f"mean distance {lin:.4f} <= zero-one {zo:.4f}", ok)
    assert frac >= 0.99
    assert lin <= zo


# ---------------------------------------------------------------------------
# 3. Cost-sensitivity unit oracle
# ---------------------------------------------------------------------------

def test_criterion_3_leaf_label_oracle():
    ok = leaf_label([3, 1, 3], linear_cost_matrix(3))[0] == 2
    ok &= leaf_label([3, 1, 3], zero_one_cost_matrix(3))[0] == 1
    rng = np.random.default_rng(1003)
    for _ in range(1000):
        k = int(rng.integers(2, 8))
        counts = rng.integers(0, 21, size=k)
        if counts.sum() == 0:
            counts[int(rng.integers(k))] = 1
        entries = rng.integers(0, 10, size=(k, k)).astype(float)
        np.fill_diagonal(entries, 0.0)
        loss = CostMatrix(entries)
        label, _ = leaf_label(counts, loss)
        best_k, best_cost = None, None
        for cand in range(1, k + 1):
            cost = sum(int(counts[i]) * entries[i, cand - 1] for i in range(k))
            if best_cost is None or cost < best_cost:
                best_k, best_cost = cand, cost
        if label != best_k:
            ok = False
            break
    report(3, "leaf labeling matches brute-force expected-cost argmin "
              "(1000 random count/loss draws, exact)", bool(ok))
    assert ok


# ---------------------------------------------------------------------------
# 4. Gini reduction
# ---------------------------------------------------------------------------

def test_criterion_4_gini_reduction():
    rng = np.random.default_rng(1004)
    worst = 0.0
    for _ in range(1000):
        k = int(rng.integers(2, 9))
        counts = rng.integers(0, 25, size=k)
        if counts.sum() == 0:
            counts[0] = 2
        p = counts / counts.sum()
        expected = 1.0 - float((p**2).sum())
        got = gini_loss_impurity(counts, zero_one_cost_matrix(k))
        worst = max(worst, abs(got - expected))
    ok = worst <= 1e-12
    report(4, f"0-1 generalized Gini equals 1 - sum(p^2) (worst |diff| {worst:.2e} <= 1e-12)", ok)
    assert ok


# ---------------------------------------------------------------------------
# 5. k-means optimality at desk scale
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _canonical_partitions(n: int, k: int):
    """All assignments of n items into exactly k nonempty groups, canonical
    (group g appears only after g-1)."""
    out = []
    assign = [0] * n

    def rec(i, maxg):
        if i == n:
            if maxg + 1 == k:
                out.append(tuple(assign))
            return
        for g in range(min(maxg + 1, k - 1) + 1):
            assign[i] = g
            rec(i + 1, max(maxg, g))

    rec(0, -1)
    return tuple(out)


def _partition_optimum(values, k):
    best = math.inf
    for assignment in _canonical_partitions(len(values), k):
        total = 0.0
        for g in range(k):
            member = [values[i] for i in range(len(values)) if assignment[i] == g]
            mean = sum(member) / len(member)
            total += sum((x - mean) ** 2 for x in member)
        best = min(best, total)
    return best


def test_criterion_5_kmeans_optimality():
    rng = np.random.default_rng(1005)
    ok = True
    for trial in range(100):
        n = int(rng.integers(2, 9))
        k = int(rng.integers(1, min(n, 3) + 1))
        vals = np.round(rng.uniform(0, 10, size=n), 3)
        while len(np.unique(vals)) < k:
            vals = np.round(rng.uniform(0, 10, size=n), 3)
        res = kmeans(vals, k)
        opt = _partition_optimum(list(vals), k)
        if abs(res.inertia - opt) > 1e-9:
            ok = False
            break
        order = np.argsort(vals, kind="stable")
        runs = []
        for c in res.assignments[order]:
            if not runs or runs[-1] != c:
                runs.append(int(c))
        if len(set(runs)) != len(runs):
            ok = False
            break
    report(5, "exact 1-D k-means attains the brute-force partition optimum "
              "(100 draws, 1e-9) with contiguous 1-D intervals", ok)
    assert ok


# ---------------------------------------------------------------------------
# 6. Ranked-class monotonicity
# ---------------------------------------------------------------------------

def test_criterion_6_rank_monotonicity(pinned_run):
    result = pinned_run.result
    ok = True
    for factor in FACTORS:
        values = result.preprocessed.factor_values(factor)
        means = [
            values[result.final_labels == r].mean()
            for r in range(1, pinned_run.config.k + 1)
        ]
        if not all(b >= a for a, b in zip(means, means[1:])):
            ok = False
    # engineered factor ranks monotone in raw values, exact
    rng = np.random.default_rng(1006)
    for _ in range(20):
        vals = rng.gamma(2.0, 10.0, size=200)
        ranks = cluster_factor(vals, k=7)
        order = np.argsort(vals, kind="stable")
        if not np.all(np.diff(ranks[order]) >= 0):
            ok = False
    report(6, "per-group factor means non-decreasing in final rank; factor ranks "
              "monotone in raw values (exact)", ok)
    assert ok


# ---------------------------------------------------------------------------
# 7. Rule fidelity and variable importance
# ---------------------------------------------------------------------------

def test_criterion_7_rule_fidelity(pinned_run):
    tree = pinned_run.result.final_tree
    table = dataset_to_table(pinned_run.result.preprocessed).select(tree.feature_names)
    rng = np.random.default_rng(1007)
    items = []
    for name, kind in zip(tree.feature_names, tree.feature_kinds):
        col = table.column(name)
        if kind == "numeric":
            vals = col.astype(np.float64)
            lo, hi = float(vals.min()), float(vals.max())
            pad = 0.1 * (hi - lo) + 1e-6
            items.append((name, "numeric", rng.uniform(lo - pad, hi + pad, size=10_000).tolist()))
        else:
            levels = list(tree.feature_levels[name])
            items.append((name, "categorical", rng.choice(levels, size=10_000).tolist()))
    probe = FeatureTable.from_items(items)
    rules = extract_rules(tree)
    mismatches = int((classify_with_rules(rules, probe) != predict(tree, probe)).sum())
    top3 = {name for name, _ in variable_importance(tree)[:3]}
    expected = {"los_days", "tbsa_pct", "theatre_visits"}
    ok = mismatches == 0 and top3 == expected
    report(7, f"extracted rules reproduce predict on 10,000 random records "
              f"({mismatches} mismatches); top-3 importances {sorted(top3)}", ok)
    assert mismatches == 0
    assert top3 == expected


# ---------------------------------------------------------------------------
# 8. Determinism & replay
# ---------------------------------------------------------------------------

def _hashes(root, skip_manifests=True):
    out = {}
    for p in sorted(root.rglob("*")):
        if p.is_file():
            if skip_manifests and p.name.endswith("manifest.json"):
                continue
            out[str(p.relative_to(root))] = hashlib.sha256(p.read_bytes()).hexdigest()
    return out


def test_criterion_8_determinism(tmp_path):
    config = {
        "cohort": {"n": 600, "seed": 42},
        "pipeline": {"k": 13, "seeds": {"clustering": 1, "split": 2, "oversample": 3}},
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config), encoding="utf-8")
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    code_a = main(["all", "--config", str(cfg), "--out", str(out_a)])
    code_b = main(["all", "--config", str(cfg), "--out", str(out_b)])
    same = _hashes(out_a) == _hashes(out_b)
    ok = code_a == EXIT_OK and code_b == EXIT_OK and same
    report(8, "two `all` runs produce byte-identical artifact "
              "directories (manifests carry wall time and are excluded)", ok)
    assert code_a == EXIT_OK and code_b == EXIT_OK
    assert same


# ---------------------------------------------------------------------------
# 9. Preprocessing conformance
# ---------------------------------------------------------------------------

def _fixture_record(rid, los, cost, zero_sites=False):
    sites = []
    for i in range(N_SITES):
        if zero_sites or i > 0:
            sites.append(BurnSiteEntry(SITE_CODES[i], 0.0, Depth.NONE))
        else:
            sites.append(BurnSiteEntry(SITE_CODES[i], 4.0, Depth.PARTIAL))
    return PatientRecord(
        id=rid, age_years=5.0, los_days=los, total_cost=cost,
        tbsa_pct=0.0 if zero_sites else 4.0, theatre_visits=0,
        burn_sites=tuple(sites), extra_features={},
    )


def test_criterion_9_preprocessing_conformance(pinned_run):
    ds = dataset_of(
        _fixture_record("los_boundary", 360.0, 100.0),
        _fixture_record("los_outlier", 361.0, 100.0),
        _fixture_record("cost_boundary", 1.0, 1_000_000.0),
        _fixture_record("cost_outlier", 1.0, 1_000_001.0),
        _fixture_record("no_burn", 1.0, 100.0, zero_sites=True),
    )
    out, rep = preprocess(ds)
    kept = {r.id for r in out.records}
    boundaries_ok = kept == {"los_boundary", "cost_boundary"}
    reconciles = rep.reconciles() and rep.outliers_removed == 2 and rep.unclassifiable_removed == 1
    pinned_reconciles = pinned_run.result.preprocess_report.reconciles()
    ok = boundaries_ok and reconciles and pinned_reconciles
    report(9, "strict outlier boundaries (360/1e6 kept, 361/1e6+1 dropped), all-zero-site "
              "records excluded, report reconciliation holds", ok)
    assert boundaries_ok
    assert reconciles
    assert pinned_reconciles


# ---------------------------------------------------------------------------
# 10. Oversampling contract
# ---------------------------------------------------------------------------

def test_criterion_10_oversampling_contract(pinned_run):
    result = pinned_run.result
    train_hist = collections.Counter(result.final_labels[result.train_multiset].tolist())
    test_hist = collections.Counter(result.final_labels[result.test_multiset].tolist())
    uniform = len(set(train_hist.values())) == 1 and len(set(test_hist.values())) == 1
    majority = max(collections.Counter(result.final_labels[result.train_idx].tolist()).values())
    at_majority = set(train_hist.values()) == {majority}
    no_leak = (
        np.intersect1d(result.train_multiset, result.test_idx).size == 0
        and np.intersect1d(result.test_multiset, result.train_idx).size == 0
    )
    ok = uniform and at_majority and no_leak
    report(10, f"oversampled class histograms exactly uniform at the majority count "
               f"({majority}); train/test intersection empty", ok)
    assert uniform
    assert at_majority
    assert no_leak
