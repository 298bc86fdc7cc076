"""Output checks that do not run casemix code.

Every check re-derives a casemix artifact from other artifacts with code of
its own (CSV parsing, a first-match ruleset evaluator, a walk over the
``model.json`` dict, variance arithmetic with ``math.fsum``) and raises
``CheckFailed`` on the first disagreement. The benchmark runs them outside
the timed region; ``selftest.py`` shows that each one rejects a corrupted
artifact.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import xml.etree.ElementTree as ET
from collections import defaultdict
from functools import cached_property
from pathlib import Path

FACTORS = ("los_days", "total_cost", "tbsa_pct")
N_SITES = 27
AREAS = tuple(f"site_{i:02d}_area" for i in range(1, N_SITES + 1))
DEPTHS = tuple(f"site_{i:02d}_depth" for i in range(1, N_SITES + 1))
CORE = ("id", "age_years", "los_days", "total_cost", "tbsa_pct", "theatre_visits")
LOS_OUTLIER, COST_OUTLIER = 360.0, 1_000_000.0
REL_TOL, ABS_TOL = 1e-9, 1e-12


class CheckFailed(Exception):
    pass


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    require(len(rows) >= 1, f"{path.name}: empty CSV")
    return rows[0], rows[1:]


def read_json(path: Path):
    return json.loads(Path(path).read_text(encoding="utf-8"))


def sha256_file(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# Cohort CSV as rows of typed values
# ---------------------------------------------------------------------------

class Cohort:
    """A cohort CSV (raw or preprocessed) with per-column typed access.
    Extra columns are numeric when every non-empty cell parses as a float."""

    def __init__(self, path: Path):
        self.header, self.rows = read_csv(path)
        require(tuple(self.header[: len(CORE)]) == CORE, f"{path.name}: unexpected header")
        self.col = {name: j for j, name in enumerate(self.header)}
        self.numeric = set(CORE[1:]) | set(AREAS)
        for name in self.header[len(CORE) + 2 * N_SITES:]:
            j = self.col[name]
            if all(_is_float(row[j]) for row in self.rows if row[j] != ""):
                self.numeric.add(name)
        self.ids = [row[0] for row in self.rows]

    def value(self, row: list[str], name: str, impute: bool = False):
        """Cell as float (numeric) or str (categorical); an empty cell is
        None, or 0.0 / "none" with ``impute`` (the preprocess rule)."""
        cell = row[self.col[name]]
        if cell == "":
            if not impute:
                return None
            return 0.0 if name in self.numeric else "none"
        return float(cell) if name in self.numeric else cell

    def column(self, name: str, impute: bool = False) -> list:
        return [self.value(row, name, impute) for row in self.rows]


def _is_float(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


def survivors(cohort: Cohort) -> list[int]:
    """Row indices kept by preprocessing: after zero-imputation, drop rows
    with no burn area and no depth at any site, and LOS/cost outliers."""
    keep = []
    for i, row in enumerate(cohort.rows):
        no_burn = all(cohort.value(row, a, True) == 0.0 for a in AREAS) and all(
            cohort.value(row, d, True) == "none" for d in DEPTHS
        )
        los = cohort.value(row, "los_days", True)
        cost = cohort.value(row, "total_cost", True)
        if not (no_burn or los > LOS_OUTLIER or cost > COST_OUTLIER):
            keep.append(i)
    return keep


# ---------------------------------------------------------------------------
# HRG: first-match evaluator over the ruleset JSON
# ---------------------------------------------------------------------------

def _hrg_feature(cohort: Cohort, row: list[str], name: str):
    if name == "theatre_visits":
        v = cohort.value(row, name)
        return None if v is None else int(v)
    areas = [cohort.value(row, a) for a in AREAS]
    if name == "full_thickness_area":
        depths = [cohort.value(row, d) for d in DEPTHS]
        return sum(a for a, d in zip(areas, depths) if d == "full" and a)
    if name == "burned_site_count":
        return sum(1 for a in areas if a)
    require(name in cohort.col and name not in AREAS and name not in DEPTHS,
            f"ruleset references unknown feature {name!r}")
    return cohort.value(row, name)


def _holds(op: str, value, target) -> bool:
    if value is None:
        return False
    if op == "in":
        return value in target
    return {
        "<": lambda: value < target, "<=": lambda: value <= target,
        ">": lambda: value > target, ">=": lambda: value >= target,
        "==": lambda: value == target, "!=": lambda: value != target,
    }[op]()


def hrg_labels(cohort: Cohort, ruleset: dict) -> list[str]:
    """Rank per record as written by casemix ("U" = unclassifiable)."""
    out = []
    for row in cohort.rows:
        if all(not cohort.value(row, a) for a in AREAS) and all(
            cohort.value(row, d) in (None, "none") for d in DEPTHS
        ):
            out.append("U")
            continue
        for rule in ruleset["rules"]:
            if all(_holds(c["op"], _hrg_feature(cohort, row, c["feature"]), c["value"])
                   for c in rule["if"]):
                out.append(str(rule["then"]))
                break
        else:
            require("default" in ruleset, f"record {row[0]}: no HRG rule matched")
            out.append(str(ruleset["default"]))
    return out


def check_hrg(cohort: Cohort, labels_csv: Path, ruleset: dict) -> None:
    header, rows = read_csv(labels_csv)
    require(header == ["id", "rank"], f"{labels_csv.name}: header {header}")
    require([r[0] for r in rows] == cohort.ids, f"{labels_csv.name}: ids differ from the cohort")
    expected = hrg_labels(cohort, ruleset)
    for (rid, got), want in zip(rows, expected):
        require(got == want, f"HRG rank of {rid} is {got}, first-match evaluator gives {want}")


# ---------------------------------------------------------------------------
# Tree: walk over the model.json dict
# ---------------------------------------------------------------------------

def _goes_left(node: dict, value) -> bool:
    if node["kind"] == "numeric":
        return value < node["threshold"]
    return value in node["categories"]


def tree_path(root: dict, value_of) -> list[dict]:
    """Nodes from the root to the leaf that ``value_of(feature)`` reaches."""
    node, path = root, [root]
    while node["type"] == "internal":
        node = node["left"] if _goes_left(node, value_of(node["feature"])) else node["right"]
        path.append(node)
    return path


def expected_cost_label(counts: list[int]) -> int:
    """argmin_j sum_i counts_i * |i - j| over ranks 1..k, lowest j on ties."""
    k = len(counts)
    costs = [sum(c * abs(i - j) for i, c in enumerate(counts)) for j in range(k)]
    return costs.index(min(costs)) + 1


def _walk(node: dict, depth: int = 0):
    yield node, depth
    if node["type"] == "internal":
        yield from _walk(node["left"], depth + 1)
        yield from _walk(node["right"], depth + 1)


def check_tree(model: dict, table: Cohort, labels: list[int], weights: dict[int, int]) -> None:
    """Route the weighted training rows (row index -> multiplicity) of
    ``table`` through ``model``: every node's counts must be reproduced,
    both children of every split must receive rows, and every leaf label
    must minimise expected linear-loss cost."""
    k = model["k"]
    require({c["name"] for c in model["schema"]} <= set(table.col),
            "model features missing from the training table")
    routed: dict[int, list[int]] = defaultdict(lambda: [0] * k)
    for i, w in weights.items():
        row = table.rows[i]
        for node in tree_path(model["root"], lambda f: table.value(row, f)):
            routed[id(node)][labels[i] - 1] += w
    leaves = depth = 0
    for node, d in _walk(model["root"]):
        got = routed[id(node)]
        if node["type"] == "internal":
            for side in ("left", "right"):
                require(sum(routed[id(node[side])]) > 0,
                        f"split on {node['feature']} sends no training row {side}")
        else:
            leaves += 1
            depth = max(depth, d)
            want = expected_cost_label(got)
            require(node["label"] == want,
                    f"leaf label {node['label']} is not the expected-cost argmin {want}")
        require(node["counts"] == got,
                f"node counts {node['counts']} differ from routed training counts {got}")
        require(node["n"] == sum(got), "node n differs from its routed row count")
    summary = model["summary"]
    require((summary["leaf_count"], summary["depth"]) == (leaves, depth),
            f"model summary {summary} does not match the tree ({leaves} leaves, depth {depth})")


def predict_rows(model: dict, table: Cohort, rows, impute: bool = False) -> list[int]:
    return [
        tree_path(model["root"], lambda f, r=table.rows[i]: table.value(r, f, impute))[-1]["label"]
        for i in rows
    ]


# ---------------------------------------------------------------------------
# Ranks
# ---------------------------------------------------------------------------

def check_monotone_ranks(values: list[float], ranks: list[int], k: int, what: str) -> None:
    """Ranks must be exactly 1..k and non-decreasing in ``values``, with
    equal values sharing a rank."""
    require(set(ranks) == set(range(1, k + 1)), f"{what}: ranks {sorted(set(ranks))} are not 1..{k}")
    pairs = sorted(zip(values, ranks))
    for (v0, r0), (v1, r1) in zip(pairs, pairs[1:]):
        require(r1 >= r0 and (v1 != v0 or r1 == r0),
                f"{what}: rank {r0} at value {v0!r} but rank {r1} at value {v1!r}")


def check_ranks(pre: Cohort, factor_csv: Path, final_csv: Path, k: int) -> None:
    header, rows = read_csv(factor_csv)
    require([r[1] for r in rows] == pre.ids, f"{factor_csv.name}: ids differ from preprocessed.csv")
    col = {name: j for j, name in enumerate(header)}
    factor_ranks = {f: [int(r[col[f"{f}_rank"]]) for r in rows] for f in FACTORS}
    for f in FACTORS:
        logs = [math.log1p(v) for v in pre.column(f)]
        check_monotone_ranks(logs, factor_ranks[f], k, f"{f} rank")
    mean_ranks = [float(r[col["mean_rank"]]) for r in rows]
    for i, m in enumerate(mean_ranks):
        require(close(m, sum(factor_ranks[f][i] for f in FACTORS) / 3),
                f"mean_rank of row {i} is not the mean of its factor ranks")
    _, final_rows = read_csv(final_csv)
    require([r[1] for r in final_rows] == pre.ids, f"{final_csv.name}: ids differ")
    check_monotone_ranks(mean_ranks, [int(r[2]) for r in final_rows], k, "final rank")


# ---------------------------------------------------------------------------
# Variances and confusion
# ---------------------------------------------------------------------------

def group_variances(values: list[float], groups: list[int]) -> dict:
    """Per-group sample variance of log1p(values) and the unweighted mean
    over groups with at least two members, as casemix reports them."""
    members: dict[int, list[float]] = defaultdict(list)
    for v, g in zip(values, groups):
        members[int(g)].append(math.log1p(v))
    per_group = {}
    for g, xs in sorted(members.items()):
        n = len(xs)
        if n <= 1 or all(x == xs[0] for x in xs):
            var = 0.0
        else:
            m = math.fsum(xs) / n
            var = math.fsum((x - m) ** 2 for x in xs) / (n - 1)
        per_group[g] = (n, var)
    eligible = [var for n, var in per_group.values() if n >= 2]
    mean = math.fsum(eligible) / len(eligible) if eligible else 0.0
    return {"per_group": per_group, "mean": mean}


def check_factor_comparison(doc: dict, values: dict[str, list[float]], dt, hrg, what: str) -> None:
    """``doc`` is a GroupingComparison dict; recompute every variance and ratio."""
    for f in FACTORS:
        side = doc["factors"][f]
        means = {}
        for name, groups in (("dt", dt), ("hrg", hrg)):
            want = group_variances(values[f], groups)
            got = side[name]
            require(set(got["per_group"]) == {str(g) for g in want["per_group"]},
                    f"{what} {f} {name}: group set differs")
            for g, (n, var) in want["per_group"].items():
                entry = got["per_group"][str(g)]
                require(entry["n"] == n and close(entry["variance"], var),
                        f"{what} {f} {name} group {g}: variance {entry['variance']!r} "
                        f"(n={entry['n']}) but recomputed {var!r} (n={n})")
            require(close(got["mean_variance"], want["mean"]),
                    f"{what} {f} {name}: mean variance {got['mean_variance']!r} "
                    f"but recomputed {want['mean']!r}")
            means[name] = want["mean"]
        if means["dt"] > 0:
            require(side["ratio"] is not None and close(side["ratio"], means["hrg"] / means["dt"]),
                    f"{what} {f}: ratio {side['ratio']!r} does not match the variances")
        require(side["dt_lower"] == (means["dt"] < means["hrg"]), f"{what} {f}: dt_lower is wrong")


def check_confusion(doc: dict, true: list[int], pred: list[int], k: int, what: str) -> None:
    matrix = [[0] * k for _ in range(k)]
    for t, p in zip(true, pred):
        matrix[t - 1][p - 1] += 1
    require(doc["k"] == k and doc["matrix"] == matrix, f"{what}: confusion matrix differs")
    loss = sum(abs(t - p) for t, p in zip(true, pred))
    require(doc["total_loss"] == loss, f"{what}: total loss {doc['total_loss']} but recomputed {loss}")
    hits = sum(t == p for t, p in zip(true, pred))
    require(close(doc["accuracy"], hits / len(true) if true else 0.0), f"{what}: accuracy differs")


def check_homogeneity(comparison: dict) -> None:
    """The paper's claim: the learned groups have a lower mean intra-group
    variance than HRG on every factor, on train and on test."""
    for side in ("train", "test"):
        for f in FACTORS:
            fc = comparison[side]["factors"][f]
            require(fc["dt"]["mean_variance"] < fc["hrg"]["mean_variance"],
                    f"{side} {f}: learned groups are not more homogeneous than HRG")


# ---------------------------------------------------------------------------
# Files
# ---------------------------------------------------------------------------

def is_manifest(path: Path) -> bool:
    return path.name == "manifest.json" or path.name.endswith(".manifest.json")


def check_manifests(out: Path, cwd: Path) -> None:
    manifests = sorted(p for p in out.rglob("*.json") if is_manifest(p))
    require(manifests, f"{out}: no manifest")
    for m in manifests:
        doc = read_json(m)
        require(doc["outputs"], f"{m.name}: lists no outputs")
        for rel, digest in doc["outputs"].items():
            require(sha256_file(m.parent / rel) == digest, f"{m}: hash of output {rel} differs")
        for path, digest in doc["inputs"].items():
            require(sha256_file(cwd / path) == digest, f"{m}: hash of input {path} differs")
        if "config_path" in doc:
            require(sha256_file(cwd / doc["config_path"]) == doc["config_sha256"],
                    f"{m}: config hash differs")


def check_svgs(out: Path) -> None:
    svgs = sorted(out.rglob("*.svg"))
    require(svgs, f"{out}: no SVG written")
    for path in svgs:
        try:
            root = ET.parse(path).getroot()
        except ET.ParseError as e:
            raise CheckFailed(f"{path.name} is not XML: {e}")
        require(root.tag.endswith("svg"), f"{path.name}: root element is {root.tag}")


def artifact_hashes(out: Path) -> dict[str, str]:
    """Relative path -> sha256 of every artifact except manifests, which
    record wall time."""
    return {
        str(p.relative_to(out)): sha256_file(p)
        for p in sorted(out.rglob("*")) if p.is_file() and not is_manifest(p)
    }


def check_same_artifacts(runs: list[dict[str, str]]) -> None:
    """Every operation of a run must write byte-identical artifacts."""
    for i, hashes in enumerate(runs[1:], start=2):
        require(hashes == runs[0], f"operation {i} wrote different artifacts: "
                f"{sorted(set(hashes.items()) ^ set(runs[0].items()))[:4]}")


# ---------------------------------------------------------------------------
# Whole-operation checks
# ---------------------------------------------------------------------------

class AllRun:
    """Artifacts of one `casemix all --svg` directory (``out``); the
    ``result`` subdirectory alone is what `casemix train` writes."""

    def __init__(self, out: Path, cwd: Path, ruleset: dict):
        self.out, self.cwd, self.ruleset = out, cwd, ruleset
        self.result = out / "result"

    @cached_property
    def pre(self) -> Cohort:
        return Cohort(self.result / "preprocessed.csv")

    @cached_property
    def model(self) -> dict:
        return read_json(self.result / "model.json")

    @cached_property
    def final(self) -> list[int]:
        return [int(r[2]) for r in read_csv(self.result / "final_labels.csv")[1]]

    @cached_property
    def split(self) -> list[tuple[int, str, int]]:
        return [(int(i), role, int(m)) for i, role, m in read_csv(self.result / "split.csv")[1]]

    def rows(self, role: str, multiset: bool = False) -> list[int]:
        return [i for i, r, m in self.split if r == role for _ in range(m if multiset else 1)]

    @cached_property
    def hrg(self) -> list[int]:
        by_id = dict(read_csv(self.out / "hrg" / "labels.csv")[1])
        require(all(by_id[i] != "U" for i in self.pre.ids),
                "an HRG-unclassifiable record survived preprocessing")
        return [int(by_id[i]) for i in self.pre.ids]

    @cached_property
    def pred(self) -> dict[int, int]:
        """Test-row predictions from walking model.json."""
        test = self.rows("test")
        return dict(zip(test, predict_rows(self.model, self.pre, test)))

    def check_tree(self) -> None:
        weights = {i: m for i, role, m in self.split if role == "train"}
        check_tree(self.model, self.pre, self.final, weights)

    def check_ranks(self) -> None:
        check_ranks(self.pre, self.result / "factor_labels.csv",
                    self.result / "final_labels.csv", self.model["k"])

    def check_comparison(self) -> None:
        doc = read_json(self.out / "eval" / "comparison.json")
        columns = {f: self.pre.column(f) for f in FACTORS}
        for side, dt in (("train", self.final), ("test", self.pred)):
            rows = self.rows(side)
            check_factor_comparison(
                doc[side], {f: [columns[f][i] for i in rows] for f in FACTORS},
                [dt[i] for i in rows], [self.hrg[i] for i in rows], side,
            )

    def check_confusion(self) -> None:
        for name, multiset in (("confusion_test.json", False),
                               ("confusion_test_oversampled.json", True)):
            rows = self.rows("test", multiset)
            check_confusion(read_json(self.out / "eval" / name), [self.final[i] for i in rows],
                            [self.pred[i] for i in rows], self.model["k"], name)


#: Named checks of a `casemix all --svg` directory, in the order they run.
ALL_RUN_CHECKS = {
    "manifests": lambda r: check_manifests(r.out, r.cwd),
    "svgs": lambda r: check_svgs(r.out),
    "hrg": lambda r: check_hrg(Cohort(r.out / "cohort.csv"), r.out / "hrg" / "labels.csv", r.ruleset),
    "tree": AllRun.check_tree,
    "ranks": AllRun.check_ranks,
    "comparison": AllRun.check_comparison,
    "confusion": AllRun.check_confusion,
    "homogeneity": lambda r: check_homogeneity(read_json(r.out / "eval" / "comparison.json")),
}


def check_all_run(out: Path, cwd: Path, ruleset: dict, claim: bool) -> None:
    """Every check of ALL_RUN_CHECKS; the paper's homogeneity claim only
    when ``claim`` is set."""
    run = AllRun(out, cwd, ruleset)
    for name, check in ALL_RUN_CHECKS.items():
        if claim or name != "homogeneity":
            check(run)


def check_train_result(train_out: Path, cwd: Path) -> None:
    """A directory holding `casemix generate`/`train` outputs (cohort.csv,
    result/): manifests, tree routing and ranks."""
    run = AllRun(train_out, cwd, {})
    for name in ("manifests", "tree", "ranks"):
        ALL_RUN_CHECKS[name](run)


class GroupRun:
    """Artifacts of one apply operation (group_op.py) in ``out``, on
    ``cohort_csv`` with the model in ``result``."""

    def __init__(self, out: Path, cohort_csv: Path, result: Path, ruleset: dict):
        self.out, self.result, self.ruleset = out, result, ruleset
        self.cohort = Cohort(cohort_csv)
        self.kept = survivors(self.cohort)
        self.groups = read_csv(out / "groups.csv")[1]

    def check_hrg(self) -> None:
        check_hrg(self.cohort, self.out / "hrg_labels.csv", self.ruleset)
        by_id = dict(read_csv(self.out / "hrg_labels.csv")[1])
        for rid, _, _, rank in self.groups:
            require(rank == by_id[rid], f"HRG rank of {rid} in groups.csv differs")

    def check_survivors(self) -> None:
        require([r[0] for r in self.groups] == [self.cohort.ids[i] for i in self.kept],
                "groups.csv ids differ from the records preprocessing keeps")
        report = read_json(self.out / "preprocess_report.json")
        require((report["rows_in"], report["rows_out"]) == (len(self.cohort.rows), len(self.kept)),
                "preprocess report row counts differ")

    def check_tree(self) -> None:
        walked = predict_rows(read_json(self.result / "model.json"), self.cohort, self.kept,
                              impute=True)
        for (rid, rank, _, _), want in zip(self.groups, walked):
            require(int(rank) == want, f"tree rank of {rid} is {rank}, model walk gives {want}")

    def check_rules(self) -> None:
        for rid, rank, rules_rank, _ in self.groups:
            require(rules_rank == rank,
                    f"rules rank {rules_rank} of {rid} disagrees with predict rank {rank}")

    def check_comparison(self) -> None:
        values = {f: [self.cohort.value(self.cohort.rows[i], f, True) for i in self.kept]
                  for f in FACTORS}
        check_factor_comparison(read_json(self.out / "comparison.json"), values,
                                [int(r[1]) for r in self.groups], [int(r[3]) for r in self.groups],
                                "apply")


#: Named checks of an apply operation, in the order they run.
GROUP_RUN_CHECKS = {
    "hrg": GroupRun.check_hrg,
    "survivors": GroupRun.check_survivors,
    "tree": GroupRun.check_tree,
    "rules": GroupRun.check_rules,
    "comparison": GroupRun.check_comparison,
}


def check_group_run(out: Path, cohort_csv: Path, result: Path, ruleset: dict) -> None:
    run = GroupRun(out, cohort_csv, result, ruleset)
    for check in GROUP_RUN_CHECKS.values():
        check(run)
