"""Self-test of checks.py: each check passes on real artifacts and rejects a
corrupted copy, so none of them passes vacuously.

    python3 bench/selftest.py

Run from the repository root. It writes under ``.bench_work/selftest``: one
`casemix all --svg` run on the pinned config (n=5000) and one apply
operation of its model on a 2,000-record cohort, about 30 s in all. Exits 1
if a clean artifact fails a check or a corrupted one passes.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

import checks
import run
from checks import CheckFailed, read_csv, read_json

WORK = run.WORK / "selftest"


def edit_csv(path: Path, change) -> None:
    header, rows = read_csv(path)
    change(header, rows)
    path.write_text("".join(",".join(r) + "\n" for r in [header, *rows]), encoding="utf-8")


def edit_json(path: Path, change) -> None:
    doc = read_json(path)
    change(doc)
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def swap_first_differing(rows, col: int) -> None:
    first = rows[0]
    other = next(r for r in rows if r[col] != first[col])
    first[col], other[col] = other[col], first[col]


def swap_extremes(values: list[float], rows, col: int) -> None:
    lo, hi = values.index(min(values)), values.index(max(values))
    rows[lo][col], rows[hi][col] = rows[hi][col], rows[lo][col]


def next_rank(rank) -> str:
    return str(int(rank) % 13 + 1)


# Corruptions of a `casemix all` directory d.

def wrong_manifest_hash(d: Path) -> None:
    edit_json(d / "result" / "manifest.json",
              lambda m: m["outputs"].update({"model.json": "0" * 64}))


def truncated_svg(d: Path) -> None:
    svg = d / "eval" / "rank_spread.svg"
    svg.write_bytes(svg.read_bytes()[: svg.stat().st_size // 2])


def swapped_hrg_ranks(d: Path) -> None:
    edit_csv(d / "hrg" / "labels.csv", lambda h, rows: swap_first_differing(rows, 1))


def flipped_leaf_label(d: Path) -> None:
    def change(model):
        node = model["root"]
        while node["type"] == "internal":
            node = node["left"]
        node["label"] = int(next_rank(node["label"]))
    edit_json(d / "result" / "model.json", change)


def perturbed_count(d: Path) -> None:
    def change(model):
        model["root"]["counts"][0] += 1
    edit_json(d / "result" / "model.json", change)


def empty_left_side(d: Path) -> None:
    def change(model):
        root = model["root"]
        if root["kind"] == "numeric":
            root["threshold"] = -1e300
        else:
            root["categories"] = []
    edit_json(d / "result" / "model.json", change)


def swapped_los_ranks(d: Path) -> None:
    los = checks.Cohort(d / "result" / "preprocessed.csv").column("los_days")
    edit_csv(d / "result" / "factor_labels.csv", lambda h, rows: swap_extremes(los, rows, 2))


def swapped_final_ranks(d: Path) -> None:
    means = [float(r[5]) for r in read_csv(d / "result" / "factor_labels.csv")[1]]
    edit_csv(d / "result" / "final_labels.csv", lambda h, rows: swap_extremes(means, rows, 2))


def scale_first_variance(side: dict, factor: str, grouping: str) -> None:
    groups = side["factors"][factor][grouping]["per_group"]
    groups[next(iter(groups))]["variance"] *= 1 + 1e-6


def perturbed_train_variance(d: Path) -> None:
    edit_json(d / "eval" / "comparison.json",
              lambda c: scale_first_variance(c["train"], "los_days", "dt"))


def moved_confusion_case(d: Path) -> None:
    def change(doc):
        doc["matrix"][0][0] -= 1
        doc["matrix"][0][1] += 1
    edit_json(d / "eval" / "confusion_test.json", change)


def hrg_more_homogeneous(d: Path) -> None:
    def change(doc):
        tbsa = doc["test"]["factors"]["tbsa_pct"]
        tbsa["hrg"]["mean_variance"] = tbsa["dt"]["mean_variance"] / 2
    edit_json(d / "eval" / "comparison.json", change)


# Corruptions of an apply-operation directory d.

def swapped_apply_hrg_ranks(d: Path) -> None:
    edit_csv(d / "hrg_labels.csv", lambda h, rows: swap_first_differing(rows, 1))


def dropped_record(d: Path) -> None:
    edit_csv(d / "groups.csv", lambda h, rows: rows.pop(0))


def changed_tree_rank(d: Path) -> None:
    def change(h, rows):
        rows[0][1] = rows[0][2] = next_rank(rows[0][1])
    edit_csv(d / "groups.csv", change)


def changed_rules_rank(d: Path) -> None:
    def change(h, rows):
        rows[0][2] = next_rank(rows[0][2])
    edit_csv(d / "groups.csv", change)


def perturbed_apply_variance(d: Path) -> None:
    edit_json(d / "comparison.json", lambda c: scale_first_variance(c, "total_cost", "hrg"))


#: (artifact set, check name, corruption).
CASES = [
    ("all", "manifests", wrong_manifest_hash),
    ("all", "svgs", truncated_svg),
    ("all", "hrg", swapped_hrg_ranks),
    ("all", "tree", flipped_leaf_label),
    ("all", "tree", perturbed_count),
    ("all", "tree", empty_left_side),
    ("all", "ranks", swapped_los_ranks),
    ("all", "ranks", swapped_final_ranks),
    ("all", "comparison", perturbed_train_variance),
    ("all", "confusion", moved_confusion_case),
    ("all", "homogeneity", hrg_more_homogeneous),
    ("group", "hrg", swapped_apply_hrg_ranks),
    ("group", "survivors", dropped_record),
    ("group", "tree", changed_tree_rank),
    ("group", "rules", changed_rules_rank),
    ("group", "comparison", perturbed_apply_variance),
]


def produce() -> tuple[Path, Path, Path]:
    """Clean artifacts: a pinned `casemix all --svg` directory, an apply
    cohort and the apply operation's output directory."""
    shutil.rmtree(WORK, ignore_errors=True)
    run.write_json(WORK / "all.json", run.PINNED)
    run.write_json(WORK / "apply.json", {"cohort": {"n": 2000, "seed": 1001},
                                         "missingness": {"rate": 0.2, "seed": 2001}})
    all_dir, cohort, group_dir = WORK / "all", WORK / "apply.csv", WORK / "group"
    run.setup_step(run.casemix("all", "--config", str(WORK / "all.json"), "--out", str(all_dir),
                               "--svg"), WORK / "log" / "all")
    run.setup_step(run.casemix("generate", "--config", str(WORK / "apply.json"),
                               "--out", str(cohort)), WORK / "log" / "generate")
    run.setup_step([sys.executable, str(run.BENCH / "group_op.py"), "--cohort", str(cohort),
                    "--result", str(all_dir / "result"), "--out", str(group_dir)],
                   WORK / "log" / "group")
    return all_dir, cohort, group_dir


def main() -> int:
    os.chdir(run.ROOT)
    ruleset = read_json(run.RULESET)
    all_dir, cohort, group_dir = produce()
    result = all_dir / "result"

    def check(kind: str, name: str, d: Path) -> None:
        if kind == "all":
            checks.ALL_RUN_CHECKS[name](checks.AllRun(d, run.ROOT, ruleset))
        else:
            checks.GROUP_RUN_CHECKS[name](checks.GroupRun(d, cohort, result, ruleset))

    ok = True
    checks.check_all_run(all_dir, run.ROOT, ruleset, claim=True)
    checks.check_group_run(group_dir, cohort, result, ruleset)
    print("PASS clean artifacts pass every check")
    for n, (kind, name, mutate) in enumerate(CASES):
        what = mutate.__name__.replace("_", " ")
        case = WORK / f"case{n:02d}"
        shutil.copytree(all_dir if kind == "all" else group_dir, case)
        mutate(case)
        try:
            check(kind, name, case)
        except CheckFailed as e:
            print(f"PASS {kind}/{name} rejects {what}: {e}")
        else:
            ok = False
            print(f"FAIL {kind}/{name} accepts {what}")
        shutil.rmtree(case)

    hashes = checks.artifact_hashes(group_dir)
    changed = dict(hashes, **{"groups.csv": "0" * 64})
    try:
        checks.check_same_artifacts([hashes, changed])
    except CheckFailed as e:
        print(f"PASS determinism rejects one differing artifact: {e}")
    else:
        ok = False
        print("FAIL determinism accepts one differing artifact")
    print(f"selftest: {'ok' if ok else 'FAILED'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
