"""Apply a trained casemix model to a new cohort, as a payer would.

``python3 bench/group_op.py --cohort COHORT.csv --result RESULT_DIR --out OUT``

Reads the cohort, groups it with the packaged HRG ruleset, preprocesses it
with the trained run's settings, routes it through the trained final tree
(``predict``) and through the tree's extracted rules, and compares the tree
groups with the HRG groups. Writes ``hrg_labels.csv`` (every record),
``groups.csv`` (records that survive preprocessing: id, tree, rules and HRG
rank), ``comparison.json`` and ``preprocess_report.json`` into OUT.

Library calls go through module attributes (``tree.predict``) so that the
traced run can time them.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

from casemix import dataio, evaluate, hrg, pipeline, preprocess, tree


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _write_json(path: Path, doc) -> None:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="group_op.py")
    parser.add_argument("--cohort", required=True)
    parser.add_argument("--result", required=True, help="output dir of `casemix train`")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    result_dir, out = Path(args.result), Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    ds = dataio.read_cohort_csv(args.cohort)
    hrg_labels, _ = hrg.classify_dataset(ds, hrg.reference_ruleset())
    config = pipeline.PipelineConfig.from_dict(
        json.loads((result_dir / "config.json").read_text(encoding="utf-8"))
    )
    pds, report = preprocess.preprocess(ds, config.missing_threshold, config.admin_fields)
    model = tree.deserialize_tree((result_dir / "model.json").read_text(encoding="utf-8"))
    table = pipeline.dataset_to_table(pds).select(model.feature_names)
    predicted = tree.predict(model, table)
    by_rules = tree.classify_with_rules(tree.extract_rules(model), table)

    hrg_by_id = {rec.id: label for rec, label in zip(ds.records, hrg_labels)}
    kept_hrg = [hrg_by_id[rec.id] for rec in pds.records]
    if any(label is None for label in kept_hrg):
        print("group_op: an HRG-unclassifiable record survived preprocessing", file=sys.stderr)
        return 4
    comparison = evaluate.compare_groupings(pds, predicted, kept_hrg)

    _write_csv(
        out / "hrg_labels.csv", ["id", "rank"],
        ((rec.id, hrg.UNCLASSIFIABLE if label is None else label)
         for rec, label in zip(ds.records, hrg_labels)),
    )
    _write_csv(
        out / "groups.csv", ["id", "tree_rank", "rules_rank", "hrg_rank"],
        ((rec.id, int(p), int(r), h)
         for rec, p, r, h in zip(pds.records, predicted, by_rules, kept_hrg)),
    )
    _write_json(out / "comparison.json", comparison.to_dict())
    _write_json(out / "preprocess_report.json", report.to_dict())
    return 0


if __name__ == "__main__":
    sys.exit(main())
