"""Per-layer metrics from the spans of one traced operation and its artifacts.

A span is ``[id, name, start_ns, end_ns, parent_id]`` as ``tracer.py``
writes it; names are ``<module>.<function>``. Times are in seconds. A
layer's total counts only outermost spans of a name, so nested calls are
not counted twice; self time is a span's duration minus its direct
children's. A metric whose layer did not run in the operation reads 0, as
do artifact-derived metrics when the operation failed before writing the
artifact.
"""

from __future__ import annotations

import json
import math
from collections import defaultdict
from pathlib import Path

from checks import FACTORS, Cohort, group_variances, is_manifest, read_csv

#: name -> (unit, better), in report order.
METRICS = {
    "tree.split_search_s": ("s", "lower"),
    "tree.split_calls": ("count", "lower"),
    "tree.build_los_s": ("s", "lower"),
    "tree.build_cost_s": ("s", "lower"),
    "tree.build_tbsa_s": ("s", "lower"),
    "tree.build_final_s": ("s", "lower"),
    "tree.build_other_s": ("s", "lower"),
    "cluster.factor_s": ("s", "lower"),
    "cluster.final_s": ("s", "lower"),
    "cluster.inertia_los": ("log1p_sq", "lower"),
    "cluster.inertia_cost": ("log1p_sq", "lower"),
    "cluster.inertia_tbsa": ("log1p_sq", "lower"),
    "cohort.generate_s": ("s", "lower"),
    "cohort.missingness_s": ("s", "lower"),
    "dataio.parse_s": ("s", "lower"),
    "dataio.parse_calls": ("count", "lower"),
    "preprocess.run_s": ("s", "lower"),
    "preprocess.rows_out": ("count", "higher"),
    "pipeline.to_table_s": ("s", "lower"),
    "pipeline.to_table_calls": ("count", "lower"),
    "hrg.classify_s": ("s", "lower"),
    "dataio.write_s": ("s", "lower"),
    "dataio.hash_s": ("s", "lower"),
    "pipeline.self_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "cli.artifact_bytes": ("bytes", "lower"),
    "svgplot.render_s": ("s", "lower"),
    "svgplot.bytes": ("bytes", "lower"),
    "evaluate.run_s": ("s", "lower"),
    "tree.predict_s": ("s", "lower"),
    "tree.rules_s": ("s", "lower"),
    "tree.io_s": ("s", "lower"),
    "tree.leaves_final": ("count", "lower"),
    "tree.depth_final": ("count", "lower"),
    "evaluate.var_ratio_los": ("ratio", "higher"),
    "evaluate.var_ratio_cost": ("ratio", "higher"),
    "evaluate.var_ratio_tbsa": ("ratio", "higher"),
    "trace.overhead_s": ("s", "lower"),
}


class Spans:
    def __init__(self, path: Path):
        self.spans = json.loads(Path(path).read_text(encoding="utf-8"))["spans"]
        self.children = defaultdict(list)
        for s in self.spans:
            if s[4] is not None:
                self.children[s[4]].append(s)

    @staticmethod
    def seconds(span) -> float:
        return (span[3] - span[2]) / 1e9

    def ancestors(self, span):
        while span[4] is not None:
            span = self.spans[span[4]]
            yield span[1]

    def outer(self, *names, outside: tuple[str, ...] = ()):
        """Spans of ``names`` with no ancestor among ``names`` or ``outside``."""
        stop = set(names) | set(outside)
        return [s for s in self.spans
                if s[1] in names and not stop.intersection(self.ancestors(s))]

    def total(self, *names, outside: tuple[str, ...] = ()) -> float:
        return sum(self.seconds(s) for s in self.outer(*names, outside=outside))

    def self_time(self, *names) -> float:
        return sum(
            self.seconds(s) - sum(self.seconds(c) for c in self.children[s[0]])
            for s in self.spans if s[1] in names
        )


def _within(spans: Spans, inner: str, outer: str) -> float:
    return sum(spans.seconds(s) for s in spans.spans
               if s[1] == inner and outer in spans.ancestors(s))


def _inertia(pre: Cohort, factor_csv: Path) -> dict[str, float]:
    """Within-cluster sum of squares of log1p values under the factor ranks."""
    header, rows = read_csv(factor_csv)
    col = {name: j for j, name in enumerate(header)}
    out = {}
    for f in FACTORS:
        groups = group_variances(pre.column(f), [row[col[f"{f}_rank"]] for row in rows])
        out[f] = math.fsum(var * (n - 1) for n, var in groups["per_group"].values())
    return out


def layer_metrics(spans_path: Path, out: Path, model_json: Path) -> dict[str, float]:
    """Every metric of METRICS except trace.overhead_s.

    ``out`` is the traced operation's output directory: a `casemix all`
    directory or a ``group_op.py`` one. ``model_json`` is the final model
    the operation trained or applied.
    """
    sp = Spans(spans_path)
    m: dict[str, float] = {name: 0.0 for name in METRICS}

    builds = sorted(sp.outer("tree.build_tree"), key=lambda s: s[2])
    factor_builds = [s for s in builds if "pipeline.train_factor_trees" in sp.ancestors(s)]
    for f, s in zip(("los", "cost", "tbsa"), factor_builds):
        m[f"tree.build_{f}_s"] = sp.seconds(s)
    m["tree.build_final_s"] = sum(sp.seconds(s) for s in builds if s not in factor_builds)
    m["tree.split_search_s"] = sp.total("tree.best_split")
    m["tree.split_calls"] = len(sp.outer("tree.best_split"))
    m["tree.build_other_s"] = sp.total("tree.build_tree") - _within(sp, "tree.best_split", "tree.build_tree")
    m["tree.predict_s"] = sp.total("tree.predict")
    m["tree.rules_s"] = sp.total("tree.extract_rules", "tree.classify_with_rules")
    m["tree.io_s"] = sp.total("tree.serialize_tree", "tree.deserialize_tree")

    m["cluster.factor_s"] = sp.total("cluster.cluster_factor")
    m["cluster.final_s"] = sp.total("cluster.kmeans", "cluster.rank_clusters",
                                    outside=("cluster.cluster_factor",))
    m["cohort.generate_s"] = sp.total("cohort.generate_cohort")
    m["cohort.missingness_s"] = sp.total("cohort.inject_missingness")
    m["dataio.parse_s"] = sp.total("dataio.read_cohort_csv")
    m["dataio.parse_calls"] = len(sp.outer("dataio.read_cohort_csv"))
    m["dataio.write_s"] = sp.total("dataio.cohort_csv_text", outside=("dataio.dataset_sha256",))
    m["dataio.hash_s"] = sp.total("dataio.dataset_sha256")
    m["preprocess.run_s"] = sp.total("preprocess.preprocess")
    m["pipeline.to_table_s"] = sp.total("pipeline.dataset_to_table")
    m["pipeline.to_table_calls"] = len(sp.outer("pipeline.dataset_to_table"))
    m["pipeline.self_s"] = sp.self_time("pipeline.run_pipeline", "pipeline.train_factor_trees")
    m["hrg.classify_s"] = sp.total("hrg.classify_dataset")
    m["cli.self_s"] = sp.self_time("cli.main", "cli.cmd_all", "cli.cmd_generate", "cli.cmd_hrg",
                                   "cli.cmd_train", "cli.cmd_evaluate")
    m["svgplot.render_s"] = sp.total("svgplot.variance_bars_svg", "svgplot.boxplots_svg",
                                     "svgplot.rank_spread_svg")
    m["evaluate.run_s"] = sp.total("evaluate.compare_groupings", "evaluate.confusion",
                                   "evaluate.boxplot_stats", "evaluate.merge_diagnostic")

    files = [p for p in out.rglob("*") if p.is_file() and not is_manifest(p)]
    m["cli.artifact_bytes"] = sum(p.stat().st_size for p in files)
    m["svgplot.bytes"] = sum(p.stat().st_size for p in files if p.suffix == ".svg")
    if model_json.is_file():
        summary = json.loads(model_json.read_text(encoding="utf-8"))["summary"]
        m["tree.leaves_final"] = summary["leaf_count"]
        m["tree.depth_final"] = summary["depth"]

    result = out / "result"
    if (result / "preprocess_report.json").is_file():  # casemix all
        report = result / "preprocess_report.json"
        comparison = out / "eval" / "comparison.json"
    else:  # group_op.py
        report = out / "preprocess_report.json"
        comparison = out / "comparison.json"
    if report.is_file():
        m["preprocess.rows_out"] = json.loads(report.read_text(encoding="utf-8"))["rows_out"]
    if comparison.is_file():
        doc = json.loads(comparison.read_text(encoding="utf-8"))
        factors = doc["test"]["factors"] if "test" in doc else doc["factors"]
        for f, short in zip(FACTORS, ("los", "cost", "tbsa")):
            m[f"evaluate.var_ratio_{short}"] = factors[f]["ratio"] or 0.0
    if (result / "factor_labels.csv").is_file():
        inertia = _inertia(Cohort(result / "preprocessed.csv"), result / "factor_labels.csv")
        for f, short in zip(FACTORS, ("los", "cost", "tbsa")):
            m[f"cluster.inertia_{short}"] = inertia[f]
    del m["trace.overhead_s"]
    return m
