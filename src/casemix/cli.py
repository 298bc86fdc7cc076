"""Command-line interface: generate / hrg / train / evaluate / all.

Exit codes: 0 success, 2 bad config or input content, 3 an OS-level I/O
failure reading or writing a file, 4 pipeline-stage failure; ``main`` is the
one place that maps an exception to its code. Each ``cmd_*`` reads the files
its command line names and calls one stage function; ``casemix all`` calls
the stages directly with the config, ruleset and cohort it holds in memory.
Every run writes a manifest recording config and input hashes, output
hashes, seeds, and wall time; outputs other than the manifest are
byte-deterministic given the same config.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import secrets
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

from . import __version__, parallel
from .cohort import EXTRA_SCHEMA, CohortConfig, generate_cohort, inject_missingness
from .dataio import cohort_csv_text, read_cohort_csv
from .domain import FACTOR_FIELDS, Dataset, linear_cost_matrix
from .errors import CasemixError, InvalidArgument, PipelineStageError
from .evaluate import boxplot_stats, compare_groupings, confusion, merge_diagnostic
from .hrg import (
    UNCLASSIFIABLE,
    Ruleset,
    check_ruleset,
    classify_dataset,
    load_ruleset,
    reference_ruleset,
)
from .pipeline import PipelineConfig, dataset_to_table, run_pipeline
from .svgplot import boxplots_svg, rank_spread_svg, variance_bars_svg
from .tree import (
    deserialize_tree,
    extract_rules,
    predict,
    serialize_tree,
    variable_importance,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_STAGE = 4


def _sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _atomic_write(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def _json_dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _load_json_config(path: str) -> dict:
    p = Path(path)
    if not p.is_file():
        raise InvalidArgument(f"config file not found: {path}")
    try:
        doc = json.loads(p.read_text(encoding="utf-8"))
    except ValueError as e:  # not JSON, or not UTF-8
        raise InvalidArgument(f"config {path} is not valid UTF-8 JSON: {e}")
    except RecursionError:
        raise InvalidArgument(f"config {path} nests JSON too deeply")
    if not isinstance(doc, dict):
        raise InvalidArgument(f"config {path} must be a JSON object")
    return doc


def _require_seed(present: bool, what: str, ephemeral: bool) -> int | None:
    """Seeds must be explicit unless --ephemeral generates and records them."""
    if present:
        return None
    if not ephemeral:
        raise InvalidArgument(
            f"{what} has no seed; set one in the config or pass --ephemeral"
        )
    return secrets.randbits(63)


class _Manifest:
    def __init__(self, command: str):
        self.doc = {
            "command": command,
            "tool_version": __version__,
            "inputs": {},
            "outputs": {},
            "seeds": {},
        }
        self._start = time.monotonic()

    def add_config(self, path: str) -> None:
        self.doc["config_path"] = str(path)
        self.doc["config_sha256"] = _sha256_file(Path(path))

    def add_input(self, path: str | Path) -> str:
        digest = self.doc["inputs"][str(path)] = _sha256_file(Path(path))
        return digest

    def add_output(self, root: Path, path: Path) -> None:
        self.doc["outputs"][str(path.relative_to(root))] = _sha256_file(path)

    def write(self, path: Path) -> None:
        self.doc["wall_time_s"] = round(time.monotonic() - self._start, 3)
        _atomic_write(path, _json_dumps(self.doc))


def _write_output(manifest: _Manifest, root: Path, path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    _atomic_write(path, text)
    manifest.add_output(root, path)


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _csv_rows(path: Path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------

def _generate(manifest: _Manifest, config_path: str, doc: dict, ephemeral: bool,
              out: Path) -> Dataset:
    """Write the cohort ``doc`` (from ``config_path``) describes to ``out``."""
    manifest.add_config(config_path)
    cohort_doc = doc.get("cohort", doc)
    if not isinstance(cohort_doc, dict):
        raise InvalidArgument("cohort config must be a JSON object")
    cohort_doc = dict(cohort_doc)
    fresh = _require_seed("seed" in cohort_doc, "cohort config", ephemeral)
    if fresh is not None:
        cohort_doc["seed"] = fresh
    config = CohortConfig.from_dict(cohort_doc)
    manifest.doc["seeds"]["cohort"] = config.seed
    manifest.doc["workers"] = parallel.worker_count(config.n)
    ds = generate_cohort(config)
    missing = doc.get("missingness")
    if missing:
        if not isinstance(missing, dict):
            raise InvalidArgument("missingness config must be a JSON object")
        rate = missing.get("rate", 0.0)
        if not isinstance(rate, (int, float)) or isinstance(rate, bool):
            raise InvalidArgument(f"missingness rate must be a number, got {rate!r}")
        m_fresh = _require_seed("seed" in missing, "missingness config", ephemeral)
        m_seed = missing.get("seed", m_fresh)
        ds = inject_missingness(ds, rate, m_seed)
        manifest.doc["seeds"]["missingness"] = m_seed
    _write_output(manifest, out.parent, out, cohort_csv_text(ds))
    manifest.write(out.with_name(out.name + ".manifest.json"))
    print(f"wrote {len(ds)} records to {out}")
    return ds


def cmd_generate(args) -> None:
    manifest = _Manifest("generate")
    doc = _load_json_config(args.config)
    _generate(manifest, args.config, doc, args.ephemeral, Path(args.out))


# ---------------------------------------------------------------------------
# hrg
# ---------------------------------------------------------------------------

def _load_cohort(path: str) -> Dataset:
    p = Path(path)
    if not p.is_file():
        raise InvalidArgument(f"cohort file not found: {path}")
    try:
        return read_cohort_csv(p)
    except (InvalidArgument, ValueError) as e:
        raise InvalidArgument(f"cannot parse cohort {path}: {e}")


def _hrg_labels_csv(ds: Dataset, labels: list[int | None]) -> str:
    return _csv_text(["id", "rank"], (
        (rid, UNCLASSIFIABLE if label is None else label)
        for rid, label in zip(ds.ids.tolist(), labels)
    ))


def _load_rules(path: str | None) -> Ruleset:
    """The ruleset at ``path``, or the packaged reference ruleset if none."""
    if path and not Path(path).is_file():
        raise InvalidArgument(f"ruleset file not found: {path}")
    return load_ruleset(path) if path else reference_ruleset()


def _hrg(manifest: _Manifest, ds: Dataset, cohort: str, rules: Ruleset,
         ruleset: str | None, out: Path) -> None:
    """Group ``ds`` (from the file ``cohort``) by ``rules`` (from ``ruleset``) into ``out``."""
    manifest.add_input(cohort)
    if ruleset:
        manifest.add_input(ruleset)
    labels, histogram = classify_dataset(ds, rules)
    _write_output(manifest, out, out / "labels.csv", _hrg_labels_csv(ds, labels))
    _write_output(
        manifest, out, out / "histogram.json",
        _json_dumps({str(k): v for k, v in histogram.items()}),
    )
    manifest.write(out / "manifest.json")
    print(f"classified {len(labels)} records into {out}")


def cmd_hrg(args) -> None:
    manifest = _Manifest("hrg")
    ds = _load_cohort(args.cohort)
    _hrg(manifest, ds, args.cohort, _load_rules(args.ruleset), args.ruleset, Path(args.out))


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def _pipeline_config(doc: dict, ephemeral: bool) -> PipelineConfig:
    pipe_doc = doc.get("pipeline", doc)
    if not isinstance(pipe_doc, dict):
        raise InvalidArgument("pipeline config must be a JSON object")
    pipe_doc = dict(pipe_doc)
    fresh = _require_seed("seeds" in pipe_doc, "pipeline config", ephemeral)
    if fresh is not None:
        pipe_doc["seeds"] = {"split": fresh, "oversample": secrets.randbits(63)}
    return PipelineConfig.from_dict(pipe_doc)


def _factor_labels_csv(result) -> str:
    return _csv_text(["index", "id", *(f"{f}_rank" for f in FACTOR_FIELDS), "mean_rank"], (
        [i, rid, *(int(result.factor_labels[f][i]) for f in FACTOR_FIELDS),
         repr(float(result.mean_ranks[i]))]
        for i, rid in enumerate(result.preprocessed.ids.tolist())
    ))


def _final_labels_csv(result) -> str:
    return _csv_text(["index", "id", "final_rank"], (
        [i, rid, int(result.final_labels[i])]
        for i, rid in enumerate(result.preprocessed.ids.tolist())
    ))


def _importances_csv(result) -> str:
    models = [(f, result.factor_importances[f]) for f in FACTOR_FIELDS]
    models.append(("final", variable_importance(result.final_tree)))
    return _csv_text(["model", "feature", "score"], (
        [model, name, repr(float(score))] for model, scores in models for name, score in scores
    ))


def _split_csv(result) -> str:
    multiplicity = {
        "train": Counter(int(i) for i in result.train_multiset),
        "test": Counter(int(i) for i in result.test_multiset),
    }
    roles = {int(i): "train" for i in result.train_idx}
    roles.update({int(i): "test" for i in result.test_idx})
    return _csv_text(["index", "role", "multiplicity"], (
        [i, roles[i], multiplicity[roles[i]][i]] for i in range(len(result.preprocessed))
    ))


def _write_train_outputs(manifest: _Manifest, out: Path, result, config: PipelineConfig) -> None:
    _write_output(manifest, out, out / "config.json", _json_dumps(config.to_dict()))
    _write_output(manifest, out, out / "provenance.json", _json_dumps(result.provenance))
    _write_output(manifest, out, out / "preprocessed.csv", cohort_csv_text(result.preprocessed))
    _write_output(
        manifest, out, out / "preprocess_report.json",
        _json_dumps(result.preprocess_report.to_dict()),
    )
    _write_output(manifest, out, out / "factor_labels.csv", _factor_labels_csv(result))
    _write_output(manifest, out, out / "final_labels.csv", _final_labels_csv(result))
    _write_output(manifest, out, out / "importances.csv", _importances_csv(result))
    _write_output(manifest, out, out / "model.json", serialize_tree(result.final_tree))
    _write_output(manifest, out, out / "split.csv", _split_csv(result))


def _train(manifest: _Manifest, config_path: str, config: PipelineConfig, ds: Dataset,
           cohort: str, out: Path) -> None:
    """Train ``config`` (from ``config_path``) on ``ds`` (from ``cohort``) into ``out``."""
    manifest.add_config(config_path)
    manifest.doc["seeds"]["pipeline"] = config.seeds.to_dict()
    cohort_sha256 = manifest.add_input(cohort)
    manifest.doc["workers"] = parallel.worker_count(len(FACTOR_FIELDS))
    result = run_pipeline(ds, config, input_sha256=cohort_sha256)
    manifest.doc["trees"] = {
        name: {
            "nodes_grown": tree.nodes_grown,
            "candidates_scanned": tree.candidates_scanned,
            "prune_steps": tree.prune_steps,
            "build_s": round(tree.build_s, 3),
        }
        for name, tree in {**result.factor_trees, "final": result.final_tree}.items()
    }
    _write_train_outputs(manifest, out, result, config)
    manifest.write(out / "manifest.json")
    print(
        f"trained on {len(result.train_idx)} cases "
        f"({len(result.preprocessed)} after preprocessing) into {out}"
    )


def cmd_train(args) -> None:
    manifest = _Manifest("train")
    config = _pipeline_config(_load_json_config(args.config), args.ephemeral)
    ds = _load_cohort(args.cohort)
    _train(manifest, args.config, config, ds, args.cohort, Path(args.out))


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------

#: The files of a `casemix train` output directory that `evaluate` reads.
_RESULT_FILES = ("preprocessed.csv", "final_labels.csv", "factor_labels.csv",
                 "split.csv", "model.json", "config.json")


def _read_result_dir(result_dir: Path):
    for name in _RESULT_FILES:
        if not (result_dir / name).is_file():
            raise InvalidArgument(f"result dir is missing {name}")
    try:
        ds = read_cohort_csv(result_dir / "preprocessed.csv")
        config = PipelineConfig.from_dict(
            json.loads((result_dir / "config.json").read_text(encoding="utf-8"))
        )
        tree = deserialize_tree((result_dir / "model.json").read_text(encoding="utf-8"))
        rows = _csv_rows(result_dir / "final_labels.csv")
        final_labels = np.array([int(r["final_rank"]) for r in rows], dtype=np.int64)
        rows = _csv_rows(result_dir / "factor_labels.csv")
        factor_ranks = {
            f: np.array([int(r[f"{f}_rank"]) for r in rows], dtype=np.int64)
            for f in FACTOR_FIELDS
        }
        rows = _csv_rows(result_dir / "split.csv")
        train_idx = np.array(
            [int(r["index"]) for r in rows if r["role"] == "train"], dtype=np.int64
        )
        test_idx = np.array(
            [int(r["index"]) for r in rows if r["role"] == "test"], dtype=np.int64
        )
        multiplicity = {int(r["index"]): int(r["multiplicity"]) for r in rows}
    except (ValueError, KeyError, TypeError, csv.Error) as e:
        raise InvalidArgument(f"malformed result dir {result_dir}: {e}")
    except RecursionError:  # config.json nests JSON too deeply
        raise InvalidArgument(f"malformed result dir {result_dir}: config.json nests too deeply")
    if not (len(ds) == len(final_labels) == len(rows)):
        raise InvalidArgument("result dir artifacts disagree on record count")
    return ds, config, tree, final_labels, factor_ranks, train_idx, test_idx, multiplicity


def _read_hrg_labels(path: Path) -> dict[str, str]:
    if not path.is_file():
        raise InvalidArgument(f"HRG labels file not found: {path}")
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None or "id" not in reader.fieldnames or "rank" not in reader.fieldnames:
                raise InvalidArgument("HRG labels file must have 'id' and 'rank' columns")
            return {row["id"]: row["rank"] for row in reader}
    except (ValueError, csv.Error) as e:  # not UTF-8, or a cell over the csv field limit
        raise InvalidArgument(f"cannot read HRG labels {path}: {e}")


def _join_hrg(ds: Dataset, hrg_by_id: dict[str, str]) -> np.ndarray:
    ranks = []
    for rid in ds.ids.tolist():
        if rid not in hrg_by_id:
            raise InvalidArgument(f"record {rid} has no HRG label (cohort mismatch)")
        raw = hrg_by_id[rid]
        if raw == UNCLASSIFIABLE:
            raise InvalidArgument(
                f"record {rid} is HRG-unclassifiable but survived preprocessing"
            )
        try:
            ranks.append(int(raw))
        except ValueError:
            raise InvalidArgument(f"record {rid} has a non-integer HRG rank {raw!r}")
    return np.array(ranks, dtype=np.int64)


def _variances_csv(comparisons: dict) -> str:
    return _csv_text(["factor", "grouping", "rank", "n", "variance"], (
        [factor, grouping, rank, gv.n, repr(gv.variance)]
        for factor, comp in comparisons.items()
        for grouping, report in (("dt", comp.dt), ("hrg", comp.hrg))
        for rank, gv in sorted(report.per_group.items())
    ))


def _boxplots_csv(per_factor: dict) -> str:
    return _csv_text(["factor", "grouping", "rank", "min", "q1", "median", "q3", "max", "n"], (
        [factor, grouping, rank, *map(repr, (s.min, s.q1, s.median, s.q3, s.max)), s.n]
        for factor, groupings in per_factor.items()
        for grouping, stats in groupings.items()
        for rank, s in sorted(stats.items())
    ))


def _rules_csv(rules) -> str:
    return _csv_text(["rule", "conditions", "class", "support", "expected_cost"], (
        [i, rule.condition_text, rule.label, rule.support, repr(rule.expected_cost)]
        for i, rule in enumerate(rules)
    ))


def _rank_spread_csv(factor_ranks: dict, final_labels: np.ndarray) -> str:
    return _csv_text(["index", *(f"{f}_rank" for f in FACTOR_FIELDS), "final_rank"], (
        [i, *(int(factor_ranks[f][i]) for f in FACTOR_FIELDS), int(final_labels[i])]
        for i in range(len(final_labels))
    ))


def _evaluate(result: str, hrg: str, out: Path, svg: bool) -> None:
    """Compare the `train` output dir ``result`` with the HRG labels file
    ``hrg`` into ``out``; `all` too reads both from the files it wrote."""
    manifest = _Manifest("evaluate")
    result_dir = Path(result)
    if not result_dir.is_dir():
        raise InvalidArgument(f"result dir not found: {result}")
    (ds, config, tree, final_labels, factor_ranks,
     train_idx, test_idx, multiplicity) = _read_result_dir(result_dir)
    for name in _RESULT_FILES:
        manifest.add_input(result_dir / name)
    hrg_by_id = _read_hrg_labels(Path(hrg))
    manifest.add_input(hrg)
    hrg_labels = _join_hrg(ds, hrg_by_id)

    loss = linear_cost_matrix(config.k)
    predictions = predict(tree, dataset_to_table(ds))

    test_ms = np.concatenate(
        [np.full(multiplicity[int(i)], int(i), dtype=np.int64) for i in test_idx]
    ) if test_idx.size else test_idx

    conf_test = confusion(final_labels[test_idx], predictions[test_idx], loss)
    conf_test_os = confusion(final_labels[test_ms], predictions[test_ms], loss)

    train_ds, test_ds = ds.take(train_idx), ds.take(test_idx)
    comp_train = compare_groupings(train_ds, final_labels[train_idx], hrg_labels[train_idx])
    comp_test = compare_groupings(test_ds, predictions[test_idx], hrg_labels[test_idx])
    comp_test.merge_candidates = merge_diagnostic(conf_test)

    box = {"train": {}, "test": {}}
    for factor in FACTOR_FIELDS:
        train_vals = train_ds.factor_values(factor)
        test_vals = test_ds.factor_values(factor)
        box["train"][factor] = {
            "dt": boxplot_stats(train_vals, final_labels[train_idx]),
            "hrg": boxplot_stats(train_vals, hrg_labels[train_idx]),
        }
        box["test"][factor] = {
            "dt": boxplot_stats(test_vals, predictions[test_idx]),
            "hrg": boxplot_stats(test_vals, hrg_labels[test_idx]),
        }

    rules = extract_rules(tree)
    comparison_doc = {
        "train": comp_train.to_dict(),
        "test": comp_test.to_dict(),
        "merge_candidates": comp_test.merge_candidates,
    }

    _write_output(manifest, out, out / "comparison.json", _json_dumps(comparison_doc))
    _write_output(manifest, out, out / "confusion_test.json", _json_dumps(conf_test.to_dict()))
    _write_output(
        manifest, out, out / "confusion_test_oversampled.json",
        _json_dumps(conf_test_os.to_dict()),
    )
    _write_output(manifest, out, out / "variances_train.csv", _variances_csv(comp_train.factors))
    _write_output(manifest, out, out / "variances_test.csv", _variances_csv(comp_test.factors))
    _write_output(manifest, out, out / "boxplots_train.csv", _boxplots_csv(box["train"]))
    _write_output(manifest, out, out / "boxplots_test.csv", _boxplots_csv(box["test"]))
    _write_output(
        manifest, out, out / "rules.txt",
        "".join(rule.render() + "\n" for rule in rules),
    )
    _write_output(manifest, out, out / "rules.csv", _rules_csv(rules))
    _write_output(
        manifest, out, out / "rank_spread.csv", _rank_spread_csv(factor_ranks, final_labels)
    )
    if svg:
        for factor in FACTOR_FIELDS:
            for side, comp in (("train", comp_train), ("test", comp_test)):
                figure = variance_bars_svg(
                    comp.factors[factor].dt, comp.factors[factor].hrg,
                    f"Intra-group variance: {factor} ({side})",
                )
                _write_output(manifest, out, out / f"variance_{factor}_{side}.svg", figure)
            figure = boxplots_svg(
                box["test"][factor]["dt"], box["test"][factor]["hrg"],
                f"{factor} by group (test)",
            )
            _write_output(manifest, out, out / f"boxplot_{factor}_test.svg", figure)
        _write_output(
            manifest, out, out / "rank_spread.svg",
            rank_spread_svg(factor_ranks, final_labels, config.k),
        )
    manifest.write(out / "manifest.json")
    ratios = {
        f: comparison_doc["test"]["factors"][f]["ratio"] for f in FACTOR_FIELDS
    }
    print(f"evaluation written to {out}; HRG/DT variance ratios (test): {ratios}")


def cmd_evaluate(args) -> None:
    _evaluate(args.result, args.hrg, Path(args.out), args.svg)


# ---------------------------------------------------------------------------
# all
# ---------------------------------------------------------------------------

def cmd_all(args) -> None:
    manifest = _Manifest("all")
    doc = _load_json_config(args.config)
    # The pipeline section and the ruleset are checked before anything is
    # generated or written.
    pipeline_config = _pipeline_config(doc, args.ephemeral)
    ruleset = doc.get("ruleset")
    if ruleset is not None and not isinstance(ruleset, str):
        raise InvalidArgument(f"config ruleset must be a file path, got {ruleset!r}")
    rules = _load_rules(ruleset)
    check_ruleset(rules, EXTRA_SCHEMA)  # against the generator's columns
    manifest.add_config(args.config)
    out = Path(args.out)

    # hrg and train use the generated cohort, which is bit-identical to a
    # parse of the file written; each stage still hashes the file.
    cohort = str(out / "cohort.csv")
    ds = _generate(_Manifest("generate"), args.config, doc, args.ephemeral, Path(cohort))
    _hrg(_Manifest("hrg"), ds, cohort, rules, ruleset, out / "hrg")
    _train(_Manifest("train"), args.config, pipeline_config, ds, cohort, out / "result")
    _evaluate(str(out / "result"), str(out / "hrg" / "labels.csv"), out / "eval", args.svg)

    for sub in ("cohort.csv", "hrg/labels.csv", "result/model.json", "eval/comparison.json"):
        manifest.add_output(out, out / sub)
    manifest.write(out / "manifest.json")


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--ephemeral", action="store_true",
                        help="allow running without explicit seeds; generated "
                             "seeds are recorded in the manifest")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="casemix",
        description="Cost-sensitive decision-tree casemix grouping for burn cohorts",
    )
    parser.add_argument("--version", action="version", version=f"casemix {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a synthetic cohort CSV")
    p.add_argument("--config", required=True, help="cohort config JSON")
    p.add_argument("--out", required=True, help="output CSV path")
    _add_common(p)
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("hrg", help="classify a cohort with an HRG-style ruleset")
    p.add_argument("--cohort", required=True, help="cohort CSV path")
    p.add_argument("--ruleset", default=None, help="ruleset JSON (default: packaged reference)")
    p.add_argument("--out", required=True, help="output directory")
    _add_common(p)
    p.set_defaults(fn=cmd_hrg)

    p = sub.add_parser("train", help="run the target-engineering and training pipeline")
    p.add_argument("--cohort", required=True, help="cohort CSV path")
    p.add_argument("--config", required=True, help="pipeline config JSON")
    p.add_argument("--out", required=True, help="output directory")
    _add_common(p)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("evaluate", help="compare trained groups against HRG labels")
    p.add_argument("--result", required=True, help="train output directory")
    p.add_argument("--hrg", required=True, help="HRG labels CSV (from the hrg command)")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--svg", action="store_true", help="also render SVG figures")
    _add_common(p)
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("all", help="generate + hrg + train + evaluate in one output dir")
    p.add_argument("--config", required=True, help="combined config JSON")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--svg", action="store_true", help="also render SVG figures")
    _add_common(p)
    p.set_defaults(fn=cmd_all)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.fn(args)
    except PipelineStageError as e:
        code, message = EXIT_STAGE, str(e)
    except CasemixError as e:  # bad config or input content
        code, message = EXIT_CONFIG, str(e)
    except OSError as e:  # the OS could not read or write a file
        code, message = EXIT_IO, f"I/O failure: {e}"
    else:
        return EXIT_OK
    print(f"casemix: error: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
