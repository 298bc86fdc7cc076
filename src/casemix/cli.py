"""Command-line interface: generate / hrg / train / evaluate / all.

Exit codes: 0 success, 2 config or input error, 3 I/O failure writing
outputs, 4 pipeline-stage failure. Every run writes a manifest recording
config and input hashes, output hashes, seeds, and wall time; outputs other
than the manifest are byte-deterministic given the same config.
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

from . import __version__
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


class _ConfigError(Exception):
    pass


def _fail(code: int, message: str) -> int:
    print(f"casemix: error: {message}", file=sys.stderr)
    return code


def _sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _sha256_file(path: Path) -> str:
    return _sha256_bytes(path.read_bytes())


def _atomic_write(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def _json_dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _load_json_config(path: str) -> dict:
    p = Path(path)
    if not p.is_file():
        raise _ConfigError(f"config file not found: {path}")
    try:
        doc = json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError as e:
        raise _ConfigError(f"config {path} is not valid JSON: {e}")
    if not isinstance(doc, dict):
        raise _ConfigError(f"config {path} must be a JSON object")
    return doc


def _require_seed(present: bool, what: str, ephemeral: bool) -> int | None:
    """Seeds must be explicit unless --ephemeral generates and records them."""
    if present:
        return None
    if not ephemeral:
        raise _ConfigError(
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

def _cohort_from_config(doc: dict, ephemeral: bool, manifest: _Manifest) -> Dataset:
    cohort_doc = doc.get("cohort", doc)
    if not isinstance(cohort_doc, dict):
        raise _ConfigError("cohort config must be a JSON object")
    cohort_doc = dict(cohort_doc)
    fresh = _require_seed("seed" in cohort_doc, "cohort config", ephemeral)
    if fresh is not None:
        cohort_doc["seed"] = fresh
    try:
        config = CohortConfig.from_dict(cohort_doc)
    except InvalidArgument as e:
        raise _ConfigError(str(e))
    manifest.doc["seeds"]["cohort"] = config.seed
    ds = generate_cohort(config)
    missing = doc.get("missingness")
    if missing:
        if not isinstance(missing, dict):
            raise _ConfigError("missingness config must be a JSON object")
        rate = missing.get("rate", 0.0)
        if not isinstance(rate, (int, float)) or isinstance(rate, bool):
            raise _ConfigError(f"missingness rate must be a number, got {rate!r}")
        m_fresh = _require_seed("seed" in missing, "missingness config", ephemeral)
        m_seed = missing.get("seed", m_fresh)
        try:
            ds = inject_missingness(ds, rate, m_seed)
        except InvalidArgument as e:
            raise _ConfigError(str(e))
        manifest.doc["seeds"]["missingness"] = m_seed
    return ds


def _generate(args) -> tuple[int, Dataset | None]:
    """``cmd_generate``'s exit code, and the cohort it wrote on success."""
    try:
        manifest = _Manifest("generate")
        doc = _load_json_config(args.config)
        manifest.add_config(args.config)
        ds = _cohort_from_config(doc, args.ephemeral, manifest)
    except _ConfigError as e:
        return _fail(EXIT_CONFIG, str(e)), None
    out = Path(args.out)
    try:
        out.parent.mkdir(parents=True, exist_ok=True)
        _atomic_write(out, cohort_csv_text(ds))
        manifest.doc["outputs"][out.name] = _sha256_file(out)
        manifest.write(out.with_name(out.name + ".manifest.json"))
    except OSError as e:
        return _fail(EXIT_IO, f"cannot write output: {e}"), None
    print(f"wrote {len(ds)} records to {out}")
    return EXIT_OK, ds


def cmd_generate(args) -> int:
    return _generate(args)[0]


# ---------------------------------------------------------------------------
# hrg
# ---------------------------------------------------------------------------

def _cohort(args) -> Dataset:
    """The cohort ``casemix all`` has parsed already, else the one at ``args.cohort``."""
    return args.dataset if args.dataset is not None else _load_cohort(args.cohort)


def _load_cohort(path: str) -> Dataset:
    p = Path(path)
    if not p.is_file():
        raise _ConfigError(f"cohort file not found: {path}")
    try:
        return read_cohort_csv(p)
    except (InvalidArgument, ValueError) as e:
        raise _ConfigError(f"cannot parse cohort {path}: {e}")


def _hrg_labels_csv(ds: Dataset, labels: list[int | None]) -> str:
    return _csv_text(["id", "rank"], (
        (rid, UNCLASSIFIABLE if label is None else label)
        for rid, label in zip(ds.ids.tolist(), labels)
    ))


def _load_rules(path: str | None) -> Ruleset:
    """The ruleset at ``path``, or the packaged reference ruleset if none."""
    if path and not Path(path).is_file():
        raise _ConfigError(f"ruleset file not found: {path}")
    return load_ruleset(path) if path else reference_ruleset()


def cmd_hrg(args) -> int:
    try:
        manifest = _Manifest("hrg")
        ds = _cohort(args)
        manifest.add_input(args.cohort)
        # `casemix all` passes the ruleset it has loaded already.
        ruleset = args.rules if args.rules is not None else _load_rules(args.ruleset)
        if args.ruleset:
            manifest.add_input(args.ruleset)
        labels, histogram = classify_dataset(ds, ruleset)
    except (_ConfigError, CasemixError) as e:
        return _fail(EXIT_CONFIG, str(e))
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
        _write_output(manifest, out, out / "labels.csv", _hrg_labels_csv(ds, labels))
        _write_output(
            manifest, out, out / "histogram.json",
            _json_dumps({str(k): v for k, v in histogram.items()}),
        )
        manifest.write(out / "manifest.json")
    except OSError as e:
        return _fail(EXIT_IO, f"cannot write output: {e}")
    print(f"classified {len(labels)} records into {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def _pipeline_config(doc: dict, ephemeral: bool) -> PipelineConfig:
    pipe_doc = doc.get("pipeline", doc)
    if not isinstance(pipe_doc, dict):
        raise _ConfigError("pipeline config must be a JSON object")
    pipe_doc = dict(pipe_doc)
    fresh = _require_seed("seeds" in pipe_doc, "pipeline config", ephemeral)
    if fresh is not None:
        pipe_doc["seeds"] = {"split": fresh, "oversample": secrets.randbits(63)}
    try:
        config = PipelineConfig.from_dict(pipe_doc)
    except InvalidArgument as e:
        raise _ConfigError(str(e))
    return config


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
    out.mkdir(parents=True, exist_ok=True)
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


def cmd_train(args) -> int:
    try:
        manifest = _Manifest("train")
        config = args.pipeline_config
        if config is None:  # `casemix all` passes the config it has checked
            config = _pipeline_config(_load_json_config(args.config), args.ephemeral)
        manifest.add_config(args.config)
        manifest.doc["seeds"]["pipeline"] = config.seeds.to_dict()
        ds = _cohort(args)
        cohort_sha256 = manifest.add_input(args.cohort)
    except _ConfigError as e:
        return _fail(EXIT_CONFIG, str(e))
    try:
        result = run_pipeline(ds, config, input_sha256=cohort_sha256)
    except PipelineStageError as e:
        return _fail(EXIT_STAGE, str(e))
    manifest.doc["trees"] = {
        name: {
            "nodes_grown": tree.nodes_grown,
            "candidates_scanned": tree.candidates_scanned,
            "prune_steps": tree.prune_steps,
        }
        for name, tree in {**result.factor_trees, "final": result.final_tree}.items()
    }
    out = Path(args.out)
    try:
        _write_train_outputs(manifest, out, result, config)
        manifest.write(out / "manifest.json")
    except OSError as e:
        return _fail(EXIT_IO, f"cannot write output: {e}")
    print(
        f"trained on {len(result.train_idx)} cases "
        f"({len(result.preprocessed)} after preprocessing) into {out}"
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------

#: The files of a `casemix train` output directory that `evaluate` reads.
_RESULT_FILES = ("preprocessed.csv", "final_labels.csv", "factor_labels.csv",
                 "split.csv", "model.json", "config.json")


def _read_result_dir(result_dir: Path):
    for name in _RESULT_FILES:
        if not (result_dir / name).is_file():
            raise _ConfigError(f"result dir is missing {name}")
    try:
        ds = read_cohort_csv(result_dir / "preprocessed.csv")
        config = PipelineConfig.from_dict(json.loads((result_dir / "config.json").read_text()))
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
    except (ValueError, KeyError, TypeError, json.JSONDecodeError) as e:
        raise _ConfigError(f"malformed result dir {result_dir}: {e}")
    if not (len(ds) == len(final_labels) == len(rows)):
        raise _ConfigError("result dir artifacts disagree on record count")
    return ds, config, tree, final_labels, factor_ranks, train_idx, test_idx, multiplicity


def _read_hrg_labels(path: Path) -> dict[str, str]:
    if not path.is_file():
        raise _ConfigError(f"HRG labels file not found: {path}")
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or "id" not in reader.fieldnames or "rank" not in reader.fieldnames:
            raise _ConfigError("HRG labels file must have 'id' and 'rank' columns")
        return {row["id"]: row["rank"] for row in reader}


def _join_hrg(ds: Dataset, hrg_by_id: dict[str, str]) -> np.ndarray:
    ranks = []
    for rid in ds.ids.tolist():
        if rid not in hrg_by_id:
            raise _ConfigError(f"record {rid} has no HRG label (cohort mismatch)")
        raw = hrg_by_id[rid]
        if raw == UNCLASSIFIABLE:
            raise _ConfigError(
                f"record {rid} is HRG-unclassifiable but survived preprocessing"
            )
        try:
            ranks.append(int(raw))
        except ValueError:
            raise _ConfigError(f"record {rid} has a non-integer HRG rank {raw!r}")
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


def cmd_evaluate(args) -> int:
    try:
        manifest = _Manifest("evaluate")
        result_dir = Path(args.result)
        if not result_dir.is_dir():
            raise _ConfigError(f"result dir not found: {args.result}")
        (ds, config, tree, final_labels, factor_ranks,
         train_idx, test_idx, multiplicity) = _read_result_dir(result_dir)
        for name in _RESULT_FILES:
            manifest.add_input(result_dir / name)
        hrg_by_id = _read_hrg_labels(Path(args.hrg))
        manifest.add_input(args.hrg)
        hrg_labels = _join_hrg(ds, hrg_by_id)
    except (_ConfigError, CasemixError) as e:
        return _fail(EXIT_CONFIG, str(e))

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

    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
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
        if args.svg:
            for factor in FACTOR_FIELDS:
                for side, comp in (("train", comp_train), ("test", comp_test)):
                    svg = variance_bars_svg(
                        comp.factors[factor].dt, comp.factors[factor].hrg,
                        f"Intra-group variance: {factor} ({side})",
                    )
                    _write_output(manifest, out, out / f"variance_{factor}_{side}.svg", svg)
                svg = boxplots_svg(
                    box["test"][factor]["dt"], box["test"][factor]["hrg"],
                    f"{factor} by group (test)",
                )
                _write_output(manifest, out, out / f"boxplot_{factor}_test.svg", svg)
            _write_output(
                manifest, out, out / "rank_spread.svg",
                rank_spread_svg(factor_ranks, final_labels, config.k),
            )
        manifest.write(out / "manifest.json")
    except OSError as e:
        return _fail(EXIT_IO, f"cannot write output: {e}")
    ratios = {
        f: comparison_doc["test"]["factors"][f]["ratio"] for f in FACTOR_FIELDS
    }
    print(f"evaluation written to {out}; HRG/DT variance ratios (test): {ratios}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# all
# ---------------------------------------------------------------------------

def cmd_all(args) -> int:
    try:
        doc = _load_json_config(args.config)
        # The pipeline section and the ruleset are checked before anything
        # is generated or written.
        pipeline_config = _pipeline_config(doc, args.ephemeral)
        rules = _load_rules(doc.get("ruleset"))
        check_ruleset(rules, EXTRA_SCHEMA)  # against the generator's columns
    except (_ConfigError, CasemixError) as e:
        return _fail(EXIT_CONFIG, str(e))
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        return _fail(EXIT_IO, f"cannot create output dir: {e}")
    manifest = _Manifest("all")
    manifest.add_config(args.config)

    # hrg and train use the generated cohort, which is bit-identical to a
    # parse of the file written; each stage still hashes the file.
    cohort = str(out / "cohort.csv")
    ns = argparse.Namespace(config=args.config, out=cohort, ephemeral=args.ephemeral)
    code, ds = _generate(ns)
    if code != EXIT_OK:
        return code

    ns = argparse.Namespace(
        cohort=cohort, dataset=ds, ruleset=doc.get("ruleset"), rules=rules,
        out=str(out / "hrg"), ephemeral=args.ephemeral,
    )
    code = cmd_hrg(ns)
    if code != EXIT_OK:
        return code

    ns = argparse.Namespace(
        cohort=cohort, dataset=ds, config=args.config, pipeline_config=pipeline_config,
        out=str(out / "result"), ephemeral=args.ephemeral,
    )
    code = cmd_train(ns)
    if code != EXIT_OK:
        return code

    ns = argparse.Namespace(
        result=str(out / "result"), hrg=str(out / "hrg" / "labels.csv"),
        out=str(out / "eval"), svg=args.svg, ephemeral=args.ephemeral,
    )
    code = cmd_evaluate(ns)
    if code != EXIT_OK:
        return code

    try:
        for sub in ("cohort.csv", "hrg/labels.csv", "result/model.json", "eval/comparison.json"):
            manifest.add_output(out, out / sub)
        manifest.write(out / "manifest.json")
    except OSError as e:
        return _fail(EXIT_IO, f"cannot write manifest: {e}")
    return EXIT_OK


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
    p.set_defaults(fn=cmd_hrg, dataset=None, rules=None)

    p = sub.add_parser("train", help="run the target-engineering and training pipeline")
    p.add_argument("--cohort", required=True, help="cohort CSV path")
    p.add_argument("--config", required=True, help="pipeline config JSON")
    p.add_argument("--out", required=True, help="output directory")
    _add_common(p)
    p.set_defaults(fn=cmd_train, dataset=None, pipeline_config=None)

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
        return args.fn(args)
    except CasemixError as e:
        return _fail(EXIT_STAGE if isinstance(e, PipelineStageError) else EXIT_CONFIG, str(e))


if __name__ == "__main__":
    sys.exit(main())
