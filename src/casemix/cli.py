"""Command-line interface: generate / hrg / train / evaluate / all.

Exit codes: 0 success, 2 bad config or input content, 3 an OS-level I/O
failure reading or writing a file, 4 pipeline-stage failure; ``main`` is the
one place that maps an exception to its code. Each ``cmd_*`` reads the files
its command line names and calls one stage function; ``casemix all`` calls
the stages directly and hands each what the stages before it hold in memory.
Every run writes a manifest recording config and input hashes, output
hashes, seeds, and wall time; outputs other than the manifest are
byte-deterministic given the same config.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import os
import secrets
import sys
import time
from collections import Counter
from collections.abc import Callable
from dataclasses import asdict
from pathlib import Path
from typing import TextIO

import numpy as np

try:
    import resource
except ImportError:  # Windows has no resource module; manifests then omit peak_rss_mb
    resource = None

from . import __version__, parallel
from .cohort import EXTRA_SCHEMA, CohortConfig, Missingness, generate_cohort, inject_missingness
from .dataio import cohort_csv_text, quoted, read_cohort_csv
from .domain import FACTOR_FIELDS, Dataset, check_value, from_json, linear_cost_matrix, read_json
from .errors import CasemixError, InvalidArgument, PipelineStageError, WorkerLostError
from .evaluate import boxplot_stats, compare_groupings, confusion, merge_diagnostic
from .hrg import (
    UNCLASSIFIABLE,
    Ruleset,
    check_ruleset,
    classify_dataset,
    load_ruleset,
)
from .pipeline import PipelineConfig, PipelineResult, dataset_to_table, run_pipeline
from .svgplot import boxplots_svg, rank_spread_svg, variance_bars_svg
from .tree import (
    extract_rules,
    predict,
    serialize_tree,
    tree_from_dict,
    variable_importance,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_STAGE = 4

#: ``ru_maxrss`` counts bytes on macOS and KiB elsewhere.
_MAXRSS_PER_MB = 1 << 20 if sys.platform == "darwin" else 1 << 10

#: The largest HRG rank the int64 label array holds.
_INT64_MAX = int(np.iinfo(np.int64).max)


def _sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


class _HashedFile(io.FileIO):
    """A file opened for writing that hashes the bytes as they reach it."""

    def __init__(self, path: Path):
        super().__init__(path, "w")
        self.sha256 = hashlib.sha256()

    def write(self, data) -> int:
        written = super().write(data)  # the buffer above retries the rest
        self.sha256.update(memoryview(data)[:written])
        return written


def _tmp(path: Path) -> Path:
    """The file ``_atomic_write`` writes before it replaces ``path``."""
    return path.with_name(path.name + ".tmp")


def _atomic_write(path: Path, write: Callable[[TextIO], object]) -> str:
    """Create ``path`` from what ``write`` writes to the text file it is
    handed, and return the sha256 of its bytes: a ``.tmp`` file beside
    ``path`` replaces it once written. If anything fails, the ``.tmp`` file
    is removed and the error re-raised."""
    tmp = _tmp(path)
    # Opened before the try, so a failed open is not followed by a failed unlink.
    raw = _HashedFile(tmp)
    try:
        # newlines as write_text writes them
        with io.TextIOWrapper(io.BufferedWriter(raw), encoding="utf-8") as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        raw.close()
        tmp.unlink(missing_ok=True)
        raise
    return raw.sha256.hexdigest()


def _json_dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _read_section(read: Callable[[dict], object], section, what: str, seed: str,
                  ephemeral: bool, draw: Callable[[], object] = lambda: secrets.randbits(63)):
    """``section`` (the config's ``what``) as ``read`` reads it. Seeds must
    be explicit, unless --ephemeral lets ``draw()`` fill a missing ``seed``
    key; the manifest records it."""
    if isinstance(section, dict) and seed not in section:
        if not ephemeral:
            raise InvalidArgument(
                f"{what} has no {seed!r} key; set it in the config or pass --ephemeral"
            )
        section = {**section, seed: draw()}
    return read(section)


class _Manifest:
    """The manifest of a command that writes its outputs into ``root``."""

    def __init__(self, command: str, root: Path):
        self.root = root
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

    def add_input(self, path: str | Path, digest: str | None = None) -> str:
        """Record the input file ``path`` with its hash, ``digest`` if the
        caller holds it; returns the hash."""
        digest = self.doc["inputs"][str(path)] = digest or _sha256_file(Path(path))
        return digest

    def output(self, name: str, write: Callable[[TextIO], object]) -> str:
        """Write ``root / name`` through ``write`` (as ``_atomic_write``),
        record its hash under ``name`` and return it."""
        path = self.root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        digest = self.doc["outputs"][name] = _atomic_write(path, write)
        return digest

    def text(self, name: str, text: str) -> None:
        self.output(name, lambda fh: fh.write(text))

    def csv(self, name: str, header, rows) -> None:
        """Write ``header`` and ``rows`` to the CSV file ``name`` as
        ``csv.writer`` formats them."""
        def write(fh):
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows)

        self.output(name, write)

    def write(self, path: Path) -> None:
        self.doc["wall_time_s"] = round(time.monotonic() - self._start, 3)
        if resource is not None:  # this process or a forked worker it waited for
            peak = max(resource.getrusage(who).ru_maxrss
                       for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
            self.doc["peak_rss_mb"] = round(peak / _MAXRSS_PER_MB, 1)
        _atomic_write(path, lambda fh: fh.write(_json_dumps(self.doc)))


def _int_cell(name: str, lo: int, hi: int) -> Callable[[str], int]:
    """A ``_csv_columns`` converter: the cell as an integer in [lo, hi]; only a
    cell outside them pays for ``check_value``, which words the error."""
    def convert(cell: str) -> int:
        value = int(cell)
        return value if lo <= value <= hi else check_value(name, int, value, ge=lo, le=hi)
    return convert


def _csv_columns(path: Path, columns: dict[str, Callable[[str], object]]) -> list[list]:
    """The named columns of the CSV file at ``path``, in ``columns`` order,
    each cell passed through its column's converter, read in one pass.
    Blank lines hold no row; a row too short for a named column, or a cell
    its converter refuses, raises ValueError naming the file and the line."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        for name in columns:
            if name not in header:
                raise ValueError(f"{path.name} has no {name!r} column")
        picks = [(header.index(name), convert, []) for name, convert in columns.items()]
        for row in reader:
            if row:
                try:
                    for i, convert, cells in picks:
                        cells.append(convert(row[i]))
                except IndexError:
                    raise ValueError(f"{path.name} line {reader.line_num} has no "
                                     f"{header[i]!r} cell") from None
                except (ValueError, InvalidArgument) as e:
                    raise ValueError(f"{path.name} line {reader.line_num}, column "
                                     f"{header[i]!r}: {e}") from None
    return [cells for _, _, cells in picks]


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------

def _generate(manifest: _Manifest, config_path: str, doc: dict, ephemeral: bool) -> Dataset:
    """Draw the cohort ``doc`` (from ``config_path``) describes."""
    manifest.add_config(config_path)
    config = _read_section(CohortConfig.from_dict, doc.get("cohort", doc), "cohort config",
                           "seed", ephemeral)
    # The whole missingness section is checked before any cohort is drawn;
    # it is absent, {} or null for none.
    section = doc.get("missingness")
    missing = None if section in (None, {}) else _read_section(
        lambda d: from_json(Missingness, d, "missingness config"), section,
        "missingness config", "seed", ephemeral)
    manifest.doc["seeds"]["cohort"] = config.seed
    manifest.doc["workers"] = parallel.worker_count(config.n)
    ds = generate_cohort(config)
    if missing is not None:
        ds = inject_missingness(ds, missing.rate, missing.seed)
        manifest.doc["seeds"]["missingness"] = missing.seed
    return ds


def _manifest_path(cohort: Path) -> Path:
    return cohort.with_name(cohort.name + ".manifest.json")


def _write_cohort(manifest: _Manifest, ds: Dataset, out: Path) -> str:
    """Write ``ds`` to ``out`` in the manifest's directory, then the
    manifest beside it; returns the sha256 of ``out``."""
    digest = manifest.output(out.name, lambda fh: cohort_csv_text(ds, fh))
    manifest.write(_manifest_path(out))
    return digest


def cmd_generate(args) -> None:
    out = Path(args.out)
    if out.name in ("", "..") or out.is_dir():
        raise InvalidArgument(f"--out {args.out!r} names a directory, not a file")
    manifest = _Manifest("generate", out.parent)
    doc = read_json(args.config, "config")
    ds = _generate(manifest, args.config, doc, args.ephemeral)
    _write_cohort(manifest, ds, out)
    print(f"wrote {len(ds)} records to {out}")


# ---------------------------------------------------------------------------
# hrg
# ---------------------------------------------------------------------------

def _load_cohort(path: str | Path) -> Dataset:
    p = Path(path)
    if not p.is_file():
        raise InvalidArgument(f"cohort file not found: {path}")
    try:
        return read_cohort_csv(p)
    except (InvalidArgument, ValueError) as e:
        raise InvalidArgument(f"cannot parse cohort {path}: {e}")


def _hrg(manifest: _Manifest, ds: Dataset, rules: Ruleset, ruleset: str | None) -> dict[str, str]:
    """Group ``ds`` by ``rules`` (from ``ruleset``); returns the written
    labels as ``_read_hrg_labels`` would. The caller records the cohort
    file as an input."""
    if ruleset:
        manifest.add_input(ruleset)
    labels, histogram = classify_dataset(ds, rules)
    ids = ds.ids.tolist()
    ranks = [UNCLASSIFIABLE if label is None else label for label in labels]
    manifest.csv("labels.csv", ["id", "rank"], zip(ids, ranks))
    manifest.text("histogram.json", _json_dumps({str(k): v for k, v in histogram.items()}))
    manifest.write(manifest.root / "manifest.json")
    return {rid: str(rank) for rid, rank in zip(ids, ranks)}


def cmd_hrg(args) -> None:
    manifest = _Manifest("hrg", Path(args.out))
    ds = _load_cohort(args.cohort)
    manifest.add_input(args.cohort)
    _hrg(manifest, ds, load_ruleset(args.ruleset), args.ruleset)
    print(f"classified {len(ds)} records into {manifest.root}")


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def _pipeline_config(doc: dict, ephemeral: bool) -> PipelineConfig:
    return _read_section(PipelineConfig.from_dict, doc.get("pipeline", doc), "pipeline config",
                         "seeds", ephemeral,
                         lambda: {"split": secrets.randbits(63), "oversample": secrets.randbits(63)})


def _write_train_outputs(manifest: _Manifest, result, config: PipelineConfig) -> None:
    manifest.text("config.json", _json_dumps(asdict(config)))
    manifest.text("provenance.json", _json_dumps(result.provenance))
    manifest.output("preprocessed.csv", lambda fh: cohort_csv_text(result.preprocessed, fh))
    manifest.text("preprocess_report.json", _json_dumps(result.preprocess_report.to_dict()))
    n, ids = len(result.preprocessed), result.preprocessed.ids.tolist()
    manifest.csv("factor_labels.csv",
                 ["index", "id", *(f"{f}_rank" for f in FACTOR_FIELDS), "mean_rank"],
                 zip(range(n), ids, *(result.factor_labels[f].tolist() for f in FACTOR_FIELDS),
                     result.mean_ranks.tolist()))
    manifest.csv("final_labels.csv", ["index", "id", "final_rank"],
                 zip(range(n), ids, result.final_labels.tolist()))
    models = [*((f, result.factor_importances[f]) for f in FACTOR_FIELDS),
              ("final", variable_importance(result.final_tree))]
    manifest.csv("importances.csv", ["model", "feature", "score"], (
        [model, name, repr(float(score))] for model, scores in models for name, score in scores
    ))
    manifest.text("model.json", serialize_tree(result.final_tree))
    is_test = np.zeros(n, dtype=bool)
    is_test[result.test_idx] = True
    multiplicity = np.where(is_test, np.bincount(result.test_multiset, minlength=n),
                            np.bincount(result.train_multiset, minlength=n))
    manifest.csv("split.csv", ["index", "role", "multiplicity"],
                 zip(range(n), np.where(is_test, "test", "train").tolist(), multiplicity.tolist()))


def _train(manifest: _Manifest, config_path: str, config: PipelineConfig, ds: Dataset,
           cohort_sha256: Callable[[], str]) -> PipelineResult:
    """Train ``config`` (from ``config_path``) on ``ds``.
    ``cohort_sha256()`` gives the hash of the cohort file ``ds`` came from,
    which the caller records as an input; it is called once the model is
    built, before anything is written."""
    manifest.add_config(config_path)
    manifest.doc["seeds"]["pipeline"] = asdict(config.seeds)
    forked = parallel.worker_count(len(FACTOR_FIELDS)) > 1  # then one worker per tree
    manifest.doc["workers"] = len(FACTOR_FIELDS) if forked else 1
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
    _write_train_outputs(manifest, result, config)
    manifest.write(manifest.root / "manifest.json")
    print(
        f"trained on {len(result.train_idx)} cases "
        f"({len(result.preprocessed)} after preprocessing) into {manifest.root}"
    )
    return result


def cmd_train(args) -> None:
    manifest = _Manifest("train", Path(args.out))
    config = _pipeline_config(read_json(args.config, "config"), args.ephemeral)
    ds = _load_cohort(args.cohort)
    cohort_sha256 = manifest.add_input(args.cohort)
    _train(manifest, args.config, config, ds, lambda: cohort_sha256)


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------

#: The files of a `casemix train` output directory that `evaluate` reads.
_RESULT_FILES = ("preprocessed.csv", "final_labels.csv", "factor_labels.csv",
                 "split.csv", "model.json", "config.json")


def _read_document(path: Path, read):
    """``read`` of the result document at ``path``; its errors name the file."""
    doc = read_json(path, "result")
    try:
        return read(doc)
    except InvalidArgument as e:
        raise InvalidArgument(f"result {path}: {e}") from None


def _read_result_dir(result_dir: Path):
    """`_evaluate`'s arguments from ``ds`` on, read from the `train` output ``result_dir``."""
    if not result_dir.is_dir():
        raise InvalidArgument(f"result dir not found: {result_dir}")
    for name in _RESULT_FILES:
        if not (result_dir / name).is_file():
            raise InvalidArgument(f"result dir is missing {name}")
    ds = _load_cohort(result_dir / "preprocessed.csv")
    table = dataset_to_table(ds)
    for name, col in zip(table.names, table.columns):  # `train` writes every cell imputed
        if (np.isnan(col) if col.dtype == np.float64 else col < 0).any():
            raise InvalidArgument(f"result {result_dir / 'preprocessed.csv'}: blank {name!r} cell")
    try:
        config = _read_document(result_dir / "config.json", PipelineConfig.from_dict)
        tree = _read_document(result_dir / "model.json", tree_from_dict)
        rank = _int_cell("a rank", 1, tree.k)
        (final_labels,) = _csv_columns(result_dir / "final_labels.csv", {"final_rank": rank})
        final_labels = np.array(final_labels, dtype=np.int64)
        factor_columns = _csv_columns(result_dir / "factor_labels.csv",
                                      {f"{f}_rank": rank for f in FACTOR_FIELDS})
        factor_ranks = {f: np.array(ranks, dtype=np.int64)
                        for f, ranks in zip(FACTOR_FIELDS, factor_columns)}
        split_idx, roles, multiplicity = _csv_columns(result_dir / "split.csv", {
            "index": _int_cell("an index", 0, len(ds) - 1), "role": sys.intern,
            "multiplicity": _int_cell("a multiplicity", 1, len(ds))})
        split_idx, roles = np.array(split_idx, dtype=np.int64), np.array(roles, dtype=object)
        train_idx, test_idx = split_idx[roles == "train"], split_idx[roles == "test"]
        multiplicity = np.array(multiplicity, dtype=np.int64)[roles == "test"]
    except (ValueError, KeyError, TypeError, IndexError, OverflowError, csv.Error) as e:
        raise InvalidArgument(f"malformed result dir {result_dir}: {e}")
    if not (len(ds) == len(final_labels) == len(factor_ranks[FACTOR_FIELDS[0]])):
        raise InvalidArgument("result dir artifacts disagree on record count")
    if config.k != tree.k:
        raise InvalidArgument(f"result dir config.json has k {config.k}, its model.json {tree.k}")
    if tree.k > len(ds):  # `train` finds k distinct mean ranks among these rows
        raise InvalidArgument(f"result dir model.json has k {tree.k}, above its {len(ds)} records")
    if len(train_idx) + len(test_idx) != len(split_idx) or not np.array_equal(
        np.sort(split_idx), np.arange(len(ds))
    ):
        raise InvalidArgument(
            "split.csv must list every record index once, with role train or test"
        )
    # `train` oversamples each class of test rows up to the largest class.
    if multiplicity.sum() > tree.k * len(test_idx):
        raise InvalidArgument(f"split.csv test multiplicities sum to {multiplicity.sum()}, "
                              f"above k {tree.k} times its {len(test_idx)} test rows")
    test_ms = np.repeat(test_idx, multiplicity)
    try:
        predictions = predict(tree, table)
    except InvalidArgument as e:  # the model's schema is not the table's
        raise InvalidArgument(f"result {result_dir / 'model.json'}: {e}") from None
    return ds, tree, predictions, final_labels, factor_ranks, train_idx, test_idx, test_ms


def _read_hrg_labels(path: Path) -> dict[str, str]:
    """Each record id's raw HRG rank cell; the file lists every id once."""
    if not path.is_file():
        raise InvalidArgument(f"HRG labels file not found: {path}")
    try:
        ids, ranks = _csv_columns(path, {"id": str, "rank": str})
    except (ValueError, csv.Error) as e:  # not UTF-8, a short row, a cell over the csv field limit
        raise InvalidArgument(f"cannot read HRG labels {path}: {e}")
    hrg_by_id = dict(zip(ids, ranks))
    if len(hrg_by_id) < len(ids):
        repeated = next(rid for rid, count in Counter(ids).items() if count > 1)
        raise InvalidArgument(f"HRG labels {path} list id {quoted(repeated)} more than once")
    return hrg_by_id


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
            rank = int(raw)
        except ValueError:
            raise InvalidArgument(f"record {rid} has a non-integer HRG rank {quoted(raw)}")
        # Every ruleset rank is at least 1; the ruleset's k is not known here.
        if rank < 1:
            raise InvalidArgument(f"record {rid} has HRG rank {rank}, below 1")
        if rank > _INT64_MAX:
            raise InvalidArgument(f"record {rid} has HRG rank {rank}, beyond int64")
        ranks.append(rank)
    return np.array(ranks, dtype=np.int64)


def _evaluate(manifest: _Manifest, hrg_by_id: dict[str, str], svg: bool,
              ds: Dataset, tree, predictions: np.ndarray, final_labels: np.ndarray,
              factor_ranks: dict, train_idx: np.ndarray, test_idx: np.ndarray,
              test_ms: np.ndarray) -> None:
    """Compare a trained model with the HRG labels ``hrg_by_id``:
    ``ds`` is the preprocessed cohort, ``tree`` the final tree, whose k is the
    pipeline's, ``predictions`` its groups for ``ds``, and ``test_ms`` the
    oversampled test multiset in any order.
    `evaluate` reads these from the files it records as inputs, `all` passes
    what it wrote there. Each side, the training rows under their engineered
    labels and the test rows under the tree's predictions, is compared with
    the HRG groups in one pass: it takes the side's rows, writes the side's
    variances, box plots and figures, and drops the rows before the next."""
    hrg_labels = _join_hrg(ds, hrg_by_id)

    loss = linear_cost_matrix(tree.k)
    conf_test = confusion(final_labels[test_idx], predictions[test_idx], loss)
    conf_test_os = confusion(final_labels[test_ms], predictions[test_ms], loss)

    comparison_doc = {}
    for side, idx, labels in (("train", train_idx, final_labels), ("test", test_idx, predictions)):
        rows, dt, hrg = ds.take(idx), labels[idx], hrg_labels[idx]
        comp = compare_groupings(rows, dt, hrg)
        box = {f: {name: boxplot_stats(rows.factor_values(f), groups)
                   for name, groups in (("dt", dt), ("hrg", hrg))} for f in FACTOR_FIELDS}
        del rows
        comparison_doc[side] = comp.to_dict()
        manifest.csv(f"variances_{side}.csv", ["factor", "grouping", "rank", "n", "variance"], (
            [factor, grouping, rank, gv.n, repr(gv.variance)]
            for factor, reports in comp.factors.items()
            for grouping, report in (("dt", reports.dt), ("hrg", reports.hrg))
            for rank, gv in sorted(report.per_group.items())
        ))
        manifest.csv(f"boxplots_{side}.csv",
                     ["factor", "grouping", "rank", "min", "q1", "median", "q3", "max", "n"], (
            [factor, grouping, rank, *map(repr, (s.min, s.q1, s.median, s.q3, s.max)), s.n]
            for factor, groupings in box.items()
            for grouping, stats in groupings.items()
            for rank, s in sorted(stats.items())
        ))
        if not svg:
            continue
        for factor in FACTOR_FIELDS:
            reports, title = comp.factors[factor], f"Intra-group variance: {factor} ({side})"
            manifest.output(f"variance_{factor}_{side}.svg",
                            lambda fh: variance_bars_svg(reports.dt, reports.hrg, title, fh))
            if side == "test":
                stats = box[factor]
                manifest.output(f"boxplot_{factor}_test.svg",
                                lambda fh: boxplots_svg(stats["dt"], stats["hrg"],
                                                        f"{factor} by group (test)", fh))
    comparison_doc["merge_candidates"] = comparison_doc["test"]["merge_candidates"] = (
        merge_diagnostic(conf_test))

    rules = extract_rules(tree)
    manifest.text("comparison.json", _json_dumps(comparison_doc))
    manifest.text("confusion_test.json", _json_dumps(conf_test.to_dict()))
    manifest.text("confusion_test_oversampled.json", _json_dumps(conf_test_os.to_dict()))
    manifest.text("rules.txt", "".join(rule.render() + "\n" for rule in rules))
    manifest.csv("rules.csv", ["rule", "conditions", "class", "support", "expected_cost"], (
        [i, rule.condition_text, rule.label, rule.support, repr(rule.expected_cost)]
        for i, rule in enumerate(rules)
    ))
    manifest.csv("rank_spread.csv", ["index", *(f"{f}_rank" for f in FACTOR_FIELDS), "final_rank"],
                 zip(range(len(final_labels)), *(factor_ranks[f].tolist() for f in FACTOR_FIELDS),
                     final_labels.tolist()))
    if svg:
        manifest.output("rank_spread.svg",
                        lambda fh: rank_spread_svg(factor_ranks, final_labels, tree.k, fh))
    manifest.write(manifest.root / "manifest.json")
    ratios = {
        f: comparison_doc["test"]["factors"][f]["ratio"] for f in FACTOR_FIELDS
    }
    print(f"evaluation written to {manifest.root}; HRG/DT variance ratios (test): {ratios}")


def cmd_evaluate(args) -> None:
    manifest = _Manifest("evaluate", Path(args.out))
    result_dir = Path(args.result)
    trained = _read_result_dir(result_dir)
    hrg_by_id = _read_hrg_labels(Path(args.hrg))
    for path in [*(result_dir / name for name in _RESULT_FILES), args.hrg]:
        manifest.add_input(path)
    _evaluate(manifest, hrg_by_id, args.svg, *trained)


# ---------------------------------------------------------------------------
# all
# ---------------------------------------------------------------------------

def cmd_all(args) -> None:
    out = Path(args.out)
    manifest = _Manifest("all", out)
    doc = read_json(args.config, "config")
    # The pipeline section and the ruleset are checked before anything is
    # generated or written.
    pipeline_config = _pipeline_config(doc, args.ephemeral)
    ruleset = doc.get("ruleset")
    if ruleset is not None and not isinstance(ruleset, str):
        raise InvalidArgument(f"config ruleset must be a file path, got {ruleset!r}")
    rules = load_ruleset(ruleset)
    check_ruleset(rules, EXTRA_SCHEMA)  # against the generator's columns
    manifest.add_config(args.config)

    # Each stage takes what the one before it holds in memory, which is
    # bit-identical to a parse of the files it wrote, and the hashes of the
    # bytes it wrote. A forked writer writes the cohort and groups it by HRG
    # while this process trains; its outputs are joined before the cohort's
    # hash is recorded and before any error leaves.
    cohort, hrg_out = out / "cohort.csv", out / "hrg"
    generate = _Manifest("generate", out)
    ds = _generate(generate, args.config, doc, args.ephemeral)

    def write_and_group() -> tuple[str, tuple[str, dict[str, str]] | Exception]:
        """The cohort's hash, then the HRG labels' hash and the labels, or
        the error of the HRG stage, which is raised once the cohort's line
        is printed."""
        cohort_sha256 = _write_cohort(generate, ds, cohort)
        hrg = _Manifest("hrg", hrg_out)
        hrg.add_input(cohort, cohort_sha256)
        try:
            hrg_by_id = _hrg(hrg, ds, rules, ruleset)
        except Exception as e:
            return cohort_sha256, e
        return cohort_sha256, (hrg.doc["outputs"]["labels.csv"], hrg_by_id)

    writer = parallel.start(write_and_group)
    joined = None

    def join_writer() -> tuple[str, str, dict[str, str]]:
        """The cohort's hash, the HRG labels' hash and the labels; the first
        call waits for the writer and prints the lines of its stages."""
        nonlocal joined
        if joined is None:
            joined = writer.join()
            print(f"wrote {len(ds)} records to {cohort}")
            if not isinstance(joined[1], Exception):
                print(f"classified {len(ds)} records into {hrg_out}")
        cohort_sha256, grouped = joined
        if isinstance(grouped, Exception):
            raise grouped
        return cohort_sha256, *grouped

    train = _Manifest("train", out / "result")
    try:
        result = _train(train, args.config, pipeline_config, ds,
                        lambda: train.add_input(cohort, join_writer()[0]))
    except Exception:
        join_writer()  # a writer error comes first
        raise
    finally:
        writer.kill()  # after an interrupt; a no-op once the writer is reaped
        if joined is None:  # the writer was stopped or lost: remove what it was writing
            for path in (cohort, _manifest_path(cohort),
                         *(hrg_out / name for name in ("labels.csv", "histogram.json",
                                                       "manifest.json"))):
                with contextlib.suppress(OSError):
                    _tmp(path).unlink()
    cohort_sha256, labels_sha256, hrg_by_id = join_writer()
    evaluate = _Manifest("evaluate", out / "eval")
    for name in _RESULT_FILES:
        evaluate.add_input(train.root / name, train.doc["outputs"][name])
    evaluate.add_input(hrg_out / "labels.csv", labels_sha256)
    _evaluate(evaluate, hrg_by_id, args.svg, result.preprocessed, result.final_tree,
              predict(result.final_tree, dataset_to_table(result.preprocessed)),
              result.final_labels, result.factor_labels, result.train_idx,
              result.test_idx, result.test_multiset)

    manifest.doc["outputs"].update({
        "cohort.csv": cohort_sha256, "hrg/labels.csv": labels_sha256,
        "result/model.json": train.doc["outputs"]["model.json"],
        "eval/comparison.json": evaluate.doc["outputs"]["comparison.json"],
    })
    manifest.write(out / "manifest.json")


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _add_ephemeral(parser: argparse.ArgumentParser) -> None:
    """Only the commands that draw seeds take --ephemeral."""
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
    _add_ephemeral(p)
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("hrg", help="classify a cohort with an HRG-style ruleset")
    p.add_argument("--cohort", required=True, help="cohort CSV path")
    p.add_argument("--ruleset", default=None, help="ruleset JSON (default: packaged reference)")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(fn=cmd_hrg)

    p = sub.add_parser("train", help="run the target-engineering and training pipeline")
    p.add_argument("--cohort", required=True, help="cohort CSV path")
    p.add_argument("--config", required=True, help="pipeline config JSON")
    p.add_argument("--out", required=True, help="output directory")
    _add_ephemeral(p)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("evaluate", help="compare trained groups against HRG labels")
    p.add_argument("--result", required=True, help="train output directory")
    p.add_argument("--hrg", required=True, help="HRG labels CSV (from the hrg command)")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--svg", action="store_true", help="also render SVG figures")
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("all", help="generate + hrg + train + evaluate in one output dir")
    p.add_argument("--config", required=True, help="combined config JSON")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--svg", action="store_true", help="also render SVG figures")
    _add_ephemeral(p)
    p.set_defaults(fn=cmd_all)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.fn(args)
    except (PipelineStageError, WorkerLostError) as e:
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
