"""Fuzzed documents through the CLI, in process: rulesets for `hrg`, cohort
and missingness configs for `generate`, and a trained result's
`config.json` and `model.json` for `evaluate`, then each CSV file that
`evaluate` reads. Whatever a document holds, a command exits 0, 2, 3 or 4
as the README's exit codes say, raises nothing and leaves no `.tmp` file
behind.

Each document starts valid and names every key its reader knows. One test
sets each key, wherever it occurs, to each edge value of its JSON type in
turn; another makes random edits with Hypothesis, derandomized so that a
run tests the same documents every time. A third derives the edges of each
config section from its declared fields, so that a key is fuzzed as soon as
it is declared. A last one edits one record's row of each CSV file: the
row duplicated, deleted, cut short or given an open quote, or one of its
cells replaced by an edge value."""

import copy
import csv
import dataclasses
import json
import math
import shutil
import tempfile
import typing
from functools import reduce
from operator import getitem
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from casemix.cli import main
from casemix.cohort import CohortConfig, Missingness
from casemix.domain import from_json
from casemix.pipeline import PipelineConfig, PipelineSeeds

#: Values at the edges of what a reader of each JSON type accepts: huge
#: integers, wide and non-finite floats, containers where a string belongs.
EDGES = {
    int: [2**70, 2**63, 10**9, -1, 0],
    float: [1e308, -1e308, 1000.0, math.inf, math.nan, 0.0],
    str: [["tbsa_pct"], {"name": "tbsa_pct"}, 3, None, ""],
    bool: [0, 1, "true", None],
    type(None): [0, "", [], {}],
}
JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner,
                                                                max_size=3),
    max_leaves=6,
)

RULESET = {"version": "x", "k": 3, "default": None, "rules": [
    {"if": [{"feature": "tbsa_pct", "op": ">=", "value": 15}], "then": 3},
    {"if": [{"feature": "sex", "op": "in", "value": ["F"]},
            {"feature": "tbsa_pct", "op": ">=", "value": 5.5}], "then": 2},
    {"if": [], "then": 1},
]}
#: Every cohort config key, at its default but for ``n`` and ``seed``, as JSON gives it.
COHORT = json.loads(json.dumps({"cohort": dataclasses.asdict(CohortConfig(n=50, seed=1)),
                                "missingness": {"rate": 0.2, "seed": 7}}))


def _walk(doc, path=()):
    """(path, value) of every value in ``doc``, the root's first."""
    yield path, doc
    if isinstance(doc, (dict, list)):
        for key, value in doc.items() if isinstance(doc, dict) else enumerate(doc):
            yield from _walk(value, (*path, key))


def _scalars(doc) -> dict:
    """The paths of ``doc``'s scalars by key name, "[]" for a list item."""
    places: dict = {}
    for path, value in _walk(doc):
        if path and not isinstance(value, (dict, list)):
            places.setdefault(path[-1] if isinstance(path[-1], str) else "[]", []).append(path)
    return places


def edge_edits(doc):
    """(key, value, document) for each scalar key of ``doc`` and each edge
    value of its first scalar's type, set at every place the key holds one."""
    for key, paths in _scalars(doc).items():
        for value in EDGES[type(reduce(getitem, paths[0], doc))]:
            edited = copy.deepcopy(doc)
            for path in paths:
                reduce(getitem, path[:-1], edited)[path[-1]] = value
            yield key, value, edited


@st.composite
def mutated(draw, doc):
    """``doc`` after one random edit: a scalar replaced by any JSON value
    (its key's name picked first, so that a key found once weighs as much
    as one in every rule or node), a key or list item dropped, or a key
    added to an object, one of the document's own key names or any string."""
    doc = copy.deepcopy(doc)
    edit = draw(st.sampled_from(["replace", "drop", "add"]))
    if edit == "add":
        values = list(_walk(doc))
        keys = sorted({path[-1] for path, _ in values if path and isinstance(path[-1], str)})
        target = draw(st.sampled_from([value for _, value in values if isinstance(value, dict)]))
        target[draw(st.sampled_from(keys) | st.text(max_size=6))] = draw(JSON)
        return doc
    places = _scalars(doc)
    path = draw(st.sampled_from(places[draw(st.sampled_from(sorted(places)))]))
    if edit == "drop":
        path = path[:draw(st.integers(1, len(path)))]  # the scalar or a container holding it
        del reduce(getitem, path[:-1], doc)[path[-1]]
    else:
        reduce(getitem, path[:-1], doc)[path[-1]] = draw(JSON)
    return doc


def _written(path: Path, doc) -> Path:
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def hrg_args(doc, scratch: Path, run_dir: Path) -> list:
    return ["hrg", "--cohort", run_dir / "cohort.csv",
            "--ruleset", _written(scratch / "rules.json", doc), "--out", scratch / "hrg"]


def generate_args(doc, scratch: Path, run_dir: Path) -> list:
    cohort = doc.get("cohort")
    if type(cohort) is dict and type(cohort.get("n")) is int and 50 < cohort["n"] <= 2**32:
        cohort["n"] = 50  # keep each draw small; a larger n is refused
    return ["generate", "--config", _written(scratch / "config.json", doc),
            "--out", scratch / "cohort.csv"]


def evaluate_args(name: str):
    def args(doc, scratch: Path, run_dir: Path) -> list:
        result = shutil.copytree(run_dir / "result", scratch / "result")
        _written(result / name, doc)
        return ["evaluate", "--result", result, "--hrg", run_dir / "hrg" / "labels.csv",
                "--out", scratch / "eval"]
    return args


def run(args, doc, run_dir: Path) -> int:
    """Run the command that ``args`` makes for ``doc`` in a scratch
    directory: it exits as the README says and leaves no ``.tmp`` file.
    Returns its exit code."""
    with tempfile.TemporaryDirectory() as tmp:
        scratch = Path(tmp)
        code = main([str(a) for a in args(doc, scratch, run_dir)])
        assert code in (0, 2, 3, 4)
        assert not list(scratch.rglob("*.tmp"))
        return code


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    """One small `casemix all` run: its cohort, HRG labels and result."""
    root = tmp_path_factory.mktemp("fuzz")
    config = _written(root / "config.json", {
        "cohort": {"n": 250, "seed": 31},
        "pipeline": {"k": 6, "seeds": {"split": 2, "oversample": 3}},
    })
    assert main(["all", "--config", str(config), "--out", str(root / "run")]) == 0
    return root / "run"


@pytest.fixture(scope="module")
def documents(run_dir):
    """Each fuzzed document's valid form and the arguments of its command."""
    result = {name: json.loads((run_dir / "result" / name).read_text(encoding="utf-8"))
              for name in ("config.json", "model.json")}
    return {"ruleset": (RULESET, hrg_args), "cohort": (COHORT, generate_args),
            **{name: (doc, evaluate_args(name)) for name, doc in result.items()}}


NAMES = ["ruleset", "cohort", "config.json", "model.json"]


@pytest.mark.parametrize("name", NAMES)
def test_every_key_takes_every_edge(run_dir, documents, name):
    doc, args = documents[name]
    for key, value, edited in edge_edits(doc):
        try:
            run(args, edited, run_dir)
        except Exception as e:
            e.add_note(f"{name}: {key} = {value!r}")
            raise


@pytest.mark.parametrize("name", NAMES)
def test_random_edits(run_dir, documents, name):
    doc, args = documents[name]

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(mutated(doc))
    def check(edited):
        run(args, edited, run_dir)

    check()


#: Each config section of a `casemix all` document: its reader, and a valid
#: section, which names every key. Both cohort rates are 0, so that either
#: one may reach 1 without the other pushing their sum past 1.
SECTIONS = {
    "cohort": (CohortConfig.from_dict,
               CohortConfig(n=50, seed=1, outlier_rate=0, unclassifiable_rate=0)),
    "missingness": (lambda d: from_json(Missingness, d, "missingness config"),
                    Missingness(seed=7, rate=0.2)),
    "pipeline": (PipelineConfig.from_dict, PipelineConfig(k=6, seeds=PipelineSeeds(2, 3))),
}


def configs(cls, path: tuple):
    """(path, class) of the config class ``cls`` at ``path`` in a document,
    then of each config nested in it."""
    yield path, cls
    for name, kind in typing.get_type_hints(cls).items():
        if dataclasses.is_dataclass(kind):
            yield from configs(kind, (*path, name))


def bound_edges(kind, field: dataclasses.Field):
    """(inside, outside) for each bound declared on ``field``, a field of
    annotation ``kind``: the bound itself, or the nearest value inside it
    if it is open, and the nearest value outside it (one integer away, or
    the adjacent float)."""
    def past(value, sign):
        return value + sign if kind is int else float(np.nextafter(value, sign * math.inf))

    for op, sign in (("ge", -1), ("gt", -1), ("le", 1), ("lt", 1)):
        if op in field.metadata:
            bound = field.metadata[op]
            yield (bound, past(bound, sign)) if op in ("ge", "le") else (past(bound, -sign), bound)


def refusal(section: str, doc, run_dir: Path, capsys) -> str:
    """The error of the command that reads ``section`` on ``doc``: `generate`
    for the cohort and missingness, `train` for the pipeline. The command
    must exit 2 and write nothing."""
    with tempfile.TemporaryDirectory() as tmp:
        scratch = Path(tmp)
        config = _written(scratch / "config.json", doc)
        args = (["train", "--cohort", run_dir / "cohort.csv", "--out", scratch / "result"]
                if section == "pipeline" else ["generate", "--out", scratch / "cohort.csv"])
        capsys.readouterr()
        assert main([str(a) for a in [*args, "--config", config]]) == 2
        assert list(scratch.iterdir()) == [config]
        return capsys.readouterr().err


@pytest.mark.parametrize("section", list(SECTIONS))
def test_declared_edges(run_dir, capsys, section):
    """Each declared bound of each key of the section and of the configs in
    it is accepted by the section's reader (a cohort of 2**32 records is
    read, not drawn). The nearest value outside it, a missing required key
    and an unknown key each make the command exit 2 naming the key."""
    valid = json.loads(json.dumps({name: dataclasses.asdict(config)
                                   for name, (_, config) in SECTIONS.items()}))

    def edited(path, *value):
        """``valid`` with the key at ``path`` set to ``value``, or without it."""
        doc = copy.deepcopy(valid)
        parent = reduce(getitem, path[:-1], doc)
        if value:
            parent[path[-1]] = value[0]
        else:
            del parent[path[-1]]
        return doc

    read, instance = SECTIONS[section]
    cases = []  # (document, what its error must hold)
    for path, config in configs(type(instance), (section,)):
        cases.append((edited((*path, "unknown_key"), 1), "'unknown_key'"))
        kinds = typing.get_type_hints(config)
        for field in dataclasses.fields(config):
            key = (*path, field.name)
            if field.default is dataclasses.MISSING or field.metadata.get("required"):
                cases.append((edited(key), repr(field.name)))
            for inside, outside in bound_edges(kinds[field.name], field):
                try:
                    read(edited(key, inside)[section])
                except Exception as e:
                    e.add_note(f"{'.'.join(key)} = {inside!r}")
                    raise
                cases.append((edited(key, outside), f"{field.name} must be"))
    for doc, named in cases:
        err = refusal(section, doc, run_dir, capsys)
        assert named in err, (named, err)


#: Each CSV file `evaluate` reads, in a `casemix all` run, with the columns
#: whose cells are replaced: every column `evaluate` reads from it but for
#: the cohort's, where three stand for the id, number and category kinds.
CSV_COLUMNS = {
    "result/preprocessed.csv": ["id", "tbsa_pct", "site_01_depth"],
    "result/final_labels.csv": ["final_rank"],
    "result/factor_labels.csv": ["los_days_rank", "total_cost_rank", "tbsa_pct_rank"],
    "result/split.csv": ["index", "role", "multiplicity"],
    "hrg/labels.csv": ["id", "rank"],
}
#: Columns where each of OUT_OF_RANGE must exit 2: a rank outside [1, k], an
#: index outside the records or repeating another row's, a multiplicity below 1.
RANGED = {"final_rank", "los_days_rank", "total_cost_rank", "tbsa_pct_rank", "rank", "index",
          "multiplicity"}
OUT_OF_RANGE = ["0", "-1", str(10**23)]
CELLS = ["x", *OUT_OF_RANGE, "1e999", "nan", ""]


def csv_edits(text: str, line: int, columns: list[str]):
    """(column, value, text) for each edit of line ``line`` (the header is
    line 0) of the CSV ``text``: the row duplicated, deleted, cut short or
    opened with a quote (column None), then each of ``CELLS`` in each of
    ``columns``."""
    lines = text.splitlines(keepends=True)
    head, row, rest = "".join(lines[:line]), lines[line], "".join(lines[line + 1:])
    for edit, edited in [("duplicate", row + row + rest), ("delete", rest),
                         ("truncate", row[:len(row) // 2]), ("open_quote", '"' + row + rest)]:
        yield None, edit, head + edited
    header, cells = lines[0].rstrip("\n").split(","), row.rstrip("\n").split(",")
    for column in columns:
        for value in CELLS:
            edited = list(cells)
            edited[header.index(column)] = value
            yield column, value, head + ",".join(edited) + "\n" + rest


def evaluate_csv_args(name: str):
    def args(text: str, scratch: Path, run_dir: Path) -> list:
        for part in ("result", "hrg"):
            shutil.copytree(run_dir / part, scratch / part)
        (scratch / name).write_text(text, encoding="utf-8")
        return ["evaluate", "--result", scratch / "result",
                "--hrg", scratch / "hrg" / "labels.csv", "--out", scratch / "eval"]
    return args


@pytest.mark.parametrize("name", list(CSV_COLUMNS))
def test_csv_edits(run_dir, name):
    """The row of one test-set record, which survived preprocessing, takes
    every edit in each file; a row starts with the record's index or id.
    An out-of-range rank, index or multiplicity exits 2."""
    with open(run_dir / "result" / "split.csv", newline="") as fh:
        record = next(i for i, row in enumerate(csv.DictReader(fh)) if row["role"] == "test")
    with open(run_dir / "result" / "final_labels.csv", newline="") as fh:
        keys = (str(record), list(csv.DictReader(fh))[record]["id"])
    text = (run_dir / name).read_text(encoding="utf-8")
    line = next(i for i, row in enumerate(text.splitlines()) if row.split(",")[0] in keys)
    for column, value, edited in csv_edits(text, line, CSV_COLUMNS[name]):
        try:
            code = run(evaluate_csv_args(name), edited, run_dir)
            assert code == 2 or not (column in RANGED and value in OUT_OF_RANGE)
        except Exception as e:
            e.add_note(f"{name}: {column} = {value!r}")
            raise
