"""Fuzzed documents through the CLI, in process: rulesets for `hrg`, cohort
and missingness configs for `generate`, and a trained result's
`config.json` and `model.json` for `evaluate`. Whatever a document holds, a
command exits 0, 2, 3 or 4 as the README's exit codes say, raises nothing
and leaves no `.tmp` file behind.

Each document starts valid and names every key its reader knows. One test
sets each key, wherever it occurs, to each edge value of its JSON type in
turn; another makes random edits with Hypothesis, derandomized so that a
run tests the same documents every time."""

import copy
import dataclasses
import json
import math
import shutil
import tempfile
from functools import reduce
from operator import getitem
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from casemix.cli import main
from casemix.cohort import CohortConfig

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


def run(args, doc, run_dir: Path) -> None:
    """Run the command that ``args`` makes for ``doc`` in a scratch
    directory: it exits as the README says and leaves no ``.tmp`` file."""
    with tempfile.TemporaryDirectory() as tmp:
        scratch = Path(tmp)
        assert main([str(a) for a in args(doc, scratch, run_dir)]) in (0, 2, 3, 4)
        assert not list(scratch.rglob("*.tmp"))


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
