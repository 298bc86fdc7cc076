import json

import pytest

from casemix.cohort import CohortConfig, generate_cohort, inject_missingness
from casemix.domain import Depth
from casemix.errors import InvalidArgument, RulesetError
from casemix.hrg import (
    Condition,
    Rule,
    Ruleset,
    classify_dataset,
    load_ruleset,
    reference_ruleset,
    rule_feature_schema,
    ruleset_from_dict,
    ruleset_to_json,
    save_ruleset,
    validate_ruleset,
)
from casemix.preprocess import preprocess
from tests.records import dataset_of, make_record


def band_ruleset(k=13):
    """Minimal two-rule band ruleset; a default rank stands in for the
    unruled middle ranks."""
    rules = (
        Rule((Condition("tbsa_pct", ">=", 19),), 13),
        Rule((), 1),
    )
    return Ruleset(rules=rules, k=k, version="test-1", default_rank=1)


def classify(record, rs, schema=None):
    """Rank of a one-record dataset (None = unclassifiable)."""
    return classify_dataset(dataset_of(record, schema=schema), rs)[0][0]


def zero_site_record():
    rec = make_record(tbsa_pct=0.0)
    sites = tuple(s.__class__(s.site_code, 0.0, Depth.NONE) for s in rec.burn_sites)
    return make_record(burn_sites=sites, tbsa_pct=0.0)


class TestClassify:
    def test_first_match_wins(self):
        rs = band_ruleset()
        assert classify(make_record(tbsa=20.0), rs) == 13
        assert classify(make_record(tbsa=5.0), rs) == 1

    def test_unclassifiable_preempts_rules(self):
        assert classify(zero_site_record(), band_ruleset()) is None

    def test_rule_order_matters(self):
        overlapping = (
            Rule((Condition("tbsa_pct", ">=", 10),), 12),
            Rule((Condition("tbsa_pct", ">=", 19),), 13),
            Rule((), 1),
        )
        swapped = (overlapping[1], overlapping[0], overlapping[2])
        witness = make_record(tbsa=25.0)
        rs_a = Ruleset(rules=overlapping, k=13, version="a", default_rank=1)
        rs_b = Ruleset(rules=swapped, k=13, version="b", default_rank=1)
        assert classify(witness, rs_a) == 12
        assert classify(witness, rs_b) == 13

    def test_missing_value_never_matches(self):
        rs = band_ruleset()
        rec = make_record(tbsa_pct=None)
        assert classify(rec, rs) == 1  # falls through to catch-all

    def test_no_match_without_default_raises(self):
        """A ruleset that could leave a record unmatched is refused up front."""
        rs = Ruleset(rules=(Rule((Condition("tbsa_pct", ">=", 99),), 13),), k=13, version="x")
        with pytest.raises(InvalidArgument, match="non-exhaustive"):
            classify(make_record(tbsa=5.0), rs)

    def test_default_rank_used(self):
        rs = Ruleset(rules=(), k=13, version="x", default_rank=4)
        assert classify(make_record(), rs) == 4

    def test_derived_features(self):
        rs = Ruleset(
            rules=(
                Rule((Condition("full_thickness_area", ">=", 1.0),), 2),
                Rule((), 1),
            ),
            k=2,
            version="d",
        )
        rec = make_record()
        sites = list(rec.burn_sites)
        sites[0] = sites[0].__class__(sites[0].site_code, 5.0, Depth.FULL)
        assert classify(make_record(burn_sites=tuple(sites)), rs) == 2
        assert classify(make_record(), rs) == 1

    def test_in_operator(self):
        rs = Ruleset(
            rules=(
                Rule((Condition("burn_mechanism", "in", ("chemical", "electrical")),), 2),
                Rule((), 1),
            ),
            k=2,
            version="i",
        )
        rec = make_record(extra_features={"burn_mechanism": "chemical"})
        assert classify(rec, rs, schema={"burn_mechanism": "categorical"}) == 2


class TestValidateRuleset:
    def schema(self):
        return rule_feature_schema({})

    def test_valid(self):
        assert validate_ruleset(band_ruleset(), self.schema()) == []

    def test_non_exhaustive(self):
        rs = Ruleset(rules=(Rule((Condition("tbsa_pct", ">=", 1),), 2),), k=13, version="x")
        violations = validate_ruleset(rs, self.schema())
        assert any("non-exhaustive" in v for v in violations)

    def test_unknown_feature(self):
        rs = Ruleset(rules=(Rule((Condition("nope", ">", 1),), 1), Rule((), 1)), k=13, version="x")
        assert any("unknown feature" in v for v in validate_ruleset(rs, self.schema()))

    def test_rank_out_of_range(self):
        rs = Ruleset(rules=(Rule((), 14),), k=13, version="x")
        assert any("outside [1, 13]" in v for v in validate_ruleset(rs, self.schema()))

    def test_uncovered_ranks_reported_without_default(self):
        rs = Ruleset(
            rules=(Rule((Condition("tbsa_pct", ">=", 19),), 13), Rule((), 1)),
            k=13,
            version="x",
        )
        violations = validate_ruleset(rs, self.schema())
        assert any("ranks with no rule" in v for v in violations)
        # a declared default excuses the missing per-rank rules
        assert validate_ruleset(band_ruleset(), self.schema()) == []

    def test_type_mismatch(self):
        rs = Ruleset(
            rules=(Rule((Condition("tbsa_pct", ">=", "high"),), 1), Rule((), 1)),
            k=13,
            version="x",
        )
        assert any("is numeric" in v for v in validate_ruleset(rs, self.schema()))

    def test_ordering_on_categorical_rejected(self):
        schema = dict(self.schema())
        schema["sex"] = "categorical"
        rs = Ruleset(rules=(Rule((Condition("sex", ">", "F"),), 1), Rule((), 1)), k=13, version="x")
        assert any("ordering comparison" in v for v in validate_ruleset(rs, schema))


class TestClassifyDataset:
    def test_histogram_conservation(self, small_cohort):
        pds, _ = preprocess(small_cohort)
        labels, hist = classify_dataset(pds, reference_ruleset())
        assert sum(hist.values()) == len(pds.records)
        assert len(labels) == len(pds.records)

    def test_unclassifiable_bucket(self):
        ds = dataset_of(zero_site_record(), make_record(id="B"))
        labels, hist = classify_dataset(ds, band_ruleset())
        assert labels == [None, 1]
        assert hist == {1: 1, "U": 1}

    def test_empty_dataset(self):
        labels, hist = classify_dataset(dataset_of(), band_ruleset())
        assert labels == [] and hist == {}

    def test_invalid_ruleset_rejected(self):
        rs = Ruleset(rules=(Rule((Condition("ghost", ">", 1),), 1),), k=13, version="x")
        with pytest.raises(InvalidArgument):
            classify_dataset(dataset_of(make_record()), rs)

    def test_identical_records_same_label(self):
        ds = dataset_of(make_record(id="a"), make_record(id="b"), make_record(id="c"))
        labels, _ = classify_dataset(ds, band_ruleset())
        assert len(set(labels)) == 1


class TestSerialization:
    def test_round_trip(self, tmp_path):
        rs = band_ruleset()
        path = tmp_path / "rules.json"
        save_ruleset(rs, path)
        assert load_ruleset(path) == rs

    def test_bit_exact_file_round_trip(self, tmp_path):
        rs = reference_ruleset()
        path = tmp_path / "ref.json"
        save_ruleset(rs, path)
        text = path.read_text(encoding="utf-8")
        assert ruleset_to_json(load_ruleset(path)) == text

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(RulesetError):
            load_ruleset(path)

    def test_missing_fields(self):
        with pytest.raises(RulesetError):
            ruleset_from_dict({"version": "x"})

    @pytest.mark.parametrize("edit", [
        {"k": 2.0}, {"k": True}, {"default": 1.0}, {"default": True},
        {"rules": [{"if": [], "then": 2.7}]}, {"rules": [{"if": [], "then": True}]},
    ])
    def test_non_integer_ranks_rejected(self, edit):
        """A float or bool rank is refused, not truncated to an int."""
        doc = dict({"version": "x", "k": 2, "rules": [{"if": [], "then": 1}]}, **edit)
        with pytest.raises(RulesetError, match="must be an integer"):
            ruleset_from_dict(doc)

    def test_in_value_round_trips_as_tuple(self):
        doc = {
            "version": "x",
            "k": 2,
            "rules": [
                {"if": [{"feature": "burn_mechanism", "op": "in", "value": ["a", "b"]}], "then": 2},
                {"if": [], "then": 1},
            ],
        }
        rs = ruleset_from_dict(doc)
        assert rs.rules[0].conditions[0].value == ("a", "b")
        assert json.loads(ruleset_to_json(rs)) == doc


class TestReferenceRuleset:
    def test_valid_against_generated_schema(self, small_cohort):
        rs = reference_ruleset()
        assert rs.k == 13
        assert validate_ruleset(rs, rule_feature_schema(small_cohort.extra_schema)) == []

    def test_all_ranks_populated_on_pinned_cohort(self, pinned_run):
        labels = pinned_run.hrg_labels
        assert {int(l) for l in labels} == set(range(1, 14))


def reference_feature(record, name):
    """Per-record feature value: a running sum over the sites in site order."""
    if name in ("age_years", "los_days", "total_cost", "tbsa_pct", "theatre_visits"):
        return getattr(record, name)
    if name == "full_thickness_area":
        return sum(s.area_pct for s in record.burn_sites if s.depth is Depth.FULL and s.area_pct)
    if name == "burned_site_count":
        return sum(1 for s in record.burn_sites if s.area_pct)
    return record.extra_features[name]


def reference_classify(record, rs):
    """First-match classification of one record; a missing value never matches."""
    compare = {
        "<": lambda a, b: a < b, "<=": lambda a, b: a <= b, ">": lambda a, b: a > b,
        ">=": lambda a, b: a >= b, "==": lambda a, b: a == b, "!=": lambda a, b: a != b,
        "in": lambda a, b: a in b,
    }
    sites = record.burn_sites
    if all(not s.area_pct for s in sites) and all(s.depth in (None, Depth.NONE) for s in sites):
        return None
    for rule in rs.rules:
        if all(
            (value := reference_feature(record, c.feature)) is not None
            and compare[c.op](value, c.value)
            for c in rule.conditions
        ):
            return rule.target_rank
    return rs.default_rank


class TestColumnRules:
    def mixed_ruleset(self):
        return ruleset_from_dict({
            "version": "mixed", "k": 6, "default": 1, "rules": [
                {"if": [{"feature": "full_thickness_area", "op": ">", "value": 2.5}], "then": 6},
                {"if": [{"feature": "burn_mechanism", "op": "!=", "value": "scald"},
                        {"feature": "theatre_visits", "op": ">=", "value": 1}], "then": 5},
                {"if": [{"feature": "burned_site_count", "op": "==", "value": 2}], "then": 4},
                {"if": [{"feature": "skin_graft", "op": "in", "value": ["yes"]},
                        {"feature": "ventilation_days", "op": "<", "value": 1}], "then": 3},
                {"if": [{"feature": "los_days", "op": "<=", "value": 2}], "then": 2},
            ],
        })

    @pytest.mark.parametrize("rs_name", ["reference", "mixed"])
    def test_matches_per_record_reference(self, rs_name):
        ds = inject_missingness(generate_cohort(CohortConfig(n=600, seed=4)), 0.3, seed=5)
        rs = reference_ruleset() if rs_name == "reference" else self.mixed_ruleset()
        labels, _ = classify_dataset(ds, rs)
        assert labels == [reference_classify(rec, rs) for rec in ds.records]
        assert [classify_dataset(ds.take([i]), rs)[0][0] for i in range(50)] == labels[:50]
