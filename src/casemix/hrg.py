"""Ordered-rule grouper replicating the shape of HRG-style if-else methodology.

Rules are evaluated strictly in order, first match wins. A record with no
burn area and no burn depth at any site is unclassifiable regardless of the
ruleset (a prerequisite for burn-tariff grouping). The genuine NHS rules are
unpublished; the packaged reference ruleset is a stand-in calibrated on the
synthetic generator so that all 13 ranks are populated.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .domain import (
    CATEGORICAL,
    CORE_NUMERIC_FIELDS,
    DEPTH_LEVELS,
    MISSING_DEPTH,
    NUMERIC,
    Dataset,
    Depth,
    check_value,
    parse_json,
    read_json,
)
from .errors import InvalidArgument

OPERATORS = ("<", "<=", ">", ">=", "==", "!=", "in")

#: Features computed from the burn-site entries, available to rules alongside
#: the core numeric fields and any extra feature.
DERIVED_FEATURES: dict[str, str] = {
    "full_thickness_area": NUMERIC,
    "burned_site_count": NUMERIC,
}

UNCLASSIFIABLE = "U"

#: Kind used for extra features of an empty dataset, where numeric vs
#: categorical cannot be inferred (CSV kind inference needs at least one
#: value); type checks are skipped for it.
UNKNOWN_KIND = "unknown"


@dataclass(frozen=True)
class Condition:
    feature: str
    op: str
    value: float | str | tuple


@dataclass(frozen=True)
class Rule:
    """Conjunction of atomic comparisons; empty conditions = catch-all."""

    conditions: tuple[Condition, ...]
    target_rank: int


@dataclass(frozen=True)
class Ruleset:
    rules: tuple[Rule, ...]
    k: int
    version: str
    default_rank: int | None = None


def ruleset_from_dict(d: dict) -> Ruleset:
    try:
        rules = tuple(
            Rule(
                conditions=tuple(
                    Condition(
                        feature=c["feature"],
                        op=c["op"],
                        value=tuple(c["value"]) if isinstance(c["value"], list) else c["value"],
                    )
                    for c in r["if"]
                ),
                target_rank=check_value("rule rank 'then'", int, r["then"]),
            )
            for r in d["rules"]
        )
        return Ruleset(
            rules=rules,
            k=check_value("ruleset k", int, d["k"]),
            version=str(d["version"]),
            default_rank=None if d.get("default") is None
            else check_value("default rank", int, d["default"]),
        )
    except (KeyError, TypeError, ValueError, InvalidArgument) as e:
        raise InvalidArgument(f"malformed ruleset document: {e}") from None


def load_ruleset(path: str | Path | None = None) -> Ruleset:
    """The ruleset at ``path``, or the packaged reference ruleset if none."""
    return ruleset_from_dict(read_json(path, "ruleset")) if path else reference_ruleset()


def reference_ruleset() -> Ruleset:
    """The packaged 13-class stand-in ruleset (TBSA bands plus depth and
    ventilation modifiers)."""
    text = resources.files("casemix").joinpath("data/reference_ruleset.json").read_text("utf-8")
    return ruleset_from_dict(parse_json(text, "reference ruleset"))


def rule_feature_schema(extra_schema: dict[str, str]) -> dict[str, str]:
    """Feature name -> kind map a ruleset may reference: the core numeric
    fields, the derived features and the extra features of ``extra_schema``."""
    return {**dict.fromkeys(CORE_NUMERIC_FIELDS, NUMERIC), **DERIVED_FEATURES, **extra_schema}


def _feature_column(ds: Dataset, name: str) -> np.ndarray:
    """One feature over all records: float64 (nan = missing) or object
    (None = missing)."""
    if name in CORE_NUMERIC_FIELDS:
        return ds.factor_values(name)
    if name in DERIVED_FEATURES:
        burned = (ds.site_areas != 0.0) & ~np.isnan(ds.site_areas)
        if name == "burned_site_count":
            return burned.sum(axis=0).astype(np.float64)
        # full_thickness_area, summed site by site in site order as a running
        # sum over a record's sites would be: a pairwise sum can differ in
        # the last bit at a rule threshold.
        full = burned & (ds.site_depths == DEPTH_LEVELS.index(Depth.FULL))
        total = np.zeros(len(ds))
        for areas, selected in zip(ds.site_areas, full):
            total += np.where(selected, areas, 0.0)
        return total
    return ds.extras[name]  # an extra feature: validate_ruleset checked the name


_COMPARE = {
    "<": np.less, "<=": np.less_equal, ">": np.greater, ">=": np.greater_equal,
    "==": np.equal, "!=": np.not_equal,
}


def _condition_mask(cond: Condition, col: np.ndarray) -> np.ndarray:
    """Records whose value satisfies ``cond``; a missing value never does."""
    present = ~np.isnan(col) if col.dtype == np.float64 else np.not_equal(col, None)
    mask = np.zeros(len(col), dtype=bool)
    if cond.op == "in":
        for value in cond.value:
            mask |= col == value
        return mask & present
    mask[present] = _COMPARE[cond.op](col[present], cond.value)
    return mask


def no_burn_recorded(ds: Dataset) -> np.ndarray:
    """The unclassifiable records, for HRG grouping and ``preprocess``: no burn
    area and no burn depth at any of the 27 sites. A missing cell counts as
    unrecorded, so imputing zeros changes nothing. Only boolean masks are built."""
    no_area = (ds.site_areas == 0.0) | np.isnan(ds.site_areas)
    no_depth = (ds.site_depths == DEPTH_LEVELS.index(Depth.NONE)) | (ds.site_depths == MISSING_DEPTH)
    return no_area.all(axis=0) & no_depth.all(axis=0)


def _ranks(ds: Dataset, rs: Ruleset) -> tuple[np.ndarray, np.ndarray]:
    """First-match rank of every record (0 where unclassifiable) and the
    unclassifiable mask. Rules are tried in order on the records no earlier
    rule matched; a condition is evaluated only while some record is still
    in play, so a rule nothing reaches is never looked at. ``rs`` has passed
    ``validate_ruleset``, so a record no rule matches takes the default."""
    unclassifiable = no_burn_recorded(ds)
    ranks = np.zeros(len(ds), dtype=np.int64)
    unassigned = ~unclassifiable
    columns: dict[str, np.ndarray] = {}
    for rule in rs.rules:
        if not unassigned.any():
            break
        match = unassigned.copy()
        for cond in rule.conditions:
            if not match.any():
                break
            if cond.feature not in columns:
                columns[cond.feature] = _feature_column(ds, cond.feature)
            match &= _condition_mask(cond, columns[cond.feature])
        ranks[match] = rule.target_rank
        unassigned &= ~match
    if unassigned.any():
        ranks[unassigned] = rs.default_rank
    return ranks, unclassifiable


def validate_ruleset(rs: Ruleset, schema: dict[str, str]) -> list[str]:
    """Check rank coverage, exhaustiveness, feature references, and operator
    typing; returns all violations (empty list = valid)."""
    violations: list[str] = []
    if rs.k < 1:
        violations.append(f"class count must be >= 1, got {rs.k}")
    covered = set()
    for i, rule in enumerate(rs.rules):
        if not 1 <= rule.target_rank <= rs.k:
            violations.append(f"rule {i}: target rank {rule.target_rank} outside [1, {rs.k}]")
        else:
            covered.add(rule.target_rank)
        for cond in rule.conditions:
            if cond.op not in OPERATORS:
                violations.append(f"rule {i}: unknown operator {cond.op!r}")
                continue
            if not isinstance(cond.feature, str) or cond.feature not in schema:
                violations.append(f"rule {i}: unknown feature {cond.feature!r}")
                continue
            kind = schema[cond.feature]
            if kind == UNKNOWN_KIND:
                continue
            if cond.op == "in":
                if not isinstance(cond.value, tuple):
                    violations.append(f"rule {i}: 'in' needs a list value")
                    continue
                members = cond.value
            else:
                members = (cond.value,)
            for v in members:
                # A numeric value is finite: NaN matches nothing, a bool compares
                # as 0 or 1, and numpy cannot compare float64 with a huge int.
                try:
                    check_value(f"rule {i}: feature {cond.feature!r}",
                                float if kind == NUMERIC else str, v)
                except InvalidArgument as e:
                    violations.append(str(e))
            if cond.op in ("<", "<=", ">", ">=") and kind == CATEGORICAL:
                violations.append(
                    f"rule {i}: ordering comparison on categorical feature {cond.feature!r}"
                )
    if rs.default_rank is not None and not 1 <= rs.default_rank <= rs.k:
        violations.append(f"default rank {rs.default_rank} outside [1, {rs.k}]")
    has_catch_all = any(not r.conditions for r in rs.rules) or rs.default_rank is not None
    if not has_catch_all:
        violations.append("non-exhaustive: no catch-all rule and no default rank")
    if rs.default_rank is None:
        # A declared default rank stands in for any number of missing
        # per-rank rules; without one, every rank needs at least one rule.
        # ``covered`` holds at most one rank per rule, so the first
        # len(covered) + 10 ranks hold the 10 lowest uncovered ones.
        lowest = [r for r in range(1, min(rs.k, len(covered) + 10) + 1) if r not in covered]
        if lowest:
            violations.append(f"{rs.k - len(covered)} ranks with no rule and no default, "
                              f"the lowest {lowest[:10]}")
    return violations


def check_ruleset(rs: Ruleset, extra_schema: dict[str, str]) -> None:
    """Raise InvalidArgument naming every violation of ``rs`` against the
    features of ``rule_feature_schema(extra_schema)``."""
    violations = validate_ruleset(rs, rule_feature_schema(extra_schema))
    if violations:
        raise InvalidArgument("invalid ruleset: " + "; ".join(violations))


def classify_dataset(ds: Dataset, rs: Ruleset) -> tuple[list[int | None], dict]:
    """Classify every record; returns labels (None = unclassifiable) and a
    histogram over ranks plus the "U" bucket. Validates the ruleset first."""
    check_ruleset(rs, ds.extra_schema if len(ds) else dict.fromkeys(ds.extras, UNKNOWN_KIND))
    ranks, unclassifiable = _ranks(ds, rs)
    labels = ranks.astype(object)
    labels[unclassifiable] = None
    values, counts = np.unique(ranks[~unclassifiable], return_counts=True)
    histogram: dict = dict(zip(values.tolist(), counts.tolist()))
    if unclassifiable.any():
        histogram[UNCLASSIFIABLE] = int(unclassifiable.sum())
    return labels.tolist(), histogram
