"""End-to-end target engineering and model training.

Per-factor ranked targets come from 1-D k-means on the log factors; three
factor trees identify informative variables; the final targets cluster the
per-case mean rank; the final cost-sensitive tree is trained on a stratified
split with minority oversampling. Every random choice derives from a named
seed in the config, so reruns are bit-identical.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import asdict, dataclass, field

import numpy as np

from . import __version__, parallel
from .cluster import cluster_factor, kmeans, rank_clusters
from .dataio import dataset_sha256
from .domain import (
    CATEGORICAL,
    CORE_NUMERIC_FIELDS,
    DEPTH_LEVELS,
    FACTOR_FIELDS,
    NUMERIC,
    SITE_AREA_FIELDS,
    SITE_DEPTH_FIELDS,
    Dataset,
    check_fields,
    check_value,
    declared,
    from_json,
    linear_cost_matrix,
)
from .errors import CasemixError, InvalidArgument, PipelineStageError
from .preprocess import DEFAULT_ADMIN_FIELDS, DEFAULT_MISSING_THRESHOLD, PreprocessReport, preprocess
from .tree import DecisionTree, FeatureTable, TreeParams, build_tree, variable_importance

#: Features always available to the final model beyond the importance union.
FORCED_FINAL_FEATURES = ("los_days", "tbsa_pct")

#: Never a predictor of the final model: cost helped define the target.
LEAKAGE_EXCLUDED = ("total_cost",)


@dataclass(frozen=True)
class PipelineSeeds:
    split: int = declared(ge=0)
    oversample: int = declared(ge=0)

    def __post_init__(self):
        check_fields(self)


@dataclass(frozen=True)
class PipelineConfig:
    k: int = declared(13, ge=2)
    split_fraction: float = declared(0.7, gt=0, lt=1)
    importance_top_m: int = declared(10, ge=1)
    oversample: bool = True
    seeds: PipelineSeeds = PipelineSeeds(1, 2)
    # 13 ordinal classes need deeper trees than the conventional cp=0.01
    # default; the final model gets the lowest cp since its groups are the
    # product under evaluation.
    factor_tree_params: TreeParams = TreeParams(cp=0.001)
    final_tree_params: TreeParams = TreeParams(cp=0.0003)
    missing_threshold: float = declared(DEFAULT_MISSING_THRESHOLD, ge=0, le=1)
    admin_fields: tuple[str, ...] = DEFAULT_ADMIN_FIELDS

    def __post_init__(self):
        check_fields(self)
        core = {"id", *CORE_NUMERIC_FIELDS, *SITE_AREA_FIELDS, *SITE_DEPTH_FIELDS}
        named = [name for name in self.admin_fields if name in core]
        if named:  # preprocessing drops extra columns only
            raise InvalidArgument(f"admin_fields names the core column {named[0]!r}")

    @classmethod
    def from_dict(cls, d: dict) -> "PipelineConfig":
        # Older configs carry `kmeans_restarts` and a `clustering` seed.
        # k-means is exact now, with no restarts and no random draws, so both
        # are ignored; the seed must still be a valid seed.
        if isinstance(d, dict):
            d = {key: value for key, value in d.items() if key != "kmeans_restarts"}
            seeds = d.get("seeds")
            if isinstance(seeds, dict) and "clustering" in seeds:
                check_value("clustering", int, seeds["clustering"], ge=0)
                d["seeds"] = {key: value for key, value in seeds.items() if key != "clustering"}
        return from_json(cls, d, "pipeline config")


@dataclass
class PipelineResult:
    preprocessed: Dataset
    preprocess_report: PreprocessReport
    factor_labels: dict[str, np.ndarray]
    factor_trees: dict[str, DecisionTree]
    factor_importances: dict[str, list[tuple[str, float]]]
    mean_ranks: np.ndarray
    final_labels: np.ndarray
    final_tree: DecisionTree
    train_idx: np.ndarray
    test_idx: np.ndarray
    train_multiset: np.ndarray
    test_multiset: np.ndarray
    provenance: dict = field(default_factory=dict)


def dataset_to_table(ds: Dataset) -> FeatureTable:
    """Model feature view of a preprocessed dataset: core numerics, the 27
    site areas and depths, then the extra features in schema order. The
    dataset's depth codes index ``DEPTH_LEVELS``, which is sorted as a
    table's levels are, so they are the table's codes as they stand; only
    the categorical extras go through ``FeatureTable.from_items``."""
    extras = FeatureTable.from_items(
        (name, kind, ds.extras[name]) for name, kind in ds.extra_schema.items()
    )
    numeric = CORE_NUMERIC_FIELDS + SITE_AREA_FIELDS
    return FeatureTable(
        numeric + SITE_DEPTH_FIELDS + extras.names,
        (NUMERIC,) * len(numeric) + (CATEGORICAL,) * len(SITE_DEPTH_FIELDS) + extras.kinds,
        (*ds.numerics, *ds.site_areas, *ds.site_depths.astype(np.int32), *extras.columns),
        dict.fromkeys(SITE_DEPTH_FIELDS, tuple(d.value for d in DEPTH_LEVELS)) | extras.levels,
    )


def _derive_seed(base: int, index: int) -> int:
    state = np.random.SeedSequence(entropy=base, spawn_key=(index,)).generate_state(1)
    return int(state[0])


def engineer_factor_targets(ds: Dataset, config: PipelineConfig) -> dict[str, np.ndarray]:
    """Ranked class per record for each of LOS, cost and TBSA independently."""
    return {factor: cluster_factor(ds.factor_values(factor), config.k) for factor in FACTOR_FIELDS}


def train_factor_trees(
    table: FeatureTable, factor_labels: dict[str, np.ndarray], config: PipelineConfig
):
    """One cost-sensitive tree per factor over the full feature table of the
    preprocessed dataset. Raw LOS and cost never appear as predictors (they
    are resource outcomes), nor does the tree's own target factor; TBSA
    stays available to the LOS and cost trees.

    The trees do not depend on each other, so on more than one CPU each
    grows in its own forked worker (``parallel.map_ordered``) and comes back
    pickled; they are the same trees for any number of workers. If trees
    fail, the error of the first in ``FACTOR_FIELDS`` order is raised."""
    loss = linear_cost_matrix(config.k)

    def grow(factor: str) -> DecisionTree:
        exclude = {"los_days", "total_cost", factor}
        predictors = table.select([name for name in table.names if name not in exclude])
        return build_tree(predictors, factor_labels[factor], loss, config.factor_tree_params)

    trees = dict(zip(FACTOR_FIELDS, parallel.map_ordered(grow, FACTOR_FIELDS)))
    importances = {factor: variable_importance(tree) for factor, tree in trees.items()}
    return trees, importances


def engineer_final_targets(
    factor_labels: dict[str, np.ndarray], config: PipelineConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Mean rank across the three factor labelings, clustered (untransformed)
    into k ranked classes. Returns (final labels, mean ranks)."""
    stacked = np.stack([factor_labels[f] for f in FACTOR_FIELDS], axis=0).astype(np.float64)
    mean_ranks = stacked.mean(axis=0)
    result = kmeans(mean_ranks, config.k)
    ranks = rank_clusters(result, mean_ranks)
    rank_of = np.array([ranks[c] for c in range(result.k)], dtype=np.int64)
    return rank_of[result.assignments], mean_ranks


def stratified_split(labels, fraction: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-class random split; classes with one member go to train, classes
    with two or more keep at least one member on each side."""
    if not 0.0 < fraction < 1.0:
        raise InvalidArgument(f"split fraction must be in (0, 1), got {fraction}")
    y = np.asarray(labels)
    if y.size == 0:
        raise InvalidArgument("cannot split an empty label vector")
    rng = np.random.default_rng(seed)
    train, test = [], []
    for cls in np.unique(y):
        members = np.flatnonzero(y == cls)
        if len(members) == 1:
            train.extend(members)
            continue
        perm = rng.permutation(members)
        n_train = int(np.floor(fraction * len(members) + 0.5))
        n_train = min(max(n_train, 1), len(members) - 1)
        train.extend(perm[:n_train])
        test.extend(perm[n_train:])
    return np.array(sorted(train), dtype=np.int64), np.array(sorted(test), dtype=np.int64)


def oversample_duplicate(indices, labels, seed: int) -> np.ndarray:
    """Duplicate minority-class cases (sampling with replacement from the
    class's own members) until every class matches the majority count.
    Original indices come first, then the duplicates, classes in rank order."""
    idx = np.asarray(indices, dtype=np.int64)
    y = np.asarray(labels)
    if idx.size == 0:
        raise InvalidArgument("cannot oversample an empty index set")
    if idx.shape != y.shape:
        raise InvalidArgument("indices and labels must align")
    rng = np.random.default_rng(seed)
    counts = {cls: int((y == cls).sum()) for cls in np.unique(y)}
    majority = max(counts.values())
    out = list(idx)
    for cls in np.unique(y):
        short = majority - counts[cls]
        if short > 0:
            members = idx[y == cls]
            out.extend(rng.choice(members, size=short, replace=True))
    return np.array(out, dtype=np.int64)


def _select_final_features(
    names: tuple[str, ...], importances: dict[str, list[tuple[str, float]]], config: PipelineConfig
) -> tuple[str, ...]:
    chosen = set(FORCED_FINAL_FEATURES)
    for factor in FACTOR_FIELDS:
        chosen.update(name for name, _ in importances[factor][: config.importance_top_m])
    chosen.difference_update(LEAKAGE_EXCLUDED)
    return tuple(name for name in names if name in chosen)


def run_pipeline(
    ds: Dataset, config: PipelineConfig, input_sha256: Callable[[], str] | None = None
) -> PipelineResult:
    """Full run on a raw dataset; any stage failure raises PipelineStageError
    tagged with the stage name. ``input_sha256()`` gives the hash provenance
    records for the input, by default that of ``ds``'s canonical CSV form;
    a caller that holds the hash of the file ``ds`` came from passes a
    function that returns it. It is called once the model is built."""

    def stage(name, fn, *args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except CasemixError as e:
            raise PipelineStageError(name, str(e)) from e

    pds, report = stage(
        "preprocess", preprocess, ds, config.missing_threshold, config.admin_fields
    )
    if len(pds) == 0:
        raise PipelineStageError("preprocess", "no records survived preprocessing")
    factor_labels = stage("clustering", engineer_factor_targets, pds, config)
    table = dataset_to_table(pds)
    factor_trees, factor_importances = stage(
        "factor-trees", train_factor_trees, table, factor_labels, config
    )
    final_labels, mean_ranks = stage(
        "final-targets", engineer_final_targets, factor_labels, config
    )
    selected = _select_final_features(table.names, factor_importances, config)
    train_idx, test_idx = stage(
        "split", stratified_split, final_labels, config.split_fraction, config.seeds.split
    )
    if config.oversample:
        train_ms = stage(
            "oversample", oversample_duplicate,
            train_idx, final_labels[train_idx], _derive_seed(config.seeds.oversample, 0),
        )
        test_ms = stage(
            "oversample", oversample_duplicate,
            test_idx, final_labels[test_idx], _derive_seed(config.seeds.oversample, 1),
        ) if test_idx.size else test_idx
    else:
        train_ms, test_ms = train_idx, test_idx
    if np.intersect1d(train_ms, test_idx).size:
        raise PipelineStageError("split", "train/test leakage detected")

    final_tree = stage(
        "final-tree", build_tree,
        table.select(selected).take(train_ms), final_labels[train_ms],
        linear_cost_matrix(config.k), config.final_tree_params,
    )
    provenance = {
        "tool_version": __version__,
        "input_sha256": input_sha256() if input_sha256 else dataset_sha256(ds),
        "config": asdict(config),
        "rows_in": report.rows_in,
        "rows_out": report.rows_out,
    }
    return PipelineResult(
        preprocessed=pds,
        preprocess_report=report,
        factor_labels=factor_labels,
        factor_trees=factor_trees,
        factor_importances=factor_importances,
        mean_ranks=mean_ranks,
        final_labels=final_labels,
        final_tree=final_tree,
        train_idx=train_idx,
        test_idx=test_idx,
        train_multiset=train_ms,
        test_multiset=test_ms,
        provenance=provenance,
    )
