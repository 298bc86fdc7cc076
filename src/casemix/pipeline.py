"""End-to-end target engineering and model training.

Per-factor ranked targets come from 1-D k-means on the log factors; three
factor trees identify informative variables; the final targets cluster the
per-case mean rank; the final cost-sensitive tree is trained on a stratified
split with minority oversampling. Every random choice derives from a named
seed in the config, so reruns are bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .cluster import cluster_factor, kmeans, rank_clusters
from .dataio import dataset_sha256
from .domain import (
    CATEGORICAL,
    CORE_NUMERIC_FIELDS,
    DEPTH_LEVELS,
    FACTOR_FIELDS,
    NUMERIC,
    Dataset,
    check_int,
    check_seed,
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
    split: int
    oversample: int

    def __post_init__(self):
        for name in ("split", "oversample"):
            check_seed(f"seed {name!r}", getattr(self, name))

    def to_dict(self) -> dict:
        return {"split": self.split, "oversample": self.oversample}


@dataclass(frozen=True)
class PipelineConfig:
    k: int = 13
    split_fraction: float = 0.7
    importance_top_m: int = 10
    oversample: bool = True
    seeds: PipelineSeeds = PipelineSeeds(1, 2)
    # 13 ordinal classes need deeper trees than the conventional cp=0.01
    # default; the final model gets the lowest cp since its groups are the
    # product under evaluation.
    factor_tree_params: TreeParams = TreeParams(cp=0.001)
    final_tree_params: TreeParams = TreeParams(cp=0.0003)
    missing_threshold: float = DEFAULT_MISSING_THRESHOLD
    admin_fields: tuple[str, ...] = DEFAULT_ADMIN_FIELDS

    def __post_init__(self):
        if not 0.0 < self.split_fraction < 1.0:
            raise InvalidArgument(
                f"split_fraction must be in (0, 1), got {self.split_fraction}"
            )
        check_int("k", self.k)
        check_int("importance_top_m", self.importance_top_m)
        if self.importance_top_m < 1:
            raise InvalidArgument("importance_top_m must be >= 1")
        if self.k < 2:
            raise InvalidArgument("k must be >= 2")

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "split_fraction": self.split_fraction,
            "importance_top_m": self.importance_top_m,
            "oversample": self.oversample,
            "seeds": self.seeds.to_dict(),
            "factor_tree_params": self.factor_tree_params.to_dict(),
            "final_tree_params": self.final_tree_params.to_dict(),
            "missing_threshold": self.missing_threshold,
            "admin_fields": list(self.admin_fields),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "PipelineConfig":
        try:
            # Older configs carry `kmeans_restarts` and a `clustering` seed.
            # k-means is exact now, with no restarts and no random draws, so
            # both are ignored; the seed must still be a valid seed.
            kwargs = dict(d)
            kwargs.pop("kmeans_restarts", None)
            if "seeds" in kwargs:
                seeds = dict(kwargs["seeds"])
                if "clustering" in seeds:
                    check_seed("seed 'clustering'", seeds.pop("clustering"))
                kwargs["seeds"] = PipelineSeeds(**seeds)
            for key in ("factor_tree_params", "final_tree_params"):
                if key in kwargs:
                    kwargs[key] = TreeParams.from_dict(kwargs[key])
            if "admin_fields" in kwargs:
                kwargs["admin_fields"] = tuple(kwargs["admin_fields"])
            return cls(**kwargs)
        except (TypeError, KeyError, ValueError) as e:
            raise InvalidArgument(f"bad pipeline config: {e}")


@dataclass
class PipelineResult:
    preprocessed: Dataset
    preprocess_report: PreprocessReport
    factor_labels: dict[str, np.ndarray]
    factor_trees: dict[str, DecisionTree]
    factor_importances: dict[str, list[tuple[str, float]]]
    mean_ranks: np.ndarray
    final_labels: np.ndarray
    selected_features: tuple[str, ...]
    final_tree: DecisionTree
    train_idx: np.ndarray
    test_idx: np.ndarray
    train_multiset: np.ndarray
    test_multiset: np.ndarray
    provenance: dict = field(default_factory=dict)


def dataset_to_table(ds: Dataset, exclude: tuple[str, ...] = ()) -> FeatureTable:
    """Model feature view of a preprocessed dataset: core numerics, the 27
    site areas and depths, then the extra features in schema order."""
    depth_values = np.array([d.value for d in DEPTH_LEVELS] + [None], dtype=object)  # -1: None
    items = [(name, NUMERIC, col) for name, col in zip(CORE_NUMERIC_FIELDS, ds.numerics)]
    items += [(f"site_{i + 1:02d}_area", NUMERIC, col) for i, col in enumerate(ds.site_areas)]
    items += [
        (f"site_{i + 1:02d}_depth", CATEGORICAL, depth_values[codes])
        for i, codes in enumerate(ds.site_depths)
    ]
    items += [(name, kind, ds.extras[name]) for name, kind in ds.extra_schema.items()]
    kept = [item for item in items if item[0] not in exclude]
    return FeatureTable(
        tuple(name for name, _, _ in kept),
        tuple(kind for _, kind, _ in kept),
        tuple(col for _, _, col in kept),
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
    stays available to the LOS and cost trees."""
    loss = linear_cost_matrix(config.k)
    trees: dict[str, DecisionTree] = {}
    importances: dict[str, list[tuple[str, float]]] = {}
    for factor in FACTOR_FIELDS:
        exclude = {"los_days", "total_cost", factor}
        predictors = table.select([name for name in table.names if name not in exclude])
        tree = build_tree(predictors, factor_labels[factor], loss, config.factor_tree_params)
        trees[factor] = tree
        importances[factor] = variable_importance(tree)
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
    final = np.array([ranks[int(c)] for c in result.assignments], dtype=np.int64)
    return final, mean_ranks


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
    ds: Dataset, config: PipelineConfig, input_sha256: str | None = None
) -> PipelineResult:
    """Full run on a raw dataset; any stage failure raises PipelineStageError
    tagged with the stage name. ``input_sha256`` is the hash provenance
    records for the input, by default that of ``ds``'s canonical CSV form;
    a caller that read ``ds`` from a file it already hashed passes that."""

    def stage(name, fn, *args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except CasemixError as e:
            raise PipelineStageError(name, str(e)) from e

    input_hash = input_sha256 if input_sha256 is not None else dataset_sha256(ds)
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
        "input_sha256": input_hash,
        "config": config.to_dict(),
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
        selected_features=selected,
        final_tree=final_tree,
        train_idx=train_idx,
        test_idx=test_idx,
        train_multiset=train_ms,
        test_multiset=test_ms,
        provenance=provenance,
    )
