"""Shared fixtures. The session-scoped pinned run (n=5000, seed=42, default
config) backs the acceptance suite and the end-to-end regression tests."""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import pytest

from casemix.cohort import CohortConfig, generate_cohort
from casemix.domain import Dataset, linear_cost_matrix, zero_one_cost_matrix
from casemix.evaluate import compare_groupings, confusion
from casemix.hrg import classify_dataset, reference_ruleset
from casemix.pipeline import PipelineConfig, dataset_to_table, run_pipeline
from casemix.tree import build_tree, predict

PINNED_N = 5000
PINNED_SEED = 42


@dataclass
class PinnedRun:
    cohort: Dataset
    config: PipelineConfig
    result: object
    elapsed_s: float
    predictions: np.ndarray
    hrg_labels: np.ndarray
    confusion_test: object
    comparison_train: object
    comparison_test: object
    mean_dist_linear: float
    mean_dist_zero_one: float


@pytest.fixture(scope="session")
def small_cohort() -> Dataset:
    return generate_cohort(CohortConfig(n=300, seed=7))


@pytest.fixture(scope="session")
def pinned_run() -> PinnedRun:
    cohort = generate_cohort(CohortConfig(n=PINNED_N, seed=PINNED_SEED))
    config = PipelineConfig()
    start = time.monotonic()
    result = run_pipeline(cohort, config)
    elapsed = time.monotonic() - start

    table = dataset_to_table(result.preprocessed).select(result.final_tree.feature_names)
    predictions = predict(result.final_tree, table)
    loss = linear_cost_matrix(config.k)
    test_idx = result.test_idx
    conf = confusion(result.final_labels[test_idx], predictions[test_idx], loss)

    hrg_labels = np.array(classify_dataset(result.preprocessed, reference_ruleset())[0])
    comp_train = compare_groupings(
        result.preprocessed.take(result.train_idx),
        result.final_labels[result.train_idx],
        hrg_labels[result.train_idx],
    )
    comp_test = compare_groupings(
        result.preprocessed.take(test_idx),
        predictions[test_idx],
        hrg_labels[test_idx],
    )

    tree_01 = build_tree(
        table.take(result.train_multiset),
        result.final_labels[result.train_multiset],
        zero_one_cost_matrix(config.k),
        config.final_tree_params,
    )
    preds_01 = predict(tree_01, table)
    mean_lin = float(np.abs(result.final_labels[test_idx] - predictions[test_idx]).mean())
    mean_01 = float(np.abs(result.final_labels[test_idx] - preds_01[test_idx]).mean())

    return PinnedRun(
        cohort=cohort,
        config=config,
        result=result,
        elapsed_s=elapsed,
        predictions=predictions,
        hrg_labels=hrg_labels,
        confusion_test=conf,
        comparison_train=comp_train,
        comparison_test=comp_test,
        mean_dist_linear=mean_lin,
        mean_dist_zero_one=mean_01,
    )
