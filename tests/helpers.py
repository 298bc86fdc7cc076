"""Test-only API: cohort CSV from text and to a path, the zero-one cost
matrix and single cost-matrix entries. The package itself reads cohorts
from files, writes them as text and trains under the linear matrix only."""

import io
from pathlib import Path

import numpy as np

from casemix import dataio
from casemix.domain import CostMatrix, Dataset
from casemix.errors import InvalidArgument


def parse_cohort_csv(text: str) -> Dataset:
    """The cohort CSV ``text`` parsed as ``dataio.read_cohort_csv`` parses a file."""
    return dataio._parse_lines(io.StringIO(text))


def write_cohort_csv(ds: Dataset, path: str | Path) -> None:
    Path(path).write_text(dataio.cohort_csv_text(ds), encoding="utf-8")


def zero_one_cost_matrix(k: int) -> CostMatrix:
    """Plain misclassification loss: 1 off the diagonal, 0 on it."""
    if k < 2:
        raise InvalidArgument(f"zero-one cost matrix needs k >= 2, got {k}")
    return CostMatrix(np.ones((k, k)) - np.eye(k))


def cost(matrix: CostMatrix, true_rank: int, pred_rank: int) -> float:
    """Penalty for predicting ``pred_rank`` when the truth is ``true_rank``."""
    return float(matrix.entries[true_rank - 1, pred_rank - 1])
