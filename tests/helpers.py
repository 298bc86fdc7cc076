"""Test-only API: cohort CSV from and to text and to a path, cohort-shaped
datasets of any size drawn with numpy, the zero-one cost matrix and single
cost-matrix entries, a tracemalloc peak with a text sink that drops what
it is given and the array bytes it is measured against, and a check that no
child process is left. The package itself
reads cohorts from files, streams them to files and trains under the linear
matrix only."""

import io
import multiprocessing
import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from casemix import dataio
from casemix.cohort import CohortConfig, generate_cohort, inject_missingness
from casemix.domain import (
    CATEGORICAL_FILL,
    CORE_NUMERIC_FIELDS,
    DEPTH_LEVELS,
    MISSING_DEPTH,
    N_SITES,
    CostMatrix,
    Dataset,
    Depth,
)
from casemix.errors import InvalidArgument


def parse_cohort_csv(text: str) -> Dataset:
    """The cohort CSV ``text`` parsed as ``dataio.read_cohort_csv`` parses a file."""
    return dataio._parse_lines(io.StringIO(text))


def csv_text(ds: Dataset) -> str:
    """The cohort CSV text ``dataio.cohort_csv_text`` writes for ``ds``."""
    buf = io.StringIO()
    dataio.cohort_csv_text(ds, buf)
    return buf.getvalue()


def write_cohort_csv(ds: Dataset, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        dataio.cohort_csv_text(ds, fh)


def random_dataset(n: int, seed: int) -> Dataset:
    """A cohort-shaped dataset drawn with numpy alone, so any n is quick to
    build: most sites unburned (area 0, depth none), about 5 % of cells
    missing, one numeric and one categorical extra."""
    rng = np.random.default_rng(seed)
    numerics = rng.uniform(0.0, 100.0, (len(CORE_NUMERIC_FIELDS), n)).round(1)
    numerics[-1] = rng.integers(0, 4, n)  # theatre_visits
    numerics[rng.random(numerics.shape) < 0.1] = 0.0
    burned = rng.random((N_SITES, n)) < 0.15
    site_areas = np.where(burned, rng.uniform(0.1, 9.0, (N_SITES, n)).round(2), 0.0)
    burn_codes = [DEPTH_LEVELS.index(d) for d in (Depth.SUPERFICIAL, Depth.PARTIAL, Depth.FULL)]
    site_depths = np.where(burned, rng.choice(burn_codes, (N_SITES, n)),
                           DEPTH_LEVELS.index(Depth.NONE)).astype(np.int8)
    ventilation = rng.integers(0, 30, n).astype(np.float64)
    sex = np.array(["F", "M", CATEGORICAL_FILL], dtype=object)[rng.integers(0, 3, n)]
    for col, blank in ((numerics, np.nan), (site_areas, np.nan), (site_depths, MISSING_DEPTH),
                       (ventilation, np.nan), (sex, None)):
        col[rng.random(col.shape) < 0.05] = blank
    return Dataset(np.array([f"R{i:07d}" for i in range(n)], dtype=object), numerics,
                   site_areas, site_depths, {"ventilation_days": ventilation, "sex": sex})


def zero_one_cost_matrix(k: int) -> CostMatrix:
    """Plain misclassification loss: 1 off the diagonal, 0 on it."""
    if k < 2:
        raise InvalidArgument(f"zero-one cost matrix needs k >= 2, got {k}")
    return CostMatrix(np.ones((k, k)) - np.eye(k))


def cost(matrix: CostMatrix, true_rank: int, pred_rank: int) -> float:
    """Penalty for predicting ``pred_rank`` when the truth is ``true_rank``."""
    return float(matrix.entries[true_rank - 1, pred_rank - 1])


class Discard:
    """A text sink, like an open file's ``write``, that keeps nothing."""

    def write(self, text: str) -> None:
        pass


def array_bytes(ds: Dataset) -> int:
    """The bytes of a dataset's arrays, ids counted as the pointers they hold."""
    return sum(arr.nbytes for arr in (ds.ids, ds.numerics, ds.site_areas, ds.site_depths,
                                      *ds.extras.values()))


def blanked_cohort(n: int) -> Dataset:
    """A generated cohort of ``n`` records with a fifth of its zero cells
    blanked, as the README's config draws it."""
    return inject_missingness(generate_cohort(CohortConfig(n=n, seed=11)), 0.2, seed=7)


def traced_peak(fn, *args) -> int:
    """The peak of the memory tracemalloc traces while ``fn(*args)`` runs, in bytes."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def assert_no_children():
    """No child process of this one is left, running or unreaped."""
    assert multiprocessing.active_children() == []
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
