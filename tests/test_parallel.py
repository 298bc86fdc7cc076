"""Forked workers, one started call or an ordered map, and the pipeline
steps that use them: cohort generation, missingness and the factor trees
give the same output for any worker count."""

import inspect
import os
import pickle
import re
import signal
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from casemix import errors, parallel, pipeline
from casemix.cohort import CohortConfig, generate_cohort, inject_missingness
from casemix.errors import InvalidArgument, PipelineStageError, WorkerLostError
from casemix.pipeline import (
    FACTOR_FIELDS,
    PipelineConfig,
    PipelineSeeds,
    dataset_to_table,
    engineer_factor_targets,
    run_pipeline,
    train_factor_trees,
)
from casemix.preprocess import preprocess
from casemix.tree import serialize_tree
from tests.helpers import assert_no_children, csv_text, random_dataset


@pytest.fixture(params=[1, 2, 3])
def workers(request, monkeypatch):
    monkeypatch.setattr(parallel, "cpu_count", lambda: request.param)
    return request.param


class TestMapOrdered:
    def test_results_in_item_order(self, workers):
        assert parallel.worker_count(10) == workers
        # later items finish first
        assert parallel.map_ordered(lambda i: (time.sleep(0.01 * (9 - i)), i * i)[1], range(10)) == [
            i * i for i in range(10)
        ]
        assert_no_children()

    def test_no_items(self, workers):
        assert parallel.map_ordered(lambda i: i, []) == []

    def test_first_failing_item_in_order_wins(self, workers):
        def fn(i):
            if i == 1:
                time.sleep(0.2)
                raise InvalidArgument("item 1 failed")
            if i == 2:
                raise KeyError("item 2 failed")
            return i

        with pytest.raises(InvalidArgument, match="^item 1 failed$"):
            parallel.map_ordered(fn, range(4))
        assert_no_children()

    def test_stage_error_comes_back_whole(self, monkeypatch):
        monkeypatch.setattr(parallel, "cpu_count", lambda: 2)

        def fn(i):
            if i == 1:
                raise PipelineStageError("factor-trees", "boom")
            return i

        with pytest.raises(PipelineStageError) as info:
            parallel.map_ordered(fn, [0, 1])
        assert info.value.stage == "factor-trees"
        assert str(info.value) == "stage 'factor-trees': boom"
        assert_no_children()

    def test_failure_kills_running_workers(self, monkeypatch):
        monkeypatch.setattr(parallel, "cpu_count", lambda: 2)

        def fn(i):
            if i == 0:
                raise ValueError("boom")
            time.sleep(60)

        start = time.monotonic()
        with pytest.raises(ValueError, match="^boom$"):
            parallel.map_ordered(fn, range(2))
        assert time.monotonic() - start < 30
        assert_no_children()

    def test_failure_stops_later_items_at_once(self, monkeypatch, tmp_path):
        """Item 2's result would be thrown away once item 1 fails, so its
        worker is killed before it finishes, while item 0 still runs."""
        monkeypatch.setattr(parallel, "cpu_count", lambda: 2)
        done = tmp_path / "item 2 finished"

        def fn(i):
            if i == 1:
                raise ValueError("item 1 failed")
            time.sleep(1.5 if i == 0 else 0.5)
            if i == 2:
                done.touch()
            return i

        with pytest.raises(ValueError, match="^item 1 failed$"):
            parallel.map_ordered(fn, range(3))
        assert not done.exists()
        assert_no_children()

    def test_worker_that_dies_is_reported(self, monkeypatch):
        monkeypatch.setattr(parallel, "cpu_count", lambda: 2)

        def fn(i):
            if i == 1:
                os._exit(9)
            return i

        with pytest.raises(WorkerLostError, match=r"worker process \d+ exited with status 9 without"):
            parallel.map_ordered(fn, range(2))
        assert_no_children()

    def test_worker_killed_by_a_signal_is_named(self, monkeypatch):
        monkeypatch.setattr(parallel, "cpu_count", lambda: 2)

        def fn(i):
            if i == 0:
                os.kill(os.getpid(), signal.SIGKILL)
            return i

        killed = f"was killed by signal 9 ({signal.strsignal(signal.SIGKILL)}) without a result"
        with pytest.raises(WorkerLostError, match=re.escape(killed)):
            parallel.map_ordered(fn, range(3))
        assert_no_children()

    def test_single_cpu_runs_in_process(self, monkeypatch):
        monkeypatch.setattr(parallel, "cpu_count", lambda: 1)
        assert parallel.map_ordered(lambda _: os.getpid(), range(3)) == [os.getpid()] * 3

    def test_multiprocessing_never_imported(self):
        code = "import sys, casemix.pipeline, casemix.cli; print('multiprocessing' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "False"


class TestStart:
    def test_join_gives_the_result(self, workers):
        task = parallel.start(lambda: os.getpid())
        pid = task.join()
        assert (pid == os.getpid()) == (workers == 1)
        assert task.join() == pid  # joined again: same outcome
        assert_no_children()

    def test_runs_while_the_caller_goes_on(self, monkeypatch, tmp_path):
        monkeypatch.setattr(parallel, "cpu_count", lambda: 2)
        started, go = tmp_path / "started", tmp_path / "go"

        def fn():
            started.touch()
            while not go.exists():
                time.sleep(0.01)
            return "done"

        task = parallel.start(fn)
        deadline = time.monotonic() + 30
        while not started.exists() and time.monotonic() < deadline:
            time.sleep(0.01)
        assert started.exists() and not task.done
        go.touch()
        assert task.join() == "done"
        assert_no_children()

    def test_single_cpu_calls_at_once(self, monkeypatch):
        monkeypatch.setattr(parallel, "cpu_count", lambda: 1)
        calls = []
        task = parallel.start(lambda: calls.append(os.getpid()) or "result")
        assert calls == [os.getpid()] and task.done
        assert task.join() == "result"

    def test_join_raises_the_error_each_time(self, workers):
        def fn():
            raise PipelineStageError("hrg", "boom")

        task = parallel.start(fn)
        for _ in range(2):
            with pytest.raises(PipelineStageError, match="^stage 'hrg': boom$"):
                task.join()
        assert_no_children()

    def test_kill_stops_and_reaps_the_worker(self, monkeypatch, tmp_path):
        monkeypatch.setattr(parallel, "cpu_count", lambda: 2)
        done = tmp_path / "finished"
        task = parallel.start(lambda: (time.sleep(60), done.touch()))
        start = time.monotonic()
        task.kill()
        task.kill()  # a no-op once reaped
        assert time.monotonic() - start < 30 and not done.exists()
        assert_no_children()

    def test_worker_that_dies_is_reported(self, monkeypatch):
        monkeypatch.setattr(parallel, "cpu_count", lambda: 2)
        task = parallel.start(lambda: os._exit(7))
        with pytest.raises(WorkerLostError, match=r"worker process \d+ exited with status 7 without"):
            task.join()
        assert_no_children()


@pytest.mark.parametrize("cls", [
    cls for _, cls in inspect.getmembers(errors, inspect.isclass) if issubclass(cls, Exception)
])
def test_every_error_survives_pickling(cls):
    """A worker's exception reaches the parent pickled."""
    error = cls("factor-trees", "boom") if cls is PipelineStageError else cls("boom")
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is cls
    assert str(copy) == str(error)
    assert getattr(copy, "stage", None) == getattr(error, "stage", None)


@pytest.fixture(scope="module")
def factor_inputs():
    ds = inject_missingness(generate_cohort(CohortConfig(n=800, seed=5)), 0.2, 3)
    config = PipelineConfig(k=6, seeds=PipelineSeeds(1, 2))
    pds, _ = preprocess(ds, config.missing_threshold, config.admin_fields)
    return dataset_to_table(pds), engineer_factor_targets(pds, config), config


class TestWorkerCountInvariance:
    def test_generate_cohort(self, workers):
        config = CohortConfig(n=301, seed=2**40 + 1, outlier_rate=0.1, unclassifiable_rate=0.1)
        ds = generate_cohort(config)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(parallel, "cpu_count", lambda: 1)
            reference = generate_cohort(config)
        assert ds == reference
        for name, col in ds.extras.items():
            assert col.dtype == reference.extras[name].dtype
            assert col.tolist() == reference.extras[name].tolist()
        assert_no_children()

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(1, 2500), data_seed=st.integers(0, 2**32 - 1),
           rate=st.floats(0.0, 1.0), seed=st.integers(0, 2**70))
    def test_inject_missingness(self, n, data_seed, rate, seed):
        """Each worker draws a range of records into the shared mask."""
        ds = random_dataset(n, data_seed)
        results = []
        for cpus in (1, 2, 3):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(parallel, "cpu_count", lambda: cpus)
                results.append(inject_missingness(ds, rate, seed))
        assert results[0] == results[1] == results[2]
        assert csv_text(results[0]) == csv_text(results[2])
        assert_no_children()

    def test_generate_cohort_one_range_per_cpu(self, workers, monkeypatch):
        calls = []

        def recording_map(fn, items):
            calls.append(list(items))
            return [fn(item) for item in calls[-1]]

        monkeypatch.setattr(parallel, "map_ordered", recording_map)
        ds = generate_cohort(CohortConfig(n=40, seed=6))
        [ranges] = calls
        assert len(ranges) == workers
        assert [i for r in ranges for i in r] == list(range(40))
        assert ds == generate_cohort(CohortConfig(n=40, seed=6))

    def test_more_workers_than_records(self, workers):
        ds = generate_cohort(CohortConfig(n=2, seed=9))
        assert ds.ids.tolist() == ["P000000", "P000001"]

    def test_factor_trees(self, workers, factor_inputs):
        table, labels, config = factor_inputs
        trees, importances = train_factor_trees(table, labels, config)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(parallel, "cpu_count", lambda: 1)
            ref_trees, ref_importances = train_factor_trees(table, labels, config)
        assert list(trees) == list(FACTOR_FIELDS)
        for factor in FACTOR_FIELDS:
            assert serialize_tree(trees[factor]) == serialize_tree(ref_trees[factor])
            assert trees[factor].nodes_grown == ref_trees[factor].nodes_grown
            assert trees[factor].build_s > 0
        assert importances == ref_importances
        assert_no_children()


def test_each_factor_tree_grows_in_its_own_worker(factor_inputs, monkeypatch):
    monkeypatch.setattr(parallel, "cpu_count", lambda: 2)
    build_tree = pipeline.build_tree

    def recording_build_tree(*args):
        tree = build_tree(*args)
        tree.grown_in = os.getpid()
        return tree

    monkeypatch.setattr(pipeline, "build_tree", recording_build_tree)
    trees, _ = train_factor_trees(*factor_inputs)
    pids = {tree.grown_in for tree in trees.values()}
    assert len(pids) == 3 and os.getpid() not in pids
    assert_no_children()


def test_cost_tree_failure_surfaces_as_stage_error(workers, monkeypatch):
    ds = generate_cohort(CohortConfig(n=500, seed=3))
    config = PipelineConfig(k=6, seeds=PipelineSeeds(1, 2))
    pds, _ = preprocess(ds, config.missing_threshold, config.admin_fields)
    labels = engineer_factor_targets(pds, config)
    cost_labels = labels["total_cost"]
    assert not any(np.array_equal(labels[f], cost_labels) for f in ("los_days", "tbsa_pct"))
    build_tree = pipeline.build_tree

    def failing_build_tree(table, labels, loss, params):
        if np.array_equal(labels, cost_labels):
            raise InvalidArgument("injected cost-tree failure")
        return build_tree(table, labels, loss, params)

    monkeypatch.setattr(pipeline, "build_tree", failing_build_tree)
    with pytest.raises(PipelineStageError) as info:
        run_pipeline(ds, config)
    assert info.value.stage == "factor-trees"
    assert str(info.value) == "stage 'factor-trees': injected cost-tree failure"
    assert isinstance(info.value.__cause__, InvalidArgument)
    assert_no_children()
