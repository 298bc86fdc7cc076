import collections

import numpy as np
import pytest

from casemix.cohort import CohortConfig, generate_cohort
from casemix.errors import InvalidArgument, PipelineStageError
from casemix.pipeline import (
    FACTOR_FIELDS,
    PipelineConfig,
    PipelineSeeds,
    dataset_to_table,
    engineer_factor_targets,
    engineer_final_targets,
    oversample_duplicate,
    run_pipeline,
    stratified_split,
    train_factor_trees,
)
from casemix.preprocess import preprocess
from tests.records import dataset_of, make_record


@pytest.fixture(scope="module")
def small_run():
    ds = generate_cohort(CohortConfig(n=700, seed=77))
    config = PipelineConfig(seeds=PipelineSeeds(6, 7))
    return ds, config, run_pipeline(ds, config)


class TestConfig:
    def test_split_fraction_bounds(self):
        with pytest.raises(InvalidArgument):
            PipelineConfig(split_fraction=1.0)
        with pytest.raises(InvalidArgument):
            PipelineConfig(split_fraction=0.0)

    def test_dict_round_trip(self):
        cfg = PipelineConfig(k=7, seeds=PipelineSeeds(2, 3))
        assert PipelineConfig.from_dict(cfg.to_dict()) == cfg

    def test_legacy_keys_accepted_and_ignored(self):
        legacy = {"k": 7, "kmeans_restarts": 10,
                  "seeds": {"clustering": 0, "split": 2, "oversample": 3}}
        cfg = PipelineConfig.from_dict(legacy)
        assert cfg == PipelineConfig(k=7, seeds=PipelineSeeds(2, 3))
        assert "kmeans_restarts" not in cfg.to_dict()
        assert cfg.to_dict()["seeds"] == {"split": 2, "oversample": 3}

    def test_bad_key_rejected(self):
        with pytest.raises(InvalidArgument):
            PipelineConfig.from_dict({"nope": 1})

    @pytest.mark.parametrize("doc", [
        {"k": 13.5}, {"k": 13.0}, {"k": True},
        {"importance_top_m": 2.5}, {"importance_top_m": 10.0}, {"importance_top_m": True},
        {"factor_tree_params": {"min_split": 20.9, "min_leaf": 7, "max_depth": 30, "cp": 0.01}},
        {"final_tree_params": {"min_split": 20, "min_leaf": True, "max_depth": 30, "cp": 0.01}},
    ])
    def test_non_integer_integer_fields_rejected(self, doc):
        """A float or a bool is refused, not truncated to an int."""
        with pytest.raises(InvalidArgument, match="must be an integer"):
            PipelineConfig.from_dict(doc)


class TestDatasetToTable:
    def test_column_order_and_exclusion(self, small_cohort):
        pds, _ = preprocess(small_cohort)
        table = dataset_to_table(pds)
        assert table.names[:5] == (
            "age_years", "los_days", "total_cost", "tbsa_pct", "theatre_visits"
        )
        assert "site_01_area" in table.names and "site_27_depth" in table.names
        excluded = dataset_to_table(pds, exclude=("total_cost", "los_days"))
        assert "total_cost" not in excluded.names
        assert "los_days" not in excluded.names


class TestFactorTargets:
    def test_distinct_tiers_recovered(self):
        records = []
        for i in range(60):
            tier = i % 3
            records.append(
                make_record(
                    id=str(i),
                    los_days=float(tier * 50),
                    tbsa_pct=1.0 + 10.0 * tier,
                    total_cost=100.0 + 5000.0 * tier,
                )
            )
        ds = dataset_of(*records)
        config = PipelineConfig(k=3, seeds=PipelineSeeds(2, 3))
        targets = engineer_factor_targets(ds, config)
        for factor in FACTOR_FIELDS:
            for i in range(60):
                assert targets[factor][i] == (i % 3) + 1

    def test_constant_factor_rejected(self):
        records = tuple(make_record(id=str(i), total_cost=500.0) for i in range(40))
        ds = dataset_of(*records)
        with pytest.raises(InvalidArgument):
            engineer_factor_targets(ds, PipelineConfig(k=13, seeds=PipelineSeeds(2, 3)))

    def test_monotone_in_raw_values(self, small_run):
        ds, config, result = small_run
        for factor in FACTOR_FIELDS:
            values = result.preprocessed.factor_values(factor)
            ranks = result.factor_labels[factor]
            order = np.argsort(values, kind="stable")
            assert np.all(np.diff(ranks[order]) >= 0)


class TestFactorTrees:
    def test_own_factor_and_resource_outcomes_excluded(self, small_run):
        _, config, result = small_run
        for factor in FACTOR_FIELDS:
            names = result.factor_trees[factor].feature_names
            assert "los_days" not in names
            assert "total_cost" not in names
            assert factor not in names

    def test_deterministic(self, small_run):
        ds, config, result = small_run
        table = dataset_to_table(result.preprocessed)
        trees2, _ = train_factor_trees(table, result.factor_labels, config)
        from casemix.tree import serialize_tree

        for factor in FACTOR_FIELDS:
            assert serialize_tree(trees2[factor]) == serialize_tree(result.factor_trees[factor])


class TestFinalTargets:
    def test_mean_rank_arithmetic(self):
        labels = {
            "los_days": np.array([1, 1]),
            "total_cost": np.array([2, 1]),
            "tbsa_pct": np.array([3, 1]),
        }
        config = PipelineConfig(k=2, seeds=PipelineSeeds(2, 3))
        final, mean_ranks = engineer_final_targets(labels, config)
        assert mean_ranks.tolist() == [2.0, 1.0]
        assert final.tolist() == [2, 1]

    def test_distinct_means_recovered_exactly(self):
        base = np.arange(1, 14)
        labels = {f: np.repeat(base, 5) for f in FACTOR_FIELDS}
        config = PipelineConfig(k=13, seeds=PipelineSeeds(2, 3))
        final, mean_ranks = engineer_final_targets(labels, config)
        assert np.array_equal(final, np.repeat(base, 5))

    def test_extreme_record_lands_in_top_class(self, small_run):
        _, _, result = small_run
        top = np.flatnonzero(result.mean_ranks == result.mean_ranks.max())
        assert np.all(result.final_labels[top] == result.final_labels.max())

    def test_final_rank_monotone_in_mean_rank(self, small_run):
        _, _, result = small_run
        order = np.argsort(result.mean_ranks, kind="stable")
        assert np.all(np.diff(result.final_labels[order]) >= 0)


class TestStratifiedSplit:
    def test_seven_three_per_class(self):
        labels = np.repeat([1, 2, 3], 10)
        train, test = stratified_split(labels, 0.7, seed=1)
        for cls in (1, 2, 3):
            assert (labels[train] == cls).sum() == 7
            assert (labels[test] == cls).sum() == 3

    def test_singleton_class_goes_to_train(self):
        labels = np.array([1, 1, 1, 1, 2])
        train, test = stratified_split(labels, 0.5, seed=3)
        assert 4 in train

    def test_disjoint_exhaustive_deterministic(self):
        rng = np.random.default_rng(11)
        labels = rng.integers(1, 6, size=200)
        a_train, a_test = stratified_split(labels, 0.7, seed=5)
        b_train, b_test = stratified_split(labels, 0.7, seed=5)
        assert np.array_equal(a_train, b_train) and np.array_equal(a_test, b_test)
        assert np.intersect1d(a_train, a_test).size == 0
        assert len(a_train) + len(a_test) == 200

    def test_both_sides_nonempty_for_small_classes(self):
        labels = np.array([1, 1, 2, 2])
        train, test = stratified_split(labels, 0.99, seed=2)
        for cls in (1, 2):
            assert (labels[train] == cls).sum() == 1
            assert (labels[test] == cls).sum() == 1

    def test_invalid_fraction(self):
        with pytest.raises(InvalidArgument):
            stratified_split(np.array([1, 2]), 1.0, seed=0)


class TestOversample:
    def test_minority_lifted_to_majority(self):
        indices = np.arange(13)
        labels = np.array(["A"] * 10 + ["B"] * 3)
        out = oversample_duplicate(indices, labels, seed=1)
        hist = collections.Counter(labels[i] for i in out)
        assert hist == {"A": 10, "B": 10}
        # duplicates come from B's own members
        assert set(out) <= set(range(13))

    def test_balanced_identity(self):
        indices = np.arange(10)
        labels = np.repeat([1, 2], 5)
        out = oversample_duplicate(indices, labels, seed=1)
        assert np.array_equal(out, indices)

    def test_uniform_histogram(self):
        rng = np.random.default_rng(7)
        labels = rng.integers(1, 7, size=150)
        indices = np.arange(150)
        out = oversample_duplicate(indices, labels, seed=2)
        hist = collections.Counter(labels[i] for i in out)
        assert len(set(hist.values())) == 1

    def test_deterministic(self):
        labels = np.array([1, 1, 1, 2])
        a = oversample_duplicate(np.arange(4), labels, seed=9)
        b = oversample_duplicate(np.arange(4), labels, seed=9)
        assert np.array_equal(a, b)

    def test_empty_rejected(self):
        with pytest.raises(InvalidArgument):
            oversample_duplicate(np.array([]), np.array([]), seed=0)


class TestRunPipeline:
    def test_all_final_classes_nonempty(self, small_run):
        _, config, result = small_run
        counts = collections.Counter(result.final_labels.tolist())
        assert set(counts) == set(range(1, config.k + 1))

    def test_bit_identical_repeat(self, small_run):
        ds, config, result = small_run
        again = run_pipeline(ds, config)
        assert np.array_equal(again.final_labels, result.final_labels)
        assert np.array_equal(again.train_multiset, result.train_multiset)
        from casemix.tree import serialize_tree

        assert serialize_tree(again.final_tree) == serialize_tree(result.final_tree)
        assert again.provenance == result.provenance

    def test_no_leakage(self, small_run):
        _, _, result = small_run
        assert np.intersect1d(result.train_multiset, result.test_idx).size == 0
        assert np.intersect1d(result.test_multiset, result.train_idx).size == 0

    def test_forced_features_present_and_cost_excluded(self, small_run):
        _, _, result = small_run
        assert "los_days" in result.selected_features
        assert "tbsa_pct" in result.selected_features
        assert "total_cost" not in result.selected_features

    def test_stage_tagged_error(self):
        records = tuple(
            make_record(id=str(i), total_cost=500.0, los_days=float(i % 40), tbsa_pct=1.0 + i % 30)
            for i in range(60)
        )
        ds = dataset_of(*records)
        with pytest.raises(PipelineStageError) as exc:
            run_pipeline(ds, PipelineConfig(k=13, seeds=PipelineSeeds(2, 3)))
        assert exc.value.stage == "clustering"

    def test_oversample_disabled(self):
        ds = generate_cohort(CohortConfig(n=400, seed=15))
        config = PipelineConfig(seeds=PipelineSeeds(6, 7), oversample=False)
        result = run_pipeline(ds, config)
        assert np.array_equal(result.train_multiset, result.train_idx)
        assert np.array_equal(result.test_multiset, result.test_idx)
