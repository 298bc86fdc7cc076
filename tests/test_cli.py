import csv
import hashlib
import json
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from casemix.cli import EXIT_CONFIG, EXIT_OK, EXIT_STAGE, main
from casemix.dataio import read_cohort_csv

COHORT_CONFIG = {
    "cohort": {"n": 250, "seed": 31},
    "pipeline": {"k": 6, "seeds": {"clustering": 1, "split": 2, "oversample": 3}},
}


def write_config(tmp_path: Path, doc=None, name="config.json") -> Path:
    path = tmp_path / name
    path.write_text(json.dumps(doc if doc is not None else COHORT_CONFIG), encoding="utf-8")
    return path


def file_hashes(root: Path, skip_manifests=True) -> dict:
    out = {}
    for p in sorted(root.rglob("*")):
        if p.is_file():
            if skip_manifests and p.name.endswith("manifest.json"):
                continue
            out[str(p.relative_to(root))] = hashlib.sha256(p.read_bytes()).hexdigest()
    return out


class TestGenerate:
    def test_writes_csv_and_manifest(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "cohort.csv"
        assert main(["generate", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        ds = read_cohort_csv(out)
        assert len(ds.records) == 250
        manifest = json.loads((tmp_path / "cohort.csv.manifest.json").read_text())
        assert manifest["command"] == "generate"
        assert manifest["seeds"]["cohort"] == 31
        assert "wall_time_s" in manifest

    def test_missing_config_exit_2(self, tmp_path):
        out = tmp_path / "cohort.csv"
        assert main(["generate", "--config", str(tmp_path / "nope.json"), "--out", str(out)]) == EXIT_CONFIG

    def test_invalid_json_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{", encoding="utf-8")
        assert main(["generate", "--config", str(bad), "--out", str(tmp_path / "c.csv")]) == EXIT_CONFIG

    def test_bad_cohort_values_exit_2(self, tmp_path):
        cfg = write_config(tmp_path, {"cohort": {"n": 0, "seed": 1}})
        assert main(["generate", "--config", str(cfg), "--out", str(tmp_path / "c.csv")]) == EXIT_CONFIG

    def test_seed_required_without_ephemeral(self, tmp_path):
        cfg = write_config(tmp_path, {"cohort": {"n": 10}})
        assert main(["generate", "--config", str(cfg), "--out", str(tmp_path / "c.csv")]) == EXIT_CONFIG
        assert (
            main(["generate", "--config", str(cfg), "--out", str(tmp_path / "c.csv"), "--ephemeral"])
            == EXIT_OK
        )

    def test_wrong_typed_config_values_exit_2(self, tmp_path):
        for doc in (
            {"cohort": {"n": "ten", "seed": 1}},
            {"cohort": {"n": 10, "seed": "one"}},
            {"cohort": {"n": 10, "seed": 1}, "missingness": {"rate": "lots", "seed": 2}},
            {"cohort": {"n": 10, "seed": 1}, "missingness": {"rate": 0.2, "seed": "two"}},
        ):
            cfg = write_config(tmp_path, doc)
            assert main(["generate", "--config", str(cfg), "--out", str(tmp_path / "c.csv")]) == EXIT_CONFIG

    def test_wrong_typed_pipeline_config_exit_2(self, tmp_path):
        cohort_cfg = write_config(tmp_path, {"cohort": {"n": 60, "seed": 3}}, name="c.json")
        cohort = tmp_path / "c.csv"
        assert main(["generate", "--config", str(cohort_cfg), "--out", str(cohort)]) == EXIT_OK
        for pipe in (
            {"k": "thirteen", "seeds": {"clustering": 1, "split": 2, "oversample": 3}},
            {"k": 5, "seeds": {"clustering": "x", "split": 2, "oversample": 3}},
            {"k": 5, "seeds": {"clustering": 1, "split": 2, "oversample": 3},
             "final_tree_params": {"min_split": "a", "min_leaf": 1, "max_depth": 5, "cp": 0}},
        ):
            cfg = write_config(tmp_path, {"pipeline": pipe}, name="p.json")
            assert main(["train", "--cohort", str(cohort), "--config", str(cfg),
                         "--out", str(tmp_path / "o")]) == EXIT_CONFIG

    def test_deterministic_output(self, tmp_path):
        cfg = write_config(tmp_path)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["generate", "--config", str(cfg), "--out", str(a)])
        main(["generate", "--config", str(cfg), "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_missingness_applied(self, tmp_path):
        doc = {"cohort": {"n": 100, "seed": 3}, "missingness": {"rate": 1.0, "seed": 4}}
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "c.csv"
        main(["generate", "--config", str(cfg), "--out", str(out)])
        text = out.read_text()
        assert ",," in text  # blanked cells present


@pytest.fixture(scope="module")
def generated(tmp_path_factory):
    root = tmp_path_factory.mktemp("cliflow")
    cfg = write_config(root)
    cohort = root / "cohort.csv"
    assert main(["generate", "--config", str(cfg), "--out", str(cohort)]) == EXIT_OK
    return root, cfg, cohort


class TestHrg:
    def test_classifies_with_reference_ruleset(self, generated):
        root, _, cohort = generated
        out = root / "hrg"
        assert main(["hrg", "--cohort", str(cohort), "--out", str(out)]) == EXIT_OK
        with open(out / "labels.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 250
        hist = json.loads((out / "histogram.json").read_text())
        assert sum(hist.values()) == 250

    def test_invalid_ruleset_exit_2(self, generated, tmp_path):
        root, _, cohort = generated
        bad = tmp_path / "rules.json"
        bad.write_text(json.dumps({"version": "x", "k": 13, "rules": [
            {"if": [{"feature": "ghost", "op": ">", "value": 1}], "then": 1}
        ]}), encoding="utf-8")
        code = main(["hrg", "--cohort", str(cohort), "--ruleset", str(bad), "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG

    def test_missing_cohort_exit_2(self, tmp_path):
        assert main(["hrg", "--cohort", str(tmp_path / "none.csv"), "--out", str(tmp_path / "o")]) == EXIT_CONFIG

    def test_empty_cohort_ok(self, generated, tmp_path):
        root, _, cohort = generated
        header = cohort.read_text().splitlines()[0]
        empty = tmp_path / "empty.csv"
        empty.write_text(header + "\n", encoding="utf-8")
        out = tmp_path / "out"
        assert main(["hrg", "--cohort", str(empty), "--out", str(out)]) == EXIT_OK
        with open(out / "labels.csv", newline="") as fh:
            assert list(csv.DictReader(fh)) == []


@pytest.fixture(scope="module")
def trained(generated):
    root, cfg, cohort = generated
    out = root / "result"
    code = main(["train", "--cohort", str(cohort), "--config", str(cfg), "--out", str(out)])
    assert code == EXIT_OK
    return root, cfg, cohort, out


class TestTrain:
    def test_result_directory_contents(self, trained):
        _, _, _, out = trained
        for name in (
            "config.json", "provenance.json", "preprocessed.csv", "preprocess_report.json",
            "factor_labels.csv", "final_labels.csv", "importances.csv", "model.json",
            "split.csv", "manifest.json",
        ):
            assert (out / name).is_file(), name

    def test_manifest_records_tree_build_counters(self, trained):
        _, _, _, out = trained
        trees = json.loads((out / "manifest.json").read_text())["trees"]
        assert sorted(trees) == ["final", "los_days", "tbsa_pct", "total_cost"]
        model = json.loads((out / "model.json").read_text())
        assert "nodes_grown" not in json.dumps(model)
        for counters in trees.values():
            assert set(counters) == {"nodes_grown", "candidates_scanned", "prune_steps"}
            assert counters["nodes_grown"] >= 1
            # a collapse removes at least two nodes and never the root
            assert 0 <= 2 * counters["prune_steps"] < counters["nodes_grown"]
        final = trees["final"]
        final_nodes = 2 * model["summary"]["leaf_count"] - 1
        assert final_nodes <= final["nodes_grown"] - 2 * final["prune_steps"]
        assert (final["prune_steps"] > 0) == (final_nodes < final["nodes_grown"])

    def test_rerun_reproduces_every_artifact(self, trained, tmp_path):
        # provenance replay: same cohort + same config -> identical bytes for
        # every artifact (manifests carry wall time and are excluded)
        root, cfg, cohort, out = trained
        out2 = tmp_path / "result2"
        assert main(["train", "--cohort", str(cohort), "--config", str(cfg), "--out", str(out2)]) == EXIT_OK
        assert file_hashes(out) == file_hashes(out2)

    def test_stage_error_exit_4(self, generated, tmp_path):
        root, _, cohort = generated
        cfg = write_config(tmp_path, {
            "pipeline": {"k": 250, "seeds": {"clustering": 1, "split": 2, "oversample": 3}}
        }, name="huge_k.json")
        code = main(["train", "--cohort", str(cohort), "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == EXIT_STAGE

    def test_seeds_required(self, generated, tmp_path):
        root, _, cohort = generated
        cfg = write_config(tmp_path, {"pipeline": {"k": 6}}, name="noseeds.json")
        code = main(["train", "--cohort", str(cohort), "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG


class TestEvaluate:
    def test_full_flow_with_svg(self, trained):
        root, _, cohort, result = trained
        hrg_dir = root / "hrg_for_eval"
        assert main(["hrg", "--cohort", str(cohort), "--out", str(hrg_dir)]) == EXIT_OK
        out = root / "eval"
        code = main([
            "evaluate", "--result", str(result), "--hrg", str(hrg_dir / "labels.csv"),
            "--out", str(out), "--svg",
        ])
        assert code == EXIT_OK
        comparison = json.loads((out / "comparison.json").read_text())
        for side in ("train", "test"):
            assert set(comparison[side]["factors"]) == {"los_days", "total_cost", "tbsa_pct"}
            for factor in comparison[side]["factors"].values():
                assert "ratio" in factor
        for name in ("confusion_test.json", "rules.txt", "rules.csv", "rank_spread.csv",
                     "variances_train.csv", "boxplots_test.csv"):
            assert (out / name).is_file(), name
        for svg in out.glob("*.svg"):
            ET.fromstring(svg.read_text())
        assert (out / "rank_spread.svg").is_file()

    def test_label_mismatch_exit_2(self, trained, tmp_path):
        root, _, _, result = trained
        labels = tmp_path / "labels.csv"
        labels.write_text("id,rank\nP000000,1\n", encoding="utf-8")
        code = main(["evaluate", "--result", str(result), "--hrg", str(labels), "--out", str(tmp_path / "e")])
        assert code == EXIT_CONFIG

    def test_missing_result_dir_exit_2(self, tmp_path):
        code = main(["evaluate", "--result", str(tmp_path / "none"), "--hrg", str(tmp_path / "l.csv"),
                     "--out", str(tmp_path / "e")])
        assert code == EXIT_CONFIG

    def test_corrupt_result_artifact_exit_2(self, trained, tmp_path):
        import shutil

        root, _, cohort, result = trained
        hrg_dir = root / "hrg_for_eval"  # created by test_full_flow_with_svg
        if not hrg_dir.exists():
            assert main(["hrg", "--cohort", str(cohort), "--out", str(hrg_dir)]) == EXIT_OK
        broken = tmp_path / "broken_result"
        shutil.copytree(result, broken)
        (broken / "split.csv").write_text("index,role,multiplicity\n0,train,banana\n")
        code = main(["evaluate", "--result", str(broken), "--hrg", str(hrg_dir / "labels.csv"),
                     "--out", str(tmp_path / "e")])
        assert code == EXIT_CONFIG

    def test_non_integer_hrg_rank_exit_2(self, trained, tmp_path):
        root, _, _, result = trained
        import csv as csvmod

        with open(result / "final_labels.csv", newline="") as fh:
            ids = [row["id"] for row in csvmod.DictReader(fh)]
        labels = tmp_path / "labels.csv"
        labels.write_text(
            "id,rank\n" + "\n".join(f"{i},whoops" for i in ids) + "\n", encoding="utf-8"
        )
        code = main(["evaluate", "--result", str(result), "--hrg", str(labels),
                     "--out", str(tmp_path / "e")])
        assert code == EXIT_CONFIG


class TestAll:
    def test_end_to_end_byte_identical_across_threads(self, tmp_path):
        doc = {
            "cohort": {"n": 220, "seed": 91},
            "pipeline": {"k": 5, "seeds": {"clustering": 11, "split": 12, "oversample": 13}},
        }
        cfg = write_config(tmp_path, doc)
        out_a, out_b = tmp_path / "run_a", tmp_path / "run_b"
        assert main(["all", "--config", str(cfg), "--out", str(out_a), "--threads", "1"]) == EXIT_OK
        assert main(["all", "--config", str(cfg), "--out", str(out_b), "--threads", "4"]) == EXIT_OK
        hashes_a = file_hashes(out_a)
        hashes_b = file_hashes(out_b)
        assert hashes_a == hashes_b
        assert (out_a / "manifest.json").is_file()
        assert (out_a / "eval" / "comparison.json").is_file()

    def test_bad_threads_exit_2(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["all", "--config", str(cfg), "--out", str(tmp_path / "o"), "--threads", "zero"]) == EXIT_CONFIG

    def test_custom_ruleset_via_config(self, tmp_path):
        rules = {
            "version": "custom-1",
            "k": 3,
            "rules": [
                {"if": [{"feature": "tbsa_pct", "op": ">=", "value": 10}], "then": 3},
                {"if": [{"feature": "tbsa_pct", "op": ">=", "value": 2}], "then": 2},
                {"if": [], "then": 1},
            ],
        }
        ruleset_path = tmp_path / "rules.json"
        ruleset_path.write_text(json.dumps(rules), encoding="utf-8")
        doc = {
            "cohort": {"n": 200, "seed": 17},
            "ruleset": str(ruleset_path),
            "pipeline": {"k": 4, "seeds": {"clustering": 1, "split": 2, "oversample": 3}},
        }
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "run"
        assert main(["all", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        hist = json.loads((out / "hrg" / "histogram.json").read_text())
        assert set(hist) <= {"1", "2", "3", "U"}


class TestBadCohortCells:
    @pytest.mark.parametrize("command", ["hrg", "train"])
    @pytest.mark.parametrize(
        "column,value", [("los_days", "nan"), ("los_days", "-3"), ("tbsa_pct", "250")]
    )
    def test_exit_2_naming_row_and_column(self, generated, tmp_path, capsys, command, column, value):
        root, cfg, cohort = generated
        lines = cohort.read_text(encoding="utf-8").splitlines()
        header = lines[0].split(",")
        row = lines[5].split(",")
        row[header.index(column)] = value
        lines[5] = ",".join(row)
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
        args = [command, "--cohort", str(bad), "--out", str(tmp_path / "o")]
        if command == "train":
            args += ["--config", str(cfg)]
        capsys.readouterr()
        assert main(args) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert repr(row[0]) in err and repr(column) in err
        assert "Traceback" not in err


class TestErrorPlumbing:
    def test_io_failure_exit_3(self, tmp_path):
        from casemix.cli import EXIT_IO

        cfg = write_config(tmp_path)
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory", encoding="utf-8")
        out = blocker / "sub" / "cohort.csv"
        assert main(["generate", "--config", str(cfg), "--out", str(out)]) == EXIT_IO

    def test_threads_env_fallback(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path)
        out = tmp_path / "c.csv"
        monkeypatch.setenv("CASEMIX_THREADS", "3")
        assert main(["generate", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        manifest = json.loads((tmp_path / "c.csv.manifest.json").read_text())
        assert manifest["threads"] == 3
        monkeypatch.setenv("CASEMIX_THREADS", "many")
        assert main(["generate", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG

    def test_unclassifiable_rows_labeled_U(self, tmp_path):
        doc = {"cohort": {"n": 150, "seed": 8, "unclassifiable_rate": 0.2}}
        cfg = write_config(tmp_path, doc)
        cohort = tmp_path / "c.csv"
        assert main(["generate", "--config", str(cfg), "--out", str(cohort)]) == EXIT_OK
        out = tmp_path / "hrg"
        assert main(["hrg", "--cohort", str(cohort), "--out", str(out)]) == EXIT_OK
        with open(out / "labels.csv", newline="") as fh:
            ranks = [row["rank"] for row in csv.DictReader(fh)]
        assert "U" in ranks
        hist = json.loads((out / "histogram.json").read_text())
        assert hist["U"] == ranks.count("U")
