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


#: A second `casemix all` config: missingness, and a different cohort seed.
MISSINGNESS_CONFIG = {
    "cohort": {"n": 600, "seed": 17},
    "missingness": {"rate": 0.2, "seed": 3},
    "pipeline": {"k": 6, "seeds": {"clustering": 1, "split": 2, "oversample": 3}},
}

#: sha256 of every non-manifest artifact of `casemix all --svg`, recorded
#: while cohorts were still held as record objects. Changes to how data is
#: held or moved must leave every byte of every artifact as it was.
PINNED_ARTIFACTS = {
    "cli": {
        "cohort.csv": "1fdbaa407561f4102c27e2912ae31563b3ee90ee42582dc4b2b00f231040e1f2",
        "eval/boxplot_los_days_test.svg": "4064450d134f6edfa1fab94265f53facd261ff21e0c0cd8e6ae735f8b0895dc1",
        "eval/boxplot_tbsa_pct_test.svg": "3c2b9f074fda744b3a354628d40affeba6739caec5864fa1a93674c11edc16b5",
        "eval/boxplot_total_cost_test.svg": "874feca68c7f104c25f0f9e88f02534f98a25a86cbd82043a10da8f1e294a4c2",
        "eval/boxplots_test.csv": "233dfbb32ba7de1716edf25a6aa8873281db0e2dc1ac73da4cbca631c1273523",
        "eval/boxplots_train.csv": "de37feb370ee77c76b3df361bce2b50829ee2207fa6f29fe2cc62bee9def5bae",
        "eval/comparison.json": "6d7778cb0f8552409baa77bdc1aa93f00b1aaaff3e99acd87bfcef1379799768",
        "eval/confusion_test.json": "1afea0d8c679c4f9d6f4c8ffd46cd4f12ceb1ef953217a5f07e142144a87ef17",
        "eval/confusion_test_oversampled.json": "9528f6d90d494c2d847bbfb0285a4a0abc68141df4c626a5236d1bc4a08046fd",
        "eval/rank_spread.csv": "9328326182d1fa2cb2dd52ce4d3560e5450b7c50d4de3a9d8c4c3a9366540039",
        "eval/rank_spread.svg": "b17506491c99ccaec803f22173ca49010e882070b966441aefc4a4dc3feff751",
        "eval/rules.csv": "d9eaa24a9ffe8b0a73022995cd8785f19a1c42fe166dd56b550ddfd8e64d25cd",
        "eval/rules.txt": "2591825c74f0ec936cde97bd05321b63266b15529cefbd1c04eae0f47569740f",
        "eval/variance_los_days_test.svg": "aef4c968c3af29c4d9eeb69208ac94473b0f9043f14de100f5267709d2de03fa",
        "eval/variance_los_days_train.svg": "979aba604d01cef4d64fdfbf3350fbe457456b4a8b6998524e689fabcafb797e",
        "eval/variance_tbsa_pct_test.svg": "e7226a39ba28561da02bf80569345ec45ff29db3152b246e68a53030039638dd",
        "eval/variance_tbsa_pct_train.svg": "967b2bc951dd1c4909c6018f04588af23c8c39e7b5b6291d48e152eee8fd7434",
        "eval/variance_total_cost_test.svg": "5064672b634f1890a7f3f65f956d570bb13b9d47458870fa577663512db27c0f",
        "eval/variance_total_cost_train.svg": "5a67ddd497976da585185c67dd7b708f3880c37f72986a2452b0afcb8e9c2b97",
        "eval/variances_test.csv": "81923f4441d3e0844d6b03ac20767b099a768e193290daecf9fa62d637ed8ed2",
        "eval/variances_train.csv": "a374a04744f2f50a556e29f99c6cfdadc7b626323facef1420dd3827a71ddedd",
        "hrg/histogram.json": "f576178ab8782534a84c55f1657356ccafb4dbabc113c094466f192ce20a874d",
        "hrg/labels.csv": "2f356f9df573bb324ac0fe06838f4b42560e5202bc4e831db6b6c8a70c0d0f33",
        "result/config.json": "a976230c5c206a981892bf285efc5b9a2428f20730a21745800aa86a37020646",
        "result/factor_labels.csv": "6b1cc0c81a869250304e623acc70993cfc271013a9a1d88c33c361891987c546",
        "result/final_labels.csv": "c0a52e8fb3cbab2f29d3712f86221e081646a568d2b2c6b3c74c1527f4d71f67",
        "result/importances.csv": "9c271779278a6c849143e26b18ff93a1f33c8f4272cf70e72fe42f437bf9f4f1",
        "result/model.json": "230b840671ad7e717b6fd70af14ddcf9ffb063bf01273cb2f5527c3e004888fd",
        "result/preprocess_report.json": "2aa5bbd53f98a77526ac66f97862ac05f5eb15a1b375222bf19661141cc15724",
        "result/preprocessed.csv": "a13e81a8c2045895932d04c93ed0e68ea93dfea01d3060c80a2f876c7cb9a438",
        "result/provenance.json": "c37e5478c87eeeb3356ce89c97efc16a97fa28a188a25b793f0e5bfd6429061a",
        "result/split.csv": "fdcbc3f9e90f2bb834d095802d2d65cc172943e12c2eb19cb3545309c18feaf0",
    },
    "missingness": {
        "cohort.csv": "b9be362c390c1b3d2a39854843ba69ace06daa350b7160ac18987823a374143f",
        "eval/boxplot_los_days_test.svg": "b532bf552d039081ec5a4792e5df873d604f738c91ee1001dd7b13a93c5615c9",
        "eval/boxplot_tbsa_pct_test.svg": "a9a21d8a9beaced4a4d9ff4e2d68d8d6fd05afc8d9c017e93aaab98c42a79af0",
        "eval/boxplot_total_cost_test.svg": "990618155c9e035d44190b71e2c454b22803a8441200a4f197b8670543d3b77c",
        "eval/boxplots_test.csv": "3744b7e84759dbbe044d7c060d40d989d986c9180019032d96a5f31900ab784b",
        "eval/boxplots_train.csv": "f1225439a12a327049a13d58f2d709648f9a3adb0204e31f5bd5c7eb3ad0c349",
        "eval/comparison.json": "ec212f77f96a7612fd336dc7676e9aebbe168eb5c99515ad81c545fb6cd477f2",
        "eval/confusion_test.json": "6a0db00e8ef96cd0afa26407f459bbf11923c284a3bb13cd64f55b66ef86104a",
        "eval/confusion_test_oversampled.json": "028377ab9c4191342b0e386660f884f2cb80ab7d3ffe001e23792fd6a0567cfa",
        "eval/rank_spread.csv": "660a6256d28583bfc75cb7c5b1c9978a0f289366b546c30b7cf26eea82167975",
        "eval/rank_spread.svg": "c3c2f987928ead66abd32a98d0a553a976e5045f865c4f753c491b8528915fe0",
        "eval/rules.csv": "e6f1618e111e96386d998e822fe19e22ff765a5a8ea206adba61385da90aa7e8",
        "eval/rules.txt": "b69b860154a992e8fc389cab720f9e675593a73c650eea7f4a854fce84b01f49",
        "eval/variance_los_days_test.svg": "74873811048c15df1caaa64a6102cc608d7f337c83497966662083f36cca02da",
        "eval/variance_los_days_train.svg": "f1a277e706f948cb153536d972b869db00cb6f999d1d3bcd9f0d8757bee2eeae",
        "eval/variance_tbsa_pct_test.svg": "cd661f0086f53ee08d8844ff263d4a52fcb6b315297b6eb77e5dfdc2bb73a701",
        "eval/variance_tbsa_pct_train.svg": "080935ba33c03847d53aa34da1f2a38a7b0c72809e8ba7052b37d27450699542",
        "eval/variance_total_cost_test.svg": "1a2029c0195894ae97a370f4338d909c980838660af78d39448010d6418b2bf9",
        "eval/variance_total_cost_train.svg": "b8ec298ccc05da7475234e27469cef6fe92c06895d42d059d04de468a8413002",
        "eval/variances_test.csv": "86e71e5216518b308d8a47bffa852621349068945edd23d0a70a206a387312ef",
        "eval/variances_train.csv": "d1392a1d0092f04863f231fab9106fee3f01d76f19284d38bc29a72aa234e36d",
        "hrg/histogram.json": "e6f7e7063ef82804bd73a3a501636646286474b7e90be614814bb98d2663a701",
        "hrg/labels.csv": "ce695d0c53029eaf494cfae8e1bbb7d63c0bcf68c6fffb4ef9f316361f35da51",
        "result/config.json": "a976230c5c206a981892bf285efc5b9a2428f20730a21745800aa86a37020646",
        "result/factor_labels.csv": "aa38533484a1ad9605a14ba171b9fefc866df9a982cef2204f29912830dc62c9",
        "result/final_labels.csv": "e2ae6f532a84ad12c5929d3eb7bff28eb2000cea9f4c831766dce5ab3087fec6",
        "result/importances.csv": "757b43bc61c5022c5549c21d845fb53eabef6fdae1822bc475de7bbba8fa5459",
        "result/model.json": "251e135a519f8b0554d0134e05f80d27b8b365046977045d966edb6a3f06596d",
        "result/preprocess_report.json": "31adc5e1e343770c684176ed6737330ace69600af02821f6f5d1ff4d8dc7aee4",
        "result/preprocessed.csv": "f0f368e6133af407afb6eb8027c14e17189d8592129546733b5c666558b1f633",
        "result/provenance.json": "df59b830675667c78b61f0d36cc781eb976065135be43765f0677476b9ee2c9a",
        "result/split.csv": "a9330cbeb2425ad13702d0a33ab8fd2615c8bd6dc44054f8b9bf002b7a07f9b6",
    },
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

    @pytest.mark.parametrize("name", ["cli", "missingness"])
    def test_artifacts_match_pinned_hashes(self, tmp_path, name):
        doc = {"cli": COHORT_CONFIG, "missingness": MISSINGNESS_CONFIG}[name]
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "run"
        assert main(["all", "--config", str(cfg), "--out", str(out), "--svg"]) == EXIT_OK
        assert file_hashes(out) == PINNED_ARTIFACTS[name]

    def test_cohort_parsed_once(self, tmp_path, monkeypatch):
        import casemix.cli as cli

        parsed = []

        def counting_read(path):
            parsed.append(Path(path).name)
            return read_cohort_csv(path)

        monkeypatch.setattr(cli, "read_cohort_csv", counting_read)
        cfg = write_config(tmp_path)
        out = tmp_path / "run"
        assert main(["all", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        assert parsed == ["cohort.csv", "preprocessed.csv"]
        for stage in ("hrg", "result"):  # each stage still hashes the cohort file
            manifest = json.loads((out / stage / "manifest.json").read_text())
            assert str(out / "cohort.csv") in manifest["inputs"]

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
