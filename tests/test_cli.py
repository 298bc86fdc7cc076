import csv
import hashlib
import json
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from casemix.cli import EXIT_CONFIG, EXIT_OK, EXIT_STAGE, main
from casemix.dataio import read_cohort_csv
from tests.test_tree import structure_sha256

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
#: with the exact 1-D k-means labels and the exact integer split criterion.
#: Changes to how data is held or moved must leave every byte of every
#: artifact as it was.
PINNED_ARTIFACTS = {
    "cli": {
        "cohort.csv": "1fdbaa407561f4102c27e2912ae31563b3ee90ee42582dc4b2b00f231040e1f2",
        "eval/boxplot_los_days_test.svg": "1fd5fe4369db215654b9f87cc27daf6e5dd758aeb2db6ac86a8c34bc99f6c372",
        "eval/boxplot_tbsa_pct_test.svg": "7e10ce5275018d30184f14594951a99e51e995da0096e7e96370cbddf688ed63",
        "eval/boxplot_total_cost_test.svg": "013739ff985f2fa6e84e68e97e6dbe9df2e8da919c10b44d674bd15bbc3a9863",
        "eval/boxplots_test.csv": "d570e2bd8ea8f766a8528c43b03be0fca5c46030483eb46ca03631d0a9d8abbf",
        "eval/boxplots_train.csv": "3eeaf4c0f35ae8fa9394228b743d2bbe28dd247d0eb8ec4746347a4a86b6b321",
        "eval/comparison.json": "6e3ab845fd85a46542d15b0e0262f26c95f9ae8985d2f66a84c03700adaf4040",
        "eval/confusion_test.json": "b79063742043c97d5261833eec7faf7d07cbc17dcc9966abc36a82b7b81406e1",
        "eval/confusion_test_oversampled.json": "0fa0280d5c3f49c8a114d9392b9bafa4955943576ee453b6951122b108f8dca7",
        "eval/rank_spread.csv": "0833c63ff8c3243a4ed90cce86d08a98ad63587d7f10fd2077d2051f1b3b00c2",
        "eval/rank_spread.svg": "b8f54ad9847a3438ce41f00df6fb9fc84f49649d369e229bb1868aaaabd1cf75",
        "eval/rules.csv": "f690d695a6e4c9391b692ccc59b0ab0f98431029c72e449122c7daa2340c3fe9",
        "eval/rules.txt": "9e09e29ddc43fd0357903756f17f98c412546f4dffdb02830f9e87590aadba8a",
        "eval/variance_los_days_test.svg": "44951da4f4e0e8e629fd8e6f1cbe3ef4bb1f54d56c4b5f35d05b71026d7100c4",
        "eval/variance_los_days_train.svg": "165730aaee7ed5f11f04c2cf32fcd8bc1b3b5fca5bf80f2c9a22ac7a97a3acb6",
        "eval/variance_tbsa_pct_test.svg": "0e6ce8a747a18f6be56be1df7380050c44f6bafd0486a85ae632009b42f89cdb",
        "eval/variance_tbsa_pct_train.svg": "988acb4c03ce52075466a38075c1efddd01335b98b18bbf50c6ea11787aabfaf",
        "eval/variance_total_cost_test.svg": "41056b71470460dc063336703ce710896be34c61e8a60bed789dbb36d60fbf19",
        "eval/variance_total_cost_train.svg": "8b4981dc2454836383ac66c7941cbbf6e3b7e76bd566e80eebefb671ccdb24c7",
        "eval/variances_test.csv": "8db0a76b72f6e2707776f26b9f43a22f768718357b8e72a9b4e877a8539a822d",
        "eval/variances_train.csv": "ad5030c6191fe2ce339384a247da556b8af11ecb6bca6be3043e6b77786dff6d",
        "hrg/histogram.json": "f576178ab8782534a84c55f1657356ccafb4dbabc113c094466f192ce20a874d",
        "hrg/labels.csv": "2f356f9df573bb324ac0fe06838f4b42560e5202bc4e831db6b6c8a70c0d0f33",
        "result/config.json": "acc33283943c31d822c8b8ad22c15789d33ea65a9790acd24399764601772ff8",
        "result/factor_labels.csv": "6c355bee3d01ee0b02ea736e5f068f37a528383563abc750e7feffcaed773abd",
        "result/final_labels.csv": "5eab34cbe7097e7c9c606f81303bcba88d414b2ffd48ee3a3758a6d4b4324950",
        "result/importances.csv": "aff97fb600378664054f5cdda12d360899867bb1366ec1a7ea0ef11569aa0a79",
        "result/model.json": "ab47c2075328634206aa4066eed448d51d0aff72e4bb8b89f0ff29148585af29",
        "result/preprocess_report.json": "2aa5bbd53f98a77526ac66f97862ac05f5eb15a1b375222bf19661141cc15724",
        "result/preprocessed.csv": "a13e81a8c2045895932d04c93ed0e68ea93dfea01d3060c80a2f876c7cb9a438",
        "result/provenance.json": "94ea53f36472ef28ab415ea7d8d1ae189c1aabcee7f130500bd35464636577db",
        "result/split.csv": "ede4340a06fd40ac777d2bef8416a2b80c0996d01193d335644f11bff26ffdb7",
    },
    "missingness": {
        "cohort.csv": "b9be362c390c1b3d2a39854843ba69ace06daa350b7160ac18987823a374143f",
        "eval/boxplot_los_days_test.svg": "1f6bcf2528f5375eef1948cd19d0ff2b5e666cf874a76c0622e3c996b5bca9bf",
        "eval/boxplot_tbsa_pct_test.svg": "ac46320e6df7bed2ca2772a5e6d1ee179ab7ee6e0bde4c34366ed2e3eb0f01ed",
        "eval/boxplot_total_cost_test.svg": "5fe5101ff2515290f7b47c10c7c61804a21c5e42bbaf29b1fe20c6190a2ff20c",
        "eval/boxplots_test.csv": "40c59b3ee0484dc2c270ce16f8c99e4df252ce1cf19c97d2e1f097dfcf080507",
        "eval/boxplots_train.csv": "2659994c9a33aa1d56ce49a4159d883a6977ce6c789d1eab3b8b352200960527",
        "eval/comparison.json": "164cb4519f0e4a3a4f85081eead969e2970b1a01f58cbca1f7d9bb18fd370a26",
        "eval/confusion_test.json": "16b579b75b44d0f4832e9091872b813cdfa1a91269422b572c7d4d353abd80d8",
        "eval/confusion_test_oversampled.json": "b4123e1b4b101665bf54ee3f971234b35c31ecb844f86fd630b7ae3b02b46fbc",
        "eval/rank_spread.csv": "04a460b47179c24f1e2f6972285659cfbc9f81a5b132d680a838b720746a14b0",
        "eval/rank_spread.svg": "c0213c387099a2631ca384dd7536034d4dce38587b5afb31dd9fba317a6ef974",
        "eval/rules.csv": "bca58da5f4edb052c61b0a0c3ccde8af3c87a7466e92e2bd5a384ba345219273",
        "eval/rules.txt": "d95e92a40d9696edbb1f463c52d3857be83dd217ac05ddce66331bcea1514814",
        "eval/variance_los_days_test.svg": "a50709fcc3fb49926bca97507ceeccee87b1b5643554b63d86bf53cfda9e5902",
        "eval/variance_los_days_train.svg": "beca2ea07645a0551afd6c96673511023634de8db048b8ee2aca74ef60ad5c74",
        "eval/variance_tbsa_pct_test.svg": "f2167c410b08b3cfda3da2d834cf9520fc9ee68892e9fc7eb215e05c2011f1b1",
        "eval/variance_tbsa_pct_train.svg": "3c0fa29625015f2811857605bfff45417cfdaea18e78dc09f80606e8906d471e",
        "eval/variance_total_cost_test.svg": "26f21a6a6a0e4d6a94d05e6b0096afb02cf872386e18c5f14c9b848c153619a5",
        "eval/variance_total_cost_train.svg": "e507ad2ad891def7db7bbe1bdaf45e924a4b51e55dee9f66ca1d12ee9728d4be",
        "eval/variances_test.csv": "bf4f30177296a09f16704a29d55eb89454a781bb610e14eeff8ddb754e87ad5e",
        "eval/variances_train.csv": "91be458a38d661bf8f20228302e28b8c3e59522c42f440982bf38c19da102069",
        "hrg/histogram.json": "e6f7e7063ef82804bd73a3a501636646286474b7e90be614814bb98d2663a701",
        "hrg/labels.csv": "ce695d0c53029eaf494cfae8e1bbb7d63c0bcf68c6fffb4ef9f316361f35da51",
        "result/config.json": "acc33283943c31d822c8b8ad22c15789d33ea65a9790acd24399764601772ff8",
        "result/factor_labels.csv": "32f9643d041eadda1241172a36fe29886e1186be42ed5dfad18ef35df6e62c80",
        "result/final_labels.csv": "551ae1a220d47432d23137bf7ec9dc3f0271a311ecf8119bd0ff2876392efd47",
        "result/importances.csv": "2c9a2cd1e1e1a0f6c4d222c9e65f37d1eb1718cbfbd6f6dc6a2c45a1dd60ce63",
        "result/model.json": "a50b58cb65e380cef7bb241adac653e5ab80dc72c18728e5f35a8223ad8b236e",
        "result/preprocess_report.json": "31adc5e1e343770c684176ed6737330ace69600af02821f6f5d1ff4d8dc7aee4",
        "result/preprocessed.csv": "f0f368e6133af407afb6eb8027c14e17189d8592129546733b5c666558b1f633",
        "result/provenance.json": "1e1d85b86908b39d51f8bee5455c145725fe9e970a77f47d2f0cf9704acda1e6",
        "result/split.csv": "5d3ce9de8c302d63b45ac03fc29e7f85419b4f58eebcedd1f8d279509e5c24d5",
    },
}

#: structure_sha256 of each run's result/model.json, recorded before the
#: split criterion took its exact integer form, which moved only the low
#: bits of ``decrease``.
PINNED_MODEL_STRUCTURE = {
    "cli": "fc77fe0c420fc5fb759ca9c4f1920a65981c5c3c125dbe21d7c6774e489dbc0f",
    "missingness": "2ed849c7672887aeabf698859c6ec8770fd0038e14ea730ba5a8a4b82dbcdb72",
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

    @pytest.mark.parametrize("content", [
        pytest.param(json.dumps({"version": "x", "k": 13, "rules": [
            {"if": [{"feature": "ghost", "op": ">", "value": 1}], "then": 1}
        ]}).encode(), id="unknown_feature"),
        pytest.param(json.dumps({"version": "x", "k": 2, "rules": [
            {"if": [], "then": "one"}
        ]}).encode(), id="non_integer_then"),
        pytest.param(json.dumps({"version": "x", "k": "two", "rules": [
            {"if": [], "then": 1}
        ]}).encode(), id="non_integer_k"),
        pytest.param(json.dumps({"version": "x", "k": 2, "default": "x", "rules": [
            {"if": [], "then": 1}
        ]}).encode(), id="non_numeric_default"),
        # Each of these would pass validation once truncated to an int.
        pytest.param(json.dumps({"version": "x", "k": 2, "rules": [
            {"if": [{"feature": "tbsa_pct", "op": ">=", "value": 15}], "then": 2.7},
            {"if": [], "then": 1}
        ]}).encode(), id="float_then"),
        pytest.param(json.dumps({"version": "x", "k": 2, "rules": [
            {"if": [{"feature": "tbsa_pct", "op": ">=", "value": 15}], "then": 2},
            {"if": [], "then": True}
        ]}).encode(), id="bool_then"),
        pytest.param(json.dumps({"version": "x", "k": 1.0, "rules": [
            {"if": [], "then": 1}
        ]}).encode(), id="float_k"),
        pytest.param(json.dumps({"version": "x", "k": 1, "default": True, "rules": [
            {"if": [], "then": 1}
        ]}).encode(), id="bool_default"),
        pytest.param(json.dumps({"version": "x", "k": 1, "default": 1.0, "rules": [
            {"if": [], "then": 1}
        ]}).encode(), id="float_default"),
        pytest.param(b'{"version": "\xff", "k": 1, "rules": [{"if": [], "then": 1}]}',
                     id="not_utf8"),
    ])
    def test_invalid_ruleset_exit_2(self, generated, tmp_path, capsys, content):
        root, _, cohort = generated
        bad = tmp_path / "rules.json"
        bad.write_bytes(content)
        capsys.readouterr()
        code = main(["hrg", "--cohort", str(cohort), "--ruleset", str(bad), "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG
        assert "Traceback" not in capsys.readouterr().err

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

    def test_ephemeral_draws_only_used_seeds(self, generated, tmp_path):
        root, _, cohort = generated
        cfg = write_config(tmp_path, {"pipeline": {"k": 6}}, name="noseeds.json")
        out = tmp_path / "o"
        code = main(["train", "--cohort", str(cohort), "--config", str(cfg), "--out", str(out),
                     "--ephemeral"])
        assert code == EXIT_OK
        seeds = json.loads((out / "manifest.json").read_text())["seeds"]["pipeline"]
        assert sorted(seeds) == ["oversample", "split"]

    @pytest.mark.parametrize("command", ["train", "all"])
    def test_max_depth_over_cap_exit_2(self, generated, tmp_path, command):
        root, _, cohort = generated
        params = {"min_split": 20, "min_leaf": 7, "max_depth": 31, "cp": 0.01}
        doc = dict(COHORT_CONFIG, pipeline=dict(COHORT_CONFIG["pipeline"], factor_tree_params=params))
        cfg = write_config(tmp_path, doc, name="deep.json")
        args = ["--config", str(cfg), "--out", str(tmp_path / "o")]
        if command == "train":
            args += ["--cohort", str(cohort)]
        assert main([command] + args) == EXIT_CONFIG

    @pytest.mark.parametrize("command", ["train", "all"])
    @pytest.mark.parametrize("cp", [float("nan"), True, "0.5"])
    def test_cp_not_a_number_exit_2(self, generated, tmp_path, command, cp):
        """json.dumps writes the nan as NaN, which json.loads reads back."""
        root, _, cohort = generated
        params = {"min_split": 20, "min_leaf": 7, "max_depth": 30, "cp": cp}
        doc = dict(COHORT_CONFIG, pipeline=dict(COHORT_CONFIG["pipeline"], final_tree_params=params))
        cfg = write_config(tmp_path, doc, name="cp.json")
        out = tmp_path / "o"
        args = ["--config", str(cfg), "--out", str(out)]
        if command == "train":
            args += ["--cohort", str(cohort)]
        assert main([command] + args) == EXIT_CONFIG
        assert not out.exists()

    def test_cohort_file_hash_reaches_provenance(self, generated, tmp_path, monkeypatch):
        import casemix.pipeline as pipeline

        def refuse(ds):
            raise AssertionError("train rendered the cohort again to hash it")

        monkeypatch.setattr(pipeline, "dataset_sha256", refuse)
        root, cfg, cohort = generated
        out = tmp_path / "o"
        assert main(["train", "--cohort", str(cohort), "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        provenance = json.loads((out / "provenance.json").read_text())
        assert provenance["input_sha256"] == hashlib.sha256(cohort.read_bytes()).hexdigest()


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

    @pytest.mark.parametrize("edit", ["max_depth", "deep_node", "unknown_feature",
                                      "kind_mismatch", "levels_list", "unknown_category",
                                      "summary_depth", "summary_leaf_count", "summary_n",
                                      "cp_nan", "cp_bool", "cp_string"])
    def test_model_deeper_than_cap_exit_2(self, trained, tmp_path, edit):
        """A model.json deeper than the depth cap, at odds with its own
        schema, levels and summary, or with a cp that is not a number, is an
        input error."""
        import shutil

        root, _, cohort, result = trained
        hrg_dir = tmp_path / "hrg"
        assert main(["hrg", "--cohort", str(cohort), "--out", str(hrg_dir)]) == EXIT_OK
        broken = tmp_path / "deep_result"
        shutil.copytree(result, broken)
        model = json.loads((broken / "model.json").read_text())
        root = model["root"]
        assert root["kind"] == "numeric"  # the pinned model splits on los_days first
        if edit == "max_depth":
            model["params"]["max_depth"] = 31
        elif edit == "unknown_feature":
            root["feature"] = "ghost"
        elif edit == "kind_mismatch":
            root.update(kind="categorical", categories=["1"])
        elif edit == "levels_list":
            model["levels"] = [[name, levels] for name, levels in model["levels"].items()]
        elif edit == "unknown_category":
            root.update(feature="sex", kind="categorical", categories=["no such level"])
        elif edit == "summary_depth":
            model["summary"]["depth"] = 29
        elif edit == "summary_leaf_count":
            model["summary"]["leaf_count"] = 1
        elif edit == "summary_n":
            model["summary"]["n"] += 1
        elif edit.startswith("cp_"):
            model["params"]["cp"] = {"cp_nan": float("nan"), "cp_bool": True, "cp_string": "0.5"}[edit]
        else:
            leaf = model["root"]
            while leaf["type"] == "internal":
                leaf = leaf["left"]
            node = leaf
            for _ in range(31):
                node = dict(model["root"], left=node, right=leaf)
            model["root"] = node
        (broken / "model.json").write_text(json.dumps(model))
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
        assert main(["all", "--config", str(cfg), "--out", str(out_a)]) == EXIT_OK
        assert main(["all", "--config", str(cfg), "--out", str(out_b)]) == EXIT_OK
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
        model = (out / "result" / "model.json").read_text(encoding="utf-8")
        assert structure_sha256(model) == PINNED_MODEL_STRUCTURE[name]
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
        # hrg and train use the generated cohort; only evaluate parses a file
        assert parsed == ["preprocessed.csv"]
        for stage in ("hrg", "result"):  # each stage still hashes the cohort file
            manifest = json.loads((out / stage / "manifest.json").read_text())
            assert str(out / "cohort.csv") in manifest["inputs"]

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


class TestNegativeSeeds:
    """A negative seed is a config error (exit 2), never a numpy traceback."""

    @pytest.mark.parametrize("doc", [
        {"cohort": {"n": 10, "seed": -1}},
        {"cohort": {"n": 10, "seed": 1}, "missingness": {"rate": 0.2, "seed": -2}},
    ])
    def test_generate(self, tmp_path, capsys, doc):
        cfg = write_config(tmp_path, doc)
        capsys.readouterr()
        assert main(["generate", "--config", str(cfg), "--out", str(tmp_path / "c.csv")]) == EXIT_CONFIG
        assert "Traceback" not in capsys.readouterr().err
        assert not (tmp_path / "c.csv").exists()

    @pytest.mark.parametrize("seeds", [{"split": -1, "oversample": 3},
                                       {"split": 2, "oversample": -3}])
    def test_train(self, generated, tmp_path, seeds):
        root, _, cohort = generated
        cfg = write_config(tmp_path, {"pipeline": {"k": 6, "seeds": seeds}}, name="neg.json")
        assert main(["train", "--cohort", str(cohort), "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == EXIT_CONFIG

    @pytest.mark.parametrize("section", ["cohort", "missingness", "pipeline"])
    def test_all(self, tmp_path, section):
        doc = json.loads(json.dumps(MISSINGNESS_CONFIG))
        if section == "pipeline":
            doc["pipeline"]["seeds"]["oversample"] = -3
        else:
            doc[section]["seed"] = -5
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "run"
        assert main(["all", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
        assert not (out / "cohort.csv").exists()


class TestAllValidatesPipelineFirst:
    """`casemix all` rejects a bad pipeline section before it generates,
    groups or writes anything."""

    @pytest.mark.parametrize("pipeline", [
        dict(COHORT_CONFIG["pipeline"],
             final_tree_params={"min_split": 20, "min_leaf": 7, "max_depth": 31, "cp": 0.01}),
        {"k": 6, "seeds": {"split": 2.5, "oversample": 3}},
        {"k": 1, "seeds": {"split": 2, "oversample": 3}},
        {"k": 6},
        dict(COHORT_CONFIG["pipeline"], k=13.5),
        dict(COHORT_CONFIG["pipeline"], k=13.0),
        dict(COHORT_CONFIG["pipeline"], importance_top_m=2.5),
        dict(COHORT_CONFIG["pipeline"], importance_top_m=True),
        dict(COHORT_CONFIG["pipeline"],
             factor_tree_params={"min_split": 20.9, "min_leaf": 7, "max_depth": 30, "cp": 0.01}),
        dict(COHORT_CONFIG["pipeline"],
             final_tree_params={"min_split": 20, "min_leaf": True, "max_depth": 30, "cp": 0.01}),
    ])
    def test_bad_pipeline_leaves_no_cohort(self, tmp_path, monkeypatch, pipeline):
        import casemix.cli as cli

        def refuse(config):
            raise AssertionError("generated a cohort for a config that cannot train")

        monkeypatch.setattr(cli, "generate_cohort", refuse)
        cfg = write_config(tmp_path, dict(COHORT_CONFIG, pipeline=pipeline))
        out = tmp_path / "run"
        assert main(["all", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
        assert not (out / "cohort.csv").exists()
        assert not (out / "hrg").exists()

    @pytest.mark.parametrize("ruleset", ["missing", "malformed", "unknown_feature", "mistyped"])
    def test_bad_ruleset_leaves_no_cohort(self, tmp_path, monkeypatch, ruleset):
        import casemix.cli as cli

        def refuse(config):
            raise AssertionError("generated a cohort for a config whose ruleset cannot load")

        monkeypatch.setattr(cli, "generate_cohort", refuse)
        path = tmp_path / "rules.json"
        if ruleset == "malformed":
            path.write_text('{"version": "x", "k": 2, "rules": [{"if": [], "then": "one"}]}')
        elif ruleset == "unknown_feature":
            path.write_text(json.dumps({"version": "x", "k": 1, "rules": [
                {"if": [{"feature": "ghost", "op": ">", "value": 1}], "then": 1}]}))
        elif ruleset == "mistyped":  # valid but for the kind of the generator's `sex` column
            path.write_text(json.dumps({"version": "x", "k": 1, "rules": [
                {"if": [{"feature": "sex", "op": ">", "value": 1}], "then": 1},
                {"if": [], "then": 1}]}))
        cfg = write_config(tmp_path, dict(COHORT_CONFIG, ruleset=str(path)))
        out = tmp_path / "run"
        assert main(["all", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
        assert not (out / "cohort.csv").exists()
        assert not (out / "hrg").exists()

    def test_ephemeral_pipeline_seeds_drawn_once(self, tmp_path):
        doc = {"cohort": {"n": 250, "seed": 31}, "pipeline": {"k": 6}}
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "run"
        assert main(["all", "--config", str(cfg), "--out", str(out), "--ephemeral"]) == EXIT_OK
        seeds = json.loads((out / "result" / "manifest.json").read_text())["seeds"]["pipeline"]
        assert json.loads((out / "result" / "config.json").read_text())["seeds"] == seeds


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

    @pytest.mark.parametrize("command", ["hrg", "train", "evaluate"])
    def test_oversized_cell_exit_2_naming_line(self, trained, tmp_path, capsys, command):
        """A cell over the csv module's 131,072-character field limit."""
        import shutil

        root, cfg, cohort, result = trained
        source, bad = cohort, tmp_path / "bad.csv"
        args = [command, "--cohort", str(bad)] + (["--config", str(cfg)] if command == "train" else [])
        if command == "evaluate":
            result = shutil.copytree(result, tmp_path / "result")
            source = bad = result / "preprocessed.csv"
            labels = tmp_path / "labels.csv"
            labels.write_text("id,rank\n", encoding="utf-8")
            args = ["evaluate", "--result", str(result), "--hrg", str(labels)]
        lines = source.read_text(encoding="utf-8").splitlines()
        lines[5] = '"' + "P" * 200_000 + '"' + lines[5][lines[5].index(","):]
        bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
        capsys.readouterr()
        assert main(args + ["--out", str(tmp_path / "o")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "line 6" in err and "field larger than field limit" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("chunk_rows", [1, None])
    def test_invalid_utf8_after_ragged_row_exit_2(self, generated, tmp_path, capsys, monkeypatch,
                                                   chunk_rows):
        """The whole file is decoded before any row is reported: a codec
        error in the last line wins over a ragged row near the top, also
        when the reader meets the ragged row chunks before the end."""
        if chunk_rows is not None:
            monkeypatch.setattr("casemix.dataio._CHUNK_ROWS", chunk_rows)
        root, _, cohort = generated
        data = cohort.read_bytes().split(b"\n")
        data[2] += b",extra_cell"
        data[-2] += b"\xff"
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"\n".join(data))
        assert len(data[0]) + len(data[1]) + len(data[2]) < 8192 < bad.stat().st_size
        capsys.readouterr()
        assert main(["hrg", "--cohort", str(bad), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "'utf-8' codec can't decode byte 0xff" in err
        assert "cells, header has" not in err and "Traceback" not in err


class TestErrorPlumbing:
    def test_io_failure_exit_3(self, tmp_path):
        from casemix.cli import EXIT_IO

        cfg = write_config(tmp_path)
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory", encoding="utf-8")
        out = blocker / "sub" / "cohort.csv"
        assert main(["generate", "--config", str(cfg), "--out", str(out)]) == EXIT_IO

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
