import csv
import hashlib
import json
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from casemix.cli import EXIT_CONFIG, EXIT_IO, EXIT_OK, EXIT_STAGE, main
from casemix.dataio import read_cohort_csv
from casemix.errors import InvalidArgument
from tests.helpers import assert_no_children
from tests.test_tree import preorder, structure_sha256

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
        assert len(ds) == 250
        manifest = json.loads((tmp_path / "cohort.csv.manifest.json").read_text())
        assert manifest["command"] == "generate"
        assert manifest["seeds"]["cohort"] == 31
        assert "wall_time_s" in manifest
        assert manifest["peak_rss_mb"] > 0

    @pytest.mark.parametrize("out", ["", ".", "..", "/", "inside", "inside/..", "missing/.."])
    def test_out_naming_no_file_exit_2_writes_nothing(self, tmp_path, monkeypatch, capsys, out):
        """An --out with no file name, or naming an existing directory, is
        refused naming it, before the cohort is drawn."""
        import casemix.cli as cli

        def not_drawn(config):
            raise AssertionError("the cohort was drawn")

        monkeypatch.setattr(cli, "generate_cohort", not_drawn)
        cfg = write_config(tmp_path)
        (tmp_path / "taken" / "inside").mkdir(parents=True)
        monkeypatch.chdir(tmp_path / "taken")
        before = sorted(tmp_path.rglob("*"))
        assert main(["generate", "--config", str(cfg), "--out", out]) == EXIT_CONFIG
        assert f"--out {out!r}" in capsys.readouterr().err
        assert sorted(tmp_path.rglob("*")) == before

    def test_writer_failing_after_one_block_leaves_nothing(self, tmp_path, monkeypatch):
        """The cohort is streamed to its .tmp file; a failure part-way
        removes the partial file and writes neither the CSV nor a manifest."""
        import casemix.cli as cli
        from casemix import dataio

        out = tmp_path / "cohort.csv"
        tmp = tmp_path / "cohort.csv.tmp"

        class FailAfterOneBlock:
            def __init__(self, fh):
                self.fh, self.writes = fh, 0

            def write(self, text):
                if self.writes == 2:  # the header and one block of rows were written
                    assert tmp.stat().st_size > 0
                    raise OSError(28, "No space left on device")
                self.writes += 1
                return self.fh.write(text)

        def failing(ds, fh, write=cli.cohort_csv_text):
            write(ds, FailAfterOneBlock(fh))

        monkeypatch.setattr(cli, "cohort_csv_text", failing)
        doc = {"cohort": {"n": dataio._WRITE_ROWS + 200, "seed": 31}}
        cfg = write_config(tmp_path, doc)
        assert main(["generate", "--config", str(cfg), "--out", str(out)]) == EXIT_IO
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

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

    @pytest.mark.parametrize("n", [2**32 + 1, 10**20])
    def test_cohort_size_over_2_pow_32_exit_2_writes_nothing(self, tmp_path, capsys, n):
        cfg = write_config(tmp_path, {"cohort": {"n": n, "seed": 1}})
        capsys.readouterr()
        assert main(["generate", "--config", str(cfg), "--out", str(tmp_path / "c.csv")]) == EXIT_CONFIG
        assert "n must be an integer, >= 1, <= 4294967296" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    @pytest.mark.parametrize("failing", [1, 2], ids=["generate", "missingness"])
    def test_cohort_too_large_for_memory_exit_2(self, tmp_path, capsys, monkeypatch, failing):
        """Generation and missingness each map one anonymous buffer; a
        mapping refused for lack of memory touched no file, so it is no I/O
        failure (it once exited 3)."""
        import errno
        import mmap

        from casemix import cohort

        real, sizes = mmap.mmap, []

        def mapping(fileno, size):
            sizes.append(size)
            if len(sizes) == failing:
                raise OSError(errno.ENOMEM, "Cannot allocate memory")
            return real(fileno, size)

        monkeypatch.setattr(cohort.mmap, "mmap", mapping)
        cfg = write_config(tmp_path, {"cohort": {"n": 10, "seed": 1},
                                      "missingness": {"rate": 0.2, "seed": 3}})
        capsys.readouterr()
        assert main(["generate", "--config", str(cfg), "--out", str(tmp_path / "cohort.csv")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"a cohort of 10 records needs {sizes[-1]} bytes of memory" in err
        assert "I/O failure" not in err and "Traceback" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

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
            {"cohort": {"n": 10, "seed": 1, "severity_weights": 5}},
            {"cohort": {"n": 10, "seed": 1}, "missingness": {"rate": "lots", "seed": 2}},
            {"cohort": {"n": 10, "seed": 1}, "missingness": {"rate": 0.2, "seed": "two"}},
            *({"cohort": {"n": 10, "seed": 1}, "missingness": m} for m in ([], False, 0, "", [1])),
        ):
            cfg = write_config(tmp_path, doc)
            assert main(["generate", "--config", str(cfg), "--out", str(tmp_path / "c.csv")]) == EXIT_CONFIG

    @pytest.mark.parametrize("command", ["generate", "all"])
    @pytest.mark.parametrize("missing", [
        [0.2], "rate", 1, True,
        {"rate": 1.5, "seed": 7}, {"rate": -0.1, "seed": 7}, {"rate": float("nan"), "seed": 7},
        {"rate": float("inf"), "seed": 7}, {"rate": "0.2", "seed": 7}, {"rate": True, "seed": 7},
        {"rate": 0.2}, {"rate": 0.2, "seed": -1}, {"rate": 0.2, "seed": "7"},
        {"rate": 0.2, "seed": 7.5}, {"rate": 0.2, "seed": 7, "rat": 0.5}, {"seed": 7, "rte": 0.2},
    ])
    def test_bad_missingness_leaves_no_cohort(self, tmp_path, monkeypatch, command, missing):
        """The whole missingness section (its type, rate, seed and keys) is
        checked before a cohort is drawn, by `generate` and by `all`."""
        import casemix.cli as cli

        def refuse(config):
            raise AssertionError("generated a cohort for a config whose missingness is bad")

        monkeypatch.setattr(cli, "generate_cohort", refuse)
        cfg = write_config(tmp_path, dict(COHORT_CONFIG, missingness=missing))
        out = tmp_path / "run"
        cohort = out / "cohort.csv"
        target = cohort if command == "generate" else out
        assert main([command, "--config", str(cfg), "--out", str(target)]) == EXIT_CONFIG
        assert not cohort.exists()

    @pytest.mark.parametrize("cohort", [
        {"los_noise": float("nan")},
        {"cost_noise": float("nan")},
        {"los_noise": float("inf")},
    ])
    def test_noise_scale_not_finite_exit_2(self, tmp_path, cohort):
        """json.loads reads NaN and Infinity; neither is a noise scale."""
        cfg = write_config(tmp_path, {"cohort": {"n": 50, "seed": 1, **cohort}})
        out = tmp_path / "c.csv"
        assert main(["generate", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
        assert not out.exists()

    @pytest.mark.parametrize("cohort", [
        {"los_noise": True, "outlier_rate": True, "unclassifiable_rate": False},
        {"cost_noise": True},
        {"unclassifiable_rate": False},
        {"severity_weights": [True, False, False]},
    ])
    def test_boolean_cohort_numbers_exit_2(self, tmp_path, cohort):
        cfg = write_config(tmp_path, {"cohort": {"n": 50, "seed": 1, **cohort}})
        out = tmp_path / "c.csv"
        assert main(["generate", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
        assert not out.exists()

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

    @pytest.mark.parametrize("missing", [{}, None])
    def test_empty_or_null_missingness_is_none(self, tmp_path, missing):
        plain, blank = tmp_path / "plain.csv", tmp_path / "blank.csv"
        cohort = {"n": 50, "seed": 1}
        main(["generate", "--config", str(write_config(tmp_path, {"cohort": cohort})),
              "--out", str(plain)])
        cfg = write_config(tmp_path, {"cohort": cohort, "missingness": missing}, name="m.json")
        assert main(["generate", "--config", str(cfg), "--out", str(blank)]) == EXIT_OK
        assert blank.read_bytes() == plain.read_bytes()

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
        # A list or object is unhashable, so no schema lookup may take it.
        pytest.param(json.dumps({"version": "x", "k": 1, "rules": [
            {"if": [{"feature": ["tbsa_pct"], "op": ">", "value": 1}], "then": 1},
            {"if": [], "then": 1}
        ]}).encode(), id="list_feature"),
        pytest.param(json.dumps({"version": "x", "k": 1, "rules": [
            {"if": [{"feature": {"name": "tbsa_pct"}, "op": ">", "value": 1}], "then": 1},
            {"if": [], "then": 1}
        ]}).encode(), id="object_feature"),
        # Without a default, coverage of 1..k is checked without listing k ranks.
        pytest.param(json.dumps({"version": "x", "k": 2**70, "rules": [
            {"if": [], "then": 1}
        ]}).encode(), id="huge_k"),
    ])
    def test_invalid_ruleset_exit_2(self, generated, tmp_path, capsys, content):
        root, _, cohort = generated
        bad = tmp_path / "rules.json"
        bad.write_bytes(content)
        capsys.readouterr()
        code = main(["hrg", "--cohort", str(cohort), "--ruleset", str(bad), "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["true", "NaN", "Infinity", "1e999", "[3, false]", "[NaN]"])
    def test_rule_value_not_a_finite_number_exit_2(self, generated, tmp_path, capsys, value):
        """json.loads reads NaN, Infinity and 1e999 (as inf); a boolean or
        any of these is no value for a numeric rule, inside ``in`` too."""
        root, _, cohort = generated
        op = "in" if value.startswith("[") else ">="
        bad = tmp_path / "rules.json"
        bad.write_text('{"version": "x", "k": 2, "rules": ['
                       '{"if": [], "then": 2}, '
                       '{"if": [{"feature": "tbsa_pct", "op": "%s", "value": %s}], "then": 1}, '
                       '{"if": [], "then": 1}]}' % (op, value), encoding="utf-8")
        capsys.readouterr()
        code = main(["hrg", "--cohort", str(cohort), "--ruleset", str(bad), "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "rule 1: feature 'tbsa_pct'" in err and "Traceback" not in err
        assert not (tmp_path / "o").exists()

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


@pytest.mark.parametrize("command", ["generate", "train"])
def test_worker_that_exits_is_a_failed_stage(generated, tmp_path, monkeypatch, capsys, command):
    """A forked worker that dies without a result, as under the OOM killer,
    exits 4 with the worker's exit status, not with a traceback."""
    import os

    from casemix import cohort, parallel, pipeline

    _, cfg, cohort_csv = generated
    module, name = (cohort, "_generate_record") if command == "generate" else (pipeline, "build_tree")
    real, parent = getattr(module, name), os.getpid()

    def dies_in_a_worker(*args, **kwargs):
        if os.getpid() != parent:
            os._exit(9)
        return real(*args, **kwargs)

    monkeypatch.setattr(parallel, "cpu_count", lambda: 2)
    monkeypatch.setattr(module, name, dies_in_a_worker)
    out = tmp_path / "out"
    args = {"generate": ["generate", "--config", str(cfg), "--out", str(out)],
            "train": ["train", "--cohort", str(cohort_csv), "--config", str(cfg), "--out", str(out)]}
    capsys.readouterr()
    assert main(args[command]) == EXIT_STAGE
    err = capsys.readouterr().err
    assert "exited with status 9 without a result" in err
    assert "Traceback" not in err
    assert not list(tmp_path.rglob("*.tmp"))


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
            assert set(counters) == {"nodes_grown", "candidates_scanned", "prune_steps", "build_s"}
            assert counters["build_s"] >= 0
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
    @pytest.mark.parametrize("cp", [float("nan"), True, "0.5", float("inf")])
    def test_cp_not_a_number_exit_2(self, generated, tmp_path, command, cp):
        """json.dumps writes the nan as NaN and the inf as Infinity, which
        json.loads reads back. An infinite cp is refused: written back to
        result/config.json it is not standard JSON, and any cp above 1
        already prunes to one leaf."""
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

    @pytest.mark.parametrize("command", ["train", "all"])
    @pytest.mark.parametrize("section", ["factor_tree_params", "final_tree_params"])
    def test_unknown_tree_params_key_exit_2(self, generated, tmp_path, capsys, command, section):
        """A misspelt tree parameter is refused by name, not dropped."""
        root, _, cohort = generated
        params = {"min_split": 20, "min_leaf": 7, "max_depth": 30, "cp": 0.001, "cpp": 0.5}
        doc = dict(COHORT_CONFIG, pipeline=dict(COHORT_CONFIG["pipeline"], **{section: params}))
        cfg = write_config(tmp_path, doc, name="typo.json")
        out = tmp_path / "o"
        args = ["--config", str(cfg), "--out", str(out)]
        if command == "train":
            args += ["--cohort", str(cohort)]
        assert main([command] + args) == EXIT_CONFIG
        assert f"unknown {section} key 'cpp'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "all"])
    @pytest.mark.parametrize("threshold", ["x", True, float("nan"), 1.5, -0.1])
    def test_missing_threshold_not_a_fraction_exit_2(self, generated, tmp_path, command, threshold):
        root, _, cohort = generated
        doc = dict(COHORT_CONFIG, pipeline=dict(COHORT_CONFIG["pipeline"], missing_threshold=threshold))
        cfg = write_config(tmp_path, doc, name="mt.json")
        out = tmp_path / "o"
        args = ["--config", str(cfg), "--out", str(out)]
        if command == "train":
            args += ["--cohort", str(cohort)]
        assert main([command] + args) == EXIT_CONFIG
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "all"])
    @pytest.mark.parametrize("column", ["id", "los_days", "theatre_visits", "site_01_area",
                                        "site_27_depth"])
    def test_admin_fields_core_column_exit_2(self, generated, tmp_path, capsys, command, column):
        """Preprocessing drops extra columns only, so a core column named in
        `admin_fields` is refused by name rather than silently kept."""
        root, _, cohort = generated
        pipeline = dict(COHORT_CONFIG["pipeline"], admin_fields=["admission_year", column])
        cfg = write_config(tmp_path, dict(COHORT_CONFIG, pipeline=pipeline), name="admin.json")
        out = tmp_path / "o"
        args = ["--config", str(cfg), "--out", str(out)]
        if command == "train":
            args += ["--cohort", str(cohort)]
        capsys.readouterr()
        assert main([command] + args) == EXIT_CONFIG
        assert f"admin_fields names the core column {column!r}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "all"])
    @pytest.mark.parametrize("field", [
        {"oversample": "no"},
        {"oversample": 0},
        {"admin_fields": "admission_year"},
        {"admin_fields": [1, None]},
        {"admin_fields": {"admission_year": True}},
    ])
    def test_pipeline_field_types_exit_2(self, generated, tmp_path, command, field):
        """``oversample`` takes a JSON boolean and ``admin_fields`` a list of
        strings: a string would be read as a list of its characters."""
        root, _, cohort = generated
        doc = dict(COHORT_CONFIG, pipeline=dict(COHORT_CONFIG["pipeline"], **field))
        cfg = write_config(tmp_path, doc, name="types.json")
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


def flip_an_unused_feature(model: dict) -> None:
    """Give the first numeric feature that no node of ``model`` splits on
    the categorical kind, with no levels: the model still reads, but its
    schema is not that of the data."""
    used = {nd["feature"] for nd in preorder(model["root"]) if nd["type"] == "internal"}
    column = next(c for c in model["schema"] if c["kind"] == "numeric" and c["name"] not in used)
    column["kind"] = "categorical"
    model["levels"][column["name"]] = []


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

    def test_negative_multiplicity_exit_2(self, trained, tmp_path):
        import shutil

        root, _, cohort, result = trained
        assert main(["hrg", "--cohort", str(cohort), "--out", str(tmp_path / "hrg")]) == EXIT_OK
        broken = shutil.copytree(result, tmp_path / "result")
        rows = (broken / "split.csv").read_text().splitlines()
        j = next(j for j, row in enumerate(rows) if ",test," in row)
        rows[j] = rows[j].rsplit(",", 1)[0] + ",-1"
        (broken / "split.csv").write_text("\n".join(rows) + "\n")
        code = main(["evaluate", "--result", str(broken), "--hrg", str(tmp_path / "hrg" / "labels.csv"),
                     "--out", str(tmp_path / "e")])
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("k", [2**70, 10**6, "model + 1"])
    def test_config_k_not_the_models_exit_2(self, trained, tmp_path, capsys, k):
        """evaluate takes k from model.json; a config.json that says
        otherwise is refused rather than sizing a k x k loss matrix."""
        import shutil

        root, _, cohort, result = trained
        assert main(["hrg", "--cohort", str(cohort), "--out", str(tmp_path / "hrg")]) == EXIT_OK
        broken = shutil.copytree(result, tmp_path / "result")
        model_k = json.loads((broken / "model.json").read_text())["k"]
        config = json.loads((broken / "config.json").read_text())
        config["k"] = model_k + 1 if k == "model + 1" else k
        (broken / "config.json").write_text(json.dumps(config))
        capsys.readouterr()
        code = main(["evaluate", "--result", str(broken), "--hrg", str(tmp_path / "hrg" / "labels.csv"),
                     "--out", str(tmp_path / "e")])
        assert code == EXIT_CONFIG
        assert f"config.json has k {config['k']}, its model.json {model_k}" in capsys.readouterr().err
        assert not (tmp_path / "e").exists()

    def test_model_k_above_its_records_exit_2(self, trained, tmp_path, capsys):
        """`train` finds k distinct mean ranks among the preprocessed rows,
        so a model with a larger k, and a config.json to match, is refused
        before evaluate sizes a k x k loss matrix for it."""
        import shutil

        root, _, cohort, result = trained
        assert main(["hrg", "--cohort", str(cohort), "--out", str(tmp_path / "hrg")]) == EXIT_OK
        broken = shutil.copytree(result, tmp_path / "result")
        records = len((broken / "final_labels.csv").read_text().splitlines()) - 1
        model = json.loads((broken / "model.json").read_text())
        k, n = records + 1, model["summary"]["n"]
        model.update(k=k, summary={"n": n, "depth": 0, "leaf_count": 1}, root={
            "type": "leaf", "label": 1, "n": n, "counts": [n] + [0] * (k - 1), "expected_cost": 0.0,
        })
        (broken / "model.json").write_text(json.dumps(model))
        config = json.loads((broken / "config.json").read_text())
        (broken / "config.json").write_text(json.dumps(dict(config, k=k)))
        capsys.readouterr()
        code = main(["evaluate", "--result", str(broken), "--hrg", str(tmp_path / "hrg" / "labels.csv"),
                     "--out", str(tmp_path / "e")])
        assert code == EXIT_CONFIG
        assert f"model.json has k {k}, above its {records} records" in capsys.readouterr().err
        assert not (tmp_path / "e").exists()

    @pytest.mark.parametrize("edit", ["factor_labels_row_missing", "index_out_of_range",
                                      "index_repeated", "row_missing", "unknown_role"])
    def test_result_rows_disagree_exit_2(self, trained, tmp_path, edit):
        """factor_labels.csv must have a row per record, and split.csv must
        give every record index exactly one row, with role train or test."""
        import shutil

        root, _, cohort, result = trained
        assert main(["hrg", "--cohort", str(cohort), "--out", str(tmp_path / "hrg")]) == EXIT_OK
        broken = shutil.copytree(result, tmp_path / "result")
        name = "factor_labels.csv" if edit == "factor_labels_row_missing" else "split.csv"
        rows = (broken / name).read_text().splitlines()
        index, role, multiplicity = rows[-1].split(",")[:3]
        if edit == "index_out_of_range":
            rows[-1] = f"999999,{role},{multiplicity}"
        elif edit == "index_repeated":
            rows[-1] = f"0,{role},{multiplicity}"
        elif edit == "unknown_role":
            rows[-1] = f"{index},holdout,{multiplicity}"
        else:
            rows.pop()
        (broken / name).write_text("\n".join(rows) + "\n")
        code = main(["evaluate", "--result", str(broken), "--hrg", str(tmp_path / "hrg" / "labels.csv"),
                     "--out", str(tmp_path / "e")])
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("edit", ["max_depth", "deep_node", "unknown_feature",
                                      "kind_mismatch", "levels_list", "unknown_category",
                                      "summary_depth", "summary_leaf_count", "summary_n",
                                      "cp_nan", "cp_bool", "cp_string", "cp_infinite",
                                      "params_unknown_key"])
    def test_model_deeper_than_cap_exit_2(self, trained, tmp_path, edit):
        """A model.json deeper than the depth cap, at odds with its own
        schema, levels and summary, with a cp that is not a finite number, or
        with a params key that is not a tree parameter, is an input error."""
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
        elif edit == "params_unknown_key":
            model["params"]["cpp"] = 0.5
        elif edit.startswith("cp_"):
            model["params"]["cp"] = {"cp_nan": float("nan"), "cp_bool": True, "cp_string": "0.5",
                                     "cp_infinite": float("inf")}[edit]
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

    @pytest.mark.parametrize("field,value", [("label", -2**70), ("label", 1.5), ("n", 2.9)])
    def test_model_node_integers_exit_2(self, trained, tmp_path, capsys, field, value):
        """A leaf label beyond int64 once overflowed in predict (exit 1), and
        a label of 1.5 or a node n of 2.9 was truncated (exit 0)."""
        import shutil

        _, _, cohort, result = trained
        assert main(["hrg", "--cohort", str(cohort), "--out", str(tmp_path / "hrg")]) == EXIT_OK
        broken = shutil.copytree(result, tmp_path / "result")
        model = json.loads((broken / "model.json").read_text())
        leaf = model["root"]
        while leaf["type"] == "internal":
            leaf = leaf["left"]
        leaf[field] = value
        (broken / "model.json").write_text(json.dumps(model))
        capsys.readouterr()
        code = main(["evaluate", "--result", str(broken), "--hrg",
                     str(tmp_path / "hrg" / "labels.csv"), "--out", str(tmp_path / "e")])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert f"{field} " in err and "Traceback" not in err

    @pytest.mark.parametrize("value", ["nan", "5", True])
    def test_model_threshold_not_a_number_exit_2(self, trained, tmp_path, capsys, value):
        """A threshold of "nan" once sent every row right, and "5" or true
        was read as a number (exit 0)."""
        import shutil

        _, _, cohort, result = trained
        assert main(["hrg", "--cohort", str(cohort), "--out", str(tmp_path / "hrg")]) == EXIT_OK
        broken = shutil.copytree(result, tmp_path / "result")
        model = json.loads((broken / "model.json").read_text())
        assert model["root"]["kind"] == "numeric"
        model["root"]["threshold"] = value
        (broken / "model.json").write_text(json.dumps(model))
        capsys.readouterr()
        code = main(["evaluate", "--result", str(broken), "--hrg",
                     str(tmp_path / "hrg" / "labels.csv"), "--out", str(tmp_path / "e")])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert "root: threshold must be a finite number" in err and "Traceback" not in err

    @pytest.mark.parametrize("name,key,edit", [
        ("model.json", "root", lambda doc: doc["root"].update(threshold="5")),
        ("config.json", "final_tree_params", lambda doc: doc["final_tree_params"].update(cpp=0.5)),
        ("model.json", "feature 'nope' missing from prediction data",
         lambda doc: doc["schema"].append({"name": "nope", "kind": "numeric"})),
        ("model.json", "kind mismatch", flip_an_unused_feature),
        ("model.json", "k must be an integer, >= 2, got -1", lambda doc: doc.update(k=-1)),
    ], ids=["model_threshold", "config_tree_params_key", "model_feature_not_in_data",
            "model_feature_kind_not_the_datas", "model_k_below_2"])
    def test_document_content_fault_names_file(self, trained, tmp_path, capsys, name, key, edit):
        """A content error inside model.json or config.json names the file,
        as a parse error in either does, with the part of it at fault. So
        does a model schema that is not the data's, found once the model is
        read."""
        import shutil

        _, _, cohort, result = trained
        assert main(["hrg", "--cohort", str(cohort), "--out", str(tmp_path / "hrg")]) == EXIT_OK
        broken = shutil.copytree(result, tmp_path / "result")
        doc = json.loads((broken / name).read_text())
        edit(doc)
        (broken / name).write_text(json.dumps(doc))
        capsys.readouterr()
        code = main(["evaluate", "--result", str(broken), "--hrg",
                     str(tmp_path / "hrg" / "labels.csv"), "--out", str(tmp_path / "e")])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert f"result {broken / name}: " in err and key in err and "Traceback" not in err
        assert not (tmp_path / "e").exists()

    @pytest.mark.parametrize("column,rows", [("los_days", slice(None)), ("site_01_depth", slice(1))],
                             ids=["every_los_days_cell", "one_depth_cell"])
    def test_blank_preprocessed_cell_exit_2_naming_file(self, trained, tmp_path, capsys,
                                                        column, rows):
        """`train` writes preprocessed.csv imputed, so a blank cell in it is
        refused, naming the file and the column. With every LOS cell blank,
        evaluate once exited 0 and wrote NaN tokens into comparison.json."""
        import shutil

        _, _, cohort, result = trained
        assert main(["hrg", "--cohort", str(cohort), "--out", str(tmp_path / "hrg")]) == EXIT_OK
        broken = shutil.copytree(result, tmp_path / "result")
        with open(broken / "preprocessed.csv", newline="") as fh:
            header, *body = csv.reader(fh)
        for row in body[rows]:
            row[header.index(column)] = ""
        with open(broken / "preprocessed.csv", "w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows([header, *body])
        capsys.readouterr()
        code = main(["evaluate", "--result", str(broken), "--hrg",
                     str(tmp_path / "hrg" / "labels.csv"), "--out", str(tmp_path / "e")])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert f"result {broken / 'preprocessed.csv'}: blank {column!r} cell" in err
        assert not (tmp_path / "e").exists()

    @pytest.mark.parametrize("name,content", [
        pytest.param("labels.csv", b"id,rank\nP000000,\xff1\n", id="labels_not_utf8"),
        pytest.param("labels.csv", b'id,rank\n"' + b"P" * 200_000 + b'",1\n', id="labels_oversized_cell"),
        pytest.param("final_labels.csv", b'index,id,final_rank\n0,"' + b"P" * 200_000 + b'",1\n',
                     id="result_oversized_cell"),
        pytest.param("final_labels.csv", b"index,id\n0,P000000\n", id="result_missing_column"),
        pytest.param("final_labels.csv", b"index,id,final_rank\n0,P000000," + b"9" * 20 + b"\n",
                     id="result_rank_overflow"),
    ])
    def test_unreadable_input_exit_2_naming_file(self, trained, tmp_path, capsys, name, content):
        import shutil

        root, _, cohort, result = trained
        labels = tmp_path / "labels.csv"
        assert main(["hrg", "--cohort", str(cohort), "--out", str(tmp_path / "hrg")]) == EXIT_OK
        shutil.copy(tmp_path / "hrg" / "labels.csv", labels)
        result = shutil.copytree(result, tmp_path / "result")
        bad, named = (labels, labels) if name == "labels.csv" else (result / name, result)
        bad.write_bytes(content)
        capsys.readouterr()
        code = main(["evaluate", "--result", str(result), "--hrg", str(labels),
                     "--out", str(tmp_path / "e")])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert str(named) in err
        assert "Traceback" not in err

    def test_unparsable_preprocessed_csv_names_file(self, trained, tmp_path, capsys):
        """An open quote in the result's cohort file once gave a message
        that named the row but not the file; `hrg` and `train` name theirs."""
        import shutil

        _, _, _, result = trained
        result = shutil.copytree(result, tmp_path / "result")
        lines = (result / "preprocessed.csv").read_text(encoding="utf-8").splitlines()
        lines[3] = '"' + lines[3]
        (result / "preprocessed.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        labels = tmp_path / "labels.csv"
        labels.write_text("id,rank\n", encoding="utf-8")
        capsys.readouterr()
        code = main(["evaluate", "--result", str(result), "--hrg", str(labels),
                     "--out", str(tmp_path / "e")])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert f"cannot parse cohort {result / 'preprocessed.csv'}: " in err
        assert "Traceback" not in err and not (tmp_path / "e").exists()

    @pytest.mark.parametrize("fault", ["long_rank", "long_repeated_id"])
    def test_long_hrg_label_cell_quoted_short(self, trained, tmp_path, capsys, fault):
        """A 50,001-character HRG rank cell once made the whole cell the
        message; a cell is quoted to its first 40 characters, as the cohort
        reader quotes one."""
        _, _, _, result = trained
        with open(result / "final_labels.csv", newline="") as fh:
            ids = [row["id"] for row in csv.DictReader(fh)]
        rows = [f"{i},1" for i in ids]
        long = "9" * 50_001
        if fault == "long_rank":
            rows[0] = f"{ids[0]},{long}"
        else:
            rows += [f"{long},1", f"{long},2"]
        labels = tmp_path / "labels.csv"
        labels.write_text("id,rank\n" + "\n".join(rows) + "\n", encoding="utf-8")
        capsys.readouterr()
        code = main(["evaluate", "--result", str(result), "--hrg", str(labels),
                     "--out", str(tmp_path / "e")])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert f"{'9' * 40!r}... (50001 characters)" in err
        assert len(err) < 200 + len(str(labels)) and "Traceback" not in err

    @pytest.mark.parametrize("fault", ["non_integer_rank", "short_row", "repeated_id",
                                       "zero_rank", "negative_rank", "huge_rank"])
    def test_bad_hrg_labels_exit_2(self, trained, tmp_path, capsys, fault):
        _, _, _, result = trained
        with open(result / "final_labels.csv", newline="") as fh:
            ids = [row["id"] for row in csv.DictReader(fh)]
        rows = [f"{i},{'whoops' if fault == 'non_integer_rank' else 1}" for i in ids]
        if fault == "short_row":
            rows[0] = ids[0]  # no rank cell
        elif fault == "repeated_id":
            rows.append(f"{ids[0]},2")  # a second, different rank for the first id
        elif fault in ("zero_rank", "negative_rank", "huge_rank"):
            bad = {"zero_rank": 0, "negative_rank": -5, "huge_rank": "9" * 25}[fault]
            rows[1] = f"{ids[1]},{bad}"
        labels = tmp_path / "labels.csv"
        labels.write_text("id,rank\n" + "\n".join(rows) + "\n", encoding="utf-8")
        capsys.readouterr()
        code = main(["evaluate", "--result", str(result), "--hrg", str(labels),
                     "--out", str(tmp_path / "e")])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert {"non_integer_rank": "has a non-integer HRG rank 'whoops'",
                "short_row": "labels.csv line 2 has no 'rank' cell",
                "repeated_id": f"list id {ids[0]!r} more than once",
                "zero_rank": f"record {ids[1]} has HRG rank 0, below 1",
                "negative_rank": f"record {ids[1]} has HRG rank -5, below 1",
                "huge_rank": f"record {ids[1]} has HRG rank {'9' * 25}, beyond int64"}[fault] in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("name,column,value", [
        ("final_labels.csv", "final_rank", "x"),
        ("factor_labels.csv", "total_cost_rank", "2.5"),
        ("split.csv", "multiplicity", "banana"),
    ])
    def test_bad_result_cell_names_file_line_and_column(self, trained, tmp_path, capsys,
                                                        name, column, value):
        import shutil

        _, _, cohort, result = trained
        assert main(["hrg", "--cohort", str(cohort), "--out", str(tmp_path / "hrg")]) == EXIT_OK
        result = shutil.copytree(result, tmp_path / "result")
        with open(result / name, newline="") as fh:
            rows = list(csv.reader(fh))
        rows[3][rows[0].index(column)] = value
        with open(result / name, "w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)
        capsys.readouterr()
        code = main(["evaluate", "--result", str(result), "--hrg", str(tmp_path / "hrg" / "labels.csv"),
                     "--out", str(tmp_path / "e")])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert f"{name} line 4, column {column!r}: invalid literal for int()" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("name,column,value", [
        ("final_labels.csv", "final_rank", "0"),
        ("final_labels.csv", "final_rank", "k + 1"),
        ("final_labels.csv", "final_rank", "-5"),
        ("factor_labels.csv", "los_days_rank", "0"),
        ("factor_labels.csv", "total_cost_rank", "-1"),
        ("factor_labels.csv", "tbsa_pct_rank", "k + 1"),
        ("split.csv", "multiplicity", "0"),
        ("split.csv", "multiplicity", "-1"),
        ("split.csv", "multiplicity", str(10**12)),
    ])
    def test_rank_or_multiplicity_out_of_range_exit_2(self, trained, tmp_path, capsys,
                                                      name, column, value):
        """A rank outside [1, k] on a train row once exited 0, written into
        variances_train.csv or drawn off the rank-spread axis. A test row's
        multiplicity of 0 exited 0, one of -1 failed inside numpy, and one
        of 10**12 exited 1, unable to allocate the oversampled test set."""
        import shutil

        _, _, cohort, result = trained
        assert main(["hrg", "--cohort", str(cohort), "--out", str(tmp_path / "hrg")]) == EXIT_OK
        result = shutil.copytree(result, tmp_path / "result")
        k = json.loads((result / "model.json").read_text())["k"]
        with open(result / "split.csv", newline="") as fh:
            roles = [row["role"] for row in csv.DictReader(fh)]
        line = roles.index("test" if name == "split.csv" else "train") + 2
        with open(result / name, newline="") as fh:
            rows = list(csv.reader(fh))
        value = str(k + 1) if value == "k + 1" else value
        rows[line - 1][rows[0].index(column)] = value
        with open(result / name, "w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)
        capsys.readouterr()
        code = main(["evaluate", "--result", str(result), "--hrg", str(tmp_path / "hrg" / "labels.csv"),
                     "--out", str(tmp_path / "e")])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        bound = "" if name == "split.csv" else f", <= {k}"
        assert f"{name} line {line}, column {column!r}: " in err
        assert f"must be an integer, >= 1{bound}" in err and f"got {value}" in err
        assert "Traceback" not in err and not (tmp_path / "e").exists()

    def test_test_multiset_beyond_oversampling_exit_2(self, trained, tmp_path, capsys):
        """`train` oversamples each class of test rows up to the largest, so
        the test multiplicities sum to at most k times the test rows; a
        split.csv above that is refused before the multiset is built."""
        import shutil

        _, _, cohort, result = trained
        assert main(["hrg", "--cohort", str(cohort), "--out", str(tmp_path / "hrg")]) == EXIT_OK
        result = shutil.copytree(result, tmp_path / "result")
        rows = (result / "split.csv").read_text().splitlines()
        rows[1:] = [row.rsplit(",", 1)[0] + f",{len(rows) - 1}" if ",test," in row else row
                    for row in rows[1:]]
        (result / "split.csv").write_text("\n".join(rows) + "\n")
        capsys.readouterr()
        code = main(["evaluate", "--result", str(result), "--hrg", str(tmp_path / "hrg" / "labels.csv"),
                     "--out", str(tmp_path / "e")])
        assert code == EXIT_CONFIG
        assert "split.csv test multiplicities sum to" in capsys.readouterr().err
        assert not (tmp_path / "e").exists()


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

    def test_all_parses_no_csv(self, tmp_path, monkeypatch):
        import casemix.cli as cli

        parsed = []
        for name in ("read_cohort_csv", "_csv_columns", "_read_hrg_labels"):
            def recording_read(path, *args, read=getattr(cli, name)):
                parsed.append(Path(path).name)
                return read(path, *args)

            monkeypatch.setattr(cli, name, recording_read)
        cfg = write_config(tmp_path)
        out = tmp_path / "run"
        assert main(["all", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        # each stage takes the outputs of the one before it in memory
        assert parsed == []
        for stage in ("hrg", "result"):  # each stage still hashes the cohort file
            manifest = json.loads((out / stage / "manifest.json").read_text())
            assert str(out / "cohort.csv") in manifest["inputs"]

    def test_every_manifest_records_peak_rss(self, tmp_path):
        """Each stage's manifest records the run's peak RSS so far, forked
        workers included, and the run's own manifest the whole run's."""
        out = tmp_path / "run"
        assert main(["all", "--config", str(write_config(tmp_path)), "--out", str(out)]) == EXIT_OK
        stages = [json.loads((out / name).read_text())["peak_rss_mb"] for name in (
            "cohort.csv.manifest.json", "hrg/manifest.json", "result/manifest.json",
            "eval/manifest.json")]
        run = json.loads((out / "manifest.json").read_text())["peak_rss_mb"]
        assert 0 < stages[0] and stages == sorted(stages) and stages[-1] <= run

    @pytest.mark.parametrize("name", ["cli", "missingness"])
    def test_eval_matches_evaluate_of_written_files(self, tmp_path, name):
        """`all` evaluates what it holds in memory; `evaluate` parses the
        files `all` wrote. Both must write the same bytes."""
        cfg = write_config(tmp_path, {"cli": COHORT_CONFIG, "missingness": MISSINGNESS_CONFIG}[name])
        out, ev = tmp_path / "run", tmp_path / "ev"
        assert main(["all", "--config", str(cfg), "--out", str(out), "--svg"]) == EXIT_OK
        assert main(["evaluate", "--result", str(out / "result"),
                     "--hrg", str(out / "hrg" / "labels.csv"), "--out", str(ev), "--svg"]) == EXIT_OK
        assert file_hashes(out / "eval") == file_hashes(ev)
        assert len(file_hashes(ev)) == 20
        manifests = [json.loads((d / "manifest.json").read_text()) for d in (out / "eval", ev)]
        assert manifests[0].keys() == manifests[1].keys()
        assert manifests[0]["inputs"] == manifests[1]["inputs"]
        assert len(manifests[0]["inputs"]) == 7

    def test_stage_commands_write_what_all_writes(self, tmp_path):
        """`generate`, `hrg`, `train` and `evaluate --svg` run one after
        another write the bytes `all --svg` writes. In both runs each stage
        manifest lists every file of its own directory with its sha256, and
        nothing else; nested directories and manifests are not its own."""
        cfg = write_config(tmp_path)
        run, stages = tmp_path / "run", tmp_path / "stages"
        assert main(["all", "--config", str(cfg), "--out", str(run), "--svg"]) == EXIT_OK
        cohort = stages / "cohort.csv"
        for args in (
            ["generate", "--config", str(cfg), "--out", str(cohort)],
            ["hrg", "--cohort", str(cohort), "--out", str(stages / "hrg")],
            ["train", "--cohort", str(cohort), "--config", str(cfg), "--out", str(stages / "result")],
            ["evaluate", "--result", str(stages / "result"), "--hrg", str(stages / "hrg" / "labels.csv"),
             "--out", str(stages / "eval"), "--svg"],
        ):
            assert main(args) == EXIT_OK, args[0]
        hashes = file_hashes(run)
        assert file_hashes(stages) == hashes and len(hashes) == 32
        for root in (run, stages):
            for manifest, directory in (("cohort.csv.manifest.json", root),
                                        *((f"{d}/manifest.json", root / d)
                                          for d in ("hrg", "result", "eval"))):
                outputs = json.loads((root / manifest).read_text())["outputs"]
                files = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                         for p in directory.iterdir()
                         if p.is_file() and not p.name.endswith("manifest.json")}
                assert outputs == files, manifest
        outputs = json.loads((run / "manifest.json").read_text())["outputs"]
        assert len(outputs) == 4 and outputs == {name: hashes[name] for name in outputs}

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


class TestAllWriter:
    """`all` writes the cohort, its manifest and the HRG stage in a forked
    writer while it trains. Whatever the outcome, it leaves no child process
    and no .tmp file, and prints as each stage ran in turn."""

    def run(self, tmp_path, capsys, out):
        capsys.readouterr()
        code = main(["all", "--config", str(write_config(tmp_path)), "--out", str(out)])
        captured = capsys.readouterr()
        assert_no_children()
        assert not list(tmp_path.rglob("*.tmp"))
        return code, captured.out.splitlines(), captured.err

    def written(self, out: Path) -> list[str]:
        return sorted(str(p.relative_to(out)) for p in out.rglob("*"))

    def fail_clustering(self, monkeypatch):
        from casemix import pipeline

        def failing(*args):
            raise InvalidArgument("injected clustering failure")

        monkeypatch.setattr(pipeline, "engineer_factor_targets", failing)

    def test_success_prints_each_stage_in_order(self, tmp_path, capsys):
        out = tmp_path / "run"
        code, lines, err = self.run(tmp_path, capsys, out)
        assert (code, err) == (EXIT_OK, "")
        assert lines[:2] == [f"wrote 250 records to {out / 'cohort.csv'}",
                             f"classified 250 records into {out / 'hrg'}"]
        assert lines[2].startswith("trained on ") and lines[2].endswith(f" into {out / 'result'}")
        assert lines[3].startswith(f"evaluation written to {out / 'eval'}; ")
        assert len(lines) == 4

    def test_stage_failure_waits_for_the_writer(self, tmp_path, capsys, monkeypatch):
        self.fail_clustering(monkeypatch)
        out = tmp_path / "run"
        code, lines, err = self.run(tmp_path, capsys, out)
        assert code == EXIT_STAGE
        assert err == "casemix: error: stage 'clustering': injected clustering failure\n"
        assert lines == [f"wrote 250 records to {out / 'cohort.csv'}",
                         f"classified 250 records into {out / 'hrg'}"]
        assert self.written(out) == ["cohort.csv", "cohort.csv.manifest.json", "hrg",
                                     "hrg/histogram.json", "hrg/labels.csv", "hrg/manifest.json"]

    @pytest.mark.parametrize("stage_fails", [False, True])
    def test_failed_cohort_write_exit_3(self, tmp_path, capsys, monkeypatch, stage_fails):
        """The writer's error is reported, also when training fails as well."""
        if stage_fails:
            self.fail_clustering(monkeypatch)
        out = tmp_path / "run"
        (out / "cohort.csv" / "taken").mkdir(parents=True)
        code, lines, err = self.run(tmp_path, capsys, out)
        assert code == EXIT_IO
        cohort = out / "cohort.csv"
        assert err == (f"casemix: error: I/O failure: [Errno 21] Is a directory: "
                       f"'{cohort}.tmp' -> '{cohort}'\n")
        assert lines == []
        assert self.written(out) == ["cohort.csv", "cohort.csv/taken"]

    def test_failed_hrg_write_reported_after_the_cohort_line(self, tmp_path, capsys,
                                                             monkeypatch):
        """The writer's HRG stage fails after the cohort is written: its
        error wins over training's, after the cohort's line."""
        self.fail_clustering(monkeypatch)
        out = tmp_path / "run"
        out.mkdir()
        (out / "hrg").write_text("a file, not a directory", encoding="utf-8")
        code, lines, err = self.run(tmp_path, capsys, out)
        assert code == EXIT_IO
        assert err == f"casemix: error: I/O failure: [Errno 17] File exists: '{out / 'hrg'}'\n"
        assert lines == [f"wrote 250 records to {out / 'cohort.csv'}"]
        assert self.written(out) == ["cohort.csv", "cohort.csv.manifest.json", "hrg"]

    def test_lost_writer_is_a_failed_stage(self, tmp_path, capsys, monkeypatch):
        """A writer that dies in the middle of cohort.csv, as under the OOM
        killer, exits 4 with its exit status; its partial file is removed."""
        import os

        import casemix.cli as cli
        from casemix import parallel

        parent, write = os.getpid(), cli.cohort_csv_text

        def dies_mid_write(ds, fh):
            write(ds, fh)
            if os.getpid() != parent:
                os._exit(9)

        monkeypatch.setattr(parallel, "cpu_count", lambda: 2)
        monkeypatch.setattr(cli, "cohort_csv_text", dies_mid_write)
        out = tmp_path / "run"
        code, lines, err = self.run(tmp_path, capsys, out)
        assert code == EXIT_STAGE
        assert "exited with status 9 without a result" in err
        assert "Traceback" not in err
        assert lines == []
        assert not (out / "cohort.csv").exists()

    def test_interrupt_kills_the_writer(self, tmp_path, monkeypatch):
        """An interrupt while training stops the writer mid-write and
        removes its partial file."""
        import os
        import time

        import casemix.cli as cli
        from casemix import parallel, pipeline

        out, parent, write = tmp_path / "run", os.getpid(), cli.cohort_csv_text
        tmp, seen = out / "cohort.csv.tmp", []

        def slow_write(ds, fh):
            write(ds, fh)
            if os.getpid() != parent:
                time.sleep(60)

        def interrupted(*args):
            deadline = time.monotonic() + 30
            while parallel.worker_count(2) > 1 and not tmp.exists() and time.monotonic() < deadline:
                time.sleep(0.01)
            seen.append(tmp.exists())
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "cohort_csv_text", slow_write)
        monkeypatch.setattr(pipeline, "engineer_factor_targets", interrupted)
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            main(["all", "--config", str(write_config(tmp_path)), "--out", str(out)])
        assert time.monotonic() - start < 30
        assert seen == [parallel.worker_count(2) > 1]  # a partial file, when forked
        assert_no_children()
        assert not list(tmp_path.rglob("*.tmp"))


@pytest.mark.parametrize("command", ["hrg", "evaluate"])
def test_ephemeral_only_where_seeds_are_drawn(trained, tmp_path, command):
    """hrg and evaluate draw no seed, so they take no --ephemeral."""
    _, _, cohort, result = trained
    args = {
        "hrg": ["hrg", "--cohort", str(cohort)],
        "evaluate": ["evaluate", "--result", str(result), "--hrg", str(tmp_path / "labels.csv")],
    }[command]
    with pytest.raises(SystemExit) as exc:
        main(args + ["--out", str(tmp_path / "o"), "--ephemeral"])
    assert exc.value.code == EXIT_CONFIG


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
        dict(COHORT_CONFIG["pipeline"], oversample="no"),
        dict(COHORT_CONFIG["pipeline"], admin_fields="admission_year"),
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

    @pytest.mark.parametrize("ruleset", ["missing", "malformed", "unknown_feature", "mistyped",
                                         "not_a_path", "bool_value", "nan_value",
                                         "list_feature", "huge_k"])
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
        elif ruleset == "list_feature":
            path.write_text(json.dumps({"version": "x", "k": 1, "rules": [
                {"if": [{"feature": ["tbsa_pct"], "op": ">", "value": 1}], "then": 1},
                {"if": [], "then": 1}]}))
        elif ruleset == "huge_k":
            path.write_text(json.dumps({"version": "x", "k": 10**9, "rules": [
                {"if": [], "then": 1}]}))
        elif ruleset in ("bool_value", "nan_value"):
            path.write_text(json.dumps({"version": "x", "k": 1, "rules": [
                {"if": [{"feature": "tbsa_pct", "op": ">=",
                         "value": True if ruleset == "bool_value" else float("nan")}], "then": 1},
                {"if": [], "then": 1}]}))
        cfg = write_config(tmp_path, dict(COHORT_CONFIG,
                                          ruleset=5 if ruleset == "not_a_path" else str(path)))
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
        "column,value",
        [("los_days", "nan"), ("los_days", "-3"), ("tbsa_pct", "250"), ("id", "P000000"),
         ("ventilation_days", "x")],
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

    @pytest.mark.parametrize("command", ["hrg", "train", "evaluate"])
    @pytest.mark.parametrize("column,cell", [("sex", "F"), ("tbsa_pct", "5.0")])
    def test_repeated_column_exit_2_naming_it(self, trained, tmp_path, capsys, command, column,
                                              cell):
        """An extra column named like an extra or a core column."""
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
        lines = [lines[0] + "," + column] + [line + "," + cell for line in lines[1:]]
        bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
        capsys.readouterr()
        assert main(args + ["--out", str(tmp_path / "o")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"header names column {column!r} twice" in err
        assert "Traceback" not in err

    def test_invalid_utf8_after_repeated_column_exit_2(self, generated, tmp_path, capsys):
        """The whole file is decoded before the header is reported."""
        root, _, cohort = generated
        data = cohort.read_bytes().split(b"\n")
        data = [data[0] + b",sex"] + [line + b",F" for line in data[1:-1]] + [b""]
        data[-2] += b"\xff"
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"\n".join(data))
        capsys.readouterr()
        assert main(["hrg", "--cohort", str(bad), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "'utf-8' codec can't decode byte 0xff" in err and "twice" not in err

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
    @pytest.mark.parametrize("command,fault,expected", [
        *((command, "config_not_utf8", EXIT_CONFIG) for command in ("generate", "train", "all")),
        *((command, "read_denied", EXIT_IO) for command in ("hrg", "train", "evaluate", "all")),
        *((command, "write_blocked", EXIT_IO)
          for command in ("generate", "hrg", "train", "evaluate", "all")),
    ])
    def test_exit_code_table(self, trained, tmp_path, capsys, monkeypatch, command, fault, expected):
        """Bad content exits 2; an OS-level failure to read or write a file
        exits 3. Root ignores file modes, so a denied read is simulated."""
        import casemix.cli as cli

        root, config, cohort, result = trained
        labels, out = tmp_path / "hrg" / "labels.csv", tmp_path / "o"
        assert main(["hrg", "--cohort", str(cohort), "--out", str(labels.parent)]) == EXIT_OK
        if fault == "config_not_utf8":
            config = tmp_path / "bad.json"
            config.write_bytes(b'{"cohort": {"n": 10, "seed": 1}, "note": "\xff"}')
        elif fault == "read_denied":
            def deny(path):
                raise PermissionError(13, "Permission denied", str(path))

            # `all` neither parses nor hashes a file it wrote, but reads its config to hash it
            monkeypatch.setattr(cli, "_sha256_file" if command == "all" else "read_cohort_csv", deny)
        else:
            blocker = tmp_path / "blocker"
            blocker.write_text("a file, not a directory", encoding="utf-8")
            out = blocker / "sub"
        args = {
            "generate": ["--config", config, "--out", out / "cohort.csv"],
            "hrg": ["--cohort", cohort, "--out", out],
            "train": ["--cohort", cohort, "--config", config, "--out", out],
            "evaluate": ["--result", result, "--hrg", labels, "--out", out],
            "all": ["--config", config, "--out", out],
        }[command]
        capsys.readouterr()
        assert main([command, *map(str, args)]) == expected
        err = capsys.readouterr().err
        assert err.startswith("casemix: error: ") and "Traceback" not in err

    @pytest.mark.parametrize("fault", ["not_json", "nested", "not_an_object", "not_utf8",
                                       "missing"])
    @pytest.mark.parametrize("document", ["config", "ruleset", "result_config", "result_model"])
    def test_json_input_fault_exit_2(self, trained, tmp_path, capsys, document, fault):
        """Every JSON input, the config (`generate`), the ruleset (`hrg`) and
        a result's config.json and model.json (`evaluate`), is read by one
        reader. Bad JSON, nesting past Python's recursion limit, a document
        that is not an object, bytes that are not UTF-8 and a missing file
        each exit 2 naming the document, and nothing is written."""
        import shutil

        _, _, cohort, result = trained
        out, labels = tmp_path / "out", tmp_path / "hrg" / "labels.csv"
        if document.startswith("result_"):
            assert main(["hrg", "--cohort", str(cohort), "--out", str(labels.parent)]) == EXIT_OK
            result = shutil.copytree(result, tmp_path / "result")
        path = {"config": tmp_path / "config.json", "ruleset": tmp_path / "rules.json",
                "result_config": result / "config.json", "result_model": result / "model.json"}[document]
        args = {"config": ["generate", "--config", path, "--out", out],
                "ruleset": ["hrg", "--cohort", cohort, "--ruleset", path, "--out", out]}.get(
            document, ["evaluate", "--result", result, "--hrg", labels, "--out", out])
        content = {"not_json": b'{"k": ', "nested": b"[" * 200_000 + b"]" * 200_000,
                   "not_an_object": b"[1, 2]", "not_utf8": b'{"note": "\xff"}'}.get(fault)
        if content is None:
            path.unlink(missing_ok=True)
        else:
            path.write_bytes(content)
        capsys.readouterr()
        assert main([str(a) for a in args]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("casemix: error: ") and path.name in err and "Traceback" not in err
        assert not out.exists() and not list(tmp_path.rglob("*.tmp"))

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
