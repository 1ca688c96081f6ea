"""Command-line tests: the full command set end to end on a tiny corpus,
config merging and overrides, error categories, and artifact layout."""

import json
import os

import numpy as np
import pytest

from switchtext.cli import EXIT_CODES, build_parser, main, resolve_train_config


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Shared directory: synthetic dataset + one tiny training run."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "notes.jsonl"
    assert main(["gen-data", "--n", "150", "--positive-fraction", "0.4",
                 "--noise", "0.0", "--seed", "3", "--out", str(data)]) == 0
    run_dir = root / "run"
    code = main([
        "train", "--data-path", str(data), "--output-dir", str(run_dir),
        "--variant", "switch", "--num-layers", "1", "--num-heads", "2",
        "--num-experts", "2", "--d-model", "16", "--d-ff", "32",
        "--max-len", "32", "--dropout", "0.0", "--epochs", "6",
        "--grad-accumulation", "1", "--peak-lr", "2e-3", "--min-frequency", "1",
        "--no-early-stopping", "--seed", "4",
    ])
    assert code == 0
    return {"root": root, "data": data, "run": run_dir,
            "ckpt": run_dir / "best.ckpt"}


class TestGenData:
    def test_writes_dataset_and_manifest(self, workdir):
        lines = workdir["data"].read_text().strip().split("\n")
        assert len(lines) == 150
        record = json.loads(lines[0])
        assert set(record) == {"id", "text", "label"}
        manifest = json.loads((workdir["data"].parent / "notes.jsonl.manifest.json").read_text())
        assert manifest["command"] == "gen-data"
        assert manifest["n"] == 150

    def test_deterministic_per_seed(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        main(["gen-data", "--n", "30", "--seed", "5", "--out", str(a)])
        main(["gen-data", "--n", "30", "--seed", "5", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestTrain:
    def test_artifacts_exist(self, workdir):
        for name in ("best.ckpt", "train_log.tsv", "gap.tsv", "routing.tsv",
                     "timings.tsv", "manifest.json", "report_val.tsv", "report_val.json"):
            assert (workdir["run"] / name).exists(), name

    def test_invalid_config_exit_code_and_category(self, workdir, capsys):
        code = main(["train", "--data-path", str(workdir["data"]),
                     "--output-dir", str(workdir["root"] / "bad"),
                     "--d-model", "7", "--num-heads", "2"])
        assert code == EXIT_CODES["config"]
        err = capsys.readouterr().err
        assert "error: category=config" in err
        assert "d_model" in err

    def test_missing_data_path(self, capsys):
        code = main(["train", "--epochs", "1"])
        assert code == EXIT_CODES["config"]
        assert "data_path" in capsys.readouterr().err

    def test_config_file_with_flag_override(self, workdir, tmp_path):
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(json.dumps({
            "data_path": str(workdir["data"]), "epochs": 3, "d_model": 16,
            "d_ff": 32, "num_layers": 1, "num_heads": 2, "variant": "dense",
            "dropout": 0.0, "min_frequency": 1, "max_len": 32,
            "output_dir": str(tmp_path / "out"),
        }))
        parser = build_parser()
        args = parser.parse_args(["train", "--config", str(cfg_file), "--epochs", "2"])
        config = resolve_train_config(args, "train")
        assert config.epochs == 2  # flag wins
        assert config.variant == "dense"  # file value kept

    def test_unknown_config_key_rejected(self, workdir, tmp_path, capsys):
        cfg_file = tmp_path / "bad.json"
        cfg_file.write_text(json.dumps({"data_path": str(workdir["data"]), "bogus": 1}))
        code = main(["train", "--config", str(cfg_file)])
        assert code == EXIT_CODES["config"]
        assert "bogus" in capsys.readouterr().err

    @pytest.mark.parametrize("text,message", [
        ('{"epochs": 3,', "not valid JSON"),
        ("[1, 2]", "must hold a JSON object"),
        ('{"epochs": "ten"}', "'epochs' must be of type int"),
    ])
    def test_bad_config_file_is_config_error(self, workdir, tmp_path, capsys, text, message):
        cfg_file = tmp_path / "bad.json"
        cfg_file.write_text(text)
        code = main(["train", "--config", str(cfg_file), "--data-path", str(workdir["data"]),
                     "--output-dir", str(tmp_path / "out")])
        assert code == EXIT_CODES["config"]
        err = capsys.readouterr().err
        assert "error: category=config" in err and message in err

    @pytest.mark.parametrize("name", ["missing.json", "."])
    def test_unreadable_config_file_is_config_error(self, tmp_path, capsys, name):
        code = main(["train", "--config", str(tmp_path / name)])
        assert code == EXIT_CODES["config"]
        assert "cannot read config file" in capsys.readouterr().err

    def test_int_accepted_for_float_key(self, workdir, tmp_path):
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(json.dumps({"data_path": str(workdir["data"]), "dropout": 0}))
        args = build_parser().parse_args(["train", "--config", str(cfg_file)])
        config = resolve_train_config(args, "train")
        assert config.dropout == 0.0 and type(config.dropout) is float

    def test_train_long_defaults(self, workdir, tmp_path):
        parser = build_parser()
        args = parser.parse_args(["train-long", "--data-path", str(workdir["data"]),
                                  "--output-dir", str(tmp_path / "o")])
        config = resolve_train_config(args, "train-long")
        assert config.epochs == 500
        assert config.early_stopping is False
        args = parser.parse_args(["train-long", "--data-path", str(workdir["data"]),
                                  "--epochs", "12", "--output-dir", str(tmp_path / "o")])
        assert resolve_train_config(args, "train-long").epochs == 12
        cfg_file = tmp_path / "long.json"
        cfg_file.write_text(json.dumps({"epochs": 7, "early_stopping": True}))
        args = parser.parse_args(["train-long", "--config", str(cfg_file), "--data-path",
                                  str(workdir["data"]), "--output-dir", str(tmp_path / "o")])
        config = resolve_train_config(args, "train-long")
        assert config.epochs == 7 and config.early_stopping is False

    def test_epochs_zero_immediate_exit(self, workdir, tmp_path, capsys):
        out = tmp_path / "zero"
        code = main(["train", "--data-path", str(workdir["data"]),
                     "--output-dir", str(out), "--epochs", "0",
                     "--d-model", "16", "--d-ff", "32", "--num-layers", "1",
                     "--num-heads", "2", "--min-frequency", "1"])
        assert code == 0
        assert "warning" in capsys.readouterr().out
        assert (out / "best.ckpt").exists()


class TestEval:
    def test_eval_writes_report(self, workdir, tmp_path, capsys):
        out = tmp_path / "eval"
        code = main(["eval", "--checkpoint", str(workdir["ckpt"]),
                     "--data", str(workdir["data"]), "--split", "test",
                     "--output-dir", str(out)])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "accuracy" in stdout
        report = json.loads((out / "report_test.json").read_text())
        assert set(report) >= {"accuracy", "precision", "recall", "f1", "auc", "confusion"}
        assert (out / "timings_eval.tsv").exists()

    def test_eval_deterministic(self, workdir, tmp_path):
        outs = []
        for name in ("e1", "e2"):
            out = tmp_path / name
            main(["eval", "--checkpoint", str(workdir["ckpt"]),
                  "--data", str(workdir["data"]), "--split", "val",
                  "--output-dir", str(out)])
            outs.append((out / "report_val.json").read_bytes())
        assert outs[0] == outs[1]

    def test_bad_checkpoint_compatibility_error(self, workdir, tmp_path, capsys):
        junk = tmp_path / "junk.ckpt"
        junk.write_bytes(b"garbage!" * 16)
        code = main(["eval", "--checkpoint", str(junk), "--data", str(workdir["data"]),
                     "--output-dir", str(tmp_path / "x")])
        assert code == EXIT_CODES["compatibility"]
        assert "category=compatibility" in capsys.readouterr().err


    def test_truncated_checkpoint_compatibility_error(self, workdir, tmp_path, capsys):
        cut = tmp_path / "cut.ckpt"
        cut.write_bytes(workdir["ckpt"].read_bytes()[:-4])
        code = main(["eval", "--checkpoint", str(cut), "--data", str(workdir["data"]),
                     "--output-dir", str(tmp_path / "x")])
        assert code == EXIT_CODES["compatibility"]
        assert "category=compatibility" in capsys.readouterr().err


class TestAttribute:
    def test_misclassified_reports(self, workdir, tmp_path):
        out = tmp_path / "attr"
        code = main(["attribute", "--checkpoint", str(workdir["ckpt"]),
                     "--data", str(workdir["data"]), "--split", "val",
                     "--num-steps", "16", "--limit", "3",
                     "--output-dir", str(out)])
        assert code == 0
        assert (out / "attributions.txt").exists()
        for line in (out / "attributions.jsonl").read_text().strip().split("\n"):
            if not line:
                continue
            record = json.loads(line)
            assert set(record) >= {"example_id", "tokens", "scores",
                                   "completeness_residual", "target_class"}
            assert len(record["tokens"]) == len(record["scores"])

    def test_attribute_by_ids(self, workdir, tmp_path):
        out = tmp_path / "attr_ids"
        code = main(["attribute", "--checkpoint", str(workdir["ckpt"]),
                     "--data", str(workdir["data"]), "--split", "all",
                     "--ids", "3,7", "--num-steps", "16",
                     "--output-dir", str(out)])
        assert code == 0
        records = [json.loads(l) for l in
                   (out / "attributions.jsonl").read_text().strip().split("\n")]
        assert [r["example_id"] for r in records] == [3, 7]

    def test_unknown_id_lookup_error(self, workdir, tmp_path, capsys):
        code = main(["attribute", "--checkpoint", str(workdir["ckpt"]),
                     "--data", str(workdir["data"]), "--split", "val",
                     "--ids", "424242", "--num-steps", "16",
                     "--output-dir", str(tmp_path / "x")])
        assert code == EXIT_CODES["lookup"]
        assert "category=lookup" in capsys.readouterr().err


class TestExportEmbeddings:
    def test_export_per_layer(self, workdir, tmp_path):
        out = tmp_path / "emb"
        code = main(["export-embeddings", "--checkpoint", str(workdir["ckpt"]),
                     "--data", str(workdir["data"]), "--split", "val",
                     "--layer", "0", "--output-dir", str(out)])
        assert code == 0
        path = out / "embeddings_layer0_val.tsv"
        lines = path.read_text().strip().split("\n")
        header = lines[0].split("\t")
        assert header[:2] == ["example_id", "label"]
        assert len(header) == 2 + 16  # d_model floats
        assert len(lines) == 1 + 15  # 10% of 150

    def test_layer_out_of_range(self, workdir, tmp_path, capsys):
        code = main(["export-embeddings", "--checkpoint", str(workdir["ckpt"]),
                     "--data", str(workdir["data"]), "--split", "val",
                     "--layer", "5", "--output-dir", str(tmp_path / "x")])
        assert code == EXIT_CODES["config"]
        assert "num_layers" in capsys.readouterr().err
