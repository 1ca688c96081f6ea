"""Command-line tests: the full command set end to end on a tiny corpus,
config merging and overrides, error categories, and artifact layout."""

import hashlib
import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import switchtext
from switchtext import generate_synthetic_corpus, training
from switchtext.cli import EXIT_CODES, build_parser, main, resolve_train_config
from switchtext.data import read_jsonl, write_artifact, write_jsonl
from switchtext.errors import ConfigError
from switchtext.model import CHECKPOINT_VERSION
from switchtext.training import train


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
        assert manifest["config"]["n"] == 150

    def test_deterministic_per_seed(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        main(["gen-data", "--n", "30", "--seed", "5", "--out", str(a)])
        main(["gen-data", "--n", "30", "--seed", "5", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_failed_rerun_leaves_no_manifest(self, tmp_path, monkeypatch, capsys):
        data = tmp_path / "g.jsonl"
        assert main(["gen-data", "--n", "20", "--seed", "1", "--out", str(data)]) == 0
        manifest = tmp_path / "g.jsonl.manifest.json"
        assert manifest.exists()

        def failing_write(path, parts):
            if str(path).endswith(".manifest.json"):
                raise ConfigError(f"cannot write {path}")
            return write_artifact(path, parts)

        monkeypatch.setattr("switchtext.training.write_artifact", failing_write)
        assert main(["gen-data", "--n", "20", "--seed", "2", "--out", str(data)]) == 2
        assert "category=config" in capsys.readouterr().err
        assert not manifest.exists()  # the seed-1 manifest no longer vouches for seed-2 data


class TestBlasThreads:
    """The CLI runs BLAS on one thread, so its artifacts do not depend on the
    thread count the environment asks for."""

    def test_train_bits_do_not_depend_on_the_thread_count(self, tmp_path):
        # d64 with 16-note batches is large enough for OpenBLAS to split its
        # GEMMs across two threads, which moves the checkpoint's last bits.
        data = tmp_path / "notes.jsonl"
        write_jsonl(str(data), generate_synthetic_corpus(60, seed=1))
        runs = {}
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=str(Path(switchtext.__file__).parents[1]))
            subprocess.run([sys.executable, "-m", "switchtext.cli", "train", "--data-path",
                            str(data), "--output-dir", str(out), "--epochs", "1", "--d-model", "64",
                            "--d-ff", "256", "--num-layers", "2", "--num-heads", "2",
                            "--num-experts", "2", "--max-len", "128", "--grad-accumulation", "1",
                            "--min-frequency", "1"], env=env, check=True, capture_output=True)
            runs[threads] = {f.name: f.read_bytes() for f in out.iterdir() if f.name != "timings.tsv"}
        assert "best.ckpt" in runs["1"]
        assert runs["1"] == runs["2"]
        blas = json.loads(runs["2"]["manifest.json"])["platform"]
        assert blas["blas_threads"] == 1 and blas["blas"].startswith("OpenBLAS")

    def test_a_blas_out_of_reach_still_runs(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(training.ctypes, "CDLL", lambda path: object())  # no symbol found
        assert main(["gen-data", "--n", "20", "--out", str(tmp_path / "g.jsonl")]) == 0
        err = capsys.readouterr().err.splitlines()
        assert err == ["warning: cannot pin BLAS to one thread; bits may vary with the thread count"]
        platform = json.loads((tmp_path / "g.jsonl.manifest.json").read_text())["platform"]
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        assert platform["blas"] == f"{blas['name']} {blas['version']}"
        assert platform["blas_threads"] is None


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

    def test_failed_rerun_leaves_no_manifest(self, workdir, tmp_path, capsys):
        # A manifest is written last, so one present vouches for a complete
        # set; a failed rerun must not leave the old run's next to new files.
        out = tmp_path / "rerun"
        argv = ["train", "--data-path", str(workdir["data"]), "--output-dir", str(out),
                "--epochs", "1", "--d-model", "8", "--num-heads", "2", "--d-ff", "16",
                "--num-layers", "1", "--max-len", "16", "--min-frequency", "1"]
        assert main(argv + ["--seed", "1"]) == 0
        assert json.loads((out / "manifest.json").read_text())["seed"] == 1
        (out / "report_val.tsv").unlink()
        (out / "report_val.tsv").mkdir()
        assert main(argv + ["--seed", "2"]) == EXIT_CODES["config"]
        assert "error: category=config" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()
        # train() clears it itself, also when called without the CLI.
        (out / "manifest.json").write_text("{}")
        config = resolve_train_config(build_parser().parse_args(argv), "train")
        with pytest.raises(ConfigError):
            train(config, read_jsonl(str(workdir["data"])), out_dir=str(out), quiet=True)
        assert not (out / "manifest.json").exists()

    def test_epochs_zero_immediate_exit(self, workdir, tmp_path, capsys):
        out = tmp_path / "zero"
        code = main(["train", "--data-path", str(workdir["data"]),
                     "--output-dir", str(out), "--epochs", "0",
                     "--d-model", "16", "--d-ff", "32", "--num-layers", "1",
                     "--num-heads", "2", "--min-frequency", "1"])
        assert code == 0
        assert "warning" in capsys.readouterr().out
        assert (out / "best.ckpt").exists()


class TestEmptySplit:
    def test_train_and_eval_on_an_empty_split_exit_with_data_error(self, workdir, tmp_path, capsys):
        # The first 4 notes of the shared corpus: rounding leaves val empty.
        tiny = tmp_path / "tiny.jsonl"
        tiny.write_text("".join(workdir["data"].read_text().splitlines(keepends=True)[:4]))
        code = main(["train", "--data-path", str(tiny), "--output-dir", str(tmp_path / "run"),
                     "--epochs", "1", "--min-frequency", "1"])
        assert code == EXIT_CODES["data"]
        assert "val 0" in capsys.readouterr().err
        code = main(["eval", "--checkpoint", str(workdir["ckpt"]), "--data", str(tiny),
                     "--split", "val", "--output-dir", str(tmp_path / "eval")])
        assert code == EXIT_CODES["data"]
        assert "error: category=data" in capsys.readouterr().err


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

    def test_eval_val_reproduces_the_train_report(self, workdir, tmp_path):
        # eval weights its loss by the run's class weights and batches by the
        # run's eval_batch_size, as train() does for report_val.
        run, out = tmp_path / "run", tmp_path / "eval"
        assert main(["train", "--data-path", str(workdir["data"]), "--output-dir", str(run),
                     "--d-model", "16", "--d-ff", "32", "--num-heads", "2", "--num-layers", "1",
                     "--max-len", "32", "--epochs", "3", "--eval-batch-size", "5",
                     "--min-frequency", "1"]) == 0
        assert main(["eval", "--checkpoint", str(run / "best.ckpt"), "--data",
                     str(workdir["data"]), "--split", "val", "--output-dir", str(out)]) == 0
        for name in ("report_val.tsv", "report_val.json"):
            assert (out / name).read_bytes() == (run / name).read_bytes(), name

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

    def test_attribute_by_string_ids(self, workdir, tmp_path):
        data = tmp_path / "named.jsonl"
        data.write_text("".join(json.dumps({**json.loads(line), "id": f"n{i}"}) + "\n"
                                for i, line in enumerate(workdir["data"].read_text().splitlines())))
        out = tmp_path / "attr_names"
        code = main(["attribute", "--checkpoint", str(workdir["ckpt"]), "--data", str(data),
                     "--split", "all", "--ids", "n3,n7", "--num-steps", "16",
                     "--output-dir", str(out)])
        assert code == 0
        records = [json.loads(l) for l in
                   (out / "attributions.jsonl").read_text().strip().split("\n")]
        assert [r["example_id"] for r in records] == ["n3", "n7"]

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


# Each row: case id, command, flags that override the command's defaults in
# BASE_ARGV (a trained checkpoint, the shared corpus and a fresh output
# path; {tmp} is a directory holding the bad files below), and the error
# category.
BAD_INPUT = [
    ("data-missing", "eval", ["--data", "{tmp}/missing.jsonl"], "data"),
    ("data-directory", "eval", ["--data", "{tmp}"], "data"),
    ("data-not-utf8", "eval", ["--data", "{tmp}/latin1.jsonl"], "data"),
    ("data-record-int", "eval", ["--data", "{tmp}/int.jsonl"], "data"),
    ("data-record-null", "eval", ["--data", "{tmp}/null.jsonl"], "data"),
    ("data-id-list", "attribute", ["--data", "{tmp}/id_list.jsonl", "--ids", "1"], "data"),
    ("data-id-duplicate", "attribute", ["--data", "{tmp}/id_dup.jsonl", "--ids", "5"], "data"),
    ("data-text-null", "eval", ["--data", "{tmp}/text_null.jsonl"], "data"),
    ("data-label-bool", "eval", ["--data", "{tmp}/label_bool.jsonl"], "data"),
    ("data-record-nested-deep", "eval", ["--data", "{tmp}/nested.jsonl"], "data"),
    ("checkpoint-missing", "eval", ["--checkpoint", "{tmp}/missing.ckpt"], "compatibility"),
    ("checkpoint-directory", "eval", ["--checkpoint", "{tmp}"], "compatibility"),
    ("checkpoint-format-3", "eval", ["--checkpoint", "{tmp}/v3.ckpt"], "compatibility"),
    ("checkpoint-format-4", "eval", ["--checkpoint", "{tmp}/v4.ckpt"], "compatibility"),
    ("checkpoint-format-5", "eval", ["--checkpoint", "{tmp}/v5.ckpt"], "compatibility"),
    ("checkpoint-flipped-byte", "eval", ["--checkpoint", "{tmp}/flipped.ckpt"], "compatibility"),
    # Header edits behind a recomputed sha256 trailer, as a faulty writer would make them.
    ("checkpoint-vocab-not-strings", "eval", ["--checkpoint", "{tmp}/vocab_lists.ckpt"],
     "compatibility"),
    ("checkpoint-vocab-one-token", "attribute", ["--checkpoint", "{tmp}/vocab_short.ckpt"],
     "compatibility"),
    # A string of tokens would read as one token per character.
    ("checkpoint-vocab-tokens-string", "eval", ["--checkpoint", "{tmp}/vocab_string.ckpt"],
     "compatibility"),
    ("checkpoint-vocab-token-twice", "eval", ["--checkpoint", "{tmp}/vocab_twice.ckpt"],
     "compatibility"),
    ("checkpoint-vocab-tokens-int", "eval", ["--checkpoint", "{tmp}/vocab_ints.ckpt"],
     "compatibility"),
    ("checkpoint-vocab-no-pad-first", "eval", ["--checkpoint", "{tmp}/vocab_no_pad.ckpt"],
     "compatibility"),
    ("checkpoint-vocab-merge-negations-string", "eval",
     ["--checkpoint", "{tmp}/vocab_merge_no.ckpt"], "compatibility"),
    ("checkpoint-vocab-stopwords-string", "eval", ["--checkpoint", "{tmp}/vocab_stop_str.ckpt"],
     "compatibility"),
    ("checkpoint-extra-not-object", "eval", ["--checkpoint", "{tmp}/extra_int.ckpt"],
     "compatibility"),
    ("checkpoint-config-heads-bool", "eval", ["--checkpoint", "{tmp}/heads_bool.ckpt"],
     "compatibility"),
    ("checkpoint-run-config-split-seed-negative", "eval",
     ["--checkpoint", "{tmp}/split_seed.ckpt"], "compatibility"),
    # Without its run config the stored split cannot be rebuilt.
    ("checkpoint-run-config-missing", "eval",
     ["--checkpoint", "{tmp}/no_run_config.ckpt", "--split", "test"], "compatibility"),
    ("eval-batch-size-0", "eval", ["--batch-size", "0"], "config"),
    ("eval-batch-size-negative", "eval", ["--batch-size", "-3"], "config"),
    # An id is named by its text, so "x" is an id the split lacks.
    ("attribute-ids-not-int", "attribute", ["--ids", "1,x"], "lookup"),
    # The int id 5 and the string id "5" share the name 5.
    ("attribute-ids-ambiguous", "attribute",
     ["--data", "{tmp}/id_str_5.jsonl", "--split", "all", "--ids", "5"], "lookup"),
    ("attribute-limit-negative", "attribute", ["--limit", "-1"], "config"),
    ("output-dir-file-train", "train", ["--output-dir", "{tmp}/afile"], "config"),
    ("output-dir-file-eval", "eval", ["--output-dir", "{tmp}/afile"], "config"),
    ("output-dir-file-attribute", "attribute", ["--output-dir", "{tmp}/afile"], "config"),
    ("output-dir-file-export", "export-embeddings", ["--output-dir", "{tmp}/afile"], "config"),
    ("gen-data-out-missing-dir", "gen-data", ["--out", "{tmp}/missing/g.jsonl"], "config"),
    ("gen-data-seed-negative", "gen-data", ["--seed", "-1"], "config"),
    ("train-seed-negative", "train", ["--seed", "-3"], "config"),
    ("train-data-path-missing", "train", ["--data-path", "{tmp}/missing.jsonl"], "config"),
    ("train-split-seed-negative", "train", ["--split-seed", "-1"], "config"),
    ("train-config-file-seed-negative", "train", ["--config", "{tmp}/negative_seed.json"], "config"),
    ("train-config-file-nested-deep", "train", ["--config", "{tmp}/nested.json"], "config"),
    # A non-finite float would slip past every range check that compares it.
    ("train-capacity-factor-nan", "train", ["--capacity-factor", "nan"], "config"),
    ("train-capacity-factor-inf", "train", ["--capacity-factor", "inf"], "config"),
    ("train-config-file-capacity-factor-nan", "train", ["--config", "{tmp}/nan_capacity.json"],
     "config"),
    ("train-grad-clip-nan", "train", ["--grad-clip", "nan"], "config"),
    ("train-min-delta-nan", "train", ["--min-delta", "nan"], "config"),
    ("train-stop-at-val-accuracy-nan", "train", ["--stop-at-val-accuracy", "nan"], "config"),
    ("train-weight-decay-nan", "train", ["--weight-decay", "nan"], "config"),
    ("train-adam-eps-nan", "train", ["--adam-eps", "nan"], "config"),
    ("train-adam-beta1-above-one", "train", ["--adam-beta1", "1.5"], "config"),
    ("train-adam-beta2-negative", "train", ["--adam-beta2", "-0.1"], "config"),
    ("train-adam-eps-zero", "train", ["--adam-eps", "0"], "config"),
    ("train-aux-loss-weight-nan", "train", ["--aux-loss-weight", "nan"], "config"),
    # Overflow to a non-finite gradient is a numeric error, with no numpy warning.
    ("train-aux-loss-weight-overflows", "train", ["--aux-loss-weight", "1e308", "--epochs", "1"],
     "numeric"),
    ("train-config-file-floats-non-finite", "train", ["--config", "{tmp}/non_finite.json"],
     "config"),
    # Out-of-range run floats would silently change the run.
    ("train-stop-at-val-accuracy-negative", "train", ["--stop-at-val-accuracy", "-0.5"], "config"),
    ("train-stop-at-val-accuracy-above-one", "train", ["--stop-at-val-accuracy", "1.5"], "config"),
    ("train-min-delta-negative", "train", ["--min-delta", "-5"], "config"),
    ("train-grad-clip-negative", "train", ["--grad-clip", "-1"], "config"),
    ("train-weight-decay-negative", "train", ["--weight-decay", "-0.01"], "config"),
    # {tmp}/blocked holds a directory where each command's artifact goes.
    ("artifact-blocked-train", "train", ["--output-dir", "{tmp}/blocked"], "config"),
    ("artifact-blocked-eval", "eval", ["--output-dir", "{tmp}/blocked"], "config"),
    ("artifact-blocked-attribute", "attribute", ["--output-dir", "{tmp}/blocked"], "config"),
    ("artifact-blocked-export", "export-embeddings", ["--output-dir", "{tmp}/blocked"], "config"),
    ("artifact-blocked-gen-data", "gen-data", ["--out", "{tmp}/blocked"], "config"),
]
EVAL_ARGV = ["--checkpoint", "{ckpt}", "--data", "{data}", "--split", "val",
             "--output-dir", "{tmp}/out"]
BASE_ARGV = {
    "eval": EVAL_ARGV,
    "attribute": EVAL_ARGV + ["--num-steps", "8"],
    "export-embeddings": EVAL_ARGV + ["--layer", "0"],
    "train": ["--data-path", "{data}", "--output-dir", "{tmp}/out", "--epochs", "0",
              "--d-model", "8", "--num-heads", "2", "--d-ff", "16", "--num-layers", "1"],
    "gen-data": ["--n", "10", "--out", "{tmp}/g.jsonl"],
}


@pytest.mark.parametrize("command,flags,category", [row[1:] for row in BAD_INPUT],
                         ids=[row[0] for row in BAD_INPUT])
def test_bad_input_exits_with_its_category(workdir, tmp_path, capsys, command, flags, category):
    (tmp_path / "latin1.jsonl").write_bytes(b'{"text": "caf\xe9", "label": 1}\n')
    (tmp_path / "int.jsonl").write_text("5\n")
    (tmp_path / "null.jsonl").write_text("null\n")
    (tmp_path / "nested.jsonl").write_text("[" * 100000 + "\n")
    (tmp_path / "nested.json").write_text("[" * 100000)
    (tmp_path / "afile").write_text("")
    good = [json.loads(line) for line in workdir["data"].read_text().splitlines()[:40]]
    bad_records = {  # each follows 40 good records, which make every split non-empty
        "id_list": {"id": [1, 2], "text": "a", "label": 0},
        "id_dup": {"id": 5, "text": "b", "label": 1},
        "text_null": {"id": 40, "text": None, "label": 0},
        "label_bool": {"id": 40, "text": "a", "label": True},
        "id_str_5": {"id": "5", "text": "b", "label": 1},
    }
    for name, record in bad_records.items():
        (tmp_path / f"{name}.jsonl").write_text("".join(json.dumps(r) + "\n" for r in good + [record]))
    (tmp_path / "negative_seed.json").write_text(json.dumps({"seed": -2}))
    (tmp_path / "nan_capacity.json").write_text('{"capacity_factor": NaN}')
    (tmp_path / "non_finite.json").write_text('{"aux_loss_weight": NaN, "grad_clip": Infinity}')
    for name in ("report_val.tsv", "attributions.txt", "embeddings_layer0_val.tsv"):
        (tmp_path / "blocked" / name).mkdir(parents=True)
    raw = workdir["ckpt"].read_bytes()  # the same checkpoint, labelled format 3, 4 and 5
    (blob_len,) = struct.unpack("<Q", raw[8:16])
    header = json.loads(raw[16:16 + blob_len])
    for version in (3, 4, 5):
        header["format_version"] = version
        blob = json.dumps(header).encode("utf-8")
        (tmp_path / f"v{version}.ckpt").write_bytes(raw[:8] + struct.pack("<Q", len(blob)) + blob
                                                    + raw[16 + blob_len:])
    flipped = bytearray(raw)  # one payload bit
    flipped[16 + blob_len + 100] ^= 0x01
    (tmp_path / "flipped.ckpt").write_bytes(bytes(flipped))
    header["format_version"] = CHECKPOINT_VERSION
    payload = raw[16 + blob_len:-32]
    for name, edit in {
        "vocab_lists": lambda h: h["vocab"].update(id_to_token=[[1]] * 3),
        "vocab_short": lambda h: h["vocab"].update(id_to_token=["<pad>"]),
        "vocab_string": lambda h: h["vocab"].update(id_to_token="abcdefgh"),
        "vocab_twice": lambda h: h["vocab"]["id_to_token"].__setitem__(3, "<unk>"),
        "vocab_ints": lambda h: h["vocab"].update(id_to_token=[0, 1, 2]),
        "vocab_no_pad": lambda h: h["vocab"]["id_to_token"].reverse(),
        "vocab_merge_no": lambda h: h["vocab"].update(merge_negations="no"),
        "vocab_stop_str": lambda h: h["vocab"].update(stopwords="le la"),
        "extra_int": lambda h: h.update(extra=-1),
        "heads_bool": lambda h: h["config"].update(num_heads=True),
        "split_seed": lambda h: h["extra"]["run_config"].update(split_seed=-1),
        "no_run_config": lambda h: h["extra"].pop("run_config"),
    }.items():
        edited = json.loads(json.dumps(header))
        edit(edited)
        blob = json.dumps(edited).encode("utf-8")
        body = raw[:8] + struct.pack("<Q", len(blob)) + blob + payload
        (tmp_path / f"{name}.ckpt").write_bytes(body + hashlib.sha256(body).digest())
    argv = [command] + [arg.format(tmp=tmp_path, ckpt=workdir["ckpt"], data=workdir["data"])
                        for arg in BASE_ARGV[command] + flags]
    code = main(argv)
    err = capsys.readouterr().err
    assert code == EXIT_CODES[category]
    assert f"error: category={category}" in err
    assert "Traceback" not in err
