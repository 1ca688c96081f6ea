"""Artifact-writer tests: every file is replaced whole through
``data.write_artifact``; an interrupted checkpoint save leaves the previous
checkpoint in place; a CLI run leaves no temporary file and gives each
artifact the mode a plain ``open`` gives; and no other code in the package
opens a file for writing."""

import ast
import builtins
import inspect
import os
import stat
from pathlib import Path

import numpy as np
import pytest

import switchtext
from switchtext import EncoderModel, ModelConfig
from switchtext.cli import main
from switchtext.data import write_artifact
from switchtext.errors import ConfigError
from switchtext.model import load_checkpoint, save_checkpoint


def tiny_model(seed):
    return EncoderModel.build(ModelConfig(variant="switch", num_layers=1, num_heads=2,
                                          num_experts=2, d_model=8, d_ff=16, vocab_size=12,
                                          max_len=8, seed=seed))


class TestWriteArtifact:
    def test_writes_the_parts_concatenated(self, tmp_path):
        path = tmp_path / "a.bin"
        parts = ["héllo\n", b"\x00\x01", np.arange(3.0)]
        expected = "héllo\n".encode("utf-8") + b"\x00\x01" + np.arange(3.0).tobytes()
        write_artifact(path, parts)
        assert path.read_bytes() == expected
        assert os.listdir(tmp_path) == ["a.bin"]

    def test_failed_write_names_target_and_leaves_no_temp(self, tmp_path):
        target = tmp_path / "out.tsv"
        target.mkdir()
        with pytest.raises(ConfigError, match=f"cannot write {target}: ") as info:
            write_artifact(target, ["x\n"])
        assert ".tmp" not in str(info.value)
        assert os.listdir(tmp_path) == ["out.tsv"]

    def test_raising_part_keeps_previous_file(self, tmp_path):
        path = tmp_path / "t.tsv"
        write_artifact(path, ["old\n"])

        def parts():
            yield "new\n"
            raise ValueError("part failed")

        with pytest.raises(ValueError, match="part failed"):
            write_artifact(path, parts())
        assert path.read_text() == "old\n"
        assert os.listdir(tmp_path) == ["t.tsv"]


def test_interrupted_checkpoint_save_keeps_previous(tmp_path, monkeypatch):
    """A KeyboardInterrupt at the 4th chunk of a re-save (the first
    parameter) leaves the previous checkpoint byte-identical and loadable."""
    path = tmp_path / "best.ckpt"
    save_checkpoint(path, tiny_model(seed=1))
    before = path.read_bytes()
    real_open = builtins.open

    class Interrupting:
        def __init__(self, fh):
            self.fh, self.writes = fh, 0

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            self.writes += 1
            if self.writes == 4:
                raise KeyboardInterrupt
            return self.fh.write(data)

    def interrupting_open(file, mode="r", *args, **kwargs):
        fh = real_open(file, mode, *args, **kwargs)
        in_dir = isinstance(file, (str, os.PathLike)) and Path(file).parent == tmp_path
        return Interrupting(fh) if in_dir and set(mode) & set("wax") else fh

    monkeypatch.setattr(builtins, "open", interrupting_open)
    with pytest.raises(KeyboardInterrupt):
        save_checkpoint(path, tiny_model(seed=2))
    monkeypatch.undo()
    assert path.read_bytes() == before
    load_checkpoint(path)
    assert os.listdir(tmp_path) == ["best.ckpt"]


def test_cli_sequence_leaves_whole_files_with_open_mode(tmp_path):
    data = str(tmp_path / "notes.jsonl")
    ckpt = str(tmp_path / "run" / "best.ckpt")
    common = ["--checkpoint", ckpt, "--data", data, "--split", "val"]
    for argv in (
        ["gen-data", "--n", "60", "--noise", "0.0", "--seed", "1", "--out", data],
        ["train", "--data-path", data, "--output-dir", str(tmp_path / "run"), "--epochs", "2",
         "--d-model", "8", "--num-heads", "2", "--d-ff", "16", "--num-layers", "1",
         "--num-experts", "2", "--max-len", "16", "--min-frequency", "1", "--batch-size", "8",
         "--grad-accumulation", "1"],
        ["eval", *common, "--output-dir", str(tmp_path / "eval")],
        ["attribute", *common, "--limit", "2", "--num-steps", "8",
         "--output-dir", str(tmp_path / "attr")],
        ["export-embeddings", *common, "--layer", "0", "--output-dir", str(tmp_path / "emb")],
    ):
        assert main(argv) == 0, argv[0]
    expected = {
        ".": {"notes.jsonl", "notes.jsonl.manifest.json", "run", "eval", "attr", "emb"},
        "run": {"best.ckpt", "train_log.tsv", "gap.tsv", "routing.tsv", "timings.tsv",
                "report_val.tsv", "report_val.json", "manifest.json"},
        "eval": {"report_val.tsv", "report_val.json", "timings_eval.tsv", "manifest.json"},
        "attr": {"attributions.txt", "attributions.jsonl", "manifest.json"},
        "emb": {"embeddings_layer0_val.tsv", "manifest.json"},
    }
    umask = os.umask(0)
    os.umask(umask)
    for sub, names in expected.items():
        assert set(os.listdir(tmp_path / sub)) == names, sub
        for name in names:
            mode = os.stat(tmp_path / sub / name).st_mode
            if stat.S_ISREG(mode):
                assert stat.S_IMODE(mode) == 0o666 & ~umask, f"{sub}/{name}"


def _writes_opened(tree):
    """(enclosing function, line) of each ``open`` call in ``tree`` whose
    mode holds w, a or x, or is not a string literal."""
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id == "open":
            at = 1
        elif isinstance(func, ast.Attribute) and func.attr == "open":
            # io.open and os.open take the mode second, a method like Path.open first.
            at = 1 if getattr(func.value, "id", None) in ("io", "os") else 0
        else:
            continue
        given = [k.value for k in node.keywords if k.arg == "mode"] or node.args[at:at + 1]
        mode = given[0] if given else ast.Constant("r")
        if isinstance(mode, ast.Constant) and isinstance(mode.value, str) \
                and not set(mode.value) & set("wax"):
            continue
        owner = node
        while owner in parents and not isinstance(owner, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = parents[owner]
        yield getattr(owner, "name", "<module>"), node.lineno


def test_only_the_artifact_writer_opens_files_for_writing():
    found = []
    for path in sorted(Path(switchtext.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += [(path.name, name, line) for name, line in _writes_opened(tree)]
    assert [(file, name) for file, name, _ in found] == [("data.py", "write_artifact")], found
    assert list(inspect.signature(write_artifact).parameters) == ["path", "parts"]
