"""Seeded input fuzz over every input surface of the CLI: dataset records,
config-file values, flags, and checkpoint bytes, both raw and behind a
valid sha256 trailer; and over the padding masks the library's entry points
take and the ``lengths`` vectors the layers below them take.  A fixed-seed
generator draws each case from fixed mutation tables, so every run checks
the same cases.

Every CLI case must exit 0 or with one of its surface's documented error
categories, never with a traceback; a training run that exits 0 must
record a config that validates.  A mask or lengths case must succeed
exactly when its input is well formed, and raise ContractError otherwise.
"""

import contextlib
import copy
import hashlib
import io
import json
import math
import random
import struct
import traceback
from dataclasses import fields

import numpy as np
import pytest

from switchtext import EncoderModel, ModelConfig, Tensor
from switchtext import tensor as T
from switchtext.cli import EXIT_CODES, main
from switchtext.errors import ContractError
from switchtext.interpret import integrated_gradients
from switchtext.training import RunConfig

CASES = 80  # per surface
VALUES = [None, True, False, 0, 1, -1, 3, 0.5, -0.5, 1.5, 1e308, -1e308, math.nan, math.inf,
          "", "x", "switch", [], {}, [1], {"a": 1}]
FRAGMENTS = ['"', "{", "}", ",", "\\", "\x00", "é", "\n", "NaN", "[" * 5000]
SMALL = {"variant": "switch", "num_layers": 1, "num_heads": 2, "num_experts": 2, "d_model": 8,
         "d_ff": 16, "max_len": 16, "min_frequency": 1, "batch_size": 8, "grad_accumulation": 1,
         "epochs": 1}
SMALL_FLAGS = [arg for key, value in SMALL.items()
               for arg in ("--" + key.replace("_", "-"), str(value))]
CODES = {name: EXIT_CODES[name] for name in ("config", "data", "compatibility", "numeric")}


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """A 60-note corpus, a one-epoch d8 checkpoint trained on it, and a
    scratch directory for the mutated inputs."""
    root = tmp_path_factory.mktemp("fuzz")
    data = root / "notes.jsonl"
    assert main(["gen-data", "--n", "60", "--noise", "0.0", "--seed", "1", "--out", str(data)]) == 0
    paths = {"root": root, "data": data, "ckpt": root / "run" / "best.ckpt"}
    assert main([str(a) for a in train_argv(paths, *SMALL_FLAGS, out="run")]) == 0
    return paths


def run(argv):
    """(exit code, stderr) of one in-process CLI call; an uncaught exception
    is returned as its traceback in place of the exit code."""
    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main([str(a) for a in argv])
    except SystemExit as e:  # argparse rejects a malformed flag value with its usage error
        code = e.code
    except Exception:
        return traceback.format_exc(), err.getvalue()
    return code, err.getvalue()


def check(failures, case, argv, allowed):
    code, err = run(argv)
    if code not in [0, *allowed] or "Traceback" in err:
        failures.append(f"{case}: {code if isinstance(code, int) else code[-300:]} {err[-200:]}")
    return code


def eval_argv(corpus, data=None, ckpt=None):
    return ["eval", "--checkpoint", ckpt or corpus["ckpt"], "--data", data or corpus["data"],
            "--split", "all", "--output-dir", corpus["root"] / "out"]


def train_argv(corpus, *extra, data=None, out="out"):
    return ["train", "--data-path", data or corpus["data"], "--output-dir", corpus["root"] / out,
            *extra]


def test_dataset_records(corpus):
    rng = random.Random(1)
    records = [json.loads(line) for line in corpus["data"].read_text().splitlines()]
    failures = []
    for k in range(CASES):
        mutated = copy.deepcopy(records)
        i, key = rng.randrange(len(mutated)), rng.choice(["id", "text", "label"])
        kind = rng.choice(["set", "delete", "replace", "insert", "truncate", "bytes"])
        if kind == "set":
            mutated[i][key] = rng.choice(VALUES)
        elif kind == "delete":
            del mutated[i][key]
        elif kind == "replace":
            mutated[i] = rng.choice(VALUES)
        text = "".join(json.dumps(r) + "\n" for r in mutated).encode("utf-8")
        at = rng.randrange(len(text))
        if kind == "insert":
            text = text[:at] + rng.choice(FRAGMENTS).encode("utf-8") + text[at:]
        elif kind == "truncate":
            text = text[:at]
        elif kind == "bytes":
            text = text[:at] + bytes([rng.choice([0x80, 0xC3, 0xFF])]) + text[at:]
        path = corpus["root"] / f"data{k}.jsonl"
        path.write_bytes(text)
        argv = eval_argv(corpus, data=path) if k % 2 else train_argv(corpus, *SMALL_FLAGS, data=path)
        check(failures, f"{kind} {key} of record {i}", argv, [CODES["data"]])
    assert failures == []


@pytest.mark.parametrize("surface", ["config-file", "flags"])
def test_run_config_values(corpus, surface):
    rng = random.Random(2)
    names = [f.name for f in fields(RunConfig) if f.name not in ("data_path", "output_dir")]
    failures = []
    for k in range(CASES):
        name, value = rng.choice(names), rng.choice(VALUES)
        if surface == "config-file":
            path = corpus["root"] / f"config{k}.json"
            path.write_text(json.dumps({**SMALL, name: value}))
            argv = train_argv(corpus, "--config", path)
        elif isinstance(value, bool):
            flag = name.replace("_", "-")
            argv = train_argv(corpus, *SMALL_FLAGS, f"--{flag}" if value else f"--no-{flag}")
        else:
            argv = train_argv(corpus, *SMALL_FLAGS, "--" + name.replace("_", "-"), value)
        code = check(failures, f"{name}={value!r}", argv,
                     [CODES["config"], CODES["data"], CODES["numeric"]])
        if code == 0:
            manifest = json.loads((corpus["root"] / "out" / "manifest.json").read_text())
            assert RunConfig.from_dict(manifest["config"]).violations() == [], (name, value)
    assert failures == []


def test_checkpoint_bytes(corpus):
    rng = random.Random(3)
    raw = corpus["ckpt"].read_bytes()
    failures = []
    for k in range(CASES):
        mutated = bytearray(raw)
        kind = rng.choice(["flip", "truncate", "append", "header-length"])
        if kind == "flip":
            mutated[rng.randrange(len(raw))] ^= 1 << rng.randrange(8)
        elif kind == "truncate":
            mutated = mutated[:rng.randrange(len(raw))]
        elif kind == "append":
            mutated += bytes(rng.randrange(256) for _ in range(rng.randrange(1, 9)))
        else:
            mutated[rng.randrange(8, 16)] ^= rng.randrange(1, 256)
        path = corpus["root"] / f"raw{k}.ckpt"
        path.write_bytes(bytes(mutated))
        code = check(failures, kind, eval_argv(corpus, ckpt=path), [CODES["compatibility"]])
        if code == 0:
            failures.append(f"{kind}: a changed checkpoint loaded")
    assert failures == []


def _leaves(node, path=()):
    """Paths to every value in a JSON tree, containers included."""
    yield path
    items = (node.items() if isinstance(node, dict) else
             enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield from _leaves(child, path + (key,))


def test_checkpoint_header_behind_a_valid_trailer(corpus):
    """Header edits that a checksum cannot catch: the trailer is recomputed,
    as a writer with a bug would compute it.  Integer values stay small, so
    no case asks for a large model."""
    rng = random.Random(4)
    raw = corpus["ckpt"].read_bytes()
    (blob_len,) = struct.unpack("<Q", raw[8:16])
    header = json.loads(raw[16:16 + blob_len])
    payload = raw[16 + blob_len:-32]
    paths = {section: list(_leaves(header[section], (section,))) for section in header}
    failures = []
    for k in range(CASES):
        mutated = copy.deepcopy(header)
        path = rng.choice(paths[rng.choice(sorted(paths))])
        parent = mutated
        for key in path[:-1]:
            parent = parent[key]
        if rng.random() < 0.2:
            parent.pop(path[-1])
        else:
            parent[path[-1]] = rng.choice(VALUES)
        blob = json.dumps(mutated).encode("utf-8")
        body = raw[:8] + struct.pack("<Q", len(blob)) + blob + payload
        ckpt = corpus["root"] / f"header{k}.ckpt"
        ckpt.write_bytes(body + hashlib.sha256(body).digest())
        command = rng.choice([[], ["attribute", "--num-steps", "8", "--limit", "1"],
                              ["export-embeddings", "--layer", "0"]])
        argv = eval_argv(corpus, ckpt=ckpt)
        if command:
            argv = [command[0], *argv[1:], *command[1:]]
        check(failures, f"{'/'.join(map(str, path))} edited", argv, [CODES["compatibility"]])
    assert failures == []


def _outcome(call):
    """The outcome of ``call()``: "ok", or "contract" for a ContractError;
    any other exception propagates."""
    try:
        call()
    except ContractError:
        return "contract"
    return "ok"


def test_entry_point_masks():
    """Edits of a padding mask through ``EncoderModel.forward`` and
    ``integrated_gradients``: a mask is well formed when it has the ids'
    shape and every row is one or more True entries, then False ones."""
    model = EncoderModel.build(ModelConfig(variant="switch", num_layers=1, num_heads=2,
                                           num_experts=2, d_model=8, d_ff=16, vocab_size=12,
                                           max_len=8, seed=1))
    rng = random.Random(5)
    ids = np.array([[2, 3, 4, 5, 6], [7, 8, 9, 0, 0], [10, 0, 0, 0, 0]])
    failures = []
    for _ in range(CASES):
        mask = ids != 0
        kind = rng.choice(["flip", "clear-row", "fill-row", "add-column", "drop-row", "none"])
        if kind == "flip":
            mask[rng.randrange(3), rng.randrange(5)] ^= True
        elif kind == "clear-row":
            mask[rng.randrange(3)] = False
        elif kind == "fill-row":
            mask[rng.randrange(3)] = True
        elif kind == "add-column":
            mask = np.concatenate([mask, mask[:, :1]], axis=1)
        elif kind == "drop-row":
            mask = np.delete(mask, rng.randrange(3), axis=0)
        rows = [row.tolist() for row in mask]
        prefixes = [any(row) and row == sorted(row, reverse=True) for row in rows]
        want = "ok" if mask.shape == ids.shape and all(prefixes) else "contract"
        got = _outcome(lambda: model.forward(ids, mask))
        if got != want:
            failures.append(f"forward, {kind}: {rows} gave {got}")
        i = rng.randrange(len(mask))  # one example, as [len] ids and mask
        want = "ok" if mask.shape[1] == ids.shape[1] and prefixes[i] else "contract"
        got = _outcome(lambda: integrated_gradients(model, ids[i], mask[i], 1, num_steps=8))
        if got != want:
            failures.append(f"integrated_gradients, {kind}: {rows[i]} gave {got}")
    assert failures == []


def test_packed_lengths():
    """Edits of a ``lengths`` vector through ``T.attention`` and
    ``T.segment_sum`` on 12 packed rows: well formed when every length is
    at least 1 and they sum to the rows."""
    rng = random.Random(6)
    x = Tensor(np.random.default_rng(6).standard_normal((12, 12)))
    failures = []
    for _ in range(CASES):
        lengths = [3, 3, 1, 5]
        kind = rng.choice(["zero", "negative", "increment", "decrement", "drop", "append",
                           "swap"])
        i = rng.randrange(len(lengths))
        if kind == "zero":
            lengths[i] = 0
        elif kind == "negative":
            lengths[i] = -rng.randrange(1, 4)
        elif kind in ("increment", "decrement"):
            lengths[i] += 1 if kind == "increment" else -1
        elif kind == "drop":
            del lengths[i]
        elif kind == "append":
            lengths.append(rng.randrange(-1, 3))
        else:
            lengths[i], lengths[-1] = lengths[-1], lengths[i]
        want = "ok" if min(lengths, default=0) >= 1 and sum(lengths) == 12 else "contract"
        for name, op in (("attention", lambda n: T.attention(x, n, 2)),
                         ("segment_sum", lambda n: T.segment_sum(x, n))):
            got = _outcome(lambda: op(np.array(lengths, dtype=int)))
            if got != want:
                failures.append(f"{name}, {kind}: {lengths} gave {got}")
    assert failures == []
