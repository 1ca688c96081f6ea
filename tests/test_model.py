"""Encoder model tests: zero-network sanity, variant equivalences, padding
invariance, parameter accounting against an independent closed form,
end-to-end gradient checks, hidden-state export, and checkpointing."""

import ast
import hashlib
import json
import struct
import tracemalloc
from dataclasses import fields, is_dataclass
from pathlib import Path

import numpy as np
import pytest

import switchtext
from helpers import check_many_params, file_digest
from switchtext import ModelConfig, EncoderModel, Tape, Tensor
from switchtext import tensor as T
from switchtext.cli import EXIT_CODES
from switchtext.errors import CompatibilityError, ConfigError, ContractError
from switchtext.interpret import integrated_gradients
from switchtext.layers import embed
from switchtext.model import (CHECKPOINT_MAGIC, NUM_CLASSES, export_hidden_embeddings,
                              load_checkpoint, parameter_count, save_checkpoint)
from switchtext.moe import SwitchParams
from switchtext.training import EncodedExample, total_loss

rng = np.random.default_rng(1234)


def tiny_config(variant="dense", **kw):
    defaults = dict(variant=variant, num_layers=2, num_heads=2, num_experts=2,
                    d_model=8, d_ff=16, vocab_size=12, max_len=8, dropout=0.0, seed=3)
    defaults.update(kw)
    return ModelConfig(**defaults)


def closed_form_count(cfg: ModelConfig) -> dict:
    """Parameter count written directly from the architecture definition,
    independent of model.parameters()."""
    d, f, heads = cfg.d_model, cfg.d_ff, cfg.num_heads
    d_k = d // heads
    embeddings = cfg.vocab_size * d + cfg.max_len * d
    mha = 3 * heads * d * d_k + (heads * d_k * d + d)
    norms = 2 * (2 * d)
    ffn = d * f + f + f * d + d
    gate = d * cfg.num_experts + cfg.num_experts
    if cfg.variant == "dense":
        block = mha + norms + ffn
    else:
        block = mha + norms + gate + cfg.num_experts * ffn
    head = d * NUM_CLASSES + NUM_CLASSES
    total = embeddings + cfg.num_layers * block + head
    return {"total": total, "core": total - cfg.vocab_size * d,
            "ffn": ffn, "gate": gate}


def zero_all_parameters(model: EncoderModel) -> None:
    for _, p in model.parameters():
        p.data = np.zeros_like(p.data)


class TestForward:
    def test_zero_network_returns_head_bias(self):
        model = EncoderModel.build(tiny_config())
        zero_all_parameters(model)
        model.head.bias.data = np.array([0.7, -0.3])
        for ids in (np.array([[2]]), np.array([[3, 4, 5], [6, 7, 0]])):
            result = model.forward(ids, ids != 0)
            np.testing.assert_allclose(
                result.logits.data, np.tile([0.7, -0.3], (len(ids), 1)), atol=1e-12
            )

    def test_dense_variant_zero_aux(self):
        model = EncoderModel.build(tiny_config("dense"))
        result = model.forward(np.array([[2, 3]]), np.array([[True, True]]))
        assert total_loss(result, np.array([1]), 0.01)[2].item() == 0.0
        assert result.routing == []

    def test_hidden_states_per_layer(self):
        model = EncoderModel.build(tiny_config(num_layers=3))
        result = model.forward(np.array([[2, 3, 4]]), np.ones((1, 3), bool))
        assert len(result.hidden) == 3
        assert all(h.shape == (3, 8) for h in result.hidden)
        # Packed: only the 5 real tokens of a padded [2, 3] batch.
        ids = np.array([[2, 3, 4], [5, 6, 0]])
        assert all(h.shape == (5, 8) for h in model.forward(ids, ids != 0).hidden)

    def test_blocks_compute_on_real_tokens_only(self, monkeypatch):
        import switchtext.model as model_module

        seen = []

        def spy(fn):
            def wrapped(x, p):
                seen.append((fn.__name__, x.shape))
                return fn(x, p)
            return wrapped

        monkeypatch.setattr(model_module, "position_wise_ffn", spy(model_module.position_wise_ffn))
        monkeypatch.setattr(model_module, "layer_norm", spy(model_module.layer_norm))
        model = EncoderModel.build(tiny_config(num_layers=2))
        ids = np.array([[2, 3, 4, 5], [6, 7, 0, 0], [8, 0, 0, 0]])
        mask = ids != 0
        model.forward(ids, mask, training=True)
        assert sorted({name for name, _ in seen}) == ["layer_norm", "position_wise_ffn"]
        assert len(seen) == 6  # 2 layer norms and 1 FFN per block
        assert all(shape == (mask.sum(), 8) for _, shape in seen)

    def test_empty_batch_rejected(self):
        model = EncoderModel.build(tiny_config())
        with pytest.raises(ContractError):
            model.forward(np.zeros((2,), dtype=int), np.ones(2, bool))

    def test_mask_of_another_shape_rejected(self):
        model = EncoderModel.build(tiny_config())
        ids = np.array([2, 3, 4])
        for mask in (np.ones((1, 4), bool), np.ones((2, 3), bool), np.ones((1, 1, 3), bool)):
            with pytest.raises(ContractError, match="pad mask shape"):
                model.forward(ids[None, :], mask)
        for mask in (np.ones(4, bool), np.ones((1, 3), bool)):  # one example's mask is [len]
            with pytest.raises(ContractError, match="pad mask shape"):
                integrated_gradients(model, ids, mask, target_class=1, num_steps=8)

    def test_mask_rows_that_are_not_real_token_prefixes_rejected(self):
        model = EncoderModel.build(tiny_config())
        entry_points = {
            "forward": lambda row: model.forward(np.array([[2, 3, 4, 5]]), np.array([row])),
            "integrated_gradients": lambda row: integrated_gradients(
                model, np.array([2, 3, 4, 5]), np.array(row), target_class=1, num_steps=8)}
        for name, call in entry_points.items():
            for row, match in (([True, False, True, True], "prefix"),
                               ([False, True, True, True], "prefix"),
                               ([False] * 4, "at least one real token")):
                with pytest.raises(ContractError, match=match):
                    call(row)
                    pytest.fail(f"{name} took the mask row {row}")
        with pytest.raises(ContractError, match="at least one real token"):
            model.forward(np.array([[2, 3], [4, 0]]), np.array([[True, True], [False, False]]))

    def test_sequences_of_no_tokens_rejected(self):
        model = EncoderModel.build(tiny_config())
        with pytest.raises(ContractError, match="non-empty"):
            model.forward(np.zeros((1, 0), dtype=int), np.ones((1, 0), bool))

    @pytest.mark.parametrize("variant", ["dense", "switch"])
    def test_forward_from_embedded_rows_matches_forward(self, variant):
        model = EncoderModel.build(tiny_config(variant))
        ids = np.array([[2, 3, 4, 0], [5, 6, 0, 0], [7, 0, 0, 0]])
        lengths = np.array([3, 2, 1])
        rows = embed(ids, lengths, model.embeddings)
        assert rows.shape == (lengths.sum(), model.config.d_model)
        logits = model.forward_from_embeddings(rows, lengths).logits.data
        assert logits.tobytes() == model.forward(ids, ids != 0).logits.data.tobytes()

    def test_forward_from_embeddings_needs_one_row_per_real_token(self):
        model = EncoderModel.build(tiny_config())
        lengths = np.array([2, 1])
        for shape in [(2, 8), (4, 8), (2, 3, 8)]:  # 3 real tokens, in rows of width 8
            with pytest.raises(ContractError, match="one per real token"):
                model.forward_from_embeddings(Tensor(np.ones(shape)), lengths)

    def test_switch_single_expert_matches_dense(self):
        dense = EncoderModel.build(tiny_config("dense"))
        switch = EncoderModel.build(tiny_config("switch", num_experts=1))
        by_name = dict(switch.parameters())
        for name, p in dense.parameters():
            twin = by_name[name.replace(".mixer.", ".mixer.experts.")]
            twin.data = p.data.reshape(twin.shape).copy()
        ids = np.array([[2, 3, 4, 0], [5, 6, 0, 0]])
        mask = ids != 0
        out_dense = dense.forward(ids, mask).logits.data
        out_switch = switch.forward(ids, mask).logits.data
        np.testing.assert_allclose(out_switch, out_dense, atol=1e-10)

    def test_padding_invariance(self):
        labels = np.array([1, 0])
        for variant in ("dense", "switch"):
            model = EncoderModel.build(tiny_config(variant))  # dropout 0
            ids = np.array([[2, 3, 4], [5, 6, 0]])
            padded = np.array([[2, 3, 4, 0, 0], [5, 6, 0, 0, 0]])
            base = model.forward(ids, ids != 0).logits.data
            extended = model.forward(padded, padded != 0).logits.data
            np.testing.assert_allclose(extended, base, atol=1e-10)
            # Training-mode parameter gradients do not see the extra PADs.
            grads = []
            for batch in (ids, padded):
                for _, p in model.parameters():
                    p.grad = None
                with T.Tape() as tape:
                    result = model.forward(batch, batch != 0, training=True)
                    loss = total_loss(result, labels, 0.01)[0]
                tape.backward(loss)
                grads.append({name: p.grad for name, p in model.parameters()})
            for name, g in grads[0].items():
                np.testing.assert_allclose(grads[1][name], g, rtol=0, atol=1e-12, err_msg=name)

    def test_forward_reads_its_settings_from_the_config(self):
        # The containers hold no copy of a setting, so an edit to the config
        # is what the next forward uses.
        model = EncoderModel.build(tiny_config("switch", capacity_factor=1.0))
        ids = rng.integers(2, 12, size=(3, 8))
        halved = model.forward(ids, ids != 0, training=True).routing
        assert all(r.capacity == r.num_tokens // 2 for r in halved)
        model.config.capacity_factor = 2.0  # = num_experts: every token is served
        served = model.forward(ids, ids != 0, training=True).routing
        assert all(r.capacity == r.num_tokens for r in served)

    def test_config_validation_lists_violations(self):
        bad = ModelConfig(variant="both", d_model=7, num_heads=2, dropout=1.5,
                          d_ff=4, vocab_size=1)
        problems = bad.violations()
        assert len(problems) >= 4
        with pytest.raises(ConfigError):
            bad.validate()


def _parameters(node, prefix=""):
    """(qualified name, parameter names) of every function and lambda under
    ``node``; class and function names prefix the names nested in them."""
    for child in ast.iter_child_nodes(node):
        scope = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        name = prefix + (child.name if scope else "<lambda>")
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = child.args
            named = a.posonlyargs + a.args + a.kwonlyargs + [x for x in (a.vararg, a.kwarg) if x]
            yield name, [arg.arg for arg in named]
        yield from _parameters(child, name + "." if scope else prefix)


def test_only_the_entry_points_take_a_mask():
    """The padded [batch, len] layout stops at the public entry points and
    the function that turns a mask into lengths; every layer below takes
    ``lengths``."""
    takers = []
    for path in sorted(Path(switchtext.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        takers += [(path.name, name) for name, params in _parameters(tree)
                   if any("mask" in param for param in params)]
    assert takers == [("data.py", "mask_lengths"), ("interpret.py", "integrated_gradients"),
                      ("model.py", "EncoderModel.forward")]


def _config_error_sites(node, scope=""):
    """The qualified name of the function around each ``raise ConfigError``
    under ``node``, once per raise."""
    for child in ast.iter_child_nodes(node):
        if (isinstance(child, ast.Raise) and isinstance(child.exc, ast.Call)
                and ast.unparse(child.exc.func) == "ConfigError"):
            yield scope
        named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        yield from _config_error_sites(child, f"{scope}.{child.name}".lstrip(".") if named else scope)


def test_each_range_rule_is_checked_at_one_boundary():
    """The configs' ``violations()`` hold the range rules, and components take
    validated arguments.  The sites left check input that reaches them
    without a config: CLI arguments, files, public functions' own arguments,
    and a ``model.config`` edited after the build (``switch_forward``,
    ``dropout``).  A new site says why the configs cannot hold its rule."""
    sites = sorted((path.stem, scope)
                   for path in Path(switchtext.__file__).parent.glob("*.py")
                   for scope in _config_error_sites(ast.parse(path.read_text(encoding="utf-8"))))
    assert sites == [
        ("cli", "_make_output_dir"), *[("cli", "_merged_config")] * 3, ("cli", "cmd_gen_data"),
        ("cli", "resolve_train_config"),
        ("data", "build_vocab"), ("data", "class_weights"), *[("data", "generate_synthetic_corpus")] * 3,
        ("data", "write_artifact"),
        ("interpret", "_attribute_each"), ("interpret", "_baseline_embedding"),
        ("interpret", "path_integrated_gradients"), ("interpret", "rank_misclassified"),
        ("layers", "init_weight"),
        *[("model", "ModelSettings.from_dict")] * 3, ("model", "ModelSettings.validate"),
        ("model", "export_hidden_embeddings"),
        ("moe", "switch_forward"),
        ("optim", "cosine_warmup_lr"),
        ("tensor", "dropout"), ("tensor", "finite_difference_check"),
        ("training", "clear_manifest"), ("training", "evaluate"),
    ]


def test_settable_values_are_pinned():
    """Every annotated dataclass field and every defaulted parameter in the
    package is a value a caller can set.  A change that adds one raises this
    pin and says why."""
    count = 0
    for path in sorted(Path(switchtext.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef) and any(
                    "dataclass" in ast.unparse(d) for d in node.decorator_list):
                count += sum(isinstance(stmt, ast.AnnAssign) for stmt in node.body)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                count += len(node.args.defaults) + sum(
                    d is not None for d in node.args.kw_defaults)
    assert count == 159


class TestParameterCount:
    @pytest.mark.parametrize("variant", ["dense", "switch"])
    def test_matches_closed_form_exactly(self, variant):
        cfg = tiny_config(variant, num_layers=3, num_heads=4, d_model=16,
                          d_ff=32, num_experts=3, vocab_size=40, max_len=10)
        model = EncoderModel.build(cfg)
        total = sum(p.size for _, p in model.parameters())
        expected = closed_form_count(cfg)
        assert total == expected["total"] == parameter_count(cfg)
        assert total - model.embeddings.table.size == expected["core"]

    def test_linear_and_norm_item_counts(self):
        cfg = tiny_config("dense", d_model=8)
        items = {name: p.size for name, p in EncoderModel.build(cfg).parameters()}
        assert items["blocks.0.norm1.gamma"] + items["blocks.0.norm1.beta"] == 16
        assert items["head.weight"] + items["head.bias"] == 8 * 2 + 2

    def test_names_follow_the_parameter_tree(self):
        model = EncoderModel.build(tiny_config("switch", num_layers=1, num_experts=2))
        experts = [f"blocks.0.mixer.experts.lin{i}.{k}" for i in (1, 2) for k in ("weight", "bias")]
        assert [name for name, _ in model.parameters()] == [
            "embeddings.table", "embeddings.positional",
            "blocks.0.mha.wqkv", "blocks.0.mha.wo.weight", "blocks.0.mha.wo.bias",
            "blocks.0.norm1.gamma", "blocks.0.norm1.beta",
            "blocks.0.mixer.gate.weight", "blocks.0.mixer.gate.bias", *experts,
            "blocks.0.norm2.gamma", "blocks.0.norm2.beta",
            "head.weight", "head.bias",
        ]
        shapes = {name: p.shape for name, p in model.parameters()}
        assert [shapes[name] for name in experts] == [(2, 8, 16), (2, 16), (2, 16, 8), (2, 8)]

    @pytest.mark.parametrize("variant", ["dense", "switch"])
    def test_containers_hold_tensors_lists_and_containers_only(self, variant):
        def check(node, name):
            items = (enumerate(node) if isinstance(node, list)
                     else [(f.name, getattr(node, f.name)) for f in fields(node)])
            for key, child in items:
                assert isinstance(child, (Tensor, list)) or is_dataclass(child), f"{name}.{key}"
                if not isinstance(child, Tensor):
                    check(child, f"{name}.{key}")

        model = EncoderModel.build(tiny_config(variant))
        for name in ("embeddings", "blocks", "head"):
            check(getattr(model, name), name)

    def test_switch_minus_dense_identity(self):
        common = dict(num_layers=4, num_heads=4, d_model=16, d_ff=64,
                      vocab_size=50, max_len=12, num_experts=4)
        dense = parameter_count(tiny_config("dense", **common))
        switch = parameter_count(tiny_config("switch", **common))
        forms = closed_form_count(tiny_config("switch", **common))
        expected_diff = common["num_layers"] * (
            (common["num_experts"] - 1) * forms["ffn"] + forms["gate"]
        )
        assert switch - dense == expected_diff


class TestEndToEndGradients:
    @pytest.mark.parametrize("variant", ["dense", "switch"])
    def test_loss_gradients(self, variant):
        cfg = tiny_config(variant, num_layers=2, num_heads=2, d_model=8, d_ff=16,
                          vocab_size=10, max_len=4, capacity_factor=8.0, seed=6)
        model = EncoderModel.build(cfg)
        ids = np.array([[2, 3, 4, 0], [5, 6, 0, 0]])
        mask = ids != 0
        labels = np.array([1, 0])

        def make_loss():
            result = model.forward(ids, mask, training=True)
            return total_loss(result, labels, 0.01)[0]

        targets = [
            (model.embeddings, "table"), (model.embeddings, "positional"),
            (model.blocks[0].mha, "wqkv"), (model.blocks[1].mha.wo, "weight"),
            (model.blocks[0].norm1, "gamma"), (model.blocks[1].norm2, "beta"),
            (model.head, "weight"), (model.head, "bias"),
        ]
        if variant == "switch":
            targets += [
                (model.blocks[0].mixer.gate, "weight"),
                (model.blocks[0].mixer.experts.lin1, "weight"),
                (model.blocks[1].mixer.experts.lin2, "bias"),
            ]
        else:
            targets += [
                (model.blocks[0].mixer.lin1, "weight"),
                (model.blocks[1].mixer.lin2, "bias"),
            ]
        check_many_params(make_loss, targets)


class TestTapeMemory:
    """Bytes a training tape holds between forward+loss and backward."""

    # Measured on the model and batch below (7.07e6 and 7.77e6 bytes), plus
    # about 5% headroom.  A tape node that keeps arrays its backward rule
    # does not read (an operand held only for its shape, a float64 dropout
    # mask) exceeds them: such nodes held 10.9e6 and 9.9e6 bytes.
    BOUND = {"dense": 7_420_000, "switch": 8_150_000}

    @staticmethod
    def held_bytes(variant: str) -> int:
        model = EncoderModel.build(tiny_config(variant, num_heads=4, num_experts=4, d_model=64,
                                               d_ff=256, vocab_size=200, max_len=48,
                                               dropout=0.35, seed=1))
        gen = np.random.default_rng(0)
        lengths = gen.integers(4, 41, size=16)
        ids = np.zeros((16, lengths.max()), dtype=np.int64)
        for i, n in enumerate(lengths):
            ids[i, :n] = gen.integers(2, 200, size=n)
        labels = gen.integers(0, 2, size=16)
        for _ in range(2):  # the first pass warms lazy caches, the second is measured
            tracemalloc.start()
            with Tape() as tape:
                result = model.forward(ids, ids != 0, training=True)
                loss = total_loss(result, labels, 0.01)[0]
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.stop()
            tape.backward(loss)
        return held

    @pytest.mark.parametrize("variant", ["dense", "switch"])
    def test_training_tape_holds_only_what_backward_reads(self, variant):
        assert self.held_bytes(variant) < self.BOUND[variant]


class TestTapeNodes:
    """Nodes a d32 training forward plus its loss records: one per affine map
    and one per FFN, dense or routed (dispatch, experts and combine)."""

    @pytest.mark.parametrize("variant,nodes", [("dense", (33, 33)), ("switch", (48, 48))])
    def test_training_pass_node_count(self, variant, nodes):
        model = EncoderModel.build(tiny_config(variant, num_experts=4, d_model=32, d_ff=64,
                                               vocab_size=50, max_len=16, dropout=0.2, seed=5))
        gen = np.random.default_rng(0)
        lengths = gen.integers(3, 17, size=16)
        ids = np.zeros((16, 16), dtype=np.int64)
        for i, n in enumerate(lengths):
            ids[i, :n] = gen.integers(2, 50, size=n)
        counts = []
        for batch in (ids, ids[:1, :lengths[0]]):  # 16 padded notes, then one note
            with Tape() as tape:
                result = model.forward(batch, batch != 0, training=True)
                total_loss(result, np.zeros(len(batch), int), 0.01)
            counts.append(len(tape._nodes))
        assert tuple(counts) == nodes

    def test_inference_pass_records_no_loss_term(self):
        # The batch-1 pass integrated gradients records at each path point.
        # The forward builds no loss term: 10 nodes per switch block and 5
        # outside the blocks, the logit pick included.
        model = EncoderModel.build(tiny_config("switch", num_experts=4, d_model=32, d_ff=64,
                                               vocab_size=50, max_len=16, dropout=0.2, seed=5))
        ids = np.array([[4, 22, 31, 9, 15, 27, 38, 10, 19]])
        lengths = np.array([9])
        probe = Tensor(embed(ids, lengths, model.embeddings).data, requires_grad=True)
        with Tape(wrt=[probe]) as tape:
            result = model.forward_from_embeddings(probe, lengths)
            T.sum_(T.take_rows(result.logits, (np.array([0]), np.array([1]))))
        assert len(tape._nodes) == 25


class TestHiddenExport:
    def make_rows(self, model, n=5):
        gen = np.random.default_rng(0)
        rows = []
        for i in range(n):
            length = int(gen.integers(2, 6))
            ids = gen.integers(2, model.config.vocab_size, size=length)
            rows.append(EncodedExample(example_id=i, ids=ids, label=int(gen.integers(0, 2))))
        return rows

    def test_layer_out_of_range_names_limit(self, tmp_path):
        model = EncoderModel.build(tiny_config(num_layers=2))
        with pytest.raises(ConfigError, match="num_layers=2"):
            export_hidden_embeddings(model, self.make_rows(model), 2, tmp_path / "h.tsv")

    def test_record_count_and_determinism(self, tmp_path):
        model = EncoderModel.build(tiny_config(num_layers=2))
        rows = self.make_rows(model, n=7)
        path_a = tmp_path / "a.tsv"
        path_b = tmp_path / "b.tsv"
        assert export_hidden_embeddings(model, rows, 1, path_a) == 7
        export_hidden_embeddings(model, rows, 1, path_b)
        assert path_a.read_bytes() == path_b.read_bytes()
        lines = path_a.read_text().strip().split("\n")
        assert len(lines) == 8  # header + 7 records
        assert lines[0].startswith("example_id\tlabel\th0")


class TestCheckpoint:
    def test_roundtrip_bit_exact_logits(self, tmp_path):
        from switchtext.data import build_vocab

        model = EncoderModel.build(tiny_config("switch"))
        vocab = build_vocab(["un deux trois", "deux trois quatre"], min_frequency=1)
        path = tmp_path / "model.ckpt"
        digest = save_checkpoint(path, model, vocab, extra={"note": "t"})
        assert digest == file_digest(path)
        restored, vocab2, extra = load_checkpoint(path)
        assert extra["note"] == "t"
        assert vocab2.id_to_token == vocab.id_to_token
        ids = np.array([[2, 3, 4, 5, 0]])
        mask = ids != 0
        np.testing.assert_array_equal(
            model.forward(ids, mask).logits.data,
            restored.forward(ids, mask).logits.data,
        )

    def test_load_draws_no_initialization(self, tmp_path, monkeypatch):
        model = EncoderModel.build(tiny_config("switch"))
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model)

        class NoDraw(np.random.Generator):
            def normal(self, *args, **kwargs):  # the draw inside init_weight
                raise AssertionError("a checkpoint load drew a random initialization")

        default_rng = np.random.default_rng
        monkeypatch.setattr(np.random, "default_rng",
                            lambda seed=None: NoDraw(default_rng(seed).bit_generator))
        with pytest.raises(AssertionError, match="drew"):
            EncoderModel.build(tiny_config("switch"))
        restored, _, _ = load_checkpoint(path)
        by_name = dict(restored.parameters())
        for name, p in model.parameters():
            np.testing.assert_array_equal(by_name[name].data, p.data, err_msg=name)

    def test_save_is_deterministic(self, tmp_path):
        model = EncoderModel.build(tiny_config())
        d1 = save_checkpoint(tmp_path / "a.ckpt", model)
        d2 = save_checkpoint(tmp_path / "b.ckpt", model)
        assert d1 == d2
        assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOTACKPT" + b"\x00" * 64)
        with pytest.raises(CompatibilityError):
            load_checkpoint(path)

    def saved(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, EncoderModel.build(tiny_config()))
        raw = path.read_bytes()
        (blob_len,) = struct.unpack("<Q", raw[8:16])
        return path, raw, blob_len

    @pytest.mark.parametrize("part", ["header_length", "header", "payload", "trailer"])
    def test_truncated_file_rejected(self, tmp_path, part):
        path, raw, blob_len = self.saved(tmp_path)
        keep = {"header_length": 12, "header": 16 + blob_len - 1, "payload": len(raw) - 35,
                "trailer": len(raw) - 3}[part]
        path.write_bytes(raw[:keep])
        with pytest.raises(CompatibilityError, match="truncated"):
            load_checkpoint(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path, raw, _ = self.saved(tmp_path)
        path.write_bytes(raw + b"\x00")
        with pytest.raises(CompatibilityError, match="after its last parameter"):
            load_checkpoint(path)

    def rewrite(self, path, raw, blob_len, edit_header, payload_end=None, sign=False):
        """Write ``raw`` with an edited header, its bytes from ``payload_end``
        on cut, and with ``sign`` a new sha256 trailer."""
        header = json.loads(raw[16:16 + blob_len])
        edit_header(header)
        blob = json.dumps(header).encode("utf-8")
        body = CHECKPOINT_MAGIC + struct.pack("<Q", len(blob)) + blob + raw[16 + blob_len:payload_end]
        path.write_bytes(body + (hashlib.sha256(body).digest() if sign else b""))

    def test_missing_parameter_rejected(self, tmp_path):
        path, raw, blob_len = self.saved(tmp_path)
        # head.bias is the last tensor: drop its header entry and its 2 floats,
        # which sit before the 32-byte trailer, and sign what is left.
        self.rewrite(path, raw, blob_len, lambda h: h["params"].pop(), payload_end=-48, sign=True)
        n = parameter_count(tiny_config())
        with pytest.raises(CompatibilityError, match=f"lacks model parameters: they hold {n - 2} "
                                                     f"scalars, its config describes {n}"):
            load_checkpoint(path)

    @pytest.mark.parametrize("num_layers", [1, 3, 20_000])
    def test_header_asking_for_another_model_is_rejected_before_building(
            self, tmp_path, monkeypatch, num_layers):
        # A re-signed header naming another layer count: the parameter specs
        # and the file no longer fit the config, so nothing is built.
        path, raw, blob_len = self.saved(tmp_path)
        self.rewrite(path, raw, blob_len, lambda h: h["config"].update(num_layers=num_layers),
                     payload_end=-32, sign=True)

        def build(*args, **kwargs):
            raise AssertionError("load_checkpoint built a model")

        monkeypatch.setattr(EncoderModel, "build", build)
        with pytest.raises(CompatibilityError, match="config describes") as caught:
            load_checkpoint(path)
        assert EXIT_CODES[caught.value.category] == 5

    def test_permuted_parameters_rejected(self, tmp_path):
        # Re-signed with the gamma and beta entries of a norm swapped: every
        # name and shape is the model's, but the payload follows the walk
        # order, so a load by name would give each the other's values.
        path, raw, blob_len = self.saved(tmp_path)

        def swap(header):
            specs = header["params"]
            assert [s["name"] for s in specs[5:7]] == ["blocks.0.norm1.gamma",
                                                       "blocks.0.norm1.beta"]
            specs[5], specs[6] = specs[6], specs[5]

        self.rewrite(path, raw, blob_len, swap, payload_end=-32, sign=True)
        with pytest.raises(CompatibilityError, match="walk: it has .'blocks.0.norm1.beta'"):
            load_checkpoint(path)

    def test_invalid_config_in_header_is_a_compatibility_error(self, tmp_path):
        path, raw, blob_len = self.saved(tmp_path)
        self.rewrite(path, raw, blob_len, lambda h: h["config"].update(dropout=2.0))
        with pytest.raises(CompatibilityError, match="dropout must be in"):
            load_checkpoint(path)

    def test_version_1_rejected(self, tmp_path):
        # Versions 1 (per-head attention names), 2 (a dense_moe config key),
        # 3 (one set of tensors per expert), 4 (no sha256 trailer; config
        # keys num_classes, layer_norm_eps and aux_loss_weight) and 5
        # (separate wq, wk and wv maps; a pooling config key) predate the
        # current format.
        path, raw, blob_len = self.saved(tmp_path)
        for version in (1, 2, 3, 4, 5):
            self.rewrite(path, raw, blob_len, lambda h: h.update(format_version=version))
            with pytest.raises(CompatibilityError, match=f"format version {version} in .*retrain"):
                load_checkpoint(path)

    def test_trailer_is_the_sha256_of_every_byte_before_it(self, tmp_path):
        path, raw, _ = self.saved(tmp_path)
        assert raw[-32:] == hashlib.sha256(raw[:-32]).digest()

    @pytest.mark.parametrize("region", ["header", "payload", "trailer"])
    def test_flipped_byte_rejected(self, tmp_path, region):
        path, raw, blob_len = self.saved(tmp_path)
        lo, hi = {"header": (0, 16 + blob_len), "payload": (16 + blob_len, len(raw) - 32),
                  "trailer": (len(raw) - 32, len(raw))}[region]
        gen = np.random.default_rng(16)
        for _ in range(8):
            flipped = bytearray(raw)
            flipped[gen.integers(lo, hi)] ^= int(gen.integers(1, 256))
            path.write_bytes(bytes(flipped))
            with pytest.raises(CompatibilityError,
                               match=None if region == "header" else "sha256 trailer"):
                load_checkpoint(path)

    def test_header_edit_that_stays_valid_fails_the_trailer(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, EncoderModel.build(tiny_config()), extra={"note": "t"})
        path.write_bytes(path.read_bytes().replace(b'"note": "t"', b'"note": "u"'))
        with pytest.raises(CompatibilityError, match="do not match their sha256 trailer"):
            load_checkpoint(path)
