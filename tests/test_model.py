"""Encoder model tests: zero-network sanity, variant equivalences, padding
invariance, parameter accounting against an independent closed form,
end-to-end gradient checks, hidden-state export, and checkpointing."""

import json
import struct

import numpy as np
import pytest

from helpers import check_many_params
from switchtext import ModelConfig, EncoderModel, Tensor, count_parameters
from switchtext import tensor as T
from switchtext.errors import CompatibilityError, ConfigError, ContractError
from switchtext.model import (CHECKPOINT_MAGIC, export_hidden_embeddings, file_digest,
                              load_checkpoint, save_checkpoint)
from switchtext.moe import SwitchParams
from switchtext.training import weighted_cross_entropy

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
    head = d * cfg.num_classes + cfg.num_classes
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
        assert result.aux_loss.item() == 0.0
        assert result.routing == []

    def test_hidden_states_per_layer(self):
        model = EncoderModel.build(tiny_config(num_layers=3))
        result = model.forward(np.array([[2, 3, 4]]), np.ones((1, 3), bool))
        assert len(result.hidden) == 3
        assert all(h.shape == (1, 3, 8) for h in result.hidden)

    def test_empty_batch_rejected(self):
        model = EncoderModel.build(tiny_config())
        with pytest.raises(ContractError):
            model.forward(np.zeros((2,), dtype=int), np.ones(2, bool))

    def test_switch_single_expert_matches_dense(self):
        dense = EncoderModel.build(tiny_config("dense"))
        switch = EncoderModel.build(tiny_config("switch", num_experts=1))
        by_name = dict(switch.parameters())
        for name, p in dense.parameters():
            twin = by_name[name.replace(".mixer.", ".mixer.experts.0.")]
            twin.data = p.data.copy()
        ids = np.array([[2, 3, 4, 0], [5, 6, 0, 0]])
        mask = ids != 0
        out_dense = dense.forward(ids, mask).logits.data
        out_switch = switch.forward(ids, mask).logits.data
        np.testing.assert_allclose(out_switch, out_dense, atol=1e-10)

    def test_padding_invariance(self):
        for variant in ("dense", "switch"):
            model = EncoderModel.build(tiny_config(variant))
            ids = np.array([[2, 3, 4], [5, 6, 0]])
            padded = np.array([[2, 3, 4, 0, 0], [5, 6, 0, 0, 0]])
            base = model.forward(ids, ids != 0).logits.data
            extended = model.forward(padded, padded != 0).logits.data
            np.testing.assert_allclose(extended, base, atol=1e-10)

    def test_first_token_pooling(self):
        model = EncoderModel.build(tiny_config(pooling="first"))
        ids = np.array([[2, 3, 4]])
        result = model.forward(ids, np.ones((1, 3), bool))
        pooled = model._pool(result.hidden[-1], np.ones((1, 3), bool))
        np.testing.assert_array_equal(pooled.data, result.hidden[-1].data[:, 0, :])

    def test_config_validation_lists_violations(self):
        bad = ModelConfig(variant="both", d_model=7, num_heads=2, dropout=1.5,
                          d_ff=4, vocab_size=1)
        problems = bad.violations()
        assert len(problems) >= 4
        with pytest.raises(ConfigError):
            bad.validate()


class TestParameterCount:
    @pytest.mark.parametrize("variant", ["dense", "switch"])
    def test_matches_closed_form_exactly(self, variant):
        cfg = tiny_config(variant, num_layers=3, num_heads=4, d_model=16,
                          d_ff=32, num_experts=3, vocab_size=40, max_len=10)
        report = count_parameters(EncoderModel.build(cfg))
        expected = closed_form_count(cfg)
        assert report.total == expected["total"]
        assert report.core_total == expected["core"]

    def test_linear_and_norm_item_counts(self):
        cfg = tiny_config("dense", d_model=8)
        report = count_parameters(EncoderModel.build(cfg))
        items = dict(report.items)
        assert items["blocks.0.norm1.gamma"] + items["blocks.0.norm1.beta"] == 16
        assert items["head.weight"] + items["head.bias"] == 8 * 2 + 2

    def test_names_follow_the_parameter_tree(self):
        model = EncoderModel.build(tiny_config("switch", num_layers=1, num_experts=2))
        experts = [f"blocks.0.mixer.experts.{e}.lin{i}.{k}"
                   for e in range(2) for i in (1, 2) for k in ("weight", "bias")]
        assert [name for name, _ in model.parameters()] == [
            "embeddings.table", "embeddings.positional",
            "blocks.0.mha.wq", "blocks.0.mha.wk", "blocks.0.mha.wv",
            "blocks.0.mha.wo.weight", "blocks.0.mha.wo.bias",
            "blocks.0.norm1.gamma", "blocks.0.norm1.beta",
            "blocks.0.mixer.gate.weight", "blocks.0.mixer.gate.bias", *experts,
            "blocks.0.norm2.gamma", "blocks.0.norm2.beta",
            "head.weight", "head.bias",
        ]

    def test_switch_minus_dense_identity(self):
        common = dict(num_layers=4, num_heads=4, d_model=16, d_ff=64,
                      vocab_size=50, max_len=12, num_experts=4)
        dense = count_parameters(EncoderModel.build(tiny_config("dense", **common)))
        switch = count_parameters(EncoderModel.build(tiny_config("switch", **common)))
        forms = closed_form_count(tiny_config("switch", **common))
        expected_diff = common["num_layers"] * (
            (common["num_experts"] - 1) * forms["ffn"] + forms["gate"]
        )
        assert switch.total - dense.total == expected_diff


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
            ce = weighted_cross_entropy(result.logits, labels)
            return T.add(ce, T.mul(result.aux_loss, 0.01))

        targets = [
            (model.embeddings, "table"), (model.embeddings, "positional"),
            (model.blocks[0].mha, "wq"), (model.blocks[1].mha.wo, "weight"),
            (model.blocks[0].norm1, "gamma"), (model.blocks[1].norm2, "beta"),
            (model.head, "weight"), (model.head, "bias"),
        ]
        if variant == "switch":
            targets += [
                (model.blocks[0].mixer.gate, "weight"),
                (model.blocks[0].mixer.experts[0].lin1, "weight"),
                (model.blocks[1].mixer.experts[1].lin2, "bias"),
            ]
        else:
            targets += [
                (model.blocks[0].mixer.lin1, "weight"),
                (model.blocks[1].mixer.lin2, "bias"),
            ]
        check_many_params(make_loss, targets)


class TestHiddenExport:
    def make_rows(self, model, n=5):
        gen = np.random.default_rng(0)
        rows = []
        for i in range(n):
            length = int(gen.integers(2, 6))
            ids = gen.integers(2, model.config.vocab_size, size=length)
            rows.append((i, ids, int(gen.integers(0, 2))))
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

    @pytest.mark.parametrize("part", ["header_length", "header", "payload"])
    def test_truncated_file_rejected(self, tmp_path, part):
        path, raw, blob_len = self.saved(tmp_path)
        keep = {"header_length": 12, "header": 16 + blob_len - 1, "payload": len(raw) - 3}[part]
        path.write_bytes(raw[:keep])
        with pytest.raises(CompatibilityError, match="truncated"):
            load_checkpoint(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path, raw, _ = self.saved(tmp_path)
        path.write_bytes(raw + b"\x00")
        with pytest.raises(CompatibilityError, match="after its last parameter"):
            load_checkpoint(path)

    def rewrite(self, path, raw, blob_len, edit_header, payload_end=None):
        header = json.loads(raw[16:16 + blob_len])
        edit_header(header)
        blob = json.dumps(header).encode("utf-8")
        path.write_bytes(CHECKPOINT_MAGIC + struct.pack("<Q", len(blob)) + blob
                         + raw[16 + blob_len:payload_end])

    def test_missing_parameter_rejected(self, tmp_path):
        path, raw, blob_len = self.saved(tmp_path)
        # head.bias is the last tensor: drop its header entry and its 2 floats.
        self.rewrite(path, raw, blob_len, lambda h: h["params"].pop(), payload_end=-16)
        with pytest.raises(CompatibilityError, match="lacks model parameters.*head.bias"):
            load_checkpoint(path)

    def test_version_1_rejected(self, tmp_path):
        # Versions 1 (per-head attention names) and 2 (a dense_moe config key)
        # both predate the current format.
        path, raw, blob_len = self.saved(tmp_path)
        for version in (1, 2):
            self.rewrite(path, raw, blob_len, lambda h: h.update(format_version=version))
            with pytest.raises(CompatibilityError, match=f"format version {version} in"):
                load_checkpoint(path)
