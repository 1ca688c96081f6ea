"""Pinned sha256 digests of logits, parameter gradients and IG scores.

The other tests compare reruns of one build and check gradients to 1e-4, so
a refactor that moves a result by one unit in the last place passes them.
These digests pin the exact bits of fresh d32 dense and switch models for
fixed seeds: logits at inference, and logits plus every parameter gradient
of a training forward (dropout on) and its loss, on a padded batch and on a
batch-1 sequence; the inference logits of the padded batch on their own, so
a move in them cannot hide behind a move in the training bits; the IG scores of one switch example; the inference
logits of a switch batch that leaves one expert without a token; and the
best checkpoint of a short switch ``train()``, which pins the optimizer's
output bits through accumulation, clipping and early stopping.

They hold for numpy 2.4.6 linked against OpenBLAS 0.3.31 (the scipy-openblas
wheel build, DYNAMIC_ARCH, running its SkylakeX kernels on an AVX-512 x86-64
CPU) with one BLAS thread, as ``conftest.py`` pins it.  Another numpy or
BLAS build, or another CPU kernel, may round differently and needs its own
digests.  A change that moves any of them must say in CHANGES.md why its
results differ.
"""

import hashlib

import numpy as np
import pytest

from switchtext import EncoderModel, ModelConfig, RunConfig, Tape, generate_synthetic_corpus
from switchtext.interpret import integrated_gradients
from switchtext.training import total_loss, train

BATCHES = {
    "padded": (np.array([[5, 9, 13, 2, 40, 7, 0, 0],
                         [3, 0, 0, 0, 0, 0, 0, 0],
                         [11, 12, 14, 18, 21, 33, 44, 6],
                         [8, 17, 25, 0, 0, 0, 0, 0]]), np.array([1, 0, 1, 0])),
    "batch1": (np.array([[4, 22, 31, 9, 15, 27, 38, 10, 19]]), np.array([1])),
}

EXPECTED = {
    ("dense", "padded"):
        "30f447abe0619c77fc7dbea69f2fbf270d46238fd14b6d05a11d6ec2a6a6ad31",
    ("dense", "batch1"):
        "2eba79eb06c9930c8a65afdc2d438df25f8a77f20f4eee1f2d6108acf9924493",
    ("switch", "padded"):
        "ecb5bb824b9dbed7748a8011d840cc15af38c877712ade693d796280d946dacc",
    ("switch", "batch1"):
        "efb8a0e2d9d2934b09171925ce1a454c4df7b02d300a6d9f2d02c8503ad59f61",
}
EXPECTED_PADDED_INFERENCE = {
    "dense": "81e49e999af1de89a43434ddc6aa972de0b4295b96675c99a56be606c39bcfcc",
    "switch": "cf5d1aa8c425bd3798294891edbf4466137a293181ce0092b844762479df7075",
}
EXPECTED_IG = "ca9191f45bea11641b6eefc6fd0f64270e1da12c8864fa4f3b4c6910c1bcd6f2"

# An inference batch whose second layer routes every token to expert 0, so
# expert 1 serves an empty row group.
EMPTY_EXPERT_IDS = np.array([[41, 34, 2, 0, 0, 0], [3, 38, 37, 0, 0, 0], [43, 0, 0, 0, 0, 0]])
EXPECTED_EMPTY_EXPERT = "95d4cd7da1bccfc2bb67c4b09c63b15db68a4fc2226374ff70ffc6ae730377fc"

# Two epochs of ten steps, two micro-batches a step; the gradient norm is
# clipped on 7 of the 10 steps, and epoch 2 is the best epoch restored.
EXPECTED_TRAINED_CHECKPOINT = "e0a2e48b0615082f23c63a639f51f9b07ccf9befa3b7317cdee26d230708f556"


def d32_model(variant: str) -> EncoderModel:
    return EncoderModel.build(ModelConfig(
        variant=variant, num_layers=2, num_heads=2, num_experts=2, d_model=32, d_ff=64,
        vocab_size=50, max_len=16, dropout=0.2, seed=13))


def pass_digest(variant: str, batch: str) -> str:
    model = d32_model(variant)
    ids, labels = BATCHES[batch]
    mask = ids != 0
    digest = hashlib.sha256(model.forward(ids, mask).logits.data.tobytes())
    with Tape() as tape:
        result = model.forward(ids, mask, training=True)
        loss = total_loss(result, labels, 0.01)[0]
    tape.backward(loss)
    digest.update(result.logits.data.tobytes())
    for name, p in model.parameters():
        digest.update(name.encode() + (b"-" if p.grad is None else p.grad.tobytes()))
    return digest.hexdigest()


@pytest.mark.parametrize("variant,batch", sorted(EXPECTED))
def test_logits_and_gradients_keep_their_bits(variant, batch):
    assert pass_digest(variant, batch) == EXPECTED[(variant, batch)]


@pytest.mark.parametrize("variant", sorted(EXPECTED_PADDED_INFERENCE))
def test_padded_inference_logits_keep_their_bits(variant):
    ids = BATCHES["padded"][0]
    logits = d32_model(variant).forward(ids, ids != 0).logits.data
    assert hashlib.sha256(logits.tobytes()).hexdigest() == EXPECTED_PADDED_INFERENCE[variant]


def test_integrated_gradients_keep_their_bits():
    ids = BATCHES["batch1"][0][0]
    report = integrated_gradients(d32_model("switch"), ids, ids != 0, target_class=1,
                                  num_steps=16)
    assert hashlib.sha256(report.scores.tobytes()).hexdigest() == EXPECTED_IG


def test_inference_with_an_empty_expert_keeps_its_bits():
    ids = EMPTY_EXPERT_IDS
    result = d32_model("switch").forward(ids, ids != 0)
    assert [record.counts.tolist() for record in result.routing] == [[6, 1], [7, 0]]
    assert hashlib.sha256(result.logits.data.tobytes()).hexdigest() == EXPECTED_EMPTY_EXPERT


def test_trained_checkpoint_keeps_its_bits(tmp_path):
    config = RunConfig(variant="switch", num_layers=2, num_heads=2, num_experts=2, d_model=32,
                       d_ff=64, max_len=32, dropout=0.2, seed=3, epochs=2, batch_size=8,
                       grad_accumulation=2, peak_lr=2e-3, grad_clip=2.0, early_stopping=True,
                       patience=2, min_frequency=1)
    corpus = generate_synthetic_corpus(96, positive_fraction=0.4, noise=0.05, seed=21)
    result = train(config, corpus, out_dir=str(tmp_path), quiet=True)
    assert result.best_epoch == 2
    digest = hashlib.sha256((tmp_path / "best.ckpt").read_bytes()).hexdigest()
    assert digest == EXPECTED_TRAINED_CHECKPOINT
