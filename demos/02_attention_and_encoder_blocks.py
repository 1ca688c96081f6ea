"""What the attention stack computes: scaled dot-product weights, packed
rows with sequence lengths, the one query-key-value projection of
multi-head attention, and a full encoder forward pass.

Run:  python demos/02_attention_and_encoder_blocks.py
"""

import numpy as np

from switchtext import EncoderModel, ModelConfig, Tensor
from switchtext import tensor as T
from switchtext.attention import MultiHeadParams, multi_head_attention

rng = np.random.default_rng(1)

# --- scaled dot-product attention on a 3-token sequence ------------------
# T.attention takes packed [N, 3d] rows, each a token's query, key and
# value side by side, and a lengths vector (sequence i is the next
# lengths[i] rows); it returns packed [N, d] rows.
q = rng.standard_normal((3, 3))
k = rng.standard_normal((3, 3))
v = np.eye(3)

# With v = I and one head the output rows ARE the attention weights.
weights = T.attention(Tensor(np.hstack([q, k, v])), np.array([3]), num_heads=1)
print("attention weights (rows sum to 1):\n", np.round(weights.data, 4))
print("row sums:", weights.data.sum(axis=1))

# A second sequence of 2 real tokens: 5 packed rows in all.  Each sequence
# attends over its own rows only, so the other sequence's keys get exactly
# zero weight.
qk2 = rng.standard_normal((5, 10))
two = T.attention(Tensor(np.hstack([qk2, np.eye(5)])), np.array([3, 2]), num_heads=1)
print("\nweights over the 5 packed keys, lengths 3 and 2:\n", np.round(two.data, 4))

# --- multi-head attention over a packed batch ----------------------------
# EncoderModel.forward turns its [batch, len] padding mask into lengths
# once; below it the encoder carries only real tokens, as [N, d] rows.
# Inside, attention views each run of consecutive sequences of equal
# length as an unpadded [n, heads, len, d_k] grid.  The parameters are
# tensors only: one [d, 3d] query-key-value map (p.wqkv) and the output
# map.  The head count is a setting (ModelConfig.num_heads), passed to the
# forward, and fixes only the Glorot scale of the one q/k/v draw.
p = MultiHeadParams.create(d_model=8, num_heads=2, rng=np.random.default_rng(2))
print("\nquery-key-value map", p.wqkv.shape, "output map", p.wo.weight.shape)
grid = rng.standard_normal((2, 5, 8))
mask = np.array([[True] * 5, [True, True, True, False, False]])
x = Tensor(grid[mask])
out = multi_head_attention(x, p, mask.sum(axis=1), num_heads=2)
print("\npadded grid", grid.shape, "-> packed rows", x.shape, "-> multi-head output", out.shape)

# --- a whole encoder model ------------------------------------------------
config = ModelConfig(variant="dense", num_layers=2, num_heads=2, d_model=16,
                     d_ff=64, vocab_size=30, max_len=12, dropout=0.0, seed=4)
model = EncoderModel.build(config)
ids = rng.integers(2, 30, size=(2, 6))
ids[1, 4:] = 0  # pad the second sequence
result = model.forward(ids, ids != 0)
print("\nlogits:\n", result.logits.data)
print("hidden states per layer (10 real tokens of 12 positions):", [h.shape for h in result.hidden])

# Padding invariance: appending PAD tokens leaves the packed rows, and so
# the logits, exactly as they were.
padded = np.concatenate([ids, np.zeros((2, 3), dtype=ids.dtype)], axis=1)
delta = np.abs(model.forward(padded, padded != 0).logits.data - result.logits.data).max()
print("max logit change after appending PADs:", delta)
