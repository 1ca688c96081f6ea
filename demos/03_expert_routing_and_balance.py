"""Top-1 expert routing in action: gate probabilities, capacity overflow,
the load-balancing loss, and why it matters.  The switch layer returns its
output and a routing record; the penalty is built from the record's mean
gate probabilities and dispatched counts, as the training loss builds it,
and each expert's utilization is its share of the routing choices,
``record.dispatched_counts() / record.num_tokens``.  The layer's parameters
are tensors only; the capacity factor is a setting
(``ModelConfig.capacity_factor``) that each ``switch_forward`` call takes.

Run:  python demos/03_expert_routing_and_balance.py
"""

import numpy as np

from switchtext import AdamW, Tape, Tensor
from switchtext import tensor as T
from switchtext.layers import named_tensors
from switchtext.moe import SwitchParams, load_balance_loss, switch_forward

rng = np.random.default_rng(7)


def balance_loss(record):
    """The penalty ``training.total_loss`` adds for one switch layer."""
    return load_balance_loss(T.mean(record.probs, axis=0), record.dispatched_counts())


# Route 12 tokens through 4 experts.
params = SwitchParams.create(d_model=8, d_ff=16, num_experts=4, rng=np.random.default_rng(3))
x = Tensor(rng.standard_normal((12, 8)))
out, record = switch_forward(x, params, training=True, capacity_factor=1.25)

print("chosen expert per token:", record.chosen)
print("gate probability of the chosen expert:",
      np.round(record.probs.data[np.arange(record.num_tokens), record.chosen], 3))
print("tokens served per expert:", record.counts,
      f"(capacity {record.capacity}, overflow {record.overflow})")
print("utilization:", np.round(record.dispatched_counts() / record.num_tokens, 3))
print("balance loss (1.0 = perfectly balanced):", round(balance_loss(record).item(), 4))

# Force everything to one expert: capacity bites, the rest pass through
# with zero expert contribution (the residual connection carries them).
params.gate.weight.data[:] = 0.0
params.gate.bias.data = np.array([4.0, -4.0, -4.0, -4.0])
out, record = switch_forward(x, params, training=True, capacity_factor=1.25)
print("\nafter rigging the gate toward expert 0:")
print("  served:", record.counts, "overflow:", record.overflow)
print("  balance loss:", round(balance_loss(record).item(), 4), "(rises with imbalance)")

# Train a 2-expert layer on tokens that are bimodal along one ray, so the
# initial routing winner takes every token.  The balance loss rescues it.
def train_layer(aux_weight, seed=1, steps=200):
    gen = np.random.default_rng(seed)
    direction = gen.standard_normal(8)
    direction /= np.linalg.norm(direction)
    tokens = np.concatenate([0.6 * direction + gen.normal(0, 0.1, (32, 8)),
                             1.8 * direction + gen.normal(0, 0.1, (32, 8))])
    targets = Tensor(np.maximum(0.0, tokens @ (gen.standard_normal((8, 8)) * 0.5)))
    layer = SwitchParams.create(8, 16, 2, gen)
    opt = AdamW(named_tensors(layer, "switch"))  # gate, then every expert
    record = None
    for _ in range(steps):
        with Tape() as tape:
            out, record = switch_forward(Tensor(tokens), layer, training=True, capacity_factor=4.0)
            diff = T.add(out, T.mul(targets, -1.0))
            loss = T.mean(T.mul(diff, diff))
            if aux_weight:
                loss = T.add(loss, T.mul(balance_loss(record), aux_weight))
        tape.backward(loss)
        opt.step(1e-2)
        opt.zero_grad()
    return record.dispatched_counts() / record.num_tokens

print("\ntraining without balance loss -> utilization",
      np.round(train_layer(aux_weight=0.0), 3), "(collapse)")
print("training with balance loss 0.05 -> utilization",
      np.round(train_layer(aux_weight=0.05), 3), "(shared)")
