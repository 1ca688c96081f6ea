"""Routed expert layer: a softmax gate over E expert FFNs with top-1
dispatch, per-expert capacity, and a load-balancing auxiliary loss.

Routing decisions (argmax, capacity cuts) are taken on raw values and held
fixed; gradients flow through the chosen gate probability and through the
expert computation.  Capacity cuts apply in training only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .attention import FfnParams, position_wise_ffn
from .errors import ConfigError, ContractError
from .layers import LinearParams, linear
from .tensor import Tensor


@dataclass
class SwitchParams:
    gate: LinearParams
    experts: list[FfnParams]
    capacity_factor: float = 1.25

    @property
    def num_experts(self) -> int:
        return len(self.experts)

    @staticmethod
    def create(
        d_model: int,
        d_ff: int,
        num_experts: int,
        rng: np.random.Generator,
        capacity_factor: float = 1.25,
    ) -> "SwitchParams":
        if num_experts < 1:
            raise ConfigError(f"num_experts must be >= 1, got {num_experts}")
        if capacity_factor < 1.0:
            raise ConfigError(f"capacity_factor must be >= 1, got {capacity_factor}")
        return SwitchParams(
            gate=LinearParams.create(d_model, num_experts, rng),
            experts=[FfnParams.create(d_model, d_ff, rng) for _ in range(num_experts)],
            capacity_factor=capacity_factor,
        )


@dataclass
class RoutingRecord:
    """Bookkeeping for one routed batch of tokens.

    ``counts`` holds tokens actually served per expert (within capacity);
    overflowed tokens bypassed their expert, so counts.sum() + overflow
    equals the token count.  ``chosen`` keeps the argmax expert of every
    token, overflowed or not.
    """

    chosen: np.ndarray
    chosen_prob: np.ndarray
    counts: np.ndarray
    overflow: int
    capacity: int

    @property
    def num_tokens(self) -> int:
        return len(self.chosen)

    def dispatched_counts(self) -> np.ndarray:
        """Tokens per expert by routing decision, overflow included."""
        return np.bincount(self.chosen, minlength=len(self.counts))

    def overflow_fractions(self) -> np.ndarray:
        """Per-expert fraction of this batch's tokens that overflowed."""
        return (self.dispatched_counts() - self.counts) / max(1, self.num_tokens)


def gate_probs(x: Tensor, gate: LinearParams) -> Tensor:
    """Softmax gate over experts for the tokens ``x`` of shape [T, d]."""
    return T.softmax(linear(x, gate), axis=-1)


def load_balance_loss(probs: Tensor, chosen: np.ndarray, num_experts: int) -> Tensor:
    """E * sum_j f_j * P_j with f_j the dispatch fraction and P_j the mean
    gate probability of expert j.  Equals 1 exactly at perfect balance."""
    frac = np.bincount(chosen, minlength=num_experts) / len(chosen)
    mean_probs = T.mean(probs, axis=0)
    return T.mul(T.sum_(T.mul(mean_probs, Tensor(frac))), float(num_experts))


def switch_forward(x: Tensor, p: SwitchParams, training: bool = True):
    """Route each of the T tokens in ``x`` [T, d] to its top-1 expert.

    Returns ``(output, RoutingRecord, aux_loss)``.  Each token's output is
    its chosen gate probability times that expert's FFN.  In training an
    expert serves at most floor(capacity_factor*T/E) tokens; the rest
    contribute zero (the caller's residual connection carries them) and are
    recorded as overflow, never an error.  Outside training every token is
    served, so an output depends only on its own input.
    """
    if x.ndim != 2:
        raise ContractError(f"switch_forward expects [T, d] input, got shape {x.shape}")
    num_tokens = x.shape[0]
    E = p.num_experts
    probs = gate_probs(x, p.gate)
    chosen = np.argmax(probs.data, axis=1)  # ties resolve to the lowest index
    aux = load_balance_loss(probs, chosen, E)

    capacity = int(np.floor(p.capacity_factor * num_tokens / E)) if training else num_tokens
    combined = Tensor(np.zeros(x.shape))
    counts = np.zeros(E, dtype=int)
    for j, expert in enumerate(p.experts):
        kept = np.nonzero(chosen == j)[0][:capacity]
        counts[j] = len(kept)
        if len(kept):
            served = position_wise_ffn(T.take_rows(x, kept), expert)
            combined = T.add(combined, T.scatter_rows(served, kept, num_tokens))
    rows = np.arange(num_tokens)
    out = T.mul(combined, T.reshape(T.pick(probs, rows, chosen), (num_tokens, 1)))

    record = RoutingRecord(
        chosen=chosen,
        chosen_prob=probs.data[rows, chosen],
        counts=counts,
        overflow=num_tokens - int(counts.sum()),
        capacity=capacity,
    )
    return out, record, aux


def expert_utilization(record: RoutingRecord) -> np.ndarray:
    """Fraction of tokens per expert by routing decision; sums to 1.
    Overflowed tokens count at their chosen expert."""
    if record.num_tokens == 0:
        raise ContractError("expert_utilization needs at least one routed token")
    return record.dispatched_counts() / record.num_tokens
