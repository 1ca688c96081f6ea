"""Routed expert layer: a softmax gate over E expert FFNs with top-1
dispatch and per-expert capacity, and the load-balancing penalty, the one
E * sum_j f_j * P_j: ``training.total_loss`` builds it from each layer's
``RoutingRecord`` and ``training.BatchTally`` from pooled counts.  A
record stores the gate probabilities and the capacity and derives the
rest: the chosen experts, the served counts, the overflow
``num_tokens - counts.sum()`` and the expert utilization
``dispatched_counts() / num_tokens``.

The gate is a ``T.linear`` and a ``T.softmax`` node.  One ``T.routed_ffn``
node takes the routing decisions (argmax, capacity cuts) on raw values and
holds them fixed, then dispatches, runs the stacked experts with one row
group per expert, and combines; gradients flow through the chosen gate
probability and through the expert computation.  Capacity cuts apply in
training only; outside it the capacity is T and no token is ranked.  The
capacity factor is an argument, not a field of the parameters.  Sizes
arrive validated by the config.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .attention import FfnParams, position_wise_ffn
from .errors import ConfigError, ContractError
from .layers import LinearParams, init_weight, linear
from .tensor import Tensor


@dataclass
class SwitchParams:
    """The gate and the E expert FFNs stacked in one ``FfnParams``: slice j of
    its [E, d_model, d_ff] / [E, d_ff, d_model] weights and biases is expert j."""

    gate: LinearParams
    experts: FfnParams

    @property
    def num_experts(self) -> int:
        return self.experts.lin1.weight.shape[0]

    @staticmethod
    def create(d_model: int, d_ff: int, num_experts: int,
               rng: np.random.Generator | None) -> "SwitchParams":
        gate = LinearParams.create(d_model, num_experts, rng)
        # One draw, as E separate FFNs would be drawn, expert by expert: the
        # [d_model, d_ff] and [d_ff, d_model] maps share scale and size.
        w1, w2 = init_weight((num_experts, 2, d_model, d_ff), rng).data.swapaxes(0, 1).copy()
        experts = FfnParams(
            LinearParams(Tensor(w1, True), Tensor(np.zeros((num_experts, d_ff)), True)),
            LinearParams(Tensor(w2.reshape(num_experts, d_ff, d_model), True),
                         Tensor(np.zeros((num_experts, d_model)), True)))
        return SwitchParams(gate=gate, experts=experts)


@dataclass
class RoutingRecord:
    """One routed batch of tokens: the [T, E] gate probabilities ``probs``
    the penalty differentiates and each expert's ``capacity``, from which
    the node's routing is derived: ``chosen``, every token's argmax expert,
    overflowed or not, and ``counts``, the tokens served per expert."""

    probs: Tensor
    capacity: int

    @functools.cached_property
    def chosen(self) -> np.ndarray:
        return np.argmax(self.probs.data, axis=1)  # ties resolve to the lowest index

    @property
    def num_tokens(self) -> int:
        return len(self.chosen)

    @property
    def counts(self) -> np.ndarray:
        return np.minimum(self.dispatched_counts(), self.capacity)

    @property
    def overflow(self) -> int:
        """Tokens that bypassed their chosen expert at its capacity."""
        return self.num_tokens - int(self.counts.sum())

    def dispatched_counts(self) -> np.ndarray:
        """Tokens per expert by routing decision, overflow included."""
        return np.bincount(self.chosen, minlength=self.probs.shape[1])


def gate_probs(x: Tensor, gate: LinearParams) -> Tensor:
    """Softmax gate over experts for the tokens ``x`` of shape [T, d]."""
    return T.softmax(linear(x, gate), axis=-1)


def load_balance_loss(mean_probs: Tensor, dispatched: np.ndarray) -> Tensor:
    """E * sum_j f_j * P_j over the E experts, with P_j = ``mean_probs[j]``
    the mean gate probability of expert j and f_j its share of the
    ``dispatched`` token counts.  Equals 1 exactly at perfect balance."""
    frac = dispatched / dispatched.sum()
    return T.mul(T.sum_(T.mul(mean_probs, Tensor(frac))), float(len(dispatched)))


def switch_forward(x: Tensor, p: SwitchParams, training: bool, capacity_factor: float):
    """Route each of the T tokens in ``x`` [T, d] to its top-1 expert.

    Returns ``(output, RoutingRecord)``; a ``capacity_factor`` that is not
    finite and >= 1 raises ConfigError (an edited ``model.config`` gets here
    unvalidated).  Each token's output is its chosen gate probability times
    that expert's FFN.  In training an expert serves at most
    floor(capacity_factor*T/E) tokens, and never more than T, its first in
    token order; the rest contribute zero (the caller's residual connection
    carries them) and are recorded as overflow, never an error.  Outside
    training every token is served and none is ranked, so batch mates act on
    an output only through GEMM row counts: BLAS picks its kernel by row
    count (one row goes to GEMV), so an output can differ from a batch-1
    forward in its last bits.  Routing, dispatch, the experts and combine
    are one ``T.routed_ffn`` node (Gale et al. 2022).
    """
    if x.ndim != 2:
        raise ContractError(f"switch_forward expects [T, d] input, got shape {x.shape}")
    if not 1.0 <= capacity_factor < math.inf:
        raise ConfigError(f"capacity_factor must be finite and >= 1, got {capacity_factor}")
    probs = gate_probs(x, p.gate)
    num_tokens, E = x.shape[0], p.num_experts
    # In training a factor of E or more serves every token, and a huge one would overflow.
    capacity = int(np.floor(min(capacity_factor, E) * num_tokens / E)) if training else num_tokens
    out = position_wise_ffn(x, p.experts, (probs, capacity))
    return out, RoutingRecord(probs=probs, capacity=capacity)
