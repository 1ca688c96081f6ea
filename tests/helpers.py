"""Shared test utilities."""

import hashlib

import numpy as np

from switchtext import Tensor, finite_difference_check
from switchtext import tensor as T
from switchtext.attention import FfnParams
from switchtext.layers import LinearParams
from switchtext.moe import load_balance_loss


def check_param_gradient(make_loss, holder, attr, h=1e-6):
    """Finite-difference check of the gradient w.r.t. ``holder.<attr>``.

    ``make_loss`` is a zero-argument callable returning a scalar Tensor; it
    must read the parameter through ``holder`` so the probe tensor installed
    here participates in the graph.
    """
    original = getattr(holder, attr)

    def f(probe: Tensor) -> Tensor:
        setattr(holder, attr, probe)
        try:
            return make_loss()
        finally:
            setattr(holder, attr, original)

    return finite_difference_check(f, Tensor(original.data.copy()), h=h)


def check_many_params(make_loss, targets, h=1e-6, tol=1e-4):
    """Run check_param_gradient over (holder, attr) pairs; returns max error."""
    worst = 0.0
    for holder, attr in targets:
        err = check_param_gradient(make_loss, holder, attr, h=h)
        assert err < tol, f"gradient check failed for {type(holder).__name__}.{attr}: {err}"
        worst = max(worst, err)
    return worst


def file_digest(path) -> str:
    """sha256 of the file at ``path``, read back from disk."""
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def expert(p, j):
    """Expert j of a switch layer's stacked experts as its own FfnParams,
    holding views of slice j."""
    return FfnParams(*(LinearParams(Tensor(lin.weight.data[j]), Tensor(lin.bias.data[j]))
                       for lin in (p.experts.lin1, p.experts.lin2)))


def penalty(record):
    """The load-balancing penalty ``training.total_loss`` builds from one
    switch layer's routing record."""
    return load_balance_loss(T.mean(record.probs, axis=0), record.dispatched_counts())


def chosen_prob(record):
    """Each token's gate probability of its chosen expert."""
    return record.probs.data[np.arange(record.num_tokens), record.chosen]
