"""Training objective: cross-entropy plus a beta-weighted self-contrastive term.

The self-contrastive term treats each item representation as its own only
positive and all other items as negatives; with sim(x_i, x_i) = 1 it reduces
to sum_i [logsumexp_j(sim(x_i, x_j)/tau) - 1/tau], computed stably.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .model import CE_FORMS
from .tensor import Tensor


@dataclass
class LossBreakdown:
    l_ce: float
    l_spl: float
    total: float


def cross_entropy_rows(z: Tensor, targets, form: str = "as_printed") -> Tensor:
    """Summed cross-entropy over the row softmax p of a g x n score matrix,
    computed from the scores in log space; one tape record.

    form="as_printed": full binary sum -[log p_t + sum_{i != t} log(1 - p_i)].
    form="softmax_ce": categorical -log p_t.
    """
    g, n = z.shape
    targets = np.asarray(targets, dtype=np.intp).ravel()
    if targets.size != g:
        raise ValueError(f"{targets.size} targets for {g} rows")
    if targets.size and (targets.min() < 0 or targets.max() >= n):
        raise ValueError("target index out of range")
    if form not in CE_FORMS:
        raise ValueError(f"unknown ce_form {form!r}")
    return T.softmax_cross_entropy(z, targets, form == "as_printed")


def single_positive_loss(x: Tensor, tau: float) -> Tensor:
    """Self-contrastive uniformity loss over the rows of a k x d matrix."""
    if tau <= 0:
        raise ValueError("tau must be > 0")
    k = x.shape[0]
    lse = T.gram_logsumexp(T.normalize_rows(x), 1.0 / tau)
    return T.add(lse, Tensor([[-k / tau]]))


def total_loss(l_ce: Tensor, l_spl: Tensor | None, beta: float):
    """Combine the two terms; returns (total Tensor, LossBreakdown floats)."""
    ce_val = l_ce.item()
    if l_spl is None or beta == 0.0:
        spl_val = 0.0 if l_spl is None else l_spl.item()
        return l_ce, LossBreakdown(l_ce=ce_val, l_spl=spl_val, total=ce_val)
    total = T.add(l_ce, T.scale(l_spl, beta))
    return total, LossBreakdown(l_ce=ce_val, l_spl=l_spl.item(), total=total.item())
