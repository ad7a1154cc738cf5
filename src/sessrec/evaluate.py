"""Ranking metrics P@K and MRR@K, plus a popularity baseline sanity floor."""
from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from . import model as model_mod
from .optim import NumericError


class EvalError(ValueError):
    pass


@dataclass
class EvalReport:
    ks: list
    precision: dict       # K -> P@K
    mrr: dict             # K -> MRR@K
    n_examples: int

    def to_dict(self) -> dict:
        out = {"n_examples": self.n_examples}
        for k in self.ks:
            out[f"p@{k}"] = self.precision[k]
            out[f"mrr@{k}"] = self.mrr[k]
        return out


def ranks(scores, targets) -> np.ndarray:
    """1-based rank of each row's target in a g x n score matrix: the scores
    above it plus the equal scores at lower indices, plus one."""
    s = np.asarray(scores, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.intp)
    st = s[np.arange(s.shape[0]), targets][:, None]
    out = 1 + (s > st).sum(axis=1)
    # only rows whose target ties with another score need the index order
    tied = np.flatnonzero((s == st).sum(axis=1) > 1)
    before = np.arange(s.shape[1]) < targets[tied, None]
    out[tied] += ((s[tied] == st[tied]) & before).sum(axis=1)
    return out


def precision_at_k(ranks, k: int) -> float:
    ranks = np.asarray(ranks)
    if ranks.size == 0:
        raise EvalError("empty test set")
    return float((ranks <= k).mean())


def mrr_at_k(ranks, k: int) -> float:
    ranks = np.asarray(ranks, dtype=np.float64)
    if ranks.size == 0:
        raise EvalError("empty test set")
    recip = np.where(ranks <= k, 1.0 / ranks, 0.0)
    return float(recip.mean())


def report_from_ranks(ranks, ks) -> EvalReport:
    return EvalReport(ks=list(ks),
                      precision={k: precision_at_k(ranks, k) for k in ks},
                      mrr={k: mrr_at_k(ranks, k) for k in ks},
                      n_examples=len(ranks))


def ranks_for_examples(examples, x_v, params, hyper) -> np.ndarray:
    """Target ranks for a list of (prefix, target) examples; forward-only.
    Raises NumericError on a score that is not finite: no comparison with NaN
    holds, so ranks would put every such target first."""
    prefixes = [ex.prefix for ex in examples]
    targets = np.array([ex.target for ex in examples], dtype=np.intp)
    out = np.zeros(len(examples), dtype=np.int64)
    for positions, scores in model_mod.forward_groups(prefixes, x_v, params, hyper):
        if not np.isfinite(scores.data).all():
            raise NumericError("a score is not finite, so no rank is defined")
        out[positions] = ranks(scores.data, targets[positions])
    return out


def evaluate_model(examples, x_v, params, hyper, ks=(10, 20)) -> EvalReport:
    if not examples:
        raise EvalError("empty test set")
    ranks = ranks_for_examples(examples, x_v, params, hyper)
    return report_from_ranks(ranks, ks)


def popularity_baseline(bundle, ks=(10, 20)) -> EvalReport:
    """Rank every test target against the static train-frequency ordering."""
    if not bundle.sessions_train:
        raise EvalError("empty training set")
    if not bundle.test:
        raise EvalError("empty test set")
    items = np.fromiter(chain.from_iterable(s.items for s in bundle.sessions_train),
                        dtype=np.intp)
    counts = np.bincount(items, minlength=bundle.vocab.n).astype(np.float64)
    targets = [ex.target for ex in bundle.test]
    return report_from_ranks(ranks(np.broadcast_to(counts, (len(targets), counts.size)),
                                   targets), ks)
