"""Ranking metrics P@K and MRR@K, plus a popularity baseline sanity floor."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import data as data_mod
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
    # an int32 sum of the comparisons runs about twice as fast as the default int64
    out = 1 + (s > st).sum(axis=1, dtype=np.int32)
    # only rows whose target ties with another score need the index order
    tied = np.flatnonzero((s == st).sum(axis=1, dtype=np.int32) > 1)
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


# A score's magnitude is at most ||theta_r|| ||x_j||; below this bound no
# product or partial sum can reach the float64 range (about 1.8e308).
SCORE_BOUND = 1e300


def _max_norm(x: np.ndarray) -> float:
    """The largest row norm of x; NaN or inf when an entry is not finite."""
    return float(np.sqrt(np.einsum("ij,ij->i", x, x).max(initial=0.0)))


def ranks_for_examples(examples, x_v, params, hyper) -> np.ndarray:
    """Target ranks for (prefix, target) examples, a data.Examples container
    or a list of them, converted once; forward-only. Each chunk is ranked on
    the thread that scored it, and only its ranks come back. Raises
    NumericError on a score that is not finite: no comparison with NaN holds,
    so ranks would put every such target first. A chunk's g target scores are
    always checked; all g x n scores only where finite theta and X_v with
    max ||theta_r|| max ||x_j|| below SCORE_BOUND (Cauchy-Schwarz) do not
    already rule out a score that is not finite."""
    examples = data_mod.Examples.of(examples)
    targets = examples.targets
    x_norm = _max_norm(x_v.data)

    def rank_chunk(positions, theta, scores):
        s, t = scores.data, targets[positions]
        # a NaN or an inf bound fails the comparison too
        bounded = x_norm * _max_norm(theta.data) < SCORE_BOUND
        if (not (bounded and np.isfinite(s[np.arange(t.size), t]).all())
                and not np.isfinite(s).all()):
            raise NumericError("a score is not finite, so no rank is defined")
        return ranks(s, t)

    out = np.zeros(len(examples), dtype=np.int64)
    for positions, chunk_ranks in model_mod.forward_groups(examples, x_v, params, hyper,
                                                           rank_chunk):
        out[positions] = chunk_ranks
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
    counts = np.bincount(bundle.sessions_train.items,
                         minlength=bundle.vocab.n).astype(np.float64)
    targets = bundle.test.targets
    return report_from_ranks(ranks(np.broadcast_to(counts, (targets.size, counts.size)),
                                   targets), ks)
