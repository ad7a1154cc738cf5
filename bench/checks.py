"""Output checks that rest on independent computations, not stored outputs.

The reference model below re-implements the model equations in dense numpy
from raw parameter arrays and a graph recounted from the sessions, so it
shares no code with sessrec beyond the inputs.
"""
from __future__ import annotations

import hashlib
import math

import numpy as np

from sessrec import data, evaluate, model, train

# Scores of the reference and the program may differ by rounding; two items
# whose reference scores lie closer than this (relative to the largest score
# magnitude) may rank either way.
SCORE_RTOL = 1e-6
# Edge weights are sums of at most a few thousand terms 1/(1+dist).
WEIGHT_RTOL = 1e-9
RANK_SAMPLE = 200
KS_PROPERTY = (1, 5, 10, 20, 50)


class Failures(list):
    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            self.append(message)


# ---------------------------------------------------------------------------
# independent computations
# ---------------------------------------------------------------------------

def recount_adjacency(sessions, n: int, epsilon: int) -> np.ndarray:
    """Dense n x n hop weights: sum of 1/(1+dist) over ordered pairs, dist <= epsilon."""
    weights = np.zeros(n * n)
    for dist in range(1, epsilon + 1):
        src = [i for s in sessions for i in s.items[:-dist]]
        dst = [j for s in sessions for j in s.items[dist:]]
        counts = np.bincount(np.asarray(src, dtype=np.int64) * n + np.asarray(dst, dtype=np.int64),
                             minlength=n * n)
        weights += counts / (1.0 + dist)
    return weights.reshape(n, n)


def reference_item_table(p: dict, adj: np.ndarray, hyper) -> np.ndarray:
    """x_v = mean of the L+1 snapshots of x <- rownorm(A) softmax((xW+b) x^T) x C."""
    sums = adj.sum(axis=1, keepdims=True)
    a = np.divide(adj, sums, out=np.zeros_like(adj), where=sums > 0)
    x = p["item_emb"]
    acc = x.copy()
    for l in range(hyper.num_layers):
        h = x
        if hyper.use_attention:
            s = (x @ p[f"att_w{l}"] + p[f"att_b{l}"]) @ x.T
            e = np.exp(s - s.max(axis=1, keepdims=True))
            h = (e / e.sum(axis=1, keepdims=True)) @ x
        x = a @ h @ p[f"conv_w{l}"]
        acc = acc + x
    return acc / (hyper.num_layers + 1)


def reference_scores(prefix, p: dict, x_v: np.ndarray, hyper) -> np.ndarray:
    """Scores of every item for one session prefix, reverse positions, soft attention."""
    items = list(prefix)[-hyper.max_session_len:]
    m = len(items)
    pos = p["pos_emb"][np.arange(m - 1, -1, -1)] if hyper.use_reverse_pos \
        else np.zeros((m, x_v.shape[1]))
    xs = np.tanh(np.hstack([x_v[items], pos]) @ p["w1"] + p["b1"])
    gate = 1.0 / (1.0 + np.exp(-(xs @ p["w3"] + xs.mean(axis=0) @ p["w2"] + p["c"])))
    theta = (gate @ p["q"]).T @ xs
    return (theta @ x_v.T).ravel()


def rank_bounds(scores: np.ndarray, target: int) -> tuple[int, int]:
    """Smallest and largest rank the target may take when near-ties can flip."""
    tol = SCORE_RTOL * max(1.0, float(np.abs(scores).max()))
    st = scores[target]
    ahead = int((scores > st + tol).sum())
    near = int((np.abs(scores - st) <= tol).sum()) - 1
    return 1 + ahead, 1 + ahead + near


def precision_mrr(ranks: np.ndarray, k: int) -> tuple[float, float]:
    hit = ranks <= k
    return float(hit.mean()), float(np.where(hit, 1.0 / ranks, 0.0).mean())


def popularity_p_at(bundle, k: int) -> float:
    """P@k of ranking items by train-session frequency, ties by ascending index."""
    counts = np.bincount([i for s in bundle.sessions_train for i in s.items],
                         minlength=bundle.vocab.n)
    ranks = np.array([1 + (counts > counts[ex.target]).sum()
                      + (counts[:ex.target] == counts[ex.target]).sum() for ex in bundle.test])
    return float((ranks <= k).mean())


def arrays(params) -> dict:
    return {name: t.data for name, t in params.items()}


def same_bits(a: dict, b: dict) -> bool:
    return a.keys() == b.keys() and all(
        a[k].shape == b[k].shape and a[k].tobytes() == b[k].tobytes() for k in a)


def file_hash(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def check_graph(fail: Failures, bundle, g, anorm, epsilon: int) -> np.ndarray:
    """Edge weights against a recount; normalised rows sum to 1, or 0 without out-edges."""
    n = bundle.vocab.n
    ref = recount_adjacency(bundle.sessions_train, n, epsilon)
    prog = np.zeros((n, n))
    for (s, d), w in g.edges.items():
        prog[s, d] = w
    fail.expect(np.array_equal(prog > 0, ref > 0), "graph: edge set differs from the recount")
    fail.expect(np.allclose(prog, ref, rtol=WEIGHT_RTOL, atol=0.0),
                "graph: edge weights differ from the recount of 1/(1+dist)")
    sums = np.asarray(anorm.matrix.sum(axis=1)).ravel()
    has_out = ref.sum(axis=1) > 0
    fail.expect(np.allclose(sums[has_out], 1.0, rtol=0.0, atol=1e-12),
                "graph: a normalised row with out-edges does not sum to 1")
    fail.expect(not np.any(sums[~has_out]), "graph: a row without out-edges is not zero")
    return ref


def check_ranks(fail: Failures, examples, params, x_v, adj, hyper, seed: int) -> None:
    """The program's item table and the ranks of a sample against the dense reference."""
    p = arrays(params)
    ref_xv = reference_item_table(p, adj, hyper)
    scale = max(1.0, float(np.abs(ref_xv).max()))
    fail.expect(np.allclose(x_v.data, ref_xv, rtol=0.0, atol=SCORE_RTOL * scale),
                "ranks: propagated item table differs from the reference")
    rng = np.random.default_rng(seed)
    pick = rng.choice(len(examples), size=min(RANK_SAMPLE, len(examples)), replace=False)
    sample = [examples[i] for i in sorted(pick)]
    ranks = evaluate.ranks_for_examples(sample, x_v, params, hyper)
    bad = 0
    for ex, r in zip(sample, ranks):
        lo, hi = rank_bounds(reference_scores(ex.prefix, p, ref_xv, hyper), ex.target)
        bad += not lo <= r <= hi
    fail.expect(bad == 0,
                f"ranks: {bad} of {len(sample)} sampled ranks disagree with the reference")


def check_report(fail: Failures, report: dict, ranks: np.ndarray, ks) -> None:
    """Reported P@K and MRR@K equal the values recomputed from the ranks."""
    for k in ks:
        p, r = precision_mrr(ranks, k)
        fail.expect(math.isclose(report[f"p@{k}"], p, rel_tol=1e-12, abs_tol=1e-15)
                    and math.isclose(report[f"mrr@{k}"], r, rel_tol=1e-12, abs_tol=1e-15),
                    f"metrics: reported P@{k}/MRR@{k} differ from the ranks")


def check_metric_properties(fail: Failures, ranks: np.ndarray) -> None:
    """The program's P@K never falls as K grows, and its MRR@K <= P@K."""
    report = evaluate.report_from_ranks(ranks, KS_PROPERTY)
    p = [report.precision[k] for k in KS_PROPERTY]
    fail.expect(all(a <= b for a, b in zip(p, p[1:])), "metrics: P@K decreases as K grows")
    fail.expect(all(report.mrr[k] <= report.precision[k] for k in KS_PROPERTY),
                "metrics: MRR@K exceeds P@K")


def check_train(fail: Failures, run, state, ks, learning: bool, seed: int) -> None:
    """Losses, checkpoints, determinism, metrics and ranks of the timed train rounds."""
    bundle, hyper = state.bundle, state.hyper
    result, out = run.rounds[-1].result, run.rounds[-1].out_dir
    batches = [r for rnd in run.rounds for r in rnd.records if r["kind"] == "batch"]
    per_round = hyper.epochs * math.ceil(len(bundle.train) / hyper.batch_size)
    fail.expect(len(batches) == per_round * len(run.rounds), "train: missing batch records")
    fail.expect(all(math.isfinite(r["total"]) for r in batches),
                "train: a batch loss is not finite")
    vhash = data.vocab_hash(bundle.vocab)

    last, _, _, _ = train.load_checkpoint(out / "last.ckpt", expected_vocab_hash=vhash)
    fail.expect(same_bits(arrays(last), arrays(result.params)),
                "checkpoint: last.ckpt does not reload to the returned parameters")
    best, _, best_hyper, _ = train.load_checkpoint(out / "best.ckpt", expected_vocab_hash=vhash)
    if result.best_epoch == hyper.epochs - 1:
        fail.expect(same_bits(arrays(best), arrays(result.params)),
                    "checkpoint: best.ckpt does not reload to the returned parameters")
    x_best = model.propagate(best["item_emb"], state.anorm, best, best_hyper.num_layers,
                             best_hyper.use_attention)
    again = evaluate.evaluate_model(bundle.test, x_best, best, best_hyper, ks=ks).to_dict()
    fail.expect(again == result.best_metrics,
                "checkpoint: best.ckpt does not reproduce the best epoch's metrics")
    for name in ("metrics.json", "best.ckpt", "last.ckpt"):
        fail.expect(len({file_hash(r.out_dir / name) for r in run.rounds}) == 1,
                    f"determinism: {name} differs between identical rounds")

    x_v = model.propagate(result.params["item_emb"], state.anorm, result.params,
                          hyper.num_layers, hyper.use_attention)
    ranks = evaluate.ranks_for_examples(bundle.test, x_v, result.params, hyper)
    check_report(fail, result.history[-1], ranks, ks)
    check_metric_properties(fail, ranks)
    adj = check_graph(fail, bundle, state.graph, state.anorm, hyper.epsilon)
    check_ranks(fail, bundle.test, result.params, x_v, adj, hyper, seed)
    if learning:
        pop = popularity_p_at(bundle, 20)
        fail.expect(result.best_metrics["p@20"] > pop,
                    f"learning: P@20 {result.best_metrics['p@20']:.4f} does not beat "
                    f"popularity {pop:.4f}")
        fail.expect(result.history[-1]["mean_loss"] < result.history[0]["mean_loss"],
                    "learning: mean loss did not fall from the first epoch to the last")


def check_eval(fail: Failures, run, state, saved_params, ks, seed: int) -> None:
    """Checkpoint round trip, pass determinism, metrics and ranks of eval passes."""
    hyper = state.hyper
    fail.expect(same_bits(arrays(state.params), saved_params),
                "checkpoint: the loaded parameters differ from the saved ones")
    fail.expect(all(r == run.reports[0] for r in run.reports),
                "determinism: evaluation passes disagree")
    examples = state.bundle.test
    x_v = model.propagate(state.params["item_emb"], state.anorm, state.params,
                          hyper.num_layers, hyper.use_attention)
    ranks = evaluate.ranks_for_examples(examples, x_v, state.params, hyper)
    check_report(fail, run.reports[0], ranks, ks)
    check_metric_properties(fail, ranks)
    adj = check_graph(fail, state.bundle, state.graph, state.anorm, hyper.epsilon)
    check_ranks(fail, examples, state.params, x_v, adj, hyper, seed)
