"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Training-based criteria share module-scoped fixtures to stay within
their runtime budgets.
"""
import inspect
import json
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp

import sessrec.train as TR
from sessrec import cli as CLI
from sessrec import graph as G
from sessrec import loss as L
from sessrec import model as M
from sessrec import synth as S
from sessrec import tensor as T
from sessrec.data import TrainExample
from sessrec.evaluate import (evaluate_model, mrr_at_k, popularity_baseline,
                              precision_at_k, ranks)
from sessrec.model import Hyperparams
from sessrec.optim import Adam
from sessrec.tensor import Tape, Tensor, grad_check
from conftest import child_env, memorization_bundle


def report(criterion: str, ok: bool, detail: str):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{criterion}: {detail}"


# ---------------------------------------------------------------------------
# shared training fixtures
# ---------------------------------------------------------------------------

SEEDS = (7, 8, 9)


def synth_hyper(seed, **kw):
    base = dict(d=48, num_layers=2, max_session_len=10, batch_size=100,
                epochs=4, lr=0.003, beta=0.5, tau=0.1, seed=seed)
    base.update(kw)
    return Hyperparams(**base)


@pytest.fixture(scope="module")
def synth_bundle():
    bundle, _chains = S.synth_dataset(S.SynthSpec())  # n=200, 2000 sessions,
    return bundle                                     # noise 0.2, seed 7


@pytest.fixture(scope="module")
def trained_runs(synth_bundle):
    """Best metrics per variant per seed, plus total wall time."""
    variants = {"full": {}, "no_spl": {"beta": 0.0},
                "no_att": {"use_attention": False},
                "no_pos": {"use_reverse_pos": False}}
    t0 = time.monotonic()
    runs = {}
    for name, kw in variants.items():
        runs[name] = [TR.train(synth_bundle, synth_hyper(seed, **kw)).best_metrics
                      for seed in SEEDS]
    return runs, time.monotonic() - t0


# ---------------------------------------------------------------------------
# criterion 1: graph oracle equivalence
# ---------------------------------------------------------------------------

def oracle_edges(sessions, epsilon):
    edges = {}
    for items in sessions:
        m = len(items)
        for i in range(m):
            for j in range(m):
                if 1 <= j - i <= epsilon:
                    key = (items[i], items[j])
                    edges[key] = edges.get(key, Fraction(0)) + Fraction(1, 1 + j - i)
    return edges


def test_criterion_1_graph_oracle_equivalence():
    t0 = time.monotonic()
    rng = np.random.default_rng(123)
    worst = 0.0
    for trial in range(500):
        epsilon = int(rng.choice([1, 2, 3, 5]))
        n = int(rng.integers(2, 20))
        sessions = []
        budget = int(rng.integers(1, 201))
        while budget > 0:
            m = int(rng.integers(1, min(budget, 15) + 1))
            sessions.append(list(rng.integers(0, n, size=m)))
            budget -= m
        got = G.build_global_graph(sessions, n, G.GraphConfig(epsilon)).edges
        want = oracle_edges(sessions, epsilon)
        assert set(got) == set(want)
        for key, w in want.items():
            worst = max(worst, abs(got[key] - float(w)))
    assert worst < 1e-12
    # worked example: adjacent pair in two sessions -> 1/2 + 1/2 = 1
    g = G.build_global_graph([[3, 2], [3, 2]], 4, G.GraphConfig(3))
    assert g.edges[(3, 2)] == 1.0
    elapsed = time.monotonic() - t0
    report("criterion-1 graph-oracle", elapsed < 5.0,
           f"500 session sets exact (max dev {worst:.1e}), {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# criterion 2: gradient correctness
# ---------------------------------------------------------------------------

def full_loss_grad_error(rng) -> float:
    """grad_check error of the full composed loss on a toy instance."""
    n, d, layers, batch = 8, 6, 2, 4
    sessions = [list(rng.integers(0, n, size=rng.integers(2, 6))) for _ in range(6)]
    graph = G.build_global_graph(sessions, n, G.GraphConfig(3))
    anorm = G.row_normalize(graph)
    hyper = Hyperparams(d=d, num_layers=layers, tau=0.1, beta=1.0,
                        max_session_len=6, batch_size=batch, seed=0)
    examples = [TrainExample(tuple(s[:-1]), int(s[-1])) for s in sessions[:batch]]
    params = M.init_params(n, hyper)

    def full_loss():
        total, _ = TR.batch_loss(examples, anorm, params, hyper)
        return total

    return grad_check(full_loss, list(params.tensors.values()))


def test_criterion_2_gradient_correctness(monkeypatch):
    t0 = time.monotonic()
    rng = np.random.default_rng(0)
    # row tiles of 3 rows for the 7-row fused primitives (2 for the 8-item toy
    # model), so every tiled primitive is checked across several tiles
    monkeypatch.setattr(T, "TILE_ENTRIES", 21)

    # every primitive individually < 1e-6
    def r(rows, cols, shift=0.0):
        return Tensor(rng.standard_normal((rows, cols)) + shift)

    sparse = sp.csr_matrix(np.triu(np.ones((4, 4))) / 4.0)
    conv_rng = np.random.default_rng(1)
    prim_checks = {
        "matmul": lambda a=r(3, 4), b=r(4, 2): (
            lambda: T.sum_all(T.tanh(T.matmul(a, b))), [a, b]),
        # w has its own generator, so the entries below draw at the same offsets
        "graph_conv": lambda x=r(4, 3), w=Tensor(conv_rng.standard_normal((3, 2))): (
            lambda: T.sum_all(T.tanh(T.graph_conv(sparse, x, w))), [x, w]),
        "add": lambda a=r(3, 3), b=r(3, 3): (
            lambda: T.sum_all(T.tanh(T.add(a, b))), [a, b]),
        "add/row": lambda x=r(3, 4), b=r(1, 4): (
            lambda: T.sum_all(T.tanh(T.add(x, b))), [x, b]),
        "add/column": lambda x=r(3, 4), c=r(3, 1): (
            lambda: T.sum_all(T.tanh(T.add(x, c))), [x, c]),
        "add/value": lambda x=r(3, 3), v=r(1, 1): (
            lambda: T.sum_all(T.tanh(T.add(x, v))), [x, v]),
        "add/three_terms": lambda a=r(3, 4), b=r(3, 4), c=r(1, 4): (
            lambda: T.sum_all(T.tanh(T.add(a, b, c))), [a, b, c]),
        "scale": lambda x=r(3, 3): (lambda: T.sum_all(T.tanh(T.scale(x, 1.3))), [x]),
        "scale/column": lambda x=r(4, 3), c=r(4, 1): (
            lambda: T.sum_all(T.tanh(T.scale(x, c.data))), [x]),
        "mul": lambda a=r(3, 3), b=r(3, 3): (
            lambda: T.sum_all(T.tanh(T.mul(a, b))), [a, b]),
        "mul/column": lambda x=r(4, 3), c=r(4, 1): (
            lambda: T.sum_all(T.tanh(T.mul(x, c))), [x, c]),
        "mul/row": lambda x=r(4, 3), b=r(1, 3): (
            lambda: T.sum_all(T.tanh(T.mul(x, b))), [x, b]),
        "tanh": lambda x=r(3, 3): (lambda: T.sum_all(T.tanh(x)), [x]),
        "sigmoid": lambda x=r(3, 3): (lambda: T.sum_all(T.sigmoid(x)), [x]),
        "softmax_cross_entropy/as_printed": lambda z=r(3, 4): (
            lambda: T.softmax_cross_entropy(z, np.array([0, 3, 3]), True), [z]),
        "softmax_cross_entropy/softmax_ce": lambda z=r(3, 4): (
            lambda: T.softmax_cross_entropy(z, np.array([2, 0, 1]), False), [z]),
        "select_rows": lambda x=r(5, 3): (
            lambda: T.sum_all(T.tanh(T.select_rows(x, [0, 2, 2, 4]))), [x]),
        "sum_rows": lambda x=r(6, 3): (
            lambda: T.sum_all(T.tanh(T.sum_rows(x, [2, 0, 2, 1, 0, 2], 4))), [x]),
        "sum_all": lambda x=r(3, 3): (lambda: T.sum_all(x), [x]),
        "transpose": lambda x=r(2, 5): (
            lambda: T.sum_all(T.tanh(T.transpose(x))), [x]),
        "attention": lambda x=r(7, 3), w=r(3, 3), b=r(1, 3), c=r(7, 3): (
            lambda: T.sum_all(T.mul(T.attention(x, w, b), c)), [x, w, b]),
        "normalize_rows": lambda x=r(4, 3, shift=2.0): (
            lambda: T.sum_all(T.tanh(T.normalize_rows(x))), [x]),
        "gram_logsumexp": lambda x=r(7, 3): (
            lambda: T.gram_logsumexp(x, 0.7), [x]),
    }
    # every function that records on the tape has a finite-difference check
    recording = {name for name, fn in inspect.getmembers(T, inspect.isfunction)
                 if fn.__module__ == T.__name__ and "Tape._record(" in inspect.getsource(fn)}
    checked = {key.partition("/")[0] for key in prim_checks}
    assert recording == checked, (f"unchecked primitives {sorted(recording - checked)}, "
                                  f"unknown entries {sorted(checked - recording)}")
    worst_prim = 0.0
    for name, make in prim_checks.items():
        f, params = make()
        err = grad_check(f, params)
        assert err < 1e-6, f"primitive {name}: {err:.2e}"
        worst_prim = max(worst_prim, err)

    full_err = full_loss_grad_error(rng)
    elapsed = time.monotonic() - t0
    report("criterion-2 gradients",
           full_err < 1e-4 and elapsed < 30.0,
           f"full loss {full_err:.2e}, worst primitive {worst_prim:.2e}, "
           f"{elapsed:.1f}s")


def test_criterion_2_gradient_correctness_on_pool(monkeypatch, tile_pool):
    # the full loss again, with the attention and SPL row tiles of the 8-item
    # toy model (2 rows each) on 2 threads
    t0 = time.monotonic()
    monkeypatch.setattr(T, "TILE_ENTRIES", 21)
    full_err = full_loss_grad_error(np.random.default_rng(1))
    elapsed = time.monotonic() - t0
    report("criterion-2 gradients on the tile pool",
           full_err < 1e-4 and len(tile_pool) > 0 and elapsed < 30.0,
           f"full loss {full_err:.2e}, {len(tile_pool)} tiles on the pool, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 3: uniformity-loss properties
# ---------------------------------------------------------------------------

def test_criterion_3_loss_properties():
    rng = np.random.default_rng(1)
    min_val = np.inf
    for _ in range(1000):
        k, d = int(rng.integers(1, 9)), int(rng.integers(1, 7))
        x = rng.standard_normal((k, d))
        x[np.linalg.norm(x, axis=1) == 0] = 1.0
        val = L.single_positive_loss(Tensor(x), tau=float(rng.uniform(0.05, 2))).item()
        min_val = min(min_val, val)
        assert val >= -1e-12
    x = rng.standard_normal((6, 5))
    q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
    base = L.single_positive_loss(Tensor(x), tau=0.2).item()
    rot_dev = abs(L.single_positive_loss(Tensor(x @ q), tau=0.2).item() - base)
    scale_dev = max(abs(L.single_positive_loss(Tensor(c * x), tau=0.2).item() - base)
                    for c in (1e-3, 3.0, 1e4))
    ortho = L.single_positive_loss(Tensor(np.eye(2)), tau=1.0).item()
    ident = L.single_positive_loss(Tensor([[0.6, 0.8], [0.6, 0.8]]), tau=1.0).item()
    ok = (rot_dev < 1e-9 and scale_dev < 1e-9
          and abs(ortho - 0.6265) < 1e-4 and abs(ident - 1.3863) < 1e-4)
    report("criterion-3 loss-properties", ok,
           f"min={min_val:.2e}, rot dev={rot_dev:.1e}, scale dev={scale_dev:.1e}, "
           f"orthogonal={ortho:.5f}, identical={ident:.5f}")


# ---------------------------------------------------------------------------
# criterion 4: probability / normalization
# ---------------------------------------------------------------------------

def test_criterion_4_normalization():
    rng = np.random.default_rng(2)
    worst_prob = 0.0
    for trial in range(30):
        n = int(rng.integers(2, 30))
        layers = int(rng.integers(0, 4))
        sessions = [list(rng.integers(0, n, size=rng.integers(2, 8)))
                    for _ in range(5)]
        graph = G.build_global_graph(sessions, n, G.GraphConfig(3))
        anorm = G.row_normalize(graph)
        sums = np.asarray(anorm.matrix.sum(axis=1)).ravel()
        assert all(abs(s - 1.0) < 1e-9 or abs(s) < 1e-9 for s in sums)
        hyper = Hyperparams(d=int(rng.integers(2, 10)), num_layers=layers,
                            max_session_len=10, seed=trial)
        params = M.init_params(n, hyper)
        x_v = M.propagate(params["item_emb"], anorm, params, layers)
        for items in sessions:
            ((_, scores),) = M.forward_groups([items], x_v, params, hyper)
            y = M.predict(scores)
            worst_prob = max(worst_prob, abs(y.data.sum() - 1.0))
            assert np.all(y.data >= 0)
    report("criterion-4 normalization", worst_prob < 1e-9,
           f"worst |sum(y)-1| = {worst_prob:.1e} over 150 forwards")


# ---------------------------------------------------------------------------
# criterion 5: overfit capability
# ---------------------------------------------------------------------------

def test_criterion_5_overfit():
    t0 = time.monotonic()
    bundle = memorization_bundle()
    hyper = Hyperparams(d=24, num_layers=2, max_session_len=6, batch_size=20,
                        lr=0.01, beta=0.5, seed=0, epochs=0)
    graph = G.build_global_graph(bundle.sessions_train, bundle.vocab.n,
                                 G.GraphConfig(hyper.epsilon))
    anorm = G.row_normalize(graph)
    params = M.init_params(bundle.vocab.n, hyper)
    adam = Adam(params.tensors, lr=hyper.lr, l2=hyper.l2)
    rng = np.random.default_rng(hyper.seed)
    p1, epochs_used = 0.0, 0
    for epoch in range(200):
        perm = rng.permutation(len(bundle.train))
        for start in range(0, len(bundle.train), hyper.batch_size):
            batch = [bundle.train[i] for i in perm[start:start + hyper.batch_size]]
            with Tape() as tape:
                total, _ = TR.batch_loss(batch, anorm, params, hyper)
                tape.backward(total)
            adam.step()
            adam.zero_grads()
        epochs_used = epoch + 1
        if epoch % 5 == 4:
            x_v = M.propagate(params["item_emb"], anorm, params,
                              hyper.num_layers, hyper.use_attention)
            p1 = evaluate_model(bundle.train, x_v, params, hyper, ks=[1]).precision[1]
            if p1 >= 0.95:
                break
    elapsed = time.monotonic() - t0
    report("criterion-5 overfit", p1 >= 0.95 and elapsed < 60.0,
           f"training P@1 = {p1:.3f} after {epochs_used} epochs, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criteria 6 & 7: learning signal and ablation direction
# ---------------------------------------------------------------------------

def test_criterion_6_learning_signal(synth_bundle, trained_runs):
    runs, elapsed = trained_runs
    pop = popularity_baseline(synth_bundle, ks=[10, 20]).precision[10]
    mean_p10 = float(np.mean([r["p@10"] for r in runs["full"]]))
    margin = mean_p10 - pop
    report("criterion-6 learning-signal",
           margin >= 0.10 and elapsed < 600.0,
           f"trained P@10 {mean_p10:.3f} vs popularity {pop:.3f} "
           f"(margin {margin:.3f}), training wall {elapsed:.0f}s")


def test_criterion_7_ablation_direction(trained_runs):
    runs, _ = trained_runs
    means = {name: float(np.mean([r["p@20"] for r in rs]))
             for name, rs in runs.items()}
    full = means.pop("full")
    ok = all(full >= m - 0.02 for m in means.values())
    detail = ", ".join(f"{k}={v:.3f}" for k, v in means.items())
    report("criterion-7 ablation-direction", ok,
           f"full P@20 {full:.3f} vs {detail} (tolerance 0.02)")


# ---------------------------------------------------------------------------
# criterion 8: metric correctness
# ---------------------------------------------------------------------------

def test_criterion_8_metric_correctness():
    p20 = precision_at_k([1, 3, 25], 20)
    m20 = mrr_at_k([1, 3, 25], 20)
    exact = abs(p20 - 2 / 3) < 1e-9 and abs(m20 - (1 + 1 / 3) / 3) < 1e-9
    rng = np.random.default_rng(3)
    holds = True
    for _ in range(200):
        sample = rng.integers(1, 60, size=rng.integers(1, 40))
        k1, k2 = sorted(rng.integers(1, 50, size=2))
        holds &= mrr_at_k(sample, k1) <= precision_at_k(sample, k1) + 1e-12
        holds &= precision_at_k(sample, k2) >= precision_at_k(sample, k1)
        holds &= mrr_at_k(sample, k2) >= mrr_at_k(sample, k1)
    assert ranks(np.zeros((1, 10)), [4]).tolist() == [5]
    report("criterion-8 metrics", exact and holds,
           f"P@20={p20:.6f}, MRR@20={m20:.6f}, order properties on 200 sets")


# ---------------------------------------------------------------------------
# criterion 9: determinism
# ---------------------------------------------------------------------------

def test_criterion_9_determinism(tmp_path):
    bundle_path = tmp_path / "bundle.json"
    assert CLI.main(["synth", "--out", str(bundle_path), "--n-items", "30",
                     "--sessions", "80", "--chains", "3", "--chain-len", "6",
                     "--seed", "11"]) == 0
    args = ["train", "--data", str(bundle_path), "--d", "8", "--layers", "1",
            "--epochs", "2", "--batch", "16", "--seed", "4"]
    dirs = [tmp_path / "a", tmp_path / "b"]
    for d in dirs:
        assert CLI.main(args + ["--out", str(d)]) == 0
    same_metrics = ((dirs[0] / "metrics.json").read_bytes()
                    == (dirs[1] / "metrics.json").read_bytes())
    same_best = ((dirs[0] / "best.ckpt").read_bytes()
                 == (dirs[1] / "best.ckpt").read_bytes())
    same_last = ((dirs[0] / "last.ckpt").read_bytes()
                 == (dirs[1] / "last.ckpt").read_bytes())
    report("criterion-9 determinism", same_metrics and same_best and same_last,
           "metrics.json and checkpoints byte-identical across two runs")


def test_criterion_9_determinism_across_openblas_threads(tmp_path):
    # the user's OpenBLAS thread count, set before numpy loads, does not reach
    # the bytes: a default run writes the same files on one thread and on two
    def sessrec(*argv, threads="1"):
        subprocess.run([sys.executable, "-m", "sessrec.cli", *map(str, argv)],
                       env=child_env(OPENBLAS_NUM_THREADS=threads),
                       capture_output=True, check=True)

    bundle = tmp_path / "bundle.json"
    sessrec("synth", "--out", bundle)
    for threads in ("1", "2"):
        sessrec("train", "--data", bundle, "--out", tmp_path / threads, "--epochs", "1",
                threads=threads)
    differ = [name for name in ("metrics.json", "best.ckpt", "last.ckpt")
              if (tmp_path / "1" / name).read_bytes() != (tmp_path / "2" / name).read_bytes()]
    report("criterion-9 determinism across OpenBLAS threads", not differ,
           f"differ under OPENBLAS_NUM_THREADS=1 and =2: {differ or 'none'}")
