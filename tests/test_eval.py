import json
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sessrec import evaluate as E
from sessrec import model as M
from sessrec import tensor as T
from sessrec.cli import EXIT_NUMERIC, EXIT_OK, main
from sessrec.data import TrainExample
from sessrec.evaluate import (EvalError, evaluate_model, mrr_at_k, popularity_baseline,
                              precision_at_k, ranks, ranks_for_examples, report_from_ranks)
from sessrec.model import Hyperparams
from sessrec.optim import NumericError
from sessrec.tensor import Tape, Tensor
from conftest import indexed_bundle


class TestRankTarget:
    """The one-row case of ranks."""

    def test_unique_max_is_rank_one(self):
        assert ranks([[0.1, 5.0, 0.2]], [1]).tolist() == [1]

    def test_definitional(self):
        assert ranks([[3.0, 2.0, 1.0]], [2]).tolist() == [3]

    def test_all_equal_breaks_by_index(self):
        assert ranks(np.zeros((1, 10)), [4]).tolist() == [5]

    def test_shift_invariance(self):
        scores = np.array([[0.3, -1.0, 2.0, 0.3]])
        for t in range(4):
            assert ranks(scores, [t]) == ranks(scores + 42.0, [t])


def per_row_rank(scores, target):
    """The ranking rule one row at a time: 1 + higher scores + equal scores at
    lower indices."""
    st_ = scores[target]
    return 1 + sum(1 for i, v in enumerate(scores) if v > st_ or (v == st_ and i < target))


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 12), st.integers(1, 15), st.integers(0, 2 ** 32 - 1))
def test_vectorised_ranks_match_per_row_rule_with_ties(g, n, seed):
    rng = np.random.default_rng(seed)
    # three distinct values, so most rows hold ties with their target
    scores = rng.integers(0, 3, size=(g, n)).astype(np.float64)
    targets = rng.integers(0, n, size=g)
    got = ranks(scores, targets)
    assert got.tolist() == [per_row_rank(scores[i].tolist(), int(targets[i]))
                            for i in range(g)]
    assert [ranks(scores[i:i + 1], targets[i:i + 1])[0] for i in range(g)] == got.tolist()


def test_ranks_of_rows_holding_nan_scores():
    # a NaN compares false with everything: it is neither above nor tied with
    # the target, and a NaN target ranks first
    nan = np.nan
    scores = [[nan, 1, 2, 0], [1, nan, 2, 0], [2, nan, 2, nan], [nan] * 4,
              [0, nan, 0, 0], [nan, 3, nan, 3], [1, 2, 3, 4]]
    assert ranks(scores, [0, 0, 2, 1, 3, 3, 0]).tolist() == [1, 2, 2, 1, 3, 2, 4]


class TestMetrics:
    def test_hand_fixture(self):
        ranks = [1, 3, 25]
        assert precision_at_k(ranks, 20) == pytest.approx(2 / 3, abs=1e-9)
        assert mrr_at_k(ranks, 20) == pytest.approx((1 + 1 / 3) / 3, abs=1e-9)

    def test_all_rank_one(self):
        assert precision_at_k([1, 1, 1], 5) == 1.0
        assert mrr_at_k([1, 1, 1], 5) == 1.0

    def test_all_beyond_k(self):
        assert precision_at_k([6, 7], 5) == 0.0
        assert mrr_at_k([6, 7], 5) == 0.0

    def test_empty_is_error(self):
        with pytest.raises(EvalError):
            precision_at_k([], 5)
        with pytest.raises(EvalError):
            mrr_at_k([], 5)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(1, 100), min_size=1, max_size=50),
           st.integers(1, 50), st.integers(1, 50))
    def test_mrr_bounded_by_precision_and_k_monotone(self, ranks, k1, k2):
        assert mrr_at_k(ranks, k1) <= precision_at_k(ranks, k1) + 1e-12
        lo, hi = min(k1, k2), max(k1, k2)
        assert precision_at_k(ranks, hi) >= precision_at_k(ranks, lo)
        assert mrr_at_k(ranks, hi) >= mrr_at_k(ranks, lo)


def test_report_structure():
    r = report_from_ranks([1, 2, 30], ks=[10, 20])
    d = r.to_dict()
    assert set(d) == {"n_examples", "p@10", "mrr@10", "p@20", "mrr@20"}
    assert d["n_examples"] == 3


class TestPopularityBaseline:
    def test_uniform_random_close_to_analytic(self):
        rng = np.random.default_rng(0)
        n = 50
        sessions = [list(rng.integers(0, n, size=5)) for _ in range(300)]
        test_sessions = [list(rng.integers(0, n, size=5)) for _ in range(300)]
        bundle = indexed_bundle(sessions, n, test_sessions=test_sessions)
        report = popularity_baseline(bundle, ks=[10])
        p = 10 / n
        n_ex = len(bundle.test)
        sigma = np.sqrt(p * (1 - p) / n_ex)
        assert abs(report.precision[10] - p) <= 3 * sigma

    def test_dominant_item(self):
        sessions = [[0, 1], [0, 2], [0, 3], [0, 1], [0, 2]]
        bundle = indexed_bundle(sessions, 4, test_sessions=[[1, 0], [2, 0]])
        report = popularity_baseline(bundle, ks=[1])
        assert report.precision[1] == 1.0  # every test target is item 0

    def test_empty_train_is_error(self):
        bundle = indexed_bundle([[0, 1]], 2, test_sessions=[[0, 1]])
        bundle.sessions_train = []
        with pytest.raises(EvalError):
            popularity_baseline(bundle)


# ---------------------------------------------------------------------------
# evaluation chunks on the tile pool
# ---------------------------------------------------------------------------

def pool_setup(n_examples, n=12, d=5, batch=4):
    """Random examples, some with prefixes longer than max_session_len, an
    item table and a model whose forward_groups cuts chunks of `batch` under
    a tape."""
    rng = np.random.default_rng(21)
    hyper = Hyperparams(d=d, num_layers=1, batch_size=batch, max_session_len=4,
                        seed=2)
    params = M.init_params(n, hyper)
    x_v = Tensor(rng.standard_normal((n, d)))
    examples = [TrainExample(tuple(int(i) for i in rng.integers(0, n, size=rng.integers(1, 7))),
                             int(rng.integers(0, n))) for _ in range(n_examples)]
    return examples, x_v, params, hyper


def chunk_budget(monkeypatch, rows, n=12):
    """Set the tile budget so that, with no tape recording, forward_groups cuts
    chunks of `rows` prefixes over n items: min(n, TILE_ENTRIES // n) // 2 = rows
    for rows up to n // 2."""
    monkeypatch.setattr(T, "TILE_ENTRIES", 2 * rows * n)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")   # numpy's, on the way to NaN
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_scores_are_a_numeric_error(value):
    # ranks would put every target of a NaN row first
    examples, x_v, params, hyper = pool_setup(6)
    x_v.data[3, 0] = value
    with pytest.raises(NumericError, match="not finite"):
        ranks_for_examples(examples, x_v, params, hyper)

@pytest.mark.parametrize("chunks", [1, 2, 3, 5])
def test_pooled_chunks_give_the_inline_ranks_and_report(monkeypatch, tile_pool, chunks):
    examples, x_v, params, hyper = pool_setup(4 * chunks - 1)   # a short last chunk
    chunk_budget(monkeypatch, 4)
    prefixes = [ex.prefix for ex in examples]
    got = {}
    for workers in (1, 2):
        monkeypatch.setattr(T, "WORKERS", workers)
        scores = [(p, s.data.tobytes()) for p, s in M.forward_groups(prefixes, x_v, params, hyper)]
        report = evaluate_model(examples, x_v, params, hyper, ks=(1, 3))
        got[workers] = (scores, ranks_for_examples(examples, x_v, params, hyper).tobytes(),
                        json.dumps(report.to_dict(), sort_keys=True))
        assert bool(tile_pool) == (workers == 2 and chunks > 1)
    assert got[2] == got[1]
    assert [p for p, _ in got[2][0]] == [slice(i, min(i + 4, len(examples)))
                                         for i in range(0, len(examples), 4)]
    # three passes with 2 workers, each with every other chunk on the pool thread
    assert tile_pool == 3 * [slice(i, min(i + 4, len(examples)))
                             for i in range(4, len(examples), 8)]


def test_chunk_budgets_and_worker_counts_give_the_same_ranks_and_report(monkeypatch,
                                                                        tile_pool):
    # 13 examples over 40 items in chunks of 1, of 5 (the last one ragged) and
    # in one chunk of 20 rows, each on 1, 2 and 6 threads. A product's rows
    # round by how many rows BLAS is handed, so score bytes are compared
    # within a budget; the ranks and the report hold across all of them.
    examples, x_v, params, hyper = pool_setup(13, n=40)
    prefixes = [ex.prefix for ex in examples]
    ranked = set()
    for rows in (1, 5, 20):
        chunk_budget(monkeypatch, rows, n=40)
        scored = []
        for workers in (1, 2, 6):
            monkeypatch.setattr(T, "WORKERS", workers)
            scored.append([(p, s.data.tobytes())
                           for p, s in M.forward_groups(prefixes, x_v, params, hyper)])
            report = evaluate_model(examples, x_v, params, hyper, ks=(1, 3, 10))
            ranked.add((ranks_for_examples(examples, x_v, params, hyper).tobytes(),
                        json.dumps(report.to_dict(), sort_keys=True)))
        assert scored[1] == scored[0] and scored[2] == scored[0]
        assert [p for p, _ in scored[0]] == [slice(i, min(i + rows, 13))
                                             for i in range(0, 13, rows)]
    assert len(ranked) == 1
    assert tile_pool


def record_census(tape, leaves):
    """Each record's primitive, its inputs (named by leaf or earlier record)
    and its output bytes: equal for two tapes that recorded the same calls."""
    names = {id(t): f"leaf{i}" for i, t in enumerate(leaves)}
    census = []
    for i, (out, inputs, vjp) in enumerate(tape.records):
        census.append((vjp.__qualname__, [names.get(id(t), "constant") for t in inputs],
                       out.data.tobytes()))
        names[id(out)] = f"record{i}"
    return census


def test_chunks_stay_inline_under_a_tape(monkeypatch, tile_pool):
    examples, x_v, params, hyper = pool_setup(11)
    leaves = [x_v, *params.tensors.values()]
    census = {}
    for workers in (1, 2):
        monkeypatch.setattr(T, "WORKERS", workers)
        with Tape() as tape:
            chunks = list(M.forward_groups([ex.prefix for ex in examples], x_v, params, hyper))
        assert len(chunks) == 3
        census[workers] = record_census(tape, leaves)
    assert not tile_pool
    assert census[2] == census[1]


def test_out_of_vocabulary_prefix_in_a_pooled_chunk_reaches_the_caller(monkeypatch, tile_pool):
    examples, x_v, params, hyper = pool_setup(11)
    chunk_budget(monkeypatch, 4)
    examples[5] = TrainExample((0, 12), 1)   # chunk 4:8 runs on the pool thread
    with pytest.raises(ValueError, match="outside vocabulary"):
        ranks_for_examples(examples, x_v, params, hyper)
    assert tile_pool == [slice(4, 8)]


def test_pooled_chunks_stress_more_workers_than_cores(monkeypatch, tile_pool):
    # 13 one-prefix chunks on 6 threads with a tiny switch interval: a lost or
    # reordered chunk would change the ranks or the scores' bytes
    examples, x_v, params, hyper = pool_setup(13)
    chunk_budget(monkeypatch, 1)
    prefixes = [ex.prefix for ex in examples]

    def outputs():
        return ([(p, s.data.tobytes()) for p, s in M.forward_groups(prefixes, x_v, params, hyper)],
                ranks_for_examples(examples, x_v, params, hyper).tolist())

    monkeypatch.setattr(T, "WORKERS", 1)
    serial = outputs()
    monkeypatch.setattr(T, "WORKERS", 6)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            assert outputs() == serial
    finally:
        sys.setswitchinterval(interval)
    assert len(tile_pool) == 5 * 2 * (13 - 3)   # 3 chunks of 6 start on the calling thread


def test_chunks_are_ranked_on_the_threads_that_score_them(monkeypatch, tile_pool):
    # with 2 workers both threads rank, and the ranks and report keep the
    # bytes of one worker ranking every chunk in turn
    examples, x_v, params, hyper = pool_setup(23)
    got = {}
    for workers in (1, 2):
        monkeypatch.setattr(T, "WORKERS", workers)
        threads = set()

        def ranks_noting_thread(scores, targets):
            threads.add(threading.get_ident())
            return ranks(scores, targets)

        monkeypatch.setattr(E, "ranks", ranks_noting_thread)
        got[workers] = (ranks_for_examples(examples, x_v, params, hyper).tobytes(),
                        json.dumps(evaluate_model(examples, x_v, params, hyper).to_dict(),
                                   sort_keys=True))
        # each pass starts its own pool thread, so two passes may note three
        assert len(threads) >= 2 if workers == 2 else len(threads) == 1
    assert tile_pool
    assert got[2] == got[1]


def test_numeric_error_in_a_pooled_chunk_exits_eval_with_code_5(tmp_path, monkeypatch,
                                                                 tile_pool, capsys):
    # only the chunks a pool thread scores turn NaN; the error reaches the
    # command as exit 5 and every pool thread has been joined
    bundle, run_dir = tmp_path / "bundle.json", tmp_path / "run"
    assert main(["synth", "--out", str(bundle), "--n-items", "30", "--sessions", "60",
                 "--chains", "3", "--chain-len", "6", "--seed", "5"]) == EXIT_OK
    assert main(["train", "--data", str(bundle), "--out", str(run_dir), "--d", "4",
                 "--layers", "1", "--epochs", "0", "--batch", "4"]) == EXIT_OK
    capsys.readouterr()
    score = M.score

    def nan_on_pool_threads(theta, x_v):
        z = score(theta, x_v)
        if threading.current_thread().name.startswith("sessrec-tile"):
            z.data[:] = np.nan
        return z

    monkeypatch.setattr(M, "score", nan_on_pool_threads)
    out = tmp_path / "e.json"
    assert main(["eval", "--checkpoint", str(run_dir / "last.ckpt"), "--data", str(bundle),
                 "--out", str(out)]) == EXIT_NUMERIC
    assert tile_pool
    assert capsys.readouterr().err == ("numeric error: a score is not finite, "
                                       "so no rank is defined\n")
    assert not out.exists()
    assert not [t for t in threading.enumerate() if t.name.startswith("sessrec-tile")]
