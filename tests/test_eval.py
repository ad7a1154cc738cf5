import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sessrec.evaluate import (EvalError, mrr_at_k, popularity_baseline, precision_at_k,
                              ranks, report_from_ranks)
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
