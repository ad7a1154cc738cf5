import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sessrec import loss as L
from sessrec import tensor as T
from sessrec.tensor import Tensor, grad_check


def spl_from_sims(sims, tau):
    """Oracle: uniformity loss as a direct function of a cosine matrix."""
    k = sims.shape[0]
    scaled = sims / tau
    mx = scaled.max(axis=1, keepdims=True)
    lse = (mx + np.log(np.exp(scaled - mx).sum(axis=1, keepdims=True))).sum()
    return lse - k / tau


class TestCrossEntropy:
    def test_as_printed_hand_value(self):
        y = Tensor([[0.25, 0.25, 0.5]])
        got = L.cross_entropy_rows(y, [2], form="as_printed").item()
        want = -(np.log(0.5) + 2 * np.log(0.75))
        assert got == pytest.approx(want, abs=1e-12)
        assert got == pytest.approx(1.2685, abs=1e-4)

    def test_softmax_ce_hand_value(self):
        y = Tensor([[0.25, 0.25, 0.5]])
        got = L.cross_entropy_rows(y, [2], form="softmax_ce").item()
        assert got == pytest.approx(-np.log(0.5), abs=1e-12)

    def test_one_hot_prediction_is_zero(self):
        y = Tensor([[0.0, 1.0, 0.0]])
        for form in ("as_printed", "softmax_ce"):
            assert L.cross_entropy_rows(y, [1], form=form).item() <= 1e-9

    def test_target_out_of_range(self):
        with pytest.raises(ValueError):
            L.cross_entropy_rows(Tensor([[0.5, 0.5]]), [2])

    def test_gradients(self, rng):
        probs = rng.dirichlet(np.ones(5), size=3)
        x = Tensor(probs)
        for form in ("as_printed", "softmax_ce"):
            err = grad_check(lambda: L.cross_entropy_rows(x, [1, 0, 4], form), [x])
            assert err < 1e-5


def clamp_log_chain(p, targets, form, c):
    """Value and probability gradient of c * cross-entropy as the chain of
    generic primitives computed it before the fused primitive: clamp, log, a
    product with a dense one-hot matrix and a full sum, per term. Dense numpy,
    each backward step in that chain's own operation order."""
    eps = L.PROB_EPS
    g, n = p.shape
    onehot = np.zeros((g, n))
    onehot[np.arange(g), targets] = 1.0
    cp = np.clip(p, eps, 1.0 - eps)
    pos = (np.log(cp) * onehot).sum()
    d_pos = ((np.full((g, n), -c) * onehot) / cp) * ((p > eps) & (p < 1.0 - eps))
    if form == "softmax_ce":
        return -pos, d_pos
    q = -1.0 * p + 1.0
    cq = np.clip(q, eps, 1.0 - eps)
    neg = (np.log(cq) * (1.0 - onehot)).sum()
    d_neg = ((np.full((g, n), -c) * (1.0 - onehot)) / cq) * ((q > eps) & (q < 1.0 - eps))
    return -(pos + neg), d_neg * -1.0 + d_pos


class TestFusedCrossEntropy:
    # row 0: target below the clamp; row 1: a non-target above 1 - eps;
    # row 2: target above 1 - eps and a non-target at exactly 0;
    # row 3: a target exactly 1; row 4: target and a non-target exactly at eps,
    # where the clamp's open interval already bites; rows 5-6: softmax rows
    @staticmethod
    def probs():
        rng = np.random.default_rng(3)
        p = rng.dirichlet(np.ones(6), size=7)
        p[0] = [1e-14, 0.5, 0.25, 0.25 - 1e-14, 0.0, 0.0]
        p[1] = [1e-13, 1.0 - 1e-13, 0.0, 0.0, 0.0, 0.0]
        p[2] = [0.0, 0.0, 1.0 - 1e-13, 1e-13, 0.0, 0.0]
        p[3] = [0.0, 0.0, 0.0, 1.0, 0.0, 0.0]
        p[4] = [0.5, 1e-12, 1e-12, 0.25, 0.25 - 2e-12, 0.0]
        return p, np.array([0, 0, 2, 3, 1, 5, 1])

    @pytest.mark.parametrize("form", ["as_printed", "softmax_ce"])
    @pytest.mark.parametrize("c", [1.0, 0.01])
    def test_vjp_matches_clamp_log_chain_bit_for_bit(self, form, c):
        p, targets = self.probs()
        x = Tensor(p)
        with T.Tape() as tape:
            out = L.cross_entropy_rows(x, targets, form)
            tape.backward(T.scale(out, c))
        value, grad = clamp_log_chain(p, targets, form, c)
        # equal floats have equal bits, apart from the sign of a zero
        assert np.array_equal(x.grad, grad)
        assert (grad[[0, 2, 3, 4], [0, 2, 3, 1]] == 0.0).all()   # the clamp bites
        if form == "as_printed":
            assert grad[1, 1] == 0.0 and grad[2, 0] == 0.0 and grad[4, 2] == 0.0
        # the sums add the same terms in another order
        assert out.item() == pytest.approx(value, rel=1e-14)

    @pytest.mark.parametrize("form", ["as_printed", "softmax_ce"])
    def test_one_tape_record(self, form):
        p, targets = self.probs()
        with T.Tape() as tape:
            L.cross_entropy_rows(Tensor(p), targets, form)
        assert len(tape.records) == 1

    def test_unknown_form(self):
        with pytest.raises(ValueError, match="ce_form"):
            L.cross_entropy_rows(Tensor([[0.5, 0.5]]), [0], "hinge")


class TestSinglePositiveLoss:
    def test_single_row_is_zero(self, rng):
        x = Tensor(rng.standard_normal((1, 4)))
        assert L.single_positive_loss(x, tau=1.0).item() == pytest.approx(0.0, abs=1e-12)

    def test_two_orthogonal_unit_rows(self):
        x = Tensor([[1.0, 0.0], [0.0, 1.0]])
        want = 2 * np.log(1 + np.exp(-1.0))
        got = L.single_positive_loss(x, tau=1.0).item()
        assert got == pytest.approx(want, abs=1e-12)
        assert got == pytest.approx(0.6265, abs=1e-4)

    def test_two_identical_rows(self):
        x = Tensor([[0.3, 0.4], [0.3, 0.4]])
        got = L.single_positive_loss(x, tau=1.0).item()
        assert got == pytest.approx(2 * np.log(2.0), abs=1e-12)
        assert got == pytest.approx(1.3863, abs=1e-4)

    def test_zero_row_is_error(self):
        with pytest.raises(ValueError, match="degenerate"):
            L.single_positive_loss(Tensor([[0.0, 0.0], [1.0, 0.0]]), tau=1.0)

    def test_antipodal_pair_attains_lower_bound(self):
        tau = 0.5
        x = Tensor([[1.0, 0.0], [-1.0, 0.0]])
        k = 2
        bound = k * np.log(1 + (k - 1) * np.exp(-2.0 / tau))
        assert L.single_positive_loss(x, tau).item() == pytest.approx(bound, abs=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 8), st.integers(1, 6), st.integers(0, 10_000))
    def test_nonnegative(self, k, d, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((k, d))
        x[np.linalg.norm(x, axis=1) == 0] = 1.0
        assert L.single_positive_loss(Tensor(x), tau=0.3).item() >= -1e-12

    def test_rotation_invariance(self, rng):
        x = rng.standard_normal((5, 4))
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        a = L.single_positive_loss(Tensor(x), tau=0.2).item()
        b = L.single_positive_loss(Tensor(x @ q), tau=0.2).item()
        assert a == pytest.approx(b, abs=1e-9)

    def test_scale_invariance(self, rng):
        x = rng.standard_normal((5, 4))
        a = L.single_positive_loss(Tensor(x), tau=0.2).item()
        for c in (1e-3, 2.0, 1e4):
            b = L.single_positive_loss(Tensor(c * x), tau=0.2).item()
            assert a == pytest.approx(b, abs=1e-9)

    def test_matches_similarity_oracle(self, rng):
        x = rng.standard_normal((6, 4))
        norm = x / np.linalg.norm(x, axis=1, keepdims=True)
        want = spl_from_sims(norm @ norm.T, tau=0.15)
        got = L.single_positive_loss(Tensor(x), tau=0.15).item()
        assert got == pytest.approx(want, abs=1e-10)

    def test_monotone_in_any_off_diagonal_cosine(self):
        # as a function of the similarity matrix, raising one off-diagonal
        # entry strictly raises the loss
        rng = np.random.default_rng(2)
        x = rng.standard_normal((4, 3))
        n = x / np.linalg.norm(x, axis=1, keepdims=True)
        sims = n @ n.T
        base = spl_from_sims(sims, tau=0.4)
        for i in range(4):
            for j in range(4):
                if i == j:
                    continue
                bumped = sims.copy()
                bumped[i, j] += 0.05
                assert spl_from_sims(bumped, tau=0.4) > base

    def test_gradient(self, rng):
        x = Tensor(rng.standard_normal((4, 3)) + 0.5)
        assert grad_check(lambda: L.single_positive_loss(x, tau=0.5), [x]) < 1e-5


class TestTotalLoss:
    def _scalars(self, ce, spl):
        return Tensor([[ce]]), Tensor([[spl]])

    def test_beta_zero_is_pure_ce(self):
        ce, spl = self._scalars(1.7, 3.0)
        total, breakdown = L.total_loss(ce, spl, beta=0.0)
        assert total.item() == 1.7
        assert breakdown.total == 1.7 and breakdown.l_ce == 1.7

    def test_weighted_sum(self):
        ce, spl = self._scalars(1.0, 2.0)
        total, breakdown = L.total_loss(ce, spl, beta=0.5)
        assert total.item() == pytest.approx(2.0)
        assert breakdown.total == pytest.approx(breakdown.l_ce + 0.5 * breakdown.l_spl)

    def test_large_beta_dominates(self):
        ce, spl = self._scalars(1.0, 2.0)
        total, _ = L.total_loss(ce, spl, beta=75.0)
        assert total.item() == pytest.approx(151.0)
        assert 75.0 * 2.0 / total.item() > 0.99

    def test_missing_spl_term(self):
        ce = Tensor([[0.4]])
        total, breakdown = L.total_loss(ce, None, beta=1.0)
        assert total.item() == pytest.approx(0.4) and breakdown.l_spl == 0.0
