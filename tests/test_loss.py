import decimal
from decimal import Decimal

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


def reference_ce(z, target, binary):
    """Value and score gradient of one row's cross-entropy, in 60-digit decimal
    arithmetic straight from the definition: softmax, log, and for binary the
    log(1 - p_i) of every other entry; dz_k = p_k (1 - W) + w_k - [k = t],
    with odds w_i = p_i / (1 - p_i) (w_t = 0) and W = sum_i w_i."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        z = [Decimal(float(v)) for v in z]
        e = [(v - max(z)).exp() for v in z]
        p = [v / sum(e) for v in e]
        value = -p[target].ln()
        if not binary:
            return value, [pk - (k == target) for k, pk in enumerate(p)]
        w = [0 if k == target else pk / (1 - pk) for k, pk in enumerate(p)]
        value -= sum((1 - pk).ln() for k, pk in enumerate(p) if k != target)
        return value, [pk * (1 - sum(w)) + w[k] - (k == target) for k, pk in enumerate(p)]


def gap_rows(gap):
    """Scores with targets, one pattern per row: the target on top with every
    other score at least `gap` below; the target `gap` below the top and the
    rest between them; the target `gap` below the top and the rest below it."""
    z = np.array([[0.0, -gap, -gap - 0.5, -gap - 1.25, -gap - 2.0, -gap - 3.0],
                  [-0.3 * gap, -gap, -0.6 * gap, 0.0, -0.9 * gap, -0.5 * gap],
                  [-gap - 1.0, -gap, 0.0, -gap - 2.0, -gap - 0.5, -gap - 3.0]]) + 1.5
    return z, np.array([0, 1, 1])


class TestCrossEntropy:
    # the scores are the logs of probability rows, whose softmax is that row
    def test_as_printed_hand_value(self):
        z = Tensor(np.log([[0.25, 0.25, 0.5]]))
        got = L.cross_entropy_rows(z, [2], form="as_printed").item()
        want = -(np.log(0.5) + 2 * np.log(0.75))
        assert got == pytest.approx(want, abs=1e-12)
        assert got == pytest.approx(1.2685, abs=1e-4)

    def test_softmax_ce_hand_value(self):
        z = Tensor(np.log([[0.25, 0.25, 0.5]]))
        got = L.cross_entropy_rows(z, [2], form="softmax_ce").item()
        assert got == pytest.approx(-np.log(0.5), abs=1e-12)

    def test_one_hot_prediction_is_zero(self):
        z = Tensor([[-np.inf, 0.0, -np.inf]])   # the log of [0, 1, 0]
        for form in ("as_printed", "softmax_ce"):
            assert L.cross_entropy_rows(z, [1], form=form).item() == 0.0

    def test_target_out_of_range(self):
        with pytest.raises(ValueError):
            L.cross_entropy_rows(Tensor([[0.5, 0.5]]), [2])

    def test_unknown_form(self):
        with pytest.raises(ValueError, match="ce_form"):
            L.cross_entropy_rows(Tensor([[0.5, 0.5]]), [0], "hinge")

    def test_gradients(self, rng):
        z = Tensor(np.log(rng.dirichlet(np.ones(5), size=3)))
        for form in ("as_printed", "softmax_ce"):
            err = grad_check(lambda: L.cross_entropy_rows(z, [1, 0, 4], form), [z])
            assert err < 1e-5

    @pytest.mark.parametrize("form", ["as_printed", "softmax_ce"])
    def test_one_tape_record(self, form):
        z, targets = gap_rows(3.0)
        with T.Tape() as tape:
            L.cross_entropy_rows(Tensor(z), targets, form)
        assert len(tape.records) == 1

    @pytest.mark.parametrize("gap", [0.0, 10.0, 30.0, 40.0, 60.0])
    @pytest.mark.parametrize("form", ["as_printed", "softmax_ce"])
    def test_matches_decimal_reference(self, form, gap):
        z, targets = gap_rows(gap)
        x = Tensor(z)
        with T.Tape() as tape:
            out = L.cross_entropy_rows(x, targets, form)
            tape.backward(T.scale(out, 0.5))
        refs = [reference_ce(row, t, form == "as_printed") for row, t in zip(z, targets)]
        want = sum(value for value, _ in refs)
        assert out.item() == pytest.approx(float(want), rel=1e-14, abs=1e-300)
        want_grad = np.array([[float(v / 2) for v in grad] for _, grad in refs])
        np.testing.assert_allclose(x.grad, want_grad, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("gap", [30.0, 40.0, 60.0])
    @pytest.mark.parametrize("form", ["as_printed", "softmax_ce"])
    def test_trailing_target_is_pushed_up(self, form, gap):
        # a clamp of the target's probability to 1e-12 once capped this loss at
        # 27.63 with a zero gradient from a gap of about 28 on
        z = Tensor([[0.0, -gap]])
        with T.Tape() as tape:
            out = L.cross_entropy_rows(z, [1], form)
            tape.backward(out)
        assert out.item() >= gap
        assert z.grad[0, 1] < -0.99 and z.grad[0, 0] > 0.99


    @pytest.mark.filterwarnings("ignore:divide by zero:RuntimeWarning")
    def test_past_the_underflow(self):
        # 800 below the top, exp underflows to 0: -log p_t stays exact, while
        # 1 - p_top is 0 and the binary loss is infinite rather than capped
        z = Tensor([[0.0, -800.0]])
        with T.Tape() as tape:
            out = L.cross_entropy_rows(z, [1], "softmax_ce")
            tape.backward(out)
        assert out.item() == 800.0
        np.testing.assert_array_equal(z.grad, [[1.0, -1.0]])
        assert L.cross_entropy_rows(z, [1], "as_printed").item() == np.inf

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
