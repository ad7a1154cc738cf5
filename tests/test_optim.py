import numpy as np
import pytest

from sessrec.optim import Adam, NumericError
from sessrec.tensor import Tensor


def make_param(values):
    return Tensor(np.array(values, dtype=np.float64))


def test_zero_grad_zero_l2_is_fixed_point():
    p = make_param([[1.0, -2.0]])
    opt = Adam({"w": p}, lr=0.01, l2=0.0)
    for _ in range(5):
        p.grad = np.zeros((1, 2))
        opt.step()
    np.testing.assert_array_equal(p.data, [[1.0, -2.0]])


def test_first_step_magnitude():
    p = make_param([[0.0]])
    opt = Adam({"w": p}, lr=0.001, l2=0.0)
    p.grad = np.array([[1.0]])
    opt.step()
    # m_hat/sqrt(v_hat) = 1 up to eps, so the step is -lr (tiny eps slack)
    assert p.data[0, 0] == pytest.approx(-0.001, rel=1e-4)


def test_l2_pulls_positive_params_down():
    p = make_param([[0.5]])
    opt = Adam({"w": p}, lr=0.001, l2=0.1)
    for _ in range(3):
        p.grad = np.zeros((1, 1))
        before = p.data[0, 0]
        opt.step()
        assert p.data[0, 0] < before


def test_nonfinite_gradient_names_parameter():
    p = make_param([[1.0]])
    opt = Adam({"bad_param": p})
    p.grad = np.array([[np.nan]])
    with pytest.raises(NumericError, match="bad_param"):
        opt.step()


def test_none_grad_is_skipped():
    p = make_param([[3.0]])
    opt = Adam({"w": p}, l2=0.5)
    p.grad = None
    opt.step()
    np.testing.assert_array_equal(p.data, [[3.0]])


def test_zero_grads():
    p, q = make_param([[1.0]]), make_param([[2.0]])
    p.grad = np.ones((1, 1))
    opt = Adam({"p": p, "q": q})
    opt.zero_grads()
    assert p.grad is None and q.grad is None
    np.testing.assert_array_equal(p.data, [[1.0]])


def test_update_magnitude_bound():
    rng = np.random.default_rng(0)
    p = make_param(rng.standard_normal((4, 4)))
    opt = Adam({"w": p}, lr=0.01)
    for _ in range(50):
        before = p.data.copy()
        p.grad = rng.standard_normal((4, 4)) * 10.0 ** rng.integers(-3, 4)
        opt.step()
        assert np.max(np.abs(p.data - before)) <= 10 * 0.01


def test_determinism():
    rng = np.random.default_rng(1)
    grads = [rng.standard_normal((2, 3)) for _ in range(10)]
    outs = []
    for _ in range(2):
        p = make_param(np.ones((2, 3)))
        opt = Adam({"w": p}, lr=0.005, l2=1e-5)
        for g in grads:
            p.grad = g.copy()
            opt.step()
        outs.append(p.data.copy())
    np.testing.assert_array_equal(outs[0], outs[1])
