import numpy as np
import pytest
import scipy.sparse as sp

from sessrec import tensor as T
from sessrec.tensor import ShapeError, Tape, Tensor, grad_check


def rand(rng, r, c):
    return Tensor(rng.standard_normal((r, c)))


def test_matmul_hand_value():
    out = T.matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[1.0], [1.0]]))
    np.testing.assert_allclose(out.data, [[3.0], [7.0]])


def test_matmul_identity():
    rng = np.random.default_rng(1)
    b = rand(rng, 3, 4)
    out = T.matmul(Tensor(np.eye(3)), b)
    np.testing.assert_array_equal(out.data, b.data)


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 2\)"):
        T.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 2))))


def test_sparse_row_selects_embedding_row():
    emb = np.arange(12.0).reshape(4, 3)
    s = sp.csr_matrix(([1.0], ([0], [2])), shape=(1, 4))
    out = T.sparse_matmul(s, Tensor(emb))
    np.testing.assert_array_equal(out.data, emb[2:3])


def test_sparse_matches_dense():
    rng = np.random.default_rng(2)
    for n in (1, 7, 64):
        dense = rng.random((n, n)) * (rng.random((n, n)) < 0.3)
        x = rand(rng, n, 5)
        got = T.sparse_matmul(sp.csr_matrix(dense), x)
        want = dense @ x.data
        np.testing.assert_allclose(got.data, want, atol=1e-12)


def test_elementwise_trivials():
    np.testing.assert_allclose(T.tanh(Tensor([[0.0]])).data, [[0.0]])
    np.testing.assert_allclose(T.sigmoid(Tensor([[0.0]])).data, [[0.5]])
    np.testing.assert_allclose(T.row_softmax(Tensor([[0.0, 0.0]])).data, [[0.5, 0.5]])


def test_row_softmax_rows_sum_to_one_and_shift_invariant():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((6, 9)) * 10
    s = T.row_softmax(Tensor(x))
    np.testing.assert_allclose(s.data.sum(axis=1), 1.0, atol=1e-12)
    shifted = T.row_softmax(Tensor(x + 123.0))
    np.testing.assert_allclose(s.data, shifted.data, atol=1e-12)


def test_cosine_matrix_orthogonal_rows():
    x = Tensor([[1.0, 0.0], [0.0, 1.0]])
    c = T.cosine_similarity_matrix(x)
    np.testing.assert_allclose(c.data, np.eye(2), atol=1e-15)


def test_backward_requires_scalar():
    with Tape() as tape:
        x = Tensor(np.ones((2, 2)))
        y = T.tanh(x)
    with pytest.raises(ShapeError):
        tape.backward(y)


def test_backward_sum_gives_ones():
    w = Tensor(np.random.default_rng(4).standard_normal((3, 4)))
    with Tape() as tape:
        tape.backward(T.sum_all(w))
    np.testing.assert_array_equal(w.grad, np.ones((3, 4)))


def test_backward_sum_tanh_at_zero_gives_ones():
    w = Tensor(np.zeros((2, 5)))
    with Tape() as tape:
        tape.backward(T.sum_all(T.tanh(w)))
    np.testing.assert_allclose(w.grad, np.ones((2, 5)))


def test_repeated_operand_accumulates():
    w = Tensor([[2.0]])
    with Tape() as tape:
        tape.backward(T.sum_all(T.mul(w, w)))
    np.testing.assert_allclose(w.grad, [[4.0]])


def test_sum_blocks_and_repeat_rows_are_adjoint():
    x = Tensor(np.arange(12.0).reshape(6, 2))
    np.testing.assert_array_equal(T.sum_blocks(x, 3).data, [[6.0, 9.0], [24.0, 27.0]])
    y = Tensor([[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_array_equal(T.repeat_rows(y, 2).data,
                                  [[1.0, 2.0], [1.0, 2.0], [3.0, 4.0], [3.0, 4.0]])
    # <sum_blocks(x), y> == <x, repeat_rows(y)>
    assert np.sum(T.sum_blocks(x, 3).data * y.data) == \
        np.sum(x.data * T.repeat_rows(y, 3).data)
    with pytest.raises(ShapeError, match="blocks of 4"):
        T.sum_blocks(x, 4)


def test_forward_determinism():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((4, 4))
    a = T.row_softmax(T.matmul(Tensor(x), Tensor(x))).data
    b = T.row_softmax(T.matmul(Tensor(x), Tensor(x))).data
    assert np.array_equal(a, b)


# every primitive passes grad_check in isolation at 1e-6 (eps=1e-5)

def _check(f, params, tol=1e-6):
    assert grad_check(f, params) < tol


class TestPrimitiveGradients:
    rng = np.random.default_rng(17)

    def test_matmul(self):
        a, b = rand(self.rng, 3, 4), rand(self.rng, 4, 2)
        _check(lambda: T.sum_all(T.tanh(T.matmul(a, b))), [a, b])

    def test_sparse_matmul(self):
        s = sp.csr_matrix(np.triu(np.ones((4, 4))))
        x = rand(self.rng, 4, 3)
        _check(lambda: T.sum_all(T.tanh(T.sparse_matmul(s, x))), [x])

    def test_add_and_add_bias(self):
        a, b = rand(self.rng, 3, 4), rand(self.rng, 3, 4)
        bias = rand(self.rng, 1, 4)
        _check(lambda: T.sum_all(T.sigmoid(T.add_bias(T.add(a, b), bias))),
               [a, b, bias])

    def test_scale_affine(self):
        x = rand(self.rng, 2, 3)
        _check(lambda: T.sum_all(T.tanh(T.affine(T.scale(x, 1.7), -0.5, 0.3))), [x])

    def test_mul(self):
        a, b = rand(self.rng, 3, 3), rand(self.rng, 3, 3)
        _check(lambda: T.sum_all(T.tanh(T.mul(a, b))), [a, b])

    def test_mul_cols(self):
        x, col = rand(self.rng, 4, 3), rand(self.rng, 4, 1)
        _check(lambda: T.sum_all(T.tanh(T.mul_cols(x, col))), [x, col])

    def test_tanh_sigmoid(self):
        x = rand(self.rng, 3, 3)
        _check(lambda: T.sum_all(T.sigmoid(T.tanh(x))), [x])

    def test_log(self):
        x = Tensor(self.rng.random((3, 3)) + 0.5)
        _check(lambda: T.sum_all(T.log(x)), [x])

    def test_clamp_away_from_bounds(self):
        x = Tensor(self.rng.uniform(-0.5, 0.5, (3, 3)))
        _check(lambda: T.sum_all(T.tanh(T.clamp(x, -1.0, 1.0))), [x])

    def test_concat_cols(self):
        a, b = rand(self.rng, 3, 2), rand(self.rng, 3, 4)
        _check(lambda: T.sum_all(T.tanh(T.concat_cols(a, b))), [a, b])

    def test_select_rows_with_repeats(self):
        x = rand(self.rng, 5, 3)
        _check(lambda: T.sum_all(T.tanh(T.select_rows(x, [0, 2, 2, 4]))), [x])

    def test_sum_blocks(self):
        x = rand(self.rng, 6, 3)
        _check(lambda: T.sum_all(T.tanh(T.sum_blocks(x, 3))), [x])

    def test_repeat_rows(self):
        x = rand(self.rng, 2, 3)
        _check(lambda: T.sum_all(T.tanh(T.repeat_rows(x, 3))), [x])

    def test_transpose(self):
        x = rand(self.rng, 2, 5)
        _check(lambda: T.sum_all(T.tanh(T.transpose(x))), [x])

    def test_row_softmax(self):
        x = rand(self.rng, 4, 5)
        w = rand(self.rng, 4, 5)
        _check(lambda: T.sum_all(T.mul(T.row_softmax(x), w)), [x, w])

    def test_row_logsumexp(self):
        x = rand(self.rng, 4, 6)
        _check(lambda: T.sum_all(T.tanh(T.row_logsumexp(x))), [x])

    def test_normalize_rows(self):
        x = Tensor(self.rng.standard_normal((4, 3)) + 2.0)
        _check(lambda: T.sum_all(T.tanh(T.normalize_rows(x))), [x])

    def test_cosine_similarity_matrix(self):
        x = Tensor(self.rng.standard_normal((4, 3)) + 1.0)
        _check(lambda: T.sum_all(T.tanh(T.cosine_similarity_matrix(x))), [x])


def test_corrupted_adjoint_is_caught():
    # a deliberately wrong vjp must blow past 1e-2
    rng = np.random.default_rng(9)
    x = Tensor(rng.standard_normal((3, 3)))

    def bad_tanh(t):
        y = np.tanh(t.data)
        out = Tensor(y)
        Tape._record(out, (t,), lambda g: (g * (1.0 - y),))  # wrong derivative
        return out

    err = grad_check(lambda: T.sum_all(bad_tanh(x)), [x])
    assert err > 1e-2


def test_linear_function_near_machine_eps():
    rng = np.random.default_rng(10)
    x = rand(rng, 3, 3)
    w = Tensor(rng.standard_normal((3, 3)))
    err = grad_check(lambda: T.sum_all(T.matmul(x, w)), [x])
    assert err < 1e-9
