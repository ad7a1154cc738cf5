import math
import subprocess
import sys
import threading
import time
import weakref

import numpy as np
import pytest
import scipy.sparse as sp

from sessrec import loss as L
from sessrec import model as M
from sessrec import tensor as T
from sessrec.tensor import ShapeError, Tape, Tensor, grad_check
from conftest import child_env, traced_peak


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


def test_graph_conv_row_selects_embedding_row():
    emb = np.arange(12.0).reshape(4, 3)
    s = sp.csr_matrix(([1.0], ([0], [2])), shape=(1, 4))
    out = T.graph_conv(s, Tensor(emb), Tensor(np.eye(3)))
    np.testing.assert_array_equal(out.data, emb[2:3])


def test_graph_conv_matches_dense():
    rng = np.random.default_rng(2)
    for n in (1, 7, 64):
        dense = rng.random((n, n)) * (rng.random((n, n)) < 0.3)
        x, w = rand(rng, n, 5), rand(rng, 5, 3)
        got = T.graph_conv(sp.csr_matrix(dense), x, w)
        want = dense @ x.data @ w.data
        np.testing.assert_allclose(got.data, want, atol=1e-12)


def test_graph_conv_backward_reads_the_transpose_in_place():
    # S^T dO through the CSC view of S^T has the bytes of a transposed CSR copy
    rng = np.random.default_rng(3)
    dense = rng.random((30, 30)) * (rng.random((30, 30)) < 0.3)
    s, x, w = sp.csr_matrix(dense), rand(rng, 30, 5), rand(rng, 5, 4)
    g = rng.standard_normal((30, 4))
    with Tape() as tape:
        tape.backward(T.sum_all(T.mul(T.graph_conv(s, x, w), Tensor(g))))
    a = s.T.tocsr() @ g
    _assert_same_bytes([x.grad, w.grad], [a @ w.data.T, x.data.T @ a])


def test_graph_conv_rejects_operands_that_do_not_chain():
    s = sp.identity(3, format="csr")
    with pytest.raises(ShapeError, match="graph_conv"):
        T.graph_conv(np.eye(3), Tensor(np.ones((3, 2))), Tensor(np.ones((2, 2))))
    with pytest.raises(ShapeError, match="graph_conv"):
        T.graph_conv(s, Tensor(np.ones((4, 2))), Tensor(np.ones((2, 2))))
    with pytest.raises(ShapeError, match="graph_conv"):
        T.graph_conv(s, Tensor(np.ones((3, 2))), Tensor(np.ones((3, 2))))


def test_elementwise_trivials():
    np.testing.assert_allclose(T.tanh(Tensor([[0.0]])).data, [[0.0]])
    np.testing.assert_allclose(T.sigmoid(Tensor([[0.0]])).data, [[0.5]])


def test_row_softmax_rows_sum_to_one_and_shift_invariant():
    # the row softmax model.predict takes from _exp_rows_
    def softmax(x):
        e = x.copy()
        lse, total = T._exp_rows_(e)
        np.testing.assert_allclose(lse, np.log(np.exp(x).sum(axis=1, keepdims=True)))
        return e / total

    rng = np.random.default_rng(3)
    x = rng.standard_normal((6, 9)) * 10
    s = softmax(x)
    np.testing.assert_allclose(s.sum(axis=1), 1.0, atol=1e-12)
    np.testing.assert_allclose(s, softmax(x + 123.0), atol=1e-12)


def test_gram_logsumexp_orthogonal_rows():
    # each row scores 1 against itself and 0 against the other: log(e + 1) per row
    out = T.gram_logsumexp(Tensor([[1.0, 0.0], [0.0, 1.0]]), 1.0)
    np.testing.assert_allclose(out.data, [[2.0 * np.log1p(np.e)]], rtol=1e-15)


@pytest.mark.parametrize("budget", [2 ** 20, 21])   # one tile; tiles of 3, 3 and 1 rows
def test_gram_logsumexp_value_does_not_depend_on_the_tape(monkeypatch, budget):
    monkeypatch.setattr(T, "TILE_ENTRIES", budget)
    x = rand(np.random.default_rng(13), 7, 3)
    bare = T.gram_logsumexp(x, 1.7)
    with Tape() as tape:
        recorded = T.gram_logsumexp(x, 1.7)
    assert recorded.data.tobytes() == bare.data.tobytes()
    assert len(tape.records) == 1


def test_gram_logsumexp_backward_scales_its_gradient_by_the_cotangent():
    # the record holds the gradient for a unit cotangent; a cotangent of 2
    # doubles it exactly
    x = rand(np.random.default_rng(14), 7, 3)
    grads = []
    for factor in (1.0, 2.0):
        x.grad = None
        with Tape() as tape:
            tape.backward(T.scale(T.gram_logsumexp(x, 0.9), factor))
        grads.append(x.grad)
    assert (2.0 * grads[0]).tobytes() == grads[1].tobytes()


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


def test_backward_frees_records_while_the_tape_lives():
    rng = np.random.default_rng(11)
    x, w, b = rand(rng, 5, 3), rand(rng, 3, 3), rand(rng, 1, 3)
    with Tape() as tape:
        loss = T.sum_all(T.tanh(T.attention(x, w, b)))
        tanh_out = weakref.ref(tape.records[1][0].data)   # attention, tanh, sum_all
        tape.backward(loss)
        assert tape.records == []
        assert tanh_out() is None
    assert x.grad is not None and w.grad is not None and b.grad is not None


def test_second_backward_on_a_consumed_tape_raises():
    x = Tensor(np.ones((2, 2)))
    with Tape() as tape:
        loss = T.sum_all(x)
        tape.backward(loss)
        with pytest.raises(RuntimeError, match="already consumed"):
            tape.backward(loss)
    np.testing.assert_array_equal(x.grad, np.ones((2, 2)))


def test_empty_tape_backward_runs_again():
    loss = Tensor([[3.0]])
    with Tape() as tape:
        tape.backward(loss)
        tape.backward(loss)
    np.testing.assert_array_equal(loss.grad, [[2.0]])


def test_tape_census_counts_closure_arrays_once():
    a, out1, out2 = Tensor(np.ones((2, 3))), Tensor(np.zeros((4, 5))), Tensor(np.zeros((1, 1)))
    held, shared = np.ones((7, 1)), np.ones((2, 2))
    ad, od = a.data, out1.data

    def vjp1(g):   # holds its input's data, its output and two arrays of its own
        return (g @ ad.T * od.sum() + held.sum() + shared.sum(),)

    def vjp2(g):   # shares one of them
        return (g * shared.sum(),)

    tape = Tape()
    tape.records += [(out1, (a,), vjp1), (out2, (out1,), vjp2)]
    assert T.tape_census(tape) == (2, 4 * 5 * 8 + 8, 7 * 8 + 2 * 2 * 8)
    assert T.tape_census(Tape()) == (0, 0, 0)


def test_gram_logsumexp_record_holds_its_gradient():
    # the n x d gradient, taken in the forward tiles, is the closure's only array
    n, d = 9, 4
    with Tape() as tape:
        T.gram_logsumexp(rand(np.random.default_rng(15), n, d), 0.5)
    assert T.tape_census(tape) == (1, 8, n * d * 8)


def test_attention_record_holds_only_its_log_normaliser():
    rng = np.random.default_rng(12)
    n, d = 9, 4
    x, w, b = rand(rng, n, d), rand(rng, d, d), rand(rng, 1, d)
    with Tape() as tape:
        T.attention(x, w, b)
    assert T.tape_census(tape) == (1, n * d * 8, n * 8)


@pytest.mark.parametrize("binary", [True, False], ids=["as_printed", "softmax_ce"])
def test_softmax_cross_entropy_record_holds_row_vectors_only(binary):
    # besides its input, the record keeps g-vectors, never a g x n array
    g, n = 4, 50
    z = rand(np.random.default_rng(13), g, n)
    with Tape() as tape:
        T.softmax_cross_entropy(z, np.arange(g), binary)
    assert T.tape_census(tape)[:2] == (1, 8)
    ((_, inputs, vjp),) = tape.records
    held = [c.cell_contents for c in vjp.__closure__
            if isinstance(c.cell_contents, np.ndarray)]
    assert inputs == (z,) and any(a is z.data for a in held)
    assert all(a is z.data or a.size == g for a in held)


def test_scale_by_an_array_records_x_alone():
    x, c = Tensor(np.ones((3, 2))), np.array([[1.0], [2.0], [4.0]])
    with Tape() as tape:
        out = T.scale(x, c)
    np.testing.assert_array_equal(out.data, [[1.0, 1.0], [2.0, 2.0], [4.0, 4.0]])
    assert [inputs for _, inputs, _ in tape.records] == [(x,)]
    with pytest.raises(ShapeError, match="scale"):
        T.scale(x, np.ones((2, 1)))


def test_add_sums_terms_left_to_right_with_broadcast():
    x = Tensor([[1.0, 2.0], [3.0, 4.0]])
    out = T.add(x, Tensor([[10.0, 20.0]]), Tensor([[100.0], [200.0]]), Tensor([[0.5]]))
    np.testing.assert_array_equal(out.data, [[111.5, 122.5], [213.5, 224.5]])
    # same-shape terms in the order given, as a chain of binary adds would
    a, b, c = (Tensor(v) for v in ([[0.1]], [[0.2]], [[0.3]]))
    assert T.add(a, b, c).item() == T.add(T.add(a, b), c).item() == (0.1 + 0.2) + 0.3


def test_add_records_once_and_nothing_without_terms():
    x, row, col = Tensor(np.ones((3, 2))), Tensor(np.ones((1, 2))), Tensor(np.ones((3, 1)))
    with Tape() as tape:
        assert T.add(x) is x
        T.add(x, x, row, col)
    assert [inputs for _, inputs, _ in tape.records] == [(x, x, row, col)]


def test_broadcast_gradients_sum_down_to_each_term():
    rng = np.random.default_rng(6)
    x, y = rand(rng, 4, 3), rand(rng, 4, 3)
    row, col, c = rand(rng, 1, 3), rand(rng, 4, 1), rand(rng, 1, 1)
    g = rng.standard_normal((4, 3))
    with Tape() as tape:
        tape.backward(T.sum_all(T.mul(T.add(x, row, col, c), Tensor(g))))
    np.testing.assert_array_equal(x.grad, g)
    np.testing.assert_array_equal(row.grad, g.sum(axis=0, keepdims=True))
    np.testing.assert_array_equal(col.grad, g.sum(axis=1, keepdims=True))
    np.testing.assert_allclose(c.grad, [[g.sum()]], rtol=1e-14)
    col.grad = None
    with Tape() as tape:
        tape.backward(T.sum_all(T.mul(T.mul(y, col), Tensor(g))))
    np.testing.assert_array_equal(y.grad, g * col.data)
    np.testing.assert_array_equal(col.grad, (g * y.data).sum(axis=1, keepdims=True))


@pytest.mark.parametrize("op", [T.add, T.mul])
@pytest.mark.parametrize("x_shape, term_shape", [
    ((3, 4), (3, 3)), ((3, 4), (2, 4)), ((3, 4), (4, 1)), ((3, 4), (1, 3)),
    ((1, 4), (3, 4)), ((3, 1), (3, 4))])   # the last two: a term larger than x
def test_add_and_mul_reject_terms_that_do_not_broadcast(op, x_shape, term_shape):
    x, term = Tensor(np.ones(x_shape)), Tensor(np.ones(term_shape))
    with pytest.raises(ShapeError, match=rf"{op.__name__}: \({term_shape[0]}, {term_shape[1]}\)"):
        op(x, term)
    if op is T.add:   # checked in any position
        with pytest.raises(ShapeError):
            T.add(x, x, term)


def test_sum_blocks_and_repeat_rows_are_adjoint():
    x = Tensor(np.arange(12.0).reshape(6, 2))
    np.testing.assert_array_equal(T.sum_blocks(x, [3, 3]).data, [[6.0, 9.0], [24.0, 27.0]])
    y = Tensor([[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_array_equal(T.repeat_rows(y, [2, 2]).data,
                                  [[1.0, 2.0], [1.0, 2.0], [3.0, 4.0], [3.0, 4.0]])
    # <sum_blocks(x), y> == <x, repeat_rows(y)>
    assert np.sum(T.sum_blocks(x, [3, 3]).data * y.data) == \
        np.sum(x.data * T.repeat_rows(y, [3, 3]).data)
    with pytest.raises(ShapeError, match="do not fit 6 rows"):
        T.sum_blocks(x, [4, 4])


def test_ragged_sum_blocks_and_repeat_rows_are_adjoint():
    x = Tensor(np.arange(12.0).reshape(6, 2))
    lengths = np.array([1, 2, 3])
    np.testing.assert_array_equal(T.sum_blocks(x, lengths).data,
                                  [[0.0, 1.0], [6.0, 8.0], [24.0, 27.0]])
    y = Tensor([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    np.testing.assert_array_equal(T.repeat_rows(y, lengths).data,
                                  [[1.0, 2.0], [3.0, 4.0], [3.0, 4.0],
                                   [5.0, 6.0], [5.0, 6.0], [5.0, 6.0]])
    assert np.sum(T.sum_blocks(x, lengths).data * y.data) == \
        np.sum(x.data * T.repeat_rows(y, lengths).data)
    # each one's backward is the other
    with Tape() as tape:
        s, r = T.sum_blocks(x, lengths), T.repeat_rows(y, lengths)
    ((_, _, sum_vjp), (_, _, repeat_vjp)) = tape.records
    np.testing.assert_array_equal(sum_vjp(y.data)[0], r.data)
    np.testing.assert_array_equal(repeat_vjp(x.data)[0], s.data)


@pytest.mark.parametrize("lengths", [[1, 0, 5], [0, 6], [2, 2], [3, 4], [6.0], [],
                                     [[3, 3]]])
def test_block_lengths_that_do_not_split_the_rows(lengths):
    # zero-length blocks, totals that do not match, floats, no blocks, a matrix
    x = Tensor(np.ones((6, 2)))
    with pytest.raises(ShapeError, match="do not fit 6 rows"):
        T.sum_blocks(x, lengths)


@pytest.mark.parametrize("lengths", [[1, 0], [2], [1, 1, 1], [-1, 3]])
def test_repeat_counts_that_do_not_match_the_rows(lengths):
    with pytest.raises(ShapeError, match="do not fit 2 rows"):
        T.repeat_rows(Tensor(np.ones((2, 3))), lengths)


def test_forward_determinism():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((4, 4))
    a = T.softmax_cross_entropy(T.matmul(Tensor(x), Tensor(x)), np.arange(4), True).data
    b = T.softmax_cross_entropy(T.matmul(Tensor(x), Tensor(x)), np.arange(4), True).data
    assert np.array_equal(a, b)


# every primitive passes grad_check in isolation at 1e-6 (eps=1e-5)

@pytest.fixture
def small_tiles(monkeypatch):
    """A tile budget that splits 7 rows into tiles of 3, 3 and 1."""
    monkeypatch.setattr(T, "TILE_ENTRIES", 21)
    assert [t.stop - t.start for t in T._row_tiles(7)] == [3, 3, 1]


def _check(f, params, tol=1e-6):
    assert grad_check(f, params) < tol


class TestPrimitiveGradients:
    rng = np.random.default_rng(17)

    def test_matmul(self):
        a, b = rand(self.rng, 3, 4), rand(self.rng, 4, 2)
        _check(lambda: T.sum_all(T.tanh(T.matmul(a, b))), [a, b])

    def test_graph_conv(self):
        s = sp.csr_matrix(np.triu(np.ones((4, 4))))
        x, w = rand(self.rng, 4, 3), rand(self.rng, 3, 2)
        _check(lambda: T.sum_all(T.tanh(T.graph_conv(s, x, w))), [x, w])

    def test_add_with_every_broadcast(self):
        a, b = rand(self.rng, 3, 4), rand(self.rng, 3, 4)
        bias, col, c = rand(self.rng, 1, 4), rand(self.rng, 3, 1), rand(self.rng, 1, 1)
        _check(lambda: T.sum_all(T.sigmoid(T.add(a, b, bias, col, c))),
               [a, b, bias, col, c])

    def test_scale_then_add_value(self):
        x = rand(self.rng, 2, 3)
        _check(lambda: T.sum_all(T.tanh(T.add(T.scale(x, 1.7), Tensor([[0.3]])))), [x])

    @pytest.mark.parametrize("shape", [(4, 1), (1, 3), (4, 3)])
    def test_scale_by_array(self, shape):
        x, c = rand(self.rng, 4, 3), self.rng.standard_normal(shape)
        _check(lambda: T.sum_all(T.tanh(T.scale(x, c))), [x])

    def test_mul(self):
        a, b = rand(self.rng, 3, 3), rand(self.rng, 3, 3)
        _check(lambda: T.sum_all(T.tanh(T.mul(a, b))), [a, b])

    @pytest.mark.parametrize("shape", [(4, 1), (1, 3), (1, 1)])
    def test_mul_broadcast(self, shape):
        x, y = rand(self.rng, 4, 3), rand(self.rng, *shape)
        _check(lambda: T.sum_all(T.tanh(T.mul(x, y))), [x, y])

    def test_tanh_sigmoid(self):
        x = rand(self.rng, 3, 3)
        _check(lambda: T.sum_all(T.sigmoid(T.tanh(x))), [x])

    def test_concat_cols(self):
        a, b = rand(self.rng, 3, 2), rand(self.rng, 3, 4)
        _check(lambda: T.sum_all(T.tanh(T.concat_cols(a, b))), [a, b])

    def test_select_rows_with_repeats(self):
        x = rand(self.rng, 5, 3)
        _check(lambda: T.sum_all(T.tanh(T.select_rows(x, [0, 2, 2, 4]))), [x])

    def test_sum_blocks(self):
        x = rand(self.rng, 6, 3)
        _check(lambda: T.sum_all(T.tanh(T.sum_blocks(x, [1, 2, 3]))), [x])

    def test_repeat_rows(self):
        x = rand(self.rng, 3, 3)
        _check(lambda: T.sum_all(T.tanh(T.repeat_rows(x, [1, 2, 3]))), [x])

    def test_transpose(self):
        x = rand(self.rng, 2, 5)
        _check(lambda: T.sum_all(T.tanh(T.transpose(x))), [x])

    @pytest.mark.parametrize("binary", [True, False], ids=["as_printed", "softmax_ce"])
    def test_softmax_cross_entropy(self, binary):
        # the scale gives the primitive an incoming gradient other than 1
        z = Tensor(3.0 * self.rng.standard_normal((3, 5)))
        _check(lambda: T.scale(T.softmax_cross_entropy(z, np.array([1, 0, 4]), binary), 0.7),
               [z])

    def test_attention(self, small_tiles):
        x, w, b = rand(self.rng, 7, 3), rand(self.rng, 3, 3), rand(self.rng, 1, 3)
        c = rand(self.rng, 7, 3)
        _check(lambda: T.sum_all(T.mul(T.attention(x, w, b), c)), [x, w, b])

    def test_normalize_rows(self):
        x = Tensor(self.rng.standard_normal((4, 3)) + 2.0)
        _check(lambda: T.sum_all(T.tanh(T.normalize_rows(x))), [x])

    def test_gram_logsumexp(self, small_tiles):
        x = rand(self.rng, 7, 3)
        _check(lambda: T.gram_logsumexp(x, 0.7), [x])
        _check(lambda: T.gram_logsumexp(T.normalize_rows(x), 2.5), [x])


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


def _nan_loss(x):
    return lambda: T.sum_all(T.scale(x, math.nan))


def _nan_gradient(x):
    def f():
        out = Tensor(x.data.sum(keepdims=True))
        Tape._record(out, (x,), lambda g: (np.full(x.shape, math.nan),))
        return out
    return f


def _nan_after_first_call(x):
    # finite loss and gradient, NaN finite differences
    factors = iter([1.0])
    return lambda: T.sum_all(T.scale(x, next(factors, math.nan)))


@pytest.mark.parametrize("make_f", [_nan_loss, _nan_gradient, _nan_after_first_call],
                         ids=["loss", "gradient", "error"])
def test_grad_check_fails_on_non_finite_values(make_f):
    x = Tensor(np.ones((2, 2)))
    assert grad_check(make_f(x), [x]) == math.inf


def test_linear_function_near_machine_eps():
    rng = np.random.default_rng(10)
    x = rand(rng, 3, 3)
    w = Tensor(rng.standard_normal((3, 3)))
    err = grad_check(lambda: T.sum_all(T.matmul(x, w)), [x])
    assert err < 1e-9


# ---------------------------------------------------------------------------
# row-tiled attention and Gram log-sum-exp against dense numpy
# ---------------------------------------------------------------------------

def _softmax(s):
    e = np.exp(s - s.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def dense_attention(x, w, b, g):
    """Output of softmax((XW+b)X^T)X and the gradients of sum(out * g)."""
    y = x @ w + b
    p = _softmax(y @ x.T)
    dp = g @ x.T
    ds = p * (dp - (p * dp).sum(axis=1, keepdims=True))
    dy = ds @ x
    return p @ x, (p.T @ g + ds.T @ y + dy @ w.T, x.T @ dy, dy.sum(axis=0, keepdims=True))


def dense_gram_logsumexp(x, c):
    """sum_i logsumexp_j(c x_i . x_j) and its gradient."""
    s = c * (x @ x.T)
    mx = s.max(axis=1, keepdims=True)
    value = float((mx + np.log(np.exp(s - mx).sum(axis=1, keepdims=True))).sum())
    ds = _softmax(s)
    return value, c * (ds + ds.T) @ x


def _rel(got, want):
    return np.abs(got - want).max() / max(np.abs(want).max(), 1e-300)


# (n, tile budget): one tile larger than n, one tile of exactly n rows, and
# tiles of 3 and 4 rows that leave a ragged last tile
@pytest.mark.parametrize("n,budget", [(5, 2 ** 20), (6, 36), (7, 21), (10, 40)])
def test_tiled_primitives_match_dense_oracle(monkeypatch, n, budget):
    monkeypatch.setattr(T, "TILE_ENTRIES", budget)
    rng = np.random.default_rng(n)
    x, w, b = rng.standard_normal((n, 4)), rng.standard_normal((4, 4)), rng.standard_normal((1, 4))
    g = rng.standard_normal((n, 4))
    tx, tw, tb = Tensor(x), Tensor(w), Tensor(b)
    with Tape() as tape:
        out = T.attention(tx, tw, tb)
        tape.backward(T.sum_all(T.mul(out, Tensor(g))))
    want, grads = dense_attention(x, w, b, g)
    assert _rel(out.data, want) <= 1e-10
    for t, want_g in zip((tx, tw, tb), grads):
        assert _rel(t.grad, want_g) <= 1e-10

    tx = Tensor(x)
    with Tape() as tape:
        out = T.gram_logsumexp(tx, 1.3)
        tape.backward(out)
    value, grad = dense_gram_logsumexp(x, 1.3)
    assert abs(out.item() - value) <= 1e-10 * abs(value)
    assert _rel(tx.grad, grad) <= 1e-10


def test_attention_rejects_mismatched_weights():
    with pytest.raises(ShapeError, match="attention"):
        T.attention(Tensor(np.ones((3, 2))), Tensor(np.ones((3, 3))), Tensor(np.ones((1, 2))))


def _fwd_bwd_peak(n, d, layer):
    """tracemalloc peak (bytes) of one forward and backward of layer at n x d."""
    rng = np.random.default_rng(n)
    x = Tensor(rng.standard_normal((n, d)))
    w, b = Tensor(rng.standard_normal((d, d)) * 0.1), Tensor(rng.standard_normal((1, d)))

    def step():
        with Tape() as tape:
            tape.backward(layer(x, w, b))
    return traced_peak(step)


LAYERS = pytest.mark.parametrize("layer", [
    lambda x, w, b: T.sum_all(M.attention_layer(x, w, b)),
    lambda x, w, b: L.single_positive_loss(x, 0.1),
], ids=["attention_layer", "single_positive_loss"])


def _assert_linear_peak(monkeypatch, layer):
    # At a fixed tile size, memory is O(n d): doubling n about doubles the peak,
    # which stays far below one dense n x n array. A dense path would quadruple.
    monkeypatch.setattr(T, "TILE_ENTRIES", 2 ** 12)
    n, d = 600, 4
    small, large = _fwd_bwd_peak(n, d, layer), _fwd_bwd_peak(2 * n, d, layer)
    assert large <= 2.3 * small
    assert large < (2 * n) ** 2 * 8


@LAYERS
def test_peak_memory_grows_linearly(monkeypatch, layer):
    _assert_linear_peak(monkeypatch, layer)


@LAYERS
def test_peak_memory_grows_linearly_on_pool(monkeypatch, tile_pool, layer):
    _assert_linear_peak(monkeypatch, layer)
    assert tile_pool


def test_attention_backward_holds_one_tile(monkeypatch):
    # n = 1024 in 16 tiles of 64 rows on one thread. Above what the same call
    # holds with one-row tiles (its n x d arrays), the peak is one tile: dS
    # overwrites P, with dO X^T an eighth of a tile at a time. Holding P and a
    # separate dS would be two tiles.
    monkeypatch.setattr(T, "WORKERS", 1)
    n, d = 1024, 8
    layer = lambda x, w, b: T.sum_all(M.attention_layer(x, w, b))
    monkeypatch.setattr(T, "TILE_ENTRIES", n)
    rows = _fwd_bwd_peak(n, d, layer)
    monkeypatch.setattr(T, "TILE_ENTRIES", 2 ** 16)
    tiles = _fwd_bwd_peak(n, d, layer)
    assert tiles - rows < 1.25 * 2 ** 16 * 8


# ---------------------------------------------------------------------------
# row tiles on the thread pool
# ---------------------------------------------------------------------------

def loop_attention(x, w, b, g):
    """The serial row-tile loop of attention and of the gradients of
    sum(out * g), in the kernel's order of operations."""
    n, d = x.shape
    y = x @ w + b
    out, lse = np.empty_like(x), np.empty((n, 1))
    for t in T._row_tiles(n):
        e = y[t] @ x.T
        lse[t], total = T._exp_rows_(e)
        out[t] = (e @ x) / total
    dxt, dy = np.zeros((d, n)), np.empty_like(y)
    rowdot = (g * out).sum(axis=1, keepdims=True)
    rows = max(1, T.TILE_ENTRIES // 8 // n)
    for t in T._row_tiles(n):
        p = T._probs(y[t] @ x.T, lse[t])
        gp = g[t].T @ p
        for i in range(t.start, t.stop, rows):   # p becomes dS a few rows at a time
            r = slice(i, min(i + rows, t.stop))
            ds = g[r] @ x.T
            ds -= rowdot[r]
            p[i - t.start:r.stop - t.start] *= ds
        gp += y[t].T @ p
        dxt += gp
        dy[t] = p @ x
    dx = dy @ w.T
    dx += dxt.T
    return [out, dx, x.T @ dy, dy.sum(axis=0, keepdims=True)]


def loop_gram_logsumexp(x, c):
    """The serial row-tile loop of gram_logsumexp and its gradient, both
    taken in one pass over the tiles."""
    n, d = x.shape
    lse, dx, dxt = np.empty((n, 1)), np.empty_like(x), np.zeros((d, n))
    for t in T._row_tiles(n):
        s = x[t] @ x.T
        s *= c
        lse[t], total = T._exp_rows_(s)
        s /= total
        dx[t] = s @ x
        dxt += x[t].T @ s
    dx += dxt.T
    return [np.array([[lse.sum()]]), dx * (1.0 * c)]


def _kernel_outputs(n):
    """attention's output and x/w/b gradients, then gram_logsumexp's value and
    gradient, at n x 4: the bytes of the serial loop, and the dense oracle's
    values within 1e-10."""
    rng = np.random.default_rng(n)
    x, w, b = rng.standard_normal((n, 4)), rng.standard_normal((4, 4)), rng.standard_normal((1, 4))
    g = rng.standard_normal((n, 4))
    tx, tw, tb = Tensor(x), Tensor(w), Tensor(b)
    with Tape() as tape:
        out = T.attention(tx, tw, tb)
        tape.backward(T.sum_all(T.mul(out, Tensor(g))))
    want, grads = dense_attention(x, w, b, g)
    assert _rel(out.data, want) <= 1e-10
    for t, want_g in zip((tx, tw, tb), grads):
        assert _rel(t.grad, want_g) <= 1e-10
    tg = Tensor(x)
    with Tape() as tape:
        value = T.gram_logsumexp(tg, 1.3)
        tape.backward(value)
    want_v, want_g = dense_gram_logsumexp(x, 1.3)
    assert abs(value.item() - want_v) <= 1e-10 * abs(want_v)
    assert _rel(tg.grad, want_g) <= 1e-10
    got = [out.data, tx.grad, tw.grad, tb.grad, value.data, tg.grad]
    _assert_same_bytes(got, loop_attention(x, w, b, g) + loop_gram_logsumexp(x, 1.3))
    return got


def _pooled_tiles(tiles, workers):
    """Tiles of one pass that _tile_map hands to the pool."""
    return tiles - math.ceil(tiles / workers)


def _assert_same_bytes(got, want):
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


# ragged tiles: 7 rows as 3+3+1, 9 rows as 4+4+1, 11 rows as 3+3+3+2
@pytest.mark.parametrize("n,budget", [(7, 21), (9, 36), (11, 33)])
@pytest.mark.parametrize("workers", [2, 3])
def test_pool_gives_the_serial_bytes(monkeypatch, tile_pool, n, budget, workers):
    monkeypatch.setattr(T, "TILE_ENTRIES", budget)
    monkeypatch.setattr(T, "WORKERS", 1)
    serial = _kernel_outputs(n)
    assert not tile_pool
    monkeypatch.setattr(T, "WORKERS", workers)
    pooled = _kernel_outputs(n)
    # three passes over the tiles (attention's forward and backward, and
    # gram_logsumexp's forward, which takes its gradient too), each with the
    # first tile of every chunk of `workers` on the calling thread
    assert len(tile_pool) == 3 * _pooled_tiles(len(list(T._row_tiles(n))), workers)
    _assert_same_bytes(pooled, serial)


def test_single_tile_stays_inline(tile_pool):
    _kernel_outputs(7)   # the default budget holds 7 rows in one tile
    assert not tile_pool


def test_missing_openblas_runs_serial_with_same_bytes(monkeypatch, tile_pool):
    monkeypatch.setattr(T, "TILE_ENTRIES", 21)
    pooled = _kernel_outputs(7)
    submitted = len(tile_pool)
    monkeypatch.setattr(T, "_openblas", lambda: None)
    serial = _kernel_outputs(7)
    assert submitted and len(tile_pool) == submitted
    _assert_same_bytes(serial, pooled)


def test_openblas_lookup_without_the_symbol_gives_none(monkeypatch):
    class NoSymbols:
        def __init__(self, path):
            pass

    class NoSetter(NoSymbols):
        scipy_openblas_get_num_threads64_ = staticmethod(lambda: 1)

    for lib in (NoSymbols, NoSetter):
        monkeypatch.setattr(T.ctypes, "CDLL", lib)
        assert T._openblas.__wrapped__() is None


def test_import_sets_numpys_openblas_to_one_thread():
    # a user's OPENBLAS_NUM_THREADS gives way to one thread, and the tiles
    # run on the pool
    if T._openblas() is None:
        pytest.skip("numpy's OpenBLAS cannot be found")
    script = ("import ctypes, threading\n"
              "from sessrec import tensor as T\n"
              "get = T._openblas().scipy_openblas_get_num_threads64_\n"
              "get.restype, get.argtypes = ctypes.c_int, []\n"
              "T.WORKERS = 2\n"
              "names = T._tile_map(lambda t: threading.current_thread().name,\n"
              "                    [slice(0, 1), slice(1, 2)])\n"
              "print(get(), len(set(names)))\n")
    child = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                           env=child_env(OPENBLAS_NUM_THREADS="2"), check=True)
    assert child.stdout.split() == ["1", "2"]


def test_tile_map_keeps_order_and_one_tile_per_worker(monkeypatch, tile_pool):
    monkeypatch.setattr(T, "TILE_ENTRIES", 10)   # 10 rows -> 10 one-row tiles
    monkeypatch.setattr(T, "WORKERS", 3)
    lock, active, most = threading.Lock(), [0], [0]

    def fn(t):
        with lock:
            active[0] += 1
            most[0] = max(most[0], active[0])
        time.sleep(0.002)
        with lock:
            active[0] -= 1
        return t.start

    assert list(T._tile_map(fn, T._row_tiles(10))) == list(range(10))
    assert len(tile_pool) == _pooled_tiles(10, 3) and 1 <= most[0] <= 3


# with 2 workers, tile 4 runs on the calling thread and tile 5 on the pool
@pytest.mark.parametrize("bad", [4, 5], ids=["calling_thread", "pool_thread"])
def test_tile_exception_reaches_the_caller(monkeypatch, tile_pool, bad):
    monkeypatch.setattr(T, "TILE_ENTRIES", 10)
    finished = []

    def fn(t):
        if t.start == bad:
            raise RuntimeError(f"tile {bad} failed")
        time.sleep(0.02)
        finished.append(t.start)
        return t.start

    with pytest.raises(RuntimeError, match=f"tile {bad} failed"):
        list(T._tile_map(fn, T._row_tiles(10)))
    assert (slice(5, 6) in tile_pool) and (slice(4, 5) not in tile_pool)
    # the failure reaches the caller only after the rest of its chunk is done
    assert sorted(finished) == [i for i in range(6) if i != bad]
    assert list(T._tile_map(lambda t: t.start, T._row_tiles(10))) == list(range(10))


def test_pool_stress_more_workers_than_cores(monkeypatch, tile_pool):
    # one-row tiles on 6 threads with a tiny switch interval: a lost or
    # reordered tile result would change the bytes
    monkeypatch.setattr(T, "TILE_ENTRIES", 40)
    monkeypatch.setattr(T, "WORKERS", 1)
    serial = _kernel_outputs(40)
    monkeypatch.setattr(T, "WORKERS", 6)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            _assert_same_bytes(_kernel_outputs(40), serial)
    finally:
        sys.setswitchinterval(interval)
    assert len(tile_pool) == 5 * 3 * _pooled_tiles(40, 6)

