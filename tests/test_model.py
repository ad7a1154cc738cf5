import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sessrec import model as M
from sessrec import graph as G
from sessrec import tensor as T
from sessrec.evaluate import ranks
from sessrec.model import Hyperparams
from sessrec.tensor import ShapeError, Tape, Tensor


def np_softmax_rows(x):
    z = x - x.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def oracle_scores(items, x_v, params, use_reverse_pos=True):
    """Independent straight-line recomputation of one session's scores."""
    m = len(items)
    x = x_v[list(items)]
    if use_reverse_pos:
        pos = params["pos_emb"].data[np.arange(m - 1, -1, -1)]
    else:
        pos = np.zeros_like(x)
    xstar = np.tanh(np.hstack([x, pos]) @ params["w1"].data + params["b1"].data)
    xs = xstar.mean(axis=0, keepdims=True)
    pre = xstar @ params["w3"].data + xs @ params["w2"].data + params["c"].data
    a = (1.0 / (1.0 + np.exp(-pre))) @ params["q"].data
    theta = a.T @ xstar
    return theta @ x_v.T


def oracle_forward(items, x_v, params, use_reverse_pos=True):
    return np_softmax_rows(oracle_scores(items, x_v, params, use_reverse_pos))


def forward_one(items, x_v, params, hyper):
    """One session's 1 x n probability vector: predict on the single chunk of
    forward_groups([items], ...)."""
    ((_, scores),) = M.forward_groups([items], x_v, params, hyper)
    return M.predict(scores)


def encode_one(items, x_v, params):
    """encode_session on a batch holding the single session `items`."""
    xw, pw = M.project_items(x_v, params)
    return M.encode_session(np.array(items, dtype=np.intp), np.array([len(items)]),
                            xw, pw, params)


def oracle_propagate(x0, anorm_dense, params, layers, use_attention=True):
    snaps = [x0]
    x = x0
    for l in range(layers):
        if use_attention:
            y = x @ params[f"att_w{l}"].data + params[f"att_b{l}"].data
            att = np_softmax_rows(y @ x.T)
            h = att @ x
        else:
            h = x
        x = anorm_dense @ h @ params[f"conv_w{l}"].data
        snaps.append(x)
    return sum(snaps) / len(snaps)


def make_setup(n=6, d=4, layers=2, seed=0, **kw):
    rng = np.random.default_rng(seed)
    sessions = [list(rng.integers(0, n, size=rng.integers(2, 5))) for _ in range(5)]
    graph = G.build_global_graph(sessions, n, G.GraphConfig(3))
    anorm = G.row_normalize(graph)
    hyper = Hyperparams(d=d, num_layers=layers, max_session_len=8, seed=seed,
                        **kw)
    params = M.init_params(n, hyper)
    return sessions, anorm, hyper, params


class TestAttentionLayer:
    def test_single_item_is_identity(self, rng):
        x = Tensor(rng.standard_normal((1, 4)))
        w, b = Tensor(rng.standard_normal((4, 4))), Tensor(rng.standard_normal((1, 4)))
        out = M.attention_layer(x, w, b)
        np.testing.assert_allclose(out.data, x.data, atol=1e-12)

    def test_zero_weights_give_column_mean(self, rng):
        x = rng.standard_normal((5, 3))
        out = M.attention_layer(Tensor(x), Tensor(np.zeros((3, 3))),
                                Tensor(np.zeros((1, 3))))
        np.testing.assert_allclose(out.data,
                                   np.tile(x.mean(axis=0), (5, 1)), atol=1e-12)

    def test_identical_rows_stay_identical(self, rng):
        row = rng.standard_normal(4)
        x = Tensor(np.tile(row, (3, 1)))
        out = M.attention_layer(x, Tensor(rng.standard_normal((4, 4))),
                                Tensor(rng.standard_normal((1, 4))))
        np.testing.assert_allclose(out.data[0], out.data[1], atol=1e-12)
        np.testing.assert_allclose(out.data[0], out.data[2], atol=1e-12)


class TestGcnLayer:
    def test_identity(self, rng):
        import scipy.sparse as sp
        x = Tensor(rng.standard_normal((4, 3)))
        anorm = G.NormalizedAdjacency(4, sp.identity(4, format="csr"))
        out = M.gcn_layer(anorm, x, Tensor(np.eye(3)))
        np.testing.assert_allclose(out.data, x.data, atol=1e-15)

    def test_zero_row_gives_zero_output(self, rng):
        g = G.GlobalGraph(3, np.array([0]), np.array([1]), np.array([1.0]))
        anorm = G.row_normalize(g)
        out = M.gcn_layer(anorm, Tensor(rng.standard_normal((3, 3))),
                          Tensor(rng.standard_normal((3, 3))))
        np.testing.assert_allclose(out.data[1], 0.0, atol=1e-15)
        np.testing.assert_allclose(out.data[2], 0.0, atol=1e-15)

    def test_against_dense_oracle(self, rng):
        g = G.build_global_graph([[0, 1, 2], [2, 0]], 3, G.GraphConfig(2))
        anorm = G.row_normalize(g)
        x, w = rng.standard_normal((3, 4)), rng.standard_normal((4, 4))
        out = M.gcn_layer(anorm, Tensor(x), Tensor(w))
        np.testing.assert_allclose(out.data, anorm.matrix.toarray() @ x @ w,
                                   atol=1e-12)


class TestPropagate:
    def test_zero_layers_is_input(self):
        _, anorm, hyper, params = make_setup(layers=0)
        out = M.propagate(params["item_emb"], anorm, params, 0)
        np.testing.assert_allclose(out.data, params["item_emb"].data, atol=1e-15)

    def test_identity_adjacency_identity_conv_no_attention(self, rng):
        import scipy.sparse as sp
        _, _, hyper, params = make_setup(n=4, d=3, layers=1)
        params.tensors["conv_w0"] = Tensor(np.eye(3))
        anorm = G.NormalizedAdjacency(4, sp.identity(4, format="csr"))
        out = M.propagate(params["item_emb"], anorm, params, 1, use_attention=False)
        np.testing.assert_allclose(out.data, params["item_emb"].data, atol=1e-15)

    def test_two_layers_match_oracle(self):
        _, anorm, hyper, params = make_setup(layers=2)
        out = M.propagate(params["item_emb"], anorm, params, 2)
        want = oracle_propagate(params["item_emb"].data, anorm.matrix.toarray(),
                                params, 2)
        np.testing.assert_allclose(out.data, want, atol=1e-12)


class TestEncodeSession:
    def test_single_item_uses_first_position(self):
        _, _, hyper, params = make_setup()
        out = encode_one([2], M.propagate(params["item_emb"], make_setup()[1],
                                          params, 0), params)
        x_v = params["item_emb"].data
        want = np.tanh(np.hstack([x_v[2:3], params["pos_emb"].data[0:1]])
                       @ params["w1"].data + params["b1"].data)
        np.testing.assert_allclose(out.data, want, atol=1e-12)

    def test_reverse_positions_for_two_items(self):
        _, _, hyper, params = make_setup()
        x_v = Tensor(params["item_emb"].data.copy())
        out = encode_one([1, 3], x_v, params)
        p = params["pos_emb"].data
        want = np.tanh(np.hstack([x_v.data[[1, 3]], p[[1, 0]]])
                       @ params["w1"].data + params["b1"].data)
        np.testing.assert_allclose(out.data, want, atol=1e-12)

    def test_zero_affine_gives_zero(self):
        _, _, hyper, params = make_setup(d=3)
        params.tensors["w1"] = Tensor(np.zeros((6, 3)))
        params.tensors["b1"] = Tensor(np.zeros((1, 3)))
        out = encode_one([0, 1, 2], Tensor(params["item_emb"].data), params)
        np.testing.assert_allclose(out.data, 0.0)

    def test_vocabulary_closure_violation(self):
        _, _, hyper, params = make_setup(n=4)
        with pytest.raises(ValueError, match="closure"):
            encode_one([99], Tensor(params["item_emb"].data), params)

    @pytest.mark.parametrize("use_reverse_pos", [True, False])
    def test_split_w1_matches_the_concatenated_product(self, rng, use_reverse_pos):
        # xw[x_t] + pw[m-t] + b1 from the two halves of W1 is [x_t || p] W1 + b1
        # summed in another order: sessions of 1, 4 and 2 items, weights far
        # from zero, every pre-activation kept well away from tanh's flat tails
        _, _, hyper, params = make_setup(n=7, d=5)
        for name in ("item_emb", "pos_emb", "w1", "b1"):
            params.tensors[name] = Tensor(0.4 * rng.standard_normal(params[name].shape))
        x_v = params["item_emb"]
        items, lengths = np.array([3, 0, 6, 2, 6, 1, 5]), np.array([1, 4, 2])
        xw, pw = M.project_items(x_v, params, use_reverse_pos)
        assert (pw is None) == (not use_reverse_pos)
        out = M.encode_session(items, lengths, xw, pw, params)
        reverse = [0, 3, 2, 1, 0, 1, 0]
        pos = params["pos_emb"].data[reverse] if use_reverse_pos else np.zeros((7, 5))
        want = np.tanh(np.hstack([x_v.data[items], pos]) @ params["w1"].data
                       + params["b1"].data)
        np.testing.assert_allclose(out.data, want, rtol=1e-12, atol=0)

    def test_long_session_keeps_most_recent(self):
        items = [5, 4, 3, 2, 1, 0, 0, 1, 2, 3]   # first and last four differ
        _, _, hyper, params = make_setup(n=6, d=4)
        hyper = dataclasses.replace(hyper, max_session_len=4)
        x_v = Tensor(params["item_emb"].data)
        ((positions, scores),) = M.forward_groups([items], x_v, params, hyper)
        assert positions == slice(0, 1)
        np.testing.assert_allclose(scores.data, oracle_scores(items[-4:], x_v.data, params),
                                   rtol=0, atol=1e-12)


class TestSessionAttention:
    def test_zero_query_gives_zero(self, rng):
        _, _, hyper, params = make_setup(d=4)
        params.tensors["q"] = Tensor(np.zeros((4, 1)))
        theta = M.session_attention(Tensor(rng.standard_normal((3, 4))), np.array([3]),
                                    params)
        assert theta.shape == (1, 4)
        np.testing.assert_allclose(theta.data, 0.0)

    def test_single_row_formula(self, rng):
        _, _, hyper, params = make_setup(d=4)
        x1 = rng.standard_normal((1, 4))
        theta = M.session_attention(Tensor(x1), np.array([1]), params)
        pre = x1 @ (params["w2"].data + params["w3"].data) + params["c"].data
        a1 = (1.0 / (1.0 + np.exp(-pre))) @ params["q"].data
        np.testing.assert_allclose(theta.data, a1 * x1, atol=1e-12)

    def test_random_instance_matches_oracle(self, rng):
        _, _, hyper, params = make_setup(d=4)
        xstar = rng.standard_normal((6, 4))     # sessions of one, two and three rows
        theta = M.session_attention(Tensor(xstar), np.array([1, 2, 3]), params)
        for row, block in enumerate((xstar[:1], xstar[1:3], xstar[3:])):
            xs = block.mean(axis=0, keepdims=True)
            pre = (block @ params["w3"].data + xs @ params["w2"].data
                   + params["c"].data)
            a = (1.0 / (1.0 + np.exp(-pre))) @ params["q"].data
            np.testing.assert_allclose(theta.data[row:row + 1], a.T @ block,
                                       atol=1e-12)


    def test_records_no_constant_input(self, rng):
        # the 1/length column of the means scales the sums as a constant, so
        # backward takes no gradient for it
        _, _, hyper, params = make_setup(d=4)
        xstar = Tensor(rng.standard_normal((6, 4)))
        with Tape() as tape:
            M.session_attention(xstar, np.array([1, 2, 3]), params)
        known = {id(xstar)} | {id(p) for _, p in params.items()}
        for out, inputs, _ in tape.records:
            assert all(id(t) in known for t in inputs)
            known.add(id(out))

class TestScorePredict:
    def test_dot_products(self):
        # items (2, 3) and (0, 5), passed as the d x n transposed table
        z = M.score(Tensor([[1.0, 0.0]]), Tensor([[2.0, 0.0], [3.0, 5.0]]))
        np.testing.assert_allclose(z.data, [[2.0, 0.0]])

    def test_identical_items_give_uniform(self, rng):
        x_v = Tensor(np.tile(rng.standard_normal(3), (4, 1)))
        y = M.predict(M.score(Tensor(rng.standard_normal((1, 3))), Tensor(x_v.data.T)))
        np.testing.assert_allclose(y.data, 0.25, atol=1e-12)

    def test_hand_softmax(self):
        y = M.predict(Tensor([[np.log(2.0), 0.0]]))
        np.testing.assert_allclose(y.data, [[2 / 3, 1 / 3]], atol=1e-12)

    def test_softmax_bytes_and_no_record(self, rng):
        z = rng.standard_normal((4, 7)) * 5
        e = np.exp(z - z.max(axis=1, keepdims=True))
        with Tape() as tape:
            y = M.predict(Tensor(z))
        assert np.array_equal(y.data, e / e.sum(axis=1, keepdims=True))
        assert tape.records == []


@pytest.mark.parametrize("name", ["tau", "beta", "lr", "l2"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), 10 ** 400])
def test_hyperparams_reject_non_finite(name, value):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        Hyperparams(**{name: value})


@pytest.mark.parametrize("name, value, message", [
    ("epochs", True, "must be an integer"), ("seed", False, "must be an integer"),
    ("tau", True, "must be a number"), ("l2", "0.1", "must be a number"),
    ("use_spl", "no", "must be true or false"), ("use_attention", 1, "must be true or false"),
    ("use_reverse_pos", None, "must be true or false")])
def test_hyperparams_reject_values_of_the_wrong_type(name, value, message):
    with pytest.raises(ValueError, match=f"{name} {message}"):
        Hyperparams(**{name: value})


class TestInitParams:
    def test_same_seed_identical(self):
        h = Hyperparams(d=10, num_layers=1)
        a, b = M.init_params(20, h, seed=5), M.init_params(20, h, seed=5)
        assert list(a.tensors) == list(b.tensors)
        for name, t in a.items():
            np.testing.assert_array_equal(t.data, b[name].data)

    def test_different_seeds_differ(self):
        h = Hyperparams(d=10, num_layers=1)
        a, b = M.init_params(20, h, seed=5), M.init_params(20, h, seed=6)
        assert not np.array_equal(a["item_emb"].data, b["item_emb"].data)

    def test_bounds(self):
        h = Hyperparams(d=100, num_layers=0)
        p = M.init_params(50, h, seed=1)
        for _, t in p.items():
            assert np.all(np.abs(t.data) <= 0.1)


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 10), st.integers(1, 8), st.integers(0, 3), st.integers(1, 6),
       st.integers(0, 10_000))
def test_shape_chain_and_probability_vector(n, d, layers, m, seed):
    rng = np.random.default_rng(seed)
    sessions = [list(rng.integers(0, n, size=max(2, m))) for _ in range(3)]
    graph = G.build_global_graph(sessions, n, G.GraphConfig(3))
    anorm = G.row_normalize(graph)
    hyper = Hyperparams(d=d, num_layers=layers, max_session_len=10,
                        seed=seed)
    params = M.init_params(n, hyper)
    x_v = M.propagate(params["item_emb"], anorm, params, layers)
    items = list(rng.integers(0, n, size=m))
    y = forward_one(items, x_v, params, hyper)
    assert y.shape == (1, n)
    assert np.all(y.data >= 0)
    assert abs(y.data.sum() - 1.0) < 1e-9


def every_item_rank(scores):
    """The rank of each item of one score row, as a target."""
    return ranks(np.tile(scores, (scores.size, 1)), np.arange(scores.size))


def test_argmax_invariance_under_score_shift(rng):
    scores = rng.standard_normal(20)
    assert np.array_equal(every_item_rank(scores), every_item_rank(scores + 7.5))


def test_rank_tie_break_ascending_index():
    scores = np.array([1.0, 2.0, 2.0, 0.5])
    np.testing.assert_array_equal(every_item_rank(scores), [3, 1, 2, 4])


def test_ablation_reduces_to_lookup_plus_pooling():
    sessions, anorm, hyper, params = make_setup(layers=0, use_attention=False)
    x_v = M.propagate(params["item_emb"], anorm, params, 0, use_attention=False)
    np.testing.assert_array_equal(x_v.data, params["item_emb"].data)
    items = sessions[0]
    y = forward_one(items, x_v, params, hyper)
    want = oracle_forward(items, params["item_emb"].data, params.tensors)
    np.testing.assert_allclose(y.data, want, atol=1e-12)


def test_no_reverse_pos_matches_oracle():
    sessions, anorm, hyper, params = make_setup(use_reverse_pos=False)
    x_v = M.propagate(params["item_emb"], anorm, params, hyper.num_layers)
    items = sessions[1]
    y = forward_one(items, x_v, params, hyper)
    want = oracle_forward(items, x_v.data, params.tensors, use_reverse_pos=False)
    np.testing.assert_allclose(y.data, want, atol=1e-12)


def test_last_item_always_gets_first_position():
    # changing position rows other than p_1 must not change the last row's
    # dependence: encode sessions of different lengths ending in the same item
    _, _, hyper, params = make_setup(d=3)
    x_v = Tensor(params["item_emb"].data)
    for items in ([4], [0, 4], [2, 1, 0, 4]):
        out = encode_one(items, x_v, params)
        want_last = np.tanh(
            np.hstack([x_v.data[4:5], params["pos_emb"].data[0:1]])
            @ params["w1"].data + params["b1"].data)
        np.testing.assert_allclose(out.data[-1:], want_last, atol=1e-12)


def test_batched_forward_matches_per_session():
    # mixed lengths in one call, prefixes longer than max_session_len, with
    # and without reverse positions, against the dense per-session oracle
    for use_reverse_pos in (True, False):
        _, anorm, hyper, params = make_setup(n=8, d=5, layers=2, seed=3,
                                             use_reverse_pos=use_reverse_pos)
        hyper = dataclasses.replace(hyper, max_session_len=4)
        x_v = M.propagate(params["item_emb"], anorm, params, 2)
        rng = np.random.default_rng(11)
        prefixes = [tuple(rng.integers(0, 8, size=rng.integers(1, 8)))
                    for _ in range(16)]
        assert min(map(len, prefixes)) < 4 < max(map(len, prefixes))
        got = np.full((16, 8), np.nan)
        for positions, scores in M.forward_groups(prefixes, x_v, params, hyper):
            got[positions] = scores.data
        want = np.vstack([oracle_scores(p[-4:], x_v.data, params.tensors,
                                        use_reverse_pos) for p in prefixes])
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_forward_groups_transposes_item_table_once():
    # every chunk scores against the same d x n transposed table, a view of
    # the n x d table, not a copy; the only other record that reads the table
    # projects it through W1's item half, once per call
    _, _, hyper, params = make_setup(n=6, d=4, batch_size=2)
    x_v = Tensor(np.random.default_rng(2).standard_normal((6, 4)))
    with Tape() as tape:
        groups = list(M.forward_groups([(0,), (1, 2), (3, 4, 5), (2,)], x_v, params, hyper))
    assert len(groups) == 2
    transposes = [out for out, inputs, _ in tape.records
                  if inputs == (x_v,) and out.shape == (4, 6)]
    assert len(transposes) == 1
    assert np.shares_memory(transposes[0].data, x_v.data)
    assert [out.shape for out, inputs, _ in tape.records if x_v in inputs] == [(4, 6), (6, 4)]


def test_forward_groups_chunks_follow_batch_size():
    # 11 prefixes of mixed lengths, some cut to max_session_len, in chunks of 4
    # under a tape
    _, anorm, hyper, params = make_setup(n=8, d=5, layers=1, seed=4, batch_size=4)
    hyper = dataclasses.replace(hyper, max_session_len=3)
    x_v = M.propagate(params["item_emb"], anorm, params, 1)
    rng = np.random.default_rng(12)
    prefixes = [list(rng.integers(0, 8, size=rng.integers(1, 6))) for _ in range(11)]
    with Tape():
        chunks = list(M.forward_groups(prefixes, x_v, params, hyper))
    assert [positions for positions, _ in chunks] == [slice(0, 4), slice(4, 8), slice(8, 11)]
    for positions, scores in chunks:
        want = np.vstack([oracle_scores(p[-3:], x_v.data, params.tensors)
                          for p in prefixes[positions]])
        np.testing.assert_allclose(scores.data, want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("n, rows", [(1998, 262), (200, 100)])
def test_forward_groups_chunks_take_half_an_attention_tile(n, rows):
    # with no tape recording a chunk holds max(1, min(n, TILE_ENTRIES // n) // 2)
    # prefixes, so that its g x n scores take at most half a row tile; under a
    # tape it holds batch_size
    hyper = Hyperparams(d=2, num_layers=0, batch_size=7, max_session_len=3,
                        seed=1)
    params = M.init_params(n, hyper)
    x_v = Tensor(params["item_emb"].data)
    prefixes = [(i % n, 7 * i % n, 3) for i in range(rows + 5)]
    chunks = [positions for positions, _ in M.forward_groups(prefixes, x_v, params, hyper)]
    assert chunks == [slice(0, rows), slice(rows, rows + 5)]
    assert 2 * rows * n <= T.TILE_ENTRIES
    with Tape():
        taped = [positions for positions, _ in M.forward_groups(prefixes[:10], x_v, params,
                                                                hyper)]
    assert taped == [slice(0, 7), slice(7, 10)]


def test_chunk_rows_depend_on_n_alone_without_a_tape():
    hyper = Hyperparams(batch_size=7)
    assert [M.chunk_rows(n, hyper) for n in (1, 2, 3, 200, 1998, 20_000, 2 ** 21)] == \
        [1, 1, 1, 100, 262, 26, 1]


def test_empty_prefix_is_a_shape_error():
    _, _, hyper, params = make_setup(n=6, d=4)
    with pytest.raises(ShapeError):
        list(M.forward_groups([(1, 2), ()], Tensor(params["item_emb"].data), params, hyper))
