"""Intent extractor and prediction head.

Item embeddings are refined by alternating a simplified attention layer with
a graph convolution over the row-normalized global graph, then averaged over
layer snapshots. Session items are combined with reverse positional vectors,
pooled by soft attention into a session embedding, and scored against every
candidate item.
"""
from __future__ import annotations

import numbers
import sys
from dataclasses import dataclass, fields

import numpy as np

from . import data as data_mod
from . import tensor as T
from .tensor import Tensor


SPL_SCOPES = ("all_items", "batch_items")
CE_FORMS = ("as_printed", "softmax_ce")

# annotation -> (accepted type, noun); bool is a subclass of int, so a JSON
# true must not pass as a number, nor a 1 as a switch
_KINDS = {"int": (numbers.Integral, "an integer"), "float": (numbers.Real, "a number"),
          "bool": (bool, "true or false")}


@dataclass(frozen=True)
class Hyperparams:
    d: int = 100
    num_layers: int = 3
    epsilon: int = 3
    tau: float = 0.1
    beta: float = 1.0
    lr: float = 0.001
    l2: float = 1e-5
    batch_size: int = 100
    epochs: int = 30
    max_session_len: int = 50
    seed: int = 42
    use_spl: bool = True
    use_attention: bool = True
    use_reverse_pos: bool = True
    spl_scope: str = "all_items"      # one of SPL_SCOPES
    ce_form: str = "as_printed"       # one of CE_FORMS

    def __post_init__(self):
        for f in fields(self):
            if f.type not in _KINDS:
                continue
            kind, noun = _KINDS[f.type]
            value = getattr(self, f.name)
            if not isinstance(value, kind) or isinstance(value, bool) != (kind is bool):
                raise ValueError(f"{f.name} must be {noun}")
            # false for NaN, infinities and integers too large for a float
            if kind is numbers.Real and not abs(value) <= sys.float_info.max:
                raise ValueError(f"{f.name} must be finite")
        for name, low in (("d", 1), ("epsilon", 1), ("batch_size", 1), ("max_session_len", 1),
                          ("num_layers", 0), ("epochs", 0), ("seed", 0), ("beta", 0), ("l2", 0)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}")
        for name in ("tau", "lr"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0")
        if self.spl_scope not in SPL_SCOPES:
            raise ValueError(f"unknown spl_scope {self.spl_scope!r}")
        if self.ce_form not in CE_FORMS:
            raise ValueError(f"unknown ce_form {self.ce_form!r}")


# preset (num_layers, beta) pairs matching the three benchmark setups
PRESETS = {
    "tmall": {"num_layers": 3, "beta": 75.0},
    "retailrocket": {"num_layers": 5, "beta": 1.0},
    "diginetica": {"num_layers": 5, "beta": 0.75},
}


class ModelParams:
    """All learnable tensors, addressable by name for the optimizer/checkpoints."""

    def __init__(self, tensors: dict, num_layers: int):
        self.tensors = tensors
        self.num_layers = num_layers

    def __getitem__(self, name: str) -> Tensor:
        return self.tensors[name]

    def items(self):
        return self.tensors.items()


def param_shapes(n: int, hyper: Hyperparams):
    """Yield (name, (rows, cols)) for every parameter of a model over n items,
    in the order init_params draws them."""
    d = hyper.d
    yield from {"item_emb": (n, d), "pos_emb": (hyper.max_session_len, d),
                "w1": (2 * d, d), "b1": (1, d), "q": (d, 1), "c": (1, d),
                "w2": (d, d), "w3": (d, d)}.items()
    for l in range(hyper.num_layers):
        yield f"att_w{l}", (d, d)
        yield f"att_b{l}", (1, d)
        yield f"conv_w{l}", (d, d)


def init_params(n: int, hyper: Hyperparams, seed: int | None = None) -> ModelParams:
    """All entries i.i.d. uniform on [-1/sqrt(d), +1/sqrt(d)], seeded."""
    rng = np.random.default_rng(hyper.seed if seed is None else seed)
    s = 1.0 / np.sqrt(hyper.d)
    tensors = {name: Tensor(rng.uniform(-s, s, size=shape))
               for name, shape in param_shapes(n, hyper)}
    return ModelParams(tensors, num_layers=hyper.num_layers)


def attention_layer(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Project, score all item pairs, row-softmax, and mix: softmax(XW+b . X^T) X."""
    return T.attention(x, w, b)


def gcn_layer(anorm, x: Tensor, w: Tensor) -> Tensor:
    """Row-normalized neighborhood aggregation Anorm (X W), one tape record.

    The record keeps X and W only (X is the attention output the tape holds
    anyway), so a layer adds one n x d array to the tape, its output.
    """
    return T.graph_conv(anorm.matrix, x, w)


def propagate(x0: Tensor, anorm, params: ModelParams, num_layers: int,
              use_attention: bool = True) -> Tensor:
    """Alternate attention and convolution, then average the L+1 snapshots."""
    snapshots = [x0]
    for l in range(num_layers):
        x = snapshots[-1]
        h = attention_layer(x, params[f"att_w{l}"], params[f"att_b{l}"]) if use_attention else x
        snapshots.append(gcn_layer(anorm, h, params[f"conv_w{l}"]))
    return T.scale(T.add(*snapshots), 1.0 / (num_layers + 1))


def project_items(x_v: Tensor, params: ModelParams, use_reverse_pos: bool = True):
    """The item table and the position table through their halves of W1:
    X_v W1[:d] (n x d) and P W1[d:] (max_session_len x d, None without reverse
    positions). Each item is projected once per call, however often sessions
    hold it; W1 stays one 2d x d parameter."""
    d = x_v.shape[1]
    w1 = params["w1"]
    xw = T.matmul(x_v, T.select_rows(w1, np.arange(d)))
    if not use_reverse_pos:
        return xw, None
    return xw, T.matmul(params["pos_emb"], T.select_rows(w1, np.arange(d, 2 * d)))


def encode_session(items: np.ndarray, lengths: np.ndarray, xw: Tensor, pw: Tensor | None,
                   params: ModelParams) -> Tensor:
    """Per-item tanh(W1 [x_t || p_{m-t+1}] + b1) for sessions laid end to end,
    taken as tanh(xw[x_t] + pw[m-t] + b1) from the tables of project_items
    (no position term when pw is None).

    items holds every session's items back to back, lengths[s] of them for
    session s; returns len(items) x d, in which each session's last item gets p_1.
    """
    if items.size and (items.min() < 0 or items.max() >= xw.shape[0]):
        raise ValueError("item index outside vocabulary (closure violated)")
    terms = [T.select_rows(xw, items)]
    if pw is not None:
        reverse = np.repeat(np.cumsum(lengths), lengths) - 1 - np.arange(items.size)
        terms.append(T.select_rows(pw, reverse))
    return T.tanh(T.add(*terms, params["b1"]))


def session_attention(xstar: Tensor, lengths: np.ndarray, params: ModelParams) -> Tensor:
    """Soft attention pooling per session of lengths[s] consecutive rows:
    theta = sum_t a_t x_t*, a_t unnormalized. sum(lengths) x d -> len(lengths) x d."""
    if (lengths < 1).any():
        raise T.ShapeError(f"session_attention: empty session in lengths {lengths}")
    g = lengths.size
    session = np.repeat(np.arange(g), lengths)     # each row's session
    xs = T.scale(T.sum_rows(xstar, session, g), 1.0 / lengths[:, None])  # means
    h = T.sigmoid(T.add(T.matmul(xstar, params["w3"]),
                        T.select_rows(T.matmul(xs, params["w2"]), session), params["c"]))
    a = T.matmul(h, params["q"])                    # sum(lengths) x 1
    return T.sum_rows(T.mul(xstar, a), session, g)


def score(theta: Tensor, x_vt: Tensor) -> Tensor:
    """Dot products of session embeddings with the d x n transposed item table."""
    return T.matmul(theta, x_vt)


def predict(z: Tensor) -> Tensor:
    """Softmax-normalized scores: a probability vector per row. Nothing
    differentiates through it (training takes the loss from the scores), so it
    records nothing."""
    p = z.data.copy()
    _, total = T._exp_rows_(p)
    p /= total
    return Tensor(p)


def chunk_rows(n: int, hyper: Hyperparams) -> int:
    """Sessions per forward_groups chunk over n items: batch_size under a
    recording tape, else half the rows of one attention row tile,
    max(1, min(n, TILE_ENTRIES // n) // 2), so that a chunk's scores take at
    most half a tile."""
    if T.Tape._stack:
        return hyper.batch_size
    return max(1, min(n, T.TILE_ENTRIES // max(n, 1)) // 2)


def forward_groups(prefixes, x_v: Tensor, params: ModelParams, hyper: Hyperparams,
                   per_chunk=None):
    """Batched forward pass over many sessions at once.

    prefixes: a data.Examples (or data.Sessions) container, whose flat item
    array and offsets are read directly, or a sequence of item sequences,
    laid end to end once. Each prefix keeps its last max_session_len items,
    cut from the offsets on the calling thread, and each run takes a slice of
    the items and lengths. Yields (positions, scores Tensor g x n) for each
    run of chunk_rows(n, hyper) consecutive prefixes (batch_size under a tape,
    else a count set by the n items alone; the last run may be shorter),
    encoded as one ragged batch; positions is the slice of `prefixes` the rows
    stand for. With per_chunk, each run yields
    (positions, per_chunk(positions, theta, scores)) instead, theta being the
    run's g x d session embeddings, taken on the thread that scored the run,
    so the scores need not outlive it (evaluation keeps only the ranks).
    With no tape recording, the runs go through tensor._tile_map, which may
    compute several at once on the kernels' threads (evaluation does); they are
    yielded in order and hold the same bytes whichever thread computed them.
    """
    x_vt = T.transpose(x_v)   # a view: no d x n copy
    xw, pw = project_items(x_v, params, hyper.use_reverse_pos)
    items, offsets = data_mod.flat(prefixes, last=hyper.max_session_len)
    lengths = np.diff(offsets)

    def encode_and_score(positions):
        chunk_lengths = lengths[positions]
        chunk_items = items[offsets[positions.start]:offsets[positions.stop]]
        xstar = encode_session(chunk_items, chunk_lengths, xw, pw, params)
        theta = session_attention(xstar, chunk_lengths, params)
        scores = score(theta, x_vt)
        return positions, scores if per_chunk is None else per_chunk(positions, theta, scores)

    rows = chunk_rows(x_v.shape[0], hyper)
    chunks = [slice(start, min(start + rows, lengths.size))
              for start in range(0, lengths.size, rows)]
    # under a tape the chunks stay inline: records from several threads would
    # land in timing order, and backward would sum their gradients in that order
    yield from (map(encode_and_score, chunks) if T.Tape._stack
                else T._tile_map(encode_and_score, chunks))
