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
from dataclasses import dataclass, asdict
from itertools import chain

import numpy as np

from . import tensor as T
from .tensor import Tensor


@dataclass
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
    spl_scope: str = "all_items"      # or "batch_items"
    ce_form: str = "as_printed"       # or "softmax_ce"

    def validate(self):
        # bool is a subclass of int, so a JSON true would pass as a number
        for name in ("d", "num_layers", "epsilon", "batch_size", "epochs",
                     "max_session_len", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer")
        for name in ("tau", "beta", "lr", "l2"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"{name} must be a number")
            # false for NaN, infinities and integers too large for a float
            if not abs(value) <= sys.float_info.max:
                raise ValueError(f"{name} must be finite")
        for name in ("use_spl", "use_attention", "use_reverse_pos"):
            if not isinstance(getattr(self, name), bool):
                raise ValueError(f"{name} must be true or false")
        for name, low in (("d", 1), ("epsilon", 1), ("batch_size", 1), ("max_session_len", 1),
                          ("num_layers", 0), ("epochs", 0), ("seed", 0), ("beta", 0), ("l2", 0)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}")
        for name in ("tau", "lr"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0")
        if self.spl_scope not in ("all_items", "batch_items"):
            raise ValueError(f"unknown spl_scope {self.spl_scope!r}")
        if self.ce_form not in ("as_printed", "softmax_ce"):
            raise ValueError(f"unknown ce_form {self.ce_form!r}")
        return self

    def to_dict(self) -> dict:
        return asdict(self)


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


def encode_session(items: np.ndarray, lengths: np.ndarray, x_v: Tensor,
                   params: ModelParams, use_reverse_pos: bool = True) -> Tensor:
    """Per-item tanh(W1 [x_t || p_{m-t+1}] + b1) for sessions laid end to end.

    items holds every session's items back to back, lengths[s] of them for
    session s; returns len(items) x d, in which each session's last item gets p_1.
    """
    if items.size and (items.min() < 0 or items.max() >= x_v.shape[0]):
        raise ValueError("item index outside vocabulary (closure violated)")
    x = T.select_rows(x_v, items)
    if use_reverse_pos:
        reverse = np.repeat(np.cumsum(lengths), lengths) - 1 - np.arange(items.size)
        pos = T.select_rows(params["pos_emb"], reverse)
    else:
        pos = Tensor(np.zeros((items.size, x_v.shape[1])))
    return T.tanh(T.add(T.matmul(T.concat_cols(x, pos), params["w1"]), params["b1"]))


def session_attention(xstar: Tensor, lengths: np.ndarray, params: ModelParams) -> Tensor:
    """Soft attention pooling per session of lengths[s] consecutive rows:
    theta = sum_t a_t x_t*, a_t unnormalized. sum(lengths) x d -> len(lengths) x d."""
    xs = T.scale(T.sum_blocks(xstar, lengths), 1.0 / lengths[:, None])  # means
    h = T.sigmoid(T.add(T.matmul(xstar, params["w3"]),
                        T.repeat_rows(T.matmul(xs, params["w2"]), lengths), params["c"]))
    a = T.matmul(h, params["q"])                    # sum(lengths) x 1
    return T.sum_blocks(T.mul(xstar, a), lengths)


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


def forward_session(items, x_v: Tensor, params: ModelParams, hyper: Hyperparams) -> Tensor:
    """One session's 1 x n probability vector: the one-row case of forward_groups."""
    ((_, scores),) = forward_groups([items], x_v, params, hyper)
    return predict(scores)


def forward_groups(prefixes, x_v: Tensor, params: ModelParams, hyper: Hyperparams):
    """Batched forward pass over many sessions at once.

    Each prefix keeps its last max_session_len items. Yields (positions, scores
    Tensor g x n) for each run of at most batch_size consecutive prefixes, encoded
    as one ragged batch; positions is the slice of `prefixes` the rows stand for.
    With no tape recording, the runs go through tensor._tile_map, which may
    compute several at once on the kernels' threads (evaluation does); they are
    yielded in order and hold the same bytes whichever thread computed them.
    """
    x_vt = T.transpose(x_v)
    prefixes = [tuple(p)[-hyper.max_session_len:] for p in prefixes]

    def encode_and_score(positions):
        chunk = prefixes[positions]
        lengths = np.array([len(p) for p in chunk], dtype=np.intp)
        items = np.fromiter(chain.from_iterable(chunk), dtype=np.intp, count=lengths.sum())
        xstar = encode_session(items, lengths, x_v, params, hyper.use_reverse_pos)
        return positions, score(session_attention(xstar, lengths, params), x_vt)

    chunks = [slice(start, min(start + hyper.batch_size, len(prefixes)))
              for start in range(0, len(prefixes), hyper.batch_size)]
    # under a tape the chunks stay inline: records from several threads would
    # land in timing order, and backward would sum their gradients in that order
    yield from (map(encode_and_score, chunks) if T.Tape._stack
                else T._tile_map(encode_and_score, chunks))
