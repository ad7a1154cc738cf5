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
from dataclasses import dataclass, field, asdict

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
        for name in ("d", "num_layers", "epsilon", "batch_size", "epochs",
                     "max_session_len", "seed"):
            if not isinstance(getattr(self, name), numbers.Integral):
                raise ValueError(f"{name} must be an integer")
        for name in ("tau", "beta", "lr", "l2"):
            # false for NaN, infinities and integers too large for a float
            if not abs(getattr(self, name)) <= sys.float_info.max:
                raise ValueError(f"{name} must be finite")
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

    def names(self):
        return list(self.tensors)

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
    """Row-normalized neighborhood aggregation: Anorm X W."""
    return T.matmul(T.sparse_matmul(anorm.matrix, x), w)


def propagate(x0: Tensor, anorm, params: ModelParams, num_layers: int,
              use_attention: bool = True) -> Tensor:
    """Alternate attention and convolution, then average the L+1 snapshots."""
    acc = x0
    x = x0
    for l in range(num_layers):
        h = attention_layer(x, params[f"att_w{l}"], params[f"att_b{l}"]) if use_attention else x
        x = gcn_layer(anorm, h, params[f"conv_w{l}"])
        acc = T.add(acc, x)
    return T.scale(acc, 1.0 / (num_layers + 1))


def encode_session(items: np.ndarray, x_v: Tensor, params: ModelParams,
                   use_reverse_pos: bool = True) -> Tensor:
    """Per-item tanh(W1 [x_t || p_{m-t+1}] + b1) for g sessions of length m.

    items is a g x m index array; returns (g*m) x d, one block of m rows per
    session, in which the last item gets p_1.
    """
    g, m = items.shape
    if items.size and (items.min() < 0 or items.max() >= x_v.shape[0]):
        raise ValueError("item index outside vocabulary (closure violated)")
    x = T.select_rows(x_v, items.reshape(-1))
    if use_reverse_pos:
        pos = T.select_rows(params["pos_emb"], np.tile(np.arange(m - 1, -1, -1), g))
    else:
        pos = Tensor(np.zeros((g * m, x_v.shape[1])))
    return T.tanh(T.add_bias(T.matmul(T.concat_cols(x, pos), params["w1"]), params["b1"]))


def session_attention(xstar: Tensor, m: int, params: ModelParams) -> Tensor:
    """Soft attention pooling per block of m rows: theta = sum_t a_t x_t*, a_t
    unnormalized. (g*m) x d -> g x d."""
    xs = T.scale(T.sum_blocks(xstar, m), 1.0 / m)   # g x d session means
    h = T.sigmoid(T.add_bias(T.add(T.matmul(xstar, params["w3"]),
                                   T.repeat_rows(T.matmul(xs, params["w2"]), m)),
                             params["c"]))
    a = T.matmul(h, params["q"])                    # (g*m) x 1
    return T.sum_blocks(T.mul_cols(xstar, a), m)


def score(theta: Tensor, x_vt: Tensor) -> Tensor:
    """Dot products of session embeddings with the d x n transposed item table."""
    return T.matmul(theta, x_vt)


def predict(z: Tensor) -> Tensor:
    """Softmax-normalized scores: a probability vector per row."""
    return T.row_softmax(z)


def forward_session(items, x_v: Tensor, params: ModelParams, hyper: Hyperparams) -> Tensor:
    """One session's 1 x n probability vector: the one-row case of forward_groups."""
    ((_, scores),) = forward_groups([items], x_v, params, hyper)
    return predict(scores)


def group_by_length(prefixes, max_session_len: int):
    """Group prefixes by (truncated) length; returns {m: (positions, items g x m)}.

    Sessions longer than the position table keep their most recent items.
    positions records each row's index in the original prefix list, so callers
    can scatter per-row results back into input order.
    """
    groups: dict[int, list] = {}
    for i, p in enumerate(prefixes):
        p = tuple(p)[-max_session_len:]
        groups.setdefault(len(p), []).append((i, p))
    out = {}
    for m in sorted(groups):
        members = groups[m]
        pos = [i for i, _ in members]
        mat = np.array([p for _, p in members], dtype=np.intp)
        out[m] = (pos, mat)
    return out


def forward_groups(prefixes, x_v: Tensor, params: ModelParams, hyper: Hyperparams):
    """Batched forward pass over many sessions at once.

    Yields (positions, scores Tensor g x n) per length group; positions map
    group rows back to indices in `prefixes`. Tape records grow with the
    number of length groups, not of sessions.
    """
    x_vt = T.transpose(x_v)
    for m, (positions, items) in group_by_length(prefixes, hyper.max_session_len).items():
        xstar = encode_session(items, x_v, params, hyper.use_reverse_pos)
        yield positions, score(session_attention(xstar, m, params), x_vt)
