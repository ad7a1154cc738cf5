"""Dense 2-D float64 tensors with a reverse-mode tape.

Every value is a (rows, cols) float64 matrix. Operations run forward-only
unless a ``Tape`` context is active, in which case each primitive records
a vector-Jacobian callback; ``Tape.backward`` replays the records in
reverse, dropping each one once its callback has run, and accumulates
gradients into ``Tensor.grad``.
"""
from __future__ import annotations

import ctypes
import functools
import glob
import math
import os
from concurrent.futures import ThreadPoolExecutor
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible."""


def _as_matrix(x) -> np.ndarray:
    a = np.asarray(x, dtype=np.float64)
    if a.ndim == 0:
        a = a.reshape(1, 1)
    elif a.ndim == 1:
        a = a.reshape(1, -1)
    if a.ndim != 2:
        raise ShapeError(f"expected a 2-D array, got shape {a.shape}")
    return a


class Tensor:
    __slots__ = ("data", "grad")

    def __init__(self, data):
        self.data = _as_matrix(data)
        self.grad: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape

    def item(self) -> float:
        if self.data.shape != (1, 1):
            raise ShapeError(f"item() requires a 1x1 tensor, got {self.data.shape}")
        return float(self.data[0, 0])

    def __repr__(self):
        return f"Tensor(shape={self.data.shape})"


class Tape:
    """Ordered record of primitive ops; backward walks it in exact reverse.

    ``backward`` consumes the tape: it takes the records off and drops each
    one (output, inputs, VJP closure) as soon as its VJP has run, so an array
    is freed once no earlier record still needs it. A second ``backward`` on
    a consumed tape raises; a tape that recorded nothing can run it again.
    """

    _stack: list["Tape"] = []

    def __init__(self):
        # each record: (output, inputs tuple, vjp(g_out) -> per-input grads)
        self.records: list[tuple[Tensor, tuple[Tensor, ...], object]] = []
        self._consumed = False

    def __enter__(self) -> "Tape":
        Tape._stack.append(self)
        return self

    def __exit__(self, *exc):
        Tape._stack.pop()
        return False

    @staticmethod
    def _record(out: Tensor, inputs: tuple[Tensor, ...], vjp) -> None:
        if Tape._stack:
            Tape._stack[-1].records.append((out, inputs, vjp))

    def backward(self, loss: Tensor) -> None:
        if loss.shape != (1, 1):
            raise ShapeError(f"backward requires a scalar (1x1) loss, got {loss.shape}")
        if self._consumed:
            raise RuntimeError("Tape.backward: this tape was already consumed by an "
                               "earlier backward; record the computation on a new Tape")
        records, self.records = self.records, []
        self._consumed = bool(records)
        adjoint: dict[int, np.ndarray] = {id(loss): np.ones((1, 1))}
        holders: dict[int, Tensor] = {id(loss): loss}
        while records:
            # rebinding these names drops the previous record, the last reference
            # to whatever only it kept alive
            out, inputs, vjp = records.pop()
            g_out = adjoint.pop(id(out), None)
            holders.pop(id(out), None)
            if g_out is None:
                continue  # output never contributed to the loss
            for t, g in zip(inputs, vjp(g_out)):
                if g is None:
                    continue
                key = id(t)
                if key in adjoint:
                    adjoint[key] = adjoint[key] + g
                else:
                    adjoint[key] = g
                    holders[key] = t
        for key, g in adjoint.items():
            t = holders[key]
            t.grad = g if t.grad is None else t.grad + g


class TapeCensus(NamedTuple):
    records: int
    output_bytes: int    # the records' output arrays
    closure_bytes: int   # arrays only the VJP closures hold, each counted once


def tape_census(tape: Tape) -> TapeCensus:
    """What the tape's records keep alive: their count, the bytes of their
    outputs, and the bytes of the ndarrays their VJP closures hold that are
    neither a record output nor the data of a record input."""
    outputs = {id(out.data) for out, _, _ in tape.records}
    inputs = {id(t.data) for _, ins, _ in tape.records for t in ins}
    held: dict[int, int] = {}
    for _, _, vjp in tape.records:
        for cell in vjp.__closure__ or ():
            value = cell.cell_contents
            if (isinstance(value, np.ndarray) and id(value) not in outputs
                    and id(value) not in inputs):
                held[id(value)] = value.nbytes
    return TapeCensus(len(tape.records),
                      sum(out.data.nbytes for out, _, _ in tape.records),
                      sum(held.values()))


def _check_broadcast(x: Tensor, t: Tensor, op: str) -> None:
    """t must have x's shape, or be a row, a column or a 1 x 1 value broadcast over x."""
    if t.shape[0] not in (1, x.shape[0]) or t.shape[1] not in (1, x.shape[1]):
        raise ShapeError(f"{op}: {t.shape} does not broadcast over {x.shape}")


def _sum_to(g: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """Sum g down to shape: over the rows, then the columns, that were broadcast."""
    if shape[0] != g.shape[0]:
        g = g.sum(axis=0, keepdims=True)
    if shape[1] != g.shape[1]:
        g = g.sum(axis=1, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: inner dimensions of {a.shape} and {b.shape} disagree")
    out = Tensor(a.data @ b.data)
    ad, bd = a.data, b.data
    Tape._record(out, (a, b), lambda g: (g @ bd.T, ad.T @ g))
    return out


def graph_conv(s, x: Tensor, w: Tensor) -> Tensor:
    """Graph convolution S (X W): S a scipy sparse matrix (not trainable), X n x d
    and W d x d' -> n x d'. The record keeps its inputs only; the VJP takes
    A = S^T dO once, then dX = A W^T and dW = X^T A."""
    if not sp.issparse(s):
        raise ShapeError("graph_conv: left operand must be a scipy sparse matrix")
    if s.shape[1] != x.shape[0] or x.shape[1] != w.shape[0]:
        raise ShapeError(f"graph_conv: shapes {s.shape}, {x.shape} and {w.shape} "
                         "do not chain")
    xd, wd = x.data, w.data
    out = Tensor(np.asarray(s @ (xd @ wd)))

    def vjp(g):
        a = np.asarray(s.T @ g)   # S^T of a CSR matrix is a CSC view, not a copy
        return a @ wd.T, xd.T @ a

    Tape._record(out, (x, w), vjp)
    return out


def add(x: Tensor, *terms: Tensor) -> Tensor:
    """x plus each term, left to right; every term is broadcast over x."""
    if not terms:
        return x
    for t in terms:
        _check_broadcast(x, t, "add")
    data = x.data + terms[0].data
    for t in terms[1:]:
        data += t.data
    out = Tensor(data)
    Tape._record(out, (x, *terms), lambda g: (g, *(_sum_to(g, t.shape) for t in terms)))
    return out


def scale(x: Tensor, c) -> Tensor:
    """x times a constant c: a float, or an array broadcast over x like an add
    term. c is not an input of the record, so backward takes no gradient for it."""
    if isinstance(c, np.ndarray):
        _check_broadcast(x, c, "scale")
    out = Tensor(x.data * c)
    Tape._record(out, (x,), lambda g: (g * c,))
    return out


def mul(x: Tensor, y: Tensor) -> Tensor:
    """Elementwise x * y, y broadcast over x."""
    _check_broadcast(x, y, "mul")
    out = Tensor(x.data * y.data)
    xd, yd = x.data, y.data
    Tape._record(out, (x, y), lambda g: (g * yd, _sum_to(g * xd, yd.shape)))
    return out


def tanh(x: Tensor) -> Tensor:
    y = np.tanh(x.data)
    out = Tensor(y)
    Tape._record(out, (x,), lambda g: (g * (1.0 - y * y),))
    return out


def sigmoid(x: Tensor) -> Tensor:
    e = np.exp(-np.abs(x.data))
    y = np.where(x.data >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    out = Tensor(y)
    Tape._record(out, (x,), lambda g: (g * y * (1.0 - y),))
    return out


def concat_cols(a: Tensor, b: Tensor) -> Tensor:
    if a.shape[0] != b.shape[0]:
        raise ShapeError(f"concat_cols: row counts of {a.shape} and {b.shape} differ")
    out = Tensor(np.hstack([a.data, b.data]))
    split = a.shape[1]
    Tape._record(out, (a, b), lambda g: (g[:, :split], g[:, split:]))
    return out


def select_rows(x: Tensor, indices) -> Tensor:
    idx = np.asarray(indices, dtype=np.intp)
    if idx.ndim != 1:
        raise ShapeError("select_rows: indices must be one-dimensional")
    if idx.size and (idx.min() < 0 or idx.max() >= x.shape[0]):
        raise IndexError(f"select_rows: index out of range for {x.shape[0]} rows")
    out = Tensor(x.data[idx])
    rows, cols = x.shape

    def vjp(g):
        buf = np.zeros((rows, cols))
        np.add.at(buf, idx, g)
        return (buf,)

    Tape._record(out, (x,), vjp)
    return out


def _block_lengths(lengths, x: Tensor, op: str, per_row: bool) -> np.ndarray:
    """Positive integer block sizes that split the rows of x, or with per_row,
    one count per row of x."""
    n = np.asarray(lengths)
    if (n.ndim != 1 or n.size == 0 or n.dtype.kind not in "iu" or n.min() < 1
            or (n.size if per_row else n.sum()) != x.shape[0]):
        raise ShapeError(f"{op}: lengths {n} do not fit {x.shape[0]} rows")
    return n


def sum_blocks(x: Tensor, lengths) -> Tensor:
    """Sum each consecutive block of rows, block b holding lengths[b] rows:
    sum(lengths) x d -> len(lengths) x d."""
    lengths = _block_lengths(lengths, x, "sum_blocks", per_row=False)
    out = Tensor(np.add.reduceat(x.data, np.cumsum(lengths) - lengths, axis=0))
    Tape._record(out, (x,), lambda g: (np.repeat(g, lengths, axis=0),))
    return out


def repeat_rows(x: Tensor, lengths) -> Tensor:
    """Repeat row b lengths[b] times, rows kept in order: len(lengths) x d ->
    sum(lengths) x d; the adjoint of sum_blocks."""
    lengths = _block_lengths(lengths, x, "repeat_rows", per_row=True)
    out = Tensor(np.repeat(x.data, lengths, axis=0))
    starts = np.cumsum(lengths) - lengths
    Tape._record(out, (x,), lambda g: (np.add.reduceat(g, starts, axis=0),))
    return out


def sum_all(x: Tensor) -> Tensor:
    out = Tensor(np.array([[x.data.sum()]]))
    shape = x.shape
    Tape._record(out, (x,), lambda g: (np.full(shape, g[0, 0]),))
    return out


def transpose(x: Tensor) -> Tensor:
    out = Tensor(x.data.T.copy())
    Tape._record(out, (x,), lambda g: (g.T,))
    return out


def normalize_rows(x: Tensor) -> Tensor:
    norms = np.linalg.norm(x.data, axis=1, keepdims=True)
    if np.any(norms == 0.0):
        raise ValueError("normalize_rows: degenerate representation (zero row)")
    n = x.data / norms
    out = Tensor(n)

    def vjp(g):
        return ((g - n * (g * n).sum(axis=1, keepdims=True)) / norms,)

    Tape._record(out, (x,), vjp)
    return out


def softmax_cross_entropy(z: Tensor, targets, binary: bool) -> Tensor:
    """-sum_r log p[r, t_r] over the row softmax p of g x n scores z plus, when
    binary, every -log(1 - p[r, i]) with i != t_r: g x n -> 1 x 1.

    It works in log space, with no clamp: -log p_t = (z_top - z_t) + log1p(o),
    where top is the row's largest score and o the sum of its other entries'
    exp(z - z_top). Every entry but the top has p <= 1/2, so log1p(-p) is exact
    for it, and 1 - p_top is o / (1 + o), with o summed directly; only a row
    whose other entries all underflow (about 745 below the top) has
    1 - p_top = 0, and then an infinite binary loss unless its top is the
    target. The record keeps z and g-vectors (the row log-normaliser, top,
    1 - p_top); its VJP rebuilds p and takes the top's terms without
    subtracting large numbers.
    """
    zd, targets = z.data, np.asarray(targets)
    rows = np.arange(zd.shape[0])
    top = zd.argmax(axis=1)
    z_top = zd[rows, top]
    e = zd.copy()
    _, total = _exp_rows_(e)
    e[rows, top] = 0.0
    other = e.sum(axis=1)
    log_total = np.log1p(other)
    lse = (z_top + log_total)[:, None]
    q_top = other / total[:, 0]                     # 1 - p_top
    off = top != targets                            # rows whose top is not the target
    value = (z_top - zd[rows, targets] + log_total).sum()
    if binary:
        e /= total                                  # p, 0 at the top
        np.negative(e, out=e)
        np.log1p(e, out=e)                          # log(1 - p)
        e[rows, targets] = 0.0
        value -= e.sum() + (np.log(other[off]) - log_total[off]).sum()
    out = Tensor(np.array([[value]]))

    def vjp(g):
        p = zd - lse
        np.exp(p, out=p)
        pt, p_top = p[rows, targets], p[rows, top]
        if not binary:
            p[rows, targets] = np.where(off, pt - 1.0, -q_top)
            p *= g[0, 0]
            return (p,)
        # with odds w_i = p_i / (1 - p_i) and W their sum over i != t:
        # dz_i = p_i (1 - W) + w_i for i != t, and dz_t = p_t (1 - W) - 1
        w = 1.0 - p
        w[rows, top] = 1.0                          # the top's odds come from q_top
        np.divide(p, w, out=w)
        w[rows, targets] = 0.0
        w[rows, top] = 0.0
        rest = w.sum(axis=1)                        # W without the top's odds
        w_sum = rest + np.divide(p_top, q_top, out=np.zeros_like(rest), where=off)
        p *= (1.0 - w_sum)[:, None]
        p += w
        p[rows, top] = p_top * (2.0 - rest)         # p_top (1 - W) + w_top
        p[rows, targets] = np.where(off, pt * (1.0 - w_sum) - 1.0,
                                    -q_top - p_top * rest)
        p *= g[0, 0]
        return (p,)

    Tape._record(out, (z,), vjp)
    return out


# ---------------------------------------------------------------------------
# fused all-pairs primitives, walked in row tiles
#
# Both primitives below score every row against every other row. Each tile
# holds whole rows of the n x n score matrix, so the forward pass needs no
# online softmax recurrence. Attention saves the n x 1 row log-normaliser, and
# its backward pass recomputes each tile's probabilities as exp(scores - lse),
# then overwrites them with dS, taking dO X^T an eighth of a tile at a time.
# The Gram log-sum-exp is a scalar loss, so under a recording tape its forward
# tiles take the gradient for a unit cotangent as they go and the record
# keeps that n x d array: it has no backward tiles (fused loss kernels such as
# Liger Kernel's linear cross-entropy, Hsu et al. 2024, do the same). Peak
# memory is the inputs plus one tile of about TILE_ENTRIES entries per thread
# at work, never an n x n array (FlashAttention, Dao et al. 2022).
#
# The tiles are independent, so _tile_map runs them on up to WORKERS threads
# (FlashAttention-2, Dao 2023); numpy releases the GIL inside BLAS calls and
# large ufuncs. It takes any list of row slices: model.forward_groups hands it
# its chunks of prefixes the same way when no tape records, as in evaluation.
# The calling thread is one of them: each extra thread keeps its own malloc
# arena, which holds on to the tiles it freed and adds to peak memory. Tile
# boundaries depend on n alone, tiles write disjoint rows, and the calling
# thread adds the column terms that tiles return in tile order, so the bytes
# do not depend on the worker count. At import, numpy's OpenBLAS is set to one
# thread for the whole process: its idle threads would spin after every call
# and compete with the tile threads, and its threaded products round
# differently, so the bytes would depend on the host. A BLAS whose thread
# count cannot be set runs the tiles in turn and splits each one over its own
# threads.
# ---------------------------------------------------------------------------

TILE_ENTRIES = 2 ** 20   # float64 score entries per row tile (8 MiB)
# threads on the row tiles, the calling one included; 1 runs them inline. They
# are the only threads the kernels use, as OpenBLAS runs on one, so a host
# with more than 4 CPUs leaves the rest idle. The cap of 4 is not measured:
# only 2 CPUs were. In training at n = 2k each extra thread adds about
# 11.5 MiB of traced peak (most of it one attention backward tile) and
# 15-22 MiB of peak RSS (the tile and its malloc arena).
WORKERS = min(len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
              else os.cpu_count() or 1, 4)


def _row_tiles(n: int) -> list:
    """Consecutive slices of max(1, TILE_ENTRIES // n) rows covering range(n)."""
    step = max(1, TILE_ENTRIES // max(n, 1))
    return [slice(i, min(i + step, n)) for i in range(0, n, step)]


@functools.cache
def _openblas():
    """The OpenBLAS library that numpy loaded, or None when it or its
    thread-count setter cannot be found."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas*"))):
        try:
            lib = ctypes.CDLL(path)
            put = lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        put.restype, put.argtypes = None, [ctypes.c_int]
        return lib
    return None


if _openblas() is not None:
    _openblas().scipy_openblas_set_num_threads64_(1)


def _tile_map(fn, tiles: list):
    """Yield fn(t) for each row slice t in tiles, in their order.

    When there are several tiles and numpy's OpenBLAS was found, the tiles go
    in chunks of WORKERS: the calling thread runs the first of each chunk and
    a pool of WORKERS - 1 threads, alive for this call only, the rest.
    Otherwise they run inline, and a BLAS with threads of its own splits each
    tile's products.
    """
    if WORKERS < 2 or len(tiles) < 2 or _openblas() is None:
        yield from map(fn, tiles)
        return
    # leaving the block, on success or failure, waits for every tile it started
    with ThreadPoolExecutor(WORKERS - 1, thread_name_prefix="sessrec-tile") as pool:
        for i in range(0, len(tiles), WORKERS):
            first, *rest = tiles[i:i + WORKERS]
            futures = [pool.submit(fn, t) for t in rest]
            results = [fn(first)] + [f.result() for f in futures]
            yield from results


def _exp_rows_(s: np.ndarray):
    """Replace each row of s by exp(s - row max) in place; return the row
    log-sum-exps and the row sums of the exponentials."""
    mx = s.max(axis=1, keepdims=True)
    s -= mx
    np.exp(s, out=s)
    total = s.sum(axis=1, keepdims=True)
    return mx + np.log(total), total


def _probs(s: np.ndarray, lse: np.ndarray) -> np.ndarray:
    """exp(s - lse) in place: a tile's softmax rebuilt from its saved normaliser."""
    s -= lse
    return np.exp(s, out=s)


# The gradient tiles accumulate the column terms (P^T A, for a tile's P) into
# the d x n transpose of the gradient, as A^T P: BLAS runs that product about
# 1.6x faster than P^T A at the tile shapes here.

def attention(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """softmax((XW + b) X^T) X over all row pairs: n x d -> n x d.

    The tape record keeps X, W, b, the output and the n x 1 row
    log-normaliser. Backward rebuilds Y = XW + b with the forward's own
    expression, so it gets the same bytes for n d^2 more work, small next to
    the tiles' n^2 d, instead of holding an n x d copy of Y per layer
    (Chen et al. 2016, "Training Deep Nets with Sublinear Memory Cost").
    """
    n, d = x.shape
    if w.shape != (d, d) or b.shape != (1, d):
        raise ShapeError(f"attention: weight {w.shape} and bias {b.shape} do not fit {x.shape}")
    xd, wd, bd = x.data, w.data, b.data
    y = xd @ wd + bd
    out = np.empty_like(xd)
    lse = np.empty((n, 1))

    def forward_tile(t):
        e = y[t] @ xd.T
        lse[t], total = _exp_rows_(e)
        out[t] = (e @ xd) / total

    for _ in _tile_map(forward_tile, _row_tiles(n)):
        pass
    result = Tensor(out)

    def vjp(g):
        # with P the tile's probabilities and dS = P * (dO X^T - rowsum(dO * O)):
        # dX = P^T dO + dS^T Y + dY W^T, dY = dS X
        y = xd @ wd + bd
        dxt = np.zeros((d, n))
        dy = np.empty_like(y)
        rowdot = (g * out).sum(axis=1, keepdims=True)
        rows = max(1, TILE_ENTRIES // 8 // n)   # an eighth of a tile of dO X^T

        def backward_tile(t):
            # once P^T dO is taken, dS overwrites P a few rows at a time, so a
            # tile holds one n-wide array (FlashAttention-2, Dao 2023)
            gt, rt = g[t], rowdot[t]
            p = _probs(y[t] @ xd.T, lse[t])
            gp = gt.T @ p
            for i in range(0, len(p), rows):
                dp = gt[i:i + rows] @ xd.T
                dp -= rt[i:i + rows]
                p[i:i + rows] *= dp
            dy[t] = p @ xd
            gp += y[t].T @ p
            return gp

        for gp in _tile_map(backward_tile, _row_tiles(n)):
            dxt += gp
        dx = dy @ wd.T
        dx += dxt.T
        return dx, xd.T @ dy, dy.sum(axis=0, keepdims=True)

    Tape._record(result, (x, w, b), vjp)
    return result


def gram_logsumexp(x: Tensor, c: float) -> Tensor:
    """sum_i logsumexp_j(c x_i . x_j) over all row pairs: n x d -> 1 x 1.

    With no tape recording, the tiles compute the row log-sum-exps alone.
    Under a recording Tape each forward tile also turns its exponentials into
    the row softmax P of c X X^T and takes its rows of P X and its column term
    X^T P, so the gradient for a unit cotangent, c (P + P^T) X, is ready when
    the forward ends. The record keeps that n x d array, and its VJP scales
    it by the 1 x 1 cotangent: no tile is rebuilt in backward. The value has
    the same bytes either way.
    """
    xd = x.data
    n, d = xd.shape
    lse = np.empty((n, 1))
    recording = bool(Tape._stack)
    if recording:
        dx, dxt = np.empty_like(xd), np.zeros((d, n))

    def forward_tile(t):
        s = xd[t] @ xd.T
        s *= c
        lse[t], total = _exp_rows_(s)
        if recording:
            s /= total   # the tile's P
            dx[t] = s @ xd
            return xd[t].T @ s

    for xp in _tile_map(forward_tile, _row_tiles(n)):
        if recording:
            dxt += xp
    out = Tensor(np.array([[lse.sum()]]))
    if recording:
        dx += dxt.T
        Tape._record(out, (x,), lambda g: (dx * (g[0, 0] * c),))
    return out


# ---------------------------------------------------------------------------
# gradient checking
# ---------------------------------------------------------------------------

def grad_check(f, params, eps: float = 1e-5) -> float:
    """Compare analytic gradients of f() against central finite differences.

    f is a zero-argument callable returning a scalar Tensor built from the
    given parameter Tensors. Returns the max relative error over all
    parameter entries, using |a-g| / max(1, |a|, |g|), or inf as soon as the
    loss, an analytic gradient or an error is not finite: a NaN must fail
    the check, not score 0.
    """
    for p in params:
        p.grad = None
    with Tape() as tape:
        loss = f()
        tape.backward(loss)
    if not np.isfinite(loss.data).all() or any(
            p.grad is not None and not np.isfinite(p.grad).all() for p in params):
        return math.inf
    worst = 0.0
    for p in params:
        analytic = p.grad if p.grad is not None else np.zeros(p.shape)
        flat = p.data.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            hi = f().item()
            flat[i] = orig - eps
            lo = f().item()
            flat[i] = orig
            numeric = (hi - lo) / (2.0 * eps)
            a = analytic.reshape(-1)[i]
            err = abs(a - numeric) / max(1.0, abs(a), abs(numeric))
            if not math.isfinite(err):
                return math.inf
            worst = max(worst, err)
    return worst
