import base64
import json
import os
import struct
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from sessrec import tensor as T
from sessrec.data import DatasetBundle, Session, Sessions, Vocab, prefix_examples
from sessrec.train import CHECKPOINT_MAGIC


def indexed_bundle(sessions, n, test_sessions=None, min_prefix_len=1):
    """Build a DatasetBundle directly from already-indexed sessions."""
    vocab = Vocab([f"k{i}" for i in range(n)])
    train_sessions = Sessions.of(Session(items=list(s), start_time=i * 10)
                                 for i, s in enumerate(sessions))
    test_sessions = Sessions.of(Session(items=list(s), start_time=10_000 + i * 10)
                                for i, s in enumerate(test_sessions or []))
    return DatasetBundle(vocab=vocab, sessions_train=train_sessions,
                         sessions_test=test_sessions,
                         train=prefix_examples(train_sessions, min_prefix_len),
                         test=prefix_examples(test_sessions, min_prefix_len),
                         stats={"n_items": n}, config={})


def memorization_bundle():
    """20 sessions over 12 items: 4 disjoint length-3 chains, 5 repeats each.

    Every distinct prefix maps to exactly one target, so a model with enough
    capacity can reach training P@1 = 1.
    """
    chains = [[0, 1, 2], [3, 4, 5], [6, 7, 8], [9, 10, 11]]
    sessions = [c for c in chains for _ in range(5)]
    return indexed_bundle(sessions, 12)


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def column_dtype(key: str, name: str) -> str:
    """The stored dtype of column name of bundle field key."""
    if name == "weight":
        return "<f8"
    return "<i8" if name == "values" and key.startswith("sessions") else "<i4"


def column(doc: dict, key: str, name: str) -> np.ndarray:
    """Column name of bundle document field key, decoded into a writable array."""
    return np.frombuffer(base64.b64decode(doc[key][name]), dtype=column_dtype(key, name)).copy()


def set_column(doc: dict, key: str, name: str, values) -> None:
    """Store values as column name of bundle document field key."""
    raw = np.asarray(values, dtype=column_dtype(key, name)).tobytes()
    doc[key][name] = base64.b64encode(raw).decode("ascii")


def rows_of(doc: dict, key: str) -> list:
    """The [items, value] rows of a ragged bundle document field."""
    items, ends = column(doc, key, "items").tolist(), np.cumsum(column(doc, key, "lengths"))
    starts = ends - column(doc, key, "lengths")
    return [[items[a:b], v] for a, b, v in zip(starts.tolist(), ends.tolist(),
                                               column(doc, key, "values").tolist())]


def format_1_doc(doc: dict) -> dict:
    """The format-1 document of the same bundle: [items, value] rows as lists."""
    old = dict(doc, format_version=1, **{key: rows_of(doc, key) for key in
                                          ("sessions_train", "sessions_test", "train", "test")})
    old.pop("graph", None)
    return old


def edit_column(key: str, name: str, edit):
    """A bundle document mutation that passes a decoded column and the number
    of items through edit and stores what it returns."""
    def mutate(doc):
        set_column(doc, key, name, edit(column(doc, key, name), len(doc["vocab"])))
    return mutate


def put(index, value):
    """A column edit that sets entry index to value, or to value(n)."""
    def edit(values, n):
        values[index] = value(n) if callable(value) else value
        return values
    return edit


def move_length(key: str, first: int):
    """A mutation that sets the first row length of field key to first and
    gives the difference to the second row, so the lengths keep their sum."""
    def edit(lengths, n):
        lengths[1] += lengths[0] - first
        lengths[0] = first
        return lengths
    return edit_column(key, "lengths", edit)


def set_text(key: str, name: str, text):
    """A mutation that sets column name of field key to text(old text) or text."""
    def mutate(doc):
        doc[key][name] = text(doc[key][name]) if callable(text) else text
    return mutate


def edges(edit):
    """A mutation that passes the edges, as src, dst, weight columns, through edit."""
    def mutate(doc):
        cols = [column(doc, "graph", name) for name in ("src", "dst", "weight")]
        for name, values in zip(("src", "dst", "weight"), edit(*cols)):
            set_column(doc, "graph", name, values)
    return mutate


def drop_bytes(key: str, name: str, count: int):
    """A mutation that drops the last count bytes of a column."""
    return set_text(key, name, lambda text: base64.b64encode(
        base64.b64decode(text)[:-count]).decode("ascii"))


# malformed format-2 bundle documents: id -> (mutation, a fragment of the
# DataError message). Each mutation needs a bundle with a graph and at least
# two rows per ragged field.
BROKEN_BUNDLES = {
    "bad-alphabet": (set_text("train", "items", lambda t: "*" + t[1:]), "not valid base64"),
    "bad-padding": (set_text("test", "lengths", lambda t: t[:-1]), "not valid base64"),
    "non-ascii": (set_text("sessions_train", "values", lambda t: t + "\u00e9"),
                  "not valid base64"),
    "items-odd-bytes": (drop_bytes("train", "items", 1), "not a whole number of 4-byte"),
    "start-times-odd-bytes": (drop_bytes("sessions_test", "values", 4),
                              "not a whole number of 8-byte"),
    "weights-odd-bytes": (drop_bytes("graph", "weight", 3), "not a whole number of 8-byte"),
    "more-lengths-than-values": (edit_column("sessions_train", "values", lambda v, n: v[:-1]),
                                 "lengths but"),
    "more-values-than-lengths": (edit_column("test", "values",
                                             lambda v, n: np.append(v, 0)), "lengths but"),
    "lengths-sum-above-items": (edit_column("train", "lengths", put(0, lambda n: 99)),
                                "lengths summing to"),
    "lengths-sum-below-items": (edit_column("sessions_test", "lengths",
                                            lambda v, n: v - (v > 0)), "lengths summing to"),
    "negative-length": (move_length("sessions_train", -1), "row length below 0"),
    "empty-prefix": (move_length("test", 0), "row length below 1"),
    "item-equal-n": (edit_column("sessions_test", "items", put(-1, lambda n: n)),
                     "outside [0,"),
    "prefix-item-negative": (edit_column("train", "items", put(0, -1)), "outside [0,"),
    "target-minus-one": (edit_column("test", "values", put(0, -1)), "outside [0,"),
    "target-equal-n": (edit_column("train", "values", put(-1, lambda n: n)), "outside [0,"),
    "column-not-a-string": (set_text("test", "values", [0, 1]), "not a string"),
    "column-missing": (lambda doc: doc["sessions_test"].pop("lengths"), "not a string"),
    "field-not-an-object": (lambda doc: doc.update(train=[[[0], 1]]), "not a dict"),
    "field-missing": (lambda doc: doc.pop("sessions_train"), "not a dict"),
    "unsorted-edges": (edges(lambda s, d, w: (s[::-1], d[::-1], w[::-1])),
                       "increasing (src, dst) order"),
    "repeated-edge": (edges(lambda s, d, w: (np.insert(s, 1, s[0]), np.insert(d, 1, d[0]),
                                             np.insert(w, 1, w[0]))),
                      "increasing (src, dst) order"),
    "edge-end-equal-n": (edit_column("graph", "dst", put(0, lambda n: n)), "outside [0,"),
    "edge-columns-unequal": (edit_column("graph", "weight", lambda w, n: w[:-1]),
                             "unequal sizes"),
    "nan-weight": (edit_column("graph", "weight", put(0, np.nan)), "finite weight > 0"),
    "inf-weight": (edit_column("graph", "weight", put(-1, np.inf)), "finite weight > 0"),
    "zero-weight": (edit_column("graph", "weight", put(0, 0.0)), "finite weight > 0"),
    "negative-weight": (edit_column("graph", "weight", put(0, -0.5)), "finite weight > 0"),
    "epsilon-zero": (lambda doc: doc["graph"].update(epsilon=0), "epsilon >= 1"),
    "epsilon-bool": (lambda doc: doc["graph"].update(epsilon=True), "epsilon >= 1"),
    "epsilon-float": (lambda doc: doc["graph"].update(epsilon=3.0), "epsilon >= 1"),
}


def rewrite_meta(raw: bytes, edit) -> bytes:
    """A checkpoint's bytes with its metadata JSON passed through edit."""
    head = len(CHECKPOINT_MAGIC)
    (meta_len,) = struct.unpack_from("<Q", raw, head)
    body = json.dumps(edit(json.loads(raw[head + 8:head + 8 + meta_len]))).encode()
    return CHECKPOINT_MAGIC + struct.pack("<Q", len(body)) + body + raw[head + 8 + meta_len:]


def traced_peak(fn) -> int:
    """The tracemalloc peak (bytes) of what fn() allocates while it runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def child_env(**env) -> dict:
    """os.environ with env set and sessrec's source tree on PYTHONPATH, for a
    child Python process."""
    path = os.pathsep.join(filter(None, [str(Path(T.__file__).parents[1]),
                                         os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path, **env)


@pytest.fixture
def tile_pool(monkeypatch):
    """Run the fused kernels' row tiles on 2 threads for the test: the calling
    one and a pool thread. Returns the list of tiles submitted to the pool.

    The pool runs only where numpy's OpenBLAS was found. The fixture makes
    the lookup report a library, so the pool runs whichever BLAS numpy uses;
    the tests' products are far too small for a BLAS to split them over
    threads, so their bytes do not depend on its thread count.
    """
    submitted = []

    class CountingPool(ThreadPoolExecutor):
        def submit(self, fn, tile):
            submitted.append(tile)
            return super().submit(fn, tile)

    monkeypatch.setattr(T, "ThreadPoolExecutor", CountingPool)
    monkeypatch.setattr(T, "_openblas", object)
    monkeypatch.setattr(T, "WORKERS", 2)
    return submitted
