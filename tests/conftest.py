import base64
import json
import os
import struct
import tempfile
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from sessrec import tensor as T
from sessrec.data import (BUNDLE_MAGIC, DatasetBundle, Session, Sessions, Vocab,
                          prefix_examples, save_bundle)


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
    """The stored dtype of block key/name of a bundle file."""
    if name == "weight":
        return "<f8"
    return "<i8" if name == "values" and key.startswith("sessions") else "<i4"


def split_container(raw: bytes) -> tuple:
    """(magic, header bytes, the bytes after the header) of a container file."""
    magic = raw[:raw.index(b"\n") + 1]
    (size,) = struct.unpack_from("<Q", raw, len(magic))
    start = len(magic) + 8
    return magic, raw[start:start + size], raw[start + size:]


def join_container(magic: bytes, head: bytes, body: bytes) -> bytes:
    return magic + struct.pack("<Q", len(head)) + head + body


def read_doc(raw: bytes) -> dict:
    """A bundle file's header fields and, under "blocks", its blocks by name in
    file order, each a writable 1-d array."""
    _, head, body = split_container(raw)
    doc = json.loads(head)
    doc["blocks"] = {a["name"]: np.frombuffer(body, column_dtype(*a["name"].split("/")),
                                              a["rows"] * a["cols"], a["offset"]).copy()
                     for a in doc.pop("arrays")}
    return doc


def doc_bytes(doc: dict) -> bytes:
    """The bundle file of a document read_doc returns: its blocks laid end to
    end in order, each a rows x 1 entry of the header."""
    header, arrays, offset = dict(doc), [], 0
    blocks = header.pop("blocks")
    for name, values in blocks.items():
        arrays.append({"name": name, "rows": values.size, "cols": 1, "offset": offset})
        offset += values.nbytes
    head = json.dumps(dict(header, arrays=arrays), sort_keys=True, separators=(",", ":"))
    return join_container(BUNDLE_MAGIC, head.encode(), b"".join(map(bytes, blocks.values())))


def bundle_doc(bundle) -> dict:
    """The document of the file save_bundle writes for bundle."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "bundle.bin"
        save_bundle(bundle, path)
        return read_doc(path.read_bytes())


def column(doc: dict, key: str, name: str) -> np.ndarray:
    """Block key/name of a bundle document, as a writable copy."""
    return doc["blocks"][f"{key}/{name}"].copy()


def set_column(doc: dict, key: str, name: str, values) -> None:
    """Store values as block key/name of a bundle document."""
    doc["blocks"][f"{key}/{name}"] = np.asarray(values, dtype=column_dtype(key, name))


def rows_of(doc: dict, key: str) -> list:
    """The [items, value] rows of a ragged bundle document field."""
    items, ends = column(doc, key, "items").tolist(), np.cumsum(column(doc, key, "lengths"))
    starts = ends - column(doc, key, "lengths")
    return [[items[a:b], v] for a, b, v in zip(starts.tolist(), ends.tolist(),
                                               column(doc, key, "values").tolist())]


RAGGED = ("sessions_train", "sessions_test", "train", "test")


def format_1_doc(doc: dict) -> dict:
    """The format-1 JSON document of the same bundle: [items, value] rows as lists."""
    old = {k: v for k, v in doc.items() if k not in ("blocks", "graph_epsilon")}
    return dict(old, format_version=1, **{key: rows_of(doc, key) for key in RAGGED})


def format_2_doc(doc: dict) -> dict:
    """The format-2 JSON document of the same bundle: each block as base64 text."""
    new = {k: v for k, v in doc.items() if k not in ("blocks", "graph_epsilon")}
    for name, values in doc["blocks"].items():
        key, _, column_name = name.partition("/")
        new.setdefault(key, {})[column_name] = base64.b64encode(values.tobytes()).decode()
    if "graph_epsilon" in doc:
        new["graph"]["epsilon"] = doc["graph_epsilon"]
    return dict(new, format_version=2)


def on_doc(mutate):
    """A bundle file mutation that passes the file's document through mutate,
    which edits it in place."""
    def mutate_file(raw):
        doc = read_doc(raw)
        mutate(doc)
        return doc_bytes(doc)
    return mutate_file


def edit_column(key: str, name: str, edit):
    """A bundle file mutation that passes a block and the number of items
    through edit and stores what it returns."""
    return on_doc(lambda doc: set_column(doc, key, name,
                                         edit(column(doc, key, name), len(doc["vocab"]))))


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


def edges(edit):
    """A mutation that passes the edges, as src, dst, weight blocks, through edit."""
    def mutate(doc):
        cols = [column(doc, "graph", name) for name in ("src", "dst", "weight")]
        for name, values in zip(("src", "dst", "weight"), edit(*cols)):
            set_column(doc, "graph", name, values)
    return on_doc(mutate)


def header_bytes(edit):
    """A mutation that passes the header's bytes through edit, its length kept right."""
    def mutate(raw):
        magic, head, body = split_container(raw)
        return join_container(magic, edit(head), body)
    return mutate


def entries(edit):
    """A mutation that passes the header's "arrays" entries through edit."""
    return lambda raw: rewrite_meta(raw, lambda m: dict(m, arrays=edit(m["arrays"])))


def entry(block: str, **values):
    """A mutation that sets fields of the header entry of the named block."""
    return entries(lambda arrays: [dict(a, **values) if a["name"] == block else a
                                   for a in arrays])


def past_end(name: str, **grow):
    """A mutation that adds grow's amounts to fields of block name's entry."""
    return entries(lambda arrays: [dict(a, **{k: a[k] + v for k, v in grow.items()})
                                   if a["name"] == name else a for a in arrays])


def cut(name: str, count: int):
    """A mutation that drops the last count bytes of block name from the file,
    the header left as it is."""
    def mutate(raw):
        magic, head, body = split_container(raw)
        spec = next(a for a in json.loads(head)["arrays"] if a["name"] == name)
        end = spec["offset"] + spec["rows"] * spec["cols"] * np.dtype(
            column_dtype(*name.split("/"))).itemsize
        return join_container(magic, head, body[:end - count] + body[end:])
    return mutate


def drop_blocks(prefix: str):
    """A mutation that drops the header entries of the blocks named prefix..."""
    return entries(lambda arrays: [a for a in arrays if not a["name"].startswith(prefix)])


def with_length(size):
    """A mutation that sets the header length to size(file size)."""
    def mutate(raw):
        magic = raw[:raw.index(b"\n") + 1]
        return magic + struct.pack("<Q", size(len(raw))) + raw[len(magic) + 8:]
    return mutate


# malformed format-3 bundle files: id -> (mutation of the file's bytes, a
# fragment of the DataError message). Each mutation needs a bundle with a
# graph and at least two rows per ragged field. The ids that named base64
# defects in format 2 break the text that format 3 keeps, its header
# (bad-alphabet, bad-padding, non-ascii), a block's bytes (*-odd-bytes) or its
# header entry (column-not-a-string).
BROKEN_BUNDLES = {
    "bad-alphabet": (header_bytes(lambda h: b"*" + h[1:]), "header is not UTF-8 JSON"),
    "bad-padding": (header_bytes(lambda h: h[:-1]), "header is not UTF-8 JSON"),
    "non-ascii": (header_bytes(lambda h: h + b"\xe9"), "header is not UTF-8 JSON"),
    "items-odd-bytes": (cut("train/items", 1), "runs past the end of the file"),
    "start-times-odd-bytes": (cut("sessions_test/values", 4), "runs past the end of the file"),
    "weights-odd-bytes": (cut("graph/weight", 3), "runs past the end of the file"),
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
    "column-not-a-string": (entries(lambda arrays: [[0, 1] if a["name"] == "test/values"
                                                    else a for a in arrays]), "block entry"),
    "column-missing": (drop_blocks("sessions_test/lengths"),
                       "'sessions_test/lengths' is missing"),
    "field-not-an-object": (on_doc(lambda doc: doc.update(stats=[["n_items", 3]])),
                            "not a dict"),
    "field-missing": (drop_blocks("sessions_train/"), "is missing"),
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
    "epsilon-zero": (on_doc(lambda doc: doc.update(graph_epsilon=0)), "epsilon >= 1"),
    "epsilon-bool": (on_doc(lambda doc: doc.update(graph_epsilon=True)), "epsilon >= 1"),
    "epsilon-float": (on_doc(lambda doc: doc.update(graph_epsilon=3.0)), "epsilon >= 1"),
    "magic-truncated": (lambda raw: raw[:5], "truncated header"),
    "header-length-truncated": (lambda raw: raw[:len(BUNDLE_MAGIC) + 3], "truncated header"),
    "header-length-past-end": (with_length(lambda size: size), "its length runs past the file"),
    "header-not-an-object": (header_bytes(lambda h: b"[" + h + b"]"), "not a JSON object"),
    "arrays-not-a-list": (lambda raw: rewrite_meta(raw, lambda m: dict(m, arrays={})),
                          "'arrays' list"),
    **{f"{key}-{label}": (entry("train/items", **{key: value}), "block entry")
       for key in ("rows", "cols", "offset")
       for label, value in (("true", True), ("float", 1.0), ("string", "1"), ("negative", -1))},
    "block-past-end": (past_end("graph/weight", rows=1), "'graph/weight' runs past the end"),
    "offset-past-end": (past_end("graph/weight", offset=8), "runs past the end"),
    "block-repeated": (entries(lambda arrays: arrays + arrays[-1:]),
                       "repeated block 'graph/weight'"),
    "block-unknown": (entry("train/values", name="train/targets"),
                      "unknown block 'train/targets'"),
    "cols-two": (entries(lambda arrays: [dict(a, rows=a["rows"] // 2, cols=2)
                                         if a["name"] == "train/items" else a
                                         for a in arrays]), "2 columns, not 1"),
    "graph-without-epsilon": (on_doc(lambda doc: doc.pop("graph_epsilon")), "epsilon >= 1"),
    "epsilon-without-graph": (drop_blocks("graph/"), "'graph/dst' is missing"),
}


def rewrite_meta(raw: bytes, edit) -> bytes:
    """A checkpoint's or bundle's bytes with its header JSON passed through edit."""
    magic, head, body = split_container(raw)
    return join_container(magic, json.dumps(edit(json.loads(head))).encode(), body)


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
