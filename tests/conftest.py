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
