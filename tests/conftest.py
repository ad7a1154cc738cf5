import ctypes
import json
import struct
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from sessrec import tensor as T
from sessrec.data import DatasetBundle, Session, TrainExample, Vocab, augment
from sessrec.train import CHECKPOINT_MAGIC


def indexed_bundle(sessions, n, test_sessions=None, min_prefix_len=1):
    """Build a DatasetBundle directly from already-indexed sessions."""
    vocab = Vocab([f"k{i}" for i in range(n)])
    train_sessions = [Session(items=list(s), start_time=i * 10)
                      for i, s in enumerate(sessions)]
    test_sessions = [Session(items=list(s), start_time=10_000 + i * 10)
                     for i, s in enumerate(test_sessions or [])]
    train = [ex for s in train_sessions for ex in augment(s.items, min_prefix_len)]
    test = [ex for s in test_sessions for ex in augment(s.items, min_prefix_len)]
    return DatasetBundle(vocab=vocab, sessions_train=train_sessions,
                         sessions_test=test_sessions, train=train, test=test,
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


class ReportedBlas:
    """Stands in for numpy's OpenBLAS in tensor._openblas: reports `threads` threads."""

    def __init__(self, threads: int):
        self.threads = threads

    def scipy_openblas_get_num_threads64_(self) -> int:
        return self.threads


@pytest.fixture
def pool_submissions(monkeypatch):
    """The row tiles that tensor._tile_map hands to its thread pool in the test."""
    submitted = []

    class CountingPool(ThreadPoolExecutor):
        def submit(self, fn, tile):
            submitted.append(tile)
            return super().submit(fn, tile)

    monkeypatch.setattr(T, "ThreadPoolExecutor", CountingPool)
    return submitted


@pytest.fixture
def tile_pool(monkeypatch, pool_submissions):
    """Run the fused kernels' row tiles on 2 threads for the test: the calling
    one and a pool thread. Returns the list of tiles submitted to the pool.

    The pool runs only while numpy's OpenBLAS reports one thread. The fixture
    puts a library that does in its place, so the pool runs whichever BLAS
    numpy uses; the tests' products are far too small for a BLAS to split
    them over threads, so their bytes do not depend on its thread count.
    """
    monkeypatch.setattr(T, "_openblas", lambda: ReportedBlas(1))
    monkeypatch.setattr(T, "WORKERS", 2)
    return pool_submissions


@pytest.fixture
def real_openblas():
    """numpy's OpenBLAS as tensor._openblas finds it, with a typed thread-count
    setter; its thread count is restored after the test. Skips the test when
    the library or its symbols cannot be found."""
    lib = T._openblas()
    if lib is None:
        pytest.skip("numpy's OpenBLAS thread count cannot be read")
    put = lib.scipy_openblas_set_num_threads64_
    put.restype, put.argtypes = None, [ctypes.c_int]
    before = lib.scipy_openblas_get_num_threads64_()
    yield lib
    put(before)
