"""Session log ingestion, filtering, temporal split, and prefix augmentation.

The pipeline: parse delimiter-separated events, group them into sessions,
drop rare items then short sessions, split the most recent sessions into a
test window, build the vocabulary from train sessions only, and expand every
session into (prefix, next-item) supervision pairs.

A bundle holds its sessions and its examples as ragged containers: one flat
item array with row offsets, and one int per row (a start time or a target),
with no Python object per row.
"""
from __future__ import annotations

import gc
import json
import numbers
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import chain
from operator import attrgetter, itemgetter
from typing import NamedTuple

import numpy as np

BUNDLE_FORMAT_VERSION = 1


class DataError(ValueError):
    """Raised for unusable input data."""


class RawEvent(NamedTuple):
    session_key: str
    item_key: str
    timestamp: int


@dataclass
class RawSession:
    key: str
    item_keys: list
    start_time: int


@dataclass
class Session:
    items: list          # item indices
    start_time: int


class TrainExample(NamedTuple):
    prefix: tuple
    target: int


def _offsets(lengths: np.ndarray) -> np.ndarray:
    """Row offsets from row lengths: 0, then their running sum."""
    out = np.zeros(lengths.size + 1, dtype=np.intp)
    np.cumsum(lengths, out=out[1:])
    return out


def _gather(items: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> tuple:
    """The runs items[starts[r]:starts[r] + lengths[r]] laid end to end, with
    their offsets."""
    offsets = _offsets(lengths)
    return items[np.repeat(starts - offsets[:-1], lengths) + np.arange(offsets[-1])], offsets


def flat(rows, last: int | None = None) -> tuple:
    """(items, offsets) of rows of item indices: a container's own arrays, or a
    sequence of item sequences laid end to end. With `last`, each row keeps its
    last `last` items."""
    if isinstance(rows, Ragged):
        items, offsets = rows.items, rows.offsets
    else:
        lengths = np.fromiter(map(len, rows), dtype=np.intp, count=len(rows))
        items = np.fromiter(chain.from_iterable(rows), dtype=np.intp, count=lengths.sum())
        offsets = _offsets(lengths)
    lengths = np.diff(offsets)
    if last is not None and lengths.max(initial=0) > last:
        kept = np.minimum(lengths, last)
        items, offsets = _gather(items, offsets[1:] - kept, kept)
    return items, offsets


class Ragged:
    """Rows of item indices laid end to end, with one int value per row: row r
    holds items[offsets[r]:offsets[r + 1]] and values[r]. An int index builds
    that row's object; a slice or an index array gives a container of the
    chosen rows. Containers are not changed in place."""
    __slots__ = ("items", "offsets", "values")

    def __init__(self, items: np.ndarray, offsets: np.ndarray, values: np.ndarray):
        self.items, self.offsets, self.values = items, offsets, values

    @classmethod
    def of(cls, rows):
        """rows itself if it is a container of this kind, else a container of
        its rows, Session or TrainExample objects."""
        if isinstance(rows, cls):
            return rows
        rows = list(rows)
        items, offsets = flat(list(map(attrgetter(cls._items), rows)))
        return cls(items, offsets, np.array(list(map(attrgetter(cls._value), rows)),
                                            dtype=np.int64))

    def __len__(self) -> int:
        return self.values.size

    def __getitem__(self, key):
        if isinstance(key, numbers.Integral):
            r = range(len(self))[key]
            a, b = self.offsets[r:r + 2].tolist()
            return self._row(self.items[a:b].tolist(), int(self.values[r]))
        rows = np.arange(len(self))[key]
        starts = self.offsets[rows]
        items, offsets = _gather(self.items, starts, self.offsets[rows + 1] - starts)
        return type(self)(items, offsets, self.values[rows])

    def __iter__(self):
        items, offsets = self.items.tolist(), self.offsets.tolist()
        runs = map(items.__getitem__, map(slice, offsets, offsets[1:]))
        return map(self._row, runs, self.values.tolist())

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return type(self)(np.concatenate((self.items, other.items)),
                          np.concatenate((self.offsets, other.offsets[1:] + self.offsets[-1])),
                          np.concatenate((self.values, other.values)))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({len(self)} rows, {self.items.size} items)"


class Sessions(Ragged):
    """Sessions: row r is Session(items, start_time)."""
    __slots__ = ()
    _items, _value, _row = "items", "start_time", Session


class Examples(Ragged):
    """Prefix examples: row r is TrainExample(prefix, target)."""
    __slots__ = ()
    _items, _value = "prefix", "target"

    @staticmethod
    def _row(prefix: list, target: int) -> TrainExample:
        return TrainExample(tuple(prefix), target)

    @property
    def targets(self) -> np.ndarray:
        return self.values


class Vocab:
    """Bijective item_key <-> dense item_index map, first-appearance order."""

    def __init__(self, item_keys):
        self.items = list(item_keys)
        self.index = {k: i for i, k in enumerate(self.items)}
        if len(self.index) != len(self.items):
            raise DataError("duplicate item keys in vocabulary")

    @property
    def n(self) -> int:
        return len(self.items)

    def __contains__(self, key) -> bool:
        return key in self.index


@dataclass(frozen=True)
class PreprocessConfig:
    delimiter: str = "\t"
    has_header: bool = False
    max_error_ratio: float = 0.1
    min_item_freq: int = 5
    min_session_len: int = 2
    holdout_fraction: float = 0.1
    holdout_window: int | None = None   # time units; overrides fraction when set
    min_prefix_len: int = 1

    def __post_init__(self):
        if not self.delimiter:
            raise ValueError("delimiter must be a non-empty string")
        if not 0.0 <= self.max_error_ratio <= 1.0:
            raise ValueError("max_error_ratio must be in [0, 1]")
        if self.holdout_window is None and not 0.0 < self.holdout_fraction < 1.0:
            raise ValueError("holdout_fraction must be in (0, 1)")
        if self.holdout_window is not None and self.holdout_window < 0:
            raise ValueError("holdout_window must be >= 0")
        for name in ("min_item_freq", "min_session_len", "min_prefix_len"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")


@dataclass
class DatasetBundle:
    vocab: Vocab
    sessions_train: Sessions      # used for graph building
    sessions_test: Sessions
    train: Examples
    test: Examples
    stats: dict
    config: dict = field(default_factory=dict)
    graph: object = None          # optional GlobalGraph, attached by build-graph
    graph_epsilon: int | None = None


def parse_events(stream, delimiter: str = "\t", has_header: bool = False,
                 max_error_ratio: float = 0.1):
    """Parse (session_key, item_key, timestamp) rows from text lines.

    Returns (events, errors) where errors is a list of (line_number, message).
    Raises DataError when the malformed-row ratio exceeds max_error_ratio.
    """
    if isinstance(stream, str):
        stream = stream.splitlines()
    events: list[RawEvent] = []
    errors: list[tuple[int, str]] = []
    total = 0
    for lineno, line in enumerate(stream, start=1):
        line = line.rstrip("\n").rstrip("\r")
        if has_header and lineno == 1:
            continue
        if not line:
            continue
        total += 1
        parts = line.split(delimiter)
        if len(parts) < 3:
            errors.append((lineno, f"expected 3 columns, got {len(parts)}"))
            continue
        session_key, item_key, ts = parts[0], parts[1], parts[2]
        try:
            timestamp = int(ts)
            np.int64(timestamp)   # start times are held as int64
        except (ValueError, OverflowError):
            errors.append((lineno, f"bad timestamp {ts!r}"))
            continue
        events.append(RawEvent(session_key, item_key, timestamp))
    if total and len(errors) / total > max_error_ratio:
        raise DataError(
            f"{len(errors)}/{total} malformed rows exceeds error ratio {max_error_ratio}")
    return events, errors


def build_sessions(events) -> list:
    """Group events by session key and time-sort each group (stable ties)."""
    groups: dict[str, list[RawEvent]] = {}
    for ev in events:
        groups.setdefault(ev.session_key, []).append(ev)
    sessions = []
    for key, evs in groups.items():
        ordered = sorted(evs, key=lambda e: e.timestamp)  # stable: ties keep input order
        sessions.append(RawSession(key=key,
                                   item_keys=[e.item_key for e in ordered],
                                   start_time=min(e.timestamp for e in evs)))
    return sessions


def filter_dataset(sessions, min_item_freq: int = 5, min_session_len: int = 2):
    """Drop rare items, then short sessions; single pass, in that order."""
    counts: dict[str, int] = {}
    for s in sessions:
        for k in s.item_keys:
            counts[k] = counts.get(k, 0) + 1
    out = []
    for s in sessions:
        kept = [k for k in s.item_keys if counts[k] >= min_item_freq]
        if len(kept) >= min_session_len:
            out.append(RawSession(key=s.key, item_keys=kept, start_time=s.start_time))
    if not out:
        raise DataError("empty dataset after filtering")
    return out


def temporal_split(sessions, holdout_fraction: float = 0.1,
                   holdout_window: int | None = None):
    """Most recent sessions (by start_time) become the test set."""
    if len(sessions) < 2:
        raise DataError("need at least 2 sessions to split")
    ordered = sorted(sessions, key=lambda s: s.start_time)  # stable
    if len({s.start_time for s in sessions}) == 1:
        warnings.warn("all sessions share one start_time; splitting by input order")
    if holdout_window is not None:
        cutoff = max(s.start_time for s in sessions) - holdout_window
        train = [s for s in ordered if s.start_time < cutoff]
        test = [s for s in ordered if s.start_time >= cutoff]
        if not train or not test:
            raise DataError("holdout window leaves an empty split")
        return train, test
    if not (0.0 < holdout_fraction < 1.0):
        raise DataError(f"holdout_fraction must be in (0,1), got {holdout_fraction}")
    n_test = int(round(holdout_fraction * len(ordered)))
    n_test = min(max(n_test, 1), len(ordered) - 1)
    return ordered[:-n_test], ordered[-n_test:]


def build_vocab(train_sessions) -> Vocab:
    """Indices in first-appearance order over the training stream."""
    if not train_sessions:
        raise DataError("cannot build vocabulary from empty training set")
    seen: dict[str, None] = {}
    for s in train_sessions:
        for k in s.item_keys:
            seen.setdefault(k, None)
    return Vocab(seen.keys())


def index_sessions(sessions, vocab: Vocab, min_session_len: int = 2) -> Sessions:
    """Map item keys to indices, dropping unknown items then short sessions."""
    kept, start_times = [], []
    for s in sessions:
        items = [vocab.index[k] for k in s.item_keys if k in vocab]
        if len(items) >= min_session_len:
            kept.append(items)
            start_times.append(s.start_time)
    return Sessions(*flat(kept), np.array(start_times, dtype=np.int64))


def prefix_examples(sessions, min_prefix_len: int = 1) -> Examples:
    """All (items[:t], items[t]) pairs of each session's items, t in
    [min_prefix_len, m-1], session by session; sessions as for flat()."""
    items, offsets = flat(sessions)
    counts = np.maximum(np.diff(offsets) - min_prefix_len, 0)
    starts = np.repeat(offsets[:-1], counts)
    t = min_prefix_len + np.arange(starts.size) - np.repeat(_offsets(counts)[:-1], counts)
    return Examples(*_gather(items, starts, t), items[starts + t])


def make_bundle(events, config: PreprocessConfig | None = None) -> DatasetBundle:
    """End-to-end preprocessing: events -> DatasetBundle."""
    config = config or PreprocessConfig()
    raw = build_sessions(events)
    raw = filter_dataset(raw, config.min_item_freq, config.min_session_len)
    train_raw, test_raw = temporal_split(raw, config.holdout_fraction,
                                         config.holdout_window)
    vocab = build_vocab(train_raw)
    sessions_train = index_sessions(train_raw, vocab, config.min_session_len)
    sessions_test = index_sessions(test_raw, vocab, config.min_session_len)
    if not sessions_train:
        raise DataError("empty dataset: no training sessions survived indexing")
    train_examples = prefix_examples(sessions_train, config.min_prefix_len)
    test_examples = prefix_examples(sessions_test, config.min_prefix_len)
    n_sessions = len(sessions_train) + len(sessions_test)
    stats = {
        "n_items": vocab.n,
        "n_sessions_train": len(sessions_train),
        "n_sessions_test": len(sessions_test),
        "n_train_examples": len(train_examples),
        "n_test_examples": len(test_examples),
        "mean_session_len": (sessions_train.items.size + sessions_test.items.size) / n_sessions,
    }
    cfg = {
        "min_item_freq": config.min_item_freq,
        "min_session_len": config.min_session_len,
        "holdout_fraction": config.holdout_fraction,
        "holdout_window": config.holdout_window,
        "min_prefix_len": config.min_prefix_len,
    }
    return DatasetBundle(vocab=vocab, sessions_train=sessions_train,
                         sessions_test=sessions_test, train=train_examples,
                         test=test_examples, stats=stats, config=cfg)


# ---------------------------------------------------------------------------
# bundle serialization (versioned JSON, bit-exact round trip)
# ---------------------------------------------------------------------------

def bundle_to_dict(bundle: DatasetBundle) -> dict:
    from . import graph as graph_mod
    doc = {
        "format_version": BUNDLE_FORMAT_VERSION,
        "vocab": bundle.vocab.items,
        "sessions_train": _row_lists(bundle.sessions_train),
        "sessions_test": _row_lists(bundle.sessions_test),
        "train": _row_lists(bundle.train),
        "test": _row_lists(bundle.test),
        "stats": bundle.stats,
        "config": bundle.config,
    }
    if bundle.graph is not None:
        doc["graph"] = {"epsilon": bundle.graph_epsilon,
                        "edges": graph_mod.edges_to_list(bundle.graph)}
    return doc


def _row_lists(rows: Ragged) -> list:
    """[items, value] lists, one per row, as the bundle file holds them."""
    items, offsets = rows.items.tolist(), rows.offsets.tolist()
    return list(map(list, zip(map(items.__getitem__, map(slice, offsets, offsets[1:])),
                              rows.values.tolist())))


def _field(doc: dict, key: str, kind: type):
    value = doc.get(key)
    if not isinstance(value, kind):
        raise DataError(f"bundle field {key!r} is missing or not a {kind.__name__}")
    return value


def _ints(xs: list, n: int | None = None):
    """xs as an int64 array when every element is an int (bools excluded) and,
    given n, in [0, n); else None. An int past the int64 range raises
    OverflowError."""
    if not set(map(type, xs)) <= {int}:
        return None
    out = np.fromiter(xs, dtype=np.int64, count=len(xs))
    if n is not None and out.size and (out.min() < 0 or out.max() >= n):
        return None
    return out


def _rows(doc: dict, key: str, n: int, min_items: int, values_in_vocab: bool) -> tuple:
    """A bundle field of [items, value] rows: at least min_items int items in
    [0, n) and an int value, also in [0, n) when values_in_vocab. Returns the
    items laid end to end, their row offsets and the values."""
    rows = _field(doc, key, list)
    items = values = None
    try:
        if set(map(len, rows)) <= {2}:
            item_lists = list(map(itemgetter(0), rows))
            lengths = np.fromiter(map(len, item_lists), dtype=np.intp, count=len(rows))
            if lengths.min(initial=min_items) >= min_items:
                values = _ints(list(map(itemgetter(1), rows)), n if values_in_vocab else None)
                items = _ints(list(chain.from_iterable(item_lists)), n)
    except (TypeError, KeyError, OverflowError):   # a row or an item list that is not
        pass                                       # a list, or an int past int64
    if items is None or values is None:
        raise DataError(f"bundle field {key!r} must hold [items, value] rows of "
                        f"integers, at least {min_items} item(s) per row, items in "
                        f"[0, {n})")
    return items, _offsets(lengths), values


def bundle_from_dict(doc: dict) -> DatasetBundle:
    """Rebuild a bundle; missing or ill-typed fields and item indices outside
    the vocabulary raise DataError."""
    from . import graph as graph_mod
    if not isinstance(doc, dict):
        raise DataError("a bundle must be a JSON object")
    version = doc.get("format_version")
    if type(version) is not int or version != BUNDLE_FORMAT_VERSION:
        raise DataError(f"unsupported bundle format version {version!r}")
    keys = _field(doc, "vocab", list)
    if not set(map(type, keys)) <= {str}:
        raise DataError("bundle field 'vocab' must hold item key strings")
    vocab = Vocab(keys)
    n = vocab.n
    bundle = DatasetBundle(
        vocab=vocab,
        sessions_train=Sessions(*_rows(doc, "sessions_train", n, 0, False)),
        sessions_test=Sessions(*_rows(doc, "sessions_test", n, 0, False)),
        train=Examples(*_rows(doc, "train", n, 1, True)),
        test=Examples(*_rows(doc, "test", n, 1, True)),
        stats=_field(doc, "stats", dict),
        config=doc.get("config", {}),
    )
    if "graph" in doc:
        graph = _field(doc, "graph", dict)
        epsilon, edges = graph.get("epsilon"), graph.get("edges")
        try:
            ok = (type(epsilon) is int and epsilon >= 1
                  and set(map(len, edges)) <= {3}
                  and _ints(list(map(itemgetter(0), edges)), n) is not None
                  and _ints(list(map(itemgetter(1), edges)), n) is not None
                  and set(map(type, map(itemgetter(2), edges))) <= {int, float})
            g = graph_mod.edges_from_list(n, edges) if ok else None
        except (TypeError, KeyError, OverflowError):   # not a list, or a huge int
            ok = False
        if not ok:
            raise DataError("bundle field 'graph' must hold epsilon >= 1 and "
                            f"[src, dst, weight] edges with src, dst in [0, {n})")
        repeated = (g.src[1:] == g.src[:-1]) & (g.dst[1:] == g.dst[:-1])
        if not np.all(np.isfinite(g.weight) & (g.weight > 0)) or repeated.any():
            raise DataError("bundle field 'graph' must hold one edge per [src, dst] "
                            "pair, each with a finite weight > 0")
        bundle.graph = g
        bundle.graph_epsilon = epsilon
    return bundle


def save_bundle(bundle: DatasetBundle, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(bundle_to_dict(bundle), f, sort_keys=True, separators=(",", ":"))


@contextmanager
def _gc_paused():
    """Pause the cyclic garbage collector. A bundle parses into hundreds of
    thousands of acyclic lists and tuples; while they are allocated, a running
    collector traverses the growing heap again and again, which costs more
    than the parse itself."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def load_bundle(path) -> DatasetBundle:
    with _gc_paused():
        try:
            with open(path, "r", encoding="utf-8") as f:
                doc = json.load(f)
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as e:
            raise DataError(f"cannot read bundle {path}: {e}") from e
        return bundle_from_dict(doc)


def vocab_hash(vocab: Vocab) -> str:
    import hashlib
    h = hashlib.sha256("\n".join(vocab.items).encode("utf-8"))
    return h.hexdigest()
