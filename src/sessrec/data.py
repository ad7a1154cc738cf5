"""Session log ingestion, filtering, temporal split, and prefix augmentation.

The pipeline: parse delimiter-separated events, group them into sessions,
drop rare items then short sessions, split the most recent sessions into a
test window, build the vocabulary from train sessions only, and expand every
session into (prefix, next-item) supervision pairs.

A bundle holds its sessions and its examples as ragged containers: one flat
item array with row offsets, and one int per row (a start time or a target),
with no Python object per row.

A bundle file (format 2) is one JSON object. Each ragged field holds three
columns, "items", "lengths" and "values", and an attached graph holds "src",
"dst" and "weight" besides its "epsilon". A column is the base64 text of a
little-endian array: int32 for items, lengths, targets and edge ends, int64
for start times and float64 for weights, so loading decodes each column in
one step and builds no Python object per item. Format-1 files (rows as JSON
lists) are refused; bundles are derived data, so regenerate them.
"""
from __future__ import annotations

import base64
import json
import numbers
import warnings
from dataclasses import dataclass, field
from itertools import chain
from operator import attrgetter
from typing import NamedTuple

import numpy as np

BUNDLE_FORMAT_VERSION = 2


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
# bundle serialization (format 2: typed base64 columns, bit-exact round trip)
# ---------------------------------------------------------------------------

ITEM_DTYPE = "<i4"   # items, row lengths, targets and edge ends
# ragged bundle field -> (container, dtype of its values, least items per row,
# whether its values are item indices)
_RAGGED_FIELDS = {
    "sessions_train": (Sessions, "<i8", 0, False),
    "sessions_test": (Sessions, "<i8", 0, False),
    "train": (Examples, ITEM_DTYPE, 1, True),
    "test": (Examples, ITEM_DTYPE, 1, True),
}


def _encode(values: np.ndarray, dtype: str) -> str:
    """The base64 text of values' bytes as the little-endian dtype."""
    return base64.b64encode(np.asarray(values, dtype=dtype).tobytes()).decode("ascii")


def bundle_to_dict(bundle: DatasetBundle) -> dict:
    doc = {
        "format_version": BUNDLE_FORMAT_VERSION,
        "vocab": bundle.vocab.items,
        "stats": bundle.stats,
        "config": bundle.config,
    }
    for key, (_, value_dtype, _, _) in _RAGGED_FIELDS.items():
        rows = getattr(bundle, key)
        doc[key] = {"items": _encode(rows.items, ITEM_DTYPE),
                    "lengths": _encode(np.diff(rows.offsets), ITEM_DTYPE),
                    "values": _encode(rows.values, value_dtype)}
    if bundle.graph is not None:
        g = bundle.graph
        doc["graph"] = {"epsilon": bundle.graph_epsilon, "src": _encode(g.src, ITEM_DTYPE),
                        "dst": _encode(g.dst, ITEM_DTYPE), "weight": _encode(g.weight, "<f8")}
    return doc


def _field(doc: dict, key: str, kind: type):
    value = doc.get(key)
    if not isinstance(value, kind):
        raise DataError(f"bundle field {key!r} is missing or not a {kind.__name__}")
    return value


def _column(columns: dict, key: str, name: str, dtype: str) -> np.ndarray:
    """Column `name` of bundle field `key`: base64 text of whole little-endian
    dtype values, as a read-only array over the decoded bytes."""
    text = columns.get(name)
    if not isinstance(text, str):
        raise DataError(f"bundle column '{key}.{name}' is missing or not a string")
    try:
        raw = base64.b64decode(text, validate=True)
    except ValueError:   # a bad alphabet or padding, or a character outside ASCII
        raise DataError(f"bundle column '{key}.{name}' is not valid base64") from None
    size = np.dtype(dtype).itemsize
    if len(raw) % size:
        raise DataError(f"bundle column '{key}.{name}' holds {len(raw)} bytes, not a "
                        f"whole number of {size}-byte values")
    return np.frombuffer(raw, dtype=dtype)


def _in_range(values: np.ndarray, n: int) -> bool:
    return values.size == 0 or (values.min() >= 0 and values.max() < n)


def _ragged(doc: dict, key: str, n: int) -> Ragged:
    """The container of a ragged bundle field, its columns checked."""
    kind, value_dtype, min_items, values_are_items = _RAGGED_FIELDS[key]
    columns = _field(doc, key, dict)
    items = _column(columns, key, "items", ITEM_DTYPE)
    lengths = _column(columns, key, "lengths", ITEM_DTYPE)
    values = _column(columns, key, "values", value_dtype)
    if lengths.size != values.size:
        raise DataError(f"bundle field {key!r} holds {lengths.size} lengths but "
                        f"{values.size} values")
    if lengths.min(initial=min_items) < min_items:
        raise DataError(f"bundle field {key!r} holds a row length below {min_items}")
    offsets = _offsets(lengths)
    if offsets[-1] != items.size:
        raise DataError(f"bundle field {key!r} has lengths summing to {offsets[-1]} "
                        f"but {items.size} items")
    if not _in_range(items, n) or (values_are_items and not _in_range(values, n)):
        raise DataError(f"bundle field {key!r} holds an item index outside [0, {n})")
    return kind(items.astype(np.intp), offsets, values.astype(np.int64))


def _graph(doc: dict, n: int):
    """The attached graph and its epsilon, the edge columns checked."""
    from . import graph as graph_mod
    columns = _field(doc, "graph", dict)
    epsilon = columns.get("epsilon")
    if type(epsilon) is not int or epsilon < 1:
        raise DataError("bundle field 'graph' must hold an integer epsilon >= 1")
    src = _column(columns, "graph", "src", ITEM_DTYPE)
    dst = _column(columns, "graph", "dst", ITEM_DTYPE)
    weight = _column(columns, "graph", "weight", "<f8")
    if not src.size == dst.size == weight.size:
        raise DataError("bundle field 'graph' holds src, dst and weight columns of "
                        "unequal sizes")
    if not (_in_range(src, n) and _in_range(dst, n)):
        raise DataError(f"bundle field 'graph' holds an edge end outside [0, {n})")
    src, dst = src.astype(np.intp), dst.astype(np.intp)
    if np.any(np.diff(src * n + dst) <= 0):
        raise DataError("bundle field 'graph' must hold its edges in increasing "
                        "(src, dst) order, one per pair")
    if not np.all(np.isfinite(weight) & (weight > 0)):
        raise DataError("bundle field 'graph' must hold a finite weight > 0 per edge")
    return graph_mod.GlobalGraph(n=n, src=src, dst=dst, weight=weight.astype(np.float64)), epsilon


def bundle_from_dict(doc: dict) -> DatasetBundle:
    """Rebuild a bundle; missing or ill-typed fields, malformed columns and
    item indices outside the vocabulary raise DataError."""
    if not isinstance(doc, dict):
        raise DataError("a bundle must be a JSON object")
    version = doc.get("format_version")
    if type(version) is int and version == 1:
        raise DataError("bundle format version 1 is no longer read: regenerate the "
                        "bundle with `sessrec preprocess` or `sessrec synth`")
    if type(version) is not int or version != BUNDLE_FORMAT_VERSION:
        raise DataError(f"unsupported bundle format version {version!r}")
    keys = _field(doc, "vocab", list)
    if not set(map(type, keys)) <= {str}:
        raise DataError("bundle field 'vocab' must hold item key strings")
    vocab = Vocab(keys)
    bundle = DatasetBundle(vocab=vocab, stats=_field(doc, "stats", dict),
                           config=doc.get("config", {}),
                           **{key: _ragged(doc, key, vocab.n) for key in _RAGGED_FIELDS})
    if "graph" in doc:
        bundle.graph, bundle.graph_epsilon = _graph(doc, vocab.n)
    return bundle


def save_bundle(bundle: DatasetBundle, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(bundle_to_dict(bundle), f, sort_keys=True, separators=(",", ":"))


def load_bundle(path) -> DatasetBundle:
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
