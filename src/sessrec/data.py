"""Session log ingestion, filtering, temporal split, and prefix augmentation.

The pipeline: parse delimiter-separated events, group them into sessions,
drop rare items then short sessions, split the most recent sessions into a
test window, build the vocabulary from train sessions only, and expand every
session into (prefix, next-item) supervision pairs.

A bundle holds its sessions and its examples as ragged containers: one flat
item array with row offsets, and one int per row (a start time or a target),
with no Python object per row.

A bundle file (format 3) is the binary container checkpoints use too: a JSON
header (vocabulary, stats, config, graph epsilon), then one raw little-endian
block per column, int32 for items, lengths, targets and edge ends, int64 for
start times and float64 for weights. Loading parses no large JSON string and
builds no Python object per item. JSON bundles (formats 1 and 2) are refused;
bundles are derived data, so regenerate them.
"""
from __future__ import annotations

import json
import numbers
import struct
import warnings
from dataclasses import dataclass, field
from itertools import chain
from operator import attrgetter
from pathlib import Path
from typing import NamedTuple

import numpy as np

BUNDLE_FORMAT_VERSION = 3


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
# binary containers, for bundles (format 3) and checkpoints: a magic line, the
# header's length as <Q, a compact sorted-key UTF-8 JSON header, then the raw
# blocks its "arrays" entries {"name", "rows", "cols", "offset"} locate after
# it. Dtypes are not stored: each reader names those of the blocks it knows.
# ---------------------------------------------------------------------------

def write_container(path, magic: bytes, header: dict, blocks) -> None:
    """Write magic, header and the (name, array) pairs of blocks in order, each
    array's bytes as they are (so in its stored dtype); a 1-d array is rows x 1."""
    arrays, offset = [], 0
    for name, data in blocks:
        rows, cols = data.shape if data.ndim == 2 else (data.size, 1)
        arrays.append({"name": name, "rows": rows, "cols": cols, "offset": offset})
        offset += data.nbytes
    head = json.dumps(dict(header, arrays=arrays), sort_keys=True,
                      separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as f:
        f.write(magic)
        f.write(struct.pack("<Q", len(head)))
        f.write(head)
        for _, data in blocks:
            f.write(np.ascontiguousarray(data).data)


def read_container(raw: bytes, what: str, magic: bytes, error: type, dtype_of) -> tuple:
    """(header, blocks) of a container file's bytes: the header object and, per
    block name, a read-only rows x cols array of dtype_of(name) over raw, where
    a name dtype_of does not know gives None. Any defect of the layout raises
    error, its message led by `what` (such as "bundle <path>")."""
    start = len(magic) + 8
    if len(raw) < start:
        raise error(f"{what}: truncated header")
    if not raw.startswith(magic):
        raise error(f"cannot read {what}: it does not start with {magic!r}")
    (size,) = struct.unpack_from("<Q", raw, len(magic))
    base = start + size
    if base > len(raw):
        raise error(f"{what}: truncated header (its length runs past the file's end)")
    try:
        header = json.loads(raw[start:base].decode("utf-8"))
    except (ValueError, RecursionError) as e:   # not UTF-8, or not JSON
        raise error(f"{what}: the header is not UTF-8 JSON: {e}") from None
    arrays = header.get("arrays") if isinstance(header, dict) else None
    if not isinstance(arrays, list):
        raise error(f"{what}: the header is not a JSON object with an 'arrays' list")
    blocks = {}
    for spec in arrays:
        name, *ints = map(spec.get, ("name", "rows", "cols", "offset")) \
            if isinstance(spec, dict) else [None]
        if type(name) is not str or not all(type(v) is int and v >= 0 for v in ints):
            raise error(f"{what}: block entry {spec!r} is not a string name with "
                        "integer rows, cols and offset >= 0")
        dtype = dtype_of(name)
        if dtype is None:
            raise error(f"{what}: unknown block {name!r}")
        if name in blocks:
            raise error(f"{what}: repeated block {name!r}")
        rows, cols, offset = ints
        dtype = np.dtype(dtype)
        if base + offset + rows * cols * dtype.itemsize > len(raw):
            raise error(f"{what}: block {name!r} runs past the end of the file")
        try:
            blocks[name] = np.frombuffer(raw, dtype, rows * cols, base + offset).reshape(
                rows, cols)
        except ValueError as e:   # a dimension numpy cannot hold, with no bytes behind it
            raise error(f"{what}: block {name!r} has a malformed shape: {e}") from None
    return header, blocks


BUNDLE_MAGIC = b"SESSRECBUNDLE\n"
# ragged bundle field -> (container, least items per row, whether its values
# are item indices)
_RAGGED_FIELDS = {"sessions_train": (Sessions, 0, False), "sessions_test": (Sessions, 0, False),
                  "train": (Examples, 1, True), "test": (Examples, 1, True)}
# block -> stored dtype: int32 for items, row lengths, targets and edge ends,
# int64 for start times and float64 for weights
_RAGGED_BLOCKS = {f"{key}/{name}": "<i8" if kind is Sessions and name == "values" else "<i4"
                  for key, (kind, _, _) in _RAGGED_FIELDS.items()
                  for name in ("items", "lengths", "values")}
_BLOCKS = _RAGGED_BLOCKS | {"graph/src": "<i4", "graph/dst": "<i4", "graph/weight": "<f8"}


def save_bundle(bundle: DatasetBundle, path) -> None:
    header = {"format_version": BUNDLE_FORMAT_VERSION, "vocab": bundle.vocab.items,
              "stats": bundle.stats, "config": bundle.config}
    columns = {}
    for key in _RAGGED_FIELDS:
        rows = getattr(bundle, key)
        columns |= {f"{key}/items": rows.items, f"{key}/lengths": np.diff(rows.offsets),
                    f"{key}/values": rows.values}
    if bundle.graph is not None:
        header["graph_epsilon"] = bundle.graph_epsilon
        columns |= {f"graph/{name}": getattr(bundle.graph, name)
                    for name in ("src", "dst", "weight")}
    write_container(path, BUNDLE_MAGIC, header,
                    [(name, np.asarray(values, dtype=_BLOCKS[name]))
                     for name, values in columns.items()])


def _field(header: dict, key: str, kind: type):
    value = header.get(key)
    if not isinstance(value, kind):
        raise DataError(f"bundle field {key!r} is missing or not a {kind.__name__}")
    return value


def _in_range(values: np.ndarray, n: int) -> bool:
    return values.size == 0 or (values.min() >= 0 and values.max() < n)


def _ragged(blocks: dict, key: str, n: int) -> Ragged:
    """The container of a ragged bundle field, its blocks checked."""
    kind, min_items, values_are_items = _RAGGED_FIELDS[key]
    items, lengths, values = (blocks[f"{key}/{name}"] for name in ("items", "lengths",
                                                                      "values"))
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


def _graph(blocks: dict, n: int):
    """The attached graph, its edge blocks checked."""
    from . import graph as graph_mod
    src, dst, weight = (blocks[f"graph/{name}"] for name in ("src", "dst", "weight"))
    if not src.size == dst.size == weight.size:
        raise DataError("bundle field 'graph' holds src, dst and weight blocks of "
                        "unequal sizes")
    if not (_in_range(src, n) and _in_range(dst, n)):
        raise DataError(f"bundle field 'graph' holds an edge end outside [0, {n})")
    src, dst = src.astype(np.intp), dst.astype(np.intp)
    if np.any(np.diff(src * n + dst) <= 0):
        raise DataError("bundle field 'graph' must hold its edges in increasing "
                        "(src, dst) order, one per pair")
    if not np.all(np.isfinite(weight) & (weight > 0)):
        raise DataError("bundle field 'graph' must hold a finite weight > 0 per edge")
    return graph_mod.GlobalGraph(n=n, src=src, dst=dst, weight=weight.astype(np.float64))


def load_bundle(path) -> DatasetBundle:
    """Read a format-3 bundle; a malformed file, header or block, and item
    indices outside the vocabulary, raise DataError."""
    try:
        raw = Path(path).read_bytes()
    except OSError as e:
        raise DataError(f"cannot read bundle {path}: {e}") from e
    if raw.startswith(b"{"):
        raise DataError("bundle format version 1 or 2 (JSON) is no longer read: regenerate "
                        "the bundle with `sessrec preprocess` or `sessrec synth`")
    what = f"bundle {path}"
    header, blocks = read_container(raw, what, BUNDLE_MAGIC, DataError, _BLOCKS.get)
    version = header.get("format_version")
    if type(version) is not int or version != BUNDLE_FORMAT_VERSION:
        raise DataError(f"unsupported bundle format version {version!r}")
    has_graph = "graph_epsilon" in header or not blocks.keys() <= _RAGGED_BLOCKS.keys()
    missing = (_BLOCKS if has_graph else _RAGGED_BLOCKS).keys() - blocks.keys()
    if missing:
        raise DataError(f"{what}: block {min(missing)!r} is missing")
    for name, block in blocks.items():
        if block.shape[1] != 1:
            raise DataError(f"{what}: block {name!r} has {block.shape[1]} columns, not 1")
        blocks[name] = block.reshape(-1)
    keys = _field(header, "vocab", list)
    if not set(map(type, keys)) <= {str}:
        raise DataError("bundle field 'vocab' must hold item key strings")
    vocab = Vocab(keys)
    bundle = DatasetBundle(vocab=vocab, stats=_field(header, "stats", dict),
                           config=_field(header, "config", dict),
                           **{key: _ragged(blocks, key, vocab.n) for key in _RAGGED_FIELDS})
    if has_graph:
        epsilon = header.get("graph_epsilon")
        if type(epsilon) is not int or epsilon < 1:
            raise DataError("bundle must hold an integer graph_epsilon >= 1")
        bundle.graph, bundle.graph_epsilon = _graph(blocks, vocab.n), epsilon
    return bundle


def vocab_hash(vocab: Vocab) -> str:
    import hashlib
    h = hashlib.sha256("\n".join(vocab.items).encode("utf-8"))
    return h.hexdigest()
