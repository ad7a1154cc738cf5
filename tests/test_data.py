import dataclasses
import gc
import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from sessrec import synth
from sessrec.data import (DataError, DatasetBundle, Examples, PreprocessConfig, RawEvent,
                          RawSession, Session, Sessions, TrainExample, build_sessions,
                          build_vocab, filter_dataset,
                          index_sessions, make_bundle, parse_events, prefix_examples,
                          save_bundle, load_bundle, temporal_split)
from sessrec.graph import GlobalGraph
from conftest import (BROKEN_BUNDLES, bundle_doc, column, column_dtype, doc_bytes, entry,
                      format_1_doc, format_2_doc, read_doc, rewrite_meta, rows_of, set_column,
                      split_container)


def ev(s, i, t):
    return RawEvent(s, i, t)


class TestParseEvents:
    def test_direct_parse(self):
        events, errors = parse_events("s1,a,100\ns1,b,200", delimiter=",")
        assert events == [ev("s1", "a", 100), ev("s1", "b", 200)]
        assert errors == []

    def test_empty_stream(self):
        events, errors = parse_events("")
        assert events == [] and errors == []

    def test_missing_column_is_line_error(self):
        events, errors = parse_events("s1,a,100\ns1,a\ns1,b,200", delimiter=",",
                                      max_error_ratio=0.5)
        assert len(events) == 2
        assert errors == [(2, "expected 3 columns, got 2")]

    def test_bad_timestamp(self):
        events, errors = parse_events("s1,a,oops", delimiter=",", max_error_ratio=1.0)
        assert events == [] and errors[0][0] == 1

    def test_timestamp_past_int64_is_line_error(self):
        events, errors = parse_events("s1,a,9223372036854775807\ns1,b,9223372036854775808",
                                      delimiter=",", max_error_ratio=1.0)
        assert events == [ev("s1", "a", 2 ** 63 - 1)]
        assert errors == [(2, "bad timestamp '9223372036854775808'")]

    def test_error_ratio_abort(self):
        with pytest.raises(DataError):
            parse_events("bad\nbad\ns1,a,1\n", delimiter=",", max_error_ratio=0.5)

    def test_header_skipped(self):
        events, _ = parse_events("session,item,ts\ns1,a,1", delimiter=",",
                                 has_header=True)
        assert events == [ev("s1", "a", 1)]


class TestBuildSessions:
    def test_sorted_by_time(self):
        (s,) = build_sessions([ev("s1", "a", 200), ev("s1", "b", 100)])
        assert s.item_keys == ["b", "a"] and s.start_time == 100

    def test_two_sessions(self):
        out = build_sessions([ev("s1", "a", 100), ev("s2", "b", 50)])
        by_key = {s.key: s for s in out}
        assert by_key["s2"].start_time < by_key["s1"].start_time

    def test_tie_keeps_input_order(self):
        (s,) = build_sessions([ev("s1", "a", 100), ev("s1", "b", 100)])
        assert s.item_keys == ["a", "b"]


def raw(items, t=0, key="s"):
    return RawSession(key=key, item_keys=list(items), start_time=t)


class TestFilterDataset:
    def test_rare_item_removed_then_short_session_dropped(self):
        sessions = [raw("ab", t=i) for i in range(5)] + [raw("ac", t=5)]
        out = filter_dataset(sessions, min_item_freq=5, min_session_len=2)
        assert len(out) == 5
        assert all(s.item_keys == ["a", "b"] for s in out)

    def test_min_freq_one_is_identity(self):
        sessions = [raw("ab"), raw("cd")]
        out = filter_dataset(sessions, min_item_freq=1)
        assert [s.item_keys for s in out] == [["a", "b"], ["c", "d"]]

    def test_all_filtered_is_error(self):
        with pytest.raises(DataError, match="empty dataset"):
            filter_dataset([raw("a")])

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.lists(st.sampled_from("abcdef"), min_size=1, max_size=6),
                    min_size=1, max_size=10))
    def test_idempotent_when_counts_stay_above_threshold(self, session_items):
        # single-pass filtering is only idempotent when dropping short
        # sessions does not push a surviving item below the threshold
        sessions = [raw(items, t=i) for i, items in enumerate(session_items)]
        try:
            once = filter_dataset(sessions, min_item_freq=3)
        except DataError:
            return
        counts = {}
        for s in once:
            for k in s.item_keys:
                counts[k] = counts.get(k, 0) + 1
        assume(all(c >= 3 for c in counts.values()))
        twice = filter_dataset(once, min_item_freq=3)
        assert [s.item_keys for s in once] == [s.item_keys for s in twice]


class TestTemporalSplit:
    def test_fraction(self):
        sessions = [raw("ab", t=i) for i in range(10)]
        train, test = temporal_split(sessions, holdout_fraction=0.2)
        assert len(train) == 8 and len(test) == 2
        assert {s.start_time for s in test} == {8, 9}

    def test_half_of_two(self):
        train, test = temporal_split([raw("ab", t=0), raw("cd", t=1)], 0.5)
        assert len(train) == 1 and len(test) == 1

    def test_all_same_time_warns_and_splits_by_input_order(self):
        sessions = [raw("ab", t=5, key=f"s{i}") for i in range(4)]
        with pytest.warns(UserWarning):
            train, test = temporal_split(sessions, 0.25)
        assert [s.key for s in train] == ["s0", "s1", "s2"]
        assert [s.key for s in test] == ["s3"]

    def test_bad_fraction(self):
        sessions = [raw("ab", t=0), raw("cd", t=1)]
        for frac in (0.0, 1.0, -0.3, 2.0):
            with pytest.raises(DataError):
                temporal_split(sessions, frac)

    def test_window_split(self):
        sessions = [raw("ab", t=t) for t in (0, 10, 90, 100)]
        train, test = temporal_split(sessions, holdout_window=15)
        assert [s.start_time for s in train] == [0, 10]
        assert [s.start_time for s in test] == [90, 100]

    def test_no_temporal_leakage(self):
        sessions = [raw("ab", t=t) for t in (5, 3, 9, 1, 7, 2, 8, 0, 4, 6)]
        train, test = temporal_split(sessions, 0.3)
        assert max(s.start_time for s in train) <= min(s.start_time for s in test)


class TestAugment:
    def test_default_prefixes(self):
        assert list(prefix_examples([[7, 8, 9]])) == [TrainExample((7,), 8),
                                                      TrainExample((7, 8), 9)]

    def test_min_prefix_two_matches_displayed_scheme(self):
        assert list(prefix_examples([[7, 8, 9]], 2)) == [TrainExample((7, 8), 9)]

    def test_too_short_yields_empty(self):
        assert list(prefix_examples([[7, 8]], 2)) == []

    @settings(max_examples=50, deadline=None)
    @given(st.integers(2, 30), st.integers(1, 5))
    def test_count_formula(self, m, p):
        assert len(prefix_examples([list(range(m))], p)) == max(0, m - p)


class TestBuildVocab:
    def test_first_appearance_order(self):
        v = build_vocab([raw("bab")])
        assert v.index == {"b": 0, "a": 1}

    def test_unknown_test_items_dropped_then_short_sessions(self):
        v = build_vocab([raw("ab")])
        out = index_sessions([raw("az"), raw("ab")], v, min_session_len=2)
        assert len(out) == 1 and out[0].items == [0, 1]

    def test_empty_train_is_error(self):
        with pytest.raises(DataError):
            build_vocab([])


def events_for(session_items, repeat=1):
    events = []
    t = 0
    for r in range(repeat):
        for si, items in enumerate(session_items):
            for k in items:
                events.append(ev(f"s{r}_{si}", k, t))
                t += 1
    return events


class TestMakeBundle:
    def test_pipeline_and_vocab_closure(self):
        events = events_for([["a", "b", "c"], ["b", "c", "a"]], repeat=5)
        bundle = make_bundle(events, PreprocessConfig(min_item_freq=5,
                                                      holdout_fraction=0.2))
        n = bundle.vocab.n
        for ex in bundle.train + bundle.test:
            assert all(i < n for i in ex.prefix) and ex.target < n

    def test_no_temporal_leakage(self):
        events = events_for([["a", "b"], ["a", "b"], ["b", "a"], ["a", "b"],
                             ["b", "a"]], repeat=3)
        bundle = make_bundle(events, PreprocessConfig(min_item_freq=1,
                                                      holdout_fraction=0.2))
        max_train = max(s.start_time for s in bundle.sessions_train)
        assert all(s.start_time >= max_train for s in bundle.sessions_test)


@pytest.mark.parametrize("field,value", [
    ("min_prefix_len", 0), ("max_error_ratio", 1.5), ("holdout_fraction", 1.0),
    ("holdout_window", -1), ("delimiter", ""), ("min_session_len", 0),
    ("min_item_freq", 0)])
def test_preprocess_config_validation(field, value):
    with pytest.raises(ValueError, match=field):
        PreprocessConfig(**{field: value})
    with pytest.raises(ValueError, match=field):
        make_bundle([], PreprocessConfig(**{field: value}))


@pytest.fixture(scope="module")
def valid_raw(tmp_path_factory):
    """The bytes of a bundle with a graph: every block present and non-empty."""
    from sessrec import graph as G
    bundle = make_bundle(events_for([["a", "b", "c"], ["c", "a", "b"]], repeat=4),
                         PreprocessConfig(min_item_freq=2))
    bundle.graph = G.build_global_graph(bundle.sessions_train, bundle.vocab.n)
    bundle.graph_epsilon = 3
    path = tmp_path_factory.mktemp("valid") / "bundle.bin"
    save_bundle(bundle, path)
    return path.read_bytes()


def load_bytes(path, raw: bytes):
    path.write_bytes(raw)
    return load_bundle(path)


class TestBundleSerialization:
    def test_round_trip_bit_exact(self, tmp_path):
        from sessrec import graph as G
        events = events_for([["a", "b", "c"], ["c", "a", "b"]], repeat=4)
        bundle = make_bundle(events, PreprocessConfig(min_item_freq=2))
        p1, p2 = tmp_path / "b1.bin", tmp_path / "b2.bin"
        for graph in (None, G.build_global_graph(bundle.sessions_train, bundle.vocab.n)):
            bundle.graph, bundle.graph_epsilon = graph, 3
            save_bundle(bundle, p1)
            save_bundle(load_bundle(p1), p2)
            assert p1.read_bytes() == p2.read_bytes()
            # an independent encoder of format 3 lays out the same bytes
            assert doc_bytes(read_doc(p1.read_bytes())) == p1.read_bytes()

    def test_version_check(self, tmp_path, valid_raw):
        for version in (99, 2, 4):
            with pytest.raises(DataError, match="format version"):
                load_bytes(tmp_path / "b.bin",
                           rewrite_meta(valid_raw, lambda m: dict(m, format_version=version)))

    def test_embeds_format_version(self, tmp_path):
        bundle = make_bundle(events_for([["a", "b"]], repeat=3),
                             PreprocessConfig(min_item_freq=1, holdout_fraction=0.4))
        path = tmp_path / "b.bin"
        save_bundle(bundle, path)
        assert path.read_bytes().startswith(b"SESSRECBUNDLE\n")
        assert read_doc(path.read_bytes())["format_version"] == 3

    def test_round_trip_keeps_arrays_and_weight_bits(self, tmp_path):
        bundle = make_bundle(events_for([["a", "b", "c"], ["c", "a", "b"], ["b", "c"]],
                                        repeat=4), PreprocessConfig(min_item_freq=2))
        n = bundle.vocab.n
        rng = np.random.default_rng(3)
        weight = rng.random(n * n) * 10.0 ** rng.integers(-300, 300, n * n)
        weight[:3] = [5e-324, 1 / 3, np.nextafter(1.0, 2.0)]
        bundle.graph = GlobalGraph(n, np.repeat(np.arange(n), n), np.tile(np.arange(n), n),
                                   weight)
        bundle.graph_epsilon = 7
        p1, p2 = tmp_path / "b1.bin", tmp_path / "b2.bin"
        save_bundle(bundle, p1)
        loaded = load_bundle(p1)
        save_bundle(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()
        for f in ("sessions_train", "sessions_test", "train", "test"):
            for name in ("items", "offsets", "values"):
                want, got = getattr(getattr(bundle, f), name), getattr(getattr(loaded, f), name)
                assert got.dtype == want.dtype and np.array_equal(got, want)
        for name in ("src", "dst", "weight"):
            want, got = getattr(bundle.graph, name), getattr(loaded.graph, name)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert loaded.graph_epsilon == 7 and loaded.vocab.items == bundle.vocab.items
        assert (loaded.stats, loaded.config) == (bundle.stats, bundle.config)

    def test_columns_are_little_endian_typed_arrays(self, valid_raw):
        magic, head, body = split_container(valid_raw)
        header = json.loads(head)
        assert magic == b"SESSRECBUNDLE\n" and head == json.dumps(
            header, sort_keys=True, separators=(",", ":")).encode()
        assert header["graph_epsilon"] == 3 and header["format_version"] == 3
        specs = header["arrays"]
        assert [a["name"] for a in specs] == [
            f"{key}/{name}" for key in ("sessions_train", "sessions_test", "train", "test")
            for name in ("items", "lengths", "values")] + ["graph/src", "graph/dst",
                                                           "graph/weight"]
        # rows x 1 blocks laid end to end: int32 but for int64 start times and
        # float64 weights
        sizes = [a["rows"] * np.dtype(column_dtype(*a["name"].split("/"))).itemsize
                 for a in specs]
        assert all(a["cols"] == 1 for a in specs)
        assert [a["offset"] for a in specs] == np.cumsum([0] + sizes[:-1]).tolist()
        assert sum(sizes) == len(body) and sizes[-3:] == [20, 20, 40]   # 5 edges
        doc = read_doc(valid_raw)
        assert rows_of(doc, "test") == [[[2], 0], [[2, 0], 1]]
        start = specs[5]["offset"]   # sessions_test/values: one start time, int64 21
        assert body[start:start + 8] == (21).to_bytes(8, "little")


@st.composite
def broken_bundle_file(draw, raw: bytes):
    """The bytes of a valid bundle file with one defect drawn at random."""
    doc = read_doc(raw)
    n = len(doc["vocab"])
    kind = draw(st.sampled_from(["drop", "retype", "version", "bad_entry", "bad_item",
                                 "bad_target", "bad_length", "bad_edge", "bad_weight",
                                 "dup_edge", "empty_prefix"]))
    bad_index = draw(st.integers(n, 2 ** 31 - 1) | st.integers(-2 ** 31, -1))

    def edit(key, name, index, value):
        values = column(doc, key, name)
        values[draw(st.integers(0, values.size - 1)) if index is None else index] = value
        set_column(doc, key, name, values)

    if kind == "drop":
        target = draw(st.sampled_from(REQUIRED_FIELDS + ["graph_epsilon"] + list(doc["blocks"])))
        (doc["blocks"] if "/" in target else doc).pop(target)
    elif kind == "retype":
        doc[draw(st.sampled_from(REQUIRED_FIELDS[1:]))] = draw(st.sampled_from(NOT_A_CONTAINER))
    elif kind == "version":
        doc["format_version"] = draw(st.sampled_from([None, 1, 2, 4, "3", 3.0, True, [3]]))
    elif kind == "bad_entry":
        i = draw(st.integers(0, len(doc["blocks"]) - 1))
        key = draw(st.sampled_from(["name", "rows", "cols", "offset"]))
        value = draw(st.sampled_from([None, True, 1.0, "1", -1, [0], {}, 2 ** 64]))
        return rewrite_meta(doc_bytes(doc), lambda m: dict(m, arrays=[
            dict(a, **{key: value}) if j == i else a for j, a in enumerate(m["arrays"])]))
    elif kind == "bad_item":
        edit(draw(st.sampled_from(ROW_FIELDS)), "items", None, bad_index)
    elif kind == "bad_target":
        edit(draw(st.sampled_from(["train", "test"])), "values", None, bad_index)
    elif kind == "bad_length":
        key = draw(st.sampled_from(ROW_FIELDS))
        lengths = column(doc, key, "lengths")
        lengths[draw(st.integers(0, lengths.size - 1))] += draw(
            st.integers(-3, 3).filter(bool))
        set_column(doc, key, "lengths", lengths)
    elif kind == "bad_edge":
        edit("graph", draw(st.sampled_from(["src", "dst"])), None, bad_index)
    elif kind == "bad_weight":
        edit("graph", "weight", None, draw(st.sampled_from(
            [float("nan"), float("inf"), -float("inf"), 0.0, -0.0, -1.0, -5e-324])))
    elif kind == "dup_edge":
        i, j = draw(st.integers(0, 4)), draw(st.integers(0, 5))
        for name in ("src", "dst", "weight"):
            values = column(doc, "graph", name)
            set_column(doc, "graph", name, np.insert(values, j, values[i]))
    else:
        key = draw(st.sampled_from(["train", "test"]))
        lengths = column(doc, key, "lengths")
        lengths[-2:] = 0, lengths[-2:].sum()
        set_column(doc, key, "lengths", lengths)
    return doc_bytes(doc)


REQUIRED_FIELDS = ["format_version", "vocab", "stats", "config"]
ROW_FIELDS = ["sessions_train", "sessions_test", "train", "test"]
NOT_A_CONTAINER = [None, 3, "x", 1.5, True]


class TestBundleValidation:
    def test_valid_doc_loads(self, tmp_path, valid_raw):
        bundle = load_bytes(tmp_path / "b.bin", valid_raw)
        assert bundle.test and bundle.sessions_test and bundle.graph.edges

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_mutated_bundle_is_data_error(self, tmp_path, valid_raw, data):
        raw = data.draw(broken_bundle_file(valid_raw))
        with pytest.raises(DataError):
            load_bytes(tmp_path / "bad.bin", raw)

    @pytest.mark.parametrize("start_time", [2 ** 63, -2 ** 63 - 1, 1.5, True])
    def test_start_time_not_an_int64_is_data_error(self, tmp_path, valid_raw, start_time):
        # any 8 bytes of the int64 start-time block are a start time; a value
        # that is not an int >= 0 keeping the block inside the file, as its
        # rows, cols or offset, is refused with the block's name
        for key in ("rows", "cols", "offset"):
            with pytest.raises(DataError, match="sessions_test/values"):
                load_bytes(tmp_path / "b.bin",
                           entry("sessions_test/values", **{key: start_time})(valid_raw))

    @pytest.mark.parametrize("case", BROKEN_BUNDLES)
    def test_broken_column_is_data_error(self, tmp_path, valid_raw, case):
        mutate, message = BROKEN_BUNDLES[case]
        with pytest.raises(DataError, match=re.escape(message)):
            load_bytes(tmp_path / "bad.bin", mutate(valid_raw))

    def test_format_1_bundle_asks_for_regeneration(self, tmp_path, valid_raw):
        # format 2 (base64 columns) is JSON too, and refused alike
        for old in (format_1_doc, format_2_doc):
            path = tmp_path / "old.json"
            path.write_text(json.dumps(old(read_doc(valid_raw)), sort_keys=True))
            with pytest.raises(DataError, match="version 1 or 2 .*regenerate.*"
                                                "`sessrec preprocess` or `sessrec synth`"):
                load_bundle(path)

    def test_not_an_object(self, tmp_path, valid_raw):
        with pytest.raises(DataError, match="JSON object"):
            load_bytes(tmp_path / "b.bin", rewrite_meta(valid_raw, lambda m: [1, 2]))


class TestContainers:
    """Sessions and examples held as flat item arrays with offsets give the
    rows that lists of Session and TrainExample objects hold."""

    FIELDS = ("sessions_train", "sessions_test", "train", "test")
    KINDS = {"sessions_train": Sessions, "sessions_test": Sessions,
             "train": Examples, "test": Examples}

    @classmethod
    def bundles(cls):
        """A preprocessed bundle, the same bundle built from containers of
        lists of rows, and those lists: the sessions from the bundle's JSON
        and their prefixes expanded one by one."""
        bundle = make_bundle(events_for([["a", "b", "c", "d"], ["c", "a"], ["b", "c", "a"]],
                                        repeat=4),
                             PreprocessConfig(min_item_freq=2, holdout_fraction=0.25))
        doc = bundle_doc(bundle)
        rows = {f: [Session(items, start) for items, start in rows_of(doc, "sessions_" + f)]
                for f in ("train", "test")}
        want = {"sessions_" + f: sessions for f, sessions in rows.items()}
        want.update({f: [TrainExample(tuple(s.items[:t]), s.items[t])
                         for s in sessions for t in range(1, len(s.items))]
                     for f, sessions in rows.items()})
        listed = DatasetBundle(vocab=bundle.vocab, stats=bundle.stats, config=bundle.config,
                               **{f: cls.KINDS[f].of(rows) for f, rows in want.items()})
        return bundle, listed, want

    @staticmethod
    def python_values(row):
        if isinstance(row, Session):
            assert type(row.items) is list and type(row.start_time) is int
            assert all(type(i) is int for i in row.items)
        else:
            assert type(row) is TrainExample and type(row.prefix) is tuple
            assert type(row.target) is int and all(type(i) is int for i in row.prefix)
        return row

    def test_lists_become_containers(self):
        bundle, listed, want = self.bundles()
        for f in self.FIELDS:
            rows = getattr(listed, f)
            assert type(rows) is self.KINDS[f] and self.KINDS[f].of(rows) is rows
            assert rows.items.dtype == np.intp and rows.offsets.dtype == np.intp
            assert len(rows) == len(want[f]) > 1 and rows
            assert list(rows) == want[f] and list(getattr(bundle, f)) == want[f]

    def test_int_index_slice_index_array_and_iteration(self):
        bundle, _, wanted = self.bundles()
        for f in self.FIELDS:
            rows, want = getattr(bundle, f), wanted[f]
            assert [self.python_values(r) for r in rows] == want
            assert [rows[i] for i in range(len(rows))] == want
            assert [rows[i] for i in range(-len(rows), 0)] == want
            assert rows[np.int64(1)] == want[1]
            for key in (slice(None, 3), slice(2, None), slice(None, None, -2), slice(5, 2)):
                assert list(rows[key]) == want[key]
            pick = np.array([len(rows) - 1, 0, len(rows) - 1, 1])
            assert list(rows[pick]) == [want[i] for i in pick]
            assert list(rows[[1, 2]]) == want[1:3]
            assert type(rows[:2]) is type(rows) and not rows[:0]
            assert list(rows + rows[:2]) == want + want[:2]
            with pytest.raises(IndexError):
                rows[len(rows)]

    def test_replace_with_slices_keeps_containers(self):
        bundle, _, want = self.bundles()
        out = dataclasses.replace(bundle, train=bundle.train[:3], test=bundle.test[:0])
        assert type(out.train) is Examples and list(out.train) == want["train"][:3]
        assert type(out.test) is Examples and not out.test
        assert out.sessions_train is bundle.sessions_train

    def test_list_built_bundle_saves_the_same_bytes(self, tmp_path):
        bundle, listed, _ = self.bundles()
        save_bundle(bundle, tmp_path / "a.json")
        save_bundle(listed, tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
        again = load_bundle(tmp_path / "a.json")
        assert list(again.train) == list(listed.train)
        assert list(again.sessions_test) == list(listed.sessions_test)

    @pytest.fixture(scope="class")
    def eval_full_bundle(self, tmp_path_factory):
        """The eval-full benchmark's bundle, saved, and the item entries of its
        sessions and prefixes: 2k items, 12k sessions, about 54k prefixes."""
        bundle, _ = synth.synth_dataset(synth.SynthSpec(n_items=2000, n_sessions=12000,
                                                        n_chains=200))
        path = tmp_path_factory.mktemp("eval_full") / "bundle.json"
        save_bundle(bundle, path)
        return path, sum(getattr(bundle, f).items.size for f in self.FIELDS)

    def test_loaded_bundle_memory_per_item(self, eval_full_bundle):
        path, stored = eval_full_bundle
        gc.collect()
        tracemalloc.start()
        try:
            loaded = load_bundle(path)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(loaded.train) > 40_000 and stored > 200_000
        assert retained <= 16 * stored

    def test_load_peak_memory(self, eval_full_bundle):
        # the peak is the file's text and its parsed columns, not a Python
        # object per item: about 2x the containers' arrays, where rows of JSON
        # lists peaked at about 8x
        path, _ = eval_full_bundle
        gc.collect()
        tracemalloc.start()
        try:
            loaded = load_bundle(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        arrays = sum(a.nbytes for f in self.FIELDS
                     for a in (getattr(loaded, f).items, getattr(loaded, f).offsets,
                               getattr(loaded, f).values))
        assert arrays > 2 * 2 ** 20
        assert peak <= 4 * arrays
