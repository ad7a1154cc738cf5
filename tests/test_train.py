import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sessrec import graph as G
from sessrec import model as M
from sessrec import synth as S
from sessrec import tensor as T
from sessrec import train as TR
from sessrec.data import TrainExample, vocab_hash
from sessrec.evaluate import popularity_baseline
from sessrec.model import Hyperparams
from sessrec.optim import Adam
from sessrec.tensor import Tape
from conftest import indexed_bundle, memorization_bundle, rewrite_meta, traced_peak


def tiny_hyper(**kw):
    base = dict(d=8, num_layers=1, max_session_len=6, batch_size=8, epochs=2,
                seed=3, beta=0.5)
    base.update(kw)
    return Hyperparams(**base).validate()


@pytest.fixture
def tiny_bundle():
    rng = np.random.default_rng(4)
    sessions = [list(rng.integers(0, 10, size=3)) for _ in range(8)]
    test = [list(rng.integers(0, 10, size=3)) for _ in range(3)]
    return indexed_bundle(sessions, 10, test_sessions=test)


class TestTrainLoop:
    def test_zero_epochs(self, tiny_bundle):
        result = TR.train(tiny_bundle, tiny_hyper(epochs=0))
        assert result.history == [] and result.best_epoch is None

    def test_fixed_seed_identical_loss_traces(self, tiny_bundle):
        a = TR.train(tiny_bundle, tiny_hyper())
        b = TR.train(tiny_bundle, tiny_hyper())
        assert [h["mean_loss"] for h in a.history] == [h["mean_loss"] for h in b.history]
        for name, t in a.params.items():
            np.testing.assert_array_equal(t.data, b.params[name].data)

    def test_loss_decreases_on_memorization_fixture(self):
        bundle = memorization_bundle()
        bundle.sessions_test = bundle.sessions_train[:2]
        bundle.test = bundle.train[:4]
        hyper = tiny_hyper(d=16, epochs=15, lr=0.01, batch_size=20, beta=0.1)
        result = TR.train(bundle, hyper)
        assert result.history[-1]["mean_loss"] < result.history[0]["mean_loss"]

    def test_graph_immutability(self, tiny_bundle):
        graph = G.build_global_graph(tiny_bundle.sessions_train, 10,
                                     G.GraphConfig(3))
        tiny_bundle.graph = graph
        tiny_bundle.graph_epsilon = 3
        before = {k: v for k, v in graph.edges.items()}
        dense_before = G.row_normalize(graph).matrix.toarray()
        TR.train(tiny_bundle, tiny_hyper())
        assert graph.edges == before
        np.testing.assert_array_equal(G.row_normalize(graph).matrix.toarray(),
                                      dense_before)

    def test_ablation_toggles_produce_distinct_models(self, tiny_bundle):
        variants = {
            "full": tiny_hyper(),
            "no_spl": tiny_hyper(beta=0.0),
            "no_att": tiny_hyper(use_attention=False),
            "no_pos": tiny_hyper(use_reverse_pos=False),
        }
        tables = {}
        for name, hyper in variants.items():
            tables[name] = TR.train(tiny_bundle, hyper).params["item_emb"].data
        names = list(tables)
        for i in range(len(names)):
            for j in range(i + 1, len(names)):
                assert not np.array_equal(tables[names[i]], tables[names[j]])


@pytest.fixture(scope="module")
def large_bundle():
    """The 2k-item synth bundle of the train-large benchmark workload, seed 1."""
    bundle, _ = S.synth_dataset(S.SynthSpec(n_items=2000, n_sessions=12000,
                                            n_chains=200, seed=1))
    return bundle


class TestTapeSize:
    @staticmethod
    def _records(bundle, examples, hyper):
        anorm = G.bundle_adjacency(bundle, hyper.epsilon)
        params = M.init_params(bundle.vocab.n, hyper)
        with Tape() as tape:
            TR.batch_loss(examples, anorm, params, hyper)
        return len(tape.records)

    def test_count_does_not_depend_on_prefix_lengths(self):
        bundle = indexed_bundle([[i, (i + 1) % 10, (i + 3) % 10] for i in range(10)], 10)
        same = [(1, 2), (3, 4), (5, 6), (7, 8)]
        mixed = [(1,), (3, 4), (5, 6, 7, 8), (9, 0, 1)]
        counts = [self._records(bundle, [TrainExample(p, 0) for p in prefixes], tiny_hyper())
                  for prefixes in (same, mixed)]
        assert counts[0] == counts[1]

    def test_one_step_at_2k_items(self, large_bundle):
        # the first 100 training examples of the 2k-item synth bundle span
        # many prefix lengths; the step is one encoder chain of 18 records,
        # the last its score matmul, and one cross-entropy record after it
        batch = large_bundle.train[:100]
        assert len({len(ex.prefix) for ex in batch}) > 1
        hyper = Hyperparams(d=8).validate()    # d=100, L=3, batch 100 but for d
        assert self._records(large_bundle, batch, hyper) == 33

    @staticmethod
    def _step_peak(bundle):
        """tracemalloc peak of one batch_loss + Tape.backward at the train-large
        shape: d=100, L=3 and the first 100 training examples."""
        hyper = Hyperparams().validate()
        anorm = G.bundle_adjacency(bundle, hyper.epsilon)
        params = M.init_params(bundle.vocab.n, hyper)

        def step():
            with Tape() as tape:
                total, _ = TR.batch_loss(bundle.train[:100], anorm, params, hyper)
                tape.backward(total)
        return traced_peak(step)

    def test_one_step_peak_memory_at_2k_items(self, monkeypatch, large_bundle):
        # One step at the train-large shape traced 59.5 MiB while the tape kept
        # every record until backward ended and attention kept Y = XW + b, and
        # 40.9 MiB once backward frees each record after its VJP and attention
        # rebuilds Y. Keeping the records alone traced 56.5 MiB; attention's Y
        # alone (about 3 MiB) is pinned by the tape census test in test_tensor.
        # With dS overwriting P in attention's backward it traced 40.1 MiB, the
        # peak set in the SPL's backward tile while the whole tape was alive.
        # With the SPL's gradient taken in its forward tiles, before scoring,
        # and one record per graph convolution, it traces 28.8 MiB, the peak
        # now in the first attention backward.
        monkeypatch.setattr(T, "WORKERS", 1)
        assert self._step_peak(large_bundle) < 32 * 2 ** 20

    def test_one_step_peak_memory_at_2k_items_on_pool(self, large_bundle, tile_pool):
        # Two threads each hold an attention backward tile of 524 x 2000 entries
        # (8 MiB). Holding P and a separate dS per thread traced 54.2-60.0 MiB
        # over 10 runs; with dS overwriting P, 48.2-49.7 MiB; with the SPL's
        # gradient in its forward tiles and the fused convolution, 40.3 MiB.
        assert self._step_peak(large_bundle) < 44 * 2 ** 20
        assert tile_pool


class TestCheckpoint:
    def _trained(self, tiny_bundle, tmp_path):
        hyper = tiny_hyper(epochs=1)
        result = TR.train(tiny_bundle, hyper, out_dir=tmp_path)
        return hyper, result

    def test_round_trip_bit_exact(self, tiny_bundle, tmp_path):
        hyper, result = self._trained(tiny_bundle, tmp_path)
        vhash = vocab_hash(tiny_bundle.vocab)
        params, steps, hyper2, got_hash = TR.load_checkpoint(
            tmp_path / "last.ckpt", expected_vocab_hash=vhash)
        assert got_hash == vhash and hyper2 == hyper
        for name, t in result.params.items():
            np.testing.assert_array_equal(params[name].data, t.data)
        # re-saving reproduces the exact bytes
        adam = Adam(params.tensors, lr=hyper.lr, l2=hyper.l2)
        adam.t = steps
        TR.save_checkpoint(tmp_path / "again.ckpt", params, adam, hyper2, vhash)
        assert (tmp_path / "again.ckpt").read_bytes() == \
               (tmp_path / "last.ckpt").read_bytes()

    def test_file_holds_the_parameters_only(self, tiny_bundle, tmp_path):
        _, result = self._trained(tiny_bundle, tmp_path)
        raw = (tmp_path / "last.ckpt").read_bytes()
        head = len(TR.CHECKPOINT_MAGIC)
        (meta_len,) = struct.unpack_from("<Q", raw, head)
        entries = sum(t.data.size for _, t in result.params.items())
        assert len(raw) == head + 8 + meta_len + 8 * entries

    def test_file_with_adam_moments_loads(self, tiny_bundle, tmp_path):
        # older files also hold Adam's m and v for each parameter, as
        # adam_m/<name> and adam_v/<name> blocks after the parameter blocks
        hyper, result = self._trained(tiny_bundle, tmp_path)
        raw = (tmp_path / "last.ckpt").read_bytes()
        params, steps, hyper1, vhash = TR.load_checkpoint(tmp_path / "last.ckpt")
        rng = np.random.default_rng(0)
        head = len(TR.CHECKPOINT_MAGIC)
        offset = len(raw) - head - 8 - struct.unpack_from("<Q", raw, head)[0]
        specs, blobs = [], []
        for name, t in sorted(result.params.items()):
            for kind in ("adam_m", "adam_v"):
                rows, cols = t.shape
                specs.append({"name": f"{kind}/{name}", "rows": rows, "cols": cols,
                              "offset": offset})
                blobs.append(rng.standard_normal((rows, cols)).tobytes())
                offset += len(blobs[-1])
        older = tmp_path / "older.ckpt"
        older.write_bytes(rewrite_meta(raw, lambda m: dict(m, arrays=m["arrays"] + specs))
                          + b"".join(blobs))
        loaded, steps2, hyper2, vhash2 = TR.load_checkpoint(older)
        assert (steps2, hyper2, vhash2) == (steps, hyper1, vhash)
        assert steps > 0 and hyper1 == hyper
        assert list(loaded.tensors) == list(params.tensors)
        for name, t in result.params.items():
            np.testing.assert_array_equal(loaded[name].data, t.data)

    def test_corrupted_file(self, tmp_path):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"not a checkpoint")
        with pytest.raises(TR.CheckpointError):
            TR.load_checkpoint(bad)

    def test_vocab_hash_mismatch(self, tiny_bundle, tmp_path):
        self._trained(tiny_bundle, tmp_path)
        with pytest.raises(TR.CheckpointError, match="hash mismatch"):
            TR.load_checkpoint(tmp_path / "last.ckpt",
                               expected_vocab_hash="0" * 64)

    def test_truncated_file(self, tiny_bundle, tmp_path):
        self._trained(tiny_bundle, tmp_path)
        raw = (tmp_path / "last.ckpt").read_bytes()
        (tmp_path / "cut.ckpt").write_bytes(raw[:len(raw) // 2])
        with pytest.raises(TR.CheckpointError):
            TR.load_checkpoint(tmp_path / "cut.ckpt")

    def test_short_header(self, tmp_path):
        path = tmp_path / "t.ckpt"
        for tail in (b"", b"\x01\x02", struct.pack("<Q", 10 ** 6) + b"{}"):
            path.write_bytes(TR.CHECKPOINT_MAGIC + tail)
            with pytest.raises(TR.CheckpointError, match="truncated"):
                TR.load_checkpoint(path)

    def test_malformed_metadata(self, tmp_path):
        hyper = tiny_hyper()
        TR.save_checkpoint(tmp_path / "ok.ckpt", M.init_params(10, hyper), None,
                           hyper, "0" * 64)
        raw = (tmp_path / "ok.ckpt").read_bytes()

        def rewrite(edit):
            path = tmp_path / "bad.ckpt"
            path.write_bytes(rewrite_meta(raw, edit))
            return path

        def without(key):
            return lambda m: {k: v for k, v in m.items() if k != key}

        def with_hyper(**kw):
            return lambda m: dict(m, hyper=dict(m["hyper"], **kw))

        def with_array0(**kw):
            return lambda m: dict(m, arrays=[dict(m["arrays"][0], **kw)] + m["arrays"][1:])

        edits = [without(key) for key in
                 ("vocab_hash", "hyper", "adam_t", "num_layers", "arrays")]
        edits += [with_hyper(learning_rate_typo=0.1), with_hyper(d="x"),
                  with_hyper(lr=-1.0), with_array0(rows=None), with_array0(offset=-8),
                  lambda m: [m]]
        for edit in edits:
            with pytest.raises(TR.CheckpointError):
                TR.load_checkpoint(rewrite(edit))
        assert TR.load_checkpoint(rewrite(lambda m: m))[2] == hyper

    def test_missing_or_misshaped_parameter(self, tmp_path):
        hyper = tiny_hyper()
        path = tmp_path / "ok.ckpt"
        TR.save_checkpoint(path, M.init_params(10, hyper), None, hyper, "0" * 64)
        raw = path.read_bytes()

        def arrays(edit):
            return rewrite_meta(raw, lambda m: dict(m, arrays=edit(m["arrays"])))

        def rename(old, new):
            return lambda specs: [dict(a, name=new) if a["name"] == old else a
                                  for a in specs]

        cases = {
            "missing w1": arrays(lambda specs: [a for a in specs
                                                if a["name"] != "param/w1"]),
            "misshaped w1": arrays(lambda specs: [dict(a, rows=1)
                                                  if a["name"] == "param/w1" else a
                                                  for a in specs]),
            "missing last layer": arrays(rename("param/conv_w0", "adam_m/conv_w0")),
            "unknown parameter": arrays(lambda specs: specs + [dict(specs[0],
                                                                    name="param/w9")]),
            "num_layers disagrees": rewrite_meta(raw, lambda m: dict(m, num_layers=2)),
            "fractional d": rewrite_meta(raw, lambda m: dict(m, hyper=dict(m["hyper"], d=8.5))),
        }
        for case, bad in cases.items():
            path.write_bytes(bad)
            with pytest.raises(TR.CheckpointError):
                TR.load_checkpoint(path)
                pytest.fail(case)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.text(max_size=8), inner, max_size=3),
    max_leaves=6)


@pytest.fixture(scope="module")
def valid_checkpoint(tmp_path_factory):
    hyper = tiny_hyper(num_layers=2, d=3)
    params = M.init_params(6, hyper)
    path = tmp_path_factory.mktemp("fuzz") / "ok.ckpt"
    TR.save_checkpoint(path, params, Adam(params.tensors, lr=0.01), hyper, "0" * 64)
    return path.read_bytes()


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_load_checkpoint_fuzz(valid_checkpoint, tmp_path, data):
    """Truncated, byte-flipped or metadata-rewritten checkpoints either load or
    raise CheckpointError, never another exception."""
    raw = valid_checkpoint
    kind = data.draw(st.sampled_from(["truncate", "flip", "meta", "hyper", "array"]))
    if kind == "truncate":
        raw = raw[:data.draw(st.integers(0, len(raw) - 1))]
    elif kind == "flip":
        buf = bytearray(raw)
        # flips land in the header and metadata as often as in the float blocks
        for _ in range(data.draw(st.integers(1, 4))):
            i = data.draw(st.integers(0, 400) | st.integers(0, len(buf) - 1))
            buf[i] = data.draw(st.integers(0, 255))
        raw = bytes(buf)
    elif kind == "meta":
        key = data.draw(st.sampled_from(["format_version", "vocab_hash", "hyper",
                                         "adam_t", "num_layers", "arrays"]))
        value = data.draw(JSON_VALUES)
        raw = rewrite_meta(raw, lambda m: dict(m, **{key: value}))
    elif kind == "hyper":
        key = data.draw(st.sampled_from(sorted(Hyperparams().to_dict())))
        value = data.draw(JSON_VALUES)
        raw = rewrite_meta(raw, lambda m: dict(m, hyper=dict(m["hyper"], **{key: value})))
    else:
        i = data.draw(st.integers(0, 5))
        key = data.draw(st.sampled_from(["name", "rows", "cols", "offset"]))
        value = data.draw(st.integers() | JSON_VALUES)
        raw = rewrite_meta(raw, lambda m: dict(m, arrays=[
            dict(a, **{key: value}) if j == i else a for j, a in enumerate(m["arrays"])]))
    path = tmp_path / "fuzz.ckpt"
    path.write_bytes(raw)
    try:
        TR.load_checkpoint(path)
    except TR.CheckpointError:
        pass


class TestSynth:
    def test_chains_must_fit(self):
        with pytest.raises(ValueError, match="do not fit"):
            S.synth_dataset(S.SynthSpec(n_items=50))

    def test_zero_noise_sessions_are_chain_walks(self):
        spec = S.SynthSpec(n_items=30, n_sessions=40, n_chains=3, noise=0.0, seed=1)
        bundle, chains = S.synth_dataset(spec)
        nxt = S.chain_next_map(spec, chains, bundle.vocab)
        for s in bundle.sessions_train + bundle.sessions_test:
            for a, b in zip(s.items, s.items[1:]):
                assert nxt.get(a) == b

    def test_full_noise_has_no_chain_signal(self):
        spec = S.SynthSpec(n_items=100, n_sessions=300, n_chains=5, noise=1.0, seed=2)
        bundle, chains = S.synth_dataset(spec)
        assert S.chain_oracle_p1(bundle, spec, chains) < 0.1

    def test_deterministic_per_seed(self):
        a, _ = S.synth_dataset(S.SynthSpec(n_items=40, n_sessions=50, n_chains=4,
                                           seed=9))
        b, _ = S.synth_dataset(S.SynthSpec(n_items=40, n_sessions=50, n_chains=4,
                                           seed=9))
        assert [s.items for s in a.sessions_train] == [s.items for s in b.sessions_train]

    def test_default_spec_oracle_beats_popularity(self):
        spec = S.SynthSpec()  # n=200, 2000 sessions, 20 chains, noise 0.2, seed 7
        bundle, chains = S.synth_dataset(spec)
        oracle_p1 = S.chain_oracle_p1(bundle, spec, chains)
        pop = popularity_baseline(bundle, ks=[10])
        assert oracle_p1 > pop.precision[10] + 0.2
