"""The bytes of the bundles the CLI writes, pinned by their sha256, so that
their serialisation cannot drift. The pins are of bundle format 3; the
format-1 and format-2 files of the same bundles held the same rows,
vocabulary, stats, config and edges."""
import hashlib

from sessrec.cli import EXIT_OK, main

SYNTH_DEFAULT = "eaccce96780cbd617c5ff967cc151e9ff844cad160d83b4c0d28b6d4d0d23d74"
PREPROCESSED = "9ad04154209ce73eb883f58a0403df3791480a09c095bd9a0140453fce5f13d9"
WITH_GRAPH = "197127dc4caf6be47e3336cb91ea057288860c53e390e4a1d0799a76907781a0"
WITH_TEST_GRAPH = "6e76de47c26f5c9082ac1251fc1abd440251c1e1a284ab69a14778cdacff0bb7"


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def events_tsv() -> str:
    """120 sessions over 40 items: a few rare items, a few one-item sessions
    once filtered, repeated timestamps and sessions whose events come out of
    order."""
    rows = []
    for s in range(120):
        length = 1 + (s * 7) % 6
        for t in range(length):
            item = (s * 5 + t * 3 + (s % 4) * t) % 40
            stamp = s * 100 + (length - t if s % 9 == 0 else t) // (1 + s % 2)
            rows.append(f"sess{s}\titem{item}\t{stamp}")
    return "\n".join(rows) + "\n"


def test_synth_default_bundle_bytes(tmp_path):
    out = tmp_path / "synth.json"
    assert main(["synth", "--out", str(out)]) == EXIT_OK
    assert sha256(out) == SYNTH_DEFAULT


def test_preprocess_and_build_graph_bundle_bytes(tmp_path):
    events = tmp_path / "events.tsv"
    events.write_text(events_tsv())
    bundle, graph, test_graph = (tmp_path / f"{name}.json" for name in ("b", "g", "gt"))
    assert main(["preprocess", "--in", str(events), "--out", str(bundle),
                 "--min-item-freq", "3", "--holdout-fraction", "0.2"]) == EXIT_OK
    assert main(["build-graph", "--in", str(bundle), "--out", str(graph)]) == EXIT_OK
    assert main(["build-graph", "--in", str(bundle), "--out", str(test_graph),
                 "--epsilon", "2", "--include-test"]) == EXIT_OK
    assert [sha256(bundle), sha256(graph), sha256(test_graph)] == \
        [PREPROCESSED, WITH_GRAPH, WITH_TEST_GRAPH]
