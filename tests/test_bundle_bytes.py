"""The bytes of the bundles the CLI writes, pinned by their sha256, so that
their serialisation cannot drift."""
import hashlib

from sessrec.cli import EXIT_OK, main

SYNTH_DEFAULT = "4cf36d797a867f1099ec8e15d811a36fc521c3ad1874a0d67011819a1739014e"
PREPROCESSED = "ca7d3ae40877885b4b62004b211ab1d3a933a545f0402f6b994e69d16db3853e"
WITH_GRAPH = "49cbd43a17a9beb2459521a47d47ddc23ba6fe7dba7b6e19972f8447e3619e57"
WITH_TEST_GRAPH = "07b3312dcaab7b597081f7f7f65c2994581d3056f1b56f0b5f0317ca0fac3348"


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
