"""The bytes of the bundles the CLI writes, pinned by their sha256, so that
their serialisation cannot drift. The pins are of bundle format 2; the
format-1 files of the same bundles held the same rows, vocabulary, stats,
config and edges."""
import hashlib

from sessrec.cli import EXIT_OK, main

SYNTH_DEFAULT = "de1f796b1b427a3a8119650dd7b335393ad3e6ff40e68cff058f07ddff1452f7"
PREPROCESSED = "8841d27cd255f4fffae462607fb58c954a6f847ece9d9d3523d422864d054e42"
WITH_GRAPH = "37573f3093237174028efd25a2ac08d636047951672f13925924f8104cf1b845"
WITH_TEST_GRAPH = "343a2f4f42fdf81b22d261a1bc495ae167ec26f2bb3101d97c376926fdd49c15"


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
