from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sessrec.graph import (GlobalGraph, GraphConfig, build_global_graph, bundle_adjacency,
                           export_edge_list, graph_stats, row_normalize)


def graph_of(n, triples):
    """A graph from [src, dst, weight] triples in any order."""
    src, dst, weight = zip(*sorted(triples, key=lambda t: t[:2])) if triples else ((), (), ())
    return GlobalGraph(n, np.array(src, dtype=np.intp), np.array(dst, dtype=np.intp),
                       np.array(weight, dtype=np.float64))


def edge_triples(g):
    """The graph's [src, dst, weight] triples in its (src, dst) order."""
    return list(map(list, zip(g.src.tolist(), g.dst.tolist(), g.weight.tolist())))


def oracle_edges(sessions, epsilon):
    """Brute-force O(m^2) pair enumeration with exact rational weights."""
    edges = {}
    for items in sessions:
        m = len(items)
        for i in range(m):
            for j in range(m):
                if 1 <= j - i <= epsilon:
                    key = (items[i], items[j])
                    edges[key] = edges.get(key, Fraction(0)) + Fraction(1, 1 + (j - i))
    return edges


def reference_edges(sessions, epsilon):
    """Float sums in occurrence order: session, then position, then hop."""
    edges = {}
    for items in sessions:
        for i in range(len(items)):
            for dist in range(1, epsilon + 1):
                if i + dist >= len(items):
                    break
                key = (items[i], items[i + dist])
                edges[key] = edges.get(key, 0.0) + 1.0 / (1 + dist)
    return edges


def assert_matches_oracle(sessions, n, epsilon):
    got = build_global_graph(sessions, n, GraphConfig(epsilon)).edges
    want = oracle_edges(sessions, epsilon)
    assert set(got) == set(want)
    for key, w in want.items():
        assert abs(got[key] - float(w)) < 1e-12


@settings(max_examples=150, deadline=None)
@given(st.lists(st.lists(st.integers(0, 5), max_size=9), max_size=8),
       st.integers(1, 12))
def test_arrays_equal_occurrence_order_reference_bit_for_bit(sessions, epsilon):
    # empty and one-item sessions, repeated items, and epsilon beyond every session
    g = build_global_graph(sessions, 6, GraphConfig(epsilon))
    want = sorted(reference_edges(sessions, epsilon).items())
    assert g.src.tolist() == [s for (s, _), _ in want]
    assert g.dst.tolist() == [d for (_, d), _ in want]
    assert g.weight.tobytes() == np.array([w for _, w in want]).tobytes()


def test_one_session_three_items():
    g = build_global_graph([[0, 1, 2]], 3, GraphConfig(3))
    assert edge_triples(g) == [[0, 1, 0.5], [0, 2, 1 / 3], [1, 2, 0.5]]


def test_adjacent_pair_in_two_sessions_sums_to_one():
    # the worked example: directly adjacent in both sessions -> 1/2 + 1/2 = 1
    g = build_global_graph([[3, 2], [3, 2]], 4, GraphConfig(3))
    assert g.edges[(3, 2)] == pytest.approx(1.0, abs=1e-15)


def test_single_item_session_has_no_edges():
    assert build_global_graph([[5]], 6, GraphConfig(3)).src.size == 0
    g = build_global_graph([[0], [1], [2]], 3, GraphConfig(2))
    assert g.edges == {}


def test_repeated_item_gives_self_loop():
    g = build_global_graph([[1, 1]], 2, GraphConfig(1))
    assert g.edges == {(1, 1): 0.5}
    assert_matches_oracle([[1, 1]], 2, 1)


def test_epsilon_one_restricts_to_adjacent():
    g = build_global_graph([[0, 1, 2, 3]], 4, GraphConfig(1))
    assert set(g.edges) == {(0, 1), (1, 2), (2, 3)}


def test_monotone_hop_weights():
    g = build_global_graph([list(range(5))], 5, GraphConfig(4))
    weights = {dst: w for (src, dst), w in g.edges.items() if src == 0}
    assert weights[1] > weights[2] > weights[3] > weights[4]


def test_epsilon_validation():
    with pytest.raises(ValueError):
        GraphConfig(0)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.integers(0, 9), min_size=1, max_size=15),
                min_size=1, max_size=8),
       st.sampled_from([1, 2, 3, 5]))
def test_oracle_equivalence_property(sessions, epsilon):
    assert_matches_oracle(sessions, 10, epsilon)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.lists(st.integers(0, 7), min_size=2, max_size=10),
                min_size=1, max_size=5),
       st.permutations(list(range(8))))
def test_permutation_equivariance(sessions, perm):
    g = build_global_graph(sessions, 8, GraphConfig(3))
    relabeled = [[perm[i] for i in s] for s in sessions]
    g2 = build_global_graph(relabeled, 8, GraphConfig(3))
    assert g2.edges == {(perm[s], perm[d]): w for (s, d), w in g.edges.items()}


def test_epsilon_truncation():
    g = build_global_graph([[0, 1, 2, 3, 4, 5]], 6, GraphConfig(2))
    assert all(dst - src <= 2 for src, dst in g.edges)
    assert (0, 3) not in g.edges


def test_epsilon_past_the_longest_session_gives_the_same_arrays():
    # hops past the longest session are never taken, so a huge epsilon costs
    # no more than the longest session's length minus one
    sessions = [[0, 1, 2, 3, 1], [3, 2], [4], []]
    want = build_global_graph(sessions, 5, GraphConfig(4))
    got = build_global_graph(sessions, 5, GraphConfig(10 ** 12))
    for name in ("src", "dst", "weight"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
    for short in ([], [[4]], [[4], []]):
        assert build_global_graph(short, 5, GraphConfig(10 ** 12)).src.size == 0


def test_row_normalize_hand_values():
    g = graph_of(3, [[0, 1, 0.5], [0, 2, 1 / 3]])
    a = row_normalize(g).matrix.toarray()
    np.testing.assert_allclose(a[0], [0.0, 3 / 5, 2 / 5], atol=1e-15)
    np.testing.assert_allclose(a[1], 0.0)
    np.testing.assert_allclose(a[2], 0.0)


def test_row_normalize_single_edge_any_weight():
    for w in (0.07, 1.0, 42.0):
        g = graph_of(2, [[0, 1, w]])
        assert row_normalize(g).matrix.toarray()[0, 1] == pytest.approx(1.0)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(st.integers(0, 9), min_size=1, max_size=12),
                min_size=1, max_size=6))
def test_row_stochasticity(sessions):
    g = build_global_graph(sessions, 10, GraphConfig(3))
    sums = np.asarray(row_normalize(g).matrix.sum(axis=1)).ravel()
    for s in sums:
        assert abs(s - 1.0) < 1e-9 or abs(s) < 1e-9


def test_graph_stats():
    assert graph_stats(graph_of(3, []))["n_edges"] == 0
    stats = graph_stats(graph_of(4, [[0, 1, 1.0]]))
    assert stats["n_edges"] == 1
    assert stats["out_degree_hist"] == {1: 1, 0: 3}


def test_graph_stats_match_oracle_on_toy():
    sessions = [[0, 1, 2], [2, 1], [1, 2, 3]]
    g = build_global_graph(sessions, 4, GraphConfig(3))
    assert graph_stats(g)["n_edges"] == len(oracle_edges(sessions, 3))


def test_export_edge_list_sorted():
    g = graph_of(3, [[2, 0, 1.0], [0, 1, 0.5]])
    lines = export_edge_list(g).splitlines()
    assert lines == ["0\t1\t0.5", "2\t0\t1.0"]


def test_edge_list_round_trip():
    g = build_global_graph([[0, 1, 2], [1, 0]], 3, GraphConfig(2))
    rows = [line.split("\t") for line in export_edge_list(g).splitlines()]
    again = graph_of(3, [[int(s), int(d), float(w)] for s, d, w in rows[::-1]])
    for name in ("src", "dst", "weight"):
        assert getattr(again, name).tobytes() == getattr(g, name).tobytes()


def test_edges_mapping_is_read_only():
    g = build_global_graph([[0, 1]], 2, GraphConfig(1))
    with pytest.raises(TypeError):
        g.edges[(1, 0)] = 1.0
    assert g.edges == {(0, 1): 0.5}


def test_bundle_adjacency_uses_attached_graph_only_at_its_epsilon():
    sessions = [[0, 1, 2]]
    attached = graph_of(3, [[2, 0, 1.0]])
    bundle = SimpleNamespace(graph=attached, graph_epsilon=2, sessions_train=sessions,
                             vocab=SimpleNamespace(n=3))
    same = bundle_adjacency(bundle, 2).matrix.toarray()
    np.testing.assert_array_equal(same, row_normalize(attached).matrix.toarray())
    built = bundle_adjacency(bundle, 1).matrix.toarray()
    want = row_normalize(build_global_graph(sessions, 3, GraphConfig(1))).matrix.toarray()
    np.testing.assert_array_equal(built, want)
