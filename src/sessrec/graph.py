"""Directed, hop-weighted global item graph and its row-normalized form.

Within a session, each ordered position pair (i, j) with 1 <= j-i <= epsilon
contributes a directed edge items[i] -> items[j] of weight 1/(1 + (j-i));
contributions from all sessions are summed per edge.
"""
from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType

import numpy as np
import scipy.sparse as sp

from . import data as data_mod


@dataclass(frozen=True)
class GraphConfig:
    epsilon: int = 3

    def __post_init__(self):
        if self.epsilon < 1:
            raise ValueError(f"epsilon must be >= 1, got {self.epsilon}")


@dataclass(eq=False)
class GlobalGraph:
    """Edges as parallel arrays sorted by (src, dst), one entry per edge."""
    n: int
    src: np.ndarray      # intp
    dst: np.ndarray      # intp
    weight: np.ndarray   # float64

    @property
    def edges(self) -> MappingProxyType:
        """Read-only (src, dst) -> weight mapping, built on each read."""
        pairs = zip(self.src.tolist(), self.dst.tolist())
        return MappingProxyType(dict(zip(pairs, self.weight.tolist())))


@dataclass
class NormalizedAdjacency:
    n: int
    matrix: sp.csr_matrix  # rows sum to 1, or to 0 for zero out-degree items


def build_global_graph(sessions, n: int, config: GraphConfig | None = None) -> GlobalGraph:
    """Accumulate hop-discounted edge weights over all sessions.

    sessions: a data.Sessions container, whose flat arrays are read directly,
    or a sequence of item-index lists, laid end to end once (data.flat).
    Each edge's contributions are summed in occurrence order (session, then
    position, then hop), so the weights do not depend on how edges are stored.
    """
    config = config or GraphConfig()
    items, offsets = data_mod.flat(sessions)
    lengths = np.diff(offsets)
    session = np.repeat(np.arange(lengths.size), lengths)
    # hops past the longest session never hit, so they get no column
    width = min(config.epsilon, int(lengths.max(initial=1)) - 1)
    # keys[i, dist-1] = items[i]*n + items[i+dist], or -1 past the session's end
    keys = np.full((items.size, width), -1, dtype=np.int64)
    for dist in range(1, width + 1):
        hop = keys[:-dist, dist - 1]
        np.multiply(items[:-dist], n, out=hop)
        hop += items[dist:]
        hop[session[dist:] != session[:-dist]] = -1
    hit = keys >= 0
    hop_weight = 1.0 / (1 + np.arange(1, width + 1))
    uniq, inverse = np.unique(keys[hit], return_inverse=True)
    weight = np.zeros(uniq.size)
    np.add.at(weight, inverse, np.broadcast_to(hop_weight, keys.shape)[hit])
    return GlobalGraph(n=n, src=uniq // n, dst=uniq % n, weight=weight)


def row_normalize(graph: GlobalGraph) -> NormalizedAdjacency:
    """Divide each nonzero row by its row sum; zero rows stay zero."""
    n = graph.n
    indptr = np.concatenate(([0], np.cumsum(np.bincount(graph.src, minlength=n))))
    a = sp.csr_matrix((graph.weight, graph.dst, indptr), shape=(n, n))
    row_sums = np.asarray(a.sum(axis=1)).ravel()
    inv = np.divide(1.0, row_sums, out=np.zeros_like(row_sums), where=row_sums > 0)
    normalized = sp.diags(inv) @ a
    return NormalizedAdjacency(n=n, matrix=normalized.tocsr())


def bundle_adjacency(bundle, epsilon: int) -> NormalizedAdjacency:
    """The bundle's attached graph when it was built with this epsilon, else
    one built from its training sessions; row-normalized."""
    if bundle.graph is not None and bundle.graph_epsilon == epsilon:
        graph = bundle.graph
    else:
        graph = build_global_graph(bundle.sessions_train, bundle.vocab.n,
                                   GraphConfig(epsilon))
    return row_normalize(graph)


def graph_stats(graph: GlobalGraph) -> dict:
    degrees, counts = np.unique(np.bincount(graph.src, minlength=graph.n),
                                return_counts=True)
    n_edges = int(graph.src.size)
    density = n_edges / (graph.n * graph.n) if graph.n else 0.0
    return {"n_items": graph.n, "n_edges": n_edges, "density": density,
            "out_degree_hist": dict(zip(degrees.tolist(), counts.tolist()))}


def export_edge_list(graph: GlobalGraph) -> str:
    """Text edge list 'src<TAB>dst<TAB>weight', sorted by (src, dst)."""
    lines = [f"{s}\t{d}\t{w!r}" for s, d, w in edges_to_list(graph)]
    return "\n".join(lines) + ("\n" if lines else "")


def edges_to_list(graph: GlobalGraph) -> list:
    """Canonical (sorted) serializable edge triples."""
    return list(map(list, zip(graph.src.tolist(), graph.dst.tolist(),
                              graph.weight.tolist())))


def edges_from_list(n: int, triples) -> GlobalGraph:
    """A graph from [src, dst, weight] triples in any order."""
    table = np.array(triples, dtype=np.float64).reshape(-1, 3)
    src, dst = table[:, 0].astype(np.intp), table[:, 1].astype(np.intp)
    order = np.lexsort((dst, src))
    return GlobalGraph(n=n, src=src[order], dst=dst[order], weight=table[order, 2])
