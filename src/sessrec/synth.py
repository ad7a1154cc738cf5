"""Synthetic session generator with planted sequential patterns.

Items are partitioned into disjoint chains; each session walks a random
chain segment, and every emitted item is replaced by a uniform random item
with probability `noise`. noise=0 gives pure chain walks (memorizable);
noise=1 gives uniform random sessions (no signal).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import data as data_mod


@dataclass(frozen=True)
class SynthSpec:
    n_items: int = 200
    n_sessions: int = 2000
    n_chains: int = 20
    chain_len: int = 8
    noise: float = 0.2
    min_walk: int = 3
    max_walk: int = 8
    seed: int = 7

    def __post_init__(self):
        # a one-item chain is no session, and a split needs two sessions
        for name, low in (("n_chains", 1), ("chain_len", 2), ("n_sessions", 2),
                          ("min_walk", 1), ("seed", 0)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}")
        if self.n_chains * self.chain_len > self.n_items:
            raise ValueError(f"{self.n_chains} chains of {self.chain_len} items do not "
                             f"fit in the item universe of {self.n_items}")
        if self.min_walk > self.max_walk:
            raise ValueError(f"min_walk {self.min_walk} must be <= max_walk {self.max_walk}")
        if not 0.0 <= self.noise <= 1.0:
            raise ValueError("noise must be in [0, 1]")


def make_chains(spec: SynthSpec, rng) -> list:
    """Disjoint chains over a permutation of the item universe."""
    perm = rng.permutation(spec.n_items)
    return [perm[i * spec.chain_len:(i + 1) * spec.chain_len].tolist()
            for i in range(spec.n_chains)]


def synth_events(spec: SynthSpec):
    """Generate raw events plus the planted chains (for oracle checks)."""
    rng = np.random.default_rng(spec.seed)
    chains = make_chains(spec, rng)
    events = []
    width = len(str(spec.n_items))
    for si in range(spec.n_sessions):
        chain = chains[rng.integers(spec.n_chains)]
        walk_len = int(rng.integers(spec.min_walk, spec.max_walk + 1))
        walk_len = min(walk_len, len(chain))
        start = int(rng.integers(0, len(chain) - walk_len + 1))
        items = list(chain[start:start + walk_len])
        if spec.noise > 0:
            for t in range(len(items)):
                if rng.random() < spec.noise:
                    items[t] = int(rng.integers(spec.n_items))
        base = si * 1000
        for t, item in enumerate(items):
            events.append(data_mod.RawEvent(session_key=f"s{si:06d}",
                                            item_key=f"i{item:0{width}d}",
                                            timestamp=base + t))
    return events, chains


def synth_dataset(spec: SynthSpec | None = None):
    """Generate a preprocessed bundle; returns (bundle, chains).

    Uses min_item_freq=1 so the generated item universe is kept intact.
    """
    spec = spec or SynthSpec()
    events, chains = synth_events(spec)
    bundle = data_mod.make_bundle(events, data_mod.PreprocessConfig(min_item_freq=1))
    return bundle, chains


def chain_next_map(spec: SynthSpec, chains, vocab) -> dict:
    """item_index -> next item_index along its planted chain."""
    width = len(str(spec.n_items))
    nxt = {}
    for chain in chains:
        for a, b in zip(chain, chain[1:]):
            ka, kb = f"i{a:0{width}d}", f"i{b:0{width}d}"
            if ka in vocab and kb in vocab:
                nxt[vocab.index[ka]] = vocab.index[kb]
    return nxt


def chain_oracle_p1(bundle, spec: SynthSpec, chains) -> float:
    """P@1 of the chain-following oracle on the test examples."""
    nxt = chain_next_map(spec, chains, bundle.vocab)
    follow = np.full(bundle.vocab.n, -1, dtype=np.intp)   # -1: no next item
    follow[list(nxt)] = list(nxt.values())
    test = bundle.test
    hits = np.count_nonzero(follow[test.items[test.offsets[1:] - 1]] == test.targets)
    return int(hits) / len(test)
