"""In-memory spans recorded around calls into sessrec's modules.

The tracer replaces public functions and methods of the sessrec modules with
wrappers that record one span per call (name, start, end, parent span), then
puts the originals back. Nothing inside sessrec is changed on disk, and the
end-to-end metrics are measured with no wrapper installed.
"""
from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict

from sessrec import data, evaluate, graph, loss, model, optim, tensor, train

# (owner, attribute, span name). predict is the softmax in front of the
# cross-entropy, so both count as the loss.ce layer.
FUNCTIONS = [
    (data, "load_bundle", "data.load_bundle"),
    (graph, "build_global_graph", "graph.build"),
    (graph, "row_normalize", "graph.row_normalize"),
    (model, "init_params", "model.init_params"),
    (train, "load_checkpoint", "train.load_checkpoint"),
    (train, "batch_loss", "train.batch_loss"),
    (train, "save_checkpoint", "train.checkpoint_write"),
    (model, "propagate", "model.propagate"),
    (model, "attention_layer", "model.attention"),
    (model, "gcn_layer", "model.gcn"),
    (model, "predict", "loss.ce"),
    (loss, "cross_entropy_rows", "loss.ce"),
    (loss, "single_positive_loss", "loss.spl"),
    (tensor.Tape, "backward", "tensor.backward"),
    (optim.Adam, "step", "optim.adam_step"),
    (evaluate, "evaluate_model", "evaluate.evaluate_model"),
    (evaluate, "ranks_for_examples", "evaluate.ranks"),
]
GENERATORS = [(model, "forward_groups", "model.forward_groups")]


class Tracer:
    """Spans kept in memory as [id, name, parent, start, end, busy]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    # -- recording ---------------------------------------------------------
    def open(self, name: str) -> list:
        span = [len(self.spans), name, self._stack[-1] if self._stack else None,
                time.perf_counter(), None, 0.0]
        self.spans.append(span)
        self._stack.append(span[0])
        return span

    def close(self, span: list) -> None:
        span[4] = time.perf_counter()
        span[5] = span[4] - span[3]
        self._stack.pop()

    def add(self, name: str, start: float, end: float) -> None:
        """Record a top-level span measured elsewhere (from log timestamps)."""
        self.spans.append([len(self.spans), name, None, start, end, end - start])

    # -- wrapping ----------------------------------------------------------
    def _wrap(self, fn, name):
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(span)
        return traced

    def _wrap_generator(self, fn, name):
        """One span per generator call; busy sums the time spent inside it."""
        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            span = [len(self.spans), name, self._stack[-1] if self._stack else None,
                    time.perf_counter(), None, 0.0]
            self.spans.append(span)
            while True:
                t0 = time.perf_counter()
                self._stack.append(span[0])
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self._stack.pop()
                    span[4] = time.perf_counter()
                    span[5] += span[4] - t0
                yield item
        return traced

    def install(self) -> None:
        for owner, attr, name in FUNCTIONS:
            self._patch(owner, attr, self._wrap(getattr(owner, attr), name))
        for owner, attr, name in GENERATORS:
            self._patch(owner, attr, self._wrap_generator(getattr(owner, attr), name))

    def _patch(self, owner, attr, wrapper) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    # -- reading -----------------------------------------------------------
    def busy(self, name: str) -> list:
        """Busy seconds of every span with this name."""
        return [s[5] for s in self.spans if s[1] == name]

    def busy_by_parent(self, name: str) -> dict:
        """Summed busy seconds of the spans with this name, per parent span."""
        out: dict = defaultdict(float)
        for s in self.spans:
            if s[1] == name:
                out[s[2]] += s[5]
        return out

    def self_time(self, name: str, child: str) -> list:
        """Duration of each `name` span minus the busy time of its `child` spans."""
        inner = self.busy_by_parent(child)
        return [s[5] - inner.get(s[0], 0.0) for s in self.spans if s[1] == name]

    def write(self, path, summary: dict) -> None:
        doc = {"summary": summary,
               "fields": ["id", "name", "parent", "start_s", "end_s", "busy_s"],
               "spans": self.spans}
        with open(path, "w", encoding="utf-8") as f:
            json.dump(doc, f)


def median_ms(values) -> float | None:
    return statistics.median(values) * 1000.0 if values else None
