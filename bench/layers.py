"""Per-layer metrics of the traced run.

Forward times come from the spans recorded around each layer's public
function during the traced operations. Backward times, tracemalloc peaks
and tape sizes come from probes: the layer's public function run alone
under a Tape at the workload's shapes, then Tape.backward on a fixed
cotangent. Layers the workload's operation does not call (the loss, Adam
and checkpoint writes on eval-full) are probed the same way.
"""
from __future__ import annotations

import statistics
import time
import tracemalloc
from pathlib import Path

import numpy as np

from sessrec import data, loss, model, train
from sessrec import tensor as T
from sessrec.optim import Adam
from sessrec.tensor import Tape, Tensor

from spans import median_ms

# Each probe repeats until it has run PROBE_MIN times and PROBE_SECONDS have
# passed (at most PROBE_MAX times), so that cheap layers are timed many times
# over a span long enough to ride out a short stall of the machine.
PROBE_MIN, PROBE_MAX, PROBE_SECONDS = 3, 50, 0.5
MIB = float(2 ** 20)


def _fresh(params, copy: bool = False) -> model.ModelParams:
    """New leaf Tensors over the same (or copied) arrays, so gradients start empty."""
    return model.ModelParams({k: Tensor(v.data.copy() if copy else v.data)
                              for k, v in params.items()}, params.num_layers)


def _fwd_bwd(forward, cotangents=None) -> tuple[float, float]:
    """Seconds of forward() under a Tape and of Tape.backward on sum(out * C)."""
    with Tape() as tape:
        t0 = time.perf_counter()
        outs = forward()
        t1 = time.perf_counter()
        terms = outs if cotangents is None else [
            T.sum_all(T.mul(o, c)) for o, c in zip(outs, cotangents)]
        total = terms[0]
        for t in terms[1:]:
            total = T.add(total, t)
        t2 = time.perf_counter()
        tape.backward(total)
        t3 = time.perf_counter()
    return t1 - t0, t3 - t2


def _peak_mib(forward, under_tape: bool) -> float:
    """tracemalloc peak of the allocations made inside forward()."""
    tracemalloc.start()
    try:
        if under_tape:
            with Tape():
                forward()
        else:
            forward()
        return tracemalloc.get_traced_memory()[1] / MIB
    finally:
        tracemalloc.stop()


def _repeat(fn) -> list:
    runs, t_end = [], time.perf_counter() + PROBE_SECONDS
    while len(runs) < PROBE_MIN or (len(runs) < PROBE_MAX and time.perf_counter() < t_end):
        runs.append(fn(len(runs)))
    return runs


def _median_probe(forward_of, cotangents=None) -> tuple[float, float]:
    """Median forward and backward ms over repeated fresh runs."""
    runs = _repeat(lambda _: _fwd_bwd(forward_of(), cotangents))
    return (statistics.median(r[0] for r in runs) * 1000.0,
            statistics.median(r[1] for r in runs) * 1000.0)


def probe(spec, state, work: Path) -> dict:
    """Standalone forward/backward timings and peaks at the workload's shapes."""
    h, p0, anorm = state.hyper, state.params, state.anorm
    rng = np.random.default_rng(0)
    n, d = p0["item_emb"].shape
    x_v = model.propagate(p0["item_emb"], anorm, p0, h.num_layers, h.use_attention).data
    batch = state.bundle.train[:h.batch_size]
    prefixes = [ex.prefix for ex in batch]
    targets = np.array([ex.target for ex in batch], dtype=np.intp)
    c_nd = Tensor(rng.standard_normal((n, d)))
    under_tape = spec.kind == "train"
    out = {}

    def attention():
        p = _fresh(p0)
        return lambda: [model.attention_layer(p["item_emb"], p["att_w0"], p["att_b0"])]

    def gcn():
        p = _fresh(p0)
        return lambda: [model.gcn_layer(anorm, p["item_emb"], p["conv_w0"])]

    def groups(pfx):
        p = _fresh(p0)
        return lambda: [s for _, s in model.forward_groups(pfx, Tensor(x_v), p, h)]

    scores = [(pos, s.data) for pos, s in model.forward_groups(prefixes, Tensor(x_v), p0, h)]
    c_groups = [Tensor(rng.standard_normal(s.shape)) for _, s in scores]

    def ce():
        return lambda: [loss.cross_entropy_rows(model.predict(Tensor(s)), targets[pos],
                                                h.ce_form) for pos, s in scores]

    def spl():
        return lambda: [loss.single_positive_loss(Tensor(x_v), h.tau)]

    out["model.attention"] = _median_probe(attention, [c_nd])
    out["model.attention.peak_mib"] = _peak_mib(attention(), under_tape)
    out["model.gcn"] = _median_probe(gcn, [c_nd])
    out["model.forward_groups"] = _median_probe(lambda: groups(prefixes), c_groups)
    # The peak is taken at the call the operation makes: a batch, or a whole pass.
    peak_prefixes = prefixes if spec.kind == "train" else [ex.prefix for ex in state.bundle.test]
    out["model.forward_groups.peak_mib"] = _peak_mib(groups(peak_prefixes), under_tape)
    out["loss.ce"] = _median_probe(ce)
    out["loss.spl"] = _median_probe(spl)
    out["loss.spl.peak_mib"] = _peak_mib(spl(), True)

    # One whole batch step: tape size, Tape.backward, Adam.step, checkpoint.
    vhash = data.vocab_hash(state.bundle.vocab)
    path = work / "probe.ckpt"

    def step(_):
        p = _fresh(p0, copy=True)
        adam = Adam(p.tensors, lr=h.lr, l2=h.l2)
        with Tape() as tape:
            total, _ = train.batch_loss(batch, anorm, p, h)
            out["tensor.tape_records"] = len(tape.records)
            out["tensor.tape_mib"] = sum(o.data.nbytes for o, _, _ in tape.records) / MIB
            t0 = time.perf_counter()
            tape.backward(total)
            t1 = time.perf_counter()
        adam.step()
        t2 = time.perf_counter()
        train.save_checkpoint(path, p, adam, h, vhash)
        return t1 - t0, t2 - t1, time.perf_counter() - t2

    runs = _repeat(step)
    out["tensor.backward_ms"] = median_ms([r[0] for r in runs])
    out["optim.adam_step_ms"] = median_ms([r[1] for r in runs])
    out["train.checkpoint_write_ms"] = median_ms([r[2] for r in runs])
    out["train.checkpoint_mib"] = path.stat().st_size / MIB
    return out


def per_layer(spec, state, tracer, traced, probes: dict, bundle_path: Path,
              overhead_pct: float) -> tuple[dict, dict]:
    """Every per-layer metric, plus the layer shares of one operation."""
    h = state.hyper
    fwd = {name: median_ms(tracer.busy(name)) for name in (
        "model.propagate", "model.attention", "model.gcn", "model.forward_groups",
        "loss.spl", "tensor.backward", "optim.adam_step", "train.checkpoint_write")}
    ce_per_batch = list(tracer.busy_by_parent("loss.ce").values())
    fwd["loss.ce"] = median_ms(ce_per_batch)

    def pick(name, probe_ms):
        return fwd[name] if fwd[name] is not None else probe_ms

    att = probes["model.attention"]
    op_ms = statistics.median(b - a for a, b in traced.step_spans()) * 1000.0
    epoch_eval = [b - a for a, b in traced.epoch_eval_spans()] or \
        [b - a for a, b in traced.passes]
    v = {
        "data.load_bundle_ms": (median_ms(tracer.busy("data.load_bundle")), "ms"),
        "data.bundle_mib": (bundle_path.stat().st_size / MIB, "MiB"),
        "graph.build_ms": (median_ms(tracer.busy("graph.build")), "ms"),
        "graph.row_normalize_ms": (median_ms(tracer.busy("graph.row_normalize")), "ms"),
        "graph.edges": (len(state.graph.edges), "count"),
        "model.propagate.fwd_ms": (fwd["model.propagate"], "ms"),
        "model.attention.fwd_ms": (pick("model.attention", att[0]), "ms"),
        "model.attention.bwd_ms": (att[1], "ms"),
        "model.attention.peak_mib": (probes["model.attention.peak_mib"], "MiB"),
        "model.gcn.fwd_ms": (pick("model.gcn", probes["model.gcn"][0]), "ms"),
        "model.gcn.bwd_ms": (probes["model.gcn"][1], "ms"),
        "model.forward_groups.fwd_ms": (pick("model.forward_groups",
                                             probes["model.forward_groups"][0]), "ms"),
        "model.forward_groups.bwd_ms": (probes["model.forward_groups"][1], "ms"),
        "model.forward_groups.peak_mib": (probes["model.forward_groups.peak_mib"], "MiB"),
        "loss.ce.fwd_ms": (pick("loss.ce", probes["loss.ce"][0]), "ms"),
        "loss.ce.bwd_ms": (probes["loss.ce"][1], "ms"),
        "loss.spl.fwd_ms": (pick("loss.spl", probes["loss.spl"][0]), "ms"),
        "loss.spl.bwd_ms": (probes["loss.spl"][1], "ms"),
        "loss.spl.peak_mib": (probes["loss.spl.peak_mib"], "MiB"),
        "tensor.backward_ms": (pick("tensor.backward", probes["tensor.backward_ms"]), "ms"),
        "tensor.tape_records": (probes["tensor.tape_records"], "count"),
        "tensor.tape_mib": (probes["tensor.tape_mib"], "MiB"),
        "optim.adam_step_ms": (pick("optim.adam_step", probes["optim.adam_step_ms"]), "ms"),
        "evaluate.rank_ms": (median_ms(tracer.self_time("evaluate.ranks",
                                                        "model.forward_groups")), "ms"),
        "evaluate.examples_ranked": (len(state.bundle.test), "count"),
        "train.checkpoint_write_ms": (pick("train.checkpoint_write",
                                           probes["train.checkpoint_write_ms"]), "ms"),
        "train.checkpoint_mib": (probes["train.checkpoint_mib"], "MiB"),
        "train.epoch_eval_ms": (median_ms(epoch_eval), "ms"),
        "trace.overhead_pct": (overhead_pct, "%"),
    }
    metrics = {k: {"value": val, "unit": u} for k, (val, u) in v.items()}

    # Shares of one operation: a batch step (train) or a pass (eval).
    ms = {k: val for k, (val, _) in v.items()}
    L = h.num_layers if h.use_attention else 0
    spl_on = h.use_spl and h.beta > 0
    if spec.kind == "train":
        parts = {
            "attention": L * (ms["model.attention.fwd_ms"] + ms["model.attention.bwd_ms"]),
            "spl": spl_on * (ms["loss.spl.fwd_ms"] + ms["loss.spl.bwd_ms"]),
            "gcn": h.num_layers * (ms["model.gcn.fwd_ms"] + ms["model.gcn.bwd_ms"]),
            "forward_groups": ms["model.forward_groups.fwd_ms"] + ms["model.forward_groups.bwd_ms"],
            "ce": ms["loss.ce.fwd_ms"] + ms["loss.ce.bwd_ms"],
            "adam": ms["optim.adam_step_ms"],
        }
    else:
        parts = {
            "attention": L * ms["model.attention.fwd_ms"],
            "gcn": h.num_layers * ms["model.gcn.fwd_ms"],
            "forward_groups": ms["model.forward_groups.fwd_ms"],
            "rank": ms["evaluate.rank_ms"],
        }
    shares = {k: round(val / op_ms, 4) for k, val in parts.items()}
    shares["attention+spl"] = round(shares["attention"] + shares.get("spl", 0.0), 4)
    shares["forward_groups+rank"] = round(shares["forward_groups"] + shares.get("rank", 0.0), 4)
    summary = {"operation": "batch step" if spec.kind == "train" else "eval pass",
               "operation_ms_p50": op_ms, "shares": shares}
    return metrics, summary
