"""Workloads: generated inputs, set-up, warm-up and the timed operations.

train-small and train-large call train.train in whole rounds; eval-full
repeats what `sessrec eval` does after loading: propagate, then one
evaluate_model over the test set. All inputs are sessrec.synth bundles
written to disk and made from the workload seed.
"""
from __future__ import annotations

import dataclasses
import gc
import json
import statistics
import time
from pathlib import Path

from sessrec import data, evaluate, graph, model, synth, train
from sessrec.optim import Adam

KS = (10, 20)
SETUP_MAX = 40

# The default SynthSpec scaled tenfold: 200 chains of 8 over 2k items.
LARGE = {"n_items": 2000, "n_sessions": 12000, "n_chains": 200}


@dataclasses.dataclass(frozen=True)
class Spec:
    name: str
    kind: str                      # "train" or "eval"
    synth: dict                    # SynthSpec fields; the seed is the workload seed
    hyper: dict                    # Hyperparams fields; the seed is the workload seed
    train_cap: int | None = None   # training examples kept in the bundle
    test_cap: int | None = None    # test examples kept in the bundle
    setup_repeats: int = 7         # set-ups timed: at least this many,
    setup_seconds: float = 2.0     # and for at least this long (up to SETUP_MAX)
    warmup: int = 2                # train: batches of the warm-up run; eval: passes
    learning: bool = False         # check that training beats popularity


SPECS = {
    "train-small": Spec("train-small", "train", {}, {"epochs": 3}, learning=True),
    "train-large": Spec("train-large", "train", LARGE, {"epochs": 1},
                        train_cap=800, test_cap=1000),
    "eval-full": Spec("eval-full", "eval", LARGE, {}, test_cap=5000, warmup=3),
}

# Tiny sizes for the smoke test: same code paths, a second or two each.
_TINY = {"n_items": 60, "n_sessions": 300, "n_chains": 6, "chain_len": 6}
_TINY_HYPER = {"d": 8, "num_layers": 2, "batch_size": 20, "lr": 0.01}
_QUICK = {"setup_repeats": 2, "setup_seconds": 0.0, "warmup": 1}
SMOKE = {
    "train-small": Spec("train-small", "train", _TINY, _TINY_HYPER | {"epochs": 3},
                        learning=True, **_QUICK),
    "train-large": Spec("train-large", "train", _TINY, _TINY_HYPER | {"epochs": 1},
                        train_cap=100, test_cap=40, **_QUICK),
    "eval-full": Spec("eval-full", "eval", _TINY, _TINY_HYPER, test_cap=100, **_QUICK),
}


@dataclasses.dataclass
class Inputs:
    bundle_path: Path
    hyper: model.Hyperparams
    ckpt_path: Path | None = None
    ckpt_params: dict | None = None   # arrays written to ckpt_path


@dataclasses.dataclass
class State:
    """What set-up hands to the timed operations."""
    bundle: data.DatasetBundle
    graph: graph.GlobalGraph
    anorm: graph.NormalizedAdjacency
    params: model.ModelParams
    hyper: model.Hyperparams


@dataclasses.dataclass
class Round:
    """One train.train call: wall clock and the timestamped log records."""
    start: float
    end: float
    records: list
    stamps: list
    result: train.TrainResult
    out_dir: Path
    epoch_examples: int      # training examples per epoch


class LogClock:
    """log_stream for train.train that timestamps every record it is handed."""

    def __init__(self):
        self.stamps: list[float] = []
        self.lines: list[str] = []

    def write(self, line: str) -> None:
        self.stamps.append(time.perf_counter())
        self.lines.append(line)


def capped(bundle, train_cap=None, test_cap=None):
    for cap, have in ((train_cap, len(bundle.train)), (test_cap, len(bundle.test))):
        if cap is not None and have < cap:
            raise RuntimeError(f"generated bundle has {have} examples, fewer than {cap}")
    out = dataclasses.replace(bundle, train=bundle.train[:train_cap], test=bundle.test[:test_cap])
    out.stats = dict(bundle.stats, n_train_examples=len(out.train), n_test_examples=len(out.test))
    return out


def make_inputs(spec: Spec, seed: int, work: Path) -> Inputs:
    """Write the workload's bundle (and, for eval, a checkpoint) into `work`."""
    bundle, _chains = synth.synth_dataset(synth.SynthSpec(**spec.synth, seed=seed))
    bundle = capped(bundle, spec.train_cap, spec.test_cap)
    inputs = Inputs(work / "bundle.json", model.Hyperparams(**spec.hyper, seed=seed))
    data.save_bundle(bundle, inputs.bundle_path)
    if spec.kind == "eval":
        # Freshly initialised parameters, written as `sessrec train` writes
        # them: evaluation costs the same whatever the weights are.
        params = model.init_params(bundle.vocab.n, inputs.hyper)
        inputs.ckpt_path = work / "model.ckpt"
        train.save_checkpoint(inputs.ckpt_path, params, Adam(params.tensors), inputs.hyper,
                              data.vocab_hash(bundle.vocab))
        inputs.ckpt_params = {k: t.data.copy() for k, t in params.items()}
    return inputs


def setup(spec: Spec, inputs: Inputs) -> State:
    """Everything a user pays before the first operation."""
    bundle = data.load_bundle(inputs.bundle_path)
    n = bundle.vocab.n
    if spec.kind == "eval":
        params, _adam, hyper, _ = train.load_checkpoint(
            inputs.ckpt_path, expected_vocab_hash=data.vocab_hash(bundle.vocab))
    else:
        hyper = inputs.hyper
    g = graph.build_global_graph(bundle.sessions_train, n, graph.GraphConfig(hyper.epsilon))
    anorm = graph.row_normalize(g)
    if spec.kind == "train":
        params = model.init_params(n, hyper)
    return State(bundle, g, anorm, params, hyper)


def timed_setups(spec: Spec, inputs: Inputs) -> tuple[list, State]:
    """Repeated set-ups spread over `setup_seconds`, so that a short stall of
    the machine cannot cover all of them. Each starts from the same heap: the
    previous state is freed and collected first, so the collector's work does
    not grow with the repeats."""
    times, state = [], None
    t_end = time.perf_counter() + spec.setup_seconds
    while len(times) < spec.setup_repeats or (
            len(times) < SETUP_MAX and time.perf_counter() < t_end):
        state = None
        gc.collect()
        t0 = time.perf_counter()
        state = setup(spec, inputs)
        times.append(time.perf_counter() - t0)
    return times, state


# ---------------------------------------------------------------------------
# timed operations
# ---------------------------------------------------------------------------

def train_round(state: State, out_dir: Path, bundle=None, hyper=None) -> Round:
    bundle, hyper = bundle or state.bundle, hyper or state.hyper
    clock = LogClock()
    t0 = time.perf_counter()
    result = train.train(bundle, hyper, out_dir=out_dir, ks=KS, log_stream=clock)
    t1 = time.perf_counter()
    return Round(t0, t1, [json.loads(line) for line in clock.lines], clock.stamps,
                 result, out_dir, len(bundle.train))


def eval_pass(state: State) -> tuple[float, float, dict]:
    h = state.hyper
    t0 = time.perf_counter()
    x_v = model.propagate(state.params["item_emb"], state.anorm, state.params,
                          h.num_layers, h.use_attention)
    report = evaluate.evaluate_model(state.bundle.test, x_v, state.params, h, ks=KS)
    return t0, time.perf_counter(), report.to_dict()


def warm_up(spec: Spec, state: State, work: Path) -> None:
    if spec.kind == "train":
        small = capped(state.bundle, spec.warmup * state.hyper.batch_size,
                       min(100, len(state.bundle.test)))
        train_round(state, work / "warmup", small, dataclasses.replace(state.hyper, epochs=1))
    else:
        for _ in range(spec.warmup):
            eval_pass(state)


@dataclasses.dataclass
class Measured:
    """Timed operations of one phase (untraced, or traced)."""
    rounds: list = dataclasses.field(default_factory=list)    # train
    passes: list = dataclasses.field(default_factory=list)    # eval: (start, end)
    reports: list = dataclasses.field(default_factory=list)   # eval reports

    def step_spans(self) -> list:
        """(start, end) of every batch step: consecutive batch records of one epoch."""
        if self.passes:
            return list(self.passes)
        out = []
        for r in self.rounds:
            for a, b, ta, tb in zip(r.records, r.records[1:], r.stamps, r.stamps[1:]):
                if a["kind"] == b["kind"] == "batch" and a["epoch"] == b["epoch"]:
                    out.append((ta, tb))
        return out

    def epoch_eval_spans(self) -> list:
        """(start, end) of each per-epoch evaluation: last batch record to epoch record."""
        out = []
        for r in self.rounds:
            for a, b, ta, tb in zip(r.records, r.records[1:], r.stamps, r.stamps[1:]):
                if a["kind"] == "batch" and b["kind"] == "epoch":
                    out.append((ta, tb))
        return out

    def epoch_spans(self) -> list:
        """(start, end) of each epoch: from the call's start or the previous
        epoch record to this epoch's record, written after its evaluation."""
        out = []
        for r in self.rounds:
            start = r.start
            for rec, t in zip(r.records, r.stamps):
                if rec["kind"] == "epoch":
                    out.append((start, t))
                    start = t
        return out

    def operations(self) -> int:
        """Batch steps for train, passes for eval."""
        if self.passes:
            return len(self.passes)
        return sum(1 for r in self.rounds for rec in r.records if rec["kind"] == "batch")

    def examples_per_s(self) -> float:
        """Training examples per second of the median epoch (its steps,
        evaluation and best-checkpoint write), or ranked examples per second
        of the median pass."""
        if self.passes:
            return self.reports[0]["n_examples"] / statistics.median(b - a for a, b in self.passes)
        return self.rounds[0].epoch_examples / statistics.median(
            b - a for a, b in self.epoch_spans())


def run_one(spec: Spec, state: State, work: Path, out: Measured, index: int) -> None:
    """One whole operation: a train.train round, or an eval pass."""
    if spec.kind == "train":
        out.rounds.append(train_round(state, work / f"round{index}"))
    else:
        t0, t1, report = eval_pass(state)
        out.passes.append((t0, t1))
        out.reports.append(report)


def measure(spec: Spec, state: State, seconds: float, work: Path) -> Measured:
    """Whole operations until `seconds` have passed; at least one."""
    out = Measured()
    deadline = time.perf_counter() + seconds
    while True:
        run_one(spec, state, work, out, len(out.rounds))
        if time.perf_counter() >= deadline:
            return out


def accuracy(spec: Spec, m: Measured) -> dict:
    """Test metrics of the best epoch (train) or of the evaluated checkpoint."""
    return m.rounds[-1].result.best_metrics if spec.kind == "train" else m.reports[-1]


def end_to_end(m: Measured, setup_times: list, peak_rss_mib: float) -> dict:
    steps = [b - a for a, b in m.step_spans()]
    values = {
        "setup_s": (statistics.median(setup_times), "s"),
        "examples_per_s": (m.examples_per_s(), "examples/s"),
        "step_ms_p50": (statistics.median(steps) * 1000.0, "ms"),
        "peak_rss_mib": (peak_rss_mib, "MiB"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}

