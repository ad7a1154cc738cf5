"""Benchmark of sessrec training and evaluation.

    python3 bench/run.py --workload train-small --seed 1 --seconds 25 --trace 0

Runs one workload (train-small, train-large or eval-full) in this process
for about --seconds, checks its outputs, and prints one JSON line last:
{"correct", "attempted", "failed", "metrics"}. --trace 0 gives the
end-to-end metrics; --trace 1 gives the per-layer metrics and writes the
spans to bench/runs/trace-<workload>-seed<seed>.json. --smoke uses tiny
sizes. See bench/README.md.
"""
import os

# One BLAS/OpenMP thread, set before numpy loads. OpenBLAS otherwise starts
# one thread per core, which doubles the CPU time of a step and lets step
# times swing with whatever else the machine runs.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RUNS = HERE / "runs"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=["train-small", "train-large", "eval-full"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--smoke", action="store_true", help="tiny sizes, for the smoke test")
    return p.parse_args(argv)


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(spec, args, work: Path) -> dict:
    import checks
    import layers
    import spans
    import workloads as wl

    inputs = wl.make_inputs(spec, args.seed, work)
    tracer = spans.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    try:
        setup_times, state = wl.timed_setups(spec, inputs)
    finally:
        if tracer:
            tracer.restore()
    wl.warm_up(spec, state, work)

    if not args.trace:
        measured = wl.measure(spec, state, args.seconds, work)
        metrics = wl.end_to_end(measured, setup_times, peak_rss_mib())
    else:
        # Operations alternate untraced and traced, so that both halves see
        # the same machine; their throughput ratio is the tracing overhead.
        plain, traced = wl.Measured(), wl.Measured()
        deadline = time.perf_counter() + args.seconds
        for i in itertools.count():
            if i % 2:
                tracer.install()
            try:
                wl.run_one(spec, state, work, traced if i % 2 else plain, i)
            finally:
                tracer.restore()
            if i >= 1 and time.perf_counter() >= deadline:
                break
        for a, b in traced.step_spans():
            tracer.add("op.step" if spec.kind == "train" else "op.pass", a, b)
        for a, b in traced.epoch_eval_spans():
            tracer.add("train.epoch_eval", a, b)
        probes = layers.probe(spec, state, work)
        untraced_eps, traced_eps = plain.examples_per_s(), traced.examples_per_s()
        metrics, summary = layers.per_layer(spec, state, tracer, traced, probes,
                                            inputs.bundle_path,
                                            (untraced_eps / traced_eps - 1.0) * 100.0)
        summary.update(workload=spec.name, seed=args.seed, untraced_examples_per_s=untraced_eps,
                       traced_examples_per_s=traced_eps)
        RUNS.mkdir(exist_ok=True)
        tracer.write(RUNS / f"trace-{spec.name}-seed{args.seed}.json", summary)
        print(json.dumps(summary))
        measured = wl.Measured(plain.rounds + traced.rounds, plain.passes + traced.passes,
                               plain.reports + traced.reports)

    fail = checks.Failures()
    if spec.kind == "train":
        checks.check_train(fail, measured, state, wl.KS, spec.learning, args.seed)
    else:
        checks.check_eval(fail, measured, state, inputs.ckpt_params, wl.KS, args.seed)
    for message in fail:
        print(f"check failed: {message}", file=sys.stderr)
    print(json.dumps({"workload": spec.name, "seed": args.seed,
                      "test_metrics": wl.accuracy(spec, measured)}))
    return {"correct": not fail, "attempted": measured.operations(), "failed": 0,
            "metrics": metrics}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "sessrec" / "__init__.py").is_file():
        print(f"error: no sessrec sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import sessrec
    if Path(sessrec.__file__).resolve().parent != SRC / "sessrec":
        print(f"error: imported sessrec from {sessrec.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    spec = (workloads.SMOKE if args.smoke else workloads.SPECS)[args.workload]
    # A terminated run still removes its inputs (the finally below).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    RUNS.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{spec.name}-seed{args.seed}-", dir=RUNS))
    try:
        result = run(spec, args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
