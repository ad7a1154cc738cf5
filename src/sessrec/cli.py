"""Command-line pipeline: synth, preprocess, build-graph, train, eval, gradcheck.

Exit codes: 0 success, 2 config error, 3 data error, 4 checkpoint error,
5 numeric error. Every run writes its fully resolved config next to its
outputs so results can be reproduced bit-identically.
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import math
import sys
import warnings
from pathlib import Path

import numpy as np

from . import __version__
from . import data as data_mod
from . import evaluate as eval_mod
from . import graph as graph_mod
from . import model as model_mod
from . import synth as synth_mod
from . import train as train_mod
from .data import DataError, PreprocessConfig, vocab_hash
from .evaluate import EvalError
from .model import Hyperparams
from .optim import NumericError
from .train import CheckpointError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_CHECKPOINT = 4
EXIT_NUMERIC = 5


class ConfigError(ValueError):
    pass


@contextlib.contextmanager
def config_errors():
    """Report a failed configuration check as a ConfigError (exit 2)."""
    try:
        yield
    except (TypeError, ValueError) as e:
        raise ConfigError(str(e)) from e


@contextlib.contextmanager
def output_errors(path):
    """Report a failed write of an output under path as a DataError (exit 3)."""
    try:
        yield
    except OSError as e:
        raise DataError(f"cannot write {e.filename or path}: {e.strerror or e}") from e


_HYPER_FIELDS = {f.name for f in dataclasses.fields(Hyperparams)}


def load_config_file(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise ConfigError(f"malformed config {path}: {e}") from e
    if not isinstance(doc, dict):
        raise ConfigError("config file must hold a flat JSON object")
    unknown = set(doc) - _HYPER_FIELDS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    return doc


def resolve_hyper(args) -> Hyperparams:
    values = {}
    if getattr(args, "config", None):
        values.update(load_config_file(args.config))
    if getattr(args, "preset", None):
        values.update(model_mod.PRESETS[args.preset])
    overrides = {
        "d": args.d, "num_layers": args.layers, "epsilon": args.epsilon,
        "tau": args.tau, "beta": args.beta, "lr": args.lr, "l2": args.l2,
        "batch_size": args.batch, "epochs": args.epochs, "seed": args.seed,
        "max_session_len": args.max_session_len,
        "spl_scope": args.spl_scope, "ce_form": args.ce_form,
    }
    for key, val in overrides.items():
        if val is not None:
            values[key] = val
    if args.no_attention:
        values["use_attention"] = False
    if args.no_reverse_pos:
        values["use_reverse_pos"] = False
    if args.no_spl:
        values["use_spl"] = False
    with config_errors():
        return Hyperparams(**values).validate()


def write_resolved_config(out_dir: Path, hyper: Hyperparams, extra: dict) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    doc = dict(hyper.to_dict())
    doc.update(extra)
    with open(out_dir / "config.json", "w", encoding="utf-8") as f:
        json.dump(doc, f, sort_keys=True, indent=2)


def _add_hyper_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="flat JSON config file; flags override it")
    p.add_argument("--preset", choices=sorted(model_mod.PRESETS),
                   help="dataset preset setting num_layers and beta")
    p.add_argument("--d", type=int)
    p.add_argument("--layers", type=int)
    p.add_argument("--epsilon", type=int)
    p.add_argument("--tau", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--lr", type=float)
    p.add_argument("--l2", type=float)
    p.add_argument("--batch", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--max-session-len", type=int, dest="max_session_len")
    p.add_argument("--spl-scope", choices=["all_items", "batch_items"], dest="spl_scope")
    p.add_argument("--ce-form", choices=["as_printed", "softmax_ce"], dest="ce_form")
    p.add_argument("--no-attention", action="store_true")
    p.add_argument("--no-reverse-pos", action="store_true")
    p.add_argument("--no-spl", action="store_true")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="sessrec",
                                description="session-based next-item recommender")
    p.add_argument("--version", action="version", version=f"sessrec {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("synth", help="generate a synthetic bundle with planted chains")
    sp.add_argument("--out", required=True)
    sp.add_argument("--n-items", type=int, default=200)
    sp.add_argument("--sessions", type=int, default=2000)
    sp.add_argument("--chains", type=int, default=20)
    sp.add_argument("--chain-len", type=int, default=8)
    sp.add_argument("--noise", type=float, default=0.2)
    sp.add_argument("--seed", type=int, default=7)

    pp = sub.add_parser("preprocess", help="raw event log -> preprocessed bundle")
    pp.add_argument("--in", dest="infile", required=True)
    pp.add_argument("--out", required=True)
    pp.add_argument("--delimiter", default="\t")
    pp.add_argument("--header", action="store_true")
    pp.add_argument("--max-error-ratio", type=float, default=0.1)
    pp.add_argument("--min-item-freq", type=int, default=5)
    pp.add_argument("--min-session-len", type=int, default=2)
    pp.add_argument("--holdout-fraction", type=float, default=0.1)
    pp.add_argument("--holdout-window", type=int, default=None)
    pp.add_argument("--min-prefix-len", type=int, default=1)

    gp = sub.add_parser("build-graph", help="attach the global item graph to a bundle")
    gp.add_argument("--in", dest="infile", required=True)
    gp.add_argument("--out", required=True)
    gp.add_argument("--epsilon", type=int, default=3)
    gp.add_argument("--include-test", action="store_true",
                    help="also accumulate edges from test-window sessions")
    gp.add_argument("--export", help="also write a sorted src/dst/weight edge list")

    tp = sub.add_parser("train", help="train and checkpoint a model")
    tp.add_argument("--data", required=True)
    tp.add_argument("--out", required=True)
    tp.add_argument("--ks", default="10,20")
    _add_hyper_flags(tp)

    ep = sub.add_parser("eval", help="evaluate a checkpoint on a bundle's test set")
    ep.add_argument("--checkpoint", required=True)
    ep.add_argument("--data", required=True)
    ep.add_argument("--ks", default="10,20")
    ep.add_argument("--out", required=True)

    gc = sub.add_parser("gradcheck", help="finite-difference check of the full loss")
    gc.add_argument("--n", type=int, default=8)
    gc.add_argument("--d", type=int, default=6)
    gc.add_argument("--layers", type=int, default=2)
    gc.add_argument("--batch", type=int, default=4)
    gc.add_argument("--tau", type=float, default=0.1)
    gc.add_argument("--beta", type=float, default=1.0)
    gc.add_argument("--seed", type=int, default=0)
    gc.add_argument("--tolerance", type=float, default=1e-4)
    return p


def _parse_ks(text: str) -> list:
    try:
        ks = [int(k) for k in text.split(",") if k]
    except ValueError as e:
        raise ConfigError(f"bad --ks value {text!r}") from e
    if not ks or any(k < 1 for k in ks):
        raise ConfigError(f"bad --ks value {text!r}")
    return ks


def cmd_synth(args) -> int:
    with config_errors():
        spec = synth_mod.SynthSpec(n_items=args.n_items, n_sessions=args.sessions,
                                   n_chains=args.chains, chain_len=args.chain_len,
                                   noise=args.noise, seed=args.seed).validate()
    bundle, _chains = synth_mod.synth_dataset(spec)
    with output_errors(args.out):
        data_mod.save_bundle(bundle, args.out)
    print(json.dumps(bundle.stats, sort_keys=True))
    return EXIT_OK


def cmd_preprocess(args) -> int:
    with config_errors():
        cfg = PreprocessConfig(delimiter=args.delimiter, has_header=args.header,
                               max_error_ratio=args.max_error_ratio,
                               min_item_freq=args.min_item_freq,
                               min_session_len=args.min_session_len,
                               holdout_fraction=args.holdout_fraction,
                               holdout_window=args.holdout_window,
                               min_prefix_len=args.min_prefix_len).validate()
    try:
        with open(args.infile, "r", encoding="utf-8") as f:
            events, errors = data_mod.parse_events(
                f, delimiter=cfg.delimiter, has_header=cfg.has_header,
                max_error_ratio=cfg.max_error_ratio)
    except OSError as e:
        raise DataError(f"cannot read {args.infile}: {e}") from e
    for lineno, msg in errors:
        print(f"warning: line {lineno}: {msg}", file=sys.stderr)
    bundle = data_mod.make_bundle(events, cfg)
    with output_errors(args.out):
        data_mod.save_bundle(bundle, args.out)
    print(json.dumps(bundle.stats, sort_keys=True))
    return EXIT_OK


def cmd_build_graph(args) -> int:
    with config_errors():
        cfg = graph_mod.GraphConfig(args.epsilon)
    bundle = data_mod.load_bundle(args.infile)
    sessions = list(bundle.sessions_train)
    if args.include_test:
        sessions += bundle.sessions_test
    graph = graph_mod.build_global_graph(sessions, bundle.vocab.n, cfg)
    bundle.graph = graph
    bundle.graph_epsilon = args.epsilon
    with output_errors(args.out):
        data_mod.save_bundle(bundle, args.out)
    if args.export:
        with output_errors(args.export):
            Path(args.export).write_text(graph_mod.export_edge_list(graph),
                                         encoding="utf-8")
    print(json.dumps(graph_mod.graph_stats(graph) | {"epsilon": args.epsilon},
                     sort_keys=True, default=str))
    return EXIT_OK


def cmd_train(args) -> int:
    hyper = resolve_hyper(args)
    ks = _parse_ks(args.ks)
    bundle = data_mod.load_bundle(args.data)
    out_dir = Path(args.out)
    with output_errors(out_dir):
        write_resolved_config(out_dir, hyper, {"data": str(args.data), "ks": ks})
        with open(out_dir / "train.log", "w", encoding="utf-8") as log_stream, \
                warnings.catch_warnings():
            # the loss and gradient checks report a numeric failure, so numpy's
            # warnings go; unlike np.errstate, a filter also holds in pool threads
            warnings.simplefilter("ignore", RuntimeWarning)
            result = train_mod.train(bundle, hyper, out_dir=out_dir, ks=ks,
                                     log_stream=log_stream)
    if result.best_metrics is not None:
        print(json.dumps(result.best_metrics | {"best_epoch": result.best_epoch},
                         sort_keys=True))
    else:
        print(json.dumps({"epochs": 0}))
    return EXIT_OK


def cmd_eval(args) -> int:
    ks = _parse_ks(args.ks)
    bundle = data_mod.load_bundle(args.data)
    params, _steps, hyper, _vh = train_mod.load_checkpoint(
        args.checkpoint, expected_vocab_hash=vocab_hash(bundle.vocab))
    anorm = graph_mod.bundle_adjacency(bundle, hyper.epsilon)
    with warnings.catch_warnings():
        # non-finite scores raise NumericError, so numpy's warnings go (see cmd_train)
        warnings.simplefilter("ignore", RuntimeWarning)
        x_v = model_mod.propagate(params["item_emb"], anorm, params,
                                  hyper.num_layers, hyper.use_attention)
        report = eval_mod.evaluate_model(bundle.test, x_v, params, hyper, ks=ks)
    with output_errors(args.out), open(args.out, "w", encoding="utf-8") as f:
        json.dump(report.to_dict(), f, sort_keys=True, separators=(",", ":"))
    print(json.dumps(report.to_dict(), sort_keys=True))
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    from .tensor import grad_check
    if args.n < 1:
        raise ConfigError(f"--n must be >= 1, got {args.n}")
    if not (math.isfinite(args.tolerance) and args.tolerance > 0):
        raise ConfigError(f"--tolerance must be finite and > 0, got {args.tolerance}")
    with config_errors():
        hyper = Hyperparams(d=args.d, num_layers=args.layers, tau=args.tau,
                            beta=args.beta, max_session_len=6, seed=args.seed,
                            batch_size=args.batch, epochs=0).validate()
    rng = np.random.default_rng(args.seed)
    sessions = [list(rng.integers(0, args.n, size=rng.integers(2, 6)))
                for _ in range(max(6, args.batch))]
    graph = graph_mod.build_global_graph(sessions, args.n,
                                         graph_mod.GraphConfig(hyper.epsilon))
    anorm = graph_mod.row_normalize(graph)
    examples = [data_mod.TrainExample(tuple(s[:-1]), int(s[-1]))
                for s in sessions[:args.batch]]
    params = model_mod.init_params(args.n, hyper)

    def f():
        total, _ = train_mod.batch_loss(examples, anorm, params, hyper)
        return total

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)   # err is then not finite
        err = grad_check(f, list(params.tensors.values()))
    if not math.isfinite(err):
        raise NumericError("gradient check failed: the loss, a gradient or a "
                           "finite difference is not finite")
    print(json.dumps({"max_relative_error": err, "tolerance": args.tolerance}))
    return EXIT_OK if err < args.tolerance else EXIT_NUMERIC


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {"synth": cmd_synth, "preprocess": cmd_preprocess,
                "build-graph": cmd_build_graph, "train": cmd_train,
                "eval": cmd_eval, "gradcheck": cmd_gradcheck}
    try:
        return handlers[args.command](args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (DataError, EvalError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA
    except CheckpointError as e:
        print(f"checkpoint error: {e}", file=sys.stderr)
        return EXIT_CHECKPOINT
    except NumericError as e:
        print(f"numeric error: {e}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
