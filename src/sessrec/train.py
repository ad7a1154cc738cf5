"""Training loop: build the graph once, then epochs of batched updates.

Per batch: refresh the item table via attention + graph convolution, take
the self-contrastive term over it, encode and score every session in the
batch, add the cross-entropy, backpropagate, and take one Adam step. Each epoch
ends with a test evaluation and a best-P@20 checkpoint.
"""
from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import evaluate as eval_mod
from . import graph as graph_mod
from . import loss as loss_mod
from . import model as model_mod
from .data import DatasetBundle, Examples, read_container, vocab_hash, write_container
from .model import Hyperparams, ModelParams
from .optim import Adam, NumericError
from .tensor import Tape, Tensor
from . import tensor as T

CHECKPOINT_MAGIC = b"SESSRECCKPT\n"
CHECKPOINT_VERSION = 1


class CheckpointError(RuntimeError):
    pass


@dataclass
class TrainResult:
    params: ModelParams
    history: list = field(default_factory=list)
    best_epoch: int | None = None
    best_metrics: dict | None = None


def batch_loss(examples, anorm, params: ModelParams, hyper: Hyperparams):
    """Forward pass and combined loss for one batch of (prefix, target) pairs,
    a data.Examples container or a list of them, converted once.

    The SPL term comes right after propagate, before the sessions are encoded
    and scored: under a tape its forward tiles also take its gradient, and
    then share memory with propagate's records only.

    Returns (total Tensor, LossBreakdown).
    """
    examples = Examples.of(examples)
    x_v = model_mod.propagate(params["item_emb"], anorm, params,
                              hyper.num_layers, hyper.use_attention)
    targets = examples.targets
    l_spl = None
    if hyper.use_spl and hyper.beta > 0:
        if hyper.spl_scope == "batch_items":
            reps = T.select_rows(x_v, np.unique(np.concatenate([examples.items, targets])))
        else:
            reps = x_v
        l_spl = loss_mod.single_positive_loss(reps, hyper.tau)
    parts = [loss_mod.cross_entropy_rows(scores, targets[positions], hyper.ce_form)
             for positions, scores in model_mod.forward_groups(examples, x_v, params, hyper)]
    l_ce = T.scale(T.add(*parts), 1.0 / len(examples))
    return loss_mod.total_loss(l_ce, l_spl, hyper.beta)


def _evaluate(bundle: DatasetBundle, params: ModelParams, anorm, hyper: Hyperparams,
              ks=(10, 20)):
    x_v = model_mod.propagate(params["item_emb"], anorm, params,
                              hyper.num_layers, hyper.use_attention)
    return eval_mod.evaluate_model(bundle.test, x_v, params, hyper, ks=ks)


def train(bundle: DatasetBundle, hyper: Hyperparams, out_dir=None,
          ks=(10, 20), log_stream=None) -> TrainResult:
    if hyper.epochs > 0 and not bundle.test:   # every epoch ends with a test evaluation
        raise eval_mod.EvalError("empty test set")
    anorm = graph_mod.bundle_adjacency(bundle, hyper.epsilon)
    params = model_mod.init_params(bundle.vocab.n, hyper)
    adam = Adam(params.tensors, lr=hyper.lr, l2=hyper.l2)
    rng = np.random.default_rng(hyper.seed)
    out_dir = Path(out_dir) if out_dir is not None else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
    vhash = vocab_hash(bundle.vocab)

    def log(record):
        if log_stream is not None:
            log_stream.write(json.dumps(record, sort_keys=True) + "\n")

    result = TrainResult(params=params)
    best_p20 = -1.0
    n_train = len(bundle.train)
    for epoch in range(hyper.epochs):
        t0 = time.monotonic()
        perm = rng.permutation(n_train)
        losses = []
        for bi, start in enumerate(range(0, n_train, hyper.batch_size)):
            batch = bundle.train[perm[start:start + hyper.batch_size]]
            with Tape() as tape:
                total, breakdown = batch_loss(batch, anorm, params, hyper)
                if not np.isfinite(breakdown.total):
                    raise NumericError(f"non-finite loss at epoch {epoch} batch {bi}")
                tape.backward(total)
            adam.step()
            adam.zero_grads()
            losses.append(breakdown.total)
            log({"kind": "batch", "epoch": epoch, "batch": bi,
                 "l_ce": breakdown.l_ce, "l_spl": breakdown.l_spl,
                 "total": breakdown.total})
        report = _evaluate(bundle, params, anorm, hyper, ks=ks)
        wall_ms = (time.monotonic() - t0) * 1000.0
        record = {"kind": "epoch", "epoch": epoch,
                  "mean_loss": float(np.mean(losses)) if losses else None,
                  "wall_ms": wall_ms}
        record.update(report.to_dict())
        log(record)
        result.history.append(record)
        p20 = report.precision.get(20, report.precision[max(report.ks)])
        if p20 > best_p20:
            best_p20 = p20
            result.best_epoch = epoch
            result.best_metrics = report.to_dict()
            if out_dir is not None:
                save_checkpoint(out_dir / "best.ckpt", params, adam, hyper, vhash)
    if out_dir is not None:
        save_checkpoint(out_dir / "last.ckpt", params, adam, hyper, vhash)
        metrics = dict(result.best_metrics or {})
        metrics["best_epoch"] = result.best_epoch
        with open(out_dir / "metrics.json", "w", encoding="utf-8") as f:
            json.dump(metrics, f, sort_keys=True, separators=(",", ":"))
    return result


# ---------------------------------------------------------------------------
# checkpoints: data.write_container's binary file, its blocks all float64
# ---------------------------------------------------------------------------

def save_checkpoint(path, params: ModelParams, adam: Adam | None,
                    hyper: Hyperparams, vhash: str) -> None:
    """Write the parameters and metadata, with adam's step count but not its moments."""
    meta = {"format_version": CHECKPOINT_VERSION, "vocab_hash": vhash,
            "hyper": asdict(hyper), "adam_t": adam.t if adam is not None else None,
            "num_layers": params.num_layers}
    write_container(path, CHECKPOINT_MAGIC, meta,
                    [(f"param/{name}", np.asarray(params[name].data, dtype="<f8"))
                     for name in sorted(params.tensors)])


def load_checkpoint(path, expected_vocab_hash: str | None = None):
    """Returns (params, adam step count or None, hyper, vocab_hash). Every block is
    bounds-checked; blocks other than param/ (older files' Adam moments) are skipped."""
    try:
        raw = Path(path).read_bytes()
    except OSError as e:
        raise CheckpointError(f"cannot read checkpoint {path}: {e}") from e
    meta, blocks = read_container(raw, f"checkpoint {path}", CHECKPOINT_MAGIC,
                                  CheckpointError, lambda name: "<f8")
    version = meta.get("format_version")
    if type(version) is not int or version != CHECKPOINT_VERSION:
        raise CheckpointError(f"checkpoint format version {version!r} unsupported")
    try:
        vhash, adam_t, num_layers = meta["vocab_hash"], meta["adam_t"], meta["num_layers"]
        hyper = Hyperparams(**meta["hyper"])
        if adam_t is not None and (type(adam_t) is not int or adam_t < 0):
            raise TypeError(f"adam_t must be an integer >= 0 or null, not {adam_t!r}")
    except (KeyError, TypeError, ValueError, AttributeError, OverflowError) as e:
        raise CheckpointError(f"malformed checkpoint metadata in {path}: {e!r}") from e
    if expected_vocab_hash is not None and vhash != expected_vocab_hash:
        raise CheckpointError("vocabulary hash mismatch between checkpoint and bundle")
    tensors = {}
    for block_name, block in blocks.items():
        kind, _, name = block_name.partition("/")
        if kind == "param":
            tensors[name] = Tensor(block.astype(np.float64))
    if num_layers != hyper.num_layers:
        raise CheckpointError(f"checkpoint num_layers {num_layers!r} disagrees with its "
                              f"hyperparameters ({hyper.num_layers})")
    # every parameter init_params would create, with its shape, and no other;
    # the generator stops at the first missing name, so a huge num_layers is cheap
    n = tensors["item_emb"].shape[0] if "item_emb" in tensors else 0
    n_expected = 0
    for name, shape in model_mod.param_shapes(n, hyper):
        if name not in tensors or tensors[name].shape != shape:
            raise CheckpointError(f"checkpoint parameter {name!r} is missing or not {shape}")
        n_expected += 1
    if len(tensors) != n_expected:
        raise CheckpointError(f"checkpoint holds {len(tensors) - n_expected} unknown "
                              "parameter(s)")
    return ModelParams(tensors, num_layers=hyper.num_layers), adam_t, hyper, vhash
