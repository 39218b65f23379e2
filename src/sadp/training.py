"""Outer training loop: per-epoch selection (`pruning.select`), weighted SGD,
score refresh and evaluation.

Training follows the mixed-precision recipe: a run steps a private float64
master copy of the caller's weights, whatever their dtype, runs the engine on
one float32 copy (ENGINE_DTYPE) refreshed in place after each update, and
writes the caller's net once, after the last epoch.  The master copy pays:
late in a 30-epoch cosine schedule up to 5.8% of the nonzero updates per epoch
are below half a float32 ulp of their weight, and would round away
(BENCH_float32_only.json).  A step's forward and backward records are released
before the next step runs, so training peaks at one step's working set
(BENCH_step_records.json)."""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass

import numpy as np

from .data import DatasetHandle, MetricsRow
from .pruning import (NO_PRUNING, PruneConfig, loss_score,
                      resolve_score_layers, select, spike_aware_score)
from .snn import (Array, NeuronConfig, Network, backward_bptt, check_data,
                  forward, infer)

logger = logging.getLogger(__name__)


class NumericDivergenceError(RuntimeError):
    pass


@dataclass(frozen=True)
class TrainConfig:
    """A training run's settings; run_training keeps the run's state."""

    epochs: int
    batch_size: int
    lr: float
    momentum: float = 0.0
    weight_decay: float = 0.0
    schedule: str = "cosine"
    seed_sample: int = 1
    seed_shuffle: int = 2

    def __post_init__(self) -> None:
        if not 0.0 < self.lr < math.inf:
            raise ValueError("learning rate must be positive and finite")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must lie in [0, 1)")
        if not 0.0 <= self.weight_decay < math.inf:
            raise ValueError("weight decay must be non-negative and finite")
        if self.schedule not in ("constant", "cosine"):
            raise ValueError(f"unknown lr schedule {self.schedule!r}")
        if self.batch_size < 1:
            raise ValueError(f"batch size must be >= 1, got {self.batch_size}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")


def sgd_step(weights: list[Array], grads: list[Array], buffers: list[Array],
             lr: float, momentum: float = 0.0, weight_decay: float = 0.0) -> None:
    """SGD with momentum and weight decay, in place on weights and buffers.
    A shape mismatch raises before any write; a non-finite result raises
    NumericDivergenceError after it, for the caller to discard the arrays."""
    layers = list(zip(weights, grads, buffers, strict=True))
    if any(not w.shape == g.shape == buf.shape for w, g, buf in layers):
        raise ValueError("gradient shape mismatch")
    with np.errstate(over="ignore", invalid="ignore"):  # the check below reports it
        for w, g, buf in layers:
            buf *= momentum
            buf += g
            if weight_decay:
                buf += weight_decay * w
            w -= lr * buf
    # A non-finite buffer makes its layer's weights non-finite too.
    if not all(np.isfinite(w).all() for w in weights):
        raise NumericDivergenceError("non-finite update")


def cosine_lr(k: int, total_epochs: int, base_lr: float) -> float:
    """Half-cosine annealing from base_lr toward zero."""
    if not 1 <= k <= total_epochs:
        raise ValueError("epoch out of range")
    return base_lr * (1.0 + math.cos(math.pi * (k - 1) / total_epochs)) / 2.0


# The largest multiple of 16 at which evaluate's record-free conv pass on
# train-conv-full's net peaks below one B = 32 training step (tracemalloc:
# 5.8 against 7.0 MB; 7.7 MB at 64).
EVAL_BATCH = 48
ENGINE_DTYPE = np.float32  # the dtype training runs the engine in


def evaluate(net: Network, handle: DatasetHandle, cfg: NeuronConfig) -> float:
    """Classification accuracy on a pre-encoded dataset, in net's dtype: the
    argmax of `infer`'s logits (forward's layer loop, with no record kept),
    EVAL_BATCH examples at a time, once the whole dataset passes
    `check_data`.  Each chunk runs every layer over all T steps, so evaluate
    peaks at one chunk's largest layer records, not at every layer's."""
    check_data(net, handle.data, handle.labels, cfg, "dataset")
    correct = 0
    for start in range(0, handle.n, EVAL_BATCH):
        labels = handle.labels[start:start + EVAL_BATCH]
        logits = infer(net, handle.data[start:start + EVAL_BATCH], cfg)
        correct += int((logits.argmax(axis=1) == labels).sum())
    return correct / handle.n


def run_training(net: Network, train: DatasetHandle, test: DatasetHandle | None,
                 ncfg: NeuronConfig, pcfg: PruneConfig | None,
                 cfg: TrainConfig) -> list[MetricsRow]:
    """Train for cfg.epochs epochs under pcfg (None: NO_PRUNING).

    Train and test pass `check_data` and hold only finite values, and pcfg's
    score layers `resolve_score_layers`, before epoch 1.  Each epoch runs
    weighted mini-batch SGD on the examples and loss weights `pruning.select`
    draws from the (stale) scores.  sgd_step updates a private float64 copy
    of net's weights and the momentum in place; the steps and evaluate run on
    one ENGINE_DTYPE engine refreshed in place after each update, and an
    update past float32's range raises NumericDivergenceError.  Each step's
    records are released before the next step runs.  net is written once, in
    its own dtype, after the last epoch, so a run that raises leaves it as it
    was.
    Unless the score kind is uniform, each trained example's score is
    refreshed from its backward pass.  An epoch that selects nothing trains
    nothing: its row's loss is NaN, and its accuracy that of the unchanged net.
    """
    pcfg = pcfg or NO_PRUNING
    for name, handle in (("train set", train), ("test set", test)):
        if handle is not None:
            check_data(net, handle.data, handle.labels, ncfg, name)
            # min and max reach NaN and +-inf with no (N, T, ...) mask.
            if not np.isfinite([handle.data.min(), handle.data.max()]).all():
                raise ValueError(f"{name} holds a non-finite value")
    score_layers = resolve_score_layers(pcfg.score_layers, len(net))
    master = [w.astype(np.float64) for w in net.weights]
    buffers = [np.zeros_like(w) for w in master]
    # Equal scores before the first backward pass: epoch 1 samples uniformly.
    scores = np.ones(train.n)
    engine = net.astype(ENGINE_DTYPE)
    metrics: list[MetricsRow] = []

    for k in range(1, cfg.epochs + 1):
        t0 = time.perf_counter()
        lr = cosine_lr(k, cfg.epochs, cfg.lr) if cfg.schedule == "cosine" else cfg.lr
        sel = select(k, cfg.epochs, scores, pcfg, cfg.seed_sample,
                     cfg.seed_shuffle)

        loss_sum = 0.0
        b = cfg.batch_size
        for start in range(0, sel.indices.size, b):
            idx = sel.indices[start:start + b]
            w_batch = sel.weights[start:start + b]
            trace, lo = forward(engine, train.data[idx], train.labels[idx], ncfg)
            btrace = backward_bptt(engine, trace, lo, ncfg)
            grads = btrace.weight_grads(example_weights=w_batch)
            sgd_step(master, grads, buffers, lr, cfg.momentum, cfg.weight_decay)
            with np.errstate(over="ignore"):  # the check below reports it
                for e, w in zip(engine.weights, master):
                    np.copyto(e, w)
            if not all(np.isfinite(e).all() for e in engine.weights):
                raise NumericDivergenceError(f"an update in epoch {k} took a "
                                             "weight past float32's range")
            if pcfg.score == "spike_aware":
                scores[idx] = spike_aware_score(btrace, score_layers)
            elif pcfg.score == "loss":
                scores[idx] = loss_score(lo)
            loss_sum += float((w_batch * lo.per_example_loss).sum())
            # Free this step's records before the next forward builds its own.
            del trace, btrace

        processed = int(sel.indices.size)
        if not processed:
            logger.warning("epoch %d: no examples selected (r_k=%.3f); skipped",
                           k, sel.ratio)
        train_loss = loss_sum / processed if processed else math.nan
        test_acc = evaluate(engine, test, ncfg) if test is not None else math.nan
        metrics.append(MetricsRow(
            epoch=k, ratio=sel.ratio, processed=processed,
            train_loss=train_loss, test_acc=test_acc,
            wall_s=time.perf_counter() - t0, gamma=sel.assignment.gamma,
            solver_iters=sel.assignment.iterations))
        logger.info("epoch %d: r=%.3f processed=%d loss=%.4f acc=%.4f",
                    k, sel.ratio, processed, train_loss, test_acc)
    for w, m in zip(net.weights, master):
        w[...] = m
    return metrics
