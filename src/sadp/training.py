"""Outer training loop: per-epoch selection (`pruning.select`), weighted SGD,
score refresh and evaluation.

Training follows the mixed-precision recipe: the network passed in holds the
float64 master weights, which `sgd_step` updates with float64 momentum, and
each step runs the engine on a float32 copy of them (ENGINE_DTYPE)."""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass

import numpy as np

from .data import DatasetHandle, MetricsRow
from .pruning import (NO_PRUNING, PruneConfig, loss_score,
                      resolve_score_layers, select, spike_aware_score)
from .snn import Array, NeuronConfig, Network, backward_bptt, check_data, forward

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
    """In-place SGD with momentum and weight decay on weights and buffers."""
    for w, g, buf in zip(weights, grads, buffers, strict=True):
        if w.shape != g.shape:
            raise ValueError("gradient shape mismatch")
        if not np.all(np.isfinite(g)):
            raise NumericDivergenceError("non-finite gradient")
        buf *= momentum
        buf += g
        if weight_decay:
            buf += weight_decay * w
        w -= lr * buf


def cosine_lr(k: int, total_epochs: int, base_lr: float) -> float:
    """Half-cosine annealing from base_lr toward zero."""
    if not 1 <= k <= total_epochs:
        raise ValueError("epoch out of range")
    return base_lr * (1.0 + math.cos(math.pi * (k - 1) / total_epochs)) / 2.0


EVAL_BATCH = 64
ENGINE_DTYPE = np.float32  # the dtype training runs the engine in


def evaluate(net: Network, handle: DatasetHandle, cfg: NeuronConfig) -> float:
    """Classification accuracy on a pre-encoded dataset, in net's dtype: the
    argmax of forward's logits, EVAL_BATCH examples at a time, once the whole
    dataset passes `check_data`."""
    check_data(net, handle.data, handle.labels, cfg, "dataset")
    correct = 0
    for start in range(0, handle.n, EVAL_BATCH):
        labels = handle.labels[start:start + EVAL_BATCH]
        _, loss = forward(net, handle.data[start:start + EVAL_BATCH], labels, cfg)
        correct += int((loss.logits.argmax(axis=1) == labels).sum())
    return correct / handle.n


def run_training(net: Network, train: DatasetHandle, test: DatasetHandle | None,
                 ncfg: NeuronConfig, pcfg: PruneConfig | None,
                 cfg: TrainConfig) -> list[MetricsRow]:
    """Train for cfg.epochs epochs under pcfg (None: NO_PRUNING).

    Train and test pass `check_data`, and pcfg's score layers
    `resolve_score_layers`, before any weight changes.  Each epoch runs
    weighted mini-batch SGD on the examples and loss weights `pruning.select`
    draws from the (stale) scores, on an ENGINE_DTYPE copy of net; sgd_step
    updates net and the run's float64 momentum buffers.  Unless the score kind
    is uniform, each trained example's score is refreshed from its backward
    pass.  An epoch that selects nothing writes a row of NaN loss and accuracy.
    """
    pcfg = pcfg or NO_PRUNING
    check_data(net, train.data, train.labels, ncfg, "train set")
    if test is not None:
        check_data(net, test.data, test.labels, ncfg, "test set")
    score_layers = resolve_score_layers(pcfg.score_layers, len(net))
    buffers = [np.zeros_like(w) for w in net.weights]
    # Equal scores before the first backward pass: epoch 1 samples uniformly.
    scores = np.ones(train.n)
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
            engine = net.astype(ENGINE_DTYPE)
            trace, lo = forward(engine, train.data[idx], train.labels[idx], ncfg)
            if not np.all(np.isfinite(lo.per_example_loss)):
                raise NumericDivergenceError(f"non-finite loss in epoch {k}")
            btrace = backward_bptt(engine, trace, lo, ncfg)
            grads = btrace.weight_grads(example_weights=w_batch)
            sgd_step(net.weights, grads, buffers, lr, cfg.momentum,
                     cfg.weight_decay)
            if pcfg.score == "spike_aware":
                scores[idx] = spike_aware_score(btrace, score_layers)
            elif pcfg.score == "loss":
                scores[idx] = loss_score(lo)
            loss_sum += float((w_batch * lo.per_example_loss).sum())

        processed = int(sel.indices.size)
        if processed:
            train_loss = loss_sum / processed
            test_acc = evaluate(net.astype(ENGINE_DTYPE), test, ncfg) \
                if test is not None else math.nan
        else:
            logger.warning("epoch %d: no examples selected (r_k=%.3f); skipped",
                           k, sel.ratio)
            train_loss = test_acc = math.nan
        metrics.append(MetricsRow(
            epoch=k, ratio=sel.ratio, processed=processed,
            train_loss=train_loss, test_acc=test_acc,
            wall_s=time.perf_counter() - t0, gamma=sel.assignment.gamma,
            solver_iters=sel.assignment.iterations))
        logger.info("epoch %d: r=%.3f processed=%d loss=%.4f acc=%.4f",
                    k, sel.ratio, processed, train_loss, test_acc)
    return metrics
