"""Independent brute-force verification of the pruning mathematics.

The independent references are written without reuse of the code they
check: per-example gradients and their exact norms, the sorting-based
closed-form probability solution (not the iterative solver), Monte-Carlo
estimator statistics, the closed-form variance objective, Pearson
correlation, and finite-difference gradient checks.  The spike-aware score
is not one of them: exact_grad_norms reports `pruning.spike_aware_score` of
the same pass next to the norms, so the two can be compared.

per_example_gradients is the brute-force reference: it returns every
example's full weight gradient, contracted from a backward trace without a
pass of its own, and the batch gradient and the exact norms are checked
against it.  exact_grad_norms never forms those tensors for dense layers: a
dense layer's per-example gradient is sum_t delta_t o_t^T, so its squared
norm is sum_{t,s} (delta_t . delta_s)(o_t . o_s), the entrywise product of
two T x T Gram matrices per example.  It makes one pass per chunk of at most
NORM_CHUNK examples, on as many threads as the CPUs that BLAS leaves idle, so
its memory beyond the dataset grows with that thread count but not with N.
"""

from __future__ import annotations

import logging
import os
import threading
from dataclasses import dataclass, fields

import numpy as np

from .pruning import (ProbabilityAssignment, resolve_score_layers,
                      spike_aware_score)
from .snn import (Array, BackwardTrace, LayerSpec, NeuronConfig, Network,
                  backward_bptt, forward)

logger = logging.getLogger(__name__)

MASK_CHUNK = 2000
# Examples per exact_grad_norms pass, from a sweep of 64, 128 and 256: a
# float64 dense:256 trace record of 128 examples at T = 8 is 2 MB, one L2.
NORM_CHUNK = 128
# The variables OpenBLAS reads its thread count from, in the order it reads them.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


class InfiniteVarianceError(ValueError):
    pass


class UndefinedCorrelationError(ValueError):
    pass


@dataclass
class GradNormReport:
    full_norms: Array        # exact ||grad|| over all layers, per example
    restricted_norms: Array  # exact norm restricted to score_layers
    scores: Array            # spike-aware bound over score_layers
    losses: Array            # per-example loss
    all_layer_scores: Array  # spike-aware bound over every layer

    def correlations(self) -> CorrelationReport:
        """Pearson correlation of the all-layer score and of the loss with
        the full gradient norm."""
        return CorrelationReport(
            score_vs_norm=pearson(self.all_layer_scores, self.full_norms),
            loss_vs_norm=pearson(self.losses, self.full_norms),
            sample_size=self.full_norms.size)


@dataclass
class MCStats:
    mean_estimate: Array       # mean estimator gradient, flattened
    full_gradient: Array       # exact full-data mean gradient, flattened
    expected_sq_error: float   # Monte-Carlo E||ghat - g||^2
    standard_errors: Array     # per-component standard error of the mean


@dataclass
class CorrelationReport:
    score_vs_norm: float
    loss_vs_norm: float
    sample_size: int


def _im2col(x: Array, kernel: int, stride: int, padding: int) -> Array:
    """(B, C, H, W) -> (B, C*k*k, P) sliding-window columns, in the plain
    per-example layout: the oracle shares no column layout with the engine."""
    b, c, _, _ = x.shape
    if padding:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    win = np.lib.stride_tricks.sliding_window_view(x, (kernel, kernel), axis=(2, 3))
    win = win[:, :, ::stride, ::stride]  # (B, C, Ho, Wo, k, k)
    ho, wo = win.shape[2], win.shape[3]
    return win.transpose(0, 1, 4, 5, 2, 3).reshape(b, c * kernel * kernel, ho * wo)


def _conv_example_grads(spec: LayerSpec, delta: Array, prev: Array) -> Array:
    """Every example's kernel gradient of one conv layer, (batch, *weight_shape)."""
    batch, t_steps = delta.shape[:2]
    grad = np.zeros((batch,) + spec.weight_shape)
    for t in range(t_steps):
        cols = _im2col(prev[:, t].reshape((batch,) + spec.input_shape),
                       spec.kernel_size, spec.stride, spec.padding)
        # The engine may store a record examples-last: the oracle's products
        # read C-order copies (no copy for a C-order record), one step each.
        dflat = np.ascontiguousarray(delta[:, t]).reshape(batch, spec.units, -1)
        grad += np.einsum("bop,bcp->boc", dflat, cols).reshape(
            (batch,) + spec.weight_shape)
    return grad


def per_example_gradients(btrace: BackwardTrace) -> list[Array]:
    """Every example's weight gradient per layer, (batch, *weight_shape),
    contracted directly from a backward trace's errors and input spikes."""
    grads = []
    for spec, delta, prev in zip(btrace.specs, btrace.errors, btrace.inputs):
        if spec.kind == "dense":
            batch, t_steps = delta.shape[:2]
            grads.append(np.einsum("bto,bti->boi",
                                   delta.reshape(batch, t_steps, -1),
                                   prev.reshape(batch, t_steps, -1)))
        else:
            grads.append(_conv_example_grads(spec, delta, prev))
    return grads


def _squared_grad_norms(btrace: BackwardTrace) -> list[Array]:
    """Each layer's per-example squared weight-gradient norms, (batch,) each.

    Dense layers use the Gram identity ||sum_t d_t o_t^T||^2 =
    sum_{t,s} (d_t . d_s)(o_t . o_s); conv layers square the per-example
    kernel gradient, which is smaller than the T*P x T*P Gram matrices.
    """
    out = []
    for spec, delta, prev in zip(btrace.specs, btrace.errors, btrace.inputs):
        batch, t_steps = delta.shape[:2]
        if spec.kind == "dense":
            # C-order copies of examples-last records, as in _conv_example_grads.
            d = np.ascontiguousarray(delta).reshape(batch, t_steps, -1)
            o = np.ascontiguousarray(prev).reshape(batch, t_steps, -1)
            sq = np.einsum("bts,bts->b", d @ d.transpose(0, 2, 1),
                           o @ o.transpose(0, 2, 1))
            # Cancellation across time can round an exact 0 to a tiny negative.
            out.append(np.maximum(sq, 0.0))
        else:
            g = _conv_example_grads(spec, delta, prev)
            out.append((g.reshape(batch, -1) ** 2).sum(axis=1))
    return out


def _batch_norms(net: Network, data: Array, labels: Array, cfg: NeuronConfig,
                 score_layers: tuple[int, ...]) -> GradNormReport:
    """exact_grad_norms of one batch, from one forward and backward pass."""
    trace, loss = forward(net, data, labels, cfg)
    btrace = backward_bptt(net, trace, loss, cfg)
    sq_full = np.zeros(data.shape[0])
    sq_restricted = np.zeros(data.shape[0])
    for l, sq in enumerate(_squared_grad_norms(btrace)):
        sq_full += sq
        if l in score_layers:
            sq_restricted += sq
    scores = spike_aware_score(btrace, score_layers)
    all_layers = tuple(range(len(net)))
    all_scores = scores if score_layers == all_layers \
        else spike_aware_score(btrace, all_layers)
    return GradNormReport(full_norms=np.sqrt(sq_full),
                          restricted_norms=np.sqrt(sq_restricted),
                          scores=scores, losses=loss.per_example_loss,
                          all_layer_scores=all_scores)


def _norm_workers(chunks: int) -> int:
    """Threads for exact_grad_norms: min(chunks, usable CPUs // BLAS threads).

    BLAS threads is the first positive integer among BLAS_THREAD_VARS.  With
    none set, BLAS runs on every CPU itself, so the chunks run serially.
    Where os.sched_getaffinity is missing (macOS, Windows), the usable CPUs
    are os.cpu_count(), or 1 when that is unknown.
    """
    for var in BLAS_THREAD_VARS:
        try:
            blas = int(os.environ.get(var, ""))
        except ValueError:
            continue
        if blas > 0:
            cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
                else os.cpu_count() or 1
            return max(1, min(chunks, cpus // blas))
    return 1


def exact_grad_norms(net: Network, data: Array, labels: Array, cfg: NeuronConfig,
                     score_layers: tuple[int, ...]) -> GradNormReport:
    """Exact per-example gradient norms plus the spike-aware bound, from one
    forward and backward pass per chunk of at most NORM_CHUNK examples.

    The chunks are near-equal (np.array_split), so none is smaller than
    NORM_CHUNK // 2 once N > NORM_CHUNK: a batch of a few examples rounds the
    last layer's GEMM differently from a whole-batch pass.  Their bounds
    depend only on N.  _norm_workers(chunks) threads, the caller among them,
    take the chunks in order and each pass writes its own rows of the report,
    so the report is bit for bit the serial one and at most that many chunks
    are in flight.  If passes fail, the caller re-raises the error of the
    first failing chunk, as the serial loop would.
    """
    n = data.shape[0]
    chunks = max(-(-n // NORM_CHUNK), 1)
    names = [f.name for f in fields(GradNormReport)]
    report = GradNormReport(*(np.empty(n) for _ in names))
    score_layers = resolve_score_layers(score_layers, len(net))
    edges = np.cumsum([0] + [y.shape[0] for y in np.array_split(labels, chunks)])
    todo = iter(range(chunks))
    lock = threading.Lock()
    failed: list[tuple[int, BaseException]] = []

    def work() -> None:
        while not failed:
            with lock:
                index = next(todo, None)
            if index is None:
                return
            start, stop = edges[index], edges[index + 1]
            try:
                part = _batch_norms(net, data[start:stop], labels[start:stop],
                                    cfg, score_layers)
            except BaseException as exc:  # re-raised by the caller
                failed.append((index, exc))
                return
            for name in names:
                getattr(report, name)[start:stop] = getattr(part, name)

    workers = _norm_workers(chunks)
    logger.debug("exact_grad_norms: %d chunks on %d threads", chunks, workers)
    threads = [threading.Thread(target=work) for _ in range(workers - 1)]
    for thread in threads:
        thread.start()
    work()
    for thread in threads:
        thread.join()
    if failed:
        # Every chunk before the first failure was handed out, so ran.
        raise min(failed, key=lambda item: item[0])[1]
    return report


def solve_probabilities_sorted(scores: Array, target_size: float
                               ) -> ProbabilityAssignment:
    """Closed-form optimum via sorting and the clipping-count search.

    Sorts the scores ascending, finds the clipped count M consistent with the
    threshold alpha = (sum of the N-M smallest)/(S-M), and returns
    p_i = min(g_i, alpha) * S / sum_j min(g_j, alpha).
    """
    g = np.asarray(scores, dtype=np.float64)
    n = g.size
    s = float(target_size)
    if np.any(g < 0) or not np.any(g > 0):
        raise ValueError("scores must be non-negative and not all zero")
    if not 0 < s <= n:
        raise ValueError("target size out of range")
    order = np.sort(g)
    csum = np.cumsum(order)
    alpha = None
    for m in range(n):
        if s - m <= 0:
            break
        a = csum[n - m - 1] / (s - m)
        upper_ok = order[n - m - 1] <= a * (1.0 + 1e-12)
        lower_ok = m == 0 or order[n - m] >= a * (1.0 - 1e-12)
        if upper_ok and lower_ok:
            alpha = a
            break
    if alpha is None:
        # All mass on the top S examples (possible only when the rest are 0).
        alpha = order[n - int(round(s))]
    clipped = np.minimum(g, alpha)
    p = clipped * (s / clipped.sum())
    p = np.minimum(p, 1.0)
    return ProbabilityAssignment(probabilities=p,
                                 clipped_count=int((g >= alpha).sum()))


def variance_formula(grad_norms: Array, p: Array, n: int) -> float:
    """Closed-form estimator variance: (1/N^2) sum (1-p_i) g_i^2 / p_i."""
    g = np.asarray(grad_norms, dtype=np.float64)
    p = np.asarray(p, dtype=np.float64)
    if np.any((p <= 0) & (g > 0)):
        raise InfiniteVarianceError("zero probability with nonzero gradient norm")
    safe_p = np.where(p > 0, p, 1.0)
    return float(((1.0 - p) * g ** 2 / safe_p).sum() / n ** 2)


def estimator_stats(net: Network, data: Array, labels: Array, cfg: NeuronConfig,
                    p: Array, draws: int, seed: int = 0) -> MCStats:
    """Monte-Carlo statistics of the inverse-probability gradient estimator.

    Draws Bernoulli masks, forms ghat = (1/N) sum m_i grad_i / p_i, and
    reports its mean, the scalar E||ghat - g||^2, and per-component standard
    errors of the mean.
    """
    if draws < 1:
        raise ValueError("draws must be >= 1")
    trace, loss = forward(net, data, labels, cfg)
    grads = per_example_gradients(backward_bptt(net, trace, loss, cfg))
    n = data.shape[0]
    flat = np.concatenate([g.reshape(n, -1) for g in grads], axis=1)
    g_full = flat.mean(axis=0)
    p = np.asarray(p, dtype=np.float64)
    rng = np.random.default_rng(seed)

    sum_est = np.zeros_like(g_full)
    sum_sq = np.zeros_like(g_full)
    sum_err2 = 0.0
    done = 0
    while done < draws:
        chunk = min(MASK_CHUNK, draws - done)
        masks = rng.random((chunk, n)) < p
        weights = masks / p  # p=0 entries never selected, mask is 0 there
        est = weights @ flat / n  # (chunk, P)
        sum_est += est.sum(axis=0)
        sum_sq += (est ** 2).sum(axis=0)
        sum_err2 += ((est - g_full) ** 2).sum()
        done += chunk
    mean_est = sum_est / draws
    var_comp = np.maximum(sum_sq / draws - mean_est ** 2, 0.0)
    stderr = np.sqrt(var_comp / draws)
    return MCStats(mean_estimate=mean_est, full_gradient=g_full,
                   expected_sq_error=float(sum_err2 / draws),
                   standard_errors=stderr)


def pearson(x: Array, y: Array) -> float:
    """Sample Pearson correlation coefficient."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.size < 2:
        raise ValueError("inputs must be equal-length with at least 2 points")
    xd = x - x.mean()
    yd = y - y.mean()
    denom = np.sqrt((xd ** 2).sum() * (yd ** 2).sum())
    if denom == 0.0:
        raise UndefinedCorrelationError("correlation undefined for constant input")
    return float((xd * yd).sum() / denom)


def fd_gradient_check(net: Network, data: Array, labels: Array, cfg: NeuronConfig,
                      epsilon: float = 1e-5, trials: int = 100,
                      seed: int = 0) -> float:
    """Max relative error of smooth-mode BPTT vs central finite differences.

    Probes `trials` randomly chosen parameters.  The forward pass runs in
    smooth mode so the surrogate backward is the exact gradient and finite
    differences are meaningful.
    """
    if not 1e-7 <= epsilon <= 1e-3:
        raise ValueError("epsilon outside [1e-7, 1e-3]")
    rng = np.random.default_rng(seed)
    trace, loss = forward(net, data, labels, cfg, smooth=True)
    analytic = backward_bptt(net, trace, loss, cfg).weight_grads()

    def mean_loss(candidate: Network) -> float:
        _, lo = forward(candidate, data, labels, cfg, smooth=True)
        return float(lo.per_example_loss.mean())

    worst = 0.0
    sizes = [w.size for w in net.weights]
    total = sum(sizes)
    for _ in range(trials):
        flat_idx = int(rng.integers(total))
        layer = 0
        while flat_idx >= sizes[layer]:
            flat_idx -= sizes[layer]
            layer += 1
        idx = np.unravel_index(flat_idx, net.weights[layer].shape)
        perturbed = net.astype(net.dtype)
        perturbed.layers[layer][1][idx] += epsilon
        up = mean_loss(perturbed)
        perturbed.layers[layer][1][idx] -= 2.0 * epsilon
        down = mean_loss(perturbed)
        fd = (up - down) / (2.0 * epsilon)
        an = analytic[layer][idx]
        scale = max(abs(fd), abs(an))
        if scale < 1e-10:
            continue
        worst = max(worst, abs(fd - an) / scale)
    return worst


def project_to_capped_simplex(v: Array, total: float) -> Array:
    """Project onto {p : sum p = total, 0 <= p <= 1} by 100 bisections on a shift.

    Works along the last axis: v is one vector or a batch of rows.
    """
    v = np.asarray(v, dtype=np.float64)
    lo = v.min(axis=-1, keepdims=True) - 1.0 - total
    hi = v.max(axis=-1, keepdims=True) + 1.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        over = np.clip(v - mid, 0.0, 1.0).sum(axis=-1, keepdims=True) > total
        lo = np.where(over, mid, lo)
        hi = np.where(over, hi, mid)
    return np.clip(v - 0.5 * (lo + hi), 0.0, 1.0)


def measure_correlations(net: Network, data: Array, labels: Array,
                         cfg: NeuronConfig) -> CorrelationReport:
    """exact_grad_norms over every layer, correlated.  Only perfbench calls
    it; delete it once perfbench calls `correlations()` itself."""
    return exact_grad_norms(net, data, labels, cfg,
                            tuple(range(len(net)))).correlations()
