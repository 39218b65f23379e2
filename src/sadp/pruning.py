"""Selection machinery: importance scores, variance-minimizing probabilities,
smoothing, the dynamic pruning schedule, Bernoulli sampling, loss weights,
and `select`, the one per-epoch selection step that combines them.

All of it computes in float64, whatever the dtype of the engine trace a
score reads: training's float32 errors are promoted before they are squared,
and spike counts are exact in either dtype.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .snn import Array, BackwardTrace, patch_count

logger = logging.getLogger(__name__)

# Probabilities within this distance of 1 are treated as clipped; avoids
# infinite redistribution loops from floating-point residue.
CLAMP_TOL = 1e-12


class ConfigError(ValueError):
    pass


SCORES = ("spike_aware", "loss", "uniform")


@dataclass(frozen=True)
class PruneConfig:
    """Pruning schedule, smoothing floor and importance score of a run.

    score_layers are the layers the spike-aware score sums over; None means
    the last layer; `resolve_score_layers` checks them against a net.
    A run without pruning is NO_PRUNING: ratio 0 selects every example in
    every epoch, with no score, solve or draw.
    """

    ratio: float
    max_ratio: float
    smoothing_constant: float = 0.0
    exact_average: bool = False
    score: str = "spike_aware"
    score_layers: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if self.score not in SCORES:
            raise ValueError(f"score must be one of {'|'.join(SCORES)}, "
                             f"got {self.score!r}")
        if not 0.0 <= self.ratio < 1.0:
            raise ValueError(f"ratio must lie in [0, 1), got {self.ratio}")
        if not self.ratio <= self.max_ratio <= 1.0:
            raise ValueError(f"max_ratio must lie in [ratio, 1], got {self.max_ratio}")
        if not 0.0 <= self.smoothing_constant < 1.0:
            raise ValueError(f"smoothing constant must lie in [0, 1), "
                             f"got {self.smoothing_constant}")


NO_PRUNING = PruneConfig(ratio=0.0, max_ratio=0.0, score="uniform")


@dataclass
class ProbabilityAssignment:
    """Per-example selection probabilities plus solver diagnostics."""

    probabilities: Array
    gamma: float = 0.0
    clipped_count: int = 0
    iterations: int = 0


def resolve_score_layers(score_layers: tuple[int, ...] | None,
                         n_layers: int) -> tuple[int, ...]:
    """The layers a spike-aware score sums over in a net of n_layers: None
    means the last layer; otherwise a non-empty set of indices in
    [0, n_layers), each named once."""
    if score_layers is None:
        return (n_layers - 1,)
    layers = tuple(score_layers)
    if not layers:
        raise ConfigError("score layers must not be empty")
    for l in layers:
        if not 0 <= l < n_layers:
            raise ConfigError(f"score layer {l} out of range for {n_layers} layers")
    if len(set(layers)) != len(layers):
        raise ConfigError(f"score layers {layers} name a layer twice")
    return layers


def spike_aware_score(btrace: BackwardTrace,
                      score_layers: tuple[int, ...] | None = None) -> Array:
    """Per-example sum over layers and time of ||error|| * ||input spikes||.

    This upper-bounds each example's weight-gradient norm restricted to
    score_layers (None: the last layer).  Every term carries the
    sqrt(patch count) factor a conv layer's bound needs; a dense layer counts
    one patch, so its factor is exactly 1 and the score is always a bound.
    """
    score_layers = resolve_score_layers(score_layers, len(btrace.specs))
    batch, t_steps = btrace.errors[0].shape[:2]
    total = np.zeros(batch)
    for l in score_layers:
        delta = np.asarray(btrace.errors[l], dtype=np.float64).reshape(
            batch, t_steps, -1)
        o_prev = btrace.inputs[l].reshape(batch, t_steps, -1)
        dn = np.sqrt((delta ** 2).sum(axis=2))
        # ||o||^2 as a stacked dot product in the trace's dtype, cheaper than
        # squaring and summing: exact for 0/1 spikes (a float32 count is exact
        # up to 2**24), equal to that sum within round-off otherwise.
        on = np.sqrt((o_prev[..., None, :] @ o_prev[..., None])[..., 0, 0],
                     dtype=np.float64)
        total += (dn * on).sum(axis=1) * np.sqrt(patch_count(btrace.specs[l]))
    return total


def loss_score(loss) -> Array:
    """Baseline importance score: the per-example loss itself, in float64."""
    return np.array(loss.per_example_loss, dtype=np.float64)


def _validate_scores(scores: Array, target_size: float) -> Array:
    scores = np.asarray(scores, dtype=np.float64)
    n = scores.size
    if np.any(scores < 0) or not np.all(np.isfinite(scores)):
        raise ValueError("scores must be finite and non-negative")
    if not 0 < target_size <= n:
        raise ValueError(f"target size {target_size} out of range for N={n}")
    return scores


def solve_probabilities(scores: Array, target_size: float) -> ProbabilityAssignment:
    """Variance-minimizing probabilities by iterative redistribution.

    Each round spreads the mass not yet clipped in proportion to score over
    the index array of unclipped nonzero-score examples, clamps p >= 1 to
    exactly 1 and drops those from the array.  Terminates in at most N rounds
    and matches the sorting-based closed form.  With every score zero, every
    feasible p has zero variance, so the uniform S/N is returned after 0
    rounds.
    """
    scores = _validate_scores(scores, target_size)
    n = scores.size
    if not np.any(scores):
        logger.warning("all scores zero; falling back to uniform probabilities")
        return ProbabilityAssignment(probabilities=np.full(n, target_size / n))
    p = np.zeros(n)
    live = np.flatnonzero(scores > 0)  # unclipped nonzero-score examples
    clipped = iterations = 0
    while live.size:
        iterations += 1
        c = target_size - clipped
        g = scores[live]
        p_live = g * (c / g.sum())
        over = p_live >= 1.0 - CLAMP_TOL
        p_live[over] = 1.0
        p[live] = p_live
        if not np.any(over):
            break
        clipped += int(over.sum())
        live = live[~over]
    else:
        # Only zero-score examples remain but mass is still owed (can only
        # happen when target_size forces them in); spread it uniformly.
        iterations += 1
        c = target_size - clipped
        if c > CLAMP_TOL:
            p[scores == 0] = c / (n - clipped)
    return ProbabilityAssignment(probabilities=p, clipped_count=clipped,
                                 iterations=iterations)


def smooth_probabilities(scores: Array, target_size: float,
                         beta: float) -> ProbabilityAssignment:
    """Enforce a probability floor of beta via one uniform score offset.

    Identity when beta is 0 or the smallest nonzero-score probability already
    reaches beta.  Otherwise, on the unclipped set R of the base solve, with
    G = sum_R g and c = S - |clipped|, gamma = (beta*G - c*g_min)/(c - beta*|R|)
    and p_R = (g + gamma)*c/(G + |R|*gamma) put that probability exactly on
    beta; zero-score examples get the offset too, so none is starved.  No
    re-solve is needed: (g_i + gamma)/(G + |R|*gamma) lies between g_i/G and
    1/|R|, so p_i lies between its base value and the mean c/|R| of R, the
    largest p in R can only fall, and no new example clips.  If
    c - beta*|R| <= 0 no offset reaches the floor; R's nonzero-score examples
    then share c uniformly, with a logged warning.
    """
    if not 0.0 <= beta < 1.0:
        raise ConfigError("beta must lie in [0, 1)")
    base = solve_probabilities(scores, target_size)
    scores = np.asarray(scores, dtype=np.float64)
    p = base.probabilities
    r = np.flatnonzero(p < 1.0)  # the unclipped set R
    nz = r[scores[r] > 0]
    if not nz.size or p[nz].min() >= beta - 1e-12:
        return base

    p = p.copy()
    c = target_size - (scores.size - r.size)
    denom = c - beta * r.size
    if denom <= 0:
        logger.warning("smoothing constant %.3g infeasible for |R|=%d, c=%.3g; "
                       "falling back to uniform probabilities", beta, r.size, c)
        p[nz] = c / nz.size  # R's zero-score examples keep p = 0
        gamma = 0.0
    else:
        gamma = (beta * scores[nz].sum() - c * scores[nz].min()) / denom
        shifted = scores[r] + gamma
        p[r] = shifted * (c / shifted.sum())
    return ProbabilityAssignment(probabilities=p, gamma=float(gamma),
                                 clipped_count=base.clipped_count,
                                 iterations=base.iterations)


def schedule_ratio(k: int, epochs: int, cfg: PruneConfig) -> float:
    """Pruning ratio for epoch k of epochs: linear from 2r - r_max up to r_max."""
    if not 1 <= k <= epochs:
        raise ValueError(f"epoch {k} outside [1, {epochs}]")
    r, rmax = cfg.ratio, cfg.max_ratio
    rk = 2.0 * r - rmax + k * (2.0 * rmax - 2.0 * r) / epochs
    if cfg.exact_average:
        # Shift so the schedule mean is exactly r instead of r + (rmax-r)/K.
        rk -= (rmax - r) / epochs
    clamped = min(max(rk, 0.0), np.nextafter(1.0, 0.0))
    if clamped != rk:
        logger.debug("schedule ratio %.4f at epoch %d clamped to %.4f", rk, k, clamped)
    return clamped


def target_size(ratio: float, n: int) -> int:
    """S, the expected number of examples kept at pruning ratio r."""
    return int(round((1.0 - ratio) * n))


def method_probabilities(score: str, scores: Array, target: int,
                         beta: float) -> ProbabilityAssignment:
    """Selection probabilities that a score kind gives at target size S.

    `uniform` gives p = S/N, and so does every kind at S = 0 or N, where
    S/N (0 or 1) is the only feasible p: no solve.  The other kinds solve for
    the variance-minimizing p under floor beta (`smooth_probabilities`).
    """
    n = len(scores)
    if score == "uniform" or target in (0, n):
        return ProbabilityAssignment(probabilities=np.full(n, target / n))
    return smooth_probabilities(scores, target, beta)


def sample_mask(assignment: ProbabilityAssignment, seed) -> Array:
    """Independent Bernoulli draw per example, deterministic given the seed."""
    p = assignment.probabilities
    rng = np.random.default_rng(seed)
    return (rng.random(p.size) < p).astype(np.int64)


def loss_weights(assignment: ProbabilityAssignment, selected: Array,
                 target_size: float) -> Array:
    """Inverse-probability weights for the selected example indices.

    w_i = S/(N*p_i); with batch loss (1/B) sum w_i * loss_i the expected batch
    gradient equals the full-data mean gradient.
    """
    p_sel = assignment.probabilities[selected]
    if np.any(p_sel <= 0):
        raise RuntimeError("selected example has zero probability")
    return target_size / (assignment.probabilities.size * p_sel)


@dataclass
class Selection:
    """One epoch's draw: the scheduled ratio r_k, the probabilities, and the
    selected example indices with their loss weights, in training order."""

    ratio: float
    assignment: ProbabilityAssignment
    indices: Array
    weights: Array


def select(k: int, epochs: int, scores: Array, cfg: PruneConfig,
           sample_seed: int, shuffle_seed: int) -> Selection:
    """Epoch k's selection: r_k, p at S = target_size(r_k, N), the examples
    drawn with seed (0, sample_seed, k) -- at S = 0 or N, p fixes them and
    nothing is drawn -- and their S/(N*p) weights, shuffled with seed
    (shuffle_seed, k)."""
    n = len(scores)
    ratio = schedule_ratio(k, epochs, cfg)
    target = target_size(ratio, n)
    assignment = method_probabilities(cfg.score, scores, target,
                                      cfg.smoothing_constant)
    if target in (0, n):
        selected = np.arange(target)  # none or every example
    else:
        selected = np.flatnonzero(sample_mask(assignment, [0, sample_seed, k]))
    weights = loss_weights(assignment, selected, target)
    order = np.random.default_rng([shuffle_seed, k]).permutation(selected.size)
    return Selection(ratio, assignment, selected[order], weights[order])
