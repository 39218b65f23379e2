"""The oracle check registry behind `sadp verify` and the acceptance tests.

Each check pits an implementation path against an independent oracle (sorted
closed form, Monte-Carlo, finite differences, brute-force feasible vectors)
and returns (ok, detail).  CHECKS lists them in report order: `sadp verify`
prints one PASS/FAIL line per entry, and pytest runs each entry as a test.
A check draws its random instances from its own generator, seeded with a
fixed base plus the `seed` argument.
"""

from __future__ import annotations

import dataclasses
import functools
import time
from typing import Callable

import numpy as np

from . import oracle
from .data import gen_synthetic_split
from .pruning import PruneConfig, schedule_ratio, smooth_probabilities, \
    solve_probabilities, spike_aware_score
from .snn import BackwardTrace, NeuronConfig, Network, backward_bptt, forward
from .training import ENGINE_DTYPE, TrainConfig, run_training


def random_score_instance(rng: np.random.Generator, n: int) -> np.ndarray:
    """Half-normal scores with occasional heavy-tail outliers to force clipping."""
    g = np.abs(rng.normal(size=n))
    heavy = rng.random(n) < 0.1
    g[heavy] *= rng.uniform(5.0, 50.0, size=int(heavy.sum()))
    return g


def spike_batch(rng, n, t, dim, classes, density=0.4):
    x = (rng.random((n, t, dim)) < density).astype(float)
    return x, rng.integers(0, classes, n)


def train_synthetic(pcfg, seed=0, epochs=8, arch="dense:12,dense:4", n=96,
                    test=True, **overrides):
    """Train a fresh network on a synthetic split; returns (net, metrics rows)."""
    params = dict(classes=4, dim=16, t=4, noise=0.15, lr=0.05, batch=32,
                  threshold=0.8, decay=0.1)
    params.update(overrides)
    train, test_h = gen_synthetic_split(params["classes"], n, max(n // 4, 32),
                                        params["t"], params["dim"],
                                        params["noise"], seed=seed)
    net = Network.from_arch(arch, (params["dim"],), seed=seed)
    ncfg = NeuronConfig(decay=params["decay"], threshold=params["threshold"],
                        time_steps=params["t"])
    tcfg = TrainConfig(epochs=epochs, batch_size=params["batch"],
                       lr=params["lr"], momentum=0.9)
    return net, run_training(net, train, test_h if test else None, ncfg, pcfg, tcfg)


def check_solver_equivalence(seed: int = 0) -> tuple[bool, str]:
    """Iterative clamping and the sorted closed form agree on 1,000 instances."""
    rng = np.random.default_rng(100 + seed)
    t0 = time.perf_counter()
    worst, in_range = 0.0, True
    for _ in range(1000):
        n = int(rng.integers(2, 257))
        g = random_score_instance(rng, n)
        s = int(rng.integers(1, n + 1))
        it = solve_probabilities(g, s).probabilities
        so = oracle.solve_probabilities_sorted(g, s).probabilities
        worst = max(worst, float(np.abs(it - so).max()),
                    abs(float(it.sum()) - s))
        in_range &= bool(it.min() >= 0.0 and it.max() <= 1.0)
    elapsed = time.perf_counter() - t0
    return (worst <= 1e-9 and in_range and elapsed < 5.0,
            f"max deviation {worst:.2e} over 1000 instances in {elapsed:.2f}s"
            + ("" if in_range else ", probability outside [0, 1]"))


def check_solver_optimality(seed: int = 0) -> tuple[bool, str]:
    """Solver output beats 1,000 random feasible vectors on each instance."""
    rng = np.random.default_rng(101 + seed)
    t0 = time.perf_counter()
    ok, n = True, 16
    for _ in range(50):
        g = random_score_instance(rng, n)
        s = int(rng.integers(2, n))
        p_opt = np.maximum(solve_probabilities(g, s).probabilities, 1e-300)
        best = oracle.variance_formula(g, p_opt, n)
        cand = oracle.project_to_capped_simplex(rng.random((1000, n)) * 2.0, s)
        cand = np.clip(cand, 1e-12, 1.0)
        objs = ((1.0 - cand) * g ** 2 / cand).sum(axis=1) / n ** 2
        ok &= bool(objs.min() >= best - 1e-9)
    elapsed = time.perf_counter() - t0
    return (ok and elapsed < 30.0,
            f"50 instances x 1000 feasible vectors in {elapsed:.2f}s")


def check_smoothing(seed: int = 0) -> tuple[bool, str]:
    """On 500 vectors where the floor binds: floor, sum and score order hold;
    plus the worked case with gamma = 5."""
    rng = np.random.default_rng(104 + seed)
    worst_min, worst_sum, mono_ok, triggered = 0.0, 0.0, True, 0
    for _ in range(20000):
        if triggered >= 500:
            break
        n = int(rng.integers(8, 65))
        g = random_score_instance(rng, n) + 1e-6
        s = int(rng.integers(2, max(3, n // 2)))
        beta = float(rng.uniform(0.01, max(0.02, 0.8 * s / n)))
        a = smooth_probabilities(g, s, beta)
        p = a.probabilities
        if a.gamma <= 0:
            continue
        triggered += 1
        nz = (p < 1.0) & (g > 0)
        if np.any(nz):
            worst_min = max(worst_min, abs(float(p[nz].min()) - beta))
        worst_sum = max(worst_sum, abs(float(p.sum()) - s))
        order = np.argsort(g)
        mono_ok &= bool(np.all(np.diff(p[order]) >= -1e-9))
    worked = smooth_probabilities(np.array([1.0, 9.0]), 1, 0.3)
    exact = (abs(worked.gamma - 5.0) <= 1e-12
             and np.allclose(worked.probabilities, [0.3, 0.7], atol=1e-12))
    ok = (triggered >= 500 and worst_min <= 1e-9 and worst_sum <= 1e-9
          and mono_ok and exact)
    return ok, (f"{triggered} triggered vectors: floor err {worst_min:.1e}, "
                f"sum err {worst_sum:.1e}, worked case gamma={worked.gamma:g}")


def check_schedule(seed: int = 0) -> tuple[bool, str]:
    """Ramp endpoint and mean, a constant ramp, and the exact-average mode."""
    cfg = PruneConfig(ratio=0.5, max_ratio=0.7)
    end = schedule_ratio(100, 100, cfg)
    rs = np.array([schedule_ratio(k, 100, cfg) for k in range(1, 101)])
    const_cfg = PruneConfig(ratio=0.4, max_ratio=0.4)
    const_ok = all(schedule_ratio(k, 10, const_cfg) == 0.4 for k in range(1, 11))
    exact_cfg = PruneConfig(ratio=0.5, max_ratio=0.7, exact_average=True)
    exact_mean = np.mean([schedule_ratio(k, 100, exact_cfg)
                          for k in range(1, 101)])
    ok = (end == 0.7 and const_ok
          and abs(rs.mean() - (0.5 + 0.2 / 100)) < 1e-12
          and abs(exact_mean - 0.5) < 1e-12)
    return bool(ok), (f"endpoint {end:g}, mean offset {rs.mean() - 0.5:.4f}, "
                      f"exact-average mean {exact_mean:g}")


def check_bptt_correctness(seed: int = 0) -> tuple[bool, str]:
    """Smooth-mode BPTT matches finite differences; silent inputs give zero
    weight gradients."""
    rng = np.random.default_rng(105 + seed)
    cfg = NeuronConfig(decay=0.5, reset_detached=False, time_steps=4)
    net = Network.from_arch("dense:16,dense:4", (24,), seed=3)
    data, labels = spike_batch(rng, 6, 4, 24, 4, density=0.5)
    err = oracle.fd_gradient_check(net, data, labels, cfg, trials=100, seed=11)

    znet = Network.from_arch("dense:16,dense:4", (24,), seed=1)
    zcfg = NeuronConfig(decay=0.5, time_steps=3)
    ztrace = forward(znet, np.zeros((4, 3, 24)), np.zeros(4, dtype=int), zcfg)
    grads = oracle.per_example_gradients(backward_bptt(znet, *ztrace, zcfg))
    zero_ok = len(grads) == len(znet) and all(
        float(np.abs(g).max()) == 0.0 for g in grads)
    return (err <= 1e-4 and zero_ok,
            f"finite-difference max rel err {err:.1e} over 100 params, "
            f"zero-spike gradients {'exactly zero' if zero_ok else 'NONZERO'}")


# Gradient-path cases: dense with detached and with attached reset, conv with
# stride 2 and padding 1, conv with stride 1 and padding 1 as the
# benchmark's conv net has, and a backprojected 1x1 conv layer of stride 2,
# whose gaps no window reads; name -> (arch, input shape, reset_detached).
# Each case draws its data from the shared generator, so a new case goes last.
GRADIENT_CASES = {
    "dense detached": ("dense:16,dense:4", (24,), True),
    "dense attached": ("dense:16,dense:4", (24,), False),
    "conv s2p1": ("conv:4x3x3s2p1,conv:4x3x3,dense:4", (2, 8, 8), True),
    "conv p1": ("conv:4x3x3p1,conv:4x3x3,dense:4", (2, 6, 6), True),
    "conv k1s2": ("conv:4x3x3p1,conv:4x1x1s2,dense:4", (2, 7, 7), True),
}


def _gradient_cases(rng: np.random.Generator, n: int = 16):
    """Yield (name, net, data, labels, cfg) for each of GRADIENT_CASES: n
    examples at T=3 under a wide surrogate, data drawn from rng before labels.
    """
    for name, (arch, shape, detached) in GRADIENT_CASES.items():
        cfg = NeuronConfig(decay=0.5, surrogate_width=2.0,
                           reset_detached=detached, time_steps=3)
        net = Network.from_arch(arch, shape, seed=4, init_scale=2.0)
        data = (rng.random((n, 3) + shape) < 0.5).astype(float)
        yield name, net, data, rng.integers(0, 4, n), cfg


def check_weighted_gradient(seed: int = 0) -> tuple[bool, str]:
    """The batch gradient under non-uniform loss weights matches the oracle's
    per-example gradients contracted with the same weights, on GRADIENT_CASES.
    A wide surrogate gives every example a nonzero gradient in some layer,
    and the check demands it, so no example goes unchecked."""
    rng = np.random.default_rng(106 + seed)
    ok, silent, parts = True, 0, []
    for name, net, data, labels, cfg in _gradient_cases(rng):
        bt = backward_bptt(net, *forward(net, data, labels, cfg), cfg)
        w = rng.uniform(0.1, 5.0, 16)
        fused, pers = bt.weight_grads(w), oracle.per_example_gradients(bt)
        ok &= len(pers) == len(fused) == len(net)
        live = np.zeros(16, dtype=bool)
        worst = 0.0
        for g, per in zip(fused, pers):
            live |= per.reshape(16, -1).any(axis=1)
            ref = np.tensordot(w, per, axes=(0, 0)) / w.size
            scale = float(np.abs(ref).max())
            ok &= scale > 0.0
            worst = max(worst, float(np.abs(g - ref).max()) / max(scale, 1e-300))
        ok &= worst <= 1e-12
        silent += int((~live).sum())
        parts.append(f"{name} {worst:.1e}")
    return bool(ok and silent == 0), ("max rel err " + ", ".join(parts)
                                      + f"; {silent} all-zero examples")


def check_exact_norms(seed: int = 0) -> tuple[bool, str]:
    """Per-example gradient norms from the Gram identity match norms of the
    oracle's per-example gradients, full and restricted to the first layer,
    on GRADIENT_CASES; a silent batch gives exact zeros.  A wide surrogate
    keeps nearly every reference norm nonzero; where one is zero, the
    relative error demands an exact zero."""
    rng = np.random.default_rng(107 + seed)
    ok, zero_ok, parts = True, True, []
    for name, net, data, labels, cfg in _gradient_cases(rng):
        rep = oracle.exact_grad_norms(net, data, labels, cfg, (0,))
        grads = oracle.per_example_gradients(
            backward_bptt(net, *forward(net, data, labels, cfg), cfg))
        sq = [(g.reshape(16, -1) ** 2).sum(axis=1) for g in grads]
        worst = 0.0
        for got, ref in ((rep.full_norms, np.sqrt(sum(sq))),
                         (rep.restricted_norms, np.sqrt(sq[0]))):
            ok &= bool(ref.any())
            worst = max(worst, float((np.abs(got - ref)
                                      / np.maximum(ref, 1e-300)).max()))
        ok &= worst <= 1e-12
        silent = oracle.exact_grad_norms(net, np.zeros_like(data), labels, cfg,
                                         (0,))
        zero_ok &= not (silent.full_norms.any() or silent.restricted_norms.any())
        parts.append(f"{name} {worst:.1e}")
    return bool(ok and zero_ok), (
        "max rel err " + ", ".join(parts) + "; silent batch "
        + ("exactly zero" if zero_ok else "NONZERO"))


# float32-agreement tolerances: the largest gradient error relative to each
# layer's largest float64 entry (float32's unit round-off is 6e-8), and the
# share of the float64 spikes the float32 engine fires differently.
FLOAT32_GRAD_TOL = 1e-5
FLOAT32_FLIP_TOL = 1e-4


def check_float32_agreement(seed: int = 0) -> tuple[bool, str]:
    """The engine in the training dtype (float32) agrees with the float64
    oracle on one batch of 256 examples per GRADIENT_CASES entry: its weighted
    batch gradient within FLOAT32_GRAD_TOL of the oracle's per-example
    gradients contracted with the same weights, and at most FLOAT32_FLIP_TOL
    of the oracle's forward spikes flipped."""
    rng = np.random.default_rng(108 + seed)
    n, ok, parts = 256, True, []
    for name, net, data, labels, cfg in _gradient_cases(rng, n):
        ref_trace, ref_loss = forward(net, data, labels, cfg)
        ref = oracle.per_example_gradients(
            backward_bptt(net, ref_trace, ref_loss, cfg))
        w = rng.uniform(0.1, 5.0, n)
        engine = net.astype(ENGINE_DTYPE)
        trace, loss = forward(engine, data, labels, cfg)
        grads = backward_bptt(engine, trace, loss, cfg).weight_grads(w)
        worst = 0.0
        for g, per in zip(grads, ref):
            want = np.tensordot(w, per, axes=(0, 0)) / n
            scale = float(np.abs(want).max())
            ok &= scale > 0.0 and g.dtype == ENGINE_DTYPE
            worst = max(worst, float(np.abs(g - want).max()) / max(scale, 1e-300))
        flips = sum(int((a != b).sum())
                    for a, b in zip(trace.spikes[1:], ref_trace.spikes[1:]))
        share = flips / sum(a.size for a in ref_trace.spikes[1:])
        ok &= worst <= FLOAT32_GRAD_TOL and share <= FLOAT32_FLIP_TOL
        parts.append(f"{name} {worst:.1e}, {flips} flips")
    return bool(ok), ("max rel err " + "; ".join(parts)
                      + f" (limits {FLOAT32_GRAD_TOL:g} and "
                      f"{FLOAT32_FLIP_TOL:g} of spikes)")


@functools.cache
def _mc_run(seed: int):
    """Two-layer dense network, T=4, 64 examples, 20,000 mask draws; one run
    per seed, which both Monte-Carlo checks read."""
    rng = np.random.default_rng(102 + seed)
    cfg = NeuronConfig(decay=0.5, time_steps=4)
    net = Network.from_arch("dense:16,dense:4", (24,), seed=7)
    data, labels = spike_batch(rng, 64, 4, 24, 4)
    rep = oracle.exact_grad_norms(net, data, labels, cfg, (0, 1))
    p = np.clip(solve_probabilities(rep.full_norms + 1e-9, 32).probabilities,
                1e-6, 1.0)
    t0 = time.perf_counter()
    stats = oracle.estimator_stats(net, data, labels, cfg, p, draws=20000, seed=5)
    return rep, p, stats, time.perf_counter() - t0


def check_estimator_unbiased(seed: int = 0) -> tuple[bool, str]:
    """The reweighted estimator's mean matches the full gradient."""
    _, _, stats, elapsed = _mc_run(seed)
    dev = np.abs(stats.mean_estimate - stats.full_gradient)
    active = stats.standard_errors > 0
    ok = bool(np.all(dev[active] <= 4.0 * stats.standard_errors[active])
              and np.all(dev[~active] <= 1e-12))
    return (ok and elapsed < 180.0,
            f"20000 draws, componentwise within 4 standard errors, {elapsed:.1f}s")


def check_variance_formula(seed: int = 0) -> tuple[bool, str]:
    """Monte-Carlo variance matches the closed form, and the solver's
    probabilities beat uniform ones on non-uniform norms."""
    rep, p, stats, _ = _mc_run(seed)
    n = rep.full_norms.size
    formula = oracle.variance_formula(rep.full_norms, p, n)
    rel = abs(stats.expected_sq_error - formula) / formula
    uniform = oracle.variance_formula(rep.full_norms, np.full(n, 32 / n), n)
    ok = np.ptp(rep.full_norms) > 0 and rel <= 0.05 and formula < uniform
    return bool(ok), (f"Monte-Carlo vs closed form rel err {rel:.3f}, "
                      f"solver {formula:.3e} < uniform {uniform:.3e}")


def check_score_bound(seed: int = 0) -> tuple[bool, str]:
    """Spike-aware scores upper-bound exact norms; tight for one layer at T=1,
    and near-tight for one hand-built conv trace, which pins the patch factor."""
    rng = np.random.default_rng(103 + seed)
    cfg = NeuronConfig(decay=0.5, time_steps=4)
    net = Network.from_arch("dense:16,dense:8,dense:4", (24,), seed=9)
    data, labels = spike_batch(rng, 256, 4, 24, 4)
    rep = oracle.exact_grad_norms(net, data, labels, cfg, (0, 1, 2))
    dense_ok = bool(np.all(rep.scores >= rep.restricted_norms - 1e-9))

    one_cfg = NeuronConfig(decay=0.5, time_steps=1)
    one_net = Network.from_arch("dense:4", (24,), seed=10)
    d1, l1 = spike_batch(rng, 64, 1, 24, 4, density=0.6)
    one = oracle.exact_grad_norms(one_net, d1, l1, one_cfg, (0,))
    eq_err = float(np.abs(one.scores - one.restricted_norms).max())

    # Conv nets, all layers; the patch factor reads LayerSpec's derived geometry.
    conv_cfg = NeuronConfig(decay=0.5, time_steps=3)
    held = []
    for arch, shape in (("conv:4x3x3,dense:4", (1, 8, 8)),
                        ("conv:4x3x3s2p1,conv:4x3x3,dense:4", (2, 8, 8))):
        conv_net = Network.from_arch(arch, shape, seed=2, init_scale=2.0)
        cdata = (rng.random((64, 3) + shape) < 0.5).astype(float)
        crep = oracle.exact_grad_norms(conv_net, cdata, rng.integers(0, 4, 64),
                                       conv_cfg, tuple(range(len(conv_net))))
        held.append(int(np.sum(crep.scores >= crep.restricted_norms - 1e-9)))

    # Near-tight: all-ones spikes and errors through conv:1x3x3p1 on 6x6 give
    # exact norm 86 and score 6*6*sqrt(36) = 216, so a patch factor of 1 (36)
    # or 2 (72) fails while the tighter ceil(k/s) = 3 (108) would still hold.
    spec = Network.from_arch("conv:1x3x3p1", (1, 6, 6)).specs[0]
    ones = np.ones((1, 1, 1, 6, 6))
    tight_score = float(spike_aware_score(
        BackwardTrace(errors=[ones], inputs=[ones], specs=[spec]), (0,))[0])
    tight_norm = float(np.linalg.norm(oracle._conv_example_grads(spec, ones, ones)))
    tight_ok = tight_score >= tight_norm - 1e-9
    return (dense_ok and eq_err <= 1e-9 and held == [64, 64] and tight_ok,
            f"dense bound {'holds' if dense_ok else 'violated'} on 256, "
            f"single-layer equality err {eq_err:.1e}, conv bound with patch factor "
            f"holds on {held[0]}/64 (stride 1), {held[1]}/64 (stride 2, padding 1), "
            f"near-tight conv score {tight_score:.6g} vs norm {tight_norm:.6g}")


def check_correlation_ordering(seed: int = 0) -> tuple[bool, str]:
    """After 5 warmup epochs the spike-aware score tracks exact gradient norms
    more closely than the loss does, for each of three seeds."""
    wins, parts = 0, []
    for s in range(seed, seed + 3):
        train, _ = gen_synthetic_split(4, 256, 8, 8, 24, noise=0.15, seed=s)
        net = Network.from_arch("dense:16,dense:4", (24,), seed=s)
        cfg = NeuronConfig(decay=0.5, time_steps=8)
        tcfg = TrainConfig(epochs=5, batch_size=32, lr=0.05, momentum=0.9,
                           schedule="constant", seed_sample=s + 100,
                           seed_shuffle=s + 200)
        run_training(net, train, None, cfg, None, tcfg)
        rep = oracle.exact_grad_norms(net, train.data, train.labels, cfg,
                                      tuple(range(len(net)))).correlations()
        wins += rep.score_vs_norm > rep.loss_vs_norm
        parts.append(f"seed {s}: {rep.score_vs_norm:.3f} vs {rep.loss_vs_norm:.3f}")
    return wins == 3, f"{wins}/3 seeds ({', '.join(parts)})"


def check_pearson(seed: int = 0) -> tuple[bool, str]:
    """Pearson correlation matches a hand-computed value."""
    val = oracle.pearson(np.array([1.0, 2.0, 3.0]), np.array([2.0, 4.0, 7.0]))
    # By hand: covariance sum 5, variance sums 2 and 114/9, so r = 15/sqrt(228).
    return abs(val - 15.0 / np.sqrt(228.0)) < 1e-12, f"hand-checked value {val:.6f}"


def check_zero_ratio_identity(seed: int = 0) -> tuple[bool, str]:
    """Pruning machinery at ratio zero is byte-identical to plain training."""
    plain_net, plain_rows = train_synthetic(None, seed=seed)
    pcfg = PruneConfig(ratio=0.0, max_ratio=0.0, smoothing_constant=0.3)
    sadp_net, sadp_rows = train_synthetic(pcfg, seed=seed)
    ok = all(np.array_equal(a, b)
             for a, b in zip(plain_net.weights, sadp_net.weights))
    for ra, rb in zip(plain_rows, sadp_rows):
        da, db = dataclasses.asdict(ra), dataclasses.asdict(rb)
        da.pop("wall_s"), db.pop("wall_s")
        ok &= da == db
    return ok, ("weights and metrics (wall clock aside) "
                f"{'bit-identical to' if ok else 'differ from'} plain run")


CHECKS: dict[str, Callable[[int], tuple[bool, str]]] = {
    "solver-equivalence": check_solver_equivalence,
    "solver-optimality": check_solver_optimality,
    "smoothing": check_smoothing,
    "schedule": check_schedule,
    "bptt-correctness": check_bptt_correctness,
    "weighted-gradient": check_weighted_gradient,
    "exact-norms": check_exact_norms,
    "float32-agreement": check_float32_agreement,
    "estimator-unbiased": check_estimator_unbiased,
    "variance-formula": check_variance_formula,
    "score-bound": check_score_bound,
    "correlation-ordering": check_correlation_ordering,
    "pearson": check_pearson,
    "zero-ratio-identity": check_zero_ratio_identity,
}


def result_line(ok: bool, name: str, detail: str) -> str:
    return f"{'PASS' if ok else 'FAIL'} {name}: {detail}"


def run_suite(seed: int = 0) -> tuple[bool, list[str]]:
    """Run every check in CHECKS; returns (all_passed, report_lines)."""
    lines, passed = [], 0
    for name, check in CHECKS.items():
        ok, detail = check(seed)
        lines.append(result_line(ok, name, detail))
        passed += bool(ok)
    all_ok = passed == len(CHECKS)
    lines.append(f"{'ALL CHECKS PASSED' if all_ok else 'SOME CHECKS FAILED'} "
                 f"({passed}/{len(CHECKS)})")
    return all_ok, lines
