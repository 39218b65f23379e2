import dataclasses
import sys
import threading

import numpy as np
import pytest

from sadp import oracle
from sadp.oracle import (GradNormReport, InfiniteVarianceError,
                         UndefinedCorrelationError, estimator_stats,
                         exact_grad_norms, fd_gradient_check, pearson,
                         per_example_gradients, project_to_capped_simplex,
                         solve_probabilities_sorted, variance_formula)
from sadp.pruning import solve_probabilities
from sadp.snn import NeuronConfig, Network, backward_bptt, forward
from sadp.verify import random_score_instance


def spike_batch(n, t, dim, classes, seed):
    rng = np.random.default_rng(seed)
    x = (rng.random((n, t, dim)) < 0.5).astype(float)
    return x, rng.integers(0, classes, n)


class TestExactNorms:
    def test_rank_one_single_step(self):
        net = Network.from_arch("dense:4", (6,), seed=1)
        cfg = NeuronConfig(decay=0.5, time_steps=1)
        x, y = spike_batch(3, 1, 6, 4, 0)
        rep = exact_grad_norms(net, x, y, cfg, (0,))
        grads = per_example_gradients(backward_bptt(net, *forward(net, x, y, cfg),
                                                     cfg))
        manual = np.linalg.norm(grads[0].reshape(3, -1), axis=1)
        np.testing.assert_allclose(rep.full_norms, manual, atol=1e-12)
        # For one dense layer at T=1 the spike-aware bound is exact.
        np.testing.assert_allclose(rep.scores, rep.restricted_norms, atol=1e-9)

    def test_bound_holds_on_batch(self):
        net = Network.from_arch("dense:20,dense:5", (16,), seed=2)
        cfg = NeuronConfig(decay=0.3, time_steps=4)
        x, y = spike_batch(256, 4, 16, 5, 1)
        rep = exact_grad_norms(net, x, y, cfg, (0, 1))
        assert np.all(rep.scores >= rep.restricted_norms - 1e-9)


NETS = {"dense": ("dense:256,dense:10", (64,)),
        "conv": ("conv:4x3x3s2p1,conv:4x3x3p1,dense:10", (1, 8, 8))}


def norm_case(kind, n):
    arch, shape = NETS[kind]
    net = Network.from_arch(arch, shape, seed=3)
    cfg = NeuronConfig(decay=0.3, threshold=0.5, time_steps=4)
    rng = np.random.default_rng(n)
    x = (rng.random((n, 4) + shape) < 0.5).astype(float)
    return net, cfg, x, rng.integers(0, 10, n)


def pin_workers(monkeypatch, blas_threads, cpus=2):
    """Set the BLAS thread variables and the usable CPUs _norm_workers reads.
    cpus = ("cpu_count", k) stands for a platform without
    os.sched_getaffinity, whose os.cpu_count() returns k."""
    for var in oracle.BLAS_THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    if blas_threads is not None:
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", str(blas_threads))
    if isinstance(cpus, tuple):
        monkeypatch.delattr(oracle.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(oracle.os, "cpu_count", lambda: cpus[1])
    else:
        monkeypatch.setattr(oracle.os, "sched_getaffinity",
                            lambda pid: set(range(cpus)))


class TestChunkedNorms:
    """exact_grad_norms runs one pass per near-equal chunk of at most
    NORM_CHUNK examples, and its report equals a whole-batch pass bit for bit,
    except where a conv net's chunks round differently from the whole batch."""

    # At NORM_CHUNK = 128 the conv net's n = 129 (chunks 65 + 64) and n = 529
    # (chunks of 106 and 105) cases differ from a whole-batch pass in one or
    # two examples by 1 ulp (max relative 1.95e-16 and 1.67e-16), from BLAS
    # tail kernels on the other GEMM shapes.  Every other case is exact.
    ROUNDED = {("conv", 129), ("conv", 529)}

    @pytest.mark.parametrize("layers", ["last", "all"])
    @pytest.mark.parametrize("n", [1, 127, 128, 129, 255, 256, 257, 529])
    @pytest.mark.parametrize("kind", list(NETS))
    def test_chunks_match_whole_batch(self, monkeypatch, kind, n, layers):
        net, cfg, x, y = norm_case(kind, n)
        score_layers = (len(net) - 1,) if layers == "last" \
            else tuple(range(len(net)))

        forward, batches = oracle.forward, []

        def spy(net, data, *args, **kwargs):
            batches.append(data.shape[0])
            return forward(net, data, *args, **kwargs)
        monkeypatch.setattr(oracle, "forward", spy)
        chunked = exact_grad_norms(net, x, y, cfg, score_layers)
        chunk = oracle.NORM_CHUNK
        assert sum(batches) == n and len(batches) == -(-n // chunk)
        assert max(batches) <= chunk
        if n > chunk:
            assert min(batches) >= chunk // 2

        monkeypatch.setattr(oracle, "NORM_CHUNK", n + 1)
        whole = exact_grad_norms(net, x, y, cfg, score_layers)
        assert batches[-1] == n
        assert np.any(whole.full_norms > 0) and np.any(whole.scores > 0)
        for field in dataclasses.fields(whole):
            if (kind, n) in self.ROUNDED:
                np.testing.assert_allclose(getattr(chunked, field.name),
                                           getattr(whole, field.name),
                                           rtol=1e-15, atol=0, err_msg=field.name)
            else:
                np.testing.assert_array_equal(getattr(chunked, field.name),
                                              getattr(whole, field.name),
                                              err_msg=field.name)


class TestThreadedNorms:
    """exact_grad_norms runs its chunks on _norm_workers(chunks) threads; the
    report and the errors are those of the serial loop."""

    @pytest.mark.parametrize("n", [257, 529, 2000])
    @pytest.mark.parametrize("kind", list(NETS))
    def test_two_threads_match_one(self, monkeypatch, caplog, kind, n):
        net, cfg, x, y = norm_case(kind, n)
        layers = tuple(range(len(net)))
        chunks = -(-n // oracle.NORM_CHUNK)
        reports = {}
        for workers, blas in ((1, None), (2, 1)):
            pin_workers(monkeypatch, blas)
            caplog.clear()
            with caplog.at_level("DEBUG", logger="sadp.oracle"):
                reports[workers] = exact_grad_norms(net, x, y, cfg, layers)
            assert caplog.messages == [
                f"exact_grad_norms: {chunks} chunks on {workers} threads"]
        for field in dataclasses.fields(GradNormReport):
            np.testing.assert_array_equal(getattr(reports[2], field.name),
                                          getattr(reports[1], field.name),
                                          err_msg=field.name)

    def test_many_threads_take_each_chunk_once(self, monkeypatch):
        """Stress: 8 threads on 2-example chunks with a short switch
        interval; a chunk handed out twice or never shows in the spy."""
        net, cfg, x, y = norm_case("dense", 257)
        monkeypatch.setattr(oracle, "NORM_CHUNK", 2)
        pin_workers(monkeypatch, None)
        serial = exact_grad_norms(net, x, y, cfg, (0, 1))
        forward, starts = oracle.forward, []

        def spy(net, data, *args, **kwargs):
            starts.append((data.ctypes.data - x.ctypes.data) // x.strides[0])
            return forward(net, data, *args, **kwargs)
        monkeypatch.setattr(oracle, "forward", spy)
        pin_workers(monkeypatch, 1, cpus=8)
        running = threading.active_count()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = exact_grad_norms(net, x, y, cfg, (0, 1))
        finally:
            sys.setswitchinterval(interval)
        assert sorted(starts) == list(range(0, 257, 2))  # 128 x 2 examples, 1 x 1
        assert threading.active_count() == running
        for field in dataclasses.fields(GradNormReport):
            np.testing.assert_array_equal(getattr(threaded, field.name),
                                          getattr(serial, field.name),
                                          err_msg=field.name)

    def test_bad_label_in_later_chunk(self, monkeypatch):
        net, cfg, x, y = norm_case("dense", 529)
        y[500] = 10  # the fifth of five chunks; the net has 10 outputs
        errors = []
        for blas in (None, 1):
            pin_workers(monkeypatch, blas)
            with pytest.raises(ValueError) as info:
                exact_grad_norms(net, x, y, cfg, (1,))
            errors.append(info.value)
        assert [type(e) for e in errors] == [ValueError, ValueError]
        assert str(errors[1]) == str(errors[0])

    def test_first_failing_chunk_is_raised(self, monkeypatch):
        """Of several failing chunks the caller raises the first one's error,
        with its own type, as the serial loop would."""
        net, cfg, x, y = norm_case("dense", 529)
        batch_norms = oracle._batch_norms

        def failing(net, data, labels, *args):
            first = (data.ctypes.data - x.ctypes.data) // x.strides[0]
            if first > 100:
                raise UndefinedCorrelationError(f"chunk at {first}")
            return batch_norms(net, data, labels, *args)
        monkeypatch.setattr(oracle, "_batch_norms", failing)
        pin_workers(monkeypatch, 1)
        with pytest.raises(UndefinedCorrelationError, match="^chunk at 106$"):
            exact_grad_norms(net, x, y, cfg, (1,))

    @pytest.mark.parametrize("env, cpus, chunks, workers", [
        ({}, 2, 8, 1),                          # BLAS uses every CPU itself
        ({"OPENBLAS_NUM_THREADS": "1"}, 2, 8, 2),
        ({"OPENBLAS_NUM_THREADS": "1"}, 2, 1, 1),  # never more than the chunks
        ({"OPENBLAS_NUM_THREADS": "1"}, 4, 3, 3),
        ({"OPENBLAS_NUM_THREADS": "2"}, 2, 8, 1),
        ({"OPENBLAS_NUM_THREADS": "4"}, 2, 8, 1),
        ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 4, 8, 2),
        ({"OPENBLAS_NUM_THREADS": "0", "GOTO_NUM_THREADS": "1"}, 2, 8, 2),
        ({"OPENBLAS_NUM_THREADS": "x", "OMP_NUM_THREADS": "1"}, 2, 8, 2),
        ({"OMP_NUM_THREADS": "0"}, 2, 8, 1),
        ({"OPENBLAS_NUM_THREADS": "1"}, ("cpu_count", 4), 8, 4),
        ({"OPENBLAS_NUM_THREADS": "1"}, ("cpu_count", None), 8, 1),  # unknown
    ])
    def test_worker_rule(self, monkeypatch, env, cpus, chunks, workers):
        pin_workers(monkeypatch, None, cpus)
        for var, value in env.items():
            monkeypatch.setenv(var, value)
        assert oracle._norm_workers(chunks) == workers


class TestSortedSolver:
    def test_worked_example(self):
        a = solve_probabilities_sorted(np.array([1.0, 2.0, 3.0, 10.0]), 2)
        np.testing.assert_allclose(a.probabilities, [1 / 6, 1 / 3, 1 / 2, 1.0],
                                   atol=1e-12)

    def test_no_clipping_case(self):
        a = solve_probabilities_sorted(np.array([1.0, 1.0, 2.0]), 1)
        np.testing.assert_allclose(a.probabilities, [0.25, 0.25, 0.5], atol=1e-12)
        assert a.clipped_count == 0

    def test_target_equals_n(self):
        a = solve_probabilities_sorted(np.array([0.5, 3.0]), 2)
        np.testing.assert_allclose(a.probabilities, 1.0)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            solve_probabilities_sorted(np.zeros(3), 1)
        with pytest.raises(ValueError):
            solve_probabilities_sorted(np.array([1.0, -1.0]), 1)
        with pytest.raises(ValueError):
            solve_probabilities_sorted(np.array([1.0]), 2)

    def test_agrees_with_iterative(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            n = int(rng.integers(3, 100))
            g = random_score_instance(rng, n)
            s = int(rng.integers(1, n + 1))
            a = solve_probabilities_sorted(g, s)
            b = solve_probabilities(g, s)
            assert np.abs(a.probabilities - b.probabilities).max() <= 1e-9


class TestVarianceFormula:
    def test_single_example(self):
        assert variance_formula(np.array([1.0]), np.array([0.5]), 1) == \
            pytest.approx(1.0)

    def test_two_examples_quarter(self):
        v = variance_formula(np.array([1.0, 1.0]), np.array([0.8, 0.8]), 2)
        assert v == pytest.approx(2 * 0.2 / 0.8 / 4)

    def test_full_probability_zero_variance(self):
        assert variance_formula(np.array([3.0, 5.0]), np.ones(2), 2) == 0.0

    def test_homogeneous_degree_two(self):
        rng = np.random.default_rng(0)
        g = rng.random(10)
        p = rng.uniform(0.1, 1.0, 10)
        base = variance_formula(g, p, 10)
        assert variance_formula(3.0 * g, p, 10) == pytest.approx(9.0 * base)

    def test_zero_probability_nonzero_norm(self):
        with pytest.raises(InfiniteVarianceError):
            variance_formula(np.array([1.0, 1.0]), np.array([0.0, 1.0]), 2)


class TestEstimatorStats:
    def test_unbiased_within_standard_error(self):
        net = Network.from_arch("dense:6,dense:3", (8,), seed=4)
        cfg = NeuronConfig(decay=0.4, time_steps=3)
        x, y = spike_batch(24, 3, 8, 3, 5)
        rep = exact_grad_norms(net, x, y, cfg, (0, 1))
        p = solve_probabilities(rep.scores + 1e-9, 12).probabilities
        stats = estimator_stats(net, x, y, cfg, p, draws=5000, seed=6)
        dev = np.abs(stats.mean_estimate - stats.full_gradient)
        tol = 4.0 * stats.standard_errors + 1e-12
        assert np.all(dev <= tol)

    def test_error_matches_closed_form_for_norm_directions(self):
        """MC mean squared error agrees with the analytic variance formula.

        For independent Bernoulli masks the cross terms vanish, so
        E||ghat - g||^2 = (1/N^2) sum_i (1 - p_i) ||g_i||^2 / p_i exactly,
        with the per-example gradient norms plugged into the formula.
        """
        net = Network.from_arch("dense:5,dense:2", (6,), seed=7)
        cfg = NeuronConfig(decay=0.5, time_steps=2)
        x, y = spike_batch(16, 2, 6, 2, 8)
        grads = per_example_gradients(backward_bptt(net, *forward(net, x, y, cfg),
                                                     cfg))
        norms = np.sqrt(sum((g.reshape(16, -1) ** 2).sum(axis=1) for g in grads))
        p = np.clip(solve_probabilities(norms + 1e-9, 8).probabilities, 1e-9, 1)
        analytic = variance_formula(norms, p, 16)
        stats = estimator_stats(net, x, y, cfg, p, draws=20000, seed=9)
        assert stats.expected_sq_error == pytest.approx(analytic, rel=0.05)

    def test_rejects_zero_draws(self):
        net = Network.from_arch("dense:3", (4,), seed=0)
        cfg = NeuronConfig(decay=0.5, time_steps=1)
        with pytest.raises(ValueError):
            estimator_stats(net, np.zeros((2, 1, 4)), np.zeros(2, dtype=int),
                            cfg, np.ones(2), draws=0)


class TestPearson:
    def test_perfect_linear(self):
        x = np.arange(10.0)
        assert pearson(x, 3.0 * x + 2.0) == pytest.approx(1.0)
        assert pearson(x, -x) == pytest.approx(-1.0)

    def test_known_value(self):
        # Hand-checkable: r = 33 / sqrt(10 * 113.2)
        x = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        y = np.array([2.0, 1.0, 4.0, 3.0, 10.0])
        xd, yd = x - x.mean(), y - y.mean()
        expected = (xd * yd).sum() / np.sqrt((xd ** 2).sum() * (yd ** 2).sum())
        assert pearson(x, y) == pytest.approx(expected, abs=1e-12)

    def test_constant_input_rejected(self):
        with pytest.raises(UndefinedCorrelationError):
            pearson(np.ones(5), np.arange(5.0))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            pearson(np.ones(3), np.ones(4))


class TestCappedSimplexProjection:
    def test_feasible_point_unchanged(self):
        v = np.array([0.2, 0.3, 0.5])
        np.testing.assert_allclose(project_to_capped_simplex(v, 1.0), v, atol=1e-9)

    def test_constraints_satisfied(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            n = int(rng.integers(3, 40))
            v = rng.normal(0, 2, n)
            s = float(rng.uniform(0.5, n - 0.5))
            p = project_to_capped_simplex(v, s)
            assert p.min() >= -1e-9 and p.max() <= 1.0 + 1e-9
            assert p.sum() == pytest.approx(s, abs=1e-6)
        # A batch of rows projects each row exactly as the vector call does.
        rows = rng.normal(0, 2, (20, 17))
        for row, p in zip(rows, project_to_capped_simplex(rows, 5.0)):
            np.testing.assert_array_equal(p, project_to_capped_simplex(row, 5.0))


class TestFdCheck:
    def test_dense_network(self):
        net = Network.from_arch("dense:6,dense:3", (8,), seed=10)
        cfg = NeuronConfig(decay=0.7, reset_detached=False, time_steps=3)
        x, y = spike_batch(4, 3, 8, 3, 11)
        assert fd_gradient_check(net, x, y, cfg, trials=30, seed=12) <= 1e-4

    def test_rejects_bad_epsilon(self):
        net = Network.from_arch("dense:3", (4,), seed=0)
        cfg = NeuronConfig(decay=0.5, time_steps=1)
        with pytest.raises(ValueError):
            fd_gradient_check(net, np.zeros((1, 1, 4)), np.zeros(1, dtype=int),
                              cfg, epsilon=1.0)


class TestMeasureCorrelations:
    def test_reports_valid_coefficients(self):
        net = Network.from_arch("dense:10,dense:4", (12,), seed=13)
        cfg = NeuronConfig(decay=0.3, time_steps=4)
        x, y = spike_batch(64, 4, 12, 4, 14)
        rep = exact_grad_norms(net, x, y, cfg, (0, 1)).correlations()
        assert -1.0 <= rep.score_vs_norm <= 1.0
        assert -1.0 <= rep.loss_vs_norm <= 1.0
        assert rep.sample_size == 64
