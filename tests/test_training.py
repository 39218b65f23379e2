import dataclasses
import math

import numpy as np
import pytest

from sadp import pruning, training
from sadp.data import gen_synthetic_split
from sadp.pruning import PruneConfig
from sadp.snn import BackwardTrace, NeuronConfig, Network, backward_bptt, forward
from sadp.training import (EVAL_BATCH, NumericDivergenceError, OptimizerState,
                           TrainState, cosine_lr, evaluate, run_training,
                           sgd_step)


def small_problem(noise=0.15, n=96, seed=0):
    train, test = gen_synthetic_split(4, n, 32, 4, 16, noise, seed=seed)
    net = Network.from_arch("dense:12,dense:4", (16,), seed=seed)
    ncfg = NeuronConfig(decay=0.1, threshold=0.8, time_steps=4)
    return net, train, test, ncfg


class TestSgdStep:
    def test_plain_step(self):
        opt = OptimizerState(base_lr=0.1)
        w = [np.array([1.0, -2.0])]
        sgd_step(w, [np.array([10.0, -10.0])], opt)
        np.testing.assert_allclose(w[0], [0.0, -1.0], atol=1e-15)

    def test_momentum_two_steps(self):
        opt = OptimizerState(base_lr=0.1, momentum=0.9)
        w = [np.zeros(1)]
        sgd_step(w, [np.ones(1)], opt)
        assert w[0][0] == pytest.approx(-0.1, abs=1e-15)
        sgd_step(w, [np.ones(1)], opt)
        # buffer 0.9*1 + 1 = 1.9, so w = -0.1 - 0.19
        assert w[0][0] == pytest.approx(-0.29, abs=1e-15)

    def test_weight_decay_pulls_toward_zero(self):
        opt = OptimizerState(base_lr=0.1, weight_decay=0.5)
        w = [np.array([2.0])]
        sgd_step(w, [np.zeros(1)], opt)
        assert w[0][0] == pytest.approx(2.0 - 0.1 * 0.5 * 2.0, abs=1e-15)

    def test_nonfinite_gradient_raises(self):
        opt = OptimizerState(base_lr=0.1)
        with pytest.raises(NumericDivergenceError):
            sgd_step([np.zeros(2)], [np.array([1.0, np.inf])], opt)

    def test_shape_mismatch(self):
        opt = OptimizerState(base_lr=0.1)
        with pytest.raises(ValueError):
            sgd_step([np.zeros(2)], [np.zeros(3)], opt)

    @pytest.mark.parametrize("kw", [dict(base_lr=0.0), dict(base_lr=0.1, momentum=1.0),
                                    dict(base_lr=0.1, weight_decay=-0.1),
                                    dict(base_lr=0.1, schedule="step"),
                                    dict(base_lr=math.nan), dict(base_lr=math.inf),
                                    dict(base_lr=0.1, weight_decay=math.nan),
                                    dict(base_lr=0.1, weight_decay=math.inf)])
    def test_bad_optimizer_config(self, kw):
        with pytest.raises(ValueError):
            OptimizerState(**kw)

    def test_learning_rate_is_not_a_constructor_argument(self):
        """run_training sets the rate every epoch, so a given value would be
        ignored; the constructor refuses it."""
        with pytest.raises(TypeError):
            OptimizerState(base_lr=0.1, learning_rate=0.5)
        assert OptimizerState(base_lr=0.1).learning_rate == 0.1


class TestCosineLr:
    def test_endpoints_and_midpoint(self):
        assert cosine_lr(1, 10, 0.2) == pytest.approx(0.2)
        assert cosine_lr(6, 10, 0.2) == pytest.approx(0.1)
        assert cosine_lr(10, 10, 0.2) == pytest.approx(
            0.2 * (1 + np.cos(np.pi * 0.9)) / 2)

    def test_monotone_decreasing(self):
        vals = [cosine_lr(k, 20, 1.0) for k in range(1, 21)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            cosine_lr(0, 10, 0.1)


class TestRunTraining:
    def test_loss_decreases_and_rows_complete(self):
        net, train, test, ncfg = small_problem()
        opt = OptimizerState(base_lr=0.05, momentum=0.9)
        state = TrainState(epochs=6, batch_size=32)
        rows = run_training(net, train, test, ncfg, None, opt, state)
        assert len(rows) == 6
        assert rows[-1].train_loss < rows[0].train_loss
        assert all(r.processed == train.n for r in rows)
        assert all(r.ratio == 0.0 for r in rows)

    def test_rerun_is_deterministic(self):
        results = []
        for _ in range(2):
            net, train, test, ncfg = small_problem()
            opt = OptimizerState(base_lr=0.05, momentum=0.9)
            state = TrainState(epochs=4, batch_size=32)
            pcfg = PruneConfig(ratio=0.5, max_ratio=0.7, smoothing_constant=0.3)
            rows = run_training(net, train, test, ncfg, pcfg, opt, state)
            results.append((net.weights, rows))
        for wa, wb in zip(results[0][0], results[1][0]):
            np.testing.assert_array_equal(wa, wb)
        for ra, rb in zip(results[0][1], results[1][1]):
            da, db = dataclasses.asdict(ra), dataclasses.asdict(rb)
            da.pop("wall_s"), db.pop("wall_s")
            assert da == db

    def test_zero_ratio_matches_plain_run(self):
        outcomes = []
        for pcfg in (None, PruneConfig(ratio=0.0, max_ratio=0.0,
                                       smoothing_constant=0.3)):
            net, train, test, ncfg = small_problem()
            opt = OptimizerState(base_lr=0.05, momentum=0.9)
            state = TrainState(epochs=5, batch_size=32)
            rows = run_training(net, train, test, ncfg, pcfg, opt, state)
            outcomes.append((net.weights, rows))
        for wa, wb in zip(outcomes[0][0], outcomes[1][0]):
            np.testing.assert_array_equal(wa, wb)
        for ra, rb in zip(outcomes[0][1], outcomes[1][1]):
            da, db = dataclasses.asdict(ra), dataclasses.asdict(rb)
            da.pop("wall_s"), db.pop("wall_s")
            assert da == db

    def test_full_target_skips_solver_and_draw(self, monkeypatch):
        """An epoch whose target is every example selects all of them
        without solving for probabilities or drawing a mask."""
        def forbidden(*args, **kwargs):
            raise AssertionError("solver or draw called at target N")
        monkeypatch.setattr("sadp.pruning.smooth_probabilities", forbidden)
        monkeypatch.setattr("sadp.pruning.sample_mask", forbidden)
        net, train, test, ncfg = small_problem()
        opt = OptimizerState(base_lr=0.05, momentum=0.9)
        pcfg = PruneConfig(ratio=0.0, max_ratio=0.0, smoothing_constant=0.3)
        rows = run_training(net, train, test, ncfg, pcfg, opt,
                            TrainState(epochs=2, batch_size=32))
        assert [r.processed for r in rows] == [train.n, train.n]

    def test_trains_exactly_the_selection(self, monkeypatch):
        """run_training trains the examples select returns, in its order and
        with its loss weights, and reports its ratio and solver figures."""
        net, train, _, ncfg = small_problem()
        order = np.array([5, 2, 9])
        chosen = pruning.Selection(
            ratio=0.25, assignment=pruning.ProbabilityAssignment(
                probabilities=np.full(train.n, 0.5), gamma=0.125, iterations=3),
            indices=order, weights=np.array([0.5, 2.0, 1.5]))
        calls, batches, weights = [], [], []

        def stub(k, epochs, scores, cfg, sample_seed, shuffle_seed):
            calls.append((k, epochs, cfg, sample_seed, shuffle_seed))
            return chosen

        def recording_forward(net, data, labels, cfg, *args, **kwargs):
            batches.append((data.copy(), labels.copy()))
            return forward(net, data, labels, cfg, *args, **kwargs)

        weight_grads = BackwardTrace.weight_grads

        def recording_grads(self, example_weights=None):
            weights.append(example_weights.copy())
            return weight_grads(self, example_weights=example_weights)
        monkeypatch.setattr("sadp.training.select", stub)
        monkeypatch.setattr("sadp.training.forward", recording_forward)
        monkeypatch.setattr(BackwardTrace, "weight_grads", recording_grads)
        pcfg = PruneConfig(ratio=0.3, max_ratio=0.5)
        # No test set: evaluation, which also runs forward, is not counted.
        rows = run_training(net, train, None, ncfg, pcfg,
                            OptimizerState(base_lr=0.05),
                            TrainState(epochs=2, batch_size=2, seed_sample=7,
                                       seed_shuffle=8))
        assert calls == [(1, 2, pcfg, 7, 8), (2, 2, pcfg, 7, 8)]
        for part in (order[:2], order[2:]) * 2:
            data, labels = batches.pop(0)
            np.testing.assert_array_equal(data, train.data[part])
            np.testing.assert_array_equal(labels, train.labels[part])
        assert batches == []
        for part in ([0.5, 2.0], [1.5]) * 2:
            np.testing.assert_array_equal(weights.pop(0), part)
        assert weights == []
        assert [(r.ratio, r.processed, r.gamma, r.solver_iters)
                for r in rows] == [(0.25, 3, 0.125, 3)] * 2

    def test_empty_target_epoch_is_skipped(self):
        """An epoch whose target rounds to 0 trains nothing and writes a row
        of NaNs; the run still returns a row for every epoch."""
        net, train, test, ncfg = small_problem()
        opt = OptimizerState(base_lr=0.05, momentum=0.9)
        pcfg = PruneConfig(ratio=0.9, max_ratio=1.0, smoothing_constant=0.05)
        rows = run_training(net, train, test, ncfg, pcfg, opt,
                            TrainState(epochs=3, batch_size=32))
        assert len(rows) == 3
        assert rows[0].processed > 0 and rows[1].processed > 0
        last = rows[-1]
        assert int(round((1.0 - last.ratio) * train.n)) == 0
        assert last.processed == 0
        assert math.isnan(last.train_loss) and math.isnan(last.test_acc)
        assert last.gamma == 0.0 and last.solver_iters == 0

    def test_training_keeps_no_per_example_gradients(self, monkeypatch):
        traces = []

        def recording(*args, **kwargs):
            traces.append(backward_bptt(*args, **kwargs))
            return traces[-1]
        monkeypatch.setattr("sadp.training.backward_bptt", recording)
        net, train, test, ncfg = small_problem()
        opt = OptimizerState(base_lr=0.05, momentum=0.9)
        pcfg = PruneConfig(ratio=0.5, max_ratio=0.7, smoothing_constant=0.3)
        run_training(net, train, test, ncfg, pcfg, opt,
                     TrainState(epochs=2, batch_size=32))
        assert traces and all(bt.per_example_grads == [] for bt in traces)

    def test_float32_engine_on_float64_master_weights(self, monkeypatch):
        """Each step runs forward, backward and evaluate on a float32 copy;
        the weights and momentum that SGD updates stay float64 and keep
        float64 precision."""
        seen = []

        def recording(fn):
            def wrapped(net, *args, **kwargs):
                seen.append((fn.__name__, net.dtype))
                return fn(net, *args, **kwargs)
            return wrapped
        for name in ("forward", "backward_bptt", "evaluate"):
            monkeypatch.setattr(f"sadp.training.{name}",
                                recording(getattr(training, name)))
        net, train, test, ncfg = small_problem()
        opt = OptimizerState(base_lr=0.05, momentum=0.9)
        run_training(net, train, test, ncfg, None, opt,
                     TrainState(epochs=2, batch_size=32))
        assert {name for name, _ in seen} == {"forward", "backward_bptt",
                                               "evaluate"}
        assert {dtype for _, dtype in seen} == {np.dtype(np.float32)}
        for w, buf in zip(net.weights, opt.momentum_buffers):
            assert w.dtype == buf.dtype == np.float64
            assert np.any(w != w.astype(np.float32))

    def test_processed_counts_track_schedule(self):
        net, train, test, ncfg = small_problem(n=256)
        opt = OptimizerState(base_lr=0.05, momentum=0.9)
        state = TrainState(epochs=8, batch_size=32)
        pcfg = PruneConfig(ratio=0.5, max_ratio=0.5, smoothing_constant=0.2)
        rows = run_training(net, train, test, ncfg, pcfg, opt, state)
        n = train.n
        sigma = np.sqrt(n * 0.25)
        for r in rows:
            assert r.ratio == pytest.approx(0.5)
            assert abs(r.processed - 0.5 * n) <= 4 * sigma

    def test_loss_score_kind_runs(self):
        net, train, test, ncfg = small_problem()
        opt = OptimizerState(base_lr=0.05, momentum=0.9)
        state = TrainState(epochs=3, batch_size=32)
        pcfg = PruneConfig(ratio=0.3, max_ratio=0.5, smoothing_constant=0.3,
                           score="loss")
        rows = run_training(net, train, test, ncfg, pcfg, opt, state)
        assert len(rows) == 3
        assert all(0 < r.processed <= train.n for r in rows)

    @pytest.mark.parametrize("score", [None, "loss", "spike_aware"])
    def test_no_spike_aware_score_unless_read(self, monkeypatch, score):
        """A plain run and a loss-scored run never compute the spike-aware
        score: nothing would read it.  A spike-aware run does."""
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return pruning.spike_aware_score(*args, **kwargs)
        monkeypatch.setattr("sadp.training.spike_aware_score", counted)
        net, train, test, ncfg = small_problem()
        pcfg = None if score is None else PruneConfig(
            ratio=0.3, max_ratio=0.5, smoothing_constant=0.3, score=score)
        run_training(net, train, test, ncfg, pcfg,
                     OptimizerState(base_lr=0.05, momentum=0.9),
                     TrainState(epochs=3, batch_size=32))
        assert bool(calls) == (score == "spike_aware")

    def test_epoch_count_must_not_be_negative(self):
        with pytest.raises(ValueError):
            TrainState(epochs=-3, batch_size=32)
        net, train, test, ncfg = small_problem()
        before = [w.copy() for w in net.weights]
        rows = run_training(net, train, test, ncfg, None,
                            OptimizerState(base_lr=0.05),
                            TrainState(epochs=0, batch_size=32))
        assert rows == []
        assert all(np.array_equal(a, b) for a, b in zip(before, net.weights))

    def test_evaluate_matches_forward_logits(self):
        """Accuracy equals the argmax of forward's logits on a set that is not
        a whole number of chunks."""
        net, train, _, ncfg = small_problem(n=2 * EVAL_BATCH + 7)
        _, lo = forward(net, train.data, train.labels, ncfg)
        expected = float(np.mean(lo.logits.argmax(axis=1) == train.labels))
        assert 0.0 < expected < 1.0
        assert evaluate(net, train, ncfg) == expected

    def test_evaluate_bounds(self):
        net, train, test, ncfg = small_problem()
        acc = evaluate(net, test, ncfg)
        assert 0.0 <= acc <= 1.0
