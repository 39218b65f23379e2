import dataclasses
import math

import numpy as np
import pytest

from sadp import oracle, pruning, training
from sadp.data import gen_synthetic_split
from sadp.pruning import PruneConfig
from sadp.snn import BackwardTrace, NeuronConfig, Network, forward
from sadp.data import DatasetHandle
from sadp.pruning import ConfigError
from sadp.snn import ShapeError
from sadp.training import (EVAL_BATCH, NumericDivergenceError, TrainConfig,
                           cosine_lr, evaluate, run_training, sgd_step)


def train_cfg(epochs):
    """The settings most tests train with: SGD at 0.05 with momentum 0.9."""
    return TrainConfig(epochs=epochs, batch_size=32, lr=0.05, momentum=0.9)


def small_problem(noise=0.15, n=96, seed=0):
    train, test = gen_synthetic_split(4, n, 32, 4, 16, noise, seed=seed)
    net = Network.from_arch("dense:12,dense:4", (16,), seed=seed)
    ncfg = NeuronConfig(decay=0.1, threshold=0.8, time_steps=4)
    return net, train, test, ncfg


class TestSgdStep:
    def test_plain_step(self):
        w = [np.array([1.0, -2.0])]
        sgd_step(w, [np.array([10.0, -10.0])], [np.zeros(2)], 0.1)
        np.testing.assert_allclose(w[0], [0.0, -1.0], atol=1e-15)

    def test_momentum_two_steps(self):
        w, buffers = [np.zeros(1)], [np.zeros(1)]
        sgd_step(w, [np.ones(1)], buffers, 0.1, momentum=0.9)
        assert w[0][0] == pytest.approx(-0.1, abs=1e-15)
        sgd_step(w, [np.ones(1)], buffers, 0.1, momentum=0.9)
        # buffer 0.9*1 + 1 = 1.9, so w = -0.1 - 0.19
        assert w[0][0] == pytest.approx(-0.29, abs=1e-15)
        assert buffers[0][0] == pytest.approx(1.9, abs=1e-15)

    def test_weight_decay_pulls_toward_zero(self):
        w = [np.array([2.0])]
        sgd_step(w, [np.zeros(1)], [np.zeros(1)], 0.1, weight_decay=0.5)
        assert w[0][0] == pytest.approx(2.0 - 0.1 * 0.5 * 2.0, abs=1e-15)

    def test_nonfinite_gradient_raises(self):
        with pytest.raises(NumericDivergenceError):
            sgd_step([np.zeros(2)], [np.array([1.0, np.inf])], [np.zeros(2)], 0.1)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            sgd_step([np.zeros(2)], [np.zeros(3)], [np.zeros(2)], 0.1)

    def test_layer_count_mismatch_raises(self):
        """A gradient list shorter than the weights raises instead of leaving
        the trailing layers untouched."""
        with pytest.raises(ValueError):
            sgd_step([np.ones(2), np.ones(3)], [np.ones(2)], [np.zeros(2)], 0.1)

    @pytest.mark.parametrize("kw", [dict(lr=0.0), dict(lr=0.1, momentum=1.0),
                                    dict(lr=0.1, weight_decay=-0.1),
                                    dict(lr=0.1, schedule="step"),
                                    dict(lr=math.nan), dict(lr=math.inf),
                                    dict(lr=0.1, weight_decay=math.nan),
                                    dict(lr=0.1, weight_decay=math.inf)])
    def test_bad_optimizer_config(self, kw):
        with pytest.raises(ValueError):
            TrainConfig(epochs=1, batch_size=1, **kw)

    @pytest.mark.parametrize("kw, message", [
        (dict(lr=0.0), "learning rate must be positive and finite"),
        (dict(momentum=1.0), r"momentum must lie in \[0, 1\)"),
        (dict(weight_decay=-0.1), "weight decay must be non-negative and finite"),
        (dict(schedule="step"), "unknown lr schedule 'step'"),
        (dict(batch_size=0), "batch size must be >= 1, got 0"),
        (dict(epochs=-3), "epochs must be >= 0, got -3")])
    def test_train_config_messages(self, kw, message):
        with pytest.raises(ValueError, match=message):
            TrainConfig(**{**dict(epochs=1, batch_size=1, lr=0.1), **kw})

    def test_train_config_is_frozen(self):
        """The settings record holds no run state: nothing can be written
        into it, so one record gives every run the same start."""
        cfg = TrainConfig(epochs=2, batch_size=32, lr=0.05, momentum=0.9)
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.lr = 0.5
        assert [f.name for f in dataclasses.fields(TrainConfig)] == [
            "epochs", "batch_size", "lr", "momentum", "weight_decay",
            "schedule", "seed_sample", "seed_shuffle"]
        assert cfg == TrainConfig(2, 32, 0.05, 0.9, 0.0, "cosine", 1, 2)


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
        rows = run_training(net, train, test, ncfg, None, train_cfg(6))
        assert len(rows) == 6
        assert rows[-1].train_loss < rows[0].train_loss
        assert all(r.processed == train.n for r in rows)
        assert all(r.ratio == 0.0 for r in rows)

    def test_rerun_is_deterministic(self):
        results = []
        for _ in range(2):
            net, train, test, ncfg = small_problem()
            pcfg = PruneConfig(ratio=0.5, max_ratio=0.7, smoothing_constant=0.3)
            rows = run_training(net, train, test, ncfg, pcfg, train_cfg(4))
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
            rows = run_training(net, train, test, ncfg, pcfg, train_cfg(5))
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
        pcfg = PruneConfig(ratio=0.0, max_ratio=0.0, smoothing_constant=0.3)
        rows = run_training(net, train, test, ncfg, pcfg, train_cfg(2))
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
                            TrainConfig(epochs=2, batch_size=2, lr=0.05,
                                        seed_sample=7, seed_shuffle=8))
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
        pcfg = PruneConfig(ratio=0.9, max_ratio=1.0, smoothing_constant=0.05)
        rows = run_training(net, train, test, ncfg, pcfg, train_cfg(3))
        assert len(rows) == 3
        assert rows[0].processed > 0 and rows[1].processed > 0
        last = rows[-1]
        assert int(round((1.0 - last.ratio) * train.n)) == 0
        assert last.processed == 0
        assert math.isnan(last.train_loss) and math.isnan(last.test_acc)
        assert last.gamma == 0.0 and last.solver_iters == 0

    def test_training_keeps_no_per_example_gradients(self, monkeypatch):
        """Training never reaches the oracle's per-example contractions, the
        one place that forms per-example gradients."""
        def forbidden(*args, **kwargs):
            raise AssertionError("training formed per-example gradients")
        monkeypatch.setattr(oracle, "per_example_gradients", forbidden)
        monkeypatch.setattr(oracle, "_conv_example_grads", forbidden)
        net, train, test, ncfg = small_problem()
        pcfg = PruneConfig(ratio=0.5, max_ratio=0.7, smoothing_constant=0.3)
        assert len(run_training(net, train, test, ncfg, pcfg, train_cfg(2))) == 2

    def test_float32_engine_on_float64_master_weights(self, monkeypatch):
        """Each step runs forward, backward and evaluate on a float32 copy;
        the weights and momentum that SGD updates stay float64 and keep
        float64 precision."""
        seen, steps = [], []

        def sgd_spy(weights, grads, buffers, *args):
            steps.append((weights, buffers))
            return sgd_step(weights, grads, buffers, *args)
        monkeypatch.setattr("sadp.training.sgd_step", sgd_spy)

        def recording(fn):
            def wrapped(net, *args, **kwargs):
                seen.append((fn.__name__, net.dtype))
                return fn(net, *args, **kwargs)
            return wrapped
        for name in ("forward", "backward_bptt", "evaluate"):
            monkeypatch.setattr(f"sadp.training.{name}",
                                recording(getattr(training, name)))
        net, train, test, ncfg = small_problem()
        run_training(net, train, test, ncfg, None, train_cfg(2))
        assert {name for name, _ in seen} == {"forward", "backward_bptt",
                                               "evaluate"}
        assert {dtype for _, dtype in seen} == {np.dtype(np.float32)}
        # Every step updates net's own arrays and one list of buffers.
        assert len(steps) == 2 * 3
        buffers = steps[-1][1]
        for weights, bufs in steps:
            assert bufs is buffers
            assert all(a is b for a, b in zip(weights, net.weights))
        for w, buf in zip(net.weights, buffers):
            assert w.dtype == buf.dtype == np.float64
            assert np.any(w != w.astype(np.float32))
            assert np.any(buf != buf.astype(np.float32))

    def test_processed_counts_track_schedule(self):
        net, train, test, ncfg = small_problem(n=256)
        pcfg = PruneConfig(ratio=0.5, max_ratio=0.5, smoothing_constant=0.2)
        rows = run_training(net, train, test, ncfg, pcfg, train_cfg(8))
        n = train.n
        sigma = np.sqrt(n * 0.25)
        for r in rows:
            assert r.ratio == pytest.approx(0.5)
            assert abs(r.processed - 0.5 * n) <= 4 * sigma

    def test_loss_score_kind_runs(self):
        net, train, test, ncfg = small_problem()
        pcfg = PruneConfig(ratio=0.3, max_ratio=0.5, smoothing_constant=0.3,
                           score="loss")
        rows = run_training(net, train, test, ncfg, pcfg, train_cfg(3))
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
        run_training(net, train, test, ncfg, pcfg, train_cfg(3))
        assert bool(calls) == (score == "spike_aware")

    def test_epoch_count_must_not_be_negative(self):
        with pytest.raises(ValueError, match="epochs must be >= 0, got -3"):
            TrainConfig(epochs=-3, batch_size=32, lr=0.05)
        net, train, test, ncfg = small_problem()
        before = [w.copy() for w in net.weights]
        rows = run_training(net, train, test, ncfg, None,
                            TrainConfig(epochs=0, batch_size=32, lr=0.05))
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

    def test_evaluate_rejects_an_empty_dataset(self):
        net, _, test, ncfg = small_problem()
        with pytest.raises(ValueError, match="^dataset has no example"):
            evaluate(net, _subset(test, rows=slice(0, 0)), ncfg)


def _subset(handle, data=None, labels=None, rows=slice(None)):
    """A copy of handle's rows, with its data or labels replaced."""
    data = handle.data[rows] if data is None else data
    labels = handle.labels[rows] if labels is None else labels
    return DatasetHandle(data, labels, time_steps=data.shape[1])


class TestChecksBeforeEpochOne:
    """Every input rule is checked before epoch 1: a bad input raises a
    clear error and leaves the caller's weights bit-identical."""

    CASES = {
        "score-layer-5": (ConfigError, "score layer 5 out of range for 2 layers"),
        "test-labels-plus-10": (ValueError, "test set label 13 out of range "
                                            "for 4 output units"),
        "test-8-features": (ShapeError, r"test set input shape \(8,\) does not "
                                        r"fit layer 0 input \(16,\)"),
        "test-at-T-3": (ShapeError, "test set has 3 time steps, not the run's "
                                    "T = 4"),
        "empty-test": (ValueError, "test set has no example"),
        "empty-train": (ValueError, "train set has no example"),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_bad_input_raises_before_any_weight_changes(self, monkeypatch, case):
        error, message = self.CASES[case]
        net, train, test, ncfg = small_problem()
        pcfg = PruneConfig(ratio=0.3, max_ratio=0.5, smoothing_constant=0.3)
        if case == "score-layer-5":
            pcfg = dataclasses.replace(pcfg, score_layers=(5,))
        elif case == "test-labels-plus-10":
            test = _subset(test, labels=test.labels + 10)
        elif case == "test-8-features":
            test = _subset(test, data=test.data[..., :8])
        elif case == "test-at-T-3":
            test = _subset(test, data=test.data[:, :3])
        elif case == "empty-test":
            test = _subset(test, rows=slice(0))
        else:
            train = _subset(train, rows=slice(0))
        epochs = []

        def counted_select(k, *args):
            epochs.append(k)
            return pruning.select(k, *args)
        monkeypatch.setattr("sadp.training.select", counted_select)
        before = [w.copy() for w in net.weights]
        with pytest.raises(error, match=message):
            run_training(net, train, test, ncfg, pcfg, train_cfg(2))
        assert epochs == []
        for a, b in zip(before, net.weights):
            np.testing.assert_array_equal(a, b)

    def test_one_config_gives_every_run_the_same_weights(self):
        """The momentum buffers belong to the run: a second run under the
        same TrainConfig starts from zero momentum, as the first did."""
        cfg, weights = train_cfg(2), []
        for _ in range(2):
            net, train, test, ncfg = small_problem()
            run_training(net, train, test, ncfg, None, cfg)
            weights.append(net.weights)
        for a, b in zip(*weights):
            np.testing.assert_array_equal(a, b)
