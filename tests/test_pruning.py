import dataclasses

import numpy as np
import pytest

from sadp import pruning
from sadp.pruning import (NO_PRUNING, SCORES, ConfigError, PruneConfig,
                          loss_weights, method_probabilities,
                          resolve_score_layers, sample_mask, schedule_ratio,
                          select, smooth_probabilities, solve_probabilities,
                          spike_aware_score, loss_score, target_size)
from sadp.snn import (BackwardTrace, LayerSpec, LossOutput, NeuronConfig,
                      Network, backward_bptt, forward, patch_count)
from sadp.oracle import (exact_grad_norms, per_example_gradients,
                         solve_probabilities_sorted, variance_formula)
from sadp.verify import random_score_instance


def dense_trace(delta, o_prev):
    """Hand-built one-layer trace; delta and o_prev are (B, T, dim) arrays."""
    delta = np.asarray(delta, dtype=float)
    o_prev = np.asarray(o_prev, dtype=float)
    spec = LayerSpec("dense", (o_prev.shape[2],), delta.shape[2])
    return BackwardTrace(errors=[delta], inputs=[o_prev], specs=[spec])


class TestSpikeAwareScore:
    def test_rank_one_equals_exact_norm(self):
        bt = dense_trace([[[1.0, -1.0]]], [[[1.0, 0.0, 1.0]]])
        g = spike_aware_score(bt, (0,))
        assert g[0] == pytest.approx(2.0, abs=1e-12)
        # With one example the batch gradient is that example's gradient.
        assert g[0] == pytest.approx(np.linalg.norm(bt.weight_grads()[0]))

    def test_zero_spikes_zero_score(self):
        bt = dense_trace([[[3.0, 4.0]]], [[[0.0, 0.0, 0.0]]])
        assert spike_aware_score(bt, (0,))[0] == 0.0

    def test_sum_of_norm_products_and_upper_bound(self):
        rng = np.random.default_rng(0)
        net = Network.from_arch("dense:6,dense:4", (5,), seed=1)
        cfg = NeuronConfig(decay=0.5, time_steps=2)
        x = (rng.random((8, 2, 5)) < 0.6).astype(float)
        trace, loss = forward(net, x, rng.integers(0, 4, 8), cfg)
        bt = backward_bptt(net, trace, loss, cfg)
        g = spike_aware_score(bt, (0, 1))
        expected = np.zeros(8)
        for l in (0, 1):
            for t in (0, 1):
                expected += (np.linalg.norm(bt.errors[l][:, t], axis=1)
                             * np.linalg.norm(trace.spikes[l][:, t], axis=1))
        np.testing.assert_allclose(g, expected, atol=1e-12)
        grads = per_example_gradients(bt)
        assert len(grads) == len(net)
        exact = np.sqrt(sum((gr.reshape(8, -1) ** 2).sum(axis=1) for gr in grads))
        assert np.all(g >= exact - 1e-9)

    def test_real_valued_inputs_match_elementwise_norms(self):
        """The input norms come from a stacked dot product; on real-valued
        inputs they agree with the elementwise norms to round-off."""
        rng = np.random.default_rng(3)
        delta, o_prev = rng.normal(size=(16, 4, 10)), rng.random((16, 4, 256))
        expected = (np.linalg.norm(delta, axis=2)
                    * np.linalg.norm(o_prev, axis=2)).sum(axis=1)
        np.testing.assert_allclose(
            spike_aware_score(dense_trace(delta, o_prev)), expected, rtol=1e-14)

    def test_conv_terms_carry_patch_factor_and_bound_the_norm(self):
        """A conv layer scored alone still gets its sqrt(P) factor, so the
        score bounds that layer's exact gradient norm."""
        rng = np.random.default_rng(2)
        net = Network.from_arch("conv:3x3x3,dense:4", (1, 6, 6), seed=5,
                                init_scale=2.0)
        cfg = NeuronConfig(decay=0.5, surrogate_width=2.0, time_steps=2)
        x = (rng.random((16, 2, 1, 6, 6)) < 0.5).astype(float)
        trace, loss = forward(net, x, rng.integers(0, 4, 16), cfg)
        bt = backward_bptt(net, trace, loss, cfg)
        g = spike_aware_score(bt, (0,))
        plain = (np.linalg.norm(bt.errors[0].reshape(16, 2, -1), axis=2)
                 * np.linalg.norm(trace.spikes[0].reshape(16, 2, -1), axis=2)
                 ).sum(axis=1)
        np.testing.assert_allclose(g, np.sqrt(patch_count(net.specs[0])) * plain,
                                   rtol=1e-12)
        exact = np.linalg.norm(per_example_gradients(bt)[0].reshape(16, -1), axis=1)
        assert exact.any()
        assert np.all(g >= exact - 1e-9)

    def test_empty_layers_rejected(self):
        bt = dense_trace([[[1.0, 1.0]]], [[[1.0, 0.0, 0.0]]])
        with pytest.raises(ConfigError):
            spike_aware_score(bt, ())

    def test_layer_named_twice_rejected(self):
        """A layer named twice would add its term twice, 2x the score of
        naming it once, while the exact norm restricted to it counts it
        once; the score and the exact-norm report both reject it."""
        rng = np.random.default_rng(4)
        net = Network.from_arch("dense:6,dense:4", (5,), seed=1)
        cfg = NeuronConfig(decay=0.5, time_steps=2)
        x = (rng.random((8, 2, 5)) < 0.6).astype(float)
        y = rng.integers(0, 4, 8)
        trace, loss = forward(net, x, y, cfg)
        bt = backward_bptt(net, trace, loss, cfg)
        assert spike_aware_score(bt, (1,)).any()
        with pytest.raises(ConfigError, match="name a layer twice"):
            spike_aware_score(bt, (1, 1))
        with pytest.raises(ConfigError, match="name a layer twice"):
            exact_grad_norms(net, x, y, cfg, (1, 1))

    def test_one_score_layer_rule(self):
        assert resolve_score_layers(None, 3) == (2,)
        assert resolve_score_layers([2, 0], 3) == (2, 0)
        for layers, text in (((), "must not be empty"),
                             ((3,), "score layer 3 out of range"),
                             ((-1,), "score layer -1 out of range"),
                             ((0, 2, 0), "name a layer twice")):
            with pytest.raises(ConfigError, match=text):
                resolve_score_layers(layers, 3)


class TestLossScore:
    def test_identity_with_per_example_loss(self):
        lo = LossOutput(per_example_loss=np.array([0.3, 1.2]),
                        logits=np.zeros((2, 2)), probs=np.full((2, 2), 0.5),
                        labels=np.array([0, 1]))
        np.testing.assert_array_equal(loss_score(lo), lo.per_example_loss)

    def test_uniform_logits_log_classes(self):
        net = Network([(LayerSpec("dense", (4,), 3), np.zeros((3, 4)))])
        cfg = NeuronConfig(decay=0.5, time_steps=2)
        _, lo = forward(net, np.ones((3, 2, 4)), np.zeros(3, dtype=int), cfg)
        assert loss_score(lo) == pytest.approx(np.full(3, np.log(3)))


class TestSolver:
    def test_worked_example(self):
        a = solve_probabilities(np.array([1.0, 2.0, 3.0, 10.0]), 2)
        np.testing.assert_allclose(a.probabilities, [1 / 6, 1 / 3, 1 / 2, 1.0],
                                   atol=1e-12)
        assert (a.iterations, a.clipped_count) == (2, 1)

    @pytest.mark.parametrize("scores, target, p, rounds, clipped", [
        ([1.0, 2.0, 3.0], 1, [1 / 6, 1 / 3, 1 / 2], 1, 0),
        ([5.0, 0.0, 0.0], 2, [1.0, 0.5, 0.5], 2, 1)],
        ids=["no-clip", "zero-scores-take-the-rest"])
    def test_rounds_and_clips_on_each_exit(self, scores, target, p, rounds,
                                           clipped):
        """solver_iters in metrics.csv is the round count: one round when
        nothing clips, one more per clipping round (the worked example), and
        one for the round that finds only zero-score examples left to take
        the owed mass."""
        a = solve_probabilities(np.array(scores), target)
        np.testing.assert_allclose(a.probabilities, p, atol=1e-12)
        assert (a.iterations, a.clipped_count) == (rounds, clipped)

    def test_equal_scores_uniform(self):
        a = solve_probabilities(np.full(10, 3.7), 4)
        np.testing.assert_allclose(a.probabilities, 0.4, atol=1e-12)

    def test_full_size_all_ones(self):
        a = solve_probabilities(np.array([0.1, 5.0, 2.0]), 3)
        np.testing.assert_allclose(a.probabilities, 1.0)

    def test_all_zero_scores_give_uniform(self, caplog):
        """With every score zero every feasible p has zero variance; the
        solver returns S/N without a round and logs the fallback."""
        with caplog.at_level("WARNING", logger="sadp.pruning"):
            a = solve_probabilities(np.zeros(5), 2)
        assert np.array_equal(a.probabilities, np.full(5, 2 / 5))
        assert a.iterations == 0
        assert "falling back to uniform" in caplog.text
        assert variance_formula(np.zeros(5), a.probabilities, 5) == 0.0

    def test_matches_sorted_oracle_on_random_instances(self):
        rng = np.random.default_rng(42)
        for _ in range(300):
            n = int(rng.integers(2, 257))
            g = random_score_instance(rng, n)
            s = int(rng.integers(1, n + 1))
            it = solve_probabilities(g, s)
            so = solve_probabilities_sorted(g, s)
            assert np.abs(it.probabilities - so.probabilities).max() <= 1e-9
            assert it.probabilities.sum() == pytest.approx(s, abs=1e-9)
            assert it.probabilities.min() >= 0.0
            assert it.probabilities.max() <= 1.0
            assert it.iterations <= n + 1

    def test_scale_invariance(self):
        rng = np.random.default_rng(3)
        g = random_score_instance(rng, 40)
        base = solve_probabilities(g, 11).probabilities
        for c in (1e-4, 0.5, 17.0, 1e6):
            scaled = solve_probabilities(c * g, 11).probabilities
            np.testing.assert_allclose(scaled, base, atol=1e-9)

    def test_monotone_in_scores(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            g = random_score_instance(rng, 30)
            p = solve_probabilities(g, 9).probabilities
            order = np.argsort(g)
            assert np.all(np.diff(p[order]) >= -1e-12)


class TestSmoothing:
    def test_worked_example(self):
        a = smooth_probabilities(np.array([1.0, 9.0]), 1, 0.3)
        assert a.gamma == pytest.approx(5.0, abs=1e-12)
        np.testing.assert_allclose(a.probabilities, [0.3, 0.7], atol=1e-12)

    def test_beta_zero_identity(self):
        g = np.array([0.5, 1.0, 4.0, 8.0])
        a0 = smooth_probabilities(g, 2, 0.0)
        base = solve_probabilities(g, 2)
        np.testing.assert_array_equal(a0.probabilities, base.probabilities)
        assert a0.gamma == 0.0

    def test_noop_when_floor_already_met(self):
        a = smooth_probabilities(np.array([4.0, 5.0, 6.0]), 2, 0.2)
        assert a.gamma == 0.0

    def test_floor_sum_and_monotonicity(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            n = int(rng.integers(5, 80))
            g = random_score_instance(rng, n) + 1e-9
            s = int(rng.integers(2, max(3, n // 2)))
            beta = float(rng.uniform(0.02, 0.9 * s / n))
            a = smooth_probabilities(g, s, beta)
            p = a.probabilities
            assert p.sum() == pytest.approx(s, abs=1e-9)
            # The offset only pulls p toward the mean of the unclipped set.
            assert a.clipped_count == solve_probabilities(g, s).clipped_count
            assert p.max() <= 1.0
            nz = (p < 1.0) & (g > 0)
            if a.gamma > 0 and np.any(nz):
                assert p[nz].min() == pytest.approx(beta, abs=1e-9)
            order = np.argsort(g)
            assert np.all(np.diff(p[order]) >= -1e-9)

    def test_zero_score_examples_not_starved(self):
        # Base solve clips the 6 and floors the 1 below beta, so the offset
        # triggers; the offset reaches zero-score examples too.
        g = np.array([0.0, 0.0, 1.0, 5.0, 6.0])
        a = smooth_probabilities(g, 2, 0.2)
        np.testing.assert_allclose(a.probabilities, [0.1, 0.1, 0.2, 0.6, 1.0],
                                   atol=1e-9)
        assert a.gamma == pytest.approx(1.0, abs=1e-9)
        assert a.probabilities.sum() == pytest.approx(2.0, abs=1e-9)

    def test_infeasible_beta_falls_back_to_uniform(self):
        g = np.array([1.0, 2.0, 3.0, 100.0])
        a = smooth_probabilities(g, 1, 0.9)
        p = a.probabilities
        assert p.sum() == pytest.approx(1.0, abs=1e-9)
        nz = p < 1.0
        assert np.ptp(p[nz]) <= 1e-12  # uniform over the unclipped set


class TestPruneConfig:
    def test_unknown_score_rejected(self):
        with pytest.raises(ValueError, match="spike_awre"):
            PruneConfig(ratio=0.5, max_ratio=0.7, score="spike_awre")

    def test_shared_plain_config_cannot_change(self):
        """Every plain run reads the one NO_PRUNING instance."""
        with pytest.raises(dataclasses.FrozenInstanceError):
            NO_PRUNING.ratio = 0.5


class TestSchedule:
    def cfg(self, r=0.5, rmax=0.7, exact=False):
        return PruneConfig(ratio=r, max_ratio=rmax, exact_average=exact)

    def test_endpoint(self):
        assert schedule_ratio(100, 100, self.cfg()) == pytest.approx(0.7, abs=1e-15)

    def test_constant_when_rmax_equals_r(self):
        cfg = self.cfg(r=0.4, rmax=0.4)
        assert all(schedule_ratio(k, 20, cfg) == pytest.approx(0.4, abs=1e-15)
                   for k in range(1, 21))

    def test_midpoint_value(self):
        assert schedule_ratio(50, 100, self.cfg()) == pytest.approx(0.5, abs=1e-12)

    def test_affine_and_mean(self):
        cfg = self.cfg()
        rs = np.array([schedule_ratio(k, 100, cfg) for k in range(1, 101)])
        np.testing.assert_allclose(np.diff(rs), rs[1] - rs[0], atol=1e-12)
        assert rs.mean() == pytest.approx(0.5 + 0.2 / 100, abs=1e-12)

    def test_exact_average_flag(self):
        cfg = self.cfg(exact=True)
        rs = [schedule_ratio(k, 100, cfg) for k in range(1, 101)]
        assert np.mean(rs) == pytest.approx(0.5, abs=1e-12)

    def test_clamps_negative_start(self):
        cfg = self.cfg(r=0.3, rmax=0.9)
        assert schedule_ratio(1, 10, cfg) == 0.0

    def test_epoch_out_of_range(self):
        with pytest.raises(ValueError):
            schedule_ratio(0, 100, self.cfg())
        with pytest.raises(ValueError):
            schedule_ratio(11, 10, self.cfg())


class TestSampling:
    def make(self, p):
        from sadp.pruning import ProbabilityAssignment
        return ProbabilityAssignment(probabilities=np.asarray(p, float))

    def test_deterministic_endpoints(self):
        a = self.make([1.0, 0.0, 1.0, 0.0])
        for seed in range(20):
            np.testing.assert_array_equal(sample_mask(a, seed), [1, 0, 1, 0])

    def test_same_seed_same_mask(self):
        a = self.make(np.full(50, 0.5))
        np.testing.assert_array_equal(sample_mask(a, 7), sample_mask(a, 7))

    def test_binomial_mean(self):
        rng = np.random.default_rng(0)
        p = rng.random(40)
        a = self.make(p)
        sizes = [sample_mask(a, s).sum() for s in range(10000)]
        sigma = np.sqrt((p * (1 - p)).sum())
        assert abs(np.mean(sizes) - p.sum()) <= 4 * sigma / np.sqrt(10000)


class TestLossWeights:
    def test_full_data_weight_one(self):
        from sadp.pruning import ProbabilityAssignment
        a = ProbabilityAssignment(probabilities=np.ones(4))
        w = loss_weights(a, np.arange(4), 4)
        np.testing.assert_array_equal(w, 1.0)

    def test_half_probability_half_target(self):
        from sadp.pruning import ProbabilityAssignment
        a = ProbabilityAssignment(probabilities=np.full(4, 0.5))
        w = loss_weights(a, np.array([0, 2]), 2)
        np.testing.assert_allclose(w, 1.0)

    def test_zero_probability_selected_rejected(self):
        from sadp.pruning import ProbabilityAssignment
        a = ProbabilityAssignment(probabilities=np.array([0.0, 1.0]))
        with pytest.raises(RuntimeError):
            loss_weights(a, np.array([0, 1]), 1)


def forbid_solve_and_draw(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("solved or drew where S/N fixes the selection")
    for name in ("smooth_probabilities", "solve_probabilities", "sample_mask"):
        monkeypatch.setattr(pruning, name, forbidden)


class TestMethodProbabilities:
    G = np.array([0.5, 3.0, 1.0, 0.0, 7.0, 2.0, 0.2, 4.0, 1.5, 0.9])

    def test_target_size_rounds_kept_share(self):
        assert target_size(0.7, 2000) == 600
        assert target_size(0.0, 7) == 7
        assert target_size(np.nextafter(1.0, 0.0), 10) == 0

    @pytest.mark.parametrize("target", [0, 3, 10])
    def test_uniform_is_s_over_n_without_a_solve(self, monkeypatch, target):
        forbid_solve_and_draw(monkeypatch)
        a = method_probabilities("uniform", self.G, target, 0.3)
        np.testing.assert_array_equal(a.probabilities, np.full(10, target / 10))
        assert a.gamma == 0.0 and a.iterations == 0

    @pytest.mark.parametrize("score", SCORES)
    def test_every_kind_gives_ones_at_full_target(self, monkeypatch, score):
        forbid_solve_and_draw(monkeypatch)
        a = method_probabilities(score, self.G, 10, 0.3)
        np.testing.assert_array_equal(a.probabilities, np.ones(10))

    @pytest.mark.parametrize("score", ["spike_aware", "loss"])
    def test_scored_kinds_solve_with_the_floor(self, score):
        a = method_probabilities(score, self.G, 4, 0.3)
        np.testing.assert_array_equal(
            a.probabilities, smooth_probabilities(self.G, 4, 0.3).probabilities)


class TestSelect:
    G = np.random.default_rng(0).random(40) * 5.0

    @pytest.mark.parametrize("cfg", [NO_PRUNING] + [
        PruneConfig(ratio=0.0, max_ratio=0.0, smoothing_constant=0.3, score=s)
        for s in SCORES])
    def test_full_target_selects_all_without_solve_or_draw(self, monkeypatch,
                                                           cfg):
        forbid_solve_and_draw(monkeypatch)
        n = self.G.size
        sel = select(2, 3, self.G, cfg, 1, 2)
        assert sel.ratio == 0.0
        np.testing.assert_array_equal(sel.assignment.probabilities, 1.0)
        np.testing.assert_array_equal(
            sel.indices, np.random.default_rng([2, 2]).permutation(n))
        np.testing.assert_array_equal(sel.weights, 1.0)

    @pytest.mark.parametrize("score", SCORES)
    def test_empty_target_selects_none_without_solve_or_draw(self, monkeypatch,
                                                             score):
        forbid_solve_and_draw(monkeypatch)
        # The last epoch's ratio clamps just below 1, so S rounds to 0.
        cfg = PruneConfig(ratio=0.9, max_ratio=1.0, score=score)
        sel = select(3, 3, self.G, cfg, 1, 2)
        assert target_size(sel.ratio, self.G.size) == 0
        np.testing.assert_array_equal(sel.assignment.probabilities, 0.0)
        assert sel.indices.size == 0 and sel.weights.size == 0

    def test_each_index_keeps_its_weight_after_the_shuffle(self):
        cfg = PruneConfig(ratio=0.5, max_ratio=0.5, smoothing_constant=0.05,
                          seed=4)
        n = self.G.size
        sel = select(2, 3, self.G, cfg, 1, 2)
        target = target_size(sel.ratio, n)
        p = smooth_probabilities(self.G, target, 0.05).probabilities
        np.testing.assert_array_equal(sel.assignment.probabilities, p)
        drawn = np.flatnonzero(sample_mask(sel.assignment, [4, 1, 2]))
        np.testing.assert_array_equal(np.sort(sel.indices), drawn)
        assert not np.array_equal(sel.indices, drawn)  # shuffled
        assert np.unique(sel.weights).size > 1
        np.testing.assert_array_equal(sel.weights, target / (n * p[sel.indices]))
