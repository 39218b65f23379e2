import numpy as np
import pytest

from sadp import snn
from sadp.data import DatasetHandle
from sadp.oracle import _im2col as im2col_nchw
from sadp.oracle import per_example_gradients
from sadp.snn import (LayerSpec, NeuronConfig, Network, ShapeError,
                      backward_bptt, forward, im2col, parse_arch, patch_count,
                      run_layer, soft_spike, surrogate_grad)
from sadp.training import EVAL_BATCH, evaluate


def make_cfg(**kw):
    base = dict(decay=0.5, threshold=1.0, surrogate_width=1.0, time_steps=2)
    base.update(kw)
    return NeuronConfig(**base)


def lif_run(currents, cfg, smooth=False):
    """Spikes and post-reset membranes of run_layer's LIF recurrence driven by
    exactly `currents` (B, T, n): an identity dense layer passes them on."""
    currents = np.asarray(currents, dtype=float)
    n = currents.shape[-1]
    o, u, _ = run_layer(LayerSpec("dense", (n,), n), np.eye(n), currents,
                        cfg, smooth)
    return o, u


class TestLifStep:
    def test_integrate_and_fire(self):
        cfg = make_cfg()
        s, u = lif_run([[[0.6], [0.8]]], cfg)
        np.testing.assert_array_equal(s[0, :, 0], [0.0, 1.0])
        assert u[0, 0, 0] == 0.6
        assert u[0, 1, 0] == pytest.approx(0.1, abs=1e-15)

    def test_zero_input_fixed_point(self):
        s, u = lif_run(np.zeros((1, 2, 3)), make_cfg())
        assert np.all(u == 0) and np.all(s == 0)

    def test_threshold_equality_fires(self):
        cfg = make_cfg()
        s, u = lif_run([[[cfg.threshold]]], cfg)
        assert s[0, 0, 0] == 1.0 and u[0, 0, 0] == 0.0

    def test_subtraction_reset_keeps_below_threshold(self):
        cfg = make_cfg(decay=0.9)
        rng = np.random.default_rng(0)
        u_prev = rng.uniform(0, 1, 100)  # below threshold: the first step keeps it
        current = rng.uniform(0, 1, 100)
        _, u = lif_run(np.stack([u_prev, current])[None], cfg)
        below_2theta = cfg.decay * u_prev + current < 2 * cfg.threshold
        assert np.all(u[0, 1, below_2theta] < cfg.threshold)

    def test_smooth_uses_soft_spike(self):
        cfg = make_cfg()
        currents = np.array([[[0.2, 0.6, 1.4], [0.7, 0.2, 2.5]]])
        s, u = lif_run(currents, cfg, smooth=True)
        u_prev = np.zeros(3)
        for t in range(2):
            u_pre = cfg.decay * u_prev + currents[0, t]
            np.testing.assert_array_equal(s[0, t], soft_spike(u_pre, cfg))
            u_prev = u_pre - cfg.threshold * s[0, t]
            np.testing.assert_array_equal(u[0, t], u_prev)
        assert 0.0 < s[0, 1, 0] < 1.0 and s[0, 1, 2] == 1.0


class TestSurrogate:
    def test_peak(self):
        cfg = make_cfg(surrogate_width=0.5)
        assert surrogate_grad(cfg.threshold, cfg) == pytest.approx(2.0)

    @pytest.mark.parametrize("sign", [-1.0, 1.0])
    def test_support_edge(self, sign):
        cfg = make_cfg()
        assert surrogate_grad(cfg.threshold + sign * cfg.surrogate_width, cfg) == 0.0

    def test_half_width_value(self):
        cfg = make_cfg(surrogate_width=1.0)
        assert surrogate_grad(cfg.threshold + 0.5, cfg) == pytest.approx(0.5)


class TestConfigValidation:
    @pytest.mark.parametrize("kw", [dict(decay=0.0), dict(decay=1.5),
                                    dict(threshold=0.0), dict(surrogate_width=0.0),
                                    dict(time_steps=0),
                                    dict(threshold=np.nan), dict(threshold=np.inf),
                                    dict(surrogate_width=np.nan),
                                    dict(surrogate_width=np.inf)])
    def test_rejects_bad_values(self, kw):
        with pytest.raises(ValueError):
            make_cfg(**kw)


class TestForward:
    def test_zero_weights_uniform_loss(self):
        spec = LayerSpec("dense", (6,), 4)
        net = Network([(spec, np.zeros((4, 6)))])
        cfg = make_cfg(time_steps=3)
        x = np.ones((5, 3, 6))
        trace, loss = forward(net, x, np.zeros(5, dtype=int), cfg)
        assert np.all(trace.spikes[1] == 0)
        assert np.all(loss.logits == 0)
        assert loss.per_example_loss == pytest.approx(np.full(5, np.log(4)))

    def test_hand_evaluated_recurrence(self):
        # 2-in 2-out dense layer, T=2, lambda=0.5, theta=1.
        w = np.array([[1.2, 0.0], [0.3, 0.4]])
        net = Network([(LayerSpec("dense", (2,), 2), w)])
        cfg = make_cfg()
        x = np.array([[[1.0, 0.0], [1.0, 1.0]]])  # (1, T=2, 2)
        trace, loss = forward(net, x, np.array([0]), cfg)
        # t=1: u_pre=(1.2,0.3) -> spike (1,0), u=(0.2,0.3)
        # t=2: u_pre=(0.5*0.2+1.2, 0.5*0.3+0.7)=(1.3,0.85) -> spike (1,0)
        np.testing.assert_allclose(trace.spikes[1][0], [[1, 0], [1, 0]])
        np.testing.assert_allclose(trace.membranes[0][0],
                                   [[0.2, 0.3], [0.3, 0.85]], atol=1e-12)
        np.testing.assert_allclose(loss.logits[0], [1.0, 0.0])

    def test_spikes_are_binary(self):
        net = Network.from_arch("dense:12,dense:5", (16,), seed=4)
        cfg = make_cfg(time_steps=4)
        rng = np.random.default_rng(1)
        x = rng.random((10, 4, 16))
        trace, _ = forward(net, x, rng.integers(0, 5, 10), cfg)
        for o in trace.spikes[1:]:
            assert np.all((o == 0.0) | (o == 1.0))

    def test_rejects_wrong_time_steps(self):
        net = Network.from_arch("dense:4", (3,), seed=0)
        with pytest.raises(ShapeError):
            forward(net, np.zeros((2, 5, 3)), np.zeros(2, dtype=int),
                    make_cfg(time_steps=2))

    LABEL_CASES = {
        "column": (np.zeros((3, 1), dtype=int), "one integer per example"),
        "fractional": (np.array([0.0, 1.7, 2.0]), "one integer per example"),
        "short": (np.zeros(2, dtype=int), "one integer per example"),
        "too-large": (np.array([0, 5, 1]), "batch label 5 out of range for "
                                           "4 output units"),
        "negative": (np.array([0, -1, 3]), "batch label -1 out of range"),
    }

    @pytest.mark.parametrize("case", list(LABEL_CASES))
    def test_labels_checked_before_any_layer(self, monkeypatch, case):
        """Labels that are not one in-range integer per example raise before
        the first layer runs."""
        labels, message = self.LABEL_CASES[case]
        net = Network.from_arch("dense:6,dense:4", (5,), seed=0)

        def no_layer(*args, **kwargs):
            raise AssertionError("a layer ran before the labels were checked")
        monkeypatch.setattr(snn, "run_layer", no_layer)
        with pytest.raises(ValueError, match=message):
            forward(net, np.ones((3, 2, 5)), labels, make_cfg(time_steps=2))

    def test_size_rule_for_data_and_layers(self):
        """Data and a preceding layer fit a layer when their sizes match, in
        any shape; forward and Network apply that one rule."""
        cfg = make_cfg(time_steps=2)
        net = Network.from_arch("dense:4", (16,), seed=0)
        x = np.ones((3, 2, 4, 4))
        _, flat = forward(net, x.reshape(3, 2, 16), np.zeros(3, dtype=int), cfg)
        _, square = forward(net, x, np.zeros(3, dtype=int), cfg)
        np.testing.assert_array_equal(square.logits, flat.logits)
        with pytest.raises(ShapeError, match=r"input shape \(15,\) does not "
                                             r"fit layer 0 input \(16,\)"):
            forward(net, np.ones((3, 2, 15)), np.zeros(3, dtype=int), cfg)
        conv = LayerSpec("conv2d", (1, 4, 4), 2, kernel_size=3)
        Network([(conv, np.zeros((2, 1, 3, 3))),
                 (LayerSpec("dense", (8,), 3), np.zeros((3, 8)))])
        with pytest.raises(ShapeError, match="does not compose"):
            Network([(conv, np.zeros((2, 1, 3, 3))),
                     (LayerSpec("dense", (9,), 3), np.zeros((3, 9)))])

    def test_rejects_nonfinite_weights(self):
        spec = LayerSpec("dense", (3,), 2)
        with pytest.raises(ValueError):
            Network([(spec, np.full((2, 3), np.nan))])

    def test_constructor_checks_every_weight_array(self):
        """The one check on weight arrays: finiteness and each layer's
        shape, with the weights cast to the network's dtype."""
        specs = parse_arch("dense:4,dense:2", (3,))
        with pytest.raises(ValueError, match="non-finite weights"):
            Network(list(zip(specs, [np.full((4, 3), np.nan), np.zeros((2, 4))])))
        with pytest.raises(ShapeError, match=r"weight shape \(4, 2\) != "
                                             r"expected \(2, 4\)"):
            Network(list(zip(specs, [np.zeros((4, 3)), np.zeros((4, 2))])))
        net = Network(list(zip(specs, [np.ones((4, 3), dtype=np.float32),
                                       np.zeros((2, 4))])))
        assert net.weights[0].dtype == np.float64 and net.weights[0].sum() == 12


# LayerSpec arguments (kind, input shape, units, kernel, stride, padding) and
# the output shape they give.
SPEC_CASES = {
    "enumerated positions": (("conv2d", (1, 4, 4), 1, 2), (1, 3, 3)),
    "one by one kernel": (("conv2d", (2, 5, 7), 3, 1), (3, 5, 7)),
    "non-overlapping tiling": (("conv2d", (1, 4, 4), 1, 2, 2), (1, 2, 2)),
    "stride and padding": (("conv2d", (2, 8, 8), 4, 3, 2, 1), (4, 4, 4)),
    "dense": (("dense", (4,), 2), (2,)),
}


class TestLayerSpec:
    @pytest.mark.parametrize("case", list(SPEC_CASES))
    def test_derives_output_shape(self, case):
        args, out = SPEC_CASES[case]
        spec = LayerSpec(*args)
        assert spec.output_shape == out
        assert spec.weight_shape[0] == args[2]

    RULES = {
        "dense no units": (("dense", (4,), 0), ValueError, "needs at least one unit"),
        "conv no channels": (("conv2d", (1, 4, 4), 0, 3), ValueError,
                             "needs at least one unit"),
        "dense no input": (("dense", (0,), 3), ValueError,
                           r"has no input: input shape \(0,\)"),
        "conv no input": (("conv2d", (0, 4, 4), 2, 3), ValueError, "has no input"),
        "conv flat input": (("conv2d", (16,), 2, 3), ShapeError,
                            r"needs a \(C, H, W\) input"),
        "conv (H, W) input": (("conv2d", (4, 4), 2, 3), ShapeError,
                              r"needs a \(C, H, W\) input"),
        "kernel too large": (("conv2d", (1, 4, 4), 2, 5), ShapeError,
                             "does not fit the padded input"),
        "kernel too large padded": (("conv2d", (1, 4, 4), 2, 7, 1, 1), ShapeError,
                                    "does not fit the padded input"),
        "stride 0": (("conv2d", (1, 4, 4), 2, 3, 0), ValueError,
                     "invalid conv geometry"),
        "unknown kind": (("pool", (4,), 2), ValueError, "unknown layer kind")}

    @pytest.mark.parametrize("case", list(RULES))
    def test_single_layer_rules_raise(self, case):
        args, error, text = self.RULES[case]
        with pytest.raises(error, match=text):
            LayerSpec(*args)


class TestFromArch:
    def test_conv_reads_two_dimensional_input_as_one_channel(self):
        flat = Network.from_arch("conv:2x3x3p1,dense:4", (6, 6), seed=3)
        chan = Network.from_arch("conv:2x3x3p1,dense:4", (1, 6, 6), seed=3)
        assert flat.specs == chan.specs
        assert flat.specs[0].input_shape == (1, 6, 6)
        for a, b in zip(flat.weights, chan.weights):
            np.testing.assert_array_equal(a, b)

    def test_layer_l_draws_the_l_th_uniform_call(self):
        """from_arch(seed=s) is parse_arch plus one uniform(-b, b) call of
        default_rng(s) per layer, in layer order, b = init_scale *
        sqrt(3 / fan_in): initial weights, and every output that starts
        from them, depend on that order."""
        arch, shape = "conv:3x3x3p1,dense:6,dense:4", (2, 5, 5)
        net = Network.from_arch(arch, shape, seed=11, init_scale=1.5)
        rng = np.random.default_rng(11)
        assert net.specs == parse_arch(arch, shape)
        for spec, w in net.layers:
            bound = 1.5 * np.sqrt(3.0 / spec.fan_in)
            np.testing.assert_array_equal(
                w, rng.uniform(-bound, bound, size=spec.weight_shape))

    ERRORS = {
        "dense:0": ((4,), ValueError, "layer 'dense:0': needs at least one unit"),
        "dense:4,dense:x": ((4,), ValueError, "layer 'dense:x': invalid literal"),
        "dense:4, conv:2x3x3": ((16,), ShapeError,
                                r"layer 'conv:2x3x3': conv layer needs a "
                                r"\(C, H, W\) input, got \(4,\)"),
        "conv:2x7x7": ((1, 4, 4), ShapeError, "layer 'conv:2x7x7': conv kernel "
                                              "does not fit the padded input"),
        "conv:2x3x5": ((1, 8, 8), ValueError,
                       "layer 'conv:2x3x5': only square kernels are supported"),
        "foo:3": ((4,), ValueError, "layer 'foo:3': unknown layer kind")}

    @pytest.mark.parametrize("arch", list(ERRORS))
    def test_errors_name_the_token(self, arch):
        shape, error, text = self.ERRORS[arch]
        with pytest.raises(error, match=f"^{text}"):
            Network.from_arch(arch, shape)


def reference_records(net, x, cfg):
    """Spikes and membranes of every layer from a plain loop of LIF steps,
    with each step's current formed on its own (a conv layer's from that
    step's columns in the oracle's per-example layout)."""
    batch, t_steps = x.shape[:2]
    spikes, membranes, prev = [], [], x
    for spec, w in net.layers:
        if spec.kind == "dense":
            current = (prev.reshape(batch * t_steps, -1) @ w.T).reshape(
                (batch, t_steps) + spec.output_shape)
        else:
            current = np.stack([
                (w.reshape(w.shape[0], -1) @ im2col_nchw(
                    prev[:, t].reshape((batch,) + spec.input_shape),
                    spec.kernel_size, spec.stride, spec.padding)).reshape(
                        (batch,) + spec.output_shape)
                for t in range(t_steps)], axis=1)
        u = np.zeros((batch,) + spec.output_shape)
        o_steps, u_steps = [], []
        for t in range(t_steps):
            u_pre = cfg.decay * u + current[:, t]
            o = (u_pre >= cfg.threshold).astype(float)
            u = u_pre - cfg.threshold * o
            o_steps.append(o)
            u_steps.append(u)
        prev = np.stack(o_steps, axis=1)
        spikes.append(prev)
        membranes.append(np.stack(u_steps, axis=1))
    return spikes, membranes


class TestEngine:
    @pytest.mark.parametrize("arch, shape, detached", [
        ("dense:20,dense:4", (12,), True),
        ("dense:20,dense:4", (12,), False),
        ("conv:4x3x3s2p1,conv:4x3x3,dense:4", (1, 9, 9), True)])
    def test_forward_matches_lif_step_loop(self, arch, shape, detached):
        """A dense net's records match exactly.  A conv net stores its
        records examples-last, and each layer's current is one GEMM in
        another orientation than the reference's, which reorders its sums:
        its membranes agree to round-off and its spikes exactly."""
        cfg = NeuronConfig(decay=0.6, threshold=0.5, reset_detached=detached,
                           time_steps=3)
        net = Network.from_arch(arch, shape, seed=1, init_scale=2.0)
        rng = np.random.default_rng(2)
        x = (rng.random((7, 3) + shape) < 0.4).astype(float)
        trace, loss = forward(net, x, rng.integers(0, 4, 7), cfg)
        spikes, membranes = reference_records(net, x, cfg)
        for l, (o, u) in enumerate(zip(spikes, membranes)):
            assert 0.0 < o.mean() < 1.0  # every layer fires, but not always
            np.testing.assert_array_equal(trace.spikes[l + 1], o)
            if "conv" not in arch:
                np.testing.assert_array_equal(trace.membranes[l], u)
            else:
                np.testing.assert_allclose(trace.membranes[l], u, rtol=0,
                                           atol=1e-13 * np.abs(u).max())
        np.testing.assert_array_equal(loss.logits, spikes[-1].mean(axis=1))

    LAYOUT_NETS = {
        "dense": [("dense", (12,), 6), ("dense", (6,), 4)],
        "dense, conv, dense": [("dense", (12,), 18),
                               ("conv2d", (2, 3, 3), 3, 2),
                               ("dense", (3, 2, 2), 4)],
        "conv, conv, dense": [("conv2d", (2, 6, 6), 4, 3, 1, 1),
                              ("conv2d", (4, 6, 6), 4, 3),
                              ("dense", (4, 4, 4), 4)]}

    @pytest.mark.parametrize("case", list(LAYOUT_NETS))
    def test_records_are_stored_examples_last_from_the_first_conv_layer(
            self, case):
        rng = np.random.default_rng(3)
        specs = [LayerSpec(*args) for args in self.LAYOUT_NETS[case]]
        net = Network([(spec, rng.uniform(-1.5, 1.5, spec.weight_shape))
                       for spec in specs])
        cfg = make_cfg(threshold=0.5, time_steps=3)
        x = (rng.random((5, 3) + specs[0].input_shape) < 0.5).astype(float)
        trace, loss = forward(net, x, rng.integers(0, 4, 5), cfg)
        bt = backward_bptt(net, trace, loss, cfg)
        seen_conv = False
        for l, spec in enumerate(specs):
            seen_conv |= spec.kind == "conv2d"
            for record in (trace.spikes[l + 1], trace.membranes[l], bt.errors[l]):
                stored = np.moveaxis(record, 0, -1) if seen_conv else record
                assert stored.flags.c_contiguous, (l, record.strides)

    @pytest.mark.parametrize("kernel, stride, pad", [
        (3, 2, 1), (1, 2, 0), (2, 3, 0), (3, 1, 2), (3, 2, 2)])
    def test_conv_backprojection_matches_a_loop_over_output_positions(
            self, kernel, stride, pad):
        """Each output position's errors, times the kernel, land on the input
        positions its window reads; a position no window reads gets zero.
        Small integers keep every sum exact."""
        t, b, c, o, h, w = 2, 3, 2, 3, 7, 6
        spec = LayerSpec("conv2d", (c, h, w), o, kernel, stride, pad)
        ho, wo = spec.output_shape[1:]
        rng = np.random.default_rng(3)
        weights = rng.integers(-3, 4, spec.weight_shape).astype(float)
        stored = rng.integers(-3, 4, (t, o, ho, wo, b)).astype(float)
        delta = np.moveaxis(stored, -1, 0)  # (B, T, O, Ho, Wo), examples last
        xp = np.zeros((b, t, c, h + 2 * pad, w + 2 * pad))
        for y in range(ho):
            for z in range(wo):
                xp[:, :, :, stride * y:stride * y + kernel,
                   stride * z:stride * z + kernel] += np.einsum(
                       "btk,kcij->btcij", delta[:, :, :, y, z], weights)
        np.testing.assert_array_equal(snn._backproject(spec, weights, delta),
                                      xp[:, :, :, pad:pad + h, pad:pad + w])

    @pytest.mark.parametrize("stride", [1, 2, 3])
    @pytest.mark.parametrize("pad", [0, 1, 2])
    @pytest.mark.parametrize("kernel", [1, 2, 3])
    @pytest.mark.parametrize("channels", [1, 3])
    def test_conv_backprojection_is_the_adjoint_of_the_forward_product(
            self, stride, pad, kernel, channels):
        """<W im2col(x), d> = <x, backproject(d)>, with x stored in either
        order for im2col."""
        rng = np.random.default_rng(5)
        t, b = 2, 4
        spec = LayerSpec("conv2d", (channels, 7, 6), 2, kernel, stride, pad)
        weights = rng.normal(size=spec.weight_shape)
        x = rng.normal(size=(t,) + spec.input_shape + (b,))
        cols = im2col(x, kernel, stride, pad)
        current = np.matmul(weights.reshape(spec.units, -1), cols)  # (T, O, P*B)
        d = rng.normal(size=current.shape)
        delta = np.moveaxis(d.reshape((t,) + spec.output_shape + (b,)), -1, 0)
        lhs = float((current * d).sum())
        rhs = float((np.moveaxis(x, -1, 0)
                     * snn._backproject(spec, weights, delta)).sum())
        assert abs(lhs - rhs) <= 1e-12
        examples_first = np.moveaxis(np.moveaxis(x, -1, 0).copy(), 0, -1)
        np.testing.assert_array_equal(im2col(examples_first, kernel, stride, pad),
                                      cols)

    def test_one_im2col_per_conv_layer_and_none_in_weight_grads(self, monkeypatch):
        counts = {"im2col": 0}

        def counting(name):
            fn = getattr(snn, name)

            def counted(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return counted
        for name in counts:
            monkeypatch.setattr(snn, name, counting(name))
        cfg = NeuronConfig(decay=0.6, threshold=0.5, time_steps=4)
        net = Network.from_arch("conv:4x3x3s2p1,conv:4x3x3,dense:4", (1, 9, 9),
                                seed=1, init_scale=2.0)
        rng = np.random.default_rng(4)
        x = (rng.random((6, 4, 1, 9, 9)) < 0.4).astype(float)
        trace, loss = forward(net, x, rng.integers(0, 4, 6), cfg)
        assert counts == {"im2col": 2}
        bt = backward_bptt(net, trace, loss, cfg)
        bt.weight_grads(rng.random(6))
        assert counts == {"im2col": 2}


class TestPatchCount:
    def test_enumerated_positions(self):
        spec = LayerSpec(*SPEC_CASES["enumerated positions"][0])
        assert patch_count(spec) == 9

    def test_one_by_one_kernel(self):
        spec = LayerSpec(*SPEC_CASES["one by one kernel"][0])
        assert patch_count(spec) == 35

    def test_non_overlapping_tiling(self):
        spec = LayerSpec(*SPEC_CASES["non-overlapping tiling"][0])
        assert patch_count(spec) == 4

    def test_dense_counts_one_patch(self):
        assert patch_count(LayerSpec(*SPEC_CASES["dense"][0])) == 1


class TestBackward:
    def test_single_layer_single_step_rank_one(self):
        net = Network.from_arch("dense:3", (4,), seed=2)
        cfg = make_cfg(time_steps=1)
        x = np.array([[[1.0, 0.0, 1.0, 1.0]]])
        bt = backward_bptt(net, *forward(net, x, np.array([1]), cfg), cfg)
        grads = per_example_gradients(bt)
        assert len(grads) == len(net)
        expected = np.outer(bt.errors[0][0, 0], x[0, 0])
        np.testing.assert_allclose(grads[0][0], expected, atol=1e-15)
        np.testing.assert_allclose(bt.weight_grads()[0], expected, atol=1e-15)

    def test_zero_input_spikes_zero_gradient(self):
        net = Network.from_arch("dense:8,dense:3", (6,), seed=3)
        cfg = make_cfg(time_steps=3)
        x = np.zeros((4, 3, 6))
        bt = backward_bptt(net, *forward(net, x, np.zeros(4, dtype=int), cfg), cfg)
        grads = per_example_gradients(bt)
        assert len(grads) == len(net)
        for g, g_batch in zip(grads, bt.weight_grads()):
            assert np.all(g == 0.0) and np.all(g_batch == 0.0)

    def test_batch_gradient_is_mean_of_per_example(self):
        net = Network.from_arch("dense:10,dense:4", (8,), seed=5)
        cfg = make_cfg(time_steps=3)
        rng = np.random.default_rng(7)
        x = (rng.random((12, 3, 8)) < 0.5).astype(float)
        bt = backward_bptt(net, *forward(net, x, rng.integers(0, 4, 12), cfg), cfg)
        grads = per_example_gradients(bt)
        assert len(grads) == len(net)
        for g_batch, g_per in zip(bt.weight_grads(), grads):
            np.testing.assert_allclose(g_batch, g_per.mean(axis=0), atol=1e-10)

    def test_backward_returns_errors_and_input_references(self):
        net = Network.from_arch("dense:8,dense:3", (6,), seed=3)
        cfg = make_cfg(time_steps=3)
        x = np.ones((4, 3, 6))
        trace, loss = forward(net, x, np.zeros(4, dtype=int), cfg)
        bt = backward_bptt(net, trace, loss, cfg)
        assert all(a is b for a, b in zip(bt.inputs, trace.spikes[:-1]))
        assert len(bt.inputs) == len(bt.errors) == len(net)

    @pytest.mark.parametrize("fd_seed", [0, 1])
    def test_smooth_mode_matches_finite_differences(self, fd_seed):
        from sadp.oracle import fd_gradient_check
        # The reset stays attached: only then is BPTT the exact gradient of
        # the smooth forward pass.  A detached reset drops the reset path
        # from BPTT, so it would not match finite differences.
        cfg = NeuronConfig(decay=0.6, threshold=1.0, surrogate_width=1.0,
                           reset_detached=False, time_steps=3)
        net = Network.from_arch("dense:8,dense:3", (10,), seed=6)
        rng = np.random.default_rng(8)
        x = (rng.random((5, 3, 10)) < 0.5).astype(float)
        y = rng.integers(0, 3, 5)
        err = fd_gradient_check(net, x, y, cfg, trials=40, seed=fd_seed)
        assert err <= 1e-4

    def test_conv_smooth_mode_matches_finite_differences(self):
        from sadp.oracle import fd_gradient_check
        cfg = NeuronConfig(decay=0.6, threshold=1.0, reset_detached=False,
                           time_steps=2)
        net = Network.from_arch("conv:3x3x3,dense:2", (1, 6, 6), seed=9,
                                init_scale=2.0)
        rng = np.random.default_rng(10)
        x = (rng.random((4, 2, 1, 6, 6)) < 0.5).astype(float)
        err = fd_gradient_check(net, x, rng.integers(0, 2, 4), cfg,
                                trials=40, seed=3)
        assert err <= 1e-4


class TestSoftSpike:
    def test_converges_to_hard_threshold(self):
        u = np.array([0.2, 0.8, 1.3, 2.0])
        hard = (u >= 1.0).astype(float)
        for a in (0.5, 0.1, 0.01):
            cfg = make_cfg(surrogate_width=a)
            soft = soft_spike(u, cfg)
            assert np.abs(soft - hard).max() <= a  # support shrinks with a

    def test_matches_hard_outside_support(self):
        cfg = make_cfg(surrogate_width=0.25)
        u = np.array([0.0, 0.74, 1.26, 3.0])
        np.testing.assert_array_equal(soft_spike(u, cfg), [0.0, 0.0, 1.0, 1.0])


class TestPrecision:
    """The engine computes in its weights' dtype and leaks no other."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("arch, shape, detached", [
        ("dense:10,dense:4", (8,), True),
        ("dense:10,dense:4", (8,), False),
        ("conv:4x3x3s2p1,conv:4x3x3,dense:4", (2, 8, 8), True)])
    @pytest.mark.parametrize("smooth", [False, True])
    def test_every_array_follows_the_weights(self, dtype, arch, shape,
                                             detached, smooth):
        net = Network.from_arch(arch, shape, seed=1, init_scale=2.0).astype(dtype)
        cfg = make_cfg(reset_detached=detached, time_steps=3)
        rng = np.random.default_rng(4)
        # float64 data and loss weights, as training passes them.
        x = (rng.random((6, 3) + shape) < 0.5).astype(np.float64)
        labels = rng.integers(0, 4, 6)
        trace, loss = forward(net, x, labels, cfg, smooth=smooth)
        bt = backward_bptt(net, trace, loss, cfg)
        arrays = (trace.spikes + trace.membranes
                  + [c for c in trace.columns if c is not None]
                  + [loss.per_example_loss, loss.logits, loss.probs]
                  + bt.errors + bt.inputs + bt.weight_grads()
                  + bt.weight_grads(rng.uniform(0.5, 2.0, 6)))
        assert {a.dtype for a in arrays} == {np.dtype(dtype)}
        acc = evaluate(net, DatasetHandle(x, labels, time_steps=3), cfg)
        assert 0.0 <= acc <= 1.0

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_evaluate_matches_forward_on_a_conv_net(self, dtype):
        """evaluate's batches of EVAL_BATCH, the last one partial,
        score as forward's logits over the whole set do."""
        n = 2 * EVAL_BATCH + 13
        net = Network.from_arch("conv:4x3x3p1,conv:4x3x3,dense:4", (2, 6, 6),
                                seed=3, init_scale=2.0).astype(dtype)
        cfg = make_cfg(threshold=0.5, time_steps=3)
        rng = np.random.default_rng(6)
        x = (rng.random((n, 3, 2, 6, 6)) < 0.5).astype(np.float64)
        labels = rng.integers(0, 4, n)
        _, loss = forward(net, x, labels, cfg)
        want = float((loss.logits.argmax(axis=1) == labels).mean())
        assert 0.25 < want < 1.0
        assert evaluate(net, DatasetHandle(x, labels, time_steps=3), cfg) == want

    def test_scalar_helpers_follow_their_input(self):
        cfg = make_cfg()
        u = np.array([0.5, 1.0, 1.5], dtype=np.float32)
        assert surrogate_grad(u, cfg).dtype == np.float32
        assert soft_spike(u, cfg).dtype == np.float32
        assert surrogate_grad(1.0, cfg).dtype == np.float64
        # numpy scalars in the config are held as Python floats, which
        # promote nothing.
        assert type(NeuronConfig(decay=np.float64(0.5)).decay) is float

    def test_astype_copies_through_the_one_check(self):
        net = Network.from_arch("dense:5,dense:3", (4,), seed=2)
        half = net.astype(np.float32)
        assert half.dtype == np.float32 and net.dtype == np.float64
        for w64, w32 in zip(net.weights, half.weights):
            assert w32.dtype == np.float32
            np.testing.assert_array_equal(w32, w64.astype(np.float32))
        back = half.astype(np.float64)
        assert back.weights[0] is not half.weights[0]
        big = Network([(net.specs[0], np.full((5, 4), 1e39)),
                       (net.specs[1], net.weights[1])])
        with np.errstate(over="ignore"), pytest.raises(ValueError,
                                                       match="non-finite"):
            big.astype(np.float32)  # overflows float32
        with pytest.raises(ValueError, match="float32 or float64"):
            net.astype(np.float16)
