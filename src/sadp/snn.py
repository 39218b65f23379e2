"""Leaky integrate-and-fire network engine with full trace recording.

Implements dense and 2-D convolutional spiking layers, a forward pass that
records every membrane potential and spike, and a manual backprop-through-time
backward pass with a triangular surrogate gradient, in plain numpy with no
autodiff framework underneath.

Precision rule: the engine computes in the dtype of its network's weights,
float32 or float64 (`Network.astype` makes the other copy), and casts each
batch's input to it; every trace array, error and gradient comes out in that
dtype.  Training runs a float32 copy of its float64 master weights; the
oracle, `sadp verify` and `sadp analyze` run the same code in float64.

Layout rule: every record is read as (B, T, *layer_shape).  A conv layer,
and every layer after one, stores its membranes and spikes examples-last, as
(T, *layer_shape, B), and hands out `np.moveaxis` views of that storage, so
that im2col, the GEMMs and the backprojection's strided adds move rows of
contiguous examples and, past the first conv layer's input, no layer
transposes another's records.  A layer's errors inherit its records' order,
since numpy's elementwise results follow their inputs' memory order.  A dense
net stores every record (B, T, units), as it reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

Array = np.ndarray


class ShapeError(ValueError):
    """Tensor dimensions do not match the layer/network contract."""


@dataclass
class NeuronConfig:
    """Shared LIF parameters: decay, threshold, surrogate width, reset mode."""

    decay: float
    threshold: float = 1.0
    surrogate_width: float = 1.0
    reset_detached: bool = True
    time_steps: int = 1

    def __post_init__(self) -> None:
        # Plain Python floats, so that no numpy scalar promotes a float32 engine.
        self.decay, self.threshold, self.surrogate_width = (
            float(self.decay), float(self.threshold), float(self.surrogate_width))
        if not 0.0 < self.decay <= 1.0:
            raise ValueError(f"decay must lie in (0, 1], got {self.decay}")
        for name in ("threshold", "surrogate_width"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite, got "
                                 f"{getattr(self, name)}")
        if self.time_steps < 1:
            raise ValueError(f"time_steps must be >= 1, got {self.time_steps}")


@dataclass
class LayerSpec:
    """One trainable layer; derives its output shape and checks every
    single-layer rule.  A conv layer's units are its output channels."""

    kind: str  # "dense" or "conv2d"
    input_shape: tuple[int, ...]
    units: int
    kernel_size: int = 0
    stride: int = 1
    padding: int = 0
    output_shape: tuple[int, ...] = field(init=False)

    def __post_init__(self) -> None:
        self.input_shape = tuple(self.input_shape)
        if self.kind not in ("dense", "conv2d"):
            raise ValueError(f"unknown layer kind {self.kind!r}")
        if self.units < 1:
            raise ValueError("needs at least one unit or channel")
        self.output_shape = (self.units,)
        if self.kind == "conv2d":
            if len(self.input_shape) != 3:
                raise ShapeError(f"conv layer needs a (C, H, W) input, got "
                                 f"{self.input_shape}")
            if self.kernel_size < 1 or self.stride < 1 or self.padding < 0:
                raise ValueError("invalid conv geometry")
            self.output_shape += conv_output_hw(self.input_shape[1:], self.kernel_size,
                                                self.stride, self.padding)
        if self.fan_in < 1:
            raise ValueError(f"has no input: input shape {self.input_shape}")

    @property
    def weight_shape(self) -> tuple[int, ...]:
        if self.kind == "dense":
            return (self.units, int(np.prod(self.input_shape)))
        k = self.kernel_size
        return (self.units, self.input_shape[0], k, k)

    @property
    def fan_in(self) -> int:
        if self.kind == "dense":
            return int(np.prod(self.input_shape))
        return self.input_shape[0] * self.kernel_size * self.kernel_size


def conv_output_hw(hw: tuple[int, int], kernel: int, stride: int,
                   padding: int) -> tuple[int, int]:
    h = (hw[0] + 2 * padding - kernel) // stride + 1
    w = (hw[1] + 2 * padding - kernel) // stride + 1
    if h < 1 or w < 1:
        raise ShapeError("conv kernel does not fit the padded input")
    return (h, w)


def patch_count(spec: LayerSpec) -> int:
    """Number of input patches a layer's kernel is applied to: a conv layer's
    sliding-window positions (its output's H*W), and 1 for a dense layer,
    whose kernel covers its whole input (its output has no spatial axes)."""
    return math.prod(spec.output_shape[1:])


def fits(shape: tuple[int, ...], input_shape: tuple[int, ...]) -> bool:
    """Whether per-step data of `shape` can feed a layer that reads
    `input_shape`: the sizes must match, since the layer reshapes its input."""
    return math.prod(shape) == math.prod(input_shape)


ENGINE_DTYPES = (np.float32, np.float64)


class Network:
    """Ordered stack of (LayerSpec, weight) pairs; adjacent shapes must compose.
    The constructor is the one check on weight arrays, astype's and
    weight files' included: every layer's weights are held in `dtype`,
    float64 unless asked for float32."""

    def __init__(self, layers: list[tuple[LayerSpec, Array]],
                 dtype: np.typing.DTypeLike = np.float64):
        if not layers:
            raise ValueError("network needs at least one layer")
        for i in range(1, len(layers)):
            prev, cur = layers[i - 1][0], layers[i][0]
            if not fits(prev.output_shape, cur.input_shape):
                raise ShapeError(
                    f"layer {i} input {cur.input_shape} does not compose with "
                    f"layer {i - 1} output {prev.output_shape}")
        dtype = np.dtype(dtype)
        if dtype not in ENGINE_DTYPES:
            raise ValueError(f"engine dtype must be float32 or float64, got {dtype}")
        for _, w in layers:
            if np.iscomplexobj(w):
                raise ValueError(f"weights must be real, got {np.asarray(w).dtype}")
        self.dtype = dtype
        self.layers = [(spec, np.asarray(w, dtype=dtype)) for spec, w in layers]
        for spec, w in self.layers:
            if w.shape != spec.weight_shape:
                raise ShapeError(f"weight shape {w.shape} != expected {spec.weight_shape}")
            if not np.all(np.isfinite(w)):
                raise ValueError("non-finite weights")

    def __len__(self) -> int:
        return len(self.layers)

    @property
    def specs(self) -> list[LayerSpec]:
        return [spec for spec, _ in self.layers]

    @property
    def weights(self) -> list[Array]:
        return [w for _, w in self.layers]

    def astype(self, dtype: np.typing.DTypeLike) -> "Network":
        """A copy of the network with its weights held in `dtype`."""
        return Network([(spec, w.astype(dtype)) for spec, w in self.layers], dtype)

    @classmethod
    def from_arch(cls, arch: str, input_shape: tuple[int, ...], seed: int = 0,
                  init_scale: float = 1.0) -> "Network":
        """The network of `parse_arch(arch, input_shape)`, with layer l's
        weights drawn as the l-th uniform(-b, b) call of default_rng(seed),
        b = init_scale * sqrt(3 / fan_in)."""
        rng = np.random.default_rng(seed)
        layers: list[tuple[LayerSpec, Array]] = []
        for spec in parse_arch(arch, input_shape):
            bound = init_scale * math.sqrt(3.0 / spec.fan_in)
            layers.append((spec, rng.uniform(-bound, bound, size=spec.weight_shape)))
        return cls(layers)


def parse_arch(arch: str, input_shape: tuple[int, ...]) -> list[LayerSpec]:
    """The layers of an arch string like "dense:64,dense:10" or
    "conv:8x3x3,dense:10" on per-step inputs of `input_shape`.  Conv entries
    accept optional sN / pM suffixes for stride and padding, e.g.
    "conv:8x3x3s2p1".  A conv layer reads an (H, W) input as one channel.
    Errors name the offending token."""
    shape = tuple(input_shape)
    specs: list[LayerSpec] = []
    for token in arch.split(","):
        token = token.strip()
        try:
            specs.append(_parse_layer(token, shape))
        except ValueError as exc:
            raise type(exc)(f"layer {token!r}: {exc}") from exc
        shape = specs[-1].output_shape
    return specs


def _parse_layer(token: str, shape: tuple[int, ...]) -> LayerSpec:
    """The LayerSpec of one arch token that reads `shape`."""
    kind, _, body = token.partition(":")
    if kind == "dense":
        return LayerSpec("dense", shape, int(body))
    if kind != "conv":
        raise ValueError("unknown layer kind")
    stride, padding = 1, 0
    if "p" in body:
        body, p = body.rsplit("p", 1)
        padding = int(p)
    if "s" in body:
        body, s = body.rsplit("s", 1)
        stride = int(s)
    oc, kh, kw = (int(v) for v in body.split("x"))
    if kh != kw:
        raise ValueError("only square kernels are supported")
    shape = (1,) + shape if len(shape) == 2 else shape
    return LayerSpec("conv2d", shape, oc, kernel_size=kh, stride=stride,
                     padding=padding)


@dataclass
class ForwardTrace:
    """Everything recorded during a forward pass.

    spikes[0] is the encoded input; spikes[l] / membranes[l-1] for l >= 1 are
    layer outputs, each with shape (batch, T, *layer_shape); from the first
    conv layer on they are views of (T, *layer_shape, batch) storage (the
    module's layout rule).  Membranes are the post-reset potentials; the
    pre-reset value is membranes + threshold*spikes.  columns[l] is what an
    examples-last layer's GEMM multiplies, (T, fan_in, P*batch): a conv
    layer's im2col columns or a dense layer's input view; it is None for a
    dense layer stored examples-first.
    """

    spikes: list[Array]
    membranes: list[Array]
    columns: list[Array | None]


@dataclass
class BackwardTrace:
    """Per-layer, per-time BPTT errors and the input spikes they multiply.

    The batch gradient is formed on demand by weight_grads; per-example
    gradients are the oracle's return value, never part of a trace.
    """

    # errors[l] has shape (batch, T, *layer_shape), in the memory order of
    # the forward trace's records of layer l.
    errors: list[Array]
    inputs: list[Array]  # the forward trace's spikes[:-1], not copies
    specs: list[LayerSpec]
    columns: list[Array | None] = field(default_factory=list)  # as in ForwardTrace
    # Always empty; read only by perfbench, and deleted with that reader.
    per_example_grads: list[Array] = field(default_factory=list)

    def weight_grads(self, example_weights: Array | None = None) -> list[Array]:
        """Batch gradient per layer: (1/B) sum_i w_i g_i, w_i = 1 by default.

        The weights scale the errors in their storage order, so a layer stored
        examples-first (dense) costs one (B*T, out)^T @ (B*T, in) product, and
        a layer stored examples-last one batched (T, out, P*B) @ (T, P*B,
        fan_in) product summed over T, on the layer's kept columns, with no
        copy.
        """
        # In the errors' dtype: float64 loss weights must not promote a
        # float32 error tensor and its GEMM.
        w = None if example_weights is None else \
            np.asarray(example_weights, dtype=self.errors[0].dtype)
        out = []
        for l, (spec, delta, o) in enumerate(zip(self.specs, self.errors, self.inputs)):
            batch, t_steps = delta.shape[:2]
            if spec.kind == "dense" and not _stored_examples_last(delta):
                if w is not None:
                    delta = delta * w.reshape((batch,) + (1,) * (delta.ndim - 1))
                g = delta.reshape(batch * t_steps, -1).T \
                    @ o.reshape(batch * t_steps, -1)
            else:
                d = np.moveaxis(delta, 0, -1)  # (T, *layer_shape, B), as stored
                if w is not None:
                    d = d * w
                d = d.reshape(t_steps, spec.units, -1)
                g = np.matmul(d, self.columns[l].transpose(0, 2, 1)).sum(axis=0)
            out.append(g.reshape(spec.weight_shape) / batch)
        return out


@dataclass
class LossOutput:
    """Per-example cross-entropy loss on spike-count logits."""

    per_example_loss: Array  # (batch,)
    logits: Array            # (batch, classes)
    probs: Array             # softmax of logits
    labels: Array            # (batch,) int


def surrogate_grad(u: Array | float, cfg: NeuronConfig,
                   overwrite: bool = False) -> Array:
    """Triangular surrogate: max(0, 1 - |u - theta|/a)/a, in u's float dtype
    (float64 for a Python number).  With overwrite=True it is formed in u's
    own storage (u must then be a float array)."""
    a = cfg.surrogate_width
    z = u if overwrite else np.array(u, dtype=np.result_type(u, 1.0))
    np.abs(np.subtract(z, cfg.threshold, out=z), out=z)
    np.maximum(0.0, np.subtract(1.0, np.divide(z, a, out=z), out=z), out=z)
    z /= a
    return z


def soft_spike(u: Array, cfg: NeuronConfig) -> Array:
    """Piecewise-quadratic antiderivative of the triangular surrogate.

    Used by smooth mode: its derivative is exactly surrogate_grad, so BPTT is
    the exact gradient of the smooth forward pass.
    """
    a, th = cfg.surrogate_width, cfg.threshold
    z = np.asarray(u) - th
    out = np.zeros_like(z)
    left = (z > -a) & (z <= 0.0)
    right = (z > 0.0) & (z < a)
    out[left] = (z[left] + a) ** 2 / (2.0 * a * a)
    out[right] = 1.0 - (a - z[right]) ** 2 / (2.0 * a * a)
    out[z >= a] = 1.0
    return out


def im2col(x: Array, kernel: int, stride: int, padding: int) -> Array:
    """(T, C, H, W, B) -> (T, C*k*k, P*B) sliding-window columns, examples last.

    x is any view of that shape; it is copied once into a contiguous padded
    grid when it has padding or is not yet examples-last in memory.  Each of
    the k*k window offsets then copies rows of contiguous examples.
    """
    t, c, h, w, b = x.shape
    ho, wo = conv_output_hw((h, w), kernel, stride, padding)
    if padding or not x.flags.c_contiguous:
        xp = np.zeros((t, c, h + 2 * padding, w + 2 * padding, b), dtype=x.dtype)
        xp[:, :, padding:padding + h, padding:padding + w] = x
        x = xp
    cols = np.empty((t, c, kernel, kernel, ho, wo, b), dtype=x.dtype)
    for i in range(kernel):
        for j in range(kernel):
            cols[:, :, i, j] = x[:, :, i:i + stride * ho:stride,
                                 j:j + stride * wo:stride]
    return cols.reshape(t, c * kernel * kernel, ho * wo * b)


def _stored_examples_last(record: Array) -> bool:
    """Whether a (B, T, ...) record is stored examples-last: its examples lie
    next to each other in memory.  Where both orders are the same array, as
    at B = 1, this reads False."""
    return not record.flags.c_contiguous and record.strides[0] == record.itemsize


def run_layer(spec: LayerSpec, w: Array, inputs: Array, cfg: NeuronConfig,
              smooth: bool = False) -> tuple[Array, Array, Array | None]:
    """One layer over all T steps of its inputs (B, T, *input_shape).

    The synaptic current of every step is one GEMM, written into the
    membrane record that the LIF recurrence then overwrites step by step.  A
    conv layer, and a dense layer whose input is stored examples-last, store
    their records examples-last: the current is one W @ cols batched over T,
    where cols, (T, fan_in, P*B), is a conv layer's im2col of its input and a
    dense layer's input view.  Other dense layers form it as one GEMM
    over the B*T input rows.  The LIF loop is the engine's one recurrence:
    decay, integrate, fire at >= theta, subtract the reset, in place on a
    state held in the record's memory order; smooth=True only swaps the hard
    threshold for soft_spike.  Returns the spikes and post-reset membranes,
    (B, T, *output_shape) each, and the cols (None for a dense layer stored
    examples-first).
    """
    b, t_steps = inputs.shape[:2]
    cols = None
    if spec.kind == "dense" and not _stored_examples_last(inputs):
        u_rec = np.empty((b, t_steps) + spec.output_shape, dtype=w.dtype)
        np.matmul(inputs.reshape(b * t_steps, -1), w.T,
                  out=u_rec.reshape(b * t_steps, -1))
    else:
        x = np.moveaxis(inputs.reshape((b, t_steps) + spec.input_shape), 0, -1)
        cols = x.reshape(t_steps, -1, b) if spec.kind == "dense" \
            else im2col(x, spec.kernel_size, spec.stride, spec.padding)
        u_store = np.empty((t_steps,) + spec.output_shape + (b,), dtype=w.dtype)
        np.matmul(w.reshape(w.shape[0], -1), cols,
                  out=u_store.reshape(t_steps, w.shape[0], -1))
        u_rec = np.moveaxis(u_store, -1, 0)
    o_rec = np.empty_like(u_rec)
    u = np.zeros_like(u_rec[:, 0])
    reset = np.empty_like(u)
    for t in range(t_steps):
        u *= cfg.decay
        u += u_rec[:, t]
        if smooth:
            o_rec[:, t] = soft_spike(u, cfg)
        else:
            np.greater_equal(u, cfg.threshold, out=o_rec[:, t])
        u -= np.multiply(o_rec[:, t], cfg.threshold, out=reset)
        u_rec[:, t] = u
    return o_rec, u_rec, cols


def _backproject(spec: LayerSpec, w: Array, delta: Array) -> Array:
    """Map a layer's output errors (B, T, *output_shape) back to its input
    spikes, (B, T, *input_shape): one GEMM over all B*T rows for a dense
    layer stored examples-first, else W^T @ delta over all T steps, whose
    result is a view of examples-last storage.  A conv layer makes one such
    product per kernel offset and adds it into that offset's strided window
    of a zeroed, padded input grid; the result is its unpadded view."""
    b, t_steps = delta.shape[:2]
    if spec.kind == "dense" and not _stored_examples_last(delta):
        return (delta.reshape(b * t_steps, -1) @ w).reshape(
            (b, t_steps) + spec.input_shape)
    d = np.moveaxis(delta, 0, -1).reshape(t_steps, w.shape[0], -1)
    x_shape = (t_steps,) + spec.input_shape + (b,)
    if spec.kind == "dense":
        return np.moveaxis((w.T @ d).reshape(x_shape), -1, 0)
    (c, h, wd), (ho, wo) = spec.input_shape, spec.output_shape[1:]
    k, s, p = spec.kernel_size, spec.stride, spec.padding
    xp = np.zeros((t_steps, c, h + 2 * p, wd + 2 * p, b), dtype=d.dtype)
    for i in range(k):
        for j in range(k):
            xp[:, :, i:i + s * ho:s, j:j + s * wo:s] += np.matmul(
                w[:, :, i, j].T, d).reshape(t_steps, c, ho, wo, b)
    return np.moveaxis(xp[:, :, p:p + h, p:p + wd], -1, 0)


def check_data(net: Network, data: Array, labels: Array, cfg: NeuronConfig,
               name: str = "batch") -> None:
    """The one rule for data a net runs on, batch or dataset: (N, T, ...) with
    N >= 1, T = cfg.time_steps and a per-step size that `fits` layer 0, and
    N integer labels within the output layer's units; errors start `name`."""
    shape, labels = np.shape(data), np.asarray(labels)
    if len(shape) < 3:
        raise ShapeError(f"{name} of shape {shape} is not (N, T, ...) spike data")
    if shape[1] != cfg.time_steps:
        raise ShapeError(f"{name} has {shape[1]} time steps, not the run's "
                         f"T = {cfg.time_steps}")
    layer0, units = net.specs[0].input_shape, math.prod(net.specs[-1].output_shape)
    if not fits(shape[2:], layer0):
        raise ShapeError(f"{name} input shape {shape[2:]} does not fit layer 0 "
                         f"input {layer0}")
    if shape[0] == 0:
        raise ValueError(f"{name} has no example")
    if labels.shape != shape[:1] or labels.dtype.kind not in "iu":
        raise ValueError(f"{name} labels must be one integer per example, "
                         f"got {labels.dtype} of shape {labels.shape}")
    worst = labels.min() if labels.min() < 0 else labels.max()
    if not 0 <= worst < units:
        raise ValueError(f"{name} label {worst} out of range for {units} output units")


def forward(net: Network, encoded_input: Array, labels: Array, cfg: NeuronConfig,
            smooth: bool = False) -> tuple[ForwardTrace, LossOutput]:
    """Run the network over T time steps, recording all state.

    encoded_input has shape (batch, T, *input_shape); spikes or currents at
    layer 0, cast to the network's dtype.  The batch and its labels pass
    `check_data` before any layer runs.  The readout is the per-class mean
    output spike count over T, scored with softmax cross-entropy.  With
    smooth=True the hard threshold is replaced by its soft counterpart (for
    gradient checking).
    """
    x = np.asarray(encoded_input, dtype=net.dtype)
    check_data(net, x, labels, cfg)
    batch, t_steps = x.shape[0], x.shape[1]
    labels = np.asarray(labels, dtype=np.int64)

    spikes: list[Array] = [x]
    membranes: list[Array] = []
    columns: list[Array | None] = []
    for spec, w in net.layers:
        o_rec, u_rec, cols = run_layer(spec, w, spikes[-1], cfg, smooth)
        spikes.append(o_rec)
        membranes.append(u_rec)
        columns.append(cols)

    logits = spikes[-1].reshape(batch, t_steps, -1).mean(axis=1)
    shifted = logits - logits.max(axis=1, keepdims=True)
    expv = np.exp(shifted)
    probs = expv / expv.sum(axis=1, keepdims=True)
    nll = -np.log(probs[np.arange(batch), labels])
    trace = ForwardTrace(spikes=spikes, membranes=membranes, columns=columns)
    loss = LossOutput(per_example_loss=nll, logits=logits, probs=probs, labels=labels)
    return trace, loss


def backward_bptt(net: Network, trace: ForwardTrace, loss: LossOutput,
                  cfg: NeuronConfig) -> BackwardTrace:
    """Backprop through time over the recorded trace.

    Errors are d(per-example loss)/d(pre-reset membrane); the hard spike
    derivative is replaced by the triangular surrogate.  The returned trace
    holds the errors and references to the input spikes and kept columns,
    which is all the batch gradient and the spike-aware score need.
    """
    batch, t_steps = trace.spikes[0].shape[:2]
    n_layers = len(net)
    onehot = np.zeros_like(loss.probs)
    onehot[np.arange(batch), loss.labels] = 1.0
    dlogits = loss.probs - onehot  # d(nll_i)/d(logits_i)

    errors: list[Array] = [None] * n_layers  # type: ignore[list-item]
    for l in range(n_layers - 1, -1, -1):
        spec = net.specs[l]
        shape = (batch, t_steps) + spec.output_shape
        # The surrogate at the pre-reset membrane, formed in one array.
        sg = np.multiply(trace.spikes[l + 1], cfg.threshold)
        sg += trace.membranes[l]
        surrogate_grad(sg, cfg, overwrite=True)
        if l == n_layers - 1:
            do = (dlogits / t_steps).reshape((batch, 1) + spec.output_shape)
        else:
            do = _backproject(*net.layers[l + 1], errors[l + 1]).reshape(shape)
        # The membrane's carry from one step to the next: the scalar decay
        # with a detached reset, else decay * (1 - theta * sg), in sg's dtype.
        carry = None if cfg.reset_detached \
            else cfg.decay * (1.0 - cfg.threshold * sg)
        # The direct term for every step at once, in the surrogate's storage;
        # the loop adds the error carried back through the membrane from the
        # step after.
        delta = sg
        delta *= do
        for t in range(t_steps - 2, -1, -1):
            delta[:, t] += (cfg.decay if carry is None else carry[:, t]) \
                * delta[:, t + 1]
        errors[l] = delta
    return BackwardTrace(errors=errors, inputs=trace.spikes[:-1], specs=net.specs,
                         columns=trace.columns)
