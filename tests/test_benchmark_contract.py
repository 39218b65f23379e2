"""Engine names that the benchmark in perfbench/ reads.

perfbench/child.py sums `per_example_grads` over the BackwardTrace that
`snn.backward_bptt` returns, in every traced run; it splits set-up from the
main call by patching `cli.run_training` (train) and `oracle.exact_grad_norms`
(analyze), and counts uniform fallbacks as `sadp.*` log records that contain
"falling back to uniform".  perfbench/run.py calls
`oracle.measure_correlations(net, data, labels, ncfg)`,
`cli.neuron_config(cfg, time_steps)`, `training.evaluate(net, handle,
ncfg)`, `snn.Network.from_arch(arch, shape, seed=)` and
`cli.save_weights(net, arch, input_shape, path)` (make_inputs), and
`cli.load_weights(path)` (check_training, score_norm_pearson).  make_inputs
writes its dataset with `data.gen_synthetic(classes, n, t, dim, noise,
seed=)`, `data.DatasetHandle(data, labels, time_steps=)` and
`data.write_spike_file(handle, path)`; held_out reads it back with
`cli.parse_config(path, overrides)`, which `cli` re-exports from `config`,
and `cli.load_dataset(cfg)`; check_training parses metrics.csv by the
column names of `data.METRICS_HEADER`.  Deleting or
renaming any of these breaks the benchmark, not the rest of tier-1; these
tests fail first.  Change them with the benchmark change that stops reading
the name.
"""

import logging

import numpy as np
import pytest

from sadp import cli, oracle, training
from sadp.config import parse_config
from sadp.data import (METRICS_HEADER, DatasetHandle, gen_synthetic,
                       write_spike_file)
from sadp.pruning import smooth_probabilities, solve_probabilities
from sadp.snn import NeuronConfig, Network, backward_bptt, forward

FALLBACK_TEXT = "falling back to uniform"


def small_batch():
    net = Network.from_arch("dense:8,dense:3", (6,), seed=3)
    cfg = NeuronConfig(decay=0.3, threshold=0.5, time_steps=3)
    rng = np.random.default_rng(0)
    data = (rng.random((12, 3, 6)) < 0.5).astype(float)
    return net, data, np.arange(12) % 3, cfg


def test_backward_trace_has_per_example_grads():
    net, data, labels, cfg = small_batch()
    btrace = backward_bptt(net, *forward(net, data, labels, cfg), cfg)
    assert sum(g.nbytes for g in btrace.per_example_grads) == 0


def test_measure_correlations_takes_net_data_labels_config():
    net, data, labels, cfg = small_batch()
    corr = oracle.measure_correlations(net, data, labels, cfg)
    assert -1.0 <= corr.score_vs_norm <= 1.0


def test_neuron_config_and_evaluate_take_positional_arguments():
    net, data, labels, _ = small_batch()
    ncfg = cli.neuron_config(parse_config(None, []), 3)
    assert isinstance(ncfg, NeuronConfig) and ncfg.time_steps == 3
    acc = training.evaluate(net, DatasetHandle(data, labels, time_steps=3), ncfg)
    assert 0.0 <= acc <= 1.0


@pytest.mark.parametrize("command, owner, name", [
    ("train", cli, "run_training"), ("analyze", oracle, "exact_grad_norms")])
def test_commands_reach_the_engine_through_the_patched_name(
        tmp_path, monkeypatch, capsys, command, owner, name):
    out = ["-o", "dataset.synthetic.n=40", "-o", "train.epochs=1",
           "-o", "neuron.threshold=0.5",
           "-o", f"out.metrics={tmp_path}/m.csv",
           "-o", f"out.weights={tmp_path}/w.npz",
           "-o", f"out.report={tmp_path}/r.txt"]
    if command == "analyze":
        assert cli.main(["train"] + out) == cli.EXIT_OK
    entry, calls = getattr(owner, name), []

    def marked(*args, **kwargs):
        calls.append(1)
        return entry(*args, **kwargs)
    monkeypatch.setattr(owner, name, marked)
    assert cli.main([command] + out) == cli.EXIT_OK
    assert calls == [1]


@pytest.mark.parametrize("fallback", ["all-zero scores", "infeasible floor"])
def test_uniform_fallbacks_log_the_counted_text(caplog, fallback):
    with caplog.at_level(logging.WARNING, logger="sadp"):
        if fallback == "all-zero scores":
            solve_probabilities(np.zeros(4), 2)
        else:
            smooth_probabilities(np.array([1e-6, 1.0, 1.0, 1.0]), 2, 0.6)
    counted = [r for r in caplog.records if r.name.startswith("sadp.")
               and FALLBACK_TEXT in r.getMessage()]
    assert len(counted) == 1


@pytest.mark.parametrize("arch, shape", [
    ("dense:8,dense:3", (6,)), ("conv:4x3x3p1,conv:4x3x3,dense:3", (8, 8))])
def test_weights_round_trip_through_save_and_load(tmp_path, arch, shape):
    """Initial weights saved as the analyze workload saves them, and a conv
    net on 8x8 images saved as `sadp train` saves it (with layer 0's input
    shape), come back from the file unchanged."""
    net = Network.from_arch(arch, shape, seed=5)
    path = str(tmp_path / "w.npz")
    cli.save_weights(net, arch, net.specs[0].input_shape, path)
    loaded = cli.load_weights(path)
    assert loaded.specs == net.specs
    for a, b in zip(loaded.weights, net.weights, strict=True):
        np.testing.assert_array_equal(a, b)


def test_inputs_written_and_read_back_as_make_inputs_and_held_out_do(tmp_path):
    """A spike file written as make_inputs writes it (an image workload
    reshapes the data first) comes back through cli.parse_config and
    cli.load_dataset with its last fifth held out."""
    handle = gen_synthetic(4, 20, 3, 16, 0.1, seed=7)
    handle = DatasetHandle(handle.data.reshape(20, 3, 4, 4), handle.labels,
                           time_steps=3)
    write_spike_file(handle, str(tmp_path / "inputs.spkt"))
    (tmp_path / "bench.cfg").write_text("net.arch = dense:8,dense:4\n")
    cfg = cli.parse_config(str(tmp_path / "bench.cfg"),
                           [f"dataset.path={tmp_path / 'inputs.spkt'}"])
    train, test = cli.load_dataset(cfg)
    assert (train.n, test.n, test.time_steps) == (16, 4, 3)
    np.testing.assert_array_equal(test.data, handle.data[16:])


def test_metrics_header_names_the_columns_the_checks_read():
    header = METRICS_HEADER.split(",")
    assert {"epoch", "ratio", "processed", "test_acc", "wall_s",
            "solver_iters"} <= set(header)
