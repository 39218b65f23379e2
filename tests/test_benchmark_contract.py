"""Engine names that the benchmark in perfbench/ reads.

perfbench/child.py sums `per_example_grads` over the BackwardTrace that
`snn.backward_bptt` returns, in every traced run, and perfbench/run.py calls
`oracle.measure_correlations(net, data, labels, ncfg)` on the trained
weights.  Deleting or renaming either breaks the benchmark, not the rest of
tier-1; these tests fail first.  Change them with the benchmark change that
stops reading the name.
"""

import numpy as np

from sadp import oracle
from sadp.snn import NeuronConfig, Network, backward_bptt, forward


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
