"""Desk-scale spiking network training lab with spike-aware data pruning."""

from .data import DatasetHandle, gen_synthetic, gen_synthetic_split
from .pruning import (ProbabilityAssignment, PruneConfig, loss_score,
                      loss_weights, sample_mask, schedule_ratio,
                      smooth_probabilities, solve_probabilities,
                      spike_aware_score)
from .snn import (BackwardTrace, ForwardTrace, LayerSpec, LossOutput,
                  NeuronConfig, Network, backward_bptt, check_data, forward,
                  infer, patch_count, surrogate_grad)
from .training import TrainConfig, cosine_lr, run_training, sgd_step

__all__ = [
    "BackwardTrace", "DatasetHandle", "ForwardTrace", "LayerSpec",
    "LossOutput", "NeuronConfig", "Network",
    "ProbabilityAssignment", "PruneConfig", "TrainConfig",
    "backward_bptt", "check_data", "cosine_lr", "forward", "infer",
    "gen_synthetic", "gen_synthetic_split", "loss_score", "loss_weights",
    "patch_count", "run_training", "sample_mask", "schedule_ratio", "sgd_step",
    "smooth_probabilities", "solve_probabilities", "spike_aware_score",
    "surrogate_grad",
]

__version__ = "0.1.0"
