"""Noisy-label regression via contrastive fragment pairing and clean-sample selection."""

from .config import ExperimentConfig
from .data import (
    Dataset,
    generate_synthetic,
    inject_gaussian_noise,
    inject_symmetric_noise,
    load_csv,
    split_dataset,
    write_csv,
)
from .experts import build_feature_bank, init_ensemble, knn_votes, pair_sets, pred_winners, train_experts_epoch
from .fragments import (
    FragmentationScheme,
    JitteredScheme,
    Pairing,
    fragment_edge_weights,
    fragment_labels,
    jitter_scheme,
    list_perfect_matchings,
    max_jitter,
    select_contrastive_pairing,
)
from .metrics import error_residual_ratio, mae, mrae, selection_rate
from .net import Net, NetSpec, forward_batch, init_net, load_net, save_net
from .net import train_epoch, train_step
from .pipeline import (
    RunResult,
    load_dataset,
    run_experiment,
    run_noise_free_reference,
)
from .selection import SelectionOutcome, select_clean

__version__ = "0.1.0"
