"""Secrecy capacity of the Gaussian MIMO wiretap channel under GSVD
beamforming: joint channel factorization, closed-form secrecy power
allocation, rate evaluation, uniform baselines, brute-force verification,
and deterministic Monte Carlo campaigns."""

from .allocation import (PowerAllocation, input_covariance, largest_root,
                         power_for_mu, solve_mu)
from .capacity import (RateCurve, SubspacePartition, classify_subspaces,
                       fraction_sweep, matrix_rate, secrecy_rate,
                       uniform_allocation, uniform_secure_allocation)
from .experiments import (AggregateRow, CampaignResult, ExperimentConfig,
                          TrialRecord, load_config, read_trial_csv,
                          run_fraction_experiment, run_snr_sweep,
                          sample_channel, save_config, write_aggregate_csv,
                          write_campaign_aggregate_csv, write_campaign_csv,
                          write_csv)
from .gsvd import (ChannelPair, DegenerateChannelError, FactorCheck,
                   GsvdFactors, SubchannelGains, gsvd, subchannel_gains,
                   verify_factors)
from .linalg import (FactorizationError, as_matrix, load_matrix,
                     rank_with_tol, save_matrix, svd)
from .oracle import KktReport, grid_maximize, kkt_check, random_gains

__version__ = "0.1.0"

__all__ = [
    "AggregateRow", "CampaignResult", "ChannelPair", "DegenerateChannelError",
    "ExperimentConfig", "FactorCheck", "FactorizationError", "GsvdFactors",
    "KktReport", "PowerAllocation", "RateCurve", "SubchannelGains",
    "SubspacePartition", "TrialRecord", "as_matrix", "classify_subspaces",
    "fraction_sweep", "grid_maximize", "gsvd", "input_covariance",
    "kkt_check", "largest_root", "load_config", "load_matrix", "matrix_rate",
    "power_for_mu", "random_gains", "rank_with_tol",
    "read_trial_csv", "run_fraction_experiment", "run_snr_sweep",
    "sample_channel", "save_config", "save_matrix", "secrecy_rate",
    "solve_mu", "subchannel_gains", "svd", "uniform_allocation",
    "uniform_secure_allocation", "verify_factors", "write_aggregate_csv",
    "write_campaign_aggregate_csv", "write_campaign_csv", "write_csv",
]
