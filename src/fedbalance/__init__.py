"""Desk-scale simulator of label-skewed federated learning.

Clients holding only a few classes top up the missing ones with two kinds of
pseudo-images: dominant-weight Laplace-noised mixups served by peers over a
bounty protocol, and artificially labeled natural-noise images from an
untrained multi-scale generator. A FedAvg engine with small
hand-differentiated models trains over the augmented datasets.
"""

from .datasets import (ClientDataset, PartitionSpec, Provenance, Scheme,
                       make_toy_dataset, parse_cifar10, parse_idx, partition)
from .mixing import DpMixConfig, WeightMode, dp_labelhide, sample_laplace
from .noisegen import (GeneratorConfig, GeneratorState, WaveletBank, generate,
                       init_generator, power_spectrum_slope, sample_wavelet)
from .protocol import (BountyResponse, Record, Topology, plan_deficits, route,
                       run_balance, serve_bounty)
from .training import (ModelParams, OptState, RoundReport, TrainConfig,
                       adam_step, build_model, fedavg_aggregate, forward,
                       init_model, loss_and_grad, run_round)
from .serialization import write_trace
from .experiments import (ExperimentConfig, load_config, run_experiment,
                          run_grid)

__version__ = "0.1.0"
