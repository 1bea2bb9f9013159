"""Linear inverse imaging via an unrolled proximal gradient network with a
trainable invertible (normalizing-flow) prior.

Modules, bottom-up: ``numerics`` (PRNG, circular convolution), ``diff``
(parameter store, gradient checking), ``flow`` (the invertible model),
``operators`` (measurement operators), ``unfold`` (the K-fold network and
its reverse sweep), ``train`` (the config, losses, Adam, the shared
training loop), ``io`` (the image, dataset and checkpoint files),
``checks`` (the invariant checks that ``selftest`` and the acceptance gate
run) and ``cli`` (config files and commands).
"""

from .errors import (
    CheckpointError,
    ConfigError,
    DataError,
    FlowUnfoldError,
    GradCheckError,
    ReconstructionError,
    ShapeError,
    TrainingError,
)
from .flow import FlowModel
from .numerics import Prng, derive_seed
from .operators import make_measurement, operator_for_task
from .train import TrainConfig, mse_loss, nll_loss, pretrain, psnr, train_unrolled
from .unfold import UnrolledNet, reconstruct

__version__ = "0.1.0"

__all__ = [
    "CheckpointError",
    "ConfigError",
    "DataError",
    "FlowUnfoldError",
    "GradCheckError",
    "ReconstructionError",
    "ShapeError",
    "TrainingError",
    "FlowModel",
    "Prng",
    "derive_seed",
    "make_measurement",
    "operator_for_task",
    "TrainConfig",
    "mse_loss",
    "nll_loss",
    "pretrain",
    "psnr",
    "train_unrolled",
    "UnrolledNet",
    "reconstruct",
    "__version__",
]
