"""Joint progressive knowledge distillation and unsupervised domain
adaptation: a big model aligns feature distributions across a domain shift
while a compact student is progressively distilled from it."""

from .autodiff import Graph, Tensor, backward
from .data import DomainPair, batches, gen_blob_shift, stack_pairs
from .errors import (ConfigError, KdudaError, NumericalAbort, ParameterError,
                     ShapeError)
from .harness import ExperimentConfig, ScenarioResult, load_config, run_experiment
from .losses import (KernelConfig, cross_entropy, distill_kl, mmd_squared,
                     source_kd_loss, target_kd_loss, teacher_da_loss)
from .models import Model, ModelSpec, build, count_complexity, stack
from .trainer import (OptimizerState, TrainConfig, TrainLog, evaluate, sgd_step,
                      train_joint, train_kd_then_uda, train_source_only,
                      train_uda_only, train_uda_then_kd)

__version__ = "0.1.0"
