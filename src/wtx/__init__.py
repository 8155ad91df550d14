"""wtx: weight transfer networks with manual gradients, a synthetic
source/target benchmark, and the analyses that compare the variants."""

from .bench import BenchConfig, BenchmarkInstance, generate_benchmark
from .config import ExperimentConfig, config_from_dict, config_to_dict, default_config
from .evaluation import (MetricReport, NormStats, OverlapCurve, comparison_table,
                         evaluate, nn_overlap, norm_stats)
from .layers import ClassBatchNorm, GroupNorm, Linear, Param, ReLU
from .losses import sigmoid_bce, smooth_l1
from .matrix import matrix_hash, row_l2_norms
from .models import (DetectionProxyHead, ModelConfig, SourceWeights, TrainConfig,
                     TransferModel, baseline_lsda_bias, baseline_nn_transfer,
                     train_conventional_head, train_joint)
from .optim import AdamW, SGDMomentum

__version__ = "0.1.0"
