"""Coding-rate mathematics, decoupled membership-subspace attention, and a toy classifier."""

from .analysis import (
    MembershipMap,
    RateCurve,
    infer_grid,
    layer_rate_curve,
    membership_map,
    profile_attention_memory,
    read_pgm,
    write_pgm,
)
from .attention import (
    AttentionKind,
    GatedChannelParams,
    MhsaLayerParams,
    dmsa_operator,
    gated_channel_forward,
    gated_channel_reference,
    mhsa_layer_forward,
    rope_precompute,
)
from .checkpoint import load_checkpoint, save_checkpoint
from .coding_rate import (
    CodingRateConfig,
    Membership,
    SubspaceBank,
    TokenMatrix,
    grad_rate_wrt_tokens,
    logdet_psd,
    membership_from_subspaces,
    rate_segmented,
    rate_total,
    rate_variational_coupled,
    rate_variational_decoupled,
)
from .config import load_config, parse_config_text
from .data import SyntheticDatasetSpec, TokenDataset, generate_synthetic
from .errors import DmstError, FormatError, InvalidInput, NotPSD, NumericalFault
from .model import ModelConfig, init_params, model_forward, predict
from .sparsify import (
    ActivationKind,
    SparseWeights,
    soft_threshold,
    sparse_subspace,
)
from .train import TrainOptions, TrainResult, evaluate, train
from .verify import Check, run_suite

__version__ = "0.1.0"

__all__ = [
    "ActivationKind",
    "AttentionKind",
    "Check",
    "CodingRateConfig",
    "DmstError",
    "FormatError",
    "GatedChannelParams",
    "InvalidInput",
    "Membership",
    "MembershipMap",
    "MhsaLayerParams",
    "ModelConfig",
    "NotPSD",
    "NumericalFault",
    "RateCurve",
    "SparseWeights",
    "SubspaceBank",
    "SyntheticDatasetSpec",
    "TokenDataset",
    "TokenMatrix",
    "TrainOptions",
    "TrainResult",
    "dmsa_operator",
    "evaluate",
    "gated_channel_forward",
    "gated_channel_reference",
    "generate_synthetic",
    "grad_rate_wrt_tokens",
    "infer_grid",
    "init_params",
    "layer_rate_curve",
    "load_checkpoint",
    "load_config",
    "logdet_psd",
    "membership_from_subspaces",
    "membership_map",
    "mhsa_layer_forward",
    "model_forward",
    "parse_config_text",
    "predict",
    "profile_attention_memory",
    "rate_segmented",
    "rate_total",
    "rate_variational_coupled",
    "rate_variational_decoupled",
    "read_pgm",
    "rope_precompute",
    "run_suite",
    "save_checkpoint",
    "soft_threshold",
    "sparse_subspace",
    "train",
    "write_pgm",
]
