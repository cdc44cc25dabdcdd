"""Model builders: task surrogates (paper Section IV-A) and the zoo."""

from .mlp import (
    borghesi_net,
    build_mlp,
    h2_reaction_net,
    mlp_large,
    mlp_medium,
    mlp_small,
)
from .registry import MODEL_REGISTRY, ZOO_INPUT_SHAPES, build_model
from .resnet import model_flops, resnet, resnet18
from .unet import UNetLevel, unet

__all__ = [
    "MODEL_REGISTRY",
    "ZOO_INPUT_SHAPES",
    "borghesi_net",
    "build_mlp",
    "build_model",
    "h2_reaction_net",
    "mlp_large",
    "mlp_medium",
    "mlp_small",
    "model_flops",
    "resnet",
    "resnet18",
    "UNetLevel",
    "unet",
]
