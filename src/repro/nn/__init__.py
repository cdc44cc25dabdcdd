"""Numpy neural-network substrate.

Layers, losses, optimizers and a trainer sufficient to build and train the
scientific surrogate models evaluated in the paper (MLPs and ResNets),
including the parameterized spectral normalization of Section III-C.
"""

from .activations import (
    ACTIVATIONS,
    GELU,
    Activation,
    Identity,
    LeakyReLU,
    PReLU,
    ReLU,
    Sigmoid,
    Tanh,
    make_activation,
)
from .conv import Conv2d, SpectralConv2d
from .linear import Linear, SpectralLinear
from .losses import CrossEntropyLoss, MSELoss, spectral_penalty, spectral_penalty_backward
from .module import Module, Parameter
from .normalization import BatchNorm2d
from .optim import SGD, Adam, Optimizer
from .pooling import AvgPool2d, Flatten, GlobalAvgPool2d, MaxPool2d
from .residual import BasicBlock, ResidualBlock
from .schedulers import CosineAnnealingLR, Scheduler, StepLR
from .sequential import Sequential
from .spectral import PowerIterationState, spectral_norm, spectral_norm_exact
from .trainer import Trainer
from .upsample import ConcatChannels, Upsample2d

__all__ = [
    "CosineAnnealingLR",
    "Scheduler",
    "StepLR",
    "Upsample2d",
    "ConcatChannels",
    "ACTIVATIONS",
    "Activation",
    "Adam",
    "AvgPool2d",
    "BasicBlock",
    "BatchNorm2d",
    "Conv2d",
    "CrossEntropyLoss",
    "Flatten",
    "GELU",
    "GlobalAvgPool2d",
    "Identity",
    "LeakyReLU",
    "Linear",
    "MSELoss",
    "MaxPool2d",
    "Module",
    "Optimizer",
    "PReLU",
    "Parameter",
    "PowerIterationState",
    "ReLU",
    "ResidualBlock",
    "SGD",
    "Sequential",
    "Sigmoid",
    "SpectralConv2d",
    "SpectralLinear",
    "Tanh",
    "Trainer",
    "make_activation",
    "spectral_norm",
    "spectral_norm_exact",
    "spectral_penalty",
    "spectral_penalty_backward",
]
