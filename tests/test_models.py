"""Tests for the model zoo: topologies, FLOPs targets, registry."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.models import (
    MODEL_REGISTRY,
    ZOO_INPUT_SHAPES,
    borghesi_net,
    build_mlp,
    build_model,
    h2_reaction_net,
    mlp_large,
    mlp_medium,
    mlp_small,
    model_flops,
    resnet,
    resnet18,
)
from repro.nn import Linear, SpectralLinear


def test_h2_net_topology(rng):
    model = h2_reaction_net(rng=rng)
    out = model(rng.uniform(-1, 1, (4, 9)).astype(np.float32))
    assert out.shape == (4, 9)
    linears = [m for m in model.modules() if isinstance(m, SpectralLinear)]
    assert [l.out_features for l in linears] == [50, 50, 9]


def test_borghesi_net_topology(rng):
    model = borghesi_net(rng=rng)
    out = model(rng.uniform(-1, 1, (4, 13)).astype(np.float32))
    assert out.shape == (4, 3)
    linears = [m for m in model.modules() if isinstance(m, SpectralLinear)]
    assert len(linears) == 9  # 8 hidden + output


def test_build_mlp_plain_variant(rng):
    model = build_mlp(5, [7], 2, spectral=False, rng=rng)
    assert any(isinstance(m, Linear) for m in model.modules())
    assert not any(isinstance(m, SpectralLinear) for m in model.modules())


def test_mlp_zoo_flops_match_paper():
    """Fig. 2/9: mlp_s ~ 0.5M, mlp_m ~ 4.2M, mlp_l ~ 33.7M FLOPs."""
    small = model_flops(mlp_small(), (256,))
    medium = model_flops(mlp_medium(), (512,))
    large = model_flops(mlp_large(), (1024,))
    assert 0.4e6 < small < 0.65e6
    assert 3.5e6 < medium < 5.0e6
    assert 28e6 < large < 40e6


def test_model_flops_of_a_dense_stack(rng):
    from repro.nn import ReLU, Sequential

    model = Sequential(Linear(4, 8, rng=rng), ReLU(), Linear(8, 2, rng=rng))
    assert model_flops(model, (4,)) == 2 * (4 * 8 + 8 * 2) + 8


def test_resnet_depth_validation(rng):
    with pytest.raises(ConfigurationError):
        resnet(9, rng=rng)
    with pytest.raises(ConfigurationError):
        resnet(7, rng=rng)


@pytest.mark.parametrize("depth", [8, 14])
def test_resnet_forward_shape(depth, rng):
    model = resnet(depth, rng=rng)
    out = model(rng.standard_normal((2, 3, 16, 16)).astype(np.float32))
    assert out.shape == (2, 10)


def test_resnet_depth_increases_flops(rng):
    flops8 = model_flops(resnet(8, rng=rng), (3, 32, 32))
    flops20 = model_flops(resnet(20, rng=rng), (3, 32, 32))
    assert flops20 > 2 * flops8


def test_resnet18_forward(rng):
    model = resnet18(in_channels=13, base_width=8, rng=rng)
    out = model(rng.uniform(-1, 1, (2, 13, 16, 16)).astype(np.float32))
    assert out.shape == (2, 10)


def test_resnet18_spectral_flag(rng):
    from repro.nn import BatchNorm2d, SpectralConv2d

    spectral = resnet18(base_width=8, rng=rng, spectral=True)
    assert any(isinstance(m, SpectralConv2d) for m in spectral.modules())
    assert not any(isinstance(m, BatchNorm2d) for m in spectral.modules())
    plain = resnet18(base_width=8, rng=rng, spectral=False)
    assert any(isinstance(m, BatchNorm2d) for m in plain.modules())


def test_model_flops_counts_conv_layers(rng):
    from repro.nn import Conv2d, Sequential

    layer = Conv2d(3, 8, 3, stride=1, padding=1, rng=rng)
    flops = model_flops(Sequential(layer), (3, 16, 16))
    assert flops == 2 * 3 * 9 * 8 * 16 * 16


def test_model_flops_of_one_basic_block(rng):
    """Every leaf of one forward: the two 3x3 convs and the 1x1 projection,
    three batch norms and two ReLUs, the block's post-activation included."""
    from repro.nn import BasicBlock, Sequential

    out = 8 * 4 * 4
    convs = 2 * out * (4 * 9 + 8 * 9 + 4 * 1)
    block = Sequential(BasicBlock(4, 8, stride=2, rng=rng))
    assert model_flops(block, (4, 8, 8)) == convs + 5 * out


def test_registry_builds_every_model(rng):
    for name in MODEL_REGISTRY:
        model = build_model(name, rng=rng)
        shape = ZOO_INPUT_SHAPES[name]
        out = model(rng.uniform(-1, 1, (2,) + shape).astype(np.float32))
        assert out.shape[0] == 2


def test_registry_unknown_model():
    with pytest.raises(ValueError):
        build_model("alexnet")
