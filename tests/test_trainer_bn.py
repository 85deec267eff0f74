"""Finite-difference tests of the trainer's training-mode batch norm.

The backward pass is the closed form of the batch-statistics chain, so the
cases are the ones it treats apart: frozen channels, which keep their
stored statistics and take gamma * inv * gy, and a channel whose input is
all zero, whose batch variance is 0 so that inv = 1 / sqrt(eps). That is
the state of a bn behind a soft-pruned filter, and the gradient reaching
the zeroized filter decides whether it grows back.

The direct tests run OPS["bn"].train and backward in float32 and float64
against central differences of the float64 loss sum(y * gy), within
test_trainer_conv.GRAD_TOL. They use a step of 1e-6: a probe of size h on
the zero channel gives it a variance of about h^2 / N, which bends the
difference quotient by h^2 / (2 * N * eps), 5e-4 at the default step.
"""

from __future__ import annotations

import numpy as np
import pytest

from fuseprune.graph import OPS, validate
from fuseprune.trainer import forward_backward

from conftest import bn_node, conv_node, make_graph, plain_node
from oracles import numeric_gradient
from test_trainer import check_input, check_param, head, param_loss_fn, rel_err
from test_trainer_conv import GRAD_TOL

DTYPES = (np.float32, np.float64)
FROZEN = np.array([0, 1, 0, 0, 1], bool)
ZERO = 3  # an unfrozen channel whose input is all zero
STEP = 1e-6


def draw(dt):
    rng = np.random.default_rng(5)
    c = FROZEN.size
    x = (rng.standard_normal((4, c, 5, 5)) * 1.5 + 0.5).astype(dt)
    x[:, ZERO] = 0
    stats = {"gamma": rng.uniform(0.6, 1.4, c), "beta": rng.uniform(-0.3, 0.3, c),
             "mean": rng.uniform(-0.3, 0.3, c), "var": rng.uniform(0.5, 1.5, c)}
    gy = rng.standard_normal(x.shape).astype(dt)
    return x, stats, gy


def forward(x, stats):
    """(node, y, cache) of one training-mode bn with the given parameters."""
    node = bn_node("bn", ["in"], FROZEN.size, frozen=FROZEN.astype(int).tolist(),
                   dtype=x.dtype, **stats)
    y, cache, _ = OPS["bn"].train(node, [x.transpose(1, 2, 3, 0)], 0.1)
    return node, y.transpose(3, 0, 1, 2), cache


@pytest.mark.parametrize("dt", DTYPES)
def test_gradients_match_finite_differences(dt):
    x, stats, gy = draw(dt)
    node, y, cache = forward(x, stats)
    (gx,), gparams = OPS["bn"].backward(node, gy.transpose(1, 2, 3, 0), None, None, cache)
    gx = gx.transpose(3, 0, 1, 2)
    assert gx.dtype == dt and gx.shape == x.shape
    assert cache["inv"][ZERO] == dt(1 / np.sqrt(dt(1e-5)))

    x64, gy64 = x.astype(np.float64), gy.astype(np.float64)

    def loss(xa, **over):
        return float((forward(xa, {**stats, **over})[1] * gy64).sum())

    num_x = numeric_gradient(lambda a: loss(a), x64, step=STEP)
    assert rel_err(gx, num_x) <= GRAD_TOL[dt]
    for name in ("gamma", "beta"):
        num = numeric_gradient(lambda a: loss(x64, **{name: a}), stats[name], step=STEP)
        got = gparams[name].reshape(-1)
        assert got.dtype == dt
        # frozen channels are pinned by design: exact zeros, not the derivative
        assert np.all(got[FROZEN] == 0)
        assert rel_err(got, num, keep=~FROZEN) <= GRAD_TOL[dt]
    # the zero channel normalizes to exactly 0, so gamma has no pull on it
    assert gparams["gamma"].reshape(-1)[ZERO] == 0


def zeroized_filter_graph(rng):
    """conv (filter ZERO all zero, no bias) -> bn -> head, in f64."""
    w = rng.standard_normal((FROZEN.size, 3, 3, 3)) * 0.4
    w[ZERO] = 0
    nodes = [
        plain_node("in", "input", []),
        conv_node("conv", ["in"], FROZEN.size, 3, weight=w, dtype=np.float64),
        bn_node("bn", ["conv"], FROZEN.size, gamma=rng.uniform(0.6, 1.4, FROZEN.size),
                beta=rng.uniform(-0.3, 0.3, FROZEN.size), mean=rng.uniform(-0.3, 0.3, FROZEN.size),
                var=rng.uniform(0.5, 1.5, FROZEN.size), frozen=FROZEN.astype(int).tolist(),
                dtype=np.float64),
    ]
    head(nodes, "bn", FROZEN.size, 5, rng)
    g = make_graph(nodes, "in", "out", (1, 3, 6, 6))
    validate(g)
    return g


def test_zeroized_filter_behind_bn(rng):
    g = zeroized_filter_graph(rng)
    x = rng.standard_normal((3, 3, 6, 6))
    y = rng.integers(0, 5, 3)
    # the zeroized filter's gradient, at the small step its zero variance needs
    _, grads, _ = forward_backward(g, x, y)
    w = g.nodes["conv"].params["weight"].data.copy()
    num = numeric_gradient(param_loss_fn(g, "conv", "weight", x, y), w, step=STEP)
    assert np.abs(grads["conv"]["weight"][ZERO]).max() > 0
    assert rel_err(grads["conv"]["weight"][ZERO], num[ZERO]) <= 1e-4
    live = np.ones(w.shape, bool)
    live[ZERO] = False
    check_param(g, "conv", "weight", x, y, keep=live)
    check_param(g, "bn", "beta", x, y, keep=~FROZEN)
    check_param(g, "bn", "gamma", x, y, keep=~FROZEN)
    check_input(g, x, y)
