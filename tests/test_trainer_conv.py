"""Direct tests of the trainer's convolution, forward and backward.

The trainer runs its forward pass on tensor.conv2d_chwn and its backward
on tensor.conv2d_chwn_backward. At stride 1 with a pad below the kernel,
the input gradient is one conv of the zero-bordered output gradient with
the flipped, transposed kernel, and when the conv has no more filters than
channels the weight gradient reads that conv's window matrix too. Every
other geometry takes the weight gradient from the input's window matrix and
the input gradient by col2im: one GEMM, then one strided add per kernel tap
into a zeroed padded buffer. All leave the accumulation order to the BLAS,
so the forward output is compared with the brute-force oracle, and the
input, weight and bias gradients with central finite differences of the
float64 loss sum(y * gy), by tolerances derived from the dtype. The
geometries cover what the im2col and col2im index arithmetic can get wrong:
strides that leave input rows unread or gaps wider than the kernel, rows of
the input that no tap of a phase of the stride reaches, windows that start
before or end past the output gradient's edges, 1x1 kernels, a padding
wider than the kernel reaches, a single filter, a batch of one, non-square
kernels and strides, padding on one or both axes, and at stride 1 fewer,
as many and more filters than channels.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from fuseprune.graph import OPS
from fuseprune.trainer import _forward_train

from conftest import conv_node, fc_node, make_graph, plain_node
from oracles import conv2d_brute, numeric_gradient
from test_trainer import rel_err

DTYPES = (np.float32, np.float64)
# Forward: error relative to the sum of the absolute terms, as for
# conv2d_gemm; both sides round each of at most 27 terms (2 * 27 * eps is
# 3.2e-6 in f32 and 6.0e-15 in f64).
FWD_TOL = {np.float32: 1e-5, np.float64: 1e-12}
# Gradients: max difference over the largest entry (test_trainer.rel_err).
# The weight gradient sums up to 50 terms (50 * eps is 3.0e-6 in f32); in
# f64 the finite differences' own rounding, about eps * |loss| / step,
# dominates.
GRAD_TOL = {np.float32: 1e-5, np.float64: 1e-8}

# name: (n, c, k, h, w, r, s, stride, pad, bias); each case draws its data
# from its place in this dict, so a new case goes last
CASES = {
    "non-square": (2, 2, 3, 5, 6, 2, 3, (1, 2), (1, 0), True),
    "pad0": (1, 3, 2, 5, 5, 3, 3, (1, 1), (0, 0), True),
    "pad2-stride2": (2, 2, 3, 5, 4, 3, 3, (2, 1), (2, 1), False),
    "projection-1x1-stride2": (2, 3, 4, 6, 6, 1, 1, (2, 2), (0, 0), False),
    "single-filter": (2, 3, 1, 5, 5, 3, 3, (1, 1), (1, 1), True),
    # (6 - 3) is odd, so the last input row and column are never read
    "stride2-uneven": (2, 2, 3, 6, 6, 3, 3, (2, 2), (0, 0), True),
    "unit-batch-stride2-pad1": (1, 3, 2, 5, 5, 3, 3, (2, 2), (1, 1), True),
    # pad > r - 1: the border outputs read only padding, so their rows lie
    # outside every phase's range
    "unit-kernel-pad1": (2, 3, 2, 4, 4, 1, 1, (2, 1), (1, 1), True),
    # the stride leaves gaps wider than the kernel: rows 2, 5 and 6 are unread
    "wide-gaps-stride3": (2, 2, 3, 7, 7, 2, 2, (3, 3), (0, 0), False),
    # the resnet downsampling conv: phase 0 takes the middle tap, phase 1
    # the outer two, whose rows run one past the output gradient's end
    "resnet-3x3-stride2-pad1": (2, 3, 4, 8, 8, 3, 3, (2, 2), (1, 1), True),
    # the odd rows and columns are a phase that no tap reaches
    "untapped-phase-1x1-stride2": (2, 3, 2, 7, 7, 1, 1, (2, 2), (0, 0), False),
    # phase 1 gets no tap, and phase 2's rows start at the output
    # gradient's second
    "2x2-stride3-pad1": (2, 2, 3, 8, 7, 2, 2, (3, 3), (1, 1), True),
    # phase 0's rows run from one before the output gradient's first to one
    # past its last
    "5x5-stride2-pad2": (2, 2, 3, 7, 6, 5, 5, (2, 2), (2, 2), False),
    "3x3-stride1x2-pad1": (2, 3, 2, 6, 7, 3, 3, (1, 2), (1, 1), True),
    # stride 1, pad 1: the weight gradient reads the output gradient's
    # window matrix when k <= c and the input's when k > c
    "stride1-pad1-k<c": (2, 4, 2, 5, 6, 3, 3, (1, 1), (1, 1), True),
    "stride1-pad1-k=c": (2, 3, 3, 5, 5, 3, 3, (1, 1), (1, 1), False),
    "stride1-pad1-k>c": (2, 2, 4, 6, 5, 3, 3, (1, 1), (1, 1), True),
    # a pad past the kernel at stride 1 takes col2im: the border outputs
    # read only padding
    "1x1-stride1-pad1": (2, 3, 2, 4, 5, 1, 1, (1, 1), (1, 1), True),
    "3x3-stride1-pad3": (2, 2, 3, 4, 4, 3, 3, (1, 1), (3, 3), False),
}


def draw(name, dt):
    n, c, k, h, w, r, s, stride, pad, bias = CASES[name]
    rng = np.random.default_rng(list(CASES).index(name))
    x = rng.standard_normal((n, c, h, w)).astype(dt)
    wt = (rng.standard_normal((k, c, r, s)) * 0.5).astype(dt)
    b = rng.uniform(-0.5, 0.5, k).astype(dt) if bias else None
    return x, wt, b, stride, pad


def forward(x, w, b, stride, pad):
    """(node, y, x) of one training-mode conv: the trainer's forward pass
    over input -> conv -> output."""
    k, c, r, s = w.shape
    node = conv_node("conv", ["in"], k, c, r=r, s=s, stride=stride, pad=pad, weight=w,
                     bias=b, dtype=w.dtype)
    g = make_graph([plain_node("in", "input", []), node, plain_node("out", "output", ["conv"])],
                   "in", "out", (1, *x.shape[1:]))
    values, _ = _forward_train(g, x.transpose(1, 2, 3, 0), 0.1, ["in", "conv", "out"])
    return node, values["conv"].transpose(3, 0, 1, 2), x


@pytest.mark.parametrize("dt", DTYPES)
@pytest.mark.parametrize("name", sorted(CASES))
def test_forward_matches_brute(name, dt):
    x, w, b, stride, pad = draw(name, dt)
    _, y, _ = forward(x, w, b, stride, pad)
    want = conv2d_brute(x, w, b, stride, pad)
    scale = conv2d_brute(np.abs(x), np.abs(w), None if b is None else np.abs(b), stride, pad)
    assert y.dtype == dt and y.shape == want.shape and y.transpose(1, 2, 3, 0).flags.c_contiguous
    assert np.all(np.abs(y - want) <= FWD_TOL[dt] * scale)


@pytest.mark.parametrize("dt", DTYPES)
@pytest.mark.parametrize("name", sorted(CASES))
def test_gradients_match_finite_differences(name, dt):
    x, w, b, stride, pad = draw(name, dt)
    node, y, cache = forward(x, w, b, stride, pad)
    gy = np.random.default_rng(99).standard_normal(y.shape).astype(dt)
    (gx,), gparams = OPS["conv"].backward(node, gy.transpose(1, 2, 3, 0),
                                          [cache.transpose(1, 2, 3, 0)], None, None)
    gx = gx.transpose(3, 0, 1, 2)
    assert gx.dtype == dt and gx.shape == x.shape
    assert set(gparams) == ({"weight", "bias"} if b is not None else {"weight"})

    x64, w64, gy64 = (a.astype(np.float64) for a in (x, w, gy))
    b64 = None if b is None else b.astype(np.float64)

    def loss(xa, wa, ba):
        return float((forward(xa, wa, ba, stride, pad)[1] * gy64).sum())

    num_x = numeric_gradient(lambda a: loss(a, w64, b64), x64)
    num_w = numeric_gradient(lambda a: loss(x64, a, b64), w64)
    assert rel_err(gx, num_x) <= GRAD_TOL[dt]
    assert rel_err(gparams["weight"], num_w) <= GRAD_TOL[dt]
    assert gparams["weight"].shape == w.shape and gparams["weight"].dtype == dt
    if b is not None:
        num_b = numeric_gradient(lambda a: loss(x64, w64, a), b64)
        assert rel_err(gparams["bias"].reshape(-1), num_b) <= GRAD_TOL[dt]
    # inputs that no window reads get exactly zero gradient
    assert np.all(gx[num_x == 0] == 0)


@pytest.mark.parametrize("dt", DTYPES)
def test_unread_rows_and_columns_get_no_gradient(dt):
    for name, rows in (("stride2-uneven", [5]), ("projection-1x1-stride2", [1, 3, 5])):
        x, w, b, stride, pad = draw(name, dt)
        node, y, cache = forward(x, w, b, stride, pad)
        (gx,), _ = OPS["conv"].backward(node, np.ones_like(y).transpose(1, 2, 3, 0),
                                        [cache.transpose(1, 2, 3, 0)], None, None)
        gx = gx.transpose(3, 0, 1, 2)
        assert np.all(gx[:, :, rows, :] == 0) and np.all(gx[:, :, :, rows] == 0), name
        read = np.setdiff1d(np.arange(x.shape[2]), rows)
        assert np.all(gx[:, :, read][:, :, :, read] != 0), name


# name: (kind, the CASES entry whose data it draws); the fc takes the
# case's input and bias, with weights over its c*h*w features
INPUT_GRAD_CASES = {
    "conv-stride1": ("conv", "pad0"),
    "conv-stride2": ("conv", "resnet-3x3-stride2-pad1"),
    "fc": ("fc", "non-square"),
    # the weight gradient reads the window matrix the input gradient uses
    "conv-stride1-pad1-k<c": ("conv", "stride1-pad1-k<c"),
}


@pytest.mark.parametrize("dt", DTYPES)
@pytest.mark.parametrize("case", list(INPUT_GRAD_CASES))
def test_backward_without_input_grad_keeps_the_parameter_bits(case, dt):
    # a backward told that no input gradient is wanted computes none, and
    # its parameter gradients are byte for byte those of the full backward
    kind, name = INPUT_GRAD_CASES[case]
    x, w, b, stride, pad = draw(name, dt)
    if kind == "conv":
        node, y, _ = forward(x, w, b, stride, pad)
        gy_shape = y.shape
    else:
        k, fin = w.shape[0], math.prod(x.shape[1:])
        wf = np.random.default_rng(7).standard_normal((k, fin, 1, 1)).astype(dt)
        node = fc_node("fc", ["in"], k, fin, weight=wf, bias=b, dtype=dt)
        gy_shape = (len(x), k, 1, 1)
    gy = np.random.default_rng(99).standard_normal(gy_shape).astype(dt).transpose(1, 2, 3, 0)
    args = [x.transpose(1, 2, 3, 0)]
    (gx,), full = OPS[kind].backward(node, gy, args, None, None)
    gxs, gparams = OPS[kind].backward(node, gy, args, None, None, input_grad=False)
    assert gx.shape == args[0].shape and gxs == []
    assert set(gparams) == set(full) == ({"weight", "bias"} if b is not None else {"weight"})
    for p in full:
        assert gparams[p].dtype == dt and gparams[p].shape == full[p].shape
        assert gparams[p].tobytes() == full[p].tobytes(), p
