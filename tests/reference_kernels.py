"""Reference kernels with a fixed, sequential summation order, and the
(n, c, h, w) forms of the package's kernels.

The brute-force oracles in oracles.py pin the reference kernels bit for
bit, and the package's kernels are tested against them: conv2d_raw is the
specification that conv2d_gemm is compared with, and fc_raw shows that a
sequential fc is unchanged by removing all-zero inputs. They validate their
operands with the package's own checks, so a test can compare the errors
two kernels raise.

conv2d_gemm and max_pool_raw run the package's batch-innermost kernels
(tensor.prepare_conv and its application, max_pool_chwn), and
batch_norm_inference a bn node's graph forward (graph.OPS["bn"].run), on
(n, c, h, w) arrays: the same arithmetic, with one transposing copy on each
side.
"""

from __future__ import annotations

import numpy as np

from fuseprune.graph import OPS, Node
from fuseprune.tensor import (
    TensorError,
    _conv_geometry,
    _filter_bias,
    max_pool_chwn,
    prepare_conv,
)


def _chwn(x: np.ndarray) -> np.ndarray:
    """The (c, h, w, n) view of an (n, c, h, w) array."""
    return x.transpose(1, 2, 3, 0)


def _nchw(y: np.ndarray) -> np.ndarray:
    """A C-ordered (n, c, h, w) copy of a (c, h, w, n) array."""
    return np.ascontiguousarray(y.transpose(3, 0, 1, 2))


def conv2d_gemm(x: np.ndarray, w: np.ndarray, bias, stride, pad,
                zero_in=None, zero_out=None) -> np.ndarray:
    """prepare_conv with the masks zero_in and zero_out, applied to an
    (n, c, h, w) input (tensor.conv2d_chwn when both are None), returning a
    new (n, k, ho, wo) array: the same GEMMs, with one transposing copy on
    each side."""
    x = _chwn(x)
    return _nchw(prepare_conv(w, bias, stride, pad, x.shape[:3], x.dtype, zero_in, zero_out)(x))


def batch_norm_inference(x: np.ndarray, node: Node) -> np.ndarray:
    """The bn node's inference forward, y = omega * x + lam in x's dtype,
    on an (n, c, h, w) array."""
    return _nchw(OPS["bn"].run(node, [_chwn(x)]))


def max_pool_raw(x: np.ndarray, window, stride, pad) -> np.ndarray:
    """max_pool_chwn on an (n, c, h, w) array."""
    return _nchw(max_pool_chwn(_chwn(x), window, stride, pad))


def _check_same_dtype(*arrays):
    """The arrays' common dtype; TensorError when they mix dtypes, as the
    package's kernels raise."""
    dt = arrays[0].dtype
    for a in arrays[1:]:
        if a.dtype != dt:
            raise TensorError(f"mixed dtypes in one kernel call: {dt} vs {a.dtype}")
    return dt


# Caps the products fc_raw forms per block of inputs; the block length
# changes no bit.
_BLOCK_BYTES = 512 * 1024


def conv2d_raw(x: np.ndarray, w: np.ndarray, bias, stride, pad) -> np.ndarray:
    """Reference 2-D convolution (cross-correlation) with zero padding.

    y(n, k, ho, wo) = sum over (t, i, j) of
        x(n, t, sh*ho + i - ph, sw*wo + j - pw) * w(k, t, i, j)
    with out-of-range x reads taken as zero, accumulated sequentially in
    (t, i, j) order from +0; the per-filter bias, when present, is added
    once after the summation. Every step is one elementwise numpy call, so
    the full order is fixed and the result equals a scalar loop written in
    the same order bit for bit.
    """
    n, c, h, wd = x.shape
    k, _, r, s = w.shape
    sh, sw = stride
    ph, pw = pad
    dt = x.dtype
    ho, wo = _conv_geometry(x.shape[1:], dt, w, stride, pad)
    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    y = np.zeros((n, k, ho, wo), dtype=dt)
    tmp = np.empty_like(y)
    hspan = sh * (ho - 1) + 1
    wspan = sw * (wo - 1) + 1
    for t in range(c):
        xt = xp[:, t]
        for i in range(r):
            rows = xt[:, i : i + hspan : sh]
            for j in range(s):
                window = rows[:, :, j : j + wspan : sw]
                np.multiply(window[:, None, :, :], w[:, t, i, j][None, :, None, None], out=tmp)
                y += tmp
    b = _filter_bias(bias, k, dt)
    if b is not None:
        y += b
    return y


def fc_raw(x2d: np.ndarray, w2d: np.ndarray, bias) -> np.ndarray:
    """Reference dense layer on flattened rows, accumulated sequentially
    over inputs.

    y(n, o) = sum over t of x(n, t) * w(o, t), bias added after the sum.
    The summation order is fixed, so it equals the brute-force oracle bit
    for bit and removing an all-zero input column leaves the surviving
    partial sums unchanged: the (n, out) products of a block of inputs are
    formed in one broadcast multiply and added to the sum one input at a
    time, in input order, whatever the block length.
    """
    n, fin = x2d.shape
    fout, fin_w = w2d.shape
    if fin != fin_w:
        raise TensorError(f"fc expects {fin_w} inputs, got {fin}")
    dt = _check_same_dtype(x2d, w2d)
    y = np.zeros((n, fout), dtype=dt)
    block = max(1, min(fin, _BLOCK_BYTES // (n * fout * dt.itemsize)))
    stack = np.empty((block + 1, n, fout), dtype=dt)
    xt, wt = x2d.T, w2d.T
    for t in range(0, fin, block):
        m = min(block, fin - t)
        np.multiply(xt[t : t + m, :, None], wt[t : t + m, None, :], out=stack[1 : m + 1])
        if m == 1:
            y += stack[1]
            continue
        # reducing over the leading axis of the C-contiguous stack adds whole
        # (n, fout) slices in index order: the bits of m sequential adds
        stack[0] = y
        np.add.reduce(stack[: m + 1], axis=0, out=y)
    if bias is not None:
        b = np.asarray(bias).reshape(-1)
        if b.shape[0] != fout:
            raise TensorError(f"fc bias length {b.shape[0]} != output count {fout}")
        _check_same_dtype(x2d, b)
        y += b[None, :]
    return y
