"""Reference kernels with a fixed, sequential summation order.

The brute-force oracles in oracles.py pin these bit for bit, and the
package's kernels are tested against them: conv2d_raw is the specification
that tensor.conv2d_gemm is compared with, and fc_raw shows that a
sequential fc is unchanged by removing all-zero inputs. They validate their
operands with the package's own checks, so a test can compare the errors
two kernels raise.
"""

from __future__ import annotations

import numpy as np

from fuseprune.tensor import TensorError, _conv_geometry, _filter_bias


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
