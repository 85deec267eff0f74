"""Direct tests of conv2d_gemm, the per-input-channel GEMM conv kernel.

conv2d_gemm leaves the order of the taps inside one channel's dot product
to the BLAS, so it is compared with the brute-force oracle by a tolerance
derived from the dtype. What bitwise materialization needs of it is tested
bit for bit: dropping an all-zero input channel or any set of filters must
leave every surviving output unchanged, and exact-arithmetic cases
(identity weights, a 1x1 conv embedded in a 3x3 kernel) must be exact.

conv2d_gemm and fc_raw form a block of channels' products at once and add
them in channel order. The block length follows tensor._BLOCK_BYTES and
must change no bit: both kernels are compared bit for bit with one-channel-
at-a-time loops under block lengths of one, a partial last block and a
single block, and removal must stay exact when it changes the block length.

conv2d_gemm's GEMM columns run (ho, wo, n), batch innermost, while the
test-local conv_channel_loop keeps (n, ho, wo) columns; their bitwise
agreement at several batch sizes shows that the column order changes no bit.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fuseprune import tensor
from fuseprune.tensor import TensorError, conv2d_gemm, conv2d_raw, conv_windows, fc_raw

from oracles import conv2d_brute, fc_brute

DTYPES = (np.float32, np.float64)
# Error bound for a dot product of the sizes used here, relative to the sum
# of the absolute terms: both kernels round each of at most 27 terms, so
# the gap is below 2 * 27 * eps (3.2e-6 in f32, 6.0e-15 in f64).
REL_TOL = {np.float32: 1e-5, np.float64: 1e-12}
# (stride, pad) geometries; every bitwise test runs each of them
GEOMETRIES = (((1, 1), (1, 1)), ((2, 2), (1, 1)), ((1, 2), (0, 1)), ((2, 1), (3, 3)))


def rand(rng, shape, dt):
    return rng.standard_normal(shape).astype(dt)


def bits_equal(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def conv_channel_loop(x, w, bias, stride, pad):
    """conv2d_gemm's arithmetic one input channel at a time: the reference
    for its channel order (same GEMM shapes, partial sums added in order)."""
    n, c, h, wd = x.shape
    k, _, r, s = w.shape
    ho = (h + 2 * pad[0] - r) // stride[0] + 1
    wo = (wd + 2 * pad[1] - s) // stride[1] + 1
    taps = conv_windows(np.pad(x, ((0, 0), (0, 0), (pad[0],) * 2, (pad[1],) * 2)), r, s, stride)
    if k == 1:
        w = np.concatenate([w, np.zeros_like(w)])
    rows = w.shape[0]
    width = n * ho * wo
    padded = -(-width // tensor._GEMM_COLUMN_BLOCK) * tensor._GEMM_COLUMN_BLOCK
    cols = np.zeros((r * s, padded), dtype=x.dtype)
    acc = np.zeros((rows, padded), dtype=x.dtype)
    for t in range(c):
        cols[:, :width] = taps[t].reshape(r * s, width)
        acc += w[:, t].reshape(rows, r * s) @ cols
    y = np.ascontiguousarray(acc[:k, :width].reshape(k, n, ho, wo).transpose(1, 0, 2, 3))
    if bias is not None:
        y += bias.reshape(1, k, 1, 1)
    return y


def conv_block_bytes(x, w, stride, pad, block):
    """A _BLOCK_BYTES that makes conv2d_gemm(x, w) use the given block length."""
    n, _, h, wd = x.shape
    k, _, r, s = w.shape
    width = n * ((h + 2 * pad[0] - r) // stride[0] + 1) * ((wd + 2 * pad[1] - s) // stride[1] + 1)
    padded = -(-width // tensor._GEMM_COLUMN_BLOCK) * tensor._GEMM_COLUMN_BLOCK
    return block * (r * s + max(k, 2)) * padded * x.dtype.itemsize


@pytest.mark.parametrize("dt", DTYPES)
def test_matches_brute_within_dtype_tolerance(dt):
    rng = np.random.default_rng(0)
    for case in range(60):
        n = int(rng.integers(1, 3))
        c = int(rng.integers(1, 4))
        k = int(rng.integers(1, 6))
        r, s = (int(v) for v in rng.integers(1, 4, size=2))
        stride = tuple(int(v) for v in rng.integers(1, 3, size=2))
        pad = tuple(int(v) for v in rng.integers(0, 2, size=2))
        h = r + int(rng.integers(0, 4))
        w_in = s + int(rng.integers(0, 4))
        x = rand(rng, (n, c, h, w_in), dt)
        w = rand(rng, (k, c, r, s), dt)
        b = rand(rng, k, dt) if case % 2 else None
        got = conv2d_gemm(x, w, b, stride, pad)
        want = conv2d_brute(x, w, b, stride, pad)
        scale = conv2d_brute(np.abs(x), np.abs(w), None if b is None else np.abs(b),
                             stride, pad)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert np.all(np.abs(got - want) <= REL_TOL[dt] * scale), case


@pytest.mark.parametrize("dt", DTYPES)
@pytest.mark.parametrize("stride,pad", GEOMETRIES)
def test_dropping_zero_input_channel_is_bit_exact(dt, stride, pad):
    rng = np.random.default_rng(1)
    for c in (2, 3, 5, 16):
        for zero in {0, c // 2, c - 1}:
            x = rand(rng, (2, c, 7, 6), dt)
            x[:, zero] = 0.0
            w = rand(rng, (9, c, 3, 3), dt)
            keep = [t for t in range(c) if t != zero]
            full = conv2d_gemm(x, w, None, stride, pad)
            dropped = conv2d_gemm(x[:, keep], w[:, keep], None, stride, pad)
            assert bits_equal(full, dropped), (c, zero)


@pytest.mark.parametrize("dt", DTYPES)
@pytest.mark.parametrize("stride,pad", GEOMETRIES)
def test_dropping_filters_is_bit_exact(dt, stride, pad):
    # every filter count from 1 to 80; the spatial sizes give output column
    # counts from 1 upwards, odd and even, so partial BLAS tiles occur
    rng = np.random.default_rng(2)
    for k in range(1, 81):
        n = int(rng.integers(1, 3))
        c = int(rng.integers(1, 5))
        hw = int(rng.integers(3, 12))
        x = rand(rng, (n, c, hw, hw + 1), dt)
        w = rand(rng, (k, c, 3, 3), dt)
        b = rand(rng, k, dt)
        full = conv2d_gemm(x, w, b, stride, pad)
        for keep_n in {1, max(1, k // 2), k - 1} - {0}:
            keep = np.sort(rng.choice(k, keep_n, replace=False))
            part = conv2d_gemm(x, w[keep], b[keep], stride, pad)
            assert bits_equal(part, np.ascontiguousarray(full[:, keep])), (k, keep_n)


@pytest.mark.parametrize("dt", DTYPES)
@pytest.mark.parametrize("kernel", (1, 7))
def test_dropping_filters_is_bit_exact_other_kernel_sizes(dt, kernel):
    rng = np.random.default_rng(3)
    for k in (1, 2, 3, 7, 16, 33, 64):
        for hw in (kernel, kernel + 2, kernel + 7):
            x = rand(rng, (1, 3, hw, hw), dt)
            w = rand(rng, (k, 3, kernel, kernel), dt)
            for stride, pad in GEOMETRIES:
                if (hw + 2 * pad[0] - kernel) < 0 or (hw + 2 * pad[1] - kernel) < 0:
                    continue
                full = conv2d_gemm(x, w, None, stride, pad)
                keep = np.sort(rng.choice(k, max(1, k - 1 - k // 3), replace=False))
                part = conv2d_gemm(x, w[keep], None, stride, pad)
                assert bits_equal(part, np.ascontiguousarray(full[:, keep])), (k, hw)


@pytest.mark.parametrize("dt", DTYPES)
def test_zero_channel_and_dropped_filters_together(dt):
    # materialization removes a conv's zeroized filters and, downstream,
    # the input channels they fed; both at once must still be exact
    rng = np.random.default_rng(4)
    for stride, pad in GEOMETRIES:
        for n in (3, 32):
            x = rand(rng, (n, 12, 9, 9), dt)
            x[:, [1, 6, 11]] = 0.0
            w = rand(rng, (24, 12, 3, 3), dt)
            w[[0, 5, 9, 17]] = 0.0
            live_c = [t for t in range(12) if t not in (1, 6, 11)]
            live_k = [f for f in range(24) if f not in (0, 5, 9, 17)]
            full = conv2d_gemm(x, w, None, stride, pad)
            small = conv2d_gemm(x[:, live_c], w[live_k][:, live_c], None, stride, pad)
            assert bits_equal(small, np.ascontiguousarray(full[:, live_k])), n
            assert not np.any(full[:, [0, 5, 9, 17]])


@pytest.mark.parametrize("dt", DTYPES)
@pytest.mark.parametrize("stride", ((1, 1), (2, 2)))
def test_identity_weights_pass_input_through(dt, stride):
    rng = np.random.default_rng(5)
    c = 6
    x = rand(rng, (2, c, 7, 8), dt)
    w = np.zeros((c, c, 3, 3), dt)
    for t in range(c):
        w[t, t, 1, 1] = 1.0
    y = conv2d_gemm(x, w, None, stride, (1, 1))
    assert bits_equal(y, np.ascontiguousarray(x[:, :, ::stride[0], ::stride[1]]))


@pytest.mark.parametrize("dt", DTYPES)
@pytest.mark.parametrize("stride", ((1, 1), (2, 2)))
def test_1x1_equals_same_conv_padded_to_3x3(dt, stride):
    # the projection-shortcut fusion embeds a 1x1 conv in the centre of a
    # 3x3 kernel with one pixel of extra padding
    rng = np.random.default_rng(6)
    for c, k in ((1, 1), (3, 4), (16, 32)):
        x = rand(rng, (2, c, 9, 8), dt)
        w1 = rand(rng, (k, c, 1, 1), dt)
        w3 = np.zeros((k, c, 3, 3), dt)
        w3[:, :, 1, 1] = w1[:, :, 0, 0]
        y1 = conv2d_gemm(x, w1, None, stride, (0, 0))
        y3 = conv2d_gemm(x, w3, None, stride, (1, 1))
        assert bits_equal(y1, y3), (c, k)


def test_bias_is_added_after_the_sum():
    rng = np.random.default_rng(7)
    x = rand(rng, (2, 3, 6, 6), np.float64)
    w = rand(rng, (5, 3, 3, 3), np.float64)
    b = rand(rng, 5, np.float64)
    plain = conv2d_gemm(x, w, None, (1, 1), (1, 1))
    assert bits_equal(conv2d_gemm(x, w, b, (1, 1), (1, 1)), plain + b.reshape(1, 5, 1, 1))


def test_output_is_contiguous_and_writable():
    rng = np.random.default_rng(8)
    y = conv2d_gemm(rand(rng, (2, 3, 5, 5), np.float32), rand(rng, (4, 3, 3, 3), np.float32),
                    None, (2, 2), (1, 1))
    assert y.flags.c_contiguous and y.flags.writeable


@pytest.mark.parametrize("kernel", (conv2d_raw, conv2d_gemm))
@pytest.mark.parametrize("x_shape,w_shape,bias,pad,w_dtype", [
    ((1, 2, 4, 4), (3, 3, 3, 3), None, (1, 1), np.float32),       # channel mismatch
    ((1, 1, 2, 2), (1, 1, 5, 5), None, (0, 0), np.float32),       # output collapses
    ((1, 2, 4, 4), (3, 2, 3, 3), np.zeros(4, np.float32), (1, 1), np.float32),  # bias length
    ((1, 2, 4, 4), (3, 2, 3, 3), np.zeros(3, np.float64), (1, 1), np.float32),  # bias dtype
    ((1, 1, 3, 3), (1, 1, 3, 3), None, (1, 1), np.float64),       # mixed x/w dtypes
])
def test_rejects_what_the_reference_rejects(kernel, x_shape, w_shape, bias, pad, w_dtype):
    x = np.zeros(x_shape, np.float32)
    w = np.zeros(w_shape, w_dtype)
    with pytest.raises(TensorError) as got:
        kernel(x, w, bias, (1, 1), pad)
    with pytest.raises(TensorError) as ref:
        conv2d_raw(x, w, bias, (1, 1), pad)
    assert str(got.value) == str(ref.value)


_THREAD_PROBE = """
import hashlib, sys
import numpy as np
from fuseprune.tensor import conv2d_gemm, fc_raw
rng = np.random.default_rng(9)
digest = hashlib.sha256()
# one channel per block (1.2 MB of windows and products each), then 4 blocks
# of 2, then a batch of 32 with the batch innermost in 2,048 columns
for n, hw in ((4, 32), (1, 28), (32, 8)):
    x = rng.standard_normal((n, 8, hw, hw)).astype(np.float32)
    w = rng.standard_normal((64, 8, 3, 3)).astype(np.float32)
    digest.update(conv2d_gemm(x, w, None, (1, 1), (1, 1)).tobytes())
# 16 inputs per block, the last block partial
x = rng.standard_normal((8, 1100)).astype(np.float32)
w = rng.standard_normal((1000, 1100)).astype(np.float32)
digest.update(fc_raw(x, w, None).tobytes())
sys.stdout.write(digest.hexdigest())
"""


def _probe_digest(**env_overrides):
    env = dict(os.environ, **env_overrides)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run([sys.executable, "-c", _THREAD_PROBE], env=env, check=True,
                          capture_output=True, text=True, timeout=120).stdout


def test_result_does_not_depend_on_blas_thread_count():
    # 64 x 9 x 4096, 64 x 9 x 784 and 64 x 9 x 2048 are large enough for
    # OpenBLAS to split the GEMM across threads when it has more than one; a
    # single-thread run must agree, for one-channel blocks, multi-channel
    # blocks and batch-innermost columns of 32 images alike
    single = _probe_digest(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    assert len(single) == 64
    assert _probe_digest() == single


@pytest.mark.parametrize("dt", DTYPES)
@pytest.mark.parametrize("stride,pad", GEOMETRIES)
@pytest.mark.parametrize("block", ("one", "partial", "single"))
def test_blocks_add_channels_in_order(monkeypatch, dt, stride, pad, block):
    # conv_channel_loop's columns run (n, ho, wo), conv2d_gemm's (ho, wo, n),
    # so batches above one also check that the column order changes no bit;
    # at n=5 no geometry's ho*wo*n is a multiple of 16
    rng = np.random.default_rng(10)
    for n in (2, 1, 5, 32):
        for c, k in ((7, 5), (16, 1), (13, 24)):
            x = rand(rng, (n, c, 7, 6), dt)
            w = rand(rng, (k, c, 3, 3), dt)
            b = rand(rng, k, dt)
            length = {"one": 1, "partial": 3, "single": c}[block]
            monkeypatch.setattr(tensor, "_BLOCK_BYTES", conv_block_bytes(x, w, stride, pad, length))
            got = conv2d_gemm(x, w, b, stride, pad)
            assert bits_equal(got, conv_channel_loop(x, w, b, stride, pad)), (n, c, k)
            if n == 5:
                assert (got.shape[2] * got.shape[3] * n) % tensor._GEMM_COLUMN_BLOCK


@pytest.mark.parametrize("dt", DTYPES)
@pytest.mark.parametrize("c", (9, 300))
def test_tiny_products_are_added_in_channel_order(dt, c):
    # k=1 on a 1x1 output gives 2x16 products, so every channel fits in one
    # block; numpy's pairwise (8-way unrolled) summation would show from 9
    # terms if the reduction ever ran along the channel axis. One output
    # shows a reordering only sometimes (about 3 draws in 10 at c=9), so
    # many draws are checked.
    rng = np.random.default_rng(11)
    for draw in range(40):
        x = rand(rng, (1, c, 3, 3), dt)
        w = rand(rng, (1, c, 3, 3), dt)
        got = conv2d_gemm(x, w, None, (1, 1), (0, 0))
        assert got.shape == (1, 1, 1, 1)
        assert bits_equal(got, conv_channel_loop(x, w, None, (1, 1), (0, 0))), draw


@pytest.mark.parametrize("dt", DTYPES)
@pytest.mark.parametrize("block_bytes", (1, 3, None))
def test_fc_blocks_match_sequential_oracle(monkeypatch, dt, block_bytes):
    # n=2, fout=3: products of 6 elements, so block_bytes/(6*itemsize) inputs
    # per block; 3 gives partial blocks of 3 over 10 and 23 inputs
    rng = np.random.default_rng(12)
    for fin in (9, 10, 23):
        x = rand(rng, (2, fin), dt)
        w = rand(rng, (3, fin), dt)
        b = rand(rng, 3, dt)
        if block_bytes is not None:
            monkeypatch.setattr(tensor, "_BLOCK_BYTES", block_bytes * 6 * np.dtype(dt).itemsize)
        assert bits_equal(fc_raw(x, w, b), fc_brute(x, w, b)), fin


@pytest.mark.parametrize("dt", DTYPES)
@pytest.mark.parametrize("stride,pad", GEOMETRIES)
def test_removal_is_bit_exact_when_the_block_length_changes(monkeypatch, dt, stride, pad):
    rng = np.random.default_rng(13)
    x = rand(rng, (2, 12, 9, 9), dt)
    x[:, [1, 6, 11]] = 0.0
    w = rand(rng, (24, 12, 3, 3), dt)
    live_c = [t for t in range(12) if t not in (1, 6, 11)]
    live_k = [f for f in range(24) if f not in (0, 5, 9, 17)]
    # 5 channels per block for the 20 surviving filters, 4 for all 24
    budget = conv_block_bytes(x, w[live_k], stride, pad, 5)
    monkeypatch.setattr(tensor, "_BLOCK_BYTES", budget)
    assert tensor._block_length(12, conv_block_bytes(x, w, stride, pad, 1)) == 4
    full = conv2d_gemm(x, w, None, stride, pad)
    no_filters = conv2d_gemm(x, w[live_k], None, stride, pad)
    no_channels = conv2d_gemm(x[:, live_c], w[:, live_c], None, stride, pad)
    both = conv2d_gemm(x[:, live_c], w[live_k][:, live_c], None, stride, pad)
    assert bits_equal(no_filters, np.ascontiguousarray(full[:, live_k]))
    assert bits_equal(no_channels, full)
    assert bits_equal(both, np.ascontiguousarray(full[:, live_k]))


@pytest.mark.parametrize("dt", DTYPES)
def test_fc_removal_is_bit_exact_when_the_block_length_changes(monkeypatch, dt):
    rng = np.random.default_rng(14)
    x = rand(rng, (3, 40), dt)
    x[:, [0, 7, 8, 31]] = 0.0
    w = rand(rng, (10, 40), dt)
    keep_in = [t for t in range(40) if t not in (0, 7, 8, 31)]
    keep_out = [0, 2, 3, 6, 9]
    # 7 inputs per block for 5 outputs, 3 for all 10
    monkeypatch.setattr(tensor, "_BLOCK_BYTES", 7 * 3 * 5 * np.dtype(dt).itemsize)
    full = fc_raw(x, w, None)
    assert bits_equal(fc_raw(x[:, keep_in], w[:, keep_in], None), full)
    assert bits_equal(fc_raw(x, w[keep_out], None), np.ascontiguousarray(full[:, keep_out]))
