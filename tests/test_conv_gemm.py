"""Direct tests of conv2d_gemm, the im2col GEMM conv kernel, and of the
reference fc_raw (reference_kernels.py).

conv2d_gemm leaves the order of the c*r*s terms of each dot product to the
BLAS, so it is compared with the brute-force oracle by a tolerance derived
from the dtype; exact-arithmetic cases (identity weights, the bias added
after the sum) must be exact. Its zero_in and zero_out masks must make
exactly the GEMM of the compacted operands: the bitwise promise of
materialization rests on that and is tested at graph level in
test_materialize_bitwise.py. The test_dropping_* tests and
test_zero_channel_and_dropped_filters_together check it kernel by kernel:
masking all-zero input channels, any set of zeroized filters (every filter
count from 1 to 80, kernels of 1, 3 and 7), or both, must give byte for
byte the conv of the operands with those channels and filters deleted.

conv2d_gemm multiplies only the kernel taps inside the hull
tensor.live_taps works out from the geometry; every tap outside it reads
padding alone. The test_*tap* tests check the hull by brute force over
random geometries, that a 3x3 pad-1 conv on a 1x1 map is byte for byte the
1x1 conv of its center tap, that partial hulls stay within the oracle's
tolerance, and that a prepared conv holds one tap-restricted copy of the
weights per window and none when every tap is live.

A prepared conv builds its window matrix by copying it out of the padded
input's window view or, for a GEMM of at most 16 columns (ho*wo*n), by
gathering it through an index table. The test_*builder*, test_gathered_*
and test_*table* tests check that the two give the same output byte for
byte on one PreparedConv (f32 and f64, batches 1, 2 and 32, 3x3 convs on
1x1 to 8x8 maps, the 1x1 projection and the 7x7 stem, dead-tap hulls and
both masks, in one band or many), that the choice follows ho*wo*n alone,
and that one unmasked geometry's table is built once and shared.

fc_raw forms a block of inputs' products at once and adds them in input
order. The block length follows reference_kernels._BLOCK_BYTES and must
change no bit: it is compared bit for bit with the sequential oracle under
block lengths of one, a partial last block and a single block, and removal
must stay exact when it changes the block length.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fuseprune import tensor
from fuseprune.tensor import TensorError, live_taps

import reference_kernels
from oracles import conv2d_brute, fc_brute
from reference_kernels import conv2d_gemm, conv2d_raw, fc_raw

DTYPES = (np.float32, np.float64)
# Error bound for a dot product of the sizes used here, relative to the sum
# of the absolute terms: both kernels round each of at most 27 terms, so
# the gap is below 2 * 27 * eps (3.2e-6 in f32, 6.0e-15 in f64).
REL_TOL = {np.float32: 1e-5, np.float64: 1e-12}
# (stride, pad) geometries
GEOMETRIES = (((1, 1), (1, 1)), ((2, 2), (1, 1)), ((1, 2), (0, 1)), ((2, 1), (3, 3)))


def rand(rng, shape, dt):
    return rng.standard_normal(shape).astype(dt)


def bits_equal(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


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


@pytest.mark.parametrize("dt", DTYPES)
@pytest.mark.parametrize("stride,pad", GEOMETRIES)
@pytest.mark.parametrize("band_rows", (None, 2))
def test_masks_make_the_gemm_of_the_compacted_operands(monkeypatch, dt, stride, pad, band_rows):
    # what a masked graph's conv computes must be, byte for byte, what its
    # materialization computes with those channels and filters deleted,
    # also when the output rows are split into bands (2 rows: the last band
    # is partial wherever ho is odd)
    rng = np.random.default_rng(15)
    for n, c, k in ((2, 12, 24), (32, 5, 3), (1, 16, 1)):
        x = rand(rng, (n, c, 9, 9), dt)
        w = rand(rng, (k, c, 3, 3), dt)
        b = rand(rng, k, dt)
        zero_in = rng.random(c) < 0.3
        zero_out = rng.random(k) < 0.3
        zero_out[0] = False
        x[:, zero_in] = 0
        w[zero_out] = 0
        b[zero_out] = 0
        live_c, live_k = np.flatnonzero(~zero_in), np.flatnonzero(~zero_out)
        if band_rows is not None:
            wo = (9 + 2 * pad[1] - 3) // stride[1] + 1
            row_bytes = len(live_c) * 9 * wo * n * np.dtype(dt).itemsize
            monkeypatch.setattr(tensor, "_BLOCK_BYTES", band_rows * row_bytes)
        got = conv2d_gemm(x, w, b, stride, pad, zero_in, zero_out)
        small = conv2d_gemm(x[:, live_c], w[live_k][:, live_c], b[live_k], stride, pad)
        assert bits_equal(np.ascontiguousarray(got[:, live_k]), small), (n, c, k)
        dead = got[:, zero_out]
        assert not np.any(dead) and not np.any(np.signbit(dead))
        want = conv2d_brute(x, w, b, stride, pad)
        scale = conv2d_brute(np.abs(x), np.abs(w), np.abs(b), stride, pad)
        assert np.all(np.abs(got - want) <= REL_TOL[dt] * scale)


def zeroize_filters(w, b, dropped):
    """Copies of w and b with the dropped filters set to zero, as pruning does."""
    w, b = w.copy(), None if b is None else b.copy()
    w[dropped] = 0
    if b is not None:
        b[dropped] = 0
    return w, b


def assert_dead_outputs_are_plus_zero(y, dropped):
    dead = y[:, dropped]
    assert not np.any(dead) and not np.any(np.signbit(dead))


@pytest.mark.parametrize("dt", DTYPES)
@pytest.mark.parametrize("stride,pad", GEOMETRIES)
def test_dropping_zero_input_channel_is_bit_exact(dt, stride, pad):
    rng = np.random.default_rng(1)
    for c in (2, 3, 5, 16):
        for zero in {0, c // 2, c - 1}:
            x = rand(rng, (2, c, 7, 6), dt)
            x[:, zero] = 0.0
            w = rand(rng, (9, c, 3, 3), dt)
            zero_in = np.zeros(c, bool)
            zero_in[zero] = True
            keep = np.flatnonzero(~zero_in)
            full = conv2d_gemm(x, w, None, stride, pad, zero_in, None)
            dropped = conv2d_gemm(x[:, keep], w[:, keep], None, stride, pad)
            assert bits_equal(full, dropped), (c, zero)


@pytest.mark.parametrize("dt", DTYPES)
@pytest.mark.parametrize("stride,pad", GEOMETRIES)
def test_dropping_filters_is_bit_exact(dt, stride, pad):
    # every filter count from 1 to 80; the spatial sizes give output column
    # counts from 1 upwards, odd and even, so partial BLAS tiles occur, and
    # one kept filter makes a one-row GEMM
    rng = np.random.default_rng(2)
    for k in range(1, 81):
        n = int(rng.integers(1, 3))
        c = int(rng.integers(1, 5))
        hw = int(rng.integers(3, 12))
        x = rand(rng, (n, c, hw, hw + 1), dt)
        w = rand(rng, (k, c, 3, 3), dt)
        b = rand(rng, k, dt)
        for keep_n in {1, max(1, k // 2), k - 1} - {0}:
            keep = np.sort(rng.choice(k, keep_n, replace=False))
            dropped = np.ones(k, bool)
            dropped[keep] = False
            full = conv2d_gemm(x, *zeroize_filters(w, b, dropped), stride, pad, None, dropped)
            part = conv2d_gemm(x, w[keep], b[keep], stride, pad)
            assert bits_equal(part, np.ascontiguousarray(full[:, keep])), (k, keep_n)
            assert_dead_outputs_are_plus_zero(full, dropped)


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
                keep = np.sort(rng.choice(k, max(1, k - 1 - k // 3), replace=False))
                dropped = np.ones(k, bool)
                dropped[keep] = False
                wz, _ = zeroize_filters(w, None, dropped)
                full = conv2d_gemm(x, wz, None, stride, pad, None, dropped)
                part = conv2d_gemm(x, w[keep], None, stride, pad)
                assert bits_equal(part, np.ascontiguousarray(full[:, keep])), (k, hw)
                assert_dead_outputs_are_plus_zero(full, dropped)


@pytest.mark.parametrize("dt", DTYPES)
def test_zero_channel_and_dropped_filters_together(dt):
    # materialization removes a conv's zeroized filters and, downstream,
    # the input channels they fed; both at once must still be exact
    rng = np.random.default_rng(4)
    zero_in = np.isin(np.arange(12), (1, 6, 11))
    zero_out = np.isin(np.arange(24), (0, 5, 9, 17))
    live_c, live_k = np.flatnonzero(~zero_in), np.flatnonzero(~zero_out)
    for stride, pad in GEOMETRIES:
        for n in (3, 32):
            x = rand(rng, (n, 12, 9, 9), dt)
            x[:, zero_in] = 0.0
            w = rand(rng, (24, 12, 3, 3), dt)
            w[zero_out] = 0.0
            full = conv2d_gemm(x, w, None, stride, pad, zero_in, zero_out)
            small = conv2d_gemm(x[:, live_c], w[live_k][:, live_c], None, stride, pad)
            assert bits_equal(small, np.ascontiguousarray(full[:, live_k])), n
            assert_dead_outputs_are_plus_zero(full, zero_out)


@pytest.mark.parametrize("dt", DTYPES)
@pytest.mark.parametrize("stride,pad", GEOMETRIES)
def test_removal_is_bit_exact_when_the_block_length_changes(monkeypatch, dt, stride, pad):
    # the band of output rows is sized from the live channels, so deleting
    # channels changes it; a masked call must size it as its compacted twin
    rng = np.random.default_rng(13)
    zero_in = np.isin(np.arange(12), (1, 6, 11))
    zero_out = np.isin(np.arange(24), (0, 5, 9, 17))
    live_c, live_k = np.flatnonzero(~zero_in), np.flatnonzero(~zero_out)
    x = rand(rng, (2, 12, 9, 9), dt)
    x[:, zero_in] = 0.0
    w = rand(rng, (24, 12, 3, 3), dt)
    w[zero_out] = 0.0
    wo = (9 + 2 * pad[1] - 3) // stride[1] + 1
    row_bytes = 9 * wo * 2 * np.dtype(dt).itemsize  # per channel of one output row
    # bands of 2 rows over the 9 live channels, of 1 row over all 12
    budget = 2 * 9 * row_bytes
    assert budget // (9 * row_bytes) == 2 and budget // (12 * row_bytes) == 1
    monkeypatch.setattr(tensor, "_BLOCK_BYTES", budget)
    no_filters = conv2d_gemm(x, w, None, stride, pad, None, zero_out)
    no_channels = conv2d_gemm(x, w, None, stride, pad, zero_in, None)
    both = conv2d_gemm(x, w, None, stride, pad, zero_in, zero_out)
    assert bits_equal(np.ascontiguousarray(no_filters[:, live_k]),
                      conv2d_gemm(x, w[live_k], None, stride, pad))
    assert bits_equal(no_channels, conv2d_gemm(x[:, live_c], w[:, live_c], None, stride, pad))
    assert bits_equal(np.ascontiguousarray(both[:, live_k]),
                      conv2d_gemm(x[:, live_c], w[live_k][:, live_c], None, stride, pad))
    assert_dead_outputs_are_plus_zero(both, zero_out)


@pytest.mark.parametrize("dt", DTYPES)
def test_all_channels_or_all_filters_dead(dt):
    rng = np.random.default_rng(16)
    x = np.zeros((2, 3, 5, 5), dt)
    w = rand(rng, (4, 3, 3, 3), dt)
    b = rand(rng, 4, dt)
    got = conv2d_gemm(x, w, b, (1, 1), (1, 1), np.ones(3, bool), None)
    assert bits_equal(got, np.zeros((2, 4, 5, 5), dt) + b.reshape(1, 4, 1, 1))
    w[:] = 0
    got = conv2d_gemm(rand(rng, (2, 3, 5, 5), dt), w, None, (2, 2), (1, 1), None, np.ones(4, bool))
    assert bits_equal(got, np.zeros((2, 4, 3, 3), dt))


def assert_near_brute(got, x, w, b, stride, pad, dt):
    want = conv2d_brute(x, w, b, stride, pad)
    scale = conv2d_brute(np.abs(x), np.abs(w), None if b is None else np.abs(b), stride, pad)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.all(np.abs(got - want) <= REL_TOL[dt] * scale)


def test_taps_outside_the_hull_read_only_padding():
    # brute force over random geometries along one axis: an offset outside
    # live_taps reads no real input at any output position, and an end of
    # the hull that the kernel does not clip reads one (the hull may be
    # empty: with pad >= kernel and a stride wider than the padded input)
    rng = np.random.default_rng(17)
    checked = empty = 0
    for _ in range(3000):
        size, kernel = int(rng.integers(1, 7)), int(rng.integers(1, 8))
        stride, pad = int(rng.integers(1, 4)), int(rng.integers(0, 4))
        out = (size + 2 * pad - kernel) // stride + 1
        if out < 1:
            continue
        hull = live_taps(size, kernel, stride, pad, out)
        real = [any(pad <= stride * o + i < pad + size for o in range(out))
                for i in range(kernel)]
        assert 0 <= hull.start <= hull.stop <= kernel
        assert not any(real[i] for i in range(kernel) if not hull.start <= i < hull.stop)
        if hull.start < hull.stop:
            assert hull.start == 0 or real[hull.start]
            assert hull.stop == kernel or real[hull.stop - 1]
        checked += 1
        empty += hull.start == hull.stop
    assert checked > 1000 and empty > 0


@pytest.mark.parametrize("dt", DTYPES)
def test_dead_taps_of_random_geometries_match_brute(dt):
    # pads up to 3 on maps from 1x1: hulls cut on one or both sides, and
    # strides wider than the input, where the hull may even be empty
    rng = np.random.default_rng(18)
    # (r, s, stride, pad, h, w): a 1x1 kernel that reads only padding, with
    # an empty hull in one axis and in both
    fixed = [(1, 3, (3, 1), (1, 1), 1, 2), (1, 1, (3, 3), (1, 1), 1, 1)]
    for case in range(80 + len(fixed)):
        if case < len(fixed):
            r, s, stride, pad, h, w_in = fixed[case]
        else:
            r, s = (int(v) for v in rng.integers(1, 8, size=2))
            stride = tuple(int(v) for v in rng.integers(1, 4, size=2))
            pad = tuple(int(v) for v in rng.integers(0, 4, size=2))
            h, w_in = (int(v) for v in rng.integers(1, 6, size=2))
            if h + 2 * pad[0] < r or w_in + 2 * pad[1] < s:
                continue
        x = rand(rng, (int(rng.integers(1, 3)), 3, h, w_in), dt)
        w = rand(rng, (4, 3, r, s), dt)
        b = rand(rng, 4, dt) if case % 2 else None
        assert_near_brute(conv2d_gemm(x, w, b, stride, pad), x, w, b, stride, pad, dt)


@pytest.mark.parametrize("dt", DTYPES)
@pytest.mark.parametrize("n", (1, 32))
@pytest.mark.parametrize("with_bias", (False, True))
@pytest.mark.parametrize("masked", (False, True))
def test_center_tap_of_a_1x1_map_is_the_1x1_conv(dt, n, with_bias, masked):
    # 8 of the 9 taps read padding: the GEMM must be the center tap's alone,
    # the same bytes as a 1x1 conv
    rng = np.random.default_rng(19)
    c, k = 12, 10
    x = rand(rng, (n, c, 1, 1), dt)
    w = rand(rng, (k, c, 3, 3), dt)
    b = rand(rng, k, dt) if with_bias else None
    zero_in = zero_out = None
    if masked:
        zero_in, zero_out = np.isin(np.arange(c), (2, 7)), np.isin(np.arange(k), (0, 5))
        x[:, zero_in] = 0
        w[zero_out] = 0
        if b is not None:
            b[zero_out] = 0
    center = np.ascontiguousarray(w[:, :, 1:2, 1:2])
    want = conv2d_gemm(x, center, b, (1, 1), (0, 0), zero_in, zero_out)
    for stride in ((1, 1), (2, 2)):
        got = conv2d_gemm(x, w, b, stride, (1, 1), zero_in, zero_out)
        assert bits_equal(got, want), stride
    assert_near_brute(want, x, w, b, (1, 1), (1, 1), dt)


@pytest.mark.parametrize("dt", DTYPES)
@pytest.mark.parametrize("h,w_in,r,stride,pad", [
    (2, 2, 3, (2, 2), (1, 1)),   # rows and columns [1, 3)
    (2, 2, 7, (1, 1), (3, 3)),   # a 7x7 kernel down to [2, 5)
    (2, 3, 3, (2, 1), (1, 2)),   # rows [1, 3), every column live
    (3, 2, 3, (1, 2), (2, 1)),   # rows [0, 3) clipped to the kernel, columns [1, 3)
])
def test_partial_tap_hulls_match_brute(dt, h, w_in, r, stride, pad):
    rng = np.random.default_rng(20)
    for n in (1, 32):
        x = rand(rng, (n, 5, h, w_in), dt)
        w = rand(rng, (6, 5, r, r), dt)
        b = rand(rng, 6, dt)
        assert_near_brute(conv2d_gemm(x, w, b, stride, pad), x, w, b, stride, pad, dt)


def test_all_live_taps_make_no_copy(monkeypatch):
    gathered = []
    real_gather = tensor._gather_taps
    monkeypatch.setattr(tensor, "_gather_taps",
                        lambda *a: gathered.append(a) or real_gather(*a))
    rng = np.random.default_rng(21)
    w = rand(rng, (4, 3, 3, 3), np.float32)
    x = rand(rng, (2, 3, 5, 5), np.float32)
    for stride in ((1, 1), (2, 2)):
        conv2d_gemm(x, w, None, stride, (1, 1))
    assert gathered == []
    # a 1x1 map does gather, once per prepare
    one = rand(rng, (2, 3, 1, 1), np.float32)
    for _ in range(2):
        conv2d_gemm(one, w, None, (1, 1), (1, 1))
    assert len(gathered) == 2


@pytest.mark.parametrize("dt", DTYPES)
def test_one_weight_prepares_the_window_of_each_map_size(dt):
    # stride 2, pad 1: a 1x1 map reads the center tap, a 2x2 map the
    # [1, 3) x [1, 3) window, and a 3x3 map every tap; the prepared conv
    # holds a copy of the window's weights, or a view of them all
    rng = np.random.default_rng(22)
    w = rand(rng, (6, 4, 3, 3), dt)
    for hw, taps in ((1, 1), (2, 4), (3, 9)):
        x = rand(rng, (2, 4, hw, hw), dt)
        assert_near_brute(conv2d_gemm(x, w, None, (2, 2), (1, 1)), x, w, None, (2, 2), (1, 1), dt)
        conv = tensor.prepare_conv(w, None, (2, 2), (1, 1), (4, hw, hw), dt)
        assert conv.w2d.shape == (6, 4 * taps)
        assert np.shares_memory(conv.w2d, w) == (taps == 9)


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
from reference_kernels import conv2d_gemm, fc_raw
rng = np.random.default_rng(9)
digest = hashlib.sha256()
# three input sizes; the first and the last are split into bands of output
# rows, the last with a batch of 32 innermost in its GEMM columns
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
    here = Path(__file__).resolve().parent
    paths = (str(here.parent / "src"), str(here), env.get("PYTHONPATH", ""))
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return subprocess.run([sys.executable, "-c", _THREAD_PROBE], env=env, check=True,
                          capture_output=True, text=True, timeout=120).stdout


def test_result_does_not_depend_on_blas_thread_count():
    # GEMMs of 64 x 72 by 784 to 1,792 columns are large enough for OpenBLAS
    # to split across threads when it has more than one; a single-thread run
    # must agree, for batch-innermost columns of 32 images too
    single = _probe_digest(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    assert len(single) == 64
    assert _probe_digest() == single


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
            monkeypatch.setattr(reference_kernels, "_BLOCK_BYTES",
                                block_bytes * 6 * np.dtype(dt).itemsize)
        assert bits_equal(fc_raw(x, w, b), fc_brute(x, w, b)), fin


@pytest.mark.parametrize("dt", DTYPES)
def test_fc_removal_is_bit_exact_when_the_block_length_changes(monkeypatch, dt):
    rng = np.random.default_rng(14)
    x = rand(rng, (3, 40), dt)
    x[:, [0, 7, 8, 31]] = 0.0
    w = rand(rng, (10, 40), dt)
    keep_in = [t for t in range(40) if t not in (0, 7, 8, 31)]
    keep_out = [0, 2, 3, 6, 9]
    # 7 inputs per block for 5 outputs, 3 for all 10
    monkeypatch.setattr(reference_kernels, "_BLOCK_BYTES", 7 * 3 * 5 * np.dtype(dt).itemsize)
    full = fc_raw(x, w, None)
    assert bits_equal(fc_raw(x[:, keep_in], w[:, keep_in], None), full)
    assert bits_equal(fc_raw(x, w[keep_out], None), np.ascontiguousarray(full[:, keep_out]))


# (kernel, input size, stride, pad): 3x3 pad-1 convs at stride 1 and 2 on
# 1x1 to 8x8 maps, the 1x1 stride-2 projection and the 7x7 pad-3 stride-2
# stem; the small maps and the stem have hulls without their dead taps
BUILDER_GEOMETRIES = ([(3, hw, stride, 1) for hw in range(1, 9) for stride in (1, 2)]
                      + [(1, hw, 2, 0) for hw in (1, 2, 4, 8)]
                      + [(7, hw, 2, 3) for hw in (1, 2, 4, 8)])


@pytest.mark.parametrize("dt", DTYPES)
@pytest.mark.parametrize("n", (1, 2, 32))
@pytest.mark.parametrize("band_rows", (None, 1))
def test_gathered_windows_equal_the_window_view(monkeypatch, dt, n, band_rows):
    # both builders run on the same PreparedConv, masked and not, with every
    # map given a table (the call itself gathers for ho*wo*n <= 16 only), in
    # one band or in bands of one output row
    monkeypatch.setattr(tensor, "_GATHER_COLUMNS", 64)
    if band_rows is not None:
        monkeypatch.setattr(tensor, "_BLOCK_BYTES", 1)
    rng = np.random.default_rng(23)
    c, k = 6, 5
    for r, hw, stride, pad in BUILDER_GEOMETRIES:
        x = rand(rng, (c, hw, hw, n), dt)
        w = rand(rng, (k, c, r, r), dt)
        b = rand(rng, k, dt)
        zero_in, zero_out = np.isin(np.arange(c), (1, 4)), np.isin(np.arange(k), (0, 3))
        x[zero_in] = 0
        for masks in ((None, None), (zero_in, None), (None, zero_out), (zero_in, zero_out)):
            wz, bz = zeroize_filters(w, b, np.zeros(k, bool) if masks[1] is None else masks[1])
            conv = tensor.prepare_conv(wz, bz, (stride, stride), (pad, pad), (c, hw, hw), dt,
                                       *masks)
            assert conv.table is not None
            view = conv._apply(x, gather=False)
            gathered = conv._apply(x, gather=True)
            assert bits_equal(gathered, view), (r, hw, stride, masks[0] is None,
                                                masks[1] is None)
            assert bits_equal(conv(x), view)


@pytest.mark.parametrize("dt", DTYPES)
@pytest.mark.parametrize("masked", (False, True))
def test_the_builder_follows_the_gemm_width_alone(monkeypatch, dt, masked):
    built = []
    real = tensor.PreparedConv._apply
    monkeypatch.setattr(tensor.PreparedConv, "_apply",
                        lambda conv, x, gather: built.append(gather) or real(conv, x, gather))
    rng = np.random.default_rng(24)
    c = 4
    # (input size, stride, batch): ho*wo*n at 16 and just above it, for
    # 4x4, 2x2 and 1x1 output maps; 8x8 and 16x16 maps have no table
    for hw, stride, n in ((4, 1, 1), (4, 1, 2), (8, 2, 1), (8, 2, 2), (2, 1, 4), (2, 1, 5),
                          (4, 2, 4), (4, 2, 5), (1, 1, 16), (1, 2, 17), (8, 1, 1),
                          (16, 1, 1), (32, 2, 1)):
        ho = (hw - 1) // stride + 1
        zero_in = np.isin(np.arange(c), (2,)) if masked else None
        conv = tensor.prepare_conv(rand(rng, (3, c, 3, 3), dt), None, (stride, stride),
                                   (1, 1), (c, hw, hw), dt, zero_in)
        built.clear()
        conv(rand(rng, (c, hw, hw, n), dt))
        assert built == [ho * ho * n <= 16]
        assert (conv.table is None) == (ho * ho > 16)


def test_one_unmasked_geometry_shares_one_table():
    rng = np.random.default_rng(25)
    x_chw, stride, pad = (8, 4, 4), (2, 2), (1, 1)
    a = tensor.prepare_conv(rand(rng, (3, 8, 3, 3), np.float32), None, stride, pad, x_chw,
                            np.float32)
    b = tensor.prepare_conv(rand(rng, (5, 8, 3, 3), np.float64),
                            rand(rng, 5, np.float64), stride, pad, x_chw, np.float64,
                            None, np.isin(np.arange(5), (1,)))
    assert a.table is b.table and not a.table.flags.writeable
    assert a.table.dtype == np.intp and a.table.shape == (8 * 3 * 3, 2, 2)
    # a masked input takes its live channels' rows of the shared table
    zero_in = np.isin(np.arange(8), (0, 5))
    masked = tensor.prepare_conv(rand(rng, (3, 8, 3, 3), np.float32), None, stride, pad, x_chw,
                                 np.float32, zero_in)
    assert masked.table is not a.table and not masked.table.flags.writeable
    assert np.array_equal(masked.table, a.table.reshape(8, -1, 2, 2)[~zero_in].reshape(-1, 2, 2))
