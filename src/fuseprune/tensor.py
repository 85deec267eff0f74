"""Dense 4-D tensors and deterministic kernels.

Weights are rank-4 arrays laid out as (k, c, r, s) in row-major order, and
a Tensor, the immutable array of finite values, holds them. Activations are
held batch innermost, as (c, h, w, n) arrays in row-major order with the
batch fastest: graph.execute transposes its (n, c, h, w) input Tensor into
that layout once, runs every node on it, and transposes the output back
once, and the trainer does the same. The kernels (conv2d_chwn,
max_pool_chwn) and the training math beside each (bn's training forward
and the backwards) work on that layout. The kernels are pure functions on
numpy arrays, and their results depend only on their inputs.

Determinism contract. Materializing a pruned model must reproduce the
masked model bit for bit. That promise rests on the graph, not on any
summation order inside a kernel: graph.execute works out, from the weights
alone, which channels are exactly zero, and the prepared conv
(prepare_conv) leaves them out of its GEMMs on both sides. The masked
model and its materialization then make the same BLAS calls on the same
compacted operands, so the only thing assumed of the BLAS is that
identical calls give identical bits at a fixed thread count. The kernels
meet it as follows:

* The prepared conv (prepare_conv), the convolution graphs execute, runs
  im2col GEMMs over the live input channels and the live filters, one per
  band of output rows, each written into a (k', ho, wo, n) buffer of the
  live filters alone. Dead filters are written back as +0 at full width,
  so every other kernel sees the same shapes as before. The order of the
  c*r*s terms of a dot product is the BLAS's.
* Two window builders, one matrix. A call builds each band's window matrix
  either by copying it out of a view of the padded input or, for a skinny
  GEMM of at most _GATHER_COLUMNS columns (ho*wo*n), by gathering it
  through an index table prepare_conv made from the geometry. Both give the
  identical C-ordered matrix, and the choice depends on ho*wo*n alone,
  which a masked model and its materialization share, so it cannot change
  a bit.
* Skinny GEMMs in row chunks. A band's GEMM of 2 to _GATHER_COLUMNS
  columns above _GEMM_MACS multiply-adds runs as consecutive np.matmul
  calls on chunks of the live filters, each writing its own rows of the
  output. The chunks give other bits than one call would, but they depend
  only on the (rows, depth, columns) of the compacted GEMM, which a masked
  model and its materialization share, so both sides still make identical
  BLAS calls and identical calls giving identical bits stays the only
  assumption.
* conv2d_chwn is prepare_conv and its application in one. graph.compile
  keeps the prepared conv, the live weight matrix made once per graph, and
  every execute applies it, so a compiled graph makes the same BLAS calls
  on the same operands as conv2d_chwn on that input.
* Dead taps. conv2d_chwn also leaves out the kernel taps that read only
  padding: live_taps works out their hull from the geometry alone, so a
  masked model and its materialization, which share every geometry, drop
  the same taps. The dropped terms are w * (+0). Each prepare_conv cuts
  the tap-restricted copy of the weights once and its result holds it: a
  compiled graph's plan keeps it, and a Tensor keeps no copy of its own.
* graph.execute runs every fc as a 1x1-conv GEMM (prepare_conv) over the
  (c*h*w, 1, 1, n) view of its input, compacted by the input channels'
  zero marks repeated over h*w, so a masked fc multiplies the operands its
  materialization does.
* The trainer runs graph.execute's per-kind forward without zero masks,
  but bn's batch_norm_train_chwn. Its weight gradient,
  conv2d_chwn_weight_grad, which also serves the fc, pads and windows its
  input as conv2d_chwn does. conv2d_chwn_input_grad, run after it, computes
  the input gradient as one unmasked conv2d_chwn per phase of the stride,
  over the output-gradient rows that phase reads, so no GEMM multiplies
  the zeros a stride puts between outputs; a backward told that no input
  gradient is wanted (train_epoch's, for the node that reads the graph
  input) does not run it. So training too is deterministic at a fixed
  thread count.

float32 is the working precision; float64 is supported throughout for
high-precision runs. Mixing dtypes within one kernel call is an error.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

SUPPORTED_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))
DTYPE_NAMES = {np.dtype(np.float32): "f32", np.dtype(np.float64): "f64"}
DTYPE_FROM_NAME = {"f32": np.dtype(np.float32), "f64": np.dtype(np.float64)}


class TensorError(ValueError):
    """Malformed tensor contents or a kernel shape/parameter violation."""


class Tensor:
    """Immutable dense 4-D array of finite float32 or float64 values.

    Tensor(data) copies data into a read-only array of its own, so the
    caller's array stays writable and unshared.
    """

    __slots__ = ("data",)

    def __init__(self, data, dtype=None):
        self._adopt(np.array(data, dtype=dtype, order="C"))

    @classmethod
    def _wrap(cls, arr: np.ndarray, finite: bool = False) -> "Tensor":
        """A Tensor over arr itself, without a copy.

        Only for a fresh array that nothing else holds or writes: a kernel's
        output, or weights the package has just computed. finite says the
        caller has already found every value of arr finite, so arr is not
        scanned again.
        """
        t = cls.__new__(cls)
        t._adopt(arr, finite)
        return t

    def _adopt(self, arr: np.ndarray, finite: bool = False) -> None:
        if arr.dtype not in SUPPORTED_DTYPES:
            raise TensorError(f"unsupported dtype {arr.dtype}; expected float32 or float64")
        if arr.ndim != 4:
            raise TensorError(f"tensors are rank-4 (n, c, h, w); got rank {arr.ndim}")
        if min(arr.shape) < 1:
            raise TensorError(f"all dimensions must be >= 1; got {arr.shape}")
        if not finite and not np.isfinite(arr).all():
            raise TensorError("tensor contains NaN or Inf")
        arr = np.ascontiguousarray(arr)
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)

    def __setattr__(self, name, value):
        raise AttributeError("Tensor is immutable")

    @property
    def shape(self) -> tuple[int, int, int, int]:
        return self.data.shape

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    @property
    def dtype_name(self) -> str:
        return DTYPE_NAMES[self.data.dtype]

    @classmethod
    def zeros(cls, shape, dtype=np.float32) -> "Tensor":
        return cls._wrap(np.zeros(shape, dtype=dtype))

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, dtype={self.dtype_name})"


@dataclass(frozen=True)
class ConvSpec:
    """Static convolution geometry: k filters of shape (c, r, s)."""

    k: int
    c: int
    r: int
    s: int
    stride: tuple[int, int] = (1, 1)
    pad: tuple[int, int] = (0, 0)
    has_bias: bool = False

    def __post_init__(self):
        for name in ("k", "c", "r", "s"):
            if getattr(self, name) < 1:
                raise TensorError(f"ConvSpec.{name} must be >= 1")
        object.__setattr__(self, "stride", (int(self.stride[0]), int(self.stride[1])))
        object.__setattr__(self, "pad", (int(self.pad[0]), int(self.pad[1])))
        if self.stride[0] < 1 or self.stride[1] < 1:
            raise TensorError("ConvSpec.stride components must be >= 1")
        if self.pad[0] < 0 or self.pad[1] < 0:
            raise TensorError("ConvSpec.pad components must be >= 0")

    @property
    def weight_shape(self) -> tuple[int, int, int, int]:
        return (self.k, self.c, self.r, self.s)

    def out_hw(self, h: int, w: int) -> tuple[int, int]:
        """Output spatial size for an (h, w) input; both results must be >= 1."""
        ho = (h + 2 * self.pad[0] - self.r) // self.stride[0] + 1
        wo = (w + 2 * self.pad[1] - self.s) // self.stride[1] + 1
        if ho < 1 or wo < 1:
            raise TensorError(
                f"conv output collapses to {ho}x{wo} for input {h}x{w} with {self}"
            )
        return ho, wo


def _conv_geometry(chw, dt, w: np.ndarray, stride, pad) -> tuple[int, int]:
    """Validate a conv of a (c, h, w) input of dtype dt by a (k, c, r, s)
    weight and return (ho, wo)."""
    c, h, wd = chw
    _, cw, r, s = w.shape
    if cw != c:
        raise TensorError(f"conv weight expects {cw} input channels, tensor has {c}")
    ho = (h + 2 * pad[0] - r) // stride[0] + 1
    wo = (wd + 2 * pad[1] - s) // stride[1] + 1
    if ho < 1 or wo < 1:
        raise TensorError(f"conv output collapses to {ho}x{wo}")
    if w.dtype != dt:
        raise TensorError(f"mixed dtypes in one kernel call: {dt} vs {w.dtype}")
    return ho, wo


def _filter_bias(bias, k: int, dt):
    """The per-filter bias as a (1, k, 1, 1) array of dtype dt, or None."""
    if bias is None:
        return None
    b = np.asarray(bias).reshape(-1)
    if b.shape[0] != k:
        raise TensorError(f"bias length {b.shape[0]} != filter count {k}")
    if b.dtype != dt:
        raise TensorError(f"mixed dtypes in one kernel call: {dt} vs {b.dtype}")
    return b.reshape(1, k, 1, 1)


def pad_hw(x: np.ndarray, pad, value=0) -> np.ndarray:
    """x (c, h, w, n) padded by pad on both spatial axes with value.

    Returns a new (c, h + 2*ph, w + 2*pw, n) array, or x itself when pad is
    (0, 0). The batch stays innermost, so one output row of a tap's window
    reads wo*n contiguous elements at stride 1.
    """
    ph, pw = pad
    if ph == 0 and pw == 0:
        return x
    c, h, wd, n = x.shape
    xp = np.full((c, h + 2 * ph, wd + 2 * pw, n), value, dtype=x.dtype)
    xp[:, ph : ph + h, pw : pw + wd] = x
    return xp


def batch_innermost_windows(xp: np.ndarray, r: int, s: int, stride) -> np.ndarray:
    """Every (r, s) tap's strided window of a padded (c, h, w, n) input.

    Returns a read-only (c, r, s, ho, wo, n) view without copying (xp is
    made C-contiguous first if it is not):
    [t, i, j, oh, ow, n] is xp[t, stride[0]*oh + i, stride[1]*ow + j, n].
    Reshaping it to (c*r*s, ho*wo*n) gives the im2col matrix with the batch
    innermost in its columns. The window must fit in xp; the view is an
    ndarray over xp's buffer with xp's strides, which numpy checks against
    the buffer's size: about a seventh of the cost of as_strided and a
    fourteenth of sliding_window_view's, which every conv call pays.
    """
    xp = np.ascontiguousarray(xp)
    c, h, w, n = xp.shape
    sc, sh, sw, sn = xp.strides
    shape = (c, r, s, (h - r) // stride[0] + 1, (w - s) // stride[1] + 1, n)
    view = np.ndarray(shape, xp.dtype, xp, 0, (sc, sh, sw, sh * stride[0], sw * stride[1], sn))
    view.flags.writeable = False
    return view


# Caps the window matrix of one conv2d_chwn GEMM: a larger one spills out
# of cache and slows the kernel down. conv2d_chwn sizes its bands from the
# compacted K, so deleting channels or dead taps can change a band but
# never makes two calls on equal operands differ.
_BLOCK_BYTES = 512 * 1024


def live_taps(size: int, kernel: int, stride: int, pad: int, out: int) -> slice:
    """The kernel offsets along one axis that may read a real input.

    Offset i of output position o reads padded index stride*o + i, which is
    a real input when pad <= stride*o + i < pad + size. Over o in [0, out),
    that can hold only for i in [pad - stride*(out - 1), pad + size); the
    result clips that to the kernel. It is a hull, not the exact set: with
    a stride wider than the input, an offset inside it may still read only
    padding, and a stride wider than the padded input can leave it empty.
    Every offset outside it reads padding alone, so its terms are w * (+0)
    and leaving them out changes the sum by rounding only.
    """
    stop = min(kernel, pad + size)
    return slice(min(stop, max(0, pad - stride * (out - 1))), stop)


def _gather_taps(w: np.ndarray, rows: slice, cols: slice) -> np.ndarray:
    """A C-ordered copy of w[:, :, rows, cols] for a (k, c, r, s) weight.

    One take over the flat (c, r, s) axis: for a 2x2 window of a 3x3 kernel
    about three times faster than copying the strided slice.
    """
    k, c, r, s = w.shape
    idx = (np.arange(c)[:, None, None] * (r * s)
           + np.arange(rows.start, rows.stop)[None, :, None] * s
           + np.arange(cols.start, cols.stop)[None, None, :])
    return w.reshape(k, c * r * s).take(idx.reshape(-1), axis=1).reshape(
        k, c, rows.stop - rows.start, cols.stop - cols.start)


# The widest GEMM, in output columns ho*wo*n, whose window matrix is
# gathered through the index table rather than copied out of the padded
# input's window view; also the largest output map, in positions ho*wo, that
# prepare_conv builds a table for. Building the matrix alone, at one BLAS
# thread, the gather takes 0.2-0.5x the view's time on 4x4 to 1x1 maps at
# batch 1 to 16, about the same on 8x8 maps and 2.2x on 16x16 ones, where
# the view copies runs of wo*n elements and the gather runs of n. The limit
# counts columns, not positions, because at batch 32 on small maps the
# gather's saving on that step did not carry over to whole-graph latency.
_GATHER_COLUMNS = 16

# The most multiply-adds (rows*depth*columns) that one skinny GEMM call of
# 2 to _GATHER_COLUMNS columns makes. OpenBLAS 0.3.31's SkylakeX kernel
# runs a GEMM of at most 10^6 multiply-adds on its unpacked operands and
# packs the whole weight matrix above that: at depth 2304 and 4 columns, at
# one thread, 108 rows took 32 us in f32 and 109 rows 81 us (f64: 57
# against 155 us). So a larger skinny GEMM runs as consecutive chunks of
# the live filters of at most this many multiply-adds each. A 1-column GEMM
# goes to gemv, where splitting gained nothing, and is never split. There is
# no minimum chunk: f32 chunks of 27 rows at depth 2304 and 16 columns ran
# 4-17% slower than the whole GEMM in isolation, but in whole-graph latency
# (one BLAS thread) resnet18 3x64x64 b1 f32, whose stage-3 convs are that
# GEMM, fell 19-21% with them and 14-17% with no split below 32 rows.
_GEMM_MACS = 10**6


def _gemm_rows(rows: int, depth: int, columns: int) -> int:
    """The rows of each np.matmul call of a (rows, depth) @ (depth, columns)
    GEMM, the last call taking what is left: every row, unless the GEMM has
    2 to _GATHER_COLUMNS columns and more than _GEMM_MACS multiply-adds, and
    then as many as fit in _GEMM_MACS, but at least one. It reads the
    compacted GEMM's shape alone, which a masked conv and its
    materialization share."""
    if not 2 <= columns <= _GATHER_COLUMNS or rows * depth * columns <= _GEMM_MACS:
        return rows
    return max(1, _GEMM_MACS // (depth * columns))


@functools.lru_cache(maxsize=128)
def _window_table(c, h, w, stride, pad, ho, wo, tap_rows, tap_cols) -> np.ndarray:
    """The read-only (c*r'*s', ho, wo) intp index table of an unmasked
    conv's window matrix over the (tap_rows, tap_cols) hull, given as
    (start, stop) pairs: [t*r'*s' + i*s' + j, oh, ow] is the row of the
    unpadded input, viewed as (c*h*w, n), that tap (i, j) of channel t reads
    at output (oh, ow), or c*h*w, a zero row, where it reads padding.

    Kept per geometry, unlike the weights: the trainer prepares its convs
    on every call, and a graph compiles on its first execute and again after
    each edit, and every such prepare of one geometry finds it here.
    """
    def reads(size, stride, pad, out, taps):
        # (taps, out): the input index each offset reads, and whether it is real
        at = (stride * np.arange(out, dtype=np.intp)
              + np.arange(*taps, dtype=np.intp)[:, None] - pad)
        return at, (at >= 0) & (at < size)

    rows, real_rows = reads(h, stride[0], pad[0], ho, tap_rows)
    cols, real_cols = reads(w, stride[1], pad[1], wo, tap_cols)
    spatial = rows[:, None, :, None] * w + cols[None, :, None, :]
    real = real_rows[:, None, :, None] & real_cols[None, :, None, :]
    table = np.where(real, np.arange(c, dtype=np.intp).reshape(c, 1, 1, 1, 1) * (h * w)
                     + spatial, c * h * w).reshape(-1, ho, wo)
    table.setflags(write=False)
    return table


def prepare_conv(w: np.ndarray, bias, stride, pad, chw, dtype,
                 zero_in=None, zero_out=None) -> "PreparedConv":
    """The part of conv2d_chwn that depends on the (k, c, r, s) weight array
    w and the input's (c, h, w) and dtype alone, for any batch size: the
    checks, the output geometry, the live taps, the live weights as one
    (k', c'*r'*s') matrix and, for an output map of at most _GATHER_COLUMNS
    positions, the index table of the window matrix. Applying the result to
    a (c, h, w, n) input runs the GEMMs.

    zero_in and zero_out are optional length-c and length-k bool masks.
    zero_in marks input channels the caller knows to be all exactly zero:
    they are left out of the GEMMs (a leading-axis take of x, or of the
    index table's rows), which changes the result only by rounding.
    zero_out marks filters whose bias is zero and whose weights are zero on
    every live input channel: they are left out of the GEMMs and their
    outputs are written as +0. Two convs whose live channels, filters and
    taps hold the same values therefore make the same GEMMs, whatever else
    sits beside them, and that is what keeps materialization bit-identical
    (see the module docstring).

    Without masks the matrix is a view of w, or of the copy of its live taps
    (_gather_taps) that each prepare cuts when they are a strict part of the
    kernel; with either mask it is a copy of the live filters over the live
    channels. Either copy is made here once rather than on every
    application, and the result holds it. The unmasked index table is
    shared by every prepare of one geometry (_window_table); a masked conv
    takes its live channels' rows of it here, once, so that its gather
    reads the unmasked input directly.
    """
    dt = np.dtype(dtype)
    k, _, r, s = w.shape
    ho, wo = _conv_geometry(chw, dt, w, stride, pad)
    b = _filter_bias(bias, k, dt)
    tap_rows = live_taps(chw[1], r, stride[0], pad[0], ho)
    tap_cols = live_taps(chw[2], s, stride[1], pad[1], wo)
    if (tap_rows.stop - tap_rows.start, tap_cols.stop - tap_cols.start) != (r, s):
        w = _gather_taps(w, tap_rows, tap_cols)
    table = None
    if ho * wo <= _GATHER_COLUMNS:
        table = _window_table(*chw, tuple(stride), tuple(pad), ho, wo,
                              (tap_rows.start, tap_rows.stop), (tap_cols.start, tap_cols.stop))
    # take, unlike fancy indexing on axis 1, copies straight into C order
    live_out = live_in = None
    if zero_out is not None:
        live_out = np.flatnonzero(~zero_out)
        w = w.take(live_out, axis=0)
    if zero_in is not None:
        live_in = np.flatnonzero(~zero_in)
        w = w.take(live_in, axis=1)
        if table is not None:
            table = table.reshape(chw[0], -1).take(live_in, axis=0).reshape(-1, ho, wo)
            table.setflags(write=False)
    return PreparedConv(w2d=w.reshape(w.shape[0], math.prod(w.shape[1:])), k=k, ho=ho, wo=wo,
                        r=r, s=s, stride=tuple(stride), pad=tuple(pad), tap_rows=tap_rows,
                        tap_cols=tap_cols, live_in=live_in, live_out=live_out,
                        bias=None if b is None else b.reshape(k, 1, 1, 1), table=table)


class PreparedConv(NamedTuple):
    """A conv made ready by prepare_conv: calling it on a (c, h, w, n) input
    of the prepared (c, h, w) and dtype returns the new (k, ho, wo, n)
    output. It holds nothing that one call leaves for the next. (A named
    tuple: immutable, and about a fifth of a frozen dataclass's cost to
    build, which the trainer pays on every conv2d_chwn call.)

    A call builds each band's window matrix, the C-ordered (c'*r'*s', m*wo*n)
    matrix of m output rows, by one of two builders that give the identical
    matrix. A GEMM of at most _GATHER_COLUMNS columns (ho*wo*n) whose conv
    has a table gathers it: one take of the table's rows for those output
    rows from x viewed as (c*h*w, n) with a zero row appended, so neither
    pad_hw nor a take of the live channels runs. Any other copies it out of
    the window view of x's live channels, padded by pad_hw. A GEMM of 2 to
    _GATHER_COLUMNS columns above _GEMM_MACS multiply-adds then multiplies
    that matrix by consecutive row chunks of w2d (_gemm_rows), each
    np.matmul writing its own rows of the output."""

    w2d: np.ndarray
    k: int
    ho: int
    wo: int
    r: int
    s: int
    stride: tuple[int, int]
    pad: tuple[int, int]
    tap_rows: slice
    tap_cols: slice
    live_in: np.ndarray | None
    live_out: np.ndarray | None
    bias: np.ndarray | None
    table: np.ndarray | None

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self._apply(x, self.table is not None
                           and self.ho * self.wo * x.shape[3] <= _GATHER_COLUMNS)

    def _apply(self, x: np.ndarray, gather: bool) -> np.ndarray:
        """The conv of x, its window matrices gathered through the table
        when gather is true, copied out of the window view otherwise."""
        (w2d, k, ho, wo, r, s, stride, pad, tap_rows, tap_cols, live_in, live_out, bias,
         table) = self
        n = x.shape[3]
        rows, depth = w2d.shape
        dt = w2d.dtype
        if gather:
            c, h, w, _ = x.shape
            src = np.empty((c * h * w + 1, n), dtype=x.dtype)
            src[:-1] = x.reshape(-1, n)
            src[-1] = 0
        else:
            if live_in is not None:
                x = x.take(live_in, axis=0)
            windows = batch_innermost_windows(pad_hw(x, pad), r, s, stride)[:, tap_rows, tap_cols]
        y = np.empty((rows, ho, wo, n), dtype=dt)
        y2d = y.reshape(rows, ho * wo * n)
        band = max(1, min(ho, _BLOCK_BYTES // max(1, depth * wo * n * dt.itemsize)))
        for oh in range(0, ho, band):
            m = min(band, ho - oh)
            out = y2d[:, oh * wo * n : (oh + m) * wo * n]
            if gather:
                # every index lies in src, so mode="wrap" reads what the
                # default would, skipping its bounds check: about a quarter
                # faster at batch 1
                cols = src.take(table[:, oh : oh + m], axis=0, mode="wrap").reshape(
                    depth, m * wo * n)
            else:
                # a copy even where a reshape could be a strided view (a
                # single tap), so the BLAS sees the layout a kernel of those
                # taps alone gives
                cols = np.ascontiguousarray(
                    windows[:, :, :, oh : oh + m].reshape(depth, m * wo * n))
            # the rows of each np.matmul call. A wider GEMM is never split
            # and skips the call: a microsecond of Python per conv costs
            # resnet8-tiny 3x8x8 at batch 32 about 2% of its latency
            columns = m * wo * n
            step = rows if columns > _GATHER_COLUMNS else _gemm_rows(rows, depth, columns)
            if step >= rows:
                np.matmul(w2d, cols, out=out)
            else:
                for i in range(0, rows, step):
                    np.matmul(w2d[i : i + step], cols, out=out[i : i + step])
            # freed before the next band's matrix is made, so that one reuses
            # its memory instead of faulting in fresh pages
            del cols
        if live_out is not None:
            full = np.zeros((k, ho, wo, n), dtype=dt)
            full[live_out] = y
            y = full
        if bias is not None:
            y += bias
        return y


def conv2d_chwn(x: np.ndarray, w: np.ndarray, bias, stride, pad) -> np.ndarray:
    """2-D convolution (cross-correlation) with zero padding, as im2col GEMMs,
    from a (c, h, w, n) input to a new (k, ho, wo, n) output: prepare_conv
    for x's (c, h, w) and dtype, applied to x. graph.compile prepares each
    conv once, and the plan that a graph keeps from its first execute
    applies it on every execute.

    y(k, ho, wo, n) = sum over (t, i, j) of
        x(t, stride[0]*ho + i - pad[0], stride[1]*wo + j - pad[1], n) * w(k, t, i, j)
    with out-of-range x reads taken as zero, plus bias(k) when a length-k
    bias is given. It raises TensorError for a weight whose input channels
    differ from x's, an output below 1x1, a bias of the wrong length, or
    operands of mixed dtypes.

    The (k', c'*r'*s') matrix of the live filters over the live input
    channels (all of them here; prepare_conv's masks narrow them) and live
    taps multiplies the (c'*r'*s', ho*wo*n) matrix of those channels' input
    windows at those taps; the bias, when present, is added once at the
    end. The window matrix is built and multiplied a band of output rows at
    a time, as many rows as fit in _BLOCK_BYTES (one band for most layers
    at batch 1); the band depends only on c', r', s', wo, n and the dtype.
    Each band's product is written by the GEMM straight into its rows of
    the (k', ho, wo, n) output, with no transposing copy. A skinny band, of
    2 to _GATHER_COLUMNS columns and above _GEMM_MACS multiply-adds, is
    multiplied in chunks of the k' filters of at most _GEMM_MACS each,
    which OpenBLAS runs without packing the weights; the chunks depend only
    on k', c'*r'*s' and the band's columns.

    The live taps are the hull live_taps works out from the geometry alone
    (h, w, r, s, stride, pad, ho, wo): a 3x3 pad-1 conv on a 1x1 map
    multiplies its center tap only. w is a (k, c, r, s) array; when the
    hull is a strict part of the kernel, each prepare gathers the weights of
    those taps anew, and a compiled graph's prepared conv holds them.

    The window matrix's columns run (ho, wo, n), and it is built by one of
    two builders that give the identical matrix (PreparedConv). For a GEMM
    of more than _GATHER_COLUMNS columns (ho*wo*n) the input's live channels
    are taken, padded on their spatial axes (pad_hw; read as is at pad 0)
    and copied out of their window view, at stride 1 as runs of wo*n
    contiguous elements. For a skinny one, on an output map of at most
    _GATHER_COLUMNS positions, one take per band reads every window element
    through prepare_conv's index table from the unpadded input with one zero
    row appended, which stands in for every padding read: no pad_hw and no
    take of the live channels.

    The order of the c'*r'*s' terms of each dot product is the BLAS's, so
    results agree with a sequential sum to rounding, not bit for bit.
    """
    return prepare_conv(w, bias, stride, pad, x.shape[:3], x.dtype)(x)


class _Phase(NamedTuple):
    """Along one axis, the kernel offsets that reach one phase of a conv's
    input gradient and the output rows they read (_phase)."""

    taps: slice
    lo: int  # the first row read
    length: int  # the number of rows read


def _phase(size: int, kernel: int, stride: int, pad: int, a: int) -> _Phase | None:
    """Phase a along one axis of the input gradient of a conv over size
    inputs: the inputs a + stride*u, or None when there are none or no tap
    reaches them.

    Input a + stride*u is read by offset i of output o where stride*o + i =
    a + stride*u + pad, so only the offsets first + stride*p, first =
    (a + pad) % stride, reach the phase, and offset p of them reads output
    u + q - p, q = (a + pad) // stride. Over the phase's inputs and its taps
    that spans outputs [q - taps + 1, q + inputs), and a stride-1 conv of
    those rows of the output gradient, zero where they lie past its edges,
    with the flipped sub-kernel gives the phase's gradient.
    """
    first = (a + pad) % stride
    taps, inputs = len(range(first, kernel, stride)), len(range(a, size, stride))
    if not taps or not inputs:
        return None
    return _Phase(slice(first, kernel, stride), (a + pad) // stride - taps + 1, inputs + taps - 1)


def _zero_bordered(gy: np.ndarray, rows: tuple[int, int], cols: tuple[int, int]) -> np.ndarray:
    """The [start, stop) rows and cols of the (k, ho, wo, n) gy on its two
    spatial axes, zero where they lie past gy's edges; gy itself when they
    are its own."""
    k, ho, wo, n = gy.shape
    if rows == (0, ho) and cols == (0, wo):
        return gy
    out = np.zeros((k, rows[1] - rows[0], cols[1] - cols[0], n), dtype=gy.dtype)
    r0, r1 = max(rows[0], 0), min(rows[1], ho)
    c0, c1 = max(cols[0], 0), min(cols[1], wo)
    out[:, r0 - rows[0] : r1 - rows[0], c0 - cols[0] : c1 - cols[0]] = gy[:, r0:r1, c0:c1]
    return out


def conv2d_chwn_weight_grad(gy: np.ndarray, x: np.ndarray, w: np.ndarray, stride, pad):
    """The weight gradient of the unmasked conv2d_chwn(x, w, ..., stride,
    pad), given the (k, ho, wo, n) output gradient gy: (cols @ gy.T).T over
    x's window matrix, made again (caching it would hold r*s times the input
    per conv), as the BLAS runs that orientation up to twice as fast as
    gy @ cols.T."""
    k, c, r, s = w.shape
    cols = batch_innermost_windows(pad_hw(x, pad), r, s, stride).reshape(c * r * s, -1)
    return (cols @ gy.reshape(k, -1).T).T.reshape(w.shape)


def conv2d_chwn_input_grad(gy: np.ndarray, shape, w: np.ndarray, stride, pad):
    """The input gradient of the unmasked conv2d_chwn(x, w, ..., stride,
    pad) of a (c, h, w, n) x of that shape, given the (k, ho, wo, n) output
    gradient gy; it reads x's shape alone.

    It is the transposed convolution of gy, in its phase
    (sub-pixel) form (Dumoulin & Visin, arXiv 1603.07285): each of the
    stride[0]*stride[1] phases gx[:, a::stride[0], b::stride[1]] is one
    stride-1 conv2d_chwn of the zero-bordered rows of gy it reads (_phase)
    with the flipped, transposed sub-kernel of the taps that reach it. A
    phase no tap reaches gets zeros, and no GEMM multiplies a zero that a
    stride put between outputs. At stride 1 the one phase is the whole
    gradient.
    """
    _, _, r, s = w.shape
    _, h, wd, _ = shape
    (sh, sw), (ph, pw) = stride, pad
    rows = [(a, p) for a in range(sh) if (p := _phase(h, r, sh, ph, a))]
    cols = [(b, p) for b in range(sw) if (p := _phase(wd, s, sw, pw, b))]
    gx = None if (sh, sw) == (1, 1) else np.zeros(shape, dtype=gy.dtype)
    if not rows or not cols:
        return gx  # every output reads padding alone
    # one zero-bordered gy that every phase's rows and columns lie in
    top, left = min(p.lo for _, p in rows), min(p.lo for _, p in cols)
    bordered = _zero_bordered(gy, (top, max(p.lo + p.length for _, p in rows)),
                              (left, max(p.lo + p.length for _, p in cols)))
    for a, pr in rows:
        for b, pc in cols:
            part = conv2d_chwn(
                bordered[:, pr.lo - top : pr.lo - top + pr.length,
                         pc.lo - left : pc.lo - left + pc.length],
                w[:, :, pr.taps, pc.taps].transpose(1, 0, 2, 3)[:, :, ::-1, ::-1],
                None, (1, 1), (0, 0))
            if gx is None:
                return part  # stride 1: the one phase is the whole gradient
            gx[:, a::sh, b::sw] = part
    return gx


def batch_norm_train_chwn(x: np.ndarray, gamma, beta, mean, var, eps, frozen, momentum):
    """Training-mode batch norm of a (c, h, w, n) array, given 1-D gamma,
    beta and stored mean and var, unchecked (graph.validate checks them).
    Returns y, the cache batch_norm_train_backward reads, and the new
    running mean and var: channels the bool mask frozen leaves out
    normalize with the batch's mean and two-pass biased variance and fold
    them in with the momentum; frozen channels use and keep the stored ones
    (fusion's exact-identity channels)."""
    dt = x.dtype
    c, h, w, n = x.shape
    cnt = dt.type(n * h * w)
    batch_mean = np.einsum("chwn->c", x) / cnt
    xhat = x - np.where(frozen, mean, batch_mean)[:, None, None, None]
    # biased two-pass variance; xhat still holds x - mean here, which on the
    # frozen channels is off the batch mean, but those use the stored var
    batch_var = np.einsum("chwn,chwn->c", xhat, xhat) / cnt
    inv = (1.0 / np.sqrt(np.where(frozen, var, batch_var) + dt.type(eps))).astype(dt)
    xhat *= inv[:, None, None, None]
    y = gamma.reshape(c, 1, 1, 1) * xhat
    y += beta.reshape(c, 1, 1, 1)
    m = dt.type(momentum)
    new_mean = np.where(frozen, mean, (1 - m) * mean + m * batch_mean).astype(dt)
    new_var = np.where(frozen, var, (1 - m) * var + m * batch_var).astype(dt)
    return y, {"xhat": xhat, "inv": inv, "frozen": frozen}, new_mean, new_var


def batch_norm_train_backward(gy: np.ndarray, gamma: np.ndarray, cache):
    """(input, gamma and beta gradients) of batch_norm_train_chwn, given the
    (c, h, w, n) output gradient gy, the 1-D gamma and the forward's cache:
    dx = gamma*inv/N * (N*gy - sum(gy) - xhat*sum(gy*xhat)), the closed form
    of the batch-statistics chain (Ioffe & Szegedy, arXiv 1502.03167), whose
    sums are the beta and gamma gradients; frozen channels take gamma*inv*gy
    and zero parameter gradients."""
    xhat, inv, frozen = cache["xhat"], cache["inv"], cache["frozen"]
    c, h, w, n = gy.shape
    dt = gy.dtype
    gbeta = np.einsum("chwn->c", gy)
    ggamma = np.einsum("chwn,chwn->c", gy, xhat)
    scale = gamma * inv
    per = scale / dt.type(n * h * w)
    shift = np.where(frozen, 0, per * gbeta).astype(dt)
    slope = np.where(frozen, 0, per * ggamma).astype(dt)
    gx = gy * scale[:, None, None, None]
    gx -= xhat * slope[:, None, None, None]
    gx -= shift[:, None, None, None]
    return gx, np.where(frozen, 0, ggamma).astype(dt), np.where(frozen, 0, gbeta).astype(dt)


def pool_out_hw(h: int, w: int, window, stride, pad) -> tuple[int, int]:
    """The (ho, wo) of a max_pool over an (h, w) map.

    The one geometry check of the pool, which graph.validate runs too:
    raises TensorError for a window, stride or pad that is not an integer,
    a window or stride below 1, a negative pad, a pad as wide as the
    window, which makes a window of padding alone (its max would be -inf),
    or an output below 1x1.
    """
    (r, s), (sh, sw), (ph, pw) = window, stride, pad
    if not all(isinstance(v, numbers.Integral) for v in (r, s, sh, sw, ph, pw)):
        raise TensorError(f"max_pool window/stride/pad must be integers; got "
                          f"{tuple(window)}, {tuple(stride)}, {tuple(pad)}")
    if min(r, s, sh, sw) < 1 or min(ph, pw) < 0:
        raise TensorError("max_pool window/stride must be >= 1 and pad >= 0")
    if ph >= r or pw >= s:
        raise TensorError(f"max_pool pad {tuple(pad)} must be below the window {tuple(window)}")
    ho = (h + 2 * ph - r) // sh + 1
    wo = (w + 2 * pw - s) // sw + 1
    if ho < 1 or wo < 1:
        raise TensorError(f"max_pool output collapses to {ho}x{wo}")
    return ho, wo


def max_pool_chwn(x: np.ndarray, window, stride, pad) -> np.ndarray:
    """Max over (r, s) windows of a (c, h, w, n) array padded with -inf, with
    the index convention of conv2d_chwn: output (oh, ow) reads padded rows
    stride[0]*oh + [0, r) and columns stride[1]*ow + [0, s)."""
    _, h, wd, _ = x.shape
    ho, wo = pool_out_hw(h, wd, window, stride, pad)
    (r, s), (sh, sw) = window, stride
    neg = x.dtype.type(-np.inf)
    xp = pad_hw(x, pad, neg)
    y = np.full((x.shape[0], ho, wo, x.shape[3]), neg, dtype=x.dtype)
    hspan = sh * (ho - 1) + 1
    wspan = sw * (wo - 1) + 1
    for i in range(r):
        rows = xp[:, i : i + hspan : sh]
        for j in range(s):
            np.maximum(y, rows[:, :, j : j + wspan : sw], out=y)
    return y


def max_pool_chwn_backward(gy: np.ndarray, x: np.ndarray, y: np.ndarray, window, stride,
                           pad) -> np.ndarray:
    """The input gradient of max_pool_chwn(x, window, stride, pad), whose
    output was y, given the output gradient gy: each output's gradient goes
    to the first tap, in row-major order, that holds the maximum, in x
    padded with -inf again, so no padding tap takes one."""
    (r, s), (sh, sw), (ph, pw) = window, stride, pad
    xp = pad_hw(x, (ph, pw), -np.inf)
    hspan, wspan = (y.shape[1] - 1) * sh + 1, (y.shape[2] - 1) * sw + 1
    gxp = np.zeros_like(xp)
    remaining = np.ones_like(y, dtype=bool)
    for u in range(r):
        for v in range(s):
            hit = (xp[:, u : u + hspan : sh, v : v + wspan : sw] == y) & remaining
            gxp[:, u : u + hspan : sh, v : v + wspan : sw] += gy * hit
            remaining &= ~hit
    return gxp[:, ph : xp.shape[1] - ph, pw : xp.shape[2] - pw]
