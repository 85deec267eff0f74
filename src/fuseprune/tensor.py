"""Dense 4-D tensors and deterministic kernels.

Weights are rank-4 arrays laid out as (k, c, r, s) in row-major order, and
a Tensor, the immutable array of finite values, holds them. Activations are
held batch innermost, as (c, h, w, n) arrays in row-major order with the
batch fastest: graph.execute transposes its (n, c, h, w) input Tensor into
that layout once, runs every node on it, and transposes the output back
once, and the trainer does the same. The native kernels (conv2d_chwn,
batch_norm_chwn, max_pool_chwn) work on that layout; conv2d_gemm,
batch_norm_inference and max_pool_raw are their (n, c, h, w) forms, one
transposing copy on each side of the same arithmetic. The kernels are pure
functions on numpy arrays, and their results depend only on their inputs.

Determinism contract. Materializing a pruned model must reproduce the
masked model bit for bit. That promise rests on the graph, not on any
summation order inside a kernel: graph.execute works out, from the weights
alone, which channels are exactly zero, and conv2d_chwn leaves them out of
its GEMMs on both sides. The masked model and its materialization then make
the same BLAS calls on the same compacted operands, so the only thing
assumed of the BLAS is that identical calls give identical bits at a fixed
thread count. The kernels meet it as follows:

* conv2d_chwn, the convolution graphs execute, runs im2col GEMMs over the
  live input channels and the live filters, one per band of output rows,
  each written into a (k', ho, wo, n) buffer of the live filters alone.
  Dead filters are written back as +0 at full width, so every other kernel
  sees the same shapes as before. The order of the c*r*s terms of a dot
  product is the BLAS's.
* conv2d_chwn is prepare_conv and its application in one. graph.compile
  keeps the prepared conv, the live weight matrix made once per graph, and
  every execute applies it, so a compiled graph makes the same BLAS calls
  on the same operands as conv2d_chwn on that input; prepare_batch_norm
  splits bn's omega and lam from its affine alike.
* Dead taps. conv2d_chwn also leaves out the kernel taps that read only
  padding: live_taps works out their hull from the geometry alone, so a
  masked model and its materialization, which share every geometry, drop
  the same taps. The dropped terms are w * (+0). A weight Tensor keeps its
  tap-restricted copy per window, so no call gathers it twice.
* graph.execute runs every fc as a 1x1-conv GEMM (conv2d_chwn) over the
  (c*h*w, 1, 1, n) view of its input, compacted by the input channels'
  zero marks repeated over h*w, so a masked fc multiplies the operands its
  materialization does.
* The trainer runs the same per-kind forward as graph.execute, without
  zero masks, for every kind but bn. Its conv backward, which also serves
  the fc, pads and windows its input as conv2d_chwn does (pad_hw,
  batch_innermost_windows) for the weight gradient, and runs conv2d_chwn
  itself, without masks, for the input gradient.

float32 is the working precision; float64 is supported throughout for
high-precision runs. Mixing dtypes within one kernel call is an error.
"""

from __future__ import annotations

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

    __slots__ = ("data", "_cache")

    def __init__(self, data, dtype=None):
        self._adopt(np.array(data, dtype=dtype, order="C"))

    @classmethod
    def _wrap(cls, arr: np.ndarray) -> "Tensor":
        """A Tensor over arr itself, without a copy.

        Only for a fresh array that nothing else holds or writes: a kernel's
        output, or weights the package has just computed.
        """
        t = cls.__new__(cls)
        t._adopt(arr)
        return t

    def _adopt(self, arr: np.ndarray) -> None:
        if arr.dtype not in SUPPORTED_DTYPES:
            raise TensorError(f"unsupported dtype {arr.dtype}; expected float32 or float64")
        if arr.ndim != 4:
            raise TensorError(f"tensors are rank-4 (n, c, h, w); got rank {arr.ndim}")
        if any(d < 1 for d in arr.shape):
            raise TensorError(f"all dimensions must be >= 1; got {arr.shape}")
        if not np.isfinite(arr).all():
            raise TensorError("tensor contains NaN or Inf")
        arr = np.ascontiguousarray(arr)
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)
        object.__setattr__(self, "_cache", None)

    def __setattr__(self, name, value):
        raise AttributeError("Tensor is immutable")

    def _cached(self, key, make):
        """make(), computed on first use and kept under key: the data never
        changes. The dict is made on first use, so tensors that are never
        asked, such as activations, carry none."""
        if self._cache is None:
            object.__setattr__(self, "_cache", {})
        if key not in self._cache:
            self._cache[key] = make()
        return self._cache[key]

    def zero_rows(self, skip=None) -> np.ndarray | None:
        """Read-only bool mask over axis 0 of the slices that are all exactly
        zero, or None when there are none.

        skip, an optional bool mask over axis 1, leaves the entries it marks
        out of the test: for a conv weight and the input channels known to
        be zero, the result marks the filters that read nothing else. Each
        result is kept per skip mask. With a skip mask the test reads the
        (axis 0, axis 1) table of slices that hold a nonzero, made once per
        Tensor: each further mask then reads k*c flags, not the weights, and
        the first costs about half of copying the unskipped weights out.
        """
        def nonzero():
            k, c = self.shape[:2]
            return (self.data.reshape(k, c, -1) != 0).any(axis=2)

        def make():
            if skip is None:
                zero = ~self.data.reshape(self.shape[0], -1).any(axis=1)
            else:
                zero = ~self._cached("nonzero", nonzero)[:, ~skip].any(axis=1)
            zero.setflags(write=False)
            return zero if zero.any() else None

        return self._cached(("zero_rows", None if skip is None else skip.tobytes()), make)

    def taps(self, rows: slice, cols: slice) -> np.ndarray:
        """A read-only C-ordered copy of this conv weight's [:, :, rows, cols]
        (slices with a start and a stop), kept per window.

        conv2d_chwn multiplies only the taps that read a real input; caching
        the slice spares it a gather that reads the whole weight on every
        call.
        """
        def make():
            sub = _gather_taps(self.data, rows, cols)
            sub.setflags(write=False)
            return sub

        return self._cached(("taps", rows.start, rows.stop, cols.start, cols.stop), make)

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


@dataclass
class BnParams:
    """Per-channel batch normalization parameters for inference.

    gamma, beta, mean and var are 1-D arrays of equal length; eps is a
    positive scalar. The affine form used everywhere is

        y = omega * x + lam,  omega = gamma / sqrt(var + eps),
                              lam   = beta - omega * mean.
    """

    gamma: np.ndarray
    beta: np.ndarray
    mean: np.ndarray
    var: np.ndarray
    eps: float = 1e-5

    def __post_init__(self):
        self.gamma = np.asarray(self.gamma).reshape(-1)
        self.beta = np.asarray(self.beta).reshape(-1)
        self.mean = np.asarray(self.mean).reshape(-1)
        self.var = np.asarray(self.var).reshape(-1)
        n = self.gamma.shape[0]
        if any(a.shape[0] != n for a in (self.beta, self.mean, self.var)):
            raise TensorError("BnParams arrays must have equal length")
        if n < 1:
            raise TensorError("BnParams must cover at least one channel")
        if np.any(self.var < 0):
            raise TensorError("BnParams.var must be non-negative")
        if not self.eps > 0:
            raise TensorError("BnParams.eps must be > 0")

    @property
    def channels(self) -> int:
        return self.gamma.shape[0]

    def omega(self, dtype) -> np.ndarray:
        dt = np.dtype(dtype)
        g = self.gamma.astype(dt, copy=False)
        v = self.var.astype(dt, copy=False)
        return g / np.sqrt(v + dt.type(self.eps))

    def lam(self, dtype) -> np.ndarray:
        dt = np.dtype(dtype)
        b = self.beta.astype(dt, copy=False)
        m = self.mean.astype(dt, copy=False)
        return b - self.omega(dt) * m


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


def _chwn(x: np.ndarray) -> np.ndarray:
    """The (c, h, w, n) view of an (n, c, h, w) array."""
    return x.transpose(1, 2, 3, 0)


def _nchw(y: np.ndarray) -> np.ndarray:
    """A C-ordered (n, c, h, w) copy of a (c, h, w, n) array."""
    return np.ascontiguousarray(y.transpose(3, 0, 1, 2))


def prepare_conv(w, bias, stride, pad, chw, dtype,
                 zero_in=None, zero_out=None) -> "PreparedConv":
    """The part of conv2d_chwn that depends on the weights and the input's
    (c, h, w) and dtype alone, for any batch size: the checks, the output
    geometry, the live taps and the live weights as one (k', c'*r'*s')
    matrix. Applying the result to a (c, h, w, n) input runs the GEMMs.

    Without masks the matrix is a view of the (tap-restricted) weights; with
    either mask it is a copy of the live filters over the live channels,
    made here once rather than on every application.
    """
    weight = w if isinstance(w, Tensor) else None
    if weight is not None:
        w = weight.data
    dt = np.dtype(dtype)
    k, _, r, s = w.shape
    ho, wo = _conv_geometry(chw, dt, w, stride, pad)
    b = _filter_bias(bias, k, dt)
    tap_rows = live_taps(chw[1], r, stride[0], pad[0], ho)
    tap_cols = live_taps(chw[2], s, stride[1], pad[1], wo)
    if (tap_rows.stop - tap_rows.start, tap_cols.stop - tap_cols.start) != (r, s):
        w = (weight.taps(tap_rows, tap_cols) if weight is not None
             else _gather_taps(w, tap_rows, tap_cols))
    # take, unlike fancy indexing on axis 1, copies straight into C order
    live_out = live_in = None
    if zero_out is not None:
        live_out = np.flatnonzero(~zero_out)
        w = w.take(live_out, axis=0)
    if zero_in is not None:
        live_in = np.flatnonzero(~zero_in)
        w = w.take(live_in, axis=1)
    return PreparedConv(w2d=w.reshape(w.shape[0], math.prod(w.shape[1:])), k=k, ho=ho, wo=wo,
                        r=r, s=s, stride=tuple(stride), pad=tuple(pad), tap_rows=tap_rows,
                        tap_cols=tap_cols, live_in=live_in, live_out=live_out,
                        bias=None if b is None else b.reshape(k, 1, 1, 1))


class PreparedConv(NamedTuple):
    """A conv made ready by prepare_conv: calling it on a (c, h, w, n) input
    of the prepared (c, h, w) and dtype returns the new (k, ho, wo, n)
    output. It holds nothing that one call leaves for the next. (A named
    tuple: immutable, and about a fifth of a frozen dataclass's cost to
    build, which the trainer pays on every conv2d_chwn call.)"""

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

    def __call__(self, x: np.ndarray) -> np.ndarray:
        w2d, k, ho, wo, r, s, stride, pad, tap_rows, tap_cols, live_in, live_out, bias = self
        if live_in is not None:
            x = x.take(live_in, axis=0)
        n = x.shape[3]
        rows, depth = w2d.shape
        dt = w2d.dtype
        windows = batch_innermost_windows(pad_hw(x, pad), r, s, stride)[:, tap_rows, tap_cols]
        y = np.empty((rows, ho, wo, n), dtype=dt)
        y2d = y.reshape(rows, ho * wo * n)
        band = max(1, min(ho, _BLOCK_BYTES // max(1, depth * wo * n * dt.itemsize)))
        for oh in range(0, ho, band):
            m = min(band, ho - oh)
            # a copy even where a reshape could be a strided view (a single
            # tap), so the BLAS sees the layout a kernel of those taps alone
            # gives; freed before the next band's is made, so that one reuses
            # its memory instead of faulting in fresh pages
            np.matmul(w2d, np.ascontiguousarray(
                windows[:, :, :, oh : oh + m].reshape(depth, m * wo * n)),
                out=y2d[:, oh * wo * n : (oh + m) * wo * n])
        if live_out is not None:
            full = np.zeros((k, ho, wo, n), dtype=dt)
            full[live_out] = y
            y = full
        if bias is not None:
            y += bias
        return y


def conv2d_chwn(x: np.ndarray, w, bias, stride, pad,
                zero_in=None, zero_out=None) -> np.ndarray:
    """2-D convolution (cross-correlation) with zero padding, as im2col GEMMs,
    from a (c, h, w, n) input to a new (k, ho, wo, n) output: prepare_conv
    for x's (c, h, w) and dtype, applied to x. graph.compile keeps the
    prepared conv and applies it on every execute.

    y(k, ho, wo, n) = sum over (t, i, j) of
        x(t, stride[0]*ho + i - pad[0], stride[1]*wo + j - pad[1], n) * w(k, t, i, j)
    with out-of-range x reads taken as zero, plus bias(k) when a length-k
    bias is given. It raises TensorError for a weight whose input channels
    differ from x's, an output below 1x1, a bias of the wrong length, or
    operands of mixed dtypes.

    The (k', c'*r'*s') matrix of the live filters over the live input
    channels and live taps multiplies the (c'*r'*s', ho*wo*n) matrix of
    those channels' input windows at those taps; the bias, when present, is
    added once at the end. The window matrix is built and multiplied a band
    of output rows at a time, as many rows as fit in _BLOCK_BYTES (one band
    for most layers at batch 1); the band depends only on c', r', s', wo, n
    and the dtype. Each band's product is written by the GEMM straight into
    its rows of the (k', ho, wo, n) output, with no transposing copy.

    The live taps are the hull live_taps works out from the geometry alone
    (h, w, r, s, stride, pad, ho, wo): a 3x3 pad-1 conv on a 1x1 map
    multiplies its center tap only. w is a (k, c, r, s) array or a weight
    Tensor. When the hull is a strict part of the kernel, a Tensor gives
    the weights of those taps from its cache (Tensor.taps) and an array is
    gathered anew on every prepare.

    zero_in and zero_out are optional length-c and length-k bool masks.
    zero_in marks input channels the caller knows to be all exactly zero:
    they are left out of the GEMMs (a leading-axis take of x), which changes
    the result only by rounding. zero_out marks filters whose bias is zero
    and whose weights are zero on every live input channel: they are left
    out of the GEMMs and their outputs are written as +0. Two calls whose
    live channels, filters and taps hold the same values therefore make the
    same GEMMs, whatever else sits beside them, and that is what keeps
    materialization bit-identical (see the module docstring). With either
    mask the live weights are copied out of the (tap-restricted) weights by
    each prepare.

    The input is padded on its spatial axes (pad_hw) and read as is at pad
    0, so the window matrix's columns run (ho, wo, n) and at stride 1 its
    rows are copied as runs of wo*n contiguous elements.

    The order of the c'*r'*s' terms of each dot product is the BLAS's, so
    results agree with a sequential sum to rounding, not bit for bit.
    """
    return prepare_conv(w, bias, stride, pad, x.shape[:3], x.dtype, zero_in, zero_out)(x)


def conv2d_gemm(x: np.ndarray, w, bias, stride, pad,
                zero_in=None, zero_out=None) -> np.ndarray:
    """conv2d_chwn on an (n, c, h, w) input, returning a new (n, k, ho, wo)
    array: the same GEMMs, with one transposing copy on each side."""
    return _nchw(conv2d_chwn(_chwn(x), w, bias, stride, pad, zero_in, zero_out))


def prepare_batch_norm(p: BnParams, channels: int, dtype):
    """batch_norm_chwn's omega and lam for a (channels, h, w, n) input of
    dtype, computed once: returns the function of x that applies them."""
    if p.channels != channels:
        raise TensorError(f"bn covers {p.channels} channels, tensor has {channels}")
    omega = p.omega(dtype).reshape(-1, 1, 1, 1)
    lam = p.lam(dtype).reshape(-1, 1, 1, 1)
    return lambda x: x * omega + lam


def batch_norm_chwn(x: np.ndarray, p: BnParams) -> np.ndarray:
    """Per-channel affine y = omega * x + lam in x's dtype, on a (c, h, w, n)
    array."""
    return prepare_batch_norm(p, x.shape[0], x.dtype)(x)


def batch_norm_inference(x: np.ndarray, p: BnParams) -> np.ndarray:
    """batch_norm_chwn on an (n, c, h, w) array."""
    return _nchw(batch_norm_chwn(_chwn(x), p))


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


def max_pool_raw(x: np.ndarray, window, stride, pad) -> np.ndarray:
    """max_pool_chwn on an (n, c, h, w) array."""
    return _nchw(max_pool_chwn(_chwn(x), window, stride, pad))
