"""Computation-graph IR: typed nodes, validation, execution, file format.

A Graph is a DAG of named nodes over the kinds
{input, output, conv, bn, relu, add, concat, maxpool, gavgpool, fc}.
Exactly one input and one output node exist. Conv nodes carry a ConvSpec
in attrs["spec"] plus "weight" (and optional "bias") parameter tensors;
bn nodes carry attrs["eps"], a per-channel attrs["frozen"] tuple of 0/1
flags, and the four per-channel parameter tensors stored as (1, c, 1, 1).

A kind is defined by its Op record in OPS, which validate, compile, save,
load, analysis, materialize and the trainer's forward and backward read. A
new kind supplies its arity, shape rule, prepare, channel role, cost
category and backward, and where they apply its training forward,
zero-channel rule, FLOP count, parameter names and attrs dump and load.
Each forward and backward takes and returns numpy arrays, and each attrs
load checks the JSON types it reads.

Execution is a pure function of the graph and the input tensor: repeated
calls give bit-identical results, and any valid topological order computes
the same values. The batch dimension of the input is free; the declared
input_shape fixes (c, h, w) and a nominal batch size used for validation.
The nodes pass plain arrays held batch innermost, (c, h, w, n): execute
transposes x once into that layout and the output once back to
(n, c, h, w), and wraps only the output in a Tensor, which checks it for
NaN and Inf.

compile(g) does once what depends on the graph alone, as deployment
frameworks prepare a trained model once and then run it: it validates g,
sorts it, derives the zero marks and prepares every node (bn's omega and
lam, each conv's and fc's live weight matrix, bias and geometry). The
resulting Plan is immutable and holds no per-call buffer; Plan.run does
only what depends on x. execute keeps the plan on the graph from its first
execute, and compiles again whenever the graph's snapshot, its ids,
input_shape and each node's kind, inputs, attrs and params, differs from
the plan's. Every edit the package makes replaces a value (a Tensor, an
attrs value, an inputs list), so it shows in the snapshot; an attrs value
must be replaced, never mutated in place.

compile also derives, node by node, the output channels that are exactly
zero for every input, from the weights alone (Op.zeros), and
each conv leaves out of its GEMMs those input channels and its filters
that are zero on all the others. An fc runs as a 1x1 conv over its
flattened input, whose marks are its input channels' marks repeated over
h*w. This is what makes materialization bit-identical: a soft-pruned
model and the model with those channels deleted run the same GEMMs on the
same operands, so they agree as long as the BLAS gives identical calls
identical bits at a fixed thread count.

Model files (.fpm) are a single container: the magic bytes "FPM1", a
little-endian u32 manifest length, a UTF-8 JSON manifest (nodes, kinds,
attributes, tags, and a tensor table of name/shape/dtype/offset/length),
then one raw blob of little-endian IEEE-754 values concatenated in
manifest order. The manifest carries a format version and a SHA-256
checksum of the blob. save writes a new file beside the target and renames
it into place, so a failed save leaves any earlier file whole. It encodes
the manifest once, with 64 zeros for the digest, writes the header, the
manifest and then each tensor straight from its own buffer, and last
writes the hex digest over the zeros. load requires JSON integers for the
dims, offsets, lengths and input_shape, a string for each node's kind,
lists of strings for its inputs and tags, an object of tensor names for
its params, and tensors that tile the blob in table order, as save writes
them. It checks the blob's length against the file's size and the whole
tensor table before it reads a byte of the blob, then reads each tensor
into a fresh array of its own, and wraps them in Tensors only once the
blob's digest matches. Both hash the blob while they write or read it:
_Hasher hands slices of at least _SLICE (4 MiB) of whole tensors to one
thread of its own, which the call joins before it returns or raises; a
blob under one slice is hashed in the caller's thread and starts none.
"""

from __future__ import annotations

import contextlib
import hashlib
import heapq
import json
import math
import os
import queue
import secrets
import threading
import time
from collections.abc import Callable
from dataclasses import asdict, dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .tensor import (
    DTYPE_FROM_NAME,
    DTYPE_NAMES,
    ConvSpec,
    Tensor,
    TensorError,
    batch_norm_train_backward,
    batch_norm_train_chwn,
    conv2d_chwn_backward,
    live_taps,
    max_pool_chwn,
    max_pool_chwn_backward,
    pool_out_hw,
    prepare_conv,
)

FORMAT_MAGIC = b"FPM1"
FORMAT_VERSION = 1


class GraphError(Exception):
    """Base class for graph construction, validation and format errors."""


class CycleDetected(GraphError):
    pass


class ShapeMismatch(GraphError):
    pass


class DanglingInput(GraphError):
    pass


class UnreachableNode(GraphError):
    pass


class ModelFormatError(GraphError):
    """Malformed model file: bad manifest, blob, checksum or version."""


@dataclass
class Node:
    id: str
    kind: str
    inputs: list[str] = field(default_factory=list)
    attrs: dict = field(default_factory=dict)
    params: dict[str, Tensor] = field(default_factory=dict)
    tags: list[str] = field(default_factory=list)

    def copy(self) -> "Node":
        # tensors are immutable and shared; containers are copied one level deep
        return Node(
            id=self.id,
            kind=self.kind,
            inputs=list(self.inputs),
            attrs=dict(self.attrs),
            params=dict(self.params),
            tags=list(self.tags),
        )


@dataclass
class Graph:
    nodes: dict[str, Node]
    input_id: str
    output_id: str
    input_shape: tuple[int, int, int, int]
    # the Plan execute keeps from the graph's first execute, which checks
    # itself against the graph and is compiled anew after an edit
    _plan: "Plan | None" = field(default=None, init=False, compare=False, repr=False)

    def node(self, node_id: str) -> Node:
        try:
            return self.nodes[node_id]
        except KeyError:
            raise GraphError(f"no node named {node_id!r}") from None

    def consumers(self) -> dict[str, list[str]]:
        out: dict[str, list[str]] = {nid: [] for nid in self.nodes}
        for node in self.nodes.values():
            for src in node.inputs:
                if src in out:
                    out[src].append(node.id)
        return out

    def copy(self) -> "Graph":
        return Graph(
            nodes={nid: n.copy() for nid, n in self.nodes.items()},
            input_id=self.input_id,
            output_id=self.output_id,
            input_shape=tuple(self.input_shape),
        )

    def topo_order(self) -> list[str]:
        return _topo_order(self)


def _topo_order(g: Graph) -> list[str]:
    """Deterministic Kahn topological sort (insertion order breaks ties)."""
    indeg = {nid: 0 for nid in g.nodes}
    for node in g.nodes.values():
        for src in node.inputs:
            if src not in g.nodes:
                raise DanglingInput(f"node {node.id!r} reads undefined node {src!r}")
            indeg[node.id] += 1
    consumers = g.consumers()
    ids = list(g.nodes)
    pos = {nid: i for i, nid in enumerate(ids)}
    ready = [pos[nid] for nid in ids if indeg[nid] == 0]
    heapq.heapify(ready)
    order: list[str] = []
    while ready:
        nid = ids[heapq.heappop(ready)]
        order.append(nid)
        for cons in consumers[nid]:
            indeg[cons] -= 1
            if indeg[cons] == 0:
                heapq.heappush(ready, pos[cons])
    if len(order) != len(g.nodes):
        done = set(order)
        rest = [nid for nid in g.nodes if nid not in done]
        raise CycleDetected(f"cycle through nodes {rest}")
    return order


def bn_affine(node: Node, dtype) -> tuple[np.ndarray, np.ndarray]:
    """A bn node's inference affine y = omega * x + lam as two 1-D arrays
    in dtype: omega = gamma / sqrt(var + eps) and lam = beta - omega * mean,
    each parameter cast to dtype first. validate checks the parameters."""
    dt = np.dtype(dtype)
    gamma, beta, mean, var = (node.params[p].data.reshape(-1).astype(dt, copy=False)
                              for p in ("gamma", "beta", "mean", "var"))
    omega = gamma / np.sqrt(var + dt.type(float(node.attrs["eps"])))
    return omega, beta - omega * mean


def _conv_bias(node: Node):
    """A conv or fc node's bias as a 1-D array, or None when it has none."""
    bias = node.params.get("bias")
    return None if bias is None else bias.data.reshape(-1)


def set_weights(node: Node, weight: np.ndarray, bias: np.ndarray | None,
                finite: bool = False) -> None:
    """Give a conv or fc node new weight and bias arrays (bias None for
    none), and a conv the spec they imply: k and c from the weight's shape,
    has_bias from the bias. The arrays are wrapped without a copy, so they
    must be fresh or read-only; a 1-D bias is stored as (1, k, 1, 1). The
    node's params and attrs dicts are replaced, not mutated. finite says
    both arrays are already known finite, such as copies, takes or
    concatenations of data Tensors hold, so they are not scanned again."""
    params = {name: t for name, t in node.params.items() if name != "bias"}
    params["weight"] = Tensor._wrap(weight, finite)
    if bias is not None:
        params["bias"] = Tensor._wrap(bias.reshape(1, -1, 1, 1), finite)
    node.params = params
    if node.kind == "conv":
        node.attrs = dict(node.attrs, spec=replace(
            node.attrs["spec"], k=weight.shape[0], c=weight.shape[1], has_bias=bias is not None))


def _params_dtype(g: Graph, order: list[str]) -> np.dtype | None:
    """The dtype of g's first parameter in the topological order given, or
    None for a graph without parameters."""
    for nid in order:
        for t in g.nodes[nid].params.values():
            return t.dtype
    return None


def graph_dtype(g: Graph, order: list[str] | None = None) -> np.dtype:
    """The dtype of g's first parameter in topological order, which its
    inputs must have; float32 for a graph without parameters. order is g's
    topological order, sorted here when not given."""
    dt = _params_dtype(g, g.topo_order() if order is None else order)
    return np.dtype(np.float32) if dt is None else dt


# --- the op table ------------------------------------------------------------

def _first(node, items, *_):
    """The node's first input unchanged: its shape, zero marks or value."""
    return items[0]


def _marks(zero):
    """A zero mask, or None when it marks no channel."""
    return zero if zero is not None and zero.any() else None


@dataclass(frozen=True)
class Op:
    """Everything the package knows of one node kind.

    arity is the number of inputs, None for two or more. shape(node, input
    shapes) and flops(node, input shapes, output shape) work on (n, c, h, w)
    tuples. prepare(node, the inputs' (c, h, w), the first input's zero
    marks, the output's, dtype) does once what the node's forward needs of
    its weights and geometry, and returns the function that runs it: it
    takes the list of input arrays, batch-innermost (c, h, w, n), and
    returns the output as a new (c, h, w, n) array. compile prepares every
    node with its marks; run prepares and applies in one, without marks,
    which the training forward defaults to. The input kind's forward passes
    its one argument through; the plan and the trainer feed it the batch.

    train(node, args, momentum), the training forward, returns the output,
    the cache its backward reads and a dict of the parameter arrays it
    replaces: run's output, None and none, but for bn its batch-statistics
    output and new running mean and var. backward(node, gy, args, y, cache,
    input_grad=True) returns the gradients of the inputs, in order, and a
    dict of those of the parameters, shaped like them, given the gradient gy
    of the output y. Every kind but the input has one. input_grad false says
    that no input gradient is wanted: conv and fc then compute none and
    return an empty list, with parameter gradients bit for bit those of a
    call with it true; the other kinds ignore it.

    zeros(node, input marks, dtype) gives the output channels that are
    exactly zero for every input, as a bool mask, or None when none are
    known, from the weights alone. A conv's filters are judged on its live
    input channels only, because materialize deletes the others: a filter
    whose weights sit only on removed channels is all zero in the
    materialized model, so the masked model must mark it too, or the two
    would run GEMMs of different shapes.

    role says what a channel that materialize deletes does on reaching the
    kind: it "pass"es, is "absorb"ed (the kind drops the matching inputs)
    or is "pin"ned (the channel count is fixed). category is the analysis
    cost bucket. params names the parameters in file order, and dump/load turn
    attrs into the .fpm manifest's JSON and back.
    """

    arity: int | None
    shape: Callable
    prepare: Callable
    role: str
    category: str
    zeros: Callable = lambda *_: None
    flops: Callable = lambda *_: 0
    params: tuple[str, ...] = ()
    dump: Callable = lambda attrs: {}
    load: Callable = lambda raw: {}
    train: Callable = lambda node, args, momentum: (OPS[node.kind].run(node, args), None, {})
    backward: Callable | None = None

    def run(self, node: Node, args) -> np.ndarray:
        """The node's output for the (c, h, w, n) arrays args: prepare for
        their (c, h, w) and dtype, without marks, applied to them."""
        return self.prepare(node, [a.shape[:3] for a in args], None, None, args[0].dtype)(args)


def _fixed(fn):
    """The prepare of a kind whose forward fn(args) needs nothing prepared."""
    return lambda *_: fn


_passed = _fixed(lambda args: args[0])


def _conv_shape(node: Node, ins) -> tuple[int, int, int, int]:
    spec: ConvSpec = node.attrs["spec"]
    n, c, h, w = ins[0]
    if c != spec.c:
        raise ShapeMismatch(f"node {node.id!r}: conv expects {spec.c} channels, got {c}")
    weight = node.params.get("weight")
    if weight is None or weight.shape != spec.weight_shape:
        got = None if weight is None else weight.shape
        raise ShapeMismatch(f"node {node.id!r}: weight shape {got} != {spec.weight_shape}")
    _check_bias(node, spec.k, spec.has_bias)
    ho, wo = spec.out_hw(h, w)
    return (n, spec.k, ho, wo)


def _check_bias(node: Node, k: int, has_bias: bool) -> None:
    """ShapeMismatch unless the node's bias is (1, k, 1, 1) where has_bias
    says it has one and absent where it says it has none."""
    bias = node.params.get("bias")
    if (bias is not None) != has_bias or has_bias and bias.shape != (1, k, 1, 1):
        raise ShapeMismatch(f"node {node.id!r}: bias must be " + (
            f"(1, {k}, 1, 1)" if has_bias else "absent, as its spec has_bias is False"))


def _conv_flops(node: Node, ins, out) -> int:
    """Per output value, 2 per multiply-add over the c channels and the
    live taps conv2d_chwn runs (live_taps: the padding-only taps are left
    out), and 1 for the bias."""
    spec: ConvSpec = node.attrs["spec"]
    taps = (live_taps(*geometry) for geometry in zip(
        ins[0][2:], (spec.r, spec.s), spec.stride, spec.pad, out[2:]))
    return math.prod(out) * (2 * spec.c * math.prod(t.stop - t.start for t in taps)
                             + spec.has_bias)


def _conv_zeros(node: Node, zero_in, dt):
    w = node.params["weight"].data
    nonzero = w != 0
    if zero_in[0] is not None:
        nonzero[:, zero_in[0]] = False
    zero = ~nonzero.reshape(w.shape[0], -1).any(axis=1)
    if node.attrs["spec"].has_bias:
        zero &= node.params["bias"].data.reshape(-1) == 0
    return _marks(zero)


def _bn_shape(node: Node, ins) -> tuple[int, int, int, int]:
    n, c, h, w = ins[0]
    for name in ("gamma", "beta", "mean", "var"):
        p = node.params.get(name)
        if p is None or p.shape != (1, c, 1, 1):
            raise ShapeMismatch(f"node {node.id!r}: bn param {name} must be (1, {c}, 1, 1)")
    frozen = node.attrs.get("frozen", ())
    if frozen and len(frozen) != c:
        raise ShapeMismatch(f"node {node.id!r}: frozen flags cover {len(frozen)} of {c} channels")
    if not float(node.attrs.get("eps", 0.0)) > 0:
        raise ShapeMismatch(f"node {node.id!r}: bn eps must be > 0")
    if node.params["var"].data.min() < 0:
        raise ShapeMismatch(f"node {node.id!r}: bn var must be non-negative")
    return ins[0]


def _bn_zeros(node: Node, zero_in, dt):
    if zero_in[0] is None:
        return None
    return _marks(zero_in[0] & (bn_affine(node, dt)[1] == 0))


def _add_shape(node: Node, ins) -> tuple[int, int, int, int]:
    if ins[0] != ins[1]:
        raise ShapeMismatch(f"node {node.id!r}: add operands {ins[0]} vs {ins[1]}")
    return ins[0]


def _add_zeros(node: Node, zero_in, dt):
    if zero_in[0] is None or zero_in[1] is None:
        return None
    return _marks(zero_in[0] & zero_in[1])


def _concat_shape(node: Node, ins) -> tuple[int, int, int, int]:
    n, _, h, w = ins[0]
    for shp in ins[1:]:
        if (shp[0], shp[2], shp[3]) != (n, h, w):
            raise ShapeMismatch(f"node {node.id!r}: concat operands {ins}")
    return (n, sum(shp[1] for shp in ins), h, w)


_POOL_ATTRS = ("window", "stride", "pad")


def _maxpool_shape(node: Node, ins) -> tuple[int, int, int, int]:
    n, c, h, w = ins[0]
    # max_pool's own check; validate reports its TensorError as ShapeMismatch
    return (n, c, *pool_out_hw(h, w, *(node.attrs[a] for a in _POOL_ATTRS)))


def _fc_shape(node: Node, ins) -> tuple[int, int, int, int]:
    n, c, h, w = ins[0]
    weight = node.params.get("weight")
    fin = c * h * w
    if weight is None or weight.shape[1] != fin or weight.shape[2:] != (1, 1):
        got = None if weight is None else weight.shape
        raise ShapeMismatch(f"node {node.id!r}: fc weight {got} incompatible with input {ins[0]}")
    _check_bias(node, weight.shape[0], "bias" in node.params)
    return (n, weight.shape[0], 1, 1)


def _conv_prepare(node: Node, ins, zero_in, zero_out, dt):
    spec: ConvSpec = node.attrs["spec"]
    conv = prepare_conv(node.params["weight"].data, _conv_bias(node), spec.stride, spec.pad,
                        ins[0], dt, zero_in, zero_out)
    return lambda args: conv(args[0])


def _conv_grads(node: Node, gy, x, view, stride, pad, input_grad):
    """The backward of a conv or fc node whose (c, h, w, n) input x runs as
    the unmasked conv of view at that stride and pad: the input's gradient,
    in a list of one, and the parameters'. Without input_grad the list is
    empty and the input gradient is never computed."""
    gx, gw = conv2d_chwn_backward(gy, view, node.params["weight"].data, stride, pad, input_grad)
    grads = {"weight": gw}
    gxs = [gx.reshape(x.shape)] if input_grad else []
    if _conv_bias(node) is not None:
        grads["bias"] = gy.sum(axis=(1, 2, 3)).reshape(node.params["bias"].shape)
    return gxs, grads


def _conv_backward(node: Node, gy, args, y, cache, input_grad=True):
    spec: ConvSpec = node.attrs["spec"]
    return _conv_grads(node, gy, args[0], args[0], spec.stride, spec.pad, input_grad)


def _fc_input(x):
    """The (c*h*w, 1, 1, n) view of an fc's (c, h, w, n) input: an fc is the
    GEMM w2d @ x.reshape(c*h*w, n), which runs, forward and backward, as a
    1x1 conv (stride 1, pad 0) over this view."""
    return x.reshape(-1, 1, 1, x.shape[-1])


def _fc_prepare(node: Node, ins, zero_in, zero_out, dt):
    # a channel's marks cover its h*w inputs of the view, so a masked fc
    # multiplies what its materialization does
    c, h, w = ins[0]
    if zero_in is not None:
        zero_in = np.repeat(zero_in, h * w)
    conv = prepare_conv(node.params["weight"].data, _conv_bias(node), (1, 1), (0, 0),
                        (c * h * w, 1, 1), dt, zero_in)
    return lambda args: conv(_fc_input(args[0]))


def _bn_prepare(node: Node, ins, zero_in, zero_out, dt):
    omega, lam = (a.reshape(-1, 1, 1, 1) for a in bn_affine(node, dt))
    return lambda args: args[0] * omega + lam


def _bn_train(node: Node, args, momentum):
    c = args[0].shape[0]
    frozen = np.asarray(node.attrs.get("frozen") or [0] * c, dtype=bool)
    y, cache, mean, var = batch_norm_train_chwn(
        args[0], *(node.params[p].data.reshape(-1) for p in ("gamma", "beta", "mean", "var")),
        node.attrs["eps"], frozen, momentum)
    return y, cache, {"mean": mean.reshape(1, c, 1, 1), "var": var.reshape(1, c, 1, 1)}


def _bn_backward(node: Node, gy, args, y, cache, *_):
    gx, ggamma, gbeta = batch_norm_train_backward(gy, node.params["gamma"].data.reshape(-1),
                                                  cache)
    c = gy.shape[0]
    return [gx], {"gamma": ggamma.reshape(1, c, 1, 1), "beta": gbeta.reshape(1, c, 1, 1)}


def _gavgpool_backward(node: Node, gy, args, y, *_):
    scale = gy.dtype.type(1.0 / math.prod(args[0].shape[1:3]))
    return [np.broadcast_to(gy * scale, args[0].shape).copy()], {}


def _maxpool_prepare(node: Node, ins, *_):
    window, stride, pad = (node.attrs[a] for a in _POOL_ATTRS)
    return lambda args: max_pool_chwn(args[0], window, stride, pad)


def _checked(key, value, ok, what, where="attr"):
    """value, the JSON value of key, when ok(value) holds; a TypeError
    naming where it sits otherwise, which load reports as a malformed
    manifest."""
    if not ok(value):
        raise TypeError(f"{where} {key!r} must be {what}, got {value!r}")
    return value


def _is_int(v) -> bool:
    return type(v) is int  # a JSON integer: bool is a subclass of int


def _is_ints(v) -> bool:
    return isinstance(v, list) and all(_is_int(i) for i in v)


def _is_strs(v) -> bool:
    return isinstance(v, list) and all(isinstance(i, str) for i in v)


def _pair(raw, key) -> tuple[int, int]:
    return tuple(_checked(key, raw[key], lambda v: _is_ints(v) and len(v) == 2,
                          "a pair of integers"))


def _conv_load(raw) -> dict:
    k, c, r, s = (_checked(d, raw[d], _is_int, "an integer") for d in ("k", "c", "r", "s"))
    has_bias = _checked("has_bias", raw["has_bias"], lambda v: isinstance(v, bool),
                        "true or false")
    return {"spec": ConvSpec(k, c, r, s, _pair(raw, "stride"), _pair(raw, "pad"), has_bias)}


def _bn_load(raw) -> dict:
    eps = _checked("eps", raw["eps"], lambda v: _is_int(v) or isinstance(v, float), "a number")
    frozen = _checked("frozen", raw.get("frozen", []), lambda v: isinstance(v, list) and all(
        _is_int(f) and f in (0, 1) for f in v), "a list of 0/1 flags")
    return {"eps": float(eps), "frozen": tuple(frozen)}


OPS: dict[str, Op] = {
    "input": Op(arity=0, shape=_first, prepare=_passed, role="pin", category="other"),
    "output": Op(arity=1, shape=_first, prepare=_passed, role="pin", category="other",
                 zeros=_first, backward=lambda node, gy, *_: ([gy], {})),
    "conv": Op(arity=1, shape=_conv_shape, prepare=_conv_prepare, role="absorb",
               category="COP", zeros=_conv_zeros, flops=_conv_flops,
               params=("weight", "bias"), dump=lambda attrs: asdict(attrs["spec"]),
               load=_conv_load, backward=_conv_backward),
    "bn": Op(arity=1, shape=_bn_shape, prepare=_bn_prepare,
             role="pass", category="SOP", zeros=_bn_zeros, train=_bn_train, backward=_bn_backward,
             flops=lambda node, ins, out: 2 * math.prod(out),
             params=("gamma", "beta", "mean", "var"),
             dump=lambda attrs: {"eps": float(attrs["eps"]),
                                 "frozen": list(attrs.get("frozen", ()))},
             load=_bn_load),
    "relu": Op(arity=1, shape=_first,
               prepare=_fixed(lambda args: np.maximum(args[0], args[0].dtype.type(0))),
               role="pass", category="SOP", zeros=_first,
               flops=lambda node, ins, out: math.prod(out),
               backward=lambda node, gy, args, *_: ([gy * (args[0] > 0)], {})),
    "add": Op(arity=2, shape=_add_shape, prepare=_fixed(lambda args: args[0] + args[1]),
              role="pin", category="SOP", zeros=_add_zeros,
              flops=lambda node, ins, out: math.prod(out),
              backward=lambda node, gy, *_: ([gy, gy], {})),
    "concat": Op(arity=None, shape=_concat_shape,
                 prepare=_fixed(lambda args: np.concatenate(args, axis=0)), role="pin",
                 category="other",
                 backward=lambda node, gy, args, *_: (
                     np.split(gy, np.cumsum([a.shape[0] for a in args[:-1]])), {})),
    "maxpool": Op(arity=1, shape=_maxpool_shape, prepare=_maxpool_prepare,
                  role="pass", category="SOP", zeros=_first,
                  flops=lambda node, ins, out: math.prod(out) * math.prod(node.attrs["window"]),
                  dump=lambda attrs: {a: list(attrs[a]) for a in _POOL_ATTRS},
                  load=lambda raw: {a: _pair(raw, a) for a in _POOL_ATTRS},
                  backward=lambda node, gy, args, y, *_: ([max_pool_chwn_backward(
                      gy, args[0], y, *(node.attrs[a] for a in _POOL_ATTRS))], {})),
    "gavgpool": Op(arity=1, shape=lambda node, ins: (*ins[0][:2], 1, 1),
                   prepare=_fixed(lambda args: args[0].mean(axis=(1, 2), keepdims=True)),
                   role="pass", category="SOP", zeros=_first,
                   flops=lambda node, ins, out: math.prod(ins[0]),
                   backward=_gavgpool_backward),
    "fc": Op(arity=1, shape=_fc_shape, prepare=_fc_prepare, role="absorb", category="COP",
             flops=lambda node, ins, out: out[0] * 2 * math.prod(node.params["weight"].shape[:2]),
             params=("weight", "bias"),
             backward=lambda node, gy, args, y, cache, input_grad=True: _conv_grads(
                 node, gy, args[0], _fc_input(args[0]), (1, 1), (0, 0), input_grad)),
}

KINDS = tuple(OPS)


def validate(g: Graph) -> dict[str, tuple[int, int, int, int]]:
    """Check structure and infer every node's output shape.

    Returns a map node id -> (n, c, h, w) whose keys run in the order of
    Graph.topo_order. Raises CycleDetected, DanglingInput, UnreachableNode
    or ShapeMismatch (naming the node).
    """
    if not g.nodes:
        raise GraphError("graph has no nodes")
    for nid, node in g.nodes.items():
        if nid != node.id:
            raise GraphError(f"node key {nid!r} does not match node id {node.id!r}")
        if node.kind not in KINDS:
            raise GraphError(f"node {nid!r} has unknown kind {node.kind!r}")
    if g.input_id not in g.nodes or g.nodes[g.input_id].kind != "input":
        raise GraphError(f"input_id {g.input_id!r} is not an input node")
    if g.output_id not in g.nodes or g.nodes[g.output_id].kind != "output":
        raise GraphError(f"output_id {g.output_id!r} is not an output node")
    inputs = [n for n in g.nodes.values() if n.kind == "input"]
    outputs = [n for n in g.nodes.values() if n.kind == "output"]
    if len(inputs) != 1 or len(outputs) != 1:
        raise GraphError("graph must have exactly one input and one output node")
    if len(g.input_shape) != 4 or any(d < 1 for d in g.input_shape):
        raise GraphError(f"bad input_shape {g.input_shape}")

    for node in g.nodes.values():
        want = OPS[node.kind].arity
        if want is None:
            if len(node.inputs) < 2:
                raise GraphError(f"{node.kind} node {node.id!r} needs >= 2 inputs")
        elif len(node.inputs) != want:
            raise GraphError(
                f"node {node.id!r} kind {node.kind} takes {want} inputs, has {len(node.inputs)}"
            )

    order = _topo_order(g)  # raises on cycles and dangling inputs

    # reachability in both directions
    reachable = {g.input_id}
    for nid in order:
        node = g.nodes[nid]
        if node.inputs and any(src in reachable for src in node.inputs):
            reachable.add(nid)
    reaching = {g.output_id}
    for nid in reversed(order):
        node = g.nodes[nid]
        if nid in reaching:
            reaching.update(node.inputs)
    for nid in g.nodes:
        if nid not in reachable:
            raise UnreachableNode(f"node {nid!r} is not reachable from the input")
        if nid not in reaching:
            raise UnreachableNode(f"node {nid!r} does not reach the output")

    shapes: dict[str, tuple[int, int, int, int]] = {}
    for nid in order:
        node = g.nodes[nid]
        # the input node reads the declared input shape
        ins = [shapes[src] for src in node.inputs] or [tuple(g.input_shape)]
        try:
            shapes[nid] = OPS[node.kind].shape(node, ins)
        except ShapeMismatch:
            raise
        except (GraphError, ValueError) as exc:
            raise ShapeMismatch(f"node {nid!r}: {exc}") from exc
    return shapes


class Step(NamedTuple):
    """One node of a Plan: its id, the ids it reads, its prepared forward
    and the ids whose last reader it is."""

    node_id: str
    inputs: tuple[str, ...]
    run: Callable
    frees: tuple[str, ...]


def _snapshot(g: Graph) -> tuple:
    """Everything of g that a Plan depends on, as plain tuples: the ids and
    input_shape, and per node, in dict order, its key, id, kind, inputs,
    attrs items and params items. Tensors compare by identity, as they are
    immutable, and every other attrs value by equality."""
    return (g.input_id, g.output_id, tuple(g.input_shape),
            tuple((nid, n.id, n.kind, tuple(n.inputs), tuple(n.attrs.items()),
                   tuple(n.params.items())) for nid, n in g.nodes.items()))


@dataclass(frozen=True)
class Plan:
    """A graph compiled for execution: validated, sorted, its zero marks
    derived and every node prepared (Op.prepare). Immutable, and it keeps
    no state from one run to the next, so one plan may run many inputs.

    snapshot is _snapshot of the graph it was compiled from. dtype is the
    graph's parameter dtype, which inputs must have, or None for a graph
    without parameters, which runs any supported dtype.
    """

    snapshot: tuple
    input_id: str
    output_id: str
    input_chw: tuple[int, int, int]
    dtype: np.dtype | None
    steps: tuple[Step, ...]

    def run(self, x: Tensor, timings: dict[str, float] | None = None) -> Tensor:
        """The compiled graph's output for x (see execute)."""
        if tuple(x.shape[1:]) != self.input_chw:
            raise ShapeMismatch(
                f"input (c, h, w) {x.shape[1:]} does not match declared {self.input_chw}")
        if self.dtype is not None and x.dtype != self.dtype:
            raise TensorError(f"mixed dtypes in one kernel call: {x.dtype} vs {self.dtype}")
        values = {self.input_id: np.ascontiguousarray(x.data.transpose(1, 2, 3, 0))}
        for nid, inputs, run, frees in self.steps:
            args = [values[src] for src in inputs]
            if timings is None:
                values[nid] = run(args)
            else:
                t0 = time.perf_counter()
                values[nid] = run(args)
                timings[nid] = timings.get(nid, 0.0) + (time.perf_counter() - t0)
            for src in frees:
                del values[src]
        # _wrap's contiguous copy is the one transpose back to (n, c, h, w)
        return Tensor._wrap(values[self.output_id].transpose(3, 0, 1, 2))


def compile(g: Graph) -> Plan:
    """Validate g once and prepare every node for execution.

    Each node's zero marks are derived from the weights (Op.zeros) and its
    forward prepared with them (Op.prepare): bn's omega and lam, and each
    conv's and fc's live weight matrix, bias and geometry, are computed
    here, so a run does only what depends on the input. Raises what validate
    raises, and TensorError for a graph whose parameters mix dtypes.
    """
    snapshot = _snapshot(g)
    shapes = validate(g)
    order = list(shapes)
    dtype = _params_dtype(g, order)
    dt = np.dtype(np.float32) if dtype is None else dtype
    # each value is dropped once its last reader has run, so the next runs'
    # arrays reuse memory that is still mapped and cached rather than fresh
    # pages: on a 2-vCPU host, holding every activation to the end made an
    # execute of resnet20 (3x8x8, batch 32) about a quarter slower
    last_reader = {src: nid for nid in order for src in g.nodes[nid].inputs}
    zeros: dict[str, np.ndarray | None] = {g.input_id: None}
    steps = []
    for nid in order:
        if nid == g.input_id:
            continue
        node = g.nodes[nid]
        op = OPS[node.kind]
        zero_in = [zeros[src] for src in node.inputs]
        zeros[nid] = op.zeros(node, zero_in, dt)
        run = op.prepare(node, [shapes[src][1:] for src in node.inputs], zero_in[0],
                         zeros[nid], dt)
        frees = tuple(src for src in dict.fromkeys(node.inputs) if last_reader[src] == nid)
        steps.append(Step(nid, tuple(node.inputs), run, frees))
    return Plan(snapshot, g.input_id, g.output_id, tuple(g.input_shape[1:]), dtype, tuple(steps))


def execute(g: Graph, x: Tensor, timings: dict[str, float] | None = None) -> Tensor:
    """Run the graph on x (inference mode; bn uses stored statistics).

    The batch dimension of x is free; channels and spatial dims must match
    the declared input_shape (ShapeMismatch), and in a graph with
    parameters x must have their dtype (TensorError). When `timings` is
    given, the wall time of each node's kernel is added to it keyed by node
    id, for every node but the input.

    execute runs g's compiled Plan, which it keeps on g and compiles anew
    whenever g's snapshot differs from the plan's: when an id, the
    input_shape or any node's key, id, kind, inputs, attrs items or params
    items changed. So the graph may be edited in place between calls,
    provided every edit replaces a value rather than mutating one: a new
    Tensor, a new attrs value (a ConvSpec, a frozen tuple), a new inputs
    list or an edit of the list itself. An attrs value mutated in place,
    such as a list edited where it sits, is not seen. Graph.copy() does not
    carry the plan. The plan is kept from the first execute, so a graph
    executed unchanged compiles once; it holds the prepared weights, and
    the Tensors of the snapshot, until the next compile or until g._plan is
    set to None.

    Every conv, and every fc as a 1x1 conv, leaves out of its GEMMs the
    input channels and filters that the kinds' zeros rules (Op) prove
    exactly zero from the weights (see the module docstring).

    The nodes pass plain (c, h, w, n) arrays; x is transposed into that
    layout once and the output once back, and each node's array is released
    once the last node that reads it has run. Only the output becomes a Tensor,
    so the output is the one value checked for NaN and Inf (TensorError). A
    non-finite value inside the graph that a later node maps to a finite
    one, such as a -inf that a relu makes 0, does not raise.
    """
    plan = g._plan
    if plan is None or plan.snapshot != _snapshot(g):
        plan = g._plan = compile(g)
    return plan.run(x, timings)


# --- serialization ---------------------------------------------------------

@contextlib.contextmanager
def atomic_write(path):
    """Open a new file beside path for binary writing; it replaces path on success.

    If the body raises, the new file is removed and path keeps its old
    contents (or stays absent), so an interrupted write never leaves a
    truncated file under that name. The replace is atomic on POSIX and
    Windows; the data is not fsynced, so it guards against a failing or
    killed process, not against a power loss.
    """
    path = os.fspath(path)
    folder, name = os.path.split(path)
    tmp = os.path.join(folder, f".{name}.{secrets.token_hex(4)}.tmp")
    try:
        with open(tmp, "xb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


_SLICE = 4 << 20  # the fewest bytes the hashing thread takes at a time


class _Hasher:
    """SHA-256 of a sequence of arrays, computed beside the caller's I/O.

    update batches the arrays into slices of at least _SLICE bytes. The
    first full slice starts one thread, which hashes the slices in order
    off a queue while the caller reads or writes the next arrays; hashlib
    releases the GIL on large buffers. Arrays short of a slice are hashed
    by hexdigest in the caller's thread, so fewer than _SLICE bytes in all
    start no thread. Leaving the with block joins the thread, on success
    or error, so none outlives the call that made the hasher.
    """

    def __init__(self):
        self._sha = hashlib.sha256()
        self._batch: list[np.ndarray] = []
        self._size = 0
        self._queue: queue.SimpleQueue | None = None
        self._thread: threading.Thread | None = None
        self._error: BaseException | None = None

    def __enter__(self) -> "_Hasher":
        return self

    def __exit__(self, *exc) -> None:
        self._join()

    def update(self, arr: np.ndarray) -> None:
        """Queue arr, which must not change until hexdigest returns."""
        self._batch.append(arr)
        self._size += arr.nbytes
        if self._size >= _SLICE:
            if self._thread is None:
                self._queue = queue.SimpleQueue()
                self._thread = threading.Thread(target=self._drain, name="fpm-sha256")
                self._thread.start()
            self._queue.put(self._batch)
            self._batch, self._size = [], 0

    def hexdigest(self) -> str:
        """The digest of every array given so far, in order."""
        self._join()
        if self._error is not None:
            raise self._error
        for arr in self._batch:
            self._sha.update(arr)
        self._batch, self._size = [], 0
        return self._sha.hexdigest()

    def _join(self) -> None:
        if self._thread is not None:
            self._queue.put(None)
            self._thread.join()
            self._thread = None

    def _drain(self) -> None:
        try:
            while (batch := self._queue.get()) is not None:
                for arr in batch:
                    self._sha.update(arr)
        except BaseException as exc:  # hexdigest raises it in the caller's thread
            self._error = exc


def save(g: Graph, path) -> None:
    """Write the graph to a .fpm container (see module docstring)."""
    order = validate(g)
    tensor_entries = []
    chunks = []
    offset = 0
    for nid in order:
        node = g.nodes[nid]
        for pname in OPS[node.kind].params:
            if pname not in node.params:
                continue
            t = node.params[pname]
            # no copy on a little-endian host: the blob is hashed and written
            # straight from the tensors' own buffers
            raw = np.ascontiguousarray(t.data, dtype=t.dtype.newbyteorder("<"))
            tensor_entries.append({
                "name": f"{nid}/{pname}",
                "shape": list(t.shape),
                "dtype": DTYPE_NAMES[t.dtype],
                "offset": offset,
                "length": raw.nbytes,
            })
            chunks.append(raw)
            offset += raw.nbytes
    placeholder = "0" * 64  # as long as the hex digest written over it
    manifest = {
        "format": "fpm",
        "version": FORMAT_VERSION,
        "input_shape": list(g.input_shape),
        "input_id": g.input_id,
        "output_id": g.output_id,
        "nodes": [
            {
                "id": nid,
                "kind": g.nodes[nid].kind,
                "inputs": list(g.nodes[nid].inputs),
                "attrs": OPS[g.nodes[nid].kind].dump(g.nodes[nid].attrs),
                "params": {
                    p: f"{nid}/{p}"
                    for p in OPS[g.nodes[nid].kind].params
                    if p in g.nodes[nid].params
                },
                "tags": list(g.nodes[nid].tags),
            }
            for nid in order
        ],
        "tensors": tensor_entries,
        "blob": {"length": offset, "sha256": placeholder},
    }
    payload = json.dumps(manifest, ensure_ascii=True, separators=(",", ":")).encode("utf-8")
    # the digest is the manifest's last value, so its last run of 64 zeros
    digest_at = 8 + payload.rindex(placeholder.encode("ascii"))
    with atomic_write(path) as fh, _Hasher() as sha:
        fh.write(FORMAT_MAGIC + len(payload).to_bytes(4, "little") + payload)
        for raw in chunks:
            sha.update(raw)
            fh.write(raw)
        digest = sha.hexdigest()
        fh.seek(digest_at)
        fh.write(digest.encode("ascii"))


def _tensor_table(entries, blob_len: int, path) -> list[tuple[str, tuple, np.dtype]]:
    """The (name, shape, dtype) of each entry, once the entries tile the blob."""
    table = []
    end = 0  # save writes the tensors back to back, in table order
    for entry in entries:
        name = entry["name"]
        where = f"tensor {name!r} field"
        shape = tuple(_checked("shape", entry["shape"], _is_ints, "a list of integers", where))
        dtype = DTYPE_FROM_NAME.get(entry["dtype"])
        if dtype is None:
            raise ModelFormatError(f"{path}: tensor {name!r} has unknown dtype {entry['dtype']!r}")
        start, length = (_checked(key, entry[key], _is_int, "an integer", where)
                         for key in ("offset", "length"))
        if start < 0 or length < 0 or start + length > blob_len:
            raise ModelFormatError(f"{path}: tensor {name!r} lies outside the blob")
        if start != end:
            raise ModelFormatError(f"{path}: tensor {name!r} starts at byte {start}, not "
                                   f"{end}: the tensors must tile the blob in table order")
        end += length
        if math.prod(shape) * dtype.itemsize != length:
            raise ModelFormatError(f"{path}: tensor {name!r} length/shape mismatch")
        table.append((name, shape, dtype))
    if end != blob_len:
        raise ModelFormatError(f"{path}: the tensors cover {end} of the blob's {blob_len} bytes")
    return table


def _read_blob(fh, table, path) -> tuple[list[np.ndarray], str]:
    """Read each tensor of the table into a fresh array of its own; return
    the arrays, in table order, and the SHA-256 of the bytes read."""
    arrays = []
    with _Hasher() as sha:
        for name, shape, dtype in table:
            arr = np.empty(shape, dtype.newbyteorder("<"))
            if fh.readinto(arr.reshape(-1).view(np.uint8)) != arr.nbytes:
                raise ModelFormatError(f"{path}: the file ends inside tensor {name!r}")
            sha.update(arr)
            arrays.append(arr)
        return arrays, sha.hexdigest()


def load(path) -> Graph:
    """Read a .fpm container, verify it, and return a validated Graph.

    A malformed file raises ModelFormatError, also where a JSON value has
    the wrong type; a well-formed file of an invalid graph, validate's error.
    """
    fh = open(path, "rb")  # outside the try: an unusable path is no malformed file
    try:
        with fh:
            head = fh.read(8)
            if len(head) < 8 or head[:4] != FORMAT_MAGIC:
                raise ModelFormatError(f"{path}: not a model container (bad magic)")
            man_len = int.from_bytes(head[4:8], "little")
            blob_len = os.fstat(fh.fileno()).st_size - 8 - man_len
            if blob_len < 0:
                raise ModelFormatError(f"{path}: truncated manifest")
            manifest = json.loads(fh.read(man_len).decode("utf-8"))
            if not isinstance(manifest, dict) or manifest.get("format") != "fpm":
                raise ModelFormatError(f"{path}: malformed manifest (not an fpm manifest)")
            if manifest.get("version") != FORMAT_VERSION:
                raise ModelFormatError(
                    f"{path}: unsupported version {manifest.get('version')!r}")
            blob_meta = manifest.get("blob", {})
            if blob_meta.get("length") != blob_len:
                raise ModelFormatError(
                    f"{path}: blob length {blob_len} != declared {blob_meta.get('length')}"
                )
            # the whole table is checked before a byte of the blob is read
            table = _tensor_table(manifest["tensors"], blob_len, path)
            arrays, digest = _read_blob(fh, table, path)
        if digest != blob_meta.get("sha256"):
            raise ModelFormatError(f"{path}: blob checksum failure")
        # each Tensor keeps the fresh array its bytes were read into (astype
        # copies only on a big-endian host), so no tensor holds more than its
        # own bytes of the file
        tensors = {name: Tensor._wrap(arr.astype(dtype, copy=False))
                   for (name, _, dtype), arr in zip(table, arrays)}
        nodes: dict[str, Node] = {}
        for raw in manifest["nodes"]:
            where = f"node {raw['id']!r} field"
            kind = _checked("kind", raw["kind"], lambda v: isinstance(v, str), "a string", where)
            params = {}
            names = _checked("params", raw.get("params", {}), lambda v: isinstance(v, dict)
                             and _is_strs(list(v.values())), "an object of tensor names", where)
            for pname, tname in names.items():
                if tname not in tensors:
                    raise ModelFormatError(
                        f"{path}: node {raw['id']!r} references absent tensor {tname!r}"
                    )
                params[pname] = tensors[tname]
            nodes[raw["id"]] = Node(
                id=raw["id"],
                kind=kind,
                inputs=list(_checked("inputs", raw.get("inputs", []), _is_strs,
                                     "a list of node ids", where)),
                # an unknown kind loads bare, for validate to name it
                attrs=OPS[kind].load(raw.get("attrs", {})) if kind in OPS else {},
                params=params,
                tags=list(_checked("tags", raw.get("tags", []), _is_strs, "a list of strings",
                                   where)),
            )
        g = Graph(
            nodes=nodes,
            input_id=manifest["input_id"],
            output_id=manifest["output_id"],
            input_shape=tuple(_checked("input_shape", manifest["input_shape"], _is_ints,
                                       "a list of integers", "field")),
        )
        # a node id that is not a string fails here, as a TypeError
        validate(g)
    except ModelFormatError:
        raise
    except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
        raise ModelFormatError(f"{path}: malformed manifest: {exc}") from exc
    return g
