"""Computation-graph IR: typed nodes, validation, execution, file format.

A Graph is a DAG of named nodes over the kinds
{input, output, conv, bn, relu, add, concat, maxpool, gavgpool, fc}.
Exactly one input and one output node exist. Conv nodes carry a ConvSpec
in attrs["spec"] plus "weight" (and optional "bias") parameter tensors;
bn nodes carry attrs["eps"], a per-channel attrs["frozen"] tuple of 0/1
flags, and the four per-channel parameter tensors stored as (1, c, 1, 1).

A kind is defined by its Op record in OPS, which validate, compile, save,
load, analysis, materialize and the trainer's forward pass read. A new kind
supplies its arity, shape rule, prepare, channel role and cost category,
and where they apply its zero-channel rule, FLOP count, parameter names and
attrs dump and load. Each prepared forward takes and returns numpy arrays,
and each attrs load checks the JSON types it reads.

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
only what depends on x. execute keeps the plan on the graph from the
second execute of an unchanged graph on, and compiles again whenever the
graph's snapshot, its ids, input_shape and each node's kind, inputs,
attrs and params, differs from the plan's. Every edit the package makes
replaces a value (a Tensor, an attrs value, an inputs list), so it shows
in the snapshot; an attrs value must be replaced, never mutated in place.

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
it into place, so a failed save leaves any earlier file whole. load
requires JSON integers for the dims, offsets, lengths and input_shape, a
list of node ids for each node's inputs, and tensors that tile the blob in
table order, as save writes them.
"""

from __future__ import annotations

import contextlib
import hashlib
import heapq
import json
import math
import os
import secrets
import time
from collections.abc import Callable
from dataclasses import asdict, dataclass, field
from typing import NamedTuple

import numpy as np

from .tensor import (
    DTYPE_FROM_NAME,
    DTYPE_NAMES,
    BnParams,
    ConvSpec,
    Tensor,
    TensorError,
    max_pool_chwn,
    pool_out_hw,
    prepare_batch_norm,
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
    # the Plan execute keeps, which checks itself against the graph, and the
    # identity snapshot of the last execute that compiled without keeping one
    _plan: "Plan | None" = field(default=None, init=False, compare=False, repr=False)
    _unkept: tuple | None = field(default=None, init=False, compare=False, repr=False)

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


def bn_params(node: Node) -> BnParams:
    """The BnParams of a bn node's parameter tensors and eps."""
    return BnParams(
        gamma=node.params["gamma"].data.reshape(-1),
        beta=node.params["beta"].data.reshape(-1),
        mean=node.params["mean"].data.reshape(-1),
        var=node.params["var"].data.reshape(-1),
        eps=float(node.attrs["eps"]),
    )


def _conv_bias(node: Node):
    """A conv or fc node's bias as a 1-D array, or None when it has none."""
    has_bias = node.attrs["spec"].has_bias if node.kind == "conv" else "bias" in node.params
    return node.params["bias"].data.reshape(-1) if has_bias else None


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
    which is the trainer's forward. The input kind has no prepare, as the
    plan feeds it x's array.

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
    prepare: Callable | None
    role: str
    category: str
    zeros: Callable = lambda *_: None
    flops: Callable = lambda *_: 0
    params: tuple[str, ...] = ()
    dump: Callable = lambda attrs: {}
    load: Callable = lambda raw: {}

    def run(self, node: Node, args, zero_in=None, zero_out=None) -> np.ndarray:
        """The node's output for the (c, h, w, n) arrays args: prepare for
        their (c, h, w) and dtype, applied to them."""
        return self.prepare(node, [a.shape[:3] for a in args], zero_in, zero_out,
                            args[0].dtype)(args)


def _fixed(fn):
    """The prepare of a kind whose forward fn(args) needs nothing prepared."""
    return lambda *_: fn


def _conv_shape(node: Node, ins) -> tuple[int, int, int, int]:
    spec: ConvSpec = node.attrs["spec"]
    n, c, h, w = ins[0]
    if c != spec.c:
        raise ShapeMismatch(f"node {node.id!r}: conv expects {spec.c} channels, got {c}")
    weight = node.params.get("weight")
    if weight is None or weight.shape != spec.weight_shape:
        got = None if weight is None else weight.shape
        raise ShapeMismatch(f"node {node.id!r}: weight shape {got} != {spec.weight_shape}")
    if spec.has_bias:
        bias = node.params.get("bias")
        if bias is None or bias.shape != (1, spec.k, 1, 1):
            raise ShapeMismatch(f"node {node.id!r}: bias must be (1, {spec.k}, 1, 1)")
    ho, wo = spec.out_hw(h, w)
    return (n, spec.k, ho, wo)


def _conv_zeros(node: Node, zero_in, dt):
    zero = node.params["weight"].zero_rows(zero_in[0])
    if zero is not None and node.attrs["spec"].has_bias:
        zero = zero & (node.params["bias"].data.reshape(-1) == 0)
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
    return ins[0]


def _bn_zeros(node: Node, zero_in, dt):
    if zero_in[0] is None:
        return None
    return _marks(zero_in[0] & (bn_params(node).lam(dt) == 0))


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
    return (n, weight.shape[0], 1, 1)


def _conv_prepare(node: Node, ins, zero_in, zero_out, dt):
    spec: ConvSpec = node.attrs["spec"]
    conv = prepare_conv(node.params["weight"], _conv_bias(node), spec.stride, spec.pad, ins[0],
                        dt, zero_in, zero_out)
    return lambda args: conv(args[0])


def _fc_prepare(node: Node, ins, zero_in, zero_out, dt):
    # the GEMM w2d @ x.reshape(c*h*w, n), run as a 1x1 conv over the
    # (c*h*w, 1, 1, n) view of the input, whose channel marks cover h*w
    # inputs each, so a masked fc multiplies what its materialization does
    c, h, w = ins[0]
    if zero_in is not None:
        zero_in = np.repeat(zero_in, h * w)
    conv = prepare_conv(node.params["weight"], _conv_bias(node), (1, 1), (0, 0),
                        (c * h * w, 1, 1), dt, zero_in)
    return lambda args: conv(args[0].reshape(c * h * w, 1, 1, args[0].shape[3]))


def _bn_prepare(node: Node, ins, zero_in, zero_out, dt):
    bn = prepare_batch_norm(bn_params(node), ins[0][0], dt)
    return lambda args: bn(args[0])


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
    "input": Op(arity=0, shape=_first, prepare=None, role="pin", category="other"),
    "output": Op(arity=1, shape=_first, prepare=_fixed(lambda args: args[0]), role="pin",
                 category="other", zeros=_first),
    "conv": Op(arity=1, shape=_conv_shape, prepare=_conv_prepare, role="absorb",
               category="COP", zeros=_conv_zeros,
               # per output value, c*r*s multiply-adds and the bias
               flops=lambda node, ins, out: math.prod(out) * (
                   2 * math.prod(node.params["weight"].shape[1:]) + node.attrs["spec"].has_bias),
               params=("weight", "bias"), dump=lambda attrs: asdict(attrs["spec"]),
               load=_conv_load),
    "bn": Op(arity=1, shape=_bn_shape, prepare=_bn_prepare,
             role="pass", category="SOP", zeros=_bn_zeros,
             flops=lambda node, ins, out: 2 * math.prod(out),
             params=("gamma", "beta", "mean", "var"),
             dump=lambda attrs: {"eps": float(attrs["eps"]),
                                 "frozen": list(attrs.get("frozen", ()))},
             load=_bn_load),
    "relu": Op(arity=1, shape=_first,
               prepare=_fixed(lambda args: np.maximum(args[0], args[0].dtype.type(0))),
               role="pass", category="SOP", zeros=_first,
               flops=lambda node, ins, out: math.prod(out)),
    "add": Op(arity=2, shape=_add_shape, prepare=_fixed(lambda args: args[0] + args[1]),
              role="pin", category="SOP", zeros=_add_zeros,
              flops=lambda node, ins, out: math.prod(out)),
    "concat": Op(arity=None, shape=_concat_shape,
                 prepare=_fixed(lambda args: np.concatenate(args, axis=0)), role="pin",
                 category="other"),
    "maxpool": Op(arity=1, shape=_maxpool_shape, prepare=_maxpool_prepare,
                  role="pass", category="SOP", zeros=_first,
                  flops=lambda node, ins, out: math.prod(out) * math.prod(node.attrs["window"]),
                  dump=lambda attrs: {a: list(attrs[a]) for a in _POOL_ATTRS},
                  load=lambda raw: {a: _pair(raw, a) for a in _POOL_ATTRS}),
    "gavgpool": Op(arity=1, shape=lambda node, ins: (*ins[0][:2], 1, 1),
                   prepare=_fixed(lambda args: args[0].mean(axis=(1, 2), keepdims=True)),
                   role="pass", category="SOP", zeros=_first,
                   flops=lambda node, ins, out: math.prod(ins[0])),
    "fc": Op(arity=1, shape=_fc_shape, prepare=_fc_prepare, role="absorb", category="COP",
             flops=lambda node, ins, out: out[0] * 2 * math.prod(node.params["weight"].shape[:2]),
             params=("weight", "bias")),
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


def _identities(snapshot: tuple) -> tuple:
    """snapshot with each Tensor replaced by its id, so that holding it keeps
    no weights alive."""
    *ids, nodes = snapshot
    return (*ids, tuple((*node, tuple((k, id(t)) for k, t in params))
                        for *node, params in nodes))


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
    carry the plan. A new plan is kept only when the previous execute saw
    the same snapshot: a graph executed once, or edited between every two
    executes, holds no prepared weights, and a graph run repeatedly
    compiles twice before its plan is kept.

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
    snapshot = _snapshot(g)
    plan = g._plan
    if plan is None or plan.snapshot != snapshot:
        plan = compile(g)
        # a Tensor's id can be reused once it is freed, which at worst keeps
        # this plan, compiled from g as it is now, one execute early
        seen = _identities(snapshot)
        g._plan, g._unkept = (plan, None) if g._unkept == seen else (None, seen)
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


def save(g: Graph, path) -> None:
    """Write the graph to a .fpm container (see module docstring)."""
    order = validate(g)
    tensor_entries = []
    chunks = []
    digest = hashlib.sha256()
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
            digest.update(raw)
            offset += raw.nbytes
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
        "blob": {"length": offset, "sha256": digest.hexdigest()},
    }
    payload = json.dumps(manifest, ensure_ascii=True, separators=(",", ":")).encode("utf-8")
    with atomic_write(path) as fh:
        fh.write(FORMAT_MAGIC)
        fh.write(len(payload).to_bytes(4, "little"))
        fh.write(payload)
        for raw in chunks:
            fh.write(raw)


def load(path) -> Graph:
    """Read a .fpm container, verify it, and return a validated Graph.

    A malformed file raises ModelFormatError, also where a JSON value has
    the wrong type; a well-formed file of an invalid graph, validate's error.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 8 or data[:4] != FORMAT_MAGIC:
        raise ModelFormatError(f"{path}: not a model container (bad magic)")
    man_len = int.from_bytes(data[4:8], "little")
    if len(data) < 8 + man_len:
        raise ModelFormatError(f"{path}: truncated manifest")
    try:
        manifest = json.loads(data[8 : 8 + man_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ModelFormatError(f"{path}: malformed manifest: {exc}") from exc
    if not isinstance(manifest, dict) or manifest.get("format") != "fpm":
        raise ModelFormatError(f"{path}: malformed manifest (not an fpm manifest)")
    if manifest.get("version") != FORMAT_VERSION:
        raise ModelFormatError(f"{path}: unsupported version {manifest.get('version')!r}")
    blob = memoryview(data)[8 + man_len :]
    try:
        blob_meta = manifest.get("blob", {})
        if blob_meta.get("length") != len(blob):
            raise ModelFormatError(
                f"{path}: blob length {len(blob)} != declared {blob_meta.get('length')}"
            )
        if hashlib.sha256(blob).hexdigest() != blob_meta.get("sha256"):
            raise ModelFormatError(f"{path}: blob checksum failure")

        tensors: dict[str, Tensor] = {}
        end = 0  # save writes the tensors back to back, in table order
        for entry in manifest["tensors"]:
            name = entry["name"]
            where = f"tensor {name!r} field"
            shape = tuple(_checked("shape", entry["shape"], _is_ints, "a list of integers", where))
            dtype = DTYPE_FROM_NAME.get(entry["dtype"])
            if dtype is None:
                raise ModelFormatError(f"{path}: tensor {name!r} has unknown dtype {entry['dtype']!r}")
            start, length = (_checked(key, entry[key], _is_int, "an integer", where)
                             for key in ("offset", "length"))
            if start < 0 or length < 0 or start + length > len(blob):
                raise ModelFormatError(f"{path}: tensor {name!r} lies outside the blob")
            if start != end:
                raise ModelFormatError(f"{path}: tensor {name!r} starts at byte {start}, not "
                                       f"{end}: the tensors must tile the blob in table order")
            end += length
            count = math.prod(shape)
            if count * dtype.itemsize != length:
                raise ModelFormatError(f"{path}: tensor {name!r} length/shape mismatch")
            le = dtype.newbyteorder("<")
            # Tensor copies, so no tensor keeps the file's buffer alive
            arr = np.frombuffer(blob, le, count, offset=start).reshape(shape)
            tensors[name] = Tensor(arr, dtype)
        if end != len(blob):
            raise ModelFormatError(
                f"{path}: the tensors cover {end} of the blob's {len(blob)} bytes")
        nodes: dict[str, Node] = {}
        for raw in manifest["nodes"]:
            params = {}
            for pname, tname in raw.get("params", {}).items():
                if tname not in tensors:
                    raise ModelFormatError(
                        f"{path}: node {raw['id']!r} references absent tensor {tname!r}"
                    )
                params[pname] = tensors[tname]
            kind = raw["kind"]
            inputs = _checked("inputs", raw.get("inputs", []), lambda v: isinstance(v, list)
                              and all(isinstance(i, str) for i in v), "a list of node ids",
                              f"node {raw['id']!r} field")
            nodes[raw["id"]] = Node(
                id=raw["id"],
                kind=kind,
                inputs=list(inputs),
                # an unknown kind loads bare, for validate to name it
                attrs=OPS[kind].load(raw.get("attrs", {})) if kind in OPS else {},
                params=params,
                tags=list(raw.get("tags", [])),
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
