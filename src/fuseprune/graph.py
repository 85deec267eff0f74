"""Computation-graph IR: typed nodes, validation, execution, file format.

A Graph is a DAG of named nodes over the kinds
{input, output, conv, bn, relu, add, concat, maxpool, gavgpool, fc}.
Exactly one input and one output node exist. Conv nodes carry a ConvSpec
in attrs["spec"] plus "weight" (and optional "bias") parameter tensors;
bn nodes carry attrs["eps"], a per-channel attrs["frozen"] tuple of 0/1
flags, and the four per-channel parameter tensors stored as (1, c, 1, 1).

A kind is defined by its Op record in OPS, which validate, execute, save,
load, analysis, materialize and the trainer's forward pass read. A new kind
supplies its arity, shape rule, run, channel role and cost category, and
where they apply its zero-channel rule, FLOP count, parameter names and
attrs dump and load. Each run takes and returns numpy arrays, and each
attrs load checks the JSON types it reads.

Execution is a pure function of the graph and the input tensor: repeated
calls give bit-identical results, and any valid topological order computes
the same values. The batch dimension of the input is free; the declared
input_shape fixes (c, h, w) and a nominal batch size used for validation.
The nodes pass plain arrays held batch innermost, (c, h, w, n): execute
transposes x once into that layout and the output once back to
(n, c, h, w), and wraps only the output in a Tensor, which checks it for
NaN and Inf.

Execution also carries, node by node, the output channels that are exactly
zero for every input, derived from the weights alone (Op.zeros), and
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

import numpy as np

from .tensor import (
    DTYPE_FROM_NAME,
    DTYPE_NAMES,
    BnParams,
    ConvSpec,
    Tensor,
    batch_norm_chwn,
    conv2d_chwn,
    max_pool_chwn,
    pool_out_hw,
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


def graph_dtype(g: Graph, order: list[str] | None = None) -> np.dtype:
    """The dtype of g's first parameter in topological order, which its
    inputs must have; float32 for a graph without parameters. order is g's
    topological order, sorted here when not given."""
    for nid in g.topo_order() if order is None else order:
        for t in g.nodes[nid].params.values():
            return t.dtype
    return np.dtype(np.float32)


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
    tuples. run(node, input arrays, the first input's zero marks, the
    output's) takes its inputs as batch-innermost (c, h, w, n) arrays and
    returns the output as a new (c, h, w, n) array: execute passes the
    marks, and the trainer's forward passes None for both. The input kind
    has no run, as execute feeds it x's array.

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
    run: Callable | None
    role: str
    category: str
    zeros: Callable = lambda *_: None
    flops: Callable = lambda *_: 0
    params: tuple[str, ...] = ()
    dump: Callable = lambda attrs: {}
    load: Callable = lambda raw: {}


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


def _conv_run(node: Node, args, zero_in, zero_out) -> np.ndarray:
    spec: ConvSpec = node.attrs["spec"]
    return conv2d_chwn(args[0], node.params["weight"], _conv_bias(node), spec.stride, spec.pad,
                       zero_in, zero_out)


def _fc_run(node: Node, args, zero_in, zero_out) -> np.ndarray:
    # the GEMM w2d @ x.reshape(c*h*w, n), run as a 1x1 conv over the
    # (c*h*w, 1, 1, n) view of the input, whose channel marks cover h*w
    # inputs each, so a masked fc multiplies what its materialization does
    c, h, w, n = args[0].shape
    if zero_in is not None:
        zero_in = np.repeat(zero_in, h * w)
    return conv2d_chwn(args[0].reshape(c * h * w, 1, 1, n), node.params["weight"],
                       _conv_bias(node), (1, 1), (0, 0), zero_in)


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
    "input": Op(arity=0, shape=_first, run=None, role="pin", category="other"),
    "output": Op(arity=1, shape=_first, run=_first, role="pin", category="other",
                 zeros=_first),
    "conv": Op(arity=1, shape=_conv_shape, run=_conv_run, role="absorb", category="COP",
               zeros=_conv_zeros,
               # per output value, c*r*s multiply-adds and the bias
               flops=lambda node, ins, out: math.prod(out) * (
                   2 * math.prod(node.params["weight"].shape[1:]) + node.attrs["spec"].has_bias),
               params=("weight", "bias"), dump=lambda attrs: asdict(attrs["spec"]),
               load=_conv_load),
    "bn": Op(arity=1, shape=_bn_shape,
             run=lambda node, args, *_: batch_norm_chwn(args[0], bn_params(node)),
             role="pass", category="SOP", zeros=_bn_zeros,
             flops=lambda node, ins, out: 2 * math.prod(out),
             params=("gamma", "beta", "mean", "var"),
             dump=lambda attrs: {"eps": float(attrs["eps"]),
                                 "frozen": list(attrs.get("frozen", ()))},
             load=_bn_load),
    "relu": Op(arity=1, shape=_first,
               run=lambda node, args, *_: np.maximum(args[0], args[0].dtype.type(0)),
               role="pass", category="SOP", zeros=_first,
               flops=lambda node, ins, out: math.prod(out)),
    "add": Op(arity=2, shape=_add_shape,
              run=lambda node, args, *_: args[0] + args[1],
              role="pin", category="SOP", zeros=_add_zeros,
              flops=lambda node, ins, out: math.prod(out)),
    "concat": Op(arity=None, shape=_concat_shape,
                 run=lambda node, args, *_: np.concatenate(args, axis=0), role="pin",
                 category="other"),
    "maxpool": Op(arity=1, shape=_maxpool_shape,
                  run=lambda node, args, *_: max_pool_chwn(
                      args[0], *(node.attrs[a] for a in _POOL_ATTRS)),
                  role="pass", category="SOP", zeros=_first,
                  flops=lambda node, ins, out: math.prod(out) * math.prod(node.attrs["window"]),
                  dump=lambda attrs: {a: list(attrs[a]) for a in _POOL_ATTRS},
                  load=lambda raw: {a: _pair(raw, a) for a in _POOL_ATTRS}),
    "gavgpool": Op(arity=1, shape=lambda node, ins: (*ins[0][:2], 1, 1),
                   run=lambda node, args, *_: args[0].mean(axis=(1, 2), keepdims=True),
                   role="pass", category="SOP", zeros=_first,
                   flops=lambda node, ins, out: math.prod(ins[0])),
    "fc": Op(arity=1, shape=_fc_shape, run=_fc_run, role="absorb", category="COP",
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


def execute(g: Graph, x: Tensor, timings: dict[str, float] | None = None) -> Tensor:
    """Run the graph on x (inference mode; bn uses stored statistics).

    The batch dimension of x is free; channels and spatial dims must match
    the declared input_shape. When `timings` is given, the wall time of each
    node's kernel is added to it keyed by node id.

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
    order = validate(g)
    if tuple(x.shape[1:]) != tuple(g.input_shape[1:]):
        raise ShapeMismatch(
            f"input (c, h, w) {x.shape[1:]} does not match declared {g.input_shape[1:]}"
        )
    values: dict[str, np.ndarray] = {}
    zeros: dict[str, np.ndarray | None] = {}
    dt = x.dtype
    # each value is dropped once its last reader has run, so the next runs'
    # arrays reuse memory that is still mapped and cached rather than fresh
    # pages: on a 2-vCPU host, holding every activation to the end made an
    # execute of resnet20 (3x8x8, batch 32) about a quarter slower
    last_reader = {src: nid for nid in order for src in g.nodes[nid].inputs}
    for nid in order:
        node = g.nodes[nid]
        if node.kind == "input":
            values[nid] = np.ascontiguousarray(x.data.transpose(1, 2, 3, 0))
            zeros[nid] = None
            continue
        op = OPS[node.kind]
        args = [values[src] for src in node.inputs]
        zero_in = [zeros[src] for src in node.inputs]
        zeros[nid] = op.zeros(node, zero_in, dt)
        if timings is None:
            values[nid] = op.run(node, args, zero_in[0], zeros[nid])
        else:
            t0 = time.perf_counter()
            values[nid] = op.run(node, args, zero_in[0], zeros[nid])
            timings[nid] = timings.get(nid, 0.0) + (time.perf_counter() - t0)
        for src in node.inputs:
            if last_reader[src] == nid:
                values.pop(src, None)
    # _wrap's contiguous copy is the one transpose back to (n, c, h, w)
    return Tensor._wrap(values[g.output_id].transpose(3, 0, 1, 2))


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
