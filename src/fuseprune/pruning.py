"""Soft L2-norm filter pruning and physical materialization.

Soft pruning zeroizes the lowest-norm filters of each conv once per epoch
but keeps them in the graph, so continued training can regrow them. Convs
that fusion widened (listed in the FusionReport) always have their n - m
lowest filters zeroized, which restores the pre-fusion width; they are
exempt from rate-based pruning. Every other conv loses floor(rate * n)
filters per epoch in "continued" mode and none in "conservative" mode.

Zeroizing filter k clears its weights and bias and, on any bn directly
consuming the conv, clears beta_k and mean_k. That makes the channel emit
exactly zero in both inference and training forward passes while leaving
gamma_k alone, so gradients still reach the filter and it can recover.
It is also what makes physical removal exact: graph.execute proves such a
channel zero from the weights and leaves it out of every conv's GEMMs, so
the masked model runs the GEMMs its materialization runs; the fc, a 1x1
conv over its flattened input, leaves out the zero inputs alike.

Materialization deletes the zeroized filters for real, in one reverse
and one forward pass over the topological order that read only each
kind's graph.OPS role and zeros rule. A deleted channel passes through bn,
relu and the pools, each of whose zeros rules (the rule graph.execute
skips channels by) must still mark it exactly zero, and a conv or fc
absorbs it: bn channels and frozen flags, conv input channels and fc
columns go with it. A conv whose output reaches an add, concat or the
graph output keeps its zero filters in place instead, because those
consumers fix the channel count; the result records that decision per
conv.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .fusion import FusionReport
from .graph import (OPS, Graph, Node, _checked, _conv_bias, _is_ints, atomic_write, graph_dtype,
                    set_weights, validate)
from .tensor import _BLOCK_BYTES, ConvSpec, Tensor

MODES = ("conservative", "continued")

RATE_CAP = 0.3


class PruneError(Exception):
    """Base class for pruning failures."""


class InconsistentMask(PruneError):
    """Mask disagrees with the graph: lengths, non-zero 'zeroized' filters,
    or a deleted channel that a passing kind's zeros rule no longer marks
    zero, such as a bn channel with a nonzero shift, whose constant would
    be lost if removed."""


@dataclass
class PruneConfig:
    rate: float = 0.0
    epochs: int = 1
    mode: str = "conservative"
    allow_high_rate: bool = False

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        cap = 1.0 if self.allow_high_rate else RATE_CAP
        if not 0.0 <= self.rate <= cap:
            raise ValueError(
                f"rate {self.rate} outside [0, {cap}]"
                + ("" if self.allow_high_rate else " (pass allow_high_rate to exceed)")
            )
        if self.allow_high_rate and not self.rate < 1.0:
            raise ValueError("rate must stay below 1.0; a conv cannot lose every filter")


@dataclass
class PruneMask:
    """Current per-conv keep flags plus the per-epoch selection history."""

    keep: dict[str, list[bool]] = field(default_factory=dict)
    history: list[dict[str, list[int]]] = field(default_factory=list)

    def zeroed(self, conv_id: str) -> list[int]:
        flags = self.keep.get(conv_id, [])
        return [i for i, f in enumerate(flags) if not f]

    def to_json_obj(self) -> dict:
        return {
            "keep": {nid: [int(f) for f in flags] for nid, flags in self.keep.items()},
            "history": [
                {nid: list(idx) for nid, idx in epoch.items()} for epoch in self.history
            ],
        }

    @classmethod
    def from_json_obj(cls, obj) -> "PruneMask":
        """The mask a mask file's JSON holds: ValueError unless keep maps
        conv ids to lists of 0/1 or true/false flags and history is a list
        of objects mapping conv ids to lists of integers."""
        try:
            keep = obj.get("keep", {}).items()
            history = _checked("history", obj.get("history", []), lambda v: isinstance(v, list),
                               "a list", "field")
            return cls(
                keep={nid: [bool(f) for f in _checked(nid, flags, _is_flags,
                                                      "a list of 0/1 or true/false flags",
                                                      "keep entry")]
                      for nid, flags in keep},
                history=[
                    {nid: list(_checked(nid, idx, _is_ints, "a list of integers", "history entry"))
                     for nid, idx in epoch.items()}
                    for epoch in history
                ],
            )
        except (AttributeError, TypeError) as exc:
            raise ValueError(f"malformed mask: {exc}") from exc

    def save(self, path) -> None:
        with atomic_write(path) as fh:
            fh.write((json.dumps(self.to_json_obj(), indent=2, sort_keys=True) + "\n").encode())

    @classmethod
    def load(cls, path) -> "PruneMask":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json_obj(json.load(fh))


def _is_flags(v) -> bool:
    return isinstance(v, list) and all(type(f) in (bool, int) and f in (0, 1) for f in v)


def filter_l2_norms(w: Tensor) -> np.ndarray:
    """Per-filter L2 norm of a (k, c, r, s) weight tensor, accumulated in
    binary64: norm_k = sqrt(sum of squared entries of filter k).

    The binary64 squares are formed a block of filters at a time, at most
    tensor._BLOCK_BYTES of them (one filter at least); each filter's sum is
    still numpy's pairwise sum over its whole row.
    """
    if len(w.shape) != 4:
        raise PruneError(f"filter norms need a 4-D weight tensor, got {w.shape}")
    flat = w.data.reshape(w.shape[0], -1)
    rows = max(1, _BLOCK_BYTES // (8 * flat.shape[1]))
    sums = np.empty(flat.shape[0])
    for i in range(0, flat.shape[0], rows):
        np.sum(np.square(flat[i:i + rows], dtype=np.float64), axis=1, out=sums[i:i + rows])
    return np.sqrt(sums, out=sums)


def select_prune_indices(norms: np.ndarray, count: int) -> list[int]:
    """Indices of the `count` smallest norms, equal norms going to the lower
    index; returned in ascending index order."""
    norms = np.asarray(norms).reshape(-1)
    if not 0 <= count <= norms.shape[0]:
        raise PruneError(f"count {count} outside [0, {norms.shape[0]}]")
    order = np.argsort(norms, kind="stable")
    return sorted(int(i) for i in order[:count])


def _rate_count(rate: float, n: int) -> int:
    # floor(rate * n) in exact decimal terms; the tiny guard keeps products
    # like 0.3 * 10 (binary 2.9999...96) from flooring one short
    return min(n, int(math.floor(rate * n + 1e-9)))


def _zeroize(g: Graph, consumers, conv_id: str, idx: list[int]) -> None:
    node = g.nodes[conv_id]
    w = node.params["weight"].data.copy()
    w[idx] = 0
    b = _conv_bias(node)
    if b is not None:
        b = b.copy()
        b[idx] = 0
    set_weights(node, w, b, finite=True)
    for cid in consumers[conv_id]:
        cons = g.nodes[cid]
        if cons.kind != "bn":
            continue
        cons.params = dict(cons.params)
        for pname in ("beta", "mean"):
            arr = cons.params[pname].data.copy()
            arr[0, idx] = 0
            cons.params[pname] = Tensor._wrap(arr, finite=True)


def _check_report(g: Graph, report: FusionReport | None) -> None:
    """PruneError naming every conv id of the report that is not a conv node
    of g: a report of another graph would otherwise prune nothing, silently."""
    if report is None:
        return
    ghosts = [nid for nid in report.convs if nid not in g.nodes or g.nodes[nid].kind != "conv"]
    if ghosts:
        raise PruneError(f"fusion report lists convs {ghosts} that are not conv nodes of the graph")


def soft_prune_epoch(g: Graph, report: FusionReport | None, cfg: PruneConfig) -> PruneMask:
    """Zeroize this epoch's selection in place and return the mask.

    Fused convs (in the report) lose their n - m lowest-norm filters; other
    convs lose floor(rate * n) in continued mode and none in conservative
    mode. Filters zeroized earlier compete with their current norms, so a
    regrown filter can escape. fc nodes are never pruned. A report that
    lists a conv id that is not a conv node of g raises PruneError.
    """
    _check_report(g, report)
    consumers = g.consumers()
    keep: dict[str, list[bool]] = {}
    selection: dict[str, list[int]] = {}
    for nid in g.topo_order():
        node = g.nodes[nid]
        if node.kind != "conv":
            continue
        spec: ConvSpec = node.attrs["spec"]
        entry = report.convs.get(nid) if report is not None else None
        if entry is not None:
            if entry.n != spec.k:
                raise PruneError(
                    f"fusion report lists {entry.n} filters for {nid!r}, graph has {spec.k}"
                )
            count = entry.n - entry.m
        elif cfg.mode == "continued":
            count = _rate_count(cfg.rate, spec.k)
        else:
            count = 0
        idx = select_prune_indices(filter_l2_norms(node.params["weight"]), count)
        if idx:
            _zeroize(g, consumers, nid, idx)
        chosen = set(idx)
        selection[nid] = idx
        keep[nid] = [i not in chosen for i in range(spec.k)]
    return PruneMask(keep=keep, history=[selection])


def dynamic_prune(g: Graph, report: FusionReport | None, cfg: PruneConfig,
                  trainer_hook=None) -> tuple[Graph, PruneMask]:
    """Alternate one epoch of weight updates with one soft-pruning pass.

    trainer_hook(graph, epoch) must update the weights in place; None skips
    the update (degenerate schedule). Returns the masked graph (a copy; the
    input is untouched) and the mask with the full selection history.
    """
    _check_report(g, report)  # before the first epoch's training, not after
    out = g.copy()
    history: list[dict[str, list[int]]] = []
    mask = PruneMask()
    for epoch in range(cfg.epochs):
        if trainer_hook is not None:
            trainer_hook(out, epoch)
        mask = soft_prune_epoch(out, report, cfg)
        history.extend(mask.history)
    return out, PruneMask(keep=mask.keep, history=history)


@dataclass
class MaterializeResult:
    graph: Graph
    summary: list[dict]


def _pins(g: Graph, order: list[str], consumers) -> dict[str, Node | None]:
    """For every node, the node that fixes its channel count, or None.

    One reverse pass by graph.OPS role: a "pin" consumer (add, concat, the
    output) pins the node, a "pass" consumer (bn, relu, the pools) hands on
    its own pin, and an "absorb" consumer (conv, fc) takes the channels.
    Consumers are tried last first, which names the pin a depth-first walk
    from the node meets first.
    """
    pins: dict[str, Node | None] = {}
    for nid in reversed(order):
        pins[nid] = None
        for cid in reversed(consumers[nid]):
            role = OPS[g.nodes[cid].kind].role
            pins[nid] = g.nodes[cid] if role == "pin" else pins[cid] if role == "pass" else None
            if pins[nid] is not None:
                break
    return pins


def _drop_inputs(node: Node, gone: np.ndarray) -> None:
    """Delete the input channels that gone marks from a bn, conv or fc."""
    keep_idx = np.flatnonzero(~gone)
    if node.kind == "bn":
        node.params = dict(node.params)
        node.attrs = dict(node.attrs)
        for pname in ("gamma", "beta", "mean", "var"):
            node.params[pname] = Tensor._wrap(node.params[pname].data.take(keep_idx, axis=1),
                                              finite=True)
        frozen = node.attrs.get("frozen", ())
        if frozen:
            node.attrs["frozen"] = tuple(frozen[i] for i in keep_idx)
        return
    weight = node.params["weight"].data
    if node.kind == "fc":  # its flattened input holds each channel h*w times
        keep_idx = np.flatnonzero(~np.repeat(gone, weight.shape[1] // gone.size))
    set_weights(node, weight.take(keep_idx, axis=1), _conv_bias(node), finite=True)


def _drop_filters(node: Node, flags: list[bool], pin: Node | None, dt,
                  summary: list[dict]) -> np.ndarray | None:
    """Delete a conv's zeroized filters, after checking the mask against
    its zeros rule, unless pin fixes its channel count; the deleted filters
    as a bool mask, or None."""
    spec: ConvSpec = node.attrs["spec"]
    if len(flags) != spec.k:
        raise InconsistentMask(
            f"conv {node.id!r}: mask covers {len(flags)} filters, conv has {spec.k}"
        )
    zero_idx = [i for i, f in enumerate(flags) if not f]
    if not zero_idx:
        return None
    marks = OPS["conv"].zeros(node, [None], dt)
    if marks is None or not marks[zero_idx].all():
        raise InconsistentMask(f"conv {node.id!r}: mask marks filters {zero_idx} as zeroized "
                               "but their weights or bias are not all zero")
    if len(zero_idx) == spec.k:
        raise InconsistentMask(f"conv {node.id!r}: mask would remove every filter")
    removed = 0 if pin is not None else len(zero_idx)
    summary.append({"conv": node.id, "removed": removed, "kept": spec.k - removed,
                    "zeroized": len(zero_idx), "blocked": None if pin is None else
                    f"output channels are pinned by {pin.kind} node {pin.id!r}"})
    if pin is not None:
        return None
    keep_idx = np.flatnonzero(flags)
    b = _conv_bias(node)
    set_weights(node, node.params["weight"].data.take(keep_idx, axis=0),
                None if b is None else b.take(keep_idx), finite=True)
    return ~np.asarray(flags, dtype=bool)


def materialize(g: Graph, mask: PruneMask, report: FusionReport | None = None) -> MaterializeResult:
    """Physically delete zeroized filters; bit-exact by construction.

    One pass in topological order carries each node's deleted output
    channels. A conv in the mask is checked (its length, that its zeros
    rule marks every zeroized filter, and that not every filter goes) and
    loses its zeroized filters, unless an add, concat or the output pins
    its channel count (_pins): then it keeps them and the summary says so.
    The deleted channels pass through a "pass" kind, whose zeros rule must
    still mark them exactly zero (InconsistentMask otherwise), and a bn,
    conv or fc drops them from its parameters. The input graph is never
    mutated; report is not read.

    It deletes by the mask, not by the zero marks: a filter that is zero by
    chance but kept by the mask stays, and the summary counts the mask's
    filters alone. masked == materialized still holds for such a filter,
    because graph.execute marks it and leaves it out of the GEMMs on both
    sides.
    """
    order = list(validate(g))
    for nid in mask.keep:
        if nid not in g.nodes or g.nodes[nid].kind != "conv":
            raise InconsistentMask(f"mask covers {nid!r}, which is not a conv in the graph")
    out = g.copy()
    pins = _pins(out, order, out.consumers())
    dt = graph_dtype(out, order)
    summary: list[dict] = []
    gone: dict[str, np.ndarray | None] = {}
    for nid in order:
        node = out.nodes[nid]
        op = OPS[node.kind]
        drop = None if op.role == "pin" else gone[node.inputs[0]]
        if drop is not None and op.role == "pass":
            marks = op.zeros(node, [drop], dt)
            held = np.flatnonzero(drop if marks is None else drop & ~marks)
            if held.size:
                raise InconsistentMask(
                    f"{node.kind} {nid!r}: removed channels {held.tolist()} are not exact "
                    "zeros here (a bn needs a zero shift, beta - omega * mean); rerun a "
                    "pruning epoch so masked channels emit exact zeros before materializing"
                )
        if drop is not None and op.params:
            _drop_inputs(node, drop)
        gone[nid] = drop if op.role == "pass" else None
        if nid in mask.keep:
            gone[nid] = _drop_filters(node, mask.keep[nid], pins[nid], dt, summary)
    validate(out)
    return MaterializeResult(graph=out, summary=summary)
