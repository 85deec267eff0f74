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

Materialization deletes the zeroized filters for real: conv rows, the
following bn's channels, and the matching input channels (or fc columns)
of downstream consumers, walking transparently through relu and pooling.
A conv whose output reaches an add, concat or the graph output keeps its
zero filters in place instead, because those consumers fix the channel
count; the result records that decision per conv.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .fusion import FusionReport
from .graph import OPS, Graph, Node, bn_params, validate
from .tensor import ConvSpec, Tensor

MODES = ("conservative", "continued")

RATE_CAP = 0.3


class PruneError(Exception):
    """Base class for pruning failures."""


class InconsistentMask(PruneError):
    """Mask disagrees with the graph (lengths, non-zero 'zeroized' filters,
    or bn channels that would leak a nonzero constant if removed)."""


class CouplingConflict(PruneError):
    """Two different producers demanded incompatible channel slices of the
    same consumer. Cannot happen on supported topologies; never resolved
    silently."""


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
    def from_json_obj(cls, obj: dict) -> "PruneMask":
        return cls(
            keep={nid: [bool(f) for f in flags] for nid, flags in obj.get("keep", {}).items()},
            history=[
                {nid: [int(i) for i in idx] for nid, idx in epoch.items()}
                for epoch in obj.get("history", [])
            ],
        )

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json_obj(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "PruneMask":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json_obj(json.load(fh))


def filter_l2_norms(w: Tensor) -> np.ndarray:
    """Per-filter L2 norm of a (k, c, r, s) weight tensor, accumulated in
    binary64: norm_k = sqrt(sum of squared entries of filter k)."""
    if len(w.shape) != 4:
        raise PruneError(f"filter norms need a 4-D weight tensor, got {w.shape}")
    flat = w.data.reshape(w.shape[0], -1)
    return np.sqrt(np.sum(np.square(flat, dtype=np.float64), axis=1))


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
    spec: ConvSpec = node.attrs["spec"]
    w = node.params["weight"].data.copy()
    w[idx] = 0
    node.params = dict(node.params)
    node.params["weight"] = Tensor._wrap(w)
    if spec.has_bias:
        b = node.params["bias"].data.copy()
        b[0, idx] = 0
        node.params["bias"] = Tensor(b)
    for cid in consumers[conv_id]:
        cons = g.nodes[cid]
        if cons.kind != "bn":
            continue
        cons.params = dict(cons.params)
        for pname in ("beta", "mean"):
            arr = cons.params[pname].data.copy()
            arr[0, idx] = 0
            cons.params[pname] = Tensor(arr)


def soft_prune_epoch(g: Graph, report: FusionReport | None, cfg: PruneConfig) -> PruneMask:
    """Zeroize this epoch's selection in place and return the mask.

    Fused convs (in the report) lose their n - m lowest-norm filters; other
    convs lose floor(rate * n) in continued mode and none in conservative
    mode. Filters zeroized earlier compete with their current norms, so a
    regrown filter can escape. fc nodes are never pruned.
    """
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


def _check_zeroized(node: Node, zero_idx: list[int]) -> None:
    w = node.params["weight"].data
    if np.any(w[zero_idx] != 0):
        raise InconsistentMask(
            f"conv {node.id!r}: mask marks filters {zero_idx} as zeroized but "
            "their weights are not all zero"
        )
    if node.attrs["spec"].has_bias and np.any(node.params["bias"].data[0, zero_idx] != 0):
        raise InconsistentMask(f"conv {node.id!r}: zeroized filters carry nonzero bias")


def _slice_plan(g: Graph, consumers, conv_id: str, zero_idx: list[int]) -> str | list[str]:
    """Where conv_id's deleted channels go: the reason they cannot be
    deleted, or the nodes downstream whose parameters lose them.

    Walks forward by each kind's graph.OPS role: the channels pass through
    bn, relu and the pools, a conv or fc absorbs them, and an add, concat or
    the output pins them, which blocks the deletion. Every kind with two
    inputs pins, so the walk meets no node twice. A bn on the way must map
    the deleted channels to exact zeros (lam 0, the rule graph.execute uses
    to prove a bn channel zero), or InconsistentMask is raised.
    """
    plan: list[str] = []
    stack = list(consumers[conv_id])
    while stack:
        nid = stack.pop()
        node = g.nodes[nid]
        op = OPS[node.kind]
        if op.role == "pin":
            return f"output channels are pinned by {node.kind} node {nid!r}"
        if op.role == "pass":
            stack.extend(consumers[nid])
        if op.params:
            plan.append(nid)
    for nid in plan:
        node = g.nodes[nid]
        if node.kind != "bn":
            continue
        lam = bn_params(node).lam(node.params["gamma"].dtype)
        if np.any(lam[zero_idx] != 0):
            raise InconsistentMask(
                f"bn {nid!r}: removed channels {zero_idx} have nonzero shift "
                "(beta - omega * mean); rerun a pruning epoch so masked "
                "channels emit exact zeros before materializing"
            )
    return plan


def _apply_slice(node: Node, keep_idx: np.ndarray, shapes) -> None:
    """Delete the input channels not in keep_idx from a bn, conv or fc."""
    node.params = dict(node.params)
    node.attrs = dict(node.attrs)
    if node.kind == "bn":
        for pname in ("gamma", "beta", "mean", "var"):
            node.params[pname] = Tensor(node.params[pname].data[:, keep_idx])
        frozen = node.attrs.get("frozen", ())
        if frozen:
            node.attrs["frozen"] = tuple(frozen[i] for i in keep_idx)
    elif node.kind == "conv":
        spec: ConvSpec = node.attrs["spec"]
        node.params["weight"] = Tensor._wrap(node.params["weight"].data.take(keep_idx, axis=1))
        node.attrs["spec"] = replace(spec, c=len(keep_idx))
    else:  # fc: its flattened input holds each channel h*w times
        _, c, h, w = shapes[node.inputs[0]]
        cols = np.array([ch * h * w + j for ch in keep_idx for j in range(h * w)], dtype=int)
        node.params["weight"] = Tensor._wrap(node.params["weight"].data.take(cols, axis=1))


def materialize(g: Graph, mask: PruneMask, report: FusionReport | None = None) -> MaterializeResult:
    """Physically delete zeroized filters; bit-exact by construction.

    Every conv in the mask is checked first (lengths, actual zeros, bn
    shifts), then filters, bn channels and downstream input channels or fc
    columns are removed in one pass. Convs whose channel count is pinned by
    an add, concat or the output keep their zero filters; the summary says
    so per conv. The input graph is never mutated.
    """
    shapes = validate(g)
    for nid in mask.keep:
        if nid not in g.nodes or g.nodes[nid].kind != "conv":
            raise InconsistentMask(f"mask covers {nid!r}, which is not a conv in the graph")
    out = g.copy()
    consumers = out.consumers()
    summary: list[dict] = []
    touched: dict[str, str] = {}
    for nid in shapes:
        node = out.nodes[nid]
        if node.kind != "conv" or nid not in mask.keep:
            continue
        spec: ConvSpec = node.attrs["spec"]
        flags = mask.keep[nid]
        if len(flags) != spec.k:
            raise InconsistentMask(
                f"conv {nid!r}: mask covers {len(flags)} filters, conv has {spec.k}"
            )
        zero_idx = [i for i, f in enumerate(flags) if not f]
        if not zero_idx:
            continue
        _check_zeroized(node, zero_idx)
        if len(zero_idx) == spec.k:
            raise InconsistentMask(f"conv {nid!r}: mask would remove every filter")
        plan = _slice_plan(out, consumers, nid, zero_idx)
        if isinstance(plan, str):
            summary.append({"conv": nid, "removed": 0, "kept": spec.k,
                            "zeroized": len(zero_idx), "blocked": plan})
            continue
        for target in plan:
            if target in touched:
                raise CouplingConflict(
                    f"node {target!r} would be sliced by both {touched[target]!r} "
                    f"and {nid!r}"
                )
            touched[target] = nid
        keep_idx = np.array([i for i, f in enumerate(flags) if f], dtype=int)
        node.params = dict(node.params)
        node.attrs = dict(node.attrs)
        node.params["weight"] = Tensor._wrap(node.params["weight"].data[keep_idx])
        if spec.has_bias:
            node.params["bias"] = Tensor(node.params["bias"].data[:, keep_idx])
        node.attrs["spec"] = replace(spec, k=len(keep_idx))
        for target in plan:
            _apply_slice(out.nodes[target], keep_idx, shapes)
        summary.append({"conv": nid, "removed": len(zero_idx), "kept": len(keep_idx),
                        "zeroized": len(zero_idx), "blocked": None})
    validate(out)
    return MaterializeResult(graph=out, summary=summary)
