"""Equivalence-preserving fusion of residual blocks into plain conv chains.

One rewrite eliminates the element-wise add of a residual block (and the
shortcut's conv and bn, where it has them) by enlarging the two main-path
convolutions. It first turns the shortcut into a binary64 conv (weights,
bias, stride): a projection shortcut is its 1x1 conv with its bn folded
in, and an identity shortcut is the 1x1 identity projection, stride 1,
zero bias and no bn. The same steps then fuse either:

* conv1 gains C "passthrough" filters: identity weights that copy the
  block input into C extra output channels. They inherit conv1's stride
  and padding, so for a stride-2 entry block the passthrough is exactly
  the 1x1/stride-2 subsample the shortcut would have seen.
* bn1, when present, is extended over the extra channels with exact
  identity parameters (gamma=1, beta=0, mean=0, var=1-eps, so that
  omega = 1 and lambda = 0 in the working precision) and those channels
  are flagged frozen so later training never changes them.
* The relu between the convs forwards the passthrough unchanged; this is
  the one step that needs the block input to be non-negative, so fusion
  requires the input to be produced by a relu (or an explicit override).
* conv2 gains C input channels per filter, which read the passthrough
  through the shortcut's weights zero-padded to conv2's kernel size, and
  the shortcut's bias joins conv2's. When conv2 is followed by bn2, both
  are divided per filter by bn2's omega so the shortcut contribution
  passes through bn2 unchanged: omega*(main + short/omega) =
  omega*main + short.

A fused conv keeps a record (m original filters, n current filters, the
provenance of every filter and input channel) so pruning can later restore
the original widths exactly.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field

import numpy as np

from .graph import (Graph, Node, _checked, _conv_bias, _is_int, atomic_write, bn_affine,
                    set_weights, validate)
from .tensor import ConvSpec, Tensor, TensorError

OMEGA_MIN = 1e-3

PROVENANCE_ORIGINAL = "original"
PROVENANCE_IDENTITY = "xconv-identity"
PROVENANCE_PROJECTION = "pconv-projection"

_TAG_RE = re.compile(r"stage(\d+)\.block(\d+)")


class FusionError(Exception):
    """Base class for fusion failures."""


class NonOddKernel(FusionError):
    pass


class NearZeroOmega(FusionError):
    pass


class PatternMismatch(FusionError):
    pass


class StrideMismatch(FusionError):
    pass


class BnWithoutPrecedingConv(FusionError):
    pass


@dataclass(frozen=True)
class FusionOption:
    """Which blocks to fuse: the first `x` of `n` stages, or explicit
    per-stage block counts (fuse the first s_i blocks of stage i)."""

    total: int
    stages: int | None = None
    per_stage: tuple[int, ...] | None = None

    def __post_init__(self):
        if (self.stages is None) == (self.per_stage is None):
            raise ValueError("FusionOption needs exactly one of stages / per_stage")
        if self.total < 1:
            raise ValueError("stage count must be >= 1")
        if self.stages is not None and not 0 <= self.stages <= self.total:
            raise ValueError(f"stage prefix {self.stages} outside 0..{self.total}")
        if self.per_stage is not None:
            if len(self.per_stage) != self.total:
                raise ValueError("per-stage counts must cover every stage")
            if any(s < 0 for s in self.per_stage):
                raise ValueError("per-stage counts must be >= 0")

    @classmethod
    def parse(cls, text: str) -> "FusionOption":
        text = text.strip()
        m = re.fullmatch(r"(\d+)\s*/\s*(\d+)", text)
        if m:
            return cls(total=int(m.group(2)), stages=int(m.group(1)))
        m = re.fullmatch(r"\(?\s*(\d+(?:\s*,\s*\d+)*)\s*\)?", text)
        if m:
            counts = tuple(int(p) for p in m.group(1).split(","))
            return cls(total=len(counts), per_stage=counts)
        raise ValueError(f"cannot parse fusion option {text!r}; want 'x/n' or '(s1,...,sn)'")

    def __str__(self) -> str:
        if self.stages is not None:
            return f"{self.stages}/{self.total}"
        return "(" + ",".join(str(s) for s in self.per_stage) + ")"


@dataclass
class ConvFusion:
    """Record of one conv touched by fusion.

    m is the filter count before fusion, n after. provenance has one label
    per filter; channel_provenance one label per input channel. removed
    lists the node ids the block rewrite deleted.
    """

    m: int
    n: int
    provenance: list[str]
    channel_provenance: list[str]
    block: str | None
    removed: list[str] = field(default_factory=list)


@dataclass
class FusionReport:
    convs: dict[str, ConvFusion] = field(default_factory=dict)
    skipped: list[dict] = field(default_factory=list)
    option: str | None = None

    def to_json_obj(self) -> dict:
        return {
            "option": self.option,
            "skipped": list(self.skipped),
            "convs": {
                nid: {
                    "m": cf.m,
                    "n": cf.n,
                    "provenance": list(cf.provenance),
                    "channel_provenance": list(cf.channel_provenance),
                    "block": cf.block,
                    "removed": list(cf.removed),
                }
                for nid, cf in self.convs.items()
            },
        }

    @classmethod
    def from_json_obj(cls, obj) -> "FusionReport":
        """The report a report file's JSON holds: ValueError unless each conv
        entry has integer m and n and lists of strings for its provenance,
        channel_provenance and removed fields, skipped is a list of objects
        and option a string or null."""
        try:
            return cls(
                convs={nid: _conv_fusion(nid, raw) for nid, raw in obj.get("convs", {}).items()},
                skipped=list(_checked("skipped", obj.get("skipped", []), lambda v: isinstance(
                    v, list) and all(isinstance(e, dict) for e in v), "a list of objects",
                    "field")),
                option=_checked("option", obj.get("option"), _is_str_or_null,
                                "a string or null", "field"),
            )
        except (AttributeError, TypeError) as exc:
            raise ValueError(f"malformed fusion report: {exc}") from exc

    def save(self, path) -> None:
        with atomic_write(path) as fh:
            fh.write((json.dumps(self.to_json_obj(), indent=2, sort_keys=True) + "\n").encode())

    @classmethod
    def load(cls, path) -> "FusionReport":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json_obj(json.load(fh))


def _is_str_or_null(v) -> bool:
    return v is None or isinstance(v, str)


def _conv_fusion(nid: str, raw: dict) -> ConvFusion:
    where = f"conv {nid!r} field"

    def labels(key, value):
        return list(_checked(key, value, lambda v: isinstance(v, list) and all(
            isinstance(i, str) for i in v), "a list of strings", where))

    m, n = (_checked(key, raw.get(key), _is_int, "an integer", where) for key in ("m", "n"))
    return ConvFusion(
        m=m, n=n, provenance=labels("provenance", raw.get("provenance")),
        channel_provenance=labels("channel_provenance", raw.get("channel_provenance", [])),
        block=_checked("block", raw.get("block"), _is_str_or_null, "a string or null", where),
        removed=labels("removed", raw.get("removed", [])),
    )


@dataclass
class BlockMatch:
    """A matched residual block; ids of every participating node."""

    kind: str  # "basic" | "projection"
    input_id: str
    conv1: str
    bn1: str | None
    relu1: str
    conv2: str
    bn2: str | None
    shortcut_conv: str | None
    shortcut_bn: str | None
    add: str
    relu_out: str
    tag: str | None

    @property
    def with_bn(self) -> bool:
        return self.bn1 is not None and self.bn2 is not None

    def internal_ids(self) -> set[str]:
        return {nid for nid in (self.conv1, self.bn1, self.relu1, self.conv2, self.bn2,
                                self.shortcut_conv, self.shortcut_bn, self.add) if nid is not None}


def make_identity_weights(channels: int, r: int, s: int, dtype=np.float32) -> Tensor:
    """(channels, channels, r, s) weights whose conv is the identity map.

    Filter k is 1 at (k, center) and 0 elsewhere; with stride 1 and padding
    ((r-1)/2, (s-1)/2) the convolution reproduces its input bit for bit.
    Kernel dims must be odd so the center tap exists.
    """
    if channels < 1:
        raise FusionError("identity weights need at least one channel")
    if r % 2 == 0 or s % 2 == 0:
        raise NonOddKernel(f"identity weights need odd kernel dims, got {r}x{s}")
    w = np.zeros((channels, channels, r, s), dtype=dtype)
    w[np.arange(channels), np.arange(channels), (r - 1) // 2, (s - 1) // 2] = 1
    return Tensor._wrap(w)


def pad_conv_weights(w: Tensor, r: int, s: int) -> Tensor:
    """Zero-pad (K, C, r0, s0) weights to (K, C, r, s), original at the center.

    Requires r >= r0, s >= s0 with matching parity so the center is exact.
    With padding enlarged by the same amount, the padded conv computes the
    same function as the original (the index convention keeps output sizes
    equal: floor((h + 2(p+d) - (k+2d))/stride) = floor((h + 2p - k)/stride)).
    """
    k, c, r0, s0 = w.shape
    if r < r0 or s < s0:
        raise NonOddKernel(f"cannot pad {r0}x{s0} weights down to {r}x{s}")
    if (r - r0) % 2 != 0 or (s - s0) % 2 != 0:
        raise NonOddKernel(f"padding {r0}x{s0} to {r}x{s} has no exact center")
    out = np.zeros((k, c, r, s), dtype=w.dtype)
    ro, so = (r - r0) // 2, (s - s0) // 2
    out[:, :, ro : ro + r0, so : so + s0] = w.data
    return Tensor._wrap(out)


def adjust_identity_for_bn(w: Tensor, omega: np.ndarray, omega_min: float = OMEGA_MIN) -> Tensor:
    """Scale filter k by 1/omega_k so a following bn restores the raw values.

    bn multiplies channel k by omega_k, so pre-dividing the passthrough
    weights makes omega_k * (x / omega_k) return x up to rounding. Refuses
    ill-conditioned scaling when any |omega_k| < omega_min.
    """
    omega = np.asarray(omega).reshape(-1)
    if omega.shape[0] != w.shape[0]:
        raise FusionError(f"omega covers {omega.shape[0]} filters, weights have {w.shape[0]}")
    bad = np.abs(omega) < omega_min
    if np.any(bad):
        idx = int(np.argmax(bad))
        raise NearZeroOmega(
            f"|omega[{idx}]| = {abs(float(omega[idx])):.3e} < {omega_min:g}; "
            "inverse-bn adjustment would be ill-conditioned"
        )
    return Tensor._wrap(w.data / omega.astype(w.dtype)[:, None, None, None])


def _sole_consumer(consumers, nid):
    outs = consumers[nid]
    return outs[0] if len(outs) == 1 else None


def _block_tag(node: Node) -> str | None:
    for t in node.tags:
        if _TAG_RE.fullmatch(t):
            return t
    return None


def _conv_and_bn(g: Graph, nid: str) -> tuple[Node | None, str | None]:
    """(the conv, the bn's id) when nid is a bn reading a conv, (the conv,
    None) when it is a conv, and (None, None) otherwise."""
    node, bn = g.nodes[nid], None
    if node.kind == "bn":
        node, bn = g.nodes[node.inputs[0]], nid
    return (node, bn) if node.kind == "conv" else (None, None)


def _is_chain(consumers, ids) -> bool:
    """True when each of ids, None entries left out, feeds only the next."""
    chain = [nid for nid in ids if nid is not None]
    return all(_sole_consumer(consumers, a) == b for a, b in zip(chain, chain[1:]))


def _match_add(g: Graph, consumers, add: Node) -> BlockMatch | None:
    relu_out = _sole_consumer(consumers, add.id)
    if relu_out is None or g.nodes[relu_out].kind != "relu":
        return None
    a, b = add.inputs
    for main_tail, other in ((a, b), (b, a)):
        conv2, bn2 = _conv_and_bn(g, main_tail)
        if conv2 is None:
            continue
        r1 = g.nodes[conv2.inputs[0]]
        if r1.kind != "relu":
            continue
        conv1, bn1 = _conv_and_bn(g, r1.inputs[0])
        if conv1 is None or (bn1 is None) != (bn2 is None):
            continue
        x_id = conv1.inputs[0]
        # every internal node must feed only the next one in the block
        if not _is_chain(consumers, [conv1.id, bn1, r1.id, conv2.id, bn2, add.id]):
            continue
        common = dict(input_id=x_id, conv1=conv1.id, bn1=bn1, relu1=r1.id,
                      conv2=conv2.id, bn2=bn2, add=add.id, relu_out=relu_out,
                      tag=_block_tag(conv1))
        if other == x_id:
            return BlockMatch(kind="basic", shortcut_conv=None, shortcut_bn=None, **common)
        sc, sbn = _conv_and_bn(g, other)
        if sc is None or sc.inputs[0] != x_id or not _is_chain(consumers, [sc.id, sbn, add.id]):
            continue
        return BlockMatch(kind="projection", shortcut_conv=sc.id, shortcut_bn=sbn, **common)
    return None


def find_residual_blocks(g: Graph) -> list[BlockMatch]:
    """Match every residual block: x -> conv[-bn]-relu-conv[-bn] -> add(x or
    1x1-projection(x)) -> relu. Matches are disjoint and in topological order."""
    order = validate(g)
    consumers = g.consumers()
    matches: list[BlockMatch] = []
    used: set[str] = set()
    for nid in order:
        node = g.nodes[nid]
        match = _match_add(g, consumers, node) if node.kind == "add" else None
        if match is None or match.internal_ids() & used:
            continue
        used |= match.internal_ids()
        matches.append(match)
    return matches


def _centered(spec: ConvSpec) -> bool:
    return spec.pad == ((spec.r - 1) // 2, (spec.s - 1) // 2)


def _extend_bn_identity(bn: Node, extra: int) -> None:
    """Append `extra` exact-identity channels to a bn node and freeze them.
    A bn without frozen flags has none of its channels frozen."""
    dtype = bn.params["gamma"].dtype
    c = bn.params["gamma"].shape[1]
    bn.params = dict(bn.params)
    for name, v in (("gamma", 1), ("beta", 0), ("mean", 0),
                    ("var", dtype.type(1) - dtype.type(bn.attrs["eps"]))):
        bn.params[name] = Tensor._wrap(np.concatenate(
            [bn.params[name].data, np.full((1, extra, 1, 1), v, dtype)], axis=1), finite=True)
    bn.attrs = dict(bn.attrs, frozen=tuple(bn.attrs.get("frozen") or (0,) * c) + (1,) * extra)


def _provably_nonneg(g: Graph, nid: str) -> bool:
    """True when the node's output is non-negative by construction: a relu,
    or a max/avg pool or concat fed only by provably non-negative nodes."""
    node = g.nodes[nid]
    if node.kind == "relu":
        return True
    if node.kind in ("maxpool", "gavgpool", "concat"):
        return all(_provably_nonneg(g, src) for src in node.inputs)
    return False


def _folded(conv: Node, bn: Node | None, dtype) -> tuple[np.ndarray, np.ndarray]:
    """A conv's weights in dtype and its bias (zeros where it has none) at
    binary64, with the bn that reads it, when given, folded in: filter k
    scaled by omega_k and its bias made omega_k * b_k + lambda_k. Each
    weight product is formed at binary64 inside numpy's ufunc buffer (a
    binary32 w is widened exactly) and rounded to dtype once."""
    w = conv.params["weight"].data
    b = _conv_bias(conv)
    b = np.zeros(w.shape[0], np.float64) if b is None else b.astype(np.float64)
    if bn is None:
        return w.astype(dtype), b
    omega, lam = bn_affine(bn, np.float64)
    return (np.multiply(w, omega[:, None, None, None], out=np.empty(w.shape, dtype),
                        casting="same_kind"), omega * b + lam)


def _shortcut(g: Graph, match: BlockMatch) -> tuple[np.ndarray, np.ndarray, tuple]:
    """The block's shortcut as a binary64 1x1 conv: (its (k, c) weight
    plane, bias, stride). An identity shortcut is the stride-1 identity
    with zero bias; a projection is its 1x1 conv with its bn folded in."""
    c_in = g.nodes[match.conv1].attrs["spec"].c
    if match.shortcut_conv is None:
        return np.eye(c_in), np.zeros(c_in), (1, 1)
    sc = g.nodes[match.shortcut_conv]
    spec: ConvSpec = sc.attrs["spec"]
    if (spec.r, spec.s) != (1, 1):
        raise PatternMismatch(f"block {match.tag or match.add!r}: projection shortcut is "
                              f"{spec.r}x{spec.s}, only 1x1 is fusable")
    w, b = _folded(sc, None if match.shortcut_bn is None else g.nodes[match.shortcut_bn],
                   np.float64)
    return w.reshape(spec.k, spec.c), b, spec.stride


_CHANNEL_LABELS = {"basic": PROVENANCE_IDENTITY, "projection": PROVENANCE_PROJECTION}


def _fuse_block(g: Graph, match: BlockMatch, assume_nonneg: bool):
    """Rewrite one matched block in place; returns FusionReport entries.

    All guards run and all new weights are built before the graph is
    touched, so a raise leaves g unchanged.
    """
    where = f"block {match.tag or match.add!r}"
    if not assume_nonneg and not _provably_nonneg(g, match.input_id):
        raise PatternMismatch(
            f"{where}: input {match.input_id!r} "
            f"(a {g.nodes[match.input_id].kind}) is not provably non-negative; "
            "the relu between the enlarged convs must forward the passthrough "
            "unchanged (pass assume_nonneg to override)"
        )
    conv1 = g.nodes[match.conv1]
    conv2 = g.nodes[match.conv2]
    s1: ConvSpec = conv1.attrs["spec"]
    s2: ConvSpec = conv2.attrs["spec"]
    if (s1.r, s1.s) != (s2.r, s2.s) or s1.r % 2 == 0 or s1.s % 2 == 0:
        raise NonOddKernel(
            f"{where}: conv kernels {s1.r}x{s1.s} and {s2.r}x{s2.s} must be equal and odd"
        )
    if s2.stride != (1, 1):
        raise StrideMismatch(f"{where}: conv2 stride {s2.stride} != (1, 1)")
    if not _centered(s1) or not _centered(s2):
        raise PatternMismatch(f"{where}: conv padding is not centered")
    dtype = conv1.params["weight"].dtype
    if any(g.nodes[nid].params["weight"].dtype != dtype
           for nid in (match.conv2, match.shortcut_conv) if nid is not None):
        raise PatternMismatch(f"{where}: mixed conv weight dtypes")
    c_in, k1, k2 = s1.c, s1.k, s2.k
    removed = [nid for nid in (match.add, match.shortcut_conv, match.shortcut_bn)
               if nid is not None]

    # --- build everything up front -------------------------------------
    # The shortcut is assembled at binary64 and rounded to the graph dtype
    # once, as it is written into conv2's kernel center; chaining the
    # shortcut-bn fold and the 1/omega adjustment in the working precision
    # would round at every step. Its other taps are the zeros padding
    # makes, divided by omega2 like the center: -0.0 where omega2 < 0.
    plane, extra_bias, stride = _shortcut(g, match)
    if stride != s1.stride:
        raise StrideMismatch(f"{where}: shortcut stride {stride} != conv1 stride {s1.stride}")
    if plane.shape != (k2, c_in):
        raise PatternMismatch(f"{where}: the shortcut maps {plane.shape[1]} channels to "
                              f"{plane.shape[0]}, conv2 gives {k2} of the block's {c_in}")
    zero = np.zeros(k2)
    if match.bn2 is not None:
        # conv2's added weights pass through bn2 unchanged when divided by its omega
        omega2, _ = bn_affine(g.nodes[match.bn2], np.float64)
        plane = adjust_identity_for_bn(Tensor._wrap(plane[:, :, None, None]), omega2).data
        zero = zero / omega2
        extra_bias = extra_bias / omega2
    center = plane.reshape(k2, c_in).astype(dtype)
    b2 = _conv_bias(conv2)
    if np.any(extra_bias != 0):
        b2 = (extra_bias if b2 is None else b2.astype(np.float64) + extra_bias).astype(dtype)
    if not all(np.isfinite(a).all() for a in (center, b2) if a is not None):
        raise TensorError(f"{where}: the shortcut's weights or bias overflow {np.dtype(dtype)}")

    # conv1 and conv2 are each written once, from values known finite (their
    # Tensors' data, the identity's zeros and ones, the center
    # checked above), so set_weights does not scan them again
    cr, cs = (s1.r - 1) // 2, (s1.s - 1) // 2
    new_w1 = np.zeros((k1 + c_in, c_in, s1.r, s1.s), dtype)
    new_w1[:k1] = conv1.params["weight"].data
    new_w1[k1 + np.arange(c_in), np.arange(c_in), cr, cs] = 1
    b1 = _conv_bias(conv1)
    new_b1 = None if b1 is None else np.concatenate([b1, np.zeros(c_in, dtype)])
    new_w2 = np.empty((k2, k1 + c_in, s2.r, s2.s), dtype)
    new_w2[:, :k1] = conv2.params["weight"].data
    new_w2[:, k1:] = zero[:, None, None, None]
    new_w2[:, k1:, cr, cs] = center

    # --- commit ---------------------------------------------------------
    set_weights(conv1, new_w1, new_b1, finite=True)
    if match.bn1 is not None:
        _extend_bn_identity(g.nodes[match.bn1], c_in)
    set_weights(conv2, new_w2, b2, finite=True)
    relu_out = g.nodes[match.relu_out]
    tail = match.bn2 if match.bn2 is not None else match.conv2
    relu_out.inputs = [tail if nid == match.add else nid for nid in relu_out.inputs]
    for nid in removed:
        del g.nodes[nid]

    entry1 = ConvFusion(
        m=k1, n=k1 + c_in,
        provenance=[PROVENANCE_ORIGINAL] * k1 + [PROVENANCE_IDENTITY] * c_in,
        channel_provenance=[PROVENANCE_ORIGINAL] * c_in,
        block=match.tag, removed=removed,
    )
    entry2 = ConvFusion(
        m=k2, n=k2,
        provenance=[PROVENANCE_ORIGINAL] * k2,
        channel_provenance=[PROVENANCE_ORIGINAL] * k1 + [_CHANNEL_LABELS[match.kind]] * c_in,
        block=match.tag, removed=[],
    )
    return [(match.conv1, entry1), (match.conv2, entry2)]


def fuse_block(g: Graph, match: BlockMatch,
               assume_nonneg: bool = False) -> tuple[Graph, FusionReport]:
    """Fuse one identity- or projection-shortcut block, with or without
    main-path bn; returns (new graph, report)."""
    out = g.copy()
    entries = _fuse_block(out, match, assume_nonneg)
    validate(out)
    return out, FusionReport(convs=dict(entries))


def _selected_blocks(matches: list[BlockMatch], option: FusionOption) -> list[BlockMatch]:
    tagged: list[tuple[int, int, BlockMatch]] = []
    for m in matches:
        if m.tag is None:
            continue
        t = _TAG_RE.fullmatch(m.tag)
        tagged.append((int(t.group(1)), int(t.group(2)), m))
    if not tagged:
        raise PatternMismatch("graph has no stage-tagged residual blocks to select from")
    tagged.sort(key=lambda t: (t[0], t[1]))
    n_stages = max(t[0] for t in tagged)
    if option.total != n_stages:
        raise FusionError(
            f"option {option} addresses {option.total} stages but the graph has {n_stages}"
        )
    if option.stages is not None:
        return [m for i, _, m in tagged if i <= option.stages]
    selected = []
    for i, j, m in tagged:
        if j <= option.per_stage[i - 1]:
            selected.append(m)
    for stage in range(1, n_stages + 1):
        have = sum(1 for i, _, _ in tagged if i == stage)
        if option.per_stage[stage - 1] > have:
            raise FusionError(
                f"option {option} asks for {option.per_stage[stage - 1]} blocks "
                f"in stage {stage}, which has {have}"
            )
    return selected


def fuse(g: Graph, option: FusionOption | str,
         assume_nonneg: bool = False) -> tuple[Graph, FusionReport]:
    """Fuse the blocks selected by `option` over a stage-tagged graph.

    The rewrite is atomic: any failure other than NearZeroOmega raises and
    leaves the input graph untouched. Blocks whose inverse-bn adjustment
    would be ill-conditioned are skipped and recorded in report.skipped.
    """
    if isinstance(option, str):
        option = FusionOption.parse(option)
    matches = find_residual_blocks(g)
    report = FusionReport(option=str(option))
    out = g.copy()
    for match in _selected_blocks(matches, option):
        try:
            entries = _fuse_block(out, match, assume_nonneg)
        except NearZeroOmega as exc:
            report.skipped.append({"block": match.tag, "reason": str(exc)})
            continue
        for nid, entry in entries:
            report.convs[nid] = entry
    validate(out)
    return out, report


def fold_bn(g: Graph) -> Graph:
    """Fold every bn into its preceding conv and delete the bn nodes.

    For each bn with omega/lambda: the conv's filter k is scaled by
    omega_k and its bias becomes omega_k * b_k + lambda_k. Every bn must
    directly consume a conv whose only consumer it is. The fold is
    evaluated at binary64 and rounded to the graph dtype once, so each
    folded entry carries a single rounding instead of one per operation.
    g is validated first, so a bn with a negative var raises ShapeMismatch.
    """
    out = g.copy()
    consumers = out.consumers()
    for nid in validate(out):
        node = out.nodes.get(nid)
        if node is None or node.kind != "bn":
            continue
        src = out.nodes[node.inputs[0]]
        if src.kind != "conv":
            raise BnWithoutPrecedingConv(
                f"bn {nid!r} consumes a {src.kind}, not a conv; cannot fold"
            )
        if consumers[src.id] != [nid]:
            raise BnWithoutPrecedingConv(
                f"bn {nid!r}: conv {src.id!r} output is shared, folding would "
                "change its other consumers"
            )
        dtype = src.params["weight"].dtype
        w, b = _folded(src, node, dtype)
        set_weights(src, w, b.astype(dtype, copy=False))
        for other in out.nodes.values():
            other.inputs = [src.id if x == nid else x for x in other.inputs]
        del out.nodes[nid]
        consumers = out.consumers()
    validate(out)
    return out
