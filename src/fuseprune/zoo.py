"""Reference residual-network builders.

Five families are provided. The two compact families use a 3x3 stem and
three stages; the two larger families use a 7x7/stride-2 stem, a 3x3
max pool and four stages; resnet8-tiny is a desk-scale three-stage model
with one block per stage for fast end-to-end experiments.

family        stem                 stages           filters            head
resnet20      3x3/16, stride 1     3, 3, 3          16, 32, 64         fc 10
resnet32      3x3/16, stride 1     5, 5, 5          16, 32, 64         fc 10
resnet8-tiny  3x3/8,  stride 1     1, 1, 1          8, 16, 32          fc 10
resnet18      7x7/64, stride 2     2, 2, 2, 2       64, 128, 256, 512  fc 1000
resnet34      7x7/64, stride 2     3, 4, 6, 3       64, 128, 256, 512  fc 1000

Every block is two 3x3 convolutions, each followed by batch norm, with a
shortcut added before the final relu. The first block of every stage after
stage 1 halves the spatial size with stride 2 and uses a 1x1/stride-2
projection (conv + bn) on its shortcut; all other shortcuts are identities.
Stage stems for the larger families put a 3x3/stride-2 max pool after the
first relu. A global average pool feeds the final fully connected layer.
All nodes inside a block carry the tag "stage<i>.block<j>".
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .graph import Graph, Node
from .tensor import _BLOCK_BYTES, DTYPE_FROM_NAME, ConvSpec, Tensor


@dataclass(frozen=True)
class _Family:
    stages: tuple[int, ...]
    filters: tuple[int, ...]
    stem_kernel: int
    stem_stride: int
    stem_pool: bool
    classes: int
    input_shape: tuple[int, int, int, int]


FAMILIES: dict[str, _Family] = {
    "resnet20": _Family((3, 3, 3), (16, 32, 64), 3, 1, False, 10, (1, 3, 32, 32)),
    "resnet32": _Family((5, 5, 5), (16, 32, 64), 3, 1, False, 10, (1, 3, 32, 32)),
    "resnet8-tiny": _Family((1, 1, 1), (8, 16, 32), 3, 1, False, 10, (1, 3, 8, 8)),
    "resnet18": _Family((2, 2, 2, 2), (64, 128, 256, 512), 7, 2, True, 1000, (1, 3, 224, 224)),
    "resnet34": _Family((3, 4, 6, 3), (64, 128, 256, 512), 7, 2, True, 1000, (1, 3, 224, 224)),
}


@dataclass
class ZooSpec:
    """What to build: family name plus optional overrides."""

    family: str
    input_shape: tuple[int, int, int, int] | None = None
    classes: int | None = None
    dtype: str = "f32"
    seed: int = 0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; have {sorted(FAMILIES)}")
        if self.dtype not in DTYPE_FROM_NAME:
            raise ValueError(f"unknown dtype {self.dtype!r}")
        if self.input_shape is not None:
            self.input_shape = tuple(int(d) for d in self.input_shape)
            if len(self.input_shape) != 4 or any(d < 1 for d in self.input_shape):
                raise ValueError(f"bad input_shape {self.input_shape}")
        if self.classes is not None and self.classes < 2:
            raise ValueError("classes must be >= 2")


def _conv(nid, src, k, c, kernel, stride, dtype, tags):
    pad = (kernel - 1) // 2
    spec = ConvSpec(k=k, c=c, r=kernel, s=kernel, stride=(stride, stride), pad=(pad, pad))
    return Node(id=nid, kind="conv", inputs=[src], attrs={"spec": spec},
                params={"weight": Tensor.zeros(spec.weight_shape, dtype)}, tags=list(tags))


def _bn(nid, src, c, dtype, tags):
    one = Tensor._wrap(np.ones((1, c, 1, 1), dtype), finite=True)
    zero = Tensor.zeros((1, c, 1, 1), dtype)
    return Node(id=nid, kind="bn", inputs=[src],
                attrs={"eps": 1e-5, "frozen": tuple([0] * c)},
                params={"gamma": one, "beta": zero, "mean": zero, "var": one}, tags=list(tags))


def build(spec: ZooSpec) -> Graph:
    """Construct the family's graph and initialize its weights (see init_weights)."""
    fam = FAMILIES[spec.family]
    dtype = DTYPE_FROM_NAME[spec.dtype]
    input_shape = spec.input_shape or fam.input_shape
    classes = spec.classes or fam.classes

    nodes: list[Node] = [Node(id="input", kind="input")]
    nodes.append(_conv("conv1", "input", fam.filters[0], input_shape[1],
                       fam.stem_kernel, fam.stem_stride, dtype, ()))
    nodes.append(_bn("bn1", "conv1", fam.filters[0], dtype, ()))
    nodes.append(Node(id="relu1", kind="relu", inputs=["bn1"]))
    prev = "relu1"
    if fam.stem_pool:
        nodes.append(Node(id="maxpool", kind="maxpool", inputs=[prev],
                          attrs={"window": (3, 3), "stride": (2, 2), "pad": (1, 1)}))
        prev = "maxpool"

    in_ch = fam.filters[0]
    for stage_idx, (blocks, out_ch) in enumerate(zip(fam.stages, fam.filters), start=1):
        for block_idx in range(1, blocks + 1):
            tag = f"stage{stage_idx}.block{block_idx}"
            stride = 2 if (stage_idx > 1 and block_idx == 1) else 1
            base = f"{tag}."
            nodes.append(_conv(base + "conv1", prev, out_ch, in_ch, 3, stride, dtype, (tag,)))
            nodes.append(_bn(base + "bn1", base + "conv1", out_ch, dtype, (tag,)))
            nodes.append(Node(id=base + "relu1", kind="relu", inputs=[base + "bn1"], tags=[tag]))
            nodes.append(_conv(base + "conv2", base + "relu1", out_ch, out_ch, 3, 1, dtype, (tag,)))
            nodes.append(_bn(base + "bn2", base + "conv2", out_ch, dtype, (tag,)))
            if stride != 1 or in_ch != out_ch:
                nodes.append(_conv(base + "down.conv", prev, out_ch, in_ch, 1, stride, dtype, (tag,)))
                nodes.append(_bn(base + "down.bn", base + "down.conv", out_ch, dtype, (tag,)))
                shortcut = base + "down.bn"
            else:
                shortcut = prev
            nodes.append(Node(id=base + "add", kind="add",
                              inputs=[base + "bn2", shortcut], tags=[tag]))
            nodes.append(Node(id=base + "relu2", kind="relu", inputs=[base + "add"], tags=[tag]))
            prev = base + "relu2"
            in_ch = out_ch

    nodes.append(Node(id="gavgpool", kind="gavgpool", inputs=[prev]))
    fc_w = Tensor.zeros((classes, in_ch, 1, 1), dtype)
    fc_b = Tensor.zeros((1, classes, 1, 1), dtype)
    nodes.append(Node(id="fc", kind="fc", inputs=["gavgpool"],
                      params={"weight": fc_w, "bias": fc_b}))
    nodes.append(Node(id="output", kind="output", inputs=["fc"]))

    g = Graph(nodes={n.id: n for n in nodes}, input_id="input", output_id="output",
              input_shape=tuple(input_shape))
    return init_weights(g, spec.seed)


def _normal(rng: np.random.Generator, shape, std, dtype) -> Tensor:
    """A Tensor of N(0, std^2) draws in dtype, as rng.standard_normal(shape)
    * std rounded to dtype gives them: drawn in order at binary64 and scaled
    into the result a block of at most tensor._BLOCK_BYTES at a time, so a
    binary32 weight never has a full-size binary64 copy. A standard normal
    draw is finite, and so is the result, which is not scanned again."""
    flat = np.empty(shape, dtype).reshape(-1)
    block = np.empty(min(flat.size, _BLOCK_BYTES // 8))
    for i in range(0, flat.size, block.size):
        part = block[:flat.size - i]
        rng.standard_normal(out=part)
        np.multiply(part, std, out=flat[i:i + block.size], casting="same_kind")
    return Tensor._wrap(flat.reshape(shape), finite=True)


def init_weights(g: Graph, seed: int) -> Graph:
    """Kaiming fan-in init for conv/fc weights; bn starts as the identity map.

    Conv weights are N(0, 2/(c*r*s)); fc weights are N(0, 2/in); biases are
    zero; bn gets gamma=1, beta=0, mean=0, var=1. Deterministic in `seed`
    (draws happen in topological node order). Mutates and returns g.
    """
    rng = np.random.default_rng(seed)
    for nid in g.topo_order():
        node = g.nodes[nid]
        if node.kind == "conv":
            spec: ConvSpec = node.attrs["spec"]
            dtype = node.params["weight"].dtype
            std = np.sqrt(2.0 / (spec.c * spec.r * spec.s))
            node.params["weight"] = _normal(rng, spec.weight_shape, std, dtype)
            if spec.has_bias:
                node.params["bias"] = Tensor.zeros((1, spec.k, 1, 1), dtype)
        elif node.kind == "fc":
            wt = node.params["weight"]
            fout, fin = wt.shape[0], wt.shape[1]
            std = np.sqrt(2.0 / fin)
            node.params["weight"] = _normal(rng, (fout, fin, 1, 1), std, wt.dtype)
            if "bias" in node.params:
                node.params["bias"] = Tensor.zeros((1, fout, 1, 1), wt.dtype)
        elif node.kind == "bn":
            c = node.params["gamma"].shape[1]
            dtype = node.params["gamma"].dtype
            for name, fill in (("gamma", 1), ("beta", 0), ("mean", 0), ("var", 1)):
                node.params[name] = Tensor._wrap(np.full((1, c, 1, 1), fill, dtype), finite=True)
    return g
