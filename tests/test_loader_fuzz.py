"""Fuzzing of the four file loaders on mutated and truncated bytes.

Each of the three JSON-bearing loaders reads a well-formed file cut short,
with a few bytes replaced, inserted or deleted at one place, or with one
value of its JSON (for a model, of its manifest) replaced by another JSON
value; a model may also have one field of one node (kind, inputs, tags,
an attrs value or a params entry) replaced by a drawn JSON value, which a
draw through the whole manifest seldom reaches. cli.read_tensor reads a
well-formed tensor file cut short, with a few bytes flipped at one place,
or under a drawn five-word header.
Whatever the bytes, graph.load may raise only GraphError (its
ModelFormatError) or ValueError, and PruneMask.load, FusionReport.load and
cli.read_tensor only ValueError: the errors the command line turns into
exit code 2.
"""

from __future__ import annotations

import json
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fuseprune.cli import read_tensor, write_tensor
from fuseprune.fusion import FusionReport, find_residual_blocks, fuse_block
from fuseprune.graph import GraphError, load, save
from fuseprune.pruning import PruneConfig, PruneMask, soft_prune_epoch
from fuseprune.tensor import Tensor

from conftest import (bn_node, conv_node, fc_node, make_graph, plain_node,
                      random_residual_block_graph)


def _every_kind():
    """A model with a node of every kind, and a tagged one, over a blob of a
    few hundred bytes."""
    rng = np.random.default_rng(0)
    nodes = [
        plain_node("in", "input", []),
        conv_node("conv", ["in"], 2, 1, weight=rng.standard_normal((2, 1, 3, 3)).astype(
            np.float32), bias=[0.5, -0.5], tags=["stage1.block1"]),
        bn_node("bn", ["conv"], 2),
        plain_node("relu", "relu", ["bn"]),
        plain_node("pool", "maxpool", ["relu"], window=(2, 2), stride=(2, 2), pad=(0, 0)),
        plain_node("add", "add", ["pool", "pool"]),
        plain_node("cat", "concat", ["add", "pool"]),
        plain_node("gap", "gavgpool", ["cat"]),
        fc_node("fc", ["gap"], 2, 4, weight=np.ones((2, 4, 1, 1), np.float32)),
        plain_node("out", "output", ["fc"]),
    ]
    return make_graph(nodes, "in", "out", (1, 1, 4, 4))


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """The bytes of a model, a mask, a fusion report and a tensor, all well
    formed."""
    folder = tmp_path_factory.mktemp("fuzz")
    g = random_residual_block_graph(np.random.default_rng(1), c_in=2, k=2, hw=4,
                                    projection=True)
    fused, report = fuse_block(g, find_residual_blocks(g)[0])
    mask = soft_prune_epoch(fused, report, PruneConfig(rate=0.3, mode="continued"))
    save(_every_kind(), folder / "m.fpm")
    mask.save(folder / "mask.json")
    report.save(folder / "report.json")
    write_tensor(folder / "x.bin", Tensor(np.arange(8, dtype=np.float32).reshape(1, 2, 2, 2)))
    return {name: (folder / name).read_bytes()
            for name in ("m.fpm", "mask.json", "report.json", "x.bin")}


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 9) | st.floats(allow_nan=False, width=32)
    | st.text(alphabet="mnxk01", max_size=3),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(
        st.text(alphabet="mnxk01", max_size=2), kids, max_size=3),
    max_leaves=4)


@st.composite
def replaced_value(draw, tree):
    """tree with the value at one drawn path replaced by a drawn JSON value."""
    if not isinstance(tree, (dict, list)) or not tree or draw(st.integers(0, 3)) == 0:
        return draw(JSON_VALUES)
    keys = list(tree) if isinstance(tree, dict) else list(range(len(tree)))
    key = draw(st.sampled_from(keys))
    out = dict(tree) if isinstance(tree, dict) else list(tree)
    out[key] = draw(replaced_value(tree[key]))
    return out


@st.composite
def node_field_replaced(draw, manifest):
    """A model manifest with one field of one node replaced by a drawn JSON
    value: its kind, inputs or tags, or one value of its attrs or params."""
    nodes = list(manifest["nodes"])
    at = draw(st.integers(0, len(nodes) - 1))
    node = dict(nodes[at])
    field = draw(st.sampled_from([("kind",), ("inputs",), ("tags",)]
                                 + [("attrs", key) for key in node["attrs"]]
                                 + [("params", key) for key in node["params"]]))
    value = draw(JSON_VALUES)
    node[field[0]] = value if len(field) == 1 else {**node[field[0]], field[1]: value}
    nodes[at] = node
    return {**manifest, "nodes": nodes}


@st.composite
def mutated(draw, data: bytes, manifest_at: int | None = None) -> bytes:
    """data cut short, with a short run of bytes replaced at one place, or
    with one JSON value replaced; manifest_at is where a model's manifest
    starts, after its 4 magic bytes and its u32 length, and a model may
    also have one field of one node replaced (node_field_replaced)."""
    how = draw(st.sampled_from(("cut", "bytes", "json")
                               + (("node",) if manifest_at is not None else ())))
    at = draw(st.integers(0, len(data)))
    if how == "cut":
        return data[:at]
    if how == "bytes":
        junk = draw(st.binary(max_size=4) | st.text(
            alphabet='{}[]",:0123456789-.truefalsn ', max_size=4).map(str.encode))
        return data[:at] + junk + data[at + draw(st.integers(0, 4)):]
    if manifest_at is None:
        return json.dumps(draw(replaced_value(json.loads(data)))).encode()
    length = int.from_bytes(data[4:manifest_at], "little")
    manifest = json.loads(data[manifest_at:manifest_at + length])
    replace = node_field_replaced if how == "node" else replaced_value
    text = json.dumps(draw(replace(manifest))).encode()
    return data[:4] + len(text).to_bytes(4, "little") + text + data[manifest_at + length:]


# a header word: small, so that some drawn shapes fit the data, or any u32
HEADER_WORD = st.integers(0, 4) | st.integers(0, 2**32 - 1)


@st.composite
def mutated_tensor(draw, data: bytes) -> bytes:
    """A tensor file cut short, with a short run of bytes flipped at one
    place, or with its five-word header (dtype tag, four dims) drawn."""
    how = draw(st.sampled_from(("cut", "flip", "header")))
    if how == "cut":
        return data[:draw(st.integers(0, len(data)))]
    if how == "flip":
        at = draw(st.integers(0, len(data) - 1))
        masks = draw(st.binary(min_size=1, max_size=4).filter(any))
        run = bytes(b ^ m for b, m in zip(data[at:], masks))
        return data[:at] + run + data[at + len(run):]
    words = draw(st.lists(HEADER_WORD, min_size=5, max_size=5))
    return struct.pack("<5I", *words) + data[struct.calcsize("<5I"):]


FUZZ = settings(max_examples=150, deadline=None, derandomize=True,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


def _load_mutated(loader, data, tmp_path, allowed):
    path = tmp_path / "fuzzed"
    path.write_bytes(data)
    try:
        loader(path)
    except allowed:
        pass


@FUZZ
@given(st.data())
def test_graph_load_raises_only_typed_errors(files, tmp_path, data):
    _load_mutated(load, data.draw(mutated(files["m.fpm"], manifest_at=8)), tmp_path,
                  (GraphError, ValueError))


@FUZZ
@given(st.data())
def test_mask_load_raises_only_value_error(files, tmp_path, data):
    _load_mutated(PruneMask.load, data.draw(mutated(files["mask.json"])), tmp_path, ValueError)


@FUZZ
@given(st.data())
def test_report_load_raises_only_value_error(files, tmp_path, data):
    _load_mutated(FusionReport.load, data.draw(mutated(files["report.json"])), tmp_path,
                  ValueError)


@FUZZ
@given(st.data())
def test_read_tensor_raises_only_value_error(files, tmp_path, data):
    _load_mutated(read_tensor, data.draw(mutated_tensor(files["x.bin"])), tmp_path, ValueError)
