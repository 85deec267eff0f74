"""Graph-level tests of the bitwise promise: masked == materialized, byte for byte.

graph.execute marks the channels that are exactly zero from the weights
alone (the zeros rule of each kind's graph.OPS record), and every conv
leaves them out of its GEMMs. A masked model and its materialization then
run the same GEMMs on the same compacted operands, so their outputs agree
bit for bit. These tests check that over the whole zoo and, on hand-built
graphs, the cases the marks must get right: a blocked conv that keeps its
zero filters, a filter that is zero by chance, which is dead only where
the following bn's shift is zero and which materialize keeps, as it
deletes by the mask and not by the zero marks, and an fc that reads a
spatial map, where each channel's mark covers h*w of its inputs. The zoo
sweep drives resnet18 and resnet34 through stage-4 convs on 1x1 maps (2x2
for their stride-2 conv), where conv2d_chwn drops the taps that read only
padding, on both sides.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fuseprune import graph
from fuseprune.fusion import fuse
from fuseprune.graph import execute
from fuseprune.pruning import PruneConfig, PruneMask, _zeroize, materialize, soft_prune_epoch
from fuseprune.tensor import DTYPE_FROM_NAME, Tensor
from fuseprune.zoo import FAMILIES, ZooSpec, build

from conftest import bn_node, conv_node, fc_node, make_graph, plain_node
from oracles import bn_brute, conv2d_brute, fc_brute

SCENARIOS = (("conservative", 0.0), ("continued", 0.1), ("continued", 0.3))
INPUT_SCALE = 0.1  # as in tests/test_acceptance.py
TOL = {"f32": 1e-4, "f64": 1e-10}  # the acceptance suite's tolerances


def zoo_hw(family):
    return 8 if family == "resnet8-tiny" else 32


def stage_options(family):
    n = len(FAMILIES[family].stages)
    return [f"{x}/{n}" for x in range(n + 1)]


def pruned_pair(fused, report, mode, rate):
    masked = fused.copy()
    mask = soft_prune_epoch(masked, report, PruneConfig(rate=rate, mode=mode))
    return masked, materialize(masked, mask, report)


def same_bytes(a: Tensor, b: Tensor) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.data.tobytes() == b.data.tobytes()


def zero_filters(weight: Tensor) -> np.ndarray:
    """The bool mask of a conv weight's filters that are all exactly zero."""
    return ~weight.data.reshape(weight.shape[0], -1).any(axis=1)


def zero_marks(g, x):
    """The zero-channel marks of every node of g, as execute derives them."""
    marks = {}
    for nid in g.topo_order():
        node = g.nodes[nid]
        marks[nid] = (None if node.kind == "input" else
                      graph.OPS[node.kind].zeros(node, [marks[s] for s in node.inputs], x.dtype))
    return marks


def assert_same_live_counts(masked, small, x):
    """Every node has as many unmarked channels in the masked graph as in its
    materialization, so each conv's GEMM has the same shape on both sides."""
    live = {}
    for side, g in (("masked", masked), ("small", small)):
        shapes, marks = graph.validate(g), zero_marks(g, x)
        live[side] = {nid: shapes[nid][1] - (0 if m is None else int(m.sum()))
                      for nid, m in marks.items()}
    assert live["masked"] == live["small"]


@pytest.mark.parametrize("dtype", ("f32", "f64"))
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_zoo_masked_equals_materialized(family, dtype):
    # every stage-prefix fusion option, conservative and continued pruning,
    # at batch 1; batch 32 (most of the time) with no block and every block fused
    hw = zoo_hw(family)
    g = build(ZooSpec(family, input_shape=(1, 3, hw, hw), dtype=dtype, seed=3))
    rng = np.random.default_rng(4)
    x32 = Tensor(rng.standard_normal((32, 3, hw, hw)) * INPUT_SCALE, DTYPE_FROM_NAME[dtype])
    x1 = Tensor(x32.data[:1])
    options = stage_options(family)
    removed = blocked = 0
    for option in options:
        fused, report = fuse(g, option)
        for mode, rate in SCENARIOS:
            masked, res = pruned_pair(fused, report, mode, rate)
            assert_same_live_counts(masked, res.graph, x1)
            for x in (x32, x1) if option in (options[0], options[-1]) else (x1,):
                assert same_bytes(execute(masked, x), execute(res.graph, x)), (option, mode, rate)
            removed += sum(rec["removed"] for rec in res.summary)
            blocked += sum(1 for rec in res.summary if rec["blocked"])
    assert removed > 0 and blocked > 0


@pytest.mark.parametrize("dtype", ("f32", "f64"))
def test_odd_batch_masked_equals_materialized(dtype):
    # the activations are (c, h, w, n), so a conv's GEMM has ho*wo*n columns;
    # at batch 5 they are 320, 80 and 20 on the 8x8, 4x4 and 2x2 maps and 5
    # for the fc, and the last two end in a partial 16-wide block
    g = build(ZooSpec("resnet8-tiny", input_shape=(1, 3, 8, 8), dtype=dtype, seed=3))
    x = Tensor(np.random.default_rng(4).standard_normal((5, 3, 8, 8)) * INPUT_SCALE,
               DTYPE_FROM_NAME[dtype])
    for option in ("0/3", "3/3"):
        fused, report = fuse(g, option)
        masked, res = pruned_pair(fused, report, "continued", 0.3)
        assert sum(rec["removed"] for rec in res.summary) > 0
        assert_same_live_counts(masked, res.graph, x)
        assert same_bytes(execute(masked, x), execute(res.graph, x)), option


def test_blocked_conv_is_compacted_on_both_sides():
    # resnet20 unfused, continued 0.3: the convs that feed an add keep their
    # zeroized filters, so both graphs carry them and both must leave them
    # (and the channels they feed) out of the GEMMs
    g = build(ZooSpec("resnet20", input_shape=(1, 3, 8, 8), seed=5))
    masked, res = pruned_pair(g, None, "continued", 0.3)
    blocked = [rec for rec in res.summary if rec["blocked"]]
    assert blocked and all(rec["zeroized"] > 0 for rec in blocked)
    x = Tensor(np.random.default_rng(6).standard_normal((32, 3, 8, 8)) * INPUT_SCALE, np.float32)
    marks = {"masked": zero_marks(masked, x), "materialized": zero_marks(res.graph, x)}
    for rec in blocked:
        zeroed = list(np.flatnonzero(zero_filters(res.graph.node(rec["conv"]).params["weight"])))
        assert len(zeroed) == rec["zeroized"]
        for side in marks.values():
            assert list(np.flatnonzero(side[rec["conv"]])) == zeroed
    assert same_bytes(execute(masked, x), execute(res.graph, x))


@pytest.mark.parametrize("dtype", ("f32", "f64"))
@pytest.mark.parametrize("family", ("resnet8-tiny", "resnet20"))
def test_passthrough_of_a_removed_stem_channel_is_dead_on_both_sides(family, dtype):
    # With the first block fused, conv1' filter c1 + j is a passthrough that
    # reads only stem channel j. Shrinking the block's own filters lets every
    # passthrough win the norm contest, while continued pruning zeroizes some
    # stem filters j. materialize deletes conv1' input channel j, which leaves
    # filter c1 + j all zero, so the masked graph must mark it dead as well.
    hw = zoo_hw(family)
    g = build(ZooSpec(family, input_shape=(1, 3, hw, hw), dtype=dtype, seed=3))
    fid = "stage1.block1.conv1"
    c1 = g.node(fid).attrs["spec"].k
    g.node(fid).params["weight"] = Tensor(g.node(fid).params["weight"].data * 0.01)
    fused, report = fuse(g, f"1/{len(FAMILIES[family].stages)}")
    masked, res = pruned_pair(fused, report, "continued", 0.3)
    stem_dead = np.flatnonzero(zero_filters(masked.node("conv1").params["weight"]))
    zeroized = zero_filters(masked.node(fid).params["weight"])
    passthrough = c1 + stem_dead
    assert len(stem_dead) > 0 and not zeroized[passthrough].any()
    x = Tensor(np.random.default_rng(9).standard_normal((32, 3, hw, hw)) * INPUT_SCALE,
               DTYPE_FROM_NAME[dtype])
    kept = np.flatnonzero(~zeroized)
    assert list(np.flatnonzero(zero_marks(masked, x)[fid])) == sorted(
        np.flatnonzero(zeroized).tolist() + passthrough.tolist())
    assert list(np.flatnonzero(zero_marks(res.graph, x)[fid])) == list(
        np.searchsorted(kept, passthrough))
    assert_same_live_counts(masked, res.graph, x)
    for xb in (x, Tensor(x.data[:1])):
        assert same_bytes(execute(masked, xb), execute(res.graph, xb))


def chance_zero_graph(rng, dt, shift):
    """in -> conv1 (6 filters) -> bn1 -> relu -> conv2 -> bn2 -> relu -> gap -> fc.

    conv1's filters 0 and 4 are zeroized as soft pruning leaves them (their
    bn1 beta and mean cleared); filter 2 is all zero as well but is not in
    the mask, and bn1's beta for it is `shift` with mean 0, so bn1 maps it
    to the constant `shift`.
    """
    w1 = (rng.standard_normal((6, 3, 3, 3)) * 0.4).astype(dt)
    w1[[0, 2, 4]] = 0
    beta = rng.uniform(-0.4, 0.4, 6)
    mean = rng.uniform(-0.4, 0.4, 6)
    beta[[0, 4]] = mean[[0, 4]] = 0
    beta[2], mean[2] = shift, 0
    nodes = [
        plain_node("in", "input", []),
        conv_node("conv1", ["in"], 6, 3, weight=w1, dtype=dt),
        bn_node("bn1", ["conv1"], 6, gamma=rng.uniform(0.5, 1.5, 6), beta=beta, mean=mean,
                var=rng.uniform(0.5, 1.5, 6), dtype=dt),
        plain_node("relu1", "relu", ["bn1"]),
        conv_node("conv2", ["relu1"], 5, 6, weight=(rng.standard_normal((5, 6, 3, 3)) * 0.4)
                  .astype(dt), bias=rng.uniform(-0.2, 0.2, 5), dtype=dt),
        bn_node("bn2", ["conv2"], 5, gamma=rng.uniform(0.5, 1.5, 5),
                beta=rng.uniform(-0.4, 0.4, 5), mean=rng.uniform(-0.4, 0.4, 5),
                var=rng.uniform(0.5, 1.5, 5), dtype=dt),
        plain_node("relu2", "relu", ["bn2"]),
        plain_node("gap", "gavgpool", ["relu2"]),
        fc_node("fc", ["gap"], 4, 5, weight=rng.standard_normal((4, 5, 1, 1)).astype(dt),
                bias=rng.uniform(-0.2, 0.2, 4), dtype=dt),
        plain_node("out", "output", ["fc"]),
    ]
    g = make_graph(nodes, "in", "out", (1, 3, 5, 5))
    return g, PruneMask(keep={"conv1": [False, True, True, True, False, True]})


def reference(g, x):
    """The chance-zero graph in float64 from the brute-force oracles."""
    p = {nid: {k: t.data.astype(np.float64) for k, t in node.params.items()}
         for nid, node in g.nodes.items()}

    def bn(y, nid):
        q = p[nid]
        return bn_brute(y, *(q[k].reshape(-1) for k in ("gamma", "beta", "mean", "var")),
                        g.nodes[nid].attrs["eps"])

    y = conv2d_brute(x.data.astype(np.float64), p["conv1"]["weight"], None, (1, 1), (1, 1))
    y = np.maximum(bn(y, "bn1"), 0)
    y = conv2d_brute(y, p["conv2"]["weight"], p["conv2"]["bias"].reshape(-1), (1, 1), (1, 1))
    y = np.maximum(bn(y, "bn2"), 0).mean(axis=(2, 3))
    return fc_brute(y, p["fc"]["weight"].reshape(4, -1), p["fc"]["bias"].reshape(-1))


@pytest.mark.parametrize("dtype", ("f32", "f64"))
def test_chance_zero_filter_with_zero_shift_is_compacted_on_both_sides(dtype):
    dt = DTYPE_FROM_NAME[dtype]
    rng = np.random.default_rng(20)
    g, mask = chance_zero_graph(rng, dt, shift=0.0)
    res = materialize(g, mask)
    small = res.graph
    assert small.node("conv1").attrs["spec"].k == 4  # filter 2 is kept, now at index 1
    x = Tensor(rng.standard_normal((3, 3, 5, 5)), dt)
    assert list(np.flatnonzero(zero_marks(g, x)["relu1"])) == [0, 2, 4]
    assert list(np.flatnonzero(zero_marks(small, x)["relu1"])) == [1]
    y = execute(g, x)
    assert same_bytes(y, execute(small, x))
    assert np.max(np.abs(y.data.reshape(3, 4) - reference(g, x))) <= TOL[dtype]


@pytest.mark.parametrize("dtype", ("f32", "f64"))
def test_chance_zero_filter_with_nonzero_shift_stays_live(dtype):
    # bn1 turns the zero filter into the constant 0.3, which conv2 must read
    dt = DTYPE_FROM_NAME[dtype]
    rng = np.random.default_rng(21)
    g, mask = chance_zero_graph(rng, dt, shift=0.3)
    res = materialize(g, mask)
    x = Tensor(rng.standard_normal((3, 3, 5, 5)), dt)
    marks = zero_marks(g, x)
    assert list(np.flatnonzero(marks["conv1"])) == [0, 2, 4]
    assert list(np.flatnonzero(marks["relu1"])) == [0, 4]
    y = execute(g, x)
    assert same_bytes(y, execute(res.graph, x))
    ref = reference(g, x)
    assert np.max(np.abs(y.data.reshape(3, 4) - ref)) <= TOL[dtype]
    # dropping the channel (as if bn1 gave it no shift) would be wrong by far
    # more than the tolerance
    beta = g.node("bn1").params["beta"].data.copy()
    beta[0, 2] = 0
    g.node("bn1").params["beta"] = Tensor(beta)
    assert np.max(np.abs(reference(g, x) - ref)) > 1e3 * TOL["f32"]


@pytest.mark.parametrize("dtype", ("f32", "f64"))
def test_materialize_deletes_by_mask_not_by_zero_marks(dtype):
    # a filter zeroed by hand outside the mask, as soft pruning zeroes one
    # (its bn's beta and mean cleared too), is marked dead by execute but
    # kept by materialize, which reads the mask alone: the summary is that of
    # the graph without it, and masked == materialized still holds because
    # the filter is left out of the GEMMs on both sides
    g = build(ZooSpec("resnet8-tiny", input_shape=(1, 3, 8, 8), dtype=dtype, seed=3))
    fused, report = fuse(g, "3/3")
    masked = fused.copy()
    mask = soft_prune_epoch(masked, report, PruneConfig(rate=0.3, mode="continued"))
    res = materialize(masked, mask)
    conv = next(rec["conv"] for rec in res.summary if rec["removed"])
    keep = mask.keep[conv]
    chance = keep.index(True)
    by_hand = masked.copy()
    _zeroize(by_hand, by_hand.consumers(), conv, [chance])
    assert keep[chance] and zero_filters(by_hand.node(conv).params["weight"])[chance]
    hand = materialize(by_hand, mask)
    assert hand.summary == res.summary
    k = by_hand.node(conv).attrs["spec"].k
    assert hand.graph.node(conv).attrs["spec"].k == res.graph.node(conv).attrs["spec"].k
    assert hand.graph.node(conv).attrs["spec"].k == sum(keep) < k
    x = Tensor(np.random.default_rng(7).standard_normal((5, 3, 8, 8)) * INPUT_SCALE,
               DTYPE_FROM_NAME[dtype])
    at = sum(keep[:chance])  # the filter's index after materialize
    assert zero_marks(by_hand, x)[conv][chance] and zero_marks(hand.graph, x)[conv][at]
    assert_same_live_counts(by_hand, hand.graph, x)
    for xb in (x, Tensor(x.data[:1])):
        assert same_bytes(execute(by_hand, xb), execute(hand.graph, xb))


def spatial_fc_graph(rng, dt, h=3, w=4):
    """in -> conv (6 filters) -> bn -> relu -> fc over all 6*h*w values.

    Filters 1 and 4 are zeroized as soft pruning leaves them (no bias, their
    bn beta and mean cleared), so the fc reads 2*h*w inputs that are exactly
    zero, and materialize deletes those columns.
    """
    w1 = (rng.standard_normal((6, 3, 3, 3)) * 0.4).astype(dt)
    w1[[1, 4]] = 0
    beta, mean = rng.uniform(-0.4, 0.4, 6), rng.uniform(-0.4, 0.4, 6)
    beta[[1, 4]] = mean[[1, 4]] = 0
    fin = 6 * h * w
    nodes = [
        plain_node("in", "input", []),
        conv_node("conv", ["in"], 6, 3, weight=w1, dtype=dt),
        bn_node("bn", ["conv"], 6, gamma=rng.uniform(0.5, 1.5, 6), beta=beta, mean=mean,
                var=rng.uniform(0.5, 1.5, 6), dtype=dt),
        plain_node("relu", "relu", ["bn"]),
        fc_node("fc", ["relu"], 5, fin, weight=rng.standard_normal((5, fin, 1, 1)).astype(dt),
                bias=rng.uniform(-0.2, 0.2, 5), dtype=dt),
        plain_node("out", "output", ["fc"]),
    ]
    g = make_graph(nodes, "in", "out", (1, 3, h, w))
    return g, PruneMask(keep={"conv": [True, False, True, True, False, True]})


def spatial_fc_reference(g, x):
    """The spatial-fc graph in float64 from the brute-force oracles."""
    p = {nid: {k: t.data.astype(np.float64) for k, t in node.params.items()}
         for nid, node in g.nodes.items()}
    y = conv2d_brute(x.data.astype(np.float64), p["conv"]["weight"], None, (1, 1), (1, 1))
    y = np.maximum(bn_brute(y, *(p["bn"][k].reshape(-1) for k in ("gamma", "beta", "mean", "var")),
                            g.nodes["bn"].attrs["eps"]), 0)
    return fc_brute(y.reshape(x.shape[0], -1), p["fc"]["weight"].reshape(5, -1),
                    p["fc"]["bias"].reshape(-1))


@pytest.mark.parametrize("dtype", ("f32", "f64"))
def test_fc_over_a_spatial_map_is_compacted_on_both_sides(dtype):
    # the graph runs fc as a 1x1 conv over the flattened input; a dead
    # channel covers h*w of its inputs, so its mark must be repeated h*w
    # times for the masked fc to multiply what the materialized one does
    dt = DTYPE_FROM_NAME[dtype]
    rng = np.random.default_rng(23)
    g, mask = spatial_fc_graph(rng, dt)
    small = materialize(g, mask).graph
    assert small.node("fc").params["weight"].shape == (5, 4 * 12, 1, 1)
    x32 = Tensor(rng.standard_normal((32, 3, 3, 4)), dt)
    assert list(np.flatnonzero(zero_marks(g, x32)["relu"])) == [1, 4]
    assert zero_marks(small, x32)["relu"] is None
    for x in (x32, Tensor(x32.data[:1])):
        y = execute(g, x)
        assert same_bytes(y, execute(small, x)), x.shape[0]
        err = np.max(np.abs(y.data.reshape(x.shape[0], 5) - spatial_fc_reference(g, x)))
        assert err <= TOL[dtype], x.shape[0]


_ONE_THREAD = """
import sys
import numpy as np
from fuseprune.fusion import fuse
from fuseprune.graph import execute
from fuseprune.pruning import PruneConfig, materialize, soft_prune_epoch
from fuseprune.tensor import DTYPE_FROM_NAME, Tensor
from fuseprune.zoo import ZooSpec, build
checked = 0
for family, hw, option in (("resnet20", 32, "1/3"), ("resnet18", 32, "2/4"),
                           ("resnet8-tiny", 8, "3/3")):
    for dtype in ("f32", "f64"):
        g = build(ZooSpec(family, input_shape=(1, 3, hw, hw), dtype=dtype, seed=7))
        fused, report = fuse(g, option)
        x = Tensor(np.random.default_rng(8).standard_normal((32, 3, hw, hw)) * 0.1,
                   DTYPE_FROM_NAME[dtype])
        for mode, rate in (("conservative", 0.0), ("continued", 0.3)):
            masked = fused.copy()
            mask = soft_prune_epoch(masked, report, PruneConfig(rate=rate, mode=mode))
            small = materialize(masked, mask, report).graph
            for xb in (x, Tensor(x.data[:1])):
                if execute(masked, xb).data.tobytes() != execute(small, xb).data.tobytes():
                    sys.exit(f"{family} {dtype} {mode} {rate} batch {xb.shape[0]} differs")
                checked += 1
sys.stdout.write(str(checked))
"""


def test_masked_equals_materialized_at_one_blas_thread():
    # the suite runs at the BLAS's default thread count; the promise must
    # hold at one thread too, where OpenBLAS runs every GEMM unsplit
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    run = subprocess.run([sys.executable, "-c", _ONE_THREAD], env=env, capture_output=True,
                         text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "24"
