"""Tests for soft filter pruning, the mask container and materialization."""

from __future__ import annotations

import numpy as np
import pytest

from fuseprune.fusion import find_residual_blocks, fold_bn, fuse, fuse_block
from fuseprune.graph import execute, save, validate
from fuseprune.pruning import (
    InconsistentMask,
    PruneConfig,
    PruneError,
    PruneMask,
    dynamic_prune,
    filter_l2_norms,
    materialize,
    select_prune_indices,
    soft_prune_epoch,
)
from fuseprune.tensor import DTYPE_FROM_NAME, ConvSpec, Tensor
from fuseprune.zoo import FAMILIES, ZooSpec, build

from conftest import bn_node, conv_node, fc_node, make_graph, plain_node, random_residual_block_graph
from oracles import bottom_k_indices_brute, filter_norms_brute


def small_chain(rng, k=6, c=3, hw=5, bn=True, bias=True):
    w = rng.standard_normal((k, c, 3, 3)).astype(np.float32) * 0.4
    nodes = [
        plain_node("in", "input", []),
        conv_node("conv", ["in"], k, c, weight=w,
                  bias=rng.uniform(-0.2, 0.2, k) if bias else None),
    ]
    tail = "conv"
    if bn:
        nodes.append(bn_node("bn", ["conv"], k, gamma=rng.uniform(0.5, 1.5, k),
                             beta=rng.uniform(-0.4, 0.4, k), mean=rng.uniform(-0.4, 0.4, k),
                             var=rng.uniform(0.5, 1.5, k)))
        tail = "bn"
    nodes += [
        plain_node("relu", "relu", [tail]),
        plain_node("gap", "gavgpool", ["relu"]),
        fc_node("fc", ["gap"], 4, k, weight=rng.standard_normal((4, k, 1, 1)).astype(np.float32)),
        plain_node("out", "output", ["fc"]),
    ]
    return make_graph(nodes, "in", "out", (1, c, hw, hw))


class TestNorms:
    def test_hand_cases(self):
        w = np.full((1, 2, 2, 2), 0.5, np.float32)
        assert filter_l2_norms(Tensor(w))[0] == pytest.approx(np.sqrt(2.0), rel=1e-6)
        z = np.zeros((2, 1, 3, 3), np.float32)
        z[1, 0, 1, 1] = 1.0
        norms = filter_l2_norms(Tensor(z))
        assert norms[0] == 0.0
        assert norms[1] == 1.0

    def test_matches_oracle(self, rng):
        w = rng.standard_normal((8, 3, 3, 3)).astype(np.float32)
        lib = filter_l2_norms(Tensor(w))
        ref = filter_norms_brute(w)
        np.testing.assert_allclose(lib, ref, rtol=1e-12)

    @pytest.mark.parametrize("dtype", ("f32", "f64"))
    def test_bytes_match_the_upcast_then_multiply_formula(self, dtype):
        # the norms pick the filters to zeroize, so any change in their bits
        # could change a mask; they must equal, byte for byte, the squares
        # of a float64 copy of every zoo conv weight summed per filter
        for family in sorted(FAMILIES):
            hw = 8 if family == "resnet8-tiny" else 32
            g = build(ZooSpec(family, input_shape=(1, 3, hw, hw), dtype=dtype, seed=3))
            for node in g.nodes.values():
                if node.kind == "conv":
                    w = node.params["weight"]
                    flat = w.data.astype(np.float64).reshape(w.shape[0], -1)
                    want = np.sqrt(np.sum(flat * flat, axis=1))
                    assert filter_l2_norms(w).tobytes() == want.tobytes(), (family, node.id)

    def test_selection_matches_oracle(self, rng):
        norms = rng.uniform(0, 2, 16)
        norms[3] = norms[11]  # force one exact tie
        norms[5] = 0.0
        norms[9] = 0.0
        for count in (0, 1, 4, 16):
            assert select_prune_indices(norms, count) == bottom_k_indices_brute(norms, count)

    def test_selection_basics(self):
        assert select_prune_indices(np.array([3.0, 1.0, 2.0]), 2) == [1, 2]
        assert select_prune_indices(np.array([1.0, 1.0, 5.0]), 1) == [0]
        assert select_prune_indices(np.array([1.0, 2.0]), 0) == []
        with pytest.raises(PruneError):
            select_prune_indices(np.array([1.0]), 2)
        with pytest.raises(PruneError):
            select_prune_indices(np.array([1.0]), -1)


class TestConfig:
    def test_rate_bounds(self):
        PruneConfig(rate=0.3)
        with pytest.raises(ValueError):
            PruneConfig(rate=0.31)
        PruneConfig(rate=0.5, allow_high_rate=True)
        with pytest.raises(ValueError):
            PruneConfig(rate=1.0, allow_high_rate=True)
        with pytest.raises(ValueError):
            PruneConfig(rate=-0.1)

    def test_other_fields(self):
        with pytest.raises(ValueError):
            PruneConfig(epochs=0)
        with pytest.raises(ValueError):
            PruneConfig(mode="hard")


class TestSoftPrune:
    def test_continued_rate_floor(self, rng):
        g = small_chain(rng, k=16)
        mask = soft_prune_epoch(g, None, PruneConfig(rate=0.3, mode="continued"))
        assert len(mask.history[0]["conv"]) == 4  # floor(4.8)
        g10 = small_chain(rng, k=10)
        mask10 = soft_prune_epoch(g10, None, PruneConfig(rate=0.3, mode="continued"))
        assert len(mask10.history[0]["conv"]) == 3  # 0.3 * 10 must not floor to 2

    def test_conservative_without_fusion_is_noop(self, rng):
        g = small_chain(rng)
        before = g.node("conv").params["weight"].data.copy()
        mask = soft_prune_epoch(g, None, PruneConfig(rate=0.3, mode="conservative"))
        assert mask.history[0]["conv"] == []
        assert all(mask.keep["conv"])
        np.testing.assert_array_equal(g.node("conv").params["weight"].data, before)

    def test_selection_is_lowest_norm(self, rng):
        g = small_chain(rng, k=12)
        w_before = g.node("conv").params["weight"].data.copy()
        mask = soft_prune_epoch(g, None, PruneConfig(rate=0.25, mode="continued"))
        expect = bottom_k_indices_brute(filter_norms_brute(w_before), 3)
        assert mask.history[0]["conv"] == expect
        w = g.node("conv").params["weight"].data
        assert np.all(w[expect] == 0)
        b = g.node("conv").params["bias"].data.reshape(-1)
        assert np.all(b[expect] == 0)
        bn = g.node("bn")
        assert np.all(bn.params["beta"].data[0, expect] == 0)
        assert np.all(bn.params["mean"].data[0, expect] == 0)
        # gamma and var untouched so gradients can still reach the filter
        assert np.all(bn.params["gamma"].data[0, expect] != 0)

    def test_masked_channels_emit_exact_zero(self, rng):
        g = small_chain(rng, k=6)
        mask = soft_prune_epoch(g, None, PruneConfig(rate=0.3, mode="continued"))
        (zeroed,) = (mask.history[0]["conv"],)
        assert zeroed
        # peek at the relu output by truncating the graph
        sub = g.copy()
        sub.nodes["out"].inputs = ["relu"]
        del sub.nodes["gap"], sub.nodes["fc"]
        x = Tensor(rng.standard_normal((2, 3, 5, 5)).astype(np.float32))
        y = execute(sub, x)
        assert np.all(y.data[:, zeroed] == 0)

    def test_fused_convs_restore_width_and_are_exempt(self, rng):
        g = random_residual_block_graph(rng)
        (m,) = find_residual_blocks(g)
        fused, report = fuse_block(g, m)
        # append a non-fused conv after the block
        fused = fused.copy()
        w3 = rng.standard_normal((10, 4, 3, 3)).astype(np.float32) * 0.3
        fused.nodes["conv3"] = conv_node("conv3", ["relu2"], 10, 4, weight=w3)
        fused.nodes["out"].inputs = ["conv3"]
        validate(fused)

        for mode, conv3_expect in (("conservative", 0), ("continued", 3)):
            work = fused.copy()
            norms1 = filter_norms_brute(work.node("conv1").params["weight"].data)
            mask = soft_prune_epoch(work, report, PruneConfig(rate=0.3, mode=mode))
            sel = mask.history[0]
            assert sel["conv1"] == bottom_k_indices_brute(norms1, 4)  # n - m = 8 - 4
            assert sel["conv2"] == []  # fused, n == m, and exempt from the rate
            assert len(sel["conv3"]) == conv3_expect

    def test_regrown_filter_can_escape(self, rng):
        g = small_chain(rng, k=6)
        cfg = PruneConfig(rate=0.2, mode="continued")  # floor(1.2) = 1 filter
        mask1 = soft_prune_epoch(g, None, cfg)
        (victim,) = mask1.history[0]["conv"]
        # regrow the victim with large weights, in place
        node = g.node("conv")
        w = node.params["weight"].data.copy()
        w[victim] = 5.0
        node.params["weight"] = Tensor(w)
        mask2 = soft_prune_epoch(g, None, cfg)
        (second,) = mask2.history[0]["conv"]
        assert second != victim
        assert mask2.keep["conv"][victim]

    def test_stale_report_rejected(self, rng):
        g = random_residual_block_graph(rng)
        (m,) = find_residual_blocks(g)
        fused, report = fuse_block(g, m)
        report.convs["conv1"].n = 99
        with pytest.raises(PruneError):
            soft_prune_epoch(fused.copy(), report, PruneConfig())

    def test_report_entries_that_name_no_conv_rejected(self, rng):
        # a report of another graph used to prune nothing and raise nothing
        g = random_residual_block_graph(rng)
        (m,) = find_residual_blocks(g)
        fused, report = fuse_block(g, m)
        report.convs["ghost"] = report.convs.pop("conv1")
        report.convs[m.relu1] = report.convs["ghost"]
        with pytest.raises(PruneError, match=rf"\['ghost', '{m.relu1}'\]"):
            soft_prune_epoch(fused.copy(), report, PruneConfig())
        hooked = []
        with pytest.raises(PruneError, match="not conv nodes"):
            dynamic_prune(fused, report, PruneConfig(), lambda g, epoch: hooked.append(epoch))
        assert hooked == []  # rejected before any training


class TestDynamicPrune:
    def test_single_epoch_noop_hook_equals_one_pass(self, rng):
        g = small_chain(rng, k=12)
        direct = g.copy()
        mask_direct = soft_prune_epoch(direct, None, PruneConfig(rate=0.25, mode="continued"))
        out, mask = dynamic_prune(g, None, PruneConfig(rate=0.25, mode="continued", epochs=1))
        assert mask.history == mask_direct.history
        assert mask.keep == mask_direct.keep
        np.testing.assert_array_equal(out.node("conv").params["weight"].data,
                                      direct.node("conv").params["weight"].data)
        # and the input graph was not touched
        assert np.any(g.node("conv").params["weight"].data[mask.zeroed("conv")] != 0)

    def test_deterministic_history(self, rng):
        g = small_chain(rng, k=12)

        def hook(graph, epoch):
            jitter = np.random.default_rng((123, epoch))
            node = graph.node("conv")
            w = node.params["weight"].data.copy()
            w += jitter.standard_normal(w.shape).astype(np.float32) * 0.05
            node.params["weight"] = Tensor(w)

        cfg = PruneConfig(rate=0.25, mode="continued", epochs=4)
        out1, mask1 = dynamic_prune(g, None, cfg, hook)
        out2, mask2 = dynamic_prune(g, None, cfg, hook)
        assert mask1.history == mask2.history
        assert len(mask1.history) == 4
        assert out1.node("conv").params["weight"].data.tobytes() == \
            out2.node("conv").params["weight"].data.tobytes()

    def test_recovery_across_epochs(self, rng):
        g = small_chain(rng, k=6)

        def hook(graph, epoch):
            if epoch == 1:
                node = graph.node("conv")
                w = node.params["weight"].data.copy()
                w[first_victim] = 7.0
                node.params["weight"] = Tensor(w)

        cfg1 = PruneConfig(rate=0.2, mode="continued", epochs=1)
        _, mask1 = dynamic_prune(g, None, cfg1)
        (first_victim,) = mask1.history[0]["conv"]
        cfg2 = PruneConfig(rate=0.2, mode="continued", epochs=2)
        _, mask2 = dynamic_prune(g, None, cfg2, hook)
        assert mask2.history[0]["conv"] == [first_victim]
        assert first_victim not in mask2.history[1]["conv"]
        assert mask2.keep["conv"][first_victim]

    def test_mask_roundtrip(self, rng, tmp_path):
        g = small_chain(rng, k=12)
        _, mask = dynamic_prune(g, None, PruneConfig(rate=0.25, mode="continued", epochs=3))
        path = tmp_path / "mask.json"
        mask.save(path)
        back = PruneMask.load(path)
        assert back.keep == mask.keep
        assert back.history == mask.history


class TestMaterialize:
    def test_conservative_restores_original_widths(self):
        g = build(ZooSpec("resnet20", seed=6))
        fused, report = fuse(g, "3/3")
        masked, mask = dynamic_prune(fused, report, PruneConfig(mode="conservative"))
        res = materialize(masked, mask, report)
        out = res.graph
        for sid, width in (("stage1", 16), ("stage2", 32), ("stage3", 64)):
            for b in (1, 2, 3):
                c1 = out.node(f"{sid}.block{b}.conv1").attrs["spec"]
                assert c1.k == width
                c2 = out.node(f"{sid}.block{b}.conv2").attrs["spec"]
                assert c2.c == width
        assert all(rec["blocked"] is None for rec in res.summary)
        shrunk = {rec["conv"] for rec in res.summary}
        assert len(shrunk) == 9  # each block's widened conv1

    def test_masked_equals_materialized_bitwise(self):
        g = build(ZooSpec("resnet20", seed=6))
        fused, report = fuse(g, "3/3")
        masked, mask = dynamic_prune(
            fused, report, PruneConfig(rate=0.2, mode="continued"))
        res = materialize(masked, mask, report)
        rng = np.random.default_rng(9)
        for _ in range(5):
            x = Tensor(rng.standard_normal((2, 3, 32, 32)).astype(np.float32))
            ya = execute(masked, x)
            yb = execute(res.graph, x)
            assert ya.data.tobytes() == yb.data.tobytes()

    @pytest.mark.parametrize("dtype,tol", (("f32", 1e-4), ("f64", 1e-10)))
    @pytest.mark.parametrize("mode,rate", (("conservative", 0.0), ("continued", 0.3)))
    def test_batch_32_materialized_bitwise_and_deployed_within_tolerance(self, dtype, tol,
                                                                          mode, rate):
        # resnet20 at 3x8x8 with a batch of 32, so every conv's GEMM columns
        # interleave 32 images; tolerances and input scale of the acceptance
        # suite's fusion and bn-fold criteria
        g = build(ZooSpec("resnet20", input_shape=(1, 3, 8, 8), dtype=dtype, seed=8))
        fused, report = fuse(g, "3/3")
        masked = fused.copy()
        mask = soft_prune_epoch(masked, report, PruneConfig(rate=rate, mode=mode))
        res = materialize(masked, mask, report)
        assert sum(rec["removed"] for rec in res.summary) > 0
        deployed = fold_bn(res.graph)
        x = Tensor((np.random.default_rng(10).standard_normal((32, 3, 8, 8)) * 0.1)
                   .astype(DTYPE_FROM_NAME[dtype]))
        ya = execute(masked, x).data
        assert ya.tobytes() == execute(res.graph, x).data.tobytes()
        assert float(np.max(np.abs(execute(deployed, x).data - ya))) <= tol

    def test_all_keep_mask_is_identity(self, rng, tmp_path):
        g = small_chain(rng, k=8)
        mask = PruneMask(keep={"conv": [True] * 8})
        res = materialize(g, mask)
        p1, p2 = tmp_path / "a.fpm", tmp_path / "b.fpm"
        save(g, p1)
        save(res.graph, p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert res.summary == []

    def test_blocked_convs_keep_zero_filters(self):
        g = build(ZooSpec("resnet20", seed=6))
        masked, mask = dynamic_prune(g, None, PruneConfig(rate=0.2, mode="continued"))
        res = materialize(masked, mask, None)
        blocked = {rec["conv"]: rec for rec in res.summary if rec["blocked"]}
        shrunk = {rec["conv"] for rec in res.summary if not rec["blocked"]}
        # conv1 of each block feeds only the next conv: shrinkable
        assert "stage1.block1.conv1" in shrunk and len(shrunk) == 9
        # conv2 feeds the add; the stem feeds a shortcut; projections feed adds
        assert "stage1.block1.conv2" in blocked
        assert "conv1" in blocked
        assert "stage2.block1.down.conv" in blocked
        for rec in blocked.values():
            assert "add" in rec["blocked"] or "output" in rec["blocked"]
        # blocked convs keep their zeroized filters in place
        w = res.graph.node("stage1.block1.conv2").params["weight"].data
        zeroed = mask.zeroed("stage1.block1.conv2")
        assert zeroed and np.all(w[zeroed] == 0)
        # and the whole thing still executes equivalently, bit for bit
        rng = np.random.default_rng(10)
        x = Tensor(rng.standard_normal((1, 3, 32, 32)).astype(np.float32))
        assert execute(masked, x).data.tobytes() == execute(res.graph, x).data.tobytes()

    def test_fc_columns_sliced(self, rng):
        g = small_chain(rng, k=6)
        masked, mask = dynamic_prune(g, None, PruneConfig(rate=0.3, mode="continued"))
        res = materialize(masked, mask)
        kept = 6 - len(mask.zeroed("conv"))
        assert res.graph.node("conv").attrs["spec"].k == kept
        assert res.graph.node("fc").params["weight"].shape == (4, kept, 1, 1)
        assert res.graph.node("bn").params["gamma"].shape == (1, kept, 1, 1)
        x = Tensor(rng.standard_normal((3, 3, 5, 5)).astype(np.float32))
        assert execute(masked, x).data.tobytes() == execute(res.graph, x).data.tobytes()

    def test_fc_columns_with_spatial_extent(self, rng):
        # no gavgpool: each removed channel spans h*w fc columns
        k, hw = 5, 4
        w = rng.standard_normal((k, 3, 3, 3)).astype(np.float32) * 0.4
        nodes = [
            plain_node("in", "input", []),
            conv_node("conv", ["in"], k, 3, weight=w),
            plain_node("relu", "relu", ["conv"]),
            fc_node("fc", ["relu"], 2, k * hw * hw,
                    weight=rng.standard_normal((2, k * hw * hw, 1, 1)).astype(np.float32)),
            plain_node("out", "output", ["fc"]),
        ]
        g = make_graph(nodes, "in", "out", (1, 3, hw, hw))
        masked, mask = dynamic_prune(g, None, PruneConfig(rate=0.3, mode="continued"))
        removed = len(mask.zeroed("conv"))
        assert removed == 1
        res = materialize(masked, mask)
        assert res.graph.node("fc").params["weight"].shape == (2, (k - removed) * hw * hw, 1, 1)
        x = Tensor(rng.standard_normal((2, 3, hw, hw)).astype(np.float32))
        assert execute(masked, x).data.tobytes() == execute(res.graph, x).data.tobytes()

    def test_frozen_flags_sliced(self, rng):
        g = random_residual_block_graph(rng)
        (m,) = find_residual_blocks(g)
        fused, report = fuse_block(g, m)
        masked, mask = dynamic_prune(fused, report, PruneConfig(mode="conservative"))
        res = materialize(masked, mask, report)
        bn1 = res.graph.node("bn1")
        assert bn1.params["gamma"].shape == (1, 4, 1, 1)
        assert len(bn1.attrs["frozen"]) == 4

    def test_inconsistent_masks_rejected(self, rng):
        g = small_chain(rng, k=6)
        with pytest.raises(InconsistentMask):
            materialize(g, PruneMask(keep={"conv": [True] * 5}))
        with pytest.raises(InconsistentMask):
            materialize(g, PruneMask(keep={"ghost": [True]}))
        with pytest.raises(InconsistentMask):  # claims zero but weights are not
            materialize(g, PruneMask(keep={"conv": [False] + [True] * 5}))
        masked, mask = dynamic_prune(g, None, PruneConfig(rate=0.3, mode="continued"))
        mask.keep["conv"] = [False] * 6
        with pytest.raises(InconsistentMask):
            materialize(masked, mask)

    def test_nonzero_bn_shift_rejected(self, rng):
        g = small_chain(rng, k=6)
        masked, mask = dynamic_prune(g, None, PruneConfig(rate=0.3, mode="continued"))
        (victim,) = mask.zeroed("conv")
        bn = masked.node("bn")
        beta = bn.params["beta"].data.copy()
        beta[0, victim] = 0.5
        bn.params["beta"] = Tensor(beta)
        with pytest.raises(InconsistentMask):
            materialize(masked, mask)

    def test_fan_out_through_bn_and_relu_reaches_both_convs(self, rng):
        # the stem's deleted channels pass bn and relu, then two convs absorb them
        k = 6
        rand = lambda *shape: (rng.standard_normal(shape) * 0.4).astype(np.float32)
        nodes = [
            plain_node("in", "input", []),
            conv_node("stem", ["in"], k, 3, weight=rand(k, 3, 3, 3)),
            bn_node("bn", ["stem"], k, gamma=rng.uniform(0.5, 1.5, k),
                    beta=rng.uniform(-0.4, 0.4, k), mean=rng.uniform(-0.4, 0.4, k),
                    var=rng.uniform(0.5, 1.5, k)),
            plain_node("relu", "relu", ["bn"]),
            conv_node("left", ["relu"], 4, k, weight=rand(4, k, 3, 3)),
            conv_node("right", ["relu"], 4, k, weight=rand(4, k, 3, 3), bias=rand(4)),
            plain_node("add", "add", ["left", "right"]),
            plain_node("gap", "gavgpool", ["add"]),
            fc_node("fc", ["gap"], 3, 4, weight=rand(3, 4, 1, 1)),
            plain_node("out", "output", ["fc"]),
        ]
        g = make_graph(nodes, "in", "out", (1, 3, 5, 5))
        masked, mask = dynamic_prune(g, None, PruneConfig(rate=0.3, mode="continued"))
        res = materialize(masked, mask)
        assert [rec["conv"] for rec in res.summary if not rec["blocked"]] == ["stem"]
        kept = k - len(mask.zeroed("stem"))
        assert kept == 5
        for nid in ("left", "right"):
            assert res.graph.node(nid).params["weight"].shape == (4, kept, 3, 3)
        assert res.graph.node("bn").params["beta"].shape == (1, kept, 1, 1)
        x = Tensor(rng.standard_normal((3, 3, 5, 5)).astype(np.float32))
        assert execute(masked, x).data.tobytes() == execute(res.graph, x).data.tobytes()

    def _pool_then_bn(self, rng, shift):
        # stem -> relu -> maxpool -> bn -> conv: the bn does not read the
        # stem, so zeroizing the stem leaves its shift as it was
        k = 5
        rand = lambda *shape: (rng.standard_normal(shape) * 0.4).astype(np.float32)
        w = rand(k, 3, 3, 3)
        w[[1, 3]] = 0
        beta, mean = rng.uniform(-0.4, 0.4, k), rng.uniform(-0.4, 0.4, k)
        beta[[1, 3]] = 0
        mean[[1, 3]] = 0
        beta[3] = shift
        nodes = [
            plain_node("in", "input", []),
            conv_node("stem", ["in"], k, 3, weight=w),
            plain_node("relu", "relu", ["stem"]),
            plain_node("pool", "maxpool", ["relu"], window=(2, 2), stride=(2, 2), pad=(0, 0)),
            bn_node("bn", ["pool"], k, gamma=rng.uniform(0.5, 1.5, k), beta=beta, mean=mean,
                    var=rng.uniform(0.5, 1.5, k)),
            conv_node("conv", ["bn"], 4, k, weight=rand(4, k, 3, 3)),
            plain_node("gap", "gavgpool", ["conv"]),
            fc_node("fc", ["gap"], 3, 4, weight=rand(3, 4, 1, 1)),
            plain_node("out", "output", ["fc"]),
        ]
        mask = PruneMask(keep={"stem": [True, False, True, False, True],
                               "conv": [True] * 4})
        return make_graph(nodes, "in", "out", (1, 3, 6, 6)), mask

    def test_zero_shift_bn_after_a_pool_materializes_bitwise(self, rng):
        g, mask = self._pool_then_bn(rng, shift=0.0)
        res = materialize(g, mask)
        assert res.graph.node("bn").params["gamma"].shape == (1, 3, 1, 1)
        assert res.graph.node("conv").params["weight"].shape == (4, 3, 3, 3)
        x = Tensor(rng.standard_normal((2, 3, 6, 6)).astype(np.float32))
        assert execute(g, x).data.tobytes() == execute(res.graph, x).data.tobytes()

    def test_nonzero_shift_bn_after_a_pool_rejected(self, rng):
        g, mask = self._pool_then_bn(rng, shift=0.25)
        with pytest.raises(InconsistentMask, match=r"'bn'.*rerun a pruning epoch"):
            materialize(g, mask)
