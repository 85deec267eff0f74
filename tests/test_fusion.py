"""Tests for residual-block fusion, bn folding and the fusion report."""

from __future__ import annotations

import numpy as np
import pytest

from fuseprune.fusion import (
    FusionError,
    FusionOption,
    FusionReport,
    NearZeroOmega,
    NonOddKernel,
    PatternMismatch,
    StrideMismatch,
    adjust_identity_for_bn,
    find_residual_blocks,
    fold_bn,
    fuse,
    fuse_block,
    make_identity_weights,
    pad_conv_weights,
)
from fuseprune.graph import bn_affine, execute, load, save, validate
from fuseprune.tensor import ConvSpec, Tensor
from fuseprune.zoo import ZooSpec, build

from conftest import bn_node, conv_node, make_graph, plain_node, random_residual_block_graph
from reference_kernels import batch_norm_inference, conv2d_gemm


def rand_input(rng, shape, dtype=np.float32, nonneg=False):
    x = rng.standard_normal(shape).astype(dtype)
    return Tensor(np.abs(x) if nonneg else x)


def assert_equivalent(ga, gb, rng, dtype=np.float32, n_inputs=3, batch=2):
    shape = (batch,) + tuple(ga.input_shape[1:])
    rtol, atol = (1e-4, 1e-5) if dtype == np.float32 else (1e-10, 1e-12)
    for _ in range(n_inputs):
        x = rand_input(rng, shape, dtype)
        ya = execute(ga, x)
        yb = execute(gb, x)
        np.testing.assert_allclose(ya.data, yb.data, rtol=rtol, atol=atol)


class TestIdentityWeights:
    def test_layout(self):
        w = make_identity_weights(3, 5, 3)
        assert w.shape == (3, 3, 5, 3)
        assert w.data.sum() == 3
        for k in range(3):
            assert w.data[k, k, 2, 1] == 1.0

    def test_conv_with_identity_is_bitexact(self, rng):
        for dtype in (np.float32, np.float64):
            x = rand_input(rng, (2, 4, 6, 6), dtype)
            w = make_identity_weights(4, 3, 3, dtype=dtype)
            spec = ConvSpec(k=4, c=4, r=3, s=3, stride=(1, 1), pad=(1, 1), has_bias=False)
            y = conv2d_gemm(x.data, w.data, None, spec.stride, spec.pad)
            assert np.array_equal(y, x.data)

    def test_strided_identity_subsamples(self, rng):
        x = rand_input(rng, (1, 2, 6, 6))
        w = make_identity_weights(2, 3, 3)
        spec = ConvSpec(k=2, c=2, r=3, s=3, stride=(2, 2), pad=(1, 1), has_bias=False)
        y = conv2d_gemm(x.data, w.data, None, spec.stride, spec.pad)
        assert y.shape == (1, 2, 3, 3)
        assert np.array_equal(y, x.data[:, :, ::2, ::2])

    def test_even_kernel_rejected(self):
        with pytest.raises(NonOddKernel):
            make_identity_weights(2, 4, 3)
        with pytest.raises(NonOddKernel):
            make_identity_weights(2, 3, 2)


class TestPadConvWeights:
    def test_center_placement(self, rng):
        w = Tensor(rng.standard_normal((3, 2, 1, 1)).astype(np.float32))
        p = pad_conv_weights(w, 3, 3)
        assert p.shape == (3, 2, 3, 3)
        assert np.array_equal(p.data[:, :, 1, 1], w.data[:, :, 0, 0])
        assert p.data.sum() == pytest.approx(w.data.sum(), rel=1e-6)

    def test_padded_conv_same_function(self, rng):
        x = rand_input(rng, (2, 3, 5, 5))
        w = Tensor(rng.standard_normal((4, 3, 1, 1)).astype(np.float32))
        y1 = conv2d_gemm(x.data, w.data, None, (2, 2), (0, 0))
        p = pad_conv_weights(w, 3, 3)
        y2 = conv2d_gemm(x.data, p.data, None, (2, 2), (1, 1))
        assert np.array_equal(y1, y2)

    def test_bad_targets_rejected(self, rng):
        w = Tensor(np.ones((1, 1, 3, 3), np.float32))
        with pytest.raises(NonOddKernel):
            pad_conv_weights(w, 1, 1)  # cannot shrink
        with pytest.raises(NonOddKernel):
            pad_conv_weights(w, 4, 3)  # parity mismatch


class TestAdjustForBn:
    def test_values_are_reciprocal(self):
        w = make_identity_weights(3, 3, 3)
        omega = np.array([2.0, 0.5, 4.0], np.float32)
        adj = adjust_identity_for_bn(w, omega)
        got = adj.data[np.arange(3), np.arange(3), 1, 1]
        np.testing.assert_allclose(got, 1.0 / omega, rtol=1e-6)

    def test_bn_then_restores_identity(self, rng):
        x = rand_input(rng, (1, 3, 4, 4))
        gamma = np.array([1.5, 0.7, 2.0], np.float32)
        var = np.array([0.9, 1.1, 1.3], np.float32)
        bn = bn_node("bn", [], 3, gamma=gamma, var=var, eps=1e-5)
        omega, _ = bn_affine(bn, np.float32)
        adj = adjust_identity_for_bn(make_identity_weights(3, 3, 3), omega)
        spec = ConvSpec(3, 3, 3, 3, stride=(1, 1), pad=(1, 1), has_bias=False)
        y = batch_norm_inference(conv2d_gemm(x.data, adj.data, None, spec.stride, spec.pad), bn)
        np.testing.assert_allclose(y, x.data, rtol=1e-5, atol=1e-6)

    def test_near_zero_rejected(self):
        w = make_identity_weights(2, 3, 3)
        with pytest.raises(NearZeroOmega):
            adjust_identity_for_bn(w, np.array([1.0, 0.0]))
        with pytest.raises(NearZeroOmega):
            adjust_identity_for_bn(w, np.array([1.0, 9e-4]))
        adjust_identity_for_bn(w, np.array([1.0, 2e-3]))  # comfortably above the bound


def _mixed_bn_block(rng):
    w1 = rng.standard_normal((4, 4, 3, 3)).astype(np.float32) * 0.3
    w2 = rng.standard_normal((4, 4, 3, 3)).astype(np.float32) * 0.3
    nodes = [
        plain_node("in", "input", []),
        plain_node("pre_relu", "relu", ["in"]),
        conv_node("conv1", ["pre_relu"], 4, 4, weight=w1),
        bn_node("bn1", ["conv1"], 4),
        plain_node("relu1", "relu", ["bn1"]),
        conv_node("conv2", ["relu1"], 4, 4, weight=w2),
        plain_node("add", "add", ["conv2", "pre_relu"]),
        plain_node("relu2", "relu", ["add"]),
        plain_node("out", "output", ["relu2"]),
    ]
    return make_graph(nodes, "in", "out", (1, 4, 6, 6))


class TestMatcher:
    def test_basic_block(self, rng):
        g = random_residual_block_graph(rng)
        (m,) = find_residual_blocks(g)
        assert m.kind == "basic"
        assert (m.conv1, m.bn1, m.relu1, m.conv2, m.bn2) == ("conv1", "bn1", "relu1", "conv2", "bn2")
        assert (m.add, m.relu_out, m.input_id) == ("add", "relu2", "pre_relu")
        assert m.shortcut_conv is None and m.shortcut_bn is None
        assert m.tag == "stage1.block1"
        assert m.with_bn

    def test_projection_block(self, rng):
        g = random_residual_block_graph(rng, projection=True)
        (m,) = find_residual_blocks(g)
        assert m.kind == "projection"
        assert (m.shortcut_conv, m.shortcut_bn) == ("down_conv", "down_bn")

    def test_without_bn(self, rng):
        g = random_residual_block_graph(rng, with_bn=False)
        (m,) = find_residual_blocks(g)
        assert not m.with_bn and m.bn1 is None and m.bn2 is None

    def test_mixed_bn_not_matched(self, rng):
        g = _mixed_bn_block(rng)
        validate(g)
        assert find_residual_blocks(g) == []

    def test_side_tap_blocks_match(self, rng):
        g = random_residual_block_graph(rng).copy()
        w = rng.standard_normal((2, 4, 3, 3)).astype(np.float32) * 0.1
        g.nodes["side"] = conv_node("side", ["relu1"], 2, 4, weight=w)
        g.nodes["cat"] = plain_node("cat", "concat", ["relu2", "side"])
        g.nodes["out"].inputs = ["cat"]
        validate(g)
        assert find_residual_blocks(g) == []

    def test_add_must_feed_relu(self, rng):
        g = random_residual_block_graph(rng).copy()
        g.nodes["out"].inputs = ["add"]
        del g.nodes["relu2"]
        validate(g)
        assert find_residual_blocks(g) == []

    def test_zoo_counts(self):
        g20 = build(ZooSpec("resnet20", seed=0))
        m20 = find_residual_blocks(g20)
        assert len(m20) == 9
        assert sum(1 for m in m20 if m.kind == "projection") == 2
        assert [m.tag for m in m20][:3] == ["stage1.block1", "stage1.block2", "stage1.block3"]
        ids = set()
        for m in m20:
            assert not (m.internal_ids() & ids)
            ids |= m.internal_ids()
        g18 = build(ZooSpec("resnet18", input_shape=(1, 3, 64, 64), seed=0))
        m18 = find_residual_blocks(g18)
        assert len(m18) == 8
        assert sum(1 for m in m18 if m.kind == "projection") == 3


class TestBasicFusion:
    def test_shapes_and_report(self, rng):
        g = random_residual_block_graph(rng)
        (m,) = find_residual_blocks(g)
        fused, report = fuse_block(g, m)
        s1 = fused.node("conv1").attrs["spec"]
        assert (s1.k, s1.c) == (8, 4)
        assert fused.node("conv1").params["weight"].shape == (8, 4, 3, 3)
        assert fused.node("bn1").params["gamma"].shape == (1, 8, 1, 1)
        assert fused.node("bn1").attrs["frozen"] == (0, 0, 0, 0, 1, 1, 1, 1)
        s2 = fused.node("conv2").attrs["spec"]
        assert (s2.k, s2.c) == (4, 8)
        assert "add" not in fused.nodes
        assert fused.node("relu2").inputs == ["bn2"]
        cf1 = report.convs["conv1"]
        assert (cf1.m, cf1.n) == (4, 8)
        assert cf1.provenance == ["original"] * 4 + ["xconv-identity"] * 4
        assert cf1.removed == ["add"]
        cf2 = report.convs["conv2"]
        assert (cf2.m, cf2.n) == (4, 4)
        assert cf2.channel_provenance == ["original"] * 4 + ["xconv-identity"] * 4
        # the source graph is untouched
        assert "add" in g.nodes
        assert g.node("conv1").attrs["spec"].k == 4

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_aux_bn_channels_are_exact_identity(self, rng, dtype):
        # in the dtype the graph runs in, the appended channels multiply by
        # exactly 1 and add exactly 0, so the passthrough is bit-exact
        g = random_residual_block_graph(rng, dtype=dtype)
        (m,) = find_residual_blocks(g)
        fused, _ = fuse_block(g, m)
        omega, lam = bn_affine(fused.node("bn1"), dtype)
        assert np.all(omega[4:] == dtype(1))
        assert np.all(lam[4:] == dtype(0))

    @pytest.mark.parametrize("with_bn", [True, False])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_equivalence(self, with_bn, dtype):
        rng = np.random.default_rng(7)
        g = random_residual_block_graph(rng, with_bn=with_bn, dtype=dtype)
        (m,) = find_residual_blocks(g)
        fused, _ = fuse_block(g, m)
        assert_equivalent(g, fused, rng, dtype=dtype)

    def test_bias_carried_through(self, rng):
        g = random_residual_block_graph(rng, with_bn=False).copy()
        for nid in ("conv1", "conv2"):
            node = g.nodes[nid]
            spec = node.attrs["spec"]
            node.attrs["spec"] = ConvSpec(spec.k, spec.c, spec.r, spec.s, spec.stride,
                                          spec.pad, has_bias=True)
            node.params["bias"] = Tensor(
                rng.uniform(-0.2, 0.2, (1, spec.k, 1, 1)).astype(np.float32))
        validate(g)
        (m,) = find_residual_blocks(g)
        fused, _ = fuse_block(g, m)
        b1 = fused.node("conv1").params["bias"].data.reshape(-1)
        assert b1.shape == (8,)
        assert np.all(b1[4:] == 0)
        assert_equivalent(g, fused, rng)

    def test_nonneg_guard_and_override(self, rng):
        g = random_residual_block_graph(rng).copy()
        g.nodes["conv1"].inputs = ["in"]
        g.nodes["add"].inputs = ["bn2", "in"]
        del g.nodes["pre_relu"]
        validate(g)
        (m,) = find_residual_blocks(g)
        assert m.input_id == "in"
        with pytest.raises(PatternMismatch):
            fuse_block(g, m)
        fused, _ = fuse_block(g, m, assume_nonneg=True)
        x = rand_input(rng, (1, 4, 6, 6), nonneg=True)
        np.testing.assert_allclose(execute(g, x).data, execute(fused, x).data,
                                   rtol=1e-4, atol=1e-5)
        # with signed input the passthrough relu clips, so outputs must differ
        xs = Tensor(-np.abs(rand_input(rng, (1, 4, 6, 6)).data) - 0.1)
        diff = np.abs(execute(g, xs).data - execute(fused, xs).data).max()
        assert diff > 1e-3

    def test_bn_without_frozen_flags_fuses(self, rng, tmp_path):
        # a bn built without flags is saved with "frozen": [] and loads as ()
        g = random_residual_block_graph(rng).copy()
        for nid in ("bn1", "bn2"):
            g.nodes[nid].attrs = {"eps": g.nodes[nid].attrs["eps"]}
        save(g, tmp_path / "m.fpm")
        loaded = load(tmp_path / "m.fpm")
        assert loaded.nodes["bn1"].attrs["frozen"] == ()
        fused, _ = fuse(loaded, "1/1")
        assert fused.nodes["bn1"].attrs["frozen"] == (0,) * 4 + (1,) * 4
        assert_equivalent(g, fused, rng)

    def test_unequal_kernels_rejected(self, rng):
        g = random_residual_block_graph(rng).copy()
        w = rng.standard_normal((4, 4, 5, 5)).astype(np.float32) * 0.1
        g.nodes["conv1"] = conv_node("conv1", ["pre_relu"], 4, 4, r=5, s=5, pad=(2, 2),
                                     weight=w, tags=["stage1.block1"])
        validate(g)
        (m,) = find_residual_blocks(g)
        with pytest.raises(NonOddKernel):
            fuse_block(g, m)
        assert "add" in g.nodes  # untouched on failure


class TestProjectionFusion:
    def test_shapes_and_report(self, rng):
        g = random_residual_block_graph(rng, projection=True)
        (m,) = find_residual_blocks(g)
        fused, report = fuse_block(g, m)
        s1 = fused.node("conv1").attrs["spec"]
        assert (s1.k, s1.c, s1.stride) == (8, 4, (2, 2))
        s2 = fused.node("conv2").attrs["spec"]
        assert (s2.k, s2.c, s2.stride) == (4, 8, (1, 1))
        assert s2.has_bias  # shortcut bn folds into a bias
        for gone in ("add", "down_conv", "down_bn"):
            assert gone not in fused.nodes
        assert report.convs["conv1"].removed == ["add", "down_conv", "down_bn"]
        assert report.convs["conv2"].channel_provenance == (
            ["original"] * 4 + ["pconv-projection"] * 4)

    @pytest.mark.parametrize("with_bn", [True, False])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_equivalence(self, with_bn, dtype):
        rng = np.random.default_rng(11)
        g = random_residual_block_graph(rng, projection=True, with_bn=with_bn, dtype=dtype)
        (m,) = find_residual_blocks(g)
        fused, _ = fuse_block(g, m)
        assert_equivalent(g, fused, rng, dtype=dtype)

    def test_stride_one_projection(self, rng):
        g = random_residual_block_graph(rng, projection=True, stride=(1, 1))
        (m,) = find_residual_blocks(g)
        fused, _ = fuse_block(g, m)
        assert_equivalent(g, fused, rng)

    def test_shortcut_bias_without_bn(self, rng):
        g = random_residual_block_graph(rng, projection=True, with_bn=False).copy()
        node = g.nodes["down_conv"]
        spec = node.attrs["spec"]
        node.attrs["spec"] = ConvSpec(spec.k, spec.c, 1, 1, spec.stride, (0, 0), has_bias=True)
        node.params["bias"] = Tensor(rng.uniform(-0.3, 0.3, (1, 4, 1, 1)).astype(np.float32))
        validate(g)
        (m,) = find_residual_blocks(g)
        fused, _ = fuse_block(g, m)
        assert fused.node("conv2").attrs["spec"].has_bias
        assert_equivalent(g, fused, rng)

    def test_wide_shortcut_kernel_rejected(self, rng):
        g = random_residual_block_graph(rng, projection=True).copy()
        w = rng.standard_normal((4, 4, 3, 3)).astype(np.float32) * 0.1
        g.nodes["down_conv"] = conv_node("down_conv", ["pre_relu"], 4, 4, r=3, s=3,
                                         stride=(2, 2), pad=(1, 1), weight=w,
                                         tags=["stage1.block1"])
        validate(g)
        (m,) = find_residual_blocks(g)
        with pytest.raises(PatternMismatch):
            fuse_block(g, m)

    def test_shortcut_stride_mismatch_rejected(self, rng):
        g = random_residual_block_graph(rng, projection=True, stride=(1, 1)).copy()
        # make conv1 stride (1,1) but shortcut claim stride (2,2): shapes break,
        # so instead give conv2 a stride, which fusion must reject
        node = g.nodes["conv2"]
        spec = node.attrs["spec"]
        node.attrs["spec"] = ConvSpec(spec.k, spec.c, spec.r, spec.s, (2, 2), spec.pad,
                                      spec.has_bias)
        # fix the add shape by striding the shortcut too
        down = g.nodes["down_conv"]
        dspec = down.attrs["spec"]
        down.attrs["spec"] = ConvSpec(dspec.k, dspec.c, 1, 1, (2, 2), (0, 0), dspec.has_bias)
        validate(g)
        matches = find_residual_blocks(g)
        assert len(matches) == 1
        with pytest.raises(StrideMismatch):
            fuse_block(g, matches[0])


class TestFuseDriver:
    def test_option_parsing(self):
        opt = FusionOption.parse("2/3")
        assert (opt.stages, opt.total) == (2, 3)
        assert str(opt) == "2/3"
        opt2 = FusionOption.parse("(1,0,2)")
        assert opt2.per_stage == (1, 0, 2) and opt2.total == 3
        assert str(opt2) == "(1,0,2)"
        assert FusionOption.parse("1, 0, 2").per_stage == (1, 0, 2)
        assert FusionOption.parse(str(opt2)) == opt2
        assert FusionOption.parse("3").per_stage == (3,)  # single stage, explicit form
        for bad in ("", "x/y", "4/3", "(1,-1)", "1/2/3"):
            with pytest.raises(ValueError):
                FusionOption.parse(bad)
        with pytest.raises(ValueError):
            FusionOption(total=3, stages=1, per_stage=(1, 1, 1))
        with pytest.raises(ValueError):
            FusionOption(total=3)

    def test_full_fusion_resnet20(self):
        g = build(ZooSpec("resnet20", seed=3))
        fused, report = fuse(g, "3/3")
        kinds = [n.kind for n in fused.nodes.values()]
        assert kinds.count("add") == 0
        assert kinds.count("conv") == 19
        assert kinds.count("bn") == 19
        assert len(report.convs) == 18
        assert report.skipped == [] and report.option == "3/3"
        assert fused.node("stage1.block1.conv1").attrs["spec"].k == 32
        assert fused.node("stage2.block1.conv1").attrs["spec"].k == 48
        assert fused.node("stage2.block1.conv1").attrs["spec"].stride == (2, 2)
        assert fused.node("stage2.block1.conv2").attrs["spec"].c == 48
        assert fused.node("stage3.block1.conv1").attrs["spec"].k == 96
        rng = np.random.default_rng(0)
        x = rand_input(rng, (1, 3, 32, 32))
        np.testing.assert_allclose(execute(g, x).data, execute(fused, x).data,
                                   rtol=1e-4, atol=1e-4)

    def test_zero_option_is_identity(self, tmp_path):
        from fuseprune.graph import save

        g = build(ZooSpec("resnet20", seed=3))
        fused, report = fuse(g, "0/3")
        assert report.convs == {} and report.skipped == []
        p1, p2 = tmp_path / "a.fpm", tmp_path / "b.fpm"
        save(g, p1)
        save(fused, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_stage_prefix(self):
        g = build(ZooSpec("resnet20", seed=3))
        fused, report = fuse(g, "2/3")
        kinds = [n.kind for n in fused.nodes.values()]
        assert kinds.count("add") == 3  # stage3 untouched
        assert len(report.convs) == 12
        assert fused.node("stage3.block1.conv1").attrs["spec"].k == 64

    def test_explicit_counts(self):
        g = build(ZooSpec("resnet20", seed=3))
        fused, report = fuse(g, "(1,0,2)")
        kinds = [n.kind for n in fused.nodes.values()]
        assert kinds.count("add") == 6
        assert len(report.convs) == 6
        assert fused.node("stage1.block1.conv1").attrs["spec"].k == 32
        assert fused.node("stage1.block2.conv1").attrs["spec"].k == 16
        assert fused.node("stage3.block2.conv1").attrs["spec"].k == 128
        assert fused.node("stage3.block3.conv1").attrs["spec"].k == 64

    def test_option_mismatch_raises(self):
        g = build(ZooSpec("resnet20", seed=3))
        with pytest.raises(FusionError):
            fuse(g, "2/4")
        with pytest.raises(FusionError):
            fuse(g, "(4,0,0)")

    def test_near_zero_omega_skips_block(self, rng):
        g = random_residual_block_graph(rng).copy()
        bn2 = g.nodes["bn2"]
        gamma = bn2.params["gamma"].data.copy()
        gamma[0, 0] = 0.0
        bn2.params["gamma"] = Tensor(gamma)
        fused, report = fuse(g, "1/1")
        assert len(report.skipped) == 1
        assert report.skipped[0]["block"] == "stage1.block1"
        assert "omega" in report.skipped[0]["reason"]
        assert report.convs == {}
        assert "add" in fused.nodes  # block left as it was

    def test_maxpool_fed_block_fuses(self):
        g = build(ZooSpec("resnet18", input_shape=(1, 3, 32, 32), seed=5))
        assert g.node("stage1.block1.conv1").inputs == ["maxpool"]
        fused, report = fuse(g, "1/4")
        assert len(report.convs) == 4 and report.skipped == []
        rng = np.random.default_rng(1)
        x = rand_input(rng, (1, 3, 32, 32))
        np.testing.assert_allclose(execute(g, x).data, execute(fused, x).data,
                                   rtol=1e-4, atol=1e-4)

    def test_report_roundtrip(self, rng, tmp_path):
        g = build(ZooSpec("resnet20", seed=3))
        _, report = fuse(g, "(1,0,2)")
        path = tmp_path / "fusion.json"
        report.save(path)
        back = FusionReport.load(path)
        assert back.option == report.option
        assert back.skipped == report.skipped
        assert set(back.convs) == set(report.convs)
        for nid, cf in report.convs.items():
            bc = back.convs[nid]
            assert (bc.m, bc.n, bc.provenance, bc.channel_provenance, bc.block, bc.removed) == (
                cf.m, cf.n, cf.provenance, cf.channel_provenance, cf.block, cf.removed)


class TestFoldBn:
    def test_fold_simple_chain(self, rng):
        w = rng.standard_normal((4, 3, 3, 3)).astype(np.float32) * 0.3
        nodes = [
            plain_node("in", "input", []),
            conv_node("c", ["in"], 4, 3, weight=w),
            bn_node("b", ["c"], 4, gamma=rng.uniform(0.5, 1.5, 4), beta=rng.uniform(-0.3, 0.3, 4),
                    mean=rng.uniform(-0.3, 0.3, 4), var=rng.uniform(0.5, 1.5, 4)),
            plain_node("out", "output", ["b"]),
        ]
        g = make_graph(nodes, "in", "out", (1, 3, 6, 6))
        folded = fold_bn(g)
        assert [n.kind for n in folded.nodes.values()].count("bn") == 0
        conv = folded.node("c")
        assert conv.attrs["spec"].has_bias
        om, lam = bn_affine(g.node("b"), np.float64)
        want_w = (w.astype(np.float64) * om[:, None, None, None]).astype(np.float32)
        np.testing.assert_array_equal(conv.params["weight"].data, want_w)
        np.testing.assert_array_equal(conv.params["bias"].data.reshape(-1),
                                      lam.astype(np.float32))
        assert_equivalent(g, folded, rng)

    def test_fold_whole_zoo_model(self):
        g = build(ZooSpec("resnet20", seed=4))
        folded = fold_bn(g)
        kinds = [n.kind for n in folded.nodes.values()]
        assert kinds.count("bn") == 0
        assert kinds.count("add") == 9
        rng = np.random.default_rng(2)
        x = rand_input(rng, (1, 3, 32, 32))
        np.testing.assert_allclose(execute(g, x).data, execute(folded, x).data,
                                   rtol=1e-4, atol=1e-4)

    def test_fuse_then_fold_removes_everything(self):
        g = build(ZooSpec("resnet20", seed=4))
        fused, _ = fuse(g, "3/3")
        flat = fold_bn(fused)
        kinds = [n.kind for n in flat.nodes.values()]
        assert kinds.count("add") == 0 and kinds.count("bn") == 0
        rng = np.random.default_rng(3)
        x = rand_input(rng, (1, 3, 32, 32))
        np.testing.assert_allclose(execute(g, x).data, execute(flat, x).data,
                                   rtol=1e-4, atol=1e-4)

    def test_fold_then_fuse_matches_fuse_then_fold(self, rng):
        g = random_residual_block_graph(rng)
        a = fold_bn(fuse(g, "1/1")[0])
        b = fuse(fold_bn(g), "1/1")[0]
        shape = (2, 4, 6, 6)
        for _ in range(3):
            x = rand_input(rng, shape)
            np.testing.assert_allclose(execute(a, x).data, execute(b, x).data,
                                       rtol=1e-4, atol=1e-5)

    def test_bn_after_relu_rejected(self, rng):
        from fuseprune.fusion import BnWithoutPrecedingConv

        nodes = [
            plain_node("in", "input", []),
            conv_node("c", ["in"], 4, 3, weight=rng.standard_normal((4, 3, 3, 3)).astype(np.float32)),
            plain_node("r", "relu", ["c"]),
            bn_node("b", ["r"], 4),
            plain_node("out", "output", ["b"]),
        ]
        g = make_graph(nodes, "in", "out", (1, 3, 6, 6))
        with pytest.raises(BnWithoutPrecedingConv):
            fold_bn(g)

    def test_shared_conv_output_rejected(self, rng):
        from fuseprune.fusion import BnWithoutPrecedingConv

        w = rng.standard_normal((4, 3, 3, 3)).astype(np.float32)
        nodes = [
            plain_node("in", "input", []),
            conv_node("c", ["in"], 4, 3, weight=w),
            bn_node("b", ["c"], 4),
            plain_node("r", "relu", ["c"]),
            plain_node("cat", "concat", ["b", "r"]),
            plain_node("out", "output", ["cat"]),
        ]
        g = make_graph(nodes, "in", "out", (1, 3, 6, 6))
        with pytest.raises(BnWithoutPrecedingConv):
            fold_bn(g)
