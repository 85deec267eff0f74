"""Tests for cost accounting: FLOP counts, profiling, and the speedup model."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuseprune.analysis import (
    CATEGORIES,
    CostReport,
    NodeCost,
    amdahl_bound,
    categorize,
    compare,
    count_flops,
    load_profile,
    profile,
    speedup,
    speedup_from_profile,
)
from fuseprune.fusion import fold_bn, fuse
from fuseprune.graph import load, save, validate
from fuseprune.pruning import PruneConfig, materialize, soft_prune_epoch
from fuseprune.tensor import Tensor
from fuseprune.zoo import ZooSpec, build

from conftest import bn_node, conv_node, fc_node, make_graph, plain_node


def single_op_graph(op_nodes, input_shape, out_src):
    nodes = [plain_node("in", "input", [])] + op_nodes
    nodes.append(plain_node("out", "output", [out_src]))
    g = make_graph(nodes, "in", "out", input_shape)
    validate(g)
    return g


class TestCountFlops:
    def test_conv_hand_example(self):
        g = single_op_graph(
            [conv_node("c", ["in"], 16, 3)], (1, 3, 32, 32), "c")
        report = count_flops(g)
        assert report.kind_flops()["conv"] == 884_736
        assert report.total_flops == 884_736

    def test_conv_bias_term(self):
        g = single_op_graph(
            [conv_node("c", ["in"], 16, 3, bias=np.zeros(16))], (1, 3, 32, 32), "c")
        assert count_flops(g).kind_flops()["conv"] == 884_736 + 16 * 32 * 32

    def test_conv_counts_only_the_taps_it_runs(self):
        # on a 1x1 map a 3x3 pad-1 conv's taps but the center read padding
        # alone, and the conv kernel leaves them out (tensor.live_taps)
        g = single_op_graph(
            [conv_node("c", ["in"], 16, 3, bias=np.zeros(16))], (1, 3, 1, 1), "c")
        assert count_flops(g).kind_flops()["conv"] == 16 * (2 * 3 + 1)
        # stride 2 on a 2x2 map: the one output reads taps 1..2 of each axis
        g = single_op_graph(
            [conv_node("c", ["in"], 16, 3, stride=(2, 2))], (1, 3, 2, 2), "c")
        assert count_flops(g).kind_flops()["conv"] == 16 * 2 * 3 * 4

    def test_conv_counts_scale_with_batch(self):
        g = single_op_graph(
            [conv_node("c", ["in"], 16, 3)], (2, 3, 32, 32), "c")
        assert count_flops(g).kind_flops()["conv"] == 2 * 884_736

    def test_add_and_relu_are_element_counts(self):
        nodes = [
            plain_node("r", "relu", ["in"]),
            plain_node("a", "add", ["r", "in"]),
        ]
        g = single_op_graph(nodes, (1, 16, 32, 32), "a")
        kinds = count_flops(g).kind_flops()
        assert kinds["add"] == 16_384
        assert kinds["relu"] == 16_384

    def test_bn_two_flops_per_element(self):
        g = single_op_graph([bn_node("b", ["in"], 4)], (1, 4, 5, 5), "b")
        assert count_flops(g).kind_flops()["bn"] == 200

    def test_pool_flops(self):
        nodes = [plain_node("p", "maxpool", ["in"], window=(2, 2), stride=(2, 2),
                            pad=(0, 0))]
        g = single_op_graph(nodes, (1, 3, 6, 6), "p")
        assert count_flops(g).kind_flops()["maxpool"] == 3 * 3 * 3 * 4

        g2 = single_op_graph([plain_node("p", "gavgpool", ["in"])], (1, 8, 4, 4), "p")
        assert count_flops(g2).kind_flops()["gavgpool"] == 128

    def test_fc_flops(self):
        nodes = [
            plain_node("gap", "gavgpool", ["in"]),
            fc_node("f", ["gap"], 5, 8, bias=np.zeros(5)),
        ]
        g = single_op_graph(nodes, (1, 8, 4, 4), "f")
        assert count_flops(g).kind_flops()["fc"] == 2 * 8 * 5

    def test_categories_and_totals(self):
        g = build(ZooSpec(family="resnet20", seed=0))
        report = count_flops(g)
        cats = report.category_flops()
        assert set(cats) == set(CATEGORIES)
        assert cats["other"] == 0
        assert cats["COP"] > cats["SOP"] > 0
        assert cats["COP"] + cats["SOP"] + cats["other"] == report.total_flops
        assert sum(report.kind_flops().values()) == report.total_flops
        assert all(n.flops >= 0 for n in report.nodes)
        assert categorize("conv") == "COP" and categorize("bn") == "SOP"
        assert categorize("concat") == "other"

    def test_invariant_under_reserialization(self, tmp_path):
        g = build(ZooSpec(family="resnet8-tiny", seed=1))
        p = tmp_path / "m.fpm"
        save(g, p)
        a, b = count_flops(g), count_flops(load(p))
        assert a.category_flops() == b.category_flops()
        assert a.kind_flops() == b.kind_flops()

    def test_fused_graph_drops_add_and_bn_workloads(self):
        g = build(ZooSpec(family="resnet20", seed=0))
        fused, _ = fuse(g, "3/3")
        folded = fold_bn(fused)
        kinds = count_flops(folded).kind_flops()
        assert kinds.get("add", 0) == 0
        assert kinds.get("bn", 0) == 0

    def test_fusion_never_reduces_conv_flops(self):
        g = build(ZooSpec(family="resnet20", seed=0))
        fused, _ = fuse(g, "3/3")
        before = count_flops(g).kind_flops()["conv"]
        after = count_flops(fused).kind_flops()["conv"]
        assert after > before  # identity carrier channels add work

    def test_conservative_materialize_restores_basic_block_conv_flops(self):
        g = build(ZooSpec(family="resnet20", seed=0))
        fused, report = fuse(g, "(3,0,0)")  # stage 1 blocks have identity shortcuts
        mask = soft_prune_epoch(fused, report, PruneConfig(rate=0.0, mode="conservative"))
        final = materialize(fused, mask, report).graph
        assert (count_flops(final).kind_flops()["conv"]
                == count_flops(g).kind_flops()["conv"])

    def test_projection_conv_work_is_absorbed(self):
        # fusing a projection block folds its 1x1 shortcut conv into the
        # block, so after restore-and-materialize the shortcut's flops vanish
        g = build(ZooSpec(family="resnet20", seed=0))
        fused, report = fuse(g, "3/3")
        mask = soft_prune_epoch(fused, report, PruneConfig(rate=0.0, mode="conservative"))
        final = materialize(fused, mask, report).graph
        original = count_flops(g)
        shortcut_flops = sum(
            n.flops for n in original.nodes
            if g.nodes[n.node_id].kind == "conv" and g.nodes[n.node_id].attrs["spec"].r == 1
        )
        deficit = (original.kind_flops()["conv"]
                   - count_flops(final).kind_flops()["conv"])
        assert deficit == shortcut_flops > 0


class TestProfile:
    def test_single_run(self):
        g = single_op_graph([plain_node("r", "relu", ["in"])], (1, 2, 3, 3), "r")
        report = profile(g, Tensor(np.zeros((1, 2, 3, 3), np.float32)), runs=1)
        assert report.runs_counted == 1
        times = report.kind_times()
        assert times["relu"] >= 0.0
        assert report.total_time < 0.5

    def test_rejects_zero_runs(self):
        g = single_op_graph([plain_node("r", "relu", ["in"])], (1, 2, 3, 3), "r")
        with pytest.raises(ValueError):
            profile(g, Tensor(np.zeros((1, 2, 3, 3), np.float32)), runs=0)

    def test_shares_and_dominance(self, rng):
        g = build(ZooSpec(family="resnet8-tiny", seed=0))
        x = Tensor(rng.standard_normal((8, 3, 8, 8)).astype(np.float32))
        report = profile(g, x, runs=30)
        assert report.runs_counted == 27
        shares = report.category_time_shares()
        assert abs(sum(shares.values()) - 1.0) < 1e-9
        # conv work dominates every other single category on this engine
        assert shares["COP"] == max(shares.values())
        assert all(t >= 0 for t in report.kind_times().values())

    def test_repeat_stability(self, rng):
        g = build(ZooSpec(family="resnet8-tiny", seed=0))
        x = Tensor(rng.standard_normal((16, 3, 8, 8)).astype(np.float32))
        a = profile(g, x, runs=60)
        b = profile(g, x, runs=60)
        ta, tb = a.kind_times(), b.kind_times()
        # substantial per-kind times agree within 3x between two profiles
        for kind in ta:
            if min(ta[kind], tb[kind]) > 2e-5:
                ratio = max(ta[kind], tb[kind]) / min(ta[kind], tb[kind])
                assert ratio < 3.0, (kind, ta[kind], tb[kind])

    def test_text_roundtrip_through_loader(self, tmp_path, rng):
        g = build(ZooSpec(family="resnet8-tiny", seed=0))
        x = Tensor(rng.standard_normal((1, 3, 8, 8)).astype(np.float32))
        report = profile(g, x, runs=2)
        path = tmp_path / "prof.txt"
        path.write_text(report.to_text())
        loaded = load_profile(path)
        want = report.kind_times()
        assert set(loaded) == set(want)
        for kind, val in want.items():
            assert abs(loaded[kind] - val) < 1e-9


class TestSpeedupModel:
    def test_hand_values(self):
        assert abs(speedup(0.5, 2.0) - 4.0 / 3.0) <= 1e-12
        assert abs(speedup(1.0, 3.0) - 3.0) <= 1e-12
        assert abs(amdahl_bound(0.4) - 1.0 / 0.6) <= 1e-12
        assert abs(speedup(0.0, 17.0) - 1.0) <= 1e-12

    def test_neutral_factor(self):
        for p in np.linspace(0, 1, 11):
            assert abs(speedup(float(p), 1.0) - 1.0) <= 1e-12

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            speedup(-0.1, 2.0)
        with pytest.raises(ValueError):
            speedup(1.1, 2.0)
        with pytest.raises(ValueError):
            speedup(0.5, 0.0)
        with pytest.raises(ValueError):
            amdahl_bound(1.0)

    @settings(max_examples=200, deadline=None)
    @given(p=st.floats(0.0, 0.999), a=st.floats(1e-6, 1e9))
    def test_bounded_by_amdahl(self, p, a):
        s = speedup(p, a)
        assert s <= amdahl_bound(p) + 1e-12
        if a >= 1.0:
            assert s >= 1.0 - 1e-12

    @settings(max_examples=100, deadline=None)
    @given(p=st.floats(0.0, 1.0), a=st.floats(1.0, 1e6), da=st.floats(0.0, 1e6),
           dp=st.floats(0.0, 1.0))
    def test_monotone_in_factor_and_fraction(self, p, a, da, dp):
        assert speedup(p, a + da) >= speedup(p, a) - 1e-12
        assert speedup(min(p + dp, 1.0), a) >= speedup(p, a) - 1e-12

    def test_limit_approaches_bound(self):
        for p in (0.1, 0.5, 0.9):
            assert abs(speedup(p, 1e12) - amdahl_bound(p)) < 1e-6

    def test_strictly_below_bound_for_finite_factor(self):
        assert speedup(0.7, 1e6) < amdahl_bound(0.7)


class TestCompare:
    def fake_report(self, **kind_flops):
        nodes = [NodeCost(f"n{i}", kind, categorize(kind), fl)
                 for i, (kind, fl) in enumerate(kind_flops.items())]
        return CostReport(nodes=nodes)

    def test_identical_reports(self):
        a = self.fake_report(conv=1000, add=50)
        delta = compare(a, self.fake_report(conv=1000, add=50))
        assert all(v == 0 for v in delta.absolute.values())
        assert delta.relative["COP"] == 0.0
        assert delta.flop_speedup == 1.0

    def test_removed_support_work(self):
        before = self.fake_report(conv=1000, add=64, bn=32)
        after = self.fake_report(conv=1000)
        delta = compare(before, after)
        assert delta.absolute["SOP"] == -96
        assert delta.absolute["COP"] == 0
        assert abs(delta.flop_speedup - 1096 / 1000) <= 1e-12

    def test_text_rendering(self):
        delta = compare(self.fake_report(conv=100), self.fake_report(conv=50))
        text = delta.to_text()
        assert "flop_speedup 2.000000" in text
        assert "COP -50" in text


class TestProfileFileSpeedup:
    def test_from_measured_shares(self, tmp_path):
        path = tmp_path / "prof.txt"
        path.write_text("# engine profile\nconv 0.6\nbn 0.3\nrelu 0.1\n")
        times = load_profile(path)
        got = speedup_from_profile(times, "conv", 2.0)
        assert abs(got - 1.0 / (0.4 + 0.3)) <= 1e-12
        both = speedup_from_profile(times, ["conv", "bn"], 3.0)
        assert abs(both - speedup(0.9, 3.0)) <= 1e-12

    def test_unknown_label(self):
        with pytest.raises(ValueError):
            speedup_from_profile({"conv": 1.0}, "fc", 2.0)

    def test_loader_errors(self, tmp_path):
        empty = tmp_path / "empty.txt"
        empty.write_text("# nothing\n")
        with pytest.raises(ValueError):
            load_profile(empty)
        bad = tmp_path / "bad.txt"
        bad.write_text("conv 1.0 extra\n")
        with pytest.raises(ValueError):
            load_profile(bad)
