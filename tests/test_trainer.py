"""Trainer tests: synthetic data, loss math, finite-difference gradient
checks for every op kind, SGD semantics, and frozen-channel safety."""

from __future__ import annotations

import sys

import numpy as np
import pytest

from fuseprune import graph
from fuseprune.fusion import fuse
from fuseprune.graph import OPS, execute, validate
from fuseprune.pruning import PruneConfig, dynamic_prune
from fuseprune.tensor import Tensor
from fuseprune.trainer import (
    SynthDataset,
    TrainConfig,
    TrainerError,
    evaluate,
    fit,
    forward_backward,
    make_epoch_hook,
    parse_dataset_spec,
    sgd_step,
    softmax_cross_entropy,
    _forward_train,
    train_epoch,
    training_forward,
)
from fuseprune.zoo import ZooSpec, build

from conftest import bn_node, conv_node, fc_node, make_graph, plain_node
from oracles import numeric_gradient

F64 = np.float64


def weights_blob(g):
    """All parameters and running statistics as one deterministic byte string."""
    return b"".join(g.nodes[nid].params[name].data.tobytes()
                    for nid in g.topo_order()
                    for name in sorted(g.nodes[nid].params))


def rel_err(analytic, numeric, keep=None):
    """Max absolute difference, normalized by the largest gradient entry."""
    a = np.asarray(analytic, dtype=np.float64).reshape(-1)
    n = np.asarray(numeric, dtype=np.float64).reshape(-1)
    assert a.shape == n.shape
    if keep is not None:
        sel = np.asarray(keep, dtype=bool).reshape(-1)
        a, n = a[sel], n[sel]
    scale = max(np.abs(a).max(initial=0.0), np.abs(n).max(initial=0.0), 1e-12)
    return float(np.abs(a - n).max(initial=0.0) / scale)


def head(nodes, tail, feat, classes, rng, dtype=F64):
    wf = (rng.standard_normal((classes, feat, 1, 1)) * 0.5).astype(dtype)
    nodes.append(plain_node("gap", "gavgpool", [tail]))
    nodes.append(fc_node("fc", ["gap"], classes, feat,
                         weight=wf, bias=rng.uniform(-0.2, 0.2, classes), dtype=dtype))
    nodes.append(plain_node("out", "output", ["fc"]))


def conv_graph(rng, bias=True, dtype=F64):
    w = (rng.standard_normal((4, 3, 3, 3)) * 0.4).astype(dtype)
    nodes = [
        plain_node("in", "input", []),
        conv_node("conv", ["in"], 4, 3, weight=w,
                  bias=rng.uniform(-0.2, 0.2, 4) if bias else None, dtype=dtype),
    ]
    head(nodes, "conv", 4, 5, rng, dtype)
    g = make_graph(nodes, "in", "out", (1, 3, 6, 6))
    validate(g)
    return g


def relu_first_graph(rng, dtype=F64):
    w = (rng.standard_normal((4, 3, 3, 3)) * 0.4).astype(dtype)
    nodes = [
        plain_node("in", "input", []),
        plain_node("act", "relu", ["in"]),
        conv_node("conv", ["act"], 4, 3, weight=w, bias=rng.uniform(-0.2, 0.2, 4),
                  dtype=dtype),
    ]
    head(nodes, "conv", 4, 5, rng, dtype)
    g = make_graph(nodes, "in", "out", (1, 3, 6, 6))
    validate(g)
    return g


def bn_graph(rng, frozen=None, dtype=F64):
    w = (rng.standard_normal((4, 3, 3, 3)) * 0.4).astype(dtype)
    nodes = [
        plain_node("in", "input", []),
        conv_node("conv", ["in"], 4, 3, weight=w, dtype=dtype),
        bn_node("bn", ["conv"], 4, gamma=rng.uniform(0.6, 1.4, 4),
                beta=rng.uniform(-0.3, 0.3, 4), mean=rng.uniform(-0.3, 0.3, 4),
                var=rng.uniform(0.5, 1.5, 4), frozen=frozen, dtype=dtype),
    ]
    head(nodes, "bn", 4, 5, rng, dtype)
    g = make_graph(nodes, "in", "out", (1, 3, 6, 6))
    validate(g)
    return g


def maxpool_graph(rng, window=(2, 2), stride=(2, 2), pad=(0, 0), dtype=F64):
    w = (rng.standard_normal((4, 3, 3, 3)) * 0.4).astype(dtype)
    nodes = [
        plain_node("in", "input", []),
        plain_node("pool", "maxpool", ["in"], window=window, stride=stride, pad=pad),
        conv_node("conv", ["pool"], 4, 3, weight=w, bias=rng.uniform(-0.2, 0.2, 4),
                  dtype=dtype),
    ]
    head(nodes, "conv", 4, 5, rng, dtype)
    g = make_graph(nodes, "in", "out", (1, 3, 6, 6))
    validate(g)
    return g


def twopath_graph(rng, joiner, dtype=F64):
    ka, kb = (4, 4) if joiner == "add" else (3, 2)
    wa = (rng.standard_normal((ka, 3, 3, 3)) * 0.4).astype(dtype)
    wb = (rng.standard_normal((kb, 3, 3, 3)) * 0.4).astype(dtype)
    nodes = [
        plain_node("in", "input", []),
        conv_node("ca", ["in"], ka, 3, weight=wa, dtype=dtype),
        conv_node("cb", ["in"], kb, 3, weight=wb, dtype=dtype),
        plain_node("join", joiner, ["ca", "cb"]),
    ]
    feat = ka if joiner == "add" else ka + kb
    head(nodes, "join", feat, 5, rng, dtype)
    g = make_graph(nodes, "in", "out", (1, 3, 6, 6))
    validate(g)
    return g


def small_net(seed, k=8, frozen=None):
    """A trainable conv-bn-relu net sized for the synthetic data (3, 8, 8)."""
    rng = np.random.default_rng(seed)
    w = (rng.standard_normal((k, 3, 3, 3)) * np.sqrt(2.0 / 27)).astype(np.float32)
    nodes = [
        plain_node("in", "input", []),
        conv_node("conv", ["in"], k, 3, weight=w),
        bn_node("bn", ["conv"], k, frozen=frozen,
                gamma=rng.uniform(0.8, 1.2, k), beta=rng.uniform(-0.1, 0.1, k),
                mean=rng.uniform(-0.1, 0.1, k), var=rng.uniform(0.8, 1.2, k)),
        plain_node("act", "relu", ["bn"]),
    ]
    head(nodes, "act", k, 10, rng, np.float32)
    g = make_graph(nodes, "in", "out", (1, 3, 8, 8))
    validate(g)
    return g


def param_loss_fn(g, nid, pname, x, labels):
    node = g.nodes[nid]
    shape = node.params[pname].shape
    dt = node.params[pname].dtype

    def fn(arr):
        node.params = dict(node.params)
        node.params[pname] = Tensor(np.asarray(arr, dt).reshape(shape))
        return forward_backward(g, x, labels)[0]

    return fn


def input_loss_fn(g, labels):
    return lambda arr: forward_backward(g, arr, labels)[0]


def check_param(g, nid, pname, x, labels, keep=None, tol=1e-4):
    _, grads, _ = forward_backward(g, x, labels)
    num = numeric_gradient(param_loss_fn(g, nid, pname, x, labels),
                           g.nodes[nid].params[pname].data.copy())
    assert rel_err(grads[nid][pname], num, keep) <= tol
    return grads[nid][pname], num


def check_input(g, x, labels, keep=None, tol=1e-4):
    _, _, gx = forward_backward(g, x, labels)
    num = numeric_gradient(input_loss_fn(g, labels), x)
    assert rel_err(gx, num, keep) <= tol


class TestSynthDataset:
    def test_bit_identical_regeneration(self):
        a = SynthDataset(seed=7)
        b = SynthDataset(seed=7)
        assert a.train_images.tobytes() == b.train_images.tobytes()
        assert a.train_labels.tobytes() == b.train_labels.tobytes()
        assert a.test_images.tobytes() == b.test_images.tobytes()
        assert a.test_labels.tobytes() == b.test_labels.tobytes()

    def test_seed_changes_data(self):
        assert (SynthDataset(seed=1).train_images.tobytes()
                != SynthDataset(seed=2).train_images.tobytes())

    def test_shapes_and_ranges(self):
        ds = SynthDataset(seed=0, n_train=50, n_test=20)
        assert ds.train_images.shape == (50, 3, 8, 8)
        assert ds.test_images.shape == (20, 3, 8, 8)
        assert ds.train_images.dtype == np.float32
        assert ds.train_labels.dtype == np.int64
        assert set(np.unique(ds.train_labels)) <= set(range(10))

    def test_class_means_layout(self):
        means = SynthDataset(seed=0).class_means()
        assert means.shape == (10, 3)
        # class 0: amplitude * cos(-pi * ch / 3)
        expect = 2.0 * np.cos(-np.pi * np.arange(3) / 3)
        assert np.allclose(means[0], expect, atol=1e-6)
        # distinct classes get distinct mean vectors
        assert len({tuple(np.round(row, 5)) for row in means}) == 10

    def test_parse_spec(self):
        ds = parse_dataset_spec("synth:seed=42")
        assert (ds.seed, ds.n_train, ds.n_test) == (42, 512, 128)
        ds = parse_dataset_spec("synth:seed=7,n=100")
        assert (ds.seed, ds.n_train, ds.n_test) == (7, 100, 25)

    def test_parse_spec_in_a_given_image_shape(self):
        ds = parse_dataset_spec("synth:seed=7,n=100", (1, 4, 6))
        assert ds.train_images.shape == (100, 1, 4, 6)
        assert ds.test_images.shape == (25, 1, 4, 6)

    def test_parse_errors(self):
        for bad in ("", "synth:", "synth:seed=x", "mnist", "synth:n=4", "synth:seed=1,n=1"):
            with pytest.raises(ValueError):
                parse_dataset_spec(bad)

    def test_linear_probe_separates_classes(self):
        ds = SynthDataset(seed=11, n_train=4, n_test=200)
        w = ds.class_means().reshape(10, 3, 1, 1).astype(np.float32)
        nodes = [
            plain_node("in", "input", []),
            plain_node("gap", "gavgpool", ["in"]),
            fc_node("fc", ["gap"], 10, 3, weight=w),
            plain_node("out", "output", ["fc"]),
        ]
        g = make_graph(nodes, "in", "out", (1, 3, 8, 8))
        validate(g)
        assert evaluate(g, ds) >= 0.95


class TestSoftmaxCrossEntropy:
    def test_uniform_logits(self):
        logits = np.zeros((4, 5))
        labels = np.array([0, 1, 2, 3])
        loss, dlogits = softmax_cross_entropy(logits, labels)
        assert abs(loss - np.log(5)) < 1e-12
        expect = np.full((4, 5), 0.2)
        expect[np.arange(4), labels] -= 1.0
        assert np.allclose(dlogits, expect / 4, atol=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        logits = rng.standard_normal((3, 6))
        labels = rng.integers(0, 6, 3)
        _, dlogits = softmax_cross_entropy(logits, labels)
        num = numeric_gradient(lambda z: softmax_cross_entropy(z, labels)[0], logits)
        assert rel_err(dlogits, num) <= 1e-6

    def test_shift_invariance_and_large_logits(self):
        rng = np.random.default_rng(4)
        logits = rng.standard_normal((2, 4))
        labels = np.array([1, 3])
        base, _ = softmax_cross_entropy(logits, labels)
        shifted, _ = softmax_cross_entropy(logits + 1000.0, labels)
        assert abs(base - shifted) < 1e-9
        loss, _ = softmax_cross_entropy(np.array([[1e4, 0.0]]), np.array([0]))
        assert np.isfinite(loss)


class TestGradients:
    def labels(self, rng, n, classes=5):
        return rng.integers(0, classes, n)

    def test_fc_and_gavgpool(self, rng):
        nodes = [plain_node("in", "input", [])]
        head(nodes, "in", 3, 5, rng, F64)
        g = make_graph(nodes, "in", "out", (1, 3, 6, 6))
        validate(g)
        x = rng.standard_normal((2, 3, 6, 6))
        y = self.labels(rng, 2)
        check_param(g, "fc", "weight", x, y)
        check_param(g, "fc", "bias", x, y)
        check_input(g, x, y)

    def test_fc_over_a_spatial_map(self, rng):
        # the fc reads all 3*6*5 values of a non-square map: its backward
        # takes the (c*h*w, n) view of a (c, h, w, n) input, whose row order
        # must be the weight's (c, h, w) order
        nodes = [plain_node("in", "input", []),
                 fc_node("fc", ["in"], 5, 90, weight=rng.standard_normal((5, 90, 1, 1)) * 0.3,
                         bias=rng.uniform(-0.2, 0.2, 5), dtype=F64),
                 plain_node("out", "output", ["fc"])]
        g = make_graph(nodes, "in", "out", (1, 3, 6, 5))
        validate(g)
        x = rng.standard_normal((3, 3, 6, 5))
        y = self.labels(rng, 3)
        check_param(g, "fc", "weight", x, y)
        check_param(g, "fc", "bias", x, y)
        check_input(g, x, y)

    def test_conv_params_and_input(self, rng):
        g = conv_graph(rng)
        x = rng.standard_normal((2, 3, 6, 6))
        y = self.labels(rng, 2)
        check_param(g, "conv", "weight", x, y)
        check_param(g, "conv", "bias", x, y)
        check_input(g, x, y)

    def test_conv_without_bias(self, rng):
        g = conv_graph(rng, bias=False)
        x = rng.standard_normal((2, 3, 6, 6))
        y = self.labels(rng, 2)
        _, grads, _ = forward_backward(g, x, y)
        assert set(grads["conv"]) == {"weight"}
        check_param(g, "conv", "weight", x, y)

    def test_strided_padded_conv(self, rng):
        w = (rng.standard_normal((4, 3, 3, 3)) * 0.4).astype(F64)
        nodes = [
            plain_node("in", "input", []),
            conv_node("conv", ["in"], 4, 3, stride=(2, 2), pad=(1, 1), weight=w,
                      bias=rng.uniform(-0.2, 0.2, 4), dtype=F64),
        ]
        head(nodes, "conv", 4, 5, rng, F64)
        g = make_graph(nodes, "in", "out", (1, 3, 7, 7))
        validate(g)
        x = rng.standard_normal((2, 3, 7, 7))
        y = self.labels(rng, 2)
        check_param(g, "conv", "weight", x, y)
        check_input(g, x, y)

    def test_relu_input_away_from_kinks(self, rng):
        g = relu_first_graph(rng)
        # magnitudes >= 0.2 so the finite-difference probes never cross zero
        x = rng.uniform(0.2, 1.2, (2, 3, 6, 6)) * rng.choice([-1.0, 1.0], (2, 3, 6, 6))
        y = self.labels(rng, 2)
        kink = np.abs(x) < 1e-6
        assert not kink.any()
        check_input(g, x, y, keep=~kink)
        check_param(g, "conv", "weight", x, y)

    def test_bn_full_batch_statistics_chain(self, rng):
        g = bn_graph(rng)
        x = rng.standard_normal((3, 3, 6, 6))
        y = self.labels(rng, 3)
        check_param(g, "bn", "gamma", x, y)
        check_param(g, "bn", "beta", x, y)
        # conv weight gradient flows through the batch mean/variance
        check_param(g, "conv", "weight", x, y)
        check_input(g, x, y)

    def test_bn_frozen_channels(self, rng):
        frozen = [1, 0, 1, 0]
        g = bn_graph(rng, frozen=frozen)
        x = rng.standard_normal((3, 3, 6, 6))
        y = self.labels(rng, 3)
        _, grads, _ = forward_backward(g, x, y)
        fmask = np.asarray(frozen, bool)
        assert np.all(grads["bn"]["gamma"].reshape(-1)[fmask] == 0.0)
        assert np.all(grads["bn"]["beta"].reshape(-1)[fmask] == 0.0)
        # unfrozen channels still carry exact gradients; frozen ones are
        # pinned by design, so the comparison excludes them
        keep = np.repeat(~fmask, 1)
        check_param(g, "bn", "gamma", x, y, keep=keep)
        check_param(g, "bn", "beta", x, y, keep=keep)
        check_input(g, x, y)

    # window, stride, pad, and a tied pair (first, second) in row-major
    # order such that every window reading the second also reads the first.
    # The 3x3 pools overlap and read -inf padding at the border.
    @pytest.mark.parametrize("window, stride, pad, tie", [
        ((2, 2), (2, 2), (0, 0), ((0, 0), (0, 1))),
        ((3, 3), (2, 2), (1, 1), ((0, 1), (0, 2))),
        ((3, 3), (1, 1), (1, 1), ((0, 4), (0, 5))),
    ])
    def test_maxpool_routing(self, rng, window, stride, pad, tie):
        g = maxpool_graph(rng, window, stride, pad)
        n = 2 * 3 * 6 * 6
        # distinct spaced values: probes never flip which entry is the max
        x = ((rng.permutation(n).astype(F64) - n / 2.0) * 0.05).reshape(2, 3, 6, 6)
        y = self.labels(rng, 2)
        check_input(g, x, y)
        check_param(g, "conv", "weight", x, y)
        # a tie at the channel's maximum: the first tap that reaches it takes
        # the whole gradient, which is the derivative of moving both together
        first, second = ((0, 0) + tie[0]), ((0, 0) + tie[1])
        x[first] = x[second] = x[0, 0].max() + 1.0
        tied = np.zeros(x.shape, bool)
        tied[first] = tied[second] = True
        _, _, gx = forward_backward(g, x, y)
        assert gx[second] == 0.0 and gx[first] != 0.0
        joint = numeric_gradient(lambda t: forward_backward(g, x + t[0] * tied, y)[0],
                                 np.zeros(1))
        assert rel_err(gx[first], joint) <= 1e-4
        check_input(g, x, y, keep=~tied)

    def test_maxpool_backward_skips_padding_at_a_zero_maximum(self, rng):
        # relu -> 3x3/2 pad-1 maxpool on a 4x4 map: the top-left window's
        # real entries are all negative before the relu, so its maximum is
        # exactly 0, which a tap of zero padding would equal too; the
        # gradient must land on the window's first real zero, never on padding
        nodes = [plain_node("in", "input", []), plain_node("relu", "relu", ["in"]),
                 plain_node("pool", "maxpool", ["relu"], window=(3, 3), stride=(2, 2),
                            pad=(1, 1)),
                 plain_node("out", "output", ["pool"])]
        g = make_graph(nodes, "in", "out", (1, 1, 4, 4))
        x = rng.uniform(0.5, 1.5, (1, 1, 4, 4))
        x[0, 0, :2, :2] = -1.0
        # the trainer's arrays are (c, h, w, n); [0, 0, 0, 0] is the top-left
        # value of the one channel of the one image in either layout
        values, _ = _forward_train(g, x.transpose(1, 2, 3, 0), 0.1, g.topo_order())
        assert values["pool"][0, 0, 0, 0] == 0.0
        gy = rng.uniform(0.5, 1.5, values["pool"].shape)
        (gx,), _ = OPS["maxpool"].backward(g.nodes["pool"], gy, [values["relu"]], values["pool"],
                                           None)
        assert gx[0, 0, 0, 0] == gy[0, 0, 0, 0]
        assert np.isclose(gx.sum(), gy.sum())

    def test_add_paths(self, rng):
        g = twopath_graph(rng, "add")
        x = rng.standard_normal((2, 3, 6, 6))
        y = self.labels(rng, 2)
        check_input(g, x, y)
        check_param(g, "ca", "weight", x, y)
        check_param(g, "cb", "weight", x, y)

    def test_concat_paths(self, rng):
        g = twopath_graph(rng, "concat")
        x = rng.standard_normal((2, 3, 6, 6))
        y = self.labels(rng, 2)
        check_input(g, x, y)
        check_param(g, "ca", "weight", x, y)
        check_param(g, "cb", "weight", x, y)

    def test_residual_block_end_to_end(self, rng):
        from conftest import random_residual_block_graph

        g = random_residual_block_graph(rng, c_in=3, k=3, hw=6, dtype=F64)
        # replace the bare output with a classification head
        nodes = [n for n in g.nodes.values() if n.kind != "output"]
        head(nodes, "relu2", 3, 4, rng, F64)
        g2 = make_graph(nodes, "in", "out", (1, 3, 6, 6))
        validate(g2)
        x = np.abs(rng.standard_normal((2, 3, 6, 6))) + 0.2
        y = self.labels(rng, 2, classes=4)
        check_param(g2, "conv1", "weight", x, y)
        check_param(g2, "conv2", "weight", x, y)
        check_param(g2, "bn1", "gamma", x, y)


class TestTrainingForward:
    def test_matches_inference_without_bn(self, rng):
        g = conv_graph(rng)
        x = rng.standard_normal((2, 3, 6, 6))
        got = training_forward(g, x)
        want = execute(g, Tensor(x)).data.reshape(2, -1)
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_bn_normalizes_with_batch_statistics(self, rng):
        nodes = [
            plain_node("in", "input", []),
            bn_node("bn", ["in"], 4, mean=rng.uniform(-1, 1, 4), var=rng.uniform(1, 2, 4),
                    dtype=F64),
            plain_node("out", "output", ["bn"]),
        ]
        g = make_graph(nodes, "in", "out", (1, 4, 5, 5))
        validate(g)
        x = rng.standard_normal((8, 4, 5, 5)) * 2.0 + 1.0
        y = training_forward(g, x).reshape(8, 4, 5, 5)
        assert np.abs(y.mean(axis=(0, 2, 3))).max() < 1e-10
        assert np.abs(y.var(axis=(0, 2, 3)) - 1.0).max() < 1e-5

    def test_running_statistics_update(self, rng):
        stored_mean = rng.uniform(-1, 1, 4)
        stored_var = rng.uniform(1, 2, 4)
        nodes = [
            plain_node("in", "input", []),
            bn_node("bn", ["in"], 4, mean=stored_mean, var=stored_var, dtype=F64),
            plain_node("out", "output", ["bn"]),
        ]
        g = make_graph(nodes, "in", "out", (1, 4, 5, 5))
        x = rng.standard_normal((8, 4, 5, 5))
        training_forward(g, x, bn_momentum=0.25)
        want_mean = 0.75 * stored_mean + 0.25 * x.mean(axis=(0, 2, 3))
        want_var = 0.75 * stored_var + 0.25 * x.var(axis=(0, 2, 3))
        assert np.allclose(g.nodes["bn"].params["mean"].data.reshape(-1), want_mean, atol=1e-12)
        assert np.allclose(g.nodes["bn"].params["var"].data.reshape(-1), want_var, atol=1e-12)

    def test_frozen_channels_keep_stored_statistics(self, rng):
        frozen = [0, 1, 0, 1]
        nodes = [
            plain_node("in", "input", []),
            bn_node("bn", ["in"], 4, mean=rng.uniform(-1, 1, 4), var=rng.uniform(1, 2, 4),
                    frozen=frozen, dtype=F64),
            plain_node("out", "output", ["bn"]),
        ]
        g = make_graph(nodes, "in", "out", (1, 4, 5, 5))
        before_mean = g.nodes["bn"].params["mean"].data.copy()
        before_var = g.nodes["bn"].params["var"].data.copy()
        training_forward(g, rng.standard_normal((8, 4, 5, 5)))
        after_mean = g.nodes["bn"].params["mean"].data
        after_var = g.nodes["bn"].params["var"].data
        fmask = np.asarray(frozen, bool)
        assert after_mean.reshape(-1)[fmask].tobytes() == before_mean.reshape(-1)[fmask].tobytes()
        assert after_var.reshape(-1)[fmask].tobytes() == before_var.reshape(-1)[fmask].tobytes()
        assert not np.array_equal(after_mean.reshape(-1)[~fmask], before_mean.reshape(-1)[~fmask])


def sgd_reference(g, grads, cfg, velocity):
    """sgd_step one parameter at a time, the order of operations its flat
    pass must keep bit for bit: step = wd*p + grad, the frozen channels'
    step zeroed, v = momentum*v + step (v = step at first), p - lr*v."""
    for nid, gparams in grads.items():
        node = g.nodes[nid]
        new = {}
        for pname, grad in gparams.items():
            param = node.params[pname].data
            dt = param.dtype
            step = dt.type(cfg.weight_decay) * param
            step += grad
            if node.attrs.get("frozen"):
                step[:, np.asarray(node.attrs["frozen"], dtype=bool)] = 0
            v = velocity.get((nid, pname))
            if v is None:
                v = velocity[(nid, pname)] = step
            else:
                v *= dt.type(cfg.momentum)
                v += step
            new[pname] = Tensor(param - dt.type(cfg.lr) * v)
        node.params = {**node.params, **new}


class TestSgdStep:
    @pytest.mark.parametrize("dt", (np.float32, F64))
    def test_flat_update_matches_the_per_parameter_reference(self, dt):
        rng = np.random.default_rng(11)
        flat = bn_graph(rng, frozen=[1, 0, 0, 1], dtype=dt)
        # a -0.0 gradient on a -0.0 parameter makes a first step of -0.0,
        # which the velocity must keep
        bias = flat.nodes["fc"].params["bias"].data.copy()
        bias.flat[0] = -0.0
        flat.nodes["fc"].params = {**flat.nodes["fc"].params, "bias": Tensor(bias)}
        ref = flat.copy()
        x = rng.standard_normal((4, 3, 6, 6))
        labels = np.array([0, 3, 1, 4])
        cfg = TrainConfig(lr=0.05, momentum=0.9, weight_decay=1e-4)
        v_flat, v_ref = {}, {}
        for _ in range(3):
            # each graph's own step, so that bn's running statistics move alike
            steps = [forward_backward(h, x, labels)[1] for h in (flat, ref)]
            for grads in steps:
                grads["fc"]["bias"].flat[0] = -0.0
            assert set(steps[0]) == {"conv", "bn", "fc"}
            sgd_step(flat, steps[0], cfg, v_flat)
            sgd_reference(ref, steps[1], cfg, v_ref)
            assert weights_blob(flat) == weights_blob(ref)
            assert list(v_flat) == list(v_ref)
            assert all(v_flat[key].dtype == dt and v_flat[key].shape == v_ref[key].shape
                       and v_flat[key].tobytes() == v_ref[key].tobytes() for key in v_ref)
        # the frozen channels never moved
        fmask = np.array([1, 0, 0, 1], bool)
        for name in ("gamma", "beta"):
            assert (flat.nodes["bn"].params[name].data.reshape(-1)[fmask].tobytes()
                    == bn_graph(np.random.default_rng(11), dtype=dt).nodes["bn"].params[name]
                    .data.reshape(-1)[fmask].tobytes())

    def test_divergence_names_the_first_bad_parameter_and_stops_there(self):
        g = bn_graph(np.random.default_rng(12), dtype=np.float32)
        before = {nid: dict(g.nodes[nid].params) for nid in ("conv", "bn", "fc")}
        grads = {nid: {p: np.full_like(before[nid][p].data, 1.0) for p in gparams}
                 for nid, gparams in (("conv", ["weight"]), ("bn", ["gamma", "beta"]),
                                      ("fc", ["weight", "bias"]))}
        # lr * 1e10 * 1e30 overflows float32 in bn's beta and fc alone
        grads["bn"]["beta"] = np.full_like(grads["bn"]["beta"], 1e30)
        grads["fc"]["weight"] = np.full_like(grads["fc"]["weight"], 1e30)
        with np.errstate(all="ignore"), pytest.raises(
                TrainerError, match=r"^node 'bn': beta update is not finite \(training diverged\)$"):
            sgd_step(g, grads, TrainConfig(lr=1e10, momentum=0.0, weight_decay=0.0), {})
        # the nodes before it are updated, it and those after it are not
        assert g.nodes["conv"].params["weight"] is not before["conv"]["weight"]
        assert all(g.nodes[nid].params[p] is before[nid][p]
                   for nid in ("bn", "fc") for p in before[nid])

    def test_vanilla_step_is_param_minus_lr_grad(self, rng):
        g = small_net(0)
        ds = SynthDataset(seed=1, n_train=8, n_test=4)
        cfg = TrainConfig(lr=0.05, momentum=0.0, weight_decay=0.0)
        before = g.nodes["conv"].params["weight"].data.copy()
        _, grads, _ = forward_backward(g, ds.train_images[:8], ds.train_labels[:8])
        sgd_step(g, grads, cfg, {})
        want = before - np.float32(0.05) * grads["conv"]["weight"].astype(np.float32)
        assert np.array_equal(g.nodes["conv"].params["weight"].data, want)

    def test_momentum_accumulates(self, rng):
        g = small_net(0)
        p0 = g.nodes["fc"].params["weight"].data.copy()
        fake = np.full_like(p0, 0.5)
        grads = {"fc": {"weight": fake}}
        cfg = TrainConfig(lr=0.1, momentum=0.5, weight_decay=0.0)
        velocity = {}
        sgd_step(g, grads, cfg, velocity)
        sgd_step(g, grads, cfg, velocity)
        v1 = fake
        v2 = np.float32(0.5) * v1 + fake
        want = p0 - np.float32(0.1) * v1 - np.float32(0.1) * v2
        assert np.allclose(g.nodes["fc"].params["weight"].data, want, atol=1e-7)

    def test_weight_decay_pull(self, rng):
        g = small_net(0)
        p0 = g.nodes["conv"].params["weight"].data.copy()
        grads = {"conv": {"weight": np.zeros_like(p0)}}
        cfg = TrainConfig(lr=0.1, momentum=0.0, weight_decay=0.2)
        sgd_step(g, grads, cfg, {})
        want = p0 - np.float32(0.1) * (np.float32(0.2) * p0)
        assert np.array_equal(g.nodes["conv"].params["weight"].data, want)

    def test_frozen_bn_channels_skip_weight_decay(self, rng):
        frozen = [1, 0, 1, 0, 0, 1, 0, 0]
        g = small_net(0, frozen=frozen)
        gamma0 = g.nodes["bn"].params["gamma"].data.copy()
        zeros = {"bn": {"gamma": np.zeros_like(gamma0),
                        "beta": np.zeros_like(gamma0)}}
        cfg = TrainConfig(lr=0.1, momentum=0.0, weight_decay=0.5)
        sgd_step(g, zeros, cfg, {})
        after = g.nodes["bn"].params["gamma"].data.reshape(-1)
        fmask = np.asarray(frozen, bool)
        assert after[fmask].tobytes() == gamma0.reshape(-1)[fmask].tobytes()
        assert np.all(after[~fmask] != gamma0.reshape(-1)[~fmask])

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(lr=0.0)
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)
        with pytest.raises(ValueError):
            TrainConfig(bn_momentum=0.0)
        with pytest.raises(ValueError):
            TrainConfig(momentum=-0.1)
        # non-finite values passed every bound and failed only at the
        # first update
        for bad in (dict(lr=np.inf), dict(momentum=np.nan), dict(weight_decay=np.inf)):
            with pytest.raises(ValueError, match="must be finite"):
                TrainConfig(**bad)


class TestTrainEpoch:
    def cfg(self, **kw):
        base = dict(lr=0.05, momentum=0.9, weight_decay=1e-4, batch_size=32,
                    epochs=4, seed=0)
        base.update(kw)
        return TrainConfig(**base)

    def test_training_releases_the_weights_a_kept_plan_held(self):
        # a graph executed, as by evaluate, keeps a plan; training replaced
        # every parameter, but the stale plan held all the old Tensors until
        # the next execute
        g = small_net(1)
        x = Tensor(np.zeros((2, 3, 8, 8), np.float32))
        old = [t for node in g.nodes.values() for t in node.params.values()]
        refs = [sys.getrefcount(t) for t in old]
        execute(g, x)
        assert g._plan is not None
        train_epoch(g, SynthDataset(seed=1, n_train=32, n_test=4), self.cfg())
        assert g._plan is None
        assert [sys.getrefcount(t) for t in old] == [r - 1 for r in refs]

    @pytest.mark.parametrize("build_graph,shape", [
        (lambda: fuse(build(ZooSpec("resnet8-tiny", seed=3)), "3/3")[0], (3, 8, 8)),
        (lambda: build(ZooSpec("resnet18", input_shape=(1, 3, 16, 16), classes=10, seed=3)),
         (3, 16, 16)),
    ], ids=["resnet8-tiny-fused", "resnet18-maxpool-stem"])
    def test_epochs_match_the_public_step(self, build_graph, shape):
        # train_epoch computes no input gradient; the public forward_backward
        # does, and the weights, running statistics and losses must not care
        ds = SynthDataset(seed=5, shape=shape, n_train=16, n_test=4)
        cfg = self.cfg(batch_size=8)
        g, ref = build_graph(), build_graph()
        velocity, v_ref = {}, {}
        for epoch in range(2):
            loss = train_epoch(g, ds, cfg, epoch, velocity)
            order = np.random.default_rng((cfg.seed, epoch)).permutation(ds.n_train)
            losses = []
            for start in range(0, ds.n_train, cfg.batch_size):
                idx = order[start : start + cfg.batch_size]
                step_loss, grads, gx = forward_backward(ref, ds.train_images[idx],
                                                        ds.train_labels[idx], cfg.bn_momentum)
                assert gx.shape == (len(idx), *shape)
                sgd_step(ref, grads, cfg, v_ref)
                losses.append(step_loss * len(idx))
            assert loss == sum(losses) / ds.n_train
            assert weights_blob(g) == weights_blob(ref)

    def test_loss_decreases_and_accuracy_improves(self):
        g = small_net(1)
        ds = SynthDataset(seed=3, n_train=128, n_test=64)
        before = evaluate(g, ds)
        losses = fit(g, ds, self.cfg())
        assert losses[-1] < losses[0]
        assert evaluate(g, ds) > max(before, 0.5)

    def test_training_is_deterministic(self):
        runs = []
        for _ in range(2):
            g = small_net(1)
            ds = SynthDataset(seed=3, n_train=64, n_test=16)
            losses = fit(g, ds, self.cfg(epochs=2))
            runs.append((losses, weights_blob(g)))
        assert runs[0][0] == runs[1][0]
        assert runs[0][1] == runs[1][1]

    def test_epoch_index_changes_batch_order(self):
        ga, gb = small_net(1), small_net(1)
        ds = SynthDataset(seed=3, n_train=64, n_test=16)
        train_epoch(ga, ds, self.cfg(), epoch=0)
        train_epoch(gb, ds, self.cfg(), epoch=1)
        assert weights_blob(ga) != weights_blob(gb)

    def test_partial_final_batch(self):
        g = small_net(2)
        ds = SynthDataset(seed=4, n_train=40, n_test=8)
        loss = train_epoch(g, ds, self.cfg(batch_size=16))
        assert np.isfinite(loss)

    def test_f64_graph_fits_and_evaluates_on_f32_data(self):
        # the synthetic images are f32; training and evaluate cast them to
        # the graph's dtype, exactly, so the f64 graph stays f64
        g = build(ZooSpec("resnet8-tiny", dtype="f64", seed=2))
        ds = SynthDataset(seed=2, n_train=64, n_test=32)
        assert ds.train_images.dtype == np.float32
        losses = fit(g, ds, self.cfg(epochs=1))
        assert np.isfinite(losses[0])
        assert 0 <= evaluate(g, ds) <= 1
        assert {t.dtype for n in g.nodes.values() for t in n.params.values()} == {np.dtype(F64)}
        step = [forward_backward(g.copy(), batch, ds.train_labels[:8])
                for batch in (ds.train_images[:8], ds.train_images[:8].astype(F64))]
        assert step[0][0] == step[1][0] and step[0][2].dtype == F64
        assert all(step[0][1][nid][p].tobytes() == step[1][1][nid][p].tobytes()
                   for nid in step[0][1] for p in step[0][1][nid])

    def test_frozen_channels_bitwise_stable_across_epoch(self):
        frozen = [1, 0, 1, 0, 0, 1, 0, 0]
        g = small_net(5, frozen=frozen)
        bn = g.nodes["bn"]
        fmask = np.asarray(frozen, bool)
        before = {name: bn.params[name].data.reshape(-1)[fmask].tobytes()
                  for name in ("gamma", "beta", "mean", "var")}
        ds = SynthDataset(seed=6, n_train=64, n_test=8)
        train_epoch(g, ds, self.cfg())
        bn = g.nodes["bn"]
        for name in ("gamma", "beta", "mean", "var"):
            assert bn.params[name].data.reshape(-1)[fmask].tobytes() == before[name], name
        # unfrozen channels did move
        assert not np.array_equal(bn.params["gamma"].data.reshape(-1)[~fmask],
                                  np.frombuffer(before["gamma"], np.float32))

    def test_diverged_training_names_epoch_batch_and_node(self):
        g = build(ZooSpec("resnet8-tiny", seed=1))
        with np.errstate(all="ignore"), pytest.raises(
                TrainerError, match=r"^epoch \d+, batch \d+: node '[\w.]+': .* is not finite"):
            fit(g, SynthDataset(seed=1), TrainConfig(lr=1e6, epochs=2))

    def test_non_finite_loss_names_epoch_and_batch(self, rng):
        w = (rng.standard_normal((4, 3, 3, 3)) * 0.4).astype(np.float32)
        nodes = [plain_node("in", "input", []), conv_node("conv", ["in"], 4, 3, weight=w)]
        head(nodes, "conv", 4, 10, rng, np.float32)
        g = make_graph(nodes, "in", "out", (1, 3, 8, 8))
        validate(g)
        with np.errstate(all="ignore"), pytest.raises(
                TrainerError, match=r"^epoch 0, batch 1: loss is nan"):
            fit(g, SynthDataset(seed=1, n_train=64, n_test=8), TrainConfig(lr=1e30))

    def test_non_finite_update_names_node_and_keeps_param(self):
        g = small_net(0)
        before = g.nodes["fc"].params["weight"].data
        grads = {"fc": {"weight": np.full_like(before, 1e30)}}
        with np.errstate(all="ignore"), pytest.raises(
                TrainerError, match=r"^node 'fc': weight update is not finite"):
            sgd_step(g, grads, TrainConfig(lr=1e30), {})
        assert g.nodes["fc"].params["weight"].data is before

    def test_bad_labels_rejected(self):
        g = small_net(0)
        with pytest.raises(TrainerError):
            forward_backward(g, np.zeros((4, 3, 8, 8), np.float32), np.zeros(3, np.int64))

    @pytest.mark.parametrize("labels,match", [
        ([0, 1, 10, 2], r"labels span \[0, 10\], outside the graph's 10 classes \[0, 10\)"),
        ([0, -1, 1, 2], r"labels span \[-1, 2\], outside the graph's 10 classes"),
        ([0.0, 1.0, 2.0, 3.0], "labels must be integers, got float64"),
    ], ids=["label-equals-classes", "label-minus-1", "float-labels"])
    def test_out_of_range_labels_rejected(self, labels, match):
        # a label of 10 indexed past the logits (an IndexError), and -1
        # silently scored the last class
        g = small_net(0)
        with pytest.raises(TrainerError, match=match):
            forward_backward(g, np.zeros((4, 3, 8, 8), np.float32), np.array(labels))

    def test_batch_of_another_image_shape_rejected(self):
        # small_net takes 3x8x8; a 3x16x16 batch trained without complaint,
        # though graph.execute rejects it
        g = small_net(0)
        before = weights_blob(g)
        with pytest.raises(TrainerError, match=r"\(c, h, w\) \(3, 16, 16\), the graph "
                           r"takes \(3, 8, 8\)"):
            forward_backward(g, np.zeros((4, 3, 16, 16), np.float32), np.zeros(4, np.int64))
        assert weights_blob(g) == before


class TestInputGradientSkip:
    """forward_backward computes an input gradient once per conv and fc, but
    with input_grad=False, as train_epoch asks, not for the node that reads
    the graph input: a step that computed the image's gradient again would
    give the same results, only slower."""

    @pytest.fixture
    def calls(self, monkeypatch):
        # the input shape of every conv2d_chwn_backward call that returns an
        # input gradient
        calls = []
        real = graph.conv2d_chwn_backward

        def counted(gy, x, *rest):
            gx, gw = real(gy, x, *rest)
            if gx is not None:
                calls.append(tuple(x.shape))
            return gx, gw

        monkeypatch.setattr(graph, "conv2d_chwn_backward", counted)
        return calls

    @staticmethod
    def fused():
        """Fused resnet8-tiny 3/3, its conv and fc count and a batch of 8."""
        g = fuse(build(ZooSpec("resnet8-tiny", seed=3)), "3/3")[0]
        gemms = sum(node.kind in ("conv", "fc") for node in g.nodes.values())
        return g, gemms, SynthDataset(seed=5, shape=(3, 8, 8), n_train=8, n_test=4)

    def test_train_epoch_skips_the_image_gradient(self, calls):
        g, gemms, ds = self.fused()
        train_epoch(g, ds, TrainConfig(batch_size=8, epochs=1))  # one step
        assert len(calls) == gemms - 1
        assert (3, 8, 8, 8) not in calls

    def test_forward_backward_computes_it_unless_told_not_to(self, calls):
        g, gemms, ds = self.fused()
        batch, labels = ds.train_images[:8], ds.train_labels[:8]
        loss, grads, gx = forward_backward(g.copy(), batch, labels)
        assert len(calls) == gemms and gx.shape == (8, 3, 8, 8)
        calls.clear()
        skipped = forward_backward(g.copy(), batch, labels, input_grad=False)
        assert len(calls) == gemms - 1 and skipped[2] is None
        assert skipped[0] == loss and grads.keys() == skipped[1].keys()
        for nid in grads:
            for p in grads[nid]:
                assert grads[nid][p].tobytes() == skipped[1][nid][p].tobytes(), (nid, p)


class TestDynamicPruneIntegration:
    def test_hook_trains_between_pruning_passes(self):
        g = small_net(7)
        ds = SynthDataset(seed=8, n_train=64, n_test=16)
        tcfg = TrainConfig(lr=0.05, momentum=0.9, weight_decay=1e-4, batch_size=32, seed=0)
        pcfg = PruneConfig(rate=0.25, epochs=2, mode="continued")
        hook = make_epoch_hook(ds, tcfg)
        pruned, mask = dynamic_prune(g, None, pcfg, hook)
        assert len(mask.history) == 2
        assert len(mask.zeroed("conv")) == 2  # floor(0.25 * 8)
        w = pruned.nodes["conv"].params["weight"].data
        for idx in mask.zeroed("conv"):
            assert np.all(w[idx] == 0.0)
        # the hook really updated weights: a hookless run differs
        untrained, _ = dynamic_prune(g, None, pcfg, None)
        assert weights_blob(pruned) != weights_blob(untrained)
        # and the input graph was never touched
        assert weights_blob(g) == weights_blob(small_net(7))

    def test_hook_keeps_each_epoch_loss(self):
        hook = make_epoch_hook(SynthDataset(seed=8, n_train=64, n_test=16),
                               TrainConfig(lr=0.05, batch_size=32, seed=0))
        assert hook.losses == []
        dynamic_prune(small_net(7), None, PruneConfig(rate=0.25, epochs=2, mode="continued"),
                      hook)
        assert len(hook.losses) == 2
        assert all(np.isfinite(loss) for loss in hook.losses)
