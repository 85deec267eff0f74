"""Kernel-level tests: exactness against brute-force oracles and hand cases."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuseprune.graph import OPS, Node, ShapeMismatch, validate
from fuseprune.tensor import (
    Tensor,
    TensorError,
)

from conftest import bn_node, make_graph, plain_node
from oracles import bn_brute, conv2d_brute, fc_brute, maxpool_brute
from reference_kernels import batch_norm_inference, conv2d_raw, fc_raw, max_pool_raw


class TestTensorType:
    def test_rejects_nan_and_inf(self):
        with pytest.raises(TensorError):
            Tensor(np.array([[[[np.nan]]]], dtype=np.float32))
        with pytest.raises(TensorError):
            Tensor(np.array([[[[np.inf]]]], dtype=np.float32))

    def test_rejects_wrong_rank_and_dtype(self):
        with pytest.raises(TensorError):
            Tensor(np.zeros((2, 3), dtype=np.float32))
        with pytest.raises(TensorError):
            Tensor(np.zeros((1, 1, 1, 1), dtype=np.int32))

    def test_immutable(self):
        t = Tensor(np.zeros((1, 1, 2, 2), dtype=np.float32))
        with pytest.raises(ValueError):
            t.data[0, 0, 0, 0] = 1.0
        with pytest.raises(AttributeError):
            t.data = np.zeros((1, 1, 2, 2), dtype=np.float32)


class TestConv2d:
    def test_matches_brute_force_seed_42(self):
        rng = np.random.default_rng(42)
        x = rng.standard_normal((1, 2, 5, 5)).astype(np.float32)
        w = rng.standard_normal((3, 2, 3, 3)).astype(np.float32)
        got = conv2d_raw(x, w, None, (2, 2), (1, 1))
        want = conv2d_brute(x, w, None, (2, 2), (1, 1))
        assert got.shape == (1, 3, 3, 3)
        assert np.array_equal(got, want)

    def test_identity_weights_roundtrip_bit_exact(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((2, 3, 6, 5)).astype(np.float32)
        w = np.zeros((3, 3, 3, 3), dtype=np.float32)
        for k in range(3):
            w[k, k, 1, 1] = 1.0
        y = conv2d_raw(x, w, None, (1, 1), (1, 1))
        assert np.array_equal(y, x)

    def test_all_zero_weights(self):
        x = np.ones((1, 2, 4, 4), dtype=np.float32)
        w = np.zeros((5, 2, 3, 3), dtype=np.float32)
        y = conv2d_raw(x, w, None, (1, 1), (1, 1))
        assert np.array_equal(y, np.zeros((1, 5, 4, 4), dtype=np.float32))

    def test_bias_added_after_summation(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((1, 2, 4, 4)).astype(np.float64)
        w = rng.standard_normal((3, 2, 3, 3)).astype(np.float64)
        b = rng.standard_normal(3)
        got = conv2d_raw(x, w, b, (1, 1), (0, 0))
        want = conv2d_brute(x, w, b, (1, 1), (0, 0))
        assert np.array_equal(got, want)

    def test_zero_channel_removal_leaves_values_identical(self):
        # dropping an all-zero input channel must not perturb the other sums
        rng = np.random.default_rng(11)
        x = rng.standard_normal((1, 4, 5, 5)).astype(np.float32)
        w = rng.standard_normal((3, 4, 3, 3)).astype(np.float32)
        x2 = x.copy()
        x2[:, 2] = 0.0
        w_dropped = w[:, [0, 1, 3]]
        full = conv2d_raw(x2, w, None, (1, 1), (1, 1))
        dropped = conv2d_raw(x2[:, [0, 1, 3]], w_dropped, None, (1, 1), (1, 1))
        assert np.array_equal(full, dropped)

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 2),
        c=st.integers(1, 3),
        k=st.integers(1, 3),
        r=st.integers(1, 3),
        s=st.integers(1, 3),
        h_extra=st.integers(0, 3),
        w_extra=st.integers(0, 3),
        stride=st.tuples(st.integers(1, 2), st.integers(1, 2)),
        pad=st.tuples(st.integers(0, 1), st.integers(0, 1)),
        use_bias=st.booleans(),
        f64=st.booleans(),
    )
    def test_matches_brute_force_property(self, seed, n, c, k, r, s, h_extra, w_extra,
                                          stride, pad, use_bias, f64):
        dtype = np.float64 if f64 else np.float32
        rng = np.random.default_rng(seed)
        h = r + h_extra
        w_in = s + w_extra
        x = rng.standard_normal((n, c, h, w_in)).astype(dtype)
        w = rng.standard_normal((k, c, r, s)).astype(dtype)
        b = rng.standard_normal(k).astype(dtype) if use_bias else None
        got = conv2d_raw(x, w, b, stride, pad)
        want = conv2d_brute(x, w, b, stride, pad)
        assert np.array_equal(got, want)

    def test_output_collapse_rejected(self):
        x = np.zeros((1, 1, 2, 2), dtype=np.float32)
        w = np.zeros((1, 1, 5, 5), dtype=np.float32)
        with pytest.raises(TensorError):
            conv2d_raw(x, w, None, (1, 1), (0, 0))

    def test_mixed_dtype_rejected(self):
        x = np.zeros((1, 1, 3, 3), dtype=np.float32)
        w = np.zeros((1, 1, 3, 3), dtype=np.float64)
        with pytest.raises(TensorError):
            conv2d_raw(x, w, None, (1, 1), (1, 1))


class TestBatchNorm:
    def test_identity_params_bit_exact(self):
        rng = np.random.default_rng(5)
        x = Tensor(rng.standard_normal((2, 3, 4, 4)).astype(np.float32))
        eps = 1e-5
        bn = bn_node("bn", [], 3, var=np.full(3, np.float32(1) - np.float32(eps)), eps=eps)
        y = batch_norm_inference(x.data, bn)
        assert np.array_equal(y, x.data)

    def test_hand_case_omega_one(self):
        # gamma=2, beta=1, mean=0, var=3, eps=1 -> omega = 2/sqrt(4) = 1, y = x + 1
        x = Tensor(np.arange(8, dtype=np.float64).reshape(1, 1, 2, 4))
        bn = bn_node("bn", [], 1, gamma=[2.0], beta=[1.0], mean=[0.0], var=[3.0], eps=1.0,
                     dtype=np.float64)
        y = batch_norm_inference(x.data, bn)
        assert np.array_equal(y, x.data + 1.0)

    def test_x_equals_mean_gives_beta(self):
        x = Tensor(np.full((1, 2, 2, 2), 5.0, dtype=np.float64))
        bn = bn_node("bn", [], 2, gamma=[3.0, 4.0], beta=[0.25, -0.5], mean=[5.0, 5.0],
                     var=[2.0, 7.0], dtype=np.float64)
        y = batch_norm_inference(x.data, bn)
        assert np.allclose(y[0, 0], 0.25) and np.allclose(y[0, 1], -0.5)

    def test_matches_brute(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((2, 4, 3, 3)).astype(np.float32)
        gamma = rng.uniform(0.5, 2.0, 4).astype(np.float32)
        beta = rng.standard_normal(4).astype(np.float32)
        mean = rng.standard_normal(4).astype(np.float32)
        var = rng.uniform(0.2, 2.0, 4).astype(np.float32)
        bn = bn_node("bn", [], 4, gamma=gamma, beta=beta, mean=mean, var=var, eps=1e-5)
        got = batch_norm_inference(x, bn)
        want = bn_brute(x, gamma, beta, mean, var, 1e-5)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("channels, params", [
        (1, {"var": [-0.1]}),
        (1, {"eps": 0.0}),
        (2, {}),  # a one-channel bn on a two-channel input
    ], ids=["negative-var", "zero-eps", "channel-count"])
    def test_rejects_bad_params(self, channels, params):
        nodes = [plain_node("in", "input", []), bn_node("bn", ["in"], 1, **params),
                 plain_node("out", "output", ["bn"])]
        with pytest.raises(ShapeMismatch):
            validate(make_graph(nodes, "in", "out", (1, channels, 2, 2)))


def run(kind, *args):
    """The kind's graph forward, OPS[kind].run, on arrays and without zero
    marks, for the kinds that read no attrs or params. The arrays are
    (n, c, h, w) here and cross into the runs' (c, h, w, n) layout."""
    y = OPS[kind].run(plain_node(kind, kind, []), [a.transpose(1, 2, 3, 0) for a in args])
    return y.transpose(3, 0, 1, 2)


class TestElementwiseAndPool:
    def test_add_and_relu(self):
        a = np.array([[[[1.0, -2.0]]]], dtype=np.float32)
        b = np.array([[[[0.5, 0.5]]]], dtype=np.float32)
        assert np.array_equal(run("add", a, b), [[[[1.5, -1.5]]]])
        assert np.array_equal(run("relu", a), [[[[1.0, 0.0]]]])
        # the add's operand shapes are checked once, by validate
        g = make_graph([plain_node("in", "input", []), plain_node("cat", "concat", ["in", "in"]),
                        plain_node("sum", "add", ["in", "cat"]),
                        plain_node("out", "output", ["sum"])], "in", "out", (1, 1, 1, 2))
        with pytest.raises(ShapeMismatch):
            validate(g)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), parts=st.lists(st.integers(1, 4), min_size=2, max_size=4))
    def test_concat_slice_roundtrip(self, seed, parts):
        rng = np.random.default_rng(seed)
        tensors = [rng.standard_normal((2, c, 3, 3)).astype(np.float32) for c in parts]
        cat = run("concat", *tensors)
        assert cat.shape[1] == sum(parts)
        start = 0
        for t in tensors:
            c = t.shape[1]
            assert np.array_equal(cat[:, start : start + c], t)
            start += c

    def test_global_avg_pool(self):
        x = np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4)
        assert np.array_equal(run("gavgpool", x), [[[[7.5]]]])

    def test_max_pool_matches_brute(self):
        rng = np.random.default_rng(13)
        x = rng.standard_normal((2, 3, 7, 7)).astype(np.float32)
        got = max_pool_raw(x, (3, 3), (2, 2), (1, 1))
        want = maxpool_brute(x, (3, 3), (2, 2), (1, 1))
        assert got.shape == (2, 3, 4, 4)
        assert np.array_equal(got, want)

    def test_max_pool_bad_window(self):
        x = np.zeros((1, 1, 4, 4), dtype=np.float32)
        with pytest.raises(TensorError):
            max_pool_raw(x, (0, 2), (1, 1), (0, 0))


class TestFullyConnected:
    def test_matches_brute(self):
        rng = np.random.default_rng(21)
        x = rng.standard_normal((3, 10)).astype(np.float32)
        w = rng.standard_normal((4, 10)).astype(np.float32)
        b = rng.standard_normal(4).astype(np.float32)
        assert np.array_equal(fc_raw(x, w, b), fc_brute(x, w, b))

    def test_zero_column_removal_exact(self):
        rng = np.random.default_rng(22)
        x = rng.standard_normal((2, 6)).astype(np.float32)
        x[:, 3] = 0.0
        w = rng.standard_normal((5, 6)).astype(np.float32)
        keep = [0, 1, 2, 4, 5]
        assert np.array_equal(fc_raw(x, w, None), fc_raw(x[:, keep], w[:, keep], None))

    def test_graph_fc_flattens(self):
        # the graph's fc is a GEMM, so it meets the sequential oracle within
        # f32 rounding of its 12 terms, not bit for bit
        rng = np.random.default_rng(23)
        x = rng.standard_normal((2, 3, 2, 2)).astype(np.float32)
        w = Tensor(rng.standard_normal((5, 12, 1, 1)).astype(np.float32))
        fc = Node("fc", "fc", ["x"], params={"weight": w})
        y = OPS["fc"].run(fc, [x.transpose(1, 2, 3, 0)]).transpose(3, 0, 1, 2)
        assert y.shape == (2, 5, 1, 1)
        want = fc_brute(x.reshape(2, 12), w.data.reshape(5, 12), None)
        scale = fc_brute(np.abs(x).reshape(2, 12), np.abs(w.data).reshape(5, 12), None)
        assert np.all(np.abs(y.reshape(2, 5) - want) <= 1e-5 * scale)
        fc.params = {"weight": Tensor(np.zeros((5, 9, 1, 1), np.float32))}
        with pytest.raises(TensorError):
            OPS["fc"].run(fc, [x.transpose(1, 2, 3, 0)])
