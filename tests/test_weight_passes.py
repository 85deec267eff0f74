"""The offline weight passes in the working dtype: bits, memory and the
scans for non-finite values that stay.

zoo.build, fusion.fuse and fold_bn, filter_l2_norms and materialize work
in the graph's dtype: binary64 arithmetic stays inside numpy's ufunc
buffer or a block of at most tensor._BLOCK_BYTES, each weight is written
once, and an array copied, taken or zero-filled from finite Tensors is not
scanned for non-finite values again. The formulas they replaced are kept
here as references, and each pass must match its reference byte for byte.
tracemalloc, which numpy reports its buffers to, bounds the memory each
pass takes beside the arrays it returns. Where arithmetic can make a
non-finite value (a loaded file, a fold's product), the scan stays.
"""

from __future__ import annotations

import hashlib
import json
import tracemalloc

import numpy as np
import pytest

from fuseprune import pruning, zoo
from fuseprune.cli import EXIT_VALIDATION, main
from fuseprune.fusion import (adjust_identity_for_bn, find_residual_blocks, fold_bn, fuse_block,
                              make_identity_weights, pad_conv_weights)
from fuseprune.graph import ModelFormatError, bn_affine, load, save
from fuseprune.pruning import filter_l2_norms
from fuseprune.tensor import Tensor, TensorError
from fuseprune.zoo import ZooSpec, build

from conftest import bn_node, conv_node, make_graph, plain_node, random_residual_block_graph

DTYPES = (np.float32, np.float64)


def params_bytes(g) -> dict:
    return {(nid, name): t.data.tobytes() for nid, node in g.nodes.items()
            for name, t in node.params.items()}


# --- the references: the formulas of the passes before they were rewritten


def norms_reference(w: np.ndarray) -> np.ndarray:
    flat = w.reshape(w.shape[0], -1)
    return np.sqrt(np.sum(np.square(flat, dtype=np.float64), axis=1))


def fold_reference(conv, bn):
    """fold_bn's conv weight and bias: the binary64 product, then a cast."""
    w = conv.params["weight"].data
    dtype = w.dtype
    b = conv.params.get("bias")
    b = np.zeros(w.shape[0]) if b is None else b.data.reshape(-1).astype(np.float64)
    omega, lam = bn_affine(bn, np.float64)
    return (w * omega[:, None, None, None]).astype(dtype), (omega * b + lam).astype(dtype)


def widened_reference(g, match):
    """conv1's and conv2's fused weights and conv2's bias, by the binary64
    chain: the shortcut built at conv2's full r x s, divided by omega2,
    cast, then concatenated."""
    conv1, conv2 = g.nodes[match.conv1], g.nodes[match.conv2]
    dtype = conv1.params["weight"].dtype
    c_in, r, s = conv1.attrs["spec"].c, conv2.attrs["spec"].r, conv2.attrs["spec"].s
    if match.shortcut_conv is None:
        aux, extra = make_identity_weights(c_in, r, s, np.float64), np.zeros(c_in)
    else:
        sc = g.nodes[match.shortcut_conv]
        w = sc.params["weight"].data.astype(np.float64)
        extra = np.zeros(w.shape[0])
        if match.shortcut_bn is not None:
            omega, lam = bn_affine(g.nodes[match.shortcut_bn], np.float64)
            w, extra = w * omega[:, None, None, None], omega * extra + lam
        aux = pad_conv_weights(Tensor._wrap(w), r, s)
    if match.bn2 is not None:
        omega2, _ = bn_affine(g.nodes[match.bn2], np.float64)
        aux = adjust_identity_for_bn(aux, omega2)
        extra = extra / omega2
    w1 = np.concatenate([conv1.params["weight"].data,
                         make_identity_weights(c_in, r, s, dtype).data])
    w2 = np.concatenate([conv2.params["weight"].data, aux.data.astype(dtype)], axis=1)
    return w1, w2, extra.astype(dtype)


def zoo_reference(g, seed):
    """init_weights' conv and fc draws: drawn at binary64, scaled, then cast."""
    rng = np.random.default_rng(seed)
    want = {}
    for nid in g.topo_order():
        w = g.nodes[nid].params.get("weight")
        if w is not None:
            fan_in = w.shape[1] * w.shape[2] * w.shape[3]
            std = np.sqrt(2.0 / fan_in)
            want[nid] = (rng.standard_normal(w.shape) * std).astype(w.dtype).tobytes()
    return want


# --- bit identity


class TestBits:
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("block", [1440, 100, None], ids=["partial", "row-above", "default"])
    def test_norms_match_the_whole_array_formula(self, rng, monkeypatch, dtype, block):
        w = rng.standard_normal((13, 5, 3, 3)).astype(dtype)
        if block is not None:
            # 1440 bytes hold 4 rows of 45 binary64 squares: blocks of 4, 4, 4
            # and 1; 100 hold less than one, which then takes a block alone
            monkeypatch.setattr(pruning, "_BLOCK_BYTES", block)
        assert filter_l2_norms(Tensor(w)).tobytes() == norms_reference(w).tobytes()

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("bias", [False, True])
    def test_fold_bn_matches_the_binary64_product_then_cast(self, rng, dtype, bias):
        nodes = [
            plain_node("in", "input", []),
            conv_node("c", ["in"], 6, 4, weight=rng.standard_normal((6, 4, 3, 3)).astype(dtype),
                      bias=rng.standard_normal(6) if bias else None, dtype=dtype),
            bn_node("b", ["c"], 6, gamma=rng.uniform(-1.5, 1.5, 6), beta=rng.uniform(-1, 1, 6),
                    mean=rng.uniform(-1, 1, 6), var=rng.uniform(0.1, 2, 6), dtype=dtype),
            plain_node("out", "output", ["b"]),
        ]
        g = make_graph(nodes, "in", "out", (1, 4, 5, 5))
        want_w, want_b = fold_reference(g.nodes["c"], g.nodes["b"])
        folded = fold_bn(g).nodes["c"]
        assert folded.params["weight"].data.tobytes() == want_w.tobytes()
        assert folded.params["bias"].data.tobytes() == want_b.tobytes()

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("projection", [False, True], ids=["identity", "projection"])
    @pytest.mark.parametrize("kernel", [1, 3])
    def test_fuse_matches_the_binary64_chain(self, rng, dtype, projection, kernel):
        g = random_residual_block_graph(rng, c_in=5, k=5 if not projection else 7,
                                        projection=projection, dtype=dtype, kernel=kernel)
        bn2 = g.nodes["bn2"]
        gamma = bn2.params["gamma"].data.copy()
        gamma[0, ::2] *= -1  # every other omega2 negative: its rows' zero taps are -0.0
        bn2.params = dict(bn2.params, gamma=Tensor(gamma))
        (match,) = find_residual_blocks(g)
        want_w1, want_w2, want_b2 = widened_reference(g, match)
        fused, _ = fuse_block(g, match)
        conv1, conv2 = fused.nodes["conv1"], fused.nodes["conv2"]
        assert conv1.params["weight"].data.tobytes() == want_w1.tobytes()
        got = conv2.params["weight"].data
        assert got.tobytes() == want_w2.tobytes()
        bias = conv2.params.get("bias")
        if want_b2.any():
            assert bias.data.reshape(-1).tobytes() == want_b2.tobytes()
        else:
            assert bias is None
        block = got[:, g.nodes["conv1"].attrs["spec"].k:]  # the shortcut's input channels
        zeros = block[block == 0]
        if zeros.size:  # a dense 1x1 projection has none
            assert np.signbit(zeros).any() and not np.signbit(zeros).all()

    @pytest.mark.parametrize("dtype", ["f32", "f64"])
    @pytest.mark.parametrize("block", [800, None], ids=["partial", "default"])
    def test_zoo_draws_match_the_binary64_draw_then_cast(self, monkeypatch, dtype, block):
        if block is not None:
            # blocks of 100 draws: most convs take several and a partial last one
            monkeypatch.setattr(zoo, "_BLOCK_BYTES", block)
        for family, hw in (("resnet8-tiny", 8), ("resnet20", 8), ("resnet18", 16)):
            g = build(ZooSpec(family, input_shape=(1, 3, hw, hw), dtype=dtype, seed=5))
            got = {nid: n.params["weight"].data.tobytes() for nid, n in g.nodes.items()
                   if "weight" in n.params}
            assert got == zoo_reference(g, 5), family


# --- memory: no full-size binary64 temporary, no full-size scan temporary

BIG = (704, 704, 3, 3)  # 17.8 MB of binary32 weights


def traced_peak(fn, *args):
    """fn(*args) and the peak of the bytes allocated while it ran."""
    tracemalloc.start()
    try:
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def made_bytes(g, before) -> int:
    """The bytes of g's parameter arrays that no Tensor of before holds."""
    old = {id(t) for node in before.nodes.values() for t in node.params.values()}
    return sum(t.data.nbytes for node in g.nodes.values() for t in node.params.values()
               if id(t) not in old)


class TestMemory:
    def test_norms_peak_below_an_eighth_of_the_weights(self, rng):
        w = Tensor(rng.standard_normal(BIG).astype(np.float32))
        _, peak = traced_peak(filter_l2_norms, w)
        assert peak < w.data.nbytes / 8, peak

    def test_fold_bn_peaks_near_the_arrays_it_returns(self, rng):
        k = BIG[0]
        nodes = [
            plain_node("in", "input", []),
            conv_node("c", ["in"], k, BIG[1], weight=rng.standard_normal(BIG).astype(np.float32)),
            bn_node("b", ["c"], k, gamma=rng.uniform(-1.5, 1.5, k), var=rng.uniform(0.5, 2, k)),
            plain_node("out", "output", ["b"]),
        ]
        g = make_graph(nodes, "in", "out", (1, BIG[1], 3, 3))
        folded, peak = traced_peak(fold_bn, g)
        made = made_bytes(folded, g)
        assert made >= g.nodes["c"].params["weight"].data.nbytes
        assert peak < 1.25 * made, (peak, made)

    @pytest.mark.parametrize("projection", [False, True], ids=["identity", "projection"])
    def test_fuse_block_peaks_near_the_arrays_it_returns(self, rng, projection):
        g = random_residual_block_graph(rng, c_in=BIG[1], k=BIG[0], hw=2, projection=projection,
                                        dtype=np.float32)
        (match,) = find_residual_blocks(g)
        (fused, _), peak = traced_peak(fuse_block, g, match)
        made = made_bytes(fused, g)
        assert made >= 4 * g.nodes["conv2"].params["weight"].data.nbytes
        assert peak < 1.25 * made, (peak, made)


# --- the scans that stay


def tiny_conv_bn(dtype=np.float32, weight=1.0, gamma=1.0):
    nodes = [
        plain_node("in", "input", []),
        conv_node("c", ["in"], 2, 1, weight=np.full((2, 1, 3, 3), weight, dtype), dtype=dtype),
        bn_node("b", ["c"], 2, gamma=[gamma, 1.0], dtype=dtype),
        plain_node("out", "output", ["b"]),
    ]
    return make_graph(nodes, "in", "out", (1, 1, 4, 4))


class TestScansThatStay:
    def write_value(self, path, value):
        """Store value at the first weight entry of the saved file at path,
        under a blob checksum that matches the new bytes."""
        raw = bytearray(path.read_bytes())
        man_len = int.from_bytes(raw[4:8], "little")
        manifest = json.loads(raw[8:8 + man_len])
        (entry,) = [e for e in manifest["tensors"] if e["name"] == "c/weight"]
        start = 8 + man_len + entry["offset"]
        raw[start:start + 4] = np.array([value], "<f4").tobytes()
        old, new = (manifest["blob"]["sha256"],
                    hashlib.sha256(bytes(raw[8 + man_len:])).hexdigest())
        raw[8:8 + man_len] = raw[8:8 + man_len].replace(old.encode(), new.encode())
        path.write_bytes(bytes(raw))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
    def test_load_rejects_a_non_finite_tensor_under_a_good_checksum(self, tmp_path, capsys,
                                                                     value):
        path = tmp_path / "m.fpm"
        save(tiny_conv_bn(), path)
        self.write_value(path, 2.0)  # the checksum is right: a finite edit loads
        assert load(path).nodes["c"].params["weight"].data[0, 0, 0, 0] == 2.0
        self.write_value(path, value)
        with pytest.raises(ModelFormatError, match="NaN or Inf"):
            load(path)
        capsys.readouterr()
        assert main(["verify", "--lhs", str(path), "--rhs", str(path)]) == EXIT_VALIDATION
        assert "NaN or Inf" in capsys.readouterr().err

    def test_fold_bn_rejects_an_overflowing_product_and_keeps_its_input(self):
        g = tiny_conv_bn(weight=1e38, gamma=100.0)
        before = params_bytes(g)
        with pytest.raises(TensorError, match="NaN or Inf"), np.errstate(over="ignore"):
            fold_bn(g)
        assert params_bytes(g) == before
        assert [n.kind for n in g.nodes.values()] == ["input", "conv", "bn", "output"]
