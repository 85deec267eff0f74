"""Shared fixtures and small graph builders for the test suite."""

from __future__ import annotations

import errno

import numpy as np
import pytest

from fuseprune import graph
from fuseprune.graph import Graph, Node
from fuseprune.tensor import ConvSpec, Tensor


@pytest.fixture
def rng():
    return np.random.default_rng(42)


class _FullDisk:
    """A file whose writes fail, as on a full disk, once `allowed` have succeeded."""

    def __init__(self, fh, allowed, written):
        self.fh, self.allowed, self.written = fh, allowed, written

    def write(self, data):
        if self.allowed == 0:
            raise OSError(errno.ENOSPC, "No space left on device")
        self.allowed -= 1
        n = self.fh.write(data)
        self.written.append(n)
        return n

    def seek(self, offset, whence=0):
        return self.fh.seek(offset, whence)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


@pytest.fixture
def full_disk(monkeypatch):
    """Make every file that fuseprune.graph opens fail after its first write.

    Returns the list of byte counts the writes that succeeded wrote.
    """
    written = []
    real_open = open
    monkeypatch.setattr(graph, "open", lambda *a, **kw: _FullDisk(real_open(*a, **kw), 1, written),
                        raising=False)
    return written


def conv_node(nid, inputs, k, c, r=3, s=3, stride=(1, 1), pad=(1, 1), weight=None,
              bias=None, dtype=np.float32, tags=()):
    spec = ConvSpec(k=k, c=c, r=r, s=s, stride=stride, pad=pad, has_bias=bias is not None)
    params = {"weight": Tensor(np.zeros((k, c, r, s), dtype) if weight is None else weight)}
    if bias is not None:
        params["bias"] = Tensor(np.asarray(bias, dtype).reshape(1, k, 1, 1))
    return Node(id=nid, kind="conv", inputs=list(inputs), attrs={"spec": spec},
                params=params, tags=list(tags))


def bn_node(nid, inputs, c, gamma=None, beta=None, mean=None, var=None, eps=1e-5,
            frozen=None, dtype=np.float32, tags=()):
    def chan(v, default):
        arr = np.full(c, default, dtype) if v is None else np.asarray(v, dtype).reshape(-1)
        return Tensor(arr.reshape(1, c, 1, 1))

    params = {
        "gamma": chan(gamma, 1.0),
        "beta": chan(beta, 0.0),
        "mean": chan(mean, 0.0),
        "var": chan(var, 1.0),
    }
    attrs = {"eps": float(eps), "frozen": tuple(frozen) if frozen is not None else tuple([0] * c)}
    return Node(id=nid, kind="bn", inputs=list(inputs), attrs=attrs, params=params,
                tags=list(tags))


def plain_node(nid, kind, inputs, tags=(), **attrs):
    return Node(id=nid, kind=kind, inputs=list(inputs), attrs=attrs, tags=list(tags))


def fc_node(nid, inputs, fout, fin, weight=None, bias=None, dtype=np.float32, tags=()):
    params = {"weight": Tensor(np.zeros((fout, fin, 1, 1), dtype) if weight is None else weight)}
    if bias is not None:
        params["bias"] = Tensor(np.asarray(bias, dtype).reshape(1, fout, 1, 1))
    return Node(id=nid, kind="fc", inputs=list(inputs), params=params, tags=list(tags))


def make_graph(nodes, input_id, output_id, input_shape):
    return Graph(nodes={n.id: n for n in nodes}, input_id=input_id, output_id=output_id,
                 input_shape=tuple(input_shape))


def random_residual_block_graph(rng, c_in=4, k=4, hw=6, with_bn=True, projection=False,
                                stride=None, dtype=np.float32, kernel=3, tag="stage1.block1"):
    """input -> relu -> [residual block] -> output, randomly initialized.

    The leading relu makes the block input provably non-negative. For a
    projection block the main conv1 and the 1x1 shortcut share `stride`
    (default (2, 2)); a basic block adds the relu output itself.
    """
    if stride is None:
        stride = (2, 2) if projection else (1, 1)
    pad = (kernel - 1) // 2

    def rand_w(k_, c_):
        return (rng.standard_normal((k_, c_, kernel, kernel)) * np.sqrt(2.0 / (c_ * kernel * kernel))).astype(dtype)

    def rand_chan(c_, lo=0.5, hi=1.5):
        return rng.uniform(lo, hi, c_).astype(dtype)

    nodes = [
        plain_node("in", "input", []),
        plain_node("pre_relu", "relu", ["in"]),
        conv_node("conv1", ["pre_relu"], k, c_in, r=kernel, s=kernel, stride=stride,
                  pad=(pad, pad), weight=rand_w(k, c_in), dtype=dtype, tags=[tag]),
    ]
    tail = "conv1"
    if with_bn:
        nodes.append(bn_node("bn1", ["conv1"], k, gamma=rand_chan(k), beta=rand_chan(k, -0.3, 0.3),
                             mean=rand_chan(k, -0.3, 0.3), var=rand_chan(k, 0.5, 1.5), dtype=dtype,
                             tags=[tag]))
        tail = "bn1"
    nodes.append(plain_node("relu1", "relu", [tail], tags=[tag]))
    nodes.append(conv_node("conv2", ["relu1"], k, k, r=kernel, s=kernel, stride=(1, 1),
                           pad=(pad, pad), weight=rand_w(k, k), dtype=dtype, tags=[tag]))
    tail = "conv2"
    if with_bn:
        nodes.append(bn_node("bn2", ["conv2"], k, gamma=rand_chan(k), beta=rand_chan(k, -0.3, 0.3),
                             mean=rand_chan(k, -0.3, 0.3), var=rand_chan(k, 0.5, 1.5), dtype=dtype,
                             tags=[tag]))
        tail = "bn2"
    if projection:
        ws = (rng.standard_normal((k, c_in, 1, 1)) * np.sqrt(2.0 / c_in)).astype(dtype)
        nodes.append(conv_node("down_conv", ["pre_relu"], k, c_in, r=1, s=1, stride=stride,
                               pad=(0, 0), weight=ws, dtype=dtype, tags=[tag]))
        shortcut = "down_conv"
        if with_bn:
            nodes.append(bn_node("down_bn", ["down_conv"], k, gamma=rand_chan(k),
                                 beta=rand_chan(k, -0.3, 0.3), mean=rand_chan(k, -0.3, 0.3),
                                 var=rand_chan(k, 0.5, 1.5), dtype=dtype, tags=[tag]))
            shortcut = "down_bn"
    else:
        shortcut = "pre_relu"
    nodes.append(plain_node("add", "add", [tail, shortcut], tags=[tag]))
    nodes.append(plain_node("relu2", "relu", ["add"], tags=[tag]))
    nodes.append(plain_node("out", "output", ["relu2"]))
    return make_graph(nodes, "in", "out", (1, c_in, hw, hw))
