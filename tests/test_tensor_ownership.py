"""Tensor owns its data: the caller's array is copied, never frozen or shared,
and a Tensor holds nothing else. The conv's zero marks are read from a
weight Tensor's data on each compile."""

from __future__ import annotations

import numpy as np
import pytest

from fuseprune.graph import OPS, execute
from fuseprune.tensor import Tensor

from conftest import conv_node, make_graph, plain_node


@pytest.mark.parametrize("dt", (np.float32, np.float64))
def test_callers_array_stays_writable_and_unshared(dt):
    a = np.arange(24, dtype=dt).reshape(1, 2, 3, 4)
    t = Tensor(a)
    assert a.flags.writeable
    a[0, 0, 0, 0] = 99
    assert t.data[0, 0, 0, 0] == 0
    assert not t.data.flags.writeable
    with pytest.raises(ValueError):
        t.data[0, 0, 0, 0] = 1


def test_dtype_argument_converts_a_copy():
    a = np.ones((1, 1, 2, 2), np.float64)
    t = Tensor(a, np.float32)
    assert t.dtype == np.float32 and a.dtype == np.float64 and a.flags.writeable


def test_kernel_outputs_are_read_only():
    # execute wraps its output, whichever kind computed it
    x = Tensor(np.ones((1, 2, 4, 4), np.float32))
    w = np.ones((3, 2, 3, 3), np.float32)
    for last in (plain_node("y", "relu", ["in"]), conv_node("y", ["in"], 3, 2, weight=w)):
        g = make_graph([plain_node("in", "input", []), last, plain_node("out", "output", ["y"])],
                       "in", "out", (1, 2, 4, 4))
        y = execute(g, x)
        assert not y.data.flags.writeable


def test_a_tensor_holds_its_data_alone():
    t = Tensor(np.ones((1, 1, 2, 2), np.float32))
    assert Tensor.__slots__ == ("data",)
    with pytest.raises(AttributeError):
        t.extra = 1


def _conv_zeros(w, zero_in=None, bias=None):
    """OPS["conv"].zeros of a conv over weight w (and bias), given its input
    channels' marks, as a list, or None."""
    node = conv_node("c", ["in"], *w.shape[:2], r=w.shape[2], s=w.shape[3], weight=w, bias=bias)
    zero = OPS["conv"].zeros(node, [zero_in], w.dtype)
    return None if zero is None else zero.tolist()


def test_conv_zeros_without_input_marks():
    w = np.ones((4, 2, 3, 3), np.float32)
    w[1] = 0
    w[2, 1, 2, 2] = 0
    assert _conv_zeros(w) == [False, True, False, False]
    assert _conv_zeros(np.ones((2, 1, 1, 1), np.float32)) is None


def test_conv_zeros_leave_out_marked_input_channels():
    # filter 0 reads only input channel 1, filter 1 reads both
    w = np.zeros((3, 2, 1, 1), np.float32)
    w[0, 1] = 1
    w[1] = 2
    assert _conv_zeros(w, np.array([False, True])) == [True, False, True]
    assert _conv_zeros(w, np.array([True, False])) == [False, False, True]
    assert _conv_zeros(w, np.array([False, False])) == [False, False, True]


def test_conv_zeros_with_every_input_channel_marked():
    w = np.ones((3, 2, 3, 3), np.float64)
    assert _conv_zeros(w, np.array([True, True])) == [True, True, True]


def test_conv_zeros_a_nonzero_bias_unmarks_its_filter():
    w = np.zeros((3, 2, 1, 1), np.float32)
    w[0] = 1
    assert _conv_zeros(w, bias=[0.0, 0.5, 0.0]) == [False, False, True]
    assert _conv_zeros(w, bias=[0.0, 0.5, -1.0]) is None
    assert _conv_zeros(w, np.array([True, True]), bias=[0.0, 0.5, -0.0]) == [True, False, True]


def test_conv_zeros_count_negative_zero_as_zero():
    w = np.ones((3, 2, 3, 3), np.float32)
    w[1] = -0.0
    w[2, 0] = -0.0
    assert np.signbit(w[1]).all()
    assert _conv_zeros(w) == [False, True, False]
    assert _conv_zeros(w, np.array([False, True])) == [False, True, True]
