"""Tensor owns its data: the caller's array is copied, never frozen or shared."""

from __future__ import annotations

import numpy as np
import pytest

from fuseprune.graph import execute
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


def test_zero_rows_marks_all_zero_filters_once():
    w = np.ones((4, 2, 3, 3), np.float32)
    w[1] = 0
    w[3] = -0.0
    w[2, 1, 2, 2] = 0
    t = Tensor(w)
    zero = t.zero_rows()
    assert zero.tolist() == [False, True, False, True]
    assert not zero.flags.writeable
    assert t.zero_rows() is zero
    assert Tensor(np.ones((2, 1, 1, 1), np.float32)).zero_rows() is None


def test_zero_rows_can_skip_input_channels():
    # filter 0 reads only input channel 1, filter 1 reads both
    w = np.zeros((3, 2, 1, 1), np.float32)
    w[0, 1] = 1
    w[1] = 2
    t = Tensor(w)
    skip = np.array([False, True])
    zero = t.zero_rows(skip)
    assert zero.tolist() == [True, False, True]
    assert t.zero_rows(skip.copy()) is zero
    assert t.zero_rows().tolist() == [False, False, True]
    assert t.zero_rows(np.array([False, False])).tolist() == [False, False, True]
    assert t.zero_rows(np.array([True, True])).tolist() == [True, True, True]
