"""Independent float64 interpreter for fuseprune graphs.

The benchmark checks every timed operation against this interpreter. It
reads a graph's nodes, attributes and parameter arrays but imports none of
the package's kernels: convolution is an im2col contraction, bn uses the
textbook (x - mean) / sqrt(var + eps) form, and every value is float64, so
an agreement within the f32 tolerance is evidence the engine computed the
right function rather than the same function twice.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


def _conv(x, node):
    spec = node.attrs["spec"]
    w = node.params["weight"].data.astype(np.float64)
    (sh, sw), (ph, pw) = spec.stride, spec.pad
    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    win = sliding_window_view(xp, (spec.r, spec.s), axis=(2, 3))[:, :, ::sh, ::sw]
    y = np.einsum("nchwrs,kcrs->nkhw", win, w, optimize=True)
    if spec.has_bias:
        y = y + node.params["bias"].data.astype(np.float64)
    return y


def _bn(x, node):
    p = {k: node.params[k].data.astype(np.float64) for k in ("gamma", "beta", "mean", "var")}
    return (x - p["mean"]) / np.sqrt(p["var"] + float(node.attrs["eps"])) * p["gamma"] + p["beta"]


def _maxpool(x, node):
    (r, s), (sh, sw), (ph, pw) = node.attrs["window"], node.attrs["stride"], node.attrs["pad"]
    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)), constant_values=-np.inf)
    win = sliding_window_view(xp, (r, s), axis=(2, 3))[:, :, ::sh, ::sw]
    return win.max(axis=(4, 5))


def _fc(x, node):
    w = node.params["weight"].data.astype(np.float64)
    y = x.reshape(x.shape[0], -1) @ w.reshape(w.shape[0], -1).T
    if "bias" in node.params:
        y = y + node.params["bias"].data.astype(np.float64).reshape(1, -1)
    return y.reshape(y.shape[0], -1, 1, 1)


_KERNELS = {
    "output": lambda args, node: args[0],
    "conv": lambda args, node: _conv(args[0], node),
    "bn": lambda args, node: _bn(args[0], node),
    "relu": lambda args, node: np.maximum(args[0], 0.0),
    "add": lambda args, node: args[0] + args[1],
    "concat": lambda args, node: np.concatenate(args, axis=1),
    "maxpool": lambda args, node: _maxpool(args[0], node),
    "gavgpool": lambda args, node: args[0].mean(axis=(2, 3), keepdims=True),
    "fc": lambda args, node: _fc(args[0], node),
}


def run(g, x: np.ndarray) -> np.ndarray:
    """Evaluate graph g on x in float64; returns the output array."""
    values = {g.input_id: np.asarray(x, dtype=np.float64)}
    pending = [nid for nid in g.nodes if nid != g.input_id]
    while pending:
        ready = [nid for nid in pending if all(src in values for src in g.nodes[nid].inputs)]
        if not ready:
            raise ValueError(f"graph has a cycle or dangling input among {pending}")
        for nid in ready:
            node = g.nodes[nid]
            values[nid] = _KERNELS[node.kind]([values[s] for s in node.inputs], node)
        pending = [nid for nid in pending if nid not in values]
    return values[g.output_id]
