"""Deterministic desk-scale training: forward/backward, SGD, synthetic data.

The loop exists so soft pruning can interleave real weight updates with
masking. It is seeded end-to-end and exact enough for finite-difference
verification.

Every activation and gradient is held batch innermost, (c, h, w, n), the
layout graph.execute runs in: a batch is transposed into it once and cast
to the graph's dtype (graph.graph_dtype) before the first kernel, which
rejects mixed dtypes, and the input gradient is transposed back once.
evaluate casts the test images alike.

The forward pass runs every kind but bn through its inference forward,
graph.OPS[kind].run, without zero masks: every conv, and every fc as a
1x1 conv over the (c*h*w, 1, 1, n) view of its input, runs on
tensor.conv2d_chwn. The backward takes an fc as that same 1x1 conv, so one
conv backward serves both. It pads the conv's input, which the forward
pass keeps for relu's backward anyway (tensor.pad_hw, the kernel's own
padding), and takes the (c*r*s, ho*wo*n) window matrix of it
(tensor.batch_innermost_windows, reshaped); caching the matrix would hold
r*s times the input per conv. The output gradient is already the
(k, ho*wo*n) matrix the GEMMs need. The weight gradient is taken as
(cols @ gy.T).T: on the trainer's long products (k rows, ho*wo*n columns)
the BLAS runs that orientation up to about twice as fast as gy @ cols.T.
The input gradient is the full convolution of the zero-stuffed output
gradient with the flipped, transposed weights (the transposed-convolution
identity; Dumoulin & Visin, arXiv 1603.07285), run on conv2d_chwn itself:
output (oh, ow) goes to (stride*oh + r - 1 - pad, stride*ow + s - 1 - pad)
of a zeroed (k, h + r - 1, w + s - 1, n) buffer, whose stride-1, pad-0
conv is the (c, h, w, n) gradient. An output that lands outside the buffer
read only padding and sends no gradient. At stride 2 the GEMM multiplies
the stuffed zeros too, about four times the multiply-adds that carry
gradient. The accumulation order is the BLAS's, as in the inference conv.
Results are deterministic at a fixed BLAS thread count.

Batch norm runs in training mode here: unfrozen channels normalize with
the current batch's statistics (mean and two-pass biased variance, as
einsum channel reductions) and update their stored running statistics;
channels flagged frozen keep using their stored statistics, receive zero
parameter gradients, and are skipped by weight decay, so the
exact-identity channels created by fusion stay bit-identical through any
amount of training. Backward is the closed form of the batch-statistics
chain (Ioffe & Szegedy, arXiv 1502.03167),
dx = gamma*inv/N * (N*gy - sum(gy) - xhat*sum(gy*xhat)), whose two sums
are also the beta and gamma gradients; frozen channels take gamma*inv*gy.
relu backs propagate via 1[x > 0]. The maxpool backward pads the pool's
input with -inf again, so the forward pass caches nothing but bn's terms.

train_epoch sorts the graph once and every step of the epoch reuses the
order. A step whose loss, batch statistics or parameter update is not
finite stops training with a TrainerError naming the epoch and batch (and
the node, for statistics and updates).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

import numpy as np

from .graph import OPS, Graph, _conv_bias, graph_dtype
from .tensor import Tensor, TensorError, batch_innermost_windows, conv2d_chwn, pad_hw


class TrainerError(Exception):
    pass


@dataclass
class TrainConfig:
    lr: float = 0.1
    momentum: float = 0.9
    weight_decay: float = 1e-4
    batch_size: int = 32
    epochs: int = 1
    seed: int = 0
    bn_momentum: float = 0.1

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.lr, self.momentum, self.weight_decay,
                                              self.bn_momentum)):
            raise ValueError("lr, momentum, weight_decay and bn_momentum must be finite")
        if not self.lr > 0:
            raise ValueError("lr must be > 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if not 0 < self.bn_momentum <= 1:
            raise ValueError("bn_momentum must be in (0, 1]")
        if self.momentum < 0 or self.weight_decay < 0:
            raise ValueError("momentum and weight_decay must be >= 0")


@dataclass
class SynthDataset:
    """Seeded synthetic classification set, bit-identical per seed.

    Class y has per-channel mean amplitude * cos(2*pi*y/classes - pi*ch/c);
    distinct classes therefore have distinct channel-mean vectors lying on
    an ellipse, which a linear map separates. Pixels add Gaussian noise.
    """

    seed: int = 0
    shape: tuple[int, int, int] = (3, 8, 8)
    classes: int = 10
    n_train: int = 512
    n_test: int = 128
    noise: float = 0.25
    amplitude: float = 2.0

    train_images: np.ndarray = field(init=False, repr=False)
    train_labels: np.ndarray = field(init=False, repr=False)
    test_images: np.ndarray = field(init=False, repr=False)
    test_labels: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.classes < 2 or self.n_train < 1 or self.n_test < 1:
            raise ValueError("need >= 2 classes and nonempty splits")
        rng = np.random.default_rng(self.seed)
        self.train_images, self.train_labels = self._generate(rng, self.n_train)
        self.test_images, self.test_labels = self._generate(rng, self.n_test)

    def class_means(self) -> np.ndarray:
        c = self.shape[0]
        y = np.arange(self.classes)[:, None]
        ch = np.arange(c)[None, :]
        return (self.amplitude * np.cos(2 * np.pi * y / self.classes - np.pi * ch / c)
                ).astype(np.float32)

    def _generate(self, rng, n):
        c, h, w = self.shape
        labels = rng.integers(0, self.classes, size=n)
        means = self.class_means()[labels]  # (n, c)
        images = means[:, :, None, None] + self.noise * rng.standard_normal(
            (n, c, h, w)).astype(np.float32)
        return images.astype(np.float32), labels.astype(np.int64)


_DATASET_RE = re.compile(r"synth:seed=(\d+)(?:,n=(\d+))?")


def parse_dataset_spec(text: str, shape: tuple[int, int, int] = (3, 8, 8)) -> SynthDataset:
    """Parse `synth:seed=<u64>[,n=<count>]` into a dataset of (c, h, w)
    shape images."""
    m = _DATASET_RE.fullmatch(text.strip())
    if not m:
        raise ValueError(f"cannot parse dataset spec {text!r}; want synth:seed=<u64>[,n=<count>]")
    seed = int(m.group(1))
    if m.group(2) is not None:
        n = int(m.group(2))
        if n < 2:
            raise ValueError("dataset size must be >= 2")
        return SynthDataset(seed=seed, shape=shape, n_train=n, n_test=max(1, n // 4))
    return SynthDataset(seed=seed, shape=shape)


def softmax_cross_entropy(logits: np.ndarray, labels: np.ndarray):
    """Mean cross-entropy and its gradient wrt the logits."""
    n = logits.shape[0]
    z = logits - logits.max(axis=1, keepdims=True)
    ez = np.exp(z)
    p = ez / ez.sum(axis=1, keepdims=True)
    eps = np.finfo(logits.dtype).tiny
    loss = float(-np.log(p[np.arange(n), labels] + eps).mean())
    dlogits = p.copy()
    dlogits[np.arange(n), labels] -= 1
    return loss, dlogits / logits.dtype.type(n)


def _frozen_mask(node, channels: int) -> np.ndarray:
    frozen = node.attrs.get("frozen", ())
    if not frozen:
        return np.zeros(channels, dtype=bool)
    return np.asarray(frozen, dtype=bool)


def _batch(g: Graph, batch, order: list[str]) -> np.ndarray:
    """The (n, c, h, w) batch as a new (c, h, w, n) array in g's dtype
    (graph.graph_dtype), which the conv kernel requires of its input;
    float32 data widens to float64 exactly."""
    x = np.asarray(batch.data if isinstance(batch, Tensor) else batch)
    return np.array(x.transpose(1, 2, 3, 0), dtype=graph_dtype(g, order), order="C")


def _logits(y: np.ndarray) -> np.ndarray:
    """The (n, features) view of a (c, h, w, n) network output."""
    return y.reshape(-1, y.shape[-1]).T


def _forward_train(g: Graph, x: np.ndarray, bn_momentum: float, order: list[str]):
    """Training-mode forward pass of a (c, h, w, n) input over the
    topological order; returns the (c, h, w, n) node outputs plus the bn
    backward caches.

    bn normalizes with batch statistics (_bn_forward_train); every other
    kind runs its inference forward, graph.OPS[kind].run, without zero
    masks. Side effect: unfrozen bn channels fold this batch's statistics
    into the stored running mean/var with the given momentum.
    """
    values: dict[str, np.ndarray] = {}
    caches: dict[str, dict] = {}
    for nid in order:
        node = g.nodes[nid]
        if node.kind not in OPS:
            raise TrainerError(f"node {nid!r}: kind {node.kind!r} unsupported in training mode")
        args = [values[src] for src in node.inputs]
        if node.kind == "input":
            values[nid] = x
        elif node.kind == "bn":
            values[nid] = _bn_forward_train(node, args[0], bn_momentum, caches)
        else:
            values[nid] = OPS[node.kind].run(node, args)
    return values, caches


def _bn_forward_train(node, x, bn_momentum, caches):
    dt = x.dtype
    c, h, w, n = x.shape
    frozen = _frozen_mask(node, c)
    eps = dt.type(node.attrs["eps"])
    cnt = dt.type(n * h * w)
    gamma = node.params["gamma"].data.reshape(c, 1, 1, 1)
    beta = node.params["beta"].data.reshape(c, 1, 1, 1)
    stored_mean = node.params["mean"].data.reshape(-1)
    stored_var = node.params["var"].data.reshape(-1)
    batch_mean = np.einsum("chwn->c", x) / cnt
    use_mean = np.where(frozen, stored_mean, batch_mean)
    xhat = x - use_mean[:, None, None, None]
    # biased two-pass variance; xhat still holds x - mean here, which on the
    # frozen channels is off the batch mean, but those use the stored var
    batch_var = np.einsum("chwn,chwn->c", xhat, xhat) / cnt
    use_var = np.where(frozen, stored_var, batch_var)
    inv = (1.0 / np.sqrt(use_var + eps)).astype(dt)
    xhat *= inv[:, None, None, None]
    y = gamma * xhat
    y += beta
    # fold the batch statistics into the running estimates (unfrozen only)
    m = dt.type(bn_momentum)
    new_mean = np.where(frozen, stored_mean, (1 - m) * stored_mean + m * batch_mean).astype(dt)
    new_var = np.where(frozen, stored_var, (1 - m) * stored_var + m * batch_var).astype(dt)
    node.params = dict(node.params)
    node.params["mean"] = _updated(node.id, "running mean", new_mean.reshape(1, c, 1, 1))
    node.params["var"] = _updated(node.id, "running var", new_var.reshape(1, c, 1, 1))
    caches[node.id] = {"xhat": xhat, "inv": inv, "frozen": frozen}
    return y


def _updated(nid: str, what: str, arr: np.ndarray) -> Tensor:
    """Tensor._wrap(arr) for a parameter the step has just computed; a
    non-finite value means training diverged, reported as a TrainerError
    naming the node."""
    try:
        return Tensor._wrap(arr)
    except TensorError:
        raise TrainerError(f"node {nid!r}: {what} is not finite (training diverged)") from None


def training_forward(g: Graph, batch, bn_momentum: float = 0.1) -> np.ndarray:
    """Training-mode forward pass; returns the flattened logits (n, features).

    Differs from inference execution in that unfrozen bn channels normalize
    with the batch's own statistics (and fold them into the running
    estimates in place).
    """
    order = g.topo_order()
    values, _ = _forward_train(g, _batch(g, batch, order), bn_momentum, order)
    return np.ascontiguousarray(_logits(values[g.nodes[g.output_id].inputs[0]]))


def forward_backward(g: Graph, batch, labels, bn_momentum: float = 0.1,
                     order: list[str] | None = None):
    """One training step's math: loss, parameter gradients, input gradient.

    Returns (loss, grads, input_grad) where grads[node_id][param_name] holds
    arrays shaped like the stored parameters (conv/fc weight and bias, bn
    gamma and beta; frozen bn channels get exact zeros). Running bn
    statistics are updated in place as a side effect; weights are not.
    The batch is cast to g's dtype, and input_grad has that dtype; its
    images must have the (c, h, w) of g's input_shape, as graph.execute
    requires, or TrainerError is raised. order is g's topological order,
    sorted here when not given.

    labels must hold one integer in [0, features) per image, where features
    is the length of the flattened logits; other labels raise TrainerError.
    Their range is checked once the forward pass has given the logits, and
    so after it has updated the running statistics.
    """
    if order is None:
        order = g.topo_order()
    x = _batch(g, batch, order)
    if x.shape[:3] != tuple(g.input_shape[1:]):
        raise TrainerError(f"batch images are (c, h, w) {x.shape[:3]}, the graph takes "
                           f"{tuple(g.input_shape[1:])}")
    labels = np.asarray(labels)
    if labels.shape != (x.shape[-1],):
        raise TrainerError(f"labels shape {labels.shape} does not match batch {x.shape[-1]}")
    if not np.issubdtype(labels.dtype, np.integer):
        raise TrainerError(f"labels must be integers, got {labels.dtype}")
    values, caches = _forward_train(g, x, bn_momentum, order)
    out_node = g.nodes[g.output_id]
    logits4 = values[out_node.inputs[0]]
    features = math.prod(logits4.shape[:3])
    if labels.min() < 0 or labels.max() >= features:
        raise TrainerError(f"labels span [{labels.min()}, {labels.max()}], outside the graph's "
                           f"{features} classes [0, {features})")
    loss, dlogits = softmax_cross_entropy(_logits(logits4), labels)

    gmap: dict[str, np.ndarray] = {out_node.inputs[0]: dlogits.T.reshape(logits4.shape)}
    grads: dict[str, dict[str, np.ndarray]] = {}

    def push(nid: str, grad: np.ndarray) -> None:
        if nid in gmap:
            gmap[nid] = gmap[nid] + grad
        else:
            gmap[nid] = grad

    for nid in reversed(order):
        node = g.nodes[nid]
        if node.kind in ("input", "output"):
            continue
        gy = gmap.get(nid)
        if gy is None:
            continue  # nodes past the loss tap (none in valid graphs)
        kind = node.kind
        if kind == "relu":
            xin = values[node.inputs[0]]
            push(node.inputs[0], gy * (xin > 0))
        elif kind == "add":
            push(node.inputs[0], gy)
            push(node.inputs[1], gy)
        elif kind == "concat":
            ofs = 0
            for src in node.inputs:
                width = values[src].shape[0]
                push(src, gy[ofs : ofs + width])
                ofs += width
        elif kind == "gavgpool":
            xin = values[node.inputs[0]]
            scale = gy.dtype.type(1.0 / (xin.shape[1] * xin.shape[2]))
            push(node.inputs[0], np.broadcast_to(gy * scale, xin.shape).copy())
        elif kind == "maxpool":
            push(node.inputs[0], _maxpool_backward(node, gy, values[node.inputs[0]], values[nid]))
        elif kind in ("conv", "fc"):
            xin = values[node.inputs[0]]
            if kind == "conv":
                args = xin, node.attrs["spec"].stride, node.attrs["spec"].pad
            else:  # a 1x1 conv over the (c*h*w, 1, 1, n) view of its input
                args = xin.reshape(-1, 1, 1, xin.shape[-1]), (1, 1), (0, 0)
            gx, grads[nid] = _conv_backward(node, gy, *args)
            push(node.inputs[0], gx.reshape(xin.shape))
        elif kind == "bn":
            gx, gparams = _bn_backward(node, gy, caches[nid])
            grads[nid] = gparams
            push(node.inputs[0], gx)
        else:  # pragma: no cover
            raise TrainerError(f"unhandled kind {kind}")
    gx = gmap.get(g.input_id, np.zeros_like(x))
    return loss, grads, np.ascontiguousarray(gx.transpose(3, 0, 1, 2))


def _stuffed(size: int, kernel: int, stride: int, pad: int, out: int):
    """(the outputs, their buffer positions) along one axis, as slices:
    output o goes to stride*o + kernel - 1 - pad of the size + kernel - 1
    buffer; one that lands outside it read only padding and is left out."""
    shift = kernel - 1 - pad
    first = max(0, -(shift // stride))
    stop = min(out, (size - 1 + pad) // stride + 1)
    at = stride * first + shift
    return slice(first, stop), slice(at, at + stride * (stop - first), stride)


def _conv_backward(node, gy, x, stride, pad):
    """(input gradient, parameter gradients) of a conv whose (c, h, w, n)
    input was x, given the (k, ho, wo, n) output gradient gy."""
    weight = node.params["weight"]
    k, c, r, s = weight.shape
    _, h, wd, n = x.shape
    gy2d = gy.reshape(k, -1)
    cols = batch_innermost_windows(pad_hw(x, pad), r, s, stride).reshape(c * r * s, -1)
    grads = {"weight": (cols @ gy2d.T).T.reshape(weight.shape)}
    if _conv_bias(node) is not None:
        grads["bias"] = gy.sum(axis=(1, 2, 3)).reshape(node.params["bias"].shape)
    oh, at_h = _stuffed(h, r, stride[0], pad[0], gy.shape[1])
    ow, at_w = _stuffed(wd, s, stride[1], pad[1], gy.shape[2])
    stuffed = np.zeros((k, h + r - 1, wd + s - 1, n), dtype=gy.dtype)
    stuffed[:, at_h, at_w] = gy[:, oh, ow]
    flipped = weight.data.transpose(1, 0, 2, 3)[:, :, ::-1, ::-1]
    return conv2d_chwn(stuffed, flipped, None, (1, 1), (0, 0)), grads


def _bn_backward(node, gy, cache):
    xhat, inv, frozen = cache["xhat"], cache["inv"], cache["frozen"]
    c, h, w, n = gy.shape
    dt = gy.dtype
    gbeta = np.einsum("chwn->c", gy)
    ggamma = np.einsum("chwn,chwn->c", gy, xhat)
    scale = node.params["gamma"].data.reshape(-1) * inv
    # closed form of the batch-statistics chain, scale/N * (N*gy - gbeta -
    # xhat*ggamma); frozen channels treat the stored statistics as
    # constants and keep only scale*gy
    per = scale / dt.type(n * h * w)
    shift = np.where(frozen, 0, per * gbeta).astype(dt)
    slope = np.where(frozen, 0, per * ggamma).astype(dt)
    gx = gy * scale[:, None, None, None]
    gx -= xhat * slope[:, None, None, None]
    gx -= shift[:, None, None, None]
    ggamma = np.where(frozen, 0, ggamma).astype(dt)
    gbeta = np.where(frozen, 0, gbeta).astype(dt)
    return gx, {"gamma": ggamma.reshape(1, c, 1, 1), "beta": gbeta.reshape(1, c, 1, 1)}


def _maxpool_backward(node, gy, x, y):
    """The input gradient of a maxpool whose (c, h, w, n) input was x and
    whose output was y: each output's gradient goes to the first tap, in
    row-major order, that holds the maximum. x is padded with -inf, as
    max_pool_chwn pads it."""
    r, s = node.attrs["window"]
    sh, sw = node.attrs["stride"]
    ph, pw = node.attrs["pad"]
    xp = pad_hw(x, (ph, pw), -np.inf)
    hspan, wspan = (y.shape[1] - 1) * sh + 1, (y.shape[2] - 1) * sw + 1
    gxp = np.zeros_like(xp)
    remaining = np.ones_like(y, dtype=bool)
    for u in range(r):
        for v in range(s):
            window = xp[:, u : u + hspan : sh, v : v + wspan : sw]
            hit = (window == y) & remaining
            gxp[:, u : u + hspan : sh, v : v + wspan : sw] += gy * hit
            remaining &= ~hit
    return gxp[:, ph : xp.shape[1] - ph, pw : xp.shape[2] - pw]


def sgd_step(g: Graph, grads, cfg: TrainConfig, velocity: dict) -> None:
    """v <- momentum*v + grad + wd*param; param <- param - lr*v, in place.

    bn channels flagged frozen are excluded from both the gradient (already
    zero) and the weight-decay pull, so they never move. Nodes are updated
    independently, in the order of grads. A non-finite update raises
    TrainerError naming the node, whose parameters are then left as they
    were.
    """
    for nid, gparams in grads.items():
        node = g.nodes[nid]
        params = dict(node.params)
        for pname, grad in gparams.items():
            param = params[pname].data
            dt = param.dtype
            step = dt.type(cfg.weight_decay) * param
            step += grad
            if node.kind == "bn":
                step[:, _frozen_mask(node, param.shape[1])] = 0
            v = velocity.get((nid, pname))
            if v is None:
                v = velocity[(nid, pname)] = step
            else:
                v *= dt.type(cfg.momentum)
                v += step
            params[pname] = _updated(nid, f"{pname} update", param - dt.type(cfg.lr) * v)
        node.params = params


def train_epoch(g: Graph, dataset: SynthDataset, cfg: TrainConfig, epoch: int = 0,
                velocity: dict | None = None) -> float:
    """One epoch of SGD over the shuffled training split; returns mean loss.

    A step that meets a non-finite loss, batch statistic or parameter
    update raises TrainerError naming the epoch and batch.
    """
    if velocity is None:
        velocity = {}
    topo = g.topo_order()
    order = np.random.default_rng((cfg.seed, epoch)).permutation(dataset.n_train)
    total, seen = 0.0, 0
    for b, start in enumerate(range(0, dataset.n_train, cfg.batch_size)):
        idx = order[start : start + cfg.batch_size]
        batch = dataset.train_images[idx]
        labels = dataset.train_labels[idx]
        try:
            loss, grads, _ = forward_backward(g, batch, labels, cfg.bn_momentum, order=topo)
            if not np.isfinite(loss):
                raise TrainerError(f"loss is {loss} (training diverged)")
            sgd_step(g, grads, cfg, velocity)
        except TrainerError as exc:
            raise TrainerError(f"epoch {epoch}, batch {b}: {exc}") from None
        total += loss * len(idx)
        seen += len(idx)
    return total / max(seen, 1)


def evaluate(g: Graph, dataset: SynthDataset, batch_size: int = 64) -> float:
    """Inference-mode top-1 accuracy on the test split, whose images are
    cast to g's dtype as forward_backward casts a batch."""
    from .graph import execute

    dt = graph_dtype(g)
    correct = 0
    for start in range(0, dataset.n_test, batch_size):
        images = dataset.test_images[start : start + batch_size]
        labels = dataset.test_labels[start : start + batch_size]
        y = execute(g, Tensor(images, dt))
        pred = y.data.reshape(y.shape[0], -1).argmax(axis=1)
        correct += int((pred == labels).sum())
    return correct / dataset.n_test


def fit(g: Graph, dataset: SynthDataset, cfg: TrainConfig) -> list[float]:
    """Train for cfg.epochs with one persistent momentum state; returns the
    per-epoch mean losses. The graph is updated in place."""
    velocity: dict = {}
    return [train_epoch(g, dataset, cfg, epoch, velocity) for epoch in range(cfg.epochs)]


def make_epoch_hook(dataset: SynthDataset, cfg: TrainConfig):
    """An epoch hook for dynamic_prune: trains one epoch per call, keeping
    momentum state across calls. Each call's mean loss is appended to the
    hook's `losses` list."""
    velocity: dict = {}

    def hook(graph: Graph, epoch: int) -> None:
        hook.losses.append(train_epoch(graph, dataset, cfg, epoch, velocity))

    hook.losses = []
    return hook
