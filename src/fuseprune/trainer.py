"""Deterministic desk-scale training: forward/backward, SGD, synthetic data.

The loop exists so soft pruning can interleave real weight updates with
masking. It is seeded end-to-end and exact enough for finite-difference
verification.

Every activation and gradient is held batch innermost, (c, h, w, n), the
layout graph.execute runs in: a batch is transposed into it once and cast
to the graph's dtype (graph.graph_dtype) before the first kernel, which
rejects mixed dtypes, and the input gradient is transposed back once.
evaluate casts the test images alike.

forward_backward is one forward loop and one backward loop over the op
table, graph.OPS, with no branch on a node's kind (the per-op derivative
table of autograd systems; Paszke et al., arXiv 1912.01703). The forward
runs each node's Op.train, the input node's on the batch; the backward
runs each Op.backward in reverse topological order from the loss gradient
at the output, summing what a node's readers send it in that order.
Results are deterministic at a fixed BLAS thread count. bn channels
flagged frozen keep their statistics and take zero gradients, and sgd_step
skips their weight decay, so fusion's exact-identity channels never move.

The trainer replaces parameters, never mutates them (the running
statistics in the forward, the weights in sgd_step), and each replacement
drops the graph's kept plan (graph.execute), which holds the old Tensors.

train_epoch sorts the graph once and every step of the epoch reuses the
order. It throws the input gradient away, so it asks forward_backward for
none (input_grad=False): the backward of a node that reads the graph input
alone is told that no input gradient is wanted, and a conv or fc then
computes its parameter gradients alone, with the same bits. sgd_step
updates all the parameters of one dtype in one pass over a flat buffer,
whose bits are those of a per-parameter update. A step whose loss, batch statistics or
parameter update is not finite stops training with a TrainerError naming
the epoch and batch (and the node, for statistics and updates).
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass, field

import numpy as np

from .graph import OPS, Graph, graph_dtype
from .tensor import Tensor, TensorError


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


def parse_dataset_spec(text: str, shape: tuple[int, int, int] = (3, 8, 8),
                       classes: int = 10) -> SynthDataset:
    """Parse `synth:seed=<u64>[,n=<count>]` into a dataset of (c, h, w)
    shape images in the given number of classes."""
    m = _DATASET_RE.fullmatch(text.strip())
    if not m:
        raise ValueError(f"cannot parse dataset spec {text!r}; want synth:seed=<u64>[,n=<count>]")
    seed = int(m.group(1))
    if m.group(2) is not None:
        n = int(m.group(2))
        if n < 2:
            raise ValueError("dataset size must be >= 2")
        return SynthDataset(seed=seed, shape=shape, classes=classes, n_train=n,
                            n_test=max(1, n // 4))
    return SynthDataset(seed=seed, shape=shape, classes=classes)


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
    topological order; returns the (c, h, w, n) node outputs and each
    node's backward cache (Op.train). The parameters a training forward
    gives (bn's running statistics) replace the node's."""
    values, caches = {}, {}
    for nid in order:
        node = g.nodes[nid]
        op = OPS.get(node.kind)
        if op is None:
            raise TrainerError(f"node {nid!r}: kind {node.kind!r} unsupported in training mode")
        # the input node reads the batch
        args = [values[src] for src in node.inputs] or [x]
        values[nid], caches[nid], stats = op.train(node, args, bn_momentum)
        if stats:
            _replace(g, node, stats, "running {}")
    return values, caches


def _replace(g: Graph, node, arrays: dict[str, np.ndarray], what: str | None) -> None:
    """Replace node's parameters by Tensors over the arrays the step has
    just computed, and drop g's kept plan, which holds the old ones. A
    non-finite value means training diverged: a TrainerError naming the
    node and what.format(the parameter), and node keeps its parameters.
    what is None for arrays the caller has already found finite."""
    params = {}
    for name, arr in arrays.items():
        try:
            params[name] = Tensor._wrap(arr, finite=what is None)
        except TensorError:
            raise TrainerError(f"node {node.id!r}: {what.format(name)} is not finite "
                               "(training diverged)") from None
    node.params = {**node.params, **params}
    g._plan = None


def training_forward(g: Graph, batch, bn_momentum: float = 0.1) -> np.ndarray:
    """Training-mode forward pass; returns the flattened logits (n, features).

    Differs from inference execution in that unfrozen bn channels normalize
    with the batch's own statistics (and fold them into the running
    estimates in place).
    """
    order = g.topo_order()
    values, _ = _forward_train(g, _batch(g, batch, order), bn_momentum, order)
    return np.ascontiguousarray(_logits(values[g.output_id]))


def forward_backward(g: Graph, batch, labels, bn_momentum: float = 0.1,
                     order: list[str] | None = None, *, input_grad: bool = True):
    """One training step's math: loss, parameter gradients, input gradient.

    Returns (loss, grads, input_grad) where grads[node_id][param_name] holds
    arrays shaped like the stored parameters (conv/fc weight and bias, bn
    gamma and beta; frozen bn channels get exact zeros). Running bn
    statistics are updated in place as a side effect; weights are not.
    The batch is cast to g's dtype, and input_grad has that dtype; its
    images must have the (c, h, w) of g's input_shape, as graph.execute
    requires, or TrainerError is raised. order is g's topological order,
    sorted here when not given. With input_grad false the input gradient is
    neither computed nor returned (None in its place): each node that reads
    the graph input alone runs its backward with input_grad false, which
    leaves every parameter gradient's bits as they are.

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
    logits4 = values[g.output_id]
    features = math.prod(logits4.shape[:3])
    if labels.min() < 0 or labels.max() >= features:
        raise TrainerError(f"labels span [{labels.min()}, {labels.max()}], outside the graph's "
                           f"{features} classes [0, {features})")
    loss, dlogits = softmax_cross_entropy(_logits(logits4), labels)

    gmap: dict[str, np.ndarray] = {g.output_id: dlogits.T.reshape(logits4.shape)}
    grads: dict[str, dict[str, np.ndarray]] = {}
    for nid in reversed(order):
        node = g.nodes[nid]
        op = OPS[node.kind]
        gy = gmap.get(nid)
        if op.backward is None or gy is None:
            continue  # the input, and nodes past the loss tap (none in valid graphs)
        args = [values[src] for src in node.inputs]
        wanted = input_grad or any(src != g.input_id for src in node.inputs)
        gxs, gparams = op.backward(node, gy, args, values[nid], caches[nid], wanted)
        if gparams:
            grads[nid] = gparams
        for src, gx in zip(node.inputs, gxs):
            gmap[src] = gmap[src] + gx if src in gmap else gx
    if not input_grad:
        return loss, grads, None
    gx = gmap.get(g.input_id, np.zeros_like(x))
    return loss, grads, np.ascontiguousarray(gx.transpose(3, 0, 1, 2))


def sgd_step(g: Graph, grads, cfg: TrainConfig, velocity: dict) -> None:
    """v <- momentum*v + grad + wd*param; param <- param - lr*v.

    Channels a node's frozen flags mark (bn's) are excluded from both the
    gradient (already zero) and the weight-decay pull, so they never move.
    velocity maps (node id, parameter name) to its velocity, which the next
    step reads; a parameter without one starts from its first step. The
    parameters and their velocities are replaced, never mutated. A gradient
    not shaped like its parameter raises ValueError. A non-finite update
    raises TrainerError naming the node, whose parameters are then left as
    they were, as are those of the nodes after it in the order of grads;
    the nodes before it are updated, and so are the velocities of every
    pass up to the one that failed.

    The parameters are updated in passes over their concatenation
    (_flat_sgd): one pass for a run of parameters of one dtype, adjacent in
    the order of grads and of at most _FLAT_ELEMENTS values together, and
    so one for every parameter of a small model. Each pass checks its
    results for finiteness once. Each value takes the elementwise
    operations, in the order, of an update of its parameter on its own, so
    the bits are those of a per-parameter loop.
    """
    new, finite = {}, True
    for keys in _runs(g, grads):
        params, velocities, finite = _flat_sgd(g, grads, keys, cfg, velocity)
        new.update(params)
        velocity.update(velocities)
        if not finite:
            break  # _replace finds the node and raises
    for nid, gparams in grads.items():
        _replace(g, g.nodes[nid], {pname: new[nid, pname] for pname in gparams},
                 None if finite else "{} update")


# The most values one sgd_step pass updates: a larger model is updated a run
# of parameters at a time, so the pass's few temporary copies stay small
# beside the model. Fused resnet8-tiny (29K values) and fused resnet20
# (0.50M) take one pass.
_FLAT_ELEMENTS = 1 << 20


def _runs(g: Graph, grads):
    """The (node id, parameter name) keys of grads, in order, cut into runs
    of one dtype and at most _FLAT_ELEMENTS values (or one larger
    parameter)."""
    run, size, dt = [], 0, None
    for nid, gparams in grads.items():
        for pname in gparams:
            p = g.nodes[nid].params[pname].data
            if run and (p.dtype != dt or size + p.size > _FLAT_ELEMENTS):
                yield run
                run, size = [], 0
            run.append((nid, pname))
            size += p.size
            dt = p.dtype
    if run:
        yield run


def _flat_sgd(g: Graph, grads, keys, cfg: TrainConfig, velocity: dict):
    """sgd_step's update of the parameters keys name, all of one dtype, as
    one pass over their concatenation: step = wd*p + grad, the held entries
    zeroed, v = momentum*v + step, p - lr*v. Returns each key's new
    parameter and velocity, views of the flat results, and whether every
    new parameter is finite.

    A velocity not yet in velocity starts as -0.0, which momentum*v + step
    turns into step itself, bit for bit.
    """
    params = [g.nodes[nid].params[pname].data for nid, pname in keys]
    gradients = [np.asarray(grads[nid][pname]) for nid, pname in keys]
    for (nid, pname), p, grad in zip(keys, params, gradients):
        if grad.shape != p.shape:
            raise ValueError(f"node {nid!r}: {pname} gradient is shaped {grad.shape}, "
                             f"the parameter {p.shape}")
    dt = params[0].dtype
    starts = list(itertools.accumulate((p.size for p in params), initial=0))
    flat = np.concatenate(params, axis=None)
    step = dt.type(cfg.weight_decay) * flat
    step += np.concatenate(gradients, axis=None)
    for (nid, _), p, start in zip(keys, params, starts):
        frozen = g.nodes[nid].attrs.get("frozen")
        if frozen and any(frozen):  # the held entries: the frozen channels' (bn's)
            step[start : start + p.size].reshape(p.shape)[:, np.asarray(frozen, dtype=bool)] = 0
    v = np.concatenate([velocity[key] if key in velocity else np.full(p.size, -0.0, dtype=dt)
                        for key, p in zip(keys, params)], axis=None)
    v *= dt.type(cfg.momentum)
    v += step
    flat -= np.multiply(dt.type(cfg.lr), v, out=step)
    spans = [(key, p.shape, slice(start, start + p.size))
             for key, p, start in zip(keys, params, starts)]
    return ({key: flat[span].reshape(shape) for key, shape, span in spans},
            {key: v[span].reshape(shape) for key, shape, span in spans},
            bool(np.isfinite(flat).all()))


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
            loss, grads, _ = forward_backward(g, batch, labels, cfg.bn_momentum, order=topo,
                                              input_grad=False)
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
