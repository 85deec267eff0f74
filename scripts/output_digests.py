"""Print the SHA-256 of every execute output, training step and .fpm of the pipeline.

For each zoo family and dtype the script builds the model, fuses every
stage, soft-prunes one epoch in continued mode at rate 0.3, materializes
and folds bn, giving five graph variants: orig, fused, masked,
materialized and deployed. It saves each variant as a .fpm file and runs
it on a seeded input at batch 1 and batch 32, and prints one line per
file and per output:

    <family> <dtype> <variant> fpm <sha256>
    <family> <dtype> <variant> b<batch> <sha256>

A sixth graph takes the path the five never reach: orig with every bn's
parameters drawn from the seeded rng, its bn folded into the convs and then
fused at every stage, fuse(fold_bn(g)), so that fusion meets blocks
without bn whose convs carry nonzero biases. It prints its file and its
batch-1 output:

    <family> <dtype> folded-fused fpm <sha256>
    <family> <dtype> folded-fused b1 <sha256>

It then trains on a seeded synthetic set of TRAIN_IMAGES images, in
batches of TRAIN_BATCH, and prints two more lines: the digest of one
forward_backward on the fused graph (the loss, every parameter gradient
in order, and the input gradient), and that of the .fpm of the fused graph
after one fit epoch and one dynamic_prune epoch in continued mode at rate
0.3:

    <family> <dtype> fused grads <sha256>
    <family> <dtype> trained fpm <sha256>

Two trees give the same outputs, gradients and files bit for bit exactly
when their printouts are equal, so a claim of bitwise-unchanged results is
one diff:

    PYTHONPATH=src python3 scripts/output_digests.py > new.txt
    (cd ../parent && PYTHONPATH=src python3 scripts/output_digests.py) > old.txt
    diff old.txt new.txt

One run peaks at about 3.6 GB of resident memory, on the resnet34 f64
training lines, and a run the system kills for want of memory stops
without a message on standard error. So run one at a time, and check that
a full run printed all 190 lines (wc -l) before diffing.

The lines exercise both of the conv's window builders (tensor.PreparedConv),
which must give the identical matrix: every b1 line gathers through the
index table, for the fc at least (a 1x1 map at batch 1), and the
resnet8-tiny, resnet18 and resnet34 b1 lines also for their convs on maps
of 4x4 and below; every b32 line and the grads and trained lines, whose
GEMMs are wider than 16 columns, copy out of the window view alone.

The bits depend on the BLAS, its kernel and its thread count, so compare
runs made with the same OPENBLAS_NUM_THREADS (or its equivalent) on one
machine. The script names on standard error the kernel OpenBLAS picked
for this CPU (`openblas core: SkylakeX`, say, or `unknown` where it finds
no OpenBLAS), which OPENBLAS_CORETYPE overrides, and the thread count it
runs on (`openblas threads: 1`, or `unknown`).
Every model and input is drawn from seed SEED, and the larger families run
at HW x HW rather than at 224x224.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import math
import os
import sys
import tempfile

import numpy as np

from fuseprune.fusion import FusionReport, fold_bn, fuse
from fuseprune.graph import Graph, execute, save, validate
from fuseprune.pruning import PruneConfig, dynamic_prune, materialize, soft_prune_epoch
from fuseprune.tensor import DTYPE_FROM_NAME, Tensor
from fuseprune.trainer import SynthDataset, TrainConfig, fit, forward_backward, make_epoch_hook
from fuseprune.zoo import FAMILIES, ZooSpec, build

BATCHES = (1, 32)
DTYPES = ("f32", "f64")
SEED = 0
HW = 32
TRAIN_IMAGES = 64
TRAIN_BATCH = 32


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--family", action="append", choices=sorted(FAMILIES),
                    help="a zoo family; repeat for several (default: all five)")
    return ap.parse_args(argv)


def variants(family: str, dtype: str) -> tuple[dict, FusionReport]:
    """The five graphs of one family and dtype, in pipeline order, and the
    fusion report."""
    hw = min(HW, FAMILIES[family].input_shape[2])
    orig = build(ZooSpec(family, input_shape=(1, 3, hw, hw), dtype=dtype, seed=SEED))
    stages = len(FAMILIES[family].stages)
    fused, report = fuse(orig, f"{stages}/{stages}")
    masked = fused.copy()
    mask = soft_prune_epoch(masked, report, PruneConfig(rate=0.3, mode="continued"))
    materialized = materialize(masked, mask, report).graph
    return {"orig": orig, "fused": fused, "masked": masked, "materialized": materialized,
            "deployed": fold_bn(materialized)}, report


def folded_fused(orig, stages: int) -> Graph:
    """fuse(fold_bn(g)) at every stage, g being orig with each bn's gamma,
    beta, mean and var drawn from the seeded rng."""
    g = orig.copy()
    rng = np.random.default_rng(SEED)
    for node in g.nodes.values():
        if node.kind == "bn":
            shape, dtype = node.params["gamma"].shape, node.params["gamma"].dtype
            for name, lo, hi in (("gamma", 0.5, 1.5), ("beta", -0.3, 0.3),
                                 ("mean", -0.3, 0.3), ("var", 0.5, 1.5)):
                node.params[name] = Tensor(rng.uniform(lo, hi, shape).astype(dtype))
    return fuse(fold_bn(g), f"{stages}/{stages}")[0]


def _openblas_call(names, restype):
    """The result of the first of the OpenBLAS functions names that exists,
    called without arguments, or None without one.

    Each name is looked up among the process's global symbols and in the
    OpenBLAS that numpy's wheels bundle, which numpy has already loaded.
    """
    bundled = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                     "*openblas*"))
    for lib in [None, *bundled]:
        try:
            dll = ctypes.CDLL(lib)
        except OSError:
            continue
        for name in names:
            fn = getattr(dll, name, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], restype
                return fn()
    return None


def openblas_core() -> str:
    """The name of the kernel OpenBLAS chose, or "unknown" without an OpenBLAS."""
    name = _openblas_call(("openblas_get_corename", "scipy_openblas_get_corename64_"),
                          ctypes.c_char_p)
    return "unknown" if name is None else name.decode("ascii", "replace").strip()


def openblas_threads() -> str:
    """The number of threads OpenBLAS runs a call on, or "unknown" without
    an OpenBLAS."""
    count = _openblas_call(("openblas_get_num_threads", "scipy_openblas_get_num_threads64_"),
                           ctypes.c_int)
    return "unknown" if count is None else str(count)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def file_sha256(g, path) -> str:
    save(g, path)
    with open(path, "rb") as fh:
        return sha256(fh.read())


def training(fused, report: FusionReport, path) -> tuple[str, str]:
    """The digests of one forward_backward on a copy of fused and of the
    .fpm of fused after one fit epoch and one dynamic_prune epoch."""
    shape = tuple(fused.input_shape[1:])
    classes = math.prod(validate(fused)[fused.output_id][1:])
    data = SynthDataset(seed=SEED, shape=shape, classes=classes, n_train=TRAIN_IMAGES,
                        n_test=1)
    loss, grads, gx = forward_backward(fused.copy(), data.train_images[:TRAIN_BATCH],
                                       data.train_labels[:TRAIN_BATCH])
    digest = hashlib.sha256(np.float64(loss).tobytes())
    for nid, gparams in grads.items():
        for name, grad in gparams.items():
            digest.update(f"{nid}/{name}".encode())
            digest.update(grad.tobytes())
    digest.update(gx.tobytes())
    trained = fused.copy()
    fit(trained, data, TrainConfig(batch_size=TRAIN_BATCH, seed=SEED))
    pruned, _ = dynamic_prune(trained, report, PruneConfig(rate=0.3, mode="continued"),
                              make_epoch_hook(data, TrainConfig(lr=0.05, batch_size=TRAIN_BATCH,
                                                                seed=SEED)))
    return digest.hexdigest(), file_sha256(pruned, path)


def main(argv=None):
    args = parse_args(argv if argv is not None else sys.argv[1:])
    print(f"openblas core: {openblas_core()}", file=sys.stderr)
    print(f"openblas threads: {openblas_threads()}", file=sys.stderr)
    with tempfile.TemporaryDirectory() as tmp:
        for family in args.family or list(FAMILIES):
            for dtype in DTYPES:
                graphs, report = variants(family, dtype)
                shape = graphs["orig"].input_shape[1:]
                rng = np.random.default_rng(SEED)
                inputs = {n: Tensor((rng.standard_normal((n, *shape)) * 0.1)
                                    .astype(DTYPE_FROM_NAME[dtype])) for n in BATCHES}
                for name, g in graphs.items():
                    path = os.path.join(tmp, f"{name}.fpm")
                    print(f"{family} {dtype} {name} fpm {file_sha256(g, path)}")
                    for n, x in inputs.items():
                        y = execute(g, x)
                        print(f"{family} {dtype} {name} b{n} {sha256(y.data.tobytes())}")
                g = folded_fused(graphs["orig"], len(FAMILIES[family].stages))
                path = os.path.join(tmp, "folded-fused.fpm")
                print(f"{family} {dtype} folded-fused fpm {file_sha256(g, path)}")
                y = execute(g, inputs[1])
                print(f"{family} {dtype} folded-fused b1 {sha256(y.data.tobytes())}")
                grads, trained = training(graphs["fused"], report,
                                          os.path.join(tmp, "trained.fpm"))
                print(f"{family} {dtype} fused grads {grads}")
                print(f"{family} {dtype} trained fpm {trained}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
