"""Print the SHA-256 of every execute output and every .fpm of the pipeline.

For each zoo family and dtype the script builds the model, fuses every
stage, soft-prunes one epoch in continued mode at rate 0.3, materializes
and folds bn, giving five graph variants: orig, fused, masked,
materialized and deployed. It saves each variant as a .fpm file and runs
it on a seeded input at batch 1 and batch 32, and prints one line per
file and per output:

    <family> <dtype> <variant> fpm <sha256>
    <family> <dtype> <variant> b<batch> <sha256>

Two trees give the same outputs and files bit for bit exactly when their
printouts are equal, so a claim of bitwise-unchanged results is one diff:

    PYTHONPATH=src python3 scripts/output_digests.py > new.txt
    (cd ../parent && PYTHONPATH=src python3 scripts/output_digests.py) > old.txt
    diff old.txt new.txt

The bits depend on the BLAS and its thread count, so compare runs made
with the same OPENBLAS_NUM_THREADS (or its equivalent) on one machine.
Every model and input is drawn from seed SEED, and the larger families run
at HW x HW rather than at 224x224.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import tempfile

import numpy as np

from fuseprune.fusion import fold_bn, fuse
from fuseprune.graph import execute, save
from fuseprune.pruning import PruneConfig, materialize, soft_prune_epoch
from fuseprune.tensor import DTYPE_FROM_NAME, Tensor
from fuseprune.zoo import FAMILIES, ZooSpec, build

BATCHES = (1, 32)
DTYPES = ("f32", "f64")
SEED = 0
HW = 32


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--family", action="append", choices=sorted(FAMILIES),
                    help="a zoo family; repeat for several (default: all five)")
    return ap.parse_args(argv)


def variants(family: str, dtype: str) -> dict:
    """The five graphs of one family and dtype, in pipeline order."""
    hw = min(HW, FAMILIES[family].input_shape[2])
    orig = build(ZooSpec(family, input_shape=(1, 3, hw, hw), dtype=dtype, seed=SEED))
    stages = len(FAMILIES[family].stages)
    fused, report = fuse(orig, f"{stages}/{stages}")
    masked = fused.copy()
    mask = soft_prune_epoch(masked, report, PruneConfig(rate=0.3, mode="continued"))
    materialized = materialize(masked, mask, report).graph
    return {"orig": orig, "fused": fused, "masked": masked, "materialized": materialized,
            "deployed": fold_bn(materialized)}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main(argv=None):
    args = parse_args(argv if argv is not None else sys.argv[1:])
    with tempfile.TemporaryDirectory() as tmp:
        for family in args.family or list(FAMILIES):
            for dtype in DTYPES:
                graphs = variants(family, dtype)
                shape = graphs["orig"].input_shape[1:]
                rng = np.random.default_rng(SEED)
                inputs = {n: Tensor((rng.standard_normal((n, *shape)) * 0.1)
                                    .astype(DTYPE_FROM_NAME[dtype])) for n in BATCHES}
                for name, g in graphs.items():
                    path = os.path.join(tmp, f"{name}.fpm")
                    save(g, path)
                    with open(path, "rb") as fh:
                        print(f"{family} {dtype} {name} fpm {sha256(fh.read())}")
                    for n, x in inputs.items():
                        y = execute(g, x)
                        print(f"{family} {dtype} {name} b{n} {sha256(y.data.tobytes())}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
