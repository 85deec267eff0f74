"""A property test over the whole transformation chain on drawn residual blocks.

Each draw builds one block (conftest.random_residual_block_graph) of drawn
channels, map size, kernel (1 or 3), stride, bn, shortcut and dtype, and
runs fuse_block -> soft_prune_epoch (conservative, and continued at 0.3)
-> materialize -> fold_bn. Each step keeps its promise at its stated
strength: fusion and the fold within the acceptance suite's tolerances,
materialization byte for byte, and a mask with one kept filter flipped to
zeroized is refused with InconsistentMask. Two small zoo-built graphs, one
with a max-pool stem and one of four blocks in two stages, run the same
chain through fuse on whole graphs, with drawn bn parameters (some gammas
negative), and on to a .fpm round trip that must give back every byte.

The promises must hold under any OpenBLAS kernel, not only the one this
CPU selects, so one further test reruns one zoo model's masked ==
materialized check and one fixed draw in a child process that forces
another kernel with OPENBLAS_CORETYPE (Haswell, Sandybridge, Nehalem and
Prescott in turn), at one BLAS thread. Another reruns there, on GEMMs
that run in row chunks (tensor._GEMM_MACS), a masked == compacted conv
check in both dtypes and resnet18's masked == materialized check at batch 1.
"""

from __future__ import annotations

import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuseprune import zoo
from fuseprune.fusion import find_residual_blocks, fold_bn, fuse, fuse_block
from fuseprune.graph import execute, load, save
from fuseprune.pruning import (InconsistentMask, PruneConfig, PruneMask, materialize,
                               soft_prune_epoch)
from fuseprune.tensor import DTYPE_FROM_NAME, Tensor

from conftest import random_residual_block_graph

INPUT_SCALE = 0.1  # as in tests/test_acceptance.py
TOL = {np.float32: 1e-4, np.float64: 1e-10}  # the acceptance suite's tolerances


@st.composite
def blocks(draw):
    """The keyword arguments of one random_residual_block_graph."""
    projection = draw(st.booleans())
    c_in = draw(st.integers(1, 6))
    # an identity shortcut adds the block input, so the shapes must agree
    k = draw(st.integers(1, 6)) if projection else c_in
    stride = draw(st.sampled_from([1, 2])) if projection else 1
    return dict(c_in=c_in, k=k, hw=draw(st.integers(1, 7)), kernel=draw(st.sampled_from([1, 3])),
                stride=(stride, stride), with_bn=draw(st.booleans()), projection=projection,
                dtype=draw(st.sampled_from([np.float32, np.float64])))


def max_diff(a: Tensor, b: Tensor) -> float:
    return float(np.max(np.abs(a.data - b.data)))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(block=blocks(), seed=st.integers(0, 2**16), flip=st.integers(0, 2**16))
def test_fuse_prune_materialize_fold_keep_their_promises(block, seed, flip):
    rng = np.random.default_rng(seed)
    g = random_residual_block_graph(rng, **block)
    dt, tol = block["dtype"], TOL[block["dtype"]]
    x = Tensor(rng.standard_normal((3, *g.input_shape[1:])) * INPUT_SCALE, dt)
    (match,) = find_residual_blocks(g)
    fused, report = fuse_block(g, match)
    assert max_diff(execute(fused, x), execute(g, x)) <= tol
    for cfg in (PruneConfig(mode="conservative"), PruneConfig(rate=0.3, mode="continued")):
        masked = fused.copy()
        mask = soft_prune_epoch(masked, report, cfg)
        small = materialize(masked, mask).graph
        y = execute(masked, x)
        assert y.data.tobytes() == execute(small, x).data.tobytes(), cfg.mode
        assert max_diff(execute(fold_bn(small), x), y) <= tol, cfg.mode
        kept = [(conv, i) for conv, flags in mask.keep.items() for i, f in enumerate(flags) if f]
        conv, i = kept[flip % len(kept)]
        tampered = PruneMask(keep={**mask.keep, conv: [f and j != i for j, f in
                                                       enumerate(mask.keep[conv])]})
        with pytest.raises(InconsistentMask):
            materialize(masked, tampered)


# (stages, filters, stem kernel, stem stride, max-pool stem, classes, input)
CHAIN_FAMILIES = {
    "pool-stem": zoo._Family((1, 1), (4, 6), 3, 1, True, 5, (1, 3, 10, 10)),
    "four-blocks": zoo._Family((2, 2), (4, 6), 3, 1, False, 5, (1, 3, 8, 8)),
}


def with_drawn_bn(g, rng):
    """g with every bn's gamma, beta, mean and var drawn; a third of the
    gammas are negative (a fused conv2's shortcut taps are then -0.0)."""
    for node in g.nodes.values():
        if node.kind == "bn":
            c, dt = node.params["gamma"].shape[1], node.params["gamma"].dtype
            gamma = rng.uniform(0.5, 1.5, c) * np.where(rng.random(c) < 1 / 3, -1, 1)
            node.params = {name: Tensor(v.reshape(1, c, 1, 1), dt) for name, v in (
                ("gamma", gamma), ("beta", rng.uniform(-0.3, 0.3, c)),
                ("mean", rng.uniform(-0.3, 0.3, c)), ("var", rng.uniform(0.5, 1.5, c)))}
    return g


@pytest.mark.parametrize("dtype", ["f32", "f64"])
@pytest.mark.parametrize("family", list(CHAIN_FAMILIES))
def test_zoo_graphs_keep_their_promises_through_the_chain(monkeypatch, tmp_path, family, dtype):
    monkeypatch.setitem(zoo.FAMILIES, family, CHAIN_FAMILIES[family])
    rng = np.random.default_rng(11)
    g = with_drawn_bn(zoo.build(zoo.ZooSpec(family, dtype=dtype, seed=11)), rng)
    dt = DTYPE_FROM_NAME[dtype]
    tol = TOL[dt.type]
    x = Tensor(rng.standard_normal((3, *g.input_shape[1:])) * INPUT_SCALE, dt)
    stages = len(CHAIN_FAMILIES[family].stages)
    fused, report = fuse(g, f"{stages}/{stages}")
    assert not report.skipped and len(report.convs) == 2 * len(find_residual_blocks(g))
    assert not any(n.kind == "add" for n in fused.nodes.values())
    assert max_diff(execute(fused, x), execute(g, x)) <= tol
    for cfg in (PruneConfig(mode="conservative"), PruneConfig(rate=0.3, mode="continued")):
        masked = fused.copy()
        mask = soft_prune_epoch(masked, report, cfg)
        result = materialize(masked, mask)
        assert sum(entry["removed"] for entry in result.summary) > 0, cfg.mode
        small = result.graph
        y = execute(masked, x)
        assert y.data.tobytes() == execute(small, x).data.tobytes(), cfg.mode
        deployed = fold_bn(small)
        assert max_diff(execute(deployed, x), y) <= tol, cfg.mode
        save(deployed, tmp_path / "a.fpm")
        loaded = load(tmp_path / "a.fpm")
        assert execute(loaded, x).data.tobytes() == execute(deployed, x).data.tobytes()
        save(loaded, tmp_path / "b.fpm")
        assert (tmp_path / "a.fpm").read_bytes() == (tmp_path / "b.fpm").read_bytes()


ROOT = Path(__file__).resolve().parents[1]

# run in a child process: OpenBLAS reads OPENBLAS_CORETYPE when numpy loads it
UNDER_ANOTHER_KERNEL = """
import numpy as np
from output_digests import openblas_core
from fuseprune.fusion import fuse
from fuseprune.graph import execute
from fuseprune.pruning import PruneConfig, materialize, soft_prune_epoch
from fuseprune.tensor import Tensor
from fuseprune.zoo import ZooSpec, build
from test_fusion_chain import INPUT_SCALE
from test_fusion_chain import test_fuse_prune_materialize_fold_keep_their_promises as chain

print(openblas_core())
masked, report = fuse(build(ZooSpec("resnet8-tiny")), "3/3")
mask = soft_prune_epoch(masked, report, PruneConfig(rate=0.3, mode="continued"))  # in place
x = Tensor(np.random.default_rng(0).standard_normal((32, 3, 8, 8)) * INPUT_SCALE, np.float32)
small = materialize(masked, mask).graph
if execute(masked, x).data.tobytes() != execute(small, x).data.tobytes():
    raise SystemExit("the masked and materialized outputs differ")
chain.hypothesis.inner_test(
    block=dict(c_in=3, k=5, hw=6, kernel=3, stride=(2, 2), with_bn=True, projection=True,
               dtype=np.float32), seed=7, flip=3)
"""


# OPENBLAS_CORETYPE requests, each with the core name OpenBLAS reports for
# it: a build may run a request on an older kernel it maps it to, as
# OpenBLAS 0.3.31 runs Prescott on its Katmai kernel and names that
KERNELS = {"Haswell": "Haswell", "Sandybridge": "Sandybridge", "Nehalem": "Nehalem",
           "Prescott": "Katmai"}


@pytest.mark.parametrize("core", list(KERNELS))
def test_promises_hold_under_other_kernels(core):
    env = dict(os.environ, OPENBLAS_CORETYPE=core, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "scripts"), env.get("PYTHONPATH", "")])
    proc = subprocess.run([sys.executable, "-c", UNDER_ANOTHER_KERNEL], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    if platform.machine() in ("x86_64", "AMD64"):  # elsewhere OpenBLAS has no such kernels
        assert proc.stdout.split()[0] in (KERNELS[core], "unknown"), proc.stdout


# a child process's masked == compacted checks on GEMMs that run in row
# chunks (tensor._GEMM_MACS): the resnet18 stage-3 conv of
# tests/test_conv_gemm.py in both dtypes, and resnet18 3x32x32 at batch 1,
# masked against materialized; each check must split a GEMM
SPLIT_UNDER_ANOTHER_KERNEL = """
import numpy as np
from output_digests import openblas_core
from fuseprune import tensor
from fuseprune.fusion import fuse
from fuseprune.graph import execute
from fuseprune.pruning import PruneConfig, materialize, soft_prune_epoch
from fuseprune.tensor import Tensor
from fuseprune.zoo import ZooSpec, build
from test_conv_gemm import split_conv_matches_compacted
from test_fusion_chain import INPUT_SCALE

print(openblas_core())
split = []
real = tensor._gemm_rows
def recorded(rows, depth, columns):
    step = real(rows, depth, columns)
    split.append(step < rows)
    return step
tensor._gemm_rows = recorded
rng = np.random.default_rng(27)
for dt in (np.float32, np.float64):
    split.clear()
    split_conv_matches_compacted(
        rng.standard_normal((256, 2, 2, 1)).astype(dt),
        rng.standard_normal((256, 256, 3, 3)).astype(dt), rng.standard_normal(256).astype(dt),
        (1, 1), (1, 1), rng.random(256) < 0.2, rng.random(256) < 0.2, dt)
    if not split[0]:
        raise SystemExit("the stage-3 conv was not split")
masked, report = fuse(build(ZooSpec("resnet18", input_shape=(1, 3, 32, 32))), "4/4")
mask = soft_prune_epoch(masked, report, PruneConfig(rate=0.3, mode="continued"))  # in place
x = Tensor(rng.standard_normal((1, 3, 32, 32)) * INPUT_SCALE, np.float32)
small = materialize(masked, mask).graph
split.clear()
if execute(masked, x).data.tobytes() != execute(small, x).data.tobytes():
    raise SystemExit("the masked and materialized outputs differ")
if not any(split):
    raise SystemExit("no GEMM of resnet18 was split")
"""


@pytest.mark.parametrize("core", list(KERNELS))
def test_split_gemms_keep_their_promise_under_other_kernels(core):
    env = dict(os.environ, OPENBLAS_CORETYPE=core, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "scripts"), env.get("PYTHONPATH", "")])
    proc = subprocess.run([sys.executable, "-c", SPLIT_UNDER_ANOTHER_KERNEL], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    if platform.machine() in ("x86_64", "AMD64"):
        assert proc.stdout.split()[0] in (KERNELS[core], "unknown"), proc.stdout
