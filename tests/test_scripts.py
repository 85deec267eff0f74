"""Smoke tests of the scripts, the users of the public API that no other
test runs: each runs as a subprocess on the smallest zoo model."""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), env.get("PYTHONPATH", "")])
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args], env=env,
                          capture_output=True, text=True, timeout=300)


def test_sweep_options_runs():
    proc = run_script("sweep_options.py", "--family", "resnet8-tiny")
    assert proc.returncode == 0, proc.stderr


def test_run_pipeline_runs():
    proc = run_script("run_pipeline.py", "--family", "resnet8-tiny", "--epochs", "1",
                      "--prune-epochs", "1")
    # exit 1 is the script's own accuracy gate, retrained >= baseline - 0.02,
    # which one epoch of training need not meet
    assert proc.returncode in (0, 1), proc.stderr
    assert "Traceback" not in proc.stderr
    assert "bit-identical: True" in proc.stdout


def test_output_digests_runs():
    proc = run_script("output_digests.py", "--family", "resnet8-tiny")
    assert proc.returncode == 0, proc.stderr
    # the BLAS kernel the digests were made with, which decides their bits
    assert re.search(r"^openblas core: \S+$", proc.stderr, re.M), proc.stderr
    # and the thread count, which decides them too
    assert re.search(r"^openblas threads: (\d+|unknown)$", proc.stderr, re.M), proc.stderr
    digests = {}
    for line in proc.stdout.splitlines():
        family, dtype, variant, what, sha = line.split()
        assert family == "resnet8-tiny" and len(sha) == 64
        digests[dtype, variant, what] = sha
    variants = ("orig", "fused", "masked", "materialized", "deployed")
    lines = [(v, w) for v in variants for w in ("fpm", "b1", "b32")]
    lines += [("folded-fused", "fpm"), ("folded-fused", "b1"), ("fused", "grads"),
              ("trained", "fpm")]
    assert set(digests) == {(d, v, w) for d in ("f32", "f64") for v, w in lines}
    # the bitwise promise, seen through the digests: materialize changes
    # the file but no output bit
    for dtype in ("f32", "f64"):
        assert digests[dtype, "masked", "fpm"] != digests[dtype, "materialized", "fpm"]
        for b in ("b1", "b32"):
            assert digests[dtype, "masked", b] == digests[dtype, "materialized", b]
