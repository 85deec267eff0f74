"""End-to-end demo: train a small model, fuse it, prune it, measure the cost.

Runs the whole toolkit on synthetic data at desk scale:

1. build a zoo model and train it to a baseline accuracy,
2. fuse every residual block (aggressive option n/n),
3. dynamically prune with per-epoch retraining, in conservative mode by
   default so the fused convs shrink back to their pre-fusion widths,
4. materialize the pruned graph and verify it is bit-identical to the
   masked one,
5. report accuracy, FLOP totals, and the category shares before and after.

Example:

    python3 scripts/run_pipeline.py --family resnet8-tiny --epochs 30 \
        --prune-epochs 20 --mode conservative
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from fuseprune.analysis import compare, count_flops
from fuseprune.fusion import fuse
from fuseprune.graph import execute
from fuseprune.pruning import PruneConfig, dynamic_prune, materialize
from fuseprune.tensor import Tensor
from fuseprune.trainer import (
    SynthDataset,
    TrainConfig,
    evaluate,
    fit,
    make_epoch_hook,
)
from fuseprune.zoo import ZooSpec, build


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--family", default="resnet8-tiny",
                    help="zoo model family (default: resnet8-tiny)")
    ap.add_argument("--option", default=None,
                    help="fusion option such as 3/3 (default: fuse every stage)")
    ap.add_argument("--mode", default="conservative",
                    choices=("conservative", "continued"))
    ap.add_argument("--rate", type=float, default=0.0,
                    help="extra pruning rate for non-fused convs (continued mode)")
    ap.add_argument("--epochs", type=int, default=30, help="baseline training epochs")
    ap.add_argument("--prune-epochs", type=int, default=20,
                    help="dynamic-pruning epochs with retraining")
    ap.add_argument("--lr", type=float, default=0.1)
    ap.add_argument("--retrain-lr", type=float, default=0.05)
    ap.add_argument("--data-seed", type=int, default=42)
    ap.add_argument("--model-seed", type=int, default=1)
    return ap.parse_args(argv)


def flop_line(title, report):
    shares = report.category_flops()
    total = report.total_flops
    print(f"{title:<28} {total:>12,} flops  "
          f"(COP {shares['COP']:,}, SOP {shares['SOP']:,})")
    return report


def main(argv=None):
    args = parse_args(argv if argv is not None else sys.argv[1:])
    t0 = time.monotonic()

    g = build(ZooSpec(family=args.family, seed=args.model_seed))
    dataset = SynthDataset(seed=args.data_seed, shape=tuple(g.input_shape[1:]))
    print(f"model {args.family} ({len(g.nodes)} nodes), "
          f"dataset synth:seed={args.data_seed} "
          f"({dataset.n_train} train / {dataset.n_test} test)")

    fit(g, dataset, TrainConfig(lr=args.lr, momentum=0.9, weight_decay=1e-4,
                                batch_size=32, epochs=args.epochs, seed=0))
    baseline = evaluate(g, dataset)
    print(f"baseline accuracy after {args.epochs} epochs: {baseline:.4f}")

    adds_before = sum(1 for n in g.nodes.values() if n.kind == "add")
    option = args.option
    if option is None:
        n_stages = len({t.split(".")[0] for n in g.nodes.values()
                        for t in n.tags if t.startswith("stage")})
        option = f"{n_stages}/{n_stages}"
    fused, report = fuse(g, option)
    adds_left = sum(1 for n in fused.nodes.values() if n.kind == "add")
    print(f"fused option {option}: {len(report.convs)} convs rewritten, "
          f"{adds_before - adds_left} adds absorbed, "
          f"{len(report.skipped)} blocks skipped")

    hook = make_epoch_hook(dataset, TrainConfig(
        lr=args.retrain_lr, momentum=0.9, weight_decay=1e-4, batch_size=32, seed=1))
    cfg = PruneConfig(rate=args.rate, epochs=args.prune_epochs, mode=args.mode)
    masked, mask = dynamic_prune(fused, report, cfg, hook)
    retrained = evaluate(masked, dataset)
    print(f"accuracy after {args.prune_epochs} pruning epochs ({args.mode}, "
          f"rate {args.rate}): {retrained:.4f}")

    result = materialize(masked, mask, report)
    removed = sum(rec["removed"] for rec in result.summary)
    print(f"materialized: {removed} filters physically removed "
          f"across {len(result.summary)} convs")

    x = Tensor(np.random.default_rng(0).standard_normal(
        (8,) + g.input_shape[1:]).astype(np.float32))
    same = np.array_equal(execute(masked, x).data, execute(result.graph, x).data)
    print(f"masked vs materialized outputs bit-identical: {same}")

    before = flop_line("original flops:", count_flops(g))
    flop_line("fused flops:", count_flops(fused))
    after = flop_line("materialized flops:", count_flops(result.graph))
    delta = compare(before, after)
    print(f"original/materialized flop ratio: {delta.flop_speedup:.4f}")
    print(f"done in {time.monotonic() - t0:.1f}s")
    return 0 if same and retrained >= baseline - 0.02 else 1


if __name__ == "__main__":
    sys.exit(main())
