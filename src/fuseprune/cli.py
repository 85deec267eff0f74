"""Command-line pipeline over .fpm model files.

Each transformation stage is its own subcommand so every intermediate
artifact (fused model, fusion report, mask file, materialized model) can be
inspected and re-used:

    fuseprune build-model resnet20 --seed 1 -o m.fpm
    fuseprune fuse m.fpm --option 3/3 -o fused.fpm --report fusion.rep
    fuseprune prune fused.fpm --mode conservative --report fusion.rep \
        --data synth:seed=42 -o masked.fpm --masks masks.rep
    fuseprune materialize masked.fpm --masks masks.rep --report fusion.rep \
        -o final.fpm
    fuseprune verify --lhs m.fpm --rhs fused.fpm --trials 20 --tol 1e-4

Exit codes: 0 success, 2 validation/usage failure, 3 equivalence failure,
4 file I/O failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import struct
import sys

import numpy as np

from .analysis import count_flops, load_profile, profile, speedup, speedup_from_profile
from .fusion import FusionError, FusionReport, fold_bn, fuse
from .graph import GraphError, atomic_write, execute, graph_dtype, load, save, validate
from .pruning import PruneConfig, PruneError, PruneMask, dynamic_prune, materialize
from .tensor import Tensor
from .trainer import TrainConfig, TrainerError, make_epoch_hook, parse_dataset_spec
from .zoo import ZooSpec, build

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_EQUIVALENCE = 3
EXIT_IO = 4

# raw tensor container: u32 dtype tag (1 = float32, 2 = float64) followed by
# four u32 dims, all little-endian, then the flat element data little-endian
_TAG_FOR_DTYPE = {np.dtype(np.float32): 1, np.dtype(np.float64): 2}
_DTYPE_FOR_TAG = {1: np.dtype("<f4"), 2: np.dtype("<f8")}
_HEADER = struct.Struct("<5I")


def write_tensor(path, t: Tensor) -> None:
    tag = _TAG_FOR_DTYPE.get(t.dtype)
    if tag is None:
        raise ValueError(f"cannot serialize dtype {t.dtype}")
    with atomic_write(path) as fh:
        fh.write(_HEADER.pack(tag, *t.shape))
        fh.write(np.ascontiguousarray(t.data, dtype=t.data.dtype.newbyteorder("<")))


def read_tensor(path) -> Tensor:
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
        if len(head) != _HEADER.size:
            raise ValueError(f"{path}: truncated tensor header")
        tag, *shape = _HEADER.unpack(head)
        if tag not in _DTYPE_FOR_TAG:
            raise ValueError(f"{path}: unknown dtype tag {tag}")
        dt = _DTYPE_FOR_TAG[tag]
        count = math.prod(shape)  # exact: four u32 dims overflow int64
        # the file's size is checked first: count * itemsize can exceed memory
        size = os.fstat(fh.fileno()).st_size - _HEADER.size
        if size < count * dt.itemsize:
            raise ValueError(f"{path}: expected {count} elements, file is short")
        if size > count * dt.itemsize:
            raise ValueError(f"{path}: trailing bytes after tensor data")
        data = np.empty(shape, dt)
        if fh.readinto(data.reshape(-1).view(np.uint8)) != data.nbytes:
            raise ValueError(f"{path}: expected {count} elements, file is short")
    return Tensor._wrap(data.astype(data.dtype.newbyteorder("="), copy=False))


def _cmd_build_model(args) -> int:
    spec = ZooSpec(family=args.family, classes=args.classes, dtype=args.dtype,
                   seed=args.seed)
    g = build(spec)
    save(g, args.output)
    print(f"built {args.family} ({len(g.nodes)} nodes) -> {args.output}")
    return EXIT_OK


def _cmd_fuse(args) -> int:
    g = load(args.model)
    fused, report = fuse(g, args.option)
    save(fused, args.output)
    if args.report:
        report.save(args.report)
    print(f"fused {len(report.convs)} convs under option {report.option}")
    for skip in report.skipped:
        print(f"skipped {skip['block']}: {skip['reason']}")
    return EXIT_OK


def _cmd_fold_bn(args) -> int:
    g = load(args.model)
    folded = fold_bn(g)
    save(folded, args.output)
    removed = sum(1 for n in g.nodes.values() if n.kind == "bn") - sum(
        1 for n in folded.nodes.values() if n.kind == "bn")
    print(f"folded {removed} bn nodes -> {args.output}")
    return EXIT_OK


def _cmd_prune(args) -> int:
    g = load(args.model)
    report = FusionReport.load(args.report) if args.report else None
    cfg = PruneConfig(rate=args.rate, epochs=args.epochs, mode=args.mode,
                      allow_high_rate=args.allow_high_rate)
    hook = None
    if args.data:
        # the images take the model's (c, h, w), the labels its output features
        classes = math.prod(validate(g)[g.output_id][1:])
        dataset = parse_dataset_spec(args.data, tuple(g.input_shape[1:]), classes)
        tcfg = TrainConfig(lr=args.lr, momentum=args.momentum,
                           weight_decay=args.weight_decay,
                           batch_size=args.batch_size, seed=args.seed)
        hook = make_epoch_hook(dataset, tcfg)
    masked, mask = dynamic_prune(g, report, cfg, hook)
    save(masked, args.output)
    if args.masks:
        mask.save(args.masks)
    zeroed = sum(len(mask.zeroed(nid)) for nid in mask.keep)
    print(f"pruned {args.epochs} epoch(s), mode {args.mode}: "
          f"{zeroed} filters currently zeroized")
    return EXIT_OK


def _cmd_materialize(args) -> int:
    g = load(args.model)
    mask = PruneMask.load(args.masks)
    report = FusionReport.load(args.report) if args.report else None
    result = materialize(g, mask, report)
    save(result.graph, args.output)
    for rec in result.summary:
        if rec["blocked"]:
            print(f"{rec['conv']}: kept {rec['kept']} filters "
                  f"({rec['zeroized']} zeroized, not removable: {rec['blocked']})")
        else:
            print(f"{rec['conv']}: removed {rec['removed']}, kept {rec['kept']}")
    return EXIT_OK


def _cmd_infer(args) -> int:
    g = load(args.model)
    x = read_tensor(args.input)
    y = execute(g, x)
    write_tensor(args.output, y)
    print(f"wrote {tuple(y.shape)} -> {args.output}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    lhs = load(args.lhs)
    rhs = load(args.rhs)
    if tuple(lhs.input_shape[1:]) != tuple(rhs.input_shape[1:]):
        raise GraphError(
            f"input shapes differ: {lhs.input_shape} vs {rhs.input_shape}")
    if args.trials < 1:
        raise ValueError("--trials must be >= 1")
    dt = graph_dtype(lhs)
    rng = np.random.default_rng(args.seed)
    worst = 0.0
    for _ in range(args.trials):
        x = rng.standard_normal((1, *lhs.input_shape[1:])).astype(dt)
        if args.nonneg:
            x = np.abs(x)
        t = Tensor(x)
        diff = np.max(np.abs(execute(lhs, t).data - execute(rhs, t).data))
        worst = max(worst, float(diff))
    print(f"max|difference| = {worst:.6e} over {args.trials} trials (tol {args.tol:g})")
    return EXIT_OK if worst <= args.tol else EXIT_EQUIVALENCE


def _print_report(report, as_json: bool) -> None:
    if as_json:
        print(json.dumps(report.to_json_obj()))
    else:
        print(report.to_text(), end="")


def _cmd_flops(args) -> int:
    _print_report(count_flops(load(args.model)), args.json)
    return EXIT_OK


def _cmd_profile(args) -> int:
    g = load(args.model)
    dt = graph_dtype(g)
    rng = np.random.default_rng(args.seed)
    x = Tensor(rng.standard_normal((args.batch, *g.input_shape[1:])).astype(dt))
    _print_report(profile(g, x, args.runs), args.json)
    return EXIT_OK


def _cmd_speedup(args) -> int:
    if args.profile:
        if args.accelerated is None:
            raise ValueError("--profile requires --accelerated")
        labels = [s for s in args.accelerated.split(",") if s]
        value = speedup_from_profile(load_profile(args.profile), labels, args.factor)
    else:
        if args.p is None or args.a is None:
            raise ValueError("either --profile or both --p and --a are required")
        value = speedup(args.p, args.a)
    print(f"{value:.4f}")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fuseprune",
        description="fuse, prune and analyze convolutional model files")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-model", help="construct a model family with fresh weights")
    p.add_argument("family")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--classes", type=int, default=None)
    p.add_argument("--dtype", choices=("f32", "f64"), default="f32")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_build_model)

    p = sub.add_parser("fuse", help="absorb residual blocks into their convolutions")
    p.add_argument("model")
    p.add_argument("--option", required=True,
                   help='stage selection: "x/n" prefix form or "(s1,...,sn)"')
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--report", default=None, help="write the fusion report here")
    p.set_defaults(func=_cmd_fuse)

    p = sub.add_parser("fold-bn", help="fold every bn into its producing conv")
    p.add_argument("model")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_fold_bn)

    p = sub.add_parser("prune", help="soft-prune filters, optionally training between passes")
    p.add_argument("model")
    p.add_argument("--mode", choices=("conservative", "continued"), required=True)
    p.add_argument("--rate", type=float, default=0.0)
    p.add_argument("--epochs", type=int, default=1)
    p.add_argument("--data", default=None, help="e.g. synth:seed=42[,n=256]")
    p.add_argument("--report", default=None, help="fusion report from the fuse step")
    p.add_argument("--masks", default=None, help="write the prune mask here")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--lr", type=float, default=0.05)
    p.add_argument("--momentum", type=float, default=0.9)
    p.add_argument("--weight-decay", type=float, default=1e-4)
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--allow-high-rate", action="store_true")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_prune)

    p = sub.add_parser("materialize", help="physically remove zeroized filters")
    p.add_argument("model")
    p.add_argument("--masks", required=True)
    p.add_argument("--report", default=None)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_materialize)

    p = sub.add_parser("infer", help="run a model on a raw tensor file")
    p.add_argument("model")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_infer)

    p = sub.add_parser("verify", help="compare two models on random inputs")
    p.add_argument("--lhs", required=True)
    p.add_argument("--rhs", required=True)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--tol", type=float, default=1e-4)
    p.add_argument("--nonneg", action="store_true",
                   help="sample |N(0,1)| inputs (post-relu domain)")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("flops", help="static per-node FLOP report")
    p.add_argument("model")
    p.add_argument("--json", action="store_true", help="print one JSON document")
    p.set_defaults(func=_cmd_flops)

    p = sub.add_parser("profile", help="wall-time profile of the reference engine")
    p.add_argument("model")
    p.add_argument("--runs", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--batch", type=int, default=1)
    p.add_argument("--json", action="store_true", help="print one JSON document")
    p.set_defaults(func=_cmd_profile)

    p = sub.add_parser("speedup", help="serial-fraction speedup model")
    p.add_argument("--p", type=float, default=None)
    p.add_argument("--a", type=float, default=None)
    p.add_argument("--profile", default=None, help="label->seconds file")
    p.add_argument("--accelerated", default=None,
                   help="comma-separated profile labels that get faster")
    p.add_argument("--factor", type=float, default=2.0)
    p.set_defaults(func=_cmd_speedup)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_VALIDATION if exc.code else EXIT_OK
    try:
        return args.func(args)
    except (FileNotFoundError, PermissionError, IsADirectoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (GraphError, FusionError, PruneError, TrainerError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
