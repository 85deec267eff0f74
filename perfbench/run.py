"""Run one benchmark workload, or compare two sets of results.

    python3 perfbench/run.py --workload infer-wide-b1 --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --compare RESULTS_A RESULTS_B

A run builds its inputs from --seed, measures for --seconds, checks every
timed output, prints each metric as `metric <name> <value> <unit>`, writes
its record to perfbench/out/results/ (and its spans to perfbench/out/traces/
when traced), and ends with one JSON line: correct, attempted, failed and
the end-to-end metrics of BENCHMARK.json (--trace 0) or its per-layer
metrics (--trace 1). --compare reads two such results directories.
"""

import os

# BLAS threads are fixed before numpy loads. One client runs one call at a
# time, one thread keeps a shared 2-core machine's figures steady, and the
# engine's bitwise materialization contract assumes a fixed thread count.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
sys.path.insert(0, os.path.join(ROOT, "src"))


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def env_record(np, note: str) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": int(BLAS_THREADS),
        "memory_bandwidth": note,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import numpy as np

    import workloads

    work = workloads.Run(seed, seconds, trace, os.path.join(OUT, f"tmp-{os.getpid()}"))
    os.makedirs(work.workdir, exist_ok=True)
    try:
        peak = workloads.peak_gflops(work.tracer) if trace else None
        if name == "prune-retrain":
            pipe = workloads.prune_retrain(work)
        else:
            pipe = workloads.serve_workload(work, workloads.SERVE[name])
        batch = work.extras["batch"][0]
        metrics = workloads.end_to_end(work)
        if trace:
            metrics.update(workloads.per_layer(work, pipe, batch, peak))
    finally:
        shutil.rmtree(work.workdir, ignore_errors=True)
    metrics.update(work.extras)
    ledger = work.ledger
    metrics["checks.failed_share"] = (ledger.failed / max(ledger.attempted, 1), "share")
    return {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "env": env_record(np, workloads.BANDWIDTH_NOTE),
        "correct": ledger.failed == 0, "attempted": ledger.attempted, "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())},
        "samples_s": {"setup": work.setup_s, "pipeline": work.pipeline_s,
                      "pipeline_cal": work.pipeline_cal, **work.plain,
                      **{f"{v}_calibration": c for v, c in work.cal.items()}},
        "spans": work.tracer.spans,
    }


def declared(spec: dict, record: dict) -> dict:
    """The metrics BENCHMARK.json asks for in this mode, with their units."""
    wanted = spec["per_layer"] if record["trace"] else spec["end_to_end"]
    out = {}
    for entry in wanted:
        got = record["metrics"].get(entry["name"])
        if got is None or got["unit"] != entry["unit"]:
            raise SystemExit(f"metric {entry['name']} ({entry['unit']}) not measured as declared: {got}")
        out[entry["name"]] = got
    return out


def write_json(path: str, obj) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar=("RESULTS_A", "RESULTS_B"))
    args = parser.parse_args(argv)
    spec = load_spec()
    if args.compare:
        import compare

        compare.report(spec, *args.compare)
        return 0
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        parser.error(f"--workload must be one of {names}")

    # a terminated run still removes its scratch files
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    for key, value in record["env"].items():
        print(f"env {key} {value}")
    for name, m in record["metrics"].items():
        print(f"metric {name} {m['value']:.6g} {m['unit']}")
    result = {"correct": record["correct"], "attempted": record["attempted"],
              "failed": record["failed"], "metrics": declared(spec, record)}
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = record.pop("spans")
    write_json(os.path.join(OUT, "results", stem + ".json"), record)
    if args.trace:
        write_json(os.path.join(OUT, "traces", stem + ".json"), spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
