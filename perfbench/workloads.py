"""The benchmark's three workloads and the metrics they report.

Every workload drives only fuseprune's public API from one process, as a
closed loop with one client: the next call starts when the previous one
has returned and been checked. Four graph variants are timed interleaved,
in a rotating order, so that drift of a shared machine hits all alike:

    orig          the zoo model as built (or as trained)
    fused         fuse(orig) with every residual block absorbed
    materialized  soft-pruned fused graph with its zeroized filters deleted
    deployed      fold_bn(materialized), saved to .fpm and loaded back

infer-wide-b1     resnet18 at 3x32x32, batch 1. 64-512 channels on 8x8..1x1
                  maps turn every conv into thousands of tiny numpy calls and
                  the fc into a 512-step loop: per-call overhead and dispatch
                  dominate, arithmetic barely matters.
infer-narrow-b32  resnet20 at 3x8x8, batch 32. 16-64 channels with 32
                  images give every numpy call a lot of arithmetic: FLOPs and
                  memory traffic dominate, dispatch is close to nil. (At
                  32x32 one round of the four variants takes about 11 s on a
                  2-core machine; at 8x8 a 25-second run collects about
                  twelve rounds.)
prune-retrain     resnet8-tiny on SynthDataset(seed). Set-up trains the
                  baseline; each pass then runs fuse, soft-pruning retrain
                  (continued mode, rate 0.3), materialize, fold_bn, a .fpm
                  round trip, `fuseprune verify` at tolerance 0 and evaluate,
                  then serves the four variants on the test split. The
                  trainer's own conv carries most of a pass, and the pass
                  writes graphs where the other two workloads only read them.

Every timed operation is checked against refnet (float64, independent of
the package's kernels) and, where the package promises it, bit for bit.
"""

from __future__ import annotations

import contextlib
import io
import os
import resource
import statistics
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from fuseprune import analysis, cli, fusion, graph, pruning, trainer, zoo
from fuseprune.tensor import Tensor

import refnet
from tracing import Tracer

F32_TOL = 1e-4  # the f32 tolerance of tests/test_acceptance.py
INPUT_SCALE = 0.1  # as in tests/test_acceptance.py: keeps untrained outputs O(10)
VARIANTS = ("orig", "fused", "materialized", "deployed")
SETUP_REPEATS = 5  # on the inference workloads each set-up is also a pipeline sample
KIND_GROUP = {"conv": "conv", "fc": "fc", "bn": "bn", "add": "add", "relu": "relu",
              "maxpool": "pool", "gavgpool": "pool"}
SUPPORT_GROUPS = ("bn", "add", "relu", "pool")
# Kernel groups that exist in each variant; the others are zero by construction.
GROUPS = {"orig": ("conv", "fc", "bn", "add", "relu", "pool"),
          "fused": ("conv", "fc", "bn", "relu", "pool"),
          "materialized": ("conv", "fc", "bn", "relu", "pool"),
          "deployed": ("conv", "fc", "relu", "pool")}
REMOVED_SPEEDUP_FACTOR = 1e6  # "accelerated" kinds that deployment deletes outright

# The calibration loop is timed next to every untraced sample. On a shared
# 2-vCPU host the speed drifts in phases of seconds by about +-20%, and the
# loop slows in step with the engine (their ratio holds within a few
# percent), so the bounded metrics are ratios to it: unit "cal", one loop.
CAL_LOOP = 300_000

PEAK_N = 1024  # the roofline probe multiplies two PEAK_N x PEAK_N f32 matrices
BANDWIDTH_NOTE = ("no bandwidth probe: the machine's shared last-level cache is "
                  "too large for a probe array of at least 4x its size; "
                  "conv flop/byte is computed from tensor sizes")


@dataclass(frozen=True)
class ServeSpec:
    family: str
    hw: int
    batch: int
    option: str


SERVE = {
    "infer-wide-b1": ServeSpec("resnet18", 32, 1, "4/4"),
    "infer-narrow-b32": ServeSpec("resnet20", 8, 32, "3/3"),
}
RETRAIN_FAMILY = "resnet8-tiny"
BASELINE_EPOCHS = 4
RETRAIN_SETUP_REPEATS = 3  # each trains the baseline; pipeline samples come from passes
RETRAIN_EPOCHS = 3
RETRAIN_RATE = 0.3
SERVE_BATCH = 64  # prune-retrain serves the test split in halves, as evaluate batches it


class CheckFailed(Exception):
    pass


def require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def max_abs(y: np.ndarray, ref: np.ndarray) -> float:
    return float(np.max(np.abs(y.astype(np.float64) - ref)))


class CalClock:
    """Wall time between marks, in seconds and in calibration units. Every
    mark times the calibration loop; each interval between two marks is
    divided by the mean of the calibrations at its ends, and the loops
    themselves are not counted."""

    def __init__(self):
        self.seconds = 0.0
        self.cal = 0.0
        self._last = None

    def mark(self) -> None:
        t = time.perf_counter()
        c = calibration_s()
        if self._last is not None:
            t0, c0 = self._last
            self.seconds += t - t0
            self.cal += (t - t0) / ((c0 + c) / 2)
        self._last = (time.perf_counter(), c)


class Ledger:
    """Operations attempted and failed; a failed check or an exception fails one."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    @contextlib.contextmanager
    def operation(self, label: str):
        self.attempted += 1
        try:
            yield
        except Exception:  # the run goes on and reports the failure
            self.failed += 1
            print(f"FAILED: {label}", file=sys.stderr)
            traceback.print_exc()


@dataclass
class Pipeline:
    """Products of one pass of the graph pipeline."""

    graphs: dict
    masked: graph.Graph
    mask: pruning.PruneMask
    report: fusion.FusionReport
    summary: list
    deployed_in_memory: graph.Graph
    verify_rc: int
    model_bytes: int


@dataclass
class Run:
    seed: int
    seconds: float
    trace: bool
    workdir: str
    tracer: Tracer = field(init=False)
    ledger: Ledger = field(default_factory=Ledger)
    setup_s: list = field(default_factory=list)
    pipeline_s: list = field(default_factory=list)
    pipeline_cal: list = field(default_factory=list)
    pipeline_traced_cal: list = field(default_factory=list)
    # execute wall seconds per variant, from untraced and traced rounds, and
    # the mean calibration seconds just before and after each of those calls
    plain: dict = field(default_factory=lambda: {v: [] for v in VARIANTS})
    cal: dict = field(default_factory=lambda: {v: [] for v in VARIANTS})
    traced: dict = field(default_factory=lambda: {v: [] for v in VARIANTS})
    traced_cal: dict = field(default_factory=lambda: {v: [] for v in VARIANTS})
    # per traced call: {kind: seconds}, validate seconds, node-kernel seconds
    kind_s: dict = field(default_factory=lambda: {v: [] for v in VARIANTS})
    validate_s: dict = field(default_factory=lambda: {v: [] for v in VARIANTS})
    kernel_s: dict = field(default_factory=lambda: {v: [] for v in VARIANTS})
    rounds: int = 0
    extras: dict = field(default_factory=dict)
    clock: CalClock | None = None  # set while an untraced pipeline is timed

    def __post_init__(self):
        self.tracer = Tracer(self.trace)

    @contextlib.contextmanager
    def step(self, name: str):
        """A span around one pipeline step, then a clock mark if timing."""
        with self.tracer.span(name):
            yield
        if self.clock is not None:
            self.clock.mark()

    def start_clock(self) -> None:
        self.clock = CalClock()
        self.clock.mark()

    def stop_clock(self) -> CalClock:
        clock, self.clock = self.clock, None
        return clock

    def traced_round(self, index: int) -> bool:
        """In a traced run, even rounds (or passes) are traced and odd ones are
        not, so the run measures its own tracing overhead."""
        return self.trace and index % 2 == 0


# --- checks ------------------------------------------------------------------

def graphs_identical(a: graph.Graph, b: graph.Graph) -> bool:
    """Same nodes, wiring, attributes and parameter bytes."""
    if set(a.nodes) != set(b.nodes) or a.input_shape != b.input_shape:
        return False
    for nid, na in a.nodes.items():
        nb = b.nodes[nid]
        if (na.kind, na.inputs, na.attrs) != (nb.kind, nb.inputs, nb.attrs):
            return False
        if set(na.params) != set(nb.params):
            return False
        for p, t in na.params.items():
            u = nb.params[p]
            if t.dtype != u.dtype or t.shape != u.shape or t.data.tobytes() != u.data.tobytes():
                return False
    return True


def expectations(ref_orig, ref_masked, masked_out):
    """Per variant, a check of one output against the references."""
    def near(ref, name):
        def check(y):
            err = max_abs(y, ref)
            require(err <= F32_TOL, f"max|y - {name}| = {err:.3e} > {F32_TOL:g}")
        return check

    def materialized(y):
        require(y.tobytes() == masked_out.tobytes(), "materialized output != masked output bitwise")
        near(ref_masked, "float64 masked reference")(y)

    return {"orig": near(ref_orig, "float64 orig reference"),
            "fused": near(ref_orig, "float64 orig reference"),
            "materialized": materialized,
            "deployed": near(ref_masked, "float64 masked reference")}


def check_pipeline(pipe: Pipeline, first: Pipeline | None) -> None:
    require(pipe.verify_rc == 0, f"fuseprune verify --tol 0 exited {pipe.verify_rc}")
    require(graphs_identical(pipe.graphs["deployed"], pipe.deployed_in_memory),
            "loaded .fpm differs from the saved graph")
    if first is not None:
        require(graphs_identical(pipe.graphs["deployed"], first.graphs["deployed"]),
                "pipeline is not deterministic: deployed graph differs between passes")


# --- the pipeline --------------------------------------------------------------

def soft_prune_once(run: Run, fused, report):
    masked = fused.copy()
    with run.step("pruning.soft_prune"):
        mask = pruning.soft_prune_epoch(masked, report, pruning.PruneConfig())
    return masked, mask


def transform(run: Run, orig, option: str, prune) -> Pipeline:
    """fuse -> prune -> materialize -> fold_bn -> save/load -> verify."""
    step = run.step
    with step("fusion.fuse"):
        fused, report = fusion.fuse(orig, option)
    masked, mask = prune(run, fused, report)
    with step("pruning.materialize"):
        result = pruning.materialize(masked, mask, report)
    with step("fusion.fold_bn"):
        deployed = fusion.fold_bn(result.graph)
    paths = {}
    for name, g in (("masked", masked), ("materialized", result.graph), ("deployed", deployed)):
        paths[name] = os.path.join(run.workdir, f"{name}.fpm")
        with step("graph.save"):
            graph.save(g, paths[name])
    with step("graph.load"):
        loaded = graph.load(paths["deployed"])
    with step("cli.verify"), contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(["verify", "--lhs", paths["masked"], "--rhs", paths["materialized"],
                       "--trials", "1", "--tol", "0", "--seed", str(run.seed)])
    return Pipeline(graphs={"orig": orig, "fused": fused, "materialized": result.graph,
                            "deployed": loaded},
                    masked=masked, mask=mask, report=report, summary=result.summary,
                    deployed_in_memory=deployed, verify_rc=rc,
                    model_bytes=os.path.getsize(paths["deployed"]))


# --- serving the variants ----------------------------------------------------------

def serve_round(run: Run, graphs: dict, x: Tensor, expect: dict, record: bool,
                traced: bool) -> None:
    """Execute each variant once, in an order rotated every round. Only
    recorded rounds count; traced ones time every node and validate."""
    r = run.rounds
    run.rounds += 1
    order = VARIANTS[r % 4:] + VARIANTS[:r % 4]
    tracer = run.tracer
    cal_before = calibration_s() if record else None
    for v in order:
        g = graphs[v]
        with run.ledger.operation(f"execute {v}"):
            if traced:
                timings: dict[str, float] = {}
                with tracer.span(f"graph.execute.{v}") as rec, \
                        tracer.wrap(graph, "validate", "graph.validate"):
                    y = graph.execute(g, x, timings)
                wall = rec["end"] - rec["start"]
            else:
                t0 = time.perf_counter()
                y = graph.execute(g, x)
                wall = time.perf_counter() - t0
            if record:
                cal_after = calibration_s()
                cal, cal_before = (cal_before + cal_after) / 2, cal_after
            expect[v](y.data)
            if not record:
                continue
            if not traced:
                run.plain[v].append(wall)
                run.cal[v].append(cal)
                continue
            run.traced[v].append(wall)
            run.traced_cal[v].append(cal)
            kinds: dict[str, float] = defaultdict(float)
            for nid, t in timings.items():
                kinds[g.nodes[nid].kind] += t
            run.kind_s[v].append(dict(kinds))
            run.kernel_s[v].append(sum(timings.values()))
            run.validate_s[v].append(sum(c["end"] - c["start"] for c in tracer.children(rec)))


def calibration_s() -> float:
    """Seconds taken by CAL_LOOP iterations of a pure-Python loop."""
    t0 = time.perf_counter()
    total = 0
    for i in range(CAL_LOOP):
        total += i
    return time.perf_counter() - t0


def peak_gflops(tracer: Tracer) -> float:
    """Best-of-7 rate of a PEAK_N^3 f32 matmul, the roofline's compute ceiling."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((PEAK_N, PEAK_N), dtype=np.float32)
    b = rng.standard_normal((PEAK_N, PEAK_N), dtype=np.float32)
    a @ b
    best = float("inf")
    with tracer.span("probe.peak_gflops"):
        for _ in range(7):
            t0 = time.perf_counter()
            a @ b
            best = min(best, time.perf_counter() - t0)
    return 2.0 * PEAK_N**3 / best / 1e9


# --- workloads -------------------------------------------------------------------

def serve_workload(run: Run, spec: ServeSpec) -> Pipeline:
    rng = np.random.default_rng(run.seed)
    x = Tensor((rng.standard_normal((spec.batch, 3, spec.hw, spec.hw)) * INPUT_SCALE)
               .astype(np.float32))
    first = None
    for i in range(SETUP_REPEATS):
        run.tracer.pass_id = f"setup{i}"
        run.start_clock()
        with run.step("zoo.build"):
            orig = zoo.build(zoo.ZooSpec(spec.family, input_shape=(1, 3, spec.hw, spec.hw),
                                         seed=run.seed))
        pipe = transform(run, orig, spec.option, soft_prune_once)
        clock = run.stop_clock()
        t0 = time.perf_counter()
        with run.tracer.span("check.reference"):
            masked_out = graph.execute(pipe.masked, x).data
            ref_orig = refnet.run(orig, x.data)
            ref_masked = refnet.run(pipe.masked, x.data)
        run.setup_s.append(clock.seconds + time.perf_counter() - t0)
        run.pipeline_s.append(clock.seconds)
        run.pipeline_cal.append(clock.cal)
        with run.ledger.operation(f"set-up {i}"):
            check_pipeline(pipe, first)
        if first is None:
            first, expect = pipe, expectations(ref_orig, ref_masked, masked_out)

    run.tracer.pass_id = "warm-up"
    serve_round(run, first.graphs, x, expect, record=False, traced=False)
    run.rounds = 0
    deadline = time.perf_counter() + run.seconds
    while time.perf_counter() < deadline:
        run.tracer.pass_id = f"round{run.rounds}"
        serve_round(run, first.graphs, x, expect, record=True,
                    traced=run.traced_round(run.rounds))
    run.extras["batch"] = (spec.batch, "images")
    return first


def prune_retrain(run: Run) -> Pipeline:
    tracer, span = run.tracer, run.tracer.span
    baseline = None
    for i in range(RETRAIN_SETUP_REPEATS):
        tracer.pass_id = f"setup{i}"
        t0 = time.perf_counter()
        with tracer.wrap(trainer, "forward_backward", "trainer.forward_backward"), \
                tracer.wrap(trainer, "sgd_step", "trainer.sgd_step"):
            ds = trainer.SynthDataset(seed=run.seed)
            with span("zoo.build"):
                orig = zoo.build(zoo.ZooSpec(RETRAIN_FAMILY, seed=run.seed))
            with span("trainer.fit"):
                trainer.fit(orig, ds, trainer.TrainConfig(
                    lr=0.1, momentum=0.9, weight_decay=1e-4, batch_size=32,
                    epochs=BASELINE_EPOCHS, seed=run.seed))
            with span("trainer.evaluate"):
                base_acc = trainer.evaluate(orig, ds)
        halves = [Tensor(ds.test_images[s:s + SERVE_BATCH])
                  for s in range(0, ds.n_test, SERVE_BATCH)]
        with span("check.reference"):
            ref_orig = [refnet.run(orig, h.data) for h in halves]
        run.setup_s.append(time.perf_counter() - t0)
        with run.ledger.operation(f"set-up {i}"):
            if baseline is None:
                baseline = orig
            require(graphs_identical(orig, baseline), "baseline training is not deterministic")
    run.extras["trainer.baseline_accuracy"] = (base_acc, "share")

    def retrain(run, fused, report):
        hook = trainer.make_epoch_hook(ds, trainer.TrainConfig(
            lr=0.05, momentum=0.9, weight_decay=1e-4, batch_size=32, seed=run.seed))

        def timed_hook(g, epoch):
            t0 = time.perf_counter()
            with span("trainer.epoch_hook"):
                hook(g, epoch)
            hook_s.append(time.perf_counter() - t0)
            if run.clock is not None:
                run.clock.mark()

        with run.step("pruning.dynamic_prune"):
            return pruning.dynamic_prune(fused, report, pruning.PruneConfig(
                rate=RETRAIN_RATE, epochs=RETRAIN_EPOCHS, mode="continued"), timed_hook)

    hook_s: list[float] = []
    accuracy: list[float] = []
    first = None
    deadline = time.perf_counter() + run.seconds
    passes = 0
    while time.perf_counter() < deadline:
        traced = run.traced_round(passes)
        tracer.enabled = traced
        tracer.pass_id = f"pass{passes}"
        with run.ledger.operation(f"pass {passes}"):
            with tracer.wrap(trainer, "forward_backward", "trainer.forward_backward"), \
                    tracer.wrap(trainer, "sgd_step", "trainer.sgd_step"):
                if traced:  # calibrated at both ends only, so no loop runs inside a span
                    cal = calibration_s()
                    t0 = time.perf_counter()
                else:
                    run.start_clock()
                pipe = transform(run, baseline, "3/3", retrain)
                with run.step("trainer.evaluate"):
                    accuracy.append(trainer.evaluate(pipe.graphs["deployed"], ds))
                if traced:
                    seconds = time.perf_counter() - t0
                    run.pipeline_traced_cal.append(seconds / ((cal + calibration_s()) / 2))
                else:
                    clock = run.stop_clock()
                    run.pipeline_s.append(clock.seconds)
                    run.pipeline_cal.append(clock.cal)
            check_pipeline(pipe, first)
            first = first or pipe
            with span("check.reference"):
                expects = [expectations(r, refnet.run(pipe.masked, h.data),
                                        graph.execute(pipe.masked, h).data)
                           for h, r in zip(halves, ref_orig)]
            for h, expect in zip(halves, expects):
                serve_round(run, pipe.graphs, h, expect, record=True, traced=traced)
        passes += 1
    tracer.enabled = run.trace
    run.extras.update({
        "trainer.retrained_accuracy": (statistics.median(accuracy), "share"),
        "train_images_per_s": (ds.n_train / statistics.median(hook_s), "1/s"),
        "passes": (passes, "count"),
        "batch": (SERVE_BATCH, "images"),
    })
    return first


# --- metrics -----------------------------------------------------------------------

def median(xs) -> float:
    return float(statistics.median(xs))


def tail(xs) -> tuple[float, float, int]:
    """Highest order statistic with at least ten samples above it: (value,
    percentile, sample count). With ten or fewer samples none has, and the
    minimum, which has the most above it, stands in."""
    s = sorted(xs)
    i = max(len(s) - 11, 0)
    return s[i], 100.0 * (i + 1) / len(s), len(s)


def conv_work(g, batch: int) -> tuple[float, float]:
    """Conv FLOPs and bytes touched (input, weight, bias, output; f32 or f64
    itemsize) at the given batch, computed from tensor sizes."""
    shapes = graph.validate(g)
    scale = batch / g.input_shape[0]
    flops = nbytes = 0.0
    for cost in analysis.count_flops(g).nodes:
        if cost.kind != "conv":
            continue
        node = g.nodes[cost.node_id]
        w = node.params["weight"]
        elems = (np.prod(shapes[node.inputs[0]]) + np.prod(shapes[cost.node_id])) * scale
        elems += w.data.size + (node.params["bias"].data.size if "bias" in node.params else 0)
        flops += cost.flops * scale
        nbytes += elems * w.dtype.itemsize
    return flops, nbytes


def latency_cal(run: Run, v: str, traced: bool = False) -> float:
    if traced:
        return sum(run.traced[v]) / sum(run.traced_cal[v])
    return sum(run.plain[v]) / sum(run.cal[v])


def end_to_end(run: Run) -> dict:
    """Bounded metrics in calibration units ("cal"), plus the same figures in
    seconds and milliseconds for reading. A latency in cal is the variant's
    summed execute time over the summed calibration time around its calls:
    phases of a slow machine scale both sums alike, and a ratio of sums uses
    every sample where a median of per-call ratios would not."""
    m = {"setup_s": (median(run.setup_s), "s"),
         "pipeline_cal": (statistics.fmean(run.pipeline_cal), "cal"),
         "pipeline_s": (median(run.pipeline_s), "s")}
    for v in VARIANTS:
        m[f"{v}_latency_cal"] = (latency_cal(run, v), "cal")
        m[f"{v}_p50_ms"] = (median(run.plain[v]) * 1e3, "ms")
    value, pct, n = tail([w / c for w, c in zip(run.plain["deployed"], run.cal["deployed"])])
    m["deployed_tail_cal"] = (value, "cal")
    m["deployed_tail_percentile"] = (pct, "%")
    m["deployed_samples"] = (n, "count")
    m["deployed_tail_ms"] = (tail(run.plain["deployed"])[0] * 1e3, "ms")
    m["calibration_ms"] = (median([c for v in VARIANTS for c in run.cal[v]]) * 1e3, "ms")
    m["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    return m


def per_layer(run: Run, pipe: Pipeline, batch: int, peak: float) -> dict:
    m = {"tensor.peak_gflops": (peak, "GFLOP/s")}
    flops = {v: analysis.count_flops(g).total_flops * batch / g.input_shape[0]
             for v, g in pipe.graphs.items()}
    kind_ms = {}
    for v, g in pipe.graphs.items():
        kind_ms[v] = {k: median([c.get(k, 0.0) for c in run.kind_s[v]]) * 1e3
                      for k in KIND_GROUP}
        groups = defaultdict(float)
        for k, ms in kind_ms[v].items():
            groups[KIND_GROUP[k]] += ms
        for grp in GROUPS[v]:
            m[f"tensor.{grp}_ms.{v}"] = (groups[grp], "ms")
        cflops, cbytes = conv_work(g, batch)
        gflops = cflops / (groups["conv"] / 1e3) / 1e9
        m[f"tensor.conv_gflops.{v}"] = (gflops, "GFLOP/s")
        m[f"tensor.conv_roofline_frac.{v}"] = (gflops / peak, "share")
        m[f"tensor.conv_flop_per_byte.{v}"] = (cflops / cbytes, "flop/B")
        shares = []
        for call in run.kind_s[v]:
            total = sum(call.values())
            shares.append(sum(t for k, t in call.items()
                              if KIND_GROUP.get(k) in SUPPORT_GROUPS) / total)
        m[f"tensor.support_share.{v}"] = (median(shares), "share")
        dispatch = [w - k for w, k in zip(run.traced[v], run.kernel_s[v])]
        m[f"graph.dispatch_ms.{v}"] = (median(dispatch) * 1e3, "ms")
        m[f"graph.validate_ms.{v}"] = (median(run.validate_s[v]) * 1e3, "ms")
        m[f"graph.nodes.{v}"] = (len(g.nodes), "count")
        m[f"analysis.flops.{v}"] = (flops[v], "flop")

    # Amdahl model from orig's per-kind profile: the kinds deployment deletes
    # are "accelerated" by a factor large enough to mean removed.
    profile = {k: ms for k, ms in kind_ms["orig"].items() if ms > 0}
    present = {n.kind for n in pipe.graphs["deployed"].nodes.values()}
    removed = sorted(k for k in profile if k not in present)
    m["analysis.predicted_speedup"] = (
        analysis.speedup_from_profile(profile, removed, REMOVED_SPEEDUP_FACTOR), "x")
    m["analysis.measured_speedup"] = (latency_cal(run, "orig") / latency_cal(run, "deployed"), "x")
    m["analysis.removed_kinds_share"] = (sum(profile[k] for k in removed) / sum(profile.values()), "share")

    self_ms = run.tracer.self_times()

    def layer_ms(name, per=1.0):
        vals = [p[name] for p in self_ms.values() if name in p]
        return median(vals) * 1e3 / per

    def call_ms(name):
        return median(run.tracer.durations(name)) * 1e3

    retrain = bool(run.tracer.durations("pruning.dynamic_prune"))
    m["zoo.build_ms"] = (layer_ms("zoo.build"), "ms")
    m["fusion.fuse_ms"] = (layer_ms("fusion.fuse"), "ms")
    m["fusion.fold_bn_ms"] = (layer_ms("fusion.fold_bn"), "ms")
    m["pruning.soft_prune_ms"] = (layer_ms("pruning.dynamic_prune", RETRAIN_EPOCHS) if retrain
                                  else layer_ms("pruning.soft_prune"), "ms")
    m["pruning.materialize_ms"] = (layer_ms("pruning.materialize"), "ms")
    m["graph.save_ms"] = (call_ms("graph.save"), "ms")
    m["graph.load_ms"] = (call_ms("graph.load"), "ms")
    m["graph.model_bytes"] = (pipe.model_bytes, "B")
    m["cli.verify_ms"] = (call_ms("cli.verify"), "ms")

    orig_adds = sum(n.kind == "add" for n in pipe.graphs["orig"].nodes.values())
    fused_adds = sum(n.kind == "add" for n in pipe.graphs["fused"].nodes.values())
    m["fusion.convs_rewritten"] = (len(pipe.report.convs), "count")
    m["fusion.adds_absorbed"] = (orig_adds - fused_adds, "count")
    m["fusion.blocks_skipped"] = (len(pipe.report.skipped), "count")
    m["fusion.flop_growth"] = (flops["fused"] / flops["orig"], "x")
    m["pruning.filters_removed"] = (sum(s["removed"] for s in pipe.summary), "count")
    m["pruning.convs_blocked"] = (sum(s["blocked"] is not None for s in pipe.summary), "count")
    m["pruning.mask_churn"] = (mask_churn(pipe.mask.history), "count")
    m["pruning.flop_reduction"] = (1.0 - flops["materialized"] / flops["fused"], "share")

    traced = sum(latency_cal(run, v, traced=True) for v in VARIANTS)
    plain = sum(latency_cal(run, v) for v in VARIANTS)
    m["trace.overhead_share"] = (traced / plain - 1.0, "share")
    if run.pipeline_traced_cal:
        m["trace.pipeline_overhead_share"] = (
            statistics.fmean(run.pipeline_traced_cal) / statistics.fmean(run.pipeline_cal) - 1.0,
            "share")
    for name in sorted({n for p in self_ms.values() for n in p}):
        m[f"self_ms.{name}"] = (layer_ms(name), "ms")
    if retrain:
        m["trainer.fit_epoch_ms"] = (call_ms("trainer.fit") / BASELINE_EPOCHS, "ms")
        m["trainer.retrain_epoch_ms"] = (call_ms("trainer.epoch_hook"), "ms")
        m["trainer.forward_backward_ms"] = (call_ms("trainer.forward_backward"), "ms")
        m["trainer.sgd_step_ms"] = (call_ms("trainer.sgd_step"), "ms")
        m["trainer.evaluate_ms"] = (call_ms("trainer.evaluate"), "ms")
    return m


def mask_churn(history: list[dict]) -> int:
    """Filters zeroized in one epoch and kept again in the next."""
    return sum(len(set(prev.get(c, ())) - set(cur.get(c, ())))
               for prev, cur in zip(history, history[1:]) for c in prev)
