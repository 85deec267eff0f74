"""Cost accounting for computation graphs.

Three views of the same question, "where does the work go":

* static FLOP counts per node (one multiply-accumulate = 2 FLOPs),
* measured wall time per node on this package's reference engine,
* the serial-fraction speedup model `1 / ((1 - p) + p / a)` together with
  its `1 / (1 - p)` ceiling, for turning either view into a predicted
  whole-network speedup.

Operators are grouped into compute-bound kinds (conv, fc), support kinds
(add, relu, bn, pooling) and a residual "other" bucket, as each kind's
graph.OPS record says; the record also gives the kind's FLOP count.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

from .graph import OPS, Graph, execute, validate
from .tensor import Tensor

CATEGORIES = ("COP", "SOP", "other")


def categorize(kind: str) -> str:
    return OPS[kind].category


@dataclass
class NodeCost:
    node_id: str
    kind: str
    category: str
    flops: int
    mean_time: float | None = None


@dataclass
class CostReport:
    nodes: list[NodeCost] = field(default_factory=list)
    runs_counted: int | None = None

    @property
    def total_flops(self) -> int:
        return sum(n.flops for n in self.nodes)

    @property
    def total_time(self) -> float | None:
        if any(n.mean_time is None for n in self.nodes):
            return None
        return sum(n.mean_time for n in self.nodes)

    def _agg(self, key, value) -> dict[str, float]:
        out: dict[str, float] = {}
        for n in self.nodes:
            out[key(n)] = out.get(key(n), 0) + value(n)
        return out

    def kind_flops(self) -> dict[str, int]:
        return self._agg(lambda n: n.kind, lambda n: n.flops)

    def category_flops(self) -> dict[str, int]:
        out = {cat: 0 for cat in CATEGORIES}
        out.update(self._agg(lambda n: n.category, lambda n: n.flops))
        return out

    def kind_times(self) -> dict[str, float] | None:
        if self.total_time is None:
            return None
        return self._agg(lambda n: n.kind, lambda n: n.mean_time)

    def category_times(self) -> dict[str, float] | None:
        if self.total_time is None:
            return None
        out = {cat: 0.0 for cat in CATEGORIES}
        out.update(self._agg(lambda n: n.category, lambda n: n.mean_time))
        return out

    def category_time_shares(self) -> dict[str, float] | None:
        times = self.category_times()
        if not times or self.total_time in (None, 0.0):
            return None
        return {cat: t / self.total_time for cat, t in times.items()}

    def to_json_obj(self) -> dict:
        """Per node its id, kind, category and FLOPs, plus its mean seconds
        in a profile; the FLOP total, and the runs a profile counted."""
        nodes = []
        for n in self.nodes:
            rec = {"id": n.node_id, "kind": n.kind, "category": n.category, "flops": n.flops}
            if n.mean_time is not None:
                rec["seconds"] = n.mean_time
            nodes.append(rec)
        out = {"nodes": nodes, "total_flops": self.total_flops}
        if self.runs_counted:
            out["runs_counted"] = self.runs_counted
        return out

    def to_text(self) -> str:
        """Structured text: comment lines for humans, `label value` lines for
        machines (the uncommented lines parse back via load_profile)."""
        lines = ["# id kind category flops" + (" seconds" if self.runs_counted else "")]
        for n in self.nodes:
            tail = f" {n.mean_time:.9f}" if n.mean_time is not None else ""
            lines.append(f"# {n.node_id} {n.kind} {n.category} {n.flops}{tail}")
        lines.append(f"# total_flops {self.total_flops}")
        for cat, val in self.category_flops().items():
            lines.append(f"# flops {cat} {val}")
        if self.runs_counted:
            lines.append(f"# runs_counted {self.runs_counted}")
            for cat, val in self.category_times().items():
                lines.append(f"# seconds {cat} {val:.9f}")
            lines.append("# per-kind mean seconds over counted runs")
            for kind, val in sorted(self.kind_times().items()):
                lines.append(f"{kind} {val:.9f}")
        else:
            lines.append("# per-kind flops")
            for kind, val in sorted(self.kind_flops().items()):
                lines.append(f"{kind} {val}")
        return "\n".join(lines) + "\n"


def count_flops(g: Graph) -> CostReport:
    """Static per-node FLOP counts at the graph's declared input shape."""
    shapes = validate(g)
    nodes = []
    for nid, out in shapes.items():
        node = g.nodes[nid]
        op = OPS[node.kind]
        ins = [shapes[src] for src in node.inputs]
        nodes.append(NodeCost(nid, node.kind, op.category, op.flops(node, ins, out)))
    return CostReport(nodes=nodes)


def profile(g: Graph, x: Tensor, runs: int) -> CostReport:
    """Mean per-node wall time over `runs` executions of the reference engine.

    The first ceil(runs / 10) executions warm caches and are discarded
    (capped so at least one run is counted). Single-threaded by design so
    the numbers are comparable across nodes.
    """
    if runs < 1:
        raise ValueError("runs must be >= 1")
    warmup = min(math.ceil(runs / 10), runs - 1)
    for _ in range(warmup):
        execute(g, x)
    counted = runs - warmup
    timings: dict[str, float] = {}
    for _ in range(counted):
        execute(g, x, timings=timings)
    flops = count_flops(g)
    for n in flops.nodes:
        n.mean_time = timings.get(n.node_id, 0.0) / counted
    return CostReport(nodes=flops.nodes, runs_counted=counted)


@dataclass
class DeltaReport:
    """Per-category cost movement between two reports."""

    absolute: dict[str, float]
    relative: dict[str, float | None]
    flop_speedup: float

    def to_text(self) -> str:
        lines = ["# category absolute_delta relative_delta"]
        for cat in CATEGORIES:
            rel = self.relative.get(cat)
            lines.append(f"{cat} {self.absolute.get(cat, 0)} "
                         f"{'n/a' if rel is None else f'{rel:.6f}'}")
        lines.append(f"flop_speedup {self.flop_speedup:.6f}")
        return "\n".join(lines) + "\n"


def compare(before: CostReport, after: CostReport) -> DeltaReport:
    """after minus before, per category, plus the flop-ratio speedup."""
    b = before.category_flops()
    a = after.category_flops()
    absolute = {cat: a.get(cat, 0) - b.get(cat, 0) for cat in CATEGORIES}
    relative = {
        cat: (absolute[cat] / b[cat]) if b.get(cat) else None for cat in CATEGORIES
    }
    if after.total_flops == 0:
        ratio = math.inf if before.total_flops else 1.0
    else:
        ratio = before.total_flops / after.total_flops
    return DeltaReport(absolute=absolute, relative=relative, flop_speedup=ratio)


def speedup(p: float, a: float) -> float:
    """Whole-program speedup when the fraction p of the work runs a× faster."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"fraction p must be in [0, 1], got {p}")
    if not a > 0:
        raise ValueError(f"acceleration factor must be > 0, got {a}")
    return 1.0 / ((1.0 - p) + p / a)


def amdahl_bound(p: float) -> float:
    """Ceiling of speedup(p, a) as a grows: 1 / (1 - p). Requires p < 1."""
    if not 0.0 <= p < 1.0:
        raise ValueError(f"fraction p must be in [0, 1), got {p}")
    return 1.0 / (1.0 - p)


def load_profile(path) -> dict[str, float]:
    """Read `label value` lines (comments and blanks skipped) into a dict."""
    out: dict[str, float] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for ln, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ValueError(f"{path}:{ln}: expected 'label value', got {line!r}")
            out[parts[0]] = float(parts[1])
    if not out:
        raise ValueError(f"{path}: no profile entries")
    return out


def speedup_from_profile(times: dict[str, float], accelerated, factor: float) -> float:
    """speedup() with p taken from measured times: the accelerated labels'
    share of the total. Labels must be disjoint entries of the profile."""
    labels = [accelerated] if isinstance(accelerated, str) else list(accelerated)
    for label in labels:
        if label not in times:
            raise ValueError(f"label {label!r} not in profile ({sorted(times)})")
    total = sum(times.values())
    if total <= 0:
        raise ValueError("profile total time must be positive")
    p = sum(times[label] for label in labels) / total
    return speedup(min(p, 1.0), factor)
