"""Traced-run analyzer: Chrome trace -> self/inclusive table -> per-layer metrics.

The runner's traced run writes the spans of the program (categories stage,
task, dock, ml, fe, pool, serve) plus the benchmark's own `bench` spans as a
Chrome trace_event file, and the metrics registry as JSON. This module reads
both and computes every per-layer metric of BENCHMARK.json from them; no
number here comes from a timer placed by hand inside the program.

Run it on a trace to print the table:

    python3 perfbench/analyze.py path/to/trace.json
"""

import json
import re
import statistics
import sys
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    cat: str
    start: float  # seconds
    end: float
    tid: int
    id: int
    parent: int  # 0 = root
    args: dict = field(default_factory=dict)

    @property
    def dur(self):
        return self.end - self.start


def load_trace(path):
    with open(path) as f:
        return parse_trace(json.load(f))


def parse_trace(doc):
    """Spans of a Chrome trace_event document ("X" events, microseconds)."""
    spans = []
    for ev in doc["traceEvents"]:
        if ev.get("ph") != "X":
            continue
        args = dict(ev.get("args", {}))
        span_id = int(args.pop("span_id", 0))
        parent = int(args.pop("parent_id", 0))
        start = ev["ts"] * 1e-6
        spans.append(Span(ev["name"], ev["cat"], start, start + ev["dur"] * 1e-6,
                          int(ev.get("tid", 0)), span_id, parent, args))
    return spans


def covered(intervals, lo=None, hi=None):
    """Length of the union of (start, end) intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        if lo is not None:
            a = max(a, lo)
        if hi is not None:
            b = min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans):
    """Span id -> self time: its duration minus the part of its interval that
    its child spans cover (children on any thread, overlaps counted once)."""
    children = {}
    for s in spans:
        if s.parent:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {s.id: s.dur - covered(children.get(s.id, []), s.start, s.end)
            for s in spans}


_ORDINAL = re.compile(r"\d+")


def group_name(name):
    """Collapse per-item ordinals (ligand ids, replica and iteration numbers)
    so one row stands for one kind of span."""
    return _ORDINAL.sub("N", name)


def table(spans):
    """(category, grouped name) -> count, inclusive and self seconds."""
    own = self_times(spans)
    rows = {}
    for s in spans:
        row = rows.setdefault((s.cat, group_name(s.name)),
                              {"count": 0, "inclusive_s": 0.0, "self_s": 0.0})
        row["count"] += 1
        row["inclusive_s"] += s.dur
        row["self_s"] += own[s.id]
    return rows


def format_table(rows):
    lines = [f"{'category':<8} {'name':<28} {'count':>7} {'inclusive_s':>12} {'self_s':>10}"]
    for (cat, name), r in sorted(rows.items(), key=lambda kv: -kv[1]["inclusive_s"]):
        lines.append(f"{cat:<8} {name[:28]:<28} {r['count']:>7} "
                     f"{r['inclusive_s']:>12.4f} {r['self_s']:>10.4f}")
    return "\n".join(lines)


# Per-layer metric names, in BENCHMARK.json order. A metric whose layer the
# workload does not exercise reads 0.
TASK_KINDS = ("ml1", "dock", "cg", "aae", "fg")
PER_LAYER = (
    ["core.init_s",
     "rct.tasks", "rct.task_busy_s", "rct.queue_wait_mean_s", "rct.idle_fraction"]
    + [f"rct.busy_s.{k}" for k in TASK_KINDS]
    + ["common.pool.jobs", "common.pool.stolen", "common.pool.busy_s",
       "common.pool.utilization", "common.pool.speedup",
       "dock.ligands", "dock.busy_s", "dock.evaluations", "dock.evals_per_busy_s",
       "dock.batch_fill_mean", "dock.ls_batch_s", "dock.ligand_s_p50",
       "dock.ligand_s_max",
       "fe.replicas", "fe.replica_busy_s", "fe.replica_s_max",
       "chem.featurize_s", "chem.featurize_us_per_ligand",
       "ml.predict_s", "ml.predict_us_per_image", "ml.train_s", "ml.gemm_flops",
       "ml.gemm_calls", "ml.gemm_gflops",
       "serve.batches", "serve.mean_batch", "serve.model_busy_s",
       "serve.cache_hit_ratio", "serve.cache_evictions", "serve.ewma_image_us",
       "serve.gen_lag_ms_max", "serve.p99_ms",
       "trace.overhead_frac"]
)


def _ratio(a, b):
    return a / b if b else 0.0


def quantile(values, q):
    """Inclusive-method quantile, q a whole percentile in (0, 1); 0 for no
    values."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]


def layer_metrics(spans, registry, raw):
    """Every per-layer metric for one traced run.

    spans: load_trace() output; registry: the metrics registry JSON;
    raw: the runner's result object (phase timings under "extra").
    """
    m = dict.fromkeys(PER_LAYER, 0.0)
    extra = raw.get("extra", {})
    counters = registry.get("counters", {})
    gauges = registry.get("gauges", {})
    histograms = registry.get("histograms", {})
    by_cat = {}
    for s in spans:
        by_cat.setdefault(s.cat, []).append(s)
    bench = [s for s in by_cat.get("bench", []) if s.name != "serve.request"]
    if len(bench) != 1:
        raise ValueError(f"expected one benchmark phase span, found {len(bench)}")
    bench = bench[0]
    wall = bench.dur
    workers = bench.args.get("workers", 1.0)

    # core: library set-up before the first stage of the graph starts.
    stages = by_cat.get("stage", [])
    if stages:
        m["core.init_s"] = min(s.start for s in stages) - bench.start

    # rct: task spans (the SessionProfile's source).
    tasks = by_cat.get("task", [])
    if tasks:
        m["rct.tasks"] = len(tasks)
        m["rct.task_busy_s"] = sum(s.dur for s in tasks)
        m["rct.queue_wait_mean_s"] = statistics.fmean(
            s.start - s.args.get("submit", s.start) for s in tasks)
        last = max(s.end for s in tasks)
        m["rct.idle_fraction"] = 1.0 - _ratio(
            covered([(s.start, s.end) for s in tasks], bench.start, last),
            last - bench.start)
        for kind in TASK_KINDS:
            m[f"rct.busy_s.{kind}"] = sum(s.dur for s in tasks
                                          if s.name.split("-")[0] == kind)

    # common: pool jobs. Busy time is the per-thread union, so a job that
    # nests another job on its own thread is counted once.
    pool = by_cat.get("pool", [])
    if pool:
        m["common.pool.jobs"] = len(pool)
        m["common.pool.stolen"] = sum(1 for s in pool if s.name == "job-stolen")
        lanes = {}
        for s in pool:
            lanes.setdefault(s.tid, []).append((s.start, s.end))
        m["common.pool.busy_s"] = sum(covered(iv) for iv in lanes.values())
        m["common.pool.utilization"] = _ratio(m["common.pool.busy_s"], workers * wall)
    if "serial_s" in extra:
        m["common.pool.speedup"] = _ratio(extra["serial_s"], extra["untraced_s"])

    # dock: one span per dock() call, named by ligand; lga.* are its phases.
    dock = by_cat.get("dock", [])
    ligands = sorted(s.dur for s in dock if not s.name.startswith("lga."))
    if ligands:
        m["dock.ligands"] = len(ligands)
        m["dock.busy_s"] = sum(ligands)
        m["dock.evaluations"] = counters.get("dock.evaluations", 0)
        m["dock.evals_per_busy_s"] = _ratio(m["dock.evaluations"], m["dock.busy_s"])
        fill = histograms.get("dock.batch.fill", {})
        m["dock.batch_fill_mean"] = _ratio(fill.get("sum", 0.0), fill.get("count", 0))
        m["dock.ls_batch_s"] = sum(s.dur for s in dock if s.name == "lga.ls_batch")
        m["dock.ligand_s_p50"] = statistics.median(ligands)
        m["dock.ligand_s_max"] = ligands[-1]

    # md/fe: ESMACS replicas (MD time).
    replicas = [s.dur for s in by_cat.get("fe", []) if s.name.startswith("replica-")]
    if replicas:
        m["fe.replicas"] = len(replicas)
        m["fe.replica_busy_s"] = sum(replicas)
        m["fe.replica_s_max"] = max(replicas)

    # ml: surrogate spans and the GEMM counters.
    ml = by_cat.get("ml", [])
    predict = [s for s in ml if s.name == "surrogate-predict"]
    m["ml.predict_s"] = sum(s.dur for s in predict)
    m["ml.predict_us_per_image"] = 1e6 * _ratio(
        m["ml.predict_s"], sum(s.args.get("images", 0.0) for s in predict))
    m["ml.train_s"] = sum(s.dur for s in ml if s.name == "surrogate-train")
    m["ml.gemm_flops"] = counters.get("ml.gemm.flops", 0)
    m["ml.gemm_calls"] = counters.get("ml.gemm.calls", 0)
    # Computed, not measured per GEMM: flops over the time of the spans that
    # run GEMMs (surrogate train/predict, and the S2 AAE task).
    m["ml.gemm_gflops"] = 1e-9 * _ratio(
        m["ml.gemm_flops"],
        m["ml.predict_s"] + m["ml.train_s"] + m["rct.busy_s.aae"])

    # chem: the self time of the benchmark's span around score_ligands —
    # everything but the predict spans — is parse + depict (+ spill/top-k).
    if bench.name == "screen.score_ligands":
        m["chem.featurize_s"] = self_times(spans)[bench.id]
        m["chem.featurize_us_per_ligand"] = 1e6 * _ratio(
            m["chem.featurize_s"], bench.args.get("ligands", 0.0))

    # serve: batch spans, the server's published counters, and the
    # benchmark's per-request spans.
    batches = [s for s in by_cat.get("serve", []) if s.name == "serve-batch"]
    if bench.name == "serve.open_loop":
        m["serve.batches"] = len(batches)
        m["serve.mean_batch"] = _ratio(sum(s.args.get("requests", 0.0) for s in batches),
                                       len(batches))
        batch_ids = {s.id for s in batches}
        m["serve.model_busy_s"] = sum(s.dur for s in predict if s.parent in batch_ids)

        def delta(stat):
            return sum(v - gauges.get(k.replace("serve.", "serve_before.", 1), 0.0)
                       for k, v in gauges.items()
                       if k.startswith("serve.") and k.endswith("." + stat))
        hits, misses = delta("cache_hits"), delta("cache_misses")
        m["serve.cache_hit_ratio"] = _ratio(hits, hits + misses)
        m["serve.cache_evictions"] = delta("cache_evictions")
        m["serve.ewma_image_us"] = max((v for k, v in gauges.items()
                                        if k.startswith("serve.")
                                        and k.endswith(".ewma_image_us")), default=0.0)
        m["serve.gen_lag_ms_max"] = 1e3 * bench.args.get("gen_lag_max_s", 0.0)
        requests = [s.dur for s in by_cat.get("bench", []) if s.name == "serve.request"]
        m["serve.p99_ms"] = 1e3 * quantile(requests, 0.99)
    if "untraced_s" in extra:
        m["trace.overhead_frac"] = _ratio(extra["traced_s"], extra["untraced_s"]) - 1.0
    return m


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    print(format_table(table(load_trace(argv[1]))))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
