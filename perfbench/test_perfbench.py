"""Tests of the benchmark itself: the analyzer's self-time arithmetic and the
metric definitions. Run from the repository root:

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import re
import unittest

import analyze
import run

HERE = os.path.dirname(os.path.abspath(__file__))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def event(name, cat, start_us, dur_us, span_id, parent=0, tid=0, **args):
    args = dict(args, span_id=span_id)
    if parent:
        args["parent_id"] = parent
    return {"name": name, "cat": cat, "ph": "X", "ts": start_us, "dur": dur_us,
            "pid": 1, "tid": tid, "args": args}


def trace(*events):
    return analyze.parse_trace({"traceEvents": list(events)})


class SelfTime(unittest.TestCase):
    def test_children_subtract_once_and_clip_to_parent(self):
        spans = trace(
            event("root", "bench", 0, 10, 1),
            event("a", "ml", 1, 2, 2, parent=1),            # [1, 3]
            event("b", "ml", 2, 3, 3, parent=1, tid=1),     # [2, 5] overlaps a
            event("c", "ml", 9, 3, 4, parent=1, tid=2),     # [9, 12] clipped at 10
            event("grandchild", "ml", 1.5, 1, 5, parent=2), # inside a only
        )
        own = analyze.self_times(spans)
        self.assertAlmostEqual(own[1], (10 - (4 + 1)) * 1e-6)
        self.assertAlmostEqual(own[2], (2 - 1) * 1e-6)
        self.assertAlmostEqual(own[3], 3e-6)
        self.assertAlmostEqual(own[5], 1e-6)

    def test_table_groups_ordinals(self):
        spans = trace(
            event("replica-0", "fe", 0, 4, 1),
            event("replica-1", "fe", 4, 6, 2),
            event("OZD-000017", "dock", 0, 3, 3),
        )
        rows = analyze.table(spans)
        self.assertEqual(rows[("fe", "replica-N")]["count"], 2)
        self.assertAlmostEqual(rows[("fe", "replica-N")]["inclusive_s"], 10e-6)
        self.assertIn(("dock", "OZD-N"), rows)

    def test_covered_merges_and_clips(self):
        self.assertEqual(analyze.covered([]), 0.0)
        self.assertEqual(analyze.covered([(0, 2), (1, 3), (5, 6)]), 4.0)
        self.assertEqual(analyze.covered([(0, 2), (1, 3), (5, 6)], 1, 5.5), 2.5)

    def test_screen_featurize_is_bench_self_time(self):
        spans = trace(
            event("screen.score_ligands", "bench", 0, 1000, 1, ligands=10, workers=2),
            event("surrogate-predict", "ml", 100, 300, 2, parent=1, images=10),
            event("job", "pool", 150, 200, 3, tid=1),
            event("job", "pool", 160, 100, 4, tid=2),
        )
        m = analyze.layer_metrics(spans, {}, {"extra": {"untraced_s": 2.0,
                                                        "traced_s": 2.1,
                                                        "serial_s": 3.0}})
        self.assertAlmostEqual(m["chem.featurize_s"], 700e-6)
        self.assertAlmostEqual(m["chem.featurize_us_per_ligand"], 70.0)
        self.assertAlmostEqual(m["ml.predict_us_per_image"], 30.0)
        self.assertAlmostEqual(m["common.pool.busy_s"], 300e-6)
        self.assertAlmostEqual(m["common.pool.utilization"], 300e-6 / (2 * 1000e-6))
        self.assertAlmostEqual(m["common.pool.speedup"], 1.5)
        self.assertAlmostEqual(m["trace.overhead_frac"], 0.05)
        self.assertEqual(m["dock.ligands"], 0.0)

    def test_campaign_tasks_and_init(self):
        spans = trace(
            event("campaign.run", "bench", 0, 100, 1, workers=1),
            event("ML1", "stage", 20, 10, 2),
            event("ml1-train-infer", "task", 20, 10, 3, submit=15e-6),
            event("dock-OZD-000001", "task", 40, 20, 4, submit=30e-6),
            event("OZD-000001", "dock", 40, 20, 5),
            event("lga.ls_batch", "dock", 45, 5, 6, parent=5),
        )
        m = analyze.layer_metrics(spans, {"counters": {"dock.evaluations": 400}}, {})
        self.assertAlmostEqual(m["core.init_s"], 20e-6)
        self.assertEqual(m["rct.tasks"], 2)
        self.assertAlmostEqual(m["rct.queue_wait_mean_s"], 7.5e-6)
        self.assertAlmostEqual(m["rct.idle_fraction"], 1 - 30 / 60)
        self.assertAlmostEqual(m["rct.busy_s.dock"], 20e-6)
        self.assertEqual(m["dock.ligands"], 1)
        self.assertAlmostEqual(m["dock.evals_per_busy_s"], 400 / 20e-6)
        self.assertAlmostEqual(m["dock.ls_batch_s"], 5e-6)

    def test_serve_metrics_from_open_loop(self):
        spans = trace(
            event("serve.open_loop", "bench", 0, 1000, 1, gen_lag_max_s=2e-4),
            event("serve-batch", "serve", 100, 50, 2, requests=3),
            event("serve-batch", "serve", 300, 50, 3, requests=1),
            event("surrogate-predict", "ml", 110, 30, 4, parent=2, images=3),
            event("serve.request", "bench", 90, 60, 5),
            event("serve.request", "bench", 290, 60, 6),
        )
        registry = {"gauges": {"serve_before.t.cache_hits": 10.0,
                               "serve_before.t.cache_misses": 10.0,
                               "serve.t.cache_hits": 13.0,
                               "serve.t.cache_misses": 11.0,
                               "serve.t.ewma_image_us": 40.0}}
        m = analyze.layer_metrics(spans, registry, {})
        self.assertEqual(m["serve.batches"], 2)
        self.assertAlmostEqual(m["serve.mean_batch"], 2.0)
        self.assertAlmostEqual(m["serve.model_busy_s"], 30e-6)
        self.assertAlmostEqual(m["serve.cache_hit_ratio"], 0.75)
        self.assertEqual(m["serve.ewma_image_us"], 40.0)
        self.assertAlmostEqual(m["serve.gen_lag_ms_max"], 0.2)
        self.assertAlmostEqual(m["serve.p99_ms"], 0.06)
        self.assertEqual(m["trace.overhead_frac"], 0.0)

    def test_one_bench_phase_span_required(self):
        with self.assertRaises(ValueError):
            analyze.layer_metrics(trace(event("x", "ml", 0, 1, 1)), {}, {})


class MetricNames(unittest.TestCase):
    def setUp(self):
        with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
            self.spec = json.load(f)

    def test_names_and_units_are_valid_and_unique(self):
        metrics = self.spec["end_to_end"] + self.spec["per_layer"]
        names = [m["name"] for m in metrics] + [w["name"] for w in self.spec["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for m in metrics:
            self.assertRegex(m["name"], NAME)
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("higher", "lower"))
        for w in self.spec["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])
        for m in self.spec["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for m in self.spec["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertLessEqual(m["bound"], 0.25)
        setup = next(m for m in self.spec["end_to_end"] if m["name"] == "setup_s")
        self.assertEqual((setup["unit"], setup["better"]), ("s", "lower"))
        self.assertEqual(setup["bound"], max(m["bound"] for m in self.spec["end_to_end"]))

    def test_reference_covers_seeds_0_to_255(self):
        refs = run.load_references()["campaign_fingerprint_sha256"]
        self.assertEqual(set(refs), {str(s) for s in range(256)})
        for digest in refs.values():
            self.assertRegex(digest, r"^[0-9a-f]{64}$")

    def test_quantile(self):
        self.assertEqual(analyze.quantile([], 0.95), 0.0)
        self.assertEqual(analyze.quantile([3.0], 0.95), 3.0)
        self.assertAlmostEqual(analyze.quantile([float(i) for i in range(101)], 0.95), 95.0)

    def test_end_to_end_from_raw_samples(self):
        raw = {"setup_s": [3.0, 1.0, 2.0], "op_s": [0.001, 0.003, 0.010, 0.020],
               "items": 8, "busy_s": 2.0, "peak_rss_kib": 2048, "failed": 1,
               "attempted": 4}
        m = run.end_to_end(raw)
        self.assertEqual(m["setup_s"], 2.0)
        self.assertAlmostEqual(m["latency_p50_ms"], 6.5)
        self.assertEqual(m["ligands_per_s"], 4.0)
        self.assertEqual(m["peak_rss_mb"], 2.0)
        self.assertAlmostEqual(m["ok_frac"], 0.75)

    def test_code_reports_exactly_the_declared_metrics(self):
        self.assertEqual(list(analyze.PER_LAYER),
                         [m["name"] for m in self.spec["per_layer"]])
        raw = {"setup_s": [1.0, 2.0, 3.0], "op_s": [0.1, 0.2], "items": 4,
               "busy_s": 2.0, "peak_rss_kib": 2048, "failed": 0, "attempted": 4}
        self.assertEqual(set(run.end_to_end(raw)),
                         {m["name"] for m in self.spec["end_to_end"]})
        self.assertEqual({w["name"] for w in self.spec["workloads"]}, set(run.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
