"""Fast self-test of the benchmark harness on the tiny instance lists.

    python3 bench/selftest.py

Covers the metric names against BENCHMARK.json, the host-speed probe,
the output checks (they pass on real output and catch corrupted output),
that the computed per-layer counts repeat exactly from run to run, the
scan-size rule of requirements.py, and that the benchmark refuses to run
without sources.
"""

from __future__ import annotations

import csv
import json
import shutil
import subprocess
import sys
import time
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import requirements  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

WORKDIR = BENCH / "_work" / "selftest"


def tiny(name: str, trace: bool) -> dict:
    return run.measure(name, seed=3, seconds=0, trace=trace, size="tiny")


class MetricNames(unittest.TestCase):
    def test_names_and_units_match_benchmark_json(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         run.END_TO_END_UNITS)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         spans.LAYER_METRICS)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))

    def test_manifest_lists_the_instances(self):
        manifest = json.loads((BENCH / "manifest.json").read_text())
        self.assertEqual(list(manifest["workloads"]), list(run.WORKLOADS))
        for name, sizes in workloads.INSTANCES.items():
            self.assertEqual(manifest["workloads"][name]["instances"],
                             [workloads.pair_label(p) for p in sizes["full"]])
            self.assertEqual([row["instance"] for row in manifest["scan_sizes"][name]],
                             [workloads.pair_label(p) for p in sizes["full"]])

    def test_every_workload_reports_every_metric(self):
        for name in run.WORKLOADS:
            for trace, names in ((False, run.END_TO_END_UNITS), (True, spans.LAYER_METRICS)):
                with self.subTest(workload=name, trace=trace):
                    result = tiny(name, trace)
                    self.assertTrue(result["correct"], result["problems"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreater(result["attempted"], 0)
                    self.assertEqual(set(result["metrics"]), set(names))


class ComputedCounts(unittest.TestCase):
    def test_counts_repeat_exactly(self):
        for name in run.WORKLOADS:
            with self.subTest(workload=name):
                first, second = tiny(name, True), tiny(name, True)
                for metric in spans.EXACT_METRICS:
                    self.assertEqual(first["metrics"][metric], second["metrics"][metric], metric)

    def test_construct_scans_are_all_refused(self):
        m = tiny("construct", True)["metrics"]
        self.assertEqual(m["oracle.cap_exceeded"]["value"], 4)
        self.assertGreater(m["gf2.write_pcm.bytes"]["value"], 0)
        self.assertGreater(m["gf2.parse_pcm.bytes"]["value"], 0)


class SpeedProbe(unittest.TestCase):
    def test_probe_samples_while_entered_and_times_itself(self):
        with speed.Probe() as probe:
            end = time.perf_counter() + 0.3
            while time.perf_counter() < end:
                pass
        count = len(probe.samples)
        self.assertGreaterEqual(count, 3)
        self.assertGreaterEqual(probe.spent_wall, sum(w for w, _ in probe.samples))
        time.sleep(2 * speed.INTERVAL_S)
        self.assertEqual(len(probe.samples), count)  # the timer is off
        for scale in probe.scales():
            self.assertGreater(scale, 0)

    def test_scales_take_a_sample_when_none_was_taken(self):
        probe = speed.Probe()
        self.assertGreater(probe.scales()[0], 0)
        self.assertEqual(len(probe.samples), 1)


class OutputChecks(unittest.TestCase):
    def setUp(self):
        shutil.rmtree(WORKDIR, ignore_errors=True)
        WORKDIR.mkdir(parents=True)

    def tearDown(self):
        shutil.rmtree(WORKDIR, ignore_errors=True)

    def outputs(self, name: str):
        jobs = workloads.setup(name, 5, WORKDIR, "tiny")
        for job in jobs:
            code, out = workloads.run_cli(job.argv)
            self.assertEqual(workloads.check_job(job, code, out), [], job.label)
            self.assertNotEqual(workloads.check_job(job, code + 1, out), [], job.label)
            yield job, code, out

    def assert_caught(self, job, code, obj):
        self.assertNotEqual(workloads.check_job(job, code, json.dumps(obj)), [], job.label)

    def test_distance_mismatch_is_caught(self):
        for job, code, out in self.outputs("distance"):
            obj = json.loads(out)
            obj["measured"]["dX"] += 1
            self.assert_caught(job, code, obj)

    def test_violated_bound_and_pin_are_caught(self):
        for job, code, out in self.outputs("soundness"):
            sides = json.loads(out)
            got = [[s["measured"]["num"], s["measured"]["den"]] for s in sides]
            sides[0]["holds"] = False
            self.assert_caught(job, code, sides)
            self.assertEqual(workloads._soundness_checker(got)(out), [])
            self.assertNotEqual(workloads._soundness_checker([[1, 1], [1, 1]])(out), [])

    def test_sweep_na_and_digest_are_caught(self):
        for job, code, out in self.outputs("sweep"):
            csv_path = job.argv[job.argv.index("-o") + 1]
            with open(csv_path, newline="") as fh:
                rows = list(csv.reader(fh))
            self.assertNotEqual(workloads._sweep_checker(csv_path, len(rows) - 1, "0" * 64)(out), [])
            rows[1][rows[0].index("holdsX")] = "NA"
            with open(csv_path, "w", newline="") as fh:
                csv.writer(fh).writerows(rows)
            self.assertNotEqual(workloads.check_job(job, code, out), [])

    def test_construct_sizes_are_checked(self):
        for job, code, out in self.outputs("construct"):
            obj = json.loads(out)
            obj["nX"] += 1
            self.assert_caught(job, code, obj)

    def test_double_balanced_sizes(self):
        # q(rep8) x rep8 as written by `balance --double`.
        self.assertEqual(workloads.double_balanced_sizes(16, 7, 8, 1, 8, 7, 1),
                         {"n": 2648, "nX": 1687, "nZ": 1408, "K": 1})


class Contract(unittest.TestCase):
    def test_every_scan_fits_or_is_far_over_the_cap(self):
        self.assertEqual(requirements.verdict({"gray_log2": 24, "bfs_log2": 11}), "fits")
        self.assertEqual(requirements.verdict({"gray_log2": 25, "bfs_log2": 11}), "VIOLATES")
        self.assertEqual(requirements.verdict({"gray_log2": 125, "bfs_log2": 200}),
                         "over by more than 2^100")
        shutil.rmtree(WORKDIR, ignore_errors=True)
        WORKDIR.mkdir(parents=True)
        try:
            gen = workloads.Generator(WORKDIR, 0)
            for name, sizes in workloads.INSTANCES.items():
                for pair in sizes["full"]:
                    qc = workloads.load_css(Path(gen.path(pair[0])))
                    rc = workloads.load_classical(Path(gen.path(pair[1])))
                    for scan in requirements.instance_scans(name, qc, rc):
                        self.assertNotEqual(scan["verdict"], "VIOLATES", (pair, scan))
        finally:
            shutil.rmtree(WORKDIR, ignore_errors=True)

    def test_refuses_to_run_without_sources(self):
        bare = WORKDIR / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        try:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(BENCH, bare / "bench",
                            ignore=shutil.ignore_patterns("_work", "_out", "__pycache__"))
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", "distance", "--seed", "0",
                 "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=60)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout, "")
        finally:
            shutil.rmtree(WORKDIR, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
