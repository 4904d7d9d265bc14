"""Benchmark of the cssbalance command-line interface.

    python3 bench/run.py --workload distance --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 30

A closed loop with one client: the benchmark calls ``cssbalance.cli.main``
in its own process, one job at a time, and runs a workload's fixed job
list over and over (a pass) for about ``--seconds``, at least once. Each
workload runs in a process of its own; ``--workload all`` starts one per
workload, one after the other, and prints a line for each.

Set-up, timed ``SETUP_REPS`` times, generates the input files from
``--seed`` with the CLI's ``gen`` command and warms the code paths by
running the workload's tiny job list once; imports happen before the
first time. Every job's exit code and output are checked (see
workloads.py), the warm-up jobs' too.

``--trace 0`` reports the end-to-end metrics: the wall and CPU time of
the job list, the process's peak resident memory, and the set-up time.
Each time is scaled to a fixed reference speed of the host by the probe
of speed.py, which samples the interpreter's speed all through set-up
and every untraced pass, because the shared virtual machine of the
baseline changes speed by up to 2x from second to second and from
minute to minute. wall_s and cpu_s are the medians over the run's passes
of each pass's time scaled by the probe samples taken during that pass;
setup_s is the median set-up time scaled by the samples of all set-ups.
The summary line also prints the unscaled median pass time (raw_wall_s).

``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of spans.py, medians over the traced passes, plus the
tracing overhead: the median scaled wall time of the traced passes less
that of the untraced ones. Traced passes run under the probe too, so
their spans' self times include its samples, about 1% of the time. It
writes the spans of the first traced pass to bench/_out/.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("distance", "soundness", "sweep", "construct")
SETUP_REPS = 20
END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
CHILD_TIMEOUT_S = 900


def parse_args(argv):
    p = argparse.ArgumentParser(description="benchmark of the cssbalance CLI")
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def run_pass(jobs, workloads, probe) -> tuple[float, float, int, list[str]]:
    """Run the job list once: (wall seconds, CPU seconds, failed jobs,
    problems). Only the CLI calls are timed, less the time the probe took
    during them; checking their output is not."""
    gc.collect()
    wall = cpu = 0.0
    failed = 0
    problems: list[str] = []
    for job in jobs:
        spent_wall, spent_cpu = probe.spent_wall, probe.spent_cpu
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            code, out = workloads.run_cli(job.argv)
        except Exception as exc:  # a crash is a failed job, not a failed run
            code, out = None, f"raised {exc!r}"
        wall += time.perf_counter() - w0
        cpu += time.process_time() - c0
        wall -= probe.spent_wall - spent_wall
        cpu -= probe.spent_cpu - spent_cpu
        bad = workloads.check_job(job, code, out)
        failed += bool(bad)
        problems += bad
    return wall, cpu, failed, problems


def measure(name: str, seed: int, seconds: float, trace: bool, size: str = "full") -> dict:
    """Set up and run one workload in this process; returns the result
    object that run.py prints, plus the list of problems found."""
    import spans
    import speed
    import workloads

    workdir = BENCH / "_work" / f"{name}-{os.getpid()}"
    attempted = failed = 0
    problems: list[str] = []
    untraced, traced = [], []
    first_tracer = None
    try:
        setup_times = []
        with speed.Probe(speed.SETUP_INTERVAL_S) as probe:
            for _ in range(SETUP_REPS):
                shutil.rmtree(workdir, ignore_errors=True)
                (workdir / "warm").mkdir(parents=True)
                spent = probe.spent_wall
                t0 = time.perf_counter()
                jobs = workloads.setup(name, seed, workdir, size)
                warm = workloads.setup(name, seed, workdir / "warm", "tiny")
                _, _, warm_failed, bad = run_pass(warm, workloads, probe)
                setup_times.append(time.perf_counter() - t0 - (probe.spent_wall - spent))
                attempted += len(warm)
                failed += warm_failed
                problems += bad
            setup_scale = probe.scales()[0]

        # Start another pass only if it should end by the deadline, so that
        # a run takes about --seconds whatever the pass length.
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            with speed.Probe() as probe:
                wall, cpu, bad_jobs, bad = run_pass(jobs, workloads, probe)
                wall_scale, cpu_scale = probe.scales()
            untraced.append((wall, cpu, wall * wall_scale, cpu * cpu_scale))
            attempted += len(jobs)
            failed += bad_jobs
            problems += bad
            if trace:
                tracer = spans.Tracer()
                with speed.Probe() as probe, tracer:
                    wall, cpu, bad_jobs, bad = run_pass(jobs, workloads, probe)
                    wall_scale, _ = probe.scales()
                traced.append((wall * wall_scale, spans.pass_metrics(tracer)))
                first_tracer = first_tracer or tracer
                attempted += len(jobs)
                failed += bad_jobs
                problems += bad
            now = time.perf_counter()
            if now + (now - t0) > start + seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {},
        "problems": problems,
    }
    if not trace:
        values = {
            "wall_s": statistics.median(p[2] for p in untraced),
            "cpu_s": statistics.median(p[3] for p in untraced),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": statistics.median(setup_times) * setup_scale,
        }
        result["raw_wall_s"] = statistics.median(p[0] for p in untraced)
        result["metrics"] = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
        return result

    per_pass = [p[1] for p in traced]
    for metric in spans.EXACT_METRICS:
        seen = {m[metric] for m in per_pass}
        if len(seen) > 1:
            result["correct"] = False
            problems.append(f"{metric} differs between traced passes: {sorted(seen)}")
    values = {}
    for metric, unit in spans.LAYER_METRICS.items():
        if metric == "trace.overhead_s":
            value = (statistics.median(p[0] for p in traced)
                     - statistics.median(p[2] for p in untraced))
        elif metric in spans.EXACT_METRICS:
            value = per_pass[0][metric]
        else:
            value = statistics.median(m[metric] for m in per_pass)
        values[metric] = {"value": value, "unit": unit}
    result["metrics"] = values
    out_dir = BENCH / "_out"
    out_dir.mkdir(exist_ok=True)
    spans.write_spans(out_dir / f"spans-{name}.json", first_tracer)
    return result


def summary(name: str, result: dict, raw_wall_s=None) -> str:
    error_rate = result["failed"] / result["attempted"]
    cells = [f"{k}={v['value']:.6g} {v['unit']}" for k, v in result["metrics"].items()]
    if raw_wall_s is not None:
        cells.append(f"raw_wall_s={raw_wall_s:.6g} s")
    return f"{name}: " + "  ".join(cells + [f"error_rate={error_rate:.6g}",
                                            f"jobs={result['attempted']}"])


def run_all(args) -> int:
    """Each workload in a child process of its own, one after another."""
    ok = True
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit code {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            ok = False
            continue
        results[name] = json.loads(lines[-1])
        ok = ok and results[name]["correct"]
        print(lines[-2] if len(lines) > 1 else summary(name, results[name]), flush=True)
    print(json.dumps({"correct": ok, "workloads": results}))
    return 0 if ok else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if not (SRC / "cssbalance" / "cli.py").is_file():
        print(f"error: no cssbalance sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    for problem in result.pop("problems")[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    raw_wall_s = result.pop("raw_wall_s", None)
    print(summary(args.workload, result, raw_wall_s))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
